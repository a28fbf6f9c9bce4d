"""catkit: categorical structures as executable artifacts.

Subpackages and modules:

- scalars: tagged semiring scalars (bool / nat / complex)
- matcat: the matrix category over a semiring, with biproducts,
  Kronecker tensor, dagger, and compact structure
- diagram: the free dagger compact symmetric monoidal category over a
  signature, with a port-graph normal form deciding equality
- frobenius: spider fusion and the 2-dimensional cobordism classifier
- presentations: Frobenius presentations, their law checks, and
  interpretations (the matrix data diagrams are read in)
- tqft: the tensor network behind interpret, evaluate_graph and
  evaluate_cob, the matrix evaluations of diagrams and cobordisms
- lawcheck: a harness checking the equational laws, including the
  negative examples that must fail
- cli: the catkit command-line front end

Exports load on first use: ``import catkit`` imports none of the
modules above, ``catkit.parse`` imports only ``diagram``'s terms and
parser, so the symbolic layers never pull in numpy, and the law battery
(lawcheck and presentations) loads no parser, graph code or tensor
network.
"""

import importlib

# each exported name under the module that defines it
_EXPORTS = {
    "scalars": ("BOOL", "COMPLEX", "NAT", "ScalarValue", "SemiringTag", "complex_tag"),
    "matcat": ("MatrixMorphism",),
    "diagram": (
        "ObjectWord",
        "ParseError",
        "Signature",
        "TypeMismatch",
        "UnknownName",
        "graph_eq",
        "parse",
        "to_graph",
        "typecheck",
    ),
    "frobenius": ("classify_cob", "cob_signature", "eq_cob", "fuse"),
    "lawcheck": ("LAW_MANIFEST", "LawEntry", "LawReport", "assert_expected", "merge_reports"),
    "presentations": (
        "FrobeniusPresentation",
        "Interpretation",
        "basis_frobenius",
        "interpretation_from_data",
        "verify_frobenius",
        "xor_frobenius",
    ),
    "tqft": ("evaluate_cob", "evaluate_graph", "interpret"),
}


def _lazy_exports(namespace, exports):
    """__all__ and the PEP 562 __getattr__ and __dir__ of the package whose
    globals are namespace, exporting each name of exports from its module."""
    package = namespace["__name__"]
    home = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name):
        if name in exports:
            return importlib.import_module(f".{name}", package)
        if name not in home:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f".{home[name]}", package), name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted({*namespace, *home, *exports})

    return list(home), __getattr__, __dir__


__all__, __getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
