"""catkit: categorical structures as executable artifacts.

Subpackages and modules:

- scalars: tagged semiring scalars (bool / nat / complex)
- matcat: the matrix category over a semiring, with biproducts,
  Kronecker tensor, dagger, and compact structure
- diagram: the free dagger compact symmetric monoidal category over a
  signature, with a port-graph normal form deciding equality
- frobenius: spider fusion and the 2-dimensional cobordism classifier
- tqft: interpretations of diagrams as matrices, Frobenius
  presentations, and cobordism evaluation
- lawcheck: a harness checking the equational laws, including the
  negative examples that must fail
- cli: the catkit command-line front end

Exports load on first use: ``import catkit`` imports none of the
modules above, and ``catkit.parse`` imports only ``diagram``, so the
symbolic layers never pull in numpy.
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
    "tqft": (
        "FrobeniusPresentation",
        "Interpretation",
        "basis_frobenius",
        "evaluate_cob",
        "evaluate_graph",
        "interpret",
        "interpretation_from_data",
        "verify_frobenius",
        "xor_frobenius",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
