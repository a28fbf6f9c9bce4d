"""Frobenius presentations and interpretations: the matrix data diagrams are read in.

A FrobeniusPresentation is a (co)monoid pair of matrices on one object,
checked as matrix equations by verify_frobenius.  An Interpretation assigns
dimensions, generator matrices and presentations to a signature's names;
interpretation_from_data reads one from JSON-style data.  tqft builds and
contracts spiders, so the law battery loads no parser, graph code or
contraction engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .diagram.terms import ObjectWord, Signature, UnknownName
from .lawcheck import LawReport, law_report
from .matcat import MatrixMorphism, ShapeMismatch, compose, counit_eps, dagger, max_deviation, swap_matrix, tensor
from .scalars import COMPLEX, DEFAULT_TOLERANCE, SemiringTag, join_tags


@dataclass(frozen=True)
class FrobeniusPresentation:
    """Comonoid (delta, eps) and monoid (mu, unit_e) matrices on one object.

    Only the shapes are validated on construction; everything else is
    measured from the matrices.  basis_copy: delta is exactly the basis
    copy map, mu its transpose, eps and unit_e all ones.  pairing_deviation:
    the distance of the pairing eps . mu from the identity pairing.
    commutative, special and dagger: whether the commutativity, speciality
    and dagger-structure equations of flag_report pass.  evaluate_graph
    checks commutative and pairing_deviation.  flag_report, verification,
    the verify_frobenius report, and failed_laws, the verdict evaluate_cob
    reads, are measured on first use and kept; none is compared or printed.
    """

    dim: int
    delta: MatrixMorphism
    eps: MatrixMorphism
    mu: MatrixMorphism
    unit_e: MatrixMorphism
    basis_copy: bool = field(init=False, repr=False, compare=False)
    pairing_deviation: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        d = self.dim
        if d < 0:
            raise ValueError("dimension must be nonnegative")
        for m, r, c, name in [
            (self.delta, d * d, d, "delta"),
            (self.eps, 1, d, "eps"),
            (self.mu, d, d * d, "mu"),
            (self.unit_e, d, 1, "unit_e"),
        ]:
            if m.rows != r or m.cols != c:
                raise ShapeMismatch(
                    f"{name} must be {r}x{c} for dimension {d}, got {m.rows}x{m.cols}"
                )
        join_tags(join_tags(self.delta.tag, self.eps.tag), join_tags(self.mu.tag, self.unit_e.tag))
        dtype = self.delta.data.dtype  # a comparison across dtypes costs numpy 0.25 MB
        copy = _copy3(d, dtype).ravel()  # delta and mu
        ones = np.ones(d, dtype)  # eps and unit_e
        pairs = ((self.delta, copy), (self.mu, copy), (self.eps, ones), (self.unit_e, ones))
        object.__setattr__(self, "basis_copy", all(np.array_equal(m.data.ravel(), c) for m, c in pairs))
        with np.errstate(all="ignore"):  # overflowing data fails the check, not construction
            deviation = max_deviation(compose(self.eps, self.mu), counit_eps(self.tag, d))
        object.__setattr__(self, "pairing_deviation", deviation)

    @property
    def tag(self) -> SemiringTag:
        return self.delta.tag

    @cached_property
    def flag_report(self) -> LawReport:
        """The commutativity, speciality and dagger-structure equations, measured once."""
        with np.errstate(all="ignore"):  # overflowing data fails its equations
            return law_report("frobenius", self.tag.tolerance, _flag_laws(self))

    @property
    def commutative(self) -> bool:
        return self.flag_report.entries[0].passed

    @property
    def special(self) -> bool:
        return self.flag_report.entries[1].passed

    @property
    def dagger(self) -> bool:
        return self.flag_report.entries[2].passed

    @cached_property
    def verification(self) -> LawReport:
        """verify_frobenius(self), measured once; dataclasses.replace measures afresh."""
        return verify_frobenius(self)

    @cached_property
    def failed_laws(self) -> str:
        """The laws verification finds broken, comma-separated; empty if it passes."""
        return ", ".join(e.name for e in self.verification.surprises())


def basis_frobenius(d: int, tag: SemiringTag = COMPLEX) -> FrobeniusPresentation:
    """The copy/delete presentation attached to the standard basis.

    delta copies basis vectors, eps deletes them, and the monoid half is the
    adjoint pair; it is commutative, special and dagger.
    """
    dtype = tag.ops.dtype
    delta = MatrixMorphism._raw(tag, _copy3(d, dtype).reshape(d * d, d))
    eps = MatrixMorphism._raw(tag, np.ones((1, d), dtype))
    return FrobeniusPresentation(d, delta, eps, dagger(delta), dagger(eps))


def xor_frobenius(tag: SemiringTag = COMPLEX) -> FrobeniusPresentation:
    """Frobenius structure of the two-element group algebra.

    Multiplication is exclusive-or on basis indices.  Commutative and
    dagger, but mu . delta = 2 id, so it is special only over booleans;
    this makes it the standard witness that genus is semantically visible.
    """
    delta = MatrixMorphism(tag, [[1, 0], [0, 1], [0, 1], [1, 0]])
    eps = MatrixMorphism(tag, [[1, 0]])
    mu = MatrixMorphism(tag, [[1, 0, 0, 1], [0, 1, 1, 0]])
    unit_e = MatrixMorphism(tag, [[1], [0]])
    return FrobeniusPresentation(2, delta, eps, mu, unit_e)


def hopf_group_z2(tag: SemiringTag = COMPLEX):
    """Bimonoid of the two-element group: basis copy with xor multiplication.

    Returns (presentation, antipode).  The pairing is deliberately mixed --
    comonoid from the basis, monoid from the group -- so it is a bialgebra
    and a Hopf algebra (the antipode is the identity since every element is
    its own inverse), but not a Frobenius pairing.
    """
    delta = MatrixMorphism(tag, [[1, 0], [0, 0], [0, 0], [0, 1]])
    eps = MatrixMorphism(tag, [[1, 1]])
    mu = MatrixMorphism(tag, [[1, 0, 0, 1], [0, 1, 1, 0]])
    unit_e = MatrixMorphism(tag, [[1], [0]])
    p = FrobeniusPresentation(2, delta, eps, mu, unit_e)
    return p, MatrixMorphism.identity(tag, 2)


def _flag_laws(p: FrobeniusPresentation) -> list:
    """The commutativity, speciality and dagger-structure equations."""
    sigma = swap_matrix(p.tag, p.dim, p.dim)
    return [
        ("commutativity", [(None, compose(sigma, p.delta), p.delta), (None, compose(p.mu, sigma), p.mu)]),
        ("speciality", [(None, compose(p.mu, p.delta), MatrixMorphism.identity(p.tag, p.dim))]),
        ("dagger-structure", [(None, dagger(p.delta), p.mu), (None, dagger(p.eps), p.unit_e)]),
    ]


def verify_frobenius(p: FrobeniusPresentation) -> LawReport:
    """Check the (co)monoid and Frobenius laws as matrix equations, followed
    by the passing entries of p.flag_report.

    Failures are report entries, never exceptions, so unverifiable data over
    restrictive semirings is reported rather than rejected.
    """
    tag = p.tag
    d = p.dim
    ident = MatrixMorphism.identity(tag, d)
    frob_mid = compose(p.delta, p.mu)

    checks = [
        ("coassociativity", compose(tensor(p.delta, ident), p.delta), compose(tensor(ident, p.delta), p.delta)),
        ("counit-left", compose(tensor(p.eps, ident), p.delta), ident),
        ("counit-right", compose(tensor(ident, p.eps), p.delta), ident),
        ("associativity", compose(p.mu, tensor(p.mu, ident)), compose(p.mu, tensor(ident, p.mu))),
        ("unit-left", compose(p.mu, tensor(p.unit_e, ident)), ident),
        ("unit-right", compose(p.mu, tensor(ident, p.unit_e)), ident),
        ("frobenius-left", compose(tensor(ident, p.mu), tensor(p.delta, ident)), frob_mid),
        ("frobenius-right", compose(tensor(p.mu, ident), tensor(ident, p.delta)), frob_mid),
    ]
    report = law_report("frobenius", tag.tolerance, [(name, [(None, lhs, rhs)]) for name, lhs, rhs in checks])
    report.entries += [e for e in p.flag_report.entries if e.passed]
    return report


def _copy3(d, dtype):
    """The order-3 copy tensor of dimension d: 1 where all three indices agree."""
    eye = np.eye(d, dtype=dtype)
    return eye[:, :, None] * eye[:, None]


@dataclass
class Interpretation:
    """Assignment of matrix data to a diagram signature, read only through matrix
    and presentation, which check what they read: construction reads every entry."""

    tag: SemiringTag
    object_dims: dict
    gen_matrices: dict = field(default_factory=dict)
    frobenius_data: dict = field(default_factory=dict)
    signature: Signature | None = None
    element_names: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.object_dims = dict(self.object_dims)  # the caller's dict gets no inferred dimension
        for atom, p in self.frobenius_data.items():
            self.object_dims.setdefault(atom, p.dim)
            self.presentation(atom)
        generators = {} if self.signature is None else self.signature.generators
        for name in self.gen_matrices:
            self.matrix(name, generators.get(name))

    def matrix(self, name: str, typed=None, flip: bool = False):
        """Generator `name`'s entries, or their adjoint if flip, once they are
        over this semiring and, where `typed` (its declaration or a box node)
        is given, map typed.dom to typed.cod, or the reverse if flip."""
        if (m := self.gen_matrices.get(name)) is None:
            raise UnknownName(f"no matrix assigned to generator {name!r}")
        if m.tag.kind != self.tag.kind:
            raise ValueError(f"generator {name!r} uses {m.tag.kind}, not {self.tag.kind}")
        if typed is not None:
            dom, cod = (typed.cod, typed.dom) if flip else (typed.dom, typed.cod)
            if m.data.shape != (rows := self.word_dim(cod), cols := self.word_dim(dom)):
                raise ValueError(f"generator {name!r} needs a {rows}x{cols} matrix "
                                 f"for {dom} -> {cod}, got {m.rows}x{m.cols}")
        return (dagger(m) if flip else m).data

    def presentation(self, atom: str) -> FrobeniusPresentation:
        """Atom's presentation, once it is over this semiring and of the atom's dimension."""
        if (p := self.frobenius_data.get(atom)) is None:
            raise UnknownName(f"no frobenius data for atom {atom!r}")
        if p.tag.kind != self.tag.kind:
            raise ValueError(f"frobenius data for {atom!r} uses {p.tag.kind}, not {self.tag.kind}")
        if (declared := self.atom_dim(atom)) != p.dim:
            raise ValueError(f"atom {atom!r} declared with dimension {declared} "
                             f"but its frobenius data has dimension {p.dim}")
        return p

    def atom_dim(self, atom: str) -> int:
        if atom not in self.object_dims:
            raise UnknownName(f"no dimension declared for atom {atom!r}")
        return self.object_dims[atom]

    def word_dim(self, word: ObjectWord) -> int:
        dims, n = self.object_dims, 1
        for atom, _ in word.factors:
            n *= dims[atom] if atom in dims else self.atom_dim(atom)  # which raises
        return n


def check_frobenius_morphism(
    theta: MatrixMorphism, p: FrobeniusPresentation, q: FrobeniusPresentation
) -> LawReport:
    """Does theta commute with both comonoid and monoid structure?"""
    if theta.cols != p.dim or theta.rows != q.dim:
        raise ShapeMismatch(
            f"morphism must be {q.dim}x{p.dim}, got {theta.rows}x{theta.cols}"
        )
    tag = join_tags(theta.tag, join_tags(p.tag, q.tag))
    pair = tensor(theta, theta)
    checks = [
        ("morphism-comultiplication", compose(q.delta, theta), compose(pair, p.delta)),
        ("morphism-counit", compose(q.eps, theta), p.eps),
        ("morphism-multiplication", compose(theta, p.mu), compose(q.mu, pair)),
        ("morphism-unit", compose(theta, p.unit_e), q.unit_e),
    ]
    return law_report("frobenius-morphism", tag.tolerance, [(n, [(None, lhs, rhs)]) for n, lhs, rhs in checks])


def conjugate_presentation(
    p: FrobeniusPresentation, f: MatrixMorphism, f_inv: MatrixMorphism
) -> FrobeniusPresentation:
    """Transport a presentation along an invertible change of basis.

    Commutativity and speciality survive conjugation; dagger structure
    survives only a unitary change of basis.  Each is measured afresh.
    """
    tag = p.tag
    ident = MatrixMorphism.identity(tag, p.dim)
    if (
        max_deviation(compose(f, f_inv), ident) > tag.tolerance
        or max_deviation(compose(f_inv, f), ident) > tag.tolerance
    ):
        raise ValueError("change of basis is not mutually inverse")
    return replace(
        p,
        delta=compose(tensor(f, f), compose(p.delta, f_inv)),
        eps=compose(p.eps, f_inv),
        mu=compose(f, compose(p.mu, tensor(f_inv, f_inv))),
        unit_e=compose(f, p.unit_e),
    )


def interpretation_from_data(data: dict, sig: Signature | None = None, tolerance=None) -> Interpretation:
    """Build an Interpretation from plain JSON-style data.

    Expected keys: "semiring"; "objects" mapping atoms to a dimension or to
    a list of element names; "generators" mapping names to row-major entry
    lists (complex entries may be [re, im] pairs) or, over booleans, to
    {"rel": [[x, y], ...]} pair lists resolved against element names;
    "frobenius" mapping atoms to "basis" or to explicit delta/eps/mu/e
    matrices.  A tolerance applies to complex data only; exact semirings
    reject one.
    """
    if not isinstance(data, dict):
        raise ValueError("interpretation: must be a JSON object")

    def section(key):
        value = data.get(key, {})
        if not isinstance(value, dict):
            raise ValueError(f"{key}: must be a JSON object")
        return value

    kind = data.get("semiring")
    try:
        tag = SemiringTag(kind)
    except ValueError:
        raise ValueError(f"unknown semiring {kind!r}; expected bool, complex, or nat") from None
    if not tag.exact:
        tag = replace(tag, tolerance=DEFAULT_TOLERANCE if tolerance is None else tolerance)
    elif tolerance is not None:
        raise ValueError(f"a tolerance applies only to the complex semiring, not {kind!r}")

    object_dims = {}
    element_names = {}
    for atom, value in section("objects").items():
        names = [str(x) for x in value] if isinstance(value, list) else []
        if isinstance(value, int) and not isinstance(value, bool) and value >= 0:
            object_dims[atom] = value
        elif isinstance(value, list) and len(set(names)) == len(names):
            object_dims[atom] = len(names)
            element_names[atom] = names
        else:
            raise ValueError(f"objects.{atom}: needs a dimension >= 0 or distinct element names, got {value!r}")

    def matrix(where, entries):
        try:
            m = MatrixMorphism(tag, entries)
        except (TypeError, ValueError) as exc:  # ShapeMismatch is a TypeError
            raise ValueError(f"{where}: {exc}") from None
        # json reads Infinity and NaN; such an entry is the data's fault, not the contraction's
        bad = [] if tag.exact else m.data[~np.isfinite(m.data)]
        if len(bad):
            raise ValueError(f"{where}: entries must be finite, got {bad[0]}")
        return m

    def element_index(where, atom, x):
        names = element_names.get(atom)
        if isinstance(x, str):
            if names is None:
                raise ValueError(f"{where}: atom {atom!r} has no named elements for {x!r}")
            if x not in names:
                raise ValueError(f"{where}: unknown element {x!r} of atom {atom!r}")
            return names.index(x)
        dim = object_dims[atom]
        if isinstance(x, bool) or not isinstance(x, int) or not 0 <= x < dim:
            raise ValueError(f"{where}: element {x!r} out of range for atom {atom!r} (dimension {dim})")
        return x

    gen_matrices = {}
    for name, value in section("generators").items():
        if isinstance(value, dict) and "rel" in value:
            if tag.kind != "bool":
                raise ValueError("pair-list generators are only meaningful over booleans")
            if sig is None or name not in sig.generators:
                raise ValueError(f"pair-list generator {name!r} needs a declared signature")
            decl = sig.generators[name]
            if len(decl.dom) != 1 or len(decl.cod) != 1:
                raise ValueError(f"pair-list generator {name!r} needs single-atom endpoints")
            where = f"generators.{name}"
            dom_atom = decl.dom.factors[0][0]
            cod_atom = decl.cod.factors[0][0]
            for atom in (dom_atom, cod_atom):
                if atom not in object_dims:
                    raise ValueError(f"{where}: atom {atom!r} has no declared dimension")
            m = MatrixMorphism.zeros(tag, object_dims[cod_atom], object_dims[dom_atom])
            if not isinstance(value["rel"], list):
                raise ValueError(f"{where}.rel: must be a list of [x, y] pairs")
            for pair in value["rel"]:
                if not isinstance(pair, list) or len(pair) != 2:
                    raise ValueError(f"{where}: {pair!r} is not an [x, y] pair")
                x, y = pair
                m.data[element_index(where, cod_atom, y), element_index(where, dom_atom, x)] = True
            gen_matrices[name] = m
        else:
            gen_matrices[name] = matrix(f"generators.{name}", value)

    frobenius_data = {}
    for atom, value in section("frobenius").items():
        if value == "basis":
            if atom not in object_dims:
                raise ValueError(f"frobenius atom {atom!r} has no declared dimension")
            frobenius_data[atom] = basis_frobenius(object_dims[atom], tag)
            continue
        keys = ("delta", "eps", "mu", "e")
        missing = [k for k in keys if not isinstance(value, dict) or k not in value]
        if missing:
            raise ValueError(f"frobenius.{atom}: missing {', '.join(missing)}")
        delta, eps, mu, unit_e = (matrix(f"frobenius.{atom}.{k}", value[k]) for k in keys)
        try:
            frobenius_data[atom] = FrobeniusPresentation(delta.cols, delta, eps, mu, unit_e)
        except ShapeMismatch as exc:
            raise ValueError(f"frobenius.{atom}: {str(exc).removeprefix('unit_')}") from None  # unit_e's key is e

    return Interpretation(
        tag=tag,
        object_dims=object_dims,
        gen_matrices=gen_matrices,
        frobenius_data=frobenius_data,
        signature=sig,
        element_names=element_names,
    )
