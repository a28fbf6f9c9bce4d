"""Harness that machine-checks the equational laws against concrete matrices.

Every check returns a LawReport: a list of named equations, each with a
pass/fail verdict and the worst deviation observed over the instances tried.
Counterexample entries are marked expect_fail; for those a *pass* is the
surprising outcome, and assert_expected treats it as a harness error.

Checks are deterministic given their seed, which is recorded in the report.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass, field, replace

import numpy as np

from .matcat import (
    MatrixMorphism,
    ShapeMismatch,
    assoc_iso,
    compose,
    counit_eps,
    dagger,
    left_unit_iso,
    max_deviation,
    right_unit_iso,
    scalar_multiple,
    swap_matrix,
    tensor,
    unit_eta,
)
from .scalars import BOOL, COMPLEX, SemiringTag, add, mul, one, zero


@dataclass(frozen=True)
class LawEntry:
    """Outcome of one named equation.

    deviation is the worst gap seen over all instances; passed is true iff
    that gap is within the semiring tolerance.  expect_fail marks entries
    that document counterexamples rather than laws.
    """

    name: str
    anchor: str
    passed: bool
    deviation: float
    expect_fail: bool = False
    witness: str | None = None

    @property
    def as_expected(self) -> bool:
        return self.passed != self.expect_fail


@dataclass
class LawReport:
    entries: list[LawEntry] = field(default_factory=list)
    seed: int | None = None

    @property
    def ok(self) -> bool:
        return all(e.as_expected for e in self.entries)

    def surprises(self) -> list[LawEntry]:
        return [e for e in self.entries if not e.as_expected]

    def entry(self, name: str) -> LawEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    def names(self) -> list[str]:
        return [e.name for e in self.entries]

    def render(self) -> str:
        lines = []
        width = max((len(e.name) for e in self.entries), default=4)
        for e in self.entries:
            if e.expect_fail:
                status = "FAIL (unexpected pass)" if e.passed else "fail (expected)"
            else:
                status = "pass" if e.passed else "FAIL"
            line = "%-*s  %-22s  deviation=%.3g" % (width, e.name, status, e.deviation)
            if e.witness:
                line += "  [%s]" % e.witness
            lines.append(line)
        if self.seed is not None:
            lines.append("seed=%d" % self.seed)
        return "\n".join(lines)


def merge_reports(reports) -> LawReport:
    """Combine independent reports; entries are ordered by law name."""
    entries = []
    seed = None
    for r in reports:
        entries.extend(r.entries)
        if seed is None:
            seed = r.seed
    entries.sort(key=lambda e: e.name)
    return LawReport(entries=entries, seed=seed)


def assert_expected(report: LawReport) -> None:
    """Abort on any law that came out opposite to its expectation."""
    bad = report.surprises()
    if bad:
        parts = []
        for e in bad:
            kind = "unexpectedly passed" if e.expect_fail else "failed"
            parts.append("%s %s (deviation %.3g)" % (e.name, kind, e.deviation))
        raise RuntimeError("law check aborted: " + "; ".join(parts))


def random_matrix(tag: SemiringTag, rows: int, cols: int, rng: random.Random) -> MatrixMorphism:
    """Random matrix with entries drawn per semiring kind, row by row, as valid payloads."""
    draw = tag.ops.draw
    data = np.array([draw(rng) for _ in range(rows * cols)], dtype=tag.ops.dtype)
    return MatrixMorphism._raw(tag, data.reshape(rows, cols))


def law_report(anchor: str, tol: float, laws, seed: int | None = None) -> LawReport:
    """Report on (name, [(label, lhs, rhs), ...]) equations, one entry each.

    An entry's deviation is the worst over its pairs and its witness is the
    label of the first pair that reaches it (None if every pair is exact).
    A nan deviation is the worst of all, so the entry fails and names the
    first pair that gave it.
    """
    entries = []
    for name, pairs in laws:
        dev, witness = 0.0, None
        for label, lhs, rhs in pairs:
            d = max_deviation(lhs, rhs)
            if d > dev or math.isnan(d):
                dev, witness = d, label
                if math.isnan(d):
                    break
        entries.append(LawEntry(name, anchor, dev <= tol, dev, witness=witness))
    return LawReport(entries=entries, seed=seed)


def check_coherence(tag: SemiringTag, max_dim: int = 3) -> LawReport:
    """Pentagon, triangle, unit and symmetry coherence on explicit permutations.

    The monoidal structure on matrices is strict, so the associator and the
    unit isomorphisms are explicit identity matrices (as matcat's assoc_iso,
    left_unit_iso and right_unit_iso build them) and the diagrams are still
    multiplied out in full; the symmetry is a genuine permutation.  Each
    identity and symmetry is built once per call.  Covers every dimension
    tuple with entries <= max_dim.
    """
    if max_dim > 5:
        raise ValueError("coherence check is capped at dimension 5")
    dims = range(max_dim + 1)

    @functools.cache
    def ident(n):
        return MatrixMorphism.identity(tag, n)

    @functools.cache
    def swap(a, b):
        return swap_matrix(tag, a, b)

    def assoc(a, b, c):
        return ident(a * b * c)

    lunit = runit = ident

    pent = []
    for a, b, c, d in itertools.product(dims, repeat=4):
        inner = compose(assoc(a, b * c, d), tensor(assoc(a, b, c), ident(d)))
        lhs = compose(tensor(ident(a), assoc(b, c, d)), inner)
        rhs = compose(assoc(a, b, c * d), assoc(a * b, c, d))
        pent.append((f"dims {(a, b, c, d)}", lhs, rhs))
    tri = []
    for a, b in itertools.product(dims, repeat=2):
        lhs = compose(tensor(ident(a), lunit(b)), assoc(a, 1, b))
        rhs = tensor(runit(a), ident(b))
        tri.append((f"dims {(a, b)}", lhs, rhs))
    sym_inv = []
    sym_unit = []
    for a, b in itertools.product(dims, repeat=2):
        lhs = compose(swap(b, a), swap(a, b))
        sym_inv.append((f"dims {(a, b)}", lhs, ident(a * b)))
    for a in dims:
        lhs = compose(lunit(a), swap(a, 1))
        sym_unit.append((f"dims {(a,)}", lhs, runit(a)))
    hexa = []
    for a, b, c in itertools.product(dims, repeat=3):
        lhs = compose(assoc(b, c, a), compose(swap(a, b * c), assoc(a, b, c)))
        rhs = compose(
            tensor(ident(b), swap(a, c)),
            compose(assoc(b, a, c), tensor(swap(a, b), ident(c))),
        )
        hexa.append((f"dims {(a, b, c)}", lhs, rhs))
    return law_report(
        "coherence",
        tag.tolerance,
        [
            ("pentagon", pent),
            ("triangle", tri),
            ("unit-scalar-equality", [(None, lunit(1), runit(1))]),
            ("symmetry-inverse", sym_inv),
            ("symmetry-unit", sym_unit),
            ("hexagon", hexa),
        ],
    )


def check_naturality_squares(interp, samples: int = 5, seed: int = 7) -> LawReport:
    """Naturality of the symmetry, associator and unit isos on random matrices.

    Dimensions come from the interpretation's object dimensions; matrices are
    freshly sampled.
    """
    tag = interp.tag
    pool = sorted(set(interp.object_dims.values())) or [2, 3]
    rng = random.Random(seed)
    unit = MatrixMorphism.identity(tag, 1)
    sym = []
    for a, b in itertools.product(pool, repeat=2):
        for s in range(samples):
            c, d = rng.choice(pool), rng.choice(pool)
            f = random_matrix(tag, c, a, rng)
            g = random_matrix(tag, d, b, rng)
            lhs = compose(swap_matrix(tag, c, d), tensor(f, g))
            rhs = compose(tensor(g, f), swap_matrix(tag, a, b))
            sym.append(("dims (%d,%d)->(%d,%d) sample %d" % (a, b, c, d, s), lhs, rhs))
    asc = []
    for a, b, c in itertools.product(pool, repeat=3):
        a2, b2, c2 = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        f = random_matrix(tag, a2, a, rng)
        g = random_matrix(tag, b2, b, rng)
        h = random_matrix(tag, c2, c, rng)
        lhs = compose(assoc_iso(tag, a2, b2, c2), tensor(tensor(f, g), h))
        rhs = compose(tensor(f, tensor(g, h)), assoc_iso(tag, a, b, c))
        asc.append(("dims (%d,%d,%d)" % (a, b, c), lhs, rhs))
    lun = []
    run = []
    for a in pool:
        for s in range(samples):
            a2 = rng.choice(pool)
            f = random_matrix(tag, a2, a, rng)
            lhs = compose(f, left_unit_iso(tag, a))
            rhs = compose(left_unit_iso(tag, a2), tensor(unit, f))
            lun.append(("dim %d sample %d" % (a, s), lhs, rhs))
            lhs = compose(f, right_unit_iso(tag, a))
            rhs = compose(right_unit_iso(tag, a2), tensor(f, unit))
            run.append(("dim %d sample %d" % (a, s), lhs, rhs))
    return law_report(
        "naturality",
        tag.tolerance,
        [
            ("symmetry-naturality", sym),
            ("associativity-naturality", asc),
            ("left-unit-naturality", lun),
            ("right-unit-naturality", run),
        ],
        seed,
    )


def check_scalar_laws(tag: SemiringTag, samples: int = 100, seed: int = 11) -> LawReport:
    """Commutativity of the scalar monoid and the scalar-multiple exchange laws."""
    rng = random.Random(seed)
    commute = []
    comp_law = []
    tens_law = []
    for k in range(samples):
        s = random_matrix(tag, 1, 1, rng)
        t = random_matrix(tag, 1, 1, rng)
        commute.append(("sample %d" % k, compose(s, t), compose(t, s)))
        sv, tv = s.entry(0, 0), t.entry(0, 0)
        a, b, c = rng.randrange(1, 4), rng.randrange(1, 4), rng.randrange(1, 4)
        f = random_matrix(tag, b, a, rng)
        g = random_matrix(tag, c, b, rng)
        lhs = compose(scalar_multiple(tv, g), scalar_multiple(sv, f))
        rhs = scalar_multiple(mul(tv, sv), compose(g, f))
        comp_law.append(("sample %d" % k, lhs, rhs))
        h = random_matrix(tag, rng.randrange(1, 4), rng.randrange(1, 4), rng)
        lhs = tensor(scalar_multiple(sv, f), scalar_multiple(tv, h))
        rhs = scalar_multiple(mul(sv, tv), tensor(f, h))
        tens_law.append(("sample %d" % k, lhs, rhs))
    return law_report(
        "scalars",
        tag.tolerance,
        [
            ("scalar-commutativity", commute),
            ("scalar-compose-exchange", comp_law),
            ("scalar-tensor-exchange", tens_law),
        ],
        seed,
    )


def check_compact_structure(tag: SemiringTag, dims=range(7)) -> LawReport:
    """Snake equations, dagger compatibility of the compact pair, circle value."""
    snake_r = []
    snake_l = []
    dag = []
    circ = []
    for n in dims:
        eta = unit_eta(tag, n)
        eps = counit_eps(tag, n)
        ident = MatrixMorphism.identity(tag, n)
        lhs = compose(tensor(eps, ident), tensor(ident, eta))
        snake_r.append(("dim %d" % n, lhs, ident))
        lhs = compose(tensor(ident, eps), tensor(eta, ident))
        snake_l.append(("dim %d" % n, lhs, ident))
        dag.append(("dim %d" % n, compose(dagger(eta), swap_matrix(tag, n, n)), eps))
        n_ones = functools.reduce(add, [one(tag)] * n, zero(tag))
        circ.append(("dim %d" % n, compose(eps, eta), MatrixMorphism(tag, [[n_ones.value]])))
    return law_report(
        "compact",
        tag.tolerance,
        [
            ("snake-right", snake_r),
            ("snake-left", snake_l),
            ("dagger-compactness", dag),
            ("circle-dimension", circ),
        ],
    )


def check_hopf_bialgebra(p, antipode: MatrixMorphism) -> LawReport:
    """Hopf law and bialgebra compatibility for a (co)monoid pair.

    p supplies the comonoid (delta, eps) and the monoid (mu, unit_e); the
    pairing need not be Frobenius.  The unit/counit scalar eps . e is checked
    against 1; its actual value is recorded in the witness since conventions
    for that scalar vary.
    """
    d = p.dim
    if antipode.rows != d or antipode.cols != d:
        raise ShapeMismatch(
            "antipode must be %dx%d, got %dx%d" % (d, d, antipode.rows, antipode.cols)
        )
    tag = antipode.tag
    ident = MatrixMorphism.identity(tag, d)
    e_after_eps = compose(p.unit_e, p.eps)

    hopf_l = compose(p.mu, compose(tensor(ident, antipode), p.delta))
    hopf_r = compose(p.mu, compose(tensor(antipode, ident), p.delta))
    mid = tensor(ident, tensor(swap_matrix(tag, d, d), ident))
    bial_mult = compose(tensor(p.mu, p.mu), compose(mid, tensor(p.delta, p.delta)))
    scalar = compose(p.eps, p.unit_e)

    hopf = [("hopf-left", [(None, hopf_l, e_after_eps)]), ("hopf-right", [(None, hopf_r, e_after_eps)])]
    report = law_report("hopf", tag.tolerance, hopf)
    report.entries += law_report(
        "bialgebra",
        tag.tolerance,
        [
            ("bialgebra-mult-comult", [(None, compose(p.delta, p.mu), bial_mult)]),
            ("bialgebra-mult-counit", [(None, compose(p.eps, p.mu), tensor(p.eps, p.eps))]),
            ("bialgebra-unit-comult", [(None, compose(p.delta, p.unit_e), tensor(p.unit_e, p.unit_e))]),
            ("bialgebra-unit-counit", [(None, scalar, MatrixMorphism.identity(tag, 1))]),
        ],
    ).entries
    report.entries[-1] = replace(report.entries[-1], witness="eps . e = %r" % (scalar.entry(0, 0).value,))
    return report


def negative_suite() -> LawReport:
    """The three counterexamples that must fail.

    (a) the basis copy map is not natural against a superposition state;
    (b) the same square fails for relations;
    (c) the singleton carries no product structure in the category of
        relations, by exhaustive search over the four projection pairs.
    A pass of any of these is a harness failure; see assert_expected.
    """
    entries = []
    for tag, name, witness in [
        (
            COMPLEX,
            "no-uniform-copying-complex",
            "copying a superposition yields (1,0,0,1); the product state is (1,1,1,1)",
        ),
        (
            BOOL,
            "no-uniform-copying-bool",
            "relation {(0,0),(1,1)} differs from the full product relation",
        ),
    ]:
        delta2 = MatrixMorphism(tag, [[1, 0], [0, 0], [0, 0], [0, 1]])
        delta1 = MatrixMorphism(tag, [[1]])
        f = MatrixMorphism(tag, [[1], [1]])
        square = (witness, compose(delta2, f), compose(tensor(f, f), delta1))
        (e,) = law_report("no-cloning", tag.tolerance, [(name, [square])]).entries
        entries.append(replace(e, expect_fail=True))

    # Candidate products on the singleton: projections and cones are all 1x1
    # relations, so each is just a bit; composition is conjunction.
    found = False
    for p1, p2 in itertools.product([False, True], repeat=2):
        works = True
        for r1, r2 in itertools.product([False, True], repeat=2):
            mediators = [r for r in (False, True) if (p1 and r) == r1 and (p2 and r) == r2]
            if len(mediators) != 1:
                works = False
                break
        if works:
            found = True
    entries.append(
        LawEntry(
            name="no-product-on-singleton-rel",
            anchor="no-cloning",
            passed=found,
            deviation=0.0 if found else 1.0,
            expect_fail=True,
            witness="checked 4 projection pairs against 4 cone demands",
        )
    )
    return LawReport(entries=entries)


# Every named equation, mapped to the check or test that decides it.  The
# harness's tests assert this list verbatim so additions stay deliberate.
LAW_MANIFEST: tuple[tuple[str, str], ...] = (
    ("interchange", "tests/test_diagram.py + acceptance 3"),
    ("pentagon", "lawcheck.check_coherence"),
    ("triangle", "lawcheck.check_coherence"),
    ("unit-scalar-equality", "lawcheck.check_coherence"),
    ("symmetry-inverse", "lawcheck.check_coherence"),
    ("symmetry-unit", "lawcheck.check_coherence"),
    ("hexagon", "lawcheck.check_coherence"),
    ("symmetry-naturality", "lawcheck.check_naturality_squares"),
    ("associativity-naturality", "lawcheck.check_naturality_squares"),
    ("left-unit-naturality", "lawcheck.check_naturality_squares"),
    ("right-unit-naturality", "lawcheck.check_naturality_squares"),
    ("scalar-commutativity", "lawcheck.check_scalar_laws"),
    ("scalar-compose-exchange", "lawcheck.check_scalar_laws"),
    ("scalar-tensor-exchange", "lawcheck.check_scalar_laws"),
    ("snake-right", "lawcheck.check_compact_structure"),
    ("snake-left", "lawcheck.check_compact_structure"),
    ("dagger-compactness", "lawcheck.check_compact_structure"),
    ("circle-dimension", "lawcheck.check_compact_structure"),
    ("transpose-involution", "tests/test_diagram.py"),
    ("name-coname-composition", "tests/test_diagram.py"),
    ("coassociativity", "presentations.verify_frobenius"),
    ("counit-left", "presentations.verify_frobenius"),
    ("counit-right", "presentations.verify_frobenius"),
    ("associativity", "presentations.verify_frobenius"),
    ("unit-left", "presentations.verify_frobenius"),
    ("unit-right", "presentations.verify_frobenius"),
    ("frobenius-left", "presentations.verify_frobenius"),
    ("frobenius-right", "presentations.verify_frobenius"),
    ("commutativity", "presentations.verify_frobenius"),
    ("speciality", "presentations.verify_frobenius"),
    ("dagger-structure", "presentations.verify_frobenius"),
    ("spider-fusion", "tests/test_frobenius.py"),
    ("hopf-left", "lawcheck.check_hopf_bialgebra"),
    ("hopf-right", "lawcheck.check_hopf_bialgebra"),
    ("bialgebra-mult-comult", "lawcheck.check_hopf_bialgebra"),
    ("bialgebra-mult-counit", "lawcheck.check_hopf_bialgebra"),
    ("bialgebra-unit-comult", "lawcheck.check_hopf_bialgebra"),
    ("bialgebra-unit-counit", "lawcheck.check_hopf_bialgebra"),
    ("no-uniform-copying-complex", "lawcheck.negative_suite"),
    ("no-uniform-copying-bool", "lawcheck.negative_suite"),
    ("no-product-on-singleton-rel", "lawcheck.negative_suite"),
    ("biproduct-orthogonality", "tests/test_matcat.py + acceptance 4"),
    ("biproduct-completeness", "tests/test_matcat.py + acceptance 4"),
    ("projector-spectrum", "tests/test_matcat.py + acceptance 4"),
    ("functoriality-compose", "tests/test_tqft.py + acceptance 7"),
    ("functoriality-tensor", "tests/test_tqft.py + acceptance 7"),
    ("frobenius-morphism", "presentations.check_frobenius_morphism"),
)
