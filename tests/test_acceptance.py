"""Ten acceptance criteria, one test and one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict
lines; the whole file stays well under a minute.
"""

import itertools

import numpy as np
import pytest

from catkit.diagram import Gen, Id, ObjectWord, Par, Seq, Spider, graph_eq, to_graph, typecheck
from catkit.frobenius import cob_signature, delta, eps, eq_cob, fuse, mu, unit
from catkit.lawcheck import (
    LawEntry,
    LawReport,
    assert_expected,
    check_coherence,
    check_compact_structure,
    check_scalar_laws,
    negative_suite,
)
from catkit.matcat import (
    BlockIndex,
    MatrixMorphism,
    add,
    compose,
    dagger,
    injection,
    max_deviation,
    projection,
    projector_spectrum,
    tensor,
)
from catkit.scalars import BOOL, COMPLEX, NAT
from catkit.presentations import basis_frobenius, conjugate_presentation, verify_frobenius, xor_frobenius
from catkit.tqft import evaluate_cob

import dataclasses

from corpus import make_rng, random_cob_term, rewrite_randomly, random_term, standard_signature
from fuse_reference import rewrite
from helpers import flip_entry, random_matrix, swap_built_unitary

Z = ObjectWord((("Z", False),))
ZSIG = cob_signature("Z")


def report(num, ok, detail):
    print(f"criterion {num}: {'pass' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def bmat(rows):
    return MatrixMorphism(BOOL, rows)


def test_01_boolean_relation_calculus():
    r = bmat([[1, 1], [1, 0]])
    r_prime = bmat([[1, 0], [1, 1], [0, 1]])
    r_second = bmat([[0, 1], [0, 1]])
    composed_ok = compose(r_prime, r) == bmat([[1, 1], [1, 1], [1, 0]])
    summed_ok = add(r, r_second) == bmat([[1, 1], [1, 1]])
    report(1, composed_ok and summed_ok, "composition and union of the worked relations, exact")


def test_02_snake_equations():
    bad = []
    for tag in (BOOL, NAT, COMPLEX):
        rep = check_compact_structure(tag, dims=range(7))
        if not rep.ok:
            bad.append(tag.kind)
    report(2, not bad, "both snakes for n in 0..6 over bool, nat, complex" + (f"; failed: {bad}" if bad else ""))


def test_03_interchange():
    violations = 0
    for tag in (BOOL, COMPLEX):
        tol = tag.tolerance
        for seed in range(500):
            rng = make_rng(seed)
            a, b, c = (rng.randrange(1, 5) for _ in range(3))
            p, q, s = (rng.randrange(1, 5) for _ in range(3))
            f = random_matrix(tag, b, a, rng)
            g = random_matrix(tag, c, b, rng)
            h = random_matrix(tag, q, p, rng)
            k = random_matrix(tag, s, q, rng)
            lhs = compose(tensor(g, k), tensor(f, h))
            rhs = tensor(compose(g, f), compose(k, h))
            if max_deviation(lhs, rhs) > tol:
                violations += 1
    sig = standard_signature()
    unequal = 0
    rewritten = 0
    for seed in range(200):
        rng = make_rng(seed)
        t1 = random_term(sig, rng)
        t2, applied = rewrite_randomly(t1, sig, rng, steps=4)
        rewritten += bool(applied)
        if not graph_eq(to_graph(t1, sig), to_graph(t2, sig)):
            unequal += 1
    ok = violations == 0 and unequal == 0
    report(3, ok, f"1000 matrix quadruples, 200 rewrite pairs ({rewritten} nontrivial), all equal")


def test_04_biproducts_and_spectra():
    tag = COMPLEX
    bad_blocks = 0
    splits = 0
    for total in range(9):
        for n1 in range(total + 1):
            split = (n1, total - n1)
            splits += 1
            acc = MatrixMorphism.zeros(tag, total, total)
            for i in (1, 2):
                bi = BlockIndex(i, split)
                for j in (1, 2):
                    got = compose(projection(bi, tag), injection(BlockIndex(j, split), tag))
                    want = (
                        MatrixMorphism.identity(tag, split[i - 1])
                        if i == j
                        else MatrixMorphism.zeros(tag, split[i - 1], split[j - 1])
                    )
                    if got != want:
                        bad_blocks += 1
                acc = add(acc, compose(injection(bi, tag), projection(bi, tag)))
            if acc != MatrixMorphism.identity(tag, total):
                bad_blocks += 1
    worst = 0.0
    rng = make_rng(404)
    for _ in range(50):
        total = rng.randrange(2, 11)
        n1 = rng.randrange(1, total)
        u = swap_built_unitary(COMPLEX, total, rng)
        p1, p2 = projector_spectrum(u, (n1, total - n1))
        worst = max(
            worst,
            max_deviation(add(p1, p2), MatrixMorphism.identity(COMPLEX, total)),
            max_deviation(compose(p1, p1), p1),
            max_deviation(compose(p2, p2), p2),
            max_deviation(dagger(p1), p1),
            max_deviation(dagger(p2), p2),
        )
    ok = bad_blocks == 0 and worst <= 1e-9
    report(4, ok, f"{splits} binary splits exact, 50 spectra within {worst:.2e}")


def test_05_frobenius_verification():
    all_pass = all(
        verify_frobenius(basis_frobenius(d, tag)).ok
        for d in range(6)
        for tag in (COMPLEX, BOOL)
    )
    p = basis_frobenius(2, COMPLEX)
    mutants_caught = sum(
        not verify_frobenius(dataclasses.replace(p, delta=flip_entry(p.delta, i, j))).ok
        for i in range(4)
        for j in range(2)
    )
    ok = all_pass and mutants_caught == 8
    report(5, ok, f"d=0..5 over complex and bool pass; {mutants_caught}/8 delta mutations caught")


def _small_cob_graph(seed):
    # draw until the graph stays within the 30-node budget
    for attempt in itertools.count():
        rng = make_rng(100_000 * attempt + seed)
        term = random_cob_term(rng, n_in=rng.randrange(3), n_layers=3)
        g = to_graph(term, ZSIG)
        if len(g.nodes) <= 30:
            return term, g


def test_06_spider_fusion_and_classification():
    disagreements = 0
    for seed in range(100):
        _, g = _small_cob_graph(seed)
        reference = fuse(g)
        for order in range(20):
            if not graph_eq(rewrite(g, rng=make_rng(31 * seed + order)), reference):
                disagreements += 1
    cylinder_handle = not eq_cob(Id(Z), Seq(mu("Z"), delta("Z")))
    lhs = Seq(Par(Id(Z), mu("Z")), Par(delta("Z"), Id(Z)))
    mid = Seq(delta("Z"), mu("Z"))
    rhs = Seq(Par(mu("Z"), Id(Z)), Par(Id(Z), delta("Z")))
    sides_classify = eq_cob(lhs, mid) and eq_cob(rhs, mid)
    sides_evaluate = all(
        evaluate_cob(lhs, p) == evaluate_cob(mid, p) == evaluate_cob(rhs, p)
        for p in (basis_frobenius(2, COMPLEX), xor_frobenius(COMPLEX))
    )
    torus = Seq(eps("Z"), Seq(Seq(mu("Z"), delta("Z")), unit("Z")))
    torus_ok = True
    for d in range(6):
        p = basis_frobenius(d, COMPLEX)
        oracle = complex(np.trace((p.mu.data @ p.delta.data))) if d else 0j
        got = evaluate_cob(torus, p)
        torus_ok = torus_ok and got == MatrixMorphism(COMPLEX, [[oracle]]) and oracle == d
    ok = disagreements == 0 and cylinder_handle and sides_classify and sides_evaluate and torus_ok
    report(6, ok, "2000 fuse orders confluent; cylinder != handle; law sides agree; torus = trace oracle")


def test_07_tqft_functoriality_and_soundness():
    p = basis_frobenius(2, COMPLEX)
    f = MatrixMorphism(COMPLEX, [[1, 1], [0, 1]])
    f_inv = MatrixMorphism(COMPLEX, [[1, -1], [0, 1]])
    q = conjugate_presentation(p, f, f_inv)
    worst = 0.0
    checked = 0
    seed = 0
    while checked < 200:
        seed += 1
        rng = make_rng(seed)
        t1 = random_cob_term(rng, n_in=rng.randrange(3), n_layers=2)
        _, cod1 = typecheck(t1, ZSIG)
        t2 = random_cob_term(rng, n_in=len(cod1), n_layers=2)
        dom2, cod2 = typecheck(t2, ZSIG)
        stages = Seq(Spider("Z", len(cod1), len(dom2)), t1)
        dom1, _ = typecheck(stages, ZSIG)
        if len(dom1) + len(cod2) > 8 or len(dom1) + len(dom2) > 8:
            continue
        lhs = evaluate_cob(Seq(t2, stages), p)
        rhs = compose(evaluate_cob(t2, p), evaluate_cob(stages, p))
        worst = max(worst, max_deviation(lhs, rhs))
        lhs = evaluate_cob(Par(stages, t2), p)
        rhs = tensor(evaluate_cob(stages, p), evaluate_cob(t2, p))
        worst = max(worst, max_deviation(lhs, rhs))
        checked += 1
    violations = 0
    pairs = 0
    for seed in range(100):
        rng = make_rng(seed)
        t1 = random_cob_term(rng, n_in=rng.randrange(3))
        t2, _ = rewrite_randomly(t1, ZSIG, rng, steps=3)
        if not eq_cob(t1, t2, ZSIG):
            continue
        pairs += 1
        for pres in (p, q):
            if max_deviation(evaluate_cob(t1, pres), evaluate_cob(t2, pres)) > 1e-9:
                violations += 1
    ok = worst <= 1e-9 and violations == 0 and pairs == 100
    report(7, ok, f"200 compose/tensor pairs within {worst:.2e}; soundness {pairs} pairs, {violations} violations")


def test_08_negative_suite():
    rep = negative_suite()
    expected_failures = all(e.expect_fail and not e.passed for e in rep.entries)
    assert_expected(rep)
    doctored = LawReport(
        entries=[LawEntry("no-uniform-copying-complex", "no-cloning", True, 0.0, expect_fail=True)]
    )
    with pytest.raises(RuntimeError):
        assert_expected(doctored)
    ok = expected_failures and len(rep.entries) == 3
    report(8, ok, "3 counterexamples fail as expected; unexpected pass aborts")


def test_09_scalar_laws():
    bad = []
    for tag in (BOOL, NAT, COMPLEX):
        rep = check_scalar_laws(tag, samples=500, seed=17)
        if not rep.ok:
            bad.append(tag.kind)
    sig = standard_signature()
    st = Seq(Gen("t"), Gen("s"))
    ts = Seq(Gen("s"), Gen("t"))
    by_graph = graph_eq(to_graph(st, sig), to_graph(ts, sig))
    report(9, not bad and by_graph, "500 instances per semiring; s.t = t.s by graph equality")


def test_10_coherence():
    rep = check_coherence(COMPLEX, max_dim=3)
    names = set(rep.names())
    covered = {"pentagon", "triangle", "hexagon"} <= names
    report(10, rep.ok and covered, "pentagon, triangle, hexagon over all dimension tuples with dims <= 3")
