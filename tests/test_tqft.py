"""Interpretations: frozen presentation oracles, functor laws, graph contraction."""

import dataclasses
import functools
import itertools
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from catkit.diagram import (
    Cap,
    Cup,
    Dagger,
    Gen,
    Id,
    ObjectWord,
    OpenGraph,
    Par,
    Seq,
    Signature,
    Spider,
    SpiderNode,
    Swap,
    TypeMismatch,
    UnknownName,
    graph_eq,
    to_graph,
    typecheck,
)
from catkit.frobenius import cob_signature, delta, eps, eq_cob, mu, unit
from catkit.lawcheck import LawReport
from catkit.matcat import MatrixMorphism, ShapeMismatch, compose, dagger, max_deviation, swap_matrix, tensor
from catkit import presentations
from catkit import tqft as tqft_module
from catkit.scalars import BOOL, COMPLEX, NAT
from catkit.presentations import (
    FrobeniusPresentation,
    Interpretation,
    basis_frobenius,
    check_frobenius_morphism,
    conjugate_presentation,
    hopf_group_z2,
    interpretation_from_data,
    verify_frobenius,
    xor_frobenius,
)
from catkit.tqft import evaluate_cob, evaluate_graph, interpret, spider_matrix

from corpus import (closed_surface, make_rng, random_cob_term, random_regular, random_term, rewrite_randomly,
                    standard_signature)
from helpers import ALL_TAGS, flip_entry, fresh_plans, kronecker_spider, line_events, random_matrix, run_capped

Z = ObjectWord((("Z", False),))
ZSIG = cob_signature("Z")


def cmat(rows):
    return MatrixMorphism(COMPLEX, rows)


def cob_interp(p):
    return Interpretation(p.tag, {"Z": p.dim}, frobenius_data={"Z": p}, signature=ZSIG)


def standard_interp(sig, tag, rng, dims=None):
    """Random matrices for every declared generator of the box signature."""
    dims = dims or {"A": 2, "B": 3, "P": 2, "Q": 2}
    gens = {}
    for name, decl in sig.generators.items():
        rows = cols = 1
        for a, _ in decl.cod.factors:
            rows *= dims[a]
        for a, _ in decl.dom.factors:
            cols *= dims[a]
        gens[name] = random_matrix(tag, rows, cols, rng)
    used = {a for d in sig.generators.values() for w in (d.dom, d.cod) for a, _ in w.factors}
    return Interpretation(tag, {a: dims[a] for a in dims if a in used or a in dims}, gen_matrices=gens, signature=sig)


class TestBasisPresentation:
    def test_d1_all_four_matrices_are_one(self):
        p = basis_frobenius(1, COMPLEX)
        for m in (p.delta, p.eps, p.mu, p.unit_e):
            assert m == cmat([[1]])

    def test_d2_frozen_matrices(self):
        p = basis_frobenius(2, COMPLEX)
        assert p.delta == cmat([[1, 0], [0, 0], [0, 0], [0, 1]])
        assert p.eps == cmat([[1, 1]])
        assert p.mu == cmat([[1, 0, 0, 0], [0, 0, 0, 1]])
        assert p.unit_e == cmat([[1], [1]])

    def test_mu_delta_is_identity_d3(self):
        p = basis_frobenius(3, COMPLEX)
        assert compose(p.mu, p.delta) == MatrixMorphism.identity(COMPLEX, 3)

    def test_flags_all_claimed(self):
        p = basis_frobenius(4, COMPLEX)
        assert p.commutative and p.special and p.dagger

    @pytest.mark.parametrize("tag", [COMPLEX, BOOL, NAT], ids=["complex", "bool", "nat"])
    @pytest.mark.parametrize("d", range(6))
    def test_verifies_for_all_small_dims(self, d, tag):
        assert verify_frobenius(basis_frobenius(d, tag)).ok

    @pytest.mark.parametrize("tag", [COMPLEX, BOOL, NAT], ids=["complex", "bool", "nat"])
    @pytest.mark.parametrize("d", range(5))
    def test_equals_the_entrywise_copy_map(self, d, tag):
        delta = MatrixMorphism.zeros(tag, d * d, d)
        for i in range(d):
            delta.data[i * d + i, i] = tag.ops.one
        eps = MatrixMorphism(tag, [[1] * d], shape=(1, d))
        p = basis_frobenius(d, tag)
        for got, want in ((p.delta, delta), (p.eps, eps), (p.mu, dagger(delta)), (p.unit_e, dagger(eps))):
            assert got.data.dtype == want.data.dtype
            assert [(type(x), x) for x in got.data.ravel().tolist()] == [(type(x), x) for x in want.data.ravel().tolist()]
        assert p.basis_copy and p.pairing_deviation == 0.0

    def test_flags_are_not_settable(self):
        p = basis_frobenius(2, COMPLEX)
        with pytest.raises(TypeError):
            FrobeniusPresentation(2, p.delta, p.eps, p.mu, p.unit_e, commutative=True)
        with pytest.raises(TypeError):
            dataclasses.replace(p, special=False)

    def test_shape_validation(self):
        p = basis_frobenius(2, COMPLEX)
        with pytest.raises(ShapeMismatch):
            FrobeniusPresentation(2, p.delta, p.eps, p.mu, cmat([[1], [1], [1]]))
        with pytest.raises(ValueError):
            FrobeniusPresentation(-1, p.delta, p.eps, p.mu, p.unit_e)


class TestVerifyFrobenius:
    def test_corrupted_delta_fails_coassociativity(self):
        p = basis_frobenius(2, COMPLEX)
        bad = dataclasses.replace(p, delta=flip_entry(p.delta, 1, 0))
        report = verify_frobenius(bad)
        assert not report.entry("coassociativity").passed

    def test_every_d2_delta_mutation_fails_some_law(self):
        p = basis_frobenius(2, COMPLEX)
        for i in range(4):
            for j in range(2):
                mutant = dataclasses.replace(p, delta=flip_entry(p.delta, i, j))
                assert not verify_frobenius(mutant).ok, (i, j)

    @pytest.mark.parametrize("tag", [COMPLEX, BOOL], ids=["complex", "bool"])
    def test_xor_presentation_verifies(self, tag):
        assert verify_frobenius(xor_frobenius(tag)).ok

    def test_xor_is_not_special_over_complex(self):
        x = xor_frobenius(COMPLEX)
        assert not x.special
        assert not x.flag_report.entry("speciality").passed
        assert x.flag_report.entry("speciality").deviation == pytest.approx(1.0)
        # verify_frobenius lists the flag equations that pass, and only those
        assert verify_frobenius(x).ok
        assert "speciality" not in verify_frobenius(x).names()

    def test_nan_in_one_pair_fails_its_law(self):
        # the nan in mu reaches only the second commutativity equation; the first is exact
        p = basis_frobenius(2, COMPLEX)
        mu = cmat([[1, 0, 0, 0], [0, 0, 0, float("nan")]])
        q = dataclasses.replace(p, mu=mu)
        entry = q.flag_report.entry("commutativity")
        assert not entry.passed and not q.commutative
        assert np.isnan(entry.deviation)
        assert "commutativity" not in verify_frobenius(q).names()

    def test_failures_are_entries_not_errors(self):
        tag = COMPLEX
        junk = FrobeniusPresentation(
            2,
            MatrixMorphism.zeros(tag, 4, 2),
            MatrixMorphism.zeros(tag, 1, 2),
            MatrixMorphism.zeros(tag, 2, 4),
            MatrixMorphism.zeros(tag, 2, 1),
        )
        report = verify_frobenius(junk)
        assert not report.ok
        assert {"counit-left", "counit-right"} <= {e.name for e in report.surprises()}

    def test_basis_matches_copy_relation_over_bool(self):
        # delta relates x to (x, x); over booleans that is exactly the
        # copy relation, and it still verifies.
        p = basis_frobenius(2, BOOL)
        pairs = [
            (i, j)
            for i in range(2)
            for j in range(4)
            if p.delta.entry(j, i).value
        ]
        assert pairs == [(0, 0), (1, 3)]
        assert verify_frobenius(p).ok


class TestSpiderMatrix:
    def setup_method(self):
        self.p = basis_frobenius(2, COMPLEX)

    def test_degenerate_legs(self):
        assert spider_matrix(self.p, 1, 1) == MatrixMorphism.identity(COMPLEX, 2)
        assert spider_matrix(self.p, 2, 1) == self.p.mu
        assert spider_matrix(self.p, 1, 2) == self.p.delta
        assert spider_matrix(self.p, 0, 1) == self.p.unit_e
        assert spider_matrix(self.p, 1, 0) == self.p.eps

    def test_sphere_scalar_is_dimension(self):
        for d in range(5):
            p = basis_frobenius(d, COMPLEX)
            assert spider_matrix(p, 0, 0) == cmat([[d]])

    def test_torus_scalar_matches_trace_oracle(self):
        for d in range(5):
            p = basis_frobenius(d, COMPLEX)
            handle = compose(p.mu, p.delta)
            trace = complex(np.trace(handle.data)) if d else 0j
            assert spider_matrix(p, 0, 0, genus=1) == cmat([[trace]])
            assert trace == d

    def test_genus_doubles_under_xor(self):
        # each handle composes mu . delta = 2 * id, so genus g scales by 2^g;
        # the genus-0 sphere is eps . e = 1 for this presentation
        x = xor_frobenius(COMPLEX)
        for g in range(4):
            assert spider_matrix(x, 0, 0, genus=g) == cmat([[2 ** g]])

    def test_comb_shape_does_not_matter(self):
        ident = MatrixMorphism.identity(COMPLEX, 2)
        right_comb = compose(self.p.mu, tensor(ident, self.p.mu))
        assert spider_matrix(self.p, 3, 1) == right_comb

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            spider_matrix(self.p, -1, 0)

    def test_combs_match_the_kronecker_reference(self):
        # random data verifies no law, so any other tree shape or leg order
        # would show; evaluate_graph needs delta and mu symmetric and
        # eps . mu the identity pairing, and its one spider node, all legs
        # merged, is the (k + l, 0, genus) spider with l legs bent to outputs
        rng = make_rng(25)
        z = (("Z", False),)
        for tag, _ in itertools.product(ALL_TAGS, range(12)):
            d = rng.randrange(1, 4)
            shapes = [(d * d, d), (1, d), (d, d * d), (d, 1)]
            p = FrobeniusPresentation(d, *(random_matrix(tag, r, c, rng) for r, c in shapes))
            delta, mu = random_matrix(tag, d * d, d, rng), random_matrix(tag, d, d * d, rng)
            for i, j in itertools.combinations(range(d), 2):
                delta.data[j * d + i], mu.data[:, j * d + i] = delta.data[i * d + j], mu.data[:, i * d + j]
            mu.data[0] = np.eye(d, dtype=mu.data.dtype).ravel()
            e0 = MatrixMorphism(tag, [[1] + [0] * (d - 1)])
            q = FrobeniusPresentation(d, delta, e0, mu, random_matrix(tag, d, 1, rng))
            for k, l, genus in itertools.product(range(4), range(4), range(3)):
                want = kronecker_spider(p, k, l, genus)
                assert spider_matrix(p, k, l, genus) == want, (tag.kind, d, k, l, genus)
                if genus == 0:
                    assert interpret(Spider("Z", k, l), cob_interp(p)) == want, (tag.kind, d, k, l)
                ends = [("i", n) for n in range(k)] + [("o", n) for n in range(l)]
                wires = tuple((("n", 0, n), end) for n, end in enumerate(ends))
                graph = OpenGraph((SpiderNode("Z", k + l, genus),), wires, z * k, z * l)
                bent = kronecker_spider(q, k + l, 0, genus).data.reshape(d**k, d**l).T
                assert evaluate_graph(graph, cob_interp(q)) == MatrixMorphism._raw(tag, bent), (tag.kind, d, k, l, genus)

    def test_conjugated_spider_pair_is_accurate(self):
        # the k = 12 pair once came out 6.9e-13 off through a dense d^12 spider
        w = np.exp(2j * np.pi / 3)
        fourier = np.array([[w ** (i * j) for j in range(3)] for i in range(3)]) / np.sqrt(3)
        f, f_inv = cmat(fourier.tolist()), cmat(fourier.conj().T.tolist())
        p = conjugate_presentation(basis_frobenius(3, COMPLEX), f, f_inv)
        assert not p.basis_copy
        assert abs(evaluate_cob(_spider_pair(12), p).data[0, 0] - 3) < 1e-13


class TestInterpret:
    def test_identity_of_dim3_atom(self):
        interp = cob_interp(basis_frobenius(3, COMPLEX))
        assert interpret(Id(Z), interp) == MatrixMorphism.identity(COMPLEX, 3)

    def test_snake_is_identity_dim4(self):
        interp = cob_interp(basis_frobenius(4, COMPLEX))
        snake = Seq(Par(Cap("Z"), Id(Z)), Par(Id(Z), Cup("Z")))
        mirror = Seq(Par(Id(Z), Cap("Z")), Par(Cup("Z"), Id(Z)))
        ident = MatrixMorphism.identity(COMPLEX, 4)
        assert interpret(snake, interp) == ident
        assert interpret(mirror, interp) == ident

    def test_loop_is_dimension_scalar(self):
        interp = cob_interp(basis_frobenius(3, COMPLEX))
        loop = Seq(Cap("Z"), Cup("Z"))
        assert interpret(loop, interp) == cmat([[3]])

    def test_swap_and_structural_pieces(self):
        interp = cob_interp(basis_frobenius(2, COMPLEX))
        assert interpret(Swap(Z, Z), interp) == swap_matrix(COMPLEX, 2, 2)
        assert interpret(Spider("Z", 2, 1), interp) == basis_frobenius(2, COMPLEX).mu

    def test_dagger_generator_maps_to_dagger_matrix(self):
        sig = standard_signature()
        interp = standard_interp(sig, COMPLEX, make_rng(0))
        f = interp.gen_matrices["f"]
        assert interpret(Dagger(Gen("f")), interp) == dagger(f)

    def test_missing_generator_is_reported(self):
        sig = Signature()
        sig.declare_generator("mystery", A, A)
        interp = Interpretation(COMPLEX, {"A": 2}, signature=sig)
        with pytest.raises(UnknownName, match="no matrix"):
            interpret(Gen("mystery"), interp)

    def test_missing_frobenius_data_is_reported(self):
        interp = Interpretation(COMPLEX, {"Z": 2}, signature=ZSIG)
        with pytest.raises(UnknownName, match="no frobenius data"):
            interpret(Spider("Z", 1, 1), interp)

    def test_interpret_needs_a_signature(self):
        interp = Interpretation(COMPLEX, {"Z": 2}, frobenius_data={"Z": basis_frobenius(2, COMPLEX)})
        with pytest.raises(ValueError) as exc:
            interpret(Spider("Z", 1, 1), interp)
        assert str(exc.value) == "interpret needs a signature to type the term against"

    def test_type_errors_propagate_when_signature_known(self):
        sig = standard_signature()
        interp = standard_interp(sig, COMPLEX, make_rng(1))
        with pytest.raises(TypeMismatch):
            interpret(Seq(Gen("f"), Gen("f")), interp)

    def test_wrong_shape_generator_matrix_rejected(self):
        sig = standard_signature()
        with pytest.raises(ValueError, match="needs a 3x2 matrix"):
            Interpretation(
                COMPLEX,
                {"A": 2, "B": 3, "P": 2},
                gen_matrices={"f": MatrixMorphism.identity(COMPLEX, 2)},
                signature=sig,
            )

    @pytest.mark.parametrize("term", [Gen("e"), Dagger(Gen("e"))], ids=str)
    @pytest.mark.parametrize("matrix, message", [
        (MatrixMorphism(NAT, [[1, 2], [3, 4]]), "generator 'e' needs a 1x4 matrix for A x A -> I, got 2x2"),
        (MatrixMorphism(COMPLEX, [[1, 2, 3, 4]]), "generator 'e' uses complex, not nat"),
    ], ids=["shape", "semiring"])
    def test_a_matrix_assigned_after_construction_is_checked(self, term, matrix, message):
        # the Interpretation checked its matrices when built; interpret and evaluate_graph check the ones they use
        sig = Signature()
        sig.declare_generator("e", ObjectWord.of("A", "A"), ObjectWord(()))
        interp = Interpretation(NAT, {"A": 2}, {}, signature=sig)
        interp.gen_matrices["e"] = matrix
        for evaluate in (interpret, lambda t, i: evaluate_graph(to_graph(t, sig), i)):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                evaluate(term, interp)

    @pytest.mark.parametrize("term", [Spider("Z", 2, 1), Spider("Z", 1, 1)], ids=str)
    @pytest.mark.parametrize("change, message", [
        (lambda i: i.frobenius_data.update(Z=xor_frobenius()),
         "atom 'Z' declared with dimension 3 but its frobenius data has dimension 2"),
        (lambda i: i.frobenius_data.update(Z=basis_frobenius(3, BOOL)), "frobenius data for 'Z' uses bool, not complex"),
        (lambda i: i.object_dims.update(Z=2), "atom 'Z' declared with dimension 2 but its frobenius data has dimension 3"),
    ], ids=["dimension", "semiring", "declared-dimension"])
    def test_frobenius_data_changed_after_construction_is_checked(self, term, change, message):
        # the construction-time message, from interpret and evaluate_graph alike
        interp = Interpretation(COMPLEX, {"Z": 3}, frobenius_data={"Z": basis_frobenius(3)}, signature=ZSIG)
        change(interp)
        for evaluate in (interpret, lambda t, i: evaluate_graph(to_graph(t, ZSIG), i)):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                evaluate(term, interp)

    def test_a_dimension_changed_after_construction_is_checked(self):
        sig = Signature()
        sig.declare_generator("e", ObjectWord.of("A", "A"), ObjectWord(()))
        interp = Interpretation(NAT, {"A": 2}, {"e": MatrixMorphism(NAT, [[1, 2, 3, 4]])}, signature=sig)
        assert interpret(Gen("e"), interp) == MatrixMorphism(NAT, [[1, 2, 3, 4]])
        interp.object_dims["A"] = 3
        message = "generator 'e' needs a 1x9 matrix for A x A -> I, got 1x4"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            interpret(Gen("e"), interp)

    def test_frobenius_dim_conflict_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            Interpretation(COMPLEX, {"Z": 3}, frobenius_data={"Z": basis_frobenius(2, COMPLEX)})

    def test_deep_chain_needs_no_recursion(self):
        sig = Signature()
        sig.declare_generator("s", A, A)
        interp = Interpretation(NAT, {"A": 2}, gen_matrices={"s": MatrixMorphism(NAT, [[1, 1], [0, 1]])}, signature=sig)
        term = Gen("s")
        for _ in range(1999):
            term = Seq(Gen("s"), term)
        assert interpret(term, interp) == MatrixMorphism(NAT, [[1, 2000], [0, 1]])

    def test_zero_dimensional_atom_propagates(self):
        interp = cob_interp(basis_frobenius(0, COMPLEX))
        m = interpret(Spider("Z", 1, 2), interp)
        assert (m.rows, m.cols) == (0, 0)
        assert interpret(Seq(Cap("Z"), Cup("Z")), interp) == cmat([[0]])


class TestFunctoriality:
    @pytest.mark.parametrize("tag", [COMPLEX, BOOL], ids=["complex", "bool"])
    def test_interpret_respects_seq_and_par(self, tag):
        sig = standard_signature()
        for seed in range(40):
            rng = make_rng(seed)
            interp = standard_interp(sig, tag, rng)
            t1 = random_term(sig, rng, depth=2)
            from catkit.diagram import typecheck

            _, cod1 = typecheck(t1, sig)
            t2 = random_term(sig, rng, dom=cod1, depth=2)
            lhs = interpret(Seq(t2, t1), interp)
            rhs = compose(interpret(t2, interp), interpret(t1, interp))
            assert max_deviation(lhs, rhs) <= tag.tolerance
            t3 = random_term(sig, rng, depth=2)
            lhs = interpret(Par(t1, t3), interp)
            rhs = tensor(interpret(t1, interp), interpret(t3, interp))
            assert max_deviation(lhs, rhs) <= tag.tolerance

    def test_graphical_soundness_on_rewrite_corpus(self):
        # graph-equal terms must evaluate to equal matrices
        from catkit.diagram import graph_eq

        sig = standard_signature()
        checked = 0
        for seed in range(30):
            rng = make_rng(seed)
            interp = standard_interp(sig, COMPLEX, rng)
            t1 = random_term(sig, rng)
            t2, applied = rewrite_randomly(t1, sig, rng, steps=4)
            assert graph_eq(to_graph(t1, sig), to_graph(t2, sig))
            dev = max_deviation(interpret(t1, interp), interpret(t2, interp))
            assert dev <= 1e-9, (seed, applied, dev)
            checked += 1
        assert checked == 30


class TestEvaluateCob:
    def test_cylinder_is_identity(self):
        for d in (1, 2, 4):
            assert evaluate_cob(Id(Z), basis_frobenius(d, COMPLEX)) == MatrixMorphism.identity(COMPLEX, d)

    def test_closed_torus_is_dimension(self):
        torus = Seq(eps("Z"), Seq(mu("Z"), Seq(delta("Z"), unit("Z"))))
        for d in range(5):
            assert evaluate_cob(torus, basis_frobenius(d, COMPLEX)) == cmat([[d]])

    def test_pair_of_pants_frobenius_sides_agree(self):
        lhs = Seq(Par(Id(Z), mu("Z")), Par(delta("Z"), Id(Z)))
        rhs = Seq(delta("Z"), mu("Z"))
        for p in (basis_frobenius(3, COMPLEX), xor_frobenius(COMPLEX)):
            assert evaluate_cob(lhs, p) == evaluate_cob(rhs, p)

    def test_unverified_presentation_is_a_precondition_error(self):
        p = basis_frobenius(2, COMPLEX)
        broken = dataclasses.replace(p, delta=flip_entry(p.delta, 1, 0))
        with pytest.raises(ValueError, match="failed verification"):
            evaluate_cob(Id(Z), broken)

    def test_failing_presentation_raises_on_every_call(self):
        p = basis_frobenius(2, COMPLEX)
        broken = dataclasses.replace(p, delta=flip_entry(p.delta, 1, 0))
        messages = []
        for _ in range(3):
            with pytest.raises(ValueError, match="failed verification") as excinfo:
                evaluate_cob(Id(Z), broken)
            messages.append(str(excinfo.value))
        assert messages == [messages[0]] * 3
        assert messages[0] == "presentation failed verification: " + ", ".join(
            e.name for e in verify_frobenius(broken).surprises()
        )

    def test_presentation_is_verified_once(self, monkeypatch):
        calls = []

        def counted(p):
            calls.append(p)
            return verify_frobenius(p)

        monkeypatch.setattr(presentations, "verify_frobenius", counted)  # the home verification calls
        torus = Seq(eps("Z"), Seq(mu("Z"), Seq(delta("Z"), unit("Z"))))
        p = xor_frobenius(COMPLEX)
        for _ in range(3):
            assert evaluate_cob(torus, p) == cmat([[2]])  # 2^genus
        assert calls == [p]
        # a replaced copy is a new presentation, verified afresh: this mutant fails
        mutant = dataclasses.replace(p, mu=flip_entry(p.mu, 0, 0))
        with pytest.raises(ValueError, match="failed verification"):
            evaluate_cob(torus, mutant)
        assert len(calls) == 2 and calls[1] is mutant
        # and the measured report is neither compared nor printed
        assert mutant.verification is not p.verification
        assert "verification" not in repr(p) and dataclasses.replace(p) == p

    def test_verdict_is_read_once_per_presentation(self, monkeypatch):
        # evaluate_cob reads the kept failed_laws; the report's entries are scanned on the first call only
        scans = []
        ok, surprises = LawReport.ok, LawReport.surprises
        monkeypatch.setattr(LawReport, "ok", property(lambda r: scans.append("ok") or ok.fget(r)))
        monkeypatch.setattr(LawReport, "surprises", lambda r: scans.append("surprises") or surprises(r))
        p, sphere = xor_frobenius(COMPLEX), Seq(eps("Z"), unit("Z"))
        values = [evaluate_cob(sphere, p) for _ in range(100)]
        assert values == [cmat([[1]])] * 100 and len(scans) == 1
        evaluate_cob(sphere, dataclasses.replace(p))  # a replaced copy is measured afresh
        assert len(scans) == 2

    def test_verify_frobenius_stays_a_fresh_check(self):
        p = basis_frobenius(2, COMPLEX)
        assert p.verification.ok and p.verification is p.verification
        assert verify_frobenius(p) is not verify_frobenius(p)
        assert verify_frobenius(p) is not p.verification

    def test_foreign_generator_rejected(self):
        with pytest.raises(ValueError, match="foreign generator"):
            evaluate_cob(Gen("f"), basis_frobenius(2, COMPLEX))

    def test_two_atoms_rejected(self):
        t = Par(Spider("Z", 1, 1), Spider("W", 1, 1))
        with pytest.raises(ValueError, match="single atom"):
            evaluate_cob(t, basis_frobenius(2, COMPLEX))

    def test_agrees_with_generic_interpret(self):
        p = xor_frobenius(COMPLEX)
        interp = cob_interp(p)
        for seed in range(20):
            rng = make_rng(seed)
            t = random_cob_term(rng, n_in=rng.randrange(3))
            assert evaluate_cob(t, p) == interpret(t, interp)

    def test_complex_overflow_is_an_error_not_nan(self):
        # xor gives 2^genus on a closed surface; 2^1100 is past the float range
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and numpy must not warn on the way
            with pytest.raises(ValueError, match="inf or nan"):
                evaluate_cob(closed_surface(1100), xor_frobenius(COMPLEX))

    def test_nat_stays_exact_past_the_float_range(self):
        m = evaluate_cob(closed_surface(1100), xor_frobenius(NAT))
        assert (m.rows, m.cols, m.entry(0, 0).value) == (1, 1, 2 ** 1100)


def _random_conjugated_basis(d, rng):
    """Basis presentation pushed through a random integer unipotent basis change."""
    upper = np.eye(d)
    lower = np.eye(d)
    for i in range(d):
        for j in range(i + 1, d):
            upper[i, j] = rng.randrange(-2, 3)
            lower[j, i] = rng.randrange(-2, 3)
    fm = lower @ upper
    f = MatrixMorphism(COMPLEX, fm.tolist())
    f_inv = MatrixMorphism(COMPLEX, np.linalg.inv(fm).tolist())
    return conjugate_presentation(basis_frobenius(d, COMPLEX), f, f_inv)


def _matrix_algebra_m2():
    """M2(C) in the trace-orthonormal basis E11, E22, (E12 + E21)/sqrt 2,
    i(E12 - E21)/sqrt 2: mu is the matrix product, eps the trace and
    delta(a) = sum_i (a b_i) (x) b_i.  Every core law holds and the pairing
    is the identity, but the algebra is not commutative."""
    r = 1 / math.sqrt(2)
    b = np.array([[[1, 0], [0, 0]], [[0, 0], [0, 1]], [[0, r], [r, 0]], [[0, 1j * r], [-1j * r, 0]]])
    t = np.einsum("kxy,iyz,jzx->kij", b, b, b)  # t[k, i, j] = tr(b_k b_i b_j)
    trace = np.trace(b, axis1=1, axis2=2)
    return FrobeniusPresentation(
        dim=4,
        delta=cmat(t.transpose(0, 2, 1).reshape(16, 4).tolist()),  # delta[(k, i), a] = tr(b_k b_a b_i)
        eps=cmat([trace.tolist()]),
        mu=cmat(t.reshape(4, 16).tolist()),
        unit_e=cmat(trace.reshape(4, 1).tolist()),
    )


def _flag_equations_hold(p):
    """The three optional laws, as MatrixMorphism equalities written out afresh."""
    sigma, ident = swap_matrix(p.tag, p.dim, p.dim), MatrixMorphism.identity(p.tag, p.dim)
    return {
        "commutative": compose(sigma, p.delta) == p.delta and compose(p.mu, sigma) == p.mu,
        "special": compose(p.mu, p.delta) == ident,
        "dagger": dagger(p.delta) == p.mu and dagger(p.eps) == p.unit_e,
    }


def _complex_orthogonal_basis():
    """Basis presentation conjugated by a complex-orthogonal, non-unitary O.

    O O^T = 1 keeps the identity pairing and commutativity, so
    evaluate_graph accepts it, but delta^dagger is not mu: a daggered
    spider's adjoint and its reversal differ.
    """
    c, s = np.cosh(0.7), np.sinh(0.7)
    o, o_t = cmat([[c, 1j * s], [-1j * s, c]]), cmat([[c, -1j * s], [1j * s, c]])
    return conjugate_presentation(basis_frobenius(2, COMPLEX), o, o_t)


class TestCobordismSoundness:
    def test_functoriality_of_evaluation(self):
        from catkit.diagram import typecheck

        p = basis_frobenius(2, COMPLEX)
        for seed in range(40):
            rng = make_rng(seed)
            t1 = random_cob_term(rng, n_in=rng.randrange(3))
            _, cod1 = typecheck(t1, ZSIG)
            t2 = random_cob_term(rng, n_in=len(cod1))
            dom2, _ = typecheck(t2, ZSIG)
            # a spider soaks up any width difference between the two pieces
            bridge = Seq(Spider("Z", len(cod1), len(dom2)), t1)
            lhs = evaluate_cob(Seq(t2, bridge), p)
            rhs = compose(evaluate_cob(t2, p), evaluate_cob(bridge, p))
            assert max_deviation(lhs, rhs) <= 1e-9

    def test_eq_cob_implies_equal_matrices(self):
        presentations = [
            basis_frobenius(2, COMPLEX),
            basis_frobenius(3, COMPLEX),
            _random_conjugated_basis(3, make_rng(99)),
        ]
        for p in presentations:
            assert verify_frobenius(p).ok
        pairs = 0
        for seed in range(25):
            rng = make_rng(seed)
            t1 = random_cob_term(rng, n_in=rng.randrange(3))
            t2, _ = rewrite_randomly(t1, ZSIG, rng, steps=3)
            assert eq_cob(t1, t2, ZSIG)
            for p in presentations:
                dev = max_deviation(evaluate_cob(t1, p), evaluate_cob(t2, p))
                assert dev <= 1e-9, (seed, dev)
            pairs += 1
        assert pairs == 25

    def test_dagger_means_surface_reversal(self):
        # the adjoint reading would break on presentations without
        # dagger structure; reversal keeps homeomorphic terms equal
        mirrored = [
            (Spider("Z", 0, 2), Spider("Z", 2, 0)),
            (eps("Z"), unit("Z")),
            (Cup("Z"), Cap("Z")),
            (Cap("Z"), Cup("Z")),
        ]
        q = _random_conjugated_basis(2, make_rng(11))
        assert not q.dagger
        for t, reversed_ in mirrored:
            assert eq_cob(Dagger(t), reversed_)
            assert evaluate_cob(Dagger(t), q) == evaluate_cob(reversed_, q), t

    def test_dagger_agrees_with_adjoint_for_dagger_presentations(self):
        p = basis_frobenius(3, COMPLEX)
        for seed in range(10):
            rng = make_rng(seed)
            t = random_cob_term(rng, n_in=rng.randrange(3))
            assert evaluate_cob(Dagger(t), p) == dagger(evaluate_cob(t, p))

    def test_round_trip_presentation_verifies(self):
        for p in (basis_frobenius(2, COMPLEX), basis_frobenius(3, COMPLEX), xor_frobenius(COMPLEX)):
            back = FrobeniusPresentation(
                dim=p.dim,
                delta=evaluate_cob(delta("Z"), p),
                eps=evaluate_cob(eps("Z"), p),
                mu=evaluate_cob(mu("Z"), p),
                unit_e=evaluate_cob(unit("Z"), p),
            )
            assert verify_frobenius(back).ok
            assert verify_frobenius(back).names() == verify_frobenius(p).names()
            assert (back.commutative, back.special, back.dagger) == (p.commutative, p.special, p.dagger)
            assert back.delta == p.delta


class TestMorphismChecks:
    def test_identity_is_a_morphism(self):
        p = basis_frobenius(3, COMPLEX)
        assert check_frobenius_morphism(MatrixMorphism.identity(COMPLEX, 3), p, p).ok

    def test_basis_permutations_are_morphisms(self):
        p = basis_frobenius(3, COMPLEX)
        perm = cmat([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        assert check_frobenius_morphism(perm, p, p).ok

    def test_all_ones_collapse_is_not_a_morphism(self):
        report = check_frobenius_morphism(
            cmat([[1, 1]]), basis_frobenius(2, COMPLEX), basis_frobenius(1, COMPLEX)
        )
        assert not report.ok
        assert not report.entry("morphism-multiplication").passed
        assert not report.entry("morphism-unit").passed
        # the comonoid half is preserved by this map; only the monoid breaks
        assert report.entry("morphism-comultiplication").passed
        assert report.entry("morphism-counit").passed

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeMismatch):
            check_frobenius_morphism(
                cmat([[1, 1]]), basis_frobenius(3, COMPLEX), basis_frobenius(1, COMPLEX)
            )


class TestConjugation:
    def test_conjugated_presentation_verifies(self):
        p = _random_conjugated_basis(3, make_rng(5))
        assert p.special and p.commutative and not p.dagger
        assert verify_frobenius(p).ok

    def test_unitary_conjugation_keeps_dagger_structure(self):
        h = cmat([[1 / math.sqrt(2), 1 / math.sqrt(2)], [1 / math.sqrt(2), -1 / math.sqrt(2)]])
        q = conjugate_presentation(basis_frobenius(2, COMPLEX), h, h)
        assert q.dagger and q.commutative and q.special
        report = verify_frobenius(q)
        assert report.ok
        assert report.names()[-3:] == ["commutativity", "speciality", "dagger-structure"]

    def test_non_inverse_rejected(self):
        f = cmat([[1, 1], [0, 1]])
        with pytest.raises(ValueError, match="not mutually inverse"):
            conjugate_presentation(basis_frobenius(2, COMPLEX), f, f)

    def test_conjugation_by_identity_is_identity(self):
        p = basis_frobenius(2, COMPLEX)
        ident = MatrixMorphism.identity(COMPLEX, 2)
        q = conjugate_presentation(p, ident, ident)
        assert q.delta == p.delta and q.mu == p.mu


class TestHopfGroupData:
    def test_z2_data_frozen(self):
        p, antipode = hopf_group_z2(COMPLEX)
        assert p.delta == cmat([[1, 0], [0, 0], [0, 0], [0, 1]])
        assert p.mu == cmat([[1, 0, 0, 1], [0, 1, 1, 0]])
        assert p.unit_e == cmat([[1], [0]])
        assert antipode == MatrixMorphism.identity(COMPLEX, 2)

    def test_z2_pairing_is_not_frobenius(self):
        p, _ = hopf_group_z2(COMPLEX)
        report = verify_frobenius(p)
        assert not report.entry("frobenius-left").passed


class TestEvaluateGraph:
    def test_matches_interpret_on_cob_corpus(self):
        presentations = [
            basis_frobenius(2, COMPLEX),
            basis_frobenius(3, COMPLEX),
            xor_frobenius(COMPLEX),
            _complex_orthogonal_basis(),  # no dagger structure: a daggered spider is not its adjoint
        ]
        for p in presentations:
            interp = cob_interp(p)
            for seed in range(15):
                rng = make_rng(seed)
                t = random_cob_term(rng, n_in=rng.randrange(3))
                g = to_graph(t, ZSIG)
                m = interpret(t, interp)
                assert evaluate_graph(g, interp) == m, (p.dim, seed)
                assert evaluate_cob(t, p) == m, (p.dim, seed)

    @pytest.mark.parametrize("tag", [COMPLEX, BOOL, NAT], ids=["complex", "bool", "nat"])
    def test_matches_interpret_on_box_corpus(self, tag):
        sig = standard_signature()
        for seed in range(12):
            rng = make_rng(seed)
            interp = standard_interp(sig, tag, rng)
            t = random_term(sig, rng)
            g = to_graph(t, sig)
            assert evaluate_graph(g, interp) == interpret(t, interp), seed

    @staticmethod
    def _ones_chain(tag, n):
        sig = Signature()
        sig.declare_generator("one", ObjectWord.of("B"), ObjectWord.of("B"))
        interp = Interpretation(tag, {"B": 2}, {"one": MatrixMorphism(tag, [[1, 1], [1, 1]])}, signature=sig)
        term = Gen("one")
        for _ in range(n - 1):
            term = Seq(Gen("one"), term)
        return interp, term, to_graph(term, sig)

    @pytest.mark.parametrize("n", [64, 130])
    def test_bool_chain_counts_no_paths(self, n):
        # 2^(n-1) paths per entry would wrap a 64-bit count to zero
        interp, term, g = self._ones_chain(BOOL, n)
        ones = MatrixMorphism(BOOL, [[1, 1], [1, 1]])
        assert evaluate_graph(g, interp) == ones
        assert interpret(term, interp) == ones

    def test_nat_chain_keeps_python_ints(self):
        interp, term, g = self._ones_chain(NAT, 70)
        for m in (evaluate_graph(g, interp), interpret(term, interp)):
            assert [[type(v) for v in row] for row in m.data.tolist()] == [[int, int], [int, int]]
            assert m.data.tolist() == [[2**69, 2**69], [2**69, 2**69]]

    def test_directional_presentation_rejected(self):
        p = _random_conjugated_basis(2, make_rng(3))
        interp = cob_interp(p)
        g = to_graph(Spider("Z", 1, 1), ZSIG)
        with pytest.raises(ValueError, match="directional"):
            evaluate_graph(g, interp)

    def test_non_commutative_presentation_rejected(self):
        # the pairing is the identity, so only the measured commutativity tells
        p = _matrix_algebra_m2()
        assert verify_frobenius(p).ok and p.pairing_deviation < 1e-12
        assert not p.commutative and not p.special and p.dagger
        interp = cob_interp(p)
        merge, swapped = Spider("Z", 2, 1), Seq(Spider("Z", 2, 1), Swap(Z, Z))
        assert graph_eq(to_graph(merge, ZSIG), to_graph(swapped, ZSIG))
        assert interpret(merge, interp) != interpret(swapped, interp)
        for term in (merge, swapped):
            with pytest.raises(ValueError, match="directional"):
                evaluate_graph(to_graph(term, ZSIG), interp)

    def test_pairing_is_measured_once_per_presentation(self, monkeypatch):
        p = basis_frobenius(2, COMPLEX)
        assert p.pairing_deviation == 0.0
        assert _random_conjugated_basis(2, make_rng(3)).pairing_deviation > 1e-3
        interp = cob_interp(p)
        g = to_graph(Seq(Spider("Z", 1, 0), Seq(Spider("Z", 2, 1), Seq(Spider("Z", 1, 2), Spider("Z", 0, 1)))), ZSIG)
        assert evaluate_graph(g, interp) == cmat([[2]])  # measures the flags, on first use

        def boom(*args):
            raise AssertionError("evaluate_graph measured the pairing or the flags again")

        # the presentation measures its pairing where it is defined, and its flags once
        monkeypatch.setattr(presentations, "compose", boom)
        monkeypatch.setattr(presentations, "max_deviation", boom)
        assert evaluate_graph(g, interp) == cmat([[2]])

    def test_spider_atom_without_presentation(self):
        interp = Interpretation(COMPLEX, {"Z": 2}, signature=ZSIG)
        with pytest.raises(UnknownName) as excinfo:
            evaluate_graph(to_graph(Spider("Z", 1, 1), ZSIG), interp)
        assert str(excinfo.value) == "no frobenius data for atom 'Z'"

    def test_box_without_matrix(self):
        sig = Signature()
        sig.declare_generator("f", ObjectWord.of("A"), ObjectWord.of("A"))
        interp = Interpretation(COMPLEX, {"A": 2}, signature=sig)
        with pytest.raises(UnknownName) as excinfo:
            evaluate_graph(to_graph(Gen("f"), sig), interp)
        assert str(excinfo.value) == "no matrix assigned to generator 'f'"

    @pytest.mark.parametrize("term", [Gen("e"), Dagger(Gen("e")), Gen("f"), Dagger(Gen("f"))], ids=str)
    def test_a_misshapen_matrix_is_refused_without_a_signature(self, term):
        # with no signature the Interpretation cannot check its matrices, so each box checks its own
        # against its ports: e's 2x2 matrix has the size of a 1x4 one, and f's the size of neither
        sig = Signature()
        sig.declare_generator("e", ObjectWord.of("A", "A"), ObjectWord(()))
        sig.declare_generator("f", ObjectWord.of("A"), ObjectWord.of("B"))
        square = MatrixMorphism(NAT, [[1, 2], [3, 4]])
        interp = Interpretation(NAT, {"A": 2, "B": 3}, {"e": square, "f": square})
        message = {"e": "generator 'e' needs a 1x4 matrix for A x A -> I, got 2x2",
                   "f": "generator 'f' needs a 3x2 matrix for A -> B, got 2x2"}[getattr(term, "inner", term).name]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            evaluate_graph(to_graph(term, sig), interp)

    def test_a_misshapen_matrix_is_refused_when_the_signature_lacks_its_generator(self):
        # an Interpretation checks only the matrices of the generators its signature declares
        sig, other = Signature(), Signature()
        sig.declare_generator("e", ObjectWord.of("A", "A"), ObjectWord(()))
        other.declare_object("A")
        interp = Interpretation(NAT, {"A": 2}, {"e": MatrixMorphism(NAT, [[1, 2], [3, 4]])}, signature=other)
        message = "generator 'e' needs a 1x4 matrix for A x A -> I, got 2x2"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            evaluate_graph(to_graph(Gen("e"), sig), interp)

    def test_empty_graph_is_the_unit_scalar(self):
        interp = cob_interp(basis_frobenius(2, COMPLEX))
        g = to_graph(Id(ObjectWord(())), ZSIG)
        assert evaluate_graph(g, interp) == cmat([[1]])

    def test_loops_contribute_dimension_factors(self):
        interp = cob_interp(basis_frobenius(3, COMPLEX))
        two_loops = Par(Seq(Cap("Z"), Cup("Z")), Seq(Cap("Z"), Cup("Z")))
        g = to_graph(two_loops, ZSIG)
        assert len(g.loops) == 2
        assert evaluate_graph(g, interp) == cmat([[9]])

    def test_bool_loop_is_truthy_not_counted(self):
        interp = cob_interp(basis_frobenius(3, BOOL))
        g = to_graph(Seq(Cap("Z"), Cup("Z")), ZSIG)
        assert evaluate_graph(g, interp) == MatrixMorphism(BOOL, [[1]])


class TestJsonLoader:
    def test_pair_list_generators(self):
        sig = Signature()
        sig.declare_generator(
            "f", ObjectWord((("A", False),)), ObjectWord((("C", False),))
        )
        data = {
            "semiring": "bool",
            "objects": {"A": ["a", "b"], "C": ["c", "d", "e"]},
            "generators": {"f": {"rel": [["a", "c"], ["b", "c"], ["a", "d"]]}},
        }
        interp = interpretation_from_data(data, sig)
        assert interp.gen_matrices["f"].tolist() == [[1, 1], [1, 0], [0, 0]]
        assert interp.element_names["C"] == ["c", "d", "e"]

    def test_basis_keyword(self):
        data = {"semiring": "complex", "objects": {"A": 2}, "frobenius": {"A": "basis"}}
        interp = interpretation_from_data(data)
        assert interp.frobenius_data["A"].special

    def test_explicit_frobenius_flags_are_measured(self):
        data = {
            "semiring": "complex",
            "objects": {"Z": 2},
            "frobenius": {
                "Z": {
                    "delta": [[1, 0], [0, 1], [0, 1], [1, 0]],
                    "eps": [[1, 0]],
                    "mu": [[1, 0, 0, 1], [0, 1, 1, 0]],
                    "e": [[1], [0]],
                }
            },
        }
        p = interpretation_from_data(data).frobenius_data["Z"]
        assert p.commutative and p.dagger and not p.special
        assert verify_frobenius(p).ok

    def test_measured_flags_agree_with_verified_laws(self):
        presentations = [basis_frobenius(d, tag) for tag in (BOOL, NAT, COMPLEX) for d in (1, 2, 3)]
        presentations += [xor_frobenius(BOOL), xor_frobenius(COMPLEX), hopf_group_z2(COMPLEX)[0]]
        presentations += [_random_conjugated_basis(d, make_rng(d)) for d in (2, 3)] + [_matrix_algebra_m2()]
        seen = set()
        flags = [("commutative", "commutativity"), ("special", "speciality"), ("dagger", "dagger-structure")]
        for p in presentations:
            explicit = {"delta": p.delta.tolist(), "eps": p.eps.tolist(), "mu": p.mu.tolist(), "e": p.unit_e.tolist()}
            data = {"semiring": p.tag.kind, "objects": {"Z": p.dim}, "frobenius": {"Z": explicit}}
            q = interpretation_from_data(data).frobenius_data["Z"]
            expected = _flag_equations_hold(p)
            verified = verify_frobenius(q).names()
            for flag, law in flags:
                assert getattr(q, flag) == getattr(p, flag) == expected[flag], (p, flag)
                assert (law in verified) == expected[flag], (p, law)
                seen.add(expected[flag])
        assert seen == {True, False}

    def test_complex_entries_as_pairs(self):
        data = {
            "semiring": "complex",
            "objects": {"A": 1},
            "generators": {"s": [[[0, 1]]]},
        }
        interp = interpretation_from_data(data)
        assert interp.gen_matrices["s"].entry(0, 0).value == 1j

    def test_unknown_semiring_rejected(self):
        with pytest.raises(ValueError, match="unknown semiring"):
            interpretation_from_data({"semiring": "tropical"})

    def test_unknown_element_rejected(self):
        sig = Signature()
        sig.declare_generator("f", ObjectWord((("A", False),)), ObjectWord((("A", False),)))
        data = {
            "semiring": "bool",
            "objects": {"A": ["a"]},
            "generators": {"f": {"rel": [["a", "zzz"]]}},
        }
        with pytest.raises(ValueError, match="unknown element"):
            interpretation_from_data(data, sig)

    def test_pair_list_needs_booleans(self):
        sig = Signature()
        sig.declare_generator("f", ObjectWord((("A", False),)), ObjectWord((("A", False),)))
        data = {
            "semiring": "nat",
            "objects": {"A": ["a"]},
            "generators": {"f": {"rel": [["a", "a"]]}},
        }
        with pytest.raises(ValueError, match="boolean"):
            interpretation_from_data(data, sig)

    @pytest.mark.parametrize(
        "data, gen_type, message",
        [
            (
                {"semiring": "bool", "objects": {"A": 2}, "generators": {"f": {"rel": [["a", 0]]}}},
                ("A", "A"),
                "generators.f: atom 'A' has no named elements for 'a'",
            ),
            (
                {"semiring": "bool", "objects": {"A": 2}, "generators": {"f": {"rel": []}}},
                None,
                "pair-list generator 'f' needs a declared signature",
            ),
            (
                {"semiring": "bool", "objects": {"A": 2}, "generators": {"f": {"rel": []}}},
                ("A x A", "A"),
                "pair-list generator 'f' needs single-atom endpoints",
            ),
            (
                {"semiring": "complex", "objects": {}, "frobenius": {"Z": "basis"}},
                None,
                "frobenius atom 'Z' has no declared dimension",
            ),
        ],
        ids=["unnamed-elements", "no-signature", "two-atom-domain", "basis-without-dimension"],
    )
    def test_data_errors(self, data, gen_type, message):
        sig = None
        if gen_type:
            sig = Signature()
            sig.declare_generator("f", *(ObjectWord.of(*w.split(" x ")) for w in gen_type))
        with pytest.raises(ValueError) as excinfo:
            interpretation_from_data(data, sig)
        assert str(excinfo.value) == message

    def test_tolerance_override_applies_to_complex(self):
        data = {"semiring": "complex", "objects": {"A": 1}}
        interp = interpretation_from_data(data, tolerance=1e-3)
        assert interp.tag.tolerance == 1e-3


class TestInterpretation:
    def test_semiring_of_every_matrix_must_match(self):
        with pytest.raises(ValueError) as excinfo:
            Interpretation(BOOL, {}, frobenius_data={"Z": basis_frobenius(2, COMPLEX)})
        assert str(excinfo.value) == "frobenius data for 'Z' uses complex, not bool"
        with pytest.raises(ValueError) as excinfo:
            Interpretation(NAT, {}, gen_matrices={"f": MatrixMorphism(BOOL, [[1]])})
        assert str(excinfo.value) == "generator 'f' uses bool, not nat"

    def test_caller_dimensions_are_not_written_to(self):
        # the inferred dimension of Z goes into the interpretation's own dict
        dims = {"A": 2}
        two = Interpretation(COMPLEX, dims, frobenius_data={"Z": basis_frobenius(2)})
        three = Interpretation(COMPLEX, dims, frobenius_data={"Z": basis_frobenius(3)})
        assert dims == {"A": 2}
        assert (two.object_dims, three.object_dims) == ({"A": 2, "Z": 2}, {"A": 2, "Z": 3})


def _kron_power(m, n):
    out = MatrixMorphism.identity(m.tag, 1)
    for _ in range(n):
        out = tensor(out, m)
    return out


def _spider_pair(k):
    """spider(Z, 0, k) >> spider(Z, k, 0): one closed piece of genus k - 1."""
    return Seq(Spider("Z", k, 0), Spider("Z", 0, k))


HALF = 2**-0.5
HADAMARD = cmat([[HALF, HALF], [HALF, -HALF]])


class TestBasisCopyDetection:
    @pytest.mark.parametrize("tag", [COMPLEX, BOOL, NAT], ids=["complex", "bool", "nat"])
    @pytest.mark.parametrize("d", range(5))
    def test_basis_presentations_measure_as_copies(self, d, tag):
        assert basis_frobenius(d, tag).basis_copy

    @pytest.mark.parametrize("tag", [COMPLEX, BOOL, NAT], ids=["complex", "bool", "nat"])
    def test_other_presentations_do_not(self, tag):
        assert not xor_frobenius(tag).basis_copy
        assert not hopf_group_z2(tag)[0].basis_copy

    def test_hadamard_conjugate_does_not(self):
        assert not conjugate_presentation(basis_frobenius(2, COMPLEX), HADAMARD, HADAMARD).basis_copy

    @pytest.mark.parametrize("tag", [COMPLEX, BOOL, NAT], ids=["complex", "bool", "nat"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_every_one_entry_mutant_does_not(self, d, tag):
        p = basis_frobenius(d, tag)
        for name in ("delta", "eps", "mu", "unit_e"):
            m = getattr(p, name)
            for i in range(m.rows):
                for j in range(m.cols):
                    assert not dataclasses.replace(p, **{name: flip_entry(m, i, j)}).basis_copy, (name, i, j)

    @pytest.mark.parametrize("semiring", ["complex", "bool", "nat"])
    def test_json_basis_and_explicit_matrices_measure_as_copies(self, semiring):
        explicit = {
            "delta": [[1, 0], [0, 0], [0, 0], [0, 1]],
            "eps": [[1, 1]],
            "mu": [[1, 0, 0, 0], [0, 0, 0, 1]],
            "e": [[1], [1]],
        }
        data = {"semiring": semiring, "objects": {"A": 2, "B": 2}, "frobenius": {"A": "basis", "B": explicit}}
        frob = interpretation_from_data(data).frobenius_data
        assert frob["A"].basis_copy and frob["B"].basis_copy

    def test_equality_and_repr_ignore_the_measurement(self):
        p = basis_frobenius(2, COMPLEX)
        near = dataclasses.replace(p, delta=MatrixMorphism._raw(COMPLEX, p.delta.data + 1e-12))
        assert not near.basis_copy and near == p
        assert "basis_copy" not in repr(p)


class TestCopySpiders:
    @pytest.mark.parametrize("tag, want", [(COMPLEX, 3), (NAT, 3), (BOOL, True)], ids=["complex", "nat", "bool"])
    @pytest.mark.parametrize("k", [12, 60])
    def test_spider_pair_is_the_dimension(self, k, tag, want):
        p = basis_frobenius(3, tag)
        term = _spider_pair(k)
        interp = cob_interp(p)
        for m in (interpret(term, interp), evaluate_graph(to_graph(term, ZSIG), interp), evaluate_cob(term, p)):
            assert m.data.tolist() == [[want]]

    def test_genus_ten_thousand_is_the_dimension(self):
        assert evaluate_cob(closed_surface(10**4), basis_frobenius(3, COMPLEX)) == cmat([[3]])

    @pytest.mark.parametrize("tag", [COMPLEX, BOOL, NAT], ids=["complex", "bool", "nat"])
    @pytest.mark.parametrize("d", range(5))
    def test_unit_sphere_and_handled_wire(self, d, tag):
        interp = cob_interp(basis_frobenius(d, tag))
        assert interpret(Spider("Z", 0, 1), interp) == MatrixMorphism(tag, [[1]] * d, shape=(d, 1))
        assert interpret(Spider("Z", 0, 0), interp) == MatrixMorphism(tag, [[d > 0 if tag is BOOL else d]])
        z = (("Z", False),)
        wire = OpenGraph((SpiderNode("Z", 2, 5),), ((("i", 0), ("n", 0, 0)), (("n", 0, 1), ("o", 0))), z, z)
        assert evaluate_graph(wire, interp) == MatrixMorphism.identity(tag, d)

    @pytest.mark.parametrize("tag", [COMPLEX, BOOL, NAT], ids=["complex", "bool", "nat"])
    def test_closed_pieces_multiply(self, tag):
        interp = cob_interp(basis_frobenius(3, tag))
        nine = MatrixMorphism(tag, [[1 if tag is BOOL else 9]])
        loop = Seq(Cap("Z"), Cup("Z"))
        spheres = OpenGraph((SpiderNode("Z", 0, 3), SpiderNode("Z", 0, 0)), (), (), ())
        assert interpret(Par(loop, loop), interp) == nine
        assert interpret(Par(Spider("Z", 0, 0), loop), interp) == nine
        assert evaluate_graph(spheres, interp) == nine

    def test_copy_path_agrees_with_the_dense_path_under_hadamard(self):
        # H is orthogonal, so conjugating by it keeps the Kronecker caps that
        # interpret uses: every term's matrix is H^out . basis . H^-in
        basis = cob_interp(basis_frobenius(2, COMPLEX))
        dense = cob_interp(conjugate_presentation(basis_frobenius(2, COMPLEX), HADAMARD, HADAMARD))
        for seed in range(120):
            rng = make_rng(seed)
            term = random_cob_term(rng, n_in=rng.randrange(4))
            n_in, n_out = (len(w) for w in typecheck(term, ZSIG))
            want = compose(_kron_power(HADAMARD, n_out), compose(interpret(term, basis), _kron_power(HADAMARD, n_in)))
            assert max_deviation(interpret(term, dense), want) <= 1e-9, seed

    @pytest.mark.parametrize("tag", [COMPLEX, NAT], ids=["complex", "nat"])
    def test_mixed_network_of_copies_and_boxes(self, tag):
        # each layer copies the wire into boxes f and g and merges them back, so
        # column j of its matrix is f[:, j] * g[:, j]; over complex g is a rank-one
        # phase pattern, which keeps each layer unitary, and over nat entries are 1 or 2
        rng, layers = np.random.default_rng(7), 200
        sig, gens, term = cob_signature("Z"), {}, Id(Z)
        want = np.eye(3, dtype=object if tag is NAT else complex)
        for k in range(layers):
            if tag is NAT:
                f, g = rng.integers(1, 3, size=(2, 3, 3)).astype(object)
            else:
                f = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
                g = np.outer(*np.exp(1j * rng.uniform(0, 2 * np.pi, size=(2, 3))))
            for name, m in ((f"f{k}", f), (f"g{k}", g)):
                sig.declare_generator(name, Z, Z)
                gens[name] = MatrixMorphism._raw(tag, m)
            term = Seq(Seq(Spider("Z", 2, 1), Seq(Par(Gen(f"f{k}"), Gen(f"g{k}")), Spider("Z", 1, 2))), term)
            want = (f * g).dot(want)
        interp = Interpretation(tag, {"Z": 3}, gens, {"Z": basis_frobenius(3, tag)}, signature=sig)
        for m in (interpret(term, interp), evaluate_graph(to_graph(term, sig), interp)):
            if tag is NAT:
                assert m.data.tolist() == want.tolist()
            else:
                assert np.allclose(m.data, want, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("tag", [COMPLEX, BOOL, NAT], ids=["complex", "bool", "nat"])
    def test_every_orientation_agrees_with_the_graph(self, tag):
        # a daggered non-square box, one-leg and legless copy spiders, a bare
        # loop and boundary-to-boundary wires, each with its own matrix factor
        a, b = ObjectWord.of("A"), ObjectWord.of("B")
        sig = cob_signature("Z")
        sig.declare_generator("h", a, b)
        h = random_matrix(tag, 3, 2, make_rng(5))
        p = basis_frobenius(2, tag)
        interp = Interpretation(tag, {"A": 2, "B": 3}, {"h": h}, {"Z": p}, signature=sig)
        loop = Seq(Cap("B"), Seq(Swap(ObjectWord.atom("B", True), b), Cup("B")))
        term = Par(
            Par(Seq(Gen("h"), Dagger(Gen("h"))), Dagger(Gen("h"))),
            Par(Par(Dagger(Spider("Z", 0, 1)), Spider("Z", 0, 0)), Par(loop, Swap(a, Z))),
        )
        scalar = MatrixMorphism(tag, [[1 if tag is BOOL else 2 * 3]])
        want = tensor(tensor(compose(h, dagger(h)), dagger(h)), tensor(tensor(p.eps, scalar), swap_matrix(tag, 2, 2)))
        for m in (interpret(term, interp), evaluate_graph(to_graph(term, sig), interp)):
            assert max_deviation(m, want) <= 1e-9
        # a lone box joins nothing: the network is its matrix
        for t, m in ((Gen("h"), h), (Dagger(Gen("h")), dagger(h))):
            assert interpret(t, interp) == m
            assert evaluate_graph(to_graph(t, sig), interp) == m


A = ObjectWord.of("A")
MISMATCH = Seq(mu("Z"), Spider("Z", 1, 1))
MISMATCH_TEXT = "cannot compose: first stage produces Z but second expects Z x Z"
NEGATIVE_TEXT = "spider leg counts must be nonnegative"


def boxed_signature():
    """Z frobenius and self-dual, A plain, B without a dimension; f and g : A -> A, g without a matrix."""
    sig = cob_signature("Z")
    sig.declare_object("A")
    sig.declare_object("B")
    sig.declare_generator("f", A, A)
    sig.declare_generator("g", A, A)
    return sig


def boxed_interp():
    p = xor_frobenius(COMPLEX)  # not basis-copy, so every spider is a spider_matrix
    f = cmat([[0, 1], [1, 0]])
    return Interpretation(COMPLEX, {"Z": 2, "A": 2}, {"f": f}, {"Z": p}, signature=boxed_signature())


# (term, error, message) for each caller; in that order of precedence where a term has two faults
TYPE_ERRORS = [
    (MISMATCH, TypeMismatch, MISMATCH_TEXT),
    (Dagger(Par(Id(Z), Seq(Spider("Z", 2, 0), Spider("Z", 0, 1)))), TypeMismatch, MISMATCH_TEXT),
    (Gen("nope"), UnknownName, "unknown generator 'nope'"),
    (Id(ObjectWord.of("Q")), UnknownName, "unknown object 'Q'"),
    (Spider("Q", 1, 1), UnknownName, "unknown object 'Q'"),
    (Spider("A", 1, 1), TypeMismatch, "spider legs require a frobenius atom, got 'A'"),
    (Spider("Z", -1, 1), TypeMismatch, NEGATIVE_TEXT),
    (42, TypeError, "not a diagram term: 42"),
    (Par(Id(Z), [1]), TypeError, "not a diagram term: [1]"),
    # a type error anywhere comes before a generator or atom with no data
    (Seq(MISMATCH, Gen("g")), TypeMismatch, MISMATCH_TEXT),
    (Seq(Gen("nope"), Id(ObjectWord.of("B"))), UnknownName, "unknown generator 'nope'"),
    (Seq(Seq(Gen("g"), Gen("f")), Spider("Z", -1, 1)), TypeMismatch, NEGATIVE_TEXT),
    (Seq(Spider("Z", 0, 0), Seq(Gen("g"), Gen("f"))), TypeMismatch, "cannot compose: first stage produces A but second expects I"),
]
INTERPRET_ERRORS = TYPE_ERRORS + [
    (Gen("g"), UnknownName, "no matrix assigned to generator 'g'"),
    (Par(Gen("f"), Id(ObjectWord.of("B"))), UnknownName, "no dimension declared for atom 'B'"),
    (Seq(Gen("f"), Gen("g")), UnknownName, "no matrix assigned to generator 'g'"),
    # a missing dimension comes before a generator or atom with no data
    (Par(Gen("g"), Id(ObjectWord.of("B"))), UnknownName, "no dimension declared for atom 'B'"),
]
EVALUATE_COB_ERRORS = [
    (MISMATCH, TypeMismatch, MISMATCH_TEXT),
    (Gen("nope"), ValueError, "unsupported foreign generator 'nope' in a cobordism term"),
    (Par(Spider("Z", 1, 1), Id(ObjectWord.of("Q"))), ValueError, "expected a single atom, found ['Q', 'Z']"),
    (Spider("Z", -1, 1), TypeMismatch, NEGATIVE_TEXT),
    (42, TypeError, "not a diagram term: 42"),
    # the walk's own faults, then the atom check, come before a type error
    (Seq(Gen("nope"), MISMATCH), ValueError, "unsupported foreign generator 'nope' in a cobordism term"),
    (Seq(42, MISMATCH), TypeError, "not a diagram term: 42"),
    (Par(MISMATCH, Id(ObjectWord.of("Q"))), ValueError, "expected a single atom, found ['Q', 'Z']"),
    (Seq(Spider("Z", -1, 1), Spider("Z", 1, 1)), TypeMismatch, NEGATIVE_TEXT),
]


DATA_ERRORS = INTERPRET_ERRORS[len(TYPE_ERRORS):]


def _ids(table):
    return [f"{k}-{error.__name__}" for k, (_, error, _) in enumerate(table)]


class TestWalkErrors:
    """Which fault each caller reports, and with what message."""

    @pytest.mark.parametrize("term, error, message", TYPE_ERRORS, ids=_ids(TYPE_ERRORS))
    def test_to_graph(self, term, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            to_graph(term, boxed_signature())

    @pytest.mark.parametrize("term, error, message", INTERPRET_ERRORS, ids=_ids(INTERPRET_ERRORS))
    def test_interpret(self, term, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            interpret(term, boxed_interp())

    @pytest.mark.parametrize("term, error, message", DATA_ERRORS, ids=_ids(DATA_ERRORS))
    def test_evaluate_graph(self, term, error, message):
        # a graph's data faults are the term's, in the same order
        graph = to_graph(term, boxed_signature())
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            evaluate_graph(graph, boxed_interp())

    def test_a_missing_matrix_comes_before_a_later_misshapen_one(self):
        interp = boxed_interp()
        interp.gen_matrices["f"] = cmat([[1, 0, 0, 1]])
        term = Par(Gen("g"), Gen("f"))
        for evaluate in (interpret, lambda t, i: evaluate_graph(to_graph(t, boxed_signature()), i)):
            with pytest.raises(UnknownName, match="^no matrix assigned to generator 'g'$"):
                evaluate(term, interp)

    def test_the_least_atom_with_no_dimension_is_named(self):
        # B and C both lack a dimension: the walk meets C's loop first in one order and B's wire first in the
        # other, and a graph lists its wires before its loops; both evaluators name B in both orders
        sig = boxed_signature()
        sig.declare_object("C", self_dual=True)
        interp = Interpretation(COMPLEX, {"A": 2}, {}, {}, signature=sig)
        loop, wire = Seq(Cap("C"), Cup("C")), Id(ObjectWord.of("B"))
        for term in (Par(loop, wire), Par(wire, loop)):
            for evaluate in (interpret, lambda t, i: evaluate_graph(to_graph(t, sig), i)):
                with pytest.raises(UnknownName, match="^no dimension declared for atom 'B'$"):
                    evaluate(term, interp)

    def test_each_distinct_box_is_read_once(self, monkeypatch):
        # a chain of f and its adjoint has two distinct box nodes, so two matrix reads
        interp, reads = boxed_interp(), []
        matrix = Interpretation.matrix
        monkeypatch.setattr(Interpretation, "matrix", lambda *args: reads.append(args[1]) or matrix(*args))
        term = Gen("f")
        for k in range(63):
            term = Seq(term, Gen("f") if k % 2 else Dagger(Gen("f")))
        assert interpret(term, interp) == MatrixMorphism.identity(COMPLEX, 2)
        assert reads == ["f", "f"]
        assert evaluate_graph(to_graph(term, boxed_signature()), interp) == MatrixMorphism.identity(COMPLEX, 2)
        assert reads == ["f"] * 4

    @pytest.mark.parametrize("term, error, message", EVALUATE_COB_ERRORS, ids=_ids(EVALUATE_COB_ERRORS))
    @pytest.mark.parametrize("p", [basis_frobenius(3), xor_frobenius()], ids=["basis", "xor"])
    def test_evaluate_cob(self, term, error, message, p):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            evaluate_cob(term, p)

    def test_walk_callers_never_call_typecheck(self, monkeypatch):
        import catkit.diagram as diagram
        import catkit.diagram.graphs as graphs
        import catkit.diagram.terms as terms
        import catkit.frobenius as frobenius
        import catkit.tqft as tqft

        def boom(*args, **kwargs):
            raise AssertionError("a walk caller ran typecheck")

        for module in (terms, diagram, graphs, frobenius, tqft):
            monkeypatch.setattr(module, "typecheck", boom, raising=False)
        term = closed_surface(3)
        boxed = Par(Seq(Dagger(Gen("f")), Gen("f")), Seq(Spider("Z", 1, 2), Spider("Z", 0, 1)))
        assert to_graph(boxed, boxed_signature()).output_types == (("A", False), ("Z", False), ("Z", False))
        assert interpret(boxed, boxed_interp()) == tensor(MatrixMorphism.identity(COMPLEX, 2), cmat([[1], [0], [0], [1]]))
        assert eq_cob(term, closed_surface(3), ZSIG) and eq_cob(term, closed_surface(3))
        assert frobenius.classify_cob(term).components == frobenius.classify_cob(term, ZSIG).components
        assert evaluate_cob(term, basis_frobenius(3)) == cmat([[3]])
        for term, error, message in INTERPRET_ERRORS:  # faults are ordered with no second walk
            with pytest.raises(error, match=f"^{re.escape(message)}$"):
                interpret(term, boxed_interp())


LAYOUT_DIMS = {"A": 2, "B": 3, "Q": 2, "Z": 0}


def layout_signature():
    """Self-dual A, B, Q and Z (dimension 0) and the generators of the layout cases."""
    sig = Signature()
    for atom in LAYOUT_DIMS:
        sig.declare_object(atom, self_dual=True)
    w = ObjectWord.of
    for name, dom, cod in [
        ("f", w("A"), w("B")),
        ("g", w("B"), w("A")),
        ("h", w("A", "B"), w("B", "A")),
        ("s", w(), w("A", "B")),
        ("e", w("A", "B"), w()),
        ("z", w("A", "Z"), w("A", "Z")),
        ("s0", w(), w("Z")),
        ("e0", w("Z"), w()),
    ] + [(f"u{k}", w("Q", "Q"), w("Q", "Q")) for k in range(16)]:
        sig.declare_generator(name, dom, cod)
    return sig


def layout_interp(sig, tag, seed):
    """Random matrices for sig's generators; complex ones halved, so a width-8
    brickwork's entries stay below 1e3 and its tolerance, scaled by the
    largest entry, stays tight."""
    interp = standard_interp(sig, tag, make_rng(seed), dims=LAYOUT_DIMS)
    if tag is not COMPLEX:
        return interp
    halved = {name: MatrixMorphism._raw(tag, m.data / 2) for name, m in interp.gen_matrices.items()}
    return Interpretation(tag, interp.object_dims, halved, signature=sig)


def brickwork(width, depth=4):
    """Layers of two-wire gates u0, u1, ... on Q wires, every other layer shifted by one wire."""
    q, k, term = ObjectWord.of("Q"), 0, None
    for layer in range(depth):
        pieces, wire = [Id(q)] if layer % 2 else [], layer % 2
        while wire + 2 <= width:
            pieces.append(Gen(f"u{k}"))
            k, wire = k + 1, wire + 2
        if wire < width:
            pieces.append(Id(q))
        row = pieces[0]
        for p in pieces[1:]:
            row = Par(row, p)
        term = row if term is None else Seq(row, term)
    return term


def matcat_reference(term, interp):
    """term's matrix from matcat's compose and tensor, node by node."""
    tag = interp.tag
    if isinstance(term, Gen):
        return interp.gen_matrices[term.name]
    if isinstance(term, Id):
        return MatrixMorphism.identity(tag, interp.word_dim(term.word))
    if isinstance(term, Seq):
        return compose(matcat_reference(term.after, interp), matcat_reference(term.before, interp))
    if isinstance(term, Par):
        return tensor(matcat_reference(term.left, interp), matcat_reference(term.right, interp))
    if isinstance(term, Dagger):
        return dagger(matcat_reference(term.inner, interp))
    if isinstance(term, Swap):
        return swap_matrix(tag, interp.word_dim(term.left), interp.word_dim(term.right))
    d = interp.atom_dim(term.atom)
    column = MatrixMorphism(tag, [[int(i == j)] for i in range(d) for j in range(d)], shape=(d * d, 1))
    return column if isinstance(term, Cup) else dagger(column)


def _loop(atom):
    return Seq(Cap(atom), Cup(atom))


def _traced_h():
    """h : A x B -> B x A with its B output fed back to its B input: A -> A."""
    a, b = ObjectWord.of("A"), ObjectWord.of("B")
    feed = Seq(Par(Gen("h"), Id(b)), Par(Id(a), Cup("B")))
    return Seq(Par(Id(a), Cap("B")), Seq(Par(Swap(b, a), Id(b)), feed))


LAYOUT_CASES = {
    **{f"brickwork-{w}": brickwork(w) for w in range(4, 9)},
    "chain": Seq(Gen("g"), Gen("f")),
    "chain-reversed": Seq(Gen("f"), Gen("g")),
    "box-between-wires": Seq(Par(Id(ObjectWord.of("B")), Gen("f")), Seq(Gen("h"), Par(Gen("g"), Id(ObjectWord.of("B"))))),
    "repeated-labels": Par(Par(Id(ObjectWord.of("A")), Gen("f")), Id(ObjectWord.of("A"))),
    "repeated-labels-chain": Par(Par(Id(ObjectWord.of("A")), Seq(Gen("g"), Gen("f"))), Id(ObjectWord.of("B"))),
    "state": Seq(Gen("h"), Gen("s")),
    "effect": Seq(Gen("e"), Dagger(Gen("h"))),
    "closed": Seq(Gen("e"), Gen("s")),
    "closed-beside-loop": Par(Seq(Gen("e"), Seq(Dagger(Gen("h")), Seq(Gen("h"), Gen("s")))), _loop("B")),
    "dimension-0-wires": Seq(Gen("z"), Gen("z")),
    "dimension-0-sum": Seq(Gen("e0"), Gen("s0")),
    "dimension-0-loop": Par(Gen("f"), _loop("Z")),
    "disconnected": Par(Gen("f"), Gen("g")),
    "disconnected-chains": Par(Seq(Gen("g"), Gen("f")), Par(Gen("h"), Seq(Gen("f"), Gen("g")))),
    "chain-beside-loop": Par(_loop("A"), Seq(Gen("g"), Gen("f"))),
    "box-beside-loop": Par(Gen("h"), _loop("A")),
    "swapped-box-beside-loop": Par(Seq(Swap(ObjectWord.of("B"), ObjectWord.of("A")), Gen("h")), _loop("A")),
    "traced-box": Seq(Gen("f"), Seq(_traced_h(), Gen("g"))),
    "dimension-0-chain": Seq(Gen("z"), Seq(Gen("z"), Gen("z"))),
    "long-chain": Seq(Gen("g"), Seq(Gen("f"), Seq(Gen("g"), Seq(Gen("f"), Seq(Gen("g"), Gen("f")))))),
}
SEMIRINGS = pytest.mark.parametrize("tag", [COMPLEX, BOOL, NAT], ids=["complex", "bool", "nat"])


class TestResultLayout:
    """The engine's last step writes the result straight into boundary order."""

    @SEMIRINGS
    @pytest.mark.parametrize("name", list(LAYOUT_CASES))
    def test_entry_points_agree_with_matcat(self, name, tag):
        sig = layout_signature()
        interp = layout_interp(sig, tag, len(name))
        term = LAYOUT_CASES[name]
        want = matcat_reference(term, interp)
        got = interpret(term, interp), evaluate_graph(to_graph(term, sig), interp)
        for m in got:
            assert m.data.shape == want.data.shape and m == want
            assert m.data.dtype == tag.ops.dtype
        if tag is NAT:
            assert {type(v) for m in got for row in m.data.tolist() for v in row} <= {int}

    def test_cases_reach_every_branch(self, monkeypatch):
        seen = set()
        step, assemble = tqft_module._step, tqft_module._assemble

        def spy_step(x, y, shared, order, dims):
            if order is None:  # not a last step
                return step(x, y, shared, order, dims)
            free = order
            on_x = [z in x[1] for z in free]
            seen.add("no free label" if not free else "last slot on x" if on_x[-1] else "last slot on y")
            if free and len(set(on_x)) == 1:
                seen.add("one operand's labels all shared")
            runs = [[*run] for _, run in itertools.groupby(free, x[1].__contains__)]
            if len(runs) >= 3:
                seen.add("batch")
            # matmul's m is the widest run of the operand without the last slot
            other = [i for i in range(len(runs) - 2, -1, -2)]
            if other and max(other, key=lambda i: math.prod(dims[z] for z in runs[i])) != len(runs) - 2:
                seen.add("widest run apart from the last")
            if math.prod(dims[z] for z in shared) == 0:
                seen.add("empty sum")
            return step(x, y, shared, order, dims)

        def spy_assemble(parts, boundary, dims):
            factors = [fresh for _, labels, fresh in parts if labels]
            scalars = len(parts) - len(factors)
            seen.add("empty boundary" if not boundary else "one factor" if len(factors) == 1 else "factors")
            if scalars and len(factors) == 1:
                seen.add("scalar into a new array" if factors[0] else "scalar into a view")
            assert all(len(set(labels)) == len(labels) for _, labels, _ in parts)  # every wire has two ends
            return assemble(parts, boundary, dims)

        monkeypatch.setattr(tqft_module, "_step", spy_step)
        monkeypatch.setattr(tqft_module, "_assemble", spy_assemble)
        sig = layout_signature()
        for tag in (COMPLEX, BOOL, NAT):
            interp = layout_interp(sig, tag, 0)
            for term in LAYOUT_CASES.values():
                with fresh_plans():
                    interpret(term, interp)
                    evaluate_graph(to_graph(term, sig), interp)
        assert seen == {
            "no free label", "last slot on x", "last slot on y", "one operand's labels all shared", "batch",
            "widest run apart from the last", "empty sum", "empty boundary",
            "one factor", "factors", "scalar into a new array", "scalar into a view",
        }

    def test_cases_reach_every_pairwise_branch(self, monkeypatch):
        # every step but a part's last is one matmul; a trace is one too, with the identity
        # the planner adds for a label both of whose ends are on one tensor
        seen = set()
        step = tqft_module._step

        def spy_step(x, y, shared, order, dims):
            if order is not None:  # a last step
                return step(x, y, shared, order, dims)
            (_, x_labels, _, _), (_, y_labels, _, _) = x, y
            x_free, y_free = [z for z in x_labels if z not in shared], [z for z in y_labels if z not in shared]
            seen.add("x transposed" if x_free + shared != x_labels else "x in order")
            seen.add("y transposed" if shared + y_free != y_labels else "y in order")
            if not x_free or not y_free:
                seen.add("an operand with no free label")
            if math.prod(dims[z] for z in shared) == 0:
                seen.add("empty sum")
            return step(x, y, shared, order, dims)

        monkeypatch.setattr(tqft_module, "_step", spy_step)
        sig = layout_signature()
        for tag in (COMPLEX, BOOL, NAT):
            interp = layout_interp(sig, tag, 0)
            for term in LAYOUT_CASES.values():
                graph = to_graph(term, sig)
                with fresh_plans():
                    interpret(term, interp)
                    evaluate_graph(graph, interp)
        assert seen == {
            "x transposed", "x in order", "y transposed", "y in order", "an operand with no free label", "empty sum",
        }

    @SEMIRINGS
    @pytest.mark.parametrize("name", ["long-chain", "brickwork-6", "brickwork-8"])
    def test_three_or_more_pairwise_steps_agree_with_matcat(self, name, tag, monkeypatch):
        steps = []
        step = tqft_module._step
        monkeypatch.setattr(tqft_module, "_step", lambda *args: steps.append(args[3] is None) or step(*args))
        sig = layout_signature()
        interp = layout_interp(sig, tag, 3)
        term = LAYOUT_CASES[name]
        want = matcat_reference(term, interp)
        for run in (lambda: interpret(term, interp), lambda: evaluate_graph(to_graph(term, sig), interp)):
            steps.clear()
            with fresh_plans():
                got = run()
            assert sum(steps) >= 3
            assert got.data.shape == want.data.shape and got.data.dtype == tag.ops.dtype and got == want

    def test_width_8_brickwork_with_large_entries_equals_its_reference(self):
        # unhalved gates give entries past 1e6, whose rounding alone exceeds an absolute 1e-9
        sig = layout_signature()
        interp = standard_interp(sig, COMPLEX, make_rng(8), dims=LAYOUT_DIMS)
        term = brickwork(8)
        want = matcat_reference(term, interp)
        assert np.abs(want.data).max() > 1e6
        for got in (interpret(term, interp), evaluate_graph(to_graph(term, sig), interp)):
            assert max_deviation(got, want) > COMPLEX.tolerance
            assert got == want

    @pytest.mark.parametrize("entry", ["interpret", "evaluate_graph"])
    def test_width_8_brickwork_allocates_little_beyond_its_result(self, entry):
        # tracemalloc counts the bytes numpy asks for, so this holds whatever the allocator
        sig = layout_signature()
        interp = layout_interp(sig, COMPLEX, 8)
        term = brickwork(8)
        graph = to_graph(term, sig)
        run = (lambda: interpret(term, interp)) if entry == "interpret" else (lambda: evaluate_graph(graph, interp))
        run()  # anything built once and kept is not the contraction's
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            result = run()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert result.data.shape == (256, 256)
        assert peak < 1.5 * result.data.nbytes


def _exact(m):
    """m's shape and entries, exactly: raw bytes, or Python ints with their types."""
    if m.data.dtype == object:
        return m.data.shape, [(type(v), v) for v in m.data.ravel().tolist()]
    return m.data.shape, m.data.dtype, m.data.tobytes()


def _relation_chain(tag, length):
    """A chain r0 >> r1 >> ... of length random 3x3 boxes over tag, and its interpretation."""
    sig, r, rng = Signature(), ObjectWord.of("R"), make_rng(length)
    sig.declare_object("R")
    term, matrices = None, {}
    for k in range(length):
        sig.declare_generator(f"r{k}", r, r)
        matrices[f"r{k}"] = random_matrix(tag, 3, 3, rng)
        term = Gen(f"r{k}") if term is None else Seq(term, Gen(f"r{k}"))
    return term, Interpretation(tag, {"R": 3}, matrices, signature=sig)


def _plan_cases(tag):
    """(name, call) pairs, each call one contraction over tag: brickworks of widths
    2-8 and the other layout cases, copy networks and relation chains."""
    sig = layout_signature()
    interp, cases = layout_interp(sig, tag, 5), []
    for name, term in [("brickwork-2", brickwork(2)), ("brickwork-3", brickwork(3)), *LAYOUT_CASES.items()]:
        cases += [(name, functools.partial(interpret, term, interp))]
        cases += [(f"{name}-graph", functools.partial(evaluate_graph, to_graph(term, sig), interp))]
    for seed in range(8):
        rng = make_rng(seed)
        term, copies = random_cob_term(rng, rng.randrange(3)), cob_interp(basis_frobenius(2 + seed % 2, tag))
        cases += [(f"copies-{seed}", functools.partial(interpret, term, copies))]
        cases += [(f"copies-{seed}-graph", functools.partial(evaluate_graph, to_graph(term, ZSIG), copies))]
    for length in (2, 5, 16):
        cases += [(f"chain-{length}", functools.partial(interpret, *_relation_chain(tag, length)))]
    return cases


# evaluate_graph on a closed random 3-regular graph of 120 spiders under orth-3,
# basis_frobenius(3) conjugated by a real orthogonal matrix; prints the MemoryError
ORTH3_GRAPH = """
import random
import numpy as np
from catkit import COMPLEX, Interpretation, MatrixMorphism
from catkit.diagram import OpenGraph, SpiderNode
from catkit.presentations import basis_frobenius, conjugate_presentation
from catkit.tqft import evaluate_graph
legs = [("n", i, port) for i in range(120) for port in range(3)]
random.Random(0).shuffle(legs)
graph = OpenGraph(tuple(SpiderNode("Z", 3) for _ in range(120)), tuple(zip(legs[::2], legs[1::2])), (), ())
q = np.linalg.qr(np.random.default_rng(0).normal(size=(3, 3)))[0]
f, f_inv = MatrixMorphism(COMPLEX, q.tolist()), MatrixMorphism(COMPLEX, q.T.tolist())
orth = conjugate_presentation(basis_frobenius(3, COMPLEX), f, f_inv)
try:
    evaluate_graph(graph, Interpretation(COMPLEX, {"Z": 3}, frobenius_data={"Z": orth}))
except MemoryError as exc:
    print(exc)
"""


class TestPlans:
    """A contraction plan depends on the network's shape alone, is cached, and
    knows its largest array before any array exists."""

    @SEMIRINGS
    def test_a_cached_plan_gives_the_cold_result_bit_for_bit(self, tag):
        planned, cases = 0, _plan_cases(tag)
        for name, run in cases:
            with fresh_plans():
                cold = _exact(run())
                misses = tqft_module._plan.cache_info().misses
                warm = _exact(run())
                assert tqft_module._plan.cache_info()[:2] == (misses, misses), name  # hits, misses
            assert warm == cold, name
            planned += misses
        assert planned == len(cases)  # copy labels reach the shortcut unmerged, so every case here is planned

    @pytest.mark.parametrize("tag", [COMPLEX, NAT], ids=["complex", "nat"])
    def test_one_shape_with_other_arrays_gives_its_own_matrix(self, tag):
        sig, term = layout_signature(), brickwork(4)
        first, second = layout_interp(sig, tag, 1), layout_interp(sig, tag, 2)
        wider = standard_interp(sig, tag, make_rng(3), dims={**LAYOUT_DIMS, "Q": 3})  # another shape
        with fresh_plans():
            a, b = interpret(term, first), interpret(term, second)
            assert tqft_module._plan.cache_info()[:2] == (1, 1)  # hits, misses
            c = interpret(term, wider)
            assert tqft_module._plan.cache_info()[:2] == (1, 2)
        assert a == matcat_reference(term, first) and b == matcat_reference(term, second) and a != b
        assert c == matcat_reference(term, wider)

    def test_the_cache_keeps_at_most_its_size(self):
        with fresh_plans():
            for d in range(2 * tqft_module.PLANS):  # one box on two wires, a new dimension each time
                tqft_module._plan((((0, 1),), (0, 1), ((0, 2), (1, d))))
            info = tqft_module._plan.cache_info()
            assert info.misses == 2 * info.maxsize and info.maxsize == tqft_module.PLANS >= info.currsize

    def test_plans_hold_only_ints_and_tuples(self, monkeypatch):
        plans, run = [], tqft_module._run
        monkeypatch.setattr(tqft_module, "_run", lambda plan, *args: plans.append(plan) or run(plan, *args))
        with fresh_plans():
            for _, case in _plan_cases(NAT):
                case()
        todo, kinds = list(plans), set()
        while todo:
            item = todo.pop()
            if type(item) is tuple:
                todo += item
            kinds.add(type(item))
        assert len(plans) > 40 and kinds == {tuple, int, bool}

    def test_the_budget_admits_a_12_qubit_result_and_refuses_a_15_qubit_one(self):
        # the identity on n qubit wires: every wire an identity between two boundary slots
        def identity(n):
            return (), tuple(range(n)) * 2, tuple((x, 2) for x in range(n))

        with fresh_plans():
            assert tqft_module._plan(identity(12))[1] == ((2, 2),) * 12  # identities, then a 2^24-entry result
            with pytest.raises(MemoryError, match=f"needs a {2**30}-entry array, over the {2**28}-entry budget"):
                tqft_module._plan(identity(15))

    @SEMIRINGS
    @pytest.mark.parametrize("d", [0, 3, 20000])
    def test_a_bare_loop_is_the_scalar_d_with_no_array(self, tag, d):
        interp, loop = Interpretation(tag, {"Z": d}, signature=ZSIG), Seq(Cap("Z"), Cup("Z"))
        # the value the identity register's trace gave, before loops were scalar factors
        expected = _exact(MatrixMorphism._raw(tag, np.array([[d]], tag.ops.dtype)))
        tracemalloc.start()
        try:
            results = [interpret(loop, interp), evaluate_graph(to_graph(loop, ZSIG), interp)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [_exact(m) for m in results] == [expected] * 2 and peak < 2**20
        assert results[0].data[0, 0] == {"complex": d, "nat": d, "bool": d > 0}[tag.kind]
        with fresh_plans():
            assert tqft_module._plan(((), (), ((0, d),)))[1] == ((d, 0),)  # no identity, one loop factor: order 0

    def test_the_budget_counts_the_copy_tensors_the_planner_adds(self):
        # a label on three one-label tensors is tied by one order-3 copy tensor of 700^3 entries;
        # the result is a scalar
        refused = f"needs a {700**3}-entry array, over the {2**28}-entry budget"
        with fresh_plans(), pytest.raises(MemoryError, match=refused):
            tqft_module._plan((((0,), (0,), (0,)), (), ((0, 700),)))

    def test_an_oversized_plan_is_refused_before_any_array_exists(self):
        # the greedy plan for this graph asks for a 17.3 GiB intermediate, and more later;
        # the child's 3 GiB cap makes a regression fail there instead of exhausting the machine
        proc = run_capped(ORTH3_GRAPH)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == f"contraction plan needs a {3**22}-entry array, over the {2**28}-entry budget\n"


def _random_shape(rng):
    """A raw network shape, as contract hands it to _plan: up to 52 labels (einsum's letters),
    about nine of them of dimension 0, 2 or 3 and the rest of dimension 1, each with 0 to 5
    ends, some twice on one tensor, and at most 45 ends in all; a label on the boundary is there
    once and also on a tensor.  Each tensor, and the product of all dimensions, stays small, so
    einsum's one plain loop over them is quick."""
    while True:
        n_tensors = rng.randint(1, 12)
        n_labels = rng.randint(1, min(52, 4 * n_tensors + 4))
        dims = [rng.choice([0, 2, 2, 3, 3]) if rng.random() < 9 / n_labels else 1 for _ in range(n_labels)]
        tensors, boundary = [[] for _ in range(n_tensors)], []
        for x in range(n_labels):
            n_ends = rng.randint(0, 5)
            if n_ends > 1 and rng.random() < 0.4:
                boundary.append(x)
                n_ends -= 1
            for _ in range(n_ends):
                tensors[rng.randrange(n_tensors)].append(x)
        # a label with n ends becomes at most 1.4n wires (2n - 3 for n > 2), so 45 ends keep every array within
        # numpy's 64 axes
        sizes = [math.prod(dims[x] or 1 for x in labels) for labels in tensors + [range(n_labels)]]
        if max(sizes) <= 20000 and sum(map(len, tensors)) + len(boundary) <= 45:
            break
    for labels in tensors:
        rng.shuffle(labels)
    rng.shuffle(boundary)
    return (tuple(map(tuple, tensors)), tuple(boundary), tuple(enumerate(dims)))


def _einsum(shape, arrays, dtype):
    """The network's value with a label held any number of times as one summed index, and a
    label held nowhere as the scalar d: np.einsum, which knows nothing of the planner."""
    tensors, boundary, dims = shape
    letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
    inputs = ",".join("".join(letters[x] for x in labels) for labels in tensors)
    result = np.einsum(inputs + "->" + "".join(letters[x] for x in boundary), *arrays)
    for x, d in dims:
        if all(x not in labels for labels in tensors):
            result = result * np.asarray(d, dtype)
    return np.asarray(result, dtype)


class TestTwoEnds:
    """_plan ties every label into a wire with two ends: copy-spider wires, bare wires, traces
    and loops all come out as np.einsum and the identity and swap matrices say."""

    @SEMIRINGS
    def test_random_shapes_agree_with_einsum(self, tag):
        rng, dtype = make_rng(35), tag.ops.dtype
        for _ in range(150):
            shape = _random_shape(rng)
            dims = dict(shape[2])
            arrays = [random_matrix(tag, 1, math.prod(axes), rng).data.reshape(axes)
                      for axes in [[dims[x] for x in labels] for labels in shape[0]]]
            with fresh_plans():
                got = tqft_module._run(tqft_module._plan(shape), arrays, dtype)
            want = _einsum(shape, arrays, dtype)
            assert got.shape == want.shape and got.dtype == want.dtype, shape
            if tag.exact:
                assert got.tolist() == want.tolist() and {type(v) for v in got.ravel().tolist()} <= {bool, int}, shape
            else:
                assert np.allclose(got, want, rtol=1e-12, atol=1e-12), shape

    @SEMIRINGS
    @pytest.mark.parametrize("d", [0, 1, 2, 3])
    def test_bare_wires_are_identities_and_swaps(self, tag, d):
        # einsum has no bare wire, a label twice on the boundary, nor a label on the boundary alone
        interp = cob_interp(basis_frobenius(d, tag))
        identity, swap = MatrixMorphism.identity(tag, d), swap_matrix(tag, d, d)
        ones = MatrixMorphism._raw(tag, np.ones((1, d), tag.ops.dtype))
        cases = [(Id(Z), identity), (Spider("Z", 1, 1), identity), (Swap(Z, Z), swap),
                 (Par(Id(Z), Id(Z)), tensor(identity, identity)), (Seq(Swap(Z, Z), Par(Spider("Z", 1, 1), Id(Z))), swap),
                 (Par(Spider("Z", 1, 0), Id(Z)), tensor(ones, identity))]
        for term, want in cases:
            got = interpret(term, interp)
            assert _exact(got) == _exact(want), term

    def test_contracting_a_network_twice_gives_the_same_matrix(self):
        # a copy wire with three ends, one on f, beside a trace of f: contract leaves the network as it was
        sig = cob_signature("Z")
        sig.declare_generator("f", Z, Z)
        term = Par(Seq(Par(Gen("f"), Spider("Z", 2, 1)), Spider("Z", 1, 3)), Seq(Cap("Z"), Seq(Par(Gen("f"), Id(Z)), Cup("Z"))))
        interp = Interpretation(NAT, {"Z": 2}, {"f": MatrixMorphism(NAT, [[1, 2], [3, 4]])}, {"Z": basis_frobenius(2, NAT)}, sig)
        wiring, nodes, ports, inputs, ins, outs, _, _ = tqft_module.walk_nodes(term, sig)
        net = tqft_module._network(interp, wiring.values, wiring.parent, nodes, ports, inputs)
        before = [labels[:] for _, labels in net.tensors], len(net.values), outs[:], ins[:]
        first, second = net.contract(NAT, outs, ins), net.contract(NAT, outs, ins)
        assert _exact(first) == _exact(second) and first.data.tolist() == [[5, 0], [0, 10], [15, 0], [0, 20]]
        assert ([labels for _, labels in net.tensors], len(net.values), outs, ins) == before


class TestCountedWork:
    """Line events in catkit's frames, counted on cold plans, grow linearly with a term's size."""

    @staticmethod
    def counts(f, sizes):
        counts = []
        for n in sizes:
            with fresh_plans():
                counts.append(line_events(f, n)[1])
        return counts

    def test_a_nat_box_chain(self):
        sig, n_word = Signature(), ObjectWord.of("N")
        sig.declare_generator("f", n_word, n_word)
        interp = Interpretation(NAT, {"N": 2}, {"f": MatrixMorphism(NAT, [[1, 1], [0, 1]])}, signature=sig)

        def chain(n):
            return functools.reduce(Seq, [Gen("f")] * n)

        def check(m, n):
            assert m.data.tolist() == [[1, n], [0, 1]]

        for f in (lambda n: check(interpret(chain(n), interp), n),
                  lambda n: check(evaluate_graph(to_graph(chain(n), sig), interp), n)):
            a, b, c = self.counts(f, (250, 500, 1000))
            assert b <= 2.3 * a and c <= 2.3 * b, (a, b, c)

    def test_closed_surfaces_under_xor_over_nat(self):
        p = xor_frobenius(NAT)
        assert p.verification.ok  # verified before counting

        def surface(g):
            assert evaluate_cob(closed_surface(g), p).data.tolist() == [[2**g]]

        a, b, c = self.counts(surface, (250, 500, 1000))
        assert b <= 2.3 * a and c <= 2.3 * b, (a, b, c)

    @pytest.mark.xfail(strict=True, raises=MemoryError,
                       reason="ROADMAP items 4 and 10: the greedy plan for these 40 spiders needs a 3^8-entry array")
    def test_orth3_random_regular_graph_within_a_small_budget(self, monkeypatch):
        # orth-3: basis_frobenius(3) conjugated by a real orthogonal matrix, commutative with the identity pairing
        q = np.linalg.qr(np.random.default_rng(0).normal(size=(3, 3)))[0]
        orth = conjugate_presentation(basis_frobenius(3, COMPLEX), MatrixMorphism(COMPLEX, q.tolist()),
                                      MatrixMorphism(COMPLEX, q.T.tolist()))
        interp = Interpretation(COMPLEX, {"Z": 3}, frobenius_data={"Z": orth})
        monkeypatch.setattr(tqft_module, "BUDGET", 3**5)
        with fresh_plans():
            assert evaluate_graph(random_regular(40, 0), interp) == MatrixMorphism(COMPLEX, [[3]])
