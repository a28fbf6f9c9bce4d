"""Interpretations: frozen presentation oracles, functor laws, graph contraction."""

import dataclasses
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
    to_graph,
    typecheck,
)
from catkit.frobenius import cob_signature, delta, eps, eq_cob, mu, unit
from catkit.lawcheck import flip_entry
from catkit.matcat import MatrixMorphism, ShapeMismatch, compose, dagger, max_deviation, swap_matrix, tensor
from catkit import presentations
from catkit import tqft as tqft_module
from catkit.scalars import BOOL, COMPLEX, NAT
from catkit.tqft import (
    FrobeniusPresentation,
    Interpretation,
    basis_frobenius,
    check_frobenius_morphism,
    conjugate_presentation,
    evaluate_cob,
    evaluate_graph,
    hopf_group_z2,
    interpret,
    interpretation_from_data,
    spider_matrix,
    verify_frobenius,
    xor_frobenius,
)

from corpus import closed_surface, make_rng, random_cob_term, random_term, rewrite_randomly, standard_signature
from helpers import random_matrix

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
        claimed = dataclasses.replace(x, special=True)
        report = verify_frobenius(claimed)
        assert not report.entry("speciality").passed
        assert report.entry("speciality").deviation == pytest.approx(1.0)

    def test_nan_in_one_pair_fails_its_law(self):
        # the nan in mu reaches only the second commutativity equation; the first is exact
        p = basis_frobenius(2, COMPLEX)
        mu = cmat([[1, 0, 0, 0], [0, 0, 0, float("nan")]])
        entry = verify_frobenius(dataclasses.replace(p, mu=mu)).entry("commutativity")
        assert not entry.passed
        assert np.isnan(entry.deviation)

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
                commutative=p.commutative,
                special=p.special,
                dagger=p.dagger,
            )
            assert verify_frobenius(back).ok
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

    def test_pairing_is_measured_once_per_presentation(self, monkeypatch):
        p = basis_frobenius(2, COMPLEX)
        assert p.pairing_deviation == 0.0
        assert _random_conjugated_basis(2, make_rng(3)).pairing_deviation > 1e-3
        interp = cob_interp(p)
        g = to_graph(Seq(Spider("Z", 1, 0), Seq(Spider("Z", 2, 1), Seq(Spider("Z", 1, 2), Spider("Z", 0, 1)))), ZSIG)

        def boom(*args):
            raise AssertionError("evaluate_graph measured the pairing again")

        # the presentation measures its pairing where it is defined
        monkeypatch.setattr(presentations, "compose", boom)
        monkeypatch.setattr(presentations, "max_deviation", boom)
        assert evaluate_graph(g, interp) == cmat([[2]])

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
        presentations += [_random_conjugated_basis(d, make_rng(d)) for d in (2, 3)]
        seen = set()
        flags = [("commutative", "commutativity"), ("special", "speciality"), ("dagger", "dagger-structure")]
        for p in presentations:
            explicit = {"delta": p.delta.tolist(), "eps": p.eps.tolist(), "mu": p.mu.tolist(), "e": p.unit_e.tolist()}
            data = {"semiring": p.tag.kind, "objects": {"Z": p.dim}, "frobenius": {"Z": explicit}}
            q = interpretation_from_data(data).frobenius_data["Z"]
            report = verify_frobenius(dataclasses.replace(p, commutative=True, special=True, dagger=True))
            for flag, law in flags:
                assert getattr(q, flag) == report.entry(law).passed, (p, flag)
                seen.add(getattr(q, flag))
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

    def test_tolerance_override_applies_to_complex(self):
        data = {"semiring": "complex", "objects": {"A": 1}}
        interp = interpretation_from_data(data, tolerance=1e-3)
        assert interp.tag.tolerance == 1e-3


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
        last_step, assemble = tqft_module._last_step, tqft_module._assemble

        def spy_last_step(x, y, shared, slot, dims):
            free = sorted({*x[1], *y[1]}.difference(shared), key=slot.__getitem__)
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
            return last_step(x, y, shared, slot, dims)

        def spy_assemble(dtype, parts, boundary):
            factors = [fresh for _, labels, fresh in parts if labels]
            scalars = len(parts) - len(factors)
            seen.add("empty boundary" if not boundary else "one factor" if len(factors) == 1 else "factors")
            if scalars and len(factors) == 1:
                seen.add("scalar into a new array" if factors[0] else "scalar into a view")
            if any(len(set(labels)) < len(labels) for _, labels, _ in parts):
                seen.add("repeated label")
            return assemble(dtype, parts, boundary)

        monkeypatch.setattr(tqft_module, "_last_step", spy_last_step)
        monkeypatch.setattr(tqft_module, "_assemble", spy_assemble)
        sig = layout_signature()
        for tag in (COMPLEX, BOOL, NAT):
            interp = layout_interp(sig, tag, 0)
            for term in LAYOUT_CASES.values():
                interpret(term, interp)
                evaluate_graph(to_graph(term, sig), interp)
        assert seen == {
            "no free label", "last slot on x", "last slot on y", "one operand's labels all shared", "batch",
            "widest run apart from the last", "empty sum", "empty boundary",
            "one factor", "factors", "scalar into a new array", "scalar into a view", "repeated label",
        }

    def test_cases_reach_every_pairwise_branch(self, monkeypatch):
        # every step but a part's last is one matmul, and tensordot only traces a label
        # both of whose ends are on one tensor; no product repeats a label, since each
        # wire has two ends, so the trace is reached as a tensor is first added
        seen = set()
        pair, tensordot = tqft_module._pair, np.tensordot

        def spy_pair(x, y):
            (x_arr, x_labels, _), (_, y_labels, y_set) = x, y
            shared = [z for z in x_labels if z in y_set]
            x_free, y_free = [z for z in x_labels if z not in shared], [z for z in y_labels if z not in shared]
            seen.add("x transposed" if x_free + shared != x_labels else "x in order")
            seen.add("y transposed" if shared + y_free != y_labels else "y in order")
            if not x_free or not y_free:
                seen.add("an operand with no free label")
            if math.prod(x_arr.shape[x_labels.index(z)] for z in shared) == 0:
                seen.add("empty sum")
            return pair(x, y)

        def spy_tensordot(a, b, axes):
            assert b.shape == (len(b),) * 2 and (b == np.eye(len(b), dtype=b.dtype)).all() and axes[1] == (0, 1)
            seen.add("repeated label traced")
            return tensordot(a, b, axes)

        monkeypatch.setattr(tqft_module, "_pair", spy_pair)
        sig = layout_signature()
        for tag in (COMPLEX, BOOL, NAT):
            interp = layout_interp(sig, tag, 0)
            for term in LAYOUT_CASES.values():
                graph = to_graph(term, sig)
                with monkeypatch.context() as m:
                    m.setattr(np, "tensordot", spy_tensordot)
                    interpret(term, interp)
                    evaluate_graph(graph, interp)
        assert seen == {
            "x transposed", "x in order", "y transposed", "y in order", "an operand with no free label", "empty sum",
            "repeated label traced",
        }

    @SEMIRINGS
    @pytest.mark.parametrize("name", ["long-chain", "brickwork-6", "brickwork-8"])
    def test_three_or_more_pairwise_steps_agree_with_matcat(self, name, tag, monkeypatch):
        steps = []
        pair = tqft_module._pair
        monkeypatch.setattr(tqft_module, "_pair", lambda x, y: steps.append(1) or pair(x, y))
        sig = layout_signature()
        interp = layout_interp(sig, tag, 3)
        term = LAYOUT_CASES[name]
        want = matcat_reference(term, interp)
        for run in (lambda: interpret(term, interp), lambda: evaluate_graph(to_graph(term, sig), interp)):
            steps.clear()
            got = run()
            assert len(steps) >= 3
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
