"""Law battery: coherence, naturality, scalars, compact closure, Hopf, negatives."""

import math
import types

import numpy as np
import pytest

from catkit import lawcheck
from catkit.lawcheck import (
    LAW_MANIFEST,
    LawEntry,
    LawReport,
    assert_expected,
    check_coherence,
    check_compact_structure,
    check_hopf_bialgebra,
    check_naturality_squares,
    check_scalar_laws,
    law_report,
    merge_reports,
    negative_suite,
    random_matrix,
)
from catkit.matcat import MatrixMorphism, ShapeMismatch, dagger, swap_matrix, unit_eta
from catkit.scalars import BOOL, COMPLEX, NAT
from catkit.presentations import basis_frobenius, hopf_group_z2, verify_frobenius

from helpers import ALL_TAGS, flip_entry


def plain_interp(tag=COMPLEX, dims=None):
    # the naturality checker only needs a tag and an object-to-dimension map
    return types.SimpleNamespace(tag=tag, object_dims=dims or {"A": 2, "B": 3})


# Mutants for monkeypatching into lawcheck: each breaks one structure map the
# batteries build, so a test can show the battery notices.
def transposed_swap(tag, a, b):
    return dagger(swap_matrix(tag, a, b))


def swap_flipped_at(a, b, i, j):
    """swap_matrix with entry (i, j) of the (a, b) symmetry toggled."""

    def swap(tag, x, y):
        m = swap_matrix(tag, x, y)
        return flip_entry(m, i, j) if (x, y) == (a, b) else m

    return swap


def eta_flipped_at(n, i):
    """unit_eta with entry i of the dimension-n cup toggled."""

    def eta(tag, k):
        m = unit_eta(tag, k)
        return flip_entry(m, i, 0) if k == n else m

    return eta


class TestCoherence:
    @pytest.mark.parametrize("tag", ALL_TAGS, ids=[t.kind for t in ALL_TAGS])
    def test_all_semirings_pass(self, tag):
        report = check_coherence(tag)
        assert report.ok

    def test_entry_names(self):
        names = check_coherence(COMPLEX).names()
        assert names == [
            "pentagon",
            "triangle",
            "unit-scalar-equality",
            "symmetry-inverse",
            "symmetry-unit",
            "hexagon",
        ]

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            check_coherence(COMPLEX, max_dim=6)

    def test_small_cap_still_passes(self):
        assert check_coherence(BOOL, max_dim=2).ok

    def test_each_structural_matrix_is_built_once(self, monkeypatch):
        sizes, pairs = [], []
        identity, swap = MatrixMorphism.identity, lawcheck.swap_matrix

        def counted_identity(tag, n):
            sizes.append(n)
            return identity(tag, n)

        def counted_swap(tag, a, b):
            pairs.append((a, b))
            return swap(tag, a, b)

        monkeypatch.setattr(MatrixMorphism, "identity", staticmethod(counted_identity))
        monkeypatch.setattr(lawcheck, "swap_matrix", counted_swap)
        assert check_coherence(COMPLEX).ok
        assert sizes and len(sizes) == len(set(sizes))
        assert pairs and len(pairs) == len(set(pairs))

    def test_no_matrix_outlives_its_call(self, monkeypatch):
        # a complex battery first, then every matrix of a bool battery is bool
        seen = []

        def spy(anchor, tol, laws, seed=None):
            seen.extend(m for _, pairs in laws for _, lhs, rhs in pairs for m in (lhs, rhs))
            return law_report(anchor, tol, laws, seed)

        assert check_coherence(COMPLEX).ok
        monkeypatch.setattr(lawcheck, "law_report", spy)
        assert check_coherence(BOOL).ok
        assert seen and all(m.tag == BOOL and m.data.dtype == np.bool_ for m in seen)

    def test_mutants_still_fail_after_a_clean_battery(self, monkeypatch):
        for tag in ALL_TAGS:
            assert check_coherence(tag).ok
            assert check_naturality_squares(plain_interp(tag)).ok
            assert check_compact_structure(tag).ok
        with monkeypatch.context() as m:
            m.setattr(lawcheck, "swap_matrix", swap_flipped_at(2, 3, 0, 1))
            assert not check_naturality_squares(plain_interp()).entry("symmetry-naturality").passed
            m.setattr(lawcheck, "swap_matrix", transposed_swap)
            assert not check_naturality_squares(plain_interp()).entry("symmetry-naturality").passed
            m.setattr(lawcheck, "unit_eta", eta_flipped_at(3, 1))
            assert not check_compact_structure(COMPLEX).entry("snake-right").passed
        assert check_coherence(COMPLEX).ok


class TestNaturality:
    def test_passes_for_honest_interpretation(self):
        report = check_naturality_squares(plain_interp())
        assert report.ok
        assert set(report.names()) == {
            "symmetry-naturality",
            "associativity-naturality",
            "left-unit-naturality",
            "right-unit-naturality",
        }

    def test_default_dimension_pool(self):
        assert check_naturality_squares(plain_interp(dims={})).ok

    def test_transposed_symmetry_is_caught(self, monkeypatch):
        monkeypatch.setattr(lawcheck, "swap_matrix", transposed_swap)
        report = check_naturality_squares(plain_interp())
        assert not report.ok
        bad = report.entry("symmetry-naturality")
        assert not bad.passed and bad.witness

    def test_single_flipped_entry_is_caught(self, monkeypatch):
        monkeypatch.setattr(lawcheck, "swap_matrix", swap_flipped_at(2, 3, 0, 1))
        report = check_naturality_squares(plain_interp())
        assert not report.entry("symmetry-naturality").passed

    def test_flip_on_square_block_is_caught(self, monkeypatch):
        # equal dims make the swap symmetric, so this exercises a distinct case
        monkeypatch.setattr(lawcheck, "swap_matrix", swap_flipped_at(2, 2, 0, 1))
        report = check_naturality_squares(plain_interp())
        assert not report.entry("symmetry-naturality").passed


class TestScalarLaws:
    @pytest.mark.parametrize("tag", ALL_TAGS, ids=[t.kind for t in ALL_TAGS])
    def test_all_semirings_pass(self, tag):
        report = check_scalar_laws(tag, samples=120, seed=5)
        assert report.ok
        assert report.names() == [
            "scalar-commutativity",
            "scalar-compose-exchange",
            "scalar-tensor-exchange",
        ]

    def test_seed_recorded(self):
        assert check_scalar_laws(COMPLEX, seed=42).seed == 42


class TestCompactStructure:
    @pytest.mark.parametrize("tag", ALL_TAGS, ids=[t.kind for t in ALL_TAGS])
    def test_all_semirings_pass(self, tag):
        report = check_compact_structure(tag)
        assert report.ok
        assert report.names() == [
            "snake-right",
            "snake-left",
            "dagger-compactness",
            "circle-dimension",
        ]

    def test_flipped_bend_entry_is_caught(self, monkeypatch):
        monkeypatch.setattr(lawcheck, "unit_eta", eta_flipped_at(3, 1))
        report = check_compact_structure(COMPLEX)
        assert not report.ok
        assert not report.entry("snake-right").passed

    def test_flip_outside_diagonal_is_caught(self, monkeypatch):
        monkeypatch.setattr(lawcheck, "unit_eta", eta_flipped_at(2, 1))
        report = check_compact_structure(COMPLEX)
        assert not report.ok


class TestHopfBialgebra:
    def test_group_pairing_passes_everything(self):
        p, antipode = hopf_group_z2(COMPLEX)
        report = check_hopf_bialgebra(p, antipode)
        assert report.ok
        assert report.names() == [
            "hopf-left",
            "hopf-right",
            "bialgebra-mult-comult",
            "bialgebra-mult-counit",
            "bialgebra-unit-comult",
            "bialgebra-unit-counit",
        ]

    def test_basis_pairing_is_not_hopf(self):
        p = basis_frobenius(2, COMPLEX)
        report = check_hopf_bialgebra(p, MatrixMorphism.identity(COMPLEX, 2))
        failed = {e.name for e in report.entries if not e.passed}
        assert failed == {
            "hopf-left",
            "hopf-right",
            "bialgebra-mult-counit",
            "bialgebra-unit-comult",
            "bialgebra-unit-counit",
        }
        # copying twice and multiplying back is still comultiplicative
        assert report.entry("bialgebra-mult-comult").passed

    def test_unit_counit_witness_records_the_value(self):
        p = basis_frobenius(2, COMPLEX)
        report = check_hopf_bialgebra(p, MatrixMorphism.identity(COMPLEX, 2))
        entry = report.entry("bialgebra-unit-counit")
        assert "eps . e" in entry.witness

    def test_trivial_dimension_passes(self):
        p = basis_frobenius(1, COMPLEX)
        assert check_hopf_bialgebra(p, MatrixMorphism.identity(COMPLEX, 1)).ok

    def test_antipode_shape_checked(self):
        p = basis_frobenius(2, COMPLEX)
        with pytest.raises(ShapeMismatch):
            check_hopf_bialgebra(p, MatrixMorphism.identity(COMPLEX, 3))


class TestNegativeSuite:
    def test_all_counterexamples_fail_as_expected(self):
        report = negative_suite()
        assert report.ok
        assert report.names() == [
            "no-uniform-copying-complex",
            "no-uniform-copying-bool",
            "no-product-on-singleton-rel",
        ]
        for e in report.entries:
            assert e.expect_fail and not e.passed and e.as_expected

    def test_assert_expected_accepts_honest_report(self):
        assert_expected(negative_suite())

    def test_unexpected_pass_aborts(self):
        doctored = LawReport(
            entries=[
                LawEntry(
                    name="no-uniform-copying-complex",
                    anchor="no-cloning",
                    passed=True,
                    deviation=0.0,
                    expect_fail=True,
                )
            ]
        )
        with pytest.raises(RuntimeError, match="unexpectedly passed"):
            assert_expected(doctored)

    def test_ordinary_failure_aborts_too(self):
        doctored = LawReport(
            entries=[LawEntry(name="pentagon", anchor="coherence", passed=False, deviation=1.0)]
        )
        with pytest.raises(RuntimeError, match="pentagon failed"):
            assert_expected(doctored)


class TestReportMechanics:
    def test_as_expected_truth_table(self):
        mk = lambda passed, expect: LawEntry("x", "a", passed, 0.0, expect_fail=expect)
        assert mk(True, False).as_expected
        assert not mk(False, False).as_expected
        assert mk(False, True).as_expected
        assert not mk(True, True).as_expected

    def test_entry_lookup_and_missing_name(self):
        report = check_scalar_laws(BOOL)
        assert report.entry("scalar-commutativity").passed
        with pytest.raises(KeyError):
            report.entry("no-such-law")

    def test_render_statuses(self):
        report = LawReport(
            entries=[
                LawEntry("alpha", "a", True, 0.0),
                LawEntry("beta", "a", False, 0.5),
                LawEntry("gamma", "a", False, 1.0, expect_fail=True),
                LawEntry("delta", "a", True, 0.0, expect_fail=True),
            ],
            seed=9,
        )
        text = report.render()
        lines = text.splitlines()
        assert "pass" in lines[0]
        assert "FAIL" in lines[1]
        assert "fail (expected)" in lines[2]
        assert "FAIL (unexpected pass)" in lines[3]
        assert lines[-1] == "seed=9"

    def test_render_includes_witness(self):
        report = LawReport(entries=[LawEntry("a", "x", False, 1.0, witness="dims (2,3)")])
        assert "[dims (2,3)]" in report.render()

    def test_merge_sorts_by_name(self):
        merged = merge_reports([check_scalar_laws(BOOL), check_coherence(BOOL)])
        assert merged.names() == sorted(merged.names())
        assert merged.ok


def scalar_pairs(devs):
    """One (label, lhs, rhs) pair of 1x1 complex matrices per deviation, labelled p0, p1, ..."""
    zero = MatrixMorphism(COMPLEX, [[0]])
    return [("p%d" % k, MatrixMorphism(COMPLEX, [[d]]), zero) for k, d in enumerate(devs)]


class TestLawReport:
    @pytest.mark.parametrize("at", [0, 1, 2], ids=["first", "middle", "last"])
    def test_nan_fails_wherever_it_sits(self, at):
        devs = [0.5, 2.0]
        devs.insert(at, math.nan)
        (e,) = law_report("a", math.inf, [("law", scalar_pairs(devs))]).entries
        assert not e.passed
        assert math.isnan(e.deviation)
        assert e.witness == "p%d" % at

    def test_first_nan_is_the_witness(self):
        (e,) = law_report("a", 1.0, [("law", scalar_pairs([0.0, math.nan, 3.0, math.nan]))]).entries
        assert (e.passed, e.witness) == (False, "p1")

    def test_tie_goes_to_the_first_label(self):
        (e,) = law_report("a", 1.0, [("law", scalar_pairs([0.5, 2.0, 1.0, 2.0]))]).entries
        assert (e.passed, e.deviation, e.witness) == (False, 2.0, "p1")

    def test_exact_pairs_have_no_witness(self):
        (e,) = law_report("a", 0.0, [("law", scalar_pairs([0.0, 0.0, 0.0]))]).entries
        assert (e.passed, e.deviation, e.witness) == (True, 0.0, None)

    def test_deviation_at_the_tolerance_passes(self):
        laws = [("at", scalar_pairs([0.5])), ("over", scalar_pairs([0.25, 0.75]))]
        report = law_report("a", 0.5, laws, seed=4)
        assert [(e.name, e.anchor, e.passed, e.witness) for e in report.entries] == [
            ("at", "a", True, "p0"),
            ("over", "a", False, "p1"),
        ]
        assert report.seed == 4


class TestHelpers:
    def test_flip_entry_toggles_and_copies(self):
        m = MatrixMorphism.zeros(COMPLEX, 2, 2)
        flipped = flip_entry(m, 0, 1)
        assert flipped.entry(0, 1).value == 1
        assert m.entry(0, 1).value == 0
        assert flip_entry(flipped, 0, 1).entry(0, 1).value == 0

    @pytest.mark.parametrize("tag", ALL_TAGS, ids=[t.kind for t in ALL_TAGS])
    def test_random_matrix_matches_the_per_entry_constructor(self, tag):
        import random

        for rows, cols in [(3, 4), (1, 1), (0, 2), (2, 0)]:
            rng, ref_rng = random.Random(5), random.Random(5)
            m = random_matrix(tag, rows, cols, rng)
            draw = tag.ops.draw
            want = MatrixMorphism(tag, [[draw(ref_rng) for _ in range(cols)] for _ in range(rows)], shape=(rows, cols))
            assert m.data.dtype == want.data.dtype and m.data.shape == want.data.shape
            assert m.data.tolist() == want.data.tolist()
            assert [type(v) for v in m.data.ravel()] == [type(v) for v in want.data.ravel()]
            assert rng.getstate() == ref_rng.getstate()

    @pytest.mark.parametrize("tag", ALL_TAGS, ids=[t.kind for t in ALL_TAGS])
    def test_random_matrix_shape_and_tag(self, tag):
        import random

        m = random_matrix(tag, 3, 4, random.Random(0))
        assert (m.rows, m.cols) == (3, 4)
        assert m.tag.kind == tag.kind


class TestManifest:
    def test_every_law_is_listed_once(self):
        names = [name for name, _ in LAW_MANIFEST]
        assert len(names) == len(set(names)) == 47

    def test_live_reports_are_covered(self):
        listed = {name for name, _ in LAW_MANIFEST}
        p, antipode = hopf_group_z2(COMPLEX)
        live = merge_reports(
            [
                check_coherence(COMPLEX),
                check_naturality_squares(plain_interp()),
                check_scalar_laws(COMPLEX),
                check_compact_structure(COMPLEX),
                check_hopf_bialgebra(p, antipode),
                verify_frobenius(basis_frobenius(2, COMPLEX)),
                negative_suite(),
            ]
        )
        assert set(live.names()) <= listed

    def test_every_locus_is_nonempty(self):
        assert all(locus for _, locus in LAW_MANIFEST)
