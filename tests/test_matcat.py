"""Matrix category: frozen oracles and algebraic invariants."""

import math
import random

import numpy as np
import pytest

from catkit import matcat, scalars
from catkit.matcat import (
    BlockIndex,
    MatrixMorphism,
    ShapeMismatch,
    add,
    block,
    circle,
    codiag_biprod,
    compose,
    copair,
    counit_eps,
    dagger,
    diag_biprod,
    direct_sum,
    distributor,
    from_blocks,
    injection,
    max_deviation,
    pair,
    projection,
    projector_spectrum,
    scalar_multiple,
    swap_matrix,
    tensor,
    unit_eta,
)
from catkit.scalars import BOOL, COMPLEX, NAT, ScalarValue

from helpers import ALL_TAGS, random_matrix, swap_built_unitary


def bmat(rows):
    return MatrixMorphism(BOOL, rows)


def cmat(rows):
    return MatrixMorphism(COMPLEX, rows)


# The three relations of the worked Boolean example.
R = [[1, 1], [1, 0]]
R_PRIME = [[1, 0], [1, 1], [0, 1]]
R_SECOND = [[0, 1], [0, 1]]


class TestBooleanCalculus:
    def test_relational_composition(self):
        got = compose(bmat(R_PRIME), bmat(R))
        assert got == bmat([[1, 1], [1, 1], [1, 0]])

    def test_relational_sum(self):
        assert add(bmat(R), bmat(R_SECOND)) == bmat([[1, 1], [1, 1]])

    def test_converse_is_transpose(self):
        assert dagger(bmat(R_PRIME)) == bmat([[1, 1, 0], [0, 1, 1]])

    def test_numpy_payloads(self):
        # numpy 2 gives np.True_ no __index__; booleans and naturals still take numpy scalars
        assert MatrixMorphism(BOOL, np.array(R, dtype=bool)) == bmat(R)
        assert MatrixMorphism(NAT, np.array(R, dtype=np.int64)) == MatrixMorphism(NAT, R)
        assert ScalarValue(BOOL, np.False_).value is False
        for raw in (2, np.int64(2), 0.5):
            with pytest.raises(ValueError, match="^not a boolean payload: "):
                MatrixMorphism(BOOL, [[raw]])


class TestEquality:
    """Complex == allows tolerance x max(1, largest |entry|); bool and nat are exact."""

    def test_relative_error_past_the_tolerance_is_unequal(self):
        big = cmat([[3e6, -1e6j], [2.5e6 + 1e6j, 7.0]])
        off = MatrixMorphism._raw(COMPLEX, big.data.copy())
        off.data[1, 1] += 3e6 * 1e-6  # one entry off by 1e-6 of the largest
        assert off != big and big != off

    def test_rounding_of_large_entries_is_equal(self):
        big = cmat([[3e6, -1e6j], [2.5e6 + 1e6j, 7.0]])
        near = MatrixMorphism._raw(COMPLEX, big.data.copy())
        near.data[0, 0] += 3e6 * 1e-12  # far past 1e-9 absolute, within it relative
        assert max_deviation(near, big) > COMPLEX.tolerance
        assert near == big

    def test_small_entries_keep_the_absolute_tolerance(self):
        assert cmat([[0.5, 1e-10]]) == cmat([[0.5, 0]])
        assert cmat([[0.5, 1e-8]]) != cmat([[0.5, 0]])

    def test_non_finite_entries_are_never_equal(self):
        for x in (math.inf, math.nan):
            assert cmat([[x]]) != cmat([[x]])
            assert cmat([[x, 1]]) != cmat([[1, 1]])

    def test_exact_semirings_ignore_entry_size(self):
        huge = 10**30
        assert MatrixMorphism(NAT, [[huge, 1]]) != MatrixMorphism(NAT, [[huge, 0]])
        assert MatrixMorphism(NAT, [[huge + 1]]) != MatrixMorphism(NAT, [[huge]])
        assert bmat([[1, 0]]) != bmat([[1, 1]])


class TestComposeTensor:
    def test_swap_square_is_identity(self):
        # frozen by direct 2x2 multiplication
        x = cmat([[0, 1], [1, 0]])
        assert compose(x, x) == MatrixMorphism.identity(COMPLEX, 2)

    def test_identity_unit_law(self):
        rng = random.Random(1)
        for tag in ALL_TAGS:
            f = random_matrix(tag, 3, 2, rng)
            assert compose(MatrixMorphism.identity(tag, 3), f) == f
            assert compose(f, MatrixMorphism.identity(tag, 2)) == f

    def test_compose_shape_error_names_shapes(self):
        with pytest.raises(ShapeMismatch, match="3x2"):
            compose(bmat([[1, 1], [1, 0]]), MatrixMorphism.zeros(BOOL, 3, 2))

    def test_kronecker_hand_expansion(self):
        got = tensor(bmat([[1, 0]]), bmat([[0], [1]]))
        assert got == bmat([[0, 0], [1, 0]])

    def test_tensor_shapes(self):
        f = MatrixMorphism.zeros(COMPLEX, 2, 3)
        g = MatrixMorphism.zeros(COMPLEX, 4, 5)
        t = tensor(f, g)
        assert (t.rows, t.cols) == (8, 15)

    def test_tensor_unit(self):
        rng = random.Random(2)
        f = random_matrix(NAT, 2, 3, rng)
        assert tensor(MatrixMorphism.identity(NAT, 1), f) == f
        assert tensor(f, MatrixMorphism.identity(NAT, 1)) == f

    def test_tensor_entry_formula(self):
        rng = random.Random(3)
        f = random_matrix(COMPLEX, 2, 3, rng)
        g = random_matrix(COMPLEX, 3, 2, rng)
        t = tensor(f, g)
        for i in range(2):
            for ip in range(3):
                for j in range(3):
                    for jp in range(2):
                        want = f.data[i, j] * g.data[ip, jp]
                        assert abs(t.data[i * 3 + ip, j * 2 + jp] - want) < 1e-12

    def test_interchange_random(self):
        rng = random.Random(4)
        for tag in (BOOL, COMPLEX):
            for _ in range(60):
                a, b, c = (rng.randrange(1, 5) for _ in range(3))
                d, e, k = (rng.randrange(1, 5) for _ in range(3))
                f = random_matrix(tag, b, a, rng)
                g = random_matrix(tag, c, b, rng)
                h = random_matrix(tag, e, d, rng)
                kk = random_matrix(tag, k, e, rng)
                lhs = compose(tensor(g, kk), tensor(f, h))
                rhs = tensor(compose(g, f), compose(kk, h))
                assert lhs == rhs


class TestDagger:
    def test_involution_and_antihomomorphism(self):
        rng = random.Random(5)
        for tag in ALL_TAGS:
            f = random_matrix(tag, 3, 2, rng)
            g = random_matrix(tag, 4, 3, rng)
            h = random_matrix(tag, 2, 5, rng)
            assert dagger(dagger(f)) == f
            assert dagger(compose(g, f)) == compose(dagger(f), dagger(g))
            assert dagger(tensor(f, h)) == tensor(dagger(f), dagger(h))

    def test_complex_conjugation(self):
        assert dagger(cmat([[1j]])) == cmat([[-1j]])

    def test_inner_product_adjointness(self):
        # <psi | f phi> = <f-dagger psi | phi> as 1x1 matrices
        rng = random.Random(6)
        for _ in range(25):
            n, m = rng.randrange(1, 5), rng.randrange(1, 5)
            f = random_matrix(COMPLEX, m, n, rng)
            phi = random_matrix(COMPLEX, n, 1, rng)
            psi = random_matrix(COMPLEX, m, 1, rng)
            lhs = compose(dagger(psi), compose(f, phi))
            rhs = dagger(compose(dagger(compose(dagger(f), psi)), phi))
            # conjugate because <x|y> = x-dagger y and the mirrored pairing flips it
            assert abs(lhs.data[0, 0] - rhs.data[0, 0].conjugate()) < 1e-9


class TestCompactStructure:
    def test_eta_frozen_patterns(self):
        assert unit_eta(COMPLEX, 2) == cmat([[1], [0], [0], [1]])
        assert unit_eta(COMPLEX, 1) == cmat([[1]])
        e0 = unit_eta(COMPLEX, 0)
        assert (e0.rows, e0.cols) == (0, 1)

    def test_snake_equations(self):
        for tag in ALL_TAGS:
            for n in range(7):
                ident = MatrixMorphism.identity(tag, n)
                eta = unit_eta(tag, n)
                eps = counit_eps(tag, n)
                left = compose(tensor(eps, ident), tensor(ident, eta))
                right = compose(tensor(ident, eps), tensor(eta, ident))
                assert left == ident
                assert right == ident

    def test_dagger_compactness(self):
        for tag in ALL_TAGS:
            for n in range(5):
                eps = counit_eps(tag, n)
                want = compose(dagger(unit_eta(tag, n)), swap_matrix(tag, n, n))
                assert eps == want

    def test_circle_values(self):
        assert circle(COMPLEX, 3).value == 3
        assert circle(NAT, 0).value == 0
        assert circle(BOOL, 3).value is True
        assert circle(BOOL, 0).value is False
        assert circle(NAT, 5).value == 5


class TestBiproducts:
    def test_projection_frozen(self):
        p1 = projection(BlockIndex(1, (2, 3)), BOOL)
        assert p1 == bmat([[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]])

    def test_biproduct_laws_all_splits(self):
        for tag in ALL_TAGS:
            for total in range(9):
                for n1 in range(total + 1):
                    sizes = (n1, total - n1)
                    pis = [projection(BlockIndex(w, sizes), tag) for w in (1, 2)]
                    iotas = [injection(BlockIndex(w, sizes), tag) for w in (1, 2)]
                    for i in (0, 1):
                        for j in (0, 1):
                            got = compose(pis[i], iotas[j])
                            if i == j:
                                assert got == MatrixMorphism.identity(tag, sizes[i])
                            else:
                                assert got == MatrixMorphism.zeros(tag, sizes[i], sizes[j])
                    total_map = add(
                        compose(iotas[0], pis[0]), compose(iotas[1], pis[1])
                    )
                    assert total_map == MatrixMorphism.identity(tag, total)

    def test_direct_sum_of_units(self):
        assert direct_sum(
            MatrixMorphism.identity(NAT, 1), MatrixMorphism.identity(NAT, 1)
        ) == MatrixMorphism.identity(NAT, 2)

    def test_add_is_the_categorical_sum(self):
        # f + g = codiag . (f (+) g) . diag
        rng = random.Random(7)
        for tag in ALL_TAGS:
            f = random_matrix(tag, 3, 2, rng)
            g = random_matrix(tag, 3, 2, rng)
            via_biprod = compose(
                codiag_biprod(tag, 3), compose(direct_sum(f, g), diag_biprod(tag, 2))
            )
            assert via_biprod == add(f, g)

    def test_add_unit(self):
        rng = random.Random(8)
        f = random_matrix(COMPLEX, 2, 3, rng)
        assert add(f, MatrixMorphism.zeros(COMPLEX, 2, 3)) == f

    def test_add_shape_error(self):
        with pytest.raises(ShapeMismatch):
            add(MatrixMorphism.zeros(BOOL, 2, 2), MatrixMorphism.zeros(BOOL, 2, 3))

    def test_block_of_identity(self):
        ident = MatrixMorphism.identity(COMPLEX, 2)
        assert block(ident, 1, 2, (1, 1), (1, 1)) == cmat([[0]])

    def test_from_blocks_all_ones(self):
        u = MatrixMorphism.identity(BOOL, 1)
        m = from_blocks([[u, u], [u, u]])
        assert m == bmat([[1, 1], [1, 1]])
        # cross-check each block against the projection/injection definition
        for i in (1, 2):
            for j in (1, 2):
                via_pi = compose(
                    projection(BlockIndex(i, (1, 1)), BOOL),
                    compose(m, injection(BlockIndex(j, (1, 1)), BOOL)),
                )
                assert via_pi == block(m, i, j, (1, 1), (1, 1))

    def test_block_roundtrip_random(self):
        rng = random.Random(9)
        f = random_matrix(BOOL, 4, 4, rng)
        blocks = [[block(f, i, j, (2, 2), (2, 2)) for j in (1, 2)] for i in (1, 2)]
        assert from_blocks(blocks) == f

    def test_blockwise_composition_consistency(self):
        # h_ij = sum_r f_ir . g_rj agrees with plain composition
        rng = random.Random(10)
        for tag in ALL_TAGS:
            rsplit, msplit, csplit = (2, 1), (1, 2), (2, 2)
            f = random_matrix(tag, sum(rsplit), sum(msplit), rng)
            g = random_matrix(tag, sum(msplit), sum(csplit), rng)
            whole = compose(f, g)
            blocks = []
            for i in (1, 2):
                row = []
                for j in (1, 2):
                    acc = None
                    for r in (1, 2):
                        term = compose(
                            block(f, i, r, rsplit, msplit),
                            block(g, r, j, msplit, csplit),
                        )
                        acc = term if acc is None else add(acc, term)
                    row.append(acc)
                blocks.append(row)
            assert from_blocks(blocks) == whole

    def test_pair_copair_oracles(self):
        rng = random.Random(11)
        f = random_matrix(BOOL, 2, 3, rng)
        g = random_matrix(BOOL, 4, 3, rng)
        p = pair(f, g)
        assert compose(projection(BlockIndex(1, (2, 4)), BOOL), p) == f
        assert compose(projection(BlockIndex(2, (2, 4)), BOOL), p) == g
        h = random_matrix(BOOL, 3, 2, rng)
        k = random_matrix(BOOL, 3, 4, rng)
        cp = copair(h, k)
        assert compose(cp, injection(BlockIndex(1, (2, 4)), BOOL)) == h
        assert compose(cp, injection(BlockIndex(2, (2, 4)), BOOL)) == k

    def test_pair_of_units_is_diagonal(self):
        assert diag_biprod(NAT, 1) == MatrixMorphism(NAT, [[1], [1]])


class TestScalarMultiples:
    def test_two_by_two_instance(self):
        a = cmat([[1, 2], [3, 4]])
        b = cmat([[0, 1], [1, 0]])
        x = ScalarValue(COMPLEX, 2)
        y = ScalarValue(COMPLEX, 3)
        lhs = compose(scalar_multiple(y, b), scalar_multiple(x, a))
        # frozen: 6 * (b a) = [[18, 24], [6, 12]]
        assert lhs == cmat([[18, 24], [6, 12]])

    def test_unit_and_absorbing(self):
        rng = random.Random(12)
        f = random_matrix(BOOL, 2, 2, rng)
        assert scalar_multiple(ScalarValue(BOOL, 1), f) == f
        assert scalar_multiple(ScalarValue(BOOL, 0), f) == MatrixMorphism.zeros(BOOL, 2, 2)

    def test_scalar_commutativity(self):
        rng = random.Random(13)
        for tag in ALL_TAGS:
            for _ in range(20):
                s = random_matrix(tag, 1, 1, rng)
                t = random_matrix(tag, 1, 1, rng)
                assert compose(s, t) == compose(t, s)


class TestStructuralIsos:
    def test_swap_examples(self):
        assert swap_matrix(COMPLEX, 1, 4) == MatrixMorphism.identity(COMPLEX, 4)
        want = cmat([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
        assert swap_matrix(COMPLEX, 2, 2) == want

    def test_swap_inverse(self):
        for n, m in [(2, 3), (3, 4), (1, 5), (0, 3)]:
            s = swap_matrix(NAT, n, m)
            assert compose(swap_matrix(NAT, m, n), s) == MatrixMorphism.identity(NAT, n * m)

    def test_distributor_frozen(self):
        want = cmat([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
        assert distributor(COMPLEX, 2, 1, 1) == want

    def test_distributor_inverse(self):
        for n, m, k in [(2, 1, 1), (2, 2, 3), (3, 2, 0), (1, 4, 2)]:
            d = distributor(BOOL, n, m, k)
            assert compose(d, dagger(d)) == MatrixMorphism.identity(BOOL, n * (m + k))


class TestSpectra:
    def test_identity_spectrum(self):
        p1, p2 = projector_spectrum(MatrixMorphism.identity(COMPLEX, 2), (1, 1))
        assert p1 == cmat([[1, 0], [0, 0]])
        assert p2 == cmat([[0, 0], [0, 1]])

    def test_hadamard_like_spectrum(self):
        s = 2 ** -0.5
        u = cmat([[s, s], [s, -s]])
        p1, p2 = projector_spectrum(u, (1, 1))
        assert p1 == cmat([[0.5, 0.5], [0.5, 0.5]])
        assert p2 == cmat([[0.5, -0.5], [-0.5, 0.5]])
        assert add(p1, p2) == MatrixMorphism.identity(COMPLEX, 2)

    def test_random_swap_built_spectra(self):
        rng = random.Random(14)
        for _ in range(20):
            total = rng.randrange(2, 9)
            n1 = rng.randrange(1, total)
            u = swap_built_unitary(COMPLEX, total, rng)
            ps = projector_spectrum(u, (n1, total - n1))
            acc = None
            for p in ps:
                assert compose(p, p) == p
                assert dagger(p) == p
                acc = p if acc is None else add(acc, p)
            assert acc == MatrixMorphism.identity(COMPLEX, total)

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError, match="unitary"):
            projector_spectrum(cmat([[1, 1], [0, 1]]), (1, 1))


class TestZeroObject:
    def test_zero_dimensional_paths(self):
        for tag in ALL_TAGS:
            a = MatrixMorphism.zeros(tag, 0, 3)
            b = MatrixMorphism.zeros(tag, 3, 0)
            via_zero = compose(b, a)
            assert via_zero == MatrixMorphism.zeros(tag, 3, 3)
            t = tensor(a, MatrixMorphism.identity(tag, 2))
            assert (t.rows, t.cols) == (0, 6)

    def test_entry_and_deviation(self):
        f = MatrixMorphism(NAT, [[2, 3]])
        assert f.entry(0, 1).value == 3
        g = MatrixMorphism(NAT, [[2, 5]])
        assert max_deviation(f, g) == 2.0


STORED_DTYPE = {"bool": np.bool_, "nat": np.object_, "complex": np.complex128}
PAYLOAD_TYPE = {"bool": bool, "nat": int, "complex": complex}


def assert_representation(m):
    """dtype of data, plain Python entry payloads, and tolist payload types."""
    kind = m.tag.kind
    assert m.data.dtype == STORED_DTYPE[kind]
    for i in range(m.rows):
        for j in range(m.cols):
            assert type(m.entry(i, j).value) is PAYLOAD_TYPE[kind]
    for row in m.tolist():
        for v in row:
            if kind == "bool":
                assert type(v) is int and v in (0, 1)
            elif kind == "nat":
                assert type(v) is int
            else:
                assert isinstance(v, list) and len(v) == 2
                assert all(isinstance(x, float) for x in v)


def reference_compose(g, f):
    out = []
    for i in range(g.rows):
        row = []
        for j in range(f.cols):
            acc = scalars.zero(g.tag)
            for k in range(g.cols):
                acc = scalars.add(acc, scalars.mul(g.entry(i, k), f.entry(k, j)))
            row.append(acc)
        out.append(row)
    return out


def assert_entries(m, expected):
    assert (m.rows, m.cols) == (len(expected), len(expected[0]))
    for i, row in enumerate(expected):
        for j, want in enumerate(row):
            assert scalars.distance(m.entry(i, j), want) <= m.tag.tolerance, (i, j)


class TestEntrywiseReference:
    """Matrix arithmetic against loops over the scalar operations."""

    @pytest.mark.parametrize("tag", ALL_TAGS, ids=[t.kind for t in ALL_TAGS])
    def test_matches_scalar_loops(self, tag):
        rng = random.Random(17)
        one = scalars.one(tag).value
        # inner dimension 300: row 0 of g meets column 0 of f in 256 ones,
        # a count that wraps to zero in 8-bit arithmetic
        g = random_matrix(tag, 3, 300, rng)
        f = random_matrix(tag, 300, 2, rng)
        g.data[0, :256] = f.data[:256, 0] = one
        g.data[0, 256:] = f.data[256:, 0] = scalars.zero(tag).value
        if tag.kind == "nat":
            g.data[1, 0], f.data[0, 1] = 2**64 + 3, 2**70
        h = random_matrix(tag, 3, 2, rng)
        s = random_matrix(tag, 1, 1, rng).entry(0, 0)
        gf = compose(g, f)

        assert_entries(gf, reference_compose(g, f))
        if tag.kind == "bool":
            assert gf.entry(0, 0).value is True
        assert_entries(add(gf, h), [[scalars.add(gf.entry(i, j), h.entry(i, j)) for j in range(2)] for i in range(3)])
        assert_entries(scalar_multiple(s, gf), [[scalars.mul(s, gf.entry(i, j)) for j in range(2)] for i in range(3)])
        assert_entries(dagger(gf), [[scalars.conj(gf.entry(i, j)) for i in range(3)] for j in range(2)])
        worst = max(scalars.distance(gf.entry(i, j), h.entry(i, j)) for i in range(3) for j in range(2))
        assert max_deviation(gf, h) == worst
        for m in (g, f, gf, add(gf, h), scalar_multiple(s, gf), dagger(gf)):
            assert_representation(m)

    def test_nat_deviation_beyond_float_range(self):
        f = MatrixMorphism(NAT, [[2**1100, 0]])
        assert max_deviation(f, MatrixMorphism.zeros(NAT, 1, 2)) == float("inf")
        assert scalars.distance(f.entry(0, 0), scalars.zero(NAT)) == float("inf")
