"""Semiring scalar laws, property-tested per carrier."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from catkit import scalars
from catkit.scalars import (
    BOOL,
    COMPLEX,
    NAT,
    ScalarValue,
    SemiringMismatch,
    SemiringTag,
    add,
    approx_eq,
    complex_tag,
    conj,
    mul,
    one,
    zero,
)


def bool_values():
    return st.booleans().map(lambda b: ScalarValue(BOOL, b))


def nat_values():
    return st.integers(min_value=0, max_value=10**12).map(lambda n: ScalarValue(NAT, n))


def complex_values():
    part = st.integers(min_value=-50, max_value=50)
    return st.tuples(part, part).map(lambda p: ScalarValue(COMPLEX, complex(*p)))


TRIPLES = st.one_of(
    st.tuples(bool_values(), bool_values(), bool_values()),
    st.tuples(nat_values(), nat_values(), nat_values()),
    st.tuples(complex_values(), complex_values(), complex_values()),
)


@given(TRIPLES)
def test_add_mul_commutative(triple):
    a, b, _ = triple
    # a + b = b + a and a * b = b * a
    assert approx_eq(add(a, b), add(b, a))
    assert approx_eq(mul(a, b), mul(b, a))


@given(TRIPLES)
def test_associativity_and_units(triple):
    a, b, c = triple
    assert approx_eq(add(add(a, b), c), add(a, add(b, c)))
    assert approx_eq(mul(mul(a, b), c), mul(a, mul(b, c)))
    assert approx_eq(add(a, zero(a.tag)), a)
    assert approx_eq(mul(a, one(a.tag)), a)
    assert approx_eq(mul(a, zero(a.tag)), zero(a.tag))


@given(TRIPLES)
def test_distributivity(triple):
    a, b, c = triple
    # a * (b + c) = a*b + a*c
    assert approx_eq(mul(a, add(b, c)), add(mul(a, b), mul(a, c)))


@given(TRIPLES)
def test_conj_involutive_homomorphism(triple):
    a, b, _ = triple
    assert approx_eq(conj(conj(a)), a)
    assert approx_eq(conj(add(a, b)), add(conj(a), conj(b)))
    assert approx_eq(conj(mul(a, b)), mul(conj(a), conj(b)))
    if a.tag.kind in ("bool", "nat"):
        assert conj(a).value == a.value


def test_boolean_addition_saturates():
    t = one(BOOL)
    f = zero(BOOL)
    assert add(t, t).value is True
    assert add(f, f).value is False
    assert mul(t, f).value is False


def test_complex_examples():
    i = ScalarValue(COMPLEX, 1j)
    assert mul(i, i).value == -1
    z = ScalarValue(COMPLEX, 2 + 3j)
    assert conj(z).value == 2 - 3j
    assert add(z, zero(COMPLEX)).value == 2 + 3j


def test_approx_eq_tolerance():
    a = ScalarValue(COMPLEX, 1.0)
    assert approx_eq(a, ScalarValue(COMPLEX, 1.0 + 1e-12))
    assert not approx_eq(a, ScalarValue(COMPLEX, 1.1))
    loose = complex_tag(0.5)
    assert approx_eq(ScalarValue(loose, 1.0), ScalarValue(loose, 1.1))


def test_tag_mismatch_rejected():
    with pytest.raises(SemiringMismatch):
        add(one(BOOL), one(NAT))
    with pytest.raises(SemiringMismatch):
        mul(one(COMPLEX), one(NAT))


def test_payload_validation():
    with pytest.raises(ValueError):
        ScalarValue(NAT, -1)
    with pytest.raises(ValueError):
        ScalarValue(BOOL, 2)
    with pytest.raises(ValueError):
        ScalarValue(NAT, 1.5)
    assert ScalarValue(BOOL, 1).value is True
    assert ScalarValue(NAT, 7).value == 7


@pytest.mark.parametrize(
    "tag, raw, message",
    [
        (BOOL, 0.5, "not a boolean payload: 0.5"),
        (BOOL, 2, "not a boolean payload: 2"),
        (COMPLEX, [1, 2, 3], "not a complex payload: [1, 2, 3]"),
        (COMPLEX, "i", "not a complex payload: 'i'"),
        (COMPLEX, None, "not a complex payload: None"),
    ],
)
def test_payload_errors_name_the_payload(tag, raw, message):
    with pytest.raises(ValueError) as excinfo:
        ScalarValue(tag, raw)
    assert str(excinfo.value) == message


def test_tag_validation():
    with pytest.raises(ValueError):
        SemiringTag("gf2")
    with pytest.raises(ValueError):
        SemiringTag("nat", 0.1)
    with pytest.raises(ValueError):
        SemiringTag("complex", float("nan"))
