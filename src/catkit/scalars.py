"""Scalar semirings used as matrix entry domains.

Three carriers are supported: Booleans under or/and, unbounded natural
numbers, and complex numbers compared within an absolute tolerance.
Every value is tagged with its semiring so that mixed arithmetic is
rejected early instead of producing silently wrong entries.

Everything that depends on the semiring lives in one table, one record
per kind: the numpy dtype matrices store (bool, object arrays of Python
ints, complex128), zero and one, the payload validator, scalar sum,
entry distance, exactness, the payload and text of one entry, and the
random draw of the law harness.  Products, adjoints and matrix sums need
no entry: numpy's own bool, object and complex arithmetic is the
semiring's (bool `+` is or, `*` is and, `@` is the or-of-ands product).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


class SemiringMismatch(TypeError):
    """Raised when values from two different semirings meet."""


def _coerce_bool(raw: object) -> bool:
    if isinstance(raw, (bool, np.bool_)):
        return bool(raw)
    try:
        n = operator.index(raw)
    except TypeError:
        raise ValueError(f"not a boolean payload: {raw!r}") from None
    if n in (0, 1):
        return bool(n)
    raise ValueError(f"not a boolean payload: {raw!r}")


def _coerce_nat(raw: object) -> int:
    try:
        n = operator.index(raw)
    except TypeError:
        raise ValueError(f"not a natural payload: {raw!r}") from None
    if n < 0:
        raise ValueError(f"naturals are nonnegative, got {n}")
    return int(n)


def _coerce_complex(raw: object) -> complex:
    if isinstance(raw, (list, tuple)):
        if len(raw) != 2:
            raise ValueError(f"not a complex payload: {raw!r}")
        raw = complex(float(raw[0]), float(raw[1]))
    try:
        return complex(raw)
    except (TypeError, ValueError):
        raise ValueError(f"not a complex payload: {raw!r}") from None


def _nat_distance(a, b) -> float:
    worst = np.max(np.abs(np.asarray(a - b, dtype=object)))
    try:
        return float(worst)
    except OverflowError:
        return math.inf


def _complex_distance(a, b) -> float:
    with np.errstate(invalid="ignore"):  # inf - inf is nan, which max keeps: a non-finite entry is never close
        d = a - b
    return float(np.max(np.maximum(np.abs(d.real), np.abs(d.imag))))


def _complex_text(v: complex) -> str:
    return "%g" % v.real if v.imag == 0 else "%g%+gj" % (v.real, v.imag)


@dataclass(frozen=True)
class _Semiring:
    """The semiring-dependent part of scalars and matrices.

    distance takes two equal-shaped arrays (or two payloads) and returns
    the largest componentwise entry distance; payload and text render one
    entry for tolist and the command line; draw takes a random.Random.
    """

    dtype: type
    zero: object
    one: object
    exact: bool
    coerce: Callable[[object], object]
    add: Callable[[object, object], object]
    distance: Callable[[object, object], float]
    payload: Callable[[object], object]
    text: Callable[[object], str]
    draw: Callable[[object], object]


_SEMIRINGS = {
    "bool": _Semiring(
        dtype=np.bool_, zero=False, one=True, exact=True, coerce=_coerce_bool,
        add=operator.or_, distance=lambda a, b: 1.0 if np.any(a != b) else 0.0,
        payload=int, text=lambda v: "1" if v else "0", draw=lambda rng: rng.random() < 0.5,
    ),
    "nat": _Semiring(
        dtype=np.object_, zero=0, one=1, exact=True, coerce=_coerce_nat,
        add=operator.add, distance=_nat_distance,
        payload=int, text=str, draw=lambda rng: rng.randrange(4),
    ),
    "complex": _Semiring(
        dtype=np.complex128, zero=0j, one=1 + 0j, exact=False, coerce=_coerce_complex,
        add=operator.add, distance=_complex_distance,
        payload=lambda v: [v.real, v.imag], text=_complex_text,
        draw=lambda rng: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
    ),
}


@dataclass(frozen=True)
class SemiringTag:
    """Names a scalar semiring; tolerance is only meaningful for complex.

    ops is the kind's record in the semiring table.
    """

    kind: str
    tolerance: float = 0.0
    ops: _Semiring = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        try:
            ops = _SEMIRINGS[self.kind]
        except (KeyError, TypeError):
            raise ValueError(f"unknown semiring kind {self.kind!r}") from None
        object.__setattr__(self, "ops", ops)
        if not ops.exact:
            if not (math.isfinite(self.tolerance) and self.tolerance >= 0.0):
                raise ValueError(f"{self.kind} tolerance must be finite and >= 0")
        elif self.tolerance != 0.0:
            # bool and nat equality is exact by definition
            raise ValueError(f"{self.kind} comparison is exact; tolerance must be 0")

    @property
    def exact(self) -> bool:
        return self.ops.exact


BOOL = SemiringTag("bool")
NAT = SemiringTag("nat")
DEFAULT_TOLERANCE = 1e-9


def complex_tag(tolerance: float = DEFAULT_TOLERANCE) -> SemiringTag:
    return SemiringTag("complex", tolerance)


COMPLEX = complex_tag()


def join_tags(a: SemiringTag, b: SemiringTag) -> SemiringTag:
    """Common tag of two operands; widest tolerance wins."""
    if a.kind != b.kind:
        raise SemiringMismatch(f"semiring mismatch: {a.kind} vs {b.kind}")
    return a if a.tolerance >= b.tolerance else b


@dataclass(frozen=True)
class ScalarValue:
    """One element of a tagged semiring."""

    tag: SemiringTag
    value: object

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", self.tag.ops.coerce(self.value))

    def __repr__(self) -> str:
        return f"ScalarValue({self.tag.kind}, {self.value!r})"


def zero(tag: SemiringTag) -> ScalarValue:
    return ScalarValue(tag, tag.ops.zero)


def one(tag: SemiringTag) -> ScalarValue:
    return ScalarValue(tag, tag.ops.one)


def add(a: ScalarValue, b: ScalarValue) -> ScalarValue:
    tag = join_tags(a.tag, b.tag)
    return ScalarValue(tag, tag.ops.add(a.value, b.value))


def mul(a: ScalarValue, b: ScalarValue) -> ScalarValue:
    # a bool product is the int 0 or 1, which coerce folds back to bool
    return ScalarValue(join_tags(a.tag, b.tag), a.value * b.value)


def conj(a: ScalarValue) -> ScalarValue:
    return ScalarValue(a.tag, a.value.conjugate())


def distance(a: ScalarValue, b: ScalarValue) -> float:
    """Componentwise distance used for tolerance comparison and reports."""
    return join_tags(a.tag, b.tag).ops.distance(a.value, b.value)


def approx_eq(a: ScalarValue, b: ScalarValue) -> bool:
    return distance(a, b) <= join_tags(a.tag, b.tag).tolerance  # an exact tag's tolerance is 0
