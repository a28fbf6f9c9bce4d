"""The skeleton matrix category over a semiring.

A morphism is a rows-by-cols array: rows index the codomain, columns
the domain, and composition is matrix product with g on the left.
The module provides the full categorical toolkit on these arrays:
Kronecker tensor with row-major index pairing, biproducts (direct sum,
projections/injections, pairing, block calculus), dagger, the compact
unit/counit on self-dual objects, the structural permutation
isomorphisms, and projector spectra of unitaries.

Entries are stored in the dtype of the semiring table in scalars:
numpy bool, object arrays of arbitrary-precision Python integers, or
complex128.  Composition, sums, scalar multiples and adjoints are
numpy's own arithmetic on those arrays, which is the semiring's: bool
`@` is the exact or-of-ands product, `+` is or and `*` is and, and
object arrays keep Python integers, so nothing overflows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scalars import ScalarValue, SemiringMismatch, SemiringTag, join_tags


class ShapeMismatch(TypeError):
    """Raised when matrix shapes do not fit an operation."""


def _coerce_data(tag: SemiringTag, entries, shape=None) -> np.ndarray:
    rows = [list(r) for r in entries]
    if shape is None:
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        shape = (nrows, ncols)
    if len(rows) != shape[0] or any(len(r) != shape[1] for r in rows):
        raise ShapeMismatch(f"ragged or mis-sized rows for shape {shape}")
    out = np.empty(shape, dtype=tag.ops.dtype)
    coerce = tag.ops.coerce
    for i, row in enumerate(rows):
        for j, raw in enumerate(row):
            out[i, j] = coerce(raw)
    return out


class MatrixMorphism:
    """A matrix over one semiring, read as a map cols -> rows."""

    __slots__ = ("tag", "data")

    def __init__(self, tag: SemiringTag, entries, shape=None):
        self.tag = tag
        self.data = _coerce_data(tag, entries, shape)

    @classmethod
    def _raw(cls, tag: SemiringTag, data: np.ndarray) -> "MatrixMorphism":
        m = cls.__new__(cls)
        m.tag = tag
        m.data = data
        return m

    @classmethod
    def zeros(cls, tag: SemiringTag, rows: int, cols: int) -> "MatrixMorphism":
        if rows < 0 or cols < 0:
            raise ValueError("dimensions must be nonnegative")
        return cls._raw(tag, np.zeros((rows, cols), dtype=tag.ops.dtype))

    @classmethod
    def identity(cls, tag: SemiringTag, n: int) -> "MatrixMorphism":
        return cls._raw(tag, np.eye(n, dtype=tag.ops.dtype))

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    def entry(self, i: int, j: int) -> ScalarValue:
        # .item hands scalars.py a plain Python bool, int or complex
        return ScalarValue(self.tag, self.data.item(i, j))

    def approx_eq(self, other: "MatrixMorphism") -> bool:
        """Same shape, and no entry distance over the tolerance times
        max(1, the largest |entry| of either operand); exact semirings
        have tolerance 0.  A non-finite entry never compares equal."""
        tag = join_tags(self.tag, other.tag)
        if self.data.shape != other.data.shape:
            return False
        scale = 1.0
        if not tag.exact and self.data.size:
            scale = max(scale, float(np.abs(self.data).max()), float(np.abs(other.data).max()))
        return max_deviation(self, other) / scale <= tag.tolerance

    def __eq__(self, other) -> bool:
        if not isinstance(other, MatrixMorphism):
            return NotImplemented
        if self.tag.kind != other.tag.kind:
            return False
        return self.approx_eq(other)

    __hash__ = None

    def tolist(self) -> list:
        """Nested row-major payload lists; complex entries as [re, im]."""
        payload = self.tag.ops.payload
        return [[payload(v) for v in row] for row in self.data.tolist()]

    def __repr__(self) -> str:
        return f"MatrixMorphism({self.tag.kind}, {self.rows}x{self.cols})"


def max_deviation(f: MatrixMorphism, g: MatrixMorphism) -> float:
    """Largest componentwise entry distance between two equal-shaped matrices."""
    join_tags(f.tag, g.tag)
    if f.data.shape != g.data.shape:
        raise ShapeMismatch(
            f"shape mismatch: {f.rows}x{f.cols} vs {g.rows}x{g.cols}"
        )
    if f.data.size == 0:
        return 0.0
    return f.tag.ops.distance(f.data, g.data)


def compose(g: MatrixMorphism, f: MatrixMorphism) -> MatrixMorphism:
    """g after f: requires f.rows = g.cols."""
    tag = join_tags(g.tag, f.tag)
    if f.rows != g.cols:
        raise ShapeMismatch(
            f"cannot compose {g.rows}x{g.cols} after {f.rows}x{f.cols}:"
            f" inner dimensions {g.cols} and {f.rows} differ"
        )
    return MatrixMorphism._raw(tag, g.data @ f.data)


def tensor(f: MatrixMorphism, g: MatrixMorphism) -> MatrixMorphism:
    """Kronecker product; row (i,i') of the result is i*g.rows+i'."""
    tag = join_tags(f.tag, g.tag)
    data = f.data[:, None, :, None] * g.data[None, :, None, :]
    return MatrixMorphism._raw(tag, data.reshape(f.rows * g.rows, f.cols * g.cols))


def direct_sum(f: MatrixMorphism, g: MatrixMorphism) -> MatrixMorphism:
    tag = join_tags(f.tag, g.tag)
    out = MatrixMorphism.zeros(tag, f.rows + g.rows, f.cols + g.cols)
    out.data[: f.rows, : f.cols] = f.data
    out.data[f.rows :, f.cols :] = g.data
    return out


def add(f: MatrixMorphism, g: MatrixMorphism) -> MatrixMorphism:
    tag = join_tags(f.tag, g.tag)
    if f.data.shape != g.data.shape:
        raise ShapeMismatch(
            f"cannot add {f.rows}x{f.cols} and {g.rows}x{g.cols}"
        )
    return MatrixMorphism._raw(tag, f.data + g.data)


def dagger(f: MatrixMorphism) -> MatrixMorphism:
    return MatrixMorphism._raw(f.tag, f.data.conj().T.copy())


def scalar_multiple(s: ScalarValue, f: MatrixMorphism) -> MatrixMorphism:
    return MatrixMorphism._raw(join_tags(s.tag, f.tag), f.data * s.value)


def unit_eta(tag: SemiringTag, n: int) -> MatrixMorphism:
    """Compact unit on a self-dual n: the n^2-by-1 column with ones at (i,i)."""
    return MatrixMorphism._raw(tag, np.eye(n, dtype=tag.ops.dtype).reshape(n * n, 1))


def counit_eps(tag: SemiringTag, n: int) -> MatrixMorphism:
    return MatrixMorphism._raw(tag, np.eye(n, dtype=tag.ops.dtype).reshape(1, n * n))


@dataclass(frozen=True)
class BlockIndex:
    """Picks one summand of a binary biproduct with the given sizes."""

    which: int
    sizes: tuple[int, int]

    def __post_init__(self) -> None:
        if self.which not in (1, 2):
            raise ValueError("which must be 1 or 2")
        if any(s < 0 for s in self.sizes) or len(self.sizes) != 2:
            raise ValueError("sizes must be a pair of nonnegative integers")


def projection(b: BlockIndex, tag: SemiringTag) -> MatrixMorphism:
    n1, n2 = b.sizes
    rows, off = (n1, 0) if b.which == 1 else (n2, n1)
    return MatrixMorphism._raw(tag, np.eye(rows, n1 + n2, k=off, dtype=tag.ops.dtype))


def injection(b: BlockIndex, tag: SemiringTag) -> MatrixMorphism:
    return dagger(projection(b, tag))


def block(
    f: MatrixMorphism,
    i: int,
    j: int,
    row_split: tuple[int, int],
    col_split: tuple[int, int],
) -> MatrixMorphism:
    """Block (i,j) of f under the given splits: projection, f, injection."""
    if sum(row_split) != f.rows or sum(col_split) != f.cols:
        raise ShapeMismatch(
            f"splits {row_split}/{col_split} do not cover a {f.rows}x{f.cols} matrix"
        )
    if i not in (1, 2) or j not in (1, 2):
        raise ValueError("block indices must be 1 or 2")
    r0 = 0 if i == 1 else row_split[0]
    r1 = r0 + row_split[i - 1]
    c0 = 0 if j == 1 else col_split[0]
    c1 = c0 + col_split[j - 1]
    return MatrixMorphism._raw(f.tag, f.data[r0:r1, c0:c1].copy())


def from_blocks(blocks) -> MatrixMorphism:
    """Assemble a 2x2 nested list of matrices into one matrix."""
    (f11, f12), (f21, f22) = blocks
    tag = join_tags(join_tags(f11.tag, f12.tag), join_tags(f21.tag, f22.tag))
    if f11.rows != f12.rows or f21.rows != f22.rows:
        raise ShapeMismatch("row heights disagree within a block row")
    if f11.cols != f21.cols or f12.cols != f22.cols:
        raise ShapeMismatch("column widths disagree within a block column")
    top = np.concatenate([f11.data, f12.data], axis=1)
    bot = np.concatenate([f21.data, f22.data], axis=1)
    return MatrixMorphism._raw(tag, np.concatenate([top, bot], axis=0))


def pair(f: MatrixMorphism, g: MatrixMorphism) -> MatrixMorphism:
    """Vertical stack: the mediating map into a biproduct."""
    tag = join_tags(f.tag, g.tag)
    if f.cols != g.cols:
        raise ShapeMismatch(f"pair needs equal domains, got {f.cols} and {g.cols}")
    return MatrixMorphism._raw(tag, np.concatenate([f.data, g.data], axis=0))


def copair(f: MatrixMorphism, g: MatrixMorphism) -> MatrixMorphism:
    """Horizontal stack: the mediating map out of a biproduct."""
    tag = join_tags(f.tag, g.tag)
    if f.rows != g.rows:
        raise ShapeMismatch(f"copair needs equal codomains, got {f.rows} and {g.rows}")
    return MatrixMorphism._raw(tag, np.concatenate([f.data, g.data], axis=1))


def diag_biprod(tag: SemiringTag, n: int) -> MatrixMorphism:
    ident = MatrixMorphism.identity(tag, n)
    return pair(ident, ident)


def codiag_biprod(tag: SemiringTag, n: int) -> MatrixMorphism:
    ident = MatrixMorphism.identity(tag, n)
    return copair(ident, ident)


def _perm_matrix(tag: SemiringTag, image: list[int]) -> MatrixMorphism:
    """Permutation sending basis column j to basis row image[j]."""
    n = len(image)
    m = MatrixMorphism.zeros(tag, n, n)
    m.data[image, range(n)] = tag.ops.one
    return m


def swap_matrix(tag: SemiringTag, n: int, m: int) -> MatrixMorphism:
    """Symmetry permutation sending basis (i,j) of n*m to (j,i) of m*n."""
    image = [0] * (n * m)
    for i in range(n):
        for j in range(m):
            image[i * m + j] = j * n + i
    return _perm_matrix(tag, image)


def assoc_iso(tag: SemiringTag, n: int, m: int, k: int) -> MatrixMorphism:
    # the skeleton is strict, but the iso is emitted so coherence
    # diagrams can be composed as explicit matrix equations
    return MatrixMorphism.identity(tag, n * m * k)


def left_unit_iso(tag: SemiringTag, n: int) -> MatrixMorphism:
    return MatrixMorphism.identity(tag, n)


def right_unit_iso(tag: SemiringTag, n: int) -> MatrixMorphism:
    return MatrixMorphism.identity(tag, n)


def distributor(tag: SemiringTag, n: int, m: int, k: int) -> MatrixMorphism:
    """Permutation n*(m+k) -> n*m + n*k reordering tensor-over-sum indices."""
    image = [0] * (n * (m + k))
    for i in range(n):
        for x in range(m + k):
            src = i * (m + k) + x
            image[src] = i * m + x if x < m else n * m + i * k + (x - m)
    return _perm_matrix(tag, image)


def circle(tag: SemiringTag, n: int) -> ScalarValue:
    """The closed loop on dimension n: counit after swap after unit."""
    m = compose(compose(counit_eps(tag, n), swap_matrix(tag, n, n)), unit_eta(tag, n))
    return m.entry(0, 0)


def is_unitary(u: MatrixMorphism) -> bool:
    if u.rows != u.cols:
        return False
    ident = MatrixMorphism.identity(u.tag, u.rows)
    return compose(dagger(u), u).approx_eq(ident) and compose(u, dagger(u)).approx_eq(ident)


def projector_spectrum(u: MatrixMorphism, split: tuple[int, int]) -> list[MatrixMorphism]:
    """The two projectors u . inj_i . proj_i . u-dagger of a unitary u."""
    if sum(split) != u.cols:
        raise ShapeMismatch(f"split {split} does not cover {u.cols} columns")
    if not is_unitary(u):
        raise ValueError("projector_spectrum requires a unitary matrix")
    out = []
    for which in (1, 2):
        b = BlockIndex(which, tuple(split))
        p = compose(compose(u, compose(injection(b, u.tag), projection(b, u.tag))), dagger(u))
        out.append(p)
    return out
