"""Shared random generators (seeded, reproducible) and mutation helpers for the test suite."""

from __future__ import annotations

import random

from catkit.matcat import MatrixMorphism
from catkit.scalars import BOOL, COMPLEX, NAT, SemiringTag, one

ALL_TAGS = (BOOL, NAT, COMPLEX)


def random_matrix(tag: SemiringTag, rows: int, cols: int, rng: random.Random) -> MatrixMorphism:
    m = MatrixMorphism.zeros(tag, rows, cols)
    for i in range(rows):
        for j in range(cols):
            if tag.kind == "bool":
                m.data[i, j] = rng.random() < 0.5
            elif tag.kind == "nat":
                m.data[i, j] = rng.randrange(4)
            else:
                m.data[i, j] = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
    return m


def flip_entry(m: MatrixMorphism, i: int, j: int) -> MatrixMorphism:
    """A copy of m with entry (i, j) toggled between zero and one."""
    data = m.data.copy()
    data[i, j] = 0 if data[i, j] else 1
    return MatrixMorphism._raw(m.tag, data)


def random_scalar(tag: SemiringTag, rng: random.Random):
    return random_matrix(tag, 1, 1, rng).entry(0, 0)


def swap_built_unitary(tag: SemiringTag, n: int, rng: random.Random) -> MatrixMorphism:
    """A permutation unitary: a product of random basis transpositions."""
    image = list(range(n))
    for _ in range(rng.randrange(1, 2 * n + 2)):
        i, j = rng.randrange(n), rng.randrange(n)
        image[i], image[j] = image[j], image[i]
    m = MatrixMorphism.zeros(tag, n, n)
    unit = one(tag).value
    for j, i in enumerate(image):
        m.data[i, j] = unit
    return m
