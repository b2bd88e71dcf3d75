"""The elimination in ``mrbder.linalg`` against the dense reference in ``oracles``.

RREF is unique, so reducing only over nonzeros must leave every pivot and
every entry exactly where the dense sweep leaves them.
"""

import random
from fractions import Fraction

import pytest

from mrbder.fields import Field, QQ
from mrbder.linalg import Matrix, rank_and_kernel, rref, rref_vectors, solve_linear

from oracles import (dense_inverse, dense_rank_and_kernel, dense_rref, dense_rref_vectors,
                     dense_solve_linear)

F5 = Field.prime(5)


def random_rows(rng, F, nr, nc, density, rank=None, zero_rows=0, fresh_zeros=False):
    """An nr x nc matrix (as lists) with about ``density`` of its entries
    drawn at random, of rank at most ``rank`` when given, with ``zero_rows``
    zero rows spread through it.  ``fresh_zeros`` makes every zero over Q a
    separate Fraction object rather than the field's shared zero."""
    def entry():
        return F.random(rng) if rng.random() < density else F.zero

    if rank is None:
        rows = [[entry() for _ in range(nc)] for _ in range(nr)]
    else:
        a = Matrix.from_rows(F, [[entry() for _ in range(rank)] for _ in range(nr)])
        b = Matrix.from_rows(F, [[entry() for _ in range(nc)] for _ in range(rank)])
        rows = [list(r) for r in (a * b).rows]
    for _ in range(zero_rows):
        rows.insert(rng.randrange(len(rows) + 1), [F.zero] * nc)
    if fresh_zeros and F.is_rational:
        rows = [[Fraction(0) if F.is_zero(x) else x for x in r] for r in rows]
    return rows


# (rows, columns, density, rank bound, zero rows, fresh zeros)
SHAPES = [
    (6, 9, 1.0, None, 0, False),       # dense, full rank
    (9, 6, 1.0, None, 0, False),
    (12, 15, 0.15, None, 0, False),    # sparse
    (15, 12, 0.1, None, 3, False),     # sparse, zero rows
    (10, 10, 1.0, 4, 0, False),        # dense, rank-deficient
    (14, 11, 0.3, 5, 2, False),        # sparse, rank-deficient, zero rows
    (12, 12, 0.2, 6, 1, True),         # zeros that are not the shared object
    (8, 8, 1.0, None, 0, True),
    (1, 1, 1.0, None, 0, False),
    (1, 1, 0.0, None, 0, False),
    (4, 0, 1.0, None, 0, False),       # n x 0
    (0, 5, 1.0, None, 0, False),       # 0 x n
]
CASES = [(f, k) for f in ("Q", "F5") for k in range(len(SHAPES))]
FIELDS = {"Q": QQ, "F5": F5}


def cases(field, k):
    """(field, rng, rows) for three seeded draws of shape k."""
    F = FIELDS[field]
    nr, nc, density, rank, zero_rows, fresh = SHAPES[k]
    for seed in (1, 2, 3):
        rng = random.Random(1000 * k + seed)
        yield F, rng, random_rows(rng, F, nr, nc, density, rank, zero_rows, fresh)


@pytest.mark.parametrize("field,k", CASES)
def test_rref_and_rref_vectors(field, k):
    for F, _, rows in cases(field, k):
        got, want = [r[:] for r in rows], [r[:] for r in rows]
        assert rref(F, got) == dense_rref(F, want)
        assert got == want
        assert rref_vectors(F, [tuple(r) for r in rows]) == dense_rref_vectors(F, rows)


@pytest.mark.parametrize("field,k", CASES)
def test_kernel_and_solve(field, k):
    for F, rng, rows in cases(field, k):
        m = Matrix(F, tuple(tuple(r) for r in rows))
        assert rank_and_kernel(m) == dense_rank_and_kernel(m)
        # one right-hand side in the column space, one drawn at random
        x = [F.random(rng) for _ in range(m.ncols)]
        for b in (m.apply(x), tuple(F.random(rng) for _ in range(m.nrows))):
            assert solve_linear(m, b) == dense_solve_linear(m, b)


@pytest.mark.parametrize("field,k", CASES)
def test_inverse(field, k):
    # the leading square block
    for F, _, rows in cases(field, k):
        n = min(len(rows), SHAPES[k][1])
        m = Matrix(F, tuple(tuple(r[:n]) for r in rows[:n]))
        try:
            want = dense_inverse(m)
        except ValueError:
            with pytest.raises(ValueError, match="singular"):
                m.inverse()
            continue
        assert m.inverse() == want
