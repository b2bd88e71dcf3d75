"""The packed integer product ``Matrix.__mul__`` against the entry-by-entry
reference ``oracles.dense_matmul``, over Q and F_5.

Every comparison is by ``repr``, so the entries, their types and the shape
all have to match, not only the values.
"""

import random
from fractions import Fraction

import pytest

from mrbder.fields import Field, QQ
from mrbder.linalg import Matrix, ShapeError, _digit_width

from oracles import dense_matmul

F5 = Field(5)
FIELDS = [pytest.param(QQ, id="Q"), pytest.param(F5, id="F5")]
# pairwise coprime denominators, so the lcm of a row grows with every entry
DENOMINATORS = (1, 3, 7, 11, 13, 2**61 - 1, 10**9 + 7)


def big_entry(rng, F):
    """About 2**100 in size over Q, with either sign; a residue over F_5."""
    if F.p is not None:
        return rng.randrange(1, F.p)
    return Fraction(rng.randrange(-2**100, 2**100) or 1, rng.choice(DENOMINATORS))


def random_matrix(rng, F, nr, nc, density):
    return Matrix.from_rows(F, [[big_entry(rng, F) if rng.random() < density else F.zero
                                 for _ in range(nc)] for _ in range(nr)])


def sparse_copy(m):
    """The same matrix made from sparse rows."""
    return Matrix.from_sparse(m.field, [dict(r) for r in m.sparse_rows], m.ncols)


def assert_same_product(a, b):
    want = repr(dense_matmul(a, b))
    assert repr(a * b) == want
    assert repr(sparse_copy(a) * sparse_copy(b)) == want


@pytest.mark.parametrize("F", FIELDS)
@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("nr, nk, nc, left, right", [
    (1, 1, 1, 1.0, 1.0),
    (4, 5, 3, 1.0, 1.0),        # dense x dense
    (12, 30, 9, 0.08, 1.0),     # sparse x dense
    (9, 30, 12, 1.0, 0.08),     # dense x sparse
    (20, 25, 15, 0.1, 0.1),     # sparse x sparse, with zero rows and columns
])
def test_random_products(F, seed, nr, nk, nc, left, right):
    rng = random.Random(seed)
    assert_same_product(random_matrix(rng, F, nr, nk, left), random_matrix(rng, F, nk, nc, right))


@pytest.mark.parametrize("F", FIELDS)
def test_zero_rows_and_columns(F):
    rng = random.Random(5)
    a = random_matrix(rng, F, 6, 7, 0.7)
    b = random_matrix(rng, F, 7, 5, 0.7)
    z = F.zero
    a = Matrix(F, tuple(r if i % 2 else (z,) * 7 for i, r in enumerate(a.rows)))
    b = Matrix(F, tuple(tuple(z if j in (0, 3) else x for j, x in enumerate(r)) for r in b.rows))
    assert_same_product(a, b)
    assert_same_product(Matrix.zeros(F, 3, 5), b.transpose())
    assert (a * Matrix.zeros(F, 7, 2)).is_zero()


@pytest.mark.parametrize("F", FIELDS)
def test_empty_shapes(F):
    rng = random.Random(6)
    n_by_0 = Matrix(F, ((),) * 3)
    no_rows = Matrix(F, ())           # a matrix with no rows has no columns
    a = random_matrix(rng, F, 2, 3, 1.0)
    for x, y in ((n_by_0, no_rows), (no_rows, no_rows), (a, n_by_0)):
        assert_same_product(x, y)
    assert ((a * n_by_0).nrows, (a * n_by_0).ncols) == (2, 0)
    assert ((n_by_0 * no_rows).nrows, (n_by_0 * no_rows).ncols) == (3, 0)
    with pytest.raises(ShapeError):
        no_rows * a


@pytest.mark.parametrize("F", FIELDS)
def test_products_that_cancel(F):
    # D_{n+1} D_n = 0 in the form a product check meets it: each entry of the
    # integer product is a sum that cancels (over F_5, only mod 5)
    rng = random.Random(7)
    a = random_matrix(rng, F, 8, 6, 0.5)
    b = random_matrix(rng, F, 6, 5, 0.5)
    neg = Matrix(F, tuple(tuple(F.neg(x) for x in r) for r in b.rows))
    stacked = Matrix(F, tuple(r + r for r in a.rows))
    assert (stacked * Matrix(F, b.rows + neg.rows)).is_zero()


@pytest.mark.parametrize("F", FIELDS)
@pytest.mark.parametrize("k", [1, 2, 3, 4, 8, 9])
def test_digits_at_the_edge_of_the_width(F, k):
    # widths of 8, 16, 32 and 64 bits are read as machine words, 24 and 72
    # bits byte by byte.  With |entry| <= bound = 2**(8k-1) - 1 the width is
    # w = 8k bits, and entries of +-(2**(w-1) - 1), the largest a digit holds,
    # sit next to each other, so a borrow out of one digit reaches the next.
    w = 8 * k
    x, y = 2**(w - 2), 2**(w - 2) - 1
    assert _digit_width(x + y) == w and _digit_width(x + y + 1) == w + 8
    one, minus = F.from_int(1), F.from_int(-1)
    right = Matrix.from_rows(F, [[one, minus, one, F.zero, minus],
                                 [one, minus, minus, F.zero, one]])
    for left_row in ((x, y), (x, x), (-x, -y)):
        # (x, x) gives entries of exactly +-2**(w-1), which need one byte more
        left = Matrix.from_rows(F, [[F.from_int(v) for v in left_row],
                                    [F.from_int(v) for v in reversed(left_row)]])
        assert_same_product(left, right)
    if F.p is None:
        got = (Matrix.from_rows(F, [[F.from_int(x), F.from_int(y)]]) * right).rows[0]
        assert got == (2**(w - 1) - 1, 1 - 2**(w - 1), 1, 0, -1)
