"""Matrix sums, differences, negatives and multiples on the stored pair.

``+``, ``-``, unary ``-``, ``scale``, ``scalar`` and ``identity`` read and
write a matrix's (scale, {column: nonzero int} rows) pair alone.  Each
result must equal the entry-by-entry oracle (``oracles.entrywise``, one
field operation per dense entry), read the same dense rows, and store the
pair a matrix made from those dense rows stores: the least scale, scale 1
for a zero matrix, canonical residues over F_p, and each row's keys in
increasing column order.  The cases run over Q, F_5 and F_p with
p = 2**61 - 1, on shapes from 0 x 0 to 4 x 4, with operands stored at the
least scale and above it (products, block sums, ints over a scale with a
common factor), sums that cancel to zero, c = 0, 1, -1 and a non-unit
fraction, and chains of seven sums and differences.
"""

import functools
import random
from fractions import Fraction

import pytest

from mrbder.fields import Field, QQ
from mrbder.linalg import Matrix, ShapeError

from oracles import dense_scalar, entrywise

P61 = 2**61 - 1
FIELDS = [pytest.param(QQ, id="Q"), pytest.param(Field(5), id="F5"),
          pytest.param(Field(P61), id="F2^61-1")]
SHAPES = [(nr, nc) for nr in range(5) for nc in range(5) if nr or not nc]


def layout(m: Matrix) -> tuple:
    """The stored pair with each row's (column, int) items in key order."""
    scale, rows = m.int_rows()
    return scale, [list(r.items()) for r in rows]


def assert_same(got: Matrix, want: Matrix):
    """``got`` is ``want``: equal, the same dense rows, and stored as the
    dense constructor stores those rows."""
    assert got == want
    assert got.rows == want.rows
    assert layout(got) == layout(Matrix.from_rows(got.field, got.rows)) == layout(want)
    assert got.ncols == want.ncols and got.nrows == want.nrows


def value(F, rng):
    """A random field value, zero about a third of the time."""
    if rng.random() < 0.35:
        return F.zero
    if F.p is None:
        return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6)))
    return rng.randrange(F.p)


def operands(F, rng, nr, nc) -> list:
    """Matrices of shape nr x nc, made in ways that store them at the least
    scale and above it."""
    def dense():
        return Matrix(F, tuple(tuple(value(F, rng) for _ in range(nc)) for _ in range(nr)))

    out = [dense(), dense()]
    if nr:
        k = rng.randint(1, 3)
        left = Matrix(F, tuple(tuple(value(F, rng) for _ in range(k)) for _ in range(nr)))
        right = Matrix(F, tuple(tuple(value(F, rng) for _ in range(nc)) for _ in range(k)))
        out.append(left * right)
        # ints over a scale with a common factor: 6 x / 12
        ints = [{j: 6 * rng.randint(-5, 5) or 6 for j in range(nc) if rng.random() < 0.6}
                for _ in range(nr)]
        out.append(Matrix.from_ints(F, ints, 12, nc))
    if nr >= 2 and nc >= 2:
        top, bottom = nr // 2, nr - nr // 2
        a = Matrix(F, tuple(tuple(value(F, rng) for _ in range(nc // 2)) for _ in range(top)))
        b = Matrix(F, tuple(tuple(value(F, rng) for _ in range(nc - nc // 2)) for _ in range(bottom)))
        out.append(a.block_diag(b))
    return out


def multiples(F) -> list:
    """c = 0, 1, -1, a non-unit fraction and a fraction with a large part."""
    return [F.zero, F.one, F.from_int(-1), F.parse("-3/4"), F.parse("10/9"), F.parse("2")]


@pytest.mark.parametrize("F", FIELDS)
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "%dx%d" % s)
def test_sums_negatives_and_multiples_match_the_oracle(F, shape):
    rng = random.Random(10 * shape[0] + shape[1])
    ms = operands(F, rng, *shape)
    for a in ms:
        assert_same(-a, entrywise(F.neg, a))
        for c in multiples(F):
            assert_same(a.scale(c), entrywise(functools.partial(F.mul, c), a))
        for b in ms:
            assert_same(a + b, entrywise(F.add, a, b))
            assert_same(a - b, entrywise(F.sub, a, b))


@pytest.mark.parametrize("F", FIELDS)
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "%dx%d" % s)
def test_cancelling_sums_store_zero_at_scale_one(F, shape):
    rng = random.Random(7)
    for a in operands(F, rng, *shape):
        for zero in (a - a, a + (-a), -a + a, a.scale(F.zero), a + a.scale(F.from_int(-1))):
            assert zero.is_zero() and zero.int_rows()[0] == 1
            assert_same(zero, Matrix.zeros(F, *shape))


@pytest.mark.parametrize("F", FIELDS)
def test_chains_of_seven_sums(F):
    rng = random.Random(11)
    for shape in ((1, 1), (2, 3), (3, 3), (4, 2)):
        for _ in range(6):
            terms = [rng.choice(operands(F, rng, *shape)) for _ in range(8)]
            signs = [rng.choice((1, -1)) for _ in range(7)]
            got = want = terms[0]
            for t, sign in zip(terms[1:], signs):
                got = got + t if sign > 0 else got - t
                want = entrywise(F.add if sign > 0 else F.sub, want, t)
                assert_same(got, want)
            # a chain back to its start, which may be stored above its least scale
            back = got
            for t, sign in zip(reversed(terms[1:]), reversed(signs)):
                back = back - t if sign > 0 else back + t
            assert_same(back, Matrix.from_rows(F, terms[0].rows))


@pytest.mark.parametrize("F", FIELDS)
def test_identity_and_scalar(F):
    for n in range(5):
        assert_same(Matrix.identity(F, n), dense_scalar(F, n, F.one))
        for c in multiples(F):
            assert_same(Matrix.scalar(F, n, c), dense_scalar(F, n, c))


@pytest.mark.parametrize("F", FIELDS)
def test_a_shape_mismatch_is_refused(F):
    a, b = Matrix.zeros(F, 2, 3), Matrix.zeros(F, 3, 2)
    for op in (lambda: a + b, lambda: a - b, lambda: a + Matrix.zeros(F, 0, 0)):
        with pytest.raises(ShapeError):
            op()
