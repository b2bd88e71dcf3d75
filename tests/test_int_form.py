"""The integer form of a matrix, ``Matrix.from_ints``, against the same
values given to ``Matrix.from_sparse``, over Q, F_5 and F_p with
p = 2**61 - 1.

``from_ints(F, rows, scale, ncols)`` is rows / scale.  Over F_p it reduces
the rows to residues at once; over Q it keeps the ints and builds the
Fraction rows on first read, one Fraction per distinct int.  The two
matrices must agree on ``==``, ``hash`` and ``repr``, on the value types and
key order of ``sparse_rows`` and ``rows``, on the transpose, on products
through both inner loops, and on ``rank_and_kernel``, ``kernel_rref`` and
``solve_linear``.  The rows are drawn with their keys in random order, as
an assembled D_n has them, and with entries that vanish mod 5.
"""

import random
from fractions import Fraction

import pytest

from mrbder.fields import Field, QQ
from mrbder.linalg import Matrix, kernel_rref, rank_and_kernel, solve_linear

from test_product import assert_same_product, loops  # noqa: F401 (loops is a fixture)

P61 = 2**61 - 1
FIELDS = [pytest.param(QQ, id="Q"), pytest.param(Field(5), id="F5"),
          pytest.param(Field(P61), id="F2^61-1")]
# each prime to 5 and to 2**61 - 1
SCALES = (1, 6, 12, 2**64 + 3)


def random_ints(rng, nr, nc, density):
    """{column: nonzero int} rows, keys in random order, entries of both
    signs from 1 to about 2**80, some of them multiples of 5."""
    rows = []
    for _ in range(nr):
        cols = [j for j in range(nc) if rng.random() < density]
        rng.shuffle(cols)
        rows.append({j: rng.choice((1, -1)) * rng.choice((1, 2, 5, 10, rng.randrange(1, 2**80)))
                     for j in cols})
    return rows


def field_rows(F, rows, scale):
    """The values rows / scale in F, zeros left out, in the same key order."""
    if F.p is None:
        return [{j: Fraction(v, scale) for j, v in r.items()} for r in rows]
    k = pow(scale, -1, F.p)
    return [{j: x for j, v in r.items() if (x := v * k % F.p)} for r in rows]


def made(F, rows, scale, nc):
    """(from_ints, from_sparse) of the same values, each from its own copy."""
    return (Matrix.from_ints(F, [dict(r) for r in rows], scale, nc),
            Matrix.from_sparse(F, field_rows(F, rows, scale), nc))


def layout(rows):
    """Each entry with its key (sparse rows) and its type, in order."""
    if rows and isinstance(rows[0], dict):
        return [[(j, type(v), v) for j, v in r.items()] for r in rows]
    return [[(type(v), v) for v in r] for r in rows]


def cases():
    out = []
    for seed in range(6):
        rng = random.Random(seed)
        nr, nc = rng.randrange(0, 9), rng.randrange(1, 9)
        out.append(pytest.param(random_ints(rng, nr, nc, 0.45), rng.choice(SCALES), nc,
                                id="seed%d" % seed))
    return out


CASES = cases()


@pytest.mark.parametrize("F", FIELDS)
@pytest.mark.parametrize("rows, scale, nc", CASES)
def test_same_value_forms_and_transpose(F, rows, scale, nc):
    a, b = made(F, rows, scale, nc)
    assert a == b and b == a
    a, b = made(F, rows, scale, nc)
    assert hash(a) == hash(b) and repr(a) == repr(b)
    a, b = made(F, rows, scale, nc)
    assert a.is_zero() == b.is_zero() == (not any(field_rows(F, rows, scale)))
    assert (a.nrows, a.ncols) == (b.nrows, b.ncols)
    assert layout(a.sparse_rows) == layout(b.sparse_rows)
    assert layout(a.rows) == layout(b.rows)
    a, b = made(F, rows, scale, nc)
    ta, tb = a.transpose(), b.transpose()
    assert layout(ta.sparse_rows) == layout(tb.sparse_rows)
    assert repr(ta) == repr(tb) and ta == tb
    # the transpose of a matrix made from ints keeps its scale
    assert ta.int_rows()[0] == (scale if F.p is None else 1)


@pytest.mark.parametrize("F", FIELDS)
def test_the_integer_rows_are_kept(F):
    rows = [{2: 7, 0: 7}, {}, {1: -7, 0: 7}]
    a = Matrix.from_ints(F, rows, 3, 3)
    if F.p is None:
        assert a.int_rows() == (3, rows) and a.int_rows()[1] is rows
        # equal ints share one Fraction
        s = a.sparse_rows
        assert s[0][2] is s[0][0] is s[2][0] == Fraction(7, 3)
        assert a.int_rows()[1] is rows
        # the dense rows are read straight off the ints: they share one
        # Fraction per int, and no sparse Fraction rows are kept beside them
        b = Matrix.from_ints(F, rows, 3, 3)
        d = b.rows
        assert d[0][2] is d[0][0] is d[2][0] == Fraction(7, 3) and d[2][1] == Fraction(-7, 3)
        assert b._sparse is None and b.int_rows()[1] is rows
    else:
        assert a.int_rows()[0] == 1 and a.int_rows()[1] is a.sparse_rows
    # a later row that is nonzero over the integers, and zero mod 5 only
    assert Matrix.from_ints(F, [{}, {1: 5}], 1, 2).is_zero() == (F.p == 5)
    # a matrix not made from ints takes the lcm of its denominators as scale
    dense = Matrix.from_rows(F, [[F.parse("1/2"), F.zero], [F.parse("1/3"), F.parse("2")]])
    want = (6, [{0: 3}, {0: 2, 1: 12}]) if F.p is None else (1, dense.sparse_rows)
    assert dense.int_rows() == want


@pytest.mark.parametrize("F", FIELDS)
@pytest.mark.parametrize("per_row, loop", [(1, "walk"), (4, "packed")])
@pytest.mark.parametrize("seed", range(3))
def test_products_of_int_made_factors(F, per_row, loop, seed, loops):
    rng = random.Random(seed)
    nk, nc = 7, 6
    left, _ = made(F, random_ints(rng, 5, nk, 0.6), rng.choice(SCALES), nk)
    right_ints = [{j: rng.choice((1, -1)) * rng.randrange(1, 2**70)
                   for j in rng.sample(range(nc), per_row)} for _ in range(nk)]
    right, right_sparse = made(F, right_ints, rng.choice(SCALES), nc)
    assert repr(left * right) == repr(left * right_sparse)
    assert_same_product(left, right)
    assert set(loops) == {loop}


@pytest.mark.parametrize("p", [5, P61])
@pytest.mark.parametrize("per_row, loop", [(1, "walk"), (3, "packed")])
def test_a_product_zero_mod_p_but_not_over_the_integers(p, per_row, loop, loops):
    # each entry of the product is h + h + 1 = p, also after the lift to
    # least absolute value, which leaves h = (p - 1) / 2 as it is
    h = (p - 1) // 2
    a = [{0: 1, 1: 1, 2: 1}]
    b = [{j: v for j in range(per_row)} for v in (h, h, 1)]
    prod = Matrix.from_ints(Field(p), a, 1, 3) * Matrix.from_ints(Field(p), b, 1, per_row)
    assert prod.is_zero() and prod.sparse_rows == [{}]
    over_q = Matrix.from_ints(QQ, a, 1, 3) * Matrix.from_ints(QQ, b, 1, per_row)
    assert not over_q.is_zero()
    assert over_q.rows == ((Fraction(p),) * per_row,)
    assert loops == [loop, loop]


@pytest.mark.parametrize("F", FIELDS)
@pytest.mark.parametrize("rows, scale, nc", CASES)
def test_elimination_and_solving(F, rows, scale, nc):
    a, b = made(F, rows, scale, nc)
    assert rank_and_kernel(a) == rank_and_kernel(b)
    (va, pa), (vb, pb) = kernel_rref(a), kernel_rref(b)
    assert pa == pb and layout(va) == layout(vb)
    rng = random.Random(len(rows) + nc)
    x = [F.from_int(rng.randrange(-3, 4)) for _ in range(a.ncols)]
    consistent = b.apply(x)
    arbitrary = tuple(F.from_int(rng.randrange(-3, 4)) for _ in range(a.nrows))
    for rhs in (consistent, arbitrary):
        a, b = made(F, rows, scale, nc)
        got = solve_linear(a, rhs)
        assert got == solve_linear(b, rhs)
        assert got is None or [type(v) for v in got] == [type(F.zero)] * a.ncols
    assert solve_linear(a, consistent) is not None
