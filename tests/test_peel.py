"""Singleton peeling in ``linalg._echelon`` against the dense sweeps of ``oracles``.

Before it reduces anything, ``_echelon`` peels singleton rows: a row whose
one nonzero is at column c puts e_c in the row space, so c is a pivot whose
RREF row is e_c, and c is deleted from every other row.  Rows left with one
nonzero are peeled in turn, and rows left with none are dropped.  The rows
left over are reduced on the columns they touch, renumbered from 0.  RREF
is unique, so ``rank_and_kernel``, ``kernel_rref``, ``solve_linear`` and
``rref_vectors`` must give exactly what the dense sweeps give, value for
value and type for type, over Q, F_5 and F_p with p = 2**61 - 1, with every
matrix reduced whole and with every matrix split into column components.

The inputs peel in each way: a cascade of singletons, two singletons in one
column, rows emptied by the peel, a matrix peeled whole, a matrix with no
singleton, random rows of one to three nonzeros, and a right-hand side whose
singleton lands in the B block of ``_solve_block``, which must find no
solution.  ``_peel`` itself is held to a rescan that deletes one singleton
column at a time.

Spies pin the design: on the standard-basis dual+dual D_3 no peeled row
reaches ``_rref_mod``; over Q ``_certified`` sees the columns of the rows
left over, one column component at a time, and never a peeled column; and
the integer rows of a matrix are the same after ``kernel_rref`` and
``solve_linear`` as before.
"""

import random

import pytest

from mrbder import linalg
from mrbder.cohomology import differential_matrix
from mrbder.constructions import direct_sum
from mrbder.fields import Field, QQ
from mrbder.linalg import Matrix, kernel_rref, rank_and_kernel, rref_vectors, solve_linear
from mrbder.structures import adjoint_bimodule, dual_pair

from oracles import dense_rank_and_kernel, dense_rref_vectors, dense_solve_linear, densified
from test_kernel_rref import assert_sparse_rref

FIELDS = [pytest.param(QQ, id="Q"), pytest.param(Field(5), id="F5"),
          pytest.param(Field(2**61 - 1), id="F2^61-1")]
SPLIT_ABOVE = {"whole": 10**9, "split": 0}


def draw(rng):
    """A nonzero int that stays nonzero mod 5 and mod 2**61 - 1."""
    return rng.choice((1, -1)) * rng.choice((1, 2, 3, 4, 6, 7, 2**40 + 1))


def full(rng, rows, cols):
    return [{j: draw(rng) for j in cols} for _ in range(rows)]


def chain(rng, cols):
    """A singleton at cols[0], then one row for each next column that holds
    it and the column before: peeling the first row peels them all."""
    return [{cols[0]: draw(rng)}] + [{a: draw(rng), b: draw(rng)} for a, b in zip(cols, cols[1:])]


def cascade(rng):
    # a cascade of six, a row that it leaves with two nonzeros, and a block
    # of rows with no singleton
    return chain(rng, range(6)) + [{5: draw(rng), 6: draw(rng), 7: draw(rng)}] + full(rng, 3, range(6, 11)), 11


def same_column(rng):
    # two singletons in column 0, and a row that column 0 joins to the rest
    return [{0: draw(rng)}, {0: draw(rng)}, {0: draw(rng), 1: draw(rng), 2: draw(rng)}] + full(rng, 3, range(1, 5)), 5


def emptied(rng):
    # rows that the peel empties: they are dependent
    rows = [{0: draw(rng)}, {1: draw(rng)}, {0: draw(rng), 1: draw(rng)}, {0: draw(rng)},
            {1: draw(rng), 2: draw(rng), 3: draw(rng)}]
    return rows + full(rng, 2, range(2, 6)), 6


def whole(rng):
    # every row peeled or emptied, and two columns no row holds
    rows = chain(rng, range(5)) + [{0: draw(rng), 2: draw(rng)}, {1: draw(rng), 3: draw(rng), 4: draw(rng)}]
    return rows, 7


def no_singleton(rng):
    return full(rng, 4, range(5)) + [{1: draw(rng), 3: draw(rng)}], 5


def sparse(rng):
    # rows of one to three nonzeros, as a D_n in the standard basis has them
    return [{j: draw(rng) for j in rng.sample(range(12), rng.choice((1, 1, 2, 3)))}
            for _ in range(16)], 12


KINDS = {f.__name__: f for f in (cascade, same_column, emptied, whole, no_singleton, sparse)}


def shuffled(rng, rows, nc, zero_rows=2):
    """The rows with their columns permuted, their order shuffled, their
    keys in random order and ``zero_rows`` zero rows put in."""
    perm = rng.sample(range(nc), nc)
    out = []
    for row in rows:
        items = [(perm[j], v) for j, v in row.items()]
        rng.shuffle(items)
        out.append(dict(items))
    out += [{} for _ in range(zero_rows)]
    rng.shuffle(out)
    return out


def made(F, kind, seed):
    rng = random.Random(seed)
    rows, nc = KINDS[kind](rng)
    return Matrix.from_ints(F, shuffled(rng, rows, nc), rng.choice((1, 6)), nc), rng


def rescan_peel(rows):
    """(peeled columns, rows left) by rescans that delete one singleton
    column at a time, the rows left keeping their own column numbers."""
    rows, peeled = [r for r in rows if r], set()
    while (single := next((r for r in rows if len(r) == 1), None)) is not None:
        (c,) = single
        peeled.add(c)
        rows = [r for r in ({j: v for j, v in r.items() if j != c} for r in rows) if r]
    return peeled, rows


def assert_matches_dense(m, rng):
    F = m.field
    assert rank_and_kernel(m) == dense_rank_and_kernel(m)
    got, want = rref_vectors(F, m.rows), dense_rref_vectors(F, m.rows)
    assert got == want and repr(got) == repr(want)
    basis, pivots = kernel_rref(m)
    assert_sparse_rref(F, basis, pivots)
    got = (densified(F, basis, m.ncols), pivots)
    want = dense_rref_vectors(F, dense_rank_and_kernel(m)[1])
    assert got == want and repr(got) == repr(want)
    x = [F.from_int(rng.randrange(-3, 4)) for _ in range(m.ncols)]
    for b in (m.apply(x), tuple(F.from_int(rng.randrange(-3, 4)) for _ in range(m.nrows))):
        got, want = solve_linear(m, b), dense_solve_linear(m, b)
        assert got == want and repr(got) == repr(want)


@pytest.mark.parametrize("split", SPLIT_ABOVE)
@pytest.mark.parametrize("F", FIELDS)
@pytest.mark.parametrize("kind", KINDS)
def test_peeled_elimination_matches_the_dense_sweep(kind, F, split, monkeypatch):
    monkeypatch.setattr(linalg, "_SPLIT_MIN_ENTRIES", SPLIT_ABOVE[split])
    for seed in range(4):
        assert_matches_dense(*made(F, kind, seed))


@pytest.mark.parametrize("F", FIELDS)
@pytest.mark.parametrize("kind", KINDS)
def test_peel_matches_the_rescan(kind, F):
    for seed in range(4):
        m, _ = made(F, kind, seed)
        rows = [r for r in m.int_rows()[1] if r]
        (got, rest, cols), (peeled, left) = linalg._peel(rows, m.ncols), rescan_peel(rows)
        singles = [next(iter(r)) for r in rows if len(r) == 1]
        assert got == sorted(peeled)
        assert cols == sorted({c for r in left for c in r})
        assert rest == [{cols.index(c): v for c, v in r.items()} for r in left]
        dropped = len(rows) - len(rest) - len(got)
        if kind == "no_singleton":
            # every row goes on, renumbered like any rows left over (this
            # replaced a None that sent the rows on as they were)
            assert not singles and got == [] and len(rest) == len(rows)
        elif kind == "cascade":
            assert len(singles) == 1 and len(got) >= 6
        elif kind == "same_column":
            assert len(singles) > len(set(singles))
        elif kind in ("emptied", "whole"):
            assert dropped > 0
        if kind == "whole":
            assert rest == [] and cols == []


@pytest.mark.parametrize("split", SPLIT_ABOVE)
@pytest.mark.parametrize("F", FIELDS)
def test_a_singleton_in_the_b_block_has_no_solution(F, split, monkeypatch):
    monkeypatch.setattr(linalg, "_SPLIT_MIN_ENTRIES", SPLIT_ABOVE[split])
    one = F.one
    # a zero row of m with a nonzero right-hand side: [m | b] holds the
    # singleton e_n itself
    m = Matrix.from_ints(F, [{0: 2, 1: 3}, {}, {1: 1, 2: 4}], 1, 3)
    b = (one, one, one)
    assert solve_linear(m, b) is None and dense_solve_linear(m, b) is None
    assert solve_linear(m, (one, F.zero, one)) == dense_solve_linear(m, (one, F.zero, one))
    # a cascade through m ends in the B block: x_0 = 0 and x_1 = 0 from the
    # first two rows, so the third row reads 0 = 1
    m = Matrix.from_ints(F, [{0: 3}, {0: 2, 1: 7}, {1: 4, 0: 1}], 1, 2)
    b = (F.zero, F.zero, one)
    assert solve_linear(m, b) is None and dense_solve_linear(m, b) is None
    assert m.right_inverse() is None


def dual_dual_d3(F):
    dual = dual_pair(F)
    pair = direct_sum(dual, dual)
    return differential_matrix(pair, adjoint_bimodule(pair), 3, "pair")


@pytest.mark.parametrize("F", FIELDS)
def test_no_peeled_row_reaches_the_kernel(F, monkeypatch):
    # D_3 of dual+dual in the standard basis: 1174 nonzero rows of one to
    # three nonzeros, rank 320, and 162 of the pivots peeled.  The kernel
    # gets only the 344 rows the rescan leaves, each with two nonzeros or more
    m = dual_dual_d3(F)
    rows = [r for r in m.int_rows()[1] if r]
    peeled, left = rescan_peel(rows)
    assert (len(rows), len(peeled), len(left)) == (1174, 162, 344)
    calls = []
    rref_mod = linalg._rref_mod

    def spy(p, work):
        calls.append((p, len(work), min((sum(map(bool, r)) for r in work), default=2)))
        return rref_mod(p, work)

    monkeypatch.setattr(linalg, "_rref_mod", spy)
    for run in (rank_and_kernel, kernel_rref):
        del calls[:]
        out = run(m)
        assert len(out[1] if run is rank_and_kernel else out[0]) == m.ncols - 320
        first = calls[0][0]
        assert sum(n for p, n, _ in calls if p == first) == len(left)
        assert min(least for _, _, least in calls) >= 2


def test_the_certificate_sees_the_columns_left(monkeypatch):
    # over Q the certificate packs one integer per column it is given: the
    # remainder's 224 columns, not the 400 of D_3, of which 162 are peeled
    # pivots that the remainder would read as free.  It runs once per column
    # component (this replaced one certificate over the whole remainder), so
    # its calls hold each of the 344 rows and 224 columns once
    m = dual_dual_d3(QQ)
    rows = [r for r in m.int_rows()[1] if r]
    _, left = rescan_peel(rows)
    assert (len(left), len({c for r in left for c in r})) == (344, 224)
    seen = []
    certified = linalg._certified

    def spy(A, nc, pivots, values):
        seen.append((len(A), nc))
        assert {c for cols, _ in A for c in cols} == set(range(nc))
        return certified(A, nc, pivots, values)

    monkeypatch.setattr(linalg, "_certified", spy)
    rank_and_kernel(m)
    assert len(seen) > 1
    assert tuple(map(sum, zip(*seen))) == (344, 224)


@pytest.mark.parametrize("F", FIELDS)
@pytest.mark.parametrize("kind", KINDS)
def test_the_integer_rows_are_left_as_they_are(kind, F):
    m, rng = made(F, kind, 9)
    scale, rows = m.int_rows()
    before = scale, [list(r.items()) for r in rows]
    kernel_rref(m)
    rank_and_kernel(m)
    solve_linear(m, tuple(F.from_int(rng.randrange(-3, 4)) for _ in range(m.nrows)))
    m.right_inverse()
    assert m.int_rows()[1] is rows
    assert (m.int_rows()[0], [list(r.items()) for r in rows]) == before
