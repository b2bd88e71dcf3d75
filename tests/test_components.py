"""Elimination per column component against whole-matrix elimination.

``linalg._echelon`` splits a matrix of more than ``_SPLIT_MIN_ENTRIES``
entries (nonzero rows times columns) into the connected components of its
column graph (two columns are joined when one row holds both) and reduces
each component's rows on their own.  RREF is unique, so the pivots and rows must be exactly those of one
elimination of the whole matrix.  The inputs are seeded random
block-diagonal matrices under random row and column permutations, with zero
rows, zero columns and single-column components (which the singleton peel
takes before any split), over Q and F_5, split at
the default size and at every size; the references are ``_rref_mod`` run
once over the whole matrix and the dense sweeps of ``oracles``.
"""

import random
from fractions import Fraction

import pytest

from mrbder import linalg
from mrbder.fields import Field, QQ
from mrbder.linalg import Matrix, _partition, kernel_rref, rank_and_kernel, rref_vectors

from oracles import dense_rank_and_kernel, dense_rref_vectors, densified
from test_kernel_rref import assert_sparse_rref

F5 = Field.prime(5)
FIELDS = {"Q": QQ, "F5": F5}
SPLIT_ABOVE = {"default": linalg._SPLIT_MIN_ENTRIES, "any": 0}


@pytest.fixture
def split_any_size(monkeypatch):
    """Matrices of every size split into their components."""
    monkeypatch.setattr(linalg, "_SPLIT_MIN_ENTRIES", 0)


def block_diagonal(rng, F, blocks, zero_rows=0, zero_cols=0, entry=None):
    """A random matrix whose rows and columns, after a random permutation of
    each, are the blocks of the given (rows, columns, density) shapes down
    the diagonal, with ``zero_rows`` zero rows and ``zero_cols`` zero
    columns; ``entry(rng)`` draws a nonzero entry (``F.random`` by default).
    Returns the matrix and the number of components that hold a nonzero."""
    draw = entry or (lambda r: F.random(r))
    nr = sum(b[0] for b in blocks) + zero_rows
    nc = sum(b[1] for b in blocks) + zero_cols
    rperm, cperm = rng.sample(range(nr), nr), rng.sample(range(nc), nc)
    rows = [[F.zero] * nc for _ in range(nr)]
    r0 = c0 = live = 0
    for br, bc, density in blocks:
        cells = [(i, j) for i in range(br) for j in range(bc) if rng.random() < density]
        for i, j in cells:
            x = draw(rng)
            rows[rperm[r0 + i]][cperm[c0 + j]] = F.one if F.is_zero(x) else x
        # a block's nonzeros need not join all its columns
        live += bool(cells)
        r0, c0 = r0 + br, c0 + bc
    return Matrix(F, tuple(map(tuple, rows))), live


def whole_matrix_rref(F, m):
    """(RREF rows, pivots) over F_p from one ``_rref_mod`` over all columns."""
    work = [[x % F.p for x in row] for row in m.rows if any(row)]
    pivots, _ = linalg._rref_mod(F.p, work)
    return [tuple(work[k]) for k in range(len(pivots))], pivots


def assert_matches_whole(m):
    F = m.field
    assert rank_and_kernel(m) == dense_rank_and_kernel(m)
    assert rref_vectors(F, m.rows) == dense_rref_vectors(F, m.rows)
    want = dense_rref_vectors(F, dense_rank_and_kernel(m)[1])
    basis, pivots = kernel_rref(m)
    assert_sparse_rref(F, basis, pivots)
    got = (densified(F, basis, m.ncols), pivots)
    assert got == want and repr(got) == repr(want)
    if F.p is not None:
        assert rref_vectors(F, m.rows) == whole_matrix_rref(F, m)


# (blocks as (rows, columns, density), zero rows, zero columns)
SHAPES = [
    ([(3, 4, 0.8), (2, 2, 1.0), (4, 3, 0.6)], 0, 0),
    ([(1, 1, 1.0)] * 5, 2, 1),                     # single-column components
    ([(5, 5, 0.4), (1, 1, 1.0), (6, 2, 0.7), (2, 6, 0.7)], 3, 2),
    ([(4, 3, 1.0), (3, 4, 1.0), (1, 6, 1.0), (6, 1, 1.0)], 1, 0),
    ([(8, 6, 0.3), (7, 5, 0.3), (2, 3, 0.5), (3, 2, 0.5)], 4, 3),
    ([(2, 2, 0.0), (3, 3, 1.0)], 2, 2),            # an empty block
    ([(6, 5, 0.5)] * 4 + [(1, 1, 1.0)] * 190, 3, 2),  # split at the default size
]


@pytest.mark.parametrize("split", SPLIT_ABOVE)
@pytest.mark.parametrize("field", ["Q", "F5"])
@pytest.mark.parametrize("k", range(len(SHAPES)))
def test_block_diagonal_matches_the_whole_matrix(field, k, split, monkeypatch):
    monkeypatch.setattr(linalg, "_SPLIT_MIN_ENTRIES", SPLIT_ABOVE[split])
    F = FIELDS[field]
    blocks, zero_rows, zero_cols = SHAPES[k]
    for seed in range(4):
        rng = random.Random(100 * k + seed)
        m, live = block_diagonal(rng, F, blocks, zero_rows, zero_cols)
        A = [(r, r.values()) for r in m.sparse_rows if r]
        labels = _partition(A, m.ncols)[0]
        # each block with a nonzero is one component or more
        if len(A) * m.ncols > SPLIT_ABOVE[split] and live > 1:
            assert len(set(labels)) >= live
        if k == len(SHAPES) - 1:
            assert len(A) * m.ncols > linalg._SPLIT_MIN_ENTRIES and labels is not None
        assert_matches_whole(m)


@pytest.mark.parametrize("field", ["Q", "F5"])
def test_empty_and_zero_matrices(field):
    F = FIELDS[field]
    for m in (Matrix.zeros(F, 0, 0), Matrix.zeros(F, 4, 0), Matrix.zeros(F, 0, 5),
              Matrix.zeros(F, 3, 4), Matrix.from_sparse(F, [{}, {}], 3)):
        assert_matches_whole(m)


def test_q_components_that_need_several_primes(monkeypatch, split_any_size):
    # 40-bit numerators and denominators: no single prime below 2**30 can
    # reconstruct the RREF, so the components are reduced once per prime
    primes = []
    rref_mod = linalg._rref_mod

    def spy(p, rows):
        primes.append(p)
        return rref_mod(p, rows)

    monkeypatch.setattr(linalg, "_rref_mod", spy)
    def big(r):
        return Fraction(r.randrange(1, 2**40), r.randrange(1, 2**40))

    # full blocks with two columns or more: no row is a singleton, so the
    # peel leaves all four components to the primes
    rng = random.Random(7)
    m, live = block_diagonal(rng, QQ, [(3, 4, 1.0), (4, 3, 1.0), (2, 2, 1.0), (2, 2, 1.0)],
                             zero_rows=2, zero_cols=1, entry=big)
    labels = _partition([(r, r.values()) for r in m.sparse_rows if r], m.ncols)[0]
    assert live == 4 and len(set(labels)) == 4
    del primes[:]
    assert rank_and_kernel(m) == dense_rank_and_kernel(m)
    # four components per prime, one partition for all of them
    assert len(set(primes)) > 1 and len(primes) == 4 * len(set(primes))
    assert_matches_whole(m)


class Untouchable:
    """Columns that fail when read: a row the scan must never reach."""

    def __iter__(self):
        raise AssertionError("the scan went past the row that joined every column")


def test_one_component_stops_the_scan(split_any_size):
    # the first row joins every column; the rest are not read, and the
    # matrix keeps its rows and columns as they are
    A = [([0, 1, 2, 3], [1, 2, 3, 4]), (Untouchable(), [])]
    labels, rows, members = _partition(A, 4)
    assert labels is None and rows is A and list(members[0]) == [0, 1, 2, 3]
    # one component that a later row completes, and one with an unused column
    A = [([0, 1], [1, 1]), ([2, 3], [1, 1]), ([1, 2], [1, 1])]
    assert _partition(A, 4)[0] is None
    A = [([0, 2], [1, 1]), ([2], [1])]
    labels, rows, members = _partition(A, 3)
    assert labels is None and rows is A


def test_components_are_renumbered_in_increasing_order(split_any_size):
    A = [([4, 1], [1, 2]), ([3], [5]), ([1, 0], [3, 4])]
    labels, rows, members = _partition(A, 5)
    assert labels[0] == labels[2] != labels[1]
    assert sorted(members[k] for k in set(labels)) == [[0, 1, 4], [3]]
    assert rows == [([2, 1], [1, 2]), ([0], [5]), ([1, 0], [3, 4])]


def test_small_matrices_are_not_scanned(monkeypatch):
    # a matrix of at most _SPLIT_MIN_ENTRIES entries (nonzero rows times
    # columns) is reduced whole without a scan; one entry more and it is split
    size = linalg._SPLIT_MIN_ENTRIES
    A = [(Untouchable(), [])]
    assert _partition(A, size) == (None, A, [range(size)])
    A = [([4, 1], [1, 2]), ([3], [5]), ([1, 0], [3, 4])]
    monkeypatch.setattr(linalg, "_SPLIT_MIN_ENTRIES", 14)
    assert sorted(_partition(A, 5)[2].values()) == [[0, 1, 4], [3]]
    monkeypatch.setattr(linalg, "_SPLIT_MIN_ENTRIES", 15)
    assert _partition(A, 5) == (None, A, [range(5)])


@pytest.mark.parametrize("field", ["Q", "F5"])
def test_one_component_matrix(field, monkeypatch, split_any_size):
    # a dense matrix is one component: each prime reduces all its columns at once
    F = FIELDS[field]
    m, _ = block_diagonal(random.Random(3), F, [(6, 5, 1.0)], zero_rows=1)
    widths = []
    rref_mod = linalg._rref_mod

    def spy(p, rows):
        widths.append(len(rows[0]))
        return rref_mod(p, rows)

    monkeypatch.setattr(linalg, "_rref_mod", spy)
    assert rank_and_kernel(m) == dense_rank_and_kernel(m)
    assert widths and set(widths) == {5}
    assert_matches_whole(m)
