"""Elimination per column component against whole-matrix elimination.

``linalg._echelon`` splits a matrix of more than ``_SPLIT_MIN_ENTRIES``
entries (nonzero rows times columns) into the connected components of its
column graph (two columns are joined when one row holds both) and reduces
each component's rows on their own, over Q lifting each component through
its own primes.  RREF is unique, so the pivots and rows must be exactly
those of one elimination of the whole matrix.  The inputs are seeded random
block-diagonal matrices under random row and column permutations, with zero
rows, zero columns and single-column components (which the singleton peel
takes before any split), over Q and F_5, split at the default size and at
every size; the references are ``_rref_mod`` run once over the whole matrix
and the dense sweeps of ``oracles``.  Spies on ``_reduce`` pin the lift:
each component starts at its own first prime (the small prime above the
gate, the first prime below 2**30 at or below it), and a component of small
integers is done at one prime while one of 40-bit fractions takes several.
"""

import random
from fractions import Fraction
from itertools import islice

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
        parts = _partition(A, list(range(m.ncols)))
        # each block with a nonzero is one component or more
        if len(A) * m.ncols > SPLIT_ABOVE[split] and live > 1:
            assert len(parts) >= live
        if k == len(SHAPES) - 1:
            assert len(A) * m.ncols > linalg._SPLIT_MIN_ENTRIES and len(parts) > 1
        assert_matches_whole(m)


@pytest.mark.parametrize("field", ["Q", "F5"])
def test_empty_and_zero_matrices(field):
    F = FIELDS[field]
    for m in (Matrix.zeros(F, 0, 0), Matrix.zeros(F, 4, 0), Matrix.zeros(F, 0, 5),
              Matrix.zeros(F, 3, 4), Matrix.from_sparse(F, [{}, {}], 3)):
        assert_matches_whole(m)


def reductions(monkeypatch):
    """(component, prime) of each ``_reduce`` call from now on, a component
    being (the id of the rows it is given, their number)."""
    calls, real = [], linalg._reduce

    def spy(p, A, run, nc):
        calls.append(((id(A), len(A)), p))
        return real(p, A, run, nc)

    monkeypatch.setattr(linalg, "_reduce", spy)
    return calls


def primes_per_component(calls):
    """{component: its primes in the order drawn} of ``reductions`` calls."""
    out = {}
    for k, p in calls:
        out.setdefault(k, []).append(p)
    return out


def big(r):
    return Fraction(r.randrange(1, 2**40), r.randrange(1, 2**40))


def test_q_components_that_need_several_primes(monkeypatch):
    # 40-bit numerators and denominators: no single prime below 2**30 can
    # reconstruct the RREF.  Each component is lifted on its own (this
    # replaced one prime sequence shared by all components), so each draws
    # the primes below 2**30 in order, several of them.  The whole matrix
    # (11 x 11 after the peel) is split, and no component (at most 4 x 3)
    # is above the gate, so none starts at a small prime
    monkeypatch.setattr(linalg, "_SPLIT_MIN_ENTRIES", 12)
    rng = random.Random(7)
    # full blocks with two columns or more: no row is a singleton, so the
    # peel leaves all four components to the primes
    m, live = block_diagonal(rng, QQ, [(3, 4, 1.0), (4, 3, 1.0), (2, 2, 1.0), (2, 2, 1.0)],
                             zero_rows=2, zero_cols=1, entry=big)
    assert live == 4 and len(_partition([(r, r.values()) for r in m.sparse_rows if r],
                                        list(range(m.ncols)))) == 4
    calls = reductions(monkeypatch)
    assert rank_and_kernel(m) == dense_rank_and_kernel(m)
    runs = primes_per_component(calls)
    assert len(runs) == 4
    for primes in runs.values():
        assert primes == list(islice(linalg._primes(), len(primes)))
    # a block of rank 3 on 4 columns has a free column, and so several primes
    assert max(map(len, runs.values())) > 1
    assert_matches_whole(m)


def two_blocks(F, first, second):
    """The block-diagonal matrix over F of the rows ``first``, then the rows
    ``second`` on the columns after theirs, all entries in F."""
    w, z = len(first[0]), F.zero
    return Matrix(F, tuple([tuple(r) + (z,) * len(second[0]) for r in first]
                           + [(z,) * w + tuple(r) for r in second]))


def test_a_small_block_is_lifted_at_one_prime_and_a_large_one_at_several(monkeypatch):
    # 6 x 9 in all, split; blocks of 12 and 15 entries, each at or below
    # the gate, so both start at the first prime below 2**30
    monkeypatch.setattr(linalg, "_SPLIT_MIN_ENTRIES", 15)
    rng = random.Random(11)
    small = [[Fraction(rng.randrange(1, 9)) for _ in range(4)] for _ in range(3)]
    large = [[big(rng) for _ in range(5)] for _ in range(3)]
    m = two_blocks(QQ, small, large)
    calls = reductions(monkeypatch)
    assert rank_and_kernel(m) == dense_rank_and_kernel(m)
    (_, one), (_, several) = sorted(primes_per_component(calls).items(), key=lambda kv: len(kv[1]))
    assert one == [linalg._prime(0)]
    assert several == list(islice(linalg._primes(), len(several))) and len(several) > 2
    assert_matches_whole(m)


def rank_three(rng, nr, nc):
    """``nr`` rows of small ints on ``nc`` columns, of rank 3."""
    basis = [[rng.randrange(-4, 5) for _ in range(nc)] for _ in range(3)]
    coefficients = [[rng.randrange(-2, 3) for _ in basis] for _ in range(nr)]
    return [[sum(k * b[j] for k, b in zip(ks, basis)) for j in range(nc)] for ks in coefficients]


@pytest.mark.parametrize("field", ["Q", "F5"])
@pytest.mark.parametrize("gate", [20, 30])
def test_each_component_starts_at_its_own_first_prime(monkeypatch, field, gate):
    # a 6 x 5 block (30 entries) and a 3 x 4 one (12), 81 entries in all:
    # split at either gate.  Over Q a component above the gate starts at the
    # small prime, one at or below it at the first prime below 2**30; over
    # F_p every component is reduced at p alone
    F = FIELDS[field]
    rng = random.Random(gate)
    while True:
        large, small = ([[F.from_int(x) for x in r] for r in rank_three(rng, *shape)]
                        for shape in ((6, 5), (3, 4)))
        m = two_blocks(F, large, small)
        if all(len(r) > 1 for r in m.sparse_rows) and dense_rank_and_kernel(m)[0] == 6:
            break
    monkeypatch.setattr(linalg, "_SPLIT_MIN_ENTRIES", gate)
    calls = reductions(monkeypatch)
    assert rank_and_kernel(m) == dense_rank_and_kernel(m)
    runs = {rows: primes for (_, rows), primes in primes_per_component(calls).items()}
    if F.p is not None:
        assert runs == {6: [5], 3: [5]}
    else:
        # the scale is 1, so the small prime is 7
        assert (runs[6][0], runs[3][0]) == (7 if gate < 30 else linalg._prime(0), linalg._prime(0))
    assert_matches_whole(m)


class Untouchable:
    """Columns that fail when read: a row the scan must never reach."""

    def __iter__(self):
        raise AssertionError("the scan went past the row that joined every column")


def test_one_component_stops_the_scan(split_any_size):
    # the first row joins every column; the rest are not read, and the
    # matrix keeps its rows and columns as they are
    A, cols = [([0, 1, 2, 3], [1, 2, 3, 4]), (Untouchable(), [])], [2, 5, 6, 9]
    ((rows, own),) = _partition(A, cols)
    assert rows is A and own is cols
    # one component that a later row completes, and one with an unused column
    A = [([0, 1], [1, 1]), ([2, 3], [1, 1]), ([1, 2], [1, 1])]
    assert _partition(A, [0, 1, 2, 3]) == [(A, [0, 1, 2, 3])]
    A = [([0, 2], [1, 1]), ([2], [1])]
    ((rows, own),) = _partition(A, [0, 1, 2])
    assert rows is A and own == [0, 1, 2]


def test_components_are_renumbered_in_increasing_order(split_any_size):
    # each component's rows, renumbered onto its own columns, with those
    # columns named as in ``cols`` (this replaced one label per row)
    A = [([4, 1], [1, 2]), ([3], [5]), ([1, 0], [3, 4])]
    parts = _partition(A, [10, 11, 12, 13, 14])
    assert sorted(parts, key=lambda part: part[1]) == [
        ([([2, 1], [1, 2]), ([1, 0], [3, 4])], [10, 11, 14]), ([([0], [5])], [13])]
    assert _partition([], []) == []


def test_small_matrices_are_not_scanned(monkeypatch):
    # a matrix of at most _SPLIT_MIN_ENTRIES entries (nonzero rows times
    # columns) is reduced whole without a scan; one entry more and it is split
    size = linalg._SPLIT_MIN_ENTRIES
    A, cols = [(Untouchable(), [])], list(range(size))
    ((rows, own),) = _partition(A, cols)
    assert rows is A and own is cols
    A = [([4, 1], [1, 2]), ([3], [5]), ([1, 0], [3, 4])]
    monkeypatch.setattr(linalg, "_SPLIT_MIN_ENTRIES", 14)
    assert sorted(own for _, own in _partition(A, list(range(5)))) == [[0, 1, 4], [3]]
    monkeypatch.setattr(linalg, "_SPLIT_MIN_ENTRIES", 15)
    assert _partition(A, list(range(5))) == [(A, list(range(5)))]


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
