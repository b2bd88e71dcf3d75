"""The integer kernel ``linalg._rref_mod`` against Gauss-Jordan.

``_rref_mod`` reduces forward, each pivot only the rows that are not yet
pivot rows, and then back-substitutes from the last pivot to the first.
RREF is unique and the pivot rule is the same, so it must leave exactly
what the Gauss-Jordan reference ``oracles.gauss_jordan_rref_mod`` leaves:
the same pivots, the same ``order`` and the same rows in place, the RREF
rows in pivot order followed by the zero rows.  Checked here:

* seeded random matrices modulo 2, 5, 7, 13 and the first prime below
  2**30, of every shape up to 12 x 12 (no row, one row, more rows than
  columns), dense and sparse, with zero rows and duplicate rows, and of
  low rank, so that the earlier pivot rows are nonzero in a later pivot's
  column and the back phase has work to do;
* hand-made cases: an entry that returns to zero and is listed again in
  its column, a pivot row chosen past a lower-index row that is already a
  pivot row, and a rank-deficient matrix whose back phase clears a column;
* every input ``_rref_mod`` meets while H^1..H^3 of the conjugated dual
  pair over Q and F_5 are computed, caught by a spy;
* H^2 of the conjugated ut+dual pair over Q and F_5, whose lift runs many
  primes over the rows picked at the first, byte for byte: the sha256 of
  the ``repr`` of the result, as the Gauss-Jordan kernel gave it;
* the work of the back phase: on a dense nonsingular matrix it updates
  one entry per entry above the diagonal (counted as reductions modulo p),
  so the kernel reduces less than Gauss-Jordan.
"""

import hashlib
import random

import pytest

from mrbder import linalg
from mrbder.cohomology import cohomology
from mrbder.constructions import direct_sum
from mrbder.fields import Field, QQ
from mrbder.fuzzing import conjugate_pair, random_invertible
from mrbder.structures import adjoint_bimodule, dual_pair, upper_triangular_pair

from oracles import gauss_jordan_rref_mod

PRIMES = (2, 5, 7, 13, linalg._prime(0))


def assert_same_as_gauss_jordan(p, rows):
    mine, ref = [r[:] for r in rows], [r[:] for r in rows]
    assert linalg._rref_mod(p, mine) == gauss_jordan_rref_mod(p, ref)
    assert mine == ref


def random_rows(rng, p, nr, nc, density):
    return [[rng.randrange(1, p) if rng.random() < density else 0 for _ in range(nc)]
            for _ in range(nr)]


def low_rank_rows(rng, p, nr, nc, rank):
    """nr x nc rows of rank at most ``rank``: a product L R mod p."""
    left = random_rows(rng, p, nr, rank, 0.7)
    right = random_rows(rng, p, rank, nc, 0.7)
    return [[sum(a * right[k][j] for k, a in enumerate(row)) % p for j in range(nc)]
            for row in left]


def test_first_prime_below_2_30():
    assert PRIMES[-1] == 2**30 - 35


@pytest.mark.parametrize("p", PRIMES)
def test_random_matrices(p):
    rng = random.Random(p)
    for _ in range(300):
        nr, nc = rng.randint(0, 12), rng.randint(1, 12)
        rows = random_rows(rng, p, nr, nc, rng.choice((0.15, 0.4, 1.0)))
        if rows and rng.random() < 0.5:
            rows[rng.randrange(nr)] = [0] * nc
        if rows and rng.random() < 0.5:
            rows.insert(rng.randrange(nr + 1), rows[rng.randrange(nr)][:])
        assert_same_as_gauss_jordan(p, rows)


@pytest.mark.parametrize("p", PRIMES)
def test_random_low_rank(p):
    rng = random.Random(100 + p)
    for _ in range(300):
        nr, nc = rng.randint(1, 12), rng.randint(1, 12)
        assert_same_as_gauss_jordan(p, low_rank_rows(rng, p, nr, nc, rng.randint(1, 4)))


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("rows", [
    [],                                   # no row
    [[0, 0, 0]],                          # one zero row
    [[0, 3, 1, 0]],                       # one row
    [[1], [2], [0], [4]],                 # more rows than columns
    [[0, 0], [1, 1], [1, 1], [0, 0], [2, 2], [0, 1]],
    [[1, 2, 0], [1, 2, 0], [1, 2, 0]],    # duplicate rows
])
def test_edge_shapes(p, rows):
    assert_same_as_gauss_jordan(p, [[x % p for x in r] for r in rows])


@pytest.mark.parametrize("p", PRIMES)
def test_entry_returns_to_zero_and_is_listed_again(p):
    # pivot 0 zeroes row 2 at column 2 (it stays listed there); pivot 1
    # makes it nonzero again, so column 2 lists row 2 twice
    rows = [[1, 0, 1, 0], [0, 1, 1, 1], [1, 1, 1, 0], [0, 0, 1, 1]]
    assert_same_as_gauss_jordan(p, rows)
    work = [r[:] for r in rows]
    assert linalg._rref_mod(p, work) == ([0, 1, 2], [0, 1, 2])


@pytest.mark.parametrize("p", PRIMES)
def test_pivot_row_passed_over(p):
    # row 0 is nonzero in column 1 but is already column 0's pivot row, so
    # column 1's pivot is row 2, the lowest-index row not yet a pivot row
    rows = [[1, 1, 0], [0, 0, 1], [0, 1, 1]]
    assert_same_as_gauss_jordan(p, rows)
    assert linalg._rref_mod(p, [r[:] for r in rows]) == ([0, 1, 2], [0, 2, 1])


@pytest.mark.parametrize("p", PRIMES)
def test_back_phase_clears_a_column_of_a_rank_deficient_matrix(p):
    rows = [[1, 1, 0, 1], [0, 1, 1, 0], [1, 2, 1, 1], [0, 0, 0, 0]]
    work = [r[:] for r in rows]
    assert linalg._rref_mod(p, work) == ([0, 1], [0, 1])
    assert work == [[1, 0, p - 1, 1], [0, 1, 1, 0], [0] * 4, [0] * 4]
    assert_same_as_gauss_jordan(p, rows)


@pytest.mark.parametrize("field", ["Q", "F5"])
def test_inputs_of_a_dense_complex(field, monkeypatch):
    F = QQ if field == "Q" else Field(5)
    pair = dual_pair(F)
    pair = conjugate_pair(pair, random_invertible(random.Random(0), F, pair.dim))
    seen = []
    rref_mod = linalg._rref_mod

    def spy(p, rows):
        seen.append((p, [r[:] for r in rows]))
        return rref_mod(p, rows)

    monkeypatch.setattr(linalg, "_rref_mod", spy)
    bim = adjoint_bimodule(pair)
    assert [cohomology(pair, bim, n).dim_h for n in (1, 2, 3)] == [1, 1, 0]
    monkeypatch.undo()
    assert {p for p, _ in seen} >= ({5} if F.p else set(PRIMES[-1:]))
    for p, rows in seen:
        assert_same_as_gauss_jordan(p, rows)


class CountingPrime(int):
    """A prime that counts the reductions modulo it, one per entry update."""

    def __new__(cls, p):
        self = super().__new__(cls, p)
        self.reductions = 0
        return self

    def __rmod__(self, x):
        self.reductions += 1
        return int(x) % int(self)


def test_back_phase_work_on_a_nonsingular_matrix():
    # forward: the pivot row of column c scaled on n - c entries, and each
    # of the n - 1 - c rows below reduced on them; back: each pivot row
    # after the first is e_c by then, one update per entry above it
    n, rng = 16, random.Random(5)
    p = PRIMES[-1]
    rows = random_rows(rng, p, n, n, 1.0)
    mine, ref = CountingPrime(p), CountingPrime(p)
    assert linalg._rref_mod(mine, [r[:] for r in rows])[0] == list(range(n))
    gauss_jordan_rref_mod(ref, [r[:] for r in rows])
    forward = sum((n - c) * (n - c) for c in range(n))
    assert mine.reductions == forward + n * (n - 1) // 2
    assert mine.reductions < ref.reductions


# sha256 of repr(cohomology(...)) of H^2 of the conjugated ut+dual pair
PINNED_H2 = {
    "Q": "964a318efebd7fa01779dd14f0d9ff931f3f1f41ffd96812269ef0b36255575d",
    "F5": "c3ecd742bda80b97042a8acb5158ab90c61d39c55b76fad5478c314238d31729",
}


@pytest.mark.parametrize("field", ["Q", "F5"])
def test_conjugated_ut_dual_h2_bytes(field):
    F = QQ if field == "Q" else Field(5)
    pair = direct_sum(upper_triangular_pair(F, F.one), dual_pair(F))
    pair = conjugate_pair(pair, random_invertible(random.Random(0), F, pair.dim))
    result = cohomology(pair, adjoint_bimodule(pair), 2)
    assert (result.dim_cocycles, result.dim_coboundaries, result.dim_h) == (26, 23, 3)
    assert hashlib.sha256(repr(result).encode()).hexdigest() == PINNED_H2[field]
