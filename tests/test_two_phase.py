"""The integer kernel ``linalg._rref_mod`` against Gauss-Jordan and two-phase.

``_rref_mod`` runs Gauss-Jordan row by row: each row, in index order, is
reduced against the basis of the rows before it, kept in RREF.  RREF is
unique and the pivot rows are the same lowest-index ones, so it must leave
exactly what the Gauss-Jordan reference ``oracles.gauss_jordan_rref_mod``
leaves: the same pivots, the same ``order`` and the same rows in place,
the RREF rows in pivot order followed by the zero rows.  Checked here:

* seeded random matrices modulo 2, 5, 7, 13 and the first prime below
  2**30, of every shape up to 12 x 12 (no row, one row, more rows than
  columns), dense and sparse, with zero rows and duplicate rows, and of
  low rank, so that later pivots clear columns of earlier basis rows;
* hand-made cases: an entry that returns to zero and is listed again in
  its column, a pivot row chosen past a lower-index row that is already a
  pivot row, and a rank-deficient matrix whose later pivot clears a column
  of an earlier basis row;
* every input ``_rref_mod`` meets while H^1..H^3 of the conjugated dual
  pair over Q and F_5 are computed, caught by a spy;
* H^2 of the conjugated ut+dual pair over Q and F_5, whose lift runs many
  primes over the rows picked at the first, byte for byte: the sha256 of
  the ``repr`` of the result, as the Gauss-Jordan kernel gave it;
* the work, counted as reductions modulo p: on a dense nonsingular matrix
  the exact count of the row-by-row kernel, below both references; on the
  mod-7 first pass of the conjugated dual+dual H^2 over Q and on every input
  of the conjugated ut+dual H^3 over F_5, below the two-phase kernel of
  ``oracles.two_phase_rref_mod`` (the kernel this one replaced), with that
  H^3's answer and bytes pinned.
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

from oracles import gauss_jordan_rref_mod, two_phase_rref_mod

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
    # the name is kept from the two-phase kernel, whose back phase it counted
    # row i meets the basis of rows 0..i-1, pivots 0..i-1 and in RREF, so
    # nonzero only at the n - i free columns: i multipliers, each updating
    # n - i entries; then it is scaled on the n - 1 - i entries after its
    # pivot i, and clears column i from the i basis rows on those entries
    n, rng = 16, random.Random(5)
    p = PRIMES[-1]
    rows = random_rows(rng, p, n, n, 1.0)
    mine, gj, two = CountingPrime(p), CountingPrime(p), CountingPrime(p)
    assert linalg._rref_mod(mine, [r[:] for r in rows])[0] == list(range(n))
    gauss_jordan_rref_mod(gj, [r[:] for r in rows])
    two_phase_rref_mod(two, [r[:] for r in rows])
    work = sum(i * (n - i) + (n - 1 - i) + i * (n - 1 - i) for i in range(n))
    assert work == 1360
    assert mine.reductions == work
    assert mine.reductions < two.reductions < gj.reductions


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


def conjugated(pair_of, F):
    pair = pair_of(F)
    return conjugate_pair(pair, random_invertible(random.Random(0), F, pair.dim))


def test_work_on_the_first_pass_of_conjugated_dual_dual_h2(monkeypatch):
    # over Q the 400 x 96 D_2 is one component, reduced first modulo 7
    pair = conjugated(lambda F: direct_sum(dual_pair(F), dual_pair(F)), QQ)
    seen = []
    rref_mod = linalg._rref_mod

    def spy(p, rows):
        seen.append((p, [r[:] for r in rows]))
        return rref_mod(p, rows)

    monkeypatch.setattr(linalg, "_rref_mod", spy)
    result = cohomology(pair, adjoint_bimodule(pair), 2)
    monkeypatch.undo()
    assert (result.dim_cocycles, result.dim_coboundaries, result.dim_h) == (16, 14, 2)
    [rows] = [rows for p, rows in seen if p == 7]
    assert (len(rows), len(rows[0])) == (400, 96)
    mine, ref = CountingPrime(7), CountingPrime(7)
    work, two = [r[:] for r in rows], [r[:] for r in rows]
    assert linalg._rref_mod(mine, work) == two_phase_rref_mod(ref, two)
    assert work == two
    assert mine.reductions < ref.reductions


# sha256 of repr(cohomology(...)) of H^3 of the conjugated ut+dual pair over
# F_5, as the two-phase kernel gave it
PINNED_H3_F5 = "bf4b30aa2fa349192a2869630a12e30af106276a71a67278942c17119f7d8767"


def test_work_on_conjugated_ut_dual_h3_over_f5(monkeypatch):
    # D_3 is 4500 x 900 of rank 750: the 3750 rows that end at zero cost
    # their nonzeros at the pivot columns times the basis rows' free
    # nonzeros, not a pass with each two-phase pivot row they meet
    pair = conjugated(lambda F: direct_sum(upper_triangular_pair(F, F.one), dual_pair(F)), Field(5))
    seen = []
    rref_mod = linalg._rref_mod

    def spy(p, rows):
        counter = CountingPrime(p)
        seen.append(([r[:] for r in rows], counter))
        return rref_mod(counter, rows)

    monkeypatch.setattr(linalg, "_rref_mod", spy)
    result = cohomology(pair, adjoint_bimodule(pair), 3)
    monkeypatch.undo()
    assert (result.dim_cocycles, result.dim_coboundaries, result.dim_h) == (150, 149, 1)
    assert hashlib.sha256(repr(result).encode()).hexdigest() == PINNED_H3_F5
    assert (4500, 900) in {(len(rows), len(rows[0])) for rows, _ in seen}
    for rows, mine in seen:
        ref = CountingPrime(5)
        two_phase_rref_mod(ref, rows)
        assert mine.reductions < ref.reductions
