"""The elimination in ``mrbder.linalg`` against the dense reference in ``oracles``.

RREF is unique, so reducing only over nonzeros, and over Q modulo primes,
must leave every pivot and every entry exactly where the dense sweep over
Fractions leaves them.  Over Q the inputs include the dense ladder's
matrices, whose fractions grow, and primes forced to fail in each way a
prime can: unlucky pivots, a reconstruction that is wrong but looks right,
and a denominator the prime divides.
"""

import functools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import chain, islice, product
from pathlib import Path

import pytest

from mrbder.cohomology import differential_matrix
from mrbder.constructions import direct_sum
from mrbder.fields import Field, QQ, is_prime
from mrbder.fuzzing import conjugate_pair, random_invertible
from mrbder import linalg
from mrbder.linalg import Matrix, rank_and_kernel, rref_vectors, solve_linear
from mrbder.structures import adjoint_bimodule, dual_pair, upper_triangular_pair

from oracles import (columnwise_right_inverse, dense_inverse, dense_rank_and_kernel,
                     dense_rref_vectors, dense_solve_linear)

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
    if fresh_zeros and F.p is None:
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


@pytest.mark.parametrize("field,k", CASES)
def test_right_inverse(field, k):
    # each draw and its transpose, so that wide, tall and square shapes, onto
    # or not, all occur
    onto = 0
    for F, _, rows in cases(field, k):
        m = Matrix(F, tuple(tuple(r) for r in rows))
        for a in (m, m.transpose()):
            got, want = a.right_inverse(), columnwise_right_inverse(a)
            assert got == want and repr(got) == repr(want)
            if got is not None:
                onto += 1
                assert a * got == Matrix.identity(F, a.nrows)
    # the dense full-rank shapes are onto one way round
    assert onto or k not in (0, 1)


@pytest.mark.parametrize("field", ["Q", "F5"])
def test_each_solve_is_one_elimination(field, eliminations):
    F = FIELDS[field]
    rng = random.Random(17)
    for nr, nc, rank in ((4, 6, None), (6, 4, None), (5, 5, None), (5, 5, 3)):
        m = Matrix(F, tuple(map(tuple, random_rows(rng, F, nr, nc, 0.6, rank))))
        for run in (lambda: solve_linear(m, tuple(F.random(rng) for _ in range(nr))),
                    m.right_inverse, m.transpose().right_inverse):
            del eliminations[:]
            run()
            assert len(eliminations) == 1
        if nr == nc:
            del eliminations[:]
            try:
                m.inverse()
            except ValueError:            # singular: the one reduction tells
                pass
            assert len(eliminations) == 1


def certificate_at_the_edge(w):
    """(A, R): integer rows A of rank 2 with three free columns, as
    (columns, values) pairs, and the RREF R of A, whose certificate bound,
    the largest row sum of A times the largest entry of a scaled kernel
    vector, is 2**(w-1) - Y for Y = 2**(w // 4): the digit width is exactly
    w, and a partial sum of A v reaches half the bound.

    R has rows (1, 0, Y_2, Y_3, Y_4) and (0, 1, Y_2, Y_3, Y_4), so each
    kernel vector has -Y_c at both pivots and 1 at its free column c.  A has
    the rows (K, 1 - K, Y_2, Y_3, Y_4) and (1, -1, 0, 0, 0): the first, with
    its two large entries of opposite signs, times the vector of Y_c sums to
    -K Y_c after one term.
    """
    s = w // 4
    ys = (2**s, 2**s - 1, 2**s - 3)
    k = (2**(w - 1 - s) - sum(ys)) // 2
    rows = [[k, 1 - k, *ys], [1, -1, 0, 0, 0]]
    A = [([j for j, x in enumerate(r) if x], [x for x in r if x]) for r in rows]
    bound = max(sum(map(abs, r)) for r in rows) * max(ys)
    assert bound == 2**(w - 1) - ys[0] and linalg._digit_width(bound) == w
    assert (k * ys[0]).bit_length() == (bound // 2).bit_length() == w - 2
    return A, dense_rref_vectors(QQ, [[Fraction(x) for x in r] for r in rows])


@pytest.mark.parametrize("w", [16, 24, 32, 64, 72])
def test_certificate_at_the_edge_of_the_width(w):
    A, (R, pivots) = certificate_at_the_edge(w)
    assert pivots == [0, 1]
    values = [{c: x for c, x in enumerate(r) if c not in pivots and x} for r in R]
    assert linalg._certified(A, 5, pivots, values)
    for k, c in product(range(2), range(2, 5)):
        wrong = [dict(v) for v in values]
        wrong[k][c] += 1
        assert not linalg._certified(A, 5, pivots, wrong), (k, c)
    # two errors in adjacent digits that cancel in a packing w bits wide:
    # the width is read off the candidate's own entries, so it is wider
    wrong = [dict(v) for v in values]
    wrong[0][2] += 2**w
    wrong[0][3] -= 1
    assert not linalg._certified(A, 5, pivots, wrong)


# ---------------------------------------------------------------------------
# the Q path on inputs whose fractions grow: the dense ladder's matrices

LADDER_DENSE = [("dual", 1), ("dual", 2), ("dual", 3), ("ut", 1), ("ut", 2), ("dual+dual", 1)]


@functools.lru_cache(maxsize=None)
def ladder_dense_matrix(name, n):
    """D_n of a fixture after a random basis change, as the dense ladder of
    the benchmark builds it: one basis drawn per fixture from Random(0), in
    the order dual, ut, dual+dual."""
    rng = random.Random(0)
    dual, ut = dual_pair(QQ), upper_triangular_pair(QQ, QQ.one)
    for key, pair in (("dual", dual), ("ut", ut), ("dual+dual", direct_sum(dual, dual))):
        conj = conjugate_pair(pair, random_invertible(rng, QQ, pair.dim))
        if key == name:
            return differential_matrix(conj, adjoint_bimodule(conj), n, "pair")


def invertible_block(m):
    """The square submatrix of ``m`` on a basis of its rows and one of its columns."""
    cols = dense_rref_vectors(QQ, m.rows)[1]
    rows = dense_rref_vectors(QQ, m.transpose().rows)[1]
    return Matrix(QQ, tuple(tuple(m.rows[i][j] for j in cols) for i in rows))


@pytest.mark.parametrize("name,n", LADDER_DENSE)
def test_ladder_dense_matches_the_oracle(name, n):
    m = ladder_dense_matrix(name, n)
    assert rank_and_kernel(m) == dense_rank_and_kernel(m)
    mt = m.transpose().rows
    assert rref_vectors(QQ, mt) == dense_rref_vectors(QQ, mt)
    rng = random.Random(n)
    consistent = m.apply([QQ.random(rng) for _ in range(m.ncols)])
    inconsistent = tuple(QQ.random(rng) for _ in range(m.nrows))
    assert dense_solve_linear(m, inconsistent) is None
    for b in (consistent, inconsistent):
        assert solve_linear(m, b) == dense_solve_linear(m, b)
    block = invertible_block(m)
    assert block.inverse() == dense_inverse(block)
    square = Matrix(QQ, tuple(r[:m.ncols] for r in m.rows[:m.ncols]))
    with pytest.raises(ValueError, match="singular"):
        dense_inverse(square)
    with pytest.raises(ValueError, match="singular"):
        square.inverse()


# ---------------------------------------------------------------------------
# the prime source of the Q path, replaced to force each way a prime can fail

class Trace:
    """Records the moduli the Q path reconstructs over and the certificates it checks."""

    def __init__(self, monkeypatch):
        self.events = []
        reconstruct, certified, rref_mod = linalg._reconstruct, linalg._certified, linalg._rref_mod

        def spy_reconstruct(acc, m):
            out = reconstruct(acc, m)
            self.events.append(("reconstruct", m, out is not None))
            return out

        def spy_certified(*args):
            ok = certified(*args)
            self.events.append(("certificate", ok))
            return ok

        def spy_rref_mod(p, rows):
            out = rref_mod(p, rows)
            self.events.append(("pivots", p, out[0]))
            return out

        monkeypatch.setattr(linalg, "_reconstruct", spy_reconstruct)
        monkeypatch.setattr(linalg, "_certified", spy_certified)
        monkeypatch.setattr(linalg, "_rref_mod", spy_rref_mod)

    def certificates(self):
        return [e[1] for e in self.events if e[0] == "certificate"]

    def accepted_modulus(self):
        """The modulus of the last reconstruction, whose certificate held."""
        ms = [e[1] for e in self.events if e[0] == "reconstruct" and e[2]]
        assert self.certificates()[-1] is True
        return ms[-1]


def draw_first(monkeypatch, primes):
    """Make the Q path draw ``primes`` before the primes of its own source."""
    real = linalg._primes
    monkeypatch.setattr(linalg, "_primes", lambda: chain(primes, real()))


def small_primes(below):
    return [p for p in range(3, below) if is_prime(p)]


def assert_matches_oracle(m):
    assert rank_and_kernel(m) == dense_rank_and_kernel(m)
    assert rref_vectors(QQ, m.rows) == dense_rref_vectors(QQ, m.rows)


Q_PRIME = 1_000_003


def test_first_prime_with_unlucky_pivots_is_rejected(monkeypatch):
    # column 0 becomes a multiple of the first prime, so modulo that prime
    # it vanishes and the pivots come out later than over Q
    assert is_prime(Q_PRIME)
    d = ladder_dense_matrix("dual", 2)
    m = Matrix(QQ, tuple((r[0] * Q_PRIME,) + r[1:] for r in d.rows))
    draw_first(monkeypatch, [Q_PRIME])
    trace = Trace(monkeypatch)
    assert rank_and_kernel(m) == dense_rank_and_kernel(m)
    first = trace.events[0]
    assert first[:2] == ("pivots", Q_PRIME) and 0 not in first[2]
    # the answer was built from other primes only
    assert trace.accepted_modulus() % Q_PRIME != 0
    assert_matches_oracle(m)


def test_early_wrong_reconstruction_is_rejected(monkeypatch):
    # V = 1 modulo 3 * 5 * ... * 23: over tiny primes the entry -V reads as -1
    # long before it is right, and only the certificate tells
    v = 1 + math.prod(small_primes(24))
    m = Matrix(QQ, ((QQ.one, QQ.zero, Fraction(-v)), (QQ.zero, QQ.one, Fraction(7, 3))))
    draw_first(monkeypatch, small_primes(200))
    trace = Trace(monkeypatch)
    basis, _ = rref_vectors(QQ, m.rows)
    assert (basis, [0, 1]) == dense_rref_vectors(QQ, m.rows) and basis[0][2] == -v
    certificates = trace.certificates()
    assert False in certificates and certificates[-1] is True
    # and on a dense input, where tiny primes are also often unlucky
    trace.events.clear()
    assert_matches_oracle(ladder_dense_matrix("dual", 2))
    assert trace.certificates()[-1] is True


def test_denominator_divisible_by_the_first_prime(monkeypatch):
    d = ladder_dense_matrix("dual", 2)
    third = Fraction(1, 3 * Q_PRIME)
    m = Matrix(QQ, (tuple(x * third for x in d.rows[0]),) + d.rows[1:])
    assert any(x.denominator % Q_PRIME == 0 for x in m.rows[0])
    draw_first(monkeypatch, [Q_PRIME])
    assert_matches_oracle(m)
    b = m.apply([Fraction(k, 5) for k in range(m.ncols)])
    assert solve_linear(m, b) == dense_solve_linear(m, b)


def test_prime_source():
    primes = list(islice(linalg._primes(), 8))
    assert all(is_prime(p) and p < linalg._PRIME_TOP <= 2**62 for p in primes)
    assert all(a > b for a, b in zip(primes, primes[1:]))


def test_no_prime_is_made_at_import():
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = "import mrbder, mrbder.linalg as L; print(L._prime.cache_info().currsize)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout == "0\n"
