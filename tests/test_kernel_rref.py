"""Z^n in one elimination: ``linalg.kernel_rref`` against the two-step oracle.

``kernel_rref`` reads the RREF basis of a kernel off one elimination of the
matrix with its columns reversed, as {column: nonzero} rows.  Each row must
hold no zero, and its pivot must be its smallest column.  RREF is unique,
so the rows, written out dense, and the pivots must equal those of the old
two-step path, ``two_step_kernel_rref`` in ``oracles``, entry for entry and
type for type.  The inputs are every D_n of the benchmark ladders' fixtures
(standard basis and after a random basis change, over Q and F_5), the D_n of
sixteen random instances, the conjugated ut+dual D_2, edge shapes and the
random shapes of the elimination tests.  A spy on ``linalg._echelon`` holds ``cohomology`` to one
elimination of D_n for Z^n, or for the rank balance that proves H^n = 0,
and tracemalloc holds the dense kernel of
``rank_and_kernel`` to one copy of each vector and the sparse one of
``kernel_rref`` to its nonzeros.
"""

import random
import tracemalloc

import pytest

from mrbder import linalg
from mrbder.cohomology import cohomology, differential_matrix
from mrbder.constructions import direct_sum
from mrbder.fields import Field, QQ
from mrbder.fuzzing import conjugate_pair, random_instances, random_invertible
from mrbder.linalg import Matrix, kernel_rref, rank_and_kernel
from mrbder.structures import adjoint_bimodule, dual_pair, upper_triangular_pair, zero_pair

from oracles import densified, two_step_kernel_rref
from test_elimination import CASES, cases

F5 = Field.prime(5)
FIELDS = {"Q": QQ, "F5": F5}

# (fixture, top degree) of the benchmark's ladders
SPARSE_TOPS = (("dual", 3), ("ut", 3), ("dual+dual", 3), ("ut+dual", 2))
DENSE_TOPS = (("dual", 3), ("ut", 3), ("dual+dual", 2))


def fixtures(F):
    dual, ut = dual_pair(F), upper_triangular_pair(F, F.one)
    return {"dual": dual, "ut": ut, "dual+dual": direct_sum(dual, dual),
            "ut+dual": direct_sum(ut, dual)}


def assert_sparse_rref(F, basis, pivots):
    """Rows that store no zero, each with a 1 at its pivot, its smallest
    column."""
    assert len(basis) == len(pivots)
    for row, pc in zip(basis, pivots):
        assert not any(map(F.is_zero, row.values()))
        assert min(row) == pc and row[pc] == F.one


def assert_matches_two_step(m):
    basis, pivots = kernel_rref(m)
    assert_sparse_rref(m.field, basis, pivots)
    got, want = (densified(m.field, basis, m.ncols), pivots), two_step_kernel_rref(m)
    assert got == want
    assert repr(got) == repr(want)
    if basis:
        assert (m * Matrix(m.field, tuple(zip(*got[0])))).is_zero()


@pytest.mark.parametrize("field", ["Q", "F5"])
@pytest.mark.parametrize("name,top", SPARSE_TOPS)
def test_sparse_ladder(field, name, top):
    F = FIELDS[field]
    pair = fixtures(F)[name]
    bim = adjoint_bimodule(pair)
    for n in range(1, top + 1):
        assert_matches_two_step(differential_matrix(pair, bim, n, "pair"))


@pytest.mark.parametrize("field", ["Q", "F5"])
def test_dense_ladder(field):
    # one basis change per fixture from Random(0), in the ladder's order
    F = FIELDS[field]
    rng, pairs = random.Random(0), fixtures(F)
    for name, top in DENSE_TOPS:
        conj = conjugate_pair(pairs[name], random_invertible(rng, F, pairs[name].dim))
        bim = adjoint_bimodule(conj)
        for n in range(1, top + 1):
            assert_matches_two_step(differential_matrix(conj, bim, n, "pair"))


@pytest.mark.parametrize("field", ["Q", "F5"])
def test_random_instances(field):
    for inst in random_instances(FIELDS[field], 2, 8, seed=11):
        for n in (1, 2, 3):
            assert_matches_two_step(differential_matrix(inst.pair, inst.bim, n, "pair"))


@pytest.mark.parametrize("field", ["Q", "F5"])
def test_conjugated_ut_dual_d2(field):
    F = FIELDS[field]
    pair = fixtures(F)["ut+dual"]
    conj = conjugate_pair(pair, random_invertible(random.Random(0), F, pair.dim))
    m = differential_matrix(conj, adjoint_bimodule(conj), 2, "pair")
    assert (m.nrows, m.ncols) == (900, 175)
    assert_matches_two_step(m)


@pytest.mark.parametrize("field", ["Q", "F5"])
def test_edge_shapes(field):
    F = FIELDS[field]
    z, o = F.zero, F.one
    zero = Matrix.zeros(F, 3, 4)
    assert kernel_rref(zero) == ([{i: o} for i in range(4)], [0, 1, 2, 3])
    full_rank = Matrix.from_rows(F, [[o, z, z], [o, o, z], [z, o, o], [o, z, o]])
    assert kernel_rref(full_rank) == ([], [])
    with_zero_rows = Matrix.from_rows(F, [[z] * 5, [o, o, z, z, z], [z] * 5, [z, z, o, z, o], [z] * 5])
    assert kernel_rref(with_zero_rows) == (
        [{0: o, 1: F.neg(o)}, {2: o, 4: F.neg(o)}, {3: o}], [0, 2, 3])
    for m in (zero, full_rank, with_zero_rows, Matrix.zeros(F, 2, 0), Matrix.zeros(F, 0, 3),
              Matrix.from_sparse(F, [{}, {}], 3)):
        assert_matches_two_step(m)


@pytest.mark.parametrize("field,k", CASES)
def test_random_shapes(field, k):
    for F, _, rows in cases(field, k):
        assert_matches_two_step(Matrix(F, tuple(tuple(r) for r in rows)))


@pytest.mark.parametrize("n,eliminations", [(1, 1), (2, 2), (3, 1)])
def test_cohomology_eliminates_once_for_the_cocycles(monkeypatch, n, eliminations):
    # Z^n takes one elimination of D_n, B^n one of D_{n-1}^T; the rung below
    # kept rank D_{n-1}, so H^3 = 0 is proven by the one elimination of D_3
    # that the rank balance stops at, with no B step
    pair = dual_pair(F5)
    bim = adjoint_bimodule(pair)
    for k in range(1, n):
        cohomology(pair, bim, k)
    differential_matrix(pair, bim, n, "pair")
    calls = []
    echelon = linalg._echelon

    def spy(*args):
        calls.append(args[2])
        return echelon(*args)

    monkeypatch.setattr(linalg, "_echelon", spy)
    r = cohomology(pair, bim, n)
    assert len(calls) == eliminations
    assert calls[0] == differential_matrix(pair, bim, n, "pair").ncols
    assert len(r.representatives) == r.dim_h


@pytest.mark.parametrize("field", ["Q", "F5"])
def test_kernel_is_held_once(field):
    # D_3 of the dim-6 zero algebra is a 10584 x 1764 zero matrix, so its
    # kernel is 1764 unit vectors.  As dense vectors of 1764 entries, the
    # peak above the starting point stays within 20 % of what the result
    # keeps; as sparse rows, the whole peak stays under 2 MB
    pair = zero_pair(FIELDS[field], 6)
    m = differential_matrix(pair, adjoint_bimodule(pair), 3, "pair")
    assert (m.nrows, m.ncols) == (10584, 1764)
    for solve in (rank_and_kernel, kernel_rref):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = solve(m)
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        if solve is rank_and_kernel:
            assert len(out[1]) == 1764
            assert (peak - before) / (after - before) < 1.2
        else:
            assert len(out[0]) == 1764
            assert peak - before < 2 * 2**20


def test_d4_of_ut_dual_is_eliminated_per_component():
    # D_4 of ut+dual (a = 5) is 22500 x 4500 with about 25 000 nonzeros in
    # 1719 column components of at most 35 columns.  Dense rows of residues
    # for the whole matrix alone would take about 600 MB; per component, with
    # the 750 kernel vectors kept as sparse rows, the elimination peaks near
    # 10 MB
    pair = fixtures(F5)["ut+dual"]
    m = differential_matrix(pair, adjoint_bimodule(pair), 4, "pair")
    assert (m.nrows, m.ncols) == (22500, 4500)
    tracemalloc.start()
    try:
        basis, pivots = kernel_rref(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20
    assert len(basis) == 750
    assert_sparse_rref(F5, basis, pivots)
    assert (densified(F5, basis, m.ncols), pivots) == two_step_kernel_rref(m)
