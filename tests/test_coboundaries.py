"""B^n read in the coordinates of Z^n against B^n eliminated in PC^n.

``cohomology`` checks D_n D_{n-1} = 0 and then finds the pivots of B^n from
the columns of D_{n-1} restricted to the Z pivots, one RREF as wide as
dim Z^n.  ``oracles.columns_cohomology`` eliminates the columns in all
dim PC^n coordinates, as ``cohomology`` once did.  RREF is unique, so the
whole results, representatives included, must be equal.  The cases are the
fixtures with adjoint coefficients in the standard basis and after a seeded
basis change, and seeded dim-2 fuzz instances, over Q and F_5.

Along a ladder of degrees, rank D_n comes out of two separate eliminations:
dim PC^n - dim Z^n from the kernel of D_n, and dim B^{n+1} from the
restricted columns at degree n + 1.  They must agree.

On the zero pair every D_n is zero, so no column of D_{n-1} meets a Z pivot:
B^n = 0 is read without an elimination, and every z_k is kept.

Both sides read Z^n from ``linalg.kernel_rref`` of the same kept D_n, and
the test is of the B step, so each kernel is computed once and shared.

``cohomology`` proves H^n = 0 by a rank balance where it can, with no
kernel and no B step.  Each ladder is asked again with the balance turned
off, so that every rung takes the kernel path, and the results must be the
same.
"""

import importlib
import random

import pytest

import oracles
from mrbder.cohomology import PairSpace, cohomology
from mrbder.constructions import direct_sum
from mrbder.fields import Field, QQ
from mrbder.fuzzing import conjugate_pair, random_instances, random_invertible
from mrbder.linalg import Matrix, MultiTensor, kernel_rref
from mrbder.structures import (Bimodule, adjoint_bimodule, dual_pair, upper_triangular_pair,
                               zero_pair)

from oracles import columns_cohomology

engine = importlib.import_module("mrbder.cohomology")

F5 = Field.prime(5)
FIELDS = {"Q": QQ, "F5": F5}

FIXTURES = {
    "dual": dual_pair,
    "ut": lambda F: upper_triangular_pair(F, F.one),
    "dual+dual": lambda F: direct_sum(dual_pair(F), dual_pair(F)),
    "ut+dual": lambda F: direct_sum(upper_triangular_pair(F, F.one), dual_pair(F)),
}

TOP_DEGREE = {"dual": 3, "ut": 3, "dual+dual": 3, "ut+dual": 2}


@pytest.fixture(autouse=True)
def one_kernel_per_matrix(monkeypatch):
    """Share each kernel; the returned switch turns the rank balance off, so
    that a bound is ignored and every rung takes the kernel path."""
    kept, balance = {}, {"on": True}

    def kernel(m, bound=None):
        if id(m) in kept:
            return kept[id(m)][1]
        out = kernel_rref(m, bound if balance["on"] else None)
        if not isinstance(out, int):
            kept[id(m)] = (m, out)
        return out

    monkeypatch.setattr(engine, "kernel_rref", kernel)
    monkeypatch.setattr(oracles, "kernel_rref", kernel)
    return balance


def assert_same_and_ranks_agree(pair, bim, top, balance):
    degrees = range(1, top + 1)
    results = [cohomology(pair, bim, n) for n in degrees]
    assert results == [columns_cohomology(pair, bim, n) for n in degrees]
    for n, (res, above) in enumerate(zip(results, results[1:]), start=1):
        space = PairSpace(pair.field, pair.dim, bim.dim_m, n)
        assert above.dim_coboundaries == space.dim - res.dim_cocycles
    balance["on"] = False
    assert [cohomology(pair, bim, n) for n in degrees] == results
    balance["on"] = True


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("conj", [False, True], ids=["standard", "conjugated"])
@pytest.mark.parametrize("name", TOP_DEGREE)
def test_fixture_ladder(field, conj, name, one_kernel_per_matrix):
    F = FIELDS[field]
    # conjugated dual+dual H^3 over Q alone takes about 3.5 s
    top = 2 if (field, name, conj) == ("Q", "dual+dual", True) else TOP_DEGREE[name]
    pair = FIXTURES[name](F)
    if conj:
        pair = conjugate_pair(pair, random_invertible(random.Random(0), F, pair.dim))
    assert_same_and_ranks_agree(pair, adjoint_bimodule(pair), top, one_kernel_per_matrix)


@pytest.mark.parametrize("field", FIELDS)
def test_fuzz_instances(field, one_kernel_per_matrix):
    for inst in random_instances(FIELDS[field], 2, 10, 1606):
        assert_same_and_ranks_agree(inst.pair, inst.bim, 3, one_kernel_per_matrix)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("coefficients", ["adjoint", "trivial"])
@pytest.mark.parametrize("dim", [2, 3])
def test_zero_pair_has_no_coboundaries(field, coefficients, dim, monkeypatch):
    F = FIELDS[field]
    pair = zero_pair(F, dim)
    if coefficients == "adjoint":
        bim = adjoint_bimodule(pair)
    else:
        z = MultiTensor.zeros(F, (dim, 2), 2)
        bim = Bimodule(2, z, z.permute_slots([1, 0]), Matrix.zeros(F, 2, 2), Matrix.zeros(F, 2, 2))
    eliminated = []
    monkeypatch.setattr(engine, "rank_and_kernel", lambda m: eliminated.append(m))
    for n in (2, 3):
        res = cohomology(pair, bim, n)
        assert res == columns_cohomology(pair, bim, n)
        assert res.dim_coboundaries == 0
        assert res.dim_h == res.dim_cocycles == PairSpace(F, dim, bim.dim_m, n).dim
    assert eliminated == []
