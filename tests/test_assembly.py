"""The sparse assembly of D_n against the transcribed cochain-level maps.

``differential_matrix`` writes each structure map down from the structure
constants; the oracle builds the same matrix one basis cochain at a time
through the transcriptions of ``hochschild_delta``, ``modified_delta``,
``operator_map``, ``derivation_defect``, ``operator_delta`` and
``pair_delta`` in ``oracles``.
"""

import pytest

from mrbder.cohomology import differential_matrix
from mrbder.constructions import direct_sum
from mrbder.fields import Field, QQ
from mrbder.fuzzing import random_instances
from mrbder.structures import (adjoint_bimodule, dual_algebra, dual_pair, scalar_pair,
                               upper_triangular_pair)

from oracles import DEFAULT_CONVENTION, cochain_map, convention_candidates, operator_matrix

F5 = Field.prime(5)
FIELDS = {"Q": QQ, "F5": F5}
KINDS = ("hochschild", "modified", "operator_map", "derivation_defect",
         "operator", "operator_defect", "pair")

# The oracle takes about 35 s for the seven maps of dual+dual at degree 3
# (Python 3.11, 2-vCPU VM), so there it checks every 7th column and the last
# one; 7 is prime to dim_a = dim_m = 4, so every slot index and every output
# index is hit.
SAMPLED = {("dual+dual", 3): 7}


def fixture_pair(F, name):
    dual = dual_pair(F)
    return {"dual": dual, "ut": upper_triangular_pair(F, F.one),
            "dual+dual": direct_sum(dual, dual)}[name]


def assert_matches_oracle(pair, bim, n, which, stride=1):
    F = pair.field
    got = differential_matrix(pair, bim, n, which)
    dom, cod, fn = cochain_map(pair, bim, n, which)
    assert {type(x) for row in got.rows for x in row} <= {type(F.zero)}
    if stride == 1:
        want = operator_matrix(dom, cod, fn)
        assert (got.nrows, got.ncols) == (want.nrows, want.ncols)
        assert got.rows == want.rows, (n, which)
        return
    assert (got.nrows, got.ncols) == (cod.dim, dom.dim)
    for j, b in enumerate(dom.basis()):
        if j % stride == 0 or j == dom.dim - 1:
            assert tuple(row[j] for row in got.rows) == cod.flatten(fn(b)), (n, which, j)


CASES = [(f, name, n) for f in FIELDS for name, top in (("dual", 4), ("ut", 3), ("dual+dual", 3))
         for n in range(1, top + 1)]


@pytest.mark.parametrize("field,name,n", CASES)
def test_fixtures(field, name, n):
    pair = fixture_pair(FIELDS[field], name)
    bim = adjoint_bimodule(pair)
    for which in KINDS:
        assert_matches_oracle(pair, bim, n, which, stride=SAMPLED.get((name, n), 1))


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_random_instances(field, n):
    for inst in random_instances(FIELDS[field], 2, 8, seed=11):
        for which in KINDS:
            assert_matches_oracle(inst.pair, inst.bim, n, which)


@pytest.mark.parametrize("index", range(12))
def test_operator_map_conventions(index):
    # on scalar2/Q (kappa = -4) the twelve candidates give twelve different
    # matrices, so the engine's equal candidate i's exactly when i wins
    convention = convention_candidates()[index]
    pair = scalar_pair(dual_algebra(QQ), QQ.parse(2))
    bim = adjoint_bimodule(pair)
    for n in (2, 3):
        for which in ("operator_map", "pair"):
            want = operator_matrix(*cochain_map(pair, bim, n, which, convention))
            got = differential_matrix(pair, bim, n, which)
            assert (got.rows == want.rows) == (convention == DEFAULT_CONVENTION), (n, which)
