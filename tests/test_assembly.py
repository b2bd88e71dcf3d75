"""The sparse assembly of D_n against the transcribed cochain-level maps.

``differential_matrix`` writes each structure map down from the structure
constants; the oracle builds the same matrix one basis cochain at a time
through the transcriptions of ``hochschild_delta``, ``modified_delta``,
``operator_map``, ``derivation_defect``, ``operator_delta`` and
``pair_delta`` in ``oracles``.

The integer build is held to the former build in the field's arithmetic,
``oracles.field_matrix``: the same values, value types and key order in
every sparse row, on the standard fixtures, on the same fixtures after a
basis change (a common denominator D > 1 over Q), on random instances with
fractional constants and kappa, over F_p with p = 2**61 - 1 (large lifts)
and on the Lie complex.
"""

import random

import pytest

from mrbder.cohomology import _MATRIX_KINDS, _lie_complex, _pair_complex, differential_matrix
from mrbder.constructions import commutator_lie_pair, direct_sum, rho_representation
from mrbder.fields import Field, QQ
from mrbder.fuzzing import conjugate_pair, random_instances, random_invertible
from mrbder.linalg import MAX_ENTRIES
from mrbder.structures import (adjoint_bimodule, dual_algebra, dual_pair, scalar_pair,
                               upper_triangular_pair)

from oracles import (DEFAULT_CONVENTION, cochain_map, convention_candidates, field_matrix,
                     operator_matrix)

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


# ---------------------------------------------------------------------------
# the integer assembly against the former one in the field's arithmetic

# F_p with p = 2**61 - 1, whose residues are large lifts
WIDE_FIELDS = {**FIELDS, "P61": Field.prime(2 ** 61 - 1)}


def conjugated(pair):
    F = pair.field
    return conjugate_pair(pair, random_invertible(random.Random(0), F, pair.dim))


def assert_matches_field_build(cx, n):
    F = cx.field
    for which in _MATRIX_KINDS:
        got = cx.matrix(n, which, MAX_ENTRIES)
        want = field_matrix(cx, n, which)
        assert (got.nrows, got.ncols) == (want.nrows, want.ncols), (n, which)
        assert [list(row.items()) for row in got.sparse_rows] \
            == [list(row.items()) for row in want.sparse_rows], (n, which)
        assert {type(x) for row in got.sparse_rows for x in row.values()} <= {type(F.zero)}


INTEGER_CASES = [(f, name, conj, n) for f in WIDE_FIELDS for conj in (False, True)
                 for name, top in (("dual", 4), ("ut", 3), ("dual+dual", 3))
                 for n in range(1, top + 1)]


@pytest.mark.parametrize("field,name,conj,n", INTEGER_CASES)
def test_integer_build_on_fixtures(field, name, conj, n):
    F = WIDE_FIELDS[field]
    pair = fixture_pair(F, name)
    if conj:
        pair = conjugated(pair)
    cx = _pair_complex(pair, adjoint_bimodule(pair))
    # a basis change gives the structure constants denominators over Q
    assert (cx.scaled()[0] > 1) == (conj and F is QQ)
    assert_matches_field_build(cx, n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_integer_build_on_random_instances(n):
    # fractional structure constants and kappa
    insts = random_instances(QQ, 2, 8, seed=11)
    assert any(_pair_complex(i.pair, i.bim).scaled()[0] > 1 for i in insts)
    for inst in insts:
        assert_matches_field_build(_pair_complex(inst.pair, inst.bim), n)


@pytest.mark.parametrize("field", ["Q", "F5", "P61", "conjugated Q"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_integer_build_on_the_lie_complex(field, n):
    F = QQ if field == "conjugated Q" else WIDE_FIELDS[field]
    pair = upper_triangular_pair(F, F.one)
    if field == "conjugated Q":
        pair = conjugated(pair)
    # the adjoint Lie pair, and the one that acts on the adjoint bimodule
    for lp in (commutator_lie_pair(pair), rho_representation(pair, adjoint_bimodule(pair))):
        assert_matches_field_build(_lie_complex(lp), n)
