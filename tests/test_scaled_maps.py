"""The integer maps of a complex, read off the matrices' stored pairs.

``_Complex.scaled`` reads R, R_M^T, d and d_M^T through ``int_rows``,
brings each pair to its least scale, and multiplies its ints up to D, the
lcm of those scales with the denominators of kappa and of the tensors'
entries.  The result must be the tuple ``oracles.fraction_scaled`` builds
from the same maps read as field values: the same D, tensor lists, matrix
ints with their keys in the same order, kappa D^2 and b.  The cases are the
standard-basis ladder fixtures over Q and F_5, the same after basis changes
drawn from seeds 0-3, and random instances of dimension 1 and 2.  Over Q a
direct sum's R, a block sum stored as ints, is never read as Fractions.
"""

import random

import pytest

from mrbder.cohomology import _pair_complex, cohomology
from mrbder.fields import Field, QQ
from mrbder.fuzzing import conjugate_pair, random_instances, random_invertible
from mrbder.structures import adjoint_bimodule

from oracles import fraction_scaled
from test_induced import LADDER, ladder_pair

FIELDS = {"Q": QQ, "F5": Field(5)}


def assert_scaled(pair, bim):
    cx = _pair_complex(pair, bim)
    got = cx.scaled()
    want = fraction_scaled(cx)      # reads the Fraction views, so after scaled()
    assert got == want
    (_, _, (R, R_M, kappa, d, d_M), _), (_, _, want_maps, _) = got, want
    assert [[list(row.items()) for row in rows] for rows in (R, R_M, d, d_M)] \
        == [[list(row.items()) for row in rows] for k, rows in enumerate(want_maps) if k != 2]
    assert {type(v) for rows in (R, R_M, d, d_M) for row in rows for v in row.values()} <= {int}
    assert type(kappa) is int


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name", LADDER)
@pytest.mark.parametrize("seed", [None, 0, 1, 2, 3], ids=lambda s: "std" if s is None else "conj%d" % s)
def test_ladder_fixtures(field, name, seed):
    F = FIELDS[field]
    pair = ladder_pair(F, name)
    if seed is not None:
        pair = conjugate_pair(pair, random_invertible(random.Random(seed), F, pair.dim))
    assert_scaled(pair, adjoint_bimodule(pair))


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("dim", [1, 2])
def test_random_instances(field, dim):
    for inst in random_instances(FIELDS[field], dim, 8, seed=5):
        assert_scaled(inst.pair, inst.bim)


def test_a_block_sum_is_not_read_as_fractions():
    pair = ladder_pair(QQ, "dual+dual")
    bim = adjoint_bimodule(pair)
    cohomology(pair, bim, 2)
    assert pair.R._sparse is None and pair.d._sparse is None
    assert bim.R_M.transpose()._sparse is None
