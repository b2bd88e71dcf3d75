"""The integer induced maps of a complex against the field-level formulas.

``_Complex.induced`` lists mu_R, l~ and r~ (on the Lie side [,]_R and
rho~) as plain ints, times D^2, contracted from the integer maps of
``_Complex.scaled``.  Each list must equal the nonzeros of
``constructions.induced_product`` and ``induced_action`` (on the Lie side
``cohomology.induced_lie_pair``) times D^2: the same index tuples in the
same order, the same values, and ints.  The cases are the ladder fixtures
over Q and F_5, the same after basis changes drawn from seeds 0-3, random
instances of dimension 1 and 2 over Q, F_5 and F_7, and the Lie pairs of
the fixtures.  Over Q the build runs no code of ``fractions``.
"""

import fractions
import random
import sys

import pytest

from mrbder.cohomology import _lie_complex, _pair_complex, induced_lie_pair
from mrbder.constructions import (commutator_lie_pair, direct_sum, induced_action,
                                  induced_product, rho_representation)
from mrbder.fields import Field, QQ
from mrbder.fuzzing import conjugate_pair, random_instances, random_invertible
from mrbder.structures import adjoint_bimodule, dual_pair, upper_triangular_pair

from oracles import _nonzeros

FIELDS = {"Q": QQ, "F5": Field(5), "F7": Field(7)}


def ladder_pair(F, name):
    dual, ut = dual_pair(F), upper_triangular_pair(F, F.one)
    return {"dual": dual, "ut": ut, "dual+dual": direct_sum(dual, dual),
            "ut+dual": direct_sum(ut, dual)}[name]


def assert_induced(cx, tensors):
    """cx.induced() lists the nonzeros of the field tensors times D^2."""
    D2 = cx.scaled()[0] ** 2
    got = cx.induced()
    assert len(got) == len(tensors)
    for nz, t in zip(got, tensors):
        want = [(i, v * D2) for i, v in _nonzeros(t)]
        assert all(v.denominator == 1 for _, v in want if cx.field.p is None)
        assert nz == want
        assert {type(v) for _, v in nz} <= {int}


def assert_pair(pair, bim):
    R, R_M = pair.R, bim.R_M
    assert_induced(_pair_complex(pair, bim),
                   (induced_product(pair.mu, R), induced_action(bim.left, 0, R, R_M),
                    induced_action(bim.right, 1, R, R_M)))


def assert_lie(lp):
    ind = induced_lie_pair(lp)
    assert_induced(_lie_complex(lp), (ind.bracket, ind.rho))


LADDER = ("dual", "ut", "dual+dual", "ut+dual")


@pytest.mark.parametrize("field", ["Q", "F5"])
@pytest.mark.parametrize("name", LADDER)
@pytest.mark.parametrize("seed", [None, 0, 1, 2, 3], ids=lambda s: "std" if s is None else "conj%d" % s)
def test_ladder_fixtures(field, name, seed):
    F = FIELDS[field]
    pair = ladder_pair(F, name)
    if seed is not None:
        pair = conjugate_pair(pair, random_invertible(random.Random(seed), F, pair.dim))
    bim = adjoint_bimodule(pair)
    assert (_pair_complex(pair, bim).scaled()[0] > 1) == (seed is not None and F is QQ)
    assert_pair(pair, bim)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("dim", [1, 2])
def test_random_instances(field, dim):
    insts = random_instances(FIELDS[field], dim, 8, seed=5)
    for inst in insts:
        assert_pair(inst.pair, inst.bim)
    if field == "Q" and dim == 2:
        # fractional constants, so D > 1 and D^2 really scales the list
        assert any(_pair_complex(i.pair, i.bim).scaled()[0] > 1 for i in insts)


@pytest.mark.parametrize("field", ["Q", "F5", "F7", "conjugated Q"])
@pytest.mark.parametrize("name", ["dual", "ut", "ut+dual"])
def test_lie_pairs(field, name):
    F = QQ if field == "conjugated Q" else FIELDS[field]
    pair = ladder_pair(F, name)
    if field == "conjugated Q":
        pair = conjugate_pair(pair, random_invertible(random.Random(0), F, pair.dim))
    # the adjoint Lie pair, and the one that acts on the adjoint bimodule
    assert_lie(commutator_lie_pair(pair))
    assert_lie(rho_representation(pair, adjoint_bimodule(pair)))


def test_the_q_build_runs_no_fraction_code():
    pair = ladder_pair(QQ, "ut+dual")
    pair = conjugate_pair(pair, random_invertible(random.Random(0), QQ, pair.dim))
    cx = _pair_complex(pair, adjoint_bimodule(pair))
    cx.scaled()
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == fractions.__file__:
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        got = cx.induced()
    finally:
        sys.setprofile(None)
    assert calls == []
    assert cx.scaled()[0] > 1 and any(got)
    # the field-level formula runs on the stored ints too, and the same
    # profile sees fractions made once its view is read
    sys.setprofile(profile)
    try:
        ind = induced_product(pair.mu, pair.R)
    finally:
        sys.setprofile(None)
    assert calls == []
    sys.setprofile(profile)
    try:
        ind.entries
    finally:
        sys.setprofile(None)
    assert calls
