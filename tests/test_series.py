"""The truncated products of ``mrbder.deformation`` against the nested index
loops in ``oracles``, compared exactly (``==`` and ``repr``).

Random gauges over Q and F_5, of the deformation's order, shorter (padded
with zeros) and longer (truncated), some with zero terms, are applied to the
deformation fixtures: the shipped instances, the derivation scaling family,
zero deformations and deformations that are themselves gauged.
"""

import random
from pathlib import Path

import pytest

from mrbder.deformation import (Gauge, _orders, apply_gauge, check_deformation,
                                derivation_scaling_deformation, identity_gauge,
                                single_term_gauge, zero_deformation)
from mrbder.fields import Field, QQ
from mrbder.fuzzing import random_matrix
from mrbder.serialize import load_instance_file
from mrbder.structures import Algebra, MRBDerPair, dual_pair, upper_triangular_pair
from mrbder.linalg import Matrix

from oracles import nested_apply_gauge, nested_compose, nested_inverse_terms

F5 = Field.prime(5)
INSTANCES = Path(__file__).resolve().parents[1] / "instances"


def same(a, b):
    return a == b and repr(a) == repr(b)


def random_gauge(rng, F, n, order):
    """Id + t phi_1 + .. + t^order phi_order, each phi_k zero one time in four."""
    return Gauge(F, n, tuple(Matrix.zeros(F, n, n) if rng.random() < 0.25
                             else random_matrix(rng, F, n) for _ in range(order)))


def fixtures(F):
    """(label, deformation) over F."""
    rng = random.Random(7)
    dual = dual_pair(F)
    line = MRBDerPair(Algebra.from_table(F, 1, {(0, 0): (F.one,)}), Matrix.scalar(F, 1, F.parse(2)),
                      Matrix.zeros(F, 1, 1), F.parse(-4))
    out = [("scaling/dual/3", derivation_scaling_deformation(dual, 3)),
           ("zero/ut/2", zero_deformation(upper_triangular_pair(F, F.one), 2)),
           ("gauged-zero/line/4", apply_gauge(zero_deformation(line, 4), random_gauge(rng, F, 1, 4))),
           ("gauged-scaling/dual/2",
            apply_gauge(derivation_scaling_deformation(dual, 2), random_gauge(rng, F, 2, 2)))]
    name = "deform_d_scaling.json" if F.p is None else "deform_rigid_f5.json"
    out.append((name, load_instance_file(str(INSTANCES / name)).deformation))
    return out


def test_orders_lists_the_tuples_lexicographically():
    assert _orders(2, 3) == [(0, 3), (1, 2), (2, 1), (3, 0)]
    assert _orders(3, 1) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    for k in (1, 2, 3, 4):
        for n in range(5):
            got = _orders(k, n)
            assert got == sorted(got) and len(set(got)) == len(got)
            assert all(len(t) == k and sum(t) == n and min(t) >= 0 for t in got)
    # C(n + k - 1, k - 1) tuples
    assert [len(_orders(4, n)) for n in range(5)] == [1, 4, 10, 20, 35]


@pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "F5"])
def test_apply_gauge_matches_the_nested_loops(field):
    rng = random.Random(31)
    seen = 0
    for label, defo in fixtures(field):
        n, N = defo.pair.dim, defo.order
        gauges = [random_gauge(rng, field, n, order) for order in (N, max(N - 1, 1), N + 1)]
        gauges += [identity_gauge(defo.pair, N),
                   single_term_gauge(defo.pair, N, random_matrix(rng, field, n), N)]
        for g in gauges:
            got = apply_gauge(defo, g)
            assert same(got, nested_apply_gauge(defo, g)), label
            assert check_deformation(got).ok, label
            seen += got != defo
    # the gauges must move the deformations they are compared on
    assert seen > 0


@pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "F5"])
def test_gauge_series_match_the_nested_loops(field):
    rng = random.Random(32)
    for n in (1, 2):
        for order in range(1, 5):
            g = random_gauge(rng, field, n, order)
            h = random_gauge(rng, field, n, rng.randint(1, 4))
            for k in (order, order + 2):
                assert same(g.inverse_terms(k), nested_inverse_terms(g, k))
                assert same(g.compose(h, k), nested_compose(g, h, k))
                assert same(h.compose(g, k), nested_compose(h, g, k))
