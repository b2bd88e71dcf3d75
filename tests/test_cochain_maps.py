"""The cochain-level maps against their transcriptions.

``hochschild_delta``, ``modified_delta``, ``operator_map``,
``derivation_defect``, ``operator_delta`` and ``pair_delta``, and on the Lie
side ``ce_delta``, ``lie_operator_map``, ``lie_derivation_defect`` and
``lie_pair_delta``, evaluate the entry lists that ``differential_matrix``
sums; ``oracles`` writes each one out from its formula.  They must agree
entry for entry on basis cochains and on seeded random cochains.
"""

import random

import pytest

from mrbder.cohomology import (Cochain, CochainSpace, PairSpace, ce_delta,
                               cochain_arities, derivation_defect, hochschild_delta,
                               hom_space, lie_derivation_defect, lie_operator_map,
                               lie_pair_delta, modified_delta, operator_delta,
                               operator_map, pair_delta)
from mrbder.constructions import commutator_lie_pair, direct_sum, rho_representation
from mrbder.fields import Field, QQ
from mrbder.fuzzing import random_instances
from mrbder.linalg import MultiTensor, ShapeError
from mrbder.structures import adjoint_bimodule, dual_pair, upper_triangular_pair

import oracles

F5 = Field.prime(5)
FIELDS = {"Q": QQ, "F5": F5}

# (engine, transcription) pairs
PAIR_CN = [(hochschild_delta, oracles.hochschild_delta),
           (modified_delta, oracles.modified_delta),
           (operator_map, oracles.operator_map),
           (derivation_defect, oracles.derivation_defect)]
PAIR_GRADED = [(2, operator_delta, oracles.operator_delta), (4, pair_delta, oracles.pair_delta)]
LIE_CN = [(ce_delta, oracles.ce_delta),
          (lie_operator_map, oracles.lie_operator_map),
          (lie_derivation_defect, oracles.lie_derivation_defect)]


def fixtures(F):
    dual = dual_pair(F)
    named = [dual, upper_triangular_pair(F, F.one), direct_sum(dual, dual)]
    out = [(p, adjoint_bimodule(p)) for p in named]
    return out + [(inst.pair, inst.bim) for inst in random_instances(F, 2, 8, seed=11)]


def lie_pairs(pair, bim, adjoint):
    """(Lie pair, module dimension): with rho from the bimodule, and when
    ``adjoint`` also the commutator Lie pair acting on itself (rho unset)."""
    out = [(rho_representation(pair, bim), bim.dim_m)]
    return out + [(commutator_lie_pair(pair), pair.dim)] if adjoint else out


def inputs(space, rng):
    """A sample of the basis and three random elements of ``space``.

    Past 64 basis elements every 7th is taken, past 160 every 29th, and the
    last; both are prime to every dim_a and dim_m here, so every output
    index is hit.  (The transcriptions take about 2 s per map on the
    400-dimensional PC^3 of dual+dual, Python 3.11, 2-vCPU VM.)
    """
    stride = 1 if space.dim <= 64 else 7 if space.dim <= 160 else 29
    for j, b in enumerate(space.basis()):
        if j % stride == 0 or j == space.dim - 1:
            yield b
    F = space.field
    for _ in range(3):
        yield space.unflatten(tuple(F.random(rng) for _ in range(space.dim)))


def parts(c):
    return [p.entries for p in c.parts]


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_maps_match_transcriptions(field, n):
    F = FIELDS[field]
    rng = random.Random(100 + n)
    for k, (pair, bim) in enumerate(fixtures(F)):
        nA, m = pair.dim, bim.dim_m
        for f in inputs(hom_space(nA, m, n, F), rng):
            for engine, oracle in PAIR_CN:
                assert engine(pair, bim, f).entries == oracle(pair, bim, f).entries, engine
        for layers, engine, oracle in PAIR_GRADED:
            for c in inputs(CochainSpace(F, nA, m, cochain_arities(n, layers)), rng):
                got = engine(pair, bim, c)
                assert got.degree == n + 1
                assert parts(got) == parts(oracle(pair, bim, c)), engine
        for lp, dim_m in lie_pairs(pair, bim, adjoint=k == 0):
            for f in inputs(hom_space(nA, dim_m, n, F), rng):
                for engine, oracle in LIE_CN:
                    assert engine(lp, f).entries == oracle(lp, f).entries, engine
            for c in inputs(PairSpace(F, nA, dim_m, n), rng):
                assert parts(lie_pair_delta(lp, c)) == parts(oracles.lie_pair_delta(lp, c))


class TestShapeErrors:
    def test_wrong_arity_or_dims(self, dual_q_adj):
        pair, bim = dual_q_adj
        lp = rho_representation(pair, bim)
        arity0 = MultiTensor.zeros(QQ, (), 2)
        wrong_dims = MultiTensor.zeros(QQ, (3, 3), 2)
        wrong_cod = MultiTensor.zeros(QQ, (2,), 3)
        for f, msg in ((arity0, "cochain degree must be >= 1"),
                       (wrong_dims, r"cochain must map A\^2 -> M"),
                       (wrong_cod, r"cochain must map A\^1 -> M")):
            for engine, oracle in PAIR_CN:
                for fn in (engine, oracle):
                    with pytest.raises(ShapeError, match=msg):
                        fn(pair, bim, f)
            if f is not arity0:
                for fn in (ce_delta, oracles.ce_delta):
                    with pytest.raises(ShapeError, match=msg):
                        fn(lp, f)

    def test_wrong_part_in_a_graded_cochain(self, dual_q_adj):
        pair, bim = dual_q_adj
        c = Cochain(2, (MultiTensor.zeros(QQ, (2, 2), 2), MultiTensor.zeros(QQ, (3,), 2),
                        MultiTensor.zeros(QQ, (2,), 2)))
        for fn in (pair_delta, oracles.pair_delta):
            with pytest.raises(ShapeError, match="cochain must map A\\^1 -> M"):
                fn(pair, bim, c)

    def test_layouts(self, dual_q_adj):
        pair, bim = dual_q_adj
        lp = rho_representation(pair, bim)
        pc2 = PairSpace(QQ, 2, 2, 2).zero()
        oc2 = CochainSpace(QQ, 2, 2, cochain_arities(2, 2)).zero()
        for fn in (operator_delta, oracles.operator_delta):
            with pytest.raises(ShapeError, match="expected a cochain in OC\\^2"):
                fn(pair, bim, pc2)
        for fn in (pair_delta, oracles.pair_delta):
            with pytest.raises(ShapeError, match="expected a cochain in PC\\^2"):
                fn(pair, bim, oc2)
        for fn in (lie_pair_delta, oracles.lie_pair_delta):
            with pytest.raises(ShapeError, match="expected a cochain in PC\\^2"):
                fn(lp, oc2)
