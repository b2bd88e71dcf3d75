import random

import pytest

from mrbder.cohomology import Cochain, PairSpace, differential_matrix, pair_delta
from mrbder.deformation import (MAX_DEFORMATION_ORDER, Deformation, Gauge,
                                apply_gauge, check_deformation,
                                derivation_scaling_deformation,
                                identity_gauge, infinitesimal,
                                single_term_gauge, trivialize,
                                zero_deformation)
from mrbder.fields import Field, QQ
from mrbder.linalg import Matrix, MultiTensor, ShapeError, rank_and_kernel
from mrbder.structures import (Algebra, InvalidStructure, MRBDerPair,
                               adjoint_bimodule, dual_pair, verify_pair)

F5 = Field.prime(5)


def rigid_pair_f5(r=2):
    alg = Algebra.from_table(F5, 1, {(0, 0): (F5.one,)})
    return MRBDerPair(alg, Matrix.scalar(F5, 1, F5.parse(r)),
                      Matrix.zeros(F5, 1, 1), F5.parse(-r * r))


def random_closed_two_cochain(pair, rng):
    bim = adjoint_bimodule(pair)
    d2 = differential_matrix(pair, bim, 2, "pair")
    _, kernel = rank_and_kernel(d2)
    F = pair.field
    space = PairSpace(F, pair.dim, pair.dim, 2)
    acc = [F.zero] * space.dim
    for v in kernel:
        c = F.random(rng)
        acc = [F.add(a, F.mul(c, x)) for a, x in zip(acc, v)]
    return space.unflatten(tuple(acc))


def deformation_from_cochain(pair, c, order=1):
    from mrbder.linalg import tensor_as_matrix
    f2, g1, h1 = c.parts
    F, n = pair.field, pair.dim
    z2 = MultiTensor.zeros(F, (n, n), n)
    zm = Matrix.zeros(F, n, n)
    pad = order - 1
    return Deformation(pair, order,
                       (f2,) + (z2,) * pad,
                       (tensor_as_matrix(g1),) + (zm,) * pad,
                       (tensor_as_matrix(h1),) + (zm,) * pad)


class TestDeformationData:
    def test_zero_deformation(self, dual_q):
        defo = zero_deformation(dual_q, 3)
        assert defo.is_zero()
        assert defo.lowest_nonzero() is None
        assert check_deformation(defo).ok

    def test_coefficient_indexing(self, dual_q):
        defo = derivation_scaling_deformation(dual_q, 2)
        assert defo.mu_at(0).entries == dual_q.mu.entries
        assert defo.R_at(0).rows == dual_q.R.rows
        assert defo.d_at(1).rows == dual_q.d.rows
        assert defo.d_at(2).is_zero()
        # beyond the truncation order everything reads as zero
        assert defo.mu_at(5).is_zero()
        assert defo.R_at(5).is_zero()
        assert defo.lowest_nonzero() == 1

    def test_truncate(self, dual_q):
        defo = derivation_scaling_deformation(dual_q, 3)
        t = defo.truncate(1)
        assert t.order == 1
        assert t.d_at(1).rows == dual_q.d.rows
        with pytest.raises(ShapeError):
            t.truncate(2)

    def test_order_caps(self, dual_q):
        with pytest.raises(ShapeError):
            zero_deformation(dual_q, 0)
        with pytest.raises(ShapeError):
            zero_deformation(dual_q, MAX_DEFORMATION_ORDER + 1)

    def test_shape_guards(self, dual_q):
        z2 = MultiTensor.zeros(QQ, (2, 2), 2)
        zm = Matrix.zeros(QQ, 2, 2)
        with pytest.raises(ShapeError):
            Deformation(dual_q, 2, (z2,), (zm, zm), (zm, zm))
        with pytest.raises(ShapeError):
            Deformation(dual_q, 1, (z2,), (Matrix.zeros(QQ, 3, 3),), (zm,))


class TestCoefficientEquations:
    def test_derivation_scaling_is_a_deformation(self, dual_q):
        for order in (1, 2, 3):
            assert check_deformation(derivation_scaling_deformation(dual_q, order)).ok

    def test_order1_valid_iff_infinitesimal_closed(self, dual_q):
        bim = adjoint_bimodule(dual_q)
        rng = random.Random(20)
        for _ in range(10):
            c = random_closed_two_cochain(dual_q, rng)
            defo = deformation_from_cochain(dual_q, c)
            assert check_deformation(defo).ok
            assert pair_delta(dual_q, bim, infinitesimal(defo)).is_zero()

    def test_non_cocycle_coefficient_rejected(self, dual_q):
        bim = adjoint_bimodule(dual_q)
        space = PairSpace(QQ, 2, 2, 2)
        d2 = differential_matrix(dual_q, bim, 2, "pair")
        rng = random.Random(21)
        for _ in range(20):
            vec = tuple(QQ.random(rng) for _ in range(space.dim))
            if all(QQ.is_zero(x) for x in d2.apply(vec)):
                continue
            defo = deformation_from_cochain(dual_q, space.unflatten(vec))
            rep = check_deformation(defo)
            assert not rep.ok
            assert rep.first.identity in ("deform-assoc", "deform-mrb",
                                          "deform-der", "deform-comm")
            assert rep.first.args[0] == 1  # the failing order
            return
        raise AssertionError("never sampled a non-cocycle")

    def test_infinitesimal_components(self, dual_q):
        defo = derivation_scaling_deformation(dual_q, 2)
        c = infinitesimal(defo)
        f2, g1, h1 = c.parts
        assert f2.is_zero()
        assert g1.is_zero()
        from mrbder.linalg import tensor_as_matrix
        assert tensor_as_matrix(h1).rows == dual_q.d.rows


class TestGauge:
    def test_term_at_identity_and_padding(self, dual_q):
        g = identity_gauge(dual_q, 2)
        assert g.term_at(0).rows == Matrix.identity(QQ, 2).rows
        assert g.term_at(1).is_zero()
        assert g.term_at(9).is_zero()

    def test_inverse_terms_cancel(self):
        rng = random.Random(22)
        g = Gauge(F5, 2, tuple(
            Matrix.from_rows(F5, [[F5.random(rng) for _ in range(2)] for _ in range(2)])
            for _ in range(3)))
        psi = g.inverse_terms(3)
        assert psi[0].rows == Matrix.identity(F5, 2).rows
        for k in range(1, 4):
            acc = Matrix.zeros(F5, 2, 2)
            for i in range(k + 1):
                acc = acc + psi[i] * g.term_at(k - i)
            assert acc.is_zero()

    def test_compose_is_sequential_application(self):
        pair = dual_pair(F5)
        rng = random.Random(23)
        def rand_gauge():
            return Gauge(F5, 2, tuple(
                Matrix.from_rows(F5, [[F5.random(rng) for _ in range(2)] for _ in range(2)])
                for _ in range(3)))
        g1, g2 = rand_gauge(), rand_gauge()
        defo = derivation_scaling_deformation(pair, 3)
        two_steps = apply_gauge(apply_gauge(defo, g1), g2)
        one_step = apply_gauge(defo, g1.compose(g2, 3))
        assert two_steps.mu_terms == one_step.mu_terms
        assert two_steps.R_terms == one_step.R_terms
        assert two_steps.d_terms == one_step.d_terms

    def test_identity_gauge_acts_trivially(self, dual_q):
        defo = derivation_scaling_deformation(dual_q, 3)
        out = apply_gauge(defo, identity_gauge(dual_q, 3))
        assert out.mu_terms == defo.mu_terms
        assert out.R_terms == defo.R_terms
        assert out.d_terms == defo.d_terms

    def test_gauge_preserves_validity(self):
        pair = dual_pair(F5)
        rng = random.Random(24)
        defo = derivation_scaling_deformation(pair, 3)
        for _ in range(5):
            g = Gauge(F5, 2, tuple(
                Matrix.from_rows(F5, [[F5.random(rng) for _ in range(2)] for _ in range(2)])
                for _ in range(3)))
            assert check_deformation(apply_gauge(defo, g)).ok

    def test_gauged_zero_infinitesimal_is_coboundary(self, dual_q):
        # applying Id + t*phi to the constant family produces the deformation
        # whose infinitesimal is exactly the differential of phi
        from mrbder.linalg import matrix_as_tensor
        bim = adjoint_bimodule(dual_q)
        rng = random.Random(25)
        phi = Matrix.from_rows(QQ, [[QQ.random(rng) for _ in range(2)] for _ in range(2)])
        defo = apply_gauge(zero_deformation(dual_q, 2), single_term_gauge(dual_q, 1, phi, 2))
        got = infinitesimal(defo)
        want = pair_delta(dual_q, bim, Cochain(1, (matrix_as_tensor(phi),)))
        assert (got - want).is_zero()


class TestTrivialize:
    def test_zero_trivializes_to_identity(self, dual_q):
        g = trivialize(zero_deformation(dual_q, 2))
        assert g is not None
        assert all(t.is_zero() for t in g.terms)

    def test_derivation_scaling_is_essential(self, dual_q):
        # its infinitesimal generates H^2, so no gauge removes it
        defo = derivation_scaling_deformation(dual_q, 3)
        assert trivialize(defo) is None

    def test_gauged_zero_comes_back(self):
        pair = rigid_pair_f5(2)
        g0 = single_term_gauge(pair, 1, Matrix.scalar(F5, 1, F5.parse(3)), 3)
        g0 = g0.compose(single_term_gauge(pair, 2, Matrix.scalar(F5, 1, F5.one), 3), 3)
        defo = apply_gauge(zero_deformation(pair, 3), g0)
        assert not defo.is_zero()
        g = trivialize(defo)
        assert g is not None
        assert apply_gauge(defo, g).is_zero()
        # the trivializing gauge is the series inverse of g0
        assert [m.rows for m in g.terms] == [((F5.parse(2),),), ((F5.parse(3),),),
                                             ((F5.parse(1),),)]

    def test_rigid_pair_trivializes_random_gauges(self):
        pair = rigid_pair_f5(3)
        rng = random.Random(26)
        for _ in range(5):
            g0 = Gauge(F5, 1, tuple(Matrix.scalar(F5, 1, F5.random(rng)) for _ in range(3)))
            defo = apply_gauge(zero_deformation(pair, 3), g0)
            g = trivialize(defo)
            assert g is not None
            assert apply_gauge(defo, g).is_zero()

    def test_max_order_stops_early(self, dual_q):
        # order 1 is clean, the obstruction sits at order 1 already for the
        # scaling family, so cap below it and get the identity gauge back
        pair = rigid_pair_f5(2)
        g0 = single_term_gauge(pair, 2, Matrix.scalar(F5, 1, F5.parse(4)), 3)
        defo = apply_gauge(zero_deformation(pair, 3), g0)
        assert defo.lowest_nonzero() == 2
        g = trivialize(defo, max_order=1)
        assert g is not None
        assert all(t.is_zero() for t in g.terms)

    def test_invalid_input_raises(self, dual_q):
        bad = deformation_from_cochain(
            dual_q,
            PairSpace(QQ, 2, 2, 2).unflatten(
                tuple(QQ.parse(k % 3) for k in range(16))))
        if check_deformation(bad).ok:
            pytest.skip("sampled vector accidentally closed")
        with pytest.raises(InvalidStructure):
            trivialize(bad)

    def test_verifies_against_gauge_orbit_of_valid_pair(self):
        # sanity: the base pair itself stays a valid pair
        pair = rigid_pair_f5(2)
        assert verify_pair(pair).ok


class TestEquivalentInfinitesimals:
    def test_deformation_against_itself(self, dual_q):
        from mrbder.deformation import equivalent_infinitesimals
        defo = derivation_scaling_deformation(dual_q, 3)
        psi = equivalent_infinitesimals(defo, defo)
        assert psi is not None
        assert psi.is_zero()

    def test_recovers_gauge_certificate(self, dual_q):
        from mrbder.deformation import equivalent_infinitesimals
        from mrbder.linalg import matrix_as_tensor
        bim = adjoint_bimodule(dual_q)
        rng = random.Random(31)
        for _ in range(5):
            phi = Matrix.from_rows(
                QQ, [[QQ.random(rng) for _ in range(2)] for _ in range(2)])
            zero = zero_deformation(dual_q, 2)
            gauged = apply_gauge(zero, single_term_gauge(dual_q, 1, phi, 2))
            psi = equivalent_infinitesimals(gauged, zero)
            assert psi is not None
            lhs = pair_delta(dual_q, bim, Cochain(1, (matrix_as_tensor(psi),)))
            rhs = infinitesimal(gauged) - infinitesimal(zero)
            assert (lhs - rhs).is_zero()

    def test_distinct_classes_give_none(self, dual_q):
        # the derivation-scaling family is essential, the constant one is not
        from mrbder.deformation import equivalent_infinitesimals
        defo = derivation_scaling_deformation(dual_q, 2)
        assert equivalent_infinitesimals(defo, zero_deformation(dual_q, 2)) is None
        assert equivalent_infinitesimals(zero_deformation(dual_q, 2), defo) is None

    def test_different_base_pairs_rejected(self, dual_q):
        from mrbder.deformation import equivalent_infinitesimals
        with pytest.raises(ShapeError):
            equivalent_infinitesimals(zero_deformation(dual_q, 2),
                                      zero_deformation(rigid_pair_f5(2), 2))
