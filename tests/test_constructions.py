import random

import pytest

from mrbder.constructions import (KappaMismatch, LiePair, bimodule_rb_to_mrb,
                                  check_lie_pair, check_rota_baxter,
                                  commutator_bracket, commutator_lie_pair,
                                  direct_sum, induced_algebra,
                                  induced_bimodule, rb_to_mrb,
                                  rho_representation, semidirect_product)
from mrbder.fields import Field, QQ
from mrbder.fuzzing import conjugate_bimodule, conjugate_pair, random_invertible
from mrbder.linalg import Matrix
from mrbder.structures import (Algebra, InvalidStructure, adjoint_bimodule,
                               check_bimodule, dual_algebra, dual_pair,
                               scalar_pair, unit_vector, upper_triangular_pair,
                               verify_pair, zero_pair)

F5 = Field.prime(5)


class TestInduced:
    def test_induced_product_table(self, dual_q):
        ind = induced_algebra(dual_q)
        two = QQ.parse(2)
        assert ind.mu.value_at(0, 0) == (two, QQ.zero)
        assert ind.mu.value_at(0, 1) == (QQ.zero, QQ.zero)
        assert ind.mu.value_at(1, 0) == (QQ.zero, QQ.zero)
        assert ind.mu.value_at(1, 1) == (QQ.zero, QQ.zero)

    def test_induced_pair_verifies(self, dual_q):
        assert verify_pair(induced_algebra(dual_q)).ok

    def test_induced_verifies_on_more_pairs(self):
        for pair in (upper_triangular_pair(QQ, QQ.parse(2)),
                     upper_triangular_pair(F5, F5.parse(3)),
                     scalar_pair(dual_algebra(F5), F5.parse(2))):
            assert verify_pair(induced_algebra(pair)).ok

    def test_induced_action_value(self, dual_q_adj):
        pair, bim = dual_q_adj
        ind = induced_bimodule(pair, bim)
        # l~(e0, e1) = mu(R e0, e1) - R mu(e0, e1) = e1 + e1
        assert ind.left.value_at(0, 1) == (QQ.zero, QQ.parse(2))
        assert ind.right.value_at(1, 0) == (QQ.zero, QQ.parse(2))

    def test_induced_bimodule_over_induced_pair(self, dual_q_adj):
        pair, bim = dual_q_adj
        assert check_bimodule(induced_algebra(pair), induced_bimodule(pair, bim)).ok

    def test_induced_rejects_invalid(self, dual_q):
        from mrbder.structures import MRBDerPair
        bad = MRBDerPair(dual_q.algebra, dual_q.R, dual_q.d, QQ.zero)
        with pytest.raises(InvalidStructure):
            induced_algebra(bad)


class TestSums:
    def test_direct_sum_verifies(self):
        p = direct_sum(dual_pair(QQ), scalar_pair(dual_algebra(QQ), QQ.one))
        assert p.dim == 4
        assert verify_pair(p).ok
        # cross products vanish
        assert p.mu.value_at(0, 2) == (QQ.zero,) * 4
        assert p.mu.value_at(3, 1) == (QQ.zero,) * 4

    def test_direct_sum_kappa_mismatch(self):
        with pytest.raises(KappaMismatch):
            direct_sum(dual_pair(QQ), scalar_pair(dual_algebra(QQ), QQ.parse(2)))

    def test_semidirect_product_verifies(self, dual_q_adj):
        pair, bim = dual_q_adj
        sd = semidirect_product(pair, bim)
        assert sd.dim == 4
        assert verify_pair(sd).ok
        # M is a square-zero ideal
        assert sd.mu.value_at(2, 2) == (QQ.zero,) * 4
        assert sd.mu.value_at(2, 3) == (QQ.zero,) * 4
        # l(e0, m0) lands in the M block
        assert sd.mu.value_at(0, 2) == (QQ.zero, QQ.zero, QQ.one, QQ.zero)

    def test_semidirect_rejects_broken_bimodule(self, dual_q_adj):
        pair, bim = dual_q_adj
        from mrbder.structures import Bimodule
        bad = Bimodule(2, bim.left, bim.right,
                       Matrix.from_rows(QQ, [[QQ.zero, QQ.zero], [QQ.zero, QQ.one]]),
                       bim.d_M)
        with pytest.raises(InvalidStructure):
            semidirect_product(pair, bad)


class TestLieSide:
    def test_commutator_of_commutative_is_abelian(self, dual_q):
        br = commutator_bracket(dual_q.algebra)
        assert br.is_zero()

    def test_upper_triangular_commutator_nonabelian(self):
        pair = upper_triangular_pair(QQ, QQ.parse(2))
        lp = commutator_lie_pair(pair)
        assert not lp.bracket.is_zero()
        assert check_lie_pair(lp).ok

    def test_commutator_and_induced_commute(self):
        # bracket of the induced product = induced bracket of the commutator
        pair = upper_triangular_pair(QQ, QQ.parse(3))
        lhs = commutator_bracket(induced_algebra(pair).algebra)
        br = commutator_bracket(pair.algebra)
        rhs = br.precompose_slot(0, pair.R) + br.precompose_slot(1, pair.R)
        assert lhs.entries == rhs.entries

    def test_rho_representation_checks(self, dual_q_adj):
        pair, bim = dual_q_adj
        lp = rho_representation(pair, bim)
        assert lp.dim_m == 2
        assert check_lie_pair(lp).ok

    def test_rho_of_commutative_adjoint_is_zero(self, dual_q_adj):
        pair, bim = dual_q_adj
        assert rho_representation(pair, bim).rho.is_zero()

    def test_broken_jacobi_detected(self):
        # antisymmetric with [e0,e1] = e2, [e0,e2] = e0: the (0,1,2) cyclic sum
        # is [e2,e2] + 0 + [-e0,e1] = -e2
        F = QQ
        def fn(i, j):
            v = [F.zero] * 3
            if (i, j) == (0, 1):
                v[2] = F.one
            elif (i, j) == (1, 0):
                v[2] = F.parse(-1)
            elif (i, j) == (0, 2):
                v[0] = F.one
            elif (i, j) == (2, 0):
                v[0] = F.parse(-1)
            return tuple(v)
        from mrbder.linalg import MultiTensor
        from mrbder.constructions import LiePair
        br = MultiTensor.from_map(F, (3, 3), 3, fn)
        lp = LiePair(F, 3, br, Matrix.zeros(F, 3, 3), Matrix.zeros(F, 3, 3), F.zero)
        rep = check_lie_pair(lp)
        assert not rep.ok
        assert "jacobi" in {f.identity for f in rep.failures}

    def test_nonantisymmetric_detected(self, dual_q):
        lp = commutator_lie_pair(dual_q)
        from mrbder.constructions import LiePair
        bad = LiePair(QQ, 2, dual_q.mu, lp.R, lp.d, lp.kappa)
        rep = check_lie_pair(bad)
        names = {f.identity for f in rep.failures}
        assert "alternating" in names


class TestConjugation:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_conjugate_pair_still_verifies(self, seed):
        rng = random.Random(seed)
        pair = dual_pair(F5)
        T = random_invertible(rng, F5, 2)
        assert verify_pair(conjugate_pair(pair, T)).ok

    @pytest.mark.parametrize("seed", [3, 4])
    def test_conjugate_bimodule_still_checks(self, seed):
        rng = random.Random(seed)
        pair = dual_pair(F5)
        bim = adjoint_bimodule(pair)
        T = random_invertible(rng, F5, 2)
        # adjoint transport needs the same change of basis on both factors
        assert check_bimodule(conjugate_pair(pair, T),
                              conjugate_bimodule(bim, T, T)).ok

    def test_conjugation_by_identity_fixes(self, dual_q):
        same = conjugate_pair(dual_q, Matrix.identity(QQ, 2))
        assert same.mu.entries == dual_q.mu.entries
        assert same.R.rows == dual_q.R.rows


class TestRotaBaxter:
    def test_projection_is_rb_weight_minus_one(self, dual_q):
        # P = diag(1, 0) on the dual algebra: P(1) = 1, P(x) = 0
        P = Matrix.from_rows(QQ, [[QQ.one, QQ.zero], [QQ.zero, QQ.zero]])
        assert check_rota_baxter(dual_q.algebra, P, QQ.parse(-1)).ok

    def test_rb_to_mrb_recovers_dual_pair(self, dual_q):
        P = Matrix.from_rows(QQ, [[QQ.one, QQ.zero], [QQ.zero, QQ.zero]])
        pair = rb_to_mrb(dual_q.algebra, P, QQ.parse(-1), dual_q.d)
        assert pair.R.rows == dual_q.R.rows
        assert pair.kappa == QQ.parse(-1)
        assert verify_pair(pair).ok

    def test_zero_operator_any_weight(self):
        alg = dual_algebra(QQ)
        lam = QQ.parse(3)
        pair = rb_to_mrb(alg, Matrix.zeros(QQ, 2, 2), lam, Matrix.zeros(QQ, 2, 2))
        assert pair.kappa == QQ.parse(-9)
        assert pair.R.rows == Matrix.scalar(QQ, 2, lam).rows
        assert verify_pair(pair).ok

    def test_identity_is_rb_weight_minus_one(self, dual_q):
        # Id satisfies the weight -1 identity on any algebra
        assert check_rota_baxter(dual_q.algebra, Matrix.identity(QQ, 2),
                                 QQ.parse(-1)).ok

    def test_rb_to_mrb_rejects_non_rb(self, dual_q):
        # P(1) = 0, P(x) = 1 breaks the identity at (e0, e1)
        P = Matrix.from_rows(QQ, [[QQ.zero, QQ.one], [QQ.zero, QQ.zero]])
        assert not check_rota_baxter(dual_q.algebra, P, QQ.parse(-1)).ok
        with pytest.raises(InvalidStructure):
            rb_to_mrb(dual_q.algebra, P, QQ.parse(-1), Matrix.zeros(QQ, 2, 2))

    def test_bimodule_rb_to_mrb(self, dual_q):
        P = Matrix.from_rows(QQ, [[QQ.one, QQ.zero], [QQ.zero, QQ.zero]])
        bim = adjoint_bimodule(dual_q)
        out = bimodule_rb_to_mrb(dual_q.algebra, P, QQ.parse(-1), dual_q.d,
                                 bim.left, bim.right, P, dual_q.d)
        assert out.R_M.rows == dual_q.R.rows
        pair = rb_to_mrb(dual_q.algebra, P, QQ.parse(-1), dual_q.d)
        assert check_bimodule(pair, out).ok


class TestGoldenFailures:
    """Full failure tuples, in report order, recorded from the loop-based checks."""

    def test_lie_pair_with_representation(self, edited, failure_list):
        ut = upper_triangular_pair(QQ, QQ.one)
        lp = rho_representation(ut, adjoint_bimodule(ut))
        bad = LiePair(QQ, 3, edited(lp.bracket, {5: "1", 12: "1"}),
                      edited(lp.R, {(2, 2): "2"}), lp.d, lp.kappa,
                      edited(lp.rho, {4: "1"}), edited(lp.R_M, {(2, 1): "1"}), lp.d_M)
        assert failure_list(check_lie_pair(bad)) == [
            ("alternating", (1,), ("1", "0", "0")),
            ("antisymmetry", (0, 1), ("0", "0", "1")),
            ("jacobi", (0, 1, 1), ("0", "-1", "0")),
            ("jacobi", (1, 0, 1), ("0", "-1", "0")),
            ("jacobi", (1, 1, 0), ("0", "-1", "0")),
            ("jacobi", (1, 1, 1), ("0", "3", "3")),
            ("mrb-lie", (0, 1), ("0", "0", "-2")),
            ("bracket-derivation", (0, 1), ("0", "0", "-1")),
            ("bracket-derivation", (1, 1), ("-2", "0", "0")),
            ("rep-bracket", (0, 1, 1), ("0", "-1", "0")),
            ("rep-bracket", (1, 1, 1), ("0", "1", "0")),
            ("rep-op", (0, 1), ("0", "0", "-2")),
            ("rep-op", (1, 0), ("0", "0", "2")),
            ("rep-op", (1, 1), ("0", "0", "-1")),
            ("rep-op", (1, 2), ("0", "0", "-2")),
            ("rep-op", (2, 1), ("0", "0", "3")),
            ("rep-op-der-commute", (1,), ("0", "0", "1")),
        ]

    def test_rota_baxter_data(self, dual_q, edited, failure_list):
        # P = diag(0, -1) is Rota-Baxter of weight 1 and gives R = Id + 2P
        P = Matrix.from_rows(QQ, [[QQ.zero, QQ.zero], [QQ.zero, QQ.parse(-1)]])
        assert failure_list(check_rota_baxter(dual_q.algebra, edited(P, {(0, 1): "1"}),
                                              QQ.one)) == [
            ("rota-baxter", (1, 1), ("-1", "0")),
        ]
        adj = adjoint_bimodule(dual_q)
        with pytest.raises(InvalidStructure) as err:
            bimodule_rb_to_mrb(dual_q.algebra, P, QQ.one, dual_q.d,
                               edited(adj.left, {2: "1"}), adj.right,
                               edited(P, {(1, 0): "1"}), dual_q.d)
        assert failure_list(err.value.report) == [
            ("rb-module-left", (0, 0), ("0", "-1")),
            ("rb-der-left", (0, 1), ("-1", "0")),
            ("rb-op-der-commute", (0,), ("0", "-1")),
        ]


def test_unit_vector():
    assert unit_vector(QQ, 3, 1) == (QQ.zero, QQ.one, QQ.zero)


def test_zero_pair_direct_sum_is_zero():
    p = direct_sum(zero_pair(F5, 1), zero_pair(F5, 2))
    assert p.dim == 3 and p.mu.is_zero()
