import importlib
import random

import pytest

from mrbder.cohomology import (Cochain, PairSpace, cohomology,
                               differential_matrix, pair_delta)
from mrbder.extension import (CLASS_ENUMERATION_CAP, Extension,
                              build_extension, canonical_section,
                              check_extension, classify,
                              cocycles_cohomologous, derive_base,
                              equivalence_map, extensions_equivalent,
                              extract_cocycle, fiber_retraction)
from mrbder.fields import Field, QQ
from mrbder.linalg import (Matrix, MultiTensor, ShapeError, matrix_as_tensor,
                           rank_and_kernel)
from mrbder.constructions import semidirect_product
from mrbder.structures import (Algebra, Bimodule, InternalError, InvalidStructure, MRBDerPair,
                               adjoint_bimodule, dual_pair, verify_pair)

F5 = Field.prime(5)


def dual_over_line(F):
    """The dual pair as an extension of the ground field by a line."""
    total = dual_pair(F)
    i = Matrix.from_rows(F, [[F.zero], [F.one]])
    p = Matrix.from_rows(F, [[F.one, F.zero]])
    return Extension(total, i, p)


def rigid_pair_f5(r=2):
    alg = Algebra.from_table(F5, 1, {(0, 0): (F5.one,)})
    return MRBDerPair(alg, Matrix.scalar(F5, 1, F5.parse(r)),
                      Matrix.zeros(F5, 1, 1), F5.parse(-r * r))


class TestSectionsAndBase:
    def test_canonical_section(self):
        ext = dual_over_line(QQ)
        s = canonical_section(ext)
        assert s.rows == ((QQ.one,), (QQ.zero,))
        assert (ext.p * s - Matrix.identity(QQ, 1)).is_zero()

    def test_fiber_retraction(self):
        ext = dual_over_line(QQ)
        L = fiber_retraction(ext)
        assert (L * ext.i - Matrix.identity(QQ, 1)).is_zero()

    def test_derive_base_values(self):
        ext = dual_over_line(QQ)
        pair, bim = derive_base(ext)
        assert pair.dim == 1
        assert pair.mu.value_at(0, 0) == (QQ.one,)
        assert pair.R.rows == ((QQ.one,),)
        assert pair.d.is_zero()
        assert pair.kappa == QQ.parse(-1)
        assert bim.dim_m == 1
        assert bim.left.value_at(0, 0) == (QQ.one,)
        assert bim.right.value_at(0, 0) == (QQ.one,)
        assert bim.R_M.rows == ((QQ.parse(-1),),)
        assert bim.d_M.rows == ((QQ.one,),)

    def test_derived_base_is_valid(self):
        ext = dual_over_line(QQ)
        pair, bim = derive_base(ext)
        assert verify_pair(pair).ok
        assert check_extension(pair, bim, ext).ok

    def test_unit_direction_is_not_an_ideal(self):
        # embedding the unit line instead of the nilpotent one is exact but
        # the products escape the fiber
        total = dual_pair(QQ)
        i = Matrix.from_rows(QQ, [[QQ.one], [QQ.zero]])
        p = Matrix.from_rows(QQ, [[QQ.zero, QQ.one]])
        with pytest.raises(InvalidStructure):
            derive_base(Extension(total, i, p))


class TestCocycleExtraction:
    def test_canonical_section_splits(self):
        ext = dual_over_line(QQ)
        pair, bim = derive_base(ext)
        c = extract_cocycle(pair, bim, ext)
        assert c.is_zero()

    def test_shifted_section_values(self):
        ext = dual_over_line(QQ)
        pair, bim = derive_base(ext)
        s = canonical_section(ext) + ext.i
        c = extract_cocycle(pair, bim, ext, section=s)
        theta, xi, chi = c.parts
        assert theta.value_at(0, 0) == (QQ.one,)
        assert xi.value_at(0) == (QQ.parse(-2),)
        assert chi.value_at(0) == (QQ.one,)

    def test_any_section_cocycle_is_closed(self):
        ext = dual_over_line(QQ)
        pair, bim = derive_base(ext)
        s = canonical_section(ext) + ext.i
        c = extract_cocycle(pair, bim, ext, section=s)
        assert pair_delta(pair, bim, c).is_zero()

    def test_section_difference_certificate(self):
        # c_{s1} - c_{s2} = D^1(L(s1 - s2))
        ext = dual_over_line(QQ)
        pair, bim = derive_base(ext)
        L = fiber_retraction(ext)
        s1 = canonical_section(ext)
        s2 = s1 + ext.i
        c1 = extract_cocycle(pair, bim, ext, section=s1)
        c2 = extract_cocycle(pair, bim, ext, section=s2)
        h = L * (s1 - s2)
        want = pair_delta(pair, bim, Cochain(1, (matrix_as_tensor(h),)))
        assert ((c1 - c2) - want).is_zero()

    def test_non_section_rejected(self):
        ext = dual_over_line(QQ)
        pair, bim = derive_base(ext)
        with pytest.raises(InvalidStructure):
            extract_cocycle(pair, bim, ext, section=Matrix.zeros(QQ, 2, 1))


class TestBuildExtension:
    def test_round_trip_exact(self):
        ext = dual_over_line(QQ)
        pair, bim = derive_base(ext)
        s = canonical_section(ext) + ext.i
        c = extract_cocycle(pair, bim, ext, section=s)
        built = build_extension(pair, bim, c)
        assert verify_pair(built.total).ok
        assert check_extension(pair, bim, built).ok
        again = extract_cocycle(pair, bim, built)
        assert (again - c).is_zero()
        base2, bim2 = derive_base(built)
        assert base2.mu.entries == pair.mu.entries
        assert base2.R.rows == pair.R.rows
        assert bim2.left.entries == bim.left.entries
        assert bim2.R_M.rows == bim.R_M.rows

    def test_zero_cocycle_gives_semidirect_block(self, dual_q_adj):
        pair, bim = dual_q_adj
        space = PairSpace(QQ, 2, 2, 2)
        built = build_extension(pair, bim, space.zero())
        assert built.total.dim == 4
        assert verify_pair(built.total).ok
        assert extract_cocycle(pair, bim, built).is_zero()

    def test_essential_class_builds(self, dual_q_adj):
        pair, bim = dual_q_adj
        c = Cochain(2, (MultiTensor.zeros(QQ, (2, 2), 2),
                        MultiTensor.zeros(QQ, (2,), 2),
                        matrix_as_tensor(pair.d)))
        built = build_extension(pair, bim, c)
        assert verify_pair(built.total).ok
        assert check_extension(pair, bim, built).ok
        assert (extract_cocycle(pair, bim, built) - c).is_zero()

    def test_round_trips_random_closed_cocycles(self):
        pair = dual_pair(F5)
        bim = adjoint_bimodule(pair)
        d2 = differential_matrix(pair, bim, 2, "pair")
        _, kernel = rank_and_kernel(d2)
        space = PairSpace(F5, 2, 2, 2)
        rng = random.Random(30)
        for _ in range(10):
            acc = [F5.zero] * space.dim
            for v in kernel:
                cf = F5.random(rng)
                acc = [F5.add(a, F5.mul(cf, x)) for a, x in zip(acc, v)]
            c = space.unflatten(tuple(acc))
            built = build_extension(pair, bim, c)
            assert check_extension(pair, bim, built).ok
            assert (extract_cocycle(pair, bim, built) - c).is_zero()

    def test_non_closed_cocycle_rejected(self, dual_q_adj):
        pair, bim = dual_q_adj
        space = PairSpace(QQ, 2, 2, 2)
        d2 = differential_matrix(pair, bim, 2, "pair")
        rng = random.Random(31)
        while True:
            vec = tuple(QQ.random(rng) for _ in range(space.dim))
            if not all(QQ.is_zero(x) for x in d2.apply(vec)):
                break
        with pytest.raises(InvalidStructure):
            build_extension(pair, bim, space.unflatten(vec))


class TestEquivalence:
    def test_cohomologous_with_itself(self):
        ext = dual_over_line(QQ)
        pair, bim = derive_base(ext)
        c = extract_cocycle(pair, bim, ext)
        h = cocycles_cohomologous(pair, bim, c, c)
        assert h is not None and h.is_zero()

    def test_shifted_and_canonical_cohomologous(self):
        ext = dual_over_line(QQ)
        pair, bim = derive_base(ext)
        c1 = extract_cocycle(pair, bim, ext)
        c2 = extract_cocycle(pair, bim, ext, section=canonical_section(ext) + ext.i)
        h = cocycles_cohomologous(pair, bim, c1, c2)
        assert h is not None
        got = pair_delta(pair, bim, Cochain(1, (matrix_as_tensor(h),)))
        assert ((c1 - c2) - got).is_zero()

    def test_equivalence_of_two_builds_of_one_class(self):
        ext = dual_over_line(QQ)
        pair, bim = derive_base(ext)
        s = canonical_section(ext) + ext.i
        c = extract_cocycle(pair, bim, ext, section=s)
        built = build_extension(pair, bim, c)
        gamma = extensions_equivalent(pair, bim, ext, built)
        assert gamma is not None
        assert (built.p * gamma - ext.p).is_zero()
        assert (gamma * ext.i - built.i).is_zero()

    def test_inequivalent_classes(self, dual_q_adj):
        pair, bim = dual_q_adj
        space = PairSpace(QQ, 2, 2, 2)
        c = Cochain(2, (MultiTensor.zeros(QQ, (2, 2), 2),
                        MultiTensor.zeros(QQ, (2,), 2),
                        matrix_as_tensor(pair.d)))
        e1 = build_extension(pair, bim, space.zero())
        e2 = build_extension(pair, bim, c)
        assert extensions_equivalent(pair, bim, e1, e2) is None

    def test_broken_comparison_map_is_an_internal_error(self, monkeypatch):
        ext = dual_over_line(QQ)
        pair, bim = derive_base(ext)
        built = build_extension(pair, bim, extract_cocycle(pair, bim, ext))
        mod = importlib.import_module("mrbder.extension")
        monkeypatch.setattr(mod, "equivalence_map",
                            lambda e1, e2, h: Matrix.zeros(QQ, e2.total.dim, e1.total.dim))
        with pytest.raises(InternalError, match="did not induce an equivalence"):
            extensions_equivalent(pair, bim, ext, built)

    def test_equivalence_map_shape(self):
        ext = dual_over_line(QQ)
        gamma = equivalence_map(ext, ext, Matrix.zeros(QQ, 1, 1))
        assert (gamma - Matrix.identity(QQ, 2)).is_zero()


class TestClassify:
    def test_rigid_pair_single_class(self):
        pair = rigid_pair_f5(2)
        bim = adjoint_bimodule(pair)
        res = classify(pair, bim)
        assert res.dim_h2 == 0
        assert res.count == 1
        assert res.complete
        assert len(res.representatives) == 1
        assert res.representatives[0].is_zero()

    def test_finite_field_enumeration(self):
        pair = dual_pair(F5)
        bim = adjoint_bimodule(pair)
        h2 = cohomology(pair, bim, 2).dim_h
        res = classify(pair, bim)
        assert res.dim_h2 == h2
        assert res.count == 5 ** h2
        assert res.complete
        assert len(res.representatives) == res.count
        assert res.count <= CLASS_ENUMERATION_CAP
        # zero class first, all closed, pairwise distinct classes
        assert res.representatives[0].is_zero()
        for c in res.representatives:
            assert pair_delta(pair, bim, c).is_zero()
        for a in range(len(res.representatives)):
            for b in range(a + 1, len(res.representatives)):
                assert cocycles_cohomologous(pair, bim, res.representatives[a],
                                             res.representatives[b]) is None

    def test_rational_listing(self, dual_q_adj):
        pair, bim = dual_q_adj
        res = classify(pair, bim)
        assert res.dim_h2 == 1
        assert res.count is None
        assert not res.complete
        assert len(res.representatives) == 2
        assert res.representatives[0].is_zero()
        assert pair_delta(pair, bim, res.representatives[1]).is_zero()
        assert cocycles_cohomologous(pair, bim, res.representatives[0],
                                     res.representatives[1]) is None

    def test_every_class_buildable(self):
        pair = dual_pair(F5)
        bim = adjoint_bimodule(pair)
        for c in classify(pair, bim).representatives[:5]:
            built = build_extension(pair, bim, c)
            assert check_extension(pair, bim, built).ok


class TestValidation:
    def test_shape_guards(self):
        total = dual_pair(QQ)
        with pytest.raises(ShapeError):
            Extension(total, Matrix.zeros(QQ, 3, 1), Matrix.zeros(QQ, 1, 2))
        with pytest.raises(ShapeError):
            Extension(total, Matrix.zeros(QQ, 2, 2), Matrix.zeros(QQ, 1, 2))

    def test_non_surjective_projection(self):
        total = dual_pair(QQ)
        ext = Extension(total, Matrix.from_rows(QQ, [[QQ.zero], [QQ.one]]),
                        Matrix.zeros(QQ, 1, 2))
        with pytest.raises(InvalidStructure):
            canonical_section(ext)

    def test_non_injective_inclusion(self):
        total = dual_pair(QQ)
        ext = Extension(total, Matrix.zeros(QQ, 2, 1),
                        Matrix.from_rows(QQ, [[QQ.one, QQ.zero]]))
        with pytest.raises(InvalidStructure):
            fiber_retraction(ext)

    def test_broken_exactness_reported(self):
        # p i != 0
        total = dual_pair(QQ)
        ext = Extension(total, Matrix.from_rows(QQ, [[QQ.one], [QQ.zero]]),
                        Matrix.from_rows(QQ, [[QQ.one, QQ.zero]]))
        pair, bim = derive_base(dual_over_line(QQ))
        rep = check_extension(pair, bim, ext)
        assert not rep.ok
        assert "exact-comp" in {f.identity for f in rep.failures}

    @pytest.mark.parametrize("i_rows,p_rows,want", [
        ([[0, 0], [0, 0], [1, 2], [0, 0]], [[1, 0, 0, 0], [0, 1, 0, 0]],
         [("exact-rank-i", (1,), ())]),
        ([[0, 0], [0, 0], [1, 0], [0, 1]], [[1, 0, 0, 0], [2, 0, 0, 0]],
         [("exact-rank-p", (1,), ())]),
        ([[0, 0], [0, 0], [0, 0], [0, 0]], [[0, 0, 0, 0], [0, 0, 0, 0]],
         [("exact-rank-i", (0,), ()), ("exact-rank-p", (0,), ())]),
    ], ids=["i-not-injective", "p-not-onto", "both"])
    def test_exactness_witnesses(self, failure_list, i_rows, p_rows, want):
        # p i = 0 throughout, so only the ranks fail, each with its rank
        base = dual_pair(QQ)
        total = semidirect_product(base, adjoint_bimodule(base))
        ext = Extension(total, Matrix.from_rows(QQ, [[QQ.from_int(x) for x in r] for r in i_rows]),
                        Matrix.from_rows(QQ, [[QQ.from_int(x) for x in r] for r in p_rows]))
        assert (ext.p * ext.i).is_zero()
        assert failure_list(check_extension(base, adjoint_bimodule(base), ext)) == want

    def test_golden_failures(self, edited, failure_list):
        # full failure tuples, in report order, recorded from the loop-based check;
        # the action witnesses interleave per (a, w): left (a, w) before right (w, a)
        base = dual_pair(QQ)
        adj = adjoint_bimodule(base)
        sd = semidirect_product(base, adj)
        z, o = QQ.zero, QQ.one
        i = Matrix.from_rows(QQ, [[z, z], [z, z], [o, z], [z, o]])
        p = Matrix.from_rows(QQ, [[o, z, z, z], [z, o, z, z]])
        total = MRBDerPair(Algebra(QQ, 4, edited(sd.mu, {sd.mu.offset((3, 3)) + 3: "1"})),
                           sd.R, sd.d, sd.kappa)
        pair = MRBDerPair(Algebra(QQ, 2, edited(base.mu, {6: "1"})), base.R, base.d, z)
        bim = Bimodule(2, edited(adj.left, {1: "1", 6: "2"}), edited(adj.right, {4: "1", 7: "1"}),
                       edited(adj.R_M, {(0, 1): "1"}), adj.d_M)
        assert failure_list(check_extension(pair, bim, Extension(total, i, p))) == [
            ("assoc", (1, 2, 3), ("0", "0", "0", "1")),
            ("assoc", (2, 1, 3), ("0", "0", "0", "1")),
            ("assoc", (3, 1, 2), ("0", "0", "0", "-1")),
            ("assoc", (3, 2, 1), ("0", "0", "0", "-1")),
            ("derivation", (3, 3), ("0", "0", "0", "-1")),
            ("kappa", (), ("1",)),
            ("ideal-square", (1, 1), ("0", "0", "0", "1")),
            ("proj-multiplicative", (1, 1), ("-1", "0")),
            ("incl-operator", (), ()),
            ("action-left", (0, 0), ("0", "0", "0", "-1")),
            ("action-right", (1, 0), ("0", "0", "-1", "0")),
            ("action-left", (1, 1), ("0", "0", "-2", "0")),
            ("action-right", (1, 1), ("0", "0", "0", "-1")),
        ]
