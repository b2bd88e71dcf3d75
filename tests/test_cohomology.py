import random

import pytest

from mrbder.cohomology import (DEFAULT_CONVENTION, MAX_COHOMOLOGY_DEGREE,
                               MAX_MATRIX_DEGREE, DegreeCapExceeded,
                               Cochain, CochainSpace, OperatorMapConvention,
                               PairSpace, ce_delta, cochain_arities, cohomology,
                               convention_candidates, derivation_defect,
                               differential_matrix, hochschild_delta, hom_space,
                               induced_actions, induced_mu, lie_pair_delta,
                               modified_delta, modified_delta_via_induced,
                               operator_delta, operator_map, pair_delta,
                               skew_cochain, skew_symmetrize)
from mrbder.constructions import rho_representation
from mrbder.fields import Field, QQ
from mrbder.fuzzing import random_instances
from mrbder.linalg import Matrix, MultiTensor, ShapeError, matrix_as_tensor
from mrbder.structures import (Algebra, MRBDerPair, adjoint_bimodule,
                               dual_pair, scalar_pair, dual_algebra,
                               upper_triangular_pair, verify_pair)

F5 = Field.prime(5)
F2 = Field.prime(2)


def rigid_pair_f5(r=2):
    # one-dimensional unital algebra; R = r*Id forces kappa = -r^2
    alg = Algebra.from_table(F5, 1, {(0, 0): (F5.one,)})
    R = Matrix.scalar(F5, 1, F5.parse(r))
    return MRBDerPair(alg, R, Matrix.zeros(F5, 1, 1), F5.parse(-r * r))


def zeros(F, arity, dim):
    return MultiTensor.zeros(F, (dim,) * arity, dim)


class TestHochschildOracles:
    def test_delta1_of_derivation_vanishes(self, dual_q_adj):
        pair, bim = dual_q_adj
        assert hochschild_delta(pair, bim, matrix_as_tensor(pair.d)).is_zero()

    def test_delta1_of_identity_is_mu(self, dual_q_adj):
        pair, bim = dual_q_adj
        out = hochschild_delta(pair, bim, matrix_as_tensor(Matrix.identity(QQ, 2)))
        assert out.entries == pair.mu.entries

    def test_delta1_transcription(self):
        pair = upper_triangular_pair(F5, F5.parse(2))
        bim = adjoint_bimodule(pair)
        rng = random.Random(0)
        space = hom_space(3, 3, 1, F5)
        f = space.unflatten(tuple(F5.random(rng) for _ in range(space.dim)))
        out = hochschild_delta(pair, bim, f)
        for i in range(3):
            for j in range(3):
                ei = tuple(F5.one if k == i else F5.zero for k in range(3))
                ej = tuple(F5.one if k == j else F5.zero for k in range(3))
                want = bim.left.eval([ei, f.eval([ej])])
                want = tuple(F5.add(a, b) for a, b in zip(
                    want, bim.right.eval([f.eval([ei]), ej])))
                want = tuple(F5.sub(a, b) for a, b in zip(
                    want, f.eval([pair.mu.value_at(i, j)])))
                assert out.value_at(i, j) == want

    def test_delta2_transcription(self):
        # degree 2: -l(a, f(b,c)) + r(f(a,b), c) + f(mu(a,b), c) - f(a, mu(b,c))
        pair = dual_pair(F5)
        bim = adjoint_bimodule(pair)
        rng = random.Random(1)
        space = hom_space(2, 2, 2, F5)
        f = space.unflatten(tuple(F5.random(rng) for _ in range(space.dim)))
        out = hochschild_delta(pair, bim, f)
        e = [tuple(F5.one if k == i else F5.zero for k in range(2)) for i in range(2)]
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    t1 = bim.left.eval([e[i], f.eval([e[j], e[k]])])
                    t2 = bim.right.eval([f.eval([e[i], e[j]]), e[k]])
                    t3 = f.eval([pair.mu.value_at(i, j), e[k]])
                    t4 = f.eval([e[i], pair.mu.value_at(j, k)])
                    want = tuple(
                        F5.sub(F5.add(F5.sub(b, a), c), d)
                        for a, b, c, d in zip(t1, t2, t3, t4))
                    assert out.value_at(i, j, k) == want

    def test_delta_squares_to_zero_pointwise(self, dual_q_adj):
        pair, bim = dual_q_adj
        for n in (1, 2):
            for f in hom_space(2, 2, n, QQ).basis():
                assert hochschild_delta(pair, bim, hochschild_delta(pair, bim, f)).is_zero()


class TestModifiedDelta:
    def test_modified_delta1_of_identity(self, dual_q_adj):
        # l~ + r~ - mu_R telescopes to -2 R mu
        pair, bim = dual_q_adj
        out = modified_delta(pair, bim, matrix_as_tensor(Matrix.identity(QQ, 2)))
        want = pair.mu.postcompose(pair.R.scale(QQ.parse(-2)))
        assert out.entries == want.entries

    def test_induced_structures(self, dual_q_adj):
        pair, bim = dual_q_adj
        mu_r = induced_mu(pair)
        assert mu_r.value_at(0, 0) == (QQ.parse(2), QQ.zero)
        lt, rt = induced_actions(pair, bim)
        assert lt.value_at(0, 1) == (QQ.zero, QQ.parse(2))
        assert rt.value_at(1, 0) == (QQ.zero, QQ.parse(2))

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_two_implementations_agree(self, degree, dual_q_adj):
        pair, bim = dual_q_adj
        for f in hom_space(2, 2, degree, QQ).basis():
            a = modified_delta(pair, bim, f)
            b = modified_delta_via_induced(pair, bim, f)
            assert a.entries == b.entries

    def test_two_implementations_agree_f5(self):
        pair = upper_triangular_pair(F5, F5.parse(3))
        bim = adjoint_bimodule(pair)
        rng = random.Random(2)
        for degree in (1, 2):
            space = hom_space(3, 3, degree, F5)
            f = space.unflatten(tuple(F5.random(rng) for _ in range(space.dim)))
            assert modified_delta(pair, bim, f).entries == \
                modified_delta_via_induced(pair, bim, f).entries


class TestOperatorMapAndDefect:
    def test_operator_map_kills_identity_and_d(self, dual_q_adj):
        pair, bim = dual_q_adj
        assert operator_map(pair, bim, matrix_as_tensor(Matrix.identity(QQ, 2))).is_zero()
        assert operator_map(pair, bim, matrix_as_tensor(pair.d)).is_zero()

    def test_operator_map_kills_mu(self, dual_q_adj):
        pair, bim = dual_q_adj
        assert operator_map(pair, bim, pair.mu).is_zero()

    def test_operator_map_degree1_formula(self):
        # phi^1(f) = R_M f - f R + (terms with kappa absent in degree 1):
        # explicitly f(Ra) - R_M f(a) + kappa-free correction; check against
        # the closed form f(Ra) - R_M(f(a)) ... recomputed longhand below
        pair = upper_triangular_pair(F5, F5.parse(2))
        bim = adjoint_bimodule(pair)
        rng = random.Random(3)
        space = hom_space(3, 3, 1, F5)
        f = space.unflatten(tuple(F5.random(rng) for _ in range(space.dim)))
        out = operator_map(pair, bim, f)
        # subsets of one slot: S = {} gives +f(R a), S = {1} gives -R_M f(a)
        want = f.precompose_slot(0, pair.R) - f.postcompose(bim.R_M)
        assert out.entries == want.entries

    def test_operator_map_degree2_formula(self, dual_q_adj):
        # phi^2(f)(a,b) = f(Ra,Rb) - R_M(f(Ra,b) + f(a,Rb)) - kappa f(a,b);
        # the last sign is pinned by phi^2(mu) = 0 under the defining identity
        pair, bim = dual_q_adj
        rng = random.Random(4)
        space = hom_space(2, 2, 2, QQ)
        f = space.unflatten(tuple(QQ.random(rng) for _ in range(space.dim)))
        out = operator_map(pair, bim, f)
        both = f.precompose_slot(0, pair.R).precompose_slot(1, pair.R)
        mixed = (f.precompose_slot(0, pair.R) + f.precompose_slot(1, pair.R)).postcompose(bim.R_M)
        want = both - mixed - f.scale(pair.kappa)
        assert out.entries == want.entries

    def test_derivation_defect_kills_d_and_mu(self, dual_q_adj):
        pair, bim = dual_q_adj
        assert derivation_defect(pair, bim, matrix_as_tensor(pair.d)).is_zero()
        assert derivation_defect(pair, bim, pair.mu).is_zero()

    def test_derivation_defect_formula(self, dual_q_adj):
        pair, bim = dual_q_adj
        rng = random.Random(5)
        space = hom_space(2, 2, 2, QQ)
        f = space.unflatten(tuple(QQ.random(rng) for _ in range(space.dim)))
        want = (f.precompose_slot(0, pair.d) + f.precompose_slot(1, pair.d)
                - f.postcompose(bim.d_M))
        assert derivation_defect(pair, bim, f).entries == want.entries


class TestPairComplex:
    def test_d_of_derivation_cochain_closed(self, dual_q_adj):
        pair, bim = dual_q_adj
        c = Cochain(2, (zeros(QQ, 2, 2), zeros(QQ, 1, 2), matrix_as_tensor(pair.d)))
        assert pair_delta(pair, bim, c).is_zero()

    def test_degree1_assembly(self, dual_q_adj):
        pair, bim = dual_q_adj
        rng = random.Random(6)
        f = hom_space(2, 2, 1, QQ)
        c = Cochain(1, (f.unflatten(tuple(QQ.random(rng) for _ in range(f.dim))),))
        out = pair_delta(pair, bim, c)
        assert out.degree == 2
        top, mid, bottom = out.parts
        (f1,) = c.parts
        assert top.entries == hochschild_delta(pair, bim, f1).entries
        assert mid.entries == (-operator_map(pair, bim, f1)).entries
        assert bottom.entries == (-derivation_defect(pair, bim, f1)).entries

    def test_degree2_assembly(self, dual_q_adj):
        # (f, g, h) |-> (delta f, -delta_R g - phi f, delta h + Delta f, Delta g - phi h)
        pair, bim = dual_q_adj
        rng = random.Random(12)
        space = PairSpace(QQ, 2, 2, 2)
        c = space.unflatten(tuple(QQ.random(rng) for _ in range(space.dim)))
        f, g, h = c.parts
        want = (hochschild_delta(pair, bim, f),
                -modified_delta(pair, bim, g) - operator_map(pair, bim, f),
                hochschild_delta(pair, bim, h) + derivation_defect(pair, bim, f),
                derivation_defect(pair, bim, g) - operator_map(pair, bim, h))
        out = pair_delta(pair, bim, c)
        assert out.degree == 3
        assert [p.entries for p in out.parts] == [p.entries for p in want]

    def test_operator_delta_rejects_pair_layout(self, dual_q_adj):
        pair, bim = dual_q_adj
        with pytest.raises(ShapeError):
            operator_delta(pair, bim, PairSpace(QQ, 2, 2, 2).zero())
        with pytest.raises(ShapeError):
            pair_delta(pair, bim, CochainSpace(QQ, 2, 2, cochain_arities(2, 2)).zero())

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_complex_matrix_squares_to_zero(self, n, dual_q_adj):
        pair, bim = dual_q_adj
        d_n = differential_matrix(pair, bim, n, "pair")
        d_next = differential_matrix(pair, bim, n + 1, "pair")
        assert (d_next * d_n).is_zero()

    def test_complex_on_random_f5_instances(self):
        for inst in random_instances(F5, 2, 10, seed=77):
            for n in (1, 2):
                d_n = differential_matrix(inst.pair, inst.bim, n, "pair")
                d_next = differential_matrix(inst.pair, inst.bim, n + 1, "pair")
                assert (d_next * d_n).is_zero(), inst.label

    def test_complex_on_random_q_instances(self):
        for inst in random_instances(QQ, 2, 10, seed=78):
            for n in (1, 2):
                d_n = differential_matrix(inst.pair, inst.bim, n, "pair")
                d_next = differential_matrix(inst.pair, inst.bim, n + 1, "pair")
                assert (d_next * d_n).is_zero(), inst.label

    def test_operator_level_complex(self, dual_q_adj):
        pair, bim = dual_q_adj
        for n in (1, 2):
            a = differential_matrix(pair, bim, n, "operator")
            b = differential_matrix(pair, bim, n + 1, "operator")
            assert (b * a).is_zero()

    def test_matrix_agrees_with_pointwise(self, dual_q_adj):
        pair, bim = dual_q_adj
        n = 2
        space = PairSpace(QQ, 2, 2, n)
        target = PairSpace(QQ, 2, 2, n + 1)
        mat = differential_matrix(pair, bim, n, "pair")
        rng = random.Random(7)
        vec = tuple(QQ.random(rng) for _ in range(space.dim))
        want = target.flatten(pair_delta(pair, bim, space.unflatten(vec)))
        assert mat.apply(vec) == want

    def test_differential_matrix_deterministic(self, dual_q_adj):
        pair, bim = dual_q_adj
        a = differential_matrix(pair, bim, 2, "pair")
        b = differential_matrix(pair, bim, 2, "pair")
        assert a.rows == b.rows


class TestSpaces:
    def test_pair_space_dims(self):
        assert [PairSpace(QQ, 2, 2, n).dim for n in (1, 2, 3, 4)] == [4, 16, 36, 72]

    def test_operator_space_dims(self):
        assert [CochainSpace(QQ, 2, 2, cochain_arities(n, 2)).dim
                for n in (1, 2, 3)] == [4, 12, 24]

    def test_pair_space_layout(self):
        # PC^n = (C^n + C^{n-1}) x (C^{n-1} + C^{n-2}), flattened part by part
        want = {1: (1,), 2: (2, 1, 1), 3: (3, 2, 2, 1), 4: (4, 3, 3, 2)}
        for n, arities in want.items():
            sp = PairSpace(QQ, 2, 3, n)
            vec = tuple(QQ.from_int(k) for k in range(sp.dim))
            c = sp.unflatten(vec)
            assert c.arities == arities
            start = 0
            for p, a in zip(c.parts, arities):
                assert (p.dims, p.cod) == ((2,) * a, 3)
                assert p.entries == vec[start:start + len(p.entries)]
                start += len(p.entries)
            assert start == sp.dim

    def test_flatten_round_trip(self):
        sp = PairSpace(F5, 2, 2, 2)
        rng = random.Random(8)
        vec = tuple(F5.random(rng) for _ in range(sp.dim))
        assert sp.flatten(sp.unflatten(vec)) == vec

    def test_basis_count(self):
        assert len(list(PairSpace(QQ, 2, 2, 2).basis())) == 16

    def test_cochain_shape_guards(self):
        with pytest.raises(Exception):
            Cochain(1, (zeros(QQ, 1, 2), zeros(QQ, 1, 2)))
        with pytest.raises(Exception):
            Cochain(2, (zeros(QQ, 2, 2),))
        with pytest.raises(Exception):
            Cochain(3, (zeros(QQ, 3, 2), zeros(QQ, 2, 2), zeros(QQ, 2, 2)))


class TestCohomologyGroups:
    def test_h1_of_dual_pair(self, dual_q_adj):
        pair, bim = dual_q_adj
        res = cohomology(pair, bim, 1)
        assert (res.dim_cocycles, res.dim_coboundaries, res.dim_h) == (1, 0, 1)

    def test_h2_of_dual_pair(self, dual_q_adj):
        pair, bim = dual_q_adj
        res = cohomology(pair, bim, 2)
        assert (res.dim_cocycles, res.dim_coboundaries, res.dim_h) == (4, 3, 1)
        assert len(res.representatives) == 1
        rep = res.representatives[0]
        assert pair_delta(pair, bim, rep).is_zero()

    def test_h2_representative_not_exact(self, dual_q_adj):
        from mrbder.linalg import solve_linear
        pair, bim = dual_q_adj
        rep = cohomology(pair, bim, 2).representatives[0]
        target = PairSpace(QQ, 2, 2, 2)
        d1 = differential_matrix(pair, bim, 1, "pair")
        assert solve_linear(d1, target.flatten(rep)) is None

    def test_derivation_cochain_spans_h2(self, dual_q_adj):
        # ((0,0), d) is closed and not exact, and H^2 is one-dimensional
        from mrbder.linalg import solve_linear
        pair, bim = dual_q_adj
        c = Cochain(2, (zeros(QQ, 2, 2), zeros(QQ, 1, 2), matrix_as_tensor(pair.d)))
        target = PairSpace(QQ, 2, 2, 2)
        d1 = differential_matrix(pair, bim, 1, "pair")
        assert pair_delta(pair, bim, c).is_zero()
        assert solve_linear(d1, target.flatten(c)) is None

    def test_h3_of_dual_pair(self, dual_q_adj):
        pair, bim = dual_q_adj
        res = cohomology(pair, bim, 3)
        assert (res.dim_cocycles, res.dim_coboundaries, res.dim_h) == (12, 12, 0)
        assert res.representatives == ()

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_rigid_pair_has_no_h2(self, r):
        pair = rigid_pair_f5(r)
        assert verify_pair(pair).ok
        bim = adjoint_bimodule(pair)
        res1 = cohomology(pair, bim, 1)
        assert (res1.dim_cocycles, res1.dim_h) == (0, 0)
        res2 = cohomology(pair, bim, 2)
        assert (res2.dim_cocycles, res2.dim_coboundaries, res2.dim_h) == (1, 1, 0)

    def test_caps(self, dual_q_adj):
        pair, bim = dual_q_adj
        with pytest.raises(DegreeCapExceeded):
            cohomology(pair, bim, MAX_COHOMOLOGY_DEGREE + 1)
        with pytest.raises(DegreeCapExceeded):
            cohomology(pair, bim, 0)
        with pytest.raises(DegreeCapExceeded):
            differential_matrix(pair, bim, MAX_MATRIX_DEGREE + 1, "pair")

    def test_brute_force_counts_f2(self):
        # enumerate the whole space over F2 and compare with rank arithmetic
        pair = dual_pair(F2)
        bim = adjoint_bimodule(pair)
        from mrbder.linalg import rank_and_kernel
        for n, dims in ((1, (2, 2)), (2, (1, 1))):
            if dims == (1, 1):
                from mrbder.structures import zero_pair
                pair_n, bim_n = zero_pair(F2, 1), adjoint_bimodule(zero_pair(F2, 1))
            else:
                pair_n, bim_n = pair, bim
            space = PairSpace(F2, pair_n.dim, bim_n.dim_m, n)
            mat = differential_matrix(pair_n, bim_n, n, "pair")
            rank, _ = rank_and_kernel(mat)
            kernel_count = 0
            image = set()
            for x in range(2 ** space.dim):
                vec = tuple(F2.parse((x >> i) & 1) for i in range(space.dim))
                out = mat.apply(vec)
                image.add(out)
                if all(F2.is_zero(v) for v in out):
                    kernel_count += 1
            assert kernel_count == 2 ** (space.dim - rank)
            assert len(image) == 2 ** rank


class TestCalibration:
    def test_default_is_chain_map_and_complex(self, dual_q_adj):
        pair, bim = dual_q_adj
        for n in (1, 2):
            phi_n = differential_matrix(pair, bim, n, "operator_map")
            phi_next = differential_matrix(pair, bim, n + 1, "operator_map")
            hoch = differential_matrix(pair, bim, n, "hochschild")
            mod = differential_matrix(pair, bim, n, "modified")
            assert (phi_next * hoch - mod * phi_n).is_zero()

    def test_printed_convention_fails(self, dual_q_adj):
        # the convention with shifted exponent, flipped sign, and an extra
        # operator factor on even subsets breaks the square-zero property
        pair, bim = dual_q_adj
        bad = OperatorMapConvention(even_shift=1, even_sign=-1, even_rm=True)
        d1 = differential_matrix(pair, bim, 1, "pair", bad)
        d2 = differential_matrix(pair, bim, 2, "pair", bad)
        assert not (d2 * d1).is_zero()

    def test_twelve_candidates(self):
        cands = convention_candidates()
        assert len(cands) == 12
        assert DEFAULT_CONVENTION in cands
        assert len(set(cands)) == 12

    def test_unique_winner_on_panel(self):
        panel = [
            (dual_pair(QQ), adjoint_bimodule(dual_pair(QQ))),
            (scalar_pair(dual_algebra(QQ), QQ.parse(2)),
             adjoint_bimodule(scalar_pair(dual_algebra(QQ), QQ.parse(2)))),
            (scalar_pair(dual_algebra(QQ), QQ.zero),
             adjoint_bimodule(scalar_pair(dual_algebra(QQ), QQ.zero))),
            (dual_pair(F5), adjoint_bimodule(dual_pair(F5))),
        ]
        winners = []
        for conv in convention_candidates():
            ok = True
            for pair, bim in panel:
                for n in (1, 2):
                    phi_n = differential_matrix(pair, bim, n, "operator_map", conv)
                    phi_next = differential_matrix(pair, bim, n + 1, "operator_map", conv)
                    hoch = differential_matrix(pair, bim, n, "hochschild")
                    mod = differential_matrix(pair, bim, n, "modified")
                    if not (phi_next * hoch - mod * phi_n).is_zero():
                        ok = False
                        break
                    d_n = differential_matrix(pair, bim, n, "pair", conv)
                    d_next = differential_matrix(pair, bim, n + 1, "pair", conv)
                    if not (d_next * d_n).is_zero():
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                winners.append(conv)
        assert winners == [DEFAULT_CONVENTION]


class TestCommutationIdentities:
    @pytest.mark.parametrize("n", [1, 2])
    def test_defect_commutes_with_hochschild(self, n, dual_q_adj):
        pair, bim = dual_q_adj
        delta_n = differential_matrix(pair, bim, n, "hochschild")
        def_n = differential_matrix(pair, bim, n, "derivation_defect")
        def_next = differential_matrix(pair, bim, n + 1, "derivation_defect")
        assert (def_next * delta_n - delta_n * def_n).is_zero()

    @pytest.mark.parametrize("n", [1, 2])
    def test_defect_commutes_with_operator_map(self, n, dual_q_adj):
        pair, bim = dual_q_adj
        phi = differential_matrix(pair, bim, n, "operator_map")
        dft = differential_matrix(pair, bim, n, "derivation_defect")
        assert (dft * phi - phi * dft).is_zero()

    @pytest.mark.parametrize("n", [1, 2])
    def test_operator_defect_commutes_with_operator_delta(self, n, dual_q_adj):
        pair, bim = dual_q_adj
        op_n = differential_matrix(pair, bim, n, "operator")
        dft_n = differential_matrix(pair, bim, n, "operator_defect")
        dft_next = differential_matrix(pair, bim, n + 1, "operator_defect")
        assert (dft_next * op_n - op_n * dft_n).is_zero()


class TestSkewAndLie:
    def test_skew_is_alternating(self):
        rng = random.Random(9)
        space = hom_space(2, 2, 2, QQ)
        f = space.unflatten(tuple(QQ.random(rng) for _ in range(space.dim)))
        s = skew_symmetrize(f)
        for i in range(2):
            assert s.value_at(i, i) == (QQ.zero, QQ.zero)
        assert s.value_at(0, 1) == tuple(QQ.neg(x) for x in s.value_at(1, 0))

    def test_skew_scales_alternating_by_factorial(self):
        f = MultiTensor.from_map(QQ, (2, 2), 2,
                                 lambda i, j: (QQ.parse(i - j), QQ.zero))
        assert skew_symmetrize(f).entries == f.scale(QQ.parse(2)).entries

    @pytest.mark.parametrize("n", [1, 2])
    def test_skew_intertwines_hochschild_and_ce(self, n, dual_q_adj):
        pair, bim = dual_q_adj
        lp = rho_representation(pair, bim)
        for f in hom_space(2, 2, n, QQ).basis():
            lhs = skew_symmetrize(hochschild_delta(pair, bim, f))
            rhs = ce_delta(lp, skew_symmetrize(f))
            assert lhs.entries == rhs.entries

    @pytest.mark.parametrize("n", [1, 2])
    def test_skew_intertwines_at_pair_level(self, n):
        pair = upper_triangular_pair(QQ, QQ.parse(2))
        bim = adjoint_bimodule(pair)
        lp = rho_representation(pair, bim)
        space = PairSpace(QQ, 3, 3, n)
        rng = random.Random(10)
        c = space.unflatten(tuple(QQ.random(rng) for _ in range(space.dim)))
        lhs = skew_cochain(pair_delta(pair, bim, c))
        rhs = lie_pair_delta(lp, skew_cochain(c))
        assert (lhs - rhs).is_zero()

    @pytest.mark.parametrize("n", [1, 2])
    def test_lie_complex_squares_to_zero(self, n):
        pair = upper_triangular_pair(QQ, QQ.parse(2))
        lp = rho_representation(pair, adjoint_bimodule(pair))
        space = PairSpace(QQ, 3, 3, n)
        rng = random.Random(11)
        for _ in range(3):
            c = space.unflatten(tuple(QQ.random(rng) for _ in range(space.dim)))
            assert lie_pair_delta(lp, lie_pair_delta(lp, c)).is_zero()

    def test_ce_delta_on_abelian_with_zero_rho(self, dual_q):
        # commutative algebra: the commutator representation is zero, so the
        # CE differential reduces to its module-free part, zero on 1-cochains
        lp = rho_representation(dual_q, adjoint_bimodule(dual_q))
        f = matrix_as_tensor(dual_q.d)
        assert ce_delta(lp, f).is_zero()
