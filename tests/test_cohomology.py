import importlib
import random

import pytest

from mrbder.cohomology import (Cochain, CochainSpace,
                               PairSpace, ce_delta, cochain_arities, cohomology,
                               derivation_defect, differential_matrix,
                               hochschild_delta, hom_space, lie_derivation_defect,
                               lie_pair_delta, modified_delta,
                               operator_delta, operator_map, pair_delta, primitive,
                               skew_cochain, skew_symmetrize)
from mrbder.constructions import (direct_sum, induced_action, induced_product,
                                  rho_representation)
from mrbder.fields import Field, QQ
from mrbder.fuzzing import conjugate_pair, random_instances, random_invertible
from mrbder.linalg import (MAX_ENTRIES, EntryCapExceeded, Matrix, MultiTensor, ShapeError,
                           matrix_as_tensor, rref_vectors)
from mrbder.structures import (Algebra, Bimodule, InternalError, MRBDerPair, adjoint_bimodule,
                               dual_pair, scalar_pair, dual_algebra,
                               upper_triangular_pair, verify_pair)

import oracles
from oracles import (DEFAULT_CONVENTION, OperatorMapConvention, cochain_map,
                     convention_candidates, operator_matrix)

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
        mu_r = induced_product(pair.mu, pair.R)
        assert mu_r.value_at(0, 0) == (QQ.parse(2), QQ.zero)
        lt = induced_action(bim.left, 0, pair.R, bim.R_M)
        rt = induced_action(bim.right, 1, pair.R, bim.R_M)
        assert lt.value_at(0, 1) == (QQ.zero, QQ.parse(2))
        assert rt.value_at(1, 0) == (QQ.zero, QQ.parse(2))

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_two_implementations_agree(self, degree, dual_q_adj):
        # the engine against both transcriptions: written out, and the
        # coboundary over the induced structures
        pair, bim = dual_q_adj
        for f in hom_space(2, 2, degree, QQ).basis():
            a = modified_delta(pair, bim, f)
            assert a.entries == oracles.modified_delta(pair, bim, f).entries
            assert a.entries == oracles.modified_delta_via_induced(pair, bim, f).entries

    def test_two_implementations_agree_f5(self):
        pair = upper_triangular_pair(F5, F5.parse(3))
        bim = adjoint_bimodule(pair)
        rng = random.Random(2)
        for degree in (1, 2):
            space = hom_space(3, 3, degree, F5)
            f = space.unflatten(tuple(F5.random(rng) for _ in range(space.dim)))
            a = modified_delta(pair, bim, f)
            assert a.entries == oracles.modified_delta(pair, bim, f).entries
            assert a.entries == oracles.modified_delta_via_induced(pair, bim, f).entries


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
        assert top.entries == oracles.hochschild_delta(pair, bim, f1).entries
        assert mid.entries == (-oracles.operator_map(pair, bim, f1)).entries
        assert bottom.entries == (-oracles.derivation_defect(pair, bim, f1)).entries

    def test_degree2_assembly(self, dual_q_adj):
        # (f, g, h) |-> (delta f, -delta_R g - phi f, delta h + Delta f, Delta g - phi h)
        pair, bim = dual_q_adj
        rng = random.Random(12)
        space = PairSpace(QQ, 2, 2, 2)
        c = space.unflatten(tuple(QQ.random(rng) for _ in range(space.dim)))
        f, g, h = c.parts
        want = (oracles.hochschild_delta(pair, bim, f),
                -oracles.modified_delta(pair, bim, g) - oracles.operator_map(pair, bim, f),
                oracles.hochschild_delta(pair, bim, h) + oracles.derivation_defect(pair, bim, f),
                oracles.derivation_defect(pair, bim, g) - oracles.operator_map(pair, bim, h))
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

    @pytest.mark.parametrize("F", [QQ, F5], ids=["Q", "F5"])
    def test_entries_that_cancel_are_left_out(self, F):
        # on the one-dimensional unital algebra the two mu-terms of the
        # degree-2 coboundary cancel, and so do the l- and r-terms
        pair = rigid_pair_f5() if F is F5 else MRBDerPair(
            Algebra.from_table(QQ, 1, {(0, 0): (QQ.one,)}), Matrix.scalar(QQ, 1, QQ.parse(2)),
            Matrix.zeros(QQ, 1, 1), QQ.parse(-4))
        d = differential_matrix(pair, adjoint_bimodule(pair), 2, "hochschild")
        assert d.sparse_rows == [{}] and d.is_zero() and d == Matrix.zeros(F, 1, 1)

    def test_differential_matrix_deterministic(self, dual_q_adj):
        pair, bim = dual_q_adj
        a = differential_matrix(pair, bim, 2, "pair")
        b = differential_matrix(pair, bim, 2, "pair")
        assert a.rows == b.rows


KINDS = ("hochschild", "modified", "operator_map", "derivation_defect",
         "operator", "operator_defect", "pair")
# the cochain-level map of each kind but operator_defect, and the number of
# parts of the cochains it takes (0: a Hochschild cochain)
COCHAIN_MAPS = {"hochschild": (hochschild_delta, 0), "modified": (modified_delta, 0),
                "operator_map": (operator_map, 0), "derivation_defect": (derivation_defect, 0),
                "operator": (operator_delta, 2), "pair": (pair_delta, 4)}


def _cap_instance(dim_m):
    """The dual pair over Q with its adjoint bimodule (dim_m None) or with a
    trivial one of dimension ``dim_m``."""
    pair = dual_pair(QQ)
    if dim_m is None:
        return pair, adjoint_bimodule(pair)
    z = MultiTensor.zeros(QQ, (2, dim_m), dim_m)
    return pair, Bimodule(dim_m, z, z.permute_slots([1, 0]),
                          Matrix.zeros(QQ, dim_m, dim_m), Matrix.zeros(QQ, dim_m, dim_m))


def _random_cochain(rng, dim_m, n, layers):
    """A random cochain of C^n (layers 0), OC^n (2) or PC^n (4) on the dual
    pair, with ``dim_m``-dimensional coefficients."""
    m = 2 if dim_m is None else dim_m
    if layers == 0:
        sp = hom_space(2, m, n, QQ)
    else:
        sp = CochainSpace(QQ, 2, m, cochain_arities(n, layers))
    return sp.unflatten(tuple(QQ.random(rng) for _ in range(sp.dim)))


def _flat(c):
    return c.entries if isinstance(c, MultiTensor) else sum((p.entries for p in c.parts), ())


class TestComplexCache:
    """One complex per (pair, bimodule) objects, kept on the pair."""

    def test_kept_per_object_not_per_value(self):
        p1, p2 = dual_pair(QQ), dual_pair(QQ)
        b1, b2 = adjoint_bimodule(p1), adjoint_bimodule(p1)
        assert p1 == p2 and b1 == b2
        d = differential_matrix(p1, b1, 2, "pair")
        assert differential_matrix(p1, b1, 2, "pair") is d
        # equal but distinct pairs, or bimodules, build their own
        for pair, bim in ((p2, b1), (p1, b2)):
            other = differential_matrix(pair, bim, 2, "pair")
            assert other is not d and other == d
        assert differential_matrix(p1, b1, 2, "operator") is not d
        # a new pair made from the old one starts empty
        p3 = MRBDerPair(p1.algebra, p1.R, p1.d, p1.kappa)
        assert differential_matrix(p3, b1, 2, "pair") is not d

    @pytest.mark.parametrize("which,n,err", [
        ("modified", 1, "tensor with 12 entries exceeds cap 10"),
        ("operator", 2, "tensor with 24 entries exceeds cap 16"),
    ])
    def test_order_of_the_cap_checks(self, which, n, err):
        # on the trivial 3-dimensional module C^1 has 6 entries, C^2 12 and
        # C^3 24, and the induced actions 18: a build checks C^n, then
        # C^{n+1}, and builds the induced maps only after both
        pair, bim = _cap_instance(3)
        cap = int(err.split()[-1])
        with pytest.raises(EntryCapExceeded, match="^%s$" % err):
            differential_matrix(pair, bim, n, which, max_entries=cap)

    @pytest.mark.parametrize("which", KINDS)
    @pytest.mark.parametrize("dim_m", [None, 3], ids=["adjoint", "trivial3"])
    def test_lowered_cap_after_a_cached_build(self, which, dim_m):
        # a kept matrix is returned as the same object under any later
        # budget; a fresh build refuses with the size of C^n, then with that
        # of C^{n+1} (C^n again for the maps that keep the degree)
        m = 2 if dim_m is None else dim_m
        step = which not in ("operator_map", "derivation_defect", "operator_defect")
        cached = _cap_instance(dim_m)
        kept = {n: differential_matrix(*cached, n, which) for n in (1, 2, 3)}
        for cap in range(1, 60):
            fresh = _cap_instance(dim_m)
            for n in (1, 2, 3):
                assert differential_matrix(*cached, n, which, max_entries=cap) is kept[n]
                over = [s for s in (2 ** n * m, 2 ** (n + step) * m) if s > cap]
                if over:
                    with pytest.raises(EntryCapExceeded, match="^tensor with %d entries "
                                       "exceeds cap %d$" % (over[0], cap)):
                        differential_matrix(*fresh, n, which, max_entries=cap)

    def test_scaled_maps_are_built_once_per_complex(self, monkeypatch):
        mod = importlib.import_module("mrbder.cohomology")
        real, scaled = mod._scaled, []
        monkeypatch.setattr(mod, "_scaled", lambda xs: scaled.append(1) or real(xs))
        pair = conjugate_pair(dual_pair(QQ), random_invertible(random.Random(0), QQ, 2))
        bims = adjoint_bimodule(pair), adjoint_bimodule(pair)
        cx = mod._pair_complex(pair, bims[0])
        # the integer induced maps are one induced product and one induced
        # action per action
        induced = []
        for name in ("induced_product", "induced_action"):
            monkeypatch.setattr(mod, name, lambda *args, real=getattr(mod, name), name=name:
                                induced.append(name) or real(*args))
        for n in (1, 2, 3):
            for which in KINDS:
                differential_matrix(pair, bims[0], n, which)
        pair_delta(pair, bims[0], _random_cochain(random.Random(4), None, 4, 4))
        assert (len(scaled), sorted(induced)) == (1, ["induced_action"] * 2 + ["induced_product"])
        assert cx.scaled() is cx.scaled() and cx.induced() is cx.induced()
        assert cx.scaled()[0] > 1
        # an equal but distinct bimodule gets a complex, and copies, of its own
        differential_matrix(pair, bims[1], 1, "pair")
        assert len(scaled) == 2

    def test_cohomology_over_q_builds_no_field_value_for_the_kept_matrices(self):
        # the kernel of D_n, the check D_n D_{n-1} = 0, the rank balance and
        # the B step read the integer rows, so neither kept matrix, nor a
        # transpose of one, gets Fraction (or dense) rows; the pair has D > 1,
        # so the ints are not the values.  Only the B step, on a rung where
        # the balance fails (H^2 != 0 here, H^3 = 0), transposes D_{n-1}
        mod = importlib.import_module("mrbder.cohomology")
        pair = conjugate_pair(dual_pair(QQ), random_invertible(random.Random(0), QQ, 2))
        bim = adjoint_bimodule(pair)
        assert mod._pair_complex(pair, bim).scaled()[0] > 1
        for n in (2, 3):
            result = cohomology(pair, bim, n)
            assert result.dim_coboundaries > 0
            d_n, d_prev = (differential_matrix(pair, bim, k, "pair") for k in (n, n - 1))
            assert (d_prev._transpose is not None) == (n == 2)
            kept = [m for d in (d_n, d_prev) for m in (d, d._transpose) if m is not None]
            assert [(m._sparse, m._rows) for m in kept] == [(None, None)] * len(kept)
            assert all(m.int_rows()[0] > 1 for m in kept)

    @pytest.mark.parametrize("which", KINDS)
    @pytest.mark.parametrize("dim_m", [None, 3, "conjugated"])
    def test_lowered_cap_after_the_maps_are_scaled(self, which, dim_m):
        # scaling the maps checks no budget: a complex whose integer copies
        # are built refuses under every budget as a fresh one does, with the
        # size of C^n, then of C^{n+1} (C^n again for the maps that keep the
        # degree)
        def instance():
            if dim_m != "conjugated":
                return _cap_instance(dim_m)
            pair = conjugate_pair(dual_pair(QQ), random_invertible(random.Random(0), QQ, 2))
            return pair, adjoint_bimodule(pair)

        def outcome(pair_bim, n, cap):
            try:
                return differential_matrix(*pair_bim, n, which, max_entries=cap)
            except EntryCapExceeded as e:
                return str(e)

        m = 3 if dim_m == 3 else 2
        step = which not in ("operator_map", "derivation_defect", "operator_defect")
        mod = importlib.import_module("mrbder.cohomology")
        for cap in range(1, 60):
            warm, fresh = instance(), instance()
            mod._pair_complex(*warm).scaled()
            for n in (1, 2, 3):
                got = outcome(warm, n, cap)
                assert got == outcome(fresh, n, cap), (cap, n)
                over = [s for s in (2 ** n * m, 2 ** (n + step) * m) if s > cap]
                if over:
                    assert got == "tensor with %d entries exceeds cap %d" % (over[0], cap)

    @pytest.mark.parametrize("which", sorted(COCHAIN_MAPS))
    @pytest.mark.parametrize("dim_m", [None, 3], ids=["adjoint", "trivial3"])
    def test_lowered_cap_on_the_cochain_maps(self, which, dim_m):
        # pair_delta takes the budget: under every budget, on inputs whose
        # complex has built the matrix it gives D_n times the cochain, since
        # a kept matrix is not checked again, and on fresh inputs what
        # differential_matrix gives, the image or the refusal; the other
        # cochain maps, reached from no command, build under the default
        apply, layers = COCHAIN_MAPS[which]
        rng = random.Random(12)
        cochains = {n: _random_cochain(rng, dim_m, n, layers) for n in (1, 2, 3)}
        cached = _cap_instance(dim_m)
        images = {n: differential_matrix(*cached, n, which).apply(_flat(c))
                  for n, c in cochains.items()}

        def outcome(call):
            try:
                return call()
            except EntryCapExceeded as e:
                return str(e)

        refused = 0
        for cap in range(1, 60) if which == "pair" else [MAX_ENTRIES]:
            budget = {"max_entries": cap} if which == "pair" else {}
            a, b = _cap_instance(dim_m), _cap_instance(dim_m)
            for n, c in cochains.items():
                assert outcome(lambda: _flat(apply(*cached, c, **budget))) == images[n]
                fresh = outcome(lambda: differential_matrix(*a, n, which, max_entries=cap)
                                .apply(_flat(c)))
                assert outcome(lambda: _flat(apply(*b, c, **budget))) == fresh
                refused += isinstance(fresh, str)
        assert (refused > 0) == (which == "pair")

    @pytest.mark.parametrize("which", KINDS)
    def test_a_repeated_call_lists_no_blocks(self, which, monkeypatch):
        mod = importlib.import_module("mrbder.cohomology")
        real, listed = mod._blocks, []
        monkeypatch.setattr(mod, "_blocks", lambda *args: listed.append(args) or real(*args))
        pair = dual_pair(QQ)
        bim = adjoint_bimodule(pair)
        d = differential_matrix(pair, bim, 2, which)
        assert len(listed) == 1
        assert differential_matrix(pair, bim, 2, which) is d and len(listed) == 1

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_pair_delta_builds_the_kept_matrix(self, n, monkeypatch):
        mod = importlib.import_module("mrbder.cohomology")
        real, built = mod._assemble, []
        monkeypatch.setattr(mod, "_assemble", lambda *args: built.append(1) or real(*args))
        pair = dual_pair(QQ)
        bim = adjoint_bimodule(pair)
        c = _random_cochain(random.Random(n), None, n, 4)
        image = pair_delta(pair, bim, c)
        assert len(built) == 1
        d = differential_matrix(pair, bim, n, "pair")
        assert len(built) == 1 and d.apply(_flat(c)) == _flat(image)
        pair_delta(pair, bim, c)
        assert len(built) == 1

    def test_lie_maps_build_each_matrix_once(self, monkeypatch):
        mod = importlib.import_module("mrbder.cohomology")
        real, built = mod._assemble, []
        monkeypatch.setattr(mod, "_assemble", lambda cx, *args: built.append(cx) or real(cx, *args))
        pair = upper_triangular_pair(QQ, QQ.parse(2))
        lp = rho_representation(pair, adjoint_bimodule(pair))
        rng = random.Random(13)
        fs = [MultiTensor(QQ, (3, 3), 3, tuple(QQ.random(rng) for _ in range(27)))
              for _ in range(2)]
        for f in fs:
            ce_delta(lp, f)
            lie_derivation_defect(lp, f)
        assert len(built) == 2 and built[0] is built[1] is lp._complex[0]


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
        # a degree below 1 is refused; above, the entry budget is the one
        # limit: the default admits H^4 and D_5, a lower one refuses them
        pair, bim = dual_q_adj
        with pytest.raises(ShapeError):
            cohomology(pair, bim, 0)
        with pytest.raises(ShapeError):
            differential_matrix(pair, bim, 0, "pair")
        res = cohomology(pair, bim, 4)
        assert (res.dim_cocycles, res.dim_coboundaries, res.dim_h) == (24, 24, 0)
        # PC^6 = C^6 + 2 C^5 + C^4
        assert differential_matrix(pair, bim, 5, "pair").nrows == 2 ** 7 + 2 * 2 ** 6 + 2 ** 5
        fresh, fresh_bim = _cap_instance(None)
        with pytest.raises(EntryCapExceeded, match="^tensor with 32 entries exceeds cap 31$"):
            cohomology(fresh, fresh_bim, 4, max_entries=31)
        with pytest.raises(EntryCapExceeded, match="^tensor with 128 entries exceeds cap 64$"):
            differential_matrix(fresh, fresh_bim, 5, "pair", max_entries=64)

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


class TestLadderScale:
    """ut (+) dual with adjoint coefficients, a = 5: D_3 is 4500 x 900."""

    def test_degree_three_over_q_and_f5(self):
        z = {}
        for F in (QQ, F5):
            pair = direct_sum(upper_triangular_pair(F, F.one), dual_pair(F))
            bim = adjoint_bimodule(pair)
            res = cohomology(pair, bim, 3)
            # (Z, B, H) as the cochain-by-cochain build of D_n gave them
            assert (res.dim_cocycles, res.dim_coboundaries, res.dim_h) == (150, 149, 1)
            d2 = differential_matrix(pair, bim, 2, "pair")
            d3 = differential_matrix(pair, bim, 3, "pair")
            assert (d3.nrows, d3.ncols) == (4500, 900)
            assert (d3 * d2).is_zero()
            # rank D_3 from its columns, an elimination separate from the kernel's
            rank = len(rref_vectors(F, d3.transpose().rows)[1])
            assert res.dim_cocycles + rank == PairSpace(F, 5, 5, 3).dim
            space = PairSpace(F, 5, 5, 3)
            assert all(not any(d3.apply(space.flatten(r))) for r in res.representatives)
            z[F.name] = res.dim_cocycles
        # the instance is integral, so reducing mod 5 can only add cocycles
        assert z["Fp:5"] >= z["Q"]

    def test_conjugated_degree_two_over_q(self):
        # after a random basis change D_2 is 900 x 175 with growing fractions
        pair = direct_sum(upper_triangular_pair(QQ, QQ.one), dual_pair(QQ))
        pair = conjugate_pair(pair, random_invertible(random.Random(0), QQ, 5))
        bim = adjoint_bimodule(pair)
        res = cohomology(pair, bim, 2)
        assert (res.dim_cocycles, res.dim_coboundaries, res.dim_h) == (26, 23, 3)
        d1 = differential_matrix(pair, bim, 1, "pair")
        d2 = differential_matrix(pair, bim, 2, "pair")
        assert (d2.nrows, d2.ncols) == (900, 175)
        assert (d2 * d1).is_zero()
        space = PairSpace(QQ, 5, 5, 2)
        assert all(not any(d2.apply(space.flatten(r))) for r in res.representatives)


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
        d1 = operator_matrix(*cochain_map(pair, bim, 1, "pair", bad))
        d2 = operator_matrix(*cochain_map(pair, bim, 2, "pair", bad))
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
                    phi_n = operator_matrix(*cochain_map(pair, bim, n, "operator_map", conv))
                    phi_next = operator_matrix(
                        *cochain_map(pair, bim, n + 1, "operator_map", conv))
                    hoch = differential_matrix(pair, bim, n, "hochschild")
                    mod = differential_matrix(pair, bim, n, "modified")
                    if not (phi_next * hoch - mod * phi_n).is_zero():
                        ok = False
                        break
                    d_n = operator_matrix(*cochain_map(pair, bim, n, "pair", conv))
                    d_next = operator_matrix(*cochain_map(pair, bim, n + 1, "pair", conv))
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


class TestPrimitiveCertificate:
    """``primitive`` returns h only once D^1 h = c is checked."""

    @pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "F5"])
    def test_primitive_of_a_random_coboundary(self, field):
        rng = random.Random(4)
        for inst in random_instances(field, 2, 6, seed=4):
            pair, bim = inst.pair, inst.bim
            h = MultiTensor(field, (pair.dim,), bim.dim_m,
                            tuple(field.random(rng) for _ in range(pair.dim * bim.dim_m)))
            c = pair_delta(pair, bim, Cochain(1, (h,)))
            got = primitive(pair, bim, c)
            assert (pair_delta(pair, bim, Cochain(1, (matrix_as_tensor(got),))) - c).is_zero()

    @pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "F5"])
    def test_wrong_solution_is_an_internal_error(self, field, monkeypatch, one_entry_off):
        mod = importlib.import_module("mrbder.cohomology")
        pair = dual_pair(field)
        bim = adjoint_bimodule(pair)
        h = MultiTensor(field, (2,), 2, tuple(field.parse(k + 1) for k in range(4)))
        c = pair_delta(pair, bim, Cochain(1, (h,)))
        assert not c.is_zero()
        monkeypatch.setattr(mod, "solve_linear", one_entry_off(mod.solve_linear))
        with pytest.raises(InternalError, match="does not satisfy D\\^1 h = c"):
            primitive(pair, bim, c)
