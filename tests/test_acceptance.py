"""Acceptance gate.

Each test here covers one promised property group end to end and prints a
single PASS line with its runtime.  Budgets that are part of the promise
(fixture verification under a second, the large randomized sweeps under two
minutes) are asserted, not just observed.  Run with -s to see the table.
"""

import json
import random
import time
from pathlib import Path

from mrbder.cohomology import (Cochain, PairSpace, ce_delta, cohomology,
                               differential_matrix, hochschild_delta,
                               hom_space, lie_pair_delta, operator_map,
                               pair_delta, skew_cochain, skew_symmetrize)
from mrbder.constructions import rho_representation
from mrbder.deformation import (Deformation, apply_gauge, check_deformation,
                                derivation_scaling_deformation,
                                equivalent_infinitesimals, infinitesimal,
                                single_term_gauge, trivialize,
                                zero_deformation)
from mrbder.extension import (build_extension, canonical_section, classify,
                              derive_base, extensions_equivalent,
                              extract_cocycle, fiber_retraction)
from mrbder.fields import Field, QQ
from mrbder.fuzzing import check_instance, random_instances
from mrbder.linalg import (Matrix, MultiTensor, matrix_as_tensor,
                           rank_and_kernel, tensor_as_matrix)
from mrbder.structures import (Algebra, MRBDerPair, adjoint_bimodule,
                               check_bimodule, dual_algebra, dual_pair,
                               scalar_pair, verify_pair, zero_pair)

from oracles import DEFAULT_CONVENTION, cochain_map, convention_candidates, operator_matrix

F5 = Field.prime(5)
F2 = Field.prime(2)
DOCS = Path(__file__).resolve().parents[1] / "docs"


def _stamp(name, t0):
    dt = time.monotonic() - t0
    print("PASS  %-52s %6.2fs" % (name, dt))
    return dt


def _bumped_matrix(F, mat, r, c):
    rows = [list(row) for row in mat.rows]
    rows[r][c] = F.add(rows[r][c], F.one)
    return Matrix.from_rows(F, rows)


def _single_entry_mutants(pair):
    """All 17 one-entry perturbations of a dim-2 pair: 8 mu, 4 R, 4 d, 1 kappa."""
    F, n = pair.field, pair.dim
    for i in range(n):
        for j in range(n):
            for k in range(n):
                def bump(a, b, i=i, j=j, k=k):
                    vec = list(pair.mu.value_at(a, b))
                    if (a, b) == (i, j):
                        vec[k] = F.add(vec[k], F.one)
                    return tuple(vec)
                mu = MultiTensor.from_map(F, (n, n), n, bump)
                yield ("mu[%d,%d]->%d" % (i, j, k),
                       MRBDerPair(Algebra(F, n, mu), pair.R, pair.d, pair.kappa))
    for r in range(n):
        for c in range(n):
            yield ("R[%d,%d]" % (r, c),
                   MRBDerPair(pair.algebra, _bumped_matrix(F, pair.R, r, c),
                              pair.d, pair.kappa))
    for r in range(n):
        for c in range(n):
            yield ("d[%d,%d]" % (r, c),
                   MRBDerPair(pair.algebra, pair.R,
                              _bumped_matrix(F, pair.d, r, c), pair.kappa))
    yield "kappa", MRBDerPair(pair.algebra, pair.R, pair.d, F.add(pair.kappa, F.one))


def _random_closed_cochain(pair, bim, rng):
    F = pair.field
    space = PairSpace(F, pair.dim, bim.dim_m, 2)
    d2 = differential_matrix(pair, bim, 2, "pair")
    _, kernel = rank_and_kernel(d2)
    acc = [F.zero] * space.dim
    for v in kernel:
        c = F.random(rng)
        acc = [F.add(a, F.mul(c, x)) for a, x in zip(acc, v)]
    return space.unflatten(tuple(acc))


def _order_one_deformation(pair, cochain):
    theta, xi, chi = cochain.parts
    return Deformation(pair, 1, (theta,),
                       (tensor_as_matrix(xi),), (tensor_as_matrix(chi),))


def _random_square(F, n, rng):
    return Matrix.from_rows(F, [[F.random(rng) for _ in range(n)]
                                for _ in range(n)])


# bit-mask walks over all F2 vectors; columns of the matrix become integers
# and a Gray-code step flips one column per iteration

def _f2_column_masks(mat):
    zero = mat.field.zero
    cols = []
    for j in range(mat.ncols):
        m = 0
        for i in range(mat.nrows):
            if mat.rows[i][j] != zero:
                m |= 1 << i
        cols.append(m)
    return cols


def _f2_kernel_size(mat):
    cols = _f2_column_masks(mat)
    img, count = 0, 1
    for g in range(1, 1 << len(cols)):
        img ^= cols[(g & -g).bit_length() - 1]
        count += (img == 0)
    return count


def _f2_image_size(mat):
    cols = _f2_column_masks(mat)
    img, seen = 0, {0}
    for g in range(1, 1 << len(cols)):
        img ^= cols[(g & -g).bit_length() - 1]
        seen.add(img)
    return len(seen)


def _f2_unit_pair():
    alg = Algebra.from_table(F2, 1, {(0, 0): (F2.one,)})
    return MRBDerPair(alg, Matrix.identity(F2, 1), Matrix.zeros(F2, 1, 1),
                      F2.parse(-1))


def test_01_fixture_validity_and_mutation_detection():
    t0 = time.monotonic()
    assert verify_pair(zero_pair(QQ, 1)).ok
    for lam in (0, 1, 2):
        assert verify_pair(scalar_pair(dual_algebra(QQ), QQ.parse(lam))).ok
    pair = dual_pair(QQ)
    held = adjoint_bimodule(pair)
    assert verify_pair(pair).ok
    assert check_bimodule(pair, held).ok

    count = 0
    for name, mutant in _single_entry_mutants(pair):
        count += 1
        report = verify_pair(mutant)
        if report.ok:
            report = check_bimodule(mutant, held)
        assert not report.ok, "mutation %s slipped through" % name
        witness = report.first
        assert witness is not None and witness.identity
    assert count == 17
    dt = _stamp("fixture validity, every single-entry mutation caught", t0)
    assert dt < 1.0


def test_02_differential_squares_to_zero_at_scale():
    t0 = time.monotonic()

    def full_chain(pair, bim):
        mats = {n: differential_matrix(pair, bim, n, "pair") for n in range(1, 5)}
        for n in (1, 2, 3):
            assert (mats[n + 1] * mats[n]).is_zero()

    pair = dual_pair(QQ)
    full_chain(pair, adjoint_bimodule(pair))

    instances = random_instances(F5, 2, 60, 101) + random_instances(F5, 1, 40, 202)
    assert len(instances) == 100
    for inst in instances:
        assert check_instance(inst)
        full_chain(inst.pair, inst.bim)
    dt = _stamp("D(n+1) o D(n) = 0 for n=1..3 on 100 random instances", t0)
    assert dt < 120.0


def test_03_operator_map_calibration():
    t0 = time.monotonic()
    panel = []
    for p in (dual_pair(QQ), scalar_pair(dual_algebra(QQ), QQ.parse(2)),
              scalar_pair(dual_algebra(QQ), QQ.zero), dual_pair(F5)):
        panel.append((p, adjoint_bimodule(p)))

    # candidate matrices from the transcribed phi and pair maps
    def candidate(pair, bim, n, which, conv):
        return operator_matrix(*cochain_map(pair, bim, n, which, conv))

    winners = []
    for conv in convention_candidates():
        ok = True
        for pair, bim in panel:
            for n in (1, 2):
                phi_n = candidate(pair, bim, n, "operator_map", conv)
                phi_next = candidate(pair, bim, n + 1, "operator_map", conv)
                hoch = differential_matrix(pair, bim, n, "hochschild")
                mod = differential_matrix(pair, bim, n, "modified")
                d_n = candidate(pair, bim, n, "pair", conv)
                d_next = candidate(pair, bim, n + 1, "pair", conv)
                if not (phi_next * hoch - mod * phi_n).is_zero():
                    ok = False
                    break
                if not (d_next * d_n).is_zero():
                    ok = False
                    break
            if not ok:
                break
        if ok:
            winners.append(conv)
    assert winners == [DEFAULT_CONVENTION]

    # the engine hard-codes the winner: its phi and pair matrices are the winner's
    for pair, bim in panel:
        for n in (1, 2, 3):
            for which in ("operator_map", "pair"):
                assert (differential_matrix(pair, bim, n, which).rows
                        == candidate(pair, bim, n, which, winners[0]).rows), (n, which)

    # the winner stays a chain map on random instances, and it kills the
    # product cochain on adjoint coefficients
    for inst in random_instances(F5, 2, 4, 303) + random_instances(F5, 1, 4, 304):
        pair, bim = inst.pair, inst.bim
        for n in (1, 2):
            phi_n = differential_matrix(pair, bim, n, "operator_map")
            phi_next = differential_matrix(pair, bim, n + 1, "operator_map")
            hoch = differential_matrix(pair, bim, n, "hochschild")
            mod = differential_matrix(pair, bim, n, "modified")
            assert (phi_next * hoch - mod * phi_n).is_zero()
        assert operator_map(pair, adjoint_bimodule(pair), pair.mu).is_zero()
    assert operator_map(dual_pair(QQ), adjoint_bimodule(dual_pair(QQ)),
                        dual_pair(QQ).mu).is_zero()

    report_json = DOCS / "phi_calibration.json"
    report_md = DOCS / "phi_calibration.md"
    assert report_json.is_file() and report_md.is_file()
    assert report_md.read_text().strip()
    report = json.loads(report_json.read_text())
    assert report["winner_unique"] is True
    assert report["winner_is_default"] is True
    assert len(report["candidates"]) == 12
    winner = report["winner"]
    assert winner["even_shift"] == DEFAULT_CONVENTION.even_shift
    assert winner["even_sign"] == DEFAULT_CONVENTION.even_sign
    assert winner["even_rm"] == DEFAULT_CONVENTION.even_rm
    _stamp("unique calibration winner is the shipped default", t0)


def test_04_commutation_identities():
    t0 = time.monotonic()
    targets = [(dual_pair(QQ), adjoint_bimodule(dual_pair(QQ)))]
    for inst in random_instances(F5, 2, 3, 404) + random_instances(F5, 1, 3, 405):
        targets.append((inst.pair, inst.bim))
    for pair, bim in targets:
        for n in (1, 2):
            hoch = differential_matrix(pair, bim, n, "hochschild")
            dft_n = differential_matrix(pair, bim, n, "derivation_defect")
            dft_next = differential_matrix(pair, bim, n + 1, "derivation_defect")
            phi = differential_matrix(pair, bim, n, "operator_map")
            op_n = differential_matrix(pair, bim, n, "operator")
            odft_n = differential_matrix(pair, bim, n, "operator_defect")
            odft_next = differential_matrix(pair, bim, n + 1, "operator_defect")
            assert (dft_next * hoch - hoch * dft_n).is_zero()
            assert (dft_n * phi - phi * dft_n).is_zero()
            assert (odft_next * op_n - op_n * odft_n).is_zero()
    _stamp("defect commutes with delta, phi, and the operator complex", t0)


def test_05_brute_force_dimension_check():
    t0 = time.monotonic()
    fixtures = [dual_pair(F2), _f2_unit_pair(), zero_pair(F2, 1)]
    for pair in fixtures:
        assert verify_pair(pair).ok
        bim = adjoint_bimodule(pair)
        d1 = differential_matrix(pair, bim, 1, "pair")
        d2 = differential_matrix(pair, bim, 2, "pair")
        res1 = cohomology(pair, bim, 1)
        res2 = cohomology(pair, bim, 2)
        # |Z| and |B| counted by walking every cochain, no linear algebra
        assert _f2_kernel_size(d1) == 2 ** res1.dim_cocycles
        assert _f2_kernel_size(d2) == 2 ** res2.dim_cocycles
        assert _f2_image_size(d1) == 2 ** res2.dim_coboundaries
        assert (_f2_kernel_size(d2) // _f2_image_size(d1)) == 2 ** res2.dim_h
    _stamp("rank/nullity dims match exhaustive F2 enumeration", t0)


def test_06_deformation_suite():
    t0 = time.monotonic()
    rng = random.Random(606)

    # (a) order-1 solutions have closed infinitesimals
    pairs = [dual_pair(F5)]
    for inst in random_instances(F5, 1, 2, 607) + random_instances(F5, 2, 2, 608):
        pairs.append(inst.pair)
    solutions = 0
    for pair in pairs:
        bim = adjoint_bimodule(pair)
        for _ in range(20):
            c = _random_closed_cochain(pair, bim, rng)
            defo = _order_one_deformation(pair, c)
            assert check_deformation(defo).ok
            assert pair_delta(pair, bim, infinitesimal(defo)).is_zero()
            solutions += 1
    assert solutions == 100

    # (b) scaling the derivation by (1 + t) stays a deformation to order 4
    assert check_deformation(derivation_scaling_deformation(dual_pair(QQ), 4)).ok

    # (c) gauging the constant family gives a coboundary infinitesimal and
    # the certificate solver recovers a matching psi_1
    pair = dual_pair(QQ)
    bim = adjoint_bimodule(pair)
    qrng = random.Random(609)
    for _ in range(5):
        phi = _random_square(QQ, 2, qrng)
        zero = zero_deformation(pair, 2)
        gauged = apply_gauge(zero, single_term_gauge(pair, 1, phi, 2))
        want = pair_delta(pair, bim, Cochain(1, (matrix_as_tensor(phi),)))
        assert (infinitesimal(gauged) - want).is_zero()
        psi = equivalent_infinitesimals(gauged, zero)
        assert psi is not None
        delta_psi = pair_delta(pair, bim, Cochain(1, (matrix_as_tensor(psi),)))
        assert (delta_psi - infinitesimal(gauged)).is_zero()
        same_class = pair_delta(pair, bim, Cochain(1, (matrix_as_tensor(psi - phi),)))
        assert same_class.is_zero()

    # (d) a searched-for rigid pair: every gauged constant family trivializes
    rigid = None
    for inst in random_instances(F5, 1, 40, 610):
        if cohomology(inst.pair, adjoint_bimodule(inst.pair), 2).dim_h == 0:
            rigid = inst.pair
            break
    assert rigid is not None
    for _ in range(3):
        g = single_term_gauge(rigid, 1, _random_square(F5, 1, rng), 3)
        g = g.compose(single_term_gauge(rigid, 2, _random_square(F5, 1, rng), 3), 3)
        g = g.compose(single_term_gauge(rigid, 3, _random_square(F5, 1, rng), 3), 3)
        defo = apply_gauge(zero_deformation(rigid, 3), g)
        assert check_deformation(defo).ok
        back = trivialize(defo)
        assert back is not None
        assert apply_gauge(defo, back).is_zero()
    _stamp("deformation suite: cocycles, gauges, rigidity", t0)


def test_07_extension_suite():
    t0 = time.monotonic()
    rng = random.Random(707)

    # (a) build -> extract round trip on 100 random closed cochains
    instances = random_instances(F5, 1, 10, 708) + random_instances(F5, 2, 10, 709)
    built = []
    round_trips = 0
    for inst in instances:
        pair, bim = inst.pair, inst.bim
        for _ in range(5):
            c = _random_closed_cochain(pair, bim, rng)
            ext = build_extension(pair, bim, c)
            base, fiber = derive_base(ext)
            assert base.mu == pair.mu and base.R == pair.R
            assert base.d == pair.d and base.kappa == pair.kappa
            assert fiber.left == bim.left and fiber.right == bim.right
            assert fiber.R_M == bim.R_M and fiber.d_M == bim.d_M
            assert (extract_cocycle(pair, bim, ext) - c).is_zero()
            built.append((pair, bim, ext))
            round_trips += 1
    assert round_trips == 100

    # (b) two sections of one extension give cohomologous cocycles with the
    # fiber part of their difference as the explicit certificate
    for pair, bim, ext in built[::20]:
        F = pair.field
        s1 = canonical_section(ext)
        shift = Matrix.from_rows(F, [[F.random(rng) for _ in range(pair.dim)]
                                     for _ in range(bim.dim_m)])
        s2 = s1 + ext.i * shift
        c1 = extract_cocycle(pair, bim, ext, section=s1)
        c2 = extract_cocycle(pair, bim, ext, section=s2)
        h = fiber_retraction(ext) * (s1 - s2)
        want = pair_delta(pair, bim, Cochain(1, (matrix_as_tensor(h),)))
        assert ((c1 - c2) - want).is_zero()

    # (c) complete classification over F2: 2^k classes, pairwise inequivalent,
    # and every random closed cochain lands in exactly one of them
    pair = dual_pair(F2)
    bim = adjoint_bimodule(pair)
    cls = classify(pair, bim)
    assert cls.dim_h2 >= 1
    assert cls.complete and cls.count == 2 ** cls.dim_h2
    exts = [build_extension(pair, bim, rep) for rep in cls.representatives]
    assert len(exts) == cls.count
    for i in range(len(exts)):
        for j in range(i + 1, len(exts)):
            assert extensions_equivalent(pair, bim, exts[i], exts[j]) is None
    f2rng = random.Random(710)
    for _ in range(10):
        c = _random_closed_cochain(pair, bim, f2rng)
        ext = build_extension(pair, bim, c)
        matches = [k for k, other in enumerate(exts)
                   if extensions_equivalent(pair, bim, ext, other) is not None]
        assert len(matches) == 1
    dt = _stamp("extension suite: round trips, certificates, classes", t0)
    assert dt < 120.0


def test_08_skew_symmetrization_morphisms():
    t0 = time.monotonic()
    targets = [(dual_pair(QQ), adjoint_bimodule(dual_pair(QQ)))]
    for inst in (random_instances(F5, 1, 4, 808) + random_instances(F5, 2, 4, 809)
                 + random_instances(QQ, 1, 3, 810)):
        targets.append((inst.pair, inst.bim))
    rng = random.Random(811)
    for pair, bim in targets:
        F = pair.field
        lp = rho_representation(pair, bim)
        for n in (1, 2):
            for f in hom_space(pair.dim, bim.dim_m, n, F).basis():
                lhs = skew_symmetrize(hochschild_delta(pair, bim, f))
                rhs = ce_delta(lp, skew_symmetrize(f))
                assert (lhs - rhs).is_zero()
            space = PairSpace(F, pair.dim, bim.dim_m, n)
            for _ in range(2):
                c = space.unflatten(tuple(F.random(rng) for _ in range(space.dim)))
                lhs = skew_cochain(pair_delta(pair, bim, c))
                rhs = lie_pair_delta(lp, skew_cochain(c))
                assert (lhs - rhs).is_zero()
                assert lie_pair_delta(lp, lie_pair_delta(lp, c)).is_zero()
    _stamp("skew-symmetrization intertwines both complexes", t0)
