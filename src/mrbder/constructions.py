"""Constructions on pairs and bimodules.

Direct sums and semidirect products, whose product tables are written from
their blocks by ``MultiTensor.from_blocks``; the induced ("descendent")
structures; passage to the commutator Lie bracket; and the embedding of
ordinary Rota-Baxter operators of weight lambda via R = lam*Id + 2P,
kappa = -lam^2.

This module owns the induced formulas, their one implementation:
:func:`induced_product` gives mu_R(a,b) = mu(Ra,b) + mu(a,Rb) (and
[a,b]_R over a bracket), and :func:`induced_action` gives l~, r~ and, on a
Lie pair, rho~.  Both run on the tensors' stored ints.  The induced pair
and bimodule, ``cohomology.induced_lie_pair`` and the complex the modified
coboundary runs over (``cohomology._Complex.induced``) call them.
"""

from __future__ import annotations

from .fields import Field, Value
from .linalg import Matrix, MultiTensor, ShapeError
from .structures import (Algebra, Bimodule, CheckReport, InvalidStructure, MRBDerPair,
                         _report, associator_slice, check_bimodule, check_commutation,
                         check_derivation, derivation_residual, operator_residual,
                         residual_failures, rota_baxter_residual, sliced_failures,
                         verify_pair)


class KappaMismatch(ValueError):
    """Summands of a direct sum must share the same weight."""


def direct_sum(p1: MRBDerPair, p2: MRBDerPair) -> MRBDerPair:
    """Componentwise structure on A1 + A2; requires kappa1 = kappa2."""
    F = p1.field
    if F != p2.field:
        raise ShapeError("summands over different fields")
    if p1.kappa != p2.kappa:
        raise KappaMismatch("kappa mismatch: %s vs %s" % (F.to_str(p1.kappa), F.to_str(p2.kappa)))
    mu = MultiTensor.from_blocks(F, (p1.dim, p2.dim), {(0, 0, 0): p1.mu, (1, 1, 1): p2.mu})
    alg = Algebra(F, p1.dim + p2.dim, mu)
    return MRBDerPair(alg, p1.R.block_diag(p2.R), p1.d.block_diag(p2.d), p1.kappa)


def semidirect_product(pair: MRBDerPair, bim: Bimodule) -> MRBDerPair:
    """A + M with mu(a+m, b+n) = mu(a,b) + l(a,n) + r(m,b), R + R_M, d + d_M.

    Precondition: ``bim`` passes :func:`check_bimodule`; raises
    :class:`InvalidStructure` otherwise.
    """
    rep = check_bimodule(pair, bim)
    if not rep.ok:
        raise InvalidStructure("not a bimodule: first failure %r" % (rep.first,), rep)
    F, n, m = pair.field, pair.dim, bim.dim_m
    mu = MultiTensor.from_blocks(
        F, (n, m), {(0, 0, 0): pair.mu, (0, 1, 1): bim.left, (1, 0, 1): bim.right})
    alg = Algebra(F, n + m, mu)
    return MRBDerPair(alg, pair.R.block_diag(bim.R_M), pair.d.block_diag(bim.d_M), pair.kappa)


def induced_product(mu: MultiTensor, R: Matrix) -> MultiTensor:
    """mu_R(a, b) = mu(Ra, b) + mu(a, Rb); over a bracket, [a, b]_R."""
    return mu.precompose_slot(0, R) + mu.precompose_slot(1, R)


def induced_action(action: MultiTensor, slot: int, R: Matrix, R_M: Matrix) -> MultiTensor:
    """The action with R fed into its algebra slot, less R_M after it:

        l~(a, m) = l(Ra, m) - R_M(l(a, m))       (slot 0; also rho~ on a Lie pair)
        r~(m, a) = r(m, Ra) - R_M(r(m, a))       (slot 1)
    """
    return action.precompose_slot(slot, R) - action.postcompose(R_M)


def induced_algebra(pair: MRBDerPair) -> MRBDerPair:
    """The pair (A, mu_R, R, d, kappa) with mu_R of :func:`induced_product`.

    Precondition: ``pair`` verifies; raises :class:`InvalidStructure` otherwise.
    """
    rep = verify_pair(pair)
    if not rep.ok:
        raise InvalidStructure("pair does not verify: first failure %r" % (rep.first,), rep)
    mu_r = induced_product(pair.mu, pair.R)
    return MRBDerPair(Algebra(pair.field, pair.dim, mu_r), pair.R, pair.d, pair.kappa)


def induced_bimodule(pair: MRBDerPair, bim: Bimodule) -> Bimodule:
    """The actions l~, r~ of :func:`induced_action` with the same R_M, d_M:
    a bimodule over :func:`induced_algebra` of the pair."""
    return Bimodule(bim.dim_m, induced_action(bim.left, 0, pair.R, bim.R_M),
                    induced_action(bim.right, 1, pair.R, bim.R_M), bim.R_M, bim.d_M)


class LiePair(Value):
    """Lie algebra with bracket tensor, modified Rota-Baxter operator R of
    weight kappa, derivation d, and optionally a representation
    (rho: A x M -> M, R_M, d_M)."""

    # _complex: [its cochain complex] once mrbder.cohomology has built it;
    # not part of the Lie pair's value
    __slots__ = ("field", "dim", "bracket", "R", "d", "kappa", "rho", "R_M", "d_M", "_complex")

    def __init__(self, field: Field, dim: int, bracket: MultiTensor, R: Matrix, d: Matrix,
                 kappa, rho: MultiTensor | None = None, R_M: Matrix | None = None,
                 d_M: Matrix | None = None):
        self._init(field, dim, bracket, R, d, kappa, rho, R_M, d_M, [])

    @property
    def dim_m(self):
        return self.rho.dims[1] if self.rho is not None else None


def check_lie_pair(lp: LiePair) -> CheckReport:
    """Bracket axioms, the modified Rota-Baxter Lie identity

        [Ra, Rb] = R([Ra, b] + [a, Rb]) + kappa*[a, b]

    derivation and commutation axioms, and the representation identities when
    rho is attached."""
    F, n, br = lp.field, lp.dim, lp.bracket
    R, d = lp.R, lp.d
    fails = residual_failures(
        "alternating", MultiTensor.from_map(F, (n,), n, lambda i: br.value_at(i, i)))
    fails += [f for f in residual_failures("antisymmetry", br + br.permute_slots([1, 0]))
              if f.args[0] < f.args[1]]
    fails += sliced_failures("jacobi", n, lambda i: (
        br.precompose_slot(0, br.partial_map(0, i))
        + br.postcompose(br.partial_map(1, i))
        + br.precompose_slot(0, br.partial_map(1, i)).permute_slots([1, 0])))
    fails += residual_failures("mrb-lie", operator_residual(br, R, R, R, lp.kappa))
    fails += residual_failures("bracket-derivation", derivation_residual(br, d, d, d))
    fails += check_commutation(R, d).failures

    if lp.rho is not None:
        rho, R_M, d_M = lp.rho, lp.R_M, lp.d_M
        fails += sliced_failures("rep-bracket", n, lambda i: (
            associator_slice(i, br, rho, rho, rho)
            + rho.precompose_slot(1, rho.partial_map(0, i))))
        fails += residual_failures("rep-op", operator_residual(rho, R, R_M, R_M, lp.kappa))
        fails += residual_failures("rep-derivation", derivation_residual(rho, d, d_M, d_M))
        fails += check_commutation(R_M, d_M, "rep-op-der-commute").failures
    return _report(fails)


def commutator_bracket(alg: Algebra) -> MultiTensor:
    return alg.mu - alg.mu.permute_slots([1, 0])


def commutator_lie_pair(pair: MRBDerPair) -> LiePair:
    """[a,b] = mu(a,b) - mu(b,a) with the same (R, d, kappa)."""
    return LiePair(pair.field, pair.dim, commutator_bracket(pair.algebra),
                   pair.R, pair.d, pair.kappa)


def rho_representation(pair: MRBDerPair, bim: Bimodule) -> LiePair:
    """Commutator Lie pair together with rho(a)m = l(a,m) - r(m,a) acting on M."""
    rho = bim.left - bim.right.permute_slots([1, 0])
    lp = commutator_lie_pair(pair)
    return LiePair(lp.field, lp.dim, lp.bracket, lp.R, lp.d, lp.kappa,
                   rho, bim.R_M, bim.d_M)


def check_rota_baxter(alg: Algebra, P: Matrix, lam) -> CheckReport:
    """Rota-Baxter of weight lambda: mu(Pa,Pb) = P(mu(Pa,b) + mu(a,Pb)) + lam*P(mu(a,b))."""
    return _report(residual_failures("rota-baxter", rota_baxter_residual(alg.mu, P, P, P, lam)))


def rb_to_mrb(alg: Algebra, P: Matrix, lam, d: Matrix) -> MRBDerPair:
    """Weight-lambda Rota-Baxter AssDer data to a modified pair:
    R = lam*Id + 2P, kappa = -lam^2.  Validates the RB identity, the
    derivation axiom, and P.d = d.P first."""
    F = alg.field
    rep = CheckReport.combine([
        check_rota_baxter(alg, P, lam),
        check_derivation(alg, d),
        check_commutation(P, d),
    ])
    if not rep.ok:
        raise InvalidStructure("not a Rota-Baxter AssDer structure: %r" % (rep.first,), rep)
    two = F.add(F.one, F.one)
    R = Matrix.scalar(F, alg.dim, lam) + P.scale(two)
    return MRBDerPair(alg, R, d, F.neg(F.mul(lam, lam)))


def bimodule_rb_to_mrb(alg: Algebra, P: Matrix, lam, d: Matrix,
                       left: MultiTensor, right: MultiTensor,
                       T_M: Matrix, d_M: Matrix) -> Bimodule:
    """Rota-Baxter bimodule data (T_M of weight lambda) to a modified bimodule:
    R_M = lam*Id + 2*T_M.

    Checks the weight-lambda module identities

        l(Pa, T_M m) = T_M(l(Pa, m) + l(a, T_M m) + lam*l(a, m))
        r(T_M m, Pa) = T_M(r(T_M m, a) + r(m, Pa) + lam*r(m, a))

    plus the derivation compatibilities and T_M . d_M = d_M . T_M.
    """
    F = alg.field
    m = T_M.nrows
    fails = residual_failures("rb-module-left", rota_baxter_residual(left, P, T_M, T_M, lam))
    fails += residual_failures("rb-module-right", rota_baxter_residual(right, T_M, P, T_M, lam))
    fails += residual_failures("rb-der-left", derivation_residual(left, d, d_M, d_M))
    fails += residual_failures("rb-der-right", derivation_residual(right, d_M, d, d_M))
    fails += check_commutation(T_M, d_M, "rb-op-der-commute").failures
    rep = _report(fails)
    if not rep.ok:
        raise InvalidStructure("not a Rota-Baxter bimodule: %r" % (rep.first,), rep)
    two = F.add(F.one, F.one)
    R_M = Matrix.scalar(F, m, lam) + T_M.scale(two)
    return Bimodule(m, left, right, R_M, d_M)
