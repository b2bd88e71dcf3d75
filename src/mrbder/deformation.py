"""Truncated formal deformations of a pair.

A deformation of order N deforms the three structure maps

    mu_t = mu + t mu_1 + .. + t^N mu_N
    R_t  = R  + t R_1  + .. + t^N R_N
    d_t  = d  + t d_1  + .. + t^N d_N

(the weight kappa stays put) subject to the defining identities holding
modulo t^{N+1}.  Collecting t^n coefficients gives, for each 1 <= n <= N:

    assoc:  sum_{i+j=n}   mu_i(mu_j(a,b), c) - mu_i(a, mu_j(b,c)) = 0
    mrb:    sum_{i+j+k=n} mu_i(R_j a, R_k b)
            = sum_{i+j+k=n} R_i( mu_j(R_k a, b) + mu_j(a, R_k b) ) + kappa mu_n(a,b)
    der:    sum_{i+j=n}   d_i(mu_j(a,b)) - mu_i(d_j a, b) - mu_i(a, d_j b) = 0
    comm:   sum_{i+j=n}   R_i d_j - d_i R_j = 0

The order-1 system is exactly closedness of the infinitesimal
((mu_1, R_1), d_1) under the degree-2 pair differential with adjoint
coefficients; tests assert the equivalence on random samples.

Gauges are truncated formal automorphisms phi_t = Id + t phi_1 + ..; acting by

    mu' = phi_t^{-1} . mu_t . (phi_t x phi_t),  R' = phi_t^{-1} R_t phi_t,
    d' = phi_t^{-1} d_t phi_t

again truncated.  ``trivialize`` peels a deformation order by order: the
lowest surviving coefficient is a 2-cocycle, and it dies under a gauge
Id + t^k psi exactly when it is the coboundary of -psi.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import Field
from .linalg import Matrix, MultiTensor, ShapeError, matrix_as_tensor
from .structures import (CheckFailure, CheckReport, InvalidStructure, MRBDerPair,
                         _report, adjoint_bimodule, unit_vector)
from .cohomology import Cochain, pair_delta, primitive

MAX_DEFORMATION_ORDER = 6


@dataclass(frozen=True)
class Deformation:
    """Order-N truncated deformation; index k of each tuple holds the order
    k+1 coefficient (the order-0 parts live on ``pair``)."""

    pair: MRBDerPair
    order: int
    mu_terms: tuple
    R_terms: tuple
    d_terms: tuple

    def __post_init__(self):
        if not (1 <= self.order <= MAX_DEFORMATION_ORDER):
            raise ShapeError("order must be in 1..%d" % MAX_DEFORMATION_ORDER)
        if not (len(self.mu_terms) == len(self.R_terms) == len(self.d_terms) == self.order):
            raise ShapeError("need exactly %d coefficients per family" % self.order)
        n = self.pair.dim
        for t in self.mu_terms:
            if t.dims != (n, n) or t.cod != n:
                raise ShapeError("mu coefficients must be bilinear maps on A")
        for m in self.R_terms + self.d_terms:
            if m.nrows != n or m.ncols != n:
                raise ShapeError("operator coefficients must be %dx%d" % (n, n))

    def mu_at(self, k: int) -> MultiTensor:
        if k == 0:
            return self.pair.mu
        if k <= self.order:
            return self.mu_terms[k - 1]
        return MultiTensor.zeros(self.pair.field, (self.pair.dim,) * 2, self.pair.dim)

    def R_at(self, k: int) -> Matrix:
        if k == 0:
            return self.pair.R
        if k <= self.order:
            return self.R_terms[k - 1]
        return Matrix.zeros(self.pair.field, self.pair.dim, self.pair.dim)

    def d_at(self, k: int) -> Matrix:
        if k == 0:
            return self.pair.d
        if k <= self.order:
            return self.d_terms[k - 1]
        return Matrix.zeros(self.pair.field, self.pair.dim, self.pair.dim)

    def is_zero(self) -> bool:
        return (all(t.is_zero() for t in self.mu_terms)
                and all(m.is_zero() for m in self.R_terms)
                and all(m.is_zero() for m in self.d_terms))

    def truncate(self, order: int) -> "Deformation":
        if order > self.order:
            raise ShapeError("cannot extend a deformation by truncation")
        return Deformation(self.pair, order, self.mu_terms[:order],
                           self.R_terms[:order], self.d_terms[:order])

    def lowest_nonzero(self) -> int | None:
        for k in range(1, self.order + 1):
            if not (self.mu_at(k).is_zero() and self.R_at(k).is_zero()
                    and self.d_at(k).is_zero()):
                return k
        return None


def zero_deformation(pair: MRBDerPair, order: int) -> Deformation:
    F, n = pair.field, pair.dim
    z2 = MultiTensor.zeros(F, (n, n), n)
    zm = Matrix.zeros(F, n, n)
    return Deformation(pair, order, (z2,) * order, (zm,) * order, (zm,) * order)


def derivation_scaling_deformation(pair: MRBDerPair, order: int) -> Deformation:
    """The family (mu, R, (1+t) d): only d moves, linearly in t."""
    F, n = pair.field, pair.dim
    z2 = MultiTensor.zeros(F, (n, n), n)
    zm = Matrix.zeros(F, n, n)
    d_terms = (pair.d,) + (zm,) * (order - 1)
    return Deformation(pair, order, (z2,) * order, (zm,) * order, d_terms)


def check_deformation(defo: Deformation) -> CheckReport:
    """Verify the four coefficient equations at every order 1..N."""
    pair = defo.pair
    F, n = pair.field, pair.dim
    failures = []
    units = [unit_vector(F, n, i) for i in range(n)]

    for order in range(1, defo.order + 1):
        # assoc
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    acc = [F.zero] * n
                    for i in range(order + 1):
                        j = order - i
                        w = defo.mu_at(j).value_at(a, b)
                        v1 = defo.mu_at(i).eval([w, units[c]])
                        w = defo.mu_at(j).value_at(b, c)
                        v2 = defo.mu_at(i).eval([units[a], w])
                        for t in range(n):
                            acc[t] = F.add(acc[t], F.sub(v1[t], v2[t]))
                    if any(not F.is_zero(x) for x in acc):
                        failures.append(CheckFailure("deform-assoc", (order, a, b, c), tuple(acc)))
        # mrb
        for a in range(n):
            for b in range(n):
                acc = [F.zero] * n
                for i in range(order + 1):
                    for j in range(order + 1 - i):
                        k = order - i - j
                        Ra = defo.R_at(j).apply(units[a])
                        Rb = defo.R_at(k).apply(units[b])
                        lhs = defo.mu_at(i).eval([Ra, Rb])
                        Rka = defo.R_at(k).apply(units[a])
                        Rkb = defo.R_at(k).apply(units[b])
                        inner1 = defo.mu_at(j).eval([Rka, units[b]])
                        inner2 = defo.mu_at(j).eval([units[a], Rkb])
                        rhs = defo.R_at(i).apply(tuple(F.add(x, y) for x, y in zip(inner1, inner2)))
                        for t in range(n):
                            acc[t] = F.add(acc[t], F.sub(lhs[t], rhs[t]))
                kap = defo.mu_at(order).value_at(a, b)
                for t in range(n):
                    acc[t] = F.sub(acc[t], F.mul(pair.kappa, kap[t]))
                if any(not F.is_zero(x) for x in acc):
                    failures.append(CheckFailure("deform-mrb", (order, a, b), tuple(acc)))
        # der
        for a in range(n):
            for b in range(n):
                acc = [F.zero] * n
                for i in range(order + 1):
                    j = order - i
                    v1 = defo.d_at(i).apply(defo.mu_at(j).value_at(a, b))
                    da = defo.d_at(j).apply(units[a])
                    db = defo.d_at(j).apply(units[b])
                    v2 = defo.mu_at(i).eval([da, units[b]])
                    v3 = defo.mu_at(i).eval([units[a], db])
                    for t in range(n):
                        acc[t] = F.add(acc[t], F.sub(v1[t], F.add(v2[t], v3[t])))
                if any(not F.is_zero(x) for x in acc):
                    failures.append(CheckFailure("deform-der", (order, a, b), tuple(acc)))
        # comm
        acc_m = Matrix.zeros(F, n, n)
        for i in range(order + 1):
            j = order - i
            acc_m = acc_m + (defo.R_at(i) * defo.d_at(j) - defo.d_at(i) * defo.R_at(j))
        if not acc_m.is_zero():
            failures.append(CheckFailure("deform-comm", (order,),
                                         tuple(x for row in acc_m.rows for x in row)))
    return _report(failures)


def infinitesimal(defo: Deformation) -> Cochain:
    """The order-1 coefficient as a degree-2 pair cochain ((mu_1, R_1), d_1)."""
    return _coefficient_cochain(defo, 1)


# ---------------------------------------------------------------------------
# gauges


@dataclass(frozen=True)
class Gauge:
    """Truncated formal automorphism Id + t phi_1 + .. + t^N phi_N."""

    field: Field
    dim: int
    terms: tuple  # orders 1..N

    def term_at(self, k: int) -> Matrix:
        if k == 0:
            return Matrix.identity(self.field, self.dim)
        if k <= len(self.terms):
            return self.terms[k - 1]
        return Matrix.zeros(self.field, self.dim, self.dim)

    @property
    def order(self) -> int:
        return len(self.terms)

    def inverse_terms(self, order: int) -> list:
        """psi_0..psi_order with (sum psi_i t^i)(sum phi_j t^j) = Id + O(t^{order+1})."""
        psi = [Matrix.identity(self.field, self.dim)]
        for k in range(1, order + 1):
            acc = Matrix.zeros(self.field, self.dim, self.dim)
            for i in range(1, k + 1):
                acc = acc + self.term_at(i) * psi[k - i]
            psi.append(-acc)
        return psi

    def compose(self, other: "Gauge", order: int) -> "Gauge":
        """(self . other)_t = self_t other_t, truncated."""
        terms = []
        for k in range(1, order + 1):
            acc = Matrix.zeros(self.field, self.dim, self.dim)
            for i in range(k + 1):
                acc = acc + self.term_at(i) * other.term_at(k - i)
            terms.append(acc)
        return Gauge(self.field, self.dim, tuple(terms))


def identity_gauge(pair: MRBDerPair, order: int) -> Gauge:
    return Gauge(pair.field, pair.dim, (Matrix.zeros(pair.field, pair.dim, pair.dim),) * order)


def single_term_gauge(pair: MRBDerPair, k: int, psi: Matrix, order: int) -> Gauge:
    """Id + t^k psi, padded to the requested order."""
    F, n = pair.field, pair.dim
    zm = Matrix.zeros(F, n, n)
    terms = [zm] * order
    if k <= order:
        terms[k - 1] = psi
    return Gauge(F, n, tuple(terms))


def apply_gauge(defo: Deformation, gauge: Gauge) -> Deformation:
    """Transport the deformation along the gauge, truncating at its order."""
    pair = defo.pair
    F, n, N = pair.field, pair.dim, defo.order
    psi = gauge.inverse_terms(N)

    def psi_at(k):
        return psi[k]

    mu_terms, R_terms, d_terms = [], [], []
    for order in range(1, N + 1):
        acc_mu = MultiTensor.zeros(F, (n, n), n)
        for i in range(order + 1):
            for j in range(order + 1 - i):
                for k in range(order + 1 - i - j):
                    l = order - i - j - k
                    t = (defo.mu_at(j).precompose_slot(0, gauge.term_at(k))
                         .precompose_slot(1, gauge.term_at(l)).postcompose(psi_at(i)))
                    acc_mu = acc_mu + t
        mu_terms.append(acc_mu)
        acc_R = Matrix.zeros(F, n, n)
        acc_d = Matrix.zeros(F, n, n)
        for i in range(order + 1):
            for j in range(order + 1 - i):
                k = order - i - j
                acc_R = acc_R + psi_at(i) * defo.R_at(j) * gauge.term_at(k)
                acc_d = acc_d + psi_at(i) * defo.d_at(j) * gauge.term_at(k)
        R_terms.append(acc_R)
        d_terms.append(acc_d)
    return Deformation(pair, N, tuple(mu_terms), tuple(R_terms), tuple(d_terms))


def equivalent_infinitesimals(def1: Deformation, def2: Deformation) -> Matrix | None:
    """A map psi with D^1(psi) = infinitesimal(def1) - infinitesimal(def2).

    None means the two infinitesimals lie in distinct second-cohomology
    classes, so no gauge can match the deformations even at first order.
    """
    p1, p2 = def1.pair, def2.pair
    same_base = (p1.field.name == p2.field.name and p1.dim == p2.dim
                 and p1.mu == p2.mu and p1.R == p2.R and p1.d == p2.d
                 and p1.kappa == p2.kappa)
    if not same_base:
        raise ShapeError("deformations do not share a base pair")
    return primitive(p1, adjoint_bimodule(p1), infinitesimal(def1) - infinitesimal(def2))


def trivialize(defo: Deformation, max_order: int | None = None) -> Gauge | None:
    """Gauge the deformation to zero order by order.

    Returns the composite gauge, or None when some surviving coefficient is a
    cocycle that is not a coboundary (an essential deformation).  Raises
    InvalidStructure if the input fails its own coefficient equations.
    """
    rep = check_deformation(defo)
    if not rep.ok:
        raise InvalidStructure("not a deformation: %s" % (rep.first,), rep)
    pair = defo.pair
    N = defo.order if max_order is None else min(max_order, defo.order)
    bim = adjoint_bimodule(pair)
    total = identity_gauge(pair, defo.order)
    current = defo
    while True:
        k = current.lowest_nonzero()
        if k is None or k > N:
            return total
        c = _coefficient_cochain(current, k)
        # a surviving lowest coefficient is always closed for valid input
        if not pair_delta(pair, bim, c).is_zero():
            raise InvalidStructure("lowest coefficient is not a 2-cocycle")
        psi = primitive(pair, bim, -c)
        if psi is None:
            return None
        step = single_term_gauge(pair, k, psi, defo.order)
        current = apply_gauge(current, step)
        if current.lowest_nonzero() == k:
            raise AssertionError("gauge step failed to clear order %d" % k)
        total = total.compose(step, defo.order)


def _coefficient_cochain(defo: Deformation, k: int) -> Cochain:
    return Cochain(2, (defo.mu_at(k), matrix_as_tensor(defo.R_at(k)),
                       matrix_as_tensor(defo.d_at(k))))
