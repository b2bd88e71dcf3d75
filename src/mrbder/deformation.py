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

from functools import reduce
from itertools import product
from operator import add

from .fields import Field, Value
from .linalg import MAX_ENTRIES, Matrix, MultiTensor, ShapeError, matrix_as_tensor
from .structures import (CheckFailure, CheckReport, InternalError, InvalidStructure, MRBDerPair,
                         _report, adjoint_bimodule, associator_slice, derivation_residual,
                         residual_failures, sliced_failures)
from .constructions import induced_product
from .cohomology import Cochain, pair_delta, primitive

MAX_DEFORMATION_ORDER = 6


def _orders(k: int, n: int) -> list:
    """The k-tuples of orders >= 0 that sum to n, in lexicographic order: the
    terms of the t^n coefficient of a product of k series."""
    return [t + (n - sum(t),) for t in product(range(n + 1), repeat=k - 1) if sum(t) <= n]


def _coefficient(k: int, zeroth, terms: tuple, zero):
    """The t^k coefficient of zeroth + t terms[0] + t^2 terms[1] + ..;
    ``zero()`` past the last term."""
    if k == 0:
        return zeroth
    return terms[k - 1] if k <= len(terms) else zero()


class Deformation(Value):
    """Order-N truncated deformation; index k of each tuple holds the order
    k+1 coefficient (the order-0 parts live on ``pair``)."""

    __slots__ = ("pair", "order", "mu_terms", "R_terms", "d_terms")

    def __init__(self, pair: MRBDerPair, order: int, mu_terms: tuple, R_terms: tuple,
                 d_terms: tuple):
        self._init(pair, order, mu_terms, R_terms, d_terms)
        if not (1 <= order <= MAX_DEFORMATION_ORDER):
            raise ShapeError("order must be in 1..%d" % MAX_DEFORMATION_ORDER)
        if not (len(mu_terms) == len(R_terms) == len(d_terms) == order):
            raise ShapeError("need exactly %d coefficients per family" % order)
        n = pair.dim
        for t in mu_terms:
            if t.dims != (n, n) or t.cod != n:
                raise ShapeError("mu coefficients must be bilinear maps on A")
        for m in R_terms + d_terms:
            if m.nrows != n or m.ncols != n:
                raise ShapeError("operator coefficients must be %dx%d" % (n, n))

    def mu_at(self, k: int) -> MultiTensor:
        F, n = self.pair.field, self.pair.dim
        return _coefficient(k, self.pair.mu, self.mu_terms,
                            lambda: MultiTensor.zeros(F, (n, n), n))

    def R_at(self, k: int) -> Matrix:
        return _coefficient(k, self.pair.R, self.R_terms, self._zero_map)

    def d_at(self, k: int) -> Matrix:
        return _coefficient(k, self.pair.d, self.d_terms, self._zero_map)

    def _zero_map(self) -> Matrix:
        return Matrix.zeros(self.pair.field, self.pair.dim, self.pair.dim)

    def is_zero(self) -> bool:
        return self.lowest_nonzero() is None

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
    zero = zero_deformation(pair, order)
    return Deformation(pair, order, zero.mu_terms, zero.R_terms, (pair.d,) + zero.d_terms[1:])


def check_deformation(defo: Deformation) -> CheckReport:
    """Verify the four coefficient equations at every order 1..N."""
    n, kappa = defo.pair.dim, defo.pair.kappa
    mu, R, d = defo.mu_at, defo.R_at, defo.d_at
    failures = []
    for order in range(1, defo.order + 1):
        pairs, triples = _orders(2, order), _orders(3, order)
        failures += sliced_failures("deform-assoc", n, lambda a: reduce(add, (
            associator_slice(a, mu(j), mu(i), mu(j), mu(i)) for i, j in pairs)), (order,))
        mrb = reduce(add, (
            mu(i).precompose_slot(0, R(j)).precompose_slot(1, R(k))
            - induced_product(mu(j), R(k)).postcompose(R(i))
            for i, j, k in triples))
        failures += residual_failures("deform-mrb", mrb - mu(order).scale(kappa), (order,))
        failures += residual_failures("deform-der", reduce(add, (
            derivation_residual(mu(j), d(i), d(i), d(i)) for i, j in pairs)), (order,))
        comm = reduce(add, (R(i) * d(j) - d(i) * R(j) for i, j in pairs))
        if not comm.is_zero():
            failures.append(CheckFailure("deform-comm", (order,),
                                         tuple(x for row in comm.rows for x in row)))
    return _report(failures)


def infinitesimal(defo: Deformation) -> Cochain:
    """The order-1 coefficient as a degree-2 pair cochain ((mu_1, R_1), d_1)."""
    return _coefficient_cochain(defo, 1)


# ---------------------------------------------------------------------------
# gauges


class Gauge(Value):
    """Truncated formal automorphism Id + t phi_1 + .. + t^N phi_N; ``terms``
    holds orders 1..N."""

    __slots__ = ("field", "dim", "terms")

    def __init__(self, field: Field, dim: int, terms: tuple):
        self._init(field, dim, terms)

    def term_at(self, k: int) -> Matrix:
        F, n = self.field, self.dim
        return _coefficient(k, Matrix.identity(F, n), self.terms, lambda: Matrix.zeros(F, n, n))

    @property
    def order(self) -> int:
        return len(self.terms)

    def inverse_terms(self, order: int) -> list:
        """psi_0..psi_order with (sum psi_i t^i)(sum phi_j t^j) = Id + O(t^{order+1})."""
        psi = [Matrix.identity(self.field, self.dim)]
        for k in range(1, order + 1):
            # the t^k coefficient of phi_t psi_t, less its term phi_0 psi_k = psi_k
            psi.append(-reduce(add, (self.term_at(i) * psi[j] for i, j in _orders(2, k)[1:])))
        return psi

    def compose(self, other: "Gauge", order: int) -> "Gauge":
        """(self . other)_t = self_t other_t, truncated."""
        return Gauge(self.field, self.dim, tuple(
            reduce(add, (self.term_at(i) * other.term_at(j) for i, j in _orders(2, k)))
            for k in range(1, order + 1)))


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
    N = defo.order
    psi = gauge.inverse_terms(N)
    phi = [gauge.term_at(k) for k in range(N + 1)]

    def conjugated(op_at):
        return tuple(reduce(add, (psi[i] * op_at(j) * phi[k] for i, j, k in _orders(3, n)))
                     for n in range(1, N + 1))

    mu_terms = tuple(reduce(add, (
        defo.mu_at(j).precompose_slot(0, phi[k]).precompose_slot(1, phi[l]).postcompose(psi[i])
        for i, j, k, l in _orders(4, n))) for n in range(1, N + 1))
    return Deformation(defo.pair, N, mu_terms, conjugated(defo.R_at), conjugated(defo.d_at))


def equivalent_infinitesimals(def1: Deformation, def2: Deformation) -> Matrix | None:
    """A map psi with D^1(psi) = infinitesimal(def1) - infinitesimal(def2).

    None means the two infinitesimals lie in distinct second-cohomology
    classes, so no gauge can match the deformations even at first order.
    """
    p1 = def1.pair
    if p1 != def2.pair:
        raise ShapeError("deformations do not share a base pair")
    return primitive(p1, adjoint_bimodule(p1), infinitesimal(def1) - infinitesimal(def2))


def check_max_order(max_order: int | None) -> None:
    """Refuse a ``max_order`` of :func:`trivialize` below 1, before any work."""
    if max_order is not None and max_order < 1:
        raise ShapeError("max_order must be at least 1, got %d" % max_order)


def trivialize(defo: Deformation, max_order: int | None = None, *,
               max_entries: int = MAX_ENTRIES) -> Gauge | None:
    """Gauge the deformation to zero order by order.

    Returns the composite gauge, or None when a surviving coefficient is a
    cocycle but not a coboundary (an essential deformation).  Only orders up
    to ``max_order`` (default: all; below 1, a ShapeError) are gauged.  Raises
    InvalidStructure if the input fails its own coefficient equations, and
    InternalError if one that passes them has a lowest coefficient not closed.
    """
    check_max_order(max_order)
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
        # the t^k equations, passed above, are the linearized ones: c is closed
        if not pair_delta(pair, bim, c, max_entries=max_entries).is_zero():
            raise InternalError("lowest coefficient is not a 2-cocycle")
        psi = primitive(pair, bim, -c, max_entries=max_entries)
        if psi is None:
            return None
        step = single_term_gauge(pair, k, psi, defo.order)
        current = apply_gauge(current, step)
        if current.lowest_nonzero() == k:
            raise InternalError("gauge step failed to clear order %d" % k)
        total = total.compose(step, defo.order)


def _coefficient_cochain(defo: Deformation, k: int) -> Cochain:
    return Cochain(2, (defo.mu_at(k), matrix_as_tensor(defo.R_at(k)),
                       matrix_as_tensor(defo.d_at(k))))
