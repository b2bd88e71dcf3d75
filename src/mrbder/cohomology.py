"""The cochain complex of a pair with bimodule coefficients.

Degree-n cochains come in three layers:

* plain Hochschild cochains  C^n = Hom(A^n, M)
* operator cochains          OC^n = C^n + C^{n-1}   (n >= 2; OC^1 = C^1)
* pair cochains              PC^n = OC^n x OC^{n-1} (n >= 2; PC^1 = C^1)

One graded type, :class:`Cochain`, holds both OC^n and PC^n cochains as the
tuple of their Hochschild parts: arities (n, n-1) in OC^n and
(n, n-1, n-1, n-2) in PC^n, parts of arity 0 dropped.  One space type,
:class:`CochainSpace`, flattens them by concatenating the parts in that
order; ``PairSpace(field, dim_a, dim_m, n)`` is the space of PC^n.

The differentials (all squaring to zero):

* ``hochschild_delta``: the Hochschild coboundary, normalized so that the
  degree-n map carries a global sign (-1)^{n+1} relative to the classical one:

      (d f)(a_1..a_{n+1}) = (-1)^{n+1} l(a_1, f(a_2..a_{n+1}))
                            + r(f(a_1..a_n), a_{n+1})
                            + sum_{i=1..n} (-1)^{i+n+1} f(.., mu(a_i,a_{i+1}), ..)

* ``modified_delta``: the same coboundary taken over the induced
  multiplication mu_R(a,b) = mu(Ra,b)+mu(a,Rb) with the induced actions
  l~(a,m) = l(Ra,m) - R_M l(a,m), r~(m,a) = r(m,Ra) - R_M r(m,a).  Shipped
  twice: a direct transcription and the composition through the induced
  structures; tests assert they agree everywhere.

* ``operator_map`` (phi): the degree-preserving chain map comparing the two
  Hochschild complexes.  For each nonempty subset S of the n slots let f_S be
  f with R applied in every slot outside S.  Then

      phi(f) = f . R^{(x n)}
               - sum_{|S| odd}  (-kappa)^{(|S|-1)/2} R_M(f_S)
               + sum_{|S| even} (-kappa)^{|S|/2} f_S

  The even-|S| coefficient is fixed by the calibration harness in
  tools/calibrate_phi.py (see docs/phi_calibration.md): it is the unique
  convention among the candidate family making phi a chain map and killing
  phi(mu) on adjoint coefficients.

* ``derivation_defect`` (Delta): Delta(f) = sum_j f.(Id x..x d x..x Id) - d_M . f,
  the failure of f to commute with the derivation.

* ``operator_delta``: OC^n -> OC^{n+1}, (f, g) |-> (delta f, -modified_delta g - phi f)
* ``pair_delta``: PC^n -> PC^{n+1}, (f, g, h, k) |-> (operator_delta(f, g),
  operator_delta(h, k) + (-1)^n (Delta f, Delta g)).

``differential_matrix`` flattens each of these maps to a matrix without
evaluating it: every term is identities tensored with one structure map
(mu, l, r, R, R_M, d, d_M), so each basis cochain's image is written down
one entry per nonzero structure constant, and the OC^n / PC^n differentials
are stacked from the C^n blocks with the signs of the formulas above.  The
tests check the result against the cochain-level maps entry for entry.

Cohomology is computed from RREF rank/kernel data with canonical (RREF)
representatives, and ``primitive`` solves D^1 h = c for a degree-2 cochain c.
The Lie-side complex (Chevalley-Eilenberg of the commutator bracket) shares
the generic differential, and the skew-symmetrization chain maps live here
too.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .fields import Field
from .linalg import (Matrix, MultiTensor, ShapeError, TensorSpace, _checked_size,
                     _index_tuples, rank_and_kernel, rref_vectors, solve_linear,
                     tensor_as_matrix)
from .structures import Bimodule, MRBDerPair
from .constructions import LiePair

MAX_MATRIX_DEGREE = 4
MAX_COHOMOLOGY_DEGREE = 3


class DegreeCapExceeded(ValueError):
    """Requested degree beyond the supported range."""


def _sign_is_plus(k: int) -> bool:
    # true when (-1)^k = +1
    return k % 2 == 0


def _vacc(F, acc, vec, plus: bool):
    if plus:
        for t, v in enumerate(vec):
            if not F.is_zero(v):
                acc[t] = F.add(acc[t], v)
    else:
        for t, v in enumerate(vec):
            if not F.is_zero(v):
                acc[t] = F.sub(acc[t], v)


def _act_left(F, left, i, vec):
    """l(e_i, vec) for a codomain vector ``vec``."""
    m = left.cod
    acc = [F.zero] * m
    for s, c in enumerate(vec):
        if F.is_zero(c):
            continue
        w = left.value_at(i, s)
        for t in range(m):
            if not F.is_zero(w[t]):
                acc[t] = F.add(acc[t], F.mul(c, w[t]))
    return acc


def _act_right(F, right, vec, j):
    m = right.cod
    acc = [F.zero] * m
    for s, c in enumerate(vec):
        if F.is_zero(c):
            continue
        w = right.value_at(s, j)
        for t in range(m):
            if not F.is_zero(w[t]):
                acc[t] = F.add(acc[t], F.mul(c, w[t]))
    return acc


def _eval_slot_vec(F, f, rest, pos, vec):
    """f on basis indices ``rest`` with a coordinate vector spliced in at ``pos``."""
    m = f.cod
    acc = [F.zero] * m
    for s, c in enumerate(vec):
        if F.is_zero(c):
            continue
        w = f.value_at(*rest[:pos], s, *rest[pos:])
        for t in range(m):
            if not F.is_zero(w[t]):
                acc[t] = F.add(acc[t], F.mul(c, w[t]))
    return acc


def _check_cochain_shape(pair: MRBDerPair, bim: Bimodule, f: MultiTensor):
    n, m = pair.dim, bim.dim_m
    if f.dims != (n,) * f.arity or f.cod != m:
        raise ShapeError("cochain must map A^%d -> M" % f.arity)
    if f.arity < 1:
        raise ShapeError("cochain degree must be >= 1")


def _hochschild_delta_core(F, nA, mu, left, right, f) -> MultiTensor:
    n = f.arity
    m = f.cod
    if f.is_zero():
        return MultiTensor.zeros(F, (nA,) * (n + 1), m)
    first_plus = _sign_is_plus(n + 1)
    out = []
    for idx in _index_tuples((nA,) * (n + 1)):
        acc = [F.zero] * m
        _vacc(F, acc, _act_left(F, left, idx[0], f.value_at(*idx[1:])), first_plus)
        _vacc(F, acc, _act_right(F, right, f.value_at(*idx[:n]), idx[n]), True)
        for i in range(1, n + 1):
            vec = mu.value_at(idx[i - 1], idx[i])
            rest = idx[:i - 1] + idx[i + 1:]
            term = _eval_slot_vec(F, f, rest, i - 1, vec)
            _vacc(F, acc, term, _sign_is_plus(i + n + 1))
        out.extend(acc)
    return MultiTensor(F, (nA,) * (n + 1), m, tuple(out))


def hochschild_delta(pair: MRBDerPair, bim: Bimodule, f: MultiTensor) -> MultiTensor:
    """Hochschild coboundary C^n -> C^{n+1} with bimodule coefficients."""
    _check_cochain_shape(pair, bim, f)
    return _hochschild_delta_core(pair.field, pair.dim, pair.mu, bim.left, bim.right, f)


def induced_mu(pair: MRBDerPair) -> MultiTensor:
    return pair.mu.precompose_slot(0, pair.R) + pair.mu.precompose_slot(1, pair.R)


def induced_actions(pair: MRBDerPair, bim: Bimodule) -> tuple:
    lt = bim.left.precompose_slot(0, pair.R) - bim.left.postcompose(bim.R_M)
    rt = bim.right.precompose_slot(1, pair.R) - bim.right.postcompose(bim.R_M)
    return lt, rt


def modified_delta(pair: MRBDerPair, bim: Bimodule, f: MultiTensor) -> MultiTensor:
    """Coboundary over the induced multiplication and actions, written out
    directly:

        (d_R f)(a_1..a_{n+1}) =
            (-1)^{n+1} [ l(R a_1, f(..)) - R_M l(a_1, f(..)) ]
            + r(f(..), R a_{n+1}) - R_M r(f(..), a_{n+1})
            + sum_i (-1)^{i+n+1} f(.., mu(R a_i, a_{i+1}) + mu(a_i, R a_{i+1}), ..)
    """
    _check_cochain_shape(pair, bim, f)
    F, nA = pair.field, pair.dim
    n, m = f.arity, f.cod
    if f.is_zero():
        return MultiTensor.zeros(F, (nA,) * (n + 1), m)
    mu_r = induced_mu(pair)
    lR = bim.left.precompose_slot(0, pair.R)
    rR = bim.right.precompose_slot(1, pair.R)
    R_M = bim.R_M
    first_plus = _sign_is_plus(n + 1)
    out = []
    for idx in _index_tuples((nA,) * (n + 1)):
        acc = [F.zero] * m
        fv = f.value_at(*idx[1:])
        _vacc(F, acc, _act_left(F, lR, idx[0], fv), first_plus)
        _vacc(F, acc, R_M.apply(_act_left(F, bim.left, idx[0], fv)), not first_plus)
        fv = f.value_at(*idx[:n])
        _vacc(F, acc, _act_right(F, rR, fv, idx[n]), True)
        _vacc(F, acc, R_M.apply(_act_right(F, bim.right, fv, idx[n])), False)
        for i in range(1, n + 1):
            vec = mu_r.value_at(idx[i - 1], idx[i])
            rest = idx[:i - 1] + idx[i + 1:]
            term = _eval_slot_vec(F, f, rest, i - 1, vec)
            _vacc(F, acc, term, _sign_is_plus(i + n + 1))
        out.extend(acc)
    return MultiTensor(F, (nA,) * (n + 1), m, tuple(out))


def modified_delta_via_induced(pair: MRBDerPair, bim: Bimodule, f: MultiTensor) -> MultiTensor:
    """Same map computed through the induced structures; cross-check twin of
    :func:`modified_delta`."""
    _check_cochain_shape(pair, bim, f)
    lt, rt = induced_actions(pair, bim)
    return _hochschild_delta_core(pair.field, pair.dim, induced_mu(pair), lt, rt, f)


@dataclass(frozen=True)
class OperatorMapConvention:
    """Coefficient convention for the even-|S| terms of ``operator_map``.

    even exponent on (-kappa) is |S|/2 + even_shift; even_sign flips the term;
    even_rm applies R_M to it.  The default is the calibrated winner."""

    even_shift: int = 0
    even_sign: int = 1
    even_rm: bool = False


DEFAULT_CONVENTION = OperatorMapConvention()


def convention_candidates() -> list:
    return [OperatorMapConvention(sh, sg, rm)
            for sh in (1, 0, -1) for sg in (-1, 1) for rm in (True, False)]


def _operator_map_core(F, R: Matrix, R_M: Matrix, kappa, f: MultiTensor,
                       convention: OperatorMapConvention) -> MultiTensor:
    n = f.arity
    if f.is_zero():
        return MultiTensor.zeros(F, f.dims, f.cod)
    full = (1 << n) - 1
    # g[mask] = f with R fed into every slot of mask
    g = [None] * (full + 1)
    g[0] = f
    for mask in range(1, full + 1):
        low = (mask & -mask).bit_length() - 1
        g[mask] = g[mask & (mask - 1)].precompose_slot(low, R)
    neg_kappa = F.neg(kappa)
    acc = g[full]
    for bare in range(1, full + 1):
        r = bare.bit_count()
        t = g[full ^ bare]
        if r % 2 == 1:
            coeff = F.neg(F.pow(neg_kappa, (r - 1) // 2))
            term = t.postcompose(R_M).scale(coeff)
        else:
            e = r // 2 + convention.even_shift
            if e < 0:
                raise ValueError("convention exponent went negative")
            coeff = F.pow(neg_kappa, e)
            if convention.even_sign < 0:
                coeff = F.neg(coeff)
            term = (t.postcompose(R_M) if convention.even_rm else t).scale(coeff)
        acc = acc + term
    return acc


def operator_map(pair: MRBDerPair, bim: Bimodule, f: MultiTensor,
                 convention: OperatorMapConvention = DEFAULT_CONVENTION) -> MultiTensor:
    """The chain map phi: C^n -> C^n built from (R, R_M, kappa)."""
    _check_cochain_shape(pair, bim, f)
    return _operator_map_core(pair.field, pair.R, bim.R_M, pair.kappa, f, convention)


def _derivation_defect_core(F, d: Matrix, d_M: Matrix, f: MultiTensor) -> MultiTensor:
    if f.is_zero():
        return MultiTensor.zeros(F, f.dims, f.cod)
    acc = -(f.postcompose(d_M))
    for j in range(f.arity):
        acc = acc + f.precompose_slot(j, d)
    return acc


def derivation_defect(pair: MRBDerPair, bim: Bimodule, f: MultiTensor) -> MultiTensor:
    """Delta(f) = sum_j f(.., d(.), ..) - d_M . f."""
    _check_cochain_shape(pair, bim, f)
    return _derivation_defect_core(pair.field, pair.d, bim.d_M, f)


# ---------------------------------------------------------------------------
# graded cochains


def cochain_arities(n: int, k: int) -> tuple:
    """Arities of the parts of OC^n (k = 2) or PC^n (k = 4): the first k of
    (n, n-1, n-1, n-2), parts of arity 0 dropped."""
    return tuple(a for a in (n, n - 1, n - 1, n - 2)[:k] if a > 0)


@dataclass(frozen=True)
class Cochain:
    """Element of OC^n = C^n + C^{n-1} or of PC^n = OC^n x OC^{n-1}.

    ``parts`` are Hochschild cochains of arities :func:`cochain_arities`:
    (f, g) in OC^n, and (f, g, h, k) in PC^n with (f, g) in OC^n and (h, k)
    in OC^{n-1}.  So OC^1 = PC^1 = C^1 and PC^2 has the three parts (f, g, h).
    """

    degree: int
    parts: tuple

    def __post_init__(self):
        if self.degree < 1:
            raise ShapeError("degree must be >= 1")
        object.__setattr__(self, "parts", tuple(self.parts))
        if self.arities not in (cochain_arities(self.degree, 2),
                                cochain_arities(self.degree, 4)):
            raise ShapeError("parts of arities %s form neither OC^%d nor PC^%d"
                             % (self.arities, self.degree, self.degree))

    @property
    def arities(self) -> tuple:
        return tuple(p.arity for p in self.parts)

    def _zip(self, other):
        if (self.degree, self.arities) != (other.degree, other.arities):
            raise ShapeError("cochain layouts differ")
        return zip(self.parts, other.parts)

    def __add__(self, other):
        return Cochain(self.degree, tuple(a + b for a, b in self._zip(other)))

    def __sub__(self, other):
        return Cochain(self.degree, tuple(a - b for a, b in self._zip(other)))

    def __neg__(self):
        return Cochain(self.degree, tuple(-p for p in self.parts))

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.parts)


# ---------------------------------------------------------------------------
# assembled differentials


def _graded_delta(delta, mdelta, phi, defect, c: Cochain) -> Cochain:
    """The differential of OC^n built from (delta, delta_R, phi), or of PC^n
    when the derivation defect Delta is given too:

        OC: (f, g)       |-> (delta f, -delta_R g - phi f)
        PC: (f, g, h, k) |-> (D(f, g), D(h, k) + (-1)^n (Delta f, Delta g))

    where every term in an absent (arity-0) part is left out.
    """
    layers = 2 if defect is None else 4
    if c.arities != cochain_arities(c.degree, layers):
        raise ShapeError("expected a cochain in %s^%d"
                         % ("OC" if defect is None else "PC", c.degree))

    def op(f, g):
        return [delta(f), -phi(f) if g is None else -(mdelta(g)) - phi(f)]

    f, g, h, k = c.parts + (None,) * (4 - len(c.parts))
    out = op(f, g)
    if defect is not None:
        shift = [defect(x) for x in (f, g) if x is not None]
        if not _sign_is_plus(c.degree):
            shift = [-x for x in shift]
        out += shift if h is None else [a + b for a, b in zip(op(h, k), shift)]
    return Cochain(c.degree + 1, tuple(out))


def operator_delta(pair: MRBDerPair, bim: Bimodule, c: Cochain,
                   convention: OperatorMapConvention = DEFAULT_CONVENTION) -> Cochain:
    """OC^n -> OC^{n+1}: (f, g) |-> (delta f, -modified_delta g - phi f)."""
    return _graded_delta(
        lambda f: hochschild_delta(pair, bim, f),
        lambda g: modified_delta(pair, bim, g),
        lambda f: operator_map(pair, bim, f, convention),
        None, c)


def pair_delta(pair: MRBDerPair, bim: Bimodule, c: Cochain,
               convention: OperatorMapConvention = DEFAULT_CONVENTION) -> Cochain:
    """PC^n -> PC^{n+1}, the full differential of the pair complex."""
    return _graded_delta(
        lambda f: hochschild_delta(pair, bim, f),
        lambda g: modified_delta(pair, bim, g),
        lambda f: operator_map(pair, bim, f, convention),
        lambda f: derivation_defect(pair, bim, f),
        c)


# ---------------------------------------------------------------------------
# flat spaces and matrices


def hom_space(pair_dim: int, bim_dim: int, n: int, field: Field) -> TensorSpace:
    return TensorSpace(field, (pair_dim,) * n, bim_dim)


@dataclass(frozen=True)
class CochainSpace:
    """The cochains with parts of the given arities, flattened by
    concatenating the parts' entries in order."""

    field: Field
    dim_a: int
    dim_m: int
    arities: tuple

    @cached_property
    def _slices(self) -> tuple:
        """(space, start, stop) of each part in the flat vector."""
        out, start = [], 0
        for a in self.arities:
            sp = hom_space(self.dim_a, self.dim_m, a, self.field)
            out.append((sp, start, start + sp.dim))
            start += sp.dim
        return tuple(out)

    @property
    def dim(self) -> int:
        return self._slices[-1][2]

    def zero(self) -> Cochain:
        return Cochain(self.arities[0], tuple(sp.zero() for sp, _, _ in self._slices))

    def flatten(self, c: Cochain) -> tuple:
        if len(c.parts) != len(self.arities):
            raise ShapeError("cochain of arities %s, space of arities %s"
                             % (c.arities, self.arities))
        return sum((sp.flatten(p) for (sp, _, _), p in zip(self._slices, c.parts)), ())

    def unflatten(self, vec) -> Cochain:
        return Cochain(self.arities[0],
                       tuple(sp.unflatten(vec[a:b]) for sp, a, b in self._slices))

    def basis(self):
        F = self.field
        n = self.dim
        for k in range(n):
            ent = [F.zero] * n
            ent[k] = F.one
            yield self.unflatten(tuple(ent))


def PairSpace(field: Field, dim_a: int, dim_m: int, degree: int) -> CochainSpace:
    """PC^degree as a flat space."""
    return CochainSpace(field, dim_a, dim_m, cochain_arities(degree, 4))


# ---------------------------------------------------------------------------
# sparse assembly of D_n: one entry per nonzero structure constant
#
# A basis cochain of C^n sends e_{j_1..j_n} to e_s and every other basis
# tuple to 0; it is column J*m + s, where J is (j_1..j_n) read in base
# dim_a, which is also the flat order of MultiTensor.  Each map below lists,
# for every such column, the (row, column, value) entries of its image.


def _nonzeros(t: MultiTensor) -> list:
    """(index tuple, value) of each nonzero entry of ``t``, codomain index last."""
    F, cod = t.field, t.cod
    return [(idx + (q,), v) for b, idx in enumerate(_index_tuples(t.dims))
            for q, v in enumerate(t.entries[b * cod:(b + 1) * cod]) if not F.is_zero(v)]


def _signed(F, plus: bool):
    return F.one if plus else F.neg(F.one)


def _coboundary_entries(F, nA: int, m: int, mu: MultiTensor, left: MultiTensor,
                        right: MultiTensor, n: int):
    """The coboundary C^n -> C^{n+1} of :func:`hochschild_delta` over (mu, left,
    right): an l-column, an r-column and, for each slot, mu's preimages of the
    slot's index."""
    mul = F.mul
    first = _signed(F, _sign_is_plus(n + 1))
    l_terms = [[] for _ in range(m)]          # s -> (row offset, value) of l(e_x, e_s)
    for (x, s, t), c in _nonzeros(left):
        l_terms[s].append((x * nA ** n * m + t, mul(first, c)))
    r_terms = [[] for _ in range(m)]          # s -> (row offset, value) of r(e_s, e_y)
    for (s, y, t), c in _nonzeros(right):
        r_terms[s].append((y * m + t, c))
    # slot p (0-based) replaces j_p by every (x, y) with mu(e_x, e_y)_{j_p} != 0
    mu_nonzeros = _nonzeros(mu)
    mu_terms = []
    for p in range(n):
        lo = nA ** (n - 1 - p)
        sign = _signed(F, _sign_is_plus(p + n))
        by_q = [[] for _ in range(nA)]
        for (x, y, q), c in mu_nonzeros:
            by_q[q].append(((x * nA + y) * lo * m, mul(sign, c)))
        mu_terms.append((lo, by_q))
    for J in range(nA ** n):
        slots = []
        for lo, by_q in mu_terms:
            head, rest = divmod(J, lo * nA)
            jp, tail = divmod(rest, lo)
            slots.append(((head * nA * nA * lo + tail) * m, by_q[jp]))
        for s in range(m):
            col = J * m + s
            for off, v in l_terms[s]:
                yield J * m + off, col, v
            for off, v in r_terms[s]:
                yield J * nA * m + off, col, v
            for base, terms in slots:
                for off, v in terms:
                    yield base + off + s, col, v


def _operator_map_entries(F, nA: int, m: int, R: Matrix, R_M: Matrix, kappa, n: int,
                          convention: OperatorMapConvention):
    """phi on C^n (see :func:`operator_map`): for each set of bare slots, R in
    the other slots, then the term's coefficient and R_M on the output."""
    mul, add, one = F.mul, F.add, F.one
    neg_kappa = F.neg(kappa)
    coeffs = [(one, False)]                 # |bare| -> (coefficient, R_M applied)
    for r in range(1, n + 1):
        if r % 2 == 1:
            coeffs.append((F.neg(F.pow(neg_kappa, (r - 1) // 2)), True))
        else:
            e = r // 2 + convention.even_shift
            if e < 0:
                raise ValueError("convention exponent went negative")
            c = F.pow(neg_kappa, e)
            coeffs.append((F.neg(c) if convention.even_sign < 0 else c, convention.even_rm))
    r_rows = [[(k, v) for k, v in enumerate(row) if not F.is_zero(v)] for row in R.rows]
    rm_cols = [[(t, R_M.rows[t][s]) for t in range(m) if not F.is_zero(R_M.rows[t][s])]
               for s in range(m)]
    places = [nA ** (n - 1 - p) for p in range(n)]
    for J in range(nA ** n):
        digits = [(J // lo) % nA for lo in places]
        images = ({}, {})                     # K -> value, without and with R_M
        for bare in range(1 << n):
            coeff, rm = coeffs[bare.bit_count()]
            acc = images[rm]
            opts = [[(j, one)] if bare >> (n - 1 - p) & 1 else r_rows[j]
                    for p, j in enumerate(digits)]
            for combo in itertools.product(*opts):
                K, v = 0, coeff
                for (k, c), lo in zip(combo, places):
                    K += k * lo
                    v = mul(v, c)
                acc[K] = add(acc[K], v) if K in acc else v
        plain, via_rm = images
        for s in range(m):
            col = J * m + s
            for K, v in plain.items():
                yield K * m + s, col, v
            for K, v in via_rm.items():
                for t, c in rm_cols[s]:
                    yield K * m + t, col, mul(v, c)


def _defect_entries(F, nA: int, m: int, d: Matrix, d_M: Matrix, n: int):
    """Delta on C^n (see :func:`derivation_defect`): d in each slot, minus d_M
    on the output."""
    d_rows = [[(k, v) for k, v in enumerate(row) if not F.is_zero(v)] for row in d.rows]
    neg_dm = [[(t, F.neg(d_M.rows[t][s])) for t in range(m) if not F.is_zero(d_M.rows[t][s])]
              for s in range(m)]
    places = [nA ** (n - 1 - p) for p in range(n)]
    for J in range(nA ** n):
        moves = [((J + (k - (J // lo) % nA) * lo) * m, v)
                 for lo in places for k, v in d_rows[(J // lo) % nA]]
        for s in range(m):
            col = J * m + s
            for base, v in moves:
                yield base + s, col, v
            for t, v in neg_dm[s]:
                yield J * m + t, col, v


def _graded_blocks(n: int, layers: int) -> list:
    """The differential of OC^n (layers = 2) or PC^n (layers = 4) as blocks
    (row part, column part, sign is plus, map, arity): the sum of
    :func:`_graded_delta`, term by term."""
    def op(part, arity):
        # (f, g) at parts (part, part + 1) |-> (delta f, -delta_R g - phi f)
        out = [(part, part, True, "delta", arity), (part + 1, part, False, "phi", arity)]
        if arity > 1:
            out.append((part + 1, part + 1, False, "mdelta", arity - 1))
        return out

    blocks = op(0, n)
    if layers == 4:
        plus = _sign_is_plus(n)
        blocks += [(2 + i, i, plus, "defect", n - i) for i in range(min(n, 2))]
        if n > 1:
            blocks += op(2, n - 1)
    return blocks


def _assemble(F, nA: int, m: int, row_arities: tuple, col_arities: tuple, blocks) -> Matrix:
    """The dense matrix of a map between cochain spaces whose parts have the
    given arities, from sparse blocks (row part, column part, sign is plus,
    entries)."""
    def offsets(arities):
        out = [0]
        for a in arities:
            out.append(out[-1] + nA ** a * m)
        return out

    row_off, col_off = offsets(row_arities), offsets(col_arities)
    add, neg = F.add, F.neg
    srows = [{} for _ in range(row_off[-1])]
    for i, j, plus, entries in blocks:
        ro, co = row_off[i], col_off[j]
        for r, c, v in entries:
            row = srows[ro + r]
            c += co
            if not plus:
                v = neg(v)
            row[c] = add(row[c], v) if c in row else v
    zero, ncols = F.zero, col_off[-1]
    out = []
    for srow in srows:
        row = [zero] * ncols
        for c, v in srow.items():
            row[c] = v
        out.append(tuple(row))
    return Matrix(F, tuple(out))


_MATRIX_KINDS = ("hochschild", "modified", "operator_map", "derivation_defect",
                 "operator", "operator_defect", "pair")
# the kinds that act on C^n, and the block map each one is
_CN_MAPS = {"hochschild": "delta", "modified": "mdelta",
            "operator_map": "phi", "derivation_defect": "defect"}


def differential_matrix(pair: MRBDerPair, bim: Bimodule, n: int, which: str,
                        convention: OperatorMapConvention = DEFAULT_CONVENTION) -> Matrix:
    """Flatten one of the structure maps at degree n to a matrix.

    ``which``: hochschild, modified, operator_map, derivation_defect act on
    C^n; operator, operator_defect act on OC^n; pair acts on PC^n.  The
    matrix is assembled from the structure constants, one entry per nonzero
    constant; it equals ``operator_matrix`` of the cochain-level map.
    """
    if which not in _MATRIX_KINDS:
        raise ValueError("unknown map %r" % (which,))
    if not (1 <= n <= MAX_MATRIX_DEGREE):
        raise DegreeCapExceeded("matrices are supported for degrees 1..%d" % MAX_MATRIX_DEGREE)
    F, nA, m = pair.field, pair.dim, bim.dim_m
    if which in _CN_MAPS:
        kind = _CN_MAPS[which]
        cols = (n,)
        rows = (n + 1,) if kind in ("delta", "mdelta") else cols
        blocks = [(0, 0, True, kind, n)]
    elif which == "operator_defect":
        rows = cols = cochain_arities(n, 2)
        blocks = [(i, i, True, "defect", a) for i, a in enumerate(cols)]
    else:
        layers = 4 if which == "pair" else 2
        cols, rows = cochain_arities(n, layers), cochain_arities(n + 1, layers)
        blocks = _graded_blocks(n, layers)
    # the entry cap, in the order the cochain-level maps would meet it: a
    # domain cochain, the induced structures (first for "modified"), a
    # C^{n+1} cochain, the induced structures (otherwise)
    _checked_size((nA,) * n, m)
    induced = None
    if which == "modified":
        induced = (induced_mu(pair),) + induced_actions(pair, bim)
    if rows[0] == n + 1:
        _checked_size((nA,) * (n + 1), m)
    if induced is None and any(block[3] == "mdelta" for block in blocks):
        induced = (induced_mu(pair),) + induced_actions(pair, bim)

    def entries(kind, arity):
        if kind == "delta":
            return _coboundary_entries(F, nA, m, pair.mu, bim.left, bim.right, arity)
        if kind == "mdelta":
            return _coboundary_entries(F, nA, m, *induced, arity)
        if kind == "phi":
            return _operator_map_entries(F, nA, m, pair.R, bim.R_M, pair.kappa, arity, convention)
        return _defect_entries(F, nA, m, pair.d, bim.d_M, arity)

    return _assemble(F, nA, m, rows, cols,
                     [(i, j, plus, entries(kind, arity)) for i, j, plus, kind, arity in blocks])


@dataclass(frozen=True)
class CohomologyResult:
    degree: int
    dim_cocycles: int
    dim_coboundaries: int
    dim_h: int
    representatives: tuple  # PC^n cochains spanning a complement of B in Z


def cohomology(pair: MRBDerPair, bim: Bimodule, n: int,
               convention: OperatorMapConvention = DEFAULT_CONVENTION) -> CohomologyResult:
    """H^n of the pair complex; B^1 = 0 by convention.

    Representatives are canonical: RREF rows of the cocycle space whose pivots
    are not pivots of the coboundary space.
    """
    if not (1 <= n <= MAX_COHOMOLOGY_DEGREE):
        raise DegreeCapExceeded("cohomology is supported for degrees 1..%d" % MAX_COHOMOLOGY_DEGREE)
    F = pair.field
    space = PairSpace(F, pair.dim, bim.dim_m, n)
    d_n = differential_matrix(pair, bim, n, "pair", convention)
    _, kernel = rank_and_kernel(d_n)
    z_basis, z_pivots = rref_vectors(F, kernel)
    if n == 1:
        b_basis, b_pivots = [], []
    else:
        d_prev = differential_matrix(pair, bim, n - 1, "pair", convention)
        b_basis, b_pivots = rref_vectors(F, d_prev.transpose().rows)
    if not set(b_pivots) <= set(z_pivots):
        # would mean the differential does not square to zero
        raise AssertionError("coboundaries escape the cocycles; complex is broken")
    bset = set(b_pivots)
    reps = tuple(space.unflatten(v) for v, p in zip(z_basis, z_pivots) if p not in bset)
    return CohomologyResult(n, len(z_basis), len(b_basis), len(z_basis) - len(b_basis), reps)


def primitive(pair: MRBDerPair, bim: Bimodule, c: Cochain) -> Matrix | None:
    """A 1-cochain h: A -> M, as a matrix, with D^1 h = c; None when the
    degree-2 cochain c is not a coboundary.

    h is the RREF particular solution (free variables zero), which is linear
    in c.
    """
    if c.degree != 2:
        raise ShapeError("expecting a degree-2 cochain")
    F = pair.field
    d1 = differential_matrix(pair, bim, 1, "pair")
    sol = solve_linear(d1, PairSpace(F, pair.dim, bim.dim_m, 2).flatten(c))
    if sol is None:
        return None
    return tensor_as_matrix(hom_space(pair.dim, bim.dim_m, 1, F).unflatten(sol))


# ---------------------------------------------------------------------------
# skew-symmetrization and the Lie-side complex


def _permutations_with_sign(n: int):
    for perm in itertools.permutations(range(n)):
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        yield perm, (inv % 2 == 0)


def skew_symmetrize(f: MultiTensor) -> MultiTensor:
    """S_n(f) = sum_{sigma} sgn(sigma) f(a_{sigma(1)},..,a_{sigma(n)}); no 1/n!."""
    n = f.arity
    if len(set(f.dims)) > 1:
        raise ShapeError("slots must share one dimension")
    acc = MultiTensor.zeros(f.field, f.dims, f.cod)
    for perm, even in _permutations_with_sign(n):
        t = f.permute_slots(list(perm))
        acc = acc + t if even else acc - t
    return acc


def skew_cochain(c: Cochain) -> Cochain:
    return Cochain(c.degree, tuple(skew_symmetrize(p) for p in c.parts))


def _rho_of(lp: LiePair):
    if lp.rho is not None:
        return lp.rho, lp.R_M, lp.d_M
    # adjoint: rho = bracket acting on the algebra itself
    return lp.bracket, lp.R, lp.d


def ce_delta(lp: LiePair, f: MultiTensor) -> MultiTensor:
    """Chevalley-Eilenberg coboundary with the same global (-1)^{n+1}
    normalization as :func:`hochschild_delta`:

        (d f)(a_1..a_{n+1}) = (-1)^{n+1} * [
            sum_i (-1)^{i+1} rho(a_i) f(.. a_i^ ..)
            + sum_{i<j} (-1)^{i+j} f([a_i,a_j], .. a_i^ .. a_j^ ..) ]
    """
    F, nA = lp.field, lp.dim
    rho, _, _ = _rho_of(lp)
    m = rho.dims[1]
    n = f.arity
    if f.dims != (nA,) * n or f.cod != m:
        raise ShapeError("cochain must map A^%d -> M" % n)
    if f.is_zero():
        return MultiTensor.zeros(F, (nA,) * (n + 1), m)
    out = []
    norm_plus = _sign_is_plus(n + 1)
    for idx in _index_tuples((nA,) * (n + 1)):
        acc = [F.zero] * m
        for i in range(1, n + 2):
            rest = idx[:i - 1] + idx[i:]
            fv = f.value_at(*rest)
            term = _act_left(F, rho, idx[i - 1], fv)
            _vacc(F, acc, term, _sign_is_plus(i + 1) == norm_plus)
        for i in range(1, n + 2):
            for j in range(i + 1, n + 2):
                vec = lp.bracket.value_at(idx[i - 1], idx[j - 1])
                rest = idx[:i - 1] + idx[i:j - 1] + idx[j:]
                term = _eval_slot_vec(F, f, rest, 0, vec)
                _vacc(F, acc, term, _sign_is_plus(i + j) == norm_plus)
        out.extend(acc)
    return MultiTensor(F, (nA,) * (n + 1), m, tuple(out))


def induced_lie_pair(lp: LiePair) -> LiePair:
    """Bracket [a,b]_R = [Ra,b] + [a,Rb] with rho~(a) = rho(Ra) - R_M rho(a)."""
    br = lp.bracket.precompose_slot(0, lp.R) + lp.bracket.precompose_slot(1, lp.R)
    rho, R_M, d_M = _rho_of(lp)
    rho_t = rho.precompose_slot(0, lp.R) - rho.postcompose(R_M)
    return LiePair(lp.field, lp.dim, br, lp.R, lp.d, lp.kappa, rho_t, R_M, d_M)


def lie_operator_map(lp: LiePair, f: MultiTensor,
                     convention: OperatorMapConvention = DEFAULT_CONVENTION) -> MultiTensor:
    _, R_M, _ = _rho_of(lp)
    return _operator_map_core(lp.field, lp.R, R_M, lp.kappa, f, convention)


def lie_derivation_defect(lp: LiePair, f: MultiTensor) -> MultiTensor:
    _, _, d_M = _rho_of(lp)
    return _derivation_defect_core(lp.field, lp.d, d_M, f)


def lie_pair_delta(lp: LiePair, c: Cochain,
                   convention: OperatorMapConvention = DEFAULT_CONVENTION) -> Cochain:
    """The pair differential with the CE coboundaries of ``lp`` and of its
    induced Lie pair in place of the Hochschild ones."""
    ind = induced_lie_pair(lp)
    return _graded_delta(
        lambda f: ce_delta(lp, f),
        lambda g: ce_delta(ind, g),
        lambda f: lie_operator_map(lp, f, convention),
        lambda f: lie_derivation_defect(lp, f),
        c)
