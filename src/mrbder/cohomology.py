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
  l~(a,m) = l(Ra,m) - R_M l(a,m), r~(m,a) = r(m,Ra) - R_M r(m,a).

* ``operator_map`` (phi): the degree-preserving chain map comparing the two
  Hochschild complexes.  For each nonempty subset S of the n slots let f_S be
  f with R applied in every slot outside S.  Then

      phi(f) = f . R^{(x n)}
               - sum_{|S| odd}  (-kappa)^{(|S|-1)/2} R_M(f_S)
               + sum_{|S| even} (-kappa)^{|S|/2} f_S

  The even-|S| coefficient is the one of twelve candidates making phi a chain
  map and killing phi(mu) on adjoint coefficients (docs/phi_calibration.md).
  With it phi is one tensor power: in Z[u]/(u^2 + kappa), u^{|S|} is
  (-kappa)^{|S|/2} for even |S| and (-kappa)^{(|S|-1)/2} u for odd |S|, so
  with u for a bare slot (R + u)^{(x n)} = A + uB and phi(f) = f.A - R_M.f.B.

* ``derivation_defect`` (Delta): Delta(f) = sum_j f.(Id x..x d x..x Id) - d_M . f,
  the failure of f to commute with the derivation.

* ``operator_delta``: OC^n -> OC^{n+1}, (f, g) |-> (delta f, -modified_delta g - phi f)
* ``pair_delta``: PC^n -> PC^{n+1}, (f, g, h, k) |-> (operator_delta(f, g),
  operator_delta(h, k) + (-1)^n (Delta f, Delta g)).

Each map is implemented once, as an entry list: every term is identities
tensored with one structure map (mu, l, r, R, R_M, d, d_M), so the image of
each basis cochain is written down one entry per nonzero structure constant,
and the OC^n / PC^n differentials are stacked from the C^n blocks with the
signs of the formulas above.  The lists run on plain ints: the maps times
D, the lcm of their denominators and kappa's (1 over F_p), and the induced
maps times D^2, contracted from those, so delta and Delta carry D, delta_R
D^2 and phi at arity a D^a.  They are read in one place, summed into the integer rows of D_n over
the largest power D^E, which enter the field in ``Matrix.from_ints`` alone.
Every map, ``differential_matrix`` and the cochain-level functions alike, is
that matrix, applied to a cochain by ``Matrix.apply``.  Transcriptions of the
formulas, and the build of D_n in the field's arithmetic, are kept in
tests/oracles.py, and the tests hold the maps equal to them.

The complex of a (pair, bimodule) is one object, ``_Complex``: the
structure maps its entry lists are written from, their integer copies and
those of the induced maps, and each matrix D_n it has built, as sparse
rows.  The pair keeps it, keyed by the bimodule object's identity, for as
long as the pair lives, so equal but distinct inputs never share one, and
each D_n is built once per pair and bimodule, whichever of
``differential_matrix``, ``cohomology``, ``primitive`` and the
cochain-level maps asks first.  A build checks the entry budget, the
keyword ``max_entries`` of ``differential_matrix``, ``cohomology``,
``pair_delta`` and ``primitive`` (the default for the other maps), before it
lists anything (see ``_blocks``), as ``check_budget`` checks several builds
and the sum of their counts; a kept matrix is returned unchecked.

``cohomology`` proves H^n = 0 by a rank balance, or reads Z^n, B^n and the
canonical representatives off the eliminations of D_n and of D_{n-1} at the
Z pivots; ``primitive`` solves D^1 h = c for a degree-2 cochain and checks
it.  The Lie-side complex (Chevalley-Eilenberg of the commutator bracket) shares
the entry lists of phi and Delta and the graded stacking, and is kept on
its Lie pair as a pair's complexes are; the skew-symmetrization chain maps
live here too.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

from .fields import Field, Value
from .linalg import (MAX_ENTRIES, EntryCapExceeded, Matrix, MultiTensor, ShapeError,
                     TensorSpace, _contract, _dense, _Integers, _scaled, check_entries, kernel_rref,
                     modular_rank, rank_and_kernel, solve_linear, tensor_as_matrix)
from .structures import Bimodule, InternalError, MRBDerPair, unit_vector
from .constructions import LiePair, induced_action, induced_product


# ---------------------------------------------------------------------------
# graded cochains


def cochain_arities(n: int, k: int) -> tuple:
    """Arities of the parts of OC^n (k = 2) or PC^n (k = 4): the first k of
    (n, n-1, n-1, n-2), parts of arity 0 dropped."""
    return tuple(a for a in (n, n - 1, n - 1, n - 2)[:k] if a > 0)


class Cochain(Value):
    """Element of OC^n = C^n + C^{n-1} or of PC^n = OC^n x OC^{n-1}.

    ``parts`` are Hochschild cochains of arities :func:`cochain_arities`:
    (f, g) in OC^n, and (f, g, h, k) in PC^n with (f, g) in OC^n and (h, k)
    in OC^{n-1}.  So OC^1 = PC^1 = C^1 and PC^2 has the three parts (f, g, h).
    """

    __slots__ = ("degree", "parts")

    def __init__(self, degree: int, parts: tuple):
        if degree < 1:
            raise ShapeError("degree must be >= 1")
        self._init(degree, tuple(parts))
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
# flat spaces


def hom_space(pair_dim: int, bim_dim: int, n: int, field: Field) -> TensorSpace:
    return TensorSpace(field, (pair_dim,) * n, bim_dim)


class CochainSpace(Value):
    """The cochains with parts of the given arities, flattened by
    concatenating the parts' entries in order."""

    # _slices: (space, start, stop) of each part in the flat vector
    __slots__ = ("field", "dim_a", "dim_m", "arities", "_slices")

    def __init__(self, field: Field, dim_a: int, dim_m: int, arities: tuple):
        out, start = [], 0
        for a in arities:
            sp = hom_space(dim_a, dim_m, a, field)
            out.append((sp, start, start + sp.dim))
            start += sp.dim
        self._init(field, dim_a, dim_m, arities, tuple(out))

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
        return (self.unflatten(unit_vector(self.field, self.dim, k)) for k in range(self.dim))


def PairSpace(field: Field, dim_a: int, dim_m: int, degree: int) -> CochainSpace:
    """PC^degree as a flat space."""
    return CochainSpace(field, dim_a, dim_m, cochain_arities(degree, 4))


# ---------------------------------------------------------------------------
# the structure maps as entry lists: one entry per nonzero structure constant
#
# A basis cochain of C^n sends e_{j_1..j_n} to e_s and every other basis
# tuple to 0; it is column J*m + s, where J is (j_1..j_n) read in base
# dim_a, which is also the flat order of MultiTensor.  Each map below lists,
# for every such column, the (row, column, value) entries of its image, as
# plain ints, from the maps of ``_Complex.scaled``.


def _nonzeros(t: MultiTensor) -> list:
    """(index tuple, value) of each nonzero entry of ``t``, codomain index last."""
    is_zero = t.field.is_zero
    return [(idx + (q,), v) for idx, vec in t.nonzero_values()
            for q, v in enumerate(vec) if not is_zero(v)]


def _coboundary_entries(nA: int, m: int, mu: list, left: list, right: list, n: int):
    """The coboundary C^n -> C^{n+1} of :func:`hochschild_delta` over (mu, left,
    right): an l-column, an r-column and, for each slot, mu's preimages of the
    slot's index."""
    first = (-1) ** (n + 1)
    l_terms = [[] for _ in range(m)]          # s -> (row offset, value) of l(e_x, e_s)
    for (x, s, t), c in left:
        l_terms[s].append((x * nA ** n * m + t, first * c))
    r_terms = [[] for _ in range(m)]          # s -> (row offset, value) of r(e_s, e_y)
    for (s, y, t), c in right:
        r_terms[s].append((y * m + t, c))
    # slot p (0-based) replaces j_p by every (x, y) with mu(e_x, e_y)_{j_p} != 0;
    # with mu zero no slot has a term, and none is listed; slots of one place
    # and sign (every slot at nA = 1 has place 1) share one table
    mu_terms, tables = [], {}
    for p in range(n if mu else 0):
        lo, sign = nA ** (n - 1 - p), (-1) ** (p + n)
        if (lo, sign) not in tables:
            tables[lo, sign] = by_q = [[] for _ in range(nA)]
            for (x, y, q), c in mu:
                by_q[q].append(((x * nA + y) * lo * m, sign * c))
        mu_terms.append((lo, tables[lo, sign]))
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


def _coboundary_count(nA: int, m: int, mu: list, left: list, right: list, n: int) -> int:
    """The entries and loop steps of :func:`_coboundary_entries`."""
    return nA ** n * (len(left) + len(right) + n + m * (n + 2)) + m * n * nA ** (n - 1) * len(mu)


def _ce_entries(nA: int, m: int, bracket: list, rho: list, n: int):
    """The Chevalley-Eilenberg coboundary C^n -> C^{n+1} of :func:`ce_delta`
    over (bracket, rho): rho(a_p) applied to f without a_p, for each output
    slot p, and f([a_p, a_q], ..) without a_p, a_q, for each pair p < q."""
    rho_terms = [[] for _ in range(m)]        # s -> (x, t, value) of rho(e_x, e_s)
    for (x, s, t), c in rho:
        rho_terms[s].append((x, t, c))
    br_by_q = [[] for _ in range(nA)]         # q -> (x, y, value) of [e_x, e_y]_q
    for (x, y, q), c in bracket:
        br_by_q[q].append((x, y, c))
    # 0-based slots; the global (-1)^{n+1} is folded into every sign
    places = [nA ** (n - p) for p in range(n + 1)]
    rho_slots = [(lo, (-1) ** (n + 1 + p)) for p, lo in enumerate(places)]
    slot_pairs = [(p, q, (-1) ** (n + 1 + p + q))
                  for p in range(n + 1) for q in range(p + 1, n + 1)]
    for J in range(nA ** n):
        digits = [(J // nA ** (n - 1 - p)) % nA for p in range(n)]
        br_rows = []                          # (row offset, value), the same for every s
        for p, q, sign in slot_pairs:
            for x, y, c in br_by_q[digits[0]]:
                idx = digits[1:]
                idx.insert(p, x)
                idx.insert(q, y)
                br_rows.append((sum(i * lo for i, lo in zip(idx, places)) * m, sign * c))
        for s in range(m):
            col = J * m + s
            for lo, sign in rho_slots:
                head, tail = divmod(J, lo)
                for x, t, c in rho_terms[s]:
                    yield ((head * nA + x) * lo + tail) * m + t, col, sign * c
            for off, v in br_rows:
                yield off + s, col, v


def _ce_count(nA: int, m: int, bracket: list, rho: list, n: int) -> int:
    """A bound on the entries and loop steps of :func:`_ce_entries`: n + 1
    times those of the Hochschild coboundary of (bracket, rho, rho)."""
    return (n + 1) * _coboundary_count(nA, m, bracket, rho, rho, n)


def _operator_map_entries(nA: int, m: int, R: list, R_M: list, kappa: int, n: int):
    """phi on C^n (see :func:`operator_map`) as (R + u)^{(x n)} = A + uB over
    Z[u]/(u^2 + kappa), u a bare slot, whose u^{|S|} = (-kappa)^{|S|/2} for
    even |S| is the calibrated coefficient.  Slot by slot, a part a + bu at K
    goes through R to each K nA + k, and bare to K nA + j as -kappa b + au;
    then a is listed at row K and -b through R_M.  ``kappa`` is kappa times
    D^2 (see :meth:`_Complex.scaled`), so u carries D as R does."""
    r_rows = [list(row.items()) for row in R]
    rm_cols = [list(col.items()) for col in R_M]
    places = [nA ** (n - 1 - p) for p in range(n)]
    for J in range(nA ** n):
        parts = {0: (1, 0)}                   # K -> (a, b), the part a + bu
        for lo in places:
            j = J // lo % nA
            grown = {}
            for K, (a, b) in parts.items():
                K *= nA
                for k, c in r_rows[j]:
                    x, y = grown.get(K + k, (0, 0))
                    grown[K + k] = (x + a * c, y + b * c)
                x, y = grown.get(K + j, (0, 0))
                grown[K + j] = (x - kappa * b, y + a)
            parts = {K: ab for K, ab in grown.items() if ab != (0, 0)}
        for s in range(m):
            col = J * m + s
            for K, (a, b) in parts.items():
                if a:
                    yield K * m + s, col, a
                if b:
                    for t, c in rm_cols[s]:
                        yield K * m + t, col, -b * c


def _operator_map_count(nA: int, m: int, R: list, R_M: list, n: int) -> int:
    """A bound on the entries and loop steps of :func:`_operator_map_entries`:
    with reach = sum_j |{j} + row j of R|, slot p meets at most reach^p
    nA^{n-1-p} parts per digit value j, each |row j of R| + 1 steps, and the
    reach^n parts at the end list m entries and one per entry of R_M."""
    reach = sum(len(row.keys() | {j}) for j, row in enumerate(R))
    grow = n * nA ** (n - 1) if reach == nA else (reach ** n - nA ** n) // (reach - nA)
    return reach ** n * (m + sum(map(len, R_M))) + (nA + sum(map(len, R))) * grow


def _defect_entries(nA: int, m: int, d: list, d_M: list, n: int):
    """Delta on C^n (see :func:`derivation_defect`): d in each slot, minus d_M
    on the output."""
    d_rows = [row.items() for row in d]
    neg_dm = [[(t, -v) for t, v in col.items()] for col in d_M]
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


def _defect_count(nA: int, m: int, d: list, d_M: list, n: int) -> int:
    """The entries and loop steps of :func:`_defect_entries`."""
    return nA ** n * (n + m + sum(map(len, d_M))) + m * n * nA ** (n - 1) * sum(map(len, d))


def _graded_blocks(n: int, layers: int) -> list:
    """The differential of OC^n (layers = 2) or PC^n (layers = 4) as blocks
    (row part, column part, sign is plus, map, arity):

        OC: (f, g)       |-> (delta f, -delta_R g - phi f)
        PC: (f, g, h, k) |-> (D(f, g), D(h, k) + (-1)^n (Delta f, Delta g))

    where every term in an absent (arity-0) part is left out."""
    def op(part, arity):
        # (f, g) at parts (part, part + 1) |-> (delta f, -delta_R g - phi f)
        out = [(part, part, True, "delta", arity), (part + 1, part, False, "phi", arity)]
        if arity > 1:
            out.append((part + 1, part + 1, False, "mdelta", arity - 1))
        return out

    blocks = op(0, n)
    if layers == 4:
        plus = n % 2 == 0                     # (-1)^n = +1
        blocks += [(2 + i, i, plus, "defect", n - i) for i in range(min(n, 2))]
        if n > 1:
            blocks += op(2, n - 1)
    return blocks


class _Complex:
    """One complex: the structure maps its entry lists are written from, their
    integer copies, and the matrices built from them.

    The maps are the coboundary's entry list, its count and its maps (a
    product, then actions on slot 0 and on slot 1), (R, R_M, kappa) for phi
    and (d, d_M) for Delta.  :meth:`scaled` makes them integers, times their
    common denominator D, and :meth:`induced` the induced maps the modified
    coboundary runs on from those, times D^2; both are built on first use
    and kept, as is each matrix.  Two threads that build the same one keep
    equal values, so no lock is needed.
    """

    def __init__(self, field: Field, dim_a: int, dim_m: int, coboundary: Callable, count: Callable,
                 maps: tuple, R: Matrix, R_M: Matrix, kappa, d: Matrix, d_M: Matrix):
        self.field, self.dim_a, self.dim_m = field, dim_a, dim_m
        self.coboundary, self.count, self.maps = coboundary, count, maps
        self.R, self.R_M, self.kappa, self.d, self.d_M = R, R_M, kappa, d, d_M
        self._scaled, self._induced, self._matrices = None, None, {}

    def scaled(self) -> tuple:
        """(D, the coboundary's maps, (R, R_M, kappa, d, d_M), b) as plain
        ints, built once: each map times D, the lcm of the denominators of
        their entries and kappa (1 over F_p: the ints are the residues), and
        kappa times D^2.  Tensors are lists of their nonzeros, R and d sparse
        rows, R_M and d_M sparse columns.  b, the operand size ``_blocks``
        charges, is the bit length of max(D, max |entry| + max(1, |kappa|)) - 1."""
        if self._scaled is None:
            tensors = [_nonzeros(t) for t in self.maps]
            mats = [self.R.sparse_rows, self.R_M.transpose().sparse_rows,
                    self.d.sparse_rows, self.d_M.transpose().sparse_rows]
            D, ints = _scaled([self.kappa] + [v for nz in tensors for _, v in nz]
                              + [v for rows in mats for row in rows for v in row.values()])
            it = iter(ints)     # zip takes from the map first, so each takes its own ints
            kappa = next(it) * D
            b = (max(D, max(map(abs, ints[1:]), default=0) + max(1, abs(kappa))) - 1).bit_length()
            tensors = tuple([(i, v) for (i, _), v in zip(nz, it)] for nz in tensors)
            R, R_M, d, d_M = ([dict(zip(row, it)) for row in rows] for rows in mats)
            self._scaled = D, tensors, (R, R_M, kappa, d, d_M), b
        return self._scaled

    def induced(self) -> tuple:
        """The nonzeros of the induced maps times D^2, as plain ints, built
        once, in the order of :func:`_nonzeros`: the formulas of
        ``constructions.induced_product`` and ``induced_action`` over the
        maps of :meth:`scaled`, each term one ``linalg._contract`` in Z, and
        the sums reduced mod p over F_p."""
        if self._induced is None:
            _, tensors, (R, R_M, *_), _ = self.scaled()
            nA, p, out = self.dim_a, self.field.p, []
            neg_rm = [{t: -c for t, c in col.items()} for col in R_M]
            for k, (t, nz) in enumerate(zip(self.maps, tensors)):
                (d0, d1), cod = t.dims, t.cod
                flat = [0] * (d0 * d1 * cod)
                for (x, y, q), v in nz:
                    flat[(x * d1 + y) * cod + q] = v
                # (pre, post, maps, new dim) of R in slot 0, of R in slot 1 and of -R_M after:
                # the product takes both Rs, an action R in its algebra slot k - 1 and -R_M
                axes = ((1, d1 * cod, R, nA), (d0, cod, R, nA), (d0 * d1, 1, neg_rm, cod))
                terms = [_contract(_Integers, flat, *axes[s]) for s in ((0, 1), (0, 2), (1, 2))[k]]
                sums = map(sum, zip(*terms)) if p is None else (sum(v) % p for v in zip(*terms))
                out.append([((i // (d1 * cod), i // cod % d1, i % cod), v)
                            for i, v in enumerate(sums) if v])
            self._induced = tuple(out)
        return self._induced

    def matrix(self, n: int, which: str, max_entries: int) -> Matrix:
        """The sparse matrix of the map ``which`` at degree n, built on first
        use under the budget ``max_entries`` and then returned as it is kept."""
        m = self._matrices.get((n, which))
        if m is None:
            m = self._matrices[n, which] = _assemble(self, *_blocks(self, n, which, max_entries)[:3])
        return m


def _pair_complex(pair: MRBDerPair, bim: Bimodule) -> _Complex:
    """The complex of (pair, bim), kept on the pair for each bimodule object:
    equal but distinct pairs or bimodules get complexes of their own."""
    store = pair._complexes
    hit = store.get(id(bim))
    if hit is None:
        cx = _Complex(pair.field, pair.dim, bim.dim_m, _coboundary_entries, _coboundary_count,
                      (pair.mu, bim.left, bim.right), pair.R, bim.R_M, pair.kappa, pair.d, bim.d_M)
        # the entry holds bim, so no other object can take its id meanwhile
        hit = store[id(bim)] = (bim, cx)
    return hit[1]


_MATRIX_KINDS = ("hochschild", "modified", "operator_map", "derivation_defect",
                 "operator", "operator_defect", "pair")
# the kinds that act on C^n, and the block map each one is
_CN_MAPS = {"hochschild": "delta", "modified": "mdelta",
            "operator_map": "phi", "derivation_defect": "defect"}


def _blocks(cx: _Complex, n: int, which: str, max_entries: int) -> tuple:
    """The map ``which`` at degree n as (row arities, column arities, blocks,
    steps), each block (row part, column part, sign is plus, map, arity).

    The budget ``max_entries`` is checked on the sizes of C^n and then of
    the first row part (C^{n+1}, or C^n for the maps that keep the degree),
    then on ``steps``, the blocks' counts, bounds on the entries and loop
    steps of their lists, each step charged once per pair of 1024-bit words
    of its operands, held to at least the default: a million steps take
    under a second."""
    if which in _CN_MAPS:
        kind = _CN_MAPS[which]
        cols = (n,)
        rows = (n + 1,) if kind in ("delta", "mdelta") else cols
        layout = [(0, 0, True, kind, n)]
    elif which == "operator_defect":
        rows = cols = cochain_arities(n, 2)
        layout = [(i, i, True, "defect", a) for i, a in enumerate(cols)]
    else:
        layers = 4 if which == "pair" else 2
        cols, rows = cochain_arities(n, layers), cochain_arities(n + 1, layers)
        layout = _graded_blocks(n, layers)
    nA, m, limit = cx.dim_a, cx.dim_m, max(max_entries, MAX_ENTRIES)
    over = EntryCapExceeded("the %s map at degree %d may list more than %d entries and steps"
                            % (which, n, limit))
    # past its bit length, nA^n > 1 columns are alone over the limit
    if n > limit.bit_length() and nA > 1:
        raise over
    for arity in (cols[0], rows[0]):
        check_entries(nA ** arity * m, max_entries)
    _, maps, (R, R_M, _, d, d_M), b = cx.scaled()
    counts = {"delta": lambda a: cx.count(nA, m, *maps, a),
              "mdelta": lambda a: cx.count(nA, m, *cx.induced(), a),
              "phi": lambda a: _operator_map_count(nA, m, R, R_M, a),
              "defect": lambda a: _defect_count(nA, m, d, d_M, a)}
    # a step multiplies an input of at most b bits by an integer of at most max(2, n) b:
    # D^n (D^2 for delta_R) scales a block, and phi's parts grow by |R| + max(1, |kappa|) a slot
    steps = (sum(counts[kind](arity) for *_, kind, arity in layout)
             * (1 + max(2, n) * b // 1024) * (1 + b // 1024))
    if steps > limit:
        raise over
    return rows, cols, layout, steps


def _assemble(cx: _Complex, rows: tuple, cols: tuple, layout: list) -> Matrix:
    """The matrix summed from the blocks of one map (see :func:`_blocks`), as
    integer rows over a scale, entries that sum to zero left out.

    The blocks are listed over the integer maps of :meth:`_Complex.scaled`,
    so the entries of delta and Delta carry D, those of delta_R D^2 and
    those of phi at arity a D^a.  Each block is brought to the largest power
    D^E as it is summed, each power of D taken once, and the sums, over the
    scale D^E, enter the field in ``Matrix.from_ints``."""
    F, nA, m = cx.field, cx.dim_a, cx.dim_m
    D, maps, (R, R_M, kappa, d, d_M), _ = cx.scaled()
    lists = {"delta": lambda a: cx.coboundary(nA, m, *maps, a),
             "mdelta": lambda a: cx.coboundary(nA, m, *cx.induced(), a),
             "phi": lambda a: _operator_map_entries(nA, m, R, R_M, kappa, a),
             "defect": lambda a: _defect_entries(nA, m, d, d_M, a)}
    power = {"delta": 1, "mdelta": 2, "defect": 1}      # phi: its arity
    top = max(power.get(kind, a) for _, _, _, kind, a in layout)
    D_to = {e: D ** e for e in {top, *(top - power.get(kind, a) for *_, kind, a in layout)}}
    row_off, col_off = ([0, *itertools.accumulate(nA ** a * m for a in ar)] for ar in (rows, cols))
    srows = [{} for _ in range(row_off[-1])]
    for i, j, plus, kind, arity in layout:
        ro, co = row_off[i], col_off[j]
        scale = D_to[top - power.get(kind, arity)] * (1 if plus else -1)
        for r, c, v in lists[kind](arity):
            row = srows[ro + r]
            c += co
            v *= scale
            row[c] = row[c] + v if c in row else v
    srows = [{c: v for c, v in row.items() if v} if 0 in row.values() else row for row in srows]
    return Matrix.from_ints(F, srows, D_to[top], col_off[-1])


def _check_cochain_shape(cx: _Complex, f: MultiTensor):
    if f.dims != (cx.dim_a,) * f.arity or f.cod != cx.dim_m:
        raise ShapeError("cochain must map A^%d -> M" % f.arity)
    if f.arity < 1:
        raise ShapeError("cochain degree must be >= 1")


def _apply(cx: _Complex, which: str, f: MultiTensor) -> MultiTensor:
    """A map on C^n applied to one Hochschild cochain, as its kept matrix."""
    _check_cochain_shape(cx, f)
    arity = f.arity + (which in ("hochschild", "modified"))
    return hom_space(cx.dim_a, cx.dim_m, arity, cx.field).unflatten(
        cx.matrix(f.arity, which, MAX_ENTRIES).apply(f.entries))


def _apply_graded(cx: _Complex, layers: int, c: Cochain, max_entries: int = MAX_ENTRIES) -> Cochain:
    """The differential of OC^n (layers = 2) or PC^n (layers = 4) applied to
    one cochain."""
    if c.arities != cochain_arities(c.degree, layers):
        raise ShapeError("expected a cochain in %s^%d"
                         % ("OC" if layers == 2 else "PC", c.degree))
    for p in c.parts:
        _check_cochain_shape(cx, p)
    flat = CochainSpace(cx.field, cx.dim_a, cx.dim_m, c.arities).flatten(c)
    image = cx.matrix(c.degree, "operator" if layers == 2 else "pair", max_entries).apply(flat)
    return CochainSpace(cx.field, cx.dim_a, cx.dim_m,
                        cochain_arities(c.degree + 1, layers)).unflatten(image)


def hochschild_delta(pair: MRBDerPair, bim: Bimodule, f: MultiTensor) -> MultiTensor:
    """Hochschild coboundary C^n -> C^{n+1} with bimodule coefficients."""
    return _apply(_pair_complex(pair, bim), "hochschild", f)


def modified_delta(pair: MRBDerPair, bim: Bimodule, f: MultiTensor) -> MultiTensor:
    """Coboundary C^n -> C^{n+1} over the induced multiplication and actions:

        (d_R f)(a_1..a_{n+1}) =
            (-1)^{n+1} [ l(R a_1, f(..)) - R_M l(a_1, f(..)) ]
            + r(f(..), R a_{n+1}) - R_M r(f(..), a_{n+1})
            + sum_i (-1)^{i+n+1} f(.., mu(R a_i, a_{i+1}) + mu(a_i, R a_{i+1}), ..)
    """
    return _apply(_pair_complex(pair, bim), "modified", f)


def operator_map(pair: MRBDerPair, bim: Bimodule, f: MultiTensor) -> MultiTensor:
    """The chain map phi: C^n -> C^n built from (R, R_M, kappa)."""
    return _apply(_pair_complex(pair, bim), "operator_map", f)


def derivation_defect(pair: MRBDerPair, bim: Bimodule, f: MultiTensor) -> MultiTensor:
    """Delta(f) = sum_j f(.., d(.), ..) - d_M . f."""
    return _apply(_pair_complex(pair, bim), "derivation_defect", f)


def operator_delta(pair: MRBDerPair, bim: Bimodule, c: Cochain) -> Cochain:
    """OC^n -> OC^{n+1}: (f, g) |-> (delta f, -modified_delta g - phi f)."""
    return _apply_graded(_pair_complex(pair, bim), 2, c)


def pair_delta(pair: MRBDerPair, bim: Bimodule, c: Cochain, *,
               max_entries: int = MAX_ENTRIES) -> Cochain:
    """PC^n -> PC^{n+1}, the full differential of the pair complex."""
    return _apply_graded(_pair_complex(pair, bim), 4, c, max_entries)


def differential_matrix(pair: MRBDerPair, bim: Bimodule, n: int, which: str, *,
                        max_entries: int = MAX_ENTRIES) -> Matrix:
    """Flatten one of the structure maps at degree n to a matrix.

    ``which``: hochschild, modified, operator_map, derivation_defect act on
    C^n; operator, operator_defect act on OC^n; pair acts on PC^n.  The
    matrix is assembled from the structure constants, one entry per nonzero
    constant, as sparse rows; it is built once per (pair, bim) objects and
    returned again on later calls.
    """
    if which not in _MATRIX_KINDS:
        raise ValueError("unknown map %r" % (which,))
    if n < 1:
        raise ShapeError("degree must be >= 1")
    return _pair_complex(pair, bim).matrix(n, which, max_entries)


def check_budget(pair: MRBDerPair, bim: Bimodule, degrees, which: str, *,
                 max_entries: int = MAX_ENTRIES) -> None:
    """Raise what :func:`differential_matrix` would for a build at any of
    ``degrees`` over the budget, and EntryCapExceeded when their steps sum
    past it, building nothing: a caller of several builds checks them first."""
    cx, limit, steps = _pair_complex(pair, bim), max(max_entries, MAX_ENTRIES), 0
    for n in degrees:
        steps += _blocks(cx, n, which, max_entries)[3]
        if steps > limit:
            raise EntryCapExceeded("the %s map at degree %d and those below it may list more "
                                   "than %d entries and steps" % (which, n, limit))


# the one dataclass in the package; callers rebuild results with dataclasses.replace
@dataclass(frozen=True)
class CohomologyResult:
    degree: int
    dim_cocycles: int
    dim_coboundaries: int
    dim_h: int
    representatives: tuple  # PC^n cochains spanning a complement of B in Z


def cohomology(pair: MRBDerPair, bim: Bimodule, n: int, *,
               max_entries: int = MAX_ENTRIES) -> CohomologyResult:
    """H^n of the pair complex; B^1 = 0 by convention.

    Representatives are canonical: RREF rows of the cocycle space whose pivots
    are not pivots of the coboundary space.  For n > 1 it first checks that
    D_n D_{n-1} = 0, an :class:`InternalError` otherwise, so that B^n lies in
    Z^n and rank D_n + rank D_{n-1} <= dim PC^n.  The target dim PC^n - r,
    r the kept exact rank of D_{n-1} or over Q its rank modulo one prime
    (0 at n = 1), then bounds rank D_n.  ``linalg.kernel_rref`` eliminates
    D_n with its columns reversed and stops at its first prime if the rank
    there reaches the target: both ranks are then exact and H^n = 0 (Dumas,
    Heckenbach, Saunders & Welker 2003).  A rank above the target
    contradicts the check, an :class:`InternalError`.  Over F_p a rank of
    D_{n-1} that is not kept would cost a whole elimination, about what the
    kernel and the B step cost, paid for nothing when H^n != 0; so there is
    no target, and the kernel path runs.

    Otherwise the same elimination goes on to the RREF basis z_k of Z^n.
    Each z_k has 1 at its pivot, 0 at the other Z pivots and nothing before
    its pivot, so a column of D_{n-1} has its entries at the Z pivots as its
    Z-coordinates, and sum c_k z_k leads at the pivot of the first k with
    c_k != 0: the pivots of B^n are the Z pivots picked out by the RREF of
    those columns, and the kept z_k are its free columns.  One sparse
    elimination (``linalg.rank_and_kernel``) gives dim B^n as its rank, which
    must equal a kept exact rank of D_{n-1} and is kept as one, and each free
    column k as the last nonzero of its kernel vector; when no column meets a
    Z pivot, B^n = 0.  The dense representatives are checked against the
    larger of ``max_entries`` and the default before they are made.
    """
    d_n = differential_matrix(pair, bim, n, "pair", max_entries=max_entries)
    F = pair.field
    space = PairSpace(F, pair.dim, bim.dim_m, n)
    rank_prev = 0
    if n > 1:
        d_prev = differential_matrix(pair, bim, n - 1, "pair", max_entries=max_entries)
        if not d_n.product_is_zero(d_prev):
            raise InternalError("D_%d D_%d is not zero; complex is broken" % (n, n - 1))
        rank_prev = modular_rank(d_prev)
    target = None if rank_prev is None else space.dim - rank_prev
    z = kernel_rref(d_n, target)
    if isinstance(z, int):
        if z > target:
            raise InternalError("rank D_%d is at least %d, above dim PC^%d - rank D_%d = %d"
                                % (n, z, n, n - 1, target))
        if n > 1:
            d_prev._rank = rank_prev        # exact, by the balance
        return CohomologyResult(n, rank_prev, rank_prev, 0, ())
    z_basis, z_pivots = z
    dim_b, kept = 0, z_basis
    if n > 1:
        index = {p: k for k, p in enumerate(z_pivots)}
        scale, cols = d_prev.transpose().int_rows()
        coords = ({index[j]: v for j, v in col.items() if j in index} for col in cols)
        # a column with no entry at a Z pivot is zero, since it lies in Z^n
        coords = [c for c in coords if c]
        if coords:
            dim_b, kernel = rank_and_kernel(Matrix.from_ints(F, coords, scale, len(z_pivots)))
            kept = [z_basis[max(k for k, x in enumerate(v) if x)] for v in kernel]
        if d_prev._rank not in (None, dim_b):
            raise InternalError("dim B^%d is %d, but rank D_%d is %d" % (n, dim_b, n - 1, d_prev._rank))
        d_prev._rank = dim_b
    check_entries(len(kept) * space.dim, max(max_entries, MAX_ENTRIES))
    reps = tuple(map(space.unflatten, _dense(F.zero, space.dim, kept)))
    return CohomologyResult(n, len(z_basis), dim_b, len(kept), reps)


def primitive(pair: MRBDerPair, bim: Bimodule, c: Cochain, *,
              max_entries: int = MAX_ENTRIES) -> Matrix | None:
    """A 1-cochain h: A -> M, as a matrix, with D^1 h = c; None when the
    degree-2 cochain c is not a coboundary.

    h is the RREF particular solution (free variables zero), which is linear
    in c.  It is returned only once D^1 h = c holds, checked as one product
    of D^1 with the flat h.
    """
    if c.degree != 2:
        raise ShapeError("expecting a degree-2 cochain")
    F = pair.field
    d1 = differential_matrix(pair, bim, 1, "pair", max_entries=max_entries)
    flat = PairSpace(F, pair.dim, bim.dim_m, 2).flatten(c)
    sol = solve_linear(d1, flat)
    if sol is None:
        return None
    if d1 * Matrix.from_rows(F, zip(sol)) != Matrix.from_rows(F, zip(flat)):
        raise InternalError("primitive h does not satisfy D^1 h = c")
    return tensor_as_matrix(hom_space(pair.dim, bim.dim_m, 1, F).unflatten(sol))


# ---------------------------------------------------------------------------
# skew-symmetrization and the Lie-side complex


def skew_symmetrize(f: MultiTensor) -> MultiTensor:
    """S_n(f) = sum_{sigma} sgn(sigma) f(a_{sigma(1)},..,a_{sigma(n)}); no 1/n!."""
    n = f.arity
    if len(set(f.dims)) > 1:
        raise ShapeError("slots must share one dimension")
    acc = MultiTensor.zeros(f.field, f.dims, f.cod)
    for perm in itertools.permutations(range(n)):
        t = f.permute_slots(list(perm))
        even = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n)) % 2 == 0
        acc = acc + t if even else acc - t
    return acc


def skew_cochain(c: Cochain) -> Cochain:
    return Cochain(c.degree, tuple(skew_symmetrize(p) for p in c.parts))


def _rho_of(lp: LiePair):
    if lp.rho is not None:
        return lp.rho, lp.R_M, lp.d_M
    # adjoint: rho = bracket acting on the algebra itself
    return lp.bracket, lp.R, lp.d


def induced_lie_pair(lp: LiePair) -> LiePair:
    """Bracket [a,b]_R = [Ra,b] + [a,Rb] with rho~(a) = rho(Ra) - R_M rho(a)."""
    br = induced_product(lp.bracket, lp.R)
    rho, R_M, d_M = _rho_of(lp)
    rho_t = induced_action(rho, 0, lp.R, R_M)
    return LiePair(lp.field, lp.dim, br, lp.R, lp.d, lp.kappa, rho_t, R_M, d_M)


def _lie_complex(lp: LiePair) -> _Complex:
    """The complex of ``lp``, kept on it as :func:`_pair_complex` keeps a
    pair's: equal but distinct Lie pairs get complexes of their own."""
    if not lp._complex:
        rho, R_M, d_M = _rho_of(lp)
        lp._complex.append(_Complex(lp.field, lp.dim, rho.dims[1], _ce_entries, _ce_count,
                                    (lp.bracket, rho), lp.R, R_M, lp.kappa, lp.d, d_M))
    return lp._complex[0]


def ce_delta(lp: LiePair, f: MultiTensor) -> MultiTensor:
    """Chevalley-Eilenberg coboundary with the same global (-1)^{n+1}
    normalization as :func:`hochschild_delta`:

        (d f)(a_1..a_{n+1}) = (-1)^{n+1} * [
            sum_i (-1)^{i+1} rho(a_i) f(.. a_i^ ..)
            + sum_{i<j} (-1)^{i+j} f([a_i,a_j], .. a_i^ .. a_j^ ..) ]
    """
    return _apply(_lie_complex(lp), "hochschild", f)


def lie_operator_map(lp: LiePair, f: MultiTensor) -> MultiTensor:
    return _apply(_lie_complex(lp), "operator_map", f)


def lie_derivation_defect(lp: LiePair, f: MultiTensor) -> MultiTensor:
    return _apply(_lie_complex(lp), "derivation_defect", f)


def lie_pair_delta(lp: LiePair, c: Cochain) -> Cochain:
    """The pair differential with the CE coboundaries of ``lp`` and of its
    induced Lie pair in place of the Hochschild ones."""
    return _apply_graded(_lie_complex(lp), 4, c)
