"""Abelian extensions of a pair by a bimodule.

An extension presents a pair E' (the total structure) together with an
inclusion i : M -> E' and a projection p : E' -> A such that

    0 -> M -> E' -> A -> 0

is exact, im(i) squares to zero in E', p is a homomorphism of pairs, and i
intertwines the operators.  The base multiplication, operators, and the
bimodule actions on M are then all recoverable from (E', i, p) alone, and any
section s of p produces a degree-2 pair cochain

    theta(a, b) = i^{-1}( mu'(s a, s b) - s mu(a, b) )
    xi(a)       = i^{-1}( R'(s a) - s(R a) )
    chi(a)      = i^{-1}( d'(s a) - s(d a) )

which is closed in the pair complex.  Changing the section shifts the cochain
by a coboundary, so extensions up to equivalence correspond to classes in H^2.

``build_extension`` inverts the recipe: from a closed degree-2 cochain it
assembles the total structure on A + M.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import (Matrix, MultiTensor, ShapeError, rank_and_kernel,
                     solve_linear, tensor_as_matrix)
from .structures import (Algebra, Bimodule, CheckFailure, CheckReport,
                         InvalidStructure, MRBDerPair, _report, _vsub,
                         unit_vector, verify_pair)
from .cohomology import Cochain, PairSpace, pair_delta, primitive


@dataclass(frozen=True)
class Extension:
    """Total pair with the inclusion of the fiber and projection to the base."""

    total: MRBDerPair
    i: Matrix
    p: Matrix

    def __post_init__(self):
        N = self.total.dim
        if self.i.nrows != N or self.p.ncols != N:
            raise ShapeError("inclusion/projection do not match the total dimension")
        if self.i.ncols + self.p.nrows != N:
            raise ShapeError("fiber and base dimensions must sum to the total")

    @property
    def dim_base(self) -> int:
        return self.p.nrows

    @property
    def dim_fiber(self) -> int:
        return self.i.ncols


def canonical_section(ext: Extension) -> Matrix:
    """The section of p with zero coordinates on the free columns."""
    F, N, n = ext.total.field, ext.total.dim, ext.dim_base
    cols = []
    for k in range(n):
        x = solve_linear(ext.p, unit_vector(F, n, k))
        if x is None:
            raise InvalidStructure("projection is not surjective")
        cols.append(x)
    return Matrix.from_rows(F, [[cols[k][row] for k in range(n)] for row in range(N)])


def fiber_retraction(ext: Extension) -> Matrix:
    """A left inverse L of i (L i = Id on the fiber)."""
    F, m = ext.total.field, ext.dim_fiber
    it = ext.i.transpose()
    rows = []
    for k in range(m):
        x = solve_linear(it, unit_vector(F, m, k))
        if x is None:
            raise InvalidStructure("inclusion is not injective")
        rows.append(x)
    return Matrix.from_rows(F, rows)


def _pull_to_fiber(ext: Extension, L: Matrix, vec) -> tuple:
    """Coordinates of ``vec`` in the fiber; rejects vectors outside im(i)."""
    out = L.apply(vec)
    if ext.i.apply(out) != tuple(vec):
        raise InvalidStructure("vector does not lie in the fiber")
    return out


def derive_base(ext: Extension) -> tuple:
    """Recover (pair, bimodule) on A and M from the total structure alone."""
    F = ext.total.field
    n, m = ext.dim_base, ext.dim_fiber
    s = canonical_section(ext)
    L = fiber_retraction(ext)
    muh, Rh, dh = ext.total.mu, ext.total.R, ext.total.d
    mu = MultiTensor.from_map(
        F, (n, n), n,
        lambda a, b: ext.p.apply(muh.eval([s.apply(unit_vector(F, n, a)),
                                           s.apply(unit_vector(F, n, b))])))
    R = ext.p * Rh * s
    d = ext.p * dh * s
    pair = MRBDerPair(Algebra(F, n, mu), R, d, ext.total.kappa)
    left = MultiTensor.from_map(
        F, (n, m), m,
        lambda a, w: _pull_to_fiber(ext, L, muh.eval([s.apply(unit_vector(F, n, a)),
                                                      ext.i.apply(unit_vector(F, m, w))])))
    right = MultiTensor.from_map(
        F, (m, n), m,
        lambda w, a: _pull_to_fiber(ext, L, muh.eval([ext.i.apply(unit_vector(F, m, w)),
                                                      s.apply(unit_vector(F, n, a))])))
    R_M = L * Rh * ext.i
    d_M = L * dh * ext.i
    return pair, Bimodule(m, left, right, R_M, d_M)


def check_extension(pair: MRBDerPair, bim: Bimodule, ext: Extension) -> CheckReport:
    """Verify the extension axioms against the claimed base pair and bimodule."""
    F = ext.total.field
    n, m, N = ext.dim_base, ext.dim_fiber, ext.total.dim
    if pair.dim != n or bim.dim_m != m:
        raise ShapeError("base/fiber dimensions do not match the extension maps")
    exactness = []
    if not (ext.p * ext.i).is_zero():
        exactness.append(CheckFailure("exact-comp", (), ()))
    rank_i, _ = rank_and_kernel(ext.i)
    if rank_i != m:
        exactness.append(CheckFailure("exact-rank-i", (rank_i,), ()))
    rank_p, _ = rank_and_kernel(ext.p)
    if rank_p != n:
        exactness.append(CheckFailure("exact-rank-p", (rank_p,), ()))
    failures = list(verify_pair(ext.total).failures)
    if exactness:
        # exactness failures make sections/retractions meaningless; stop here
        return _report(failures + exactness)
    muh, Rh, dh = ext.total.mu, ext.total.R, ext.total.d
    if pair.kappa != ext.total.kappa:
        failures.append(CheckFailure("kappa", (), (F.sub(pair.kappa, ext.total.kappa),)))
    icols = [ext.i.apply(unit_vector(F, m, w)) for w in range(m)]
    for w1 in range(m):
        for w2 in range(m):
            v = muh.eval([icols[w1], icols[w2]])
            if any(not F.is_zero(x) for x in v):
                failures.append(CheckFailure("ideal-square", (w1, w2), tuple(v)))
    # the projection is a homomorphism of pairs
    for x in range(N):
        for y in range(N):
            lhs = ext.p.apply(muh.value_at(x, y))
            rhs = pair.mu.eval([ext.p.apply(unit_vector(F, N, x)),
                                ext.p.apply(unit_vector(F, N, y))])
            if lhs != rhs:
                failures.append(CheckFailure("proj-multiplicative", (x, y), _vsub(F, lhs, rhs)))
    if not (ext.p * Rh - pair.R * ext.p).is_zero():
        failures.append(CheckFailure("proj-operator", (), ()))
    if not (ext.p * dh - pair.d * ext.p).is_zero():
        failures.append(CheckFailure("proj-derivation", (), ()))
    # the inclusion intertwines fiber operators
    if not (Rh * ext.i - ext.i * bim.R_M).is_zero():
        failures.append(CheckFailure("incl-operator", (), ()))
    if not (dh * ext.i - ext.i * bim.d_M).is_zero():
        failures.append(CheckFailure("incl-derivation", (), ()))
    # actions induced on the fiber agree with the bimodule
    s = canonical_section(ext)
    scols = [s.apply(unit_vector(F, n, a)) for a in range(n)]
    for a in range(n):
        for w in range(m):
            lhs = muh.eval([scols[a], icols[w]])
            rhs = ext.i.apply(bim.left.value_at(a, w))
            if lhs != rhs:
                failures.append(CheckFailure("action-left", (a, w), _vsub(F, lhs, rhs)))
            lhs = muh.eval([icols[w], scols[a]])
            rhs = ext.i.apply(bim.right.value_at(w, a))
            if lhs != rhs:
                failures.append(CheckFailure("action-right", (w, a), _vsub(F, lhs, rhs)))
    return _report(failures)


def extract_cocycle(pair: MRBDerPair, bim: Bimodule, ext: Extension,
                    section: Matrix | None = None) -> Cochain:
    """The degree-2 cochain measured by a section (canonical if omitted)."""
    F = ext.total.field
    n, m = ext.dim_base, ext.dim_fiber
    s = canonical_section(ext) if section is None else section
    if not (ext.p * s - Matrix.identity(F, n)).is_zero():
        raise InvalidStructure("not a section of the projection")
    L = fiber_retraction(ext)
    muh, Rh, dh = ext.total.mu, ext.total.R, ext.total.d
    scols = [s.apply(unit_vector(F, n, a)) for a in range(n)]
    theta = MultiTensor.from_map(
        F, (n, n), m,
        lambda a, b: _pull_to_fiber(ext, L, _vsub(F, muh.eval([scols[a], scols[b]]),
                                                  s.apply(pair.mu.value_at(a, b)))))
    xi = MultiTensor.from_map(
        F, (n,), m,
        lambda a: _pull_to_fiber(ext, L, _vsub(F, Rh.apply(scols[a]),
                                               s.apply(pair.R.apply(unit_vector(F, n, a))))))
    chi = MultiTensor.from_map(
        F, (n,), m,
        lambda a: _pull_to_fiber(ext, L, _vsub(F, dh.apply(scols[a]),
                                               s.apply(pair.d.apply(unit_vector(F, n, a))))))
    return Cochain(2, (theta, xi, chi))


def build_extension(pair: MRBDerPair, bim: Bimodule, cocycle: Cochain) -> Extension:
    """Assemble the total structure on A + M from a closed degree-2 cochain."""
    if cocycle.degree != 2:
        raise ShapeError("extensions are built from degree-2 cochains")
    if not pair_delta(pair, bim, cocycle).is_zero():
        raise InvalidStructure("cochain is not closed; no extension exists")
    theta, xi, chi = cocycle.parts
    F = pair.field
    n, m = pair.dim, bim.dim_m
    N = n + m
    z_n, z_m = (F.zero,) * n, (F.zero,) * m

    def mu_hat(x, y):
        if x < n and y < n:
            top = pair.mu.value_at(x, y)
            bot = theta.value_at(x, y)
        elif x < n:
            top, bot = z_n, bim.left.value_at(x, y - n)
        elif y < n:
            top, bot = z_n, bim.right.value_at(x - n, y)
        else:
            top, bot = z_n, z_m
        return top + bot

    muh = MultiTensor.from_map(F, (N, N), N, mu_hat)
    xi_m, chi_m = tensor_as_matrix(xi), tensor_as_matrix(chi)
    Rh_rows = [tuple(pair.R.rows[a]) + z_m for a in range(n)]
    Rh_rows += [tuple(xi_m.rows[w]) + tuple(bim.R_M.rows[w]) for w in range(m)]
    dh_rows = [tuple(pair.d.rows[a]) + z_m for a in range(n)]
    dh_rows += [tuple(chi_m.rows[w]) + tuple(bim.d_M.rows[w]) for w in range(m)]
    total = MRBDerPair(Algebra(F, N, muh), Matrix.from_rows(F, Rh_rows),
                       Matrix.from_rows(F, dh_rows), pair.kappa)
    i_rows = [z_m] * n + [unit_vector(F, m, w) for w in range(m)]
    p_rows = [unit_vector(F, n, a) + z_m for a in range(n)]
    return Extension(total, Matrix.from_rows(F, i_rows), Matrix.from_rows(F, p_rows))


def cocycles_cohomologous(pair: MRBDerPair, bim: Bimodule,
                          c1: Cochain, c2: Cochain) -> Matrix | None:
    """A 1-cochain h with D^1 h = c1 - c2, or None if the classes differ."""
    return primitive(pair, bim, c1 - c2)


def equivalence_map(ext1: Extension, ext2: Extension, h: Matrix) -> Matrix:
    """The isomorphism E'_1 -> E'_2 determined by a comparison cochain h."""
    F, N = ext1.total.field, ext1.total.dim
    s1, s2 = canonical_section(ext1), canonical_section(ext2)
    L1 = fiber_retraction(ext1)
    gamma = (s2 + ext2.i * h) * ext1.p + ext2.i * L1 * (Matrix.identity(F, N) - s1 * ext1.p)
    return gamma


def _is_equivalence(pair: MRBDerPair, ext1: Extension, ext2: Extension,
                    gamma: Matrix) -> bool:
    F, N = ext1.total.field, ext1.total.dim
    if not (gamma * ext1.i - ext2.i).is_zero():
        return False
    if not (ext2.p * gamma - ext1.p).is_zero():
        return False
    t1, t2 = ext1.total, ext2.total
    if not (gamma * t1.R - t2.R * gamma).is_zero():
        return False
    if not (gamma * t1.d - t2.d * gamma).is_zero():
        return False
    for x in range(N):
        for y in range(N):
            lhs = gamma.apply(t1.mu.value_at(x, y))
            rhs = t2.mu.eval([gamma.apply(unit_vector(F, N, x)),
                              gamma.apply(unit_vector(F, N, y))])
            if lhs != rhs:
                return False
    return True


def extensions_equivalent(pair: MRBDerPair, bim: Bimodule,
                          ext1: Extension, ext2: Extension) -> Matrix | None:
    """An equivalence of extensions over the identity on A and M, or None."""
    c1 = extract_cocycle(pair, bim, ext1)
    c2 = extract_cocycle(pair, bim, ext2)
    h = cocycles_cohomologous(pair, bim, c1, c2)
    if h is None:
        return None
    gamma = equivalence_map(ext1, ext2, h)
    if not _is_equivalence(pair, ext1, ext2, gamma):
        raise AssertionError("comparison cochain did not induce an equivalence")
    return gamma


@dataclass(frozen=True)
class ExtensionClassification:
    dim_h2: int
    count: int | None          # number of classes; None when infinite
    representatives: tuple     # one closed cochain per listed class
    complete: bool             # True when representatives cover every class


CLASS_ENUMERATION_CAP = 4096


def classify(pair: MRBDerPair, bim: Bimodule) -> ExtensionClassification:
    """Representatives for H^2 classes.

    Over a finite field every class is listed (zero class first).  Over Q the
    listing is the zero class plus one representative per basis class of H^2;
    the count is infinite (None) when H^2 is nonzero.
    """
    from .cohomology import cohomology

    F = pair.field
    space2 = PairSpace(F, pair.dim, bim.dim_m, 2)
    res = cohomology(pair, bim, 2)
    reps = res.representatives
    zero = space2.zero()
    if F.p is None:
        count = 1 if res.dim_h == 0 else None
        return ExtensionClassification(res.dim_h, count, (zero,) + tuple(reps), res.dim_h == 0)
    total = F.p ** res.dim_h
    if total > CLASS_ENUMERATION_CAP:
        raise ValueError("too many classes to enumerate (%d)" % total)
    flats = [space2.flatten(r) for r in reps]
    out = []
    for digits in _tuples(F.p, res.dim_h):
        flat = [F.zero] * space2.dim
        for c, rep in zip(digits, flats):
            if c == 0:
                continue
            for t, x in enumerate(rep):
                flat[t] = F.add(flat[t], F.mul(c, x))
        out.append(space2.unflatten(tuple(flat)))
    return ExtensionClassification(res.dim_h, total, tuple(out), True)


def _tuples(base: int, length: int):
    if length == 0:
        yield ()
        return
    for rest in _tuples(base, length - 1):
        for digit in range(base):
            yield rest + (digit,)
