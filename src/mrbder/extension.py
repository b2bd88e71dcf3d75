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
The canonical section and the retraction L of i each come from one row
reduction (``Matrix.right_inverse``), which an extension keeps.

``build_extension`` inverts the recipe: from a closed degree-2 cochain it
assembles the total structure on A + M.
"""

from __future__ import annotations

import itertools

from .fields import CLASS_ENUMERATION_CAP, Value
from .linalg import (MAX_ENTRIES, Matrix, MultiTensor, ShapeError, _contract, check_entries,
                     matrix_as_tensor, rank_and_kernel, tensor_as_matrix)
from .structures import (Algebra, Bimodule, CheckFailure, CheckReport,
                         InternalError, InvalidStructure, MRBDerPair, _report, is_homomorphism,
                         multiplicative_residual, residual_failures, unit_vector, verify_pair)
from .cohomology import Cochain, PairSpace, cohomology, pair_delta, primitive


class Extension(Value):
    """Total pair with the inclusion of the fiber and projection to the base."""

    # _splitting: the right inverses of p (the canonical section) and of i^T
    # (the transposed retraction) once they are found; not part of the
    # extension's value
    __slots__ = ("total", "i", "p", "_splitting")

    def __init__(self, total: MRBDerPair, i: Matrix, p: Matrix):
        self._init(total, i, p, {})
        N = total.dim
        if i.nrows != N or p.ncols != N:
            raise ShapeError("inclusion/projection do not match the total dimension")
        if i.ncols + p.nrows != N:
            raise ShapeError("fiber and base dimensions must sum to the total")

    @property
    def dim_base(self) -> int:
        return self.p.nrows

    @property
    def dim_fiber(self) -> int:
        return self.i.ncols


def _kept_right_inverse(ext: Extension, key: str, m: Matrix, message: str) -> Matrix:
    """``m.right_inverse()``, found once per extension and kept under ``key``;
    raises ``InvalidStructure(message)`` when m is not onto."""
    found = ext._splitting
    if key not in found:
        inv = m.right_inverse()
        if inv is None:
            raise InvalidStructure(message)
        found[key] = inv
    return found[key]


def canonical_section(ext: Extension) -> Matrix:
    """The section of p whose column k is the RREF solution of p x = e_k."""
    return _kept_right_inverse(ext, "s", ext.p, "projection is not surjective")


def fiber_retraction(ext: Extension) -> Matrix:
    """A left inverse L of i (L i = Id on the fiber): the transpose of the
    right inverse of i^T."""
    return _kept_right_inverse(ext, "L^T", ext.i.transpose(), "inclusion is not injective").transpose()


def _to_fiber(ext: Extension, L: Matrix, t: MultiTensor) -> MultiTensor:
    """L t, the values of ``t`` in fiber coordinates; rejects a ``t`` with a
    value outside im(i)."""
    out = t.postcompose(L)
    if out.postcompose(ext.i) != t:
        raise InvalidStructure("vector does not lie in the fiber")
    return out


def derive_base(ext: Extension) -> tuple:
    """Recover (pair, bimodule) on A and M from the total structure alone:
    mu = p mu'(s, s), the actions L mu'(s, i) and L mu'(i, s), the operators
    p R' s and L R' i (d likewise), for the section s and retraction L."""
    s = canonical_section(ext)
    L = fiber_retraction(ext)
    i, p = ext.i, ext.p
    muh, Rh, dh = ext.total.mu, ext.total.R, ext.total.d
    mu_s = muh.precompose_slot(0, s)
    base = Algebra(ext.total.field, ext.dim_base, mu_s.precompose_slot(1, s).postcompose(p))
    pair = MRBDerPair(base, p * Rh * s, p * dh * s, ext.total.kappa)
    left = _to_fiber(ext, L, mu_s.precompose_slot(1, i))
    right = _to_fiber(ext, L, muh.precompose_slot(0, i).precompose_slot(1, s))
    return pair, Bimodule(ext.dim_fiber, left, right, L * Rh * i, L * dh * i)


def check_extension(pair: MRBDerPair, bim: Bimodule, ext: Extension) -> CheckReport:
    """Verify the extension axioms against the claimed base pair and bimodule."""
    F = ext.total.field
    if (pair.dim, bim.dim_m) != (ext.dim_base, ext.dim_fiber):
        raise ShapeError("base/fiber dimensions do not match the extension maps")
    exactness = []
    if not (ext.p * ext.i).is_zero():
        exactness.append(CheckFailure("exact-comp", (), ()))
    # i is injective exactly when it has a retraction, p onto exactly when it
    # has a section; a rank is computed only for a failing witness
    for name, split, m in (("exact-rank-i", fiber_retraction, ext.i),
                           ("exact-rank-p", canonical_section, ext.p)):
        try:
            split(ext)
        except InvalidStructure:
            exactness.append(CheckFailure(name, (rank_and_kernel(m)[0],), ()))
    failures = list(verify_pair(ext.total).failures)
    if exactness:
        # exactness failures make sections/retractions meaningless; stop here
        return _report(failures + exactness)
    muh, Rh, dh = ext.total.mu, ext.total.R, ext.total.d
    if pair.kappa != ext.total.kappa:
        failures.append(CheckFailure("kappa", (), (F.sub(pair.kappa, ext.total.kappa),)))
    failures += residual_failures("ideal-square",
                                  muh.precompose_slot(0, ext.i).precompose_slot(1, ext.i))
    # the projection is a homomorphism of pairs; the inclusion intertwines
    # the fiber operators
    failures += residual_failures("proj-multiplicative",
                                  multiplicative_residual(ext.p, muh, pair.mu))
    failures += [CheckFailure(name, (), ()) for name, residual in (
        ("proj-operator", ext.p * Rh - pair.R * ext.p),
        ("proj-derivation", ext.p * dh - pair.d * ext.p),
        ("incl-operator", Rh * ext.i - ext.i * bim.R_M),
        ("incl-derivation", dh * ext.i - ext.i * bim.d_M)) if not residual.is_zero()]
    # actions induced on the fiber agree with the bimodule
    s = canonical_section(ext)
    left = muh.precompose_slot(0, s).precompose_slot(1, ext.i) - bim.left.postcompose(ext.i)
    right = muh.precompose_slot(0, ext.i).precompose_slot(1, s) - bim.right.postcompose(ext.i)
    actions = residual_failures("action-left", left) + residual_failures("action-right", right)
    # interleaved per (a, w): action-left (a, w) before action-right (w, a)
    failures += sorted(actions, key=lambda f: f.args if f.identity == "action-left" else f.args[::-1])
    return _report(failures)


def extract_cocycle(pair: MRBDerPair, bim: Bimodule, ext: Extension,
                    section: Matrix | None = None) -> Cochain:
    """The degree-2 cochain measured by a section (canonical if omitted):
    theta = L(mu'(s, s) - s mu), xi = L(R' s - s R), chi = L(d' s - s d)."""
    total = ext.total
    s = canonical_section(ext) if section is None else section
    if not (ext.p * s - Matrix.identity(total.field, ext.dim_base)).is_zero():
        raise InvalidStructure("not a section of the projection")
    L = fiber_retraction(ext)
    theta = total.mu.precompose_slot(0, s).precompose_slot(1, s) - pair.mu.postcompose(s)
    return Cochain(2, (_to_fiber(ext, L, theta),
                       _to_fiber(ext, L, matrix_as_tensor(total.R * s - s * pair.R)),
                       _to_fiber(ext, L, matrix_as_tensor(total.d * s - s * pair.d))))


def build_extension(pair: MRBDerPair, bim: Bimodule, cocycle: Cochain, *,
                    max_entries: int = MAX_ENTRIES) -> Extension:
    """Assemble the total structure on A + M from a closed degree-2 cochain."""
    if cocycle.degree != 2:
        raise ShapeError("extensions are built from degree-2 cochains")
    if not pair_delta(pair, bim, cocycle, max_entries=max_entries).is_zero():
        raise InvalidStructure("cochain is not closed; no extension exists")
    theta, xi, chi = cocycle.parts
    F = pair.field
    n, m = pair.dim, bim.dim_m
    check_entries((n + m) ** 3, max_entries)        # the product of the total
    z_m = (F.zero,) * m
    muh = MultiTensor.from_blocks(F, (n, m), {(0, 0, 0): pair.mu, (0, 0, 1): theta,
                                              (0, 1, 1): bim.left, (1, 0, 1): bim.right})

    def operator(base: Matrix, part: MultiTensor, fiber: Matrix) -> Matrix:
        # the operator on A + M: base on A, fiber on M, and part from A to M
        low = tensor_as_matrix(part)
        return Matrix.from_rows(F, [tuple(r) + z_m for r in base.rows]
                                + [tuple(x) + tuple(y) for x, y in zip(low.rows, fiber.rows)])

    total = MRBDerPair(Algebra(F, n + m, muh), operator(pair.R, xi, bim.R_M),
                       operator(pair.d, chi, bim.d_M), pair.kappa)
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
    return (s2 + ext2.i * h) * ext1.p + ext2.i * L1 * (Matrix.identity(F, N) - s1 * ext1.p)


def _is_equivalence(ext1: Extension, ext2: Extension, gamma: Matrix) -> bool:
    return (is_homomorphism(gamma, ext1.total, ext2.total).ok
            and (gamma * ext1.i - ext2.i).is_zero() and (ext2.p * gamma - ext1.p).is_zero())


def extensions_equivalent(pair: MRBDerPair, bim: Bimodule,
                          ext1: Extension, ext2: Extension) -> Matrix | None:
    """An equivalence of extensions over the identity on A and M, or None;
    totals of different weights are refused."""
    if ext1.total.kappa != ext2.total.kappa:
        raise InvalidStructure("the totals have different weights")
    c1 = extract_cocycle(pair, bim, ext1)
    c2 = extract_cocycle(pair, bim, ext2)
    h = cocycles_cohomologous(pair, bim, c1, c2)
    if h is None:
        return None
    gamma = equivalence_map(ext1, ext2, h)
    if not _is_equivalence(ext1, ext2, gamma):
        raise InternalError("comparison cochain did not induce an equivalence")
    return gamma


class ExtensionClassification(Value):
    """``count`` classes (None when infinite), one closed cochain per listed
    class in ``representatives``; ``complete`` when they cover every class."""

    __slots__ = ("dim_h2", "count", "representatives", "complete")

    def __init__(self, dim_h2: int, count: int | None, representatives: tuple, complete: bool):
        self._init(dim_h2, count, representatives, complete)


def classify(pair: MRBDerPair, bim: Bimodule, *,
             max_entries: int = MAX_ENTRIES) -> ExtensionClassification:
    """Representatives for H^2 classes.

    Over a finite field every class is listed (zero class first).  Over Q the
    listing is the zero class plus one representative per basis class of H^2;
    the count is infinite (None) when H^2 is nonzero.
    """
    F = pair.field
    space2 = PairSpace(F, pair.dim, bim.dim_m, 2)
    res = cohomology(pair, bim, 2, max_entries=max_entries)
    reps = res.representatives
    zero = space2.zero()
    if F.p is None:
        count = 1 if res.dim_h == 0 else None
        return ExtensionClassification(res.dim_h, count, (zero,) + tuple(reps), res.dim_h == 0)
    total = F.p ** res.dim_h
    if total > CLASS_ENUMERATION_CAP:
        raise ValueError("too many classes to enumerate (%d)" % total)
    # the class of digits c is sum_k c_k reps[k]: the stacked representatives
    # with their index taken through c
    stacked = [x for r in reps for x in space2.flatten(r)]
    out = [space2.unflatten(tuple(_contract(F, stacked, 1, space2.dim,
                                            [{0: c} if c else {} for c in digits], 1)))
           for digits in itertools.product(range(F.p), repeat=res.dim_h)]
    return ExtensionClassification(res.dim_h, total, tuple(out), True)
