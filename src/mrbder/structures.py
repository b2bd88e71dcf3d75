"""Core objects and axiom checks.

An :class:`Algebra` is a finite-dimensional associative algebra given by its
multiplication tensor.  An :class:`MRBDerPair` equips it with a modified
Rota-Baxter operator R of weight kappa and a derivation d commuting with R:

    mu(Ra, Rb) = R(mu(Ra, b) + mu(a, Rb)) + kappa * mu(a, b)
    d(mu(a, b)) = mu(da, b) + mu(a, db)
    R . d = d . R

A :class:`Bimodule` over a pair carries left/right actions plus operators
(R_M, d_M) satisfying the compatible module-level identities.  All checks run
exhaustively over basis tuples and report residual witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import Field
from .linalg import Matrix, MultiTensor, ShapeError


class InvalidStructure(ValueError):
    """A construction precondition failed; carries the offending report."""

    def __init__(self, msg, report=None):
        super().__init__(msg)
        self.report = report


@dataclass(frozen=True)
class CheckFailure:
    identity: str
    args: tuple
    residual: tuple


@dataclass(frozen=True)
class CheckReport:
    ok: bool
    failures: tuple

    @property
    def first(self):
        return self.failures[0] if self.failures else None

    @staticmethod
    def combine(reports) -> "CheckReport":
        fails = tuple(f for r in reports for f in r.failures)
        return CheckReport(not fails, fails)


def _report(failures) -> CheckReport:
    failures = tuple(failures)
    return CheckReport(not failures, failures)


def unit_vector(field: Field, n: int, i: int) -> tuple:
    v = [field.zero] * n
    v[i] = field.one
    return tuple(v)


def _vadd(F, a, b):
    return tuple(F.add(x, y) for x, y in zip(a, b))


def _vsub(F, a, b):
    return tuple(F.sub(x, y) for x, y in zip(a, b))


def _vscale(F, c, a):
    return tuple(F.mul(c, x) for x in a)


def _is_zero_vec(F, a):
    return all(F.is_zero(x) for x in a)


@dataclass(frozen=True)
class Algebra:
    """Associative algebra by structure constants: mu has shape (n, n) -> n."""

    field: Field
    dim: int
    mu: MultiTensor

    def __post_init__(self):
        if self.mu.dims != (self.dim, self.dim) or self.mu.cod != self.dim:
            raise ShapeError("mu must map A x A -> A")

    @staticmethod
    def from_table(field: Field, dim: int, table: dict) -> "Algebra":
        """Build from {(i, j): coordinate vector of mu(e_i, e_j)}; missing pairs are zero."""
        def fn(i, j):
            v = table.get((i, j))
            return tuple(v) if v is not None else (field.zero,) * dim
        return Algebra(field, dim, MultiTensor.from_map(field, (dim, dim), dim, fn))

    def product(self, u, v) -> tuple:
        return self.mu.eval([u, v])


@dataclass(frozen=True)
class MRBDerPair:
    """Modified Rota-Baxter pair: algebra + (R, d, kappa).  Not validated on
    construction; run :func:`verify_pair`."""

    algebra: Algebra
    R: Matrix
    d: Matrix
    kappa: object

    def __post_init__(self):
        n = self.algebra.dim
        for m in (self.R, self.d):
            if (m.nrows, m.ncols) != (n, n):
                raise ShapeError("operator must be %dx%d" % (n, n))

    @property
    def field(self) -> Field:
        return self.algebra.field

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @property
    def mu(self) -> MultiTensor:
        return self.algebra.mu


@dataclass(frozen=True)
class Bimodule:
    """Bimodule data over a pair: actions left: A x M -> M, right: M x A -> M,
    plus compatible operators R_M, d_M on M."""

    dim_m: int
    left: MultiTensor
    right: MultiTensor
    R_M: Matrix
    d_M: Matrix

    def __post_init__(self):
        m = self.dim_m
        if self.left.cod != m or self.right.cod != m:
            raise ShapeError("actions must land in M")
        if self.left.dims[1] != m or self.right.dims[0] != m:
            raise ShapeError("action module slots must have dim %d" % m)
        if self.left.dims[0] != self.right.dims[1]:
            raise ShapeError("action algebra slots disagree")
        for mat in (self.R_M, self.d_M):
            if (mat.nrows, mat.ncols) != (m, m):
                raise ShapeError("module operator must be %dx%d" % (m, m))

    @property
    def dim_a(self) -> int:
        return self.left.dims[0]


def check_associativity(alg: Algebra) -> CheckReport:
    """mu(mu(a,b),c) = mu(a,mu(b,c)) on all basis triples."""
    F, n, mu = alg.field, alg.dim, alg.mu
    fails = []
    for i in range(n):
        for j in range(n):
            mij = mu.value_at(i, j)
            for k in range(n):
                lhs = mu.eval([mij, unit_vector(F, n, k)])
                rhs = mu.eval([unit_vector(F, n, i), mu.value_at(j, k)])
                res = _vsub(F, lhs, rhs)
                if not _is_zero_vec(F, res):
                    fails.append(CheckFailure("assoc", (i, j, k), res))
    return _report(fails)


def check_modified_rb(alg: Algebra, R: Matrix, kappa) -> CheckReport:
    """mu(Ra,Rb) = R(mu(Ra,b) + mu(a,Rb)) + kappa*mu(a,b) on basis pairs."""
    F, n, mu = alg.field, alg.dim, alg.mu
    fails = []
    Rcols = [R.apply(unit_vector(F, n, i)) for i in range(n)]
    for i in range(n):
        for j in range(n):
            ei, ej = unit_vector(F, n, i), unit_vector(F, n, j)
            lhs = mu.eval([Rcols[i], Rcols[j]])
            inner = _vadd(F, mu.eval([Rcols[i], ej]), mu.eval([ei, Rcols[j]]))
            rhs = _vadd(F, R.apply(inner), _vscale(F, kappa, mu.value_at(i, j)))
            res = _vsub(F, lhs, rhs)
            if not _is_zero_vec(F, res):
                fails.append(CheckFailure("mrb", (i, j), res))
    return _report(fails)


def check_derivation(alg: Algebra, d: Matrix) -> CheckReport:
    """d(mu(a,b)) = mu(da,b) + mu(a,db) on basis pairs."""
    F, n, mu = alg.field, alg.dim, alg.mu
    fails = []
    dcols = [d.apply(unit_vector(F, n, i)) for i in range(n)]
    for i in range(n):
        for j in range(n):
            lhs = d.apply(mu.value_at(i, j))
            rhs = _vadd(F, mu.eval([dcols[i], unit_vector(F, n, j)]),
                        mu.eval([unit_vector(F, n, i), dcols[j]]))
            res = _vsub(F, lhs, rhs)
            if not _is_zero_vec(F, res):
                fails.append(CheckFailure("derivation", (i, j), res))
    return _report(fails)


def check_commutation(R: Matrix, d: Matrix, name: str = "commute") -> CheckReport:
    """R.d = d.R, witnessed column by column."""
    F = R.field
    diff = R * d - d * R
    fails = []
    for j in range(diff.ncols):
        col = tuple(diff.rows[i][j] for i in range(diff.nrows))
        if not _is_zero_vec(F, col):
            fails.append(CheckFailure(name, (j,), col))
    return _report(fails)


def verify_pair(pair: MRBDerPair) -> CheckReport:
    """All four pair axioms; failures keep the sub-check order."""
    return CheckReport.combine([
        check_associativity(pair.algebra),
        check_modified_rb(pair.algebra, pair.R, pair.kappa),
        check_derivation(pair.algebra, pair.d),
        check_commutation(pair.R, pair.d),
    ])


def check_bimodule(pair: MRBDerPair, bim: Bimodule) -> CheckReport:
    """The eight bimodule identities over the pair.

    Three plain module axioms, the two operator compatibilities

        l(Ra, R_M m) = R_M(l(Ra, m) + l(a, R_M m)) + kappa*l(a, m)
        r(R_M m, Ra) = R_M(r(R_M m, a) + r(m, Ra)) + kappa*r(m, a)

    the two derivation compatibilities, and R_M . d_M = d_M . R_M.
    """
    F = pair.field
    n, m = pair.dim, bim.dim_m
    if bim.dim_a != n:
        raise ShapeError("bimodule algebra slot dim %d, pair dim %d" % (bim.dim_a, n))
    mu, left, right = pair.mu, bim.left, bim.right
    R, d, kappa = pair.R, pair.d, pair.kappa
    R_M, d_M = bim.R_M, bim.d_M
    ea = [unit_vector(F, n, i) for i in range(n)]
    em = [unit_vector(F, m, u) for u in range(m)]
    Rcols = [R.apply(v) for v in ea]
    dcols = [d.apply(v) for v in ea]
    RMcols = [R_M.apply(v) for v in em]
    dMcols = [d_M.apply(v) for v in em]
    fails = []

    for i in range(n):
        for j in range(n):
            mij = mu.value_at(i, j)
            for u in range(m):
                res = _vsub(F, left.eval([mij, em[u]]),
                            left.eval([ea[i], left.value_at(j, u)]))
                if not _is_zero_vec(F, res):
                    fails.append(CheckFailure("module-left", (i, j, u), res))
    for i in range(n):
        for u in range(m):
            for j in range(n):
                res = _vsub(F, right.eval([left.value_at(i, u), ea[j]]),
                            left.eval([ea[i], right.value_at(u, j)]))
                if not _is_zero_vec(F, res):
                    fails.append(CheckFailure("module-mixed", (i, u, j), res))
    for u in range(m):
        for i in range(n):
            mui = right.value_at(u, i)
            for j in range(n):
                res = _vsub(F, right.eval([em[u], mu.value_at(i, j)]),
                            right.eval([mui, ea[j]]))
                if not _is_zero_vec(F, res):
                    fails.append(CheckFailure("module-right", (u, i, j), res))

    for i in range(n):
        for u in range(m):
            lhs = left.eval([Rcols[i], RMcols[u]])
            inner = _vadd(F, left.eval([Rcols[i], em[u]]), left.eval([ea[i], RMcols[u]]))
            rhs = _vadd(F, R_M.apply(inner), _vscale(F, kappa, left.value_at(i, u)))
            res = _vsub(F, lhs, rhs)
            if not _is_zero_vec(F, res):
                fails.append(CheckFailure("op-left", (i, u), res))
    for u in range(m):
        for i in range(n):
            lhs = right.eval([RMcols[u], Rcols[i]])
            inner = _vadd(F, right.eval([RMcols[u], ea[i]]), right.eval([em[u], Rcols[i]]))
            rhs = _vadd(F, R_M.apply(inner), _vscale(F, kappa, right.value_at(u, i)))
            res = _vsub(F, lhs, rhs)
            if not _is_zero_vec(F, res):
                fails.append(CheckFailure("op-right", (u, i), res))

    for i in range(n):
        for u in range(m):
            lhs = d_M.apply(left.value_at(i, u))
            rhs = _vadd(F, left.eval([dcols[i], em[u]]), left.eval([ea[i], dMcols[u]]))
            res = _vsub(F, lhs, rhs)
            if not _is_zero_vec(F, res):
                fails.append(CheckFailure("der-left", (i, u), res))
    for u in range(m):
        for i in range(n):
            lhs = d_M.apply(right.value_at(u, i))
            rhs = _vadd(F, right.eval([dMcols[u], ea[i]]), right.eval([em[u], dcols[i]]))
            res = _vsub(F, lhs, rhs)
            if not _is_zero_vec(F, res):
                fails.append(CheckFailure("der-right", (u, i), res))

    fails.extend(check_commutation(R_M, d_M, "op-der-commute").failures)
    return _report(fails)


def adjoint_bimodule(pair: MRBDerPair) -> Bimodule:
    """M = A with both actions mu, R_M = R, d_M = d."""
    return Bimodule(pair.dim, pair.mu, pair.mu, pair.R, pair.d)


def is_homomorphism(f: Matrix, src: MRBDerPair, dst: MRBDerPair) -> CheckReport:
    """f multiplicative and intertwining R and d; weights must agree."""
    F = src.field
    if (f.nrows, f.ncols) != (dst.dim, src.dim):
        raise ShapeError("homomorphism must be %dx%d" % (dst.dim, src.dim))
    fails = []
    if src.kappa != dst.kappa:
        fails.append(CheckFailure("kappa", (), (F.sub(src.kappa, dst.kappa),)))
    n = src.dim
    fcols = [f.apply(unit_vector(F, n, i)) for i in range(n)]
    for i in range(n):
        for j in range(n):
            res = _vsub(F, f.apply(src.mu.value_at(i, j)), dst.mu.eval([fcols[i], fcols[j]]))
            if not _is_zero_vec(F, res):
                fails.append(CheckFailure("multiplicative", (i, j), res))
    for name, a, b in (("operator-intertwine", f * src.R, dst.R * f),
                       ("derivation-intertwine", f * src.d, dst.d * f)):
        diff = a - b
        for j in range(diff.ncols):
            col = tuple(diff.rows[i][j] for i in range(diff.nrows))
            if not _is_zero_vec(F, col):
                fails.append(CheckFailure(name, (j,), col))
    return _report(fails)


# ---------------------------------------------------------------------------
# fixtures


def zero_pair(field: Field, dim: int = 1) -> MRBDerPair:
    """Zero algebra of the given dimension with R = d = 0, kappa = 0."""
    alg = Algebra(field, dim, MultiTensor.zeros(field, (dim, dim), dim))
    z = Matrix.zeros(field, dim, dim)
    return MRBDerPair(alg, z, z, field.zero)


def scalar_pair(alg: Algebra, lam) -> MRBDerPair:
    """R = lam*Id, d = 0, kappa = -lam**2 on any associative algebra."""
    F = alg.field
    return MRBDerPair(alg, Matrix.scalar(F, alg.dim, lam),
                      Matrix.zeros(F, alg.dim, alg.dim), F.neg(F.mul(lam, lam)))


def dual_algebra(field: Field) -> Algebra:
    """Dual numbers k[x]/(x^2) in the basis (1, x)."""
    table = {(0, 0): unit_vector(field, 2, 0),
             (0, 1): unit_vector(field, 2, 1),
             (1, 0): unit_vector(field, 2, 1)}
    return Algebra.from_table(field, 2, table)


def dual_pair(field: Field) -> MRBDerPair:
    """Dual numbers with R = diag(1,-1), d = diag(0,1), kappa = -1."""
    F = field
    alg = dual_algebra(F)
    R = Matrix.from_rows(F, [[F.one, F.zero], [F.zero, F.neg(F.one)]])
    d = Matrix.from_rows(F, [[F.zero, F.zero], [F.zero, F.one]])
    return MRBDerPair(alg, R, d, F.neg(F.one))


def upper_triangular_pair(field: Field, lam) -> MRBDerPair:
    """2x2 upper-triangular matrices, basis (E11, E12, E22), with R = lam*Id,
    kappa = -lam^2, and the inner derivation d = [E11, -]."""
    F = field
    e = lambda i: unit_vector(F, 3, i)
    table = {(0, 0): e(0), (0, 1): e(1), (1, 2): e(1), (2, 2): e(2)}
    alg = Algebra.from_table(F, 3, table)
    d = Matrix.from_rows(F, [[F.zero] * 3, [F.zero, F.one, F.zero], [F.zero] * 3])
    R = Matrix.scalar(F, 3, lam)
    return MRBDerPair(alg, R, d, F.neg(F.mul(lam, lam)))
