"""Core objects and axiom checks.

An :class:`Algebra` is a finite-dimensional associative algebra given by its
multiplication tensor.  An :class:`MRBDerPair` equips it with a modified
Rota-Baxter operator R of weight kappa and a derivation d commuting with R:

    mu(Ra, Rb) = R(mu(Ra, b) + mu(a, Rb)) + kappa * mu(a, b)
    d(mu(a, b)) = mu(da, b) + mu(a, db)
    R . d = d . R

A :class:`Bimodule` over a pair carries left/right actions plus operators
(R_M, d_M) satisfying the compatible module-level identities.

Every identity check builds one residual tensor, zero exactly where the
identity holds, and :func:`residual_failures` lists its nonzero entries as
witnesses in lexicographic order of basis tuples.  The residual builders are
:func:`operator_residual` (modified Rota-Baxter shape),
:func:`rota_baxter_residual`, :func:`derivation_residual`,
:func:`multiplicative_residual` and :func:`associator_slice`; trilinear
identities go through :func:`sliced_failures` one first-index slice at a
time, so no residual outgrows the maps it checks.  Commutation residuals are
``matrix_as_tensor(A B - B A)``, witnessed column by column.
"""

from __future__ import annotations

from .fields import Field, Value
from .linalg import Matrix, MultiTensor, ShapeError, matrix_as_tensor


class InvalidStructure(ValueError):
    """A construction precondition failed; carries the offending report."""

    def __init__(self, msg, report=None):
        super().__init__(msg)
        self.report = report


class InternalError(RuntimeError):
    """A result failed the engine's own consistency check: a defect of the
    engine, not of the input."""


class CheckFailure(Value):
    __slots__ = ("identity", "args", "residual")

    def __init__(self, identity: str, args: tuple, residual: tuple):
        self._init(identity, args, residual)


class CheckReport(Value):
    __slots__ = ("ok", "failures")

    def __init__(self, ok: bool, failures: tuple):
        self._init(ok, failures)

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


class Algebra(Value):
    """Associative algebra by structure constants: mu has shape (n, n) -> n."""

    __slots__ = ("field", "dim", "mu")

    def __init__(self, field: Field, dim: int, mu: MultiTensor):
        self._init(field, dim, mu)
        if mu.dims != (dim, dim) or mu.cod != dim:
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


class MRBDerPair(Value):
    """Modified Rota-Baxter pair: algebra + (R, d, kappa).  Not validated on
    construction; run :func:`verify_pair`."""

    # _complexes: the cochain complexes of this pair, one per bimodule
    # object, filled by mrbder.cohomology; not part of the pair's value
    __slots__ = ("algebra", "R", "d", "kappa", "_complexes")

    def __init__(self, algebra: Algebra, R: Matrix, d: Matrix, kappa):
        self._init(algebra, R, d, kappa, {})
        n = algebra.dim
        for m in (R, d):
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


class Bimodule(Value):
    """Bimodule data over a pair: actions left: A x M -> M, right: M x A -> M,
    plus compatible operators R_M, d_M on M."""

    __slots__ = ("dim_m", "left", "right", "R_M", "d_M")

    def __init__(self, dim_m: int, left: MultiTensor, right: MultiTensor, R_M: Matrix,
                 d_M: Matrix):
        self._init(dim_m, left, right, R_M, d_M)
        m = dim_m
        if left.cod != m or right.cod != m:
            raise ShapeError("actions must land in M")
        if left.dims[1] != m or right.dims[0] != m:
            raise ShapeError("action module slots must have dim %d" % m)
        if left.dims[0] != right.dims[1]:
            raise ShapeError("action algebra slots disagree")
        for mat in (R_M, d_M):
            if (mat.nrows, mat.ncols) != (m, m):
                raise ShapeError("module operator must be %dx%d" % (m, m))

    @property
    def dim_a(self) -> int:
        return self.left.dims[0]


# ---------------------------------------------------------------------------
# residuals: each identity is one tensor that vanishes exactly when it holds


def residual_failures(identity: str, res: MultiTensor, prefix: tuple = ()) -> list:
    """One failure per basis tuple where ``res`` is nonzero, in lexicographic order."""
    return [CheckFailure(identity, prefix + idx, v) for idx, v in res.nonzero_values()]


def sliced_failures(identity: str, dim: int, slice_at, prefix: tuple = ()) -> list:
    """Failures of a trilinear identity built one first-index slice at a time."""
    return [f for a in range(dim)
            for f in residual_failures(identity, slice_at(a), prefix + (a,))]


def associator_slice(a: int, xy: MultiTensor, xy_z: MultiTensor,
                     yz: MultiTensor, x_yz: MultiTensor) -> MultiTensor:
    """(x y) z - x (y z) at x = e_a, as a bilinear map of (y, z); each of the
    four products is its own bilinear tensor."""
    return xy_z.precompose_slot(0, xy.partial_map(0, a)) - yz.postcompose(x_yz.partial_map(0, a))


def operator_residual(beta: MultiTensor, Rx: Matrix, Ry: Matrix, Rz: Matrix,
                      kappa) -> MultiTensor:
    """beta(Rx x, Ry y) - Rz(beta(Rx x, y) + beta(x, Ry y)) - kappa*beta(x, y)."""
    b_rx = beta.precompose_slot(0, Rx)
    inner = b_rx + beta.precompose_slot(1, Ry)
    return b_rx.precompose_slot(1, Ry) - inner.postcompose(Rz) - beta.scale(kappa)


def rota_baxter_residual(beta: MultiTensor, Px: Matrix, Py: Matrix, Pz: Matrix,
                         lam) -> MultiTensor:
    """beta(Px x, Py y) - Pz(beta(Px x, y) + beta(x, Py y) + lam*beta(x, y))."""
    return (operator_residual(beta, Px, Py, Pz, beta.field.zero)
            - beta.postcompose(Pz).scale(lam))


def derivation_residual(beta: MultiTensor, dx: Matrix, dy: Matrix, dz: Matrix) -> MultiTensor:
    """dz(beta(x, y)) - beta(dx x, y) - beta(x, dy y)."""
    return beta.postcompose(dz) - beta.precompose_slot(0, dx) - beta.precompose_slot(1, dy)


def multiplicative_residual(f: Matrix, src: MultiTensor, dst: MultiTensor) -> MultiTensor:
    """f(src(x, y)) - dst(f x, f y)."""
    return src.postcompose(f) - dst.precompose_slot(0, f).precompose_slot(1, f)


def check_associativity(alg: Algebra) -> CheckReport:
    """mu(mu(a,b),c) = mu(a,mu(b,c)) on all basis triples."""
    mu = alg.mu
    return _report(sliced_failures("assoc", alg.dim,
                                   lambda i: associator_slice(i, mu, mu, mu, mu)))


def check_modified_rb(alg: Algebra, R: Matrix, kappa) -> CheckReport:
    """mu(Ra,Rb) = R(mu(Ra,b) + mu(a,Rb)) + kappa*mu(a,b) on basis pairs."""
    return _report(residual_failures("mrb", operator_residual(alg.mu, R, R, R, kappa)))


def check_derivation(alg: Algebra, d: Matrix) -> CheckReport:
    """d(mu(a,b)) = mu(da,b) + mu(a,db) on basis pairs."""
    return _report(residual_failures("derivation", derivation_residual(alg.mu, d, d, d)))


def check_commutation(R: Matrix, d: Matrix, name: str = "commute") -> CheckReport:
    """R.d = d.R, witnessed column by column."""
    return _report(residual_failures(name, matrix_as_tensor(R * d - d * R)))


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
    n, m = pair.dim, bim.dim_m
    if bim.dim_a != n:
        raise ShapeError("bimodule algebra slot dim %d, pair dim %d" % (bim.dim_a, n))
    mu, left, right = pair.mu, bim.left, bim.right
    R, d, kappa = pair.R, pair.d, pair.kappa
    R_M, d_M = bim.R_M, bim.d_M
    fails = sliced_failures("module-left", n,
                            lambda i: associator_slice(i, mu, left, left, left))
    fails += sliced_failures("module-mixed", n,
                             lambda i: associator_slice(i, left, right, right, left))
    fails += sliced_failures("module-right", m,
                             lambda u: -associator_slice(u, right, right, mu, right))
    fails += residual_failures("op-left", operator_residual(left, R, R_M, R_M, kappa))
    fails += residual_failures("op-right", operator_residual(right, R_M, R, R_M, kappa))
    fails += residual_failures("der-left", derivation_residual(left, d, d_M, d_M))
    fails += residual_failures("der-right", derivation_residual(right, d_M, d, d_M))
    fails += check_commutation(R_M, d_M, "op-der-commute").failures
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
    fails += residual_failures("multiplicative", multiplicative_residual(f, src.mu, dst.mu))
    fails += residual_failures("operator-intertwine", matrix_as_tensor(f * src.R - dst.R * f))
    fails += residual_failures("derivation-intertwine", matrix_as_tensor(f * src.d - dst.d * f))
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
