"""Reference implementations that the engine is tested against.

* The dense elimination: ``dense_rref`` sweeps every column of every row,
  zeros included, and rebuilds each row it touches.  ``dense_rank_and_kernel``,
  ``dense_rref_vectors``, ``dense_solve_linear`` and ``dense_inverse`` are the
  solvers of ``mrbder.linalg`` written on top of it.
* ``cochain_map``: a structure map as the cochain-level function
  (``hochschild_delta``, ``modified_delta``, ``operator_map``,
  ``derivation_defect``, ``operator_delta``, ``pair_delta``) with its domain
  and codomain spaces, so that ``operator_matrix`` builds its matrix one
  basis cochain at a time.
"""

from mrbder.cohomology import (DEFAULT_CONVENTION, Cochain, CochainSpace, PairSpace,
                               cochain_arities, derivation_defect, hochschild_delta,
                               hom_space, modified_delta, operator_delta, operator_map,
                               pair_delta)
from mrbder.linalg import Matrix, ShapeError


def dense_rref(field, rows):
    """RREF of ``rows`` in place; the pivot columns."""
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    pivots = []
    r = 0
    for c in range(nc):
        pr = None
        for i in range(r, nr):
            if not field.is_zero(rows[i][c]):
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = field.inv(rows[r][c])
        if inv != field.one:
            rows[r] = [field.mul(inv, x) for x in rows[r]]
        prow = rows[r]
        for i in range(nr):
            if i != r and not field.is_zero(rows[i][c]):
                f = rows[i][c]
                rows[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(rows[i], prow)]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return pivots


def dense_rref_vectors(field, vectors):
    rows = [list(v) for v in vectors]
    if not rows:
        return [], []
    pivots = dense_rref(field, rows)
    return [tuple(rows[i]) for i in range(len(pivots))], pivots


def dense_rank_and_kernel(m: Matrix):
    F = m.field
    rows = [list(r) for r in m.rows]
    if not rows:
        n = m.ncols
        basis = []
        for c in range(n):
            v = [F.zero] * n
            v[c] = F.one
            basis.append(tuple(v))
        return 0, basis
    pivots = dense_rref(F, rows)
    pivot_set = set(pivots)
    basis = []
    for c in (c for c in range(m.ncols) if c not in pivot_set):
        v = [F.zero] * m.ncols
        v[c] = F.one
        for k, pc in enumerate(pivots):
            v[pc] = F.neg(rows[k][c])
        basis.append(tuple(v))
    return len(pivots), basis


def dense_solve_linear(m: Matrix, b):
    if len(b) != m.nrows:
        raise ShapeError("rhs length %d for %dx%d system" % (len(b), m.nrows, m.ncols))
    F = m.field
    n = m.ncols
    rows = [list(r) + [bv] for r, bv in zip(m.rows, b)]
    if not rows:
        return tuple()
    pivots = dense_rref(F, rows)
    if pivots and pivots[-1] == n:
        return None
    x = [F.zero] * n
    for k, pc in enumerate(pivots):
        x[pc] = rows[k][n]
    return tuple(x)


def dense_inverse(m: Matrix) -> Matrix:
    F, n = m.field, m.nrows
    if n != m.ncols:
        raise ShapeError("only square matrices invert")
    aug = [list(m.rows[i]) + [F.one if j == i else F.zero for j in range(n)]
           for i in range(n)]
    if dense_rref(F, aug) != list(range(n)):
        raise ValueError("matrix is singular")
    return Matrix(F, tuple(tuple(row[n:]) for row in aug))


def cochain_map(pair, bim, n, which, convention=DEFAULT_CONVENTION):
    """(domain, codomain, map) of the structure map ``which`` at degree n, the
    map acting on cochains; ``operator_matrix`` of it is the oracle for
    ``differential_matrix(pair, bim, n, which, convention)``."""
    F, nA, m = pair.field, pair.dim, bim.dim_m
    if which in ("hochschild", "modified", "operator_map", "derivation_defect"):
        dom = hom_space(nA, m, n, F)
        cod = hom_space(nA, m, n + 1, F) if which in ("hochschild", "modified") else dom
        fn = {"hochschild": lambda f: hochschild_delta(pair, bim, f),
              "modified": lambda f: modified_delta(pair, bim, f),
              "operator_map": lambda f: operator_map(pair, bim, f, convention),
              "derivation_defect": lambda f: derivation_defect(pair, bim, f)}[which]
        return dom, cod, fn
    if which == "pair":
        return (PairSpace(F, nA, m, n), PairSpace(F, nA, m, n + 1),
                lambda c: pair_delta(pair, bim, c, convention))
    dom = CochainSpace(F, nA, m, cochain_arities(n, 2))
    if which == "operator":
        return (dom, CochainSpace(F, nA, m, cochain_arities(n + 1, 2)),
                lambda c: operator_delta(pair, bim, c, convention))
    return dom, dom, lambda c: Cochain(n, tuple(derivation_defect(pair, bim, p) for p in c.parts))
