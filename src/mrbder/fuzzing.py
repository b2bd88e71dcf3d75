"""Seeded random instance generators.

Every generator takes a ``random.Random`` and is deterministic given its seed.
Instances are built valid by construction:

* dimension 1: the full family is classified by hand.  With mu(x,x) = c x,
  associativity is automatic; a derivation d = s*Id needs s*c = 0 and an
  operator R = r*Id needs c*(r^2 + kappa) = 0.  So c != 0 forces d = 0 and
  kappa = -r^2, while c = 0 leaves r, s, kappa free.
* dimension 2: a small catalog of associative tables; for each table the
  valid (R, kappa) combinations are enumerated once over F_p and cached
  (kappa is solved for, not searched), and derivations commuting with R come
  from a linear kernel.
* over Q: scalar operators, the (1, x | x^2 = 0) pair, direct sums and
  semidirect products of the above, and random invertible base changes.

Bimodules: adjoint, trivial actions with a commuting (R_M, d_M), and the
induced structures.  A final optional conjugation exercises basis freedom.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .fields import Field
from .linalg import Matrix, MultiTensor, rank_and_kernel
from .structures import (Algebra, Bimodule, MRBDerPair, adjoint_bimodule,
                         check_bimodule, dual_pair, unit_vector, verify_pair)
from .constructions import (direct_sum, induced_algebra, induced_bimodule,
                            semidirect_product)


@dataclass(frozen=True)
class FuzzInstance:
    pair: MRBDerPair
    bim: Bimodule
    label: str


# ---------------------------------------------------------------------------
# small linear-algebra helpers over matrices-as-unknowns


def _mat_from_flat(field: Field, n: int, flat) -> Matrix:
    return Matrix.from_rows(field, [flat[i * n:(i + 1) * n] for i in range(n)])


def _kernel_matrices(field: Field, n: int, constraint_fn) -> list:
    """Kernel of a linear map Mat_n -> k^s given by its values on the E_ij basis."""
    cols = []
    for k in range(n * n):
        flat = [field.zero] * (n * n)
        flat[k] = field.one
        cols.append(constraint_fn(_mat_from_flat(field, n, flat)))
    if not cols[0]:
        rows = []
    else:
        rows = [[cols[k][r] for k in range(n * n)] for r in range(len(cols[0]))]
    if not rows:
        basis_flat = [[field.one if i == k else field.zero for i in range(n * n)]
                      for k in range(n * n)]
    else:
        _, basis_flat = rank_and_kernel(Matrix.from_rows(field, rows))
    return [_mat_from_flat(field, n, v) for v in basis_flat]


def _derivation_constraints(alg: Algebra, R: Matrix):
    """Linear conditions on d: derivation of mu, and commuting with R."""
    F, n, mu = alg.field, alg.dim, alg.mu

    def fn(D: Matrix):
        out = []
        for i in range(n):
            for j in range(n):
                lhs = D.apply(mu.value_at(i, j))
                a = mu.eval([tuple(D.rows[t][i] for t in range(n)), unit_vector(F, n, j)])
                b = mu.eval([unit_vector(F, n, i), tuple(D.rows[t][j] for t in range(n))])
                out.extend(F.sub(lhs[t], F.add(a[t], b[t])) for t in range(n))
        comm = R * D - D * R
        for row in comm.rows:
            out.extend(row)
        return out

    return fn


def random_matrix(rng: random.Random, field: Field, n: int, m: int | None = None) -> Matrix:
    m = n if m is None else m
    return Matrix.from_rows(field, [[field.random(rng) for _ in range(m)] for _ in range(n)])


def random_invertible(rng: random.Random, field: Field, n: int) -> Matrix:
    while True:
        T = random_matrix(rng, field, n)
        rank, _ = rank_and_kernel(T)
        if rank == n:
            return T


def random_kernel_element(rng: random.Random, field: Field, basis: list):
    if not basis:
        return None
    acc = basis[0].scale(field.random(rng))
    for b in basis[1:]:
        acc = acc + b.scale(field.random(rng))
    return acc


# ---------------------------------------------------------------------------
# basis change


def conjugate_pair(pair: MRBDerPair, T: Matrix) -> MRBDerPair:
    """Transport the pair along the base change a |-> T a (T invertible)."""
    Ti = T.inverse()
    mu2 = pair.mu.precompose_slot(0, T).precompose_slot(1, T).postcompose(Ti)
    return MRBDerPair(Algebra(pair.field, pair.dim, mu2), Ti * pair.R * T,
                      Ti * pair.d * T, pair.kappa)


def conjugate_bimodule(bim: Bimodule, T: Matrix, S: Matrix) -> Bimodule:
    """Transport along a |-> T a on the algebra and m |-> S m on the module."""
    Si = S.inverse()
    l2 = bim.left.precompose_slot(0, T).precompose_slot(1, S).postcompose(Si)
    r2 = bim.right.precompose_slot(0, S).precompose_slot(1, T).postcompose(Si)
    return Bimodule(bim.dim_m, l2, r2, Si * bim.R_M * S, Si * bim.d_M * S)


# ---------------------------------------------------------------------------
# dimension-1 family


def _dim1_pair(rng: random.Random, field: Field) -> MRBDerPair:
    F = field
    c = F.random(rng)
    mu = MultiTensor(F, (1, 1), 1, (c,))
    if F.is_zero(c):
        r, s, kappa = F.random(rng), F.random(rng), F.random(rng)
    else:
        r = F.random(rng)
        s = F.zero
        kappa = F.neg(F.mul(r, r))
    return MRBDerPair(Algebra(F, 1, mu), Matrix.from_rows(F, [[r]]),
                      Matrix.from_rows(F, [[s]]), kappa)


# ---------------------------------------------------------------------------
# dimension-2 catalog over finite fields


def _dim2_tables(field: Field) -> dict:
    F = field
    z = (F.zero, F.zero)
    e0 = (F.one, F.zero)
    e1 = (F.zero, F.one)

    def tensor(table):
        flat = []
        for i in range(2):
            for j in range(2):
                flat.extend(table.get((i, j), z))
        return MultiTensor(F, (2, 2), 2, tuple(flat))

    return {
        "zero": tensor({}),
        "dual": tensor({(0, 0): e0, (0, 1): e1, (1, 0): e1}),
        "split": tensor({(0, 0): e0, (1, 1): e1}),
        "leftunit": tensor({(0, 0): e0, (0, 1): e1}),
        "nilp": tensor({(0, 0): e1}),
    }


_MRB_CACHE: dict = {}


def _mrb_options(field: Field, alg: Algebra) -> list:
    """All (R, kappa) with the operator identity, enumerated over F_p."""
    if field.p is None:
        raise ValueError("enumeration needs a finite field")
    key = (field.p, alg.mu.entries)
    if key in _MRB_CACHE:
        return _MRB_CACHE[key]
    F, n, mu = field, alg.dim, alg.mu
    elems = F.elements()
    out = []
    flat_indices = list(range(n * n))
    def all_matrices():
        stack = [[]]
        for _ in flat_indices:
            stack = [s + [e] for s in stack for e in elems]
        for flat in stack:
            yield _mat_from_flat(F, n, flat)
    for R in all_matrices():
        muRR = mu.precompose_slot(0, R).precompose_slot(1, R)
        muRx = mu.precompose_slot(0, R)
        muxR = mu.precompose_slot(1, R)
        kappa = None
        consistent = True
        pending = []  # (v, w) with v = kappa * w required
        for i in range(n):
            for j in range(n):
                inner = tuple(F.add(a, b) for a, b in
                              zip(muRx.value_at(i, j), muxR.value_at(i, j)))
                v = tuple(F.sub(a, b) for a, b in
                          zip(muRR.value_at(i, j), R.apply(inner)))
                w = mu.value_at(i, j)
                pending.append((v, w))
        for v, w in pending:
            wt = next((t for t in range(n) if not F.is_zero(w[t])), None)
            if wt is None:
                if any(not F.is_zero(x) for x in v):
                    consistent = False
                    break
                continue
            k = F.div(v[wt], w[wt])
            if kappa is None:
                kappa = k
            elif kappa != k:
                consistent = False
                break
            if any(F.sub(v[t], F.mul(k, w[t])) != F.zero for t in range(n)):
                consistent = False
                break
        if not consistent:
            continue
        if kappa is None:
            out.extend((R, kv) for kv in elems)
        else:
            out.append((R, kappa))
    _MRB_CACHE[key] = out
    return out


def _dim2_pair_fp(rng: random.Random, field: Field) -> tuple:
    tables = _dim2_tables(field)
    name = rng.choice(sorted(tables))
    alg = Algebra(field, 2, tables[name])
    options = _mrb_options(field, alg)
    R, kappa = options[rng.randrange(len(options))]
    basis = _kernel_matrices(field, 2, _derivation_constraints(alg, R))
    d = random_kernel_element(rng, field, basis)
    if d is None:
        d = Matrix.zeros(field, 2, 2)
    return MRBDerPair(alg, R, d, kappa), name


def _dim2_pair_q(rng: random.Random, field: Field) -> tuple:
    F = field
    kind = rng.choice(["scalar", "dualpair", "sum", "conj"])
    if kind == "dualpair":
        return dual_pair(F), "dualpair"
    if kind == "scalar":
        tables = _dim2_tables(F)
        name = rng.choice(sorted(tables))
        alg = Algebra(F, 2, tables[name])
        lam = F.parse(rng.randint(-3, 3))
        R = Matrix.scalar(F, 2, lam)
        basis = _kernel_matrices(F, 2, _derivation_constraints(alg, R))
        d = random_kernel_element(rng, F, basis) or Matrix.zeros(F, 2, 2)
        return MRBDerPair(alg, R, d, F.neg(F.mul(lam, lam))), "scalar/" + name
    if kind == "sum":
        return _matched_sum(rng, F, _dim1_pair(rng, F)), "sum"
    T = random_invertible(rng, F, 2)
    return conjugate_pair(dual_pair(F), T), "dualpair/conj"


def _matched_sum(rng: random.Random, field: Field, p1: MRBDerPair) -> MRBDerPair:
    """A second dim-1 pair with the same kappa, then the direct sum."""
    F = field
    kappa = p1.kappa
    # with c = 0 any kappa is allowed
    mu = MultiTensor(F, (1, 1), 1, (F.zero,))
    r, s = F.random(rng), F.random(rng)
    p2 = MRBDerPair(Algebra(F, 1, mu), Matrix.from_rows(F, [[r]]),
                    Matrix.from_rows(F, [[s]]), kappa)
    return direct_sum(p1, p2)


# ---------------------------------------------------------------------------
# bimodules


def _trivial_bimodule(rng: random.Random, pair: MRBDerPair, dim_m: int) -> Bimodule:
    F = pair.field
    left = MultiTensor.zeros(F, (pair.dim, dim_m), dim_m)
    right = MultiTensor.zeros(F, (dim_m, pair.dim), dim_m)
    R_M = random_matrix(rng, F, dim_m)
    basis = _kernel_matrices(F, dim_m, lambda D: [x for row in (R_M * D - D * R_M).rows for x in row])
    d_M = random_kernel_element(rng, F, basis) or Matrix.zeros(F, dim_m, dim_m)
    return Bimodule(dim_m, left, right, R_M, d_M)


def random_instance(rng: random.Random, field: Field, dim: int) -> FuzzInstance:
    """One valid pair + bimodule.  ``dim`` caps the algebra dimension."""
    if dim not in (1, 2):
        raise ValueError("supported dimensions: 1, 2")
    use_dim = rng.choice([1, dim])
    if use_dim == 1:
        pair, name = _dim1_pair(rng, field), "dim1"
    elif field.p is None:
        pair, name = _dim2_pair_q(rng, field)
    else:
        pair, name = _dim2_pair_fp(rng, field)
        name = "dim2/" + name
    kind = rng.choice(["adjoint", "trivial", "induced", "conjugated"])
    if kind == "adjoint":
        bim = adjoint_bimodule(pair)
    elif kind == "trivial":
        bim = _trivial_bimodule(rng, pair, rng.choice([1, 2]))
    elif kind == "induced":
        base = adjoint_bimodule(pair)
        bim = induced_bimodule(pair, base)
        pair = induced_algebra(pair)
        name += "/induced"
    else:
        # conjugating a trivial module lets A and M transport independently
        base = _trivial_bimodule(rng, pair, rng.choice([1, 2]))
        T = random_invertible(rng, field, pair.dim)
        S = random_invertible(rng, field, base.dim_m)
        bim = conjugate_bimodule(base, T, S)
        pair = conjugate_pair(pair, T)
        name += "/conj"
    return FuzzInstance(pair, bim, name + "/" + kind)


def random_instances(field: Field, dim: int, count: int, seed: int) -> list:
    rng = random.Random(seed)
    return [random_instance(rng, field, dim) for _ in range(count)]


def check_instance(inst: FuzzInstance) -> bool:
    return verify_pair(inst.pair).ok and check_bimodule(inst.pair, inst.bim).ok
