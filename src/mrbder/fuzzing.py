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
  from a linear kernel.  The residual at kappa = 0, a quadratic form in the
  entries of R, is polarized once and the p^4 candidates are tested in ints.
* over Q: scalar operators, the (1, x | x^2 = 0) pair, direct sums and
  semidirect products of the above, and random invertible base changes.

Bimodules: adjoint, trivial actions with a commuting (R_M, d_M), and the
induced structures.  A final optional conjugation exercises basis freedom.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random

from .fields import CLASS_ENUMERATION_CAP, Field, Value
from .linalg import Matrix, MultiTensor, rank_and_kernel
from .structures import (Algebra, Bimodule, MRBDerPair, adjoint_bimodule,
                         check_bimodule, derivation_residual, dual_pair,
                         operator_residual, unit_vector, verify_pair)
from .constructions import direct_sum, induced_algebra, induced_bimodule


class FuzzInstance(Value):
    __slots__ = ("pair", "bim", "label")

    def __init__(self, pair: MRBDerPair, bim: Bimodule, label: str):
        self._init(pair, bim, label)


# ---------------------------------------------------------------------------
# small linear-algebra helpers over matrices-as-unknowns


def _mat_from_flat(field: Field, n: int, flat) -> Matrix:
    return Matrix.from_rows(field, [flat[i * n:(i + 1) * n] for i in range(n)])


def _kernel_matrices(field: Field, n: int, constraint_fn) -> list:
    """Kernel of a linear map Mat_n -> k^s given by its values on the E_ij basis."""
    cols = [constraint_fn(_mat_from_flat(field, n, unit_vector(field, n * n, k)))
            for k in range(n * n)]
    _, basis_flat = rank_and_kernel(Matrix.from_rows(field, zip(*cols)))
    return [_mat_from_flat(field, n, v) for v in basis_flat]


def _derivation_constraints(alg: Algebra, R: Matrix):
    """Linear conditions on d: derivation of mu, and commuting with R."""

    def fn(D: Matrix):
        der = derivation_residual(alg.mu, D, D, D)
        return list(der.entries) + [x for row in (R * D - D * R).rows for x in row]

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


def _random_kernel_matrix(rng: random.Random, field: Field, n: int, constraint_fn) -> Matrix:
    """A random n x n matrix in the kernel of ``constraint_fn``, or zero when
    that kernel is."""
    d = random_kernel_element(rng, field, _kernel_matrices(field, n, constraint_fn))
    return Matrix.zeros(field, n, n) if d is None else d


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


def _line_pair(field: Field, c, r, s, kappa) -> MRBDerPair:
    """The pair on a line: mu(x, x) = c x, R = r, d = s and weight kappa."""
    F = field
    return MRBDerPair(Algebra(F, 1, MultiTensor(F, (1, 1), 1, (c,))), Matrix.from_rows(F, [[r]]),
                      Matrix.from_rows(F, [[s]]), kappa)


def _dim1_pair(rng: random.Random, field: Field) -> MRBDerPair:
    F = field
    c = F.random(rng)
    if F.is_zero(c):
        return _line_pair(F, c, F.random(rng), F.random(rng), F.random(rng))
    r = F.random(rng)
    return _line_pair(F, c, r, F.zero, F.neg(F.mul(r, r)))


# ---------------------------------------------------------------------------
# dimension-2 catalog over finite fields


def _dim2_tables(field: Field) -> dict:
    F = field
    e0, e1 = (F.one, F.zero), (F.zero, F.one)
    return {name: Algebra.from_table(F, 2, table) for name, table in (
        ("zero", {}),
        ("dual", {(0, 0): e0, (0, 1): e1, (1, 0): e1}),
        ("split", {(0, 0): e0, (1, 1): e1}),
        ("leftunit", {(0, 0): e0, (0, 1): e1}),
        ("nilp", {(0, 0): e1}),
    )}


@functools.cache
def _mrb_options(field: Field, alg: Algebra) -> list:
    """All (R, kappa) with the operator identity over F_p, once per field and
    table: Q(R) at kappa = 0 is polarized with no division (r_a^2 has Q(E_a),
    r_a r_b for a < b has Q(E_a + E_b) - Q(E_a) - Q(E_b)), and only the
    candidates that pass in ints mod p become matrices."""
    if field.p is None:
        raise ValueError("enumeration needs a finite field")
    F, n, p, mu = field, alg.dim, field.p, alg.mu.entries
    pairs = list(itertools.combinations_with_replacement(range(n * n), 2))

    def q(*units):
        R = _mat_from_flat(F, n, [units.count(a) for a in range(n * n)])
        return operator_residual(alg.mu, R, R, R, F.zero)
    square = [q(a) for a in range(n * n)]
    form = list(zip(*((square[a] if a == b else q(a, b) - square[a] - square[b]).entries
                      for a, b in pairs)))
    elems = F.elements()
    first = next((k for k, w in enumerate(mu) if w), None)
    out = []
    for flat in itertools.product(elems, repeat=n * n):
        mono = [flat[a] * flat[b] for a, b in pairs]
        res = [sum(map(operator.mul, row, mono)) % p for row in form]
        # the identity holds at kappa when res = kappa mu: kappa is read off
        # the first nonzero entry of mu, and any kappa does when mu is zero
        kappas = elems if first is None else (F.div(res[first], mu[first]),)
        if res == [kappas[0] * w % p for w in mu]:
            R = _mat_from_flat(F, n, flat)
            out.extend((R, kappa) for kappa in kappas)
    return out


def _dim2_pair_fp(rng: random.Random, field: Field) -> tuple:
    tables = _dim2_tables(field)
    name = rng.choice(sorted(tables))
    alg = tables[name]
    options = _mrb_options(field, alg)
    R, kappa = options[rng.randrange(len(options))]
    d = _random_kernel_matrix(rng, field, 2, _derivation_constraints(alg, R))
    return MRBDerPair(alg, R, d, kappa), name


def _dim2_pair_q(rng: random.Random, field: Field) -> tuple:
    F = field
    kind = rng.choice(["scalar", "dualpair", "sum", "conj"])
    if kind == "dualpair":
        return dual_pair(F), "dualpair"
    if kind == "scalar":
        tables = _dim2_tables(F)
        name = rng.choice(sorted(tables))
        alg = tables[name]
        lam = F.parse(rng.randint(-3, 3))
        R = Matrix.scalar(F, 2, lam)
        d = _random_kernel_matrix(rng, F, 2, _derivation_constraints(alg, R))
        return MRBDerPair(alg, R, d, F.neg(F.mul(lam, lam))), "scalar/" + name
    if kind == "sum":
        return _matched_sum(rng, F, _dim1_pair(rng, F)), "sum"
    T = random_invertible(rng, F, 2)
    return conjugate_pair(dual_pair(F), T), "dualpair/conj"


def _matched_sum(rng: random.Random, field: Field, p1: MRBDerPair) -> MRBDerPair:
    """A second dim-1 pair with the same kappa, which c = 0 allows, then the
    direct sum."""
    F = field
    return direct_sum(p1, _line_pair(F, F.zero, F.random(rng), F.random(rng), p1.kappa))


# ---------------------------------------------------------------------------
# bimodules


def _trivial_bimodule(rng: random.Random, pair: MRBDerPair, dim_m: int) -> Bimodule:
    F = pair.field
    left = MultiTensor.zeros(F, (pair.dim, dim_m), dim_m)
    right = MultiTensor.zeros(F, (dim_m, pair.dim), dim_m)
    R_M = random_matrix(rng, F, dim_m)
    d_M = _random_kernel_matrix(rng, F, dim_m,
                                lambda D: [x for row in (R_M * D - D * R_M).rows for x in row])
    return Bimodule(dim_m, left, right, R_M, d_M)


def random_instance(rng: random.Random, field: Field, dim: int) -> FuzzInstance:
    """One valid pair + bimodule.  ``dim`` caps the algebra dimension."""
    if dim not in (1, 2):
        raise ValueError("supported dimensions: 1, 2")
    # refused before any draw, so that no seed gets past it
    if dim == 2 and field.p is not None and field.p ** 4 > CLASS_ENUMERATION_CAP:
        raise ValueError("dimension 2 over %s would enumerate %d operators (cap %d)"
                         % (field.name, field.p ** 4, CLASS_ENUMERATION_CAP))
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
