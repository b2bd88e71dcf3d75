"""Dense exact matrices, multilinear tensors, and RREF-based linear solving.

Everything is immutable after construction (tuples inside frozen dataclasses).
Kernel bases, solutions and canonical subspace bases all come from reduced row
echelon form with first-nonzero pivoting, so results are deterministic and
basis choices are reproducible across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .fields import Field


class ShapeError(ValueError):
    """Dimension mismatch between operands."""


class EntryCapExceeded(ValueError):
    """Tensor would hold more entries than the configured cap."""


_max_tensor_entries = 10**6


def set_max_tensor_entries(cap: int) -> None:
    """Set the global entry-count cap for newly built tensors (default 10**6)."""
    global _max_tensor_entries
    if cap < 1:
        raise ValueError("cap must be positive")
    _max_tensor_entries = cap


def max_tensor_entries() -> int:
    return _max_tensor_entries


@dataclass(frozen=True)
class Matrix:
    """Dense matrix over ``field``; ``rows`` is a tuple of row tuples.

    Column convention: ``apply`` sends a coordinate vector v to M v, so the
    j-th column is the image of the j-th basis vector.
    """

    field: Field
    rows: tuple

    def __post_init__(self):
        w = len(self.rows[0]) if self.rows else 0
        if any(len(r) != w for r in self.rows):
            raise ShapeError("ragged rows")

    @staticmethod
    def from_rows(field: Field, rows: Iterable[Sequence]) -> "Matrix":
        return Matrix(field, tuple(tuple(r) for r in rows))

    @staticmethod
    def zeros(field: Field, nrows: int, ncols: int) -> "Matrix":
        z = field.zero
        return Matrix(field, tuple(tuple(z for _ in range(ncols)) for _ in range(nrows)))

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        z, o = field.zero, field.one
        return Matrix(field, tuple(tuple(o if i == j else z for j in range(n)) for i in range(n)))

    @staticmethod
    def scalar(field: Field, n: int, c) -> "Matrix":
        z = field.zero
        return Matrix(field, tuple(tuple(c if i == j else z for j in range(n)) for i in range(n)))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def entry(self, i: int, j: int):
        return self.rows[i][j]

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        add = self.field.add
        return Matrix(self.field, tuple(
            tuple(add(a, b) for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        sub = self.field.sub
        return Matrix(self.field, tuple(
            tuple(sub(a, b) for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows)))

    def __neg__(self) -> "Matrix":
        neg = self.field.neg
        return Matrix(self.field, tuple(tuple(neg(a) for a in r) for r in self.rows))

    def scale(self, c) -> "Matrix":
        mul = self.field.mul
        return Matrix(self.field, tuple(tuple(mul(c, a) for a in r) for r in self.rows))

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ShapeError("matmul %dx%d by %dx%d" % (self.nrows, self.ncols, other.nrows, other.ncols))
        F = self.field
        add, mul, zero = F.add, F.mul, F.zero
        out = [[zero] * other.ncols for _ in range(self.nrows)]
        for i, row in enumerate(self.rows):
            acc = out[i]
            for k, a in enumerate(row):
                if F.is_zero(a):
                    continue
                brow = other.rows[k]
                for j, b in enumerate(brow):
                    if not F.is_zero(b):
                        acc[j] = add(acc[j], mul(a, b))
        return Matrix(F, tuple(tuple(r) for r in out))

    def apply(self, vec: Sequence) -> tuple:
        if len(vec) != self.ncols:
            raise ShapeError("apply %dx%d to vector of length %d" % (self.nrows, self.ncols, len(vec)))
        F = self.field
        add, mul, zero = F.add, F.mul, F.zero
        out = []
        for row in self.rows:
            s = zero
            for a, v in zip(row, vec):
                if not (F.is_zero(a) or F.is_zero(v)):
                    s = add(s, mul(a, v))
            out.append(s)
        return tuple(out)

    def transpose(self) -> "Matrix":
        return Matrix(self.field, tuple(zip(*self.rows)) if self.rows else ())

    def inverse(self) -> "Matrix":
        """Inverse of a square matrix, by row reduction of [self | I]."""
        F, n = self.field, self.nrows
        if n != self.ncols:
            raise ShapeError("only square matrices invert")
        aug = [list(self.rows[i]) + [F.one if j == i else F.zero for j in range(n)]
               for i in range(n)]
        pivots = rref(F, aug)
        if pivots != list(range(n)):
            raise ValueError("matrix is singular")
        return Matrix(F, tuple(tuple(row[n:]) for row in aug))

    def is_zero(self) -> bool:
        F = self.field
        return all(F.is_zero(a) for r in self.rows for a in r)

    def block_diag(self, other: "Matrix") -> "Matrix":
        F = self.field
        z = F.zero
        top = [tuple(r) + (z,) * other.ncols for r in self.rows]
        bot = [(z,) * self.ncols + tuple(r) for r in other.rows]
        return Matrix(F, tuple(top + bot))

    def _same_shape(self, other: "Matrix") -> None:
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ShapeError("shape mismatch")


def rref(field: Field, rows: list) -> tuple:
    """Reduce ``rows`` (list of lists, modified in place) to RREF.

    Returns the list of pivot column indices.  Pivoting picks the first row
    with a nonzero entry in the current column, so the result is canonical.
    """
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


def rref_vectors(field: Field, vectors: Iterable[Sequence]) -> tuple:
    """Canonical (RREF) basis of the span of ``vectors``.

    Returns (basis, pivots): basis rows in RREF with unit leading entries,
    pivots their leading-column indices.
    """
    rows = [list(v) for v in vectors]
    if not rows:
        return [], []
    pivots = rref(field, rows)
    return [tuple(rows[i]) for i in range(len(pivots))], pivots


def rank_and_kernel(m: Matrix) -> tuple:
    """Rank and canonical kernel basis of ``m`` (vectors v with M v = 0).

    The kernel basis is indexed by free columns in increasing order: the basis
    vector for free column c has a 1 at c, 0 at the other free columns, and
    the negated RREF coefficients at pivot columns.
    """
    F = m.field
    rows = [list(r) for r in m.rows]
    if not rows:
        # 0 x n matrix: everything is in the kernel
        n = m.ncols
        basis = []
        for c in range(n):
            v = [F.zero] * n
            v[c] = F.one
            basis.append(tuple(v))
        return 0, basis
    pivots = rref(F, rows)
    rank = len(pivots)
    pivot_set = set(pivots)
    free = [c for c in range(m.ncols) if c not in pivot_set]
    basis = []
    for c in free:
        v = [F.zero] * m.ncols
        v[c] = F.one
        for k, pc in enumerate(pivots):
            v[pc] = F.neg(rows[k][c])
        basis.append(tuple(v))
    return rank, basis


def solve_linear(m: Matrix, b: Sequence):
    """One solution of M x = b, or None if inconsistent.

    Deterministic: free variables are set to zero, so the particular solution
    is the RREF-canonical one.
    """
    if len(b) != m.nrows:
        raise ShapeError("rhs length %d for %dx%d system" % (len(b), m.nrows, m.ncols))
    F = m.field
    n = m.ncols
    rows = [list(r) + [bv] for r, bv in zip(m.rows, b)]
    if not rows:
        return tuple()
    pivots = rref(F, rows)
    if pivots and pivots[-1] == n:
        return None
    x = [F.zero] * n
    for k, pc in enumerate(pivots):
        x[pc] = rows[k][n]
    return tuple(x)


@dataclass(frozen=True)
class MultiTensor:
    """Multilinear map V_1 x ... x V_k -> W in coordinates.

    ``dims`` are the domain dimensions per slot, ``cod`` the codomain
    dimension.  Entries are stored flat, index (i_1,...,i_k,j) lexicographic
    with the codomain index fastest.  Arity 0 is allowed: the tensor is then
    just a vector of length ``cod``.
    """

    field: Field
    dims: tuple
    cod: int
    entries: tuple

    def __post_init__(self):
        size = math.prod(self.dims) * self.cod
        if size > _max_tensor_entries:
            raise EntryCapExceeded("tensor with %d entries exceeds cap %d" % (size, _max_tensor_entries))
        if len(self.entries) != size:
            raise ShapeError("entry count %d, expected %d" % (len(self.entries), size))

    @property
    def arity(self) -> int:
        return len(self.dims)

    @staticmethod
    def zeros(field: Field, dims: Sequence[int], cod: int) -> "MultiTensor":
        dims = tuple(dims)
        size = math.prod(dims) * cod
        if size > _max_tensor_entries:
            raise EntryCapExceeded("tensor with %d entries exceeds cap %d" % (size, _max_tensor_entries))
        return MultiTensor(field, dims, cod, (field.zero,) * size)

    @staticmethod
    def from_map(field: Field, dims: Sequence[int], cod: int, fn: Callable) -> "MultiTensor":
        """Build from ``fn(*basis_indices) -> coordinate vector of length cod``."""
        dims = tuple(dims)
        entries = []
        for idx in _index_tuples(dims):
            v = fn(*idx)
            if len(v) != cod:
                raise ShapeError("value of length %d, expected %d" % (len(v), cod))
            entries.extend(v)
        return MultiTensor(field, dims, cod, tuple(entries))

    def offset(self, idx: tuple) -> int:
        off = 0
        for i, d in zip(idx, self.dims):
            off = off * d + i
        return off * self.cod

    def value_at(self, *idx) -> tuple:
        """Value on basis elements: a codomain coordinate vector."""
        off = self.offset(idx)
        return self.entries[off:off + self.cod]

    def eval(self, args: Sequence[Sequence]) -> tuple:
        """Full multilinear evaluation on coordinate vectors."""
        if len(args) != self.arity:
            raise ShapeError("expected %d arguments" % self.arity)
        F = self.field
        cur = list(self.entries)
        dims = list(self.dims)
        for a in args:
            d = dims.pop(0)
            if len(a) != d:
                raise ShapeError("argument of length %d, expected %d" % (len(a), d))
            block = math.prod(dims) * self.cod
            nxt = [F.zero] * block
            for i, c in enumerate(a):
                if F.is_zero(c):
                    continue
                base = i * block
                for t in range(block):
                    e = cur[base + t]
                    if not F.is_zero(e):
                        nxt[t] = F.add(nxt[t], F.mul(c, e))
            cur = nxt
        return tuple(cur)

    def __add__(self, other: "MultiTensor") -> "MultiTensor":
        self._same_shape(other)
        add = self.field.add
        return MultiTensor(self.field, self.dims, self.cod,
                           tuple(add(a, b) for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "MultiTensor") -> "MultiTensor":
        self._same_shape(other)
        sub = self.field.sub
        return MultiTensor(self.field, self.dims, self.cod,
                           tuple(sub(a, b) for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> "MultiTensor":
        neg = self.field.neg
        return MultiTensor(self.field, self.dims, self.cod, tuple(neg(a) for a in self.entries))

    def scale(self, c) -> "MultiTensor":
        F = self.field
        if F.is_zero(c):
            return MultiTensor.zeros(F, self.dims, self.cod)
        if c == F.one:
            return self
        mul = F.mul
        return MultiTensor(F, self.dims, self.cod, tuple(mul(c, a) for a in self.entries))

    def is_zero(self) -> bool:
        F = self.field
        return all(F.is_zero(a) for a in self.entries)

    def precompose_slot(self, slot: int, m: Matrix) -> "MultiTensor":
        """Feed slot ``slot`` through ``m`` first: T'(..., a, ...) = T(..., m a, ...)."""
        if not (0 <= slot < self.arity):
            raise ShapeError("slot out of range")
        if m.nrows != self.dims[slot]:
            raise ShapeError("matrix rows %d, slot dim %d" % (m.nrows, self.dims[slot]))
        F = self.field
        d_old = self.dims[slot]
        d_new = m.ncols
        pre = math.prod(self.dims[:slot])
        post = math.prod(self.dims[slot + 1:]) * self.cod
        ent = self.entries
        out = [F.zero] * (pre * d_new * post)
        add, mul = F.add, F.mul
        for s in range(d_old):
            col_base = s * post
            mrow = None
            for i in range(d_new):
                c = m.rows[s][i]
                if F.is_zero(c):
                    continue
                for a in range(pre):
                    src = (a * d_old) * post + col_base
                    dst = (a * d_new + i) * post
                    for t in range(post):
                        e = ent[src + t]
                        if not F.is_zero(e):
                            out[dst + t] = add(out[dst + t], mul(c, e))
        dims = self.dims[:slot] + (d_new,) + self.dims[slot + 1:]
        return MultiTensor(F, dims, self.cod, tuple(out))

    def postcompose(self, m: Matrix) -> "MultiTensor":
        """Apply ``m`` to the output: T' = m . T."""
        if m.ncols != self.cod:
            raise ShapeError("matrix cols %d, codomain dim %d" % (m.ncols, self.cod))
        F = self.field
        add, mul = F.add, F.mul
        ent = self.entries
        blocks = len(ent) // self.cod
        out = []
        for b in range(blocks):
            base = b * self.cod
            vec = ent[base:base + self.cod]
            for row in m.rows:
                s = F.zero
                for a, v in zip(row, vec):
                    if not (F.is_zero(a) or F.is_zero(v)):
                        s = add(s, mul(a, v))
                out.append(s)
        return MultiTensor(F, self.dims, m.nrows, tuple(out))

    def permute_slots(self, perm: Sequence[int]) -> "MultiTensor":
        """Route argument i of the result into slot perm[i] of this tensor.

        Slot i of the result has the dimension of slot perm[i]; for the
        transposition [1, 0] this is the usual argument swap.
        """
        if sorted(perm) != list(range(self.arity)):
            raise ShapeError("not a permutation")
        F = self.field
        new_dims = tuple(self.dims[p] for p in perm)
        out = [F.zero] * len(self.entries)
        cod = self.cod
        for idx in _index_tuples(new_dims):
            src = self.offset(tuple(idx[perm.index(s)] for s in range(self.arity)))
            off = 0
            for i, d in zip(idx, new_dims):
                off = off * d + i
            off *= cod
            out[off:off + cod] = self.entries[src:src + cod]
        return MultiTensor(F, new_dims, cod, tuple(out))

    def _same_shape(self, other: "MultiTensor") -> None:
        if (self.dims, self.cod) != (other.dims, other.cod):
            raise ShapeError("tensor shape mismatch")


def matrix_as_tensor(m: Matrix) -> "MultiTensor":
    """View an r x c matrix as the 1-slot tensor k^c -> k^r."""
    flat = []
    for j in range(m.ncols):
        flat.extend(m.rows[i][j] for i in range(m.nrows))
    return MultiTensor(m.field, (m.ncols,), m.nrows, tuple(flat))


def tensor_as_matrix(t: "MultiTensor") -> Matrix:
    """Inverse of :func:`matrix_as_tensor` for arity-1 tensors."""
    if t.arity != 1:
        raise ShapeError("expected an arity-1 tensor")
    n, m = t.dims[0], t.cod
    return Matrix.from_rows(t.field, [[t.value_at(j)[i] for j in range(n)] for i in range(m)])


def _index_tuples(dims: Sequence[int]):
    if not dims:
        yield ()
        return
    head, rest = dims[0], dims[1:]
    for i in range(head):
        for tail in _index_tuples(rest):
            yield (i,) + tail


@dataclass(frozen=True)
class TensorSpace:
    """The space of all MultiTensors of a fixed shape, with a flat basis."""

    field: Field
    dims: tuple
    cod: int

    @property
    def dim(self) -> int:
        return math.prod(self.dims) * self.cod

    def zero(self) -> MultiTensor:
        return MultiTensor.zeros(self.field, self.dims, self.cod)

    def flatten(self, t: MultiTensor) -> tuple:
        if (t.dims, t.cod) != (self.dims, self.cod):
            raise ShapeError("tensor not in this space")
        return t.entries

    def unflatten(self, vec: Sequence) -> MultiTensor:
        return MultiTensor(self.field, self.dims, self.cod, tuple(vec))

    def basis(self):
        F = self.field
        n = self.dim
        for k in range(n):
            ent = [F.zero] * n
            ent[k] = F.one
            yield MultiTensor(F, self.dims, self.cod, tuple(ent))


def operator_matrix(dom, cod, fn: Callable) -> Matrix:
    """Matrix of a linear map given by its action on basis elements.

    ``dom``/``cod`` expose dim, basis(), flatten(); column j of the result is
    cod.flatten(fn(j-th basis element)).
    """
    F = dom.field
    cols = []
    for b in dom.basis():
        cols.append(cod.flatten(fn(b)))
    nrows = cod.dim
    rows = tuple(tuple(col[i] for col in cols) for i in range(nrows))
    return Matrix(F, rows)
