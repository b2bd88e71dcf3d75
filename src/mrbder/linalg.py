"""Exact matrices, multilinear tensors, and RREF-based linear solving.

Everything is immutable after construction (tuples inside frozen values,
and matrices whose forms are built once and kept).  Kernel bases,
solutions and canonical subspace bases all come from reduced row echelon
form with first-nonzero pivoting, so results are deterministic and basis
choices are reproducible across runs.

A :class:`Matrix` stores one form, integer rows ({column: nonzero int}
dicts) over a positive scale, made when the matrix is made; all arithmetic
and elimination run on that pair.  Its dense rows and, over Q, its Fraction
rows are views for output and hashing, read off the ints when first read
and kept, as are its transpose and, once proven, its rank.  A D_n, made
from ints, is never expanded nor, over Q, made into Fractions unless a
caller reads ``rows`` or ``sparse_rows``.

Every elimination enters at ``_echelon``, one pipeline for F_p and Q: a
peel of singleton rows with no arithmetic (``_peel``; a D_n in the standard
basis loses about half its pivots so, 162 of 320 on the dual+dual D_3), a
split into column components (``_partition``; hundreds on such a D_n), one
pass per component at its first prime of ``_rref_mod`` (Gauss-Jordan row
by row against a basis kept in RREF), one bound check, over Q a lift under
an exact certificate (``_lift``), and a merge.  ``kernel_rref`` and
``modular_rank`` give the two ranks of the balance that proves H^n = 0.

No matrix or tensor checks its own size.  A request checks its entry
budget, an argument with the default ``MAX_ENTRIES``, where it grows and
before it allocates: the loader at each tensor a file declares, each build
of D_n and cohomology's representatives, and an extension's product.

Products (:func:`_product`) are made one row at a time.  A right factor
with at most two nonzeros per row on average, such as a D_n in the standard
basis, is walked row by row, a left row with one nonzero or none at no
sum.  Any other is packed, each right row into one integer of a fixed
number of bits per column (Kronecker substitution), so a result row is one
integer multiply-add per nonzero of the left row.  ``Matrix.product_is_zero``
makes only the rows of left rows with two nonzeros or more and keeps none.

A :class:`MultiTensor` stores one form the same way: flat ints over a
positive scale, at the least scale (residues at scale 1 over F_p), made by
its constructors.  A tensor made from field entries keeps that tuple as its
``entries`` view; one made from ints reads its view off them when first
read.  Its sums, multiples, permutations and block tables, the zero test
and the nonzero scan run on the ints.

Tensors meet matrices in one loop, ``_contract``: it takes the middle axis
of a flat (pre, d, post) int tensor through a matrix's integer rows, one
multiply-add of plain ints per nonzero tensor entry and nonzero matrix
entry, the result over the product of the scales.  ``precompose_slot`` (a
slot through the matrix's rows), ``postcompose`` (the codomain through its
columns), ``eval`` (one slot per argument vector) and ``partial_map`` (a
slot through a unit vector) are a shape check and calls of it; so is
``Matrix.apply``, a vector being a tensor with no slots.
"""

from __future__ import annotations

import functools
import math
import sys
from collections.abc import Collection, Sequence
from fractions import Fraction
from itertools import chain, compress, count, islice, product, repeat
from operator import add, is_not, itemgetter, mul, sub
from typing import Callable, Iterable

from .fields import Field, Value, is_prime


class ShapeError(ValueError):
    """Dimension mismatch between operands."""


class EntryCapExceeded(ValueError):
    """A request would build or list more entries than its budget allows."""


# the default of every ``max_entries`` budget
MAX_ENTRIES = 10**6


def check_entries(count: int, max_entries: int) -> None:
    """Refuse a tensor of ``count`` entries over the budget, before it is built."""
    if count > max_entries:
        raise EntryCapExceeded("tensor with %d entries exceeds cap %d" % (count, max_entries))


class Matrix:
    """Matrix over ``field``, stored as (scale, {column: nonzero int} rows):
    the matrix times an int scale > 0, over F_p residues at scale 1.

    ``Matrix(field, rows)`` (a tuple of row tuples) and :meth:`from_sparse`
    (one {column: nonzero} dict per row) scale the rows once, over Q by the
    lcm of their denominators, and keep them as views; :meth:`from_ints`
    stores integer rows over a scale.  All arithmetic runs on the pair, and
    sums and multiples are stored at the least scale.  :meth:`int_rows`
    returns the pair; ``rows`` and, over Q, ``sparse_rows`` are views, read
    off it when first read and kept.  A matrix with no rows has no columns.

    Column convention: ``apply`` sends a coordinate vector v to M v, so the
    j-th column is the image of the j-th basis vector.
    """

    __slots__ = ("field", "_ints", "_ncols", "_rows", "_sparse", "_transpose", "_rank")

    def __init__(self, field: Field, rows: tuple):
        w = len(rows[0]) if rows else 0
        if any(len(r) != w for r in rows):
            raise ShapeError("ragged rows")
        # _nonzero_positions' test, inline: on short rows its call costs more
        zero, is_zero = field.zero, field.is_zero
        sparse = [{j: v for j, v in enumerate(r) if v is not zero and not is_zero(v)} for r in rows]
        self._store(field, _int_form(field, sparse), w, rows, sparse)

    def _store(self, field: Field, ints: tuple, ncols: int, rows=None, sparse=None) -> "Matrix":
        """Set every slot: the stored (scale, int rows) pair and the views given."""
        self.field, self._ints, self._ncols = field, ints, ncols if ints[1] else 0
        self._sparse = sparse if field.p is None else ints[1]     # over F_p, the int rows
        self._rows, self._transpose, self._rank = rows, None, None
        return self

    @staticmethod
    def from_sparse(field: Field, rows: list, ncols: int) -> "Matrix":
        """The matrix with one {column: nonzero} dict per row; the dicts are
        kept as its sparse rows, not copied, and must hold no zeros."""
        return Matrix.__new__(Matrix)._store(field, _int_form(field, rows), ncols, None, rows)

    @staticmethod
    def from_ints(field: Field, rows: list, scale: int, ncols: int) -> "Matrix":
        """rows / scale, for {column: nonzero int} ``rows`` and an int scale > 0:
        where new ints enter the field (D_n, products, the B step).  Over
        F_p the rows are reduced to residues at once; over Q, kept."""
        if (p := field.p) is not None:
            k = pow(scale, -1, p)
            return Matrix.from_sparse(
                field, [{j: r for j, v in row.items() if (r := v * k % p)} for row in rows], ncols)
        return Matrix.__new__(Matrix)._store(field, (scale, rows), ncols)

    @staticmethod
    def from_rows(field: Field, rows: Iterable[Sequence]) -> "Matrix":
        return Matrix(field, tuple(tuple(r) for r in rows))

    @staticmethod
    def zeros(field: Field, nrows: int, ncols: int) -> "Matrix":
        return Matrix.__new__(Matrix)._store(field, (1, [{} for _ in range(nrows)]), ncols)

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        return Matrix.__new__(Matrix)._store(field, (1, [{i: 1} for i in range(n)]), n)

    @staticmethod
    def scalar(field: Field, n: int, c) -> "Matrix":
        return Matrix.identity(field, n).scale(c)

    @property
    def rows(self) -> tuple:
        """The rows as row tuples, zeros as ``field.zero``, built once and kept:
        off the sparse rows if kept, else straight off the ints, keeping none."""
        if self._rows is None:
            rows = self._sparse or self._fraction_rows()
            self._rows = tuple(_dense(self.field.zero, self._ncols, rows))
        return self._rows

    @property
    def sparse_rows(self) -> list:
        """The rows as {column: nonzero} dicts; callers must not change them.
        Over F_p they are the int rows; over Q, read off them once and kept."""
        if self._sparse is None:
            self._sparse = list(self._fraction_rows())
        return self._sparse

    def _fraction_rows(self) -> Iterable:
        """The {column: Fraction} rows of the ints over Q, made one at a time,
        with one Fraction per distinct int."""
        scale, ints = self._ints
        enter = {v: Fraction(v, scale) for v in {v for row in ints for v in row.values()}}
        return ({c: enter[v] for c, v in row.items()} for row in ints)

    def int_rows(self) -> tuple:
        """(scale, rows), the stored form: {column: nonzero int} rows, the
        matrix times the int scale > 0; (1, residues) over F_p."""
        return self._ints

    @property
    def nrows(self) -> int:
        return len(self._ints[1])

    @property
    def ncols(self) -> int:
        return self._ncols

    def __eq__(self, other):
        if other.__class__ is not Matrix:
            return NotImplemented
        (s, A), (t, B) = self._ints, other._ints
        # A / s = B / t exactly when t A = s B
        return (self.field == other.field and self._ncols == other._ncols and len(A) == len(B)
                and all({j: v * t for j, v in a.items()} == {j: v * s for j, v in b.items()}
                        for a, b in zip(A, B)))

    def __hash__(self):
        return hash((self.field, self.rows))

    def __repr__(self):
        return "Matrix(field=%r, rows=%r)" % (self.field, self.rows)

    def entry(self, i: int, j: int):
        return self.rows[i][j]

    def __add__(self, other: "Matrix", sign: int = 1) -> "Matrix":
        """self + sign other: t A + sign s B over s t, in increasing column order."""
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ShapeError("shape mismatch")
        (s, A), (t, B) = self._ints, other._ints
        return self._made(s * t, [[(j, t * a.get(j, 0) + sign * s * b.get(j, 0))
                                   for j in sorted(a.keys() | b.keys())] for a, b in zip(A, B)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self.__add__(other, -1)

    def __neg__(self) -> "Matrix":
        return self.scale(-1)

    def scale(self, c) -> "Matrix":
        """c times the matrix: the ints times c's numerator over the scale
        times its denominator (over F_p c is a residue, over 1)."""
        (scale, A), n = self._ints, c.numerator
        return self._made(scale * c.denominator, [[(j, v * n) for j, v in a.items()] for a in A])

    def _made(self, scale: int, rows: list) -> "Matrix":
        """The (column, int) pairs of ``rows`` over ``scale``, zeros dropped and
        over F_p reduced mod p, as a matrix of this shape at its least scale."""
        p = self.field.p
        ints = [{j: x for j, x in row if x} if p is None else {j: r for j, x in row if (r := x % p)}
                for row in rows]
        return Matrix.__new__(Matrix)._store(self.field, _least(scale, ints), self._ncols)

    def __mul__(self, other: "Matrix") -> "Matrix":
        (sa, A), (sb, B) = self._factors(other)
        F = self.field
        return Matrix.from_ints(F, list(_product(A, B, other.ncols, F.p)), sa * sb, other.ncols)

    def product_is_zero(self, other: "Matrix") -> bool:
        """Whether self other = 0.  A row of ``self`` with one nonzero, at k,
        gives zero exactly when row k of ``other`` is empty (no nonzero int or
        residue times another is zero, mod p either); the rows with more are
        made, tested and dropped one at a time, and the empty ones skipped."""
        (_, A), (_, B) = self._factors(other)
        if any(B[k] for row in A if len(row) == 1 for k in row):
            return False
        p = self.field.p
        rows = _product([row for row in A if len(row) > 1], B, other.ncols, p)
        if p is None:
            return not any(rows)
        return not any(v % p for row in rows for v in row.values())

    def _factors(self, other: "Matrix") -> tuple:
        """The integer rows of ``self`` and ``other``, after a shape check
        of their product."""
        if self.ncols != other.nrows:
            raise ShapeError("matmul %dx%d by %dx%d" % (self.nrows, self.ncols, other.nrows, other.ncols))
        return self.int_rows(), other.int_rows()

    def apply(self, vec: Sequence) -> tuple:
        if len(vec) != self.ncols:
            raise ShapeError("apply %dx%d to vector of length %d" % (self.nrows, self.ncols, len(vec)))
        return _field_values(self.field, *self.apply_ints(*_flat_form(self.field, vec)))

    def apply_ints(self, scale: int, ints: Sequence) -> tuple:
        """(scale, flat ints), not reduced mod p, of this matrix times ``ints`` over ``scale``."""
        t, cols = self.transpose().int_rows()
        return scale * t, _contract(ints, 1, 1, cols, self.nrows)

    def transpose(self) -> "Matrix":
        """The transpose, built from the ints on first use and kept."""
        if self._transpose is None:
            scale, rows = self._ints
            cols = [{} for _ in range(self._ncols)]
            for i, row in enumerate(rows):
                for j, v in row.items():
                    cols[j][i] = v
            self._transpose = Matrix.__new__(Matrix)._store(self.field, (scale, cols), len(rows))
        return self._transpose

    def right_inverse(self) -> "Matrix | None":
        """The X with self X = I whose column k is the RREF solution of
        self x = e_k (free variables at zero), from one row reduction of
        [self | I]; None unless ``self`` is onto."""
        F, r = self.field, self.nrows
        rows = _solve_block(self, [{i: F.one} for i in range(r)], r)
        return None if rows is None else Matrix.from_sparse(F, rows, r)

    def inverse(self) -> "Matrix":
        """Inverse of a square matrix: its right inverse."""
        if self.nrows != self.ncols:
            raise ShapeError("only square matrices invert")
        inv = self.right_inverse()
        if inv is None:
            raise ValueError("matrix is singular")
        return inv

    def is_zero(self) -> bool:
        return not any(self._ints[1])

    def block_diag(self, other: "Matrix") -> "Matrix":
        (s, A), (t, B), k = self._ints, other._ints, self._ncols
        rows = [{j: v * t for j, v in a.items()} for a in A]
        rows += [{j + k: v * s for j, v in b.items()} for b in B]
        return Matrix.__new__(Matrix)._store(self.field, (s * t, rows), k + other._ncols)


def _nonzero_positions(field: Field, values: Sequence) -> list:
    """Indices of the nonzero entries of ``values``.

    Entries that are the field's shared ``zero`` object are passed over at C
    speed; only the others go through ``field.is_zero``.
    """
    is_zero = field.is_zero
    maybe = compress(count(), map(is_not, values, repeat(field.zero)))
    return [i for i in maybe if not is_zero(values[i])]


def _rref_mod(p: int, rows: list) -> tuple:
    """Reduce int ``rows`` (lists of residues mod the prime ``p``) to RREF in place.

    Returns (pivots, order): the pivot columns, and the index in ``rows`` of
    each pivot's row.  ``rows`` ends as the (unique) RREF rows in pivot
    order, then zeros.

    Gauss-Jordan row by row, in index order, against the basis of the rows
    before, kept in RREF: a basis row is zero at the other pivots, so a row's
    multipliers are its entries there, read once, and an update touches only
    the basis row's nonzeros off its pivot.  A row left nonzero is scaled at
    its first nonzero c and clears column c from the basis rows ``where[c]``
    lists; a row left zero stays.  So row i is the pivot row of c when the
    rows before it span it on the columns before c, not on those up to c:
    Gauss-Jordan's choice, its pivot rows for the columns up to c being their
    lowest-index row basis.  So pivots, ``order`` and rows are Gauss-Jordan's.
    """
    nc = len(rows[0]) if rows else 0
    at, terms = {}, {}      # pivot column: its row's index; that row's (column, residue) after it, or None
    mask = [0] * nc                     # 1 at the pivot columns
    where = [[] for _ in range(nc)]     # pivots whose row may be nonzero at a free column
    for i, row in enumerate(rows):
        for c in list(compress(range(nc), map(mul, row, mask))):
            f, row[c] = p - row[c], 0
            if (ts := terms[c]) is None:
                b = rows[at[c]]
                ts = terms[c] = [(j, b[j]) for j in compress(range(c + 1, nc), islice(b, c + 1, None))]
            for j, y in ts:
                row[j] = (row[j] + f * y) % p
        if (c := next(compress(range(nc), row), None)) is None:
            continue
        inv, row[c] = pow(row[c], -1, p), 1
        ts = [(j, inv * row[j] % p) for j in compress(range(c + 1, nc), islice(row, c + 1, None))]
        for j, y in ts:
            row[j] = y
            where[j].append(c)
        for k in where[c]:
            b = rows[at[k]]
            if x := b[c]:
                f, b[c], terms[k] = p - x, 0, None
                for j, y in ts:
                    if not (x := b[j]):
                        where[j].append(k)
                    b[j] = (x + f * y) % p
        where[c], at[c], terms[c], mask[c] = None, i, ts, 1
    pivots = sorted(at)
    order = list(map(at.__getitem__, pivots))
    kept = set(order)
    rows[:] = [rows[i] for i in order] + [row for i, row in enumerate(rows) if i not in kept]
    return pivots, order


# The moduli of the Q path are the primes below 2**30, largest first: a residue
# is then one digit of a Python int, where arithmetic is fastest (a 900 x 175
# matrix reduced in 0.5-0.7 s at 30 bits, 1.0-1.4 s at 31 and 1.3-1.9 s at 62).
_PRIME_TOP = 2**30


@functools.cache
def _prime(k: int) -> int:
    """The k-th prime below ``_PRIME_TOP``, counting down from 0; found on
    first use and kept."""
    n = (_prime(k - 1) if k else _PRIME_TOP + 1) - 2
    while not is_prime(n):
        n -= 2
    return n


def _primes():
    """The primes below ``_PRIME_TOP`` in decreasing order."""
    return map(_prime, count())


def _scaled(xs: Collection) -> tuple:
    """(d, [d x for x in xs]): the rationals ``xs`` scaled to integers by d,
    the lcm of their denominators."""
    d = math.lcm(*(x.denominator for x in xs))
    return d, [x.numerator * (d // x.denominator) for x in xs]


def _least(scale: int, rows: list) -> tuple:
    """(scale, rows) of {column: nonzero int} ``rows`` over ``scale`` at
    the least scale: both divided by their gcd, scale 1 for a zero matrix."""
    if scale == 1 or (g := math.gcd(scale, *(v for row in rows for v in row.values()))) == 1:
        return scale, rows
    return scale // g, [{j: v // g for j, v in row.items()} for row in rows]


def _int_form(field: Field, rows: list) -> tuple:
    """(scale, int rows) of {column: nonzero} ``rows``: (1, ``rows``) over
    F_p, and over Q the rows times the lcm of their denominators."""
    if field.p is not None:
        return 1, rows
    scale, ints = _scaled([v for row in rows for v in row.values()])
    it = iter(ints)     # zip takes from the row first, so each row takes its own ints
    return scale, [dict(zip(row, it)) for row in rows]


def _dense(zero, nc: int, rows: Iterable) -> Iterable:
    """Each {column: nonzero} dict of ``rows`` as a tuple of ``nc``
    entries, the others ``zero``, made one at a time."""
    for r in rows:
        row = [zero] * nc
        for c, v in r.items():
            row[c] = v
        yield tuple(row)


def _free_columns(nc: int, pivots: list, rows: list) -> dict:
    """{free column c: [(pivot, R[k][c]), ...]} of the reduced {column:
    nonzero} rows R, with or without their pivot entries."""
    pset = set(pivots)
    support = {c: [] for c in range(nc) if c not in pset}
    for pc, row in zip(pivots, rows):
        for c, x in row.items():
            if c != pc:
                support[c].append((pc, x))
    return support


def _packed_dots(rows: list, packs: Iterable, w: int) -> Iterable:
    """Each (columns, int values) row of ``rows`` times the integers sum v
    2**(t w) over the (t, v) pairs of each pack (Kronecker substitution),
    made one at a time: digit t of a result is the row times the vector of
    the t-th digits."""
    packed = [sum(v << (t * w) for t, v in pack) for pack in packs]
    get = packed.__getitem__
    return (sum(map(mul, vals, map(get, cols))) for cols, vals in rows)


# A matrix, and after the peel a column component, of at most this many
# entries (nonzero rows times columns) is reduced whole and, over Q, from the
# first prime below 2**30: on such D_n, finding the components cost more
# than reducing them apart saved, and a pass at a small prime more than it
# saved the later primes.
_SPLIT_MIN_ENTRIES = 32_000


def _partition(A: list, cols: list) -> list:
    """The column components of the (columns, int values) rows ``A`` over
    the columns ``cols``, two columns joined when a row holds both, as
    (rows, columns) pairs: each component's rows with their columns
    renumbered within it, and its columns, of ``cols``, in increasing order.
    One component, or at most ``_SPLIT_MIN_ENTRIES`` entries in ``A``, gives
    [(A, cols)], and no row []; the scan stops once every column is joined."""
    nc = len(cols)
    if len(A) * nc <= _SPLIT_MIN_ENTRIES:
        return [(A, cols)] if A else []
    comp, members = list(range(nc)), [[c] for c in range(nc)]
    for cs, _ in A:
        ids = set(map(comp.__getitem__, cs)) if len(cs) > 1 else ()
        if len(ids) > 1:
            big = max(map(members.__getitem__, ids), key=len)
            root = comp[big[0]]
            for k in ids - {root}:
                for c in members[k]:
                    comp[c] = root
                big += members[k]
            if len(big) == nc:
                return [(A, cols)]
    groups = {}
    for row in A:
        groups.setdefault(comp[next(iter(row[0]))], []).append(row)
    if len(groups) == 1:
        return [(A, cols)]
    parts = []
    for k, rows in groups.items():
        own = sorted(members[k])
        local = dict(zip(own, count()))
        parts.append(([(list(map(local.__getitem__, cs)), vals) for cs, vals in rows],
                      list(map(cols.__getitem__, own))))
    return parts


def _reduce(p: int, A: list, run: Sequence, nc: int) -> tuple:
    """(pivots, order, rest) of the RREF mod the prime ``p`` of the rows
    ``run`` of the (columns, int values) rows ``A``, ``nc`` columns wide:
    the pivot columns, each pivot's row of ``A``, and each RREF row's
    {column: residue} after its pivot."""
    work = []
    for i in run:
        row = [0] * nc
        for j, a in zip(*A[i]):
            row[j] = a % p
        work.append(row)
    pivots, order = _rref_mod(p, work)
    rest = []
    for pc, row in zip(pivots, work):
        js = list(compress(range(pc + 1, nc), islice(row, pc + 1, None)))
        rest.append(dict(zip(js, map(row.__getitem__, js))))
    return pivots, list(map(run.__getitem__, order)), rest


def _crt(acc: list, m: int, residues: list, p: int) -> list:
    """The residues mod m * p that are ``acc`` mod m and ``residues`` mod p,
    entry by entry (one dict {column: residue} per row, zeros left out)."""
    inv, out = pow(m, -1, p), []
    for a, r in zip(acc, residues):
        row = {}
        for c in sorted(a.keys() | r.keys()):
            x = a.get(c, 0)
            row[c] = x + m * ((r.get(c, 0) - x) * inv % p)
        out.append(row)
    return out


def _rational(u: int, m: int, T: int):
    """(n, d) with n/d = u mod m by maximal-quotient rational reconstruction
    (Monagan, ISSAC 2004), or None when no quotient of the Euclidean
    sequence exceeds ``T``."""
    n = d = 0
    r0, t0, r1, t1 = m, 0, u, 1
    while r1 and r0 > T:
        q, r = divmod(r0, r1)
        if q > T:
            n, d, T = r1, t1, q
        r0, r1, t0, t1 = r1, r, t1, t0 - q * t1
    if not d or math.gcd(n, d) != 1:
        return None
    return (-n, -d) if d < 0 else (n, d)


def _reconstruct(acc: list, m: int):
    """The rationals with the residues ``acc`` mod ``m`` (one dict
    {column: residue} per row, zeros left out), or None if one fails.

    The denominators found so far are kept as one common multiple ``den``; a
    residue whose multiple by ``den`` is already small is read off without a
    Euclidean run.
    """
    T = m.bit_length() << 10
    half, den, out = m >> 1, 1, []
    for row in acc:
        vals = {}
        for c, u in row.items():
            n = u * den % m
            if n > half:
                n -= m
            if abs(n) * T >= m:
                nd = _rational(u * den % m, m, T)
                if nd is None:
                    return None
                n, d = nd
                den *= d
            vals[c] = Fraction(n, den)
        out.append(vals)
    return out


def _certified(A: list, nc: int, pivots: list, values: list) -> bool:
    """Whether each v_c (1 at the free column c, -R[k][c] at pivot k, 0
    elsewhere) satisfies A v_c = 0 exactly, on every row of ``A``.

    ``values[k]`` holds the nonzero R[k][c] at free columns c.  Each -v_c is
    scaled to integers and is one digit of the integers packed per column of
    A, so a row of A times them gives every entry of A v_c at once.  The
    digits hold each entry with its sign: the sum is zero only when all are.
    """
    support = _free_columns(nc, pivots, values)
    if not support or not A:
        return True
    packs, wmax = [[] for _ in range(nc)], 1
    for t, (c, col) in enumerate(support.items()):
        d, ints = _scaled([x for _, x in col])
        packs[c].append((t, -d))
        for (pc, _), v in zip(col, ints):
            packs[pc].append((t, v))
        wmax = max(wmax, d, *map(abs, ints))
    w = _digit_width(max(sum(map(abs, vals)) for _, vals in A) * wmax)
    return not any(_packed_dots(A, packs, w))


def _small_prime(scale: int) -> int | None:
    """The first of 7, 11 and 13 that does not divide ``scale``, or None.

    Modulo a prime below 16, every x + f y of ``_rref_mod`` is a small int
    that Python keeps cached, and more entries cancel.  A prime that divides
    the scale of a D_n zeroes each of its blocks of lower D-power: modulo
    13 the dual D_2 after a basis change (D = 3120 = 2**4 3 5 13) has rank
    9, not 12, once each row is divided by its gcd (2 before)."""
    return next((q for q in (7, 11, 13) if scale % q), None)


def _lift(A: list, nc: int, q: int, first: tuple) -> tuple:
    """(pivots, each RREF row's {column: Fraction} after its pivot) over Q
    of one column component, its (columns, int values) rows ``A`` ``nc``
    columns wide, from ``first``, the ``_reduce`` of all of them modulo the
    prime ``q``.

    The primes of ``_primes`` other than q follow, each reducing only the
    rows that the best prime so far picked, in increasing order: rows
    independent mod p are independent over Q.  A prime whose pivots are
    worse than the best seen (lower rank, or the same rank and
    lexicographically later) is dropped; one with better pivots starts the
    accumulation anew, and one with the same pivots, q's included, is
    combined by CRT.  The entries at (pivot row, free column) are rationally
    reconstructed.  The result stands once the certificate ``_certified``
    holds on every row; when it fails, the next prime reduces all rows
    again, so an unlucky prime costs time and not correctness.

    The certificate is a proof: each v_c is supported on c and on pivots
    before c, so A v_c = 0 over Q makes every column that is free mod p free
    over Q.  Since the rank mod p is at most the rank over Q, the pivots are
    the same, and since RREF is unique the rows are the RREF over Q.
    """
    best, run = None, range(len(A))     # (-rank, pivots) of the best prime so far
    # each later prime reduces ``run`` as it is when that prime is drawn
    later = ((p, _reduce(p, A, run, nc)) for p in _primes() if p != q)
    for p, (pivots, order, residues) in chain([(q, first)], later):
        key = (-len(pivots), pivots)
        if best is not None and key > best:
            continue
        if best is None or key < best:
            best, m, acc, picked = key, p, residues, sorted(order)
        else:
            acc = _crt(acc, m, residues, p)
            m *= p
        run = picked
        values = _reconstruct(acc, m)
        if values is None:
            continue
        if _certified(A, nc, pivots, values):
            return pivots, values
        run = range(len(A))


def _peel(rows: list, nc: int, flip: bool = False) -> tuple:
    """(peeled, rest, cols) of the nonzero {column: nonzero} ``rows`` of a
    matrix with ``nc`` columns, which are left as they are.

    A row whose one nonzero is at column c puts e_c in the row space, so c
    is deleted from every row; rows that are left with one nonzero are
    peeled in turn, and rows left with none are dropped (LaMacchia &
    Odlyzko 1990).  ``peeled`` lists the deleted columns in increasing
    order; ``rest`` holds the rows left with two nonzeros or more (every
    row, when none is a singleton), renumbered onto the columns they touch
    (the rows themselves when no column changes its number), and ``cols``
    the old number of each new column, in increasing order.  With ``flip``
    the columns are those of the matrix with its columns reversed (j ->
    nc-1-j), which is never built: the peeled set does not depend on the
    order of the columns, and the rows left over are renumbered in
    decreasing order of their columns.
    """
    left = list(map(len, rows))            # nonzeros not yet peeled, per row
    queue = [i for i, n in enumerate(left) if n == 1]
    peeled = set()
    if queue:
        where = [[] for _ in range(nc)]    # the rows that hold each column
        for i, row in enumerate(rows):
            for c in row:
                where[c].append(i)
        while queue:
            i = queue.pop()
            if left[i] != 1:               # its last column was peeled from another row
                continue
            c = next(c for c in rows[i] if c not in peeled)
            peeled.add(c)
            for j in where[c]:
                left[j] -= 1
                if left[j] == 1:
                    queue.append(j)
    live = [row for row, n in zip(rows, left) if n]
    cols = sorted(set().union(*live) - peeled, reverse=flip)
    local = dict(zip(cols, count()))
    rest = live if len(cols) == nc and not flip else [
        {local[c]: v for c, v in row.items() if c in local} for row in live]
    if flip:
        peeled, cols = {nc - 1 - c for c in peeled}, [nc - 1 - c for c in cols]
    return sorted(peeled), rest, cols


def _echelon(field: Field, scaled: tuple, nc: int, bound: int | None = None,
              flip: bool = False) -> tuple:
    """(pivots, RREF rows as {column: nonzero}) of the matrix whose (scale,
    {column: nonzero int} rows) are ``scaled``, as ``Matrix.int_rows``
    gives them (residues over F_p), left as they are; with ``flip``, of that
    matrix with its columns reversed (j -> nc-1-j), which is never built.

    One pipeline for both fields: peel, split, a first pass, one bound
    check, over Q a lift, and a merge.  Singleton rows are peeled first
    (``_peel``), with no arithmetic.  A peeled column c has e_c in the row
    space, and every vector of the row space is fixed by its entries at the
    pivot columns, so the RREF row of pivot c is e_c.  The rows left over,
    zero at the peeled columns, span the rest of the row space, and their
    RREF rows, zero at every peeled pivot, are the other RREF rows.  They
    are split into column components (``_partition``): a component's rows
    are zero off its columns, so their RREF rows are RREF rows of the whole
    matrix.  Each component is reduced on its own columns alone, so the Q
    certificate never reads a peeled column, or another component's, as
    free.

    A component's first prime is the field's own over F_p, where its RREF is
    the answer.  Over Q each row is divided by the gcd of its entries, which
    one scale for a whole matrix can leave large; the first prime is
    ``_small_prime(scale)`` for a component of more than
    ``_SPLIT_MIN_ENTRIES`` entries and the first of ``_primes`` for any
    other, and ``_lift`` goes on from it.  A rank mod p is at most the rank
    over Q, so when the peeled pivots and the first primes' ranks number at
    least ``bound``, the elimination ends there, with those pivots and None
    for the rows.
    """
    scale, rows = scaled
    peeled, rest, cols = _peel([r for r in rows if r], nc, flip)
    p = field.p
    A = [(r, [v // g for v in r.values()] if p is None and (g := math.gcd(*r.values())) > 1
          else r.values()) for r in rest]
    firsts = []
    for B, own in _partition(A, cols):
        large = len(B) * len(own) > _SPLIT_MIN_ENTRIES
        q = p or (large and _small_prime(scale)) or next(_primes())
        firsts.append((B, own, q, _reduce(q, B, range(len(B)), len(own))))
    if bound is not None and len(peeled) + sum(len(f[0]) for *_, f in firsts) >= bound:
        return sorted([*peeled, *(own[pc] for _, own, _, f in firsts for pc in f[0])]), None
    one = field.one
    out = [(c, {c: one}) for c in peeled]
    for B, own, q, first in firsts:
        pivots, vals = (first[0], first[2]) if p else _lift(B, len(own), q, first)
        out += ((own[pc], {own[pc]: one, **{own[c]: v for c, v in row.items()}})
                for pc, row in zip(pivots, vals))
    out.sort(key=itemgetter(0))
    return [pc for pc, _ in out], [row for _, row in out]


def rref_vectors(field: Field, vectors: Iterable[Sequence]) -> tuple:
    """Canonical (RREF) basis of the span of ``vectors``.

    Returns (basis, pivots): basis rows in RREF with unit leading entries,
    pivots their leading-column indices.
    """
    rows = list(vectors)
    nc = len(rows[0]) if rows else 0
    if any(len(r) != nc for r in rows):
        raise ShapeError("ragged vectors")
    pivots, red = _echelon(field, Matrix.from_rows(field, rows).int_rows(), nc)
    return list(_dense(field.zero, nc, red)), pivots


def rank_and_kernel(m: Matrix) -> tuple:
    """Rank and canonical kernel basis of ``m`` (vectors v with M v = 0).

    The kernel basis is indexed by free columns in increasing order: the basis
    vector for free column c has a 1 at c, 0 at the other free columns, and
    the negated RREF coefficients at pivot columns.
    """
    F, n = m.field, m.ncols
    pivots, red = _echelon(F, m.int_rows(), n)
    # each vector is made as a list and kept as a tuple, one at a time, so
    # the kernel is not held twice
    kernel = []
    for c, entries in _free_columns(n, pivots, red).items():
        v = [F.zero] * n
        v[c] = F.one
        for pc, x in entries:
            v[pc] = F.neg(x)
        kernel.append(tuple(v))
    return len(pivots), kernel


def modular_rank(m: Matrix) -> int | None:
    """The kept exact rank of ``m``, or over Q a lower bound on it from
    ``_echelon``'s first pass alone (the peeled pivots and each column
    component's rank at its first prime), which reads no kernel; over F_p,
    where that pass would cost as much as an exact elimination, None unless
    a rank is kept."""
    if m._rank is None and m.field.p is None:
        return len(_echelon(m.field, m.int_rows(), m.ncols, 0)[0])
    return m._rank


def kernel_rref(m: Matrix, bound: int | None = None):
    """(basis, pivots): the RREF basis of the kernel of ``m``, one {column:
    nonzero} dict per vector, and its pivots, from one elimination, whose
    rank is exact and is kept on ``m``.

    The columns are reversed (j -> N-1-j), in the renumbering of the rows
    left after the singleton peel alone, and reduced once.  The kernel
    vector of the reversed matrix's free column c has its 1 at c and -R[k][c]
    at the pivots before c; read back in the original columns, its 1 is at
    N-1-c, it is 0 at the other free columns and its other nonzeros come
    after N-1-c.  Ordered by decreasing c, these vectors are the RREF basis
    of ker m, which is unique, and the pivot of each is N-1-c.

    ``bound`` is an upper bound on the rank of ``m`` that the caller has
    proven.  When the kept rank, or the rank after ``_echelon``'s first pass
    (the peeled pivots and each column component's rank at its first
    prime), reaches it, that rank, an int, is returned in place of a basis,
    with no kernel read, and kept if equal to the bound, so exact.
    """
    F, n = m.field, m.ncols
    if bound is not None and m._rank is not None and m._rank >= bound:
        return m._rank
    pivots, red = _echelon(F, m.int_rows(), n, bound, True)     # columns reversed
    if red is None:
        if len(pivots) == bound:
            m._rank = bound
        return len(pivots)
    m._rank = len(pivots)
    free = _free_columns(n, pivots, red)
    basis = [{n - 1 - c: F.one, **{n - 1 - pc: F.neg(x) for pc, x in reversed(free[c])}}
             for c in reversed(free)]
    return basis, [n - 1 - c for c in reversed(free)]


def _solve_block(m: Matrix, B: list, nb: int):
    """The {column: nonzero} rows of the X with m X = B and its free
    variables at zero, B given as one {column: nonzero} dict per row of m and
    ``nb`` columns, from one row reduction of the integer rows of [m | B]
    (each row times both scales); None when a pivot falls in the B block."""
    F, n = m.field, m.ncols
    (s, A), (d, C) = m.int_rows(), Matrix.from_sparse(F, B, nb).int_rows()
    aug = [{**{j: v * d for j, v in row.items()}, **{n + k: v * s for k, v in rhs.items()}}
           for row, rhs in zip(A, C)]
    pivots, red = _echelon(F, (s * d, aug), n + nb)
    if pivots and pivots[-1] >= n:
        return None
    X = [{} for _ in range(n)]
    for pc, row in zip(pivots, red):
        X[pc] = {k - n: v for k, v in row.items() if k >= n}
    return X


def solve_linear(m: Matrix, b: Sequence):
    """One solution of M x = b, or None if inconsistent.

    Deterministic: free variables are set to zero, so the particular solution
    is the RREF-canonical one.
    """
    if len(b) != m.nrows:
        raise ShapeError("rhs length %d for %dx%d system" % (len(b), m.nrows, m.ncols))
    F = m.field
    X = _solve_block(m, [{} if F.is_zero(bv) else {0: bv} for bv in b], 1)
    return None if X is None else tuple(row.get(0, F.zero) for row in X)


def _product(A: list, B: list, nc: int, p: int | None) -> Iterable:
    """The {column: nonzero int} rows of the integer product A B, for such
    rows A and B, B with ``nc`` columns, made one at a time; ``p`` is None
    or the prime of F_p, whose residues are lifted to least absolute value
    when B is packed.

    When B holds at most 2 nonzeros per row on average, the rows of B are
    walked (``_walked_rows``).  Otherwise they are packed, each into one
    integer, ``w`` bits per column (``_packed_dots``), and the digits of a
    result, read as signed w-bit numbers, are the entries of the integer
    product.  No digit can carry: ``w`` holds the largest possible |entry|,
    the largest absolute row sum of A times the largest |entry| of B, with
    the sign bit to spare.  The lift keeps ``w`` small, and a product of
    matrices with small integer entries, such as D_{n+1} D_n, zero over the
    integers and not only mod p.
    """
    # walking took 0.28-0.55 of the packed time on the standard-basis D_{n+1} D_n
    # (0.53-0.88 nonzeros per row of D_n), and 1.6-4.2 of it over Q after a
    # basis change (2.75-8.2 per row)
    if sum(map(len, B)) <= 2 * len(B):
        return _walked_rows(A, B)
    left = [(row.keys(), row.values()) for row in A]
    if p is not None:
        left = [(cols, [v - p if 2 * v > p else v for v in vals]) for cols, vals in left]
        B = [{j: v - p if 2 * v > p else v for j, v in row.items()} for row in B]
    bound = (max((sum(map(abs, vals)) for _, vals in left), default=0)
             * max((abs(v) for row in B for v in row.values()), default=0))
    w = _digit_width(bound)
    offset = (1 << (w - 1)) * (((1 << (nc * w)) - 1) // ((1 << w) - 1))
    return (_unpack(s + offset, w, nc) if s else {}
            for s in _packed_dots(left, (row.items() for row in B), w))


def _walked_rows(A: list, B: list) -> Iterable:
    """The {column: nonzero int} rows of the integer product A B, made one
    at a time, in increasing column order: each nonzero a_k of a row of A
    adds a_k times row k of B (Gustavson 1978).  An empty row gives an
    empty one, and a row with the one nonzero a_k is a_k times row k of B,
    summed over nothing."""
    for row in A:
        if len(row) == 1:
            (k, a), = row.items()
            row = {j: a * b for j, b in B[k].items()}
        elif row:
            acc = {}
            get = acc.get
            for k, a in row.items():
                for j, b in B[k].items():
                    acc[j] = get(j, 0) + a * b
            row = {j: x for j, x in acc.items() if x}
        # an empty row of A gives a new empty row, not A's own
        yield dict(sorted(row.items())) if len(row) > 1 else row or {}


def _digit_width(bound: int) -> int:
    """Bits per column of a packed row whose entries are at most ``bound`` in
    absolute value: bound.bit_length() and a sign bit, rounded up to whole
    bytes so that the digits can be read off the packed integer's bytes."""
    return (bound.bit_length() + 8) // 8 * 8


# the array codes of unsigned digits of 1, 2, 4 and 8 bytes
_DIGIT_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _unpack(u: int, w: int, nc: int) -> dict:
    """The {column: nonzero int} entries of a packed product row, given as
    ``u``, the row plus 2**(w-1) in every digit, so each digit is unsigned."""
    nb, half = w // 8, 1 << (w - 1)
    raw = u.to_bytes(nc * nb, sys.byteorder)
    if nb in _DIGIT_CODES:
        digits = memoryview(raw).cast(_DIGIT_CODES[nb]).tolist()
    else:
        digits = [int.from_bytes(raw[k:k + nb], sys.byteorder) for k in range(0, nc * nb, nb)]
    return {j: digits[j] - half for j in compress(range(nc), map(half.__ne__, digits))}


def _contract(entries: Sequence, pre: int, post: int, maps: list, d_new: int) -> list:
    """The flat (pre, d_new, post) int tensor out[a, i, t] = sum_s maps[s][i] *
    entries[a, s, t]: the middle axis of the flat (pre, len(maps), post) int
    tensor ``entries`` taken through ``maps``, one {new index: nonzero int}
    dict per old index, such as a matrix's integer rows.

    Only nonzero entries are multiplied.  This is the one loop that
    multiplies tensor entries by matrix entries, all plain ints: the caller
    keeps the scales and, over F_p, reduces the result.
    """
    d_old = len(maps)
    out = [0] * (pre * d_new * post)
    for k in compress(count(), entries):
        b, t = divmod(k, post)
        a, s = divmod(b, d_old)
        e, base = entries[k], a * d_new * post + t
        for i, c in maps[s].items():
            out[base + i * post] += c * e
    return out


def _flat_form(field: Field, values: Sequence, nonzero: dict | None = None) -> tuple:
    """(scale, flat ints) of the field values ``values``: over F_p (1, the
    residues themselves), over Q the values times the lcm of their
    denominators, the least scale.  ``nonzero``, {flat index: value} of
    every nonzero value, is found by ``_nonzero_positions`` unless given."""
    if field.p is not None:
        return 1, tuple(values)
    if nonzero is None:
        nonzero = {k: values[k] for k in _nonzero_positions(field, values)}
    scale, ints = _scaled(nonzero.values())
    flat = [0] * len(values)
    for k, v in zip(nonzero, ints):
        flat[k] = v
    return scale, tuple(flat)


def _field_values(field: Field, scale: int, ints: Sequence) -> tuple:
    """The field values of the flat ``ints`` over ``scale``: over F_p (scale
    1) their residues; over Q ``field.zero`` for each 0 and one Fraction per
    distinct nonzero int."""
    if (p := field.p) is not None:
        return tuple(map(p.__rmod__, ints))
    enter = {v: Fraction(v, scale) if v else field.zero for v in set(ints)}
    return tuple(map(enter.__getitem__, ints))


class MultiTensor(Value):
    """Multilinear map V_1 x ... x V_k -> W in coordinates, stored as (scale,
    flat ints): the entries times an int scale > 0, at the least such scale,
    and over F_p residues at scale 1.

    ``dims`` are the domain dimensions per slot, ``cod`` the codomain
    dimension.  Entries are flat, index (i_1,...,i_k,j) lexicographic with
    the codomain index fastest.  Arity 0 is allowed: the tensor is then just
    a vector of length ``cod``.

    ``MultiTensor(field, dims, cod, entries)`` scales the field values
    ``entries`` once and keeps that tuple as its view, as does
    :meth:`from_sparse`; :meth:`from_ints` stores flat ints over a scale.
    All arithmetic runs on the ints, and every result is made by
    ``from_ints``.  ``entries``, the value's field, is a view: the tuple
    given, or read off the ints when first read and kept.
    """

    __slots__ = ("field", "dims", "cod", "_entries", "_ints")
    _fields = ("field", "dims", "cod", "entries")

    def __init__(self, field: Field, dims: tuple, cod: int, entries: tuple):
        if len(entries) != (size := math.prod(dims) * cod):
            raise ShapeError("entry count %d, expected %d" % (len(entries), size))
        self._init(field, dims, cod, entries, _flat_form(field, entries))

    @staticmethod
    def from_sparse(field: Field, dims: tuple, cod: int, values: dict) -> "MultiTensor":
        """The tensor with the nonzero field values ``values`` at their flat
        indices and zeros elsewhere; its view is made at once."""
        entries = [field.zero] * (math.prod(dims) * cod)
        for k, v in values.items():
            entries[k] = v
        return MultiTensor.__new__(MultiTensor)._init(field, dims, cod, tuple(entries),
                                                      _flat_form(field, entries, values))

    @staticmethod
    def from_ints(field: Field, dims: tuple, cod: int, ints: Iterable, scale: int) -> "MultiTensor":
        """The tensor of the flat ``ints`` over the int ``scale`` > 0 (1 over
        F_p), stored at the least scale; over F_p the ints are reduced to
        residues, which are also its entries."""
        if (p := field.p) is not None:
            ints = map(p.__rmod__, ints)
        elif scale != 1 and (g := math.gcd(scale, *(ints := tuple(ints)))) > 1:
            scale, ints = scale // g, (v // g for v in ints)
        return MultiTensor._stored(field, dims, cod, tuple(ints), scale)

    @staticmethod
    def _stored(field: Field, dims: tuple, cod: int, ints: tuple, scale: int) -> "MultiTensor":
        """The tensor storing (``scale``, ``ints``) as given: the least scale, residues over F_p."""
        return MultiTensor.__new__(MultiTensor)._init(field, dims, cod, ints if field.p else None, (scale, ints))

    @property
    def entries(self) -> tuple:
        """The entries as field values, read off the ints over Q."""
        if self._entries is None:
            object.__setattr__(self, "_entries", _field_values(self.field, *self._ints))
        return self._entries

    def int_entries(self) -> tuple:
        """(scale, flat ints), the stored form; (1, residues) over F_p."""
        return self._ints

    @property
    def arity(self) -> int:
        return len(self.dims)

    @staticmethod
    def zeros(field: Field, dims: Sequence[int], cod: int) -> "MultiTensor":
        dims = tuple(dims)
        return MultiTensor._stored(field, dims, cod, (0,) * (math.prod(dims) * cod), 1)

    @staticmethod
    def from_map(field: Field, dims: Sequence[int], cod: int, fn: Callable) -> "MultiTensor":
        """Build from ``fn(*basis_indices) -> coordinate vector of length cod``."""
        dims = tuple(dims)
        entries = []
        for idx in product(*map(range, dims)):
            v = fn(*idx)
            if len(v) != cod:
                raise ShapeError("value of length %d, expected %d" % (len(v), cod))
            entries.extend(v)
        return MultiTensor(field, dims, cod, tuple(entries))

    @staticmethod
    def from_blocks(field: Field, dims: Sequence[int], blocks: dict) -> "MultiTensor":
        """The bilinear map on the direct sum V_0 + V_1 + ... (dim V_i =
        dims[i]) whose part V_i x V_j -> V_k is the tensor blocks[i, j, k];
        the parts not listed are zero.  The blocks' ints are brought to the
        product of their scales, which only over Q needs ``from_ints``."""
        N = sum(dims)
        out = [0] * N ** 3
        start = [sum(dims[:i]) for i in range(len(dims))]
        scale = math.prod(t._ints[0] for t in blocks.values())
        for (i, j, k), t in blocks.items():
            (s, ints), w = t._ints, dims[k]
            for x, y in product(range(dims[i]), range(dims[j])):
                dst, src = ((start[i] + x) * N + start[j] + y) * N + start[k], (x * dims[j] + y) * w
                out[dst:dst + w] = ints[src:src + w] if s == scale else [v * (scale // s) for v in ints[src:src + w]]
        return (MultiTensor._stored if field.p else MultiTensor.from_ints)(field, (N, N), N, tuple(out), scale)

    def offset(self, idx: tuple) -> int:
        off = 0
        for i, d in zip(idx, self.dims):
            off = off * d + i
        return off * self.cod

    def value_at(self, *idx) -> tuple:
        """Value on basis elements: a codomain coordinate vector."""
        off = self.offset(idx)
        return self.entries[off:off + self.cod]

    def nonzero_values(self):
        """(index tuple, value) of each basis tuple with a nonzero value, in
        lexicographic order; the values are read off the view."""
        cod, ints = self.cod, self._ints[1]
        for k, idx in enumerate(product(*map(range, self.dims))):
            if any(ints[k * cod:(k + 1) * cod]):
                yield idx, self.entries[k * cod:(k + 1) * cod]

    def eval(self, args: Sequence[Sequence]) -> tuple:
        """Full multilinear evaluation on coordinate vectors: each slot
        through the one-column matrix of its argument."""
        if len(args) != self.arity:
            raise ShapeError("expected %d arguments" % self.arity)
        t = self
        for k, a in enumerate(args):
            t = t.precompose_slot(k, Matrix.from_rows(self.field, zip(a)))
        return t.entries

    def __add__(self, other: "MultiTensor", sign: int = 1) -> "MultiTensor":
        """self + sign other: t A + sign s B over s t."""
        if (self.dims, self.cod) != (other.dims, other.cod):
            raise ShapeError("tensor shape mismatch")
        (s, A), (t, B) = self._ints, other._ints
        ints = map(add if sign > 0 else sub, A, B) if s == t == 1 else \
            [t * a + sign * s * b for a, b in zip(A, B)]
        return MultiTensor.from_ints(self.field, self.dims, self.cod, ints, s * t)

    def __sub__(self, other: "MultiTensor") -> "MultiTensor":
        return self.__add__(other, -1)

    def __neg__(self) -> "MultiTensor":
        return self.scale(-1)

    def scale(self, c) -> "MultiTensor":
        """c times the tensor: the ints times c's numerator over the scale
        times its denominator (over F_p c is a residue, over 1)."""
        if c == 1:
            return self
        (scale, A), n = self._ints, c.numerator
        return MultiTensor.from_ints(self.field, self.dims, self.cod, [v * n for v in A],
                                     scale * c.denominator)

    def is_zero(self) -> bool:
        return not any(self._ints[1])

    def partial_map(self, slot: int, i: int) -> Matrix:
        """Matrix of a bilinear map with argument ``slot`` fixed at e_i:
        T(e_i, .) for slot 0, T(., e_i) for slot 1, the slot through e_i."""
        if self.arity != 2 or slot not in (0, 1):
            raise ShapeError("partial maps need a bilinear tensor and slot 0 or 1")
        unit = Matrix.from_ints(self.field, [{0: 1} if s == i else {} for s in range(self.dims[slot])], 1, 1)
        scale, flat = self.precompose_slot(slot, unit)._ints
        return tensor_as_matrix(MultiTensor.from_ints(self.field, (self.dims[1 - slot],), self.cod,
                                                      flat, scale))

    def precompose_slot(self, slot: int, m: Matrix) -> "MultiTensor":
        """Feed slot ``slot`` through ``m`` first: T'(..., a, ...) = T(..., m a, ...)."""
        if not (0 <= slot < self.arity):
            raise ShapeError("slot out of range")
        if m.nrows != self.dims[slot]:
            raise ShapeError("matrix rows %d, slot dim %d" % (m.nrows, self.dims[slot]))
        dims = self.dims[:slot] + (m.ncols,) + self.dims[slot + 1:]
        pre, post = math.prod(self.dims[:slot]), math.prod(self.dims[slot + 1:]) * self.cod
        (s, A), (t, rows) = self._ints, m.int_rows()
        return MultiTensor.from_ints(self.field, dims, self.cod,
                                     _contract(A, pre, post, rows, m.ncols), s * t)

    def postcompose(self, m: Matrix) -> "MultiTensor":
        """Apply ``m`` to the output: T' = m . T."""
        if m.ncols != self.cod:
            raise ShapeError("matrix cols %d, codomain dim %d" % (m.ncols, self.cod))
        (s, A), (t, cols) = self._ints, m.transpose().int_rows()
        return MultiTensor.from_ints(self.field, self.dims, m.nrows,
                                     _contract(A, math.prod(self.dims), 1, cols, m.nrows), s * t)

    def permute_slots(self, perm: Sequence[int]) -> "MultiTensor":
        """Route argument i of the result into slot perm[i] of this tensor.

        Slot i of the result has the dimension of slot perm[i]; for the
        transposition [1, 0] this is the usual argument swap.
        """
        if sorted(perm) != list(range(self.arity)):
            raise ShapeError("not a permutation")
        # inv[s] is the argument routed into slot s
        inv = sorted(range(self.arity), key=perm.__getitem__)
        dims, (scale, A), cod = tuple(self.dims[p] for p in perm), self._ints, self.cod
        offs = (self.offset(tuple(idx[i] for i in inv)) for idx in product(*map(range, dims)))
        return MultiTensor._stored(self.field, dims, cod, tuple(v for o in offs for v in A[o:o + cod]), scale)


def matrix_as_tensor(m: Matrix) -> "MultiTensor":
    """View an r x c matrix as the 1-slot tensor k^c -> k^r."""
    scale, cols = m.transpose().int_rows()
    return MultiTensor.from_ints(m.field, (m.ncols,), m.nrows,
                                 [col.get(i, 0) for col in cols for i in range(m.nrows)], scale)


def tensor_as_matrix(t: "MultiTensor") -> Matrix:
    """Inverse of :func:`matrix_as_tensor` for arity-1 tensors."""
    if t.arity != 1:
        raise ShapeError("expected an arity-1 tensor")
    (scale, A), cod = t.int_entries(), t.cod
    rows = [{j: v for j, v in enumerate(A[i::cod]) if v} for i in range(cod)]
    return Matrix.from_ints(t.field, rows, scale, t.dims[0])


class TensorSpace(Value):
    """The space of all MultiTensors of a fixed shape, with a flat basis."""

    __slots__ = ("field", "dims", "cod")

    def __init__(self, field: Field, dims: tuple, cod: int):
        self._init(field, dims, cod)

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
        return (MultiTensor.from_sparse(self.field, self.dims, self.cod, {k: self.field.one})
                for k in range(self.dim))

