"""Reference implementations that the engine is tested against.

* The dense elimination: ``dense_rref`` sweeps every column of every row,
  zeros included, and rebuilds each row it touches.  ``dense_rank_and_kernel``,
  ``dense_rref_vectors``, ``dense_solve_linear`` and ``dense_inverse`` are the
  solvers of ``mrbder.linalg`` written on top of it.
* ``gauss_jordan_rref_mod``: the integer kernel mod p as Gauss-Jordan, a
  column sweep, each pivot reducing every row nonzero in its column, above
  it as well as below; ``two_phase_rref_mod``, the sweep that reduces only
  the rows not yet pivot rows, keeping ``col_rows`` over all of them, and
  then back-substitutes.  ``linalg._rref_mod`` runs Gauss-Jordan row by
  row, each row against the basis of the rows before it, kept in RREF, and
  must leave the same rows, pivots and order as both.
* ``two_step_kernel_rref``: the RREF basis of a kernel in two eliminations,
  the free-column basis of ``rank_and_kernel`` reduced again by
  ``rref_vectors``, as ``cohomology`` once found Z^n; ``linalg.kernel_rref``
  finds it in one, as {column: nonzero} rows, which ``densified`` writes
  out as dense tuples.
* ``columns_cohomology``: H^n with B^n eliminated in PC^n coordinates, as
  ``cohomology`` once found it: the RREF of the columns of D_{n-1}, held
  inside Z^n on the pivots.  ``cohomology`` reads B^n in the coordinates of
  Z^n instead, one RREF as wide as dim Z^n.
* The entry-by-entry product ``dense_matmul``: each nonzero of a left row
  times each nonzero of the matching right row, added into the result with
  the field's own operations.
* ``entrywise`` and ``dense_scalar``: sums, differences, negatives and
  multiples as ``Matrix`` once made them, one field operation per entry of
  the dense rows, each result made again by the dense constructor.  The
  engine computes them on the stored (scale, int rows) pair.
* The dense-Fraction tensor: ``dense_contract`` (the one loop that once
  multiplied tensor entries by matrix entries, with the field's own add and
  mul) and the ``MultiTensor`` operations written on it and on the dense
  entries, as the class once computed them: ``dense_tensor_entrywise``,
  ``dense_tensor_scale``, ``dense_partial_map``, ``dense_precompose_slot``,
  ``dense_postcompose``, ``dense_eval``, ``dense_apply``,
  ``dense_permute_slots``, ``dense_from_blocks``,
  ``dense_nonzero_values``, ``dense_matrix_as_tensor`` and
  ``dense_tensor_as_matrix``.  The engine computes them on the stored
  (scale, flat ints) pair.  ``_nonzeros`` lists a tensor's nonzero entries
  with their index tuples, as ``cohomology`` once listed its maps.
* ``fraction_scaled``: the integer maps of ``cohomology._Complex.scaled``
  as they were once read, every matrix entry a field value (``sparse_rows``)
  scaled to ints at once with the tensors' entries and kappa.  The engine
  reads each matrix's stored pair and brings it to the common scale.
* The structure maps of the complex as literal transcriptions of their
  formulas, evaluated on one cochain at a time: ``hochschild_delta``, the
  twins ``modified_delta`` (written out) and ``modified_delta_via_induced``
  (the coboundary over the induced structures), ``operator_map``,
  ``derivation_defect``, the graded ``operator_delta`` and ``pair_delta``,
  and on the Lie side ``ce_delta``, ``lie_operator_map``,
  ``lie_derivation_defect`` and ``lie_pair_delta``.  The engine implements
  each of them once, as the entry lists of ``mrbder.cohomology``.
* ``field_matrix``: D_n listed and summed in the field's own arithmetic,
  through ``field_coboundary_entries``, ``field_ce_entries``,
  ``field_operator_map_entries`` and ``field_defect_entries``, as
  ``mrbder.cohomology`` once built it.  The engine lists the same entries as
  plain ints over its scaled structure maps and enters the field once per
  sum, in ``_assemble``.
* The family of twelve ``OperatorMapConvention`` candidates for the even-|S|
  coefficient of phi, which ``tools/calibrate_phi.py`` calibrates; the
  engine hard-codes the winner, ``DEFAULT_CONVENTION``.
* ``operator_matrix`` builds the matrix of a map one basis element at a
  time, and ``cochain_map`` gives the transcription of each kind of
  ``differential_matrix`` with its domain and codomain spaces.
* The extension maps one basis vector at a time, as ``mrbder.extension``
  once built them: ``pointwise_section`` and ``pointwise_retraction`` (one
  ``solve_linear`` per unit vector), ``pointwise_derive_base`` and
  ``pointwise_extract_cocycle`` (each product, action and operator value
  evaluated through s, i, p and L, and pulled back to the fiber entry by
  entry).  The engine writes them as composites of tensors and matrices.
* The truncated products of the deformation theory as nested index loops,
  as ``mrbder.deformation`` once wrote them: ``nested_inverse_terms`` and
  ``nested_compose`` for gauges, and ``nested_apply_gauge``, a 4-fold loop
  for the mu terms and a 3-fold one for the R and d terms.  The engine runs
  every such sum over the tuples of orders of ``deformation._orders``.
* ``columnwise_right_inverse``: a right inverse one ``solve_linear`` per
  column, as ``mrbder.extension`` once found its splittings;
  ``Matrix.right_inverse`` reduces [m | I] once.
* ``pairwise_mrb_options``: the operators R of a dimension-n product table
  over F_p with their kappa, solved from the identity basis pair by basis
  pair, as ``fuzzing._mrb_options`` once did.
* ``VALUE_TWINS``: for each value class of the package (a subclass of
  ``fields.Value``), the frozen dataclass with the same name, fields, field
  order and defaults, whose generated ``__eq__``, ``__hash__`` and
  ``__repr__`` the value class must reproduce.
"""

import dataclasses
import itertools
import math
from dataclasses import dataclass, make_dataclass
from itertools import compress, islice
from operator import itemgetter
from typing import Callable

from mrbder.cohomology import (Cochain, CochainSpace, CohomologyResult, PairSpace, _blocks,
                               _ce_entries, _rho_of, cochain_arities,
                               differential_matrix, hom_space, induced_lie_pair)
from mrbder.constructions import induced_action, induced_product
from mrbder.deformation import Deformation, Gauge
from mrbder.linalg import (MAX_ENTRIES, Matrix, MultiTensor, ShapeError, _nonzero_positions,
                           _scaled, kernel_rref, rank_and_kernel, rref_vectors, solve_linear)
from mrbder.structures import (Algebra, Bimodule, InternalError, InvalidStructure, MRBDerPair,
                               operator_residual, unit_vector)


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


def gauss_jordan_rref_mod(p: int, rows: list) -> tuple:
    """Reduce int ``rows`` (lists of residues mod the prime ``p``) to RREF in place.

    Returns (pivots, order): the pivot columns, and for each pivot the index
    its row had in ``rows``.  ``rows`` ends as the RREF rows in pivot order
    followed by the zero rows.  The pivot of each column is the lowest-index
    row with a nonzero there that is not yet a pivot row; since RREF is
    unique, any such choice gives the same rows.

    Only nonzero entries are touched.  ``col_rows[j]`` lists every row that
    may be nonzero in column j, so the rows to reduce at a pivot are read
    from it rather than from a scan of the column.  The pivot row is scaled
    on its nonzeros, and each other row is reduced against them; they all lie
    at or after the pivot column.
    """
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    col_rows = [[] for _ in range(nc)]
    for i, row in enumerate(rows):
        for j in compress(range(nc), row):
            col_rows[j].append(i)
    free = [True] * nr                    # not a pivot row yet
    order, pivots = [], []
    for c in range(nc):
        # a set: an entry can return to zero and be listed again
        hits = sorted({i for i in col_rows[c] if rows[i][c]})
        col_rows[c] = None
        pr = next((i for i in hits if free[i]), None)
        if pr is None:
            continue
        prow = rows[pr]
        nz = list(compress(range(c, nc), islice(prow, c, None)))
        inv = pow(prow[c], -1, p)
        if inv != 1:
            for j in nz:
                prow[j] = inv * prow[j] % p
        terms = [(j, prow[j]) for j in nz]
        for i in hits:
            if i != pr:
                row = rows[i]
                f = p - row[c]
                for j, y in terms:
                    x = row[j]
                    if not x:
                        col_rows[j].append(i)
                    row[j] = (x + f * y) % p
        free[pr] = False
        order.append(pr)
        pivots.append(c)
        if len(pivots) == nr:
            break
    rows[:] = [rows[i] for i in order] + [row for i, row in enumerate(rows) if free[i]]
    return pivots, order


def two_phase_rref_mod(p: int, rows: list) -> tuple:
    """Reduce int ``rows`` (lists of residues mod the prime ``p``) to RREF in place.

    Returns (pivots, order): the pivot columns, and the index in ``rows`` of
    each pivot's row, the lowest-index row nonzero there not yet a pivot
    row.  ``rows`` ends as the (unique) RREF rows in pivot order, then zeros.

    Forward, a pivot row, scaled, reduces on its nonzeros only the free rows
    (not yet pivot rows) that ``col_rows[c]`` lists as maybe nonzero in its
    column c: each is left its input plus the one vector of the pivot rows'
    span that clears their columns, as under Gauss-Jordan, so the pivots and
    ``order`` are Gauss-Jordan's.  Back, last pivot first, each clears its
    column in the earlier pivot rows nonzero there (rank**2 reads at most).
    """
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    col_rows = [[] for _ in range(nc)]
    for i, row in enumerate(rows):
        for j in compress(range(nc), row):
            col_rows[j].append(i)
    free = [True] * nr                    # not a pivot row yet
    order, pivots = [], []
    for c in range(nc):
        # a set: an entry can return to zero and be listed again
        hits = sorted({i for i in col_rows[c] if free[i] and rows[i][c]})
        col_rows[c] = None
        if not hits:
            continue
        pr = hits[0]
        prow = rows[pr]
        inv = pow(prow[c], -1, p)
        terms = [(j, inv * prow[j] % p) for j in compress(range(c, nc), islice(prow, c, None))]
        for j, y in terms:
            prow[j] = y
        for i in islice(hits, 1, None):
            row = rows[i]
            f = p - row[c]
            for j, y in terms:
                x = row[j]
                if not x:
                    col_rows[j].append(i)
                row[j] = (x + f * y) % p
        free[pr] = False
        order.append(pr)
        pivots.append(c)
    rows[:] = [rows[i] for i in order] + [row for i, row in enumerate(rows) if free[i]]
    for k in range(len(order) - 1, 0, -1):          # back substitution
        c, prow, terms = pivots[k], rows[k], None
        for row in filter(itemgetter(c), islice(rows, k)):
            if terms is None:       # the pivot row's nonzeros, once a row needs them
                terms = [(j, prow[j]) for j in compress(range(c, nc), islice(prow, c, None))]
            f = p - row[c]
            for j, y in terms:
                row[j] = (row[j] + f * y) % p
    return pivots, order


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


def two_step_kernel_rref(m: Matrix):
    """(basis, pivots) of ker m in RREF: the kernel in its free-column basis,
    then that basis eliminated again."""
    return rref_vectors(m.field, rank_and_kernel(m)[1])


def densified(field, rows, n: int) -> list:
    """The {column: value} dicts ``rows`` as tuples of length ``n``, zeros
    stored as ``field.zero``."""
    out = []
    for row in rows:
        v = [field.zero] * n
        for c, x in row.items():
            v[c] = x
        out.append(tuple(v))
    return out


def columns_cohomology(pair, bim, n: int) -> CohomologyResult:
    """H^n with B^n's RREF basis eliminated from the columns of D_{n-1} in
    all dim PC^n coordinates; the representatives are the Z rows whose pivot
    is not a B pivot."""
    F = pair.field
    d_n = differential_matrix(pair, bim, n, "pair")
    z_basis, z_pivots = kernel_rref(d_n)
    z_basis = densified(F, z_basis, d_n.ncols)
    b_pivots = []
    if n > 1:
        columns = differential_matrix(pair, bim, n - 1, "pair").transpose().rows
        b_pivots = rref_vectors(F, columns)[1]
    bset = set(b_pivots)
    if not bset <= set(z_pivots):
        raise InternalError("coboundaries escape the cocycles; complex is broken")
    space = PairSpace(F, pair.dim, bim.dim_m, n)
    reps = tuple(space.unflatten(v) for v, p in zip(z_basis, z_pivots) if p not in bset)
    return CohomologyResult(n, len(z_basis), len(bset), len(z_basis) - len(bset), reps)


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


def dense_matmul(a: Matrix, b: Matrix) -> Matrix:
    if a.ncols != b.nrows:
        raise ShapeError("matmul %dx%d by %dx%d" % (a.nrows, a.ncols, b.nrows, b.ncols))
    F = a.field
    add, mul, zero = F.add, F.mul, F.zero
    out = [[zero] * b.ncols for _ in range(a.nrows)]
    b_nz = [[(j, brow[j]) for j in _nonzero_positions(F, brow)] for brow in b.rows]
    for i, row in enumerate(a.rows):
        acc = out[i]
        for k in _nonzero_positions(F, row):
            x = row[k]
            for j, y in b_nz[k]:
                acc[j] = add(acc[j], mul(x, y))
    return Matrix(F, tuple(tuple(r) for r in out))


def entrywise(op: Callable, a: Matrix, *others: Matrix) -> Matrix:
    """The matrix of ``op`` applied to the entries of ``a`` and ``others``
    at each place, made from dense rows: ``entrywise(F.add, a, b)`` is
    a + b, ``entrywise(F.neg, a)`` is -a, and with ``functools.partial(F.mul,
    c)`` it is c a."""
    if any((m.nrows, m.ncols) != (a.nrows, a.ncols) for m in others):
        raise ShapeError("shape mismatch")
    return Matrix(a.field, tuple(tuple(map(op, *rows))
                                 for rows in zip(a.rows, *(m.rows for m in others))))


def dense_scalar(F, n: int, c) -> Matrix:
    """c times the n x n identity, from dense rows."""
    return Matrix(F, tuple(tuple(c if i == j else F.zero for j in range(n)) for i in range(n)))


def dense_contract(F, entries, pre: int, post: int, maps: list, d_new: int) -> list:
    """The flat (pre, d_new, post) tensor out[a, i, t] = sum_s maps[s][i] *
    entries[a, s, t] over field values, ``maps`` one {new index: nonzero}
    dict per old index, in the field's own arithmetic."""
    add, mul, d_old = F.add, F.mul, len(maps)
    out = [F.zero] * (pre * d_new * post)
    for k in _nonzero_positions(F, entries):
        b, t = divmod(k, post)
        a, s = divmod(b, d_old)
        e, base = entries[k], a * d_new * post + t
        for i, c in maps[s].items():
            j = base + i * post
            out[j] = add(out[j], mul(c, e))
    return out


def dense_tensor_entrywise(op: Callable, a: MultiTensor, *others: MultiTensor) -> MultiTensor:
    """The tensor of ``op`` applied to the entries of ``a`` and ``others`` at
    each place: ``F.add``, ``F.sub`` and ``F.neg`` give +, - and unary -."""
    if any((t.dims, t.cod) != (a.dims, a.cod) for t in others):
        raise ShapeError("tensor shape mismatch")
    return MultiTensor(a.field, a.dims, a.cod, tuple(map(op, a.entries, *(t.entries for t in others))))


def dense_tensor_scale(t: MultiTensor, c) -> MultiTensor:
    F = t.field
    if F.is_zero(c):
        return MultiTensor(F, t.dims, t.cod, (F.zero,) * len(t.entries))
    return MultiTensor(F, t.dims, t.cod, tuple(F.mul(c, a) for a in t.entries))


def dense_partial_map(t: MultiTensor, slot: int, i: int) -> Matrix:
    F, cod = t.field, t.cod
    unit = [{0: F.one} if s == i else {} for s in range(t.dims[slot])]
    pre, post = (1, t.dims[1] * cod) if slot == 0 else (t.dims[0], cod)
    flat = dense_contract(F, t.entries, pre, post, unit, 1)
    return Matrix(F, tuple(zip(*(flat[j * cod:(j + 1) * cod] for j in range(t.dims[1 - slot])))))


def dense_precompose_slot(t: MultiTensor, slot: int, m: Matrix) -> MultiTensor:
    dims = t.dims[:slot] + (m.ncols,) + t.dims[slot + 1:]
    pre, post = math.prod(t.dims[:slot]), math.prod(t.dims[slot + 1:]) * t.cod
    return MultiTensor(t.field, dims, t.cod, tuple(
        dense_contract(t.field, t.entries, pre, post, m.sparse_rows, m.ncols)))


def dense_postcompose(t: MultiTensor, m: Matrix) -> MultiTensor:
    return MultiTensor(t.field, t.dims, m.nrows, tuple(dense_contract(
        t.field, t.entries, math.prod(t.dims), 1, m.transpose().sparse_rows, m.nrows)))


def dense_eval(t: MultiTensor, args) -> tuple:
    F, cur = t.field, t.entries
    for k, a in enumerate(args):
        post = math.prod(t.dims[k + 1:]) * t.cod
        cur = dense_contract(F, cur, 1, post, [{0: c} if not F.is_zero(c) else {} for c in a], 1)
    return tuple(cur)


def dense_apply(m: Matrix, vec) -> tuple:
    return tuple(dense_contract(m.field, vec, 1, 1, m.transpose().sparse_rows, m.nrows))


def dense_permute_slots(t: MultiTensor, perm) -> MultiTensor:
    inv = sorted(range(t.arity), key=perm.__getitem__)
    return MultiTensor.from_map(t.field, [t.dims[p] for p in perm], t.cod,
                                lambda *idx: t.value_at(*(idx[i] for i in inv)))


def dense_from_blocks(F, dims, blocks: dict) -> MultiTensor:
    N = sum(dims)
    out = [F.zero] * N ** 3
    start = [sum(dims[:i]) for i in range(len(dims))]
    for (i, j, k), t in blocks.items():
        for x, y in itertools.product(range(dims[i]), range(dims[j])):
            dst = ((start[i] + x) * N + start[j] + y) * N + start[k]
            out[dst:dst + dims[k]] = t.value_at(x, y)
    return MultiTensor(F, (N, N), N, tuple(out))


def dense_nonzero_values(t: MultiTensor) -> list:
    is_zero, cod, ent = t.field.is_zero, t.cod, t.entries
    return [(idx, ent[k * cod:(k + 1) * cod])
            for k, idx in enumerate(itertools.product(*map(range, t.dims)))
            if not all(map(is_zero, ent[k * cod:(k + 1) * cod]))]


def dense_matrix_as_tensor(m: Matrix) -> MultiTensor:
    return MultiTensor(m.field, (m.ncols,), m.nrows,
                       tuple(itertools.chain.from_iterable(m.transpose().rows)))


def dense_tensor_as_matrix(t: MultiTensor) -> Matrix:
    return Matrix.from_rows(t.field, [t.entries[i::t.cod] for i in range(t.cod)])


def _nonzeros(t: MultiTensor) -> list:
    """(index tuple, value) of each nonzero entry of ``t``, codomain index last."""
    is_zero = t.field.is_zero
    return [(idx + (q,), v) for idx, vec in t.nonzero_values()
            for q, v in enumerate(vec) if not is_zero(v)]


def fraction_scaled(cx) -> tuple:
    """``cx.scaled()`` from the maps' entries as field values: the matrices'
    ``sparse_rows`` (R_M and d_M through their transposes), the tensors'
    nonzeros and kappa, scaled to ints by one ``linalg._scaled``."""
    tensors = [_nonzeros(t) for t in cx.maps]
    mats = [cx.R.sparse_rows, cx.R_M.transpose().sparse_rows,
            cx.d.sparse_rows, cx.d_M.transpose().sparse_rows]
    D, ints = _scaled([cx.kappa] + [v for nz in tensors for _, v in nz]
                      + [v for rows in mats for row in rows for v in row.values()])
    it = iter(ints)
    kappa = next(it) * D
    b = (max(D, max(map(abs, ints[1:]), default=0) + max(1, abs(kappa))) - 1).bit_length()
    tensors = tuple([(i, v) for (i, _), v in zip(nz, it)] for nz in tensors)
    R, R_M, d, d_M = ([dict(zip(row, it)) for row in rows] for rows in mats)
    return D, tensors, (R, R_M, kappa, d, d_M), b


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


# ---------------------------------------------------------------------------
# the structure maps, transcribed from their formulas


def _sign_is_plus(k: int) -> bool:
    # true when (-1)^k = +1
    return k % 2 == 0


def _vacc(F, acc, vec, plus: bool):
    if plus:
        for t, v in enumerate(vec):
            if not F.is_zero(v):
                acc[t] = F.add(acc[t], v)
    else:
        for t, v in enumerate(vec):
            if not F.is_zero(v):
                acc[t] = F.sub(acc[t], v)


def _act_left(F, left, i, vec):
    """l(e_i, vec) for a codomain vector ``vec``."""
    m = left.cod
    acc = [F.zero] * m
    for s, c in enumerate(vec):
        if F.is_zero(c):
            continue
        w = left.value_at(i, s)
        for t in range(m):
            if not F.is_zero(w[t]):
                acc[t] = F.add(acc[t], F.mul(c, w[t]))
    return acc


def _act_right(F, right, vec, j):
    m = right.cod
    acc = [F.zero] * m
    for s, c in enumerate(vec):
        if F.is_zero(c):
            continue
        w = right.value_at(s, j)
        for t in range(m):
            if not F.is_zero(w[t]):
                acc[t] = F.add(acc[t], F.mul(c, w[t]))
    return acc


def _eval_slot_vec(F, f, rest, pos, vec):
    """f on basis indices ``rest`` with a coordinate vector spliced in at ``pos``."""
    m = f.cod
    acc = [F.zero] * m
    for s, c in enumerate(vec):
        if F.is_zero(c):
            continue
        w = f.value_at(*rest[:pos], s, *rest[pos:])
        for t in range(m):
            if not F.is_zero(w[t]):
                acc[t] = F.add(acc[t], F.mul(c, w[t]))
    return acc


def _check_cochain_shape(pair, bim, f: MultiTensor):
    n, m = pair.dim, bim.dim_m
    if f.dims != (n,) * f.arity or f.cod != m:
        raise ShapeError("cochain must map A^%d -> M" % f.arity)
    if f.arity < 1:
        raise ShapeError("cochain degree must be >= 1")


def _hochschild_delta_core(F, nA, mu, left, right, f) -> MultiTensor:
    n = f.arity
    m = f.cod
    if f.is_zero():
        return MultiTensor.zeros(F, (nA,) * (n + 1), m)
    first_plus = _sign_is_plus(n + 1)
    out = []
    for idx in itertools.product(range(nA), repeat=n + 1):
        acc = [F.zero] * m
        _vacc(F, acc, _act_left(F, left, idx[0], f.value_at(*idx[1:])), first_plus)
        _vacc(F, acc, _act_right(F, right, f.value_at(*idx[:n]), idx[n]), True)
        for i in range(1, n + 1):
            vec = mu.value_at(idx[i - 1], idx[i])
            rest = idx[:i - 1] + idx[i + 1:]
            term = _eval_slot_vec(F, f, rest, i - 1, vec)
            _vacc(F, acc, term, _sign_is_plus(i + n + 1))
        out.extend(acc)
    return MultiTensor(F, (nA,) * (n + 1), m, tuple(out))


def hochschild_delta(pair, bim, f: MultiTensor) -> MultiTensor:
    """Hochschild coboundary C^n -> C^{n+1} with bimodule coefficients."""
    _check_cochain_shape(pair, bim, f)
    return _hochschild_delta_core(pair.field, pair.dim, pair.mu, bim.left, bim.right, f)


def modified_delta(pair, bim, f: MultiTensor) -> MultiTensor:
    """Coboundary over the induced multiplication and actions, written out
    directly:

        (d_R f)(a_1..a_{n+1}) =
            (-1)^{n+1} [ l(R a_1, f(..)) - R_M l(a_1, f(..)) ]
            + r(f(..), R a_{n+1}) - R_M r(f(..), a_{n+1})
            + sum_i (-1)^{i+n+1} f(.., mu(R a_i, a_{i+1}) + mu(a_i, R a_{i+1}), ..)
    """
    _check_cochain_shape(pair, bim, f)
    F, nA = pair.field, pair.dim
    n, m = f.arity, f.cod
    if f.is_zero():
        return MultiTensor.zeros(F, (nA,) * (n + 1), m)
    mu_r = induced_product(pair.mu, pair.R)
    lR = bim.left.precompose_slot(0, pair.R)
    rR = bim.right.precompose_slot(1, pair.R)
    R_M = bim.R_M
    first_plus = _sign_is_plus(n + 1)
    out = []
    for idx in itertools.product(range(nA), repeat=n + 1):
        acc = [F.zero] * m
        fv = f.value_at(*idx[1:])
        _vacc(F, acc, _act_left(F, lR, idx[0], fv), first_plus)
        _vacc(F, acc, R_M.apply(_act_left(F, bim.left, idx[0], fv)), not first_plus)
        fv = f.value_at(*idx[:n])
        _vacc(F, acc, _act_right(F, rR, fv, idx[n]), True)
        _vacc(F, acc, R_M.apply(_act_right(F, bim.right, fv, idx[n])), False)
        for i in range(1, n + 1):
            vec = mu_r.value_at(idx[i - 1], idx[i])
            rest = idx[:i - 1] + idx[i + 1:]
            term = _eval_slot_vec(F, f, rest, i - 1, vec)
            _vacc(F, acc, term, _sign_is_plus(i + n + 1))
        out.extend(acc)
    return MultiTensor(F, (nA,) * (n + 1), m, tuple(out))


def modified_delta_via_induced(pair, bim, f: MultiTensor) -> MultiTensor:
    """Same map computed through the induced structures; cross-check twin of
    :func:`modified_delta`."""
    _check_cochain_shape(pair, bim, f)
    lt = induced_action(bim.left, 0, pair.R, bim.R_M)
    rt = induced_action(bim.right, 1, pair.R, bim.R_M)
    return _hochschild_delta_core(pair.field, pair.dim, induced_product(pair.mu, pair.R), lt, rt, f)


@dataclass(frozen=True)
class OperatorMapConvention:
    """Coefficient convention for the even-|S| terms of ``operator_map``.

    even exponent on (-kappa) is |S|/2 + even_shift; even_sign flips the term;
    even_rm applies R_M to it.  The default is the calibrated winner."""

    even_shift: int = 0
    even_sign: int = 1
    even_rm: bool = False


DEFAULT_CONVENTION = OperatorMapConvention()


def convention_candidates() -> list:
    return [OperatorMapConvention(sh, sg, rm)
            for sh in (1, 0, -1) for sg in (-1, 1) for rm in (True, False)]


def _operator_map_core(F, R: Matrix, R_M: Matrix, kappa, f: MultiTensor,
                       convention: OperatorMapConvention) -> MultiTensor:
    n = f.arity
    if f.is_zero():
        return MultiTensor.zeros(F, f.dims, f.cod)
    full = (1 << n) - 1
    # g[mask] = f with R fed into every slot of mask
    g = [None] * (full + 1)
    g[0] = f
    for mask in range(1, full + 1):
        low = (mask & -mask).bit_length() - 1
        g[mask] = g[mask & (mask - 1)].precompose_slot(low, R)
    neg_kappa = F.neg(kappa)
    acc = g[full]
    for bare in range(1, full + 1):
        r = bare.bit_count()
        t = g[full ^ bare]
        if r % 2 == 1:
            coeff = F.neg(F.pow(neg_kappa, (r - 1) // 2))
            term = t.postcompose(R_M).scale(coeff)
        else:
            e = r // 2 + convention.even_shift
            if e < 0:
                raise ValueError("convention exponent went negative")
            coeff = F.pow(neg_kappa, e)
            if convention.even_sign < 0:
                coeff = F.neg(coeff)
            term = (t.postcompose(R_M) if convention.even_rm else t).scale(coeff)
        acc = acc + term
    return acc


def operator_map(pair, bim, f: MultiTensor,
                 convention: OperatorMapConvention = DEFAULT_CONVENTION) -> MultiTensor:
    """The chain map phi: C^n -> C^n built from (R, R_M, kappa)."""
    _check_cochain_shape(pair, bim, f)
    return _operator_map_core(pair.field, pair.R, bim.R_M, pair.kappa, f, convention)


def _derivation_defect_core(F, d: Matrix, d_M: Matrix, f: MultiTensor) -> MultiTensor:
    if f.is_zero():
        return MultiTensor.zeros(F, f.dims, f.cod)
    acc = -(f.postcompose(d_M))
    for j in range(f.arity):
        acc = acc + f.precompose_slot(j, d)
    return acc


def derivation_defect(pair, bim, f: MultiTensor) -> MultiTensor:
    """Delta(f) = sum_j f(.., d(.), ..) - d_M . f."""
    _check_cochain_shape(pair, bim, f)
    return _derivation_defect_core(pair.field, pair.d, bim.d_M, f)


def _graded_delta(delta, mdelta, phi, defect, c: Cochain) -> Cochain:
    """The differential of OC^n built from (delta, delta_R, phi), or of PC^n
    when the derivation defect Delta is given too:

        OC: (f, g)       |-> (delta f, -delta_R g - phi f)
        PC: (f, g, h, k) |-> (D(f, g), D(h, k) + (-1)^n (Delta f, Delta g))

    where every term in an absent (arity-0) part is left out.
    """
    layers = 2 if defect is None else 4
    if c.arities != cochain_arities(c.degree, layers):
        raise ShapeError("expected a cochain in %s^%d"
                         % ("OC" if defect is None else "PC", c.degree))

    def op(f, g):
        return [delta(f), -phi(f) if g is None else -(mdelta(g)) - phi(f)]

    f, g, h, k = c.parts + (None,) * (4 - len(c.parts))
    out = op(f, g)
    if defect is not None:
        shift = [defect(x) for x in (f, g) if x is not None]
        if not _sign_is_plus(c.degree):
            shift = [-x for x in shift]
        out += shift if h is None else [a + b for a, b in zip(op(h, k), shift)]
    return Cochain(c.degree + 1, tuple(out))


def operator_delta(pair, bim, c: Cochain,
                   convention: OperatorMapConvention = DEFAULT_CONVENTION) -> Cochain:
    """OC^n -> OC^{n+1}: (f, g) |-> (delta f, -modified_delta g - phi f)."""
    return _graded_delta(
        lambda f: hochschild_delta(pair, bim, f),
        lambda g: modified_delta(pair, bim, g),
        lambda f: operator_map(pair, bim, f, convention),
        None, c)


def pair_delta(pair, bim, c: Cochain,
               convention: OperatorMapConvention = DEFAULT_CONVENTION) -> Cochain:
    """PC^n -> PC^{n+1}, the full differential of the pair complex."""
    return _graded_delta(
        lambda f: hochschild_delta(pair, bim, f),
        lambda g: modified_delta(pair, bim, g),
        lambda f: operator_map(pair, bim, f, convention),
        lambda f: derivation_defect(pair, bim, f),
        c)


def ce_delta(lp, f: MultiTensor) -> MultiTensor:
    """Chevalley-Eilenberg coboundary with the same global (-1)^{n+1}
    normalization as :func:`hochschild_delta`:

        (d f)(a_1..a_{n+1}) = (-1)^{n+1} * [
            sum_i (-1)^{i+1} rho(a_i) f(.. a_i^ ..)
            + sum_{i<j} (-1)^{i+j} f([a_i,a_j], .. a_i^ .. a_j^ ..) ]
    """
    F, nA = lp.field, lp.dim
    rho, _, _ = _rho_of(lp)
    m = rho.dims[1]
    n = f.arity
    if f.dims != (nA,) * n or f.cod != m:
        raise ShapeError("cochain must map A^%d -> M" % n)
    if f.is_zero():
        return MultiTensor.zeros(F, (nA,) * (n + 1), m)
    out = []
    norm_plus = _sign_is_plus(n + 1)
    for idx in itertools.product(range(nA), repeat=n + 1):
        acc = [F.zero] * m
        for i in range(1, n + 2):
            rest = idx[:i - 1] + idx[i:]
            fv = f.value_at(*rest)
            term = _act_left(F, rho, idx[i - 1], fv)
            _vacc(F, acc, term, _sign_is_plus(i + 1) == norm_plus)
        for i in range(1, n + 2):
            for j in range(i + 1, n + 2):
                vec = lp.bracket.value_at(idx[i - 1], idx[j - 1])
                rest = idx[:i - 1] + idx[i:j - 1] + idx[j:]
                term = _eval_slot_vec(F, f, rest, 0, vec)
                _vacc(F, acc, term, _sign_is_plus(i + j) == norm_plus)
        out.extend(acc)
    return MultiTensor(F, (nA,) * (n + 1), m, tuple(out))


def lie_operator_map(lp, f: MultiTensor,
                     convention: OperatorMapConvention = DEFAULT_CONVENTION) -> MultiTensor:
    _, R_M, _ = _rho_of(lp)
    return _operator_map_core(lp.field, lp.R, R_M, lp.kappa, f, convention)


def lie_derivation_defect(lp, f: MultiTensor) -> MultiTensor:
    _, _, d_M = _rho_of(lp)
    return _derivation_defect_core(lp.field, lp.d, d_M, f)


def lie_pair_delta(lp, c: Cochain,
                   convention: OperatorMapConvention = DEFAULT_CONVENTION) -> Cochain:
    """The pair differential with the CE coboundaries of ``lp`` and of its
    induced Lie pair in place of the Hochschild ones."""
    ind = induced_lie_pair(lp)
    return _graded_delta(
        lambda f: ce_delta(lp, f),
        lambda g: ce_delta(ind, g),
        lambda f: lie_operator_map(lp, f, convention),
        lambda f: lie_derivation_defect(lp, f),
        c)


# ---------------------------------------------------------------------------
# the kinds of differential_matrix as cochain maps


def cochain_map(pair, bim, n, which, convention=DEFAULT_CONVENTION):
    """(domain, codomain, map) of the structure map ``which`` at degree n, the
    transcription acting on cochains; ``operator_matrix`` of it is the oracle
    for ``differential_matrix(pair, bim, n, which)`` when ``convention`` is
    ``DEFAULT_CONVENTION``."""
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


# ---------------------------------------------------------------------------
# the assembly of D_n in the field's own arithmetic
#
# ``mrbder.cohomology`` once listed the entries of each structure map with
# the field's operations and summed them with ``add`` and ``neg``; it now
# lists them as plain ints over the scaled structure maps and enters the
# field once per sum.  ``field_matrix`` is the former build, kept as the
# oracle of the integer one: the same values, value types and key order of
# every sparse row.


def _signed(F, plus: bool):
    return F.one if plus else F.neg(F.one)


def field_coboundary_entries(F, nA: int, m: int, mu: MultiTensor, left: MultiTensor,
                        right: MultiTensor, n: int):
    """The coboundary C^n -> C^{n+1} of ``hochschild_delta`` over (mu, left,
    right): an l-column, an r-column and, for each slot, mu's preimages of the
    slot's index."""
    mul = F.mul
    first = _signed(F, _sign_is_plus(n + 1))
    l_terms = [[] for _ in range(m)]          # s -> (row offset, value) of l(e_x, e_s)
    for (x, s, t), c in _nonzeros(left):
        l_terms[s].append((x * nA ** n * m + t, mul(first, c)))
    r_terms = [[] for _ in range(m)]          # s -> (row offset, value) of r(e_s, e_y)
    for (s, y, t), c in _nonzeros(right):
        r_terms[s].append((y * m + t, c))
    # slot p (0-based) replaces j_p by every (x, y) with mu(e_x, e_y)_{j_p} != 0
    mu_nonzeros = _nonzeros(mu)
    mu_terms = []
    for p in range(n):
        lo = nA ** (n - 1 - p)
        sign = _signed(F, _sign_is_plus(p + n))
        by_q = [[] for _ in range(nA)]
        for (x, y, q), c in mu_nonzeros:
            by_q[q].append(((x * nA + y) * lo * m, mul(sign, c)))
        mu_terms.append((lo, by_q))
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


def field_ce_entries(F, nA: int, m: int, bracket: MultiTensor, rho: MultiTensor, n: int):
    """The Chevalley-Eilenberg coboundary C^n -> C^{n+1} of ``ce_delta``
    over (bracket, rho): rho(a_p) applied to f without a_p, for each output
    slot p, and f([a_p, a_q], ..) without a_p, a_q, for each pair p < q."""
    mul = F.mul
    rho_terms = [[] for _ in range(m)]        # s -> (x, t, value) of rho(e_x, e_s)
    for (x, s, t), c in _nonzeros(rho):
        rho_terms[s].append((x, t, c))
    br_by_q = [[] for _ in range(nA)]         # q -> (x, y, value) of [e_x, e_y]_q
    for (x, y, q), c in _nonzeros(bracket):
        br_by_q[q].append((x, y, c))
    # 0-based slots; the global (-1)^{n+1} is folded into every sign
    places = [nA ** (n - p) for p in range(n + 1)]
    rho_slots = [(lo, _signed(F, _sign_is_plus(n + 1 + p))) for p, lo in enumerate(places)]
    slot_pairs = [(p, q, _signed(F, _sign_is_plus(n + 1 + p + q)))
                  for p in range(n + 1) for q in range(p + 1, n + 1)]
    for J in range(nA ** n):
        digits = [(J // nA ** (n - 1 - p)) % nA for p in range(n)]
        br_rows = []                          # (row offset, value), the same for every s
        for p, q, sign in slot_pairs:
            for x, y, c in br_by_q[digits[0]]:
                idx = digits[1:]
                idx.insert(p, x)
                idx.insert(q, y)
                br_rows.append((sum(i * lo for i, lo in zip(idx, places)) * m, mul(sign, c)))
        for s in range(m):
            col = J * m + s
            for lo, sign in rho_slots:
                head, tail = divmod(J, lo)
                for x, t, c in rho_terms[s]:
                    yield ((head * nA + x) * lo + tail) * m + t, col, mul(sign, c)
            for off, v in br_rows:
                yield off + s, col, v


def field_operator_map_entries(F, nA: int, m: int, R: Matrix, R_M: Matrix, kappa, n: int):
    """phi on C^n (see ``operator_map``): for each set of bare slots, R in
    the other slots, then the term's coefficient and R_M on the output."""
    mul, add, one = F.mul, F.add, F.one
    neg_kappa = F.neg(kappa)
    coeffs = [(one, False)]                 # |bare| -> (coefficient, R_M applied)
    for r in range(1, n + 1):
        c = F.pow(neg_kappa, r // 2)
        coeffs.append((F.neg(c), True) if r % 2 == 1 else (c, False))
    r_rows = [list(row.items()) for row in R.sparse_rows]
    rm_cols = [list(col.items()) for col in R_M.transpose().sparse_rows]
    places = [nA ** (n - 1 - p) for p in range(n)]
    for J in range(nA ** n):
        digits = [(J // lo) % nA for lo in places]
        images = ({}, {})                     # K -> value, without and with R_M
        for bare in range(1 << n):
            coeff, rm = coeffs[bare.bit_count()]
            acc = images[rm]
            opts = [[(j, one)] if bare >> (n - 1 - p) & 1 else r_rows[j]
                    for p, j in enumerate(digits)]
            for combo in itertools.product(*opts):
                K, v = 0, coeff
                for (k, c), lo in zip(combo, places):
                    K += k * lo
                    v = mul(v, c)
                acc[K] = add(acc[K], v) if K in acc else v
        plain, via_rm = images
        for s in range(m):
            col = J * m + s
            for K, v in plain.items():
                yield K * m + s, col, v
            for K, v in via_rm.items():
                for t, c in rm_cols[s]:
                    yield K * m + t, col, mul(v, c)


def field_defect_entries(F, nA: int, m: int, d: Matrix, d_M: Matrix, n: int):
    """Delta on C^n (see ``derivation_defect``): d in each slot, minus d_M
    on the output."""
    d_rows = [row.items() for row in d.sparse_rows]
    neg_dm = [[(t, F.neg(v)) for t, v in col.items()] for col in d_M.transpose().sparse_rows]
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


def field_induced(cx) -> tuple:
    """The induced maps of the complex ``cx`` as field tensors, made from its
    structure maps by ``constructions``: mu_R (or [,]_R) of its product, and
    l~ and r~ (or rho~) of its actions on slot 0 and on slot 1."""
    product, *actions = cx.maps
    return (induced_product(product, cx.R),
            *(induced_action(a, slot, cx.R, cx.R_M) for slot, a in enumerate(actions)))


def field_matrix(cx, n: int, which: str) -> Matrix:
    """D_n of the map ``which`` on the complex ``cx`` (a ``_Complex``),
    listed and summed in the arithmetic of its field; the layout of the
    blocks is that of ``_blocks``, and delta_R runs on ``field_induced``,
    not on the engine's integer induced maps."""
    F, nA, m = cx.field, cx.dim_a, cx.dim_m
    rows, cols, layout, _ = _blocks(cx, n, which, MAX_ENTRIES)
    coboundary = field_ce_entries if cx.coboundary is _ce_entries else field_coboundary_entries

    def entries(kind, arity):
        if kind == "delta":
            return coboundary(F, nA, m, *cx.maps, arity)
        if kind == "mdelta":
            return coboundary(F, nA, m, *field_induced(cx), arity)
        if kind == "phi":
            return field_operator_map_entries(F, nA, m, cx.R, cx.R_M, cx.kappa, arity)
        return field_defect_entries(F, nA, m, cx.d, cx.d_M, arity)

    def offsets(arities):
        out = [0]
        for a in arities:
            out.append(out[-1] + nA ** a * m)
        return out

    row_off, col_off = offsets(rows), offsets(cols)
    add, neg = F.add, F.neg
    srows = [{} for _ in range(row_off[-1])]
    for i, j, plus, kind, arity in layout:
        ro, co = row_off[i], col_off[j]
        for r, c, v in entries(kind, arity):
            row = srows[ro + r]
            c += co
            if not plus:
                v = neg(v)
            row[c] = add(row[c], v) if c in row else v
    srows = [row if all(row.values()) else {c: v for c, v in row.items() if v} for row in srows]
    return Matrix.from_sparse(F, srows, col_off[-1])


# ---------------------------------------------------------------------------
# extensions, one basis vector at a time


def _vsub(F, a, b):
    return tuple(F.sub(x, y) for x, y in zip(a, b))


def pointwise_section(ext) -> Matrix:
    """The section of p whose column k is the RREF solution of p x = e_k."""
    F, N, n = ext.total.field, ext.total.dim, ext.dim_base
    cols = []
    for k in range(n):
        x = solve_linear(ext.p, unit_vector(F, n, k))
        if x is None:
            raise InvalidStructure("projection is not surjective")
        cols.append(x)
    return Matrix.from_rows(F, [[cols[k][row] for k in range(n)] for row in range(N)])


def pointwise_retraction(ext) -> Matrix:
    """The left inverse of i whose row k is the RREF solution of i^T x = e_k."""
    F, m = ext.total.field, ext.dim_fiber
    it = ext.i.transpose()
    rows = []
    for k in range(m):
        x = solve_linear(it, unit_vector(F, m, k))
        if x is None:
            raise InvalidStructure("inclusion is not injective")
        rows.append(x)
    return Matrix.from_rows(F, rows)


def _pull_to_fiber(ext, L: Matrix, vec) -> tuple:
    """Coordinates of ``vec`` in the fiber; rejects vectors outside im(i)."""
    out = L.apply(vec)
    if ext.i.apply(out) != tuple(vec):
        raise InvalidStructure("vector does not lie in the fiber")
    return out


def pointwise_derive_base(ext) -> tuple:
    """(pair, bimodule) on A and M, each product and action evaluated on one
    pair of basis vectors at a time through s, i, p and L."""
    F = ext.total.field
    n, m = ext.dim_base, ext.dim_fiber
    s = pointwise_section(ext)
    L = pointwise_retraction(ext)
    muh, Rh, dh = ext.total.mu, ext.total.R, ext.total.d
    mu = MultiTensor.from_map(
        F, (n, n), n,
        lambda a, b: ext.p.apply(muh.eval([s.apply(unit_vector(F, n, a)),
                                           s.apply(unit_vector(F, n, b))])))
    pair = MRBDerPair(Algebra(F, n, mu), ext.p * Rh * s, ext.p * dh * s, ext.total.kappa)
    left = MultiTensor.from_map(
        F, (n, m), m,
        lambda a, w: _pull_to_fiber(ext, L, muh.eval([s.apply(unit_vector(F, n, a)),
                                                      ext.i.apply(unit_vector(F, m, w))])))
    right = MultiTensor.from_map(
        F, (m, n), m,
        lambda w, a: _pull_to_fiber(ext, L, muh.eval([ext.i.apply(unit_vector(F, m, w)),
                                                      s.apply(unit_vector(F, n, a))])))
    return pair, Bimodule(m, left, right, L * Rh * ext.i, L * dh * ext.i)


def pointwise_extract_cocycle(pair, bim, ext, section: Matrix | None = None) -> Cochain:
    """theta(a, b) = L(mu'(s a, s b) - s mu(a, b)), xi(a) = L(R' s a - s R a)
    and chi(a) = L(d' s a - s d a), one basis vector at a time."""
    F = ext.total.field
    n, m = ext.dim_base, ext.dim_fiber
    s = pointwise_section(ext) if section is None else section
    if not (ext.p * s - Matrix.identity(F, n)).is_zero():
        raise InvalidStructure("not a section of the projection")
    L = pointwise_retraction(ext)
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


def pairwise_mrb_options(field, alg) -> list:
    """Every (R, kappa) with the operator identity over F_p, kappa solved
    basis pair by basis pair: v = kappa w for v = res(e_i, e_j) at kappa = 0
    and w = mu(e_i, e_j); any kappa when every w and v is zero."""
    F, n, mu = field, alg.dim, alg.mu
    elems = F.elements()
    out = []
    for flat in itertools.product(elems, repeat=n * n):
        R = Matrix.from_rows(F, [flat[i * n:(i + 1) * n] for i in range(n)])
        res = operator_residual(mu, R, R, R, F.zero)
        kappa = None
        consistent = True
        for i, j in itertools.product(range(n), repeat=2):
            v, w = res.value_at(i, j), mu.value_at(i, j)
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
    return out


# ---------------------------------------------------------------------------
# truncated products as nested index loops


def nested_inverse_terms(gauge, order: int) -> list:
    """psi_0..psi_order with (sum psi_i t^i)(sum phi_j t^j) = Id + O(t^{order+1})."""
    psi = [Matrix.identity(gauge.field, gauge.dim)]
    for k in range(1, order + 1):
        acc = Matrix.zeros(gauge.field, gauge.dim, gauge.dim)
        for i in range(1, k + 1):
            acc = acc + gauge.term_at(i) * psi[k - i]
        psi.append(-acc)
    return psi


def nested_compose(g1, g2, order: int):
    """(g1 . g2)_t = g1_t g2_t, truncated."""
    terms = []
    for k in range(1, order + 1):
        acc = Matrix.zeros(g1.field, g1.dim, g1.dim)
        for i in range(k + 1):
            acc = acc + g1.term_at(i) * g2.term_at(k - i)
        terms.append(acc)
    return Gauge(g1.field, g1.dim, tuple(terms))


def nested_apply_gauge(defo, gauge):
    """The deformation transported along the gauge, truncated at its order."""
    pair = defo.pair
    F, n, N = pair.field, pair.dim, defo.order
    psi = nested_inverse_terms(gauge, N)
    mu_terms, R_terms, d_terms = [], [], []
    for order in range(1, N + 1):
        acc_mu = MultiTensor.zeros(F, (n, n), n)
        for i in range(order + 1):
            for j in range(order + 1 - i):
                for k in range(order + 1 - i - j):
                    l = order - i - j - k
                    t = (defo.mu_at(j).precompose_slot(0, gauge.term_at(k))
                         .precompose_slot(1, gauge.term_at(l)).postcompose(psi[i]))
                    acc_mu = acc_mu + t
        mu_terms.append(acc_mu)
        acc_R = Matrix.zeros(F, n, n)
        acc_d = Matrix.zeros(F, n, n)
        for i in range(order + 1):
            for j in range(order + 1 - i):
                k = order - i - j
                acc_R = acc_R + psi[i] * defo.R_at(j) * gauge.term_at(k)
                acc_d = acc_d + psi[i] * defo.d_at(j) * gauge.term_at(k)
        R_terms.append(acc_R)
        d_terms.append(acc_d)
    return Deformation(pair, N, tuple(mu_terms), tuple(R_terms), tuple(d_terms))


def columnwise_right_inverse(m: Matrix):
    """The right inverse of ``m`` whose column k is ``solve_linear(m, e_k)``,
    or None when some e_k is out of reach."""
    F, n = m.field, m.nrows
    cols = [solve_linear(m, unit_vector(F, n, k)) for k in range(n)]
    if None in cols:
        return None
    return Matrix.from_rows(F, zip(*cols))


# ---------------------------------------------------------------------------
# frozen-dataclass twins of the value classes


def _twin(name: str, *fields) -> type:
    """The frozen dataclass ``name``; each field is a bare name or (name,
    default), the default a value or a ``dataclasses.field``."""
    spec = []
    for f in fields:
        if isinstance(f, str):
            spec.append((f, object))
        else:
            default = f[1] if isinstance(f[1], dataclasses.Field) else dataclasses.field(default=f[1])
            spec.append((f[0], object, default))
    return make_dataclass(name, spec, frozen=True)


VALUE_TWINS = {t.__name__: t for t in (
    _twin("Field", ("p", None)),
    _twin("MultiTensor", "field", "dims", "cod", "entries"),
    _twin("TensorSpace", "field", "dims", "cod"),
    _twin("CheckFailure", "identity", "args", "residual"),
    _twin("CheckReport", "ok", "failures"),
    _twin("Algebra", "field", "dim", "mu"),
    _twin("MRBDerPair", "algebra", "R", "d", "kappa",
          ("_complexes", dataclasses.field(default_factory=dict, init=False, repr=False,
                                           compare=False))),
    _twin("Bimodule", "dim_m", "left", "right", "R_M", "d_M"),
    _twin("LiePair", "field", "dim", "bracket", "R", "d", "kappa",
          ("rho", None), ("R_M", None), ("d_M", None)),
    _twin("Cochain", "degree", "parts"),
    _twin("CochainSpace", "field", "dim_a", "dim_m", "arities"),
    _twin("Deformation", "pair", "order", "mu_terms", "R_terms", "d_terms"),
    _twin("Gauge", "field", "dim", "terms"),
    _twin("Extension", "total", "i", "p",
          ("_splitting", dataclasses.field(default_factory=dict, init=False, repr=False,
                                           compare=False))),
    _twin("ExtensionClassification", "dim_h2", "count", "representatives", "complete"),
    _twin("Instance", "pair", ("bim", None), ("deformation", None), ("extension", None),
          ("cocycle", None)),
    _twin("FuzzInstance", "pair", "bim", "label"),
)}
