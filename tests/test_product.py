"""The integer product ``Matrix.__mul__`` against the entry-by-entry
reference ``oracles.dense_matmul``, over Q and F_5.

The product has two inner loops: it walks the rows of a right factor with at
most two nonzeros per row on average and packs them otherwise.  A spy on
both loops checks which one a product took, on each side of the rule and
exactly at it, and on the differentials of the dual pair in the standard
basis (walked) and after a basis change (packed).  Every comparison is by
``repr``, so the entries, their types and the shape all have to match, not
only the values.  Each product is also taken of factors made from their
integer rows, as given and with both ints and scale tripled, so that the
integer form runs through both loops too.

``Matrix.product_is_zero`` must agree with the product's ``is_zero`` on
every one of these products, read an integer sum that is a nonzero
multiple of p as zero over F_p, hold only a few KB where the product holds
hundreds, and be the one test of D_{n+1} D_n = 0 in ``cohomology`` and
``complex-check``.
"""

import json
import random
import tracemalloc
from fractions import Fraction

import pytest

from mrbder import linalg
from mrbder.cli import main
from mrbder.cohomology import cohomology, differential_matrix
from mrbder.constructions import direct_sum
from mrbder.fields import Field, QQ
from mrbder.fuzzing import conjugate_pair, random_invertible
from mrbder.linalg import Matrix, ShapeError, _digit_width
from mrbder.serialize import Instance, instance_to_json
from mrbder.structures import adjoint_bimodule, dual_pair, upper_triangular_pair

from oracles import dense_matmul

F5 = Field(5)
FIELDS = [pytest.param(QQ, id="Q"), pytest.param(F5, id="F5")]
# pairwise coprime denominators, so the lcm of a row grows with every entry
DENOMINATORS = (1, 3, 7, 11, 13, 2**61 - 1, 10**9 + 7)


def big_entry(rng, F):
    """About 2**100 in size over Q, with either sign; a residue over F_5."""
    if F.p is not None:
        return rng.randrange(1, F.p)
    return Fraction(rng.randrange(-2**100, 2**100) or 1, rng.choice(DENOMINATORS))


def random_matrix(rng, F, nr, nc, density):
    return Matrix.from_rows(F, [[big_entry(rng, F) if rng.random() < density else F.zero
                                 for _ in range(nc)] for _ in range(nr)])


def right_factor(rng, F, nk, nc, nnz):
    """An nk x nc matrix with exactly ``nnz`` nonzeros at random places off
    its first row, which is empty."""
    cells = set(rng.sample(range(nc, nk * nc), nnz))
    return Matrix.from_rows(F, [[big_entry(rng, F) if i * nc + j in cells else F.zero
                                 for j in range(nc)] for i in range(nk)])


@pytest.fixture
def loops(monkeypatch):
    """The inner loop each product takes, "walk" or "packed", in order."""
    taken = []
    for name, loop in (("_walked_rows", "walk"), ("_packed_dots", "packed")):
        def spy(*args, inner=getattr(linalg, name), loop=loop):
            taken.append(loop)
            return inner(*args)
        monkeypatch.setattr(linalg, name, spy)
    return taken


def sparse_copy(m):
    """The same matrix made from sparse rows."""
    return Matrix.from_sparse(m.field, [dict(r) for r in m.sparse_rows], m.ncols)


def int_copy(m, k=1):
    """The same matrix made from its integer rows, ints and scale times k."""
    scale, rows = m.int_rows()
    return Matrix.from_ints(m.field, [{j: k * v for j, v in r.items()} for r in rows],
                            k * scale, m.ncols)


def assert_same_product(a, b):
    want = dense_matmul(a, b)
    zero = want.is_zero()
    for x, y in ((a, b), (sparse_copy(a), sparse_copy(b)), (int_copy(a), int_copy(b)),
                 (int_copy(a, 3), int_copy(b, 3))):
        assert repr(x * y) == repr(want)
        assert x.product_is_zero(y) is zero


@pytest.mark.parametrize("F", FIELDS)
@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("nr, nk, nc, left, right", [
    (1, 1, 1, 1.0, 1.0),
    (4, 5, 3, 1.0, 1.0),        # dense x dense
    (12, 30, 9, 0.08, 1.0),     # sparse x dense
    (9, 30, 12, 1.0, 0.08),     # dense x sparse
    (20, 25, 15, 0.1, 0.1),     # sparse x sparse, with zero rows and columns
])
def test_random_products(F, seed, nr, nk, nc, left, right):
    rng = random.Random(seed)
    assert_same_product(random_matrix(rng, F, nr, nk, left), random_matrix(rng, F, nk, nc, right))


@pytest.mark.parametrize("F", FIELDS)
def test_zero_rows_and_columns(F):
    rng = random.Random(5)
    a = random_matrix(rng, F, 6, 7, 0.7)
    b = random_matrix(rng, F, 7, 5, 0.7)
    z = F.zero
    a = Matrix(F, tuple(r if i % 2 else (z,) * 7 for i, r in enumerate(a.rows)))
    b = Matrix(F, tuple(tuple(z if j in (0, 3) else x for j, x in enumerate(r)) for r in b.rows))
    assert_same_product(a, b)
    assert_same_product(Matrix.zeros(F, 3, 5), b.transpose())
    assert (a * Matrix.zeros(F, 7, 2)).is_zero()


# (nonzeros per row of the right factor above 2 on average, the loop)
SIDES = {"below": (-1, "walk"), "at": (0, "walk"), "above": (1, "packed")}


@pytest.mark.parametrize("F", FIELDS)
@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("side", SIDES)
def test_each_side_of_the_rule(F, seed, side, loops):
    rng = random.Random(seed)
    extra, loop = SIDES[side]
    a = random_matrix(rng, F, 10, 12, 0.5)
    b = right_factor(rng, F, 12, 9, 2 * 12 + extra)
    assert_same_product(a, b)
    assert set(loops) == {loop}


@pytest.mark.parametrize("F", FIELDS)
@pytest.mark.parametrize("side", SIDES)
def test_products_that_cancel_in_either_loop(F, side, loops):
    # [a | a] times [b ; -b]: every entry of the integer product cancels
    rng = random.Random(8)
    extra, loop = SIDES[side]
    a = random_matrix(rng, F, 8, 6, 0.5)
    b = right_factor(rng, F, 6, 5, 2 * 6 + extra)
    neg = Matrix(F, tuple(tuple(F.neg(x) for x in r) for r in b.rows))
    stacked, both = Matrix(F, tuple(r + r for r in a.rows)), Matrix(F, b.rows + neg.rows)
    assert (stacked * both).is_zero() and stacked.product_is_zero(both)
    assert_same_product(stacked, both)
    assert set(loops) == {loop}


@pytest.mark.parametrize("F", FIELDS)
def test_differentials_pick_their_loop(F, loops):
    # D_3 D_2 of the dual pair: D_2 has under one nonzero per row in the
    # standard basis and more than two after a basis change
    std = dual_pair(F)
    conj = conjugate_pair(std, random_invertible(random.Random(0), F, std.dim))
    for pair, loop in ((std, "walk"), (conj, "packed")):
        bim = adjoint_bimodule(pair)
        d3, d2 = (differential_matrix(pair, bim, n, "pair") for n in (3, 2))
        del loops[:]
        assert (d3 * d2).is_zero()
        assert loops == [loop]
        assert repr(d3 * d2) == repr(dense_matmul(d3, d2))


@pytest.mark.parametrize("F", FIELDS)
def test_empty_shapes(F, loops):
    # a right factor with no nonzeros is walked
    rng = random.Random(6)
    n_by_0 = Matrix(F, ((),) * 3)
    no_rows = Matrix(F, ())           # a matrix with no rows has no columns
    a = random_matrix(rng, F, 2, 3, 1.0)
    for x, y in ((n_by_0, no_rows), (no_rows, no_rows), (a, n_by_0)):
        assert_same_product(x, y)
    assert ((a * n_by_0).nrows, (a * n_by_0).ncols) == (2, 0)
    assert ((n_by_0 * no_rows).nrows, (n_by_0 * no_rows).ncols) == (3, 0)
    with pytest.raises(ShapeError):
        no_rows * a
    assert set(loops) == {"walk"}


@pytest.mark.parametrize("F", FIELDS)
def test_products_that_cancel(F):
    # D_{n+1} D_n = 0 in the form a product check meets it: each entry of the
    # integer product is a sum that cancels (over F_5, only mod 5)
    rng = random.Random(7)
    a = random_matrix(rng, F, 8, 6, 0.5)
    b = random_matrix(rng, F, 6, 5, 0.5)
    neg = Matrix(F, tuple(tuple(F.neg(x) for x in r) for r in b.rows))
    stacked = Matrix(F, tuple(r + r for r in a.rows))
    assert (stacked * Matrix(F, b.rows + neg.rows)).is_zero()
    assert stacked.product_is_zero(Matrix(F, b.rows + neg.rows))


@pytest.mark.parametrize("F", FIELDS)
@pytest.mark.parametrize("k", [1, 2, 3, 4, 8, 9])
def test_digits_at_the_edge_of_the_width(F, k, loops):
    # the right factor has four nonzeros per row, so the product packs them.
    # Widths of 8, 16, 32 and 64 bits are read as machine words, 24 and 72
    # bits byte by byte.  With |entry| <= bound = 2**(8k-1) - 1 the width is
    # w = 8k bits, and entries of +-(2**(w-1) - 1), the largest a digit holds,
    # sit next to each other, so a borrow out of one digit reaches the next.
    w = 8 * k
    x, y = 2**(w - 2), 2**(w - 2) - 1
    assert _digit_width(x + y) == w and _digit_width(x + y + 1) == w + 8
    one, minus = F.from_int(1), F.from_int(-1)
    right = Matrix.from_rows(F, [[one, minus, one, F.zero, minus],
                                 [one, minus, minus, F.zero, one]])
    for left_row in ((x, y), (x, x), (-x, -y)):
        # (x, x) gives entries of exactly +-2**(w-1), which need one byte more
        left = Matrix.from_rows(F, [[F.from_int(v) for v in left_row],
                                    [F.from_int(v) for v in reversed(left_row)]])
        assert_same_product(left, right)
    if F.p is None:
        got = (Matrix.from_rows(F, [[F.from_int(x), F.from_int(y)]]) * right).rows[0]
        assert got == (2**(w - 1) - 1, 1 - 2**(w - 1), 1, 0, -1)
    assert set(loops) == {"packed"}


@pytest.mark.parametrize("width, loop", [(2, "walk"), (3, "packed")])
def test_the_zero_test_reads_integer_sums_modulo_p(width, loop, loops):
    # over F_5, with right rows of ``width`` ones, each entry of the integer
    # product is 5 or 10: not zero as an integer, zero as a residue; one
    # more 1 in the left row makes it nonzero
    one, zero = F5.one, F5.zero
    b = Matrix(F5, ((one,) * width + (zero,) * (3 - width),) * 12)
    for ones, is_zero in ((5, True), (10, True), (6, False)):
        a = Matrix(F5, ((one,) * ones + (zero,) * (12 - ones),))
        assert a.product_is_zero(b) is is_zero is (a * b).is_zero()
    assert set(loops) == {loop}


@pytest.mark.parametrize("F", FIELDS)
def test_the_zero_test_keeps_no_product(F):
    # D_3 D_2 of ut+dual (4500 x 175): the product holds 0.3-0.8 MB of rows,
    # the zero test a few KB at its peak
    pair = direct_sum(upper_triangular_pair(F, F.one), dual_pair(F))
    bim = adjoint_bimodule(pair)
    d3, d2 = (differential_matrix(pair, bim, n, "pair") for n in (3, 2))
    d3.int_rows(), d2.int_rows()
    tracemalloc.start()
    try:
        assert d3.product_is_zero(d2)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        assert (d3 * d2).is_zero()
        product_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024 < product_peak


@pytest.mark.parametrize("F", FIELDS)
def test_the_product_checks_make_no_product(F, monkeypatch, tmp_path, capsys):
    # cohomology and the complex-check command test D_{n+1} D_n = 0 with the
    # zero test alone
    made, checked, real_mul, real = [], [], Matrix.__mul__, Matrix.product_is_zero
    monkeypatch.setattr(Matrix, "__mul__",
                        lambda a, b: made.append((a.nrows, b.nrows)) or real_mul(a, b))
    monkeypatch.setattr(Matrix, "product_is_zero",
                        lambda a, b: checked.append((a.nrows, b.nrows)) or real(a, b))
    pair = dual_pair(F)
    bim = adjoint_bimodule(pair)
    assert [cohomology(pair, bim, n).dim_h for n in (1, 2, 3)] == [1, 1, 0]
    assert checked == [(36, 16), (72, 36)]
    del checked[:]
    path = tmp_path / "dual.json"
    path.write_text(json.dumps(instance_to_json(Instance(pair, bim))))
    assert main(["complex-check", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True
    assert checked == [(36, 16), (72, 36)]
    assert not set(made) & set(checked)


# ---------------------------------------------------------------------------
# empty and one-nonzero rows: the zero test decides them without a sum, and
# the walk makes them without one


def rows_of_every_kind(rng, F, per_row, lone):
    """(A, B) with B of 12 rows, every third one empty and each of the others
    (``per_row`` nonzeros, columns unsorted) followed by its copy, and A of rows whose products with B are zero:
    empty, one nonzero at an empty row of B, a and -a at a row of B and at
    its copy (over F_p the residues a and p - a, whose integer sum p a B_k
    is zero mod p only), and mixes of those, in a seeded order.  With
    ``lone`` nonzeros (1 or 2), one more row of A, placed last, has a
    nonzero product."""
    nk, nc = 12, 9
    B = [{} for _ in range(nk)]
    for k in range(1, nk, 3):
        # in the sampled order, so a row of A with one nonzero must sort its product
        B[k] = {j: big_entry(rng, F) for j in rng.sample(range(nc), per_row)}
        B[k + 1] = dict(B[k])
    empty, full = range(0, nk, 3), range(1, nk, 3)

    def cancelling(k):
        a = big_entry(rng, F)
        return {k: a, k + 1: F.neg(a)}

    A = [{}, {}, {rng.choice(empty): big_entry(rng, F)}, {rng.choice(empty): big_entry(rng, F)}]
    A += [cancelling(k) for k in full]
    A += [{**cancelling(1), rng.choice(empty): big_entry(rng, F), **cancelling(7)}]
    rng.shuffle(A)
    k = rng.choice(full)
    if lone == 1:
        A.append({k: big_entry(rng, F)})
    elif lone == 2:
        a = big_entry(rng, F)
        A.append({k: a, k + 1: a})
    return Matrix.from_sparse(F, A, nk), Matrix.from_sparse(F, B, nc)


@pytest.mark.parametrize("F", FIELDS + [pytest.param(Field(7), id="F7")])
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("per_row, loop", [(2, "walk"), (4, "packed")])
@pytest.mark.parametrize("lone", [0, 1, 2])
def test_empty_and_one_nonzero_rows(F, seed, per_row, loop, lone, monkeypatch):
    a, b = rows_of_every_kind(random.Random(seed), F, per_row, lone)
    walked, inner = [], linalg._walked_rows
    monkeypatch.setattr(linalg, "_walked_rows",
                        lambda A, B: walked.append([len(r) for r in A]) or inner(A, B))
    assert dense_matmul(a, b).is_zero() is (lone == 0)
    assert_same_product(a, b)
    # the walk keeps its rows in increasing column order
    assert all(list(r) == sorted(r) for r in (a * b).sparse_rows)
    # the zero test walks only the rows with two nonzeros or more
    del walked[:]
    assert a.product_is_zero(b) is (lone == 0)
    assert all(n > 1 for lens in walked for n in lens)
    assert bool(walked) is (loop == "walk" and lone != 1)
    # the product walks every row: empty ones give empty rows, in place
    del walked[:]
    product = a * b
    assert walked == ([[len(r) for r in a.sparse_rows]] if loop == "walk" else [])
    assert [bool(r) for r in product.sparse_rows] == [i == a.nrows - 1 and lone > 0
                                                      for i in range(a.nrows)]
