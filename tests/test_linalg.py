import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from mrbder.fields import Field, QQ
from mrbder.linalg import (MAX_ENTRIES, EntryCapExceeded, Matrix, MultiTensor, ShapeError,
                           TensorSpace, check_entries, matrix_as_tensor, rank_and_kernel,
                           rref_vectors, solve_linear, tensor_as_matrix)
from mrbder.serialize import load_instance

from oracles import operator_matrix

F5 = Field.prime(5)


def qmat(rows):
    return Matrix.from_rows(QQ, [[QQ.parse(x) for x in row] for row in rows])


class TestMatrix:
    def test_apply_column_convention(self):
        # column j is the image of e_j
        m = qmat([[1, 2], [3, 4]])
        assert m.apply((1, 0)) == (QQ.parse(1), QQ.parse(3))
        assert m.apply((0, 1)) == (QQ.parse(2), QQ.parse(4))

    def test_mul_against_apply(self):
        rng = random.Random(1)
        for _ in range(20):
            a = Matrix.from_rows(QQ, [[QQ.random(rng) for _ in range(3)] for _ in range(2)])
            b = Matrix.from_rows(QQ, [[QQ.random(rng) for _ in range(2)] for _ in range(3)])
            v = tuple(QQ.random(rng) for _ in range(2))
            assert (a * b).apply(v) == a.apply(b.apply(v))

    def test_shape_errors(self):
        m = qmat([[1, 2]])
        with pytest.raises(ShapeError):
            m.apply((1,))
        with pytest.raises(ShapeError):
            m + qmat([[1], [2]])
        with pytest.raises(ShapeError):
            qmat([[1, 2]]) * qmat([[1, 2]])

    def test_identity_scalar_blockdiag(self):
        i2 = Matrix.identity(QQ, 2)
        s = Matrix.scalar(QQ, 2, QQ.parse(3))
        assert s.apply((1, 1)) == (QQ.parse(3), QQ.parse(3))
        bd = i2.block_diag(s)
        assert bd.nrows == 4 and bd.ncols == 4
        assert bd.apply((1, 0, 1, 0)) == (QQ.one, QQ.zero, QQ.parse(3), QQ.zero)

    def test_inverse(self):
        m = qmat([[1, 2], [3, 5]])
        mi = m.inverse()
        assert (m * mi - Matrix.identity(QQ, 2)).is_zero()
        assert (mi * m - Matrix.identity(QQ, 2)).is_zero()
        with pytest.raises(ValueError):
            qmat([[1, 2], [2, 4]]).inverse()
        with pytest.raises(ShapeError):
            qmat([[1, 2]]).inverse()

    def test_inverse_f5(self):
        rng = random.Random(7)
        for _ in range(20):
            rows = [[F5.random(rng) for _ in range(3)] for _ in range(3)]
            m = Matrix.from_rows(F5, rows)
            rank, _ = rank_and_kernel(m)
            if rank < 3:
                continue
            assert (m * m.inverse() - Matrix.identity(F5, 3)).is_zero()


    @pytest.mark.parametrize("F", [QQ, F5], ids=["Q", "F5"])
    def test_sparse_rows_read_as_the_dense_matrix(self, F):
        z, c = F.zero, F.from_int
        dense = Matrix(F, ((z, c(2), z, z), (z, z, z, z), (c(-1), z, z, c(3))))
        rows = [{1: c(2)}, {}, {3: c(3), 0: c(-1)}]
        sparse = Matrix.from_sparse(F, rows, 4)
        assert sparse.rows == dense.rows and repr(sparse) == repr(dense)
        assert sparse.rows is sparse.rows          # built once, then kept
        assert (sparse.nrows, sparse.ncols) == (dense.nrows, dense.ncols) == (3, 4)
        assert sparse == dense and dense == sparse and hash(sparse) == hash(dense)
        assert dense.sparse_rows == rows and sparse.sparse_rows is rows
        # equal with both sparse forms at hand, and unequal on one entry
        assert Matrix.from_sparse(F, [dict(r) for r in rows], 4) == dense
        changed = Matrix.from_sparse(F, [{1: c(2)}, {}, {3: c(4), 0: c(-1)}], 4)
        assert changed != sparse and changed != dense and dense != changed
        assert Matrix.from_sparse(F, rows, 5) != sparse
        assert sparse.transpose() == dense.transpose()
        assert {sparse, dense} == {dense}
        # a matrix with no rows has no columns, however it was made
        assert Matrix.from_sparse(F, [], 5) == Matrix(F, ())
        assert Matrix.from_sparse(F, [], 5).ncols == 0


class TestRref:
    def test_known_form(self):
        rows = [tuple(QQ.parse(x) for x in r) for r in ([2, 4, 6], [1, 2, 4])]
        basis, pivots = rref_vectors(QQ, rows)
        assert pivots == [0, 2]
        assert basis == [(QQ.one, QQ.parse(2), QQ.zero), (QQ.zero, QQ.zero, QQ.one)]

    def test_idempotent(self):
        rng = random.Random(3)
        for _ in range(25):
            rows = [tuple(F5.random(rng) for _ in range(4)) for _ in range(3)]
            first = rref_vectors(F5, rows)
            assert rref_vectors(F5, first[0]) == first

    def test_rref_vectors_canonical(self):
        # same span listed in different orders reduces identically
        v1 = [tuple(QQ.parse(x) for x in v) for v in ([1, 1, 0], [0, 1, 1])]
        v2 = [tuple(QQ.parse(x) for x in v) for v in ([1, 2, 1], [0, 1, 1], [1, 1, 0])]
        b1, p1 = rref_vectors(QQ, v1)
        b2, p2 = rref_vectors(QQ, v2)
        assert b1 == b2 and p1 == p2

    @pytest.mark.parametrize("F", [QQ, F5], ids=["Q", "F5"])
    @pytest.mark.parametrize("lengths", [(1, 2), (2, 1), (3, 3, 2)])
    def test_ragged_vectors_are_refused(self, F, lengths):
        # a shorter vector is not padded with zeros, nor a longer one cut
        vectors = [tuple(F.from_int(k + 1) for k in range(n)) for n in lengths]
        with pytest.raises(ShapeError, match="ragged vectors"):
            rref_vectors(F, vectors)


class TestKernelSolve:
    def test_rank_deficient_kernel(self):
        m = qmat([[1, 2], [2, 4]])
        rank, kernel = rank_and_kernel(m)
        assert rank == 1
        assert len(kernel) == 1
        assert kernel[0] == (QQ.parse(-2), QQ.one)

    def test_zero_matrix_kernel_is_everything(self):
        m = Matrix.zeros(QQ, 2, 3)
        rank, kernel = rank_and_kernel(m)
        assert rank == 0
        assert kernel == [(QQ.one, QQ.zero, QQ.zero),
                          (QQ.zero, QQ.one, QQ.zero),
                          (QQ.zero, QQ.zero, QQ.one)]

    def test_kernel_really_annihilates(self):
        rng = random.Random(11)
        for _ in range(30):
            m = Matrix.from_rows(F5, [[F5.random(rng) for _ in range(4)] for _ in range(3)])
            rank, kernel = rank_and_kernel(m)
            assert rank + len(kernel) == 4
            for v in kernel:
                assert all(x == 0 for x in m.apply(v))

    def test_solve_consistent(self):
        m = qmat([[1, 2], [3, 4]])
        b = (QQ.parse(5), QQ.parse(11))
        x = solve_linear(m, b)
        assert x is not None and m.apply(x) == b

    def test_solve_inconsistent(self):
        m = qmat([[1, 2], [2, 4]])
        assert solve_linear(m, (QQ.one, QQ.zero)) is None

    def test_solve_underdetermined_free_vars_zero(self):
        m = qmat([[1, 0, 2]])
        x = solve_linear(m, (QQ.parse(3),))
        assert x == (QQ.parse(3), QQ.zero, QQ.zero)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_solve_random_f5(self, seed):
        rng = random.Random(seed)
        m = Matrix.from_rows(F5, [[F5.random(rng) for _ in range(3)] for _ in range(3)])
        x0 = tuple(F5.random(rng) for _ in range(3))
        b = m.apply(x0)
        x = solve_linear(m, b)
        assert x is not None
        assert m.apply(x) == b


class TestMultiTensor:
    def bilinear(self):
        # f(e_i, e_j) = (i + j, i * j) over Q
        return MultiTensor.from_map(QQ, (2, 3), 2,
                                    lambda i, j: (QQ.parse(i + j), QQ.parse(i * j)))

    @pytest.mark.parametrize("F", [QQ, F5], ids=["Q", "F5"])
    def test_nonzero_values(self, F):
        # lexicographic order; a value with one nonzero coordinate counts
        t = MultiTensor.from_map(F, (2, 3), 2, lambda i, j: (
            F.from_int(i * j % 2), F.from_int(5 * (i + j) if i == 0 else 0)))
        want = [((i, j), t.value_at(i, j)) for i in range(2) for j in range(3)
                if not all(map(F.is_zero, t.value_at(i, j)))]
        assert list(t.nonzero_values()) == want
        assert [idx for idx, _ in want] == ([(0, 1), (0, 2), (1, 1)] if F is QQ else [(1, 1)])
        assert list(MultiTensor.zeros(F, (2, 2), 3).nonzero_values()) == []
        assert list(MultiTensor(F, (), 2, (F.zero, F.one)).nonzero_values()) == [((), (F.zero, F.one))]

    def test_value_eval_agree(self):
        t = self.bilinear()
        for i in range(2):
            for j in range(3):
                u = tuple(QQ.one if k == i else QQ.zero for k in range(2))
                v = tuple(QQ.one if k == j else QQ.zero for k in range(3))
                assert t.eval([u, v]) == t.value_at(i, j)

    def test_eval_is_multilinear(self):
        t = self.bilinear()
        rng = random.Random(5)
        for _ in range(10):
            u1 = tuple(QQ.random(rng) for _ in range(2))
            u2 = tuple(QQ.random(rng) for _ in range(2))
            v = tuple(QQ.random(rng) for _ in range(3))
            lhs = t.eval([tuple(QQ.add(a, b) for a, b in zip(u1, u2)), v])
            r1 = t.eval([u1, v])
            r2 = t.eval([u2, v])
            assert lhs == tuple(QQ.add(a, b) for a, b in zip(r1, r2))

    def test_precompose_slot(self):
        t = self.bilinear()
        m = qmat([[0, 1], [1, 0]])  # swap on the first slot
        s = t.precompose_slot(0, m)
        for i in range(2):
            for j in range(3):
                assert s.value_at(i, j) == t.value_at(1 - i, j)

    def test_precompose_rectangular(self):
        t = self.bilinear()
        m = qmat([[1], [2]])  # k -> k^2
        s = t.precompose_slot(0, m)
        assert s.dims == (1, 3)
        for j in range(3):
            want = tuple(QQ.add(a, QQ.mul(QQ.parse(2), b))
                         for a, b in zip(t.value_at(0, j), t.value_at(1, j)))
            assert s.value_at(0, j) == want

    def test_postcompose(self):
        t = self.bilinear()
        m = qmat([[2, 0], [0, 3]])
        s = t.postcompose(m)
        for i in range(2):
            for j in range(3):
                assert s.value_at(i, j) == m.apply(t.value_at(i, j))

    def test_permute_slots(self):
        t = MultiTensor.from_map(QQ, (2, 2, 2), 1,
                                 lambda i, j, k: (QQ.parse(i + 2 * j + 4 * k),))
        # argument i of the result feeds slot perm[i] of t
        p = t.permute_slots([2, 0, 1])
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    u = [tuple(QQ.one if a == x else QQ.zero for a in range(2))
                         for x in (i, j, k)]
                    assert p.eval(u) == t.eval([u[1], u[2], u[0]])
        assert p.permute_slots([1, 2, 0]).entries == t.entries

    def test_arith(self):
        t = self.bilinear()
        z = t - t
        assert z.is_zero()
        assert (t + t).entries == t.scale(QQ.parse(2)).entries
        assert (-t).entries == t.scale(QQ.parse(-1)).entries

    @pytest.mark.parametrize("F", [QQ, F5], ids=["Q", "F5"])
    def test_contraction_against_the_index_formula(self, F):
        # every operation that takes a slot through a matrix, on sparse
        # random tensors with three slots, against the sum written per index
        rng = random.Random(7)

        def draw():
            return F.random(rng) if rng.random() < 0.4 else F.zero

        for dims, cod in (((2, 3, 2), 2), ((3, 1, 2), 3)):
            t = MultiTensor.from_map(F, dims, cod, lambda *_: tuple(draw() for _ in range(cod)))
            for slot, d in enumerate(dims):
                m = Matrix.from_rows(F, [[draw() for _ in range(2)] for _ in range(d)])
                got = t.precompose_slot(slot, m)
                for idx in itertools.product(*map(range, got.dims)):
                    want = [F.zero] * cod
                    for s in range(d):
                        c = m.entry(s, idx[slot])
                        v = t.value_at(*idx[:slot], s, *idx[slot + 1:])
                        want = [F.add(w, F.mul(c, x)) for w, x in zip(want, v)]
                    assert got.value_at(*idx) == tuple(want)
            m = Matrix.from_rows(F, [[draw() for _ in range(cod)] for _ in range(4)])
            got = t.postcompose(m)
            args = [tuple(draw() for _ in range(d)) for d in dims]
            want = [F.zero] * cod
            for idx in itertools.product(*map(range, dims)):
                c = F.one
                for a, i in zip(args, idx):
                    c = F.mul(c, a[i])
                want = [F.add(w, F.mul(c, x)) for w, x in zip(want, t.value_at(*idx))]
                assert got.value_at(*idx) == m.apply(t.value_at(*idx))
            assert t.eval(args) == tuple(want)
        b = MultiTensor.from_map(F, (2, 3), 2, lambda *_: (draw(), draw()))
        for i in range(2):
            assert b.partial_map(0, i).rows == tuple(zip(*(b.value_at(i, j) for j in range(3))))
        for i in range(3):
            assert b.partial_map(1, i).rows == tuple(zip(*(b.value_at(j, i) for j in range(2))))

    def test_from_blocks(self):
        # V_0 + V_1 of dims 2 and 1, three distinct blocks, one left out
        F = QQ
        blocks = {(0, 0, 0): MultiTensor.from_map(F, (2, 2), 2, lambda i, j: (F.parse(i + 1), F.parse(j + 2))),
                  (0, 1, 1): MultiTensor.from_map(F, (2, 1), 1, lambda i, j: (F.parse(10 + i),)),
                  (1, 0, 0): MultiTensor.from_map(F, (1, 2), 2, lambda i, j: (F.parse(20 + j), F.parse(30)))}
        t = MultiTensor.from_blocks(F, (2, 1), blocks)
        assert (t.dims, t.cod) == ((3, 3), 3)
        part = [(0, 2), (2, 3)]
        for x, y in itertools.product(range(3), repeat=2):
            want = [F.zero] * 3
            i, j = int(x >= 2), int(y >= 2)
            for k in (0, 1):
                if (i, j, k) in blocks:
                    lo, hi = part[k]
                    want[lo:hi] = blocks[i, j, k].value_at(x - part[i][0], y - part[j][0])
            assert t.value_at(x, y) == tuple(want)

    def test_zero_dimensional_codomain(self):
        # a map into the zero space: no entries, and nothing to divide by
        t = MultiTensor.zeros(QQ, (2, 0), 0)
        empty = Matrix(QQ, ())
        assert t.postcompose(empty) == t
        assert t.precompose_slot(1, empty) == t
        assert t.partial_map(0, 1) == empty
        assert t.eval([(QQ.one, QQ.one), ()]) == ()

    def test_matrix_tensor_round_trip(self):
        m = qmat([[1, 2, 3], [4, 5, 6]])
        assert tensor_as_matrix(matrix_as_tensor(m)).rows == m.rows
        t = MultiTensor.from_map(QQ, (2,), 3, lambda i: (QQ.parse(i), QQ.one, QQ.zero))
        assert matrix_as_tensor(tensor_as_matrix(t)).entries == t.entries


class TestTensorSpace:
    def test_flatten_round_trip(self):
        sp = TensorSpace(QQ, (2, 2), 2)
        assert sp.dim == 8
        rng = random.Random(2)
        vec = tuple(QQ.random(rng) for _ in range(8))
        assert sp.flatten(sp.unflatten(vec)) == vec

    def test_basis(self):
        sp = TensorSpace(F5, (2,), 2)
        basis = list(sp.basis())
        assert len(basis) == 4
        flats = [sp.flatten(b) for b in basis]
        for k, f in enumerate(flats):
            assert f[k] == 1 and sum(f) == 1

    def test_operator_matrix_linear_map(self):
        sp = TensorSpace(QQ, (2,), 2)
        m = qmat([[0, 1], [1, 0]])
        mat = operator_matrix(sp, sp, lambda t: t.postcompose(m))
        # swapping codomain coordinates permutes the flat entries pairwise
        vec = tuple(QQ.parse(x) for x in (1, 2, 3, 4))
        assert mat.apply(vec) == tuple(QQ.parse(x) for x in (2, 1, 4, 3))


def test_entry_cap(monkeypatch):
    # the budget is an argument: a 64-entry tensor is over 10 and within
    # the default, and a tensor is built, whatever its size, only once a
    # request has checked it
    with pytest.raises(EntryCapExceeded, match="^tensor with 64 entries exceeds cap 10$"):
        check_entries(64, 10)
    check_entries(64, 64)
    check_entries(MAX_ENTRIES, MAX_ENTRIES)
    assert MAX_ENTRIES == 10 ** 6
    assert len(MultiTensor.zeros(QQ, (4, 4), 4).entries) == 64


def test_from_map_checks_the_cap_before_filling(monkeypatch):
    # a file declaring dim 10^5 is refused at mu, before from_map fills an entry
    def fill(*args):
        raise AssertionError("from_map was called for an oversized tensor")

    monkeypatch.setattr(MultiTensor, "from_map", fill)
    text = '{"field": "Q", "dim": 100000, "kappa": 0, "mu": [], "R": [], "d": []}'
    with pytest.raises(EntryCapExceeded, match="^tensor with %d entries exceeds cap 1000000$" % 10 ** 15):
        load_instance(text)
    with pytest.raises(EntryCapExceeded, match="exceeds cap 7$"):
        load_instance(text.replace("100000", "2"), max_entries=7)


def test_partial_map_fixes_one_argument():
    t = MultiTensor(QQ, (2, 3), 2, tuple(QQ.parse(k) for k in range(12)))
    left = t.partial_map(0, 1)
    assert (left.nrows, left.ncols) == (2, 3)
    for j in range(3):
        assert left.apply(tuple(QQ.one if k == j else QQ.zero for k in range(3))) == t.value_at(1, j)
    right = t.partial_map(1, 2)
    assert (right.nrows, right.ncols) == (2, 2)
    for i in range(2):
        assert right.apply(tuple(QQ.one if k == i else QQ.zero for k in range(2))) == t.value_at(i, 2)
    with pytest.raises(ShapeError):
        t.partial_map(2, 0)
