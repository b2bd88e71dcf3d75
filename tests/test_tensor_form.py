"""One stored form per tensor: (scale, flat ints).

Every way of making a :class:`MultiTensor` stores the entries times an int
scale > 0 at the least such scale, the residues at scale 1 over F_p, and
``int_entries`` returns that pair; every operation computes on it.  Each
result must equal the dense-Fraction implementation the class once had
(the ``dense_*`` oracles, one field operation per dense entry) and store
the pair that a tensor made from the oracle's entries stores.  A tensor
made from field entries keeps that very tuple as ``entries``; a view read
off the ints uses the field's shared zero object for each zero.  The cases
run over Q, F_5 and F_p with p = 2**61 - 1, on arities 0 to 3, with
operands at scale 1 and above it, sums that cancel to zero, and c = 0, 1,
-1 and a non-unit multiple.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from mrbder.cohomology import PairSpace
from mrbder.fields import Field, QQ
from mrbder.linalg import (Matrix, MultiTensor, ShapeError, TensorSpace, matrix_as_tensor,
                           tensor_as_matrix)

from oracles import (dense_apply, dense_eval, dense_from_blocks, dense_matrix_as_tensor,
                     dense_nonzero_values, dense_partial_map, dense_permute_slots,
                     dense_postcompose, dense_precompose_slot, dense_tensor_as_matrix,
                     dense_tensor_entrywise, dense_tensor_scale)

P61 = 2**61 - 1
FIELDS = [pytest.param(QQ, id="Q"), pytest.param(Field(5), id="F5"),
          pytest.param(Field(P61), id="F2^61-1")]
SHAPES = [((), 3), ((2,), 3), ((3, 2), 2), ((2, 2), 3), ((2, 1, 3), 2)]


def value(F, rng):
    """A random field value, zero about a third of the time."""
    if rng.random() < 0.35:
        return F.zero
    if F.p is None:
        return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6)))
    return rng.randrange(F.p)


def over(F, scale: int) -> int:
    """``scale`` over Q; over F_p, where a tensor's ints are residues, 1."""
    return 1 if F.p else scale


def entries(F, rng, dims, cod) -> tuple:
    return tuple(value(F, rng) for _ in range(math.prod(dims) * cod))


def operands(F, rng, dims, cod) -> list:
    """Tensors of one shape, stored at scale 1 and above it: from field
    entries, from ints with a common factor (6 x / 12), zero, and with
    integer entries."""
    size = math.prod(dims) * cod
    return [MultiTensor(F, dims, cod, entries(F, rng, dims, cod)),
            MultiTensor(F, dims, cod, entries(F, rng, dims, cod)),
            MultiTensor.from_ints(F, dims, cod, [6 * rng.randint(-4, 4) for _ in range(size)],
                                 over(F, 12)),
            MultiTensor.zeros(F, dims, cod),
            MultiTensor(F, dims, cod, tuple(F.from_int(rng.randint(-3, 3)) for _ in range(size)))]


def assert_least(t: MultiTensor):
    """The stored pair is ints over the least positive scale, residues at
    scale 1 over F_p, and is what a tensor made from the view stores."""
    scale, ints = t.int_entries()
    assert type(ints) is tuple and len(ints) == math.prod(t.dims) * t.cod
    assert {type(v) for v in ints} <= {int} and type(scale) is int
    if t.field.p is None:
        assert scale >= 1 and math.gcd(scale, *ints) == 1
    else:
        assert scale == 1 and all(0 <= v < t.field.p for v in ints)
    assert MultiTensor(t.field, t.dims, t.cod, t.entries).int_entries() == (scale, ints)


def assert_same(got: MultiTensor, want: MultiTensor):
    assert got == want
    assert (got.dims, got.cod, got.entries) == (want.dims, want.cod, want.entries)
    assert got.int_entries() == want.int_entries()
    assert_least(got)


def matrix(F, rng, nr, nc) -> Matrix:
    return Matrix(F, tuple(tuple(value(F, rng) for _ in range(nc)) for _ in range(nr)))


@pytest.mark.parametrize("F", FIELDS)
def test_every_constructor_stores_the_least_pair(F):
    rng = random.Random(1)
    made = {}
    for dims, cod in SHAPES:
        for k, t in enumerate(operands(F, rng, dims, cod)):
            made["%s/%d" % ((dims, cod), k)] = t
        made["from_map %s" % ((dims, cod),)] = MultiTensor.from_map(
            F, dims, cod, lambda *idx: tuple(value(F, rng) for _ in range(cod)))
        values = {k: Fraction(k + 2, 4) if F.p is None else F.from_int(k % 4 + 1)
                  for k in range(0, math.prod(dims) * cod, 3)}
        made["from_sparse %s" % ((dims, cod),)] = MultiTensor.from_sparse(F, dims, cod, values)
        space = TensorSpace(F, dims, cod)
        made["space zero %s" % ((dims, cod),)] = space.zero()
        made["space basis %s" % ((dims, cod),)] = list(space.basis())[-1]
        made["unflatten %s" % ((dims, cod),)] = space.unflatten(entries(F, rng, dims, cod))
    a, b = (MultiTensor(F, (2, 2), 2, entries(F, rng, (2, 2), 2)) for _ in range(2))
    made["from_blocks"] = MultiTensor.from_blocks(F, (2, 1), {
        (0, 0, 0): a, (1, 0, 1): MultiTensor.from_ints(F, (1, 2), 1, [3, -9], over(F, 6))})
    made["matrix_as_tensor"] = matrix_as_tensor(matrix(F, rng, 3, 2))
    made["matrix_as_tensor of ints"] = matrix_as_tensor(Matrix.from_ints(F, [{0: 4}, {1: -6}], 8, 2))
    assert len(made) > 40
    for name, t in made.items():
        assert_least(t)
    # the stored pair of a tensor made from ints, over Q: 6 x / 12 is x / 2
    if F.p is None:
        assert MultiTensor.from_ints(F, (2,), 1, [6, -12], 12).int_entries() == (2, (1, -2))
        assert MultiTensor.from_ints(F, (2,), 1, [0, 0], 12).int_entries() == (1, (0, 0))
    else:
        assert MultiTensor.from_ints(F, (2,), 1, [-1, F.p + 2], 1).int_entries() == (1, (F.p - 1, 2))


@pytest.mark.parametrize("F", FIELDS)
def test_a_tensor_made_from_field_entries_keeps_its_tuple(F):
    rng = random.Random(2)
    for dims, cod in SHAPES:
        ent = entries(F, rng, dims, cod)
        t = MultiTensor(F, dims, cod, ent)
        pair = t.int_entries()
        assert t.entries is ent
        assert TensorSpace(F, dims, cod).unflatten(ent).entries is ent
        # reading the view, or hashing and comparing the tensor, leaves the pair
        hash(t), t == MultiTensor(F, dims, cod, ent), list(t.nonzero_values())
        assert t.int_entries() is pair
    # a view made from ints or from a sparse dict has the shared zero object
    # at each zero, so a scan may pass over zeros by identity
    zero = F.zero
    for t in (MultiTensor.from_ints(F, (2, 2), 2, [0, 3, 0, 0, -6, 0, 0, 9], over(F, 3)),
              MultiTensor.from_sparse(F, (2, 2), 2, {1: F.one, 4: F.from_int(2)}),
              MultiTensor.zeros(F, (3,), 2)):
        pair = t.int_entries()
        assert [x is zero for x in t.entries] == [v == 0 for v in pair[1]]
        assert t.entries is t.entries and t.int_entries() is pair


@pytest.mark.parametrize("F", FIELDS)
@pytest.mark.parametrize("dims,cod", SHAPES)
def test_sums_differences_negatives_and_multiples(F, dims, cod):
    rng = random.Random(3)
    ts = operands(F, rng, dims, cod)
    for a, b in itertools.product(ts, repeat=2):
        assert_same(a + b, dense_tensor_entrywise(F.add, a, b))
        assert_same(a - b, dense_tensor_entrywise(F.sub, a, b))
    assert all((a - a).is_zero() for a in ts)
    for a in ts:
        assert_same(-a, dense_tensor_entrywise(F.neg, a))
        for c in (F.zero, F.one, F.neg(F.one), F.from_int(3) if F.p else Fraction(-5, 6)):
            assert_same(a.scale(c), dense_tensor_scale(a, c))
    # a chain of sums and differences
    acc = ts[0]
    want = ts[0]
    for k, t in enumerate(ts * 2):
        acc, want = (acc + t, dense_tensor_entrywise(F.add, want, t)) if k % 2 else \
            (acc - t, dense_tensor_entrywise(F.sub, want, t))
        assert_same(acc, want)
    with pytest.raises(ShapeError):
        ts[0] + MultiTensor.zeros(F, dims, cod + 1)


@pytest.mark.parametrize("F", FIELDS)
@pytest.mark.parametrize("dims,cod", SHAPES)
def test_contractions(F, dims, cod):
    rng = random.Random(4)
    for t in operands(F, rng, dims, cod):
        for slot, d in enumerate(dims):
            for m in (matrix(F, rng, d, 3), matrix(F, rng, d, 1),
                      Matrix.from_ints(F, [{0: 4, 1: -2}] * d, 6, 2)):
                assert_same(t.precompose_slot(slot, m), dense_precompose_slot(t, slot, m))
        for m in (matrix(F, rng, 2, cod), matrix(F, rng, cod, cod), Matrix.zeros(F, 1, cod)):
            assert_same(t.postcompose(m), dense_postcompose(t, m))
        args = [tuple(value(F, rng) for _ in range(d)) for d in dims]
        assert t.eval(args) == dense_eval(t, args)
        if len(dims) == 2:
            for slot, i in itertools.product((0, 1), range(min(dims))):
                got, want = t.partial_map(slot, i), dense_partial_map(t, slot, i)
                assert got == want and got.rows == want.rows
                assert got.int_rows() == Matrix.from_rows(F, want.rows).int_rows()
        if len(dims) == 1:
            got, want = tensor_as_matrix(t), dense_tensor_as_matrix(t)
            assert got == want and got.int_rows() == Matrix.from_rows(F, want.rows).int_rows()
            m = matrix(F, rng, 2, dims[0])
            assert_same(matrix_as_tensor(m), dense_matrix_as_tensor(m))
    for nr, nc in ((3, 2), (1, 4), (2, 0)):
        m, vec = matrix(F, rng, nr, nc), tuple(value(F, rng) for _ in range(nc))
        assert m.apply(vec) == dense_apply(m, vec)


@pytest.mark.parametrize("F", FIELDS)
@pytest.mark.parametrize("dims,cod", SHAPES)
def test_permutations_and_reads(F, dims, cod):
    rng = random.Random(5)
    for t in operands(F, rng, dims, cod):
        for perm in itertools.permutations(range(len(dims))):
            assert_same(t.permute_slots(list(perm)), dense_permute_slots(t, list(perm)))
        assert list(t.nonzero_values()) == dense_nonzero_values(t)
        assert t.is_zero() == all(map(F.is_zero, t.entries))


@pytest.mark.parametrize("F", FIELDS)
def test_blocks(F):
    rng = random.Random(6)
    n, m = 2, 3
    blocks = {(0, 0, 0): MultiTensor(F, (n, n), n, entries(F, rng, (n, n), n)),
              (0, 1, 1): MultiTensor(F, (n, m), m, entries(F, rng, (n, m), m)),
              (1, 0, 1): MultiTensor.from_ints(F, (m, n), m, [rng.randint(-3, 3) for _ in range(m * n * m)],
                                            over(F, 4)),
              (1, 1, 0): MultiTensor.zeros(F, (m, m), n)}
    for keys in ([(0, 0, 0)], [(0, 0, 0), (0, 1, 1), (1, 0, 1)], list(blocks), []):
        part = {k: blocks[k] for k in keys}
        assert_same(MultiTensor.from_blocks(F, (n, m), part), dense_from_blocks(F, (n, m), part))


@pytest.mark.parametrize("F", FIELDS)
def test_cochains_from_sparse_values(F):
    space = PairSpace(F, 2, 2, 2)
    rows = [{0: F.one, 9: F.from_int(3), space.dim - 1: F.neg(F.one)}, {}, {1: F.one}]
    cochains = space.from_sparse(rows)
    assert len(cochains) == len(rows)
    for c, values in zip(cochains, rows):
        dense = [F.zero] * space.dim
        for k, v in values.items():
            dense[k] = v
        assert c == space.unflatten(tuple(dense))
        assert space.flatten(c) == tuple(dense)
        for p in c.parts:
            assert_least(p)
    # the zero parts of the cochains are one tensor per part
    assert cochains[1].parts[1] is cochains[2].parts[1] and cochains[1].parts[1].is_zero()
