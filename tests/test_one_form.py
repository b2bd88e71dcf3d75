"""One stored form per matrix: (scale, {column: nonzero int} rows).

Every way of making a :class:`Matrix` stores that pair when it makes the
matrix, and ``int_rows`` returns it.  Reading ``rows`` or ``sparse_rows``
reads a view of it and changes nothing: the same pair object, with the same
row dicts and the same ints, is returned before and after.  The entries of
the views are the pair's ints over its scale, and over F_p the scale is 1
and the ints are residues.  The cases are every constructor, over Q, F_5
and F_p with p = 2**61 - 1: dense rows, ``from_rows``, ``from_sparse``,
``from_ints``, ``zeros``, ``identity``, ``scalar``, transposes, products,
sums, differences, negatives, scalar multiples, block sums and inverses.
"""

import copy
import random
from fractions import Fraction

import pytest

from mrbder.fields import Field, QQ
from mrbder.linalg import Matrix

P61 = 2**61 - 1
FIELDS = [pytest.param(QQ, id="Q"), pytest.param(Field(5), id="F5"),
          pytest.param(Field(P61), id="F2^61-1")]


def makers(F):
    """{name: a function making a fresh matrix}, one per constructor."""
    rng = random.Random(7)

    def dense(nr, nc):
        return tuple(tuple(F.random(rng) if rng.random() < 0.6 else F.zero for _ in range(nc))
                     for _ in range(nr))

    a, b, sq = dense(3, 4), dense(4, 2), ((F.one, F.from_int(2)), (F.from_int(3), F.from_int(4)))
    sparse = [{j: v for j, v in enumerate(r) if not F.is_zero(v)} for r in a]
    ints = [{2: 6, 0: -4}, {}, {1: 2**70 + 1}]
    return {
        "dense": lambda: Matrix(F, a),
        "from_rows": lambda: Matrix.from_rows(F, map(list, a)),
        "from_sparse": lambda: Matrix.from_sparse(F, copy.deepcopy(sparse), 4),
        "from_ints": lambda: Matrix.from_ints(F, copy.deepcopy(ints), 6, 3),
        "no rows": lambda: Matrix(F, ()),
        "zeros": lambda: Matrix.zeros(F, 2, 3),
        "identity": lambda: Matrix.identity(F, 3),
        "scalar": lambda: Matrix.scalar(F, 2, F.from_int(3)),
        "transpose": lambda: Matrix(F, a).transpose(),
        "transpose of ints": lambda: Matrix.from_ints(F, copy.deepcopy(ints), 6, 3).transpose(),
        "product": lambda: Matrix(F, a) * Matrix(F, b),
        "sum": lambda: Matrix(F, a) + Matrix.from_sparse(F, copy.deepcopy(sparse), 4),
        "difference": lambda: Matrix(F, b) - Matrix(F, dense(4, 2)),
        "negative": lambda: -Matrix(F, a),
        "multiple": lambda: Matrix(F, a).scale(F.from_int(3)),
        "block sum": lambda: Matrix(F, a).block_diag(Matrix(F, b)),
        "inverse": lambda: Matrix(F, sq).inverse(),
    }


def entries(pair) -> list:
    """The pair's entries as field values, one {column: value} dict per row."""
    scale, rows = pair
    return [{j: Fraction(v, scale) for j, v in r.items()} for r in rows]


@pytest.mark.parametrize("F", FIELDS)
@pytest.mark.parametrize("view", ["rows", "sparse_rows", "both"])
def test_the_stored_pair_is_read_not_rebuilt(F, view):
    for name, make in makers(F).items():
        m = make()
        pair = m.int_rows()
        rows, snapshot = list(pair[1]), copy.deepcopy(pair)
        if view in ("rows", "both"):
            m.rows
        if view in ("sparse_rows", "both"):
            m.sparse_rows
        assert m.int_rows() is pair, name
        assert all(a is b for a, b in zip(m.int_rows()[1], rows)) and len(pair[1]) == len(rows), name
        assert pair == snapshot, name
        assert m.nrows == len(pair[1]), name


@pytest.mark.parametrize("F", FIELDS)
def test_the_views_are_the_pair_over_its_scale(F):
    for name, make in makers(F).items():
        m = make()
        scale, ints = m.int_rows()
        assert isinstance(scale, int) and scale > 0, name
        assert all(type(v) is int and v for r in ints for v in r.values()), name
        if F.p is not None:
            assert scale == 1 and all(0 < v < F.p for r in ints for v in r.values()), name
            assert m.sparse_rows is ints, name
        assert [dict(r) for r in m.sparse_rows] == entries((scale, ints)), name
        assert [{j: v for j, v in enumerate(r) if not F.is_zero(v)} for r in m.rows] \
            == entries((scale, ints)), name
        assert m.is_zero() == (not any(ints)), name
