import pytest

from mrbder.fields import Field, QQ
from mrbder.linalg import Matrix, MultiTensor
from mrbder.structures import adjoint_bimodule, dual_pair


@pytest.fixture
def F5():
    return Field.prime(5)


@pytest.fixture
def F2():
    return Field.prime(2)


@pytest.fixture
def dual_q():
    return dual_pair(QQ)


@pytest.fixture
def dual_q_adj(dual_q):
    return dual_q, adjoint_bimodule(dual_q)


def _edited(t, changes):
    F = t.field
    if isinstance(t, MultiTensor):
        ent = list(t.entries)
        for off, val in changes.items():
            ent[off] = F.parse(val)
        return MultiTensor(F, t.dims, t.cod, tuple(ent))
    rows = [list(r) for r in t.rows]
    for (i, j), val in changes.items():
        rows[i][j] = F.parse(val)
    return Matrix.from_rows(F, rows)


@pytest.fixture
def edited():
    """Copy of a tensor (by flat offset) or matrix (by (row, col)) with entries replaced."""
    return _edited


@pytest.fixture
def failure_list():
    """A report's failures as (identity, args, residual strings), in report order."""
    return lambda report: [(f.identity, f.args, tuple(str(x) for x in f.residual))
                           for f in report.failures]
