import pytest

from mrbder import linalg
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


@pytest.fixture
def one_entry_off():
    """``solve_linear`` made wrong: one is added to the first unknown of a
    solution that its matrix does not ignore."""

    def make(real):
        def wrong(m, b):
            sol = real(m, b)
            if sol is None:
                return None
            j = next(j for j, col in enumerate(m.transpose().sparse_rows) if col)
            F = m.field
            return sol[:j] + (F.add(sol[j], F.one),) + sol[j + 1:]
        return wrong

    return make


@pytest.fixture
def eliminations(monkeypatch):
    """The list of row reductions run from now on, one entry per call of
    ``linalg._echelon``."""
    calls = []
    real = linalg._echelon

    def spy(field, rows, nc, *args, **kwargs):
        calls.append(nc)
        return real(field, rows, nc, *args, **kwargs)

    monkeypatch.setattr(linalg, "_echelon", spy)
    return calls
