"""H^n = 0 proven by a rank balance, and the kernel path it falls back to.

After the check D_n D_{n-1} = 0, rank D_n + rank D_{n-1} <= dim PC^n, and a
rank modulo a prime is at most the rank over Q.  So when D_n, eliminated
with ``kernel_rref(d_n, bound)``, reaches at its first prime the bound
dim PC^n - (a kept rank of D_{n-1}, or its rank modulo one prime), both
ranks are exact and H^n = 0, with no kernel read.  Otherwise the same
elimination goes on to Z^n and the B step.  ``test_coboundaries`` holds
every ladder and fuzz instance to the same results with the balance turned
off; here:

* ``kernel_rref`` with a bound and ``modular_rank``: the int returned, the
  kernel when the bound is not reached, the same primes as without a
  bound, and which ranks are kept on the matrix (over F_p ``modular_rank``
  reads a kept rank alone);
* an H = 0 rung over Q runs no reconstruction, no certificate and no B
  step, which the kernel path on the same rung runs;
* along a ladder each D_n is eliminated once, rank D_{n-1} being kept, and
  a request asked again eliminates nothing;
* an unlucky first prime, and a spy that lowers a modular rank, take the
  kernel path and print the same bytes;
* a spy that raises a rank, and a kept rank that disagrees with dim B^n,
  exit 3.
"""

import importlib
import json
import random

import pytest

from mrbder import linalg
from mrbder.cli import INTERNAL_EXIT, main
from mrbder.cohomology import cohomology, differential_matrix
from mrbder.fields import Field, QQ
from mrbder.fuzzing import conjugate_pair, random_invertible
from mrbder.linalg import kernel_rref, modular_rank
from mrbder.serialize import Instance, instance_to_json
from mrbder.structures import (InternalError, adjoint_bimodule, dual_pair,
                               upper_triangular_pair)

from oracles import dense_rank_and_kernel
from test_elimination import draw_first
from test_peel import KINDS, made

engine = importlib.import_module("mrbder.cohomology")

F5 = Field.prime(5)
FIELDS = {"Q": QQ, "F5": F5}
FIXTURES = {"dual": dual_pair, "ut": lambda F: upper_triangular_pair(F, F.one)}
# modulo 5 the conjugated dual D_2 has rank 9, not 12
UNLUCKY = 5


def conjugated(name, F):
    pair = FIXTURES[name](F)
    pair = conjugate_pair(pair, random_invertible(random.Random(0), F, pair.dim))
    return pair, adjoint_bimodule(pair)


def spy(monkeypatch, module, name):
    """The list of calls of ``module.name`` from now on."""
    calls, real = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a: calls.append(a) or real(*a))
    return calls


def balance_off(monkeypatch):
    monkeypatch.setattr(engine, "kernel_rref", lambda m, bound=None: kernel_rref(m))


@pytest.fixture
def conjugated_file(tmp_path):
    path = tmp_path / "conjugated_dual.json"
    path.write_text(json.dumps(instance_to_json(Instance(*conjugated("dual", QQ)))))
    return str(path)


def cli(capsys, path, n):
    code = main(["cohomology", "--degree", str(n), path])
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("kind", KINDS)
def test_bounded_elimination(field, kind):
    F = FIELDS[field]
    for seed in range(6):
        rank = dense_rank_and_kernel(made(F, kind, seed)[0])[0]
        want = kernel_rref(made(F, kind, seed)[0])
        for bound in (0, rank - 1, rank, rank + 1):
            m = made(F, kind, seed)[0]
            out = kernel_rref(m, bound)
            if bound <= rank:
                # the rank, kept only when the bound proves it exact
                assert out == rank and m._rank == (rank if bound == rank else None)
            else:
                assert out == want and m._rank == rank
                # a kept rank answers a bound at once
                assert kernel_rref(m, rank) == rank
        # over F_p only a kept rank is read
        m = made(F, kind, seed)[0]
        assert modular_rank(m) == (None if F.p else rank) and m._rank is None
        kernel_rref(m)
        assert modular_rank(m) == rank


def test_a_missed_bound_reduces_at_the_same_primes(monkeypatch):
    # the first prime of a bounded elimination is kept, not run again
    d = differential_matrix(*conjugated("dual", QQ), 2, "pair")
    primes = spy(monkeypatch, linalg, "_reduce")
    plain = kernel_rref(d)
    seen = [c[0] for c in primes]
    del primes[:]
    d._rank = None
    assert kernel_rref(d, d.ncols) == plain
    assert [c[0] for c in primes] == seen and len(seen) > 1


def test_h_zero_over_q_reads_no_kernel(monkeypatch):
    # the basis change inverts a matrix over Q, so both pairs are made first
    balanced, kernel_path = conjugated("dual", QQ), conjugated("dual", QQ)
    ran = {name: spy(monkeypatch, linalg, name) for name in ("_reconstruct", "_certified")}
    ran["B step"] = spy(monkeypatch, engine, "rank_and_kernel")
    r = cohomology(*balanced, 3)
    assert (r.dim_cocycles, r.dim_coboundaries, r.dim_h, r.representatives) == (12, 12, 0, ())
    assert all(calls == [] for calls in ran.values())
    # the kernel path on the same rung runs all three
    balance_off(monkeypatch)
    assert cohomology(*kernel_path, 3) == r
    assert all(calls for calls in ran.values())


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name", FIXTURES)
def test_each_d_n_is_eliminated_once_along_a_ladder(field, name, eliminations):
    pair, bim = conjugated(name, FIELDS[field])
    for n in (1, 2, 3):
        width = differential_matrix(pair, bim, n, "pair").ncols
        del eliminations[:]
        r = cohomology(pair, bim, n)
        # D_n, then the B step on a rung whose H^n is not 0
        assert eliminations[0] == width
        assert len(eliminations) == 1 + (n > 1 and r.dim_h > 0)
    del eliminations[:]
    assert cohomology(pair, bim, 3) == r and eliminations == []
    # asked alone, H^3 also reduces D_2 at one prime over Q, and over F_5,
    # where no rank of D_2 is kept, takes the kernel path
    fresh = conjugated(name, FIELDS[field])
    for n in (2, 3):
        differential_matrix(*fresh, n, "pair")
    del eliminations[:]
    assert cohomology(*fresh, 3) == r and len(eliminations) == 2
    assert eliminations[field == "Q"] == width
    # either way both ranks are now kept, and the answer is read off them
    del eliminations[:]
    assert cohomology(*fresh, 3) == r and eliminations == []


def test_an_unlucky_first_prime_falls_through_with_the_same_bytes(monkeypatch, capsys,
                                                                  conjugated_file):
    want = cli(capsys, conjugated_file, 3)
    assert want[0] == 0 and json.loads(want[1])["dim_h"] == 0
    draw_first(monkeypatch, [UNLUCKY])
    b_steps = spy(monkeypatch, engine, "rank_and_kernel")
    assert cli(capsys, conjugated_file, 3) == want
    assert b_steps


@pytest.mark.parametrize("n", [2, 3])
def test_a_lowered_modular_rank_gives_the_same_bytes(monkeypatch, capsys, conjugated_file, n):
    want = cli(capsys, conjugated_file, n)
    real = engine.modular_rank
    monkeypatch.setattr(engine, "modular_rank", lambda m: real(m) - 1)
    b_steps = spy(monkeypatch, engine, "rank_and_kernel")
    assert cli(capsys, conjugated_file, n) == want
    assert b_steps


@pytest.mark.parametrize("which", ["D_n-1", "D_n"])
def test_a_raised_rank_exits_3(monkeypatch, capsys, conjugated_file, which):
    if which == "D_n-1":
        real = engine.modular_rank
        monkeypatch.setattr(engine, "modular_rank", lambda m: real(m) + 1)
    else:
        def raised(m, bound=None):
            out = kernel_rref(m, bound)
            return out + 1 if isinstance(out, int) else out
        monkeypatch.setattr(engine, "kernel_rref", raised)
    code, out, err = cli(capsys, conjugated_file, 3)
    assert (code, out) == (INTERNAL_EXIT, "")
    assert err.startswith("error: internal: rank D_3 is at least %d, above dim PC^3 - rank D_2"
                          % (24 if which == "D_n-1" else 25))


@pytest.mark.parametrize("field", FIELDS)
def test_a_kept_rank_that_disagrees_with_dim_b_is_refused(field):
    pair, bim = conjugated("dual", FIELDS[field])
    cohomology(pair, bim, 1)
    d1 = differential_matrix(pair, bim, 1, "pair")
    # one less lifts the bound above rank D_2, so the B step runs and reads 3
    d1._rank -= 1
    with pytest.raises(InternalError, match="dim B.2 is 3, but rank D_1 is 2"):
        cohomology(pair, bim, 2)
