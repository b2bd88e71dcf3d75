"""phi as one tensor power, held to the sum over the sets of bare slots.

``_operator_map_entries`` lists phi on C^n as (R + u)^{(x n)} = A + uB over
Z[u]/(u^2 + kappa), one slot at a time, and phi = A - R_M B.  The reference
is the sum over the 2^n sets of bare slots, ``field_operator_map_entries``,
read through ``oracles.field_matrix``:

* the operator map and the pair differential equal the reference, on the
  pair side and on the Lie side (the commutator Lie pair acting on the
  bimodule): on dim-1 fixtures (kappa = 0, R = 0, kappa = -4, and kappa = -1
  with a bimodule of its own) up to degree 12, and on the dual numbers and a
  conjugated copy over Q and F_5 and dim-2 fuzz instances over F_5 up to
  degree 5;
* no entry the list writes is zero, kappa = 0 included, where most sets of
  bare slots have the coefficient 0;
* through the CLI, fix0 at degree 19 answers in under a second, with the
  bytes the sum over the sets of bare slots gave.
"""

import hashlib
import importlib
import random
import time
from pathlib import Path

import pytest

from mrbder.cli import main
from mrbder.constructions import rho_representation
from mrbder.fields import Field, QQ
from mrbder.fuzzing import conjugate_pair, random_instances, random_invertible
from mrbder.linalg import MAX_ENTRIES
from mrbder.serialize import load_instance_file
from mrbder.structures import (Algebra, adjoint_bimodule, dual_pair, scalar_pair, unit_vector,
                               zero_pair)

from oracles import field_matrix

C = importlib.import_module("mrbder.cohomology")
INSTANCES = Path(__file__).resolve().parents[1] / "instances"
FIX0 = str(INSTANCES / "fix0.json")
F5 = Field.prime(5)
MAPS = ("operator_map", "pair")


def _file(name):
    inst = load_instance_file(str(INSTANCES / name))
    return inst.pair, inst.bim if inst.bim is not None else adjoint_bimodule(inst.pair)


def _adjoint(pair):
    return pair, adjoint_bimodule(pair)


def _dim1():
    line = Algebra.from_table(QQ, 1, {(0, 0): unit_vector(QQ, 1, 0)})
    return {"fix0": _file("fix0.json"),
            "zero": _adjoint(zero_pair(QQ, 1)),
            "scalar2": _adjoint(scalar_pair(line, QQ.parse(2))),
            "extension_build": _file("extension_build.json")}


def _dim2():
    out = {}
    for F in (QQ, F5):
        dual = dual_pair(F)
        out["%s/dual" % F.name] = _adjoint(dual)
        T = random_invertible(random.Random(3), F, 2)
        out["%s/conjugated" % F.name] = _adjoint(conjugate_pair(dual, T))
    for k, inst in enumerate(random_instances(F5, 2, 4, seed=23)):
        out["%s/fuzz%d" % (F5.name, k)] = inst.pair, inst.bim
    return out


def _complexes(pair, bim):
    return (("pair", C._pair_complex(pair, bim)),
            ("lie", C._lie_complex(rho_representation(pair, bim))))


def _assert_matches_subset_sum(pair, bim, top):
    for side, cx in _complexes(pair, bim):
        for n in range(1, top + 1):
            for which in MAPS:
                got = cx.matrix(n, which, MAX_ENTRIES)
                want = field_matrix(cx, n, which)
                assert (got.nrows, got.ncols) == (want.nrows, want.ncols), (side, n, which)
                assert [list(row.items()) for row in got.sparse_rows] \
                    == [list(row.items()) for row in want.sparse_rows], (side, n, which)


@pytest.mark.parametrize("name", ["fix0", "zero", "scalar2", "extension_build"])
def test_dim1_fixtures_up_to_degree_12(name):
    _assert_matches_subset_sum(*_dim1()[name], 12)


@pytest.mark.parametrize("name", ["Q/dual", "Q/conjugated", "Fp:5/dual", "Fp:5/conjugated",
                                  "Fp:5/fuzz0", "Fp:5/fuzz1", "Fp:5/fuzz2", "Fp:5/fuzz3"])
def test_dim2_instances_up_to_degree_5(name):
    _assert_matches_subset_sum(*_dim2()[name], 5)


def test_the_dim1_fixtures_cover_kappa_zero_and_nonzero():
    assert {name: (pair.kappa, bim.dim_m) for name, (pair, bim) in _dim1().items()} \
        == {"fix0": (0, 1), "zero": (0, 1), "scalar2": (-4, 1), "extension_build": (-1, 1)}


def test_no_entry_listed_is_zero(monkeypatch):
    listed, zeros = [0], []
    real = C._operator_map_entries

    def spy(*args):
        for entry in real(*args):
            listed[0] += 1
            if entry[2] == 0:
                zeros.append(args[:2] + args[4:] + entry)
            yield entry

    monkeypatch.setattr(C, "_operator_map_entries", spy)
    for pair, bim in [*_dim1().values(), *_dim2().values()]:
        for _, cx in _complexes(pair, bim):
            for n in range(1, 5):
                for which in MAPS:
                    cx.matrix(n, which, MAX_ENTRIES)
    assert listed[0] > 0 and zeros == []


# stdout of these calls, as the sum over the 2^19 sets of bare slots gave it
HIGH_DEGREE = {
    ("cohomology", "--degree", "19"):
        "5102a95ac9e031fa1444d3c45962a10af52e46693078ef2a83a69decc78aaed8",
    ("complex-check", "--max-degree", "19"):
        "49904791e2791911acc4d56ec58de67618e9f7b4e3630254081c7aa6b65e2af5",
}


@pytest.mark.parametrize("argv", list(HIGH_DEGREE), ids=["cohomology", "complex-check"])
def test_fix0_at_degree_19_answers_in_under_a_second(capsys, argv):
    start = time.perf_counter()
    assert main([argv[0], FIX0, *argv[1:]]) == 0
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert err == "" and hashlib.sha256(out.encode()).hexdigest() == HIGH_DEGREE[argv]
