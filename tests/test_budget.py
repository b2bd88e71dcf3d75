"""The entry budget, ``max_entries``: where a request is checked, what the
checks predict, and that a request over it ends at once.

* Each build of D_n predicts the entries and loop steps of its entry lists
  before it lists any; the prediction is at least the entries listed, on
  every rung of both benchmark ladders (standard and conjugated bases), for
  the pair complex and for the Chevalley-Eilenberg one of the Lie side.
* The default budget admits the frontier rungs of ut+dual: H^4 through the
  CLI, and the builds of H^5, as those of H^4 on ut+dual+ut.
* A degree far past the budget exits 2 at once, in ``cohomology`` and in
  ``complex-check``, which checks every degree before it builds any, and
  holds the sum of its builds' counts to the budget too.
* The integers of a build grow with the degree, and the budget charges
  their size: a dim-1 instance with a large R or a large denominator is
  refused where fix0 is admitted, and the highest degree the default
  admits, on it and on fix0, answers in under 3 s.  On fix0, whose product
  is zero, the coboundary builds nothing for any of its slots.
* The dense representatives are checked before they are made.
"""

import importlib
import json
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from mrbder.cli import USAGE_EXIT, main
from mrbder.constructions import direct_sum, rho_representation
from mrbder.fields import Field, QQ
from mrbder.fuzzing import conjugate_pair, random_invertible
from mrbder.linalg import MAX_ENTRIES, EntryCapExceeded
from mrbder.serialize import Instance, dumps_canonical, instance_to_json, load_instance_file
from mrbder.structures import adjoint_bimodule, dual_pair, upper_triangular_pair, zero_pair

C = importlib.import_module("mrbder.cohomology")
ROOT = Path(__file__).resolve().parents[1]
FIX0 = str(ROOT / "instances" / "fix0.json")
F5 = Field.prime(5)
ENTRY_LISTS = ("_coboundary_entries", "_ce_entries", "_operator_map_entries", "_defect_entries")


def _ladder_pairs(F):
    dual, ut = dual_pair(F), upper_triangular_pair(F, F.one)
    return {"dual": (dual, 3), "ut": (ut, 3), "dual+dual": (direct_sum(dual, dual), 3),
            "ut+dual": (direct_sum(ut, dual), 2)}


def _ladders():
    """(label, pair, top degree) of the sparse ladder over Q and F_5 and of
    the dense one: the Q fixtures after one seeded basis change."""
    for F in (QQ, F5):
        for name, (pair, top) in _ladder_pairs(F).items():
            yield "%s/%s" % (F.name, name), pair, top
    rng = random.Random(0)
    for name, (pair, top) in _ladder_pairs(QQ).items():
        if name != "ut+dual":
            T = random_invertible(rng, QQ, pair.dim)
            yield "conjugated/" + name, conjugate_pair(pair, T), top


def _predicted(cx, n, which):
    """The bound ``_blocks`` checks: its blocks' counts, charged for the size of the integers."""
    return C._blocks(cx, n, which, MAX_ENTRIES)[3]


def test_the_prediction_bounds_the_entries_listed_on_both_ladders(monkeypatch):
    listed = []

    def counting(fn):
        def spy(*args):
            for entry in fn(*args):
                listed[-1] += 1
                yield entry
        return spy

    for name in ENTRY_LISTS:
        monkeypatch.setattr(C, name, counting(getattr(C, name)))
    checked, total = 0, {"pair": 0, "lie": 0}
    for label, pair, top in _ladders():
        bim = adjoint_bimodule(pair)
        # the complex of the pair, and that of its commutator Lie pair
        for side, cx in (("pair", C._pair_complex(pair, bim)),
                         ("lie", C._lie_complex(rho_representation(pair, bim)))):
            for n in range(1, top + 1):
                for which in ("pair", "operator", "hochschild", "operator_map"):
                    predicted = _predicted(cx, n, which)
                    listed.append(0)
                    cx.matrix(n, which, MAX_ENTRIES)
                    assert listed[-1] <= predicted, (label, side, n, which)
                    total[side] += listed[-1]
                    checked += 1
    assert checked == 2 * 4 * (2 * (3 + 3 + 3 + 2) + (3 + 3 + 3))
    assert min(total.values()) > 0


def _ut_dual_file(tmp_path, F):
    pair = direct_sum(upper_triangular_pair(F, F.one), dual_pair(F))
    path = tmp_path / "ut_dual.json"
    path.write_text(dumps_canonical(instance_to_json(Instance(pair))))
    return str(path)


def test_the_default_budget_admits_ut_dual_h4(tmp_path, capsys):
    assert main(["cohomology", _ut_dual_file(tmp_path, F5), "--degree", "4"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["dim_cocycles"], report["dim_coboundaries"], report["dim_h"]) == (750, 750, 0)


def test_a_lower_budget_refuses_ut_dual_h4_before_listing(tmp_path, capsys, monkeypatch):
    def assemble(*args):
        raise AssertionError("a refused build listed its entries")

    monkeypatch.setattr(C, "_assemble", assemble)
    path = _ut_dual_file(tmp_path, F5)
    assert main(["--max-entries", "15624", "cohomology", path, "--degree", "4"]) == USAGE_EXIT
    assert capsys.readouterr() == ("", "error: tensor with 15625 entries exceeds cap 15624\n")


@pytest.mark.parametrize("top,counts", [("ut+dual", (88975, 520625)),
                                        ("ut+dual+ut", (84448, 805760))])
def test_the_default_budget_admits_the_builds_of_the_top_rungs(top, counts):
    # cohomology at degree n builds D_{n-1} and D_n, each checked on its own
    ut, dual = upper_triangular_pair(F5, F5.one), dual_pair(F5)
    pair = direct_sum(ut, dual) if top == "ut+dual" else direct_sum(direct_sum(ut, dual), ut)
    bim = adjoint_bimodule(pair)
    n = 5 if top == "ut+dual" else 4
    cx = C._pair_complex(pair, bim)
    assert (_predicted(cx, n - 1, "pair"), _predicted(cx, n, "pair")) == counts
    for degree in (n - 1, n):
        C.check_budget(pair, bim, (degree,), "pair")


def test_complex_check_holds_the_sum_of_its_builds_to_the_budget(capsys, monkeypatch):
    # on fix0 every build up to degree 1000 fits alone, but the counts of
    # degrees 1 to 408 sum past a million
    def assemble(*args):
        raise AssertionError("a refused build listed its entries")

    pair = load_instance_file(FIX0).pair
    bim = adjoint_bimodule(pair)
    for n in range(1, 1001):
        C.check_budget(pair, bim, (n,), "pair")
    with pytest.raises(EntryCapExceeded, match="^the pair map at degree 408 and those below it "):
        C.check_budget(pair, bim, range(1, 1001), "pair")
    C.check_budget(pair, bim, range(1, 408), "pair")
    monkeypatch.setattr(C, "_assemble", assemble)
    assert main(["complex-check", FIX0, "--max-degree", "1000"]) == USAGE_EXIT
    assert capsys.readouterr() == ("", "error: the pair map at degree 408 and those below it may "
                                       "list more than 1000000 entries and steps\n")


@pytest.mark.parametrize("argv", [["cohomology", FIX0, "--degree", "1000000"],
                                  ["complex-check", FIX0, "--max-degree", "1000000"],
                                  ["cohomology", FIX0, "--degree", str(10 ** 40)]],
                         ids=["cohomology", "complex-check", "degree-1e40"])
def test_a_degree_past_the_budget_exits_2_at_once(capsys, argv):
    start = time.perf_counter()
    assert main(argv) == USAGE_EXIT
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: the pair map at degree ")


def _highest(path, command):
    """The highest degree of ``command`` the default budget admits on one
    instance file: each of D_{n-1} and D_n for cohomology, and the sum of
    D_1 .. D_n for complex-check."""
    inst = load_instance_file(path)
    bim = adjoint_bimodule(inst.pair)

    def admits(n):
        try:
            for degrees in ([(n - 1,), (n,)] if command == "cohomology" else [range(1, n + 1)]):
                C.check_budget(inst.pair, bim, degrees, "pair")
        except EntryCapExceeded:
            return False
        return True

    lo, hi = 2, 10 ** 6
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if admits(mid) else (lo, mid - 1)
    return lo


def _timed(argv):
    """Exit code and wall time of one CLI call in a fresh process."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "mrbder", *argv], capture_output=True,
                          cwd=ROOT, timeout=60)
    return proc.returncode, time.perf_counter() - start


@pytest.mark.parametrize("R", ["1" + "0" * 50, "1/1" + "0" * 4298], ids=["10^50", "1/10^4298"])
def test_the_budget_charges_the_size_of_the_integers(tmp_path, R):
    # a dim-1 zero algebra takes any R, and its integers grow with the degree,
    # as R^n and D^n: at the highest degrees the default admits on fix0, such
    # an instance exits 2 at once, and at its own highest it answers in time
    path = tmp_path / "big.json"
    path.write_text(json.dumps(dict(json.loads(Path(FIX0).read_text()), R=[[R]])))
    path = str(path)
    for command, flag in (("cohomology", "--degree"), ("complex-check", "--max-degree")):
        top = _highest(path, command)
        assert top < _highest(FIX0, command)
        code, seconds = _timed([command, path, flag, str(_highest(FIX0, command))])
        assert code == USAGE_EXIT and seconds < 1.0
        code, seconds = _timed([command, path, flag, str(top)])
        assert code == 0 and seconds < 3.0
        code, seconds = _timed([command, path, flag, str(top + 1)])
        assert code == USAGE_EXIT and seconds < 1.0


@pytest.mark.parametrize("command,flag,top", [("cohomology", "--degree", 83333),
                                              ("complex-check", "--max-degree", 407)])
def test_the_highest_dim1_degree_the_default_admits_answers_in_time(command, flag, top):
    assert _highest(FIX0, command) == top
    code, seconds = _timed([command, FIX0, flag, str(top)])
    assert code == 0 and seconds < 3.0


def test_a_zero_product_walks_no_slot():
    # fix0's coboundary at the highest degree the default admits: mu, l and r
    # are zero, so it lists nothing, and builds no list for its 83 333 slots
    start = time.perf_counter()
    assert list(C._coboundary_entries(1, 1, [], [], [], 83333)) == []
    assert time.perf_counter() - start < 0.05


@pytest.mark.parametrize("n,err", [
    (20, "tensor with 2097152 entries exceeds cap 1000000"),
    (21, "the pair map at degree 21 may list more than 1000000 entries and steps"),
    (10 ** 5, "the pair map at degree 100000 may list more than 1000000 entries and steps")])
def test_past_the_limits_bit_length_no_power_is_computed(n, err):
    # 2^20 < 10^6 < 2^21: from degree 21 on, the 2^n columns of C^n on a
    # 2-dimensional algebra are over the budget before they are counted
    pair = dual_pair(QQ)
    with pytest.raises(EntryCapExceeded, match="^%s$" % err):
        C.cohomology(pair, adjoint_bimodule(pair), n)


def test_the_representatives_are_checked_before_they_are_made(monkeypatch):
    # the zero algebra of dim 6 at degree 3: PC^3 has 1296 + 2 * 216 + 36 =
    # 1764 entries, all of them cocycles and none a coboundary, so the
    # representatives would hold 1764^2 = 3 111 696 entries
    def unflatten(*args):
        raise AssertionError("a representative was made")

    pair = zero_pair(QQ, 6)
    monkeypatch.setattr(C.CochainSpace, "unflatten", unflatten)
    with pytest.raises(EntryCapExceeded, match="^tensor with 3111696 entries exceeds cap 1000000$"):
        C.cohomology(pair, adjoint_bimodule(pair), 3)
