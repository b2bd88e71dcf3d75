"""End-to-end CLI tests.

Everything runs in process through main(argv) so exit codes and report
bytes are checked directly; subprocess tests cover the -m entry point and a
run that must stop before it starts its work.
"""

import importlib
import json
import resource
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from mrbder import cli
from mrbder.cli import CHECK_FAILED_EXIT, INTERNAL_EXIT, USAGE_EXIT, main
from mrbder.fields import CLASS_ENUMERATION_CAP, QQ, Field
from mrbder.linalg import Matrix
from mrbder.structures import InternalError, adjoint_bimodule, dual_pair

ROOT = Path(__file__).resolve().parents[1]
INSTANCES = ROOT / "instances"

FIXD = str(INSTANCES / "fixd.json")
D_SCALING = str(INSTANCES / "deform_d_scaling.json")
RIGID_F5 = str(INSTANCES / "deform_rigid_f5.json")
EXT_TOTAL = str(INSTANCES / "extension_total.json")
EXT_BUILD = str(INSTANCES / "extension_build.json")
INVALID_PAIR = str(INSTANCES / "invalid_pair.json")
NOT_SQUARE_ZERO = str(INSTANCES / "extension_not_square_zero.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def canonical(obj):
    return json.dumps(obj, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"


def write_json(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestVerify:
    def test_valid_instance(self, capsys):
        code, out, err = run(capsys, "verify", FIXD)
        assert code == 0
        assert err == ""
        report = json.loads(out)
        assert report["command"] == "verify"
        assert report["ok"] is True
        assert {c["check"] for c in report["checks"]} == {"pair", "bimodule"}
        assert all(c["ok"] for c in report["checks"])

    def test_output_is_byte_identical(self, capsys):
        _, out1, _ = run(capsys, "verify", FIXD)
        _, out2, _ = run(capsys, "verify", FIXD)
        assert out1 == out2
        assert out1.endswith("\n")

    def test_broken_pair_reports_witness(self, capsys, tmp_path):
        data = json.loads(Path(FIXD).read_text())
        data["kappa"] = "1"
        path = write_json(tmp_path, "bad_kappa.json", data)
        code, out, err = run(capsys, "verify", path)
        assert code == CHECK_FAILED_EXIT
        assert err == ""
        report = json.loads(out)
        assert report["ok"] is False
        pair_check = next(c for c in report["checks"] if c["check"] == "pair")
        assert pair_check["ok"] is False
        assert pair_check["failures"] >= 1
        assert isinstance(pair_check["witness"]["identity"], str)
        assert pair_check["witness"]["identity"]

    def test_extension_instance(self, capsys):
        code, out, _ = run(capsys, "verify", EXT_TOTAL)
        assert code == 0
        report = json.loads(out)
        assert {c["check"] for c in report["checks"]} == {"pair", "extension"}

    def test_cocycle_instance(self, capsys):
        code, out, _ = run(capsys, "verify", EXT_BUILD)
        assert code == 0
        report = json.loads(out)
        assert {c["check"] for c in report["checks"]} == {
            "pair", "bimodule", "cocycle-closed"}

    def test_non_ideal_fiber_goes_to_stderr(self, capsys, tmp_path):
        # image of i spans the unit direction, which is not an ideal
        data = json.loads(Path(EXT_TOTAL).read_text())
        data["extension"]["i"] = [["1"], ["0"]]
        data["extension"]["p"] = [["0", "1"]]
        path = write_json(tmp_path, "non_ideal.json", data)
        code, out, err = run(capsys, "verify", path)
        assert code == CHECK_FAILED_EXIT
        assert out == ""
        assert err.startswith("invalid structure:")

    @pytest.mark.parametrize("argv", [["verify"], ["extend", "extract"], ["extend", "classify"]],
                             ids=["verify", "extract", "classify"])
    def test_products_outside_the_fiber(self, capsys, tmp_path, argv):
        # the dual numbers with the unit line as the fiber: exact, but the
        # unit times the fiber leaves it
        data = {"field": "Q", "dim": 2, "kappa": "-1",
                "mu": [[0, 0, ["1", "0"]], [0, 1, ["0", "1"]], [1, 0, ["0", "1"]]],
                "R": [["1", "0"], ["0", "-1"]], "d": [["0", "0"], ["0", "1"]],
                "extension": {"i": [["1"], ["0"]], "p": [["0", "1"]]}}
        path = write_json(tmp_path, "unit_fiber.json", data)
        assert run(capsys, *argv, path) == (
            CHECK_FAILED_EXIT, "", "invalid structure: vector does not lie in the fiber\n")

    def test_missing_file(self, capsys):
        code, out, err = run(capsys, "verify", str(INSTANCES / "nope.json"))
        assert code == USAGE_EXIT
        assert out == ""
        assert err.startswith("error: cannot read")

    def test_bad_json(self, capsys, tmp_path):
        path = tmp_path / "mangled.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "verify", str(path))
        assert code == USAGE_EXIT
        assert err.startswith("error: bad JSON")

    def test_deeply_nested_json(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000)
        code, out, err = run(capsys, "verify", str(path))
        assert code == USAGE_EXIT
        assert out == ""
        assert err.startswith("error: bad JSON") and err.count("\n") == 1

    def test_huge_prime_field_fails_fast(self, capsys, tmp_path):
        data = json.loads(Path(FIXD).read_text())
        data["field"] = "Fp:%d" % (2 ** 127 - 1)
        path = write_json(tmp_path, "huge_prime.json", data)
        for argv in (["verify", path], ["fuzz", "--field", "fp:%d" % (2 ** 127 - 1)]):
            start = time.perf_counter()
            code, out, err = run(capsys, *argv)
            assert time.perf_counter() - start < 1.0
            assert code == USAGE_EXIT and out == ""
            assert err.startswith("error: prime too large")

    def test_broken_products_witness_bytes(self, capsys, tmp_path):
        # stdout recorded from the loop-based checks: counts and first witnesses
        data = json.loads(Path(FIXD).read_text())
        data["mu"][2] = [1, 0, ["0", "2"]]
        data["bimodule"]["l"][1] = [0, 1, ["1", "1"]]
        path = write_json(tmp_path, "broken_products.json", data)
        code, out, err = run(capsys, "verify", path)
        assert code == CHECK_FAILED_EXIT and err == ""
        assert out == canonical({"command": "verify", "ok": False, "checks": [
            {"check": "pair", "ok": False, "failures": 1,
             "witness": {"identity": "assoc", "args": [1, 0, 0], "residual": ["0", "2"]}},
            {"check": "bimodule", "ok": False, "failures": 8,
             "witness": {"identity": "module-left", "args": [0, 0, 1],
                         "residual": ["-1", "0"]}},
        ]})

    def test_oversized_dim_fails_before_allocating(self, capsys, tmp_path):
        path = tmp_path / "huge_dim.json"
        path.write_text('{"field":"Q","dim":100000,"kappa":0,"R":[],"d":[]}')
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", str(path))
        assert time.perf_counter() - start < 1.0
        assert code == USAGE_EXIT and out == ""
        assert "exceeds cap" in err

    def test_float_scalar(self, capsys, tmp_path):
        data = json.loads(Path(FIXD).read_text())
        data["kappa"] = -1.0
        path = write_json(tmp_path, "float_kappa.json", data)
        code, _, err = run(capsys, "verify", path)
        assert code == USAGE_EXIT
        assert err.startswith("error: inexact-scalar")


class TestShippedFailures:
    """The instances that must fail: fixd with e0 e0 = 2 e0, and dual + dual
    over the projection to its first summand, whose fiber (the second
    summand) is an ideal that does not square to zero."""

    @pytest.mark.parametrize("argv", [["verify"], ["cohomology", "--degree", "2"],
                                      ["complex-check"], ["extend", "classify"]],
                             ids=["verify", "cohomology", "complex-check", "classify"])
    def test_invalid_pair(self, capsys, argv):
        code, out, err = run(capsys, *argv, INVALID_PAIR)
        assert (code, err) == (CHECK_FAILED_EXIT, "")
        report = json.loads(out)
        assert report["ok"] is False
        assert report["checks"][0] == {
            "check": "pair", "ok": False, "failures": 2,
            "witness": {"identity": "assoc", "args": [0, 0, 1], "residual": ["0", "1"]}}

    @pytest.mark.parametrize("argv", [["verify"], ["extend", "extract"]],
                             ids=["verify", "extract"])
    def test_fiber_that_does_not_square_to_zero(self, capsys, argv):
        code, out, err = run(capsys, *argv, NOT_SQUARE_ZERO)
        assert (code, err) == (CHECK_FAILED_EXIT, "")
        report = json.loads(out)
        assert report["ok"] is False
        assert report["checks"][-1] == {
            "check": "extension", "ok": False, "failures": 3,
            "witness": {"identity": "ideal-square", "args": [0, 0],
                        "residual": ["0", "0", "1", "0"]}}


class TestUsage:
    def test_no_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate", FIXD])
        assert exc.value.code == 2

    def test_cohomology_requires_degree(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["cohomology", FIXD])
        assert exc.value.code == 2

    def test_fuzz_requires_field(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fuzz"])
        assert exc.value.code == 2

    def test_fuzz_dim_choices(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fuzz", "--field", "Fp:5", "--dim", "3"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_nonpositive_cap_is_a_usage_error(self, capsys, cap):
        assert run(capsys, "--max-entries", cap, "verify", FIXD) == (
            USAGE_EXIT, "", "error: cap must be positive\n")

    @pytest.mark.parametrize("argv,code", [
        (("--max-entries", "8", "verify", FIXD), 0),
        (("--max-entries", "8", "cohomology", FIXD, "--degree", "2"), USAGE_EXIT),
        (("--max-entries", "0", "verify", FIXD), USAGE_EXIT),
    ], ids=["exit-0", "exit-2-cap", "exit-2-bad-cap"])
    def test_cap_is_restored_on_return(self, capsys, argv, code):
        # --max-entries holds for the one call: the calls after it, with and
        # without the option, get their own budgets
        degree_two = ("cohomology", FIXD, "--degree", "2")
        assert run(capsys, *argv)[0] == code
        assert run(capsys, *degree_two)[0] == 0
        assert run(capsys, "--max-entries", "8", *degree_two)[0] == USAGE_EXIT
        assert run(capsys, *degree_two)[0] == 0

    def test_two_threads_keep_their_own_budgets(self, capsys, monkeypatch):
        # the capped call reads its file only once the default call has read
        # its own, and the default call goes on only once the capped call is
        # done: a budget held in module state would let the capped call run
        # under the default one
        cli = importlib.import_module("mrbder.cli")
        real = cli.load_instance_file
        capped_loading, default_loaded, capped_done = (threading.Event() for _ in range(3))

        def spy(path, **kwargs):
            if threading.current_thread().name == "capped":
                capped_loading.set()
                assert default_loaded.wait(30)
                return real(path, **kwargs)
            inst = real(path, **kwargs)
            default_loaded.set()
            assert capped_done.wait(30)
            return inst

        monkeypatch.setattr(cli, "load_instance_file", spy)
        codes = {}
        degree_two = ["cohomology", FIXD, "--degree", "2"]

        def call(argv):
            try:
                codes[threading.current_thread().name] = main(argv)
            finally:
                capped_done.set()

        capped = threading.Thread(target=call, name="capped",
                                  args=(["--max-entries", "8"] + degree_two,))
        default = threading.Thread(target=call, name="default", args=(degree_two,))
        capped.start()
        assert capped_loading.wait(30)
        default.start()
        capped.join(60)
        default.join(60)
        assert codes == {"capped": USAGE_EXIT, "default": 0}
        monkeypatch.setattr(cli, "load_instance_file", real)
        assert run(capsys, *degree_two)[0] == 0


class TestUsageBeforeVerification:
    """An out-of-range option is a usage error whatever the file holds: on a
    file that fails verification it exits 2 with the stderr a valid file gets."""

    @pytest.mark.parametrize("argv", [["cohomology", "--degree", "0"],
                                      ["complex-check", "--max-degree", "1"]],
                             ids=["degree", "max-degree"])
    def test_degree_options(self, capsys, argv):
        assert run(capsys, *argv, INVALID_PAIR)[0] == USAGE_EXIT
        assert run(capsys, *argv, INVALID_PAIR) == run(capsys, *argv, FIXD)

    def test_max_order(self, capsys, tmp_path):
        data = json.loads(Path(D_SCALING).read_text())
        data["kappa"] = "5"
        bad = write_json(tmp_path, "bad_kappa.json", data)
        assert run(capsys, "trivialize", bad)[0] == CHECK_FAILED_EXIT
        want = (USAGE_EXIT, "", "error: max_order must be at least 1, got 0\n")
        assert run(capsys, "trivialize", "--max-order", "0", bad) == want
        assert run(capsys, "trivialize", "--max-order", "0", D_SCALING) == want


class TestInternalErrors:
    """A broken map inside the engine exits 3 with one ``error: internal:``
    line and no traceback, never 1, the code of a failed check."""

    def test_injective_differential_fails_the_product_check(self, capsys, monkeypatch):
        mod = importlib.import_module("mrbder.cohomology")
        real = mod.differential_matrix

        def broken(pair, bim, n, which, **budget):
            d = real(pair, bim, n, which, **budget)
            if n != 2:
                return d
            # injective, so Z^2 = 0 while B^2 is not, and D_2 D_1 cannot be zero
            F = d.field
            return Matrix(F, tuple(tuple(F.one if i == j else F.zero for j in range(d.ncols))
                                   for i in range(d.nrows)))

        monkeypatch.setattr(mod, "differential_matrix", broken)
        assert run(capsys, "cohomology", FIXD, "--degree", "2") == (
            INTERNAL_EXIT, "", "error: internal: D_2 D_1 is not zero; complex is broken\n")

    def test_differential_that_does_not_square_to_zero(self, capsys, monkeypatch):
        # with delta f negated at every degree, D_2 is not injective, and the
        # product D_2 D_1 alone shows the complex is broken
        mod = importlib.import_module("mrbder.cohomology")
        real = mod._graded_blocks

        def flipped(n, layers):
            blocks = real(n, layers)
            i, j, plus, kind, arity = blocks[0]
            assert kind == "delta"
            blocks[0] = (i, j, not plus, kind, arity)
            return blocks

        monkeypatch.setattr(mod, "_graded_blocks", flipped)
        pair = dual_pair(QQ)
        with pytest.raises(InternalError, match="D_2 D_1 is not zero"):
            mod.cohomology(pair, adjoint_bimodule(pair), 2)
        assert run(capsys, "cohomology", FIXD, "--degree", "2") == (
            INTERNAL_EXIT, "", "error: internal: D_2 D_1 is not zero; complex is broken\n")

    def test_gauge_step_that_clears_nothing(self, capsys, monkeypatch):
        mod = importlib.import_module("mrbder.deformation")
        monkeypatch.setattr(mod, "apply_gauge", lambda defo, gauge: defo)
        assert run(capsys, "trivialize", RIGID_F5) == (
            INTERNAL_EXIT, "", "error: internal: gauge step failed to clear order 1\n")

    def test_lowest_coefficient_that_is_not_closed(self, capsys, monkeypatch):
        # the deformation passes its equations, so its lowest coefficient is
        # closed; a differential that says otherwise is the engine's fault
        mod = importlib.import_module("mrbder.deformation")
        seen = []

        def not_closed(pair, bim, c, **budget):
            seen.append(c)
            return c

        monkeypatch.setattr(mod, "pair_delta", not_closed)
        assert run(capsys, "trivialize", RIGID_F5) == (
            INTERNAL_EXIT, "", "error: internal: lowest coefficient is not a 2-cocycle\n")
        assert len(seen) == 1 and not seen[0].is_zero()

    def test_primitive_that_misses_the_cocycle(self, capsys, monkeypatch, one_entry_off):
        mod = importlib.import_module("mrbder.cohomology")
        code, out, _ = run(capsys, "infinitesimal", RIGID_F5)
        assert code == 0 and json.loads(out)["exact"] is True
        monkeypatch.setattr(mod, "solve_linear", one_entry_off(mod.solve_linear))
        assert run(capsys, "infinitesimal", RIGID_F5) == (
            INTERNAL_EXIT, "", "error: internal: primitive h does not satisfy D^1 h = c\n")

    def test_exception_while_writing_the_report(self, capsys, monkeypatch):
        # the report is written inside main's guard, so a failed write is
        # one line on stderr, not a traceback
        def full(obj):
            raise OSError("no space left")

        monkeypatch.setattr(importlib.import_module("mrbder.cli"), "_emit", full)
        assert run(capsys, "verify", FIXD) == (
            INTERNAL_EXIT, "", "error: internal: OSError: no space left\n")

    def test_unexpected_exception(self, capsys, monkeypatch):
        mod = importlib.import_module("mrbder.cli")

        def boom(*args, **kwargs):
            raise KeyError("boom")

        monkeypatch.setattr(mod, "cohomology", boom)
        assert run(capsys, "cohomology", FIXD, "--degree", "1") == (
            INTERNAL_EXIT, "", "error: internal: KeyError: 'boom'\n")


class TestCohomology:
    def test_degree_two_dims(self, capsys):
        code, out, _ = run(capsys, "cohomology", FIXD, "--degree", "2")
        assert code == 0
        report = json.loads(out)
        assert report["degree"] == 2
        assert report["dim_cocycles"] == 4
        assert report["dim_coboundaries"] == 3
        assert report["dim_h"] == 1
        assert len(report["representatives"]) == 1
        assert set(report["representatives"][0]) == {"theta", "xi", "chi"}

    def test_degree_one_dims(self, capsys):
        code, out, _ = run(capsys, "cohomology", FIXD, "--degree", "1")
        assert code == 0
        report = json.loads(out)
        assert (report["dim_cocycles"], report["dim_coboundaries"]) == (1, 0)
        assert report["dim_h"] == 1
        rep = report["representatives"][0]
        assert rep["degree"] == 1
        assert len(rep["flat"]) == 4

    def test_degree_cap(self, capsys):
        # no degree is out of range, but one past the entry budget is refused
        code, out, err = run(capsys, "cohomology", FIXD, "--degree", "30")
        assert code == USAGE_EXIT
        assert out == ""
        assert err == ("error: the pair map at degree 30 may list more than 1000000 entries "
                       "and steps\n")

    def test_degree_zero_rejected(self, capsys):
        code, _, err = run(capsys, "cohomology", FIXD, "--degree", "0")
        assert code == USAGE_EXIT
        assert err.startswith("error:")

    def test_invalid_instance_fails_first(self, capsys, tmp_path):
        data = json.loads(Path(FIXD).read_text())
        data["kappa"] = "1"
        path = write_json(tmp_path, "bad.json", data)
        code, out, _ = run(capsys, "cohomology", path, "--degree", "2")
        assert code == CHECK_FAILED_EXIT
        report = json.loads(out)
        assert report["command"] == "cohomology"
        assert report["ok"] is False


class TestComplexCheck:
    def test_default_degrees(self, capsys):
        code, out, _ = run(capsys, "complex-check", FIXD)
        assert code == 0
        report = json.loads(out)
        assert report["ok"] is True
        assert report["max_degree"] == 3
        assert [p["degrees"] for p in report["products"]] == [[2, 1], [3, 2]]
        assert all(p["zero"] for p in report["products"])

    def test_max_degree_out_of_range(self, capsys):
        code, _, err = run(capsys, "complex-check", FIXD, "--max-degree", "1")
        assert code == USAGE_EXIT
        assert err == "error: --max-degree must be at least 2\n"

    def test_entry_cap_stops_matrix_build(self, capsys):
        code, out, err = run(capsys, "--max-entries", "10", "complex-check", FIXD)
        assert code == USAGE_EXIT
        assert out == ""
        assert err.startswith("error:")
        assert "exceeds cap" in err

    # Exit codes and stderr bytes recorded with the cochain-by-cochain build
    # of D_n.  Caps 8 and 10 stop the axiom checks; cap 16 stops the build of
    # D_3, whose codomain holds 32-entry cochains.
    @pytest.mark.parametrize("cap,err", [
        ("8", "error: tensor with 16 entries exceeds cap 8\n"),
        ("10", "error: tensor with 16 entries exceeds cap 10\n"),
        ("16", "error: tensor with 32 entries exceeds cap 16\n"),
        ("64", ""),
    ])
    @pytest.mark.parametrize("command", [("complex-check",), ("cohomology", "--degree", "3")])
    def test_entry_cap_goldens(self, capsys, cap, err, command):
        code, out, got = run(capsys, "--max-entries", cap, *command, FIXD)
        assert got == err
        if err:
            assert (code, out) == (USAGE_EXIT, "")
        else:
            assert (code, out) == run(capsys, *command, FIXD)[:2]

    # The commands that evaluate pair_delta on a cochain, on each instance
    # carrying the block they need; stderr bytes at caps 8, 16 and 64,
    # recorded with the cochain maps transcribed from their formulas.  At
    # cap 8 on dim 2 the cocycle check meets the 16-entry image of a
    # 2-cochain.
    @pytest.mark.parametrize("command,name,errs", [
        (("verify",), "extension_build", ("", "", "")),
        (("deform-check",), "deform_d_scaling", ("", "", "")),
        (("deform-check",), "deform_rigid_f5", ("", "", "")),
        (("infinitesimal",), "deform_d_scaling",
         ("error: tensor with 16 entries exceeds cap 8\n", "", "")),
        (("infinitesimal",), "deform_rigid_f5", ("", "", "")),
        (("trivialize",), "deform_d_scaling",
         ("error: tensor with 16 entries exceeds cap 8\n", "", "")),
        (("trivialize",), "deform_rigid_f5", ("", "", "")),
        (("extend", "build"), "extension_build", ("", "", "")),
        (("extend", "classify"), "deform_d_scaling",
         ("error: tensor with 16 entries exceeds cap 8\n", "", "")),
        (("extend", "classify"), "deform_rigid_f5", ("", "", "")),
        (("extend", "classify"), "extension_build", ("", "", "")),
        (("extend", "classify"), "extension_total",
         ("error: tensor with 16 entries exceeds cap 8\n", "", "")),
        (("extend", "classify"), "fix0", ("", "", "")),
        (("extend", "classify"), "fixd",
         ("error: tensor with 16 entries exceeds cap 8\n", "", "")),
        (("extend", "classify"), "upper_triangular",
         ("error: tensor with 27 entries exceeds cap 8\n",
          "error: tensor with 27 entries exceeds cap 16\n",
          "error: tensor with 81 entries exceeds cap 64\n")),
    ])
    def test_entry_cap_goldens_of_cochain_maps(self, capsys, command, name, errs):
        path = str(INSTANCES / (name + ".json"))
        uncapped = run(capsys, *command, path)
        for cap, err in zip(("8", "16", "64"), errs):
            code, out, got = run(capsys, "--max-entries", cap, *command, path)
            assert got == err, cap
            assert (code, out) == ((USAGE_EXIT, "") if err else uncapped[:2]), cap


class TestDeformation:
    def test_deform_check(self, capsys):
        code, out, _ = run(capsys, "deform-check", D_SCALING)
        assert code == 0
        report = json.loads(out)
        assert report["ok"] is True
        assert report["order"] == 3
        assert {c["check"] for c in report["checks"]} == {"pair", "deformation"}

    def test_deform_check_witness_bytes(self, capsys, tmp_path):
        # stdout recorded from the loop-based checks for a broken order-2 term
        data = json.loads(Path(D_SCALING).read_text())
        data["deformation"]["mu"][1] = [[1, 1, ["1", "0"]]]
        path = write_json(tmp_path, "broken_order2.json", data)
        code, out, err = run(capsys, "deform-check", path)
        assert code == CHECK_FAILED_EXIT and err == ""
        assert out == canonical({"command": "deform-check", "ok": False, "order": 3, "checks": [
            {"check": "pair", "ok": True},
            {"check": "deformation", "ok": False, "failures": 3,
             "witness": {"identity": "deform-mrb", "args": [2, 1, 1], "residual": ["4", "0"]}},
        ]})

    def test_deform_check_needs_block(self, capsys):
        code, _, err = run(capsys, "deform-check", FIXD)
        assert code == USAGE_EXIT
        assert "needs a deformation block" in err

    def test_infinitesimal_d_scaling(self, capsys):
        code, out, _ = run(capsys, "infinitesimal", D_SCALING)
        assert code == 0
        report = json.loads(out)
        assert report["closed"] is True
        assert report["exact"] is False
        assert report["primitive"] is None
        cocycle = report["cocycle"]
        assert cocycle["theta"] == []
        assert cocycle["xi"] == [["0", "0"], ["0", "0"]]
        assert cocycle["chi"] == [["0", "0"], ["0", "1"]]

    def test_trivialize_essential(self, capsys):
        code, out, _ = run(capsys, "trivialize", D_SCALING)
        assert code == 0
        report = json.loads(out)
        assert report["trivializable"] is False
        assert report["gauge"] is None

    def test_trivialize_rigid(self, capsys):
        code, out, _ = run(capsys, "trivialize", RIGID_F5)
        assert code == 0
        report = json.loads(out)
        assert report["order"] == 3
        assert report["trivializable"] is True
        assert report["gauge"] == [[["2"]], [["3"]], [["1"]]]

    def test_trivialize_max_order(self, capsys):
        code, out, _ = run(capsys, "trivialize", RIGID_F5, "--max-order", "1")
        assert code == 0
        report = json.loads(out)
        assert report["max_order"] == 1
        assert report["trivializable"] is True
        gauge = report["gauge"]
        assert gauge[0] == [["2"]]
        assert gauge[1:] == [[["0"]], [["0"]]]

    @pytest.mark.parametrize("max_order", ["0", "-1"])
    def test_trivialize_max_order_below_one(self, capsys, max_order):
        code, out, err = run(capsys, "trivialize", RIGID_F5, "--max-order", max_order)
        assert code == USAGE_EXIT
        assert out == ""
        assert err == "error: max_order must be at least 1, got %s\n" % max_order

    def test_trivialize_needs_block(self, capsys):
        code, _, err = run(capsys, "trivialize", FIXD)
        assert code == USAGE_EXIT
        assert "needs a deformation block" in err


class TestExtend:
    def test_extract_split_total(self, capsys):
        code, out, _ = run(capsys, "extend", "extract", EXT_TOTAL)
        assert code == 0
        report = json.loads(out)
        assert report["dim"] == 1
        assert report["kappa"] == "-1"
        assert report["mu"] == [[0, 0, ["1"]]]
        assert report["R"] == [["1"]]
        assert report["d"] == [["0"]]
        bim = report["bimodule"]
        assert bim["dim_m"] == 1
        assert bim["R_M"] == [["-1"]]
        assert bim["d_M"] == [["1"]]
        # the canonical section splits this total, so the cocycle vanishes
        cocycle = report["cocycle"]
        assert cocycle["theta"] == []
        assert cocycle["xi"] == [["0"]]
        assert cocycle["chi"] == [["0"]]

    def test_build_then_extract_round_trip(self, capsys, tmp_path):
        code, out, _ = run(capsys, "extend", "build", EXT_BUILD)
        assert code == 0
        total = json.loads(out)
        assert total["dim"] == 2
        assert set(total["extension"]) == {"i", "p"}

        total_path = write_json(tmp_path, "built_total.json", total)
        code, out, _ = run(capsys, "verify", total_path)
        assert code == 0

        code, out, _ = run(capsys, "extend", "extract", total_path)
        assert code == 0
        extracted = json.loads(out)
        source = json.loads(Path(EXT_BUILD).read_text())
        for key in ("field", "dim", "kappa", "mu", "R", "d"):
            assert extracted[key] == source[key]
        assert extracted["bimodule"] == source["bimodule"]
        assert extracted["cocycle"] == source["cocycle"]
        assert extracted["cocycle"] == {
            "theta": [[0, 0, ["1"]]], "xi": [["-2"]], "chi": [["1"]]}

    def test_build_needs_cocycle(self, capsys):
        code, _, err = run(capsys, "extend", "build", FIXD)
        assert code == USAGE_EXIT
        assert "needs a cocycle block" in err

    def test_extract_needs_extension(self, capsys):
        code, _, err = run(capsys, "extend", "extract", FIXD)
        assert code == USAGE_EXIT
        assert "needs an extension block" in err

    def test_classify_over_q(self, capsys):
        code, out, _ = run(capsys, "extend", "classify", FIXD)
        assert code == 0
        report = json.loads(out)
        assert report["dim_h2"] == 1
        assert report["count"] is None
        assert report["complete"] is False
        reps = report["representatives"]
        assert len(reps) == 2
        assert reps[0]["theta"] == []
        assert all(x == "0" for row in reps[0]["xi"] for x in row)
        assert all(x == "0" for row in reps[0]["chi"] for x in row)
        assert reps[1] != reps[0]

    def test_classify_rigid(self, capsys):
        code, out, _ = run(capsys, "extend", "classify", RIGID_F5)
        assert code == 0
        report = json.loads(out)
        assert report["dim_h2"] == 0
        assert report["count"] == 1
        assert report["complete"] is True
        assert len(report["representatives"]) == 1


class TestFuzz:
    def test_f5_run(self, capsys):
        code, out, _ = run(capsys, "fuzz", "--field", "Fp:5", "--dim", "2",
                           "--count", "5", "--seed", "3")
        assert code == 0
        report = json.loads(out)
        assert report["all_ok"] is True
        assert report["field"] == "Fp:5"
        assert (report["dim"], report["count"], report["seed"]) == (2, 5, 3)
        assert len(report["instances"]) == 5
        for row in report["instances"]:
            assert row["valid"] is True
            assert row["complex_ok"] is True
            assert row["label"]

    def test_deterministic_for_fixed_seed(self, capsys):
        argv = ("fuzz", "--field", "Fp:5", "--count", "4", "--seed", "7")
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2

    def test_seed_changes_output(self, capsys):
        _, out1, _ = run(capsys, "fuzz", "--field", "Fp:5", "--count", "4",
                         "--seed", "3")
        _, out2, _ = run(capsys, "fuzz", "--field", "Fp:5", "--count", "4",
                         "--seed", "4")
        assert out1 != out2

    def test_rationals(self, capsys):
        code, out, _ = run(capsys, "fuzz", "--field", "Q", "--dim", "1",
                           "--count", "3", "--seed", "0")
        assert code == 0
        assert json.loads(out)["all_ok"] is True

    def test_bad_field_name(self, capsys):
        code, _, err = run(capsys, "fuzz", "--field", "R", "--count", "1")
        assert code == USAGE_EXIT
        assert err.startswith("error: bad field name")

    def test_count_must_be_positive(self, capsys):
        code, _, err = run(capsys, "fuzz", "--field", "Fp:5", "--count", "0")
        assert code == USAGE_EXIT
        assert "--count must be positive" in err

    @pytest.mark.parametrize("count", [CLASS_ENUMERATION_CAP + 1, 10**9])
    def test_a_count_over_the_cap_is_refused_before_any_draw(self, capsys, monkeypatch, count):
        # all instances are built before one is written, so an unbounded count
        # would never end; the refusal comes before the first draw
        monkeypatch.setattr(cli, "random_instances", lambda *a: pytest.fail("instances drawn"))
        start = time.perf_counter()
        code, out, err = run(capsys, "fuzz", "--field", "Q", "--count", str(count))
        assert time.perf_counter() - start < 1
        assert (code, out) == (USAGE_EXIT, "")
        assert err == "error: --count must be at most %d\n" % CLASS_ENUMERATION_CAP

    def test_the_cap_itself_is_admitted(self, capsys, monkeypatch):
        drawn = []
        monkeypatch.setattr(cli, "random_instances", lambda *a: drawn.append(a) or [])
        code, out, _ = run(capsys, "fuzz", "--field", "Fp:5", "--count", str(CLASS_ENUMERATION_CAP))
        assert code == 0 and json.loads(out)["count"] == CLASS_ENUMERATION_CAP
        assert drawn == [(Field(5), 2, CLASS_ENUMERATION_CAP, 0)]


@pytest.mark.parametrize("seed", ["1", "2"])
def test_fuzz_dim2_over_a_large_prime_is_refused_at_once(seed):
    # p^4 = 104060401 candidate operators: refused before any draw, whatever
    # the seed.  The child gets 1 GB of address space, so that an enumeration
    # fails fast instead of filling the machine's memory.
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run([sys.executable, "-m", "mrbder", "fuzz", "--field", "Fp:101",
                           "--dim", "2", "--count", "3", "--seed", seed],
                          capture_output=True, text=True, cwd=ROOT, timeout=60,
                          preexec_fn=limit)
    assert (proc.returncode, proc.stdout) == (USAGE_EXIT, "")
    assert proc.stderr == ("error: dimension 2 over Fp:101 would enumerate "
                           "104060401 operators (cap 4096)\n")


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "mrbder", "verify", FIXD],
                          capture_output=True, text=True, cwd=ROOT)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ok"] is True
