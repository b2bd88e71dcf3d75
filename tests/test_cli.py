"""End-to-end CLI tests.

Everything runs in process through main(argv) so exit codes and report
bytes are checked directly; one subprocess test covers the -m entry point.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from mrbder.cli import CHECK_FAILED_EXIT, USAGE_EXIT, main
from mrbder.linalg import set_max_tensor_entries

ROOT = Path(__file__).resolve().parents[1]
INSTANCES = ROOT / "instances"

FIXD = str(INSTANCES / "fixd.json")
D_SCALING = str(INSTANCES / "deform_d_scaling.json")
RIGID_F5 = str(INSTANCES / "deform_rigid_f5.json")
EXT_TOTAL = str(INSTANCES / "extension_total.json")
EXT_BUILD = str(INSTANCES / "extension_build.json")


@pytest.fixture(autouse=True)
def _restore_entry_cap():
    # main() sets the global cap from --max-entries; put the default back
    yield
    set_max_tensor_entries(10 ** 6)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_float_scalar(self, capsys, tmp_path):
        data = json.loads(Path(FIXD).read_text())
        data["kappa"] = -1.0
        path = write_json(tmp_path, "float_kappa.json", data)
        code, _, err = run(capsys, "verify", path)
        assert code == USAGE_EXIT
        assert err.startswith("error: inexact-scalar")


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
        code, out, err = run(capsys, "cohomology", FIXD, "--degree", "9")
        assert code == USAGE_EXIT
        assert out == ""
        assert err.startswith("error:")

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
        assert "2..4" in err

    def test_entry_cap_stops_matrix_build(self, capsys):
        code, out, err = run(capsys, "--max-entries", "10", "complex-check", FIXD)
        assert code == USAGE_EXIT
        assert out == ""
        assert err.startswith("error:")
        assert "exceeds cap" in err


class TestDeformation:
    def test_deform_check(self, capsys):
        code, out, _ = run(capsys, "deform-check", D_SCALING)
        assert code == 0
        report = json.loads(out)
        assert report["ok"] is True
        assert report["order"] == 3
        assert {c["check"] for c in report["checks"]} == {"pair", "deformation"}

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


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "mrbder", "verify", FIXD],
                          capture_output=True, text=True, cwd=ROOT)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ok"] is True
