"""Smoke test of the benchmark harness.

    python3 -m pytest -q perfbench/tests

Runs in about ten seconds: the statistics, the tracer on a small complex, the
answer checks on a wrong answer, one short cli-mix run, and the refusal to run
without the package's sources.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as W  # noqa: E402


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_tail_is_highest_percentile_with_ten_samples_above():
    xs = [float(i) for i in range(1, 37)]
    value, q = run._percentile_tail(xs)
    assert q == 72 and sum(x > value for x in xs) >= 10
    value, q = run._percentile_tail(xs[:13])
    assert (value, q) == (13.0, 100)


def test_host_speed_scales_by_the_mean_speed_of_nearby_samples():
    hs = hostspeed.HostSpeed()
    hs.times = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
    hs.speeds = [1.0, 0.5, 0.5, 0.25, 0.5, 0.5, 1.0, 1.0]
    assert hs.scaled(0.5, 5.5) == pytest.approx(5.0 * 2.25 / 5)
    # too few samples inside: widened to the nearest on both sides, or on one
    # side at the end
    assert hs.speed(2.5, 3.5) == pytest.approx(2.25 / 5)
    assert hs.scaled(6.5, 7.5, dt=4.0) == pytest.approx(4.0 * 3.25 / 5)


def test_host_speed_samples_are_taken():
    t0 = time.perf_counter()
    with hostspeed.TimerSpeed() as timer:
        while len(timer.times) < 5:
            hostspeed._reference()
    child = hostspeed.ChildSpeed(W.child_env(ROOT / "src"))
    child.mark()
    for hs in (timer, child):
        assert hs.times[0] > t0 and all(s > 0 for s in hs.speeds)


def _small_complex():
    return [j for j in (W.complex_job(*c) for c in W.complexes_sparse(0))
            if j.label == "Fp:5/dual"][0]


def test_tracer_records_layers_and_restores_bindings():
    import mrbder.cli
    C = sys.modules["mrbder.cohomology"]
    original = C.differential_matrix
    t = tracing.Tracer()
    t.install()
    try:
        assert mrbder.cli.differential_matrix is C.differential_matrix is not original
        job = _small_complex()
        t.active = True
        answers = [step() for _, step in job.steps]
        t.active = False
    finally:
        t.uninstall()
    assert C.differential_matrix is original and mrbder.cli.differential_matrix is original
    assert t.missing == [] and job.check(answers) == []
    m = t.layer_metrics()
    # H1, H2 (D2, D1), H3 (D3, D2), D2*D1 (D1, D2), D3*D2 (D3)
    assert m["cohomology.assemble_calls"] == 8
    assert m["cohomology.assemble_repeat_share"] == 5 / 8
    assert 0 < m["cohomology.assemble_nnz_share"] < 1
    assert m["linalg.eliminate_calls"] > 0
    assert min(m["cohomology.assemble_s"], m["linalg.eliminate_s"], m["linalg.matmul_s"],
               m["cohomology.request_s"]) > 0
    assert {(s["rows"], s["cols"]) for s in t.shapes} == {(16, 4), (36, 16), (72, 36)}


def test_tracer_reaches_modules_imported_by_install():
    code = ("import tracer; t = tracer.Tracer(); t.install(); import mrbder.cli, mrbder.serialize;"
            "assert not t.missing;"
            "assert mrbder.cli.dumps_canonical is mrbder.serialize.dumps_canonical;"
            "assert mrbder.cli.dumps_canonical.__wrapped__")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(BENCH), str(ROOT / "src")]))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_self_time_excludes_children_and_tracer_work():
    t = tracing.Tracer()
    # a encloses b and c; 1 s of counting ran inside c and 0.5 s after it
    t.spans = [["deformation", 0.0, 10.0, -1, 1.5], ["linalg.eliminate", 1.0, 4.0, 0, 0.0],
               ["linalg.matmul", 5.0, 8.0, 0, 1.0]]
    m = t.layer_metrics()
    assert (m["deformation.s"], m["linalg.eliminate_s"], m["linalg.matmul_s"]) == (3.5, 3.0, 2.0)


def test_check_rejects_a_wrong_answer():
    job = _small_complex()
    answers = [step() for _, step in job.steps]
    answers[1] = dataclasses.replace(answers[1], dim_h=2)
    assert job.check(answers) == ["H2: (Z, B, H) = (4, 3, 2), expected (4, 3, 1)",
                                  "H2: 1 representatives for dim H = 2"]
    answers = [step() for _, step in job.steps]
    answers[-1] = False
    assert job.check(answers) == ["D_3 D_2 != 0"]


def test_cli_mix_run_prints_checked_end_to_end_metrics():
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli-mix",
                        "--seed", "3", "--seconds", "0", "--trace", "0"],
                       cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(W.CLI_FIXED) + 4
    assert set(result["metrics"]) == {m["name"] for m in _spec()["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli-mix",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert p.returncode != 0 and p.stdout == ""


@pytest.mark.parametrize("entry", ["workloads", "per_layer"])
def test_spec_names_match_the_harness(entry):
    spec = _spec()
    if entry == "workloads":
        assert [w["name"] for w in spec["workloads"]] == ["ladder-sparse", "ladder-dense", "cli-mix"]
    else:
        t = tracing.Tracer()
        names = set(t.layer_metrics()) | {"cli.startup_s", "cli.bare_python_s", "trace.overhead_share"}
        assert {m["name"] for m in spec["per_layer"]} == names
