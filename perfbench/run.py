"""Benchmark of the mrbder engine: one workload, one seed, one result line.

    python3 perfbench/run.py --workload ladder-sparse --seed 1 --seconds 10 --trace 0

Run it from the root of a source checkout; the package is imported from
``src/``.  Set-up is repeated a few times and timed.  Then whole passes over
the workload's fixed job list run until the jobs' times add up to
``--seconds`` (at least one pass).  Each answer is checked outside the timed region.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones, measured
untraced.  With ``--trace 1`` the passes are traced and the metrics are the
per-layer ones.  The line before it records the environment, and the whole
result, spans included, is written under ``perfbench/out/``.  See
``perfbench/README.md``.

The end-to-end times are given at the host's full speed: a shared host runs
the same code up to 2.7x slower in phases, and ``hostspeed`` samples its speed
throughout the untraced run to take that out.  Raw times are kept in the
output file.
"""

from __future__ import annotations

import argparse
import compileall
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path("perfbench") / "out"
SETUP_REPEATS = 15
# a cheap set-up repeats until this much time has passed: a ladder set-up
# takes under 1 ms, and the median of 15 of them moved by 15 % between runs
SETUP_MIN_S = 1.0
STARTUP_REPEATS = 5
# a job slower than this counts as failed (timed out)
JOB_LIMIT_S = 120.0


def _percentile_tail(samples):
    """(value, q): the highest whole percentile q with at least ten samples
    above it, by nearest rank.  Below twenty samples no such percentile lies
    above the median, and the maximum is given instead (q = 100)."""
    xs = sorted(samples)
    n = len(xs)
    q = (100 * (n - 10)) // n if n > 10 else 0
    if q < 50:
        return xs[-1], 100
    return xs[math.ceil(q * n / 100) - 1], q


def _children_cpu() -> float:
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


def _git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _raw(t0, t1, dt=None):
    return t1 - t0 if dt is None else dt


class Pass:
    """Timings and failures of one pass over the job list."""

    def __init__(self):
        self.steps = []      # (job index, label, t0, t1, cpu) of every step, raw
        self.failures = []
        self.attempted = 0

    def jobs(self, scaled=_raw) -> list:
        """[(wall, cpu)] per job: the sums over its steps, each step's times
        passed through ``scaled(t0, t1, dt)``."""
        out = {}
        for i, _, t0, t1, cpu in self.steps:
            wall, c = out.get(i, (0.0, 0.0))
            out[i] = (wall + scaled(t0, t1), c + scaled(t0, t1, cpu))
        return list(out.values())


def run_job(job, p: Pass, tracer=None, speed=None):
    answers, wall = [], 0.0
    index = p.attempted
    p.attempted += 1
    gc.collect()
    for label, run in job.steps:
        if speed is not None:
            speed.mark()
        if tracer is not None:
            tracer.job = "%s %s" % (job.label, label)
            tracer.active = True
        cpu0 = _children_cpu() if job.spawns else time.process_time()
        t0 = time.perf_counter()
        try:
            answers.append(run())
        except Exception as e:  # a step that raises fails its job; the run goes on
            answers.append(e)
        t1 = time.perf_counter()
        cpu1 = _children_cpu() if job.spawns else time.process_time()
        if tracer is not None:
            tracer.active = False
        p.steps.append((index, "%s %s" % (job.label, label), t0, t1, cpu1 - cpu0))
        wall += t1 - t0
    bad = ["%s raised %s: %s" % (label, type(a).__name__, a)
           for (label, _), a in zip(job.steps, answers) if isinstance(a, Exception)]
    if wall > JOB_LIMIT_S:
        bad.append("took %.1f s, over the %g s limit" % (wall, JOB_LIMIT_S))
    if not bad:
        try:
            bad = job.check(answers)
        except Exception as e:
            bad = ["check raised %s: %s" % (type(e).__name__, e)]
    if bad:
        p.failures.append("%s: %s" % (job.label, "; ".join(bad)))


def run_passes(workload, seed, seconds, tracer=None, speed=None) -> list:
    """Whole passes until the jobs' times add up to ``seconds``: at full
    speed when ``speed`` is given, so that the number of passes, and with it
    the percentile of ``job_tail_s``, does not follow the host's phases."""
    passes, measured = [], 0.0
    scaled = _raw if speed is None else speed.scaled
    while not passes or measured < seconds:
        jobs = workload.jobs(seed)
        if tracer is not None:
            tracer.reset()
        p = Pass()
        for job in jobs:
            run_job(job, p, tracer, speed)
        gc.collect()
        if tracer is not None:
            p.layers = tracer.layer_metrics()
            p.shapes, p.spans, p.overhead = tracer.shapes, tracer.spans, tracer.overhead
        passes.append(p)
        measured += sum(wall for wall, _ in p.jobs(scaled))
    return passes


def _median_child(argv, env) -> float:
    times = []
    for _ in range(STARTUP_REPEATS):
        t0 = time.perf_counter()
        # with pipes, run() returns at the child's exit; without them it
        # polls for the exit with sleeps of up to 50 ms
        subprocess.run(argv, env=env, check=True, timeout=60, capture_output=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def end_to_end(passes, setup, spawns, scaled) -> dict:
    per_pass = [p.jobs(scaled) for p in passes]
    jobs = [wall for js in per_pass for wall, _ in js]
    tail, q = _percentile_tail(jobs)
    who = resource.RUSAGE_CHILDREN if spawns else resource.RUSAGE_SELF
    info = {"passes": len(passes), "jobs": len(jobs), "job_tail_percentile": q}
    return {
        "wall_s": statistics.median(sum(wall for wall, _ in js) for js in per_pass),
        "cpu_s": statistics.median(sum(cpu for _, cpu in js) for js in per_pass),
        "job_p50_s": statistics.median(jobs),
        "job_tail_s": tail,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "setup_s": statistics.median(scaled(t0, t1) for t0, t1 in setup),
    }, info


def set_up(workload, seed):
    compileall.compile_dir(str(SRC / "mrbder"), quiet=2)
    workload.setup(seed)


def traced(workload, args, env):
    """Set-up, then traced passes; the per-layer metrics."""
    import tracer as tracing
    import workloads as W

    set_up(workload, args.seed)
    if isinstance(workload, W.CliMix):
        # in-process here, so that traced and untraced passes compare
        workload.in_process = True
    tracer = tracing.Tracer()
    tracer.install()
    try:
        passes = run_passes(workload, args.seed, args.seconds, tracer)
    finally:
        tracer.uninstall()
    child = W.child_env(SRC)
    metrics = {k: statistics.median(p.layers[k] for p in passes) for k in passes[0].layers}
    metrics["cli.startup_s"] = _median_child([sys.executable, "-c", "import mrbder.cli"], child)
    metrics["cli.bare_python_s"] = _median_child([sys.executable, "-c", "pass"], child)
    # traced wall / untraced wall - 1, with the untraced wall taken as the
    # traced one less the time spent inside the tracer's wrappers
    metrics["trace.overhead_share"] = statistics.median(
        p.overhead / (sum(wall for wall, _ in p.jobs()) - p.overhead) for p in passes)
    env["untraced"] = tracer.missing
    env["shapes"] = passes[0].shapes
    steps = [[(label, t1 - t0) for _, label, t0, t1, _ in p.steps] for p in passes]
    return passes, metrics, {"spans": passes[0].spans, "steps": steps}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["ladder-sparse", "ladder-dense", "cli-mix"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (SRC / "mrbder" / "__init__.py").is_file():
        sys.stderr.write("error: %s/mrbder not found; run from a source checkout\n" % SRC)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    import hostspeed
    import workloads as W

    workload = W.make(args.workload, SRC)
    env = {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
           "seed": args.seed, "commit": _git_commit(ROOT), "workload": args.workload,
           "seconds": args.seconds, "trace": args.trace}
    # one core for the run and its children, so that the host-speed samples
    # are taken where the measured work runs
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if args.trace:
        passes, metrics, detail = traced(workload, args, env)
    else:
        speed = hostspeed.ChildSpeed(W.child_env(SRC)) if workload.spawns else hostspeed.TimerSpeed()
        with speed:
            setup = []
            while len(setup) < SETUP_REPEATS or setup[-1][1] - setup[0][0] < SETUP_MIN_S:
                speed.mark()
                t0 = time.perf_counter()
                set_up(workload, args.seed)
                setup.append((t0, time.perf_counter()))
                gc.collect()
            passes = run_passes(workload, args.seed, args.seconds, speed=speed)
        metrics, info = end_to_end(passes, setup, workload.spawns, speed.scaled)
        env.update(info)
        env["setups"] = len(setup)
        env["raw_wall_s"] = statistics.median(sum(wall for wall, _ in p.jobs()) for p in passes)
        env["host_speed_quartiles"] = statistics.quantiles(speed.speeds, n=4)
        detail = {"steps": [[(label, t1 - t0, speed.scaled(t0, t1)) for _, label, t0, t1, _ in p.steps]
                            for p in passes]}

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    if set(metrics) != {m["name"] for m in wanted}:
        raise RuntimeError("metrics %s do not match BENCHMARK.json" % sorted(metrics))
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}}
    env["failures"] = failures[:20]
    OUT.mkdir(parents=True, exist_ok=True)
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    (OUT / name).write_text(json.dumps(dict(env=env, result=result, **detail)) + "\n")
    shown = {k: v for k, v in env.items() if k != "shapes"}
    if "shapes" in env:
        shown["shapes"] = sorted({(s["rows"], s["cols"], s["nnz"]) for s in env["shapes"]})
    print("# " + json.dumps(shown))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
