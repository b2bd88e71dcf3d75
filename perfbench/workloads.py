"""The three workloads: inputs made from a seed, fixed job lists, answer checks.

A workload is a list of jobs.  A job is one request: a few steps (library
calls or child processes) on the same input, and one check of their answers.
The check runs after the job's last step, outside the timed region, and
returns a message for every wrong answer.  On the ladders a job is one
complex: its cohomology in every degree and the products D_{n+1} D_n = 0.

Steps call the library through its modules at call time (``C.cohomology``,
not a reference taken when the job was built), so the tracer's rebinding
reaches them.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


def _mod(name):
    return importlib.import_module("mrbder." + name)


@dataclass
class Job:
    label: str
    steps: list                    # [(step label, run)]
    check: Callable                # answers -> [message]
    spawns: bool = False           # steps run child processes (cpu is the children's)


# ---------------------------------------------------------------------------
# ladders

# (dim Z, dim B, dim H) by degree, the same over Q and F_5.  A basis change
# leaves them unchanged, so ladder-dense is held to the same table.
LADDER_EXPECTED = {
    "dual": ((1, 0, 1), (4, 3, 1), (12, 12, 0)),
    "ut": ((1, 0, 1), (9, 8, 1), (36, 36, 0)),
    "dual+dual": ((2, 0, 2), (16, 14, 2), (80, 80, 0)),
    "ut+dual": ((2, 0, 2), (26, 23, 3)),
}


def _fixtures(F, tops):
    S, C = _mod("structures"), _mod("constructions")
    dual = S.dual_pair(F)
    ut = S.upper_triangular_pair(F, F.one)   # kappa = -1, as for dual: the sums exist
    pairs = {"dual": dual, "ut": ut,
             "dual+dual": C.direct_sum(dual, dual), "ut+dual": C.direct_sum(ut, dual)}
    return [(name, pairs[name], top) for name, top in tops]


SPARSE_TOPS = (("dual", 3), ("ut", 3), ("dual+dual", 3), ("ut+dual", 2))
# ut+dual (a = 5) is left out of the dense ladder: at degree 2 it runs for
# minutes once the fractions grow.
DENSE_TOPS = (("dual", 3), ("ut", 3), ("dual+dual", 2))
# The basis changes are drawn from this fixed seed, not from --seed: over ten
# seeds one draw moved the dual+dual job from 9 s to 20 s, a 43 % spread of
# job_p50_s, wider than any bound.  The pass can afford only one draw per rung.
DENSE_BASIS_SEED = 0


def complexes_sparse(seed):
    # the standard basis is the point of this ladder: the seed changes nothing
    Q, F5 = _mod("fields").QQ, _mod("fields").Field(5)
    return [(F.name, name, pair, top) for F in (Q, F5) for name, pair, top in _fixtures(F, SPARSE_TOPS)]


def complexes_dense(seed):
    Q, Fz = _mod("fields").QQ, _mod("fuzzing")
    rng = random.Random(DENSE_BASIS_SEED)
    return [(Q.name, name, Fz.conjugate_pair(pair, Fz.random_invertible(rng, Q, pair.dim)), top)
            for name, pair, top in _fixtures(Q, DENSE_TOPS)]


def _mat_vec_is_zero(m, vec) -> bool:
    F = m.field
    return all(F.is_zero(sum(a * v for a, v in zip(row, vec) if a and v)) for row in m.rows)


def complex_job(fname, name, pair, top):
    """cohomology(pair, bim, n) for n = 1..top, then D_{n+1} D_n = 0 for n < top."""
    C = _mod("cohomology")
    bim = _mod("structures").adjoint_bimodule(pair)
    chain = {}   # D_n built by the product steps, reused by the next one

    def h(n):
        return lambda: C.cohomology(pair, bim, n)

    def product(n):
        def run():
            if n not in chain:
                chain[n] = C.differential_matrix(pair, bim, n, "pair")
            chain[n + 1] = C.differential_matrix(pair, bim, n + 1, "pair")
            return (chain[n + 1] * chain[n]).is_zero()
        return run

    steps = [("H%d" % n, h(n)) for n in range(1, top + 1)]
    steps += [("D%d*D%d" % (n + 1, n), product(n)) for n in range(1, top)]

    def check(answers):
        F = pair.field
        bad = []
        res = {n: answers[n - 1] for n in range(1, top + 1)}
        dim_pc = {n: C.PairSpace(F, pair.dim, bim.dim_m, n).dim for n in range(1, top + 2)}
        for n in range(1, top + 1):
            r, want = res[n], LADDER_EXPECTED[name][n - 1]
            got = (r.dim_cocycles, r.dim_coboundaries, r.dim_h)
            if got != want:
                bad.append("H%d: (Z, B, H) = %s, expected %s" % (n, got, want))
            if len(r.representatives) != r.dim_h:
                bad.append("H%d: %d representatives for dim H = %d" % (n, len(r.representatives), r.dim_h))
            # rank-nullity: rank D_n is dim B^{n+1}, found by a separate elimination
            if n < top and r.dim_cocycles + res[n + 1].dim_coboundaries != dim_pc[n]:
                bad.append("H%d: dim Z + rank D_%d != dim PC^%d" % (n, n, n))
            d = chain[n]
            if (d.nrows, d.ncols) != (dim_pc[n + 1], dim_pc[n]):
                bad.append("D_%d has shape %dx%d" % (n, d.nrows, d.ncols))
            space = C.PairSpace(F, pair.dim, bim.dim_m, n)
            if not all(_mat_vec_is_zero(d, space.flatten(v)) for v in r.representatives):
                bad.append("H%d: a representative is not in ker D_%d" % (n, n))
        for n in range(1, top):
            if answers[top + n - 1] is not True:
                bad.append("D_%d D_%d != 0" % (n + 1, n))
        return bad

    return Job("%s/%s" % (fname, name), steps, check)


class Ladder:
    """ladder-sparse and ladder-dense: in-process cohomology requests."""

    spawns = False

    def __init__(self, complexes):
        self._complexes = complexes

    def setup(self, seed):
        self._complexes(seed)

    def jobs(self, seed):
        # fresh inputs every pass, so nothing a pass builds is reused by the next
        return [complex_job(*c) for c in self._complexes(seed)]


# ---------------------------------------------------------------------------
# cli-mix

# argv, exit code and sha256 of stdout for the shipped instances
CLI_FIXED = (
    ("verify instances/fixd.json", 0,
     "c7b5f189ef4e5bf76c8b284bcffe7cb82ad3b7e6c3b47b86f2136e454d1172d1"),
    ("verify instances/extension_total.json", 0,
     "7a8971357f01f783973539d5a68cfecde9ab39cab1c833eeaa821df1fec6e905"),
    ("verify instances/deform_d_scaling.json", 0,
     "adad4cc6595d5ac4dcc87a5e3f8c0ba556042d49f7c115217ad0500119e1a228"),
    ("cohomology instances/fixd.json --degree 2", 0,
     "c9bf5d363ddb9843a2350d2e7a6beab92942a110cb24864fc5b7b73acafde0b5"),
    ("cohomology instances/fixd.json --degree 3", 0,
     "f27488a40d1d40303cd412754681a465e5375d2f743251717e89a56cd8e4f2b1"),
    ("complex-check instances/fixd.json --max-degree 3", 0,
     "c3e298f28f3abd2c17141b36396e7160435b2d7cd9d3e724b665b206aab7fcba"),
    ("deform-check instances/deform_d_scaling.json", 0,
     "d4350c59da019a518853dd5e6690e9e5a1425bf900a5dabafbb83667f1cf3ed1"),
    ("infinitesimal instances/deform_d_scaling.json", 0,
     "466316995048b94d6d285996c6b61378a2341989ced5b73a545069bf654bb9fb"),
    ("trivialize instances/deform_rigid_f5.json", 0,
     "1156952b27ff2f5381e13ef4aed509033479b9384490668c7bd545c1349ce643"),
    ("extend build instances/extension_build.json", 0,
     "63c71a8bbdcb53fa6977cc828bb50f6baa22f1f504179ce9e1e8f32fe27f9d80"),
    ("extend extract instances/extension_total.json", 0,
     "84b773851e03185689b044f832d1ac72d1d53ee8f17e6715ca36e144483f83ab"),
    ("extend classify instances/fixd.json", 0,
     "01d47497c58589687d429400cfb9c0192547c323f00bdf1c2c5f0f44361780ed"),
)

GEN_DIR = Path("perfbench") / "out" / "inputs"
GEN_FILES = {"sum7": GEN_DIR / "sum7_q.json", "triv": GEN_DIR / "trivial_f5.json",
             "zero3": GEN_DIR / "zero3_f5.json"}


def _write_instance(path: Path, inst):
    Sz = _mod("serialize")
    path.write_text(Sz.dumps_canonical(Sz.instance_to_json(inst)), encoding="utf-8")


def _signed_permutation(rng, F, n):
    perm = list(range(n))
    rng.shuffle(perm)
    rows = [[F.zero] * n for _ in range(n)]
    for i, j in enumerate(perm):
        rows[i][j] = F.one if rng.random() < 0.5 else F.neg(F.one)
    return _mod("linalg").Matrix.from_rows(F, rows)


def make_cli_inputs(seed):
    """Write the generated instance files named in GEN_FILES."""
    fields, S, Cn, L = _mod("fields"), _mod("structures"), _mod("constructions"), _mod("linalg")
    Sz, Fz = _mod("serialize"), _mod("fuzzing")
    Q, F5 = fields.QQ, fields.Field(5)
    rng = random.Random(seed)
    GEN_DIR.mkdir(parents=True, exist_ok=True)
    # a = 7 over Q: dual + dual + ut in a seeded order and signed-permuted basis
    parts = [S.dual_pair(Q), S.dual_pair(Q), S.upper_triangular_pair(Q, Q.one)]
    rng.shuffle(parts)
    big = Cn.direct_sum(Cn.direct_sum(parts[0], parts[1]), parts[2])
    big = Fz.conjugate_pair(big, _signed_permutation(rng, Q, big.dim))
    # zero pair on F_5 with a zero one-dimensional module: H^2 = PC^2 has dim 3
    z1 = S.zero_pair(F5, 1)
    triv = S.Bimodule(1, L.MultiTensor.zeros(F5, (1, 1), 1), L.MultiTensor.zeros(F5, (1, 1), 1),
                      L.Matrix.zeros(F5, 1, 1), L.Matrix.zeros(F5, 1, 1))
    _write_instance(GEN_FILES["sum7"], Sz.Instance(big))
    _write_instance(GEN_FILES["triv"], Sz.Instance(z1, triv))
    _write_instance(GEN_FILES["zero3"], Sz.Instance(S.zero_pair(F5, 3)))


def _expect_json(check):
    """Check an (exit code, stdout) answer whose stdout is a JSON report."""
    def run(answer):
        rc, out = answer
        if rc != 0:
            return "exit code %d, expected 0" % rc
        try:
            doc = json.loads(out)
        except ValueError as e:
            return "stdout is not JSON: %s" % e
        return check(doc)
    return run


def _check_verify(doc):
    if not (doc.get("ok") is True and all(c.get("ok") for c in doc.get("checks", []))):
        return "verify reported a failed check"


def _check_classify(doc):
    reps = doc.get("representatives", [])
    if (doc.get("dim_h2"), doc.get("count"), doc.get("complete")) != (3, 125, True):
        return "classify gave dim_h2=%r count=%r" % (doc.get("dim_h2"), doc.get("count"))
    if len({json.dumps(r, sort_keys=True) for r in reps}) != 125:
        return "classify did not list 125 distinct classes"


def _check_zero3(doc):
    if (doc.get("dim_cocycles"), doc.get("dim_coboundaries"), doc.get("dim_h")) != (45, 0, 45) \
            or len(doc.get("representatives", [])) != 45:
        return "cohomology of the zero algebra is not 45-dimensional"


def _check_fuzz(count, seed):
    def check(doc):
        if not (doc.get("all_ok") is True and doc.get("seed") == seed
                and len(doc.get("instances", [])) == count):
            return "fuzz did not report %d valid instances" % count
    return check


FUZZ_COUNT = 10
# fuzz draws its instances from this fixed seed, not from --seed: over ten
# seeds the fuzz call took from 0.12 s to 0.30 s, because the instances drawn
# differ in the work they need, which alone spread cli-mix's wall_s by 5 %.
FUZZ_SEED = 0


def cli_jobs():
    """[(argv, check of (exit code, stdout bytes))]."""
    jobs = []
    for line, rc, digest in CLI_FIXED:
        def check(answer, rc=rc, digest=digest):
            got_rc, out = answer
            if got_rc != rc:
                return "exit code %d, expected %d" % (got_rc, rc)
            if hashlib.sha256(out).hexdigest() != digest:
                return "stdout differs from the recorded output"
        jobs.append((line.split(), check))
    paths = {k: str(p) for k, p in GEN_FILES.items()}
    jobs += [
        (["verify", paths["sum7"]], _expect_json(_check_verify)),
        (["extend", "classify", paths["triv"]], _expect_json(_check_classify)),
        (["cohomology", paths["zero3"], "--degree", "2"], _expect_json(_check_zero3)),
        (["fuzz", "--field", "Fp:5", "--dim", "2", "--count", str(FUZZ_COUNT), "--seed", str(FUZZ_SEED)],
         _expect_json(_check_fuzz(FUZZ_COUNT, FUZZ_SEED))),
    ]
    return jobs


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


CHILD_TIMEOUT_S = 60


class CliMix:
    """cli-mix: one child process per call, or in-process ``cli.main`` when traced."""

    def __init__(self, src: Path):
        self.env = child_env(src)
        self.in_process = False

    @property
    def spawns(self) -> bool:
        return not self.in_process

    def setup(self, seed):
        make_cli_inputs(seed)
        # one child after the files are written, so the first job finds caches warm
        subprocess.run([sys.executable, "-c", "import mrbder.cli"], env=self.env,
                       check=True, timeout=CHILD_TIMEOUT_S, capture_output=True)

    def jobs(self, seed):
        out = []
        for argv, check in cli_jobs():
            run = self._in_process(argv) if self.in_process else self._child(argv)
            out.append(Job(" ".join(argv), [("", run)],
                           lambda answers, check=check: [m] if (m := check(answers[0])) else [],
                           spawns=self.spawns))
        return out

    def _child(self, argv):
        def run():
            p = subprocess.run([sys.executable, "-m", "mrbder", *argv], env=self.env,
                               stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                               timeout=CHILD_TIMEOUT_S)
            return p.returncode, p.stdout
        return run

    def _in_process(self, argv):
        def run():
            out = io.StringIO()
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                try:
                    rc = _mod("cli").main(argv)
                except SystemExit as e:
                    rc = e.code if isinstance(e.code, int) else 2
            return rc, out.getvalue().encode("utf-8")
        return run


def make(name: str, src: Path):
    if name == "cli-mix":
        return CliMix(src)
    return Ladder(complexes_sparse if name == "ladder-sparse" else complexes_dense)
