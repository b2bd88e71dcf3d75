"""``tools/output_digest.py``: a smoke test on one instance, and the full
grid against the committed ``tests/output_digest.golden``.

The golden file holds the digest of every call of the grid, so any change to
the bytes, the exit code or the grid itself fails here.  When a change of
output is intended, regenerate it from the root of the checkout with

    python3 tools/output_digest.py --src . > tests/output_digest.golden

and say in the change why the bytes moved.

The grid must give the same bytes under every supported Python: the
versions in ``PYTHONS`` are run from pyenv's ``versions`` directory when
they are installed there, and skipped, with the reason, when they are not.
"""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from mrbder.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "output_digest.golden"
LINE = re.compile(r"^([0-9a-f]{64}) ([0-9a-f]{64}) (-?\d+) (.+)$")


def test_digest_of_one_instance(capsys, monkeypatch):
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "output_digest.py"), "--src",
                           str(ROOT), "--no-fuzz", "instances/fixd.json"],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0 and done.stderr == ""
    lines = [LINE.match(x) for x in done.stdout.splitlines()]
    assert len(lines) == 52 and all(lines)
    # thirteen forms at four caps, the instance last in every argv
    assert {m.group(4).split()[-1] for m in lines} == {"instances/fixd.json"}
    assert [m.group(4) for m in lines[:3]] == ["verify instances/fixd.json",
                                               "cohomology --degree 1 instances/fixd.json",
                                               "cohomology --degree 2 instances/fixd.json"]
    # a line holds the hashes of what the call writes
    monkeypatch.chdir(ROOT)
    code = main(["verify", "instances/fixd.json"])
    out, err = capsys.readouterr()
    assert lines[0].groups()[:3] == (hashlib.sha256(out.encode()).hexdigest(),
                                     hashlib.sha256(err.encode()).hexdigest(), str(code))


def test_full_grid_matches_the_golden_digest():
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "output_digest.py"), "--src",
                           str(ROOT)], capture_output=True, text=True, timeout=600)
    assert done.returncode == 0 and done.stderr == ""
    got, want = done.stdout.splitlines(), GOLDEN.read_text().splitlines()
    # line by line: the argv of every call whose digest moved
    moved = [w.split(" ", 3)[3] for g, w in zip(got, want) if g != w]
    assert moved == []
    assert len(got) == len(want)
    # the grid reaches every exit code of a check: passed, failed and refused
    assert {w.split(" ")[2] for w in want} == {"0", "1", "2"}


PYTHONS = ("3.10.13", "3.12.1", "3.13.0")
PYENV_VERSIONS = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv")) / "versions"


@pytest.fixture(scope="module")
def grids_by_python():
    """{version: (stdout, stderr, exit code)} of the full grid under each
    installed interpreter of ``PYTHONS``, the runs made side by side."""
    runs = {v: subprocess.Popen([str(PYENV_VERSIONS / v / "bin" / "python3"),
                                 str(ROOT / "tools" / "output_digest.py"), "--src", str(ROOT)],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            for v in PYTHONS if (PYENV_VERSIONS / v / "bin" / "python3").exists()}
    return {v: (*p.communicate(timeout=600), p.returncode) for v, p in runs.items()}


@pytest.mark.parametrize("version", PYTHONS)
def test_full_grid_matches_the_golden_under_every_python(grids_by_python, version):
    if version not in grids_by_python:
        pytest.skip("Python %s is not installed in %s" % (version, PYENV_VERSIONS))
    out, err, code = grids_by_python[version]
    assert (code, err) == (0, "")
    moved = [w.split(" ", 3)[3] for g, w in zip(out.splitlines(), GOLDEN.read_text().splitlines())
             if g != w]
    assert moved == []
    assert out == GOLDEN.read_text()
