"""Smoke test of ``tools/output_digest.py`` on one instance."""

import hashlib
import re
import subprocess
import sys
from pathlib import Path

from mrbder.cli import main

ROOT = Path(__file__).resolve().parents[1]
LINE = re.compile(r"^([0-9a-f]{64}) ([0-9a-f]{64}) (-?\d+) (.+)$")


def test_digest_of_one_instance(capsys, monkeypatch):
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "output_digest.py"), "--src",
                           str(ROOT), "--no-fuzz", "instances/fixd.json"],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0 and done.stderr == ""
    lines = [LINE.match(x) for x in done.stdout.splitlines()]
    assert len(lines) == 48 and all(lines)
    # twelve forms at four caps, the instance last in every argv
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
