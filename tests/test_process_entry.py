"""The process entry ``cli.entry``, which ``python -m mrbder`` and the
``mrbder`` script run.

It calls ``gc.freeze()`` once ``main`` has returned or raised, so the
interpreter's shutdown collections skip what the call made; ``main`` itself,
the in-process API, never freezes.  A report that cannot be written exits 3
with one ``error: internal:`` line, whether stdout is buffered or not.
"""

import gc
import importlib
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from mrbder import cli

ROOT = Path(__file__).resolve().parents[1]
FIXD = "instances/fixd.json"
INVALID_PAIR = "instances/invalid_pair.json"


def child(*args, env=None, **kw):
    """``python *args`` in the root of the checkout, the package from ``src``."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, timeout=60, **kw)


def test_main_never_freezes(capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    before = gc.get_freeze_count()
    codes = [cli.main(["verify", FIXD]), cli.main(["verify", INVALID_PAIR]),
             cli.main(["cohomology", "--degree", "0", FIXD])]
    with pytest.raises(SystemExit):
        cli.main(["extend", "merge", FIXD])
    capsys.readouterr()
    assert codes == [0, cli.CHECK_FAILED_EXIT, cli.USAGE_EXIT]
    assert gc.get_freeze_count() == before


@pytest.mark.parametrize("argv, code", [(["verify", FIXD], 0), ([], cli.USAGE_EXIT)])
def test_entry_freezes_once_main_is_done(argv, code):
    # the counts after import and after the entry, on stderr; argparse's
    # usage exit leaves the entry as a SystemExit
    script = ("import gc, sys\n"
              "from mrbder import cli\n"
              "counts = [gc.get_freeze_count()]\n"
              "sys.argv[1:] = %r\n"
              "try:\n"
              "    code = cli.entry()\n"
              "except SystemExit as e:\n"
              "    code = e.code\n"
              "counts.append(gc.get_freeze_count())\n"
              "sys.stderr.write('\\n%%d %%d %%d' %% (code, *counts))\n" % (argv,))
    done = child("-c", script, capture_output=True, text=True)
    got, imported, after = map(int, done.stderr.split("\n")[-1].split())
    assert (done.returncode, got, imported) == (0, code, 0)
    assert after > 0


def test_the_script_runs_what_python_m_runs(monkeypatch):
    tomllib = pytest.importorskip("tomllib", reason="tomllib is new in Python 3.11")
    target = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]["mrbder"]
    module, _, name = target.partition(":")
    called = []
    monkeypatch.setattr(importlib.import_module(module), name, lambda: called.append(name) or 0)
    monkeypatch.delitem(sys.modules, "mrbder.__main__", raising=False)
    with pytest.raises(SystemExit) as done:
        runpy.run_module("mrbder", run_name="__main__")
    assert (done.value.code, called) == (0, [name])


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("argv", [
    ["verify", FIXD],                                        # fails at the flush
    ["fuzz", "--field", "Fp:2", "--dim", "1", "--count", "100"],  # 13 kB, fails in the write
])
def test_a_report_that_cannot_be_written_exits_3(argv, unbuffered):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        done = child("-m", "mrbder", *argv, env=env, stdout=full, stderr=subprocess.PIPE,
                     text=True)
    lines = done.stderr.splitlines()
    assert done.returncode == cli.INTERNAL_EXIT
    assert len(lines) == 1 and lines[0].startswith("error: internal: OSError")
    assert "Exception ignored" not in done.stderr
