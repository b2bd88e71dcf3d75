"""Digest of the CLI's output over a fixed grid of calls, one line per call:

    sha256(stdout) sha256(stderr) exit argv

Every call runs in this one process, through ``mrbder.cli.main`` of the
package under ``DIR/src``, with ``DIR`` as the working directory, so the
argv and any path in a message read the same for every checkout.  Two
checkouts are compared with ``diff``:

    python3 tools/output_digest.py --src /path/to/old > old.txt
    python3 tools/output_digest.py --src . > new.txt
    diff old.txt new.txt

The grid: the thirteen command forms of ``FORMS`` on each instance file
(``instances/*.json`` of DIR unless files are named), with the default
entry cap and with ``--max-entries`` 8, 16 and 64; then ``fuzz`` over the
fields of ``FUZZ_FIELDS`` at dims 1 and 2, seeds 0-5 (``--no-fuzz`` leaves
these out); then, when no files are named, each malformed call of ``USAGE``
once, so the messages and exit codes of refused calls are pinned too, and
each call of ``HIGH_DEGREE``, which pins the bytes at a degree where the
operator map runs over nineteen slots.
"""

import argparse
import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path

FORMS = (
    ["verify"],
    ["cohomology", "--degree", "1"],
    ["cohomology", "--degree", "2"],
    ["cohomology", "--degree", "3"],
    ["cohomology", "--degree", "4"],
    ["complex-check"],
    ["complex-check", "--max-degree", "4"],
    ["deform-check"],
    ["infinitesimal"],
    ["trivialize"],
    ["extend", "build"],
    ["extend", "extract"],
    ["extend", "classify"],
)
CAPS = ([], ["--max-entries", "8"], ["--max-entries", "16"], ["--max-entries", "64"])
FUZZ_FIELDS = ("Q", "Fp:2", "Fp:3", "Fp:5", "Fp:7")
FUZZ_COUNT = 10
# calls the CLI must refuse with exit 2: no subcommand, a missing argument and
# an unknown action (argparse), a bad cap, and fuzz requests out of range; and
# degrees on a file that fails verification: out of range, refused before the
# file is read (exit 2), or in range, refused after it (exit 1)
USAGE = (
    ["--max-entries", "64"],
    ["cohomology", "instances/fixd.json"],
    ["extend", "merge", "instances/fixd.json"],
    ["--max-entries", "0", "verify", "instances/fixd.json"],
    ["cohomology", "--degree", "9", "instances/invalid_pair.json"],
    ["complex-check", "--max-degree", "9", "instances/invalid_pair.json"],
    ["fuzz", "--field", "Fp:11", "--dim", "2", "--count", "1"],
    ["fuzz", "--field", "Q", "--count", "0"],
    ["cohomology", "--degree", "0", "instances/invalid_pair.json"],
    ["complex-check", "--max-degree", "1", "instances/invalid_pair.json"],
)
# a one-dimensional algebra far past the degrees of FORMS
HIGH_DEGREE = (
    ["cohomology", "--degree", "19", "instances/fix0.json"],
    ["complex-check", "--max-degree", "19", "instances/fix0.json"],
)


def grid(instances: list, fuzz: bool, usage: bool):
    """The argv of every call, in order."""
    for path in instances:
        for cap in CAPS:
            for form in FORMS:
                yield cap + form + [path]
    if fuzz:
        for field in FUZZ_FIELDS:
            for dim in ("1", "2"):
                for seed in range(6):
                    yield ["fuzz", "--field", field, "--dim", dim,
                           "--count", str(FUZZ_COUNT), "--seed", str(seed)]
    if usage:
        yield from USAGE
        yield from HIGH_DEGREE


def run(main, argv: list) -> str:
    """The digest line of one call of ``main``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:          # argparse refusing the argv
            code = e.code
    sha = [hashlib.sha256(s.getvalue().encode()).hexdigest() for s in (out, err)]
    return "%s %s %s %s" % (sha[0], sha[1], code, " ".join(argv))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", required=True, metavar="DIR", help="the checkout to run")
    ap.add_argument("--no-fuzz", action="store_true", help="leave out the fuzz calls")
    ap.add_argument("instances", nargs="*", help="instance files, relative to DIR")
    args = ap.parse_args(argv)
    root = Path(args.src).resolve()
    sys.path.insert(0, str(root / "src"))
    from mrbder import cli
    if Path(cli.__file__).resolve().parents[2] != root:
        sys.exit("mrbder was imported from %s, not from %s" % (cli.__file__, root))
    os.chdir(root)
    instances = args.instances or sorted(str(p) for p in Path("instances").glob("*.json"))
    for call in grid(instances, not args.no_fuzz, not args.instances):
        print(run(cli.main, call), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
