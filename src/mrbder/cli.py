"""Command-line interface.

All subcommands read a JSON instance file (except ``fuzz``) and write one
deterministic JSON report to stdout: sorted keys, no timestamps, stable
ordering, so identical inputs give byte-identical output.

Each command maps the parsed arguments to (report, ok) and checks the range
of its options before ``_load`` reads its file, so usage errors are reported
before any verification.  ``main`` is the one exit path: it emits the report,
or the failed-check report of a refused file, and sets the exit code.  It is
the in-process API; ``entry`` is for a process only (``python -m mrbder``, the
``mrbder`` script).

Exit codes: 0 = success (including negative but well-posed answers such as
"not trivializable"); 1 = a verification or property check failed; 2 = usage,
parse, or capacity errors; 3 = an internal error: a result failed the
engine's own consistency check, the report could not be written, or an
unexpected exception escaped.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys

from .fields import Field, ParseError
from .structures import (CheckReport, InternalError, InvalidStructure, check_bimodule,
                         adjoint_bimodule, verify_pair)
from .cohomology import (PairSpace, check_budget, cohomology, differential_matrix, pair_delta,
                         primitive)
from .deformation import check_deformation, check_max_order, infinitesimal, trivialize
from .extension import (build_extension, check_extension, classify, derive_base,
                        extract_cocycle)
from .fuzzing import check_instance, random_instances
from .linalg import MAX_ENTRIES
from .serialize import (Instance, bimodule_to_json, cocycle_to_json,
                        dumps_canonical, load_instance_file, matrix_to_json,
                        pair_to_json)

USAGE_EXIT = 2
CHECK_FAILED_EXIT = 1
INTERNAL_EXIT = 3
# argparse wraps a generated usage line differently across Python versions
USAGE = ("%(prog)s [-h] [--max-entries N]\n              {verify,cohomology,complex-check,"
         "deform-check,infinitesimal,trivialize,extend,fuzz}\n              ...")


def _report_entry(name: str, report: CheckReport) -> dict:
    """A check's entry in a report: a failed one gives its first failure."""
    entry = {"check": name, "ok": report.ok}
    if not report.ok:
        f = report.first
        entry["failures"] = len(report.failures)
        entry["witness"] = {"identity": f.identity, "args": list(f.args),
                            "residual": [str(x) for x in f.residual]}
    return entry


def _emit(obj) -> None:
    try:
        sys.stdout.write(dumps_canonical(obj))
        sys.stdout.flush()
    except OSError:
        # fd 1 to devnull, so the interpreter's last flush cannot fail again (exit 120)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise


def _active_bimodule(inst: Instance):
    return inst.bim if inst.bim is not None else adjoint_bimodule(inst.pair)


def _verification(inst: Instance, command: str, max_entries: int) -> dict:
    """The report of ``command`` on the checks of every block present."""
    checks = [_report_entry("pair", verify_pair(inst.pair))]
    if inst.bim is not None:
        checks.append(_report_entry("bimodule", check_bimodule(inst.pair, inst.bim)))
    if inst.deformation is not None:
        checks.append(_report_entry("deformation", check_deformation(inst.deformation)))
    if inst.extension is not None:
        base, fiber = derive_base(inst.extension)
        checks.append(_report_entry("extension", check_extension(base, fiber, inst.extension)))
    if inst.cocycle is not None:
        closed = pair_delta(inst.pair, _active_bimodule(inst), inst.cocycle,
                            max_entries=max_entries).is_zero()
        checks.append({"check": "cocycle-closed", "ok": closed})
    return {"command": command, "ok": all(c["ok"] for c in checks), "checks": checks}


class _Refusal(Exception):
    """A block of the instance failed verification; args[0] is the report."""


def _load(args, command: str, needs: str | None = None, verify: bool = True) -> Instance:
    """The instance of ``args.file`` for ``command``.  A ParseError when it
    lacks the block ``needs``; with ``verify``, a :class:`_Refusal` carrying
    the failed-check report when any block fails verification."""
    inst = load_instance_file(args.file, max_entries=args.max_entries)
    if needs is not None and getattr(inst, needs) is None:
        raise ParseError("%s needs %s %s block"
                         % (command, "an" if needs[0] in "aeiou" else "a", needs))
    if verify:
        report = _verification(inst, command.replace(" ", "-"), args.max_entries)
        if not report["ok"]:
            raise _Refusal(report)
    return inst


def cmd_verify(args) -> tuple:
    report = _verification(_load(args, "verify", verify=False), "verify", args.max_entries)
    return report, report["ok"]


def cmd_cohomology(args) -> tuple:
    if args.degree < 1:
        raise ParseError("--degree must be at least 1")
    inst = _load(args, "cohomology")
    bim = _active_bimodule(inst)
    res = cohomology(inst.pair, bim, args.degree, max_entries=args.max_entries)
    space = PairSpace(inst.pair.field, inst.pair.dim, bim.dim_m, res.degree)
    return {
        "command": "cohomology",
        "degree": res.degree,
        "dim_cocycles": res.dim_cocycles,
        "dim_coboundaries": res.dim_coboundaries,
        "dim_h": res.dim_h,
        "representatives": [cocycle_to_json(r) if res.degree == 2 else _flat_cochain(space, r)
                            for r in res.representatives],
    }, True


def _flat_cochain(space, c) -> dict:
    # every entry that is the field's zero object shares one string
    F = space.field
    zero, to_str = F.zero, F.to_str
    z = to_str(zero)
    return {"degree": c.degree, "flat": [z if x is zero else to_str(x) for x in space.flatten(c)]}


def cmd_complex_check(args) -> tuple:
    if args.max_degree < 2:
        raise ParseError("--max-degree must be at least 2")
    inst = _load(args, "complex-check")
    bim = _active_bimodule(inst)
    degrees = range(1, args.max_degree + 1)
    check_budget(inst.pair, bim, degrees, "pair", max_entries=args.max_entries)
    mats = {n: differential_matrix(inst.pair, bim, n, "pair", max_entries=args.max_entries)
            for n in degrees}
    products = [{"degrees": [n + 1, n], "zero": mats[n + 1].product_is_zero(mats[n])}
                for n in range(1, args.max_degree)]
    ok = all(p["zero"] for p in products)
    return {"command": "complex-check", "ok": ok, "max_degree": args.max_degree,
            "products": products}, ok


def cmd_deform_check(args) -> tuple:
    inst = _load(args, "deform-check", needs="deformation", verify=False)
    base_rep = verify_pair(inst.pair)
    rep = check_deformation(inst.deformation)
    checks = [_report_entry("pair", base_rep), _report_entry("deformation", rep)]
    ok = base_rep.ok and rep.ok
    return {"command": "deform-check", "ok": ok, "order": inst.deformation.order,
            "checks": checks}, ok


def cmd_infinitesimal(args) -> tuple:
    inst = _load(args, "infinitesimal", needs="deformation")
    bim = adjoint_bimodule(inst.pair)
    c = infinitesimal(inst.deformation)
    closed = pair_delta(inst.pair, bim, c, max_entries=args.max_entries).is_zero()
    h = primitive(inst.pair, bim, c, max_entries=args.max_entries) if closed else None
    return {
        "command": "infinitesimal",
        "cocycle": cocycle_to_json(c),
        "closed": closed,
        "exact": h is not None,
        "primitive": matrix_to_json(h) if h is not None else None,
    }, True


def cmd_trivialize(args) -> tuple:
    check_max_order(args.max_order)
    inst = _load(args, "trivialize", needs="deformation")
    gauge = trivialize(inst.deformation, args.max_order, max_entries=args.max_entries)
    return {
        "command": "trivialize",
        "order": inst.deformation.order,
        "max_order": args.max_order,
        "trivializable": gauge is not None,
        "gauge": [matrix_to_json(m) for m in gauge.terms] if gauge is not None else None,
    }, True


def cmd_extend(args) -> tuple:
    if args.action == "extract":
        inst = _load(args, "extend extract", needs="extension", verify=False)
        base, fiber = derive_base(inst.extension)
        rep = check_extension(base, fiber, inst.extension)
        if not rep.ok:
            return {"command": "extend-extract", "ok": False,
                    "checks": [_report_entry("extension", rep)]}, False
        c = extract_cocycle(base, fiber, inst.extension)
        return {**pair_to_json(base), "bimodule": bimodule_to_json(fiber),
                "cocycle": cocycle_to_json(c)}, True
    inst = _load(args, "extend " + args.action, needs="cocycle" if args.action == "build" else None)
    bim = _active_bimodule(inst)
    if args.action == "build":
        ext = build_extension(inst.pair, bim, inst.cocycle, max_entries=args.max_entries)
        return {**pair_to_json(ext.total),
                "extension": {"i": matrix_to_json(ext.i), "p": matrix_to_json(ext.p)}}, True
    cls = classify(inst.pair, bim, max_entries=args.max_entries)
    return {
        "command": "extend-classify",
        "dim_h2": cls.dim_h2,
        "count": cls.count,
        "complete": cls.complete,
        "representatives": [cocycle_to_json(r) for r in cls.representatives],
    }, True


def cmd_fuzz(args) -> tuple:
    field = Field.from_name(args.field)
    if args.count < 1:
        raise ParseError("--count must be positive")
    insts = random_instances(field, args.dim, args.count, args.seed)
    rows = []
    for inst in insts:
        valid = check_instance(inst)
        d1, d2 = (differential_matrix(inst.pair, inst.bim, n, "pair", max_entries=args.max_entries)
                  for n in (1, 2))
        complex_ok = d2.product_is_zero(d1)
        rows.append({"label": inst.label, "dim": inst.pair.dim,
                     "dim_m": inst.bim.dim_m, "valid": valid,
                     "complex_ok": complex_ok})
    all_ok = all(r["valid"] and r["complex_ok"] for r in rows)
    return {"command": "fuzz", "field": field.name, "dim": args.dim,
            "count": args.count, "seed": args.seed, "all_ok": all_ok,
            "instances": rows}, all_ok


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="mrbder", usage=USAGE,
        description="exact verification, cohomology, deformations, and "
                    "extensions for algebra-operator-derivation triples")
    top.add_argument("--max-entries", type=int, default=MAX_ENTRIES, metavar="N",
                     help="entry budget of each tensor and each build of D_n (default 10^6)")
    sub = top.add_subparsers(dest="command", required=True, prog="mrbder")

    def command(name: str, fn, help: str, file: bool = True) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.set_defaults(fn=fn)
        if file:
            p.add_argument("file")
        return p

    command("verify", cmd_verify, "check every axiom of the blocks present")
    command("cohomology", cmd_cohomology, "cohomology of the pair complex").add_argument(
        "--degree", type=int, required=True)
    command("complex-check", cmd_complex_check, "verify the differential squares to zero"
            ).add_argument("--max-degree", type=int, default=3)
    command("deform-check", cmd_deform_check, "verify a truncated deformation")
    command("infinitesimal", cmd_infinitesimal, "first-order class of a deformation")
    command("trivialize", cmd_trivialize, "gauge a deformation to zero if possible").add_argument(
        "--max-order", type=int, default=None)
    p = command("extend", cmd_extend, "abelian extension workflows", file=False)
    p.add_argument("action", choices=["build", "extract", "classify"])
    p.add_argument("file")
    p = command("fuzz", cmd_fuzz, "generate and verify random instances", file=False)
    p.add_argument("--field", required=True, help='"Q" or "fp:<prime>"')
    p.add_argument("--dim", type=int, default=2, choices=[1, 2])
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.max_entries < 1:
            raise ParseError("cap must be positive")
        try:
            report, ok = args.fn(args)
        except _Refusal as refusal:
            report, ok = refusal.args[0], False
        _emit(report)
        return 0 if ok else CHECK_FAILED_EXIT
    except ValueError as e:
        if isinstance(e, InvalidStructure):
            sys.stderr.write("invalid structure: %s\n" % e)
            return CHECK_FAILED_EXIT
        sys.stderr.write("error: %s\n" % e)
        return USAGE_EXIT
    except Exception as e:
        what = str(e) if isinstance(e, InternalError) else "%s: %s" % (type(e).__name__, e)
        sys.stderr.write("error: internal: %s\n" % " ".join(what.split()))
        return INTERNAL_EXIT


def entry() -> int:
    """``main()``, then a freeze of the collector: its shutdown passes skip every object made."""
    try:
        return main()
    finally:
        gc.freeze()
