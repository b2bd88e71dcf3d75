"""Command-line interface.

All subcommands read a JSON instance file (except ``fuzz``) and write one
deterministic JSON report to stdout: sorted keys, no timestamps, stable
ordering, so identical inputs give byte-identical output.

Exit codes: 0 = success (including negative but well-posed answers such as
"not trivializable"); 1 = a verification or property check failed; 2 = usage,
parse, or capacity errors.
"""

from __future__ import annotations

import argparse
import sys

from .fields import Field, ParseError
from .linalg import EntryCapExceeded, set_max_tensor_entries
from .structures import (CheckReport, InvalidStructure, check_bimodule,
                         adjoint_bimodule, verify_pair)
from .cohomology import (DegreeCapExceeded, MAX_MATRIX_DEGREE, PairSpace,
                         cohomology, differential_matrix, pair_delta, primitive)
from .deformation import check_deformation, infinitesimal, trivialize
from .extension import (build_extension, check_extension, classify, derive_base,
                        extract_cocycle)
from .fuzzing import check_instance, random_instances
from .serialize import (Instance, bimodule_to_json, cocycle_to_json,
                        dumps_canonical, instance_to_json, load_instance_file,
                        matrix_to_json, pair_to_json)

USAGE_EXIT = 2
CHECK_FAILED_EXIT = 1


def _witness(report: CheckReport):
    f = report.first
    if f is None:
        return None
    return {"identity": f.identity, "args": list(f.args),
            "residual": [str(x) for x in f.residual]}


def _report_entry(name: str, report: CheckReport) -> dict:
    entry = {"check": name, "ok": report.ok}
    if not report.ok:
        entry["failures"] = len(report.failures)
        entry["witness"] = _witness(report)
    return entry


def _emit(obj) -> None:
    sys.stdout.write(dumps_canonical(obj))


def _active_bimodule(inst: Instance):
    return inst.bim if inst.bim is not None else adjoint_bimodule(inst.pair)


def _verify_instance(inst: Instance) -> list:
    checks = [_report_entry("pair", verify_pair(inst.pair))]
    if inst.bim is not None:
        checks.append(_report_entry("bimodule", check_bimodule(inst.pair, inst.bim)))
    if inst.deformation is not None:
        checks.append(_report_entry("deformation", check_deformation(inst.deformation)))
    if inst.extension is not None:
        base, fiber = derive_base(inst.extension)
        checks.append(_report_entry("extension", check_extension(base, fiber, inst.extension)))
    if inst.cocycle is not None:
        bim = _active_bimodule(inst)
        closed = pair_delta(inst.pair, bim, inst.cocycle).is_zero()
        entry = {"check": "cocycle-closed", "ok": closed}
        checks.append(entry)
    return checks


def _require_valid(inst: Instance, command: str) -> int | None:
    """Emit a failure report and return an exit code unless the instance verifies."""
    checks = _verify_instance(inst)
    if all(c["ok"] for c in checks):
        return None
    _emit({"command": command, "ok": False, "checks": checks})
    return CHECK_FAILED_EXIT


def cmd_verify(args) -> int:
    inst = load_instance_file(args.file)
    checks = _verify_instance(inst)
    ok = all(c["ok"] for c in checks)
    _emit({"command": "verify", "ok": ok, "checks": checks})
    return 0 if ok else CHECK_FAILED_EXIT


def cmd_cohomology(args) -> int:
    inst = load_instance_file(args.file)
    bad = _require_valid(inst, "cohomology")
    if bad is not None:
        return bad
    bim = _active_bimodule(inst)
    res = cohomology(inst.pair, bim, args.degree)
    _emit({
        "command": "cohomology",
        "degree": res.degree,
        "dim_cocycles": res.dim_cocycles,
        "dim_coboundaries": res.dim_coboundaries,
        "dim_h": res.dim_h,
        "representatives": [cocycle_to_json(r) if res.degree == 2 else _flat_cochain(inst, r)
                            for r in res.representatives],
    })
    return 0


def _flat_cochain(inst: Instance, c) -> dict:
    bim = _active_bimodule(inst)
    F = inst.pair.field
    space = PairSpace(F, inst.pair.dim, bim.dim_m, c.degree)
    return {"degree": c.degree, "flat": [F.to_str(x) for x in space.flatten(c)]}


def cmd_complex_check(args) -> int:
    inst = load_instance_file(args.file)
    bad = _require_valid(inst, "complex-check")
    if bad is not None:
        return bad
    if not (2 <= args.max_degree <= MAX_MATRIX_DEGREE):
        raise DegreeCapExceeded("--max-degree must be in 2..%d" % MAX_MATRIX_DEGREE)
    bim = _active_bimodule(inst)
    mats = {n: differential_matrix(inst.pair, bim, n, "pair")
            for n in range(1, args.max_degree + 1)}
    products = []
    ok = True
    for n in range(1, args.max_degree):
        zero = (mats[n + 1] * mats[n]).is_zero()
        ok = ok and zero
        products.append({"degrees": [n + 1, n], "zero": zero})
    _emit({"command": "complex-check", "ok": ok, "max_degree": args.max_degree,
           "products": products})
    return 0 if ok else CHECK_FAILED_EXIT


def cmd_deform_check(args) -> int:
    inst = load_instance_file(args.file)
    if inst.deformation is None:
        raise ParseError("deform-check needs a deformation block")
    base_rep = verify_pair(inst.pair)
    rep = check_deformation(inst.deformation)
    checks = [_report_entry("pair", base_rep), _report_entry("deformation", rep)]
    ok = base_rep.ok and rep.ok
    _emit({"command": "deform-check", "ok": ok, "order": inst.deformation.order,
           "checks": checks})
    return 0 if ok else CHECK_FAILED_EXIT


def cmd_infinitesimal(args) -> int:
    inst = load_instance_file(args.file)
    if inst.deformation is None:
        raise ParseError("infinitesimal needs a deformation block")
    bad = _require_valid(inst, "infinitesimal")
    if bad is not None:
        return bad
    bim = adjoint_bimodule(inst.pair)
    c = infinitesimal(inst.deformation)
    closed = pair_delta(inst.pair, bim, c).is_zero()
    h = primitive(inst.pair, bim, c) if closed else None
    _emit({
        "command": "infinitesimal",
        "cocycle": cocycle_to_json(c),
        "closed": closed,
        "exact": h is not None,
        "primitive": matrix_to_json(h) if h is not None else None,
    })
    return 0


def cmd_trivialize(args) -> int:
    inst = load_instance_file(args.file)
    if inst.deformation is None:
        raise ParseError("trivialize needs a deformation block")
    bad = _require_valid(inst, "trivialize")
    if bad is not None:
        return bad
    gauge = trivialize(inst.deformation, args.max_order)
    _emit({
        "command": "trivialize",
        "order": inst.deformation.order,
        "max_order": args.max_order,
        "trivializable": gauge is not None,
        "gauge": [matrix_to_json(m) for m in gauge.terms] if gauge is not None else None,
    })
    return 0


def cmd_extend(args) -> int:
    inst = load_instance_file(args.file)
    if args.action == "build":
        if inst.cocycle is None:
            raise ParseError("extend build needs a cocycle block")
        bad = _require_valid(inst, "extend-build")
        if bad is not None:
            return bad
        bim = _active_bimodule(inst)
        ext = build_extension(inst.pair, bim, inst.cocycle)
        out = pair_to_json(ext.total)
        out["extension"] = {"i": matrix_to_json(ext.i), "p": matrix_to_json(ext.p)}
        _emit(out)
        return 0
    if args.action == "extract":
        if inst.extension is None:
            raise ParseError("extend extract needs an extension block")
        base, fiber = derive_base(inst.extension)
        rep = check_extension(base, fiber, inst.extension)
        if not rep.ok:
            _emit({"command": "extend-extract", "ok": False,
                   "checks": [_report_entry("extension", rep)]})
            return CHECK_FAILED_EXIT
        c = extract_cocycle(base, fiber, inst.extension)
        out = pair_to_json(base)
        out["bimodule"] = bimodule_to_json(fiber)
        out["cocycle"] = cocycle_to_json(c)
        _emit(out)
        return 0
    # classify
    bad = _require_valid(inst, "extend-classify")
    if bad is not None:
        return bad
    bim = _active_bimodule(inst)
    cls = classify(inst.pair, bim)
    _emit({
        "command": "extend-classify",
        "dim_h2": cls.dim_h2,
        "count": cls.count,
        "complete": cls.complete,
        "representatives": [cocycle_to_json(r) for r in cls.representatives],
    })
    return 0


def cmd_fuzz(args) -> int:
    field = Field.from_name(args.field)
    if args.count < 1:
        raise ParseError("--count must be positive")
    insts = random_instances(field, args.dim, args.count, args.seed)
    rows = []
    all_ok = True
    for inst in insts:
        valid = check_instance(inst)
        d1 = differential_matrix(inst.pair, inst.bim, 1, "pair")
        d2 = differential_matrix(inst.pair, inst.bim, 2, "pair")
        complex_ok = (d2 * d1).is_zero()
        all_ok = all_ok and valid and complex_ok
        rows.append({"label": inst.label, "dim": inst.pair.dim,
                     "dim_m": inst.bim.dim_m, "valid": valid,
                     "complex_ok": complex_ok})
    _emit({"command": "fuzz", "field": field.name, "dim": args.dim,
           "count": args.count, "seed": args.seed, "all_ok": all_ok,
           "instances": rows})
    return 0 if all_ok else CHECK_FAILED_EXIT


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="mrbder",
        description="exact verification, cohomology, deformations, and "
                    "extensions for algebra-operator-derivation triples")
    top.add_argument("--max-entries", type=int, default=10 ** 6, metavar="N",
                     help="cap on tensor entries per object (default 10^6)")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check every axiom of the blocks present")
    p.add_argument("file")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("cohomology", help="cohomology of the pair complex")
    p.add_argument("file")
    p.add_argument("--degree", type=int, required=True)
    p.set_defaults(fn=cmd_cohomology)

    p = sub.add_parser("complex-check", help="verify the differential squares to zero")
    p.add_argument("file")
    p.add_argument("--max-degree", type=int, default=3)
    p.set_defaults(fn=cmd_complex_check)

    p = sub.add_parser("deform-check", help="verify a truncated deformation")
    p.add_argument("file")
    p.set_defaults(fn=cmd_deform_check)

    p = sub.add_parser("infinitesimal", help="first-order class of a deformation")
    p.add_argument("file")
    p.set_defaults(fn=cmd_infinitesimal)

    p = sub.add_parser("trivialize", help="gauge a deformation to zero if possible")
    p.add_argument("file")
    p.add_argument("--max-order", type=int, default=None)
    p.set_defaults(fn=cmd_trivialize)

    p = sub.add_parser("extend", help="abelian extension workflows")
    p.add_argument("action", choices=["build", "extract", "classify"])
    p.add_argument("file")
    p.set_defaults(fn=cmd_extend)

    p = sub.add_parser("fuzz", help="generate and verify random instances")
    p.add_argument("--field", required=True, help='"Q" or "fp:<prime>"')
    p.add_argument("--dim", type=int, default=2, choices=[1, 2])
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_fuzz)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    set_max_tensor_entries(args.max_entries)
    try:
        return args.fn(args)
    except (ParseError, DegreeCapExceeded, EntryCapExceeded, ValueError) as e:
        if isinstance(e, InvalidStructure):
            sys.stderr.write("invalid structure: %s\n" % e)
            return CHECK_FAILED_EXIT
        sys.stderr.write("error: %s\n" % e)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
