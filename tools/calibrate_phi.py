"""Calibrate the even-subset coefficient convention of the operator map.

The odd-subset terms of phi are forced, but the even-subset terms admit a
small family of plausible readings: exponent |S|/2 + shift on (-kappa), an
overall sign, and optionally a factor of R_M.  Exactly one member of the
family can make phi a chain map

    phi . hochschild_delta = modified_delta . phi

and keep the pair differential squaring to zero.  This script tries all
twelve candidates against a panel of instances whose weights separate them
(kappa in {0, -1, -4} over Q plus a prime-field instance) and records the
outcome.  The family and the transcribed phi and pair maps the candidates
are built from live with the tests, in tests/oracles.py; the engine
hard-codes the winner.  Run from the repository root:

    python3 tools/calibrate_phi.py

It rewrites docs/phi_calibration.json and docs/phi_calibration.md and exits
nonzero unless the winner is unique, equals the shipped default, and gives
the engine's phi and pair matrices on the panel.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tests"))

from mrbder.fields import Field, QQ
from mrbder.structures import adjoint_bimodule, dual_algebra, dual_pair, scalar_pair
from mrbder.cohomology import differential_matrix
from mrbder.serialize import dumps_canonical
from oracles import DEFAULT_CONVENTION, cochain_map, convention_candidates, operator_matrix


def instance_panel():
    F5 = Field.prime(5)
    return [
        ("dual/Q (kappa=-1)", dual_pair(QQ)),
        ("scalar2/Q (kappa=-4)", scalar_pair(dual_algebra(QQ), QQ.parse(2))),
        ("scalar0/Q (kappa=0)", scalar_pair(dual_algebra(QQ), QQ.parse(0))),
        ("dual/F5 (kappa=4)", dual_pair(F5)),
    ]


def candidate_matrix(pair, degree, which, conv):
    """The matrix of the transcribed ``which`` map under convention ``conv``."""
    return operator_matrix(*cochain_map(pair, adjoint_bimodule(pair), degree, which, conv))


def chain_map_holds(pair, conv, degree):
    bim = adjoint_bimodule(pair)
    dh = differential_matrix(pair, bim, degree, "hochschild")
    dm = differential_matrix(pair, bim, degree, "modified")
    ph_n = candidate_matrix(pair, degree, "operator_map", conv)
    ph_n1 = candidate_matrix(pair, degree + 1, "operator_map", conv)
    return (ph_n1 * dh - dm * ph_n).is_zero()


def complex_holds(pair, conv, degree):
    a = candidate_matrix(pair, degree, "pair", conv)
    b = candidate_matrix(pair, degree + 1, "pair", conv)
    return (b * a).is_zero()


def engine_uses(pair, conv):
    """True when the engine's phi and pair matrices are those of ``conv``."""
    bim = adjoint_bimodule(pair)
    return all(differential_matrix(pair, bim, n, which).rows
               == candidate_matrix(pair, n, which, conv).rows
               for n in (1, 2, 3) for which in ("operator_map", "pair"))


def main():
    candidates = convention_candidates()
    panel = instance_panel()
    rows = []
    winners = []
    for conv in candidates:
        chain_ok = all(chain_map_holds(pair, conv, n)
                       for _, pair in panel for n in (1, 2))
        square_ok = all(complex_holds(pair, conv, n)
                        for _, pair in panel for n in (1, 2))
        rows.append({
            "even_shift": conv.even_shift,
            "even_sign": conv.even_sign,
            "even_rm": conv.even_rm,
            "chain_map": chain_ok,
            "differential_squares_to_zero": square_ok,
        })
        if chain_ok and square_ok:
            winners.append(conv)

    default = DEFAULT_CONVENTION
    report = {
        "candidates": rows,
        "panel": [name for name, _ in panel],
        "degrees_tested": [1, 2],
        "winner": None if len(winners) != 1 else {
            "even_shift": winners[0].even_shift,
            "even_sign": winners[0].even_sign,
            "even_rm": winners[0].even_rm,
        },
        "winner_unique": len(winners) == 1,
        "winner_is_default": (winners == [default]
                              and all(engine_uses(pair, default) for _, pair in panel)),
    }

    here = os.path.dirname(__file__)
    docs = os.path.join(here, "..", "docs")
    os.makedirs(docs, exist_ok=True)
    with open(os.path.join(docs, "phi_calibration.json"), "w") as fh:
        fh.write(dumps_canonical(report))

    lines = [
        "# Operator-map coefficient calibration",
        "",
        "The even-subset terms of the operator map phi admit twelve candidate",
        "coefficient conventions: exponent `|S|/2 + shift` on `(-kappa)` with",
        "`shift in {+1, 0, -1}`, an overall sign, and an optional factor of",
        "`R_M`.  Two structural requirements pin the convention down:",
        "",
        "1. phi must be a chain map from the plain complex to the one over the",
        "   induced multiplication (`phi . delta = delta_induced . phi`);",
        "2. the assembled pair differential must square to zero.",
        "",
        "Both were tested as exact matrix identities in degrees 1 and 2 on a",
        "panel of instances with weights `0`, `-1`, `-4` over `Q` and `4` over",
        "`F_5` (weights outside `{0, +-1}` are what separate the exponent",
        "shifts).  Results:",
        "",
        "| shift | sign | R_M | chain map | d.d = 0 |",
        "|------:|-----:|:----|:----------|:--------|",
    ]
    for row in rows:
        lines.append("| %+d | %+d | %s | %s | %s |" % (
            row["even_shift"], row["even_sign"],
            "yes" if row["even_rm"] else "no",
            "pass" if row["chain_map"] else "fail",
            "pass" if row["differential_squares_to_zero"] else "fail"))
    lines += [
        "",
        "Exactly one candidate passes: `shift = 0`, `sign = +1`, no `R_M`",
        "factor.  That convention ships as the default; every cohomology,",
        "deformation, and extension computation in the package uses it.",
        "",
        "With it, phi is one tensor power.  Write `u` for a bare slot, with",
        "`u^2 = -kappa`: `u^|S|` is `(-kappa)^(|S|/2)` for even `|S|` and",
        "`(-kappa)^((|S|-1)/2) u` for odd `|S|`.  So the sum over the sets `S`",
        "of bare slots is `(R + u)^(x n) = A + uB` over `Z[u]/(u^2 + kappa)`,",
        "and `phi(f) = f . A - R_M . f . B`.  The engine builds it one slot at",
        "a time, in `n` steps per column instead of over `2^n` sets.",
        "",
        "Regenerate this report with `python3 tools/calibrate_phi.py`.",
        "",
    ]
    with open(os.path.join(docs, "phi_calibration.md"), "w") as fh:
        fh.write("\n".join(lines))

    print("winners:", [(w.even_shift, w.even_sign, w.even_rm) for w in winners])
    if len(winners) != 1:
        print("calibration FAILED: winner not unique", file=sys.stderr)
        return 1
    if not report["winner_is_default"]:
        print("calibration FAILED: winner differs from shipped default", file=sys.stderr)
        return 1
    print("calibration ok: unique winner equals the shipped default")
    return 0


if __name__ == "__main__":
    sys.exit(main())
