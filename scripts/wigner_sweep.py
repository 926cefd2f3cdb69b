#!/usr/bin/env python3
"""Sweep the second observer's measurement basis and tabulate the grids.

Parameterizes the entangled yes-state as (alpha, beta) = (cos(theta),
sin(theta)) and writes one CSV row per angle: the joint grid, both marginals,
and both conditional grids at a late clock reading.  Useful for seeing how the
two observers' descriptions pull apart as the bases rotate against each other.

(a, b) is made unit by ``qtimeline.wigner.unit_pair``, the rule ``qtimeline
wigner`` applies to its flags, so both give the same tables.  Exit codes
follow ``qtimeline``: 2 for a pair that cannot be normalized (or another bad
parameter or output path), 1 when a conditional is undefined at some angle;
either way one stderr line is printed and no CSV is written.
"""

import argparse
import csv
import sys

import numpy as np

from qtimeline.probability import ConditioningOnNullEvent
from qtimeline.wigner import FRIEND, WIGNER, WignerScenario, tables, unit_pair


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--a", type=float, default=0.6, help="system up amplitude (real)")
    parser.add_argument("--b", type=float, default=0.8, help="system down amplitude (real)")
    parser.add_argument("--steps", type=int, default=25, help="angles between 0 and pi/2")
    parser.add_argument("--t", type=float, default=3.0, help="clock reading")
    parser.add_argument("--out", default="-", help="CSV path, '-' for stdout")
    args = parser.parse_args()

    pairs = [(f, w) for f in ("up", "down") for w in ("yes", "no")]
    header = ["theta", "alpha", "beta"]
    header += [f"joint_{f}_{w}" for f, w in pairs]
    header += ["marginal_yes", "marginal_no", "marginal_up", "marginal_down"]
    header += [f"cond_w_{w}_given_{f}" for f, w in pairs]
    header += [f"cond_f_{f}_given_{w}" for f, w in pairs]

    rows = []
    try:
        a, b = unit_pair(args.a, args.b, "(a, b)")
        for theta in np.linspace(0.0, np.pi / 2, args.steps):
            alpha, beta = np.cos(theta), np.sin(theta)
            result = tables(WignerScenario(a=a, b=b, alpha=alpha, beta=beta), args.t)
            rows.append(_row(theta, alpha, beta, result, pairs))
    except ConditioningOnNullEvent as err:
        print(f"conditional tables undefined at theta={theta:.6f}: {err}", file=sys.stderr)
        return 1
    except ValueError as err:  # DomainError for the pair or a NaN clock reading, a negative --steps
        print(f"invalid parameters: {err}", file=sys.stderr)
        return 2

    try:
        handle = sys.stdout if args.out == "-" else open(args.out, "w", newline="")
    except OSError as err:
        print(f"{args.out}: {err}", file=sys.stderr)
        return 2
    writer = csv.writer(handle)
    writer.writerow(header)
    writer.writerows(rows)
    if handle is not sys.stdout:
        handle.close()
        print(f"wrote {args.steps} rows to {args.out}")
    return 0


def _row(theta, alpha, beta, result, pairs) -> list[str]:
    row = [f"{theta:.6f}", f"{alpha:.6f}", f"{beta:.6f}"]
    row += [f"{result.joint.value({FRIEND: f, WIGNER: w}):.12g}" for f, w in pairs]
    row += [f"{result.marginal_w.value({WIGNER: w}):.12g}" for w in ("yes", "no")]
    row += [f"{result.marginal_f.value({FRIEND: f}):.12g}" for f in ("up", "down")]
    row += [f"{result.cond_w_given_f.value({FRIEND: f, WIGNER: w}):.12g}" for f, w in pairs]
    row += [f"{result.cond_f_given_w.value({FRIEND: f, WIGNER: w}):.12g}" for f, w in pairs]
    return row


if __name__ == "__main__":
    sys.exit(main())
