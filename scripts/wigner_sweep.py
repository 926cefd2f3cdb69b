#!/usr/bin/env python3
"""Sweep the second observer's measurement basis and tabulate the grids.

Parameterizes the entangled yes-state as (alpha, beta) = (cos(theta),
sin(theta)) and writes one CSV row per angle: the joint grid, both marginals,
and both conditional grids at a late clock reading.  Useful for seeing how the
two observers' descriptions pull apart as the bases rotate against each other.

(a, b) is made unit by ``qtimeline.wigner.unit_pair``, the rule ``qtimeline
wigner`` applies to its flags, so both give the same tables.  The reading --t
must be at or after Wigner's measurement (t_n = 2), where every grid is over
(F, W) = (up/down, yes/no); an earlier one is refused before any table is
built.  Exit codes follow ``qtimeline``: 2 for a pair that cannot be
normalized, an early or NaN reading (or another bad parameter or output
path), 1 when a conditional is undefined at some angle; either way one
stderr line is printed and no CSV is written.
"""

import argparse
import csv
import sys

import numpy as np

from qtimeline.cli import _write_output
from qtimeline.probability import ConditioningOnNullEvent
from qtimeline.wigner import WignerScenario, tables, unit_pair

_PAIRS = [(f, w) for f in ("up", "down") for w in ("yes", "no")]  # row-major over (F, W), as each grid ravels
HEADER = ["theta", "alpha", "beta", *[f"joint_{f}_{w}" for f, w in _PAIRS],  # cells in WignerTables field order
          "marginal_yes", "marginal_no", "marginal_up", "marginal_down",
          *[f"cond_w_{w}_given_{f}" for f, w in _PAIRS], *[f"cond_f_{f}_given_{w}" for f, w in _PAIRS]]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--a", type=float, default=0.6, help="system up amplitude (real)")
    parser.add_argument("--b", type=float, default=0.8, help="system down amplitude (real)")
    parser.add_argument("--steps", type=int, default=25, help="angles between 0 and pi/2")
    parser.add_argument("--t", type=float, default=3.0, help="clock reading, at or after t_n")
    parser.add_argument("--out", default="-", help="CSV path, '-' for stdout")
    args = parser.parse_args()

    rows = []
    try:
        a, b = unit_pair(args.a, args.b, "(a, b)")
        if args.t < WignerScenario.t_n:  # a NaN reading passes on, for tables to refuse
            raise ValueError(f"clock reading t={args.t:g} is before Wigner's measurement at t_n={WignerScenario.t_n:g}")
        for theta in np.linspace(0.0, np.pi / 2, args.steps):
            alpha, beta = np.cos(theta), np.sin(theta)
            result = tables(WignerScenario(a=a, b=b, alpha=alpha, beta=beta), args.t)
            cells = np.concatenate([grid.weights.ravel() for grid in vars(result).values()]).tolist()
            rows.append([f"{theta:.6f}", f"{alpha:.6f}", f"{beta:.6f}", *[f"{cell:.12g}" for cell in cells]])
    except ConditioningOnNullEvent as err:
        print(f"conditional tables undefined at theta={theta:.6f}: {err}", file=sys.stderr)
        return 1
    except ValueError as err:  # DomainError for the pair or a NaN clock reading, a negative --steps
        print(f"invalid parameters: {err}", file=sys.stderr)
        return 2

    if args.out == "-":
        csv.writer(sys.stdout).writerows([HEADER, *rows])
        return 0
    if not _write_output(args.out, lambda handle: csv.writer(handle).writerows([HEADER, *rows])):
        return 2
    print(f"wrote {args.steps} rows to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
