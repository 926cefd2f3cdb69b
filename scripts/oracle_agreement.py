#!/usr/bin/env python3
"""Randomized agreement experiment: history-state pipeline vs sequential chain.

Samples scenarios (random system dimension, Hamiltonian, complete Kraus
families), evaluates every full outcome assignment after the last event
through both routes, and reports the worst absolute deviation.  The history
route is read twice, through ``joint`` and through the cell of ``full_table``.
"""

import argparse
import itertools
import sys
import time

import numpy as np

from qtimeline.hilbert import propagator
from qtimeline.oracle import sequential_born
from qtimeline.probability import OutcomeQuery, full_table, joint
from qtimeline.sampling import random_scenario
from qtimeline.timeline import build_history


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tolerance", type=float, default=1e-10)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    worst = 0.0
    worst_case = None
    checked = 0
    started = time.perf_counter()
    for trial in range(args.trials):
        sample = random_scenario(rng)
        history = build_history(sample.psi0, sample.t0, sample.h_system, sample.schedule)
        t = sample.schedule.times[-1] + 1.0
        table = full_table(history, t)
        psi_first = propagator(sample.h_system, sample.schedule.times[0], sample.t0).apply(sample.psi0)
        names = sample.schedule.detector_labels
        label_sets = [det.kraus.outcome_labels for _, det in sample.schedule.events]
        for combo in itertools.product(*label_sets):
            assignment = dict(zip(names, combo))
            p_history = joint(history, OutcomeQuery(assignment, t))
            p_table = table.value(assignment)
            p_oracle = sequential_born(psi_first, sample.h_system, sample.schedule, assignment)
            deviation = max(abs(p_history - p_oracle), abs(p_table - p_oracle))
            checked += 1
            if deviation > worst:
                worst = deviation
                worst_case = (trial, assignment)
    elapsed = time.perf_counter() - started

    print(f"trials:            {args.trials}")
    print(f"assignments:       {checked}")
    print(f"max |route diff|:  {worst:.3e}  (trial {worst_case[0]}, {worst_case[1]})")
    print(f"elapsed:           {elapsed:.2f}s")
    if worst > args.tolerance:
        print(f"FAIL: exceeds tolerance {args.tolerance:g}")
        return 1
    print(f"OK: within tolerance {args.tolerance:g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
