#!/usr/bin/env python3
"""Randomized agreement experiment: history-state pipeline vs sequential chain.

Samples scenarios from each sampler in ``qtimeline.sampling``: single-factor
systems (``random_scenario``), several system factors with families on one
earlier record (``random_wide_scenario``), and families on records only or on
several records, with one to four outcomes (``random_record_scenario``).  At a
clock reading in every segment after the first event it evaluates every full
outcome assignment through both routes and reports the worst absolute
deviation per sampler.  The history route is read twice, through ``joint``
and through the cell of ``full_table``.
"""

import argparse
import itertools
import sys
import time

import numpy as np

from qtimeline.hilbert import StateVector, SubsystemLayout, propagator
from qtimeline.oracle import sequential_born
from qtimeline.probability import OutcomeQuery, full_table, joint
from qtimeline.sampling import random_record_scenario, random_scenario, random_wide_scenario
from qtimeline.timeline import EventSchedule, build_history

SAMPLERS = (random_scenario, random_wide_scenario, random_record_scenario)
TOLERANCE = 1e-10  # largest deviation allowed between the two routes


def oracle_joints(sample, k: int) -> dict[tuple[str, ...], float]:
    """Oracle joints after the first ``k`` events, keyed like ``full_table`` rows.

    Every detector still to fire shows its ready label.  A fired record that a
    later fired Kraus acts on joins the oracle state at its ready state, and
    ranges over its ready label as well.
    """
    events = sample.schedule.events
    fired = EventSchedule(events[:k])
    psi = propagator(sample.h_system, fired.times[0], sample.t0).apply(sample.psi0)
    targeted = {label for _, det in fired.events for label in det.kraus.target_labels}
    labels = []
    for _, det in fired.events:
        labels.append(det.kraus.outcome_labels)
        if det.detector_label in targeted:
            ready = det.record_state(det.ready_label)
            layout = SubsystemLayout(psi.layout.factors + ready.layout.factors)
            psi = StateVector(layout, np.kron(psi.amplitudes, ready.amplitudes))
            labels[-1] += (det.ready_label,)
    pending = tuple(det.ready_label for _, det in events[k:])
    return {
        combo + pending: sequential_born(psi, sample.h_system, fired, dict(zip(fired.detector_labels, combo)))
        for combo in itertools.product(*labels)
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=200, help="scenarios per sampler")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    failed = False
    for index, draw in enumerate(SAMPLERS):
        rng = np.random.default_rng([args.seed, index])
        worst, worst_case, checked, stray = 0.0, None, 0, []
        started = time.perf_counter()
        for trial in range(args.trials):
            sample = draw(rng)
            history = build_history(sample.psi0, sample.t0, sample.h_system, sample.schedule)
            times = sample.schedule.times
            names = sample.schedule.detector_labels
            for k in range(1, len(times) + 1):
                t = (times[k - 1] + times[k]) / 2 if k < len(times) else times[-1] + 1.0
                expected = oracle_joints(sample, k)
                table = full_table(history, t).as_dict()
                stray += [(trial, t, key) for key in table.keys() - expected.keys()]
                for key, p_oracle in expected.items():
                    assignment = dict(zip(names, key))
                    p_history = joint(history, OutcomeQuery(assignment, t))
                    deviation = max(abs(p_history - p_oracle), abs(table.get(key, 0.0) - p_oracle))
                    checked += 1
                    if deviation > worst or worst_case is None:
                        worst, worst_case = deviation, (trial, t, assignment)
        elapsed = time.perf_counter() - started

        print(f"{draw.__name__}:")
        print(f"  trials:            {args.trials}")
        print(f"  assignments:       {checked}")
        print(f"  max |route diff|:  {worst:.3e}  (trial {worst_case[0]}, t={worst_case[1]}, {worst_case[2]})")
        print(f"  elapsed:           {elapsed:.2f}s")
        if stray:
            print(f"  FAIL: table rows the oracle does not list, first {stray[0]}")
            failed = True
        if worst > TOLERANCE:
            print(f"  FAIL: exceeds tolerance {TOLERANCE:g}")
            failed = True
    if failed:
        return 1
    print(f"OK: within tolerance {TOLERANCE:g} on every sampler")
    return 0


if __name__ == "__main__":
    sys.exit(main())
