#!/usr/bin/env python3
"""Write the example scenario ``examples/frauchiger_renner.json`` through ``dump_scenario``.

It is the four-agent scenario of Frauchiger and Renner (Nat. Commun. 9,
3711, 2018).  The system is a coin R (h/t) and a spin S (up/down) in
(|h,down> + |t,up> + |t,down>)/sqrt(3), the state that Fbar's preparation
leaves, with no free dynamics.  Fbar measures R at t = 1 and F measures S at
t = 2 (``qtimeline.wigner.friend_detector``).  At t = 3, Wbar asks whether
R (x) Fbar is in (|h,h> - |t,t>)/sqrt(2), and at t = 4, W asks whether
S (x) F is in (|down,down> - |up,up>)/sqrt(2); both are
``qtimeline.instrument.state_test`` families, whose outcome "yes" is the
paper's "ok".  Every record index is ``DetectorModel.record_index``'s, so no
Kraus matrix of a state test is written out here.  The queries are one full
table per segment and the conditionals of the paper's chain of inferences.

Usage: ``python3 scripts/make_examples.py``.  It rewrites the file in place;
a test checks that the committed file is what it writes.  A file that cannot
be written ends the run with one stderr line and exit 2.
"""

import math
import sys
from pathlib import Path

import numpy as np

from qtimeline.hilbert import Operator, StateVector, SubsystemLayout
from qtimeline.instrument import DetectorModel, KrausSet, state_test
from qtimeline.probability import OutcomeQuery
from qtimeline.scenario import Scenario, dump_scenario
from qtimeline.timeline import EventSchedule
from qtimeline.wigner import friend_detector

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"
# One reading inside each segment: before Fbar, after Fbar, after F, after Wbar, after W.
READINGS = (0.5, 1.5, 2.5, 3.5, 5.0)


def ket(layout: SubsystemLayout, *terms) -> np.ndarray:
    """The flat vector sum of c |i, j, ...> over ``terms`` (c, (i, j, ...)), one index per factor of ``layout``."""
    vector = np.zeros(layout.dims, dtype=complex)
    for c, index in terms:
        vector[index] += c
    return vector.reshape(-1)


def frauchiger_renner() -> Scenario:
    coin = SubsystemLayout.of(("R", 2))
    system = SubsystemLayout(coin.factors + (("S", 2),))
    h, t = 0, 1  # the basis of R; Fbar projects on it
    up, down = 0, 1  # the basis of S, as friend_detector projects on it
    fbar = DetectorModel("Fbar", KrausSet(tuple((label, Operator(coin, np.diag(row)))
                                                for label, row in zip(("h", "t"), np.eye(2)))))
    friend = friend_detector()

    psi0 = ket(system, (1, (h, down)), (1, (t, up)), (1, (t, down))) / math.sqrt(3)
    lab_bar = SubsystemLayout(coin.factors + fbar.ancilla_layout.factors)
    ok_bar = ket(lab_bar, (1, (h, fbar.record_index("h"))), (-1, (t, fbar.record_index("t")))) / math.sqrt(2)
    lab = SubsystemLayout(friend.kraus.target_layout.factors + friend.ancilla_layout.factors)
    ok = ket(lab, (1, (down, friend.record_index("down"))), (-1, (up, friend.record_index("up")))) / math.sqrt(2)
    schedule = EventSchedule((
        (1.0, fbar),
        (2.0, friend),
        (3.0, state_test("Wbar", lab_bar, ok_bar)),
        (4.0, state_test("W", lab, ok)),
    ))

    queries = [OutcomeQuery({}, reading) for reading in READINGS]
    queries += [OutcomeQuery({"Fbar": "t"}, reading, {"F": "up"}) for reading in (2.5, 3.5, 5.0)]
    queries += [OutcomeQuery({"F": "up"}, reading, {"Wbar": "yes"}) for reading in (3.5, 5.0)]
    queries += [
        OutcomeQuery({"W": "no"}, 5.0, {"Fbar": "t"}),
        OutcomeQuery({"W": "yes"}, 5.0, {"Wbar": "yes"}),
        OutcomeQuery({"Wbar": "yes", "W": "yes"}, 5.0),
    ]
    h_zero = Operator(system, np.zeros((system.dim, system.dim)))
    return Scenario(StateVector(system, psi0), 0.0, h_zero, schedule, tuple(queries))


def main() -> int:
    path = EXAMPLES / "frauchiger_renner.json"
    try:
        EXAMPLES.mkdir(exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(dump_scenario(frauchiger_renner()))
    except OSError as err:
        print(f"{path}: {err}", file=sys.stderr)
        return 2
    print(f"wrote {path.relative_to(EXAMPLES.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
