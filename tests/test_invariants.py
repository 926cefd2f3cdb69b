"""Metamorphic invariants of outcome tables, checked through the public API only.

Each test transforms a scenario in a way that, by the trace rule, must leave
the tables at every clock reading unchanged (or, in one fixed case, must
change them), and compares the two pipelines' tables.  No oracle is involved:
the reference is the untransformed scenario itself.
"""

import numpy as np
import pytest

from qtimeline import (
    DetectorModel,
    EventSchedule,
    KrausSet,
    Operator,
    OutcomeQuery,
    StateVector,
    SubsystemLayout,
    build_history,
    full_table,
    marginal,
)
from qtimeline.sampling import random_complete_kraus, random_scenario, random_wide_scenario
from qtimeline.wigner import friend_detector, wigner_detector

TOL = 1e-12
SEEDS = range(12)


def draws():
    """Single-factor and wide samples: several system factors, Kraus on earlier records."""
    for seed in SEEDS:
        yield random_scenario(np.random.default_rng([seed, 2]))
        yield random_wide_scenario(np.random.default_rng([seed, 3]))


def readings(schedule) -> list[float]:
    """One clock reading in every regime, before the first event to after the last."""
    times = schedule.times
    return [times[0] - 0.5, *((a + b) / 2 for a, b in zip(times, times[1:])), times[-1] + 0.7]


def history_of(sample, events=None, t0=None):
    schedule = EventSchedule(tuple(events if events is not None else sample.schedule.events))
    return build_history(sample.psi0, sample.t0 if t0 is None else t0, sample.h_system, schedule)


def with_kraus(det, matrices):
    """``det`` with its Kraus operators replaced, outcome labels kept."""
    layout = det.kraus.target_layout
    return DetectorModel(
        det.detector_label,
        KrausSet(tuple((label, Operator(layout, m)) for label, m in zip(det.kraus.outcome_labels, matrices))),
    )


def deviation(first, second) -> float:
    """Largest difference between two tables with the same rows in the same order."""
    assert [key for key, _ in first.rows] == [key for key, _ in second.rows]
    return max(abs(a - b) for (_, a), (_, b) in zip(first.rows, second.rows))


def assert_same_tables(h1, h2, ts, shift=0.0):
    for t in ts:
        assert deviation(full_table(h1, t), full_table(h2, t + shift)) < TOL, t


def random_unitary(rng, dim):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.mark.parametrize("shift", [-7.25, 0.3, 1e3 / 3])
def test_time_translation(shift):
    for sample in draws():
        moved = [(t + shift, det) for t, det in sample.schedule.events]
        ts = readings(sample.schedule)
        assert_same_tables(history_of(sample), history_of(sample, moved, sample.t0 + shift), ts, shift)


def test_no_signalling_from_the_future():
    rng = np.random.default_rng(60)
    for sample in draws():
        *earlier, (t_last, last) = sample.schedule.events
        other = random_complete_kraus(rng, last.kraus.target_layout, int(rng.integers(2, 4)))
        changed = [*earlier, (t_last, DetectorModel(last.detector_label, other))]
        ts = [t for t in readings(sample.schedule) if t < t_last]
        assert_same_tables(history_of(sample), history_of(sample, changed), ts)


def test_outcome_phases_on_a_record_nothing_targets_later():
    rng = np.random.default_rng(61)
    for sample in draws():
        events = list(sample.schedule.events)
        changed = []
        for k, (t, det) in enumerate(events):
            later = {label for _, d in events[k + 1:] for label in d.kraus.target_labels}
            if det.detector_label not in later:
                phases = np.exp(2j * np.pi * rng.random(len(det.kraus.outcomes)))
                det = with_kraus(det, [p * op.matrix for p, (_, op) in zip(phases, det.kraus.outcomes)])
            changed.append((t, det))
        assert_same_tables(history_of(sample), history_of(sample, changed), readings(sample.schedule))


def test_outcome_phases_on_a_record_a_later_kraus_targets():
    # Wigner's yes/no measurement acts on the friend's record, so phases on the
    # friend's Kraus operators reach the interference terms Wigner reads.
    system = SubsystemLayout.of(("S", 2))
    psi0 = StateVector(system, [0.6, 0.8])
    h_zero = Operator(system, np.zeros((2, 2)))
    friend = friend_detector()
    phases = {"up": 1j, "down": 1.0}
    phased = with_kraus(friend, [phases[label] * op.matrix for label, op in friend.kraus.outcomes])
    wigner = wigner_detector(0.8, 0.6j)
    tables = [
        full_table(build_history(psi0, 0.0, h_zero, EventSchedule(((1.0, f), (2.0, wigner)))), 3.0)
        for f in (friend, phased)
    ]
    assert deviation(*tables) > 0.1
    # Before Wigner's event the friend's own statistics are untouched.
    before = [build_history(psi0, 0.0, h_zero, EventSchedule(((1.0, f),))) for f in (friend, phased)]
    assert_same_tables(*before, [1.5])


def test_unitary_freedom_of_the_last_kraus_family():
    # U_m acts on the system factors among the targets only: a unitary on an
    # earlier record would change how that record reads out.
    rng = np.random.default_rng(62)
    on_records = 0
    for sample in draws():
        *earlier, (t_last, last) = sample.schedule.events
        rotated = []
        for _, op in last.kraus.outcomes:
            u = np.eye(1)
            for label, dim in last.kraus.target_layout.factors:
                u = np.kron(u, random_unitary(rng, dim) if label in sample.psi0.layout else np.eye(dim))
            rotated.append(u @ op.matrix)
        changed = [*earlier, (t_last, with_kraus(last, rotated))]
        assert_same_tables(history_of(sample), history_of(sample, changed), readings(sample.schedule))
        on_records += any(label not in sample.psi0.layout for label in last.kraus.target_labels)
    assert on_records


def test_a_trivial_detector_changes_no_other_marginal():
    rng = np.random.default_rng(63)
    for sample in draws():
        events = list(sample.schedule.events)
        system = sample.psi0.layout
        position = int(rng.integers(0, len(events) + 1))
        trivial = DetectorModel("T", KrausSet((("seen", Operator(system, np.eye(system.dim))),)))
        extended = [*events[:position], (position + 0.5, trivial), *events[position:]]
        original, with_trivial = history_of(sample), history_of(sample, extended)
        for t in readings(EventSchedule(tuple(extended))):
            table = full_table(original, t)
            for key, value in table.rows:
                assignment = dict(zip(table.detectors, key))
                assert abs(marginal(with_trivial, OutcomeQuery(assignment, t)) - value) < TOL
            own = "seen" if t > position + 0.5 else "r"
            assert abs(marginal(with_trivial, OutcomeQuery({"T": own}, t)) - 1.0) < TOL
