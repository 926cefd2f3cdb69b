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
    conditional,
    full_table,
    marginal,
)
from qtimeline.sampling import random_complete_kraus, random_scenario, random_wide_scenario
from qtimeline.wigner import friend_detector, wigner_detector

TOL = 1e-12
TOL_REWRITE = 1e-10  # for transforms that rewrite every amplitude
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


def on_targets(layout, per_factor):
    """Kronecker product over the factors of ``layout``: ``per_factor[label]`` or the identity."""
    out = np.eye(1)
    for label, dim in layout.factors:
        out = np.kron(out, per_factor.get(label, np.eye(dim)))
    return out


def readouts(history, t):
    """Every table entry by label, every single-detector marginal and every non-null conditional."""
    table = full_table(history, t).as_dict()
    labels = {det.detector_label: (det.ready_label, *det.kraus.outcome_labels) for _, det in history.schedule.events}
    singles = [{d: x} for d, shown in labels.items() for x in shown]
    marginals = {tuple(a.items()): marginal(history, OutcomeQuery(a, t)) for a in singles}
    conditionals = {
        (tuple(a.items()), tuple(g.items())): conditional(history, a, g, t)
        for a in singles for g in singles
        if a.keys() != g.keys() and marginals[tuple(g.items())] > 1e-6
    }
    return table, marginals, conditionals


def assert_same_readouts(h1, h2, ts, tol):
    for t in ts:
        for first, second in zip(readouts(h1, t), readouts(h2, t)):
            assert first.keys() == second.keys(), t
            assert max((abs(first[key] - second[key]) for key in first), default=0.0) < tol, t


def test_relabelling_the_ancilla_basis():
    # Permuting a detector's Kraus order moves each outcome to another ancilla
    # index (ready 0, outcome i at i + 1).  With the matching permutation P
    # applied to its record in every later Kraus (K -> P K P^T on that factor),
    # the tables read by label must not change.
    rng = np.random.default_rng(64)
    on_records = 0
    for sample in draws():
        moves, changed = {}, []
        for t, det in sample.schedule.events:
            p = on_targets(det.kraus.target_layout, moves)  # earlier records at their new indices
            conjugated = [(label, Operator(op.layout, p @ op.matrix @ p.T)) for label, op in det.kraus.outcomes]
            order = rng.permutation(len(conjugated))
            relabelled = DetectorModel(det.detector_label, KrausSet(tuple(conjugated[i] for i in order)))
            move = np.zeros((det.ancilla_dim, det.ancilla_dim))
            for label in (det.ready_label, *det.kraus.outcome_labels):
                move[relabelled.record_index(label), det.record_index(label)] = 1.0
            moves[det.detector_label] = move
            changed.append((t, relabelled))
            on_records += any(label in moves for label in det.kraus.target_labels)
        assert_same_readouts(history_of(sample), history_of(sample, changed), readings(sample.schedule), TOL_REWRITE)
    assert on_records


def test_system_basis_change():
    # V, a product of per-factor unitaries: psi0 -> V psi0, H -> V H V^dag and
    # the system part of every Kraus conjugated by V.  Records are untouched.
    rng = np.random.default_rng(65)
    for sample in draws():
        system = sample.psi0.layout
        per_factor = {label: random_unitary(rng, dim) for label, dim in system.factors}
        v = on_targets(system, per_factor)
        events = []
        for t, det in sample.schedule.events:
            w = on_targets(det.kraus.target_layout, per_factor)
            events.append((t, with_kraus(det, [w @ op.matrix @ w.conj().T for _, op in det.kraus.outcomes])))
        psi0 = StateVector(system, v @ sample.psi0.amplitudes)
        h = Operator(system, v @ sample.h_system.matrix @ v.conj().T)
        rotated = build_history(psi0, sample.t0, h, EventSchedule(tuple(events)))
        for t in readings(sample.schedule):
            assert deviation(full_table(history_of(sample), t), full_table(rotated, t)) < TOL_REWRITE, t
