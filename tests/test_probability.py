import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtimeline.hilbert import DomainError, Operator, StateVector, SubsystemLayout
from qtimeline.instrument import DetectorModel, KrausSet
from qtimeline.probability import (
    ConditioningOnNullEvent,
    OutcomeQuery,
    ProbabilityTable,
    conditional,
    full_table,
    joint,
    marginal,
    outcome_labels_at,
)
from qtimeline.sampling import random_scenario, random_wide_scenario
from qtimeline.timeline import EventSchedule, build_history, state_at
from qtimeline.wigner import WignerScenario, build as build_wigner

from helpers import (
    all_assignments,
    closed_form_cond_f_given_w,
    closed_form_cond_w_given_f,
    closed_form_joint,
    closed_form_marginal_f,
    closed_form_marginal_w,
    random_unit_pair,
)
from reference import embed, tensor

T_LATE = 3.0


def wigner_history(a, b, alpha, beta):
    return build_wigner(WignerScenario(a=a, b=b, alpha=alpha, beta=beta, t_m=1.0, t_n=2.0))


def test_joint_matches_closed_form_grid():
    rng = np.random.default_rng(21)
    for _ in range(10):
        a, b = random_unit_pair(rng)
        alpha, beta = random_unit_pair(rng)
        history = wigner_history(a, b, alpha, beta)
        expected = closed_form_joint(a, b, alpha, beta)
        for (f, w), value in expected.items():
            got = joint(history, OutcomeQuery({"F": f, "W": w}, T_LATE))
            assert abs(got - value) < 1e-12


def test_joint_is_zero_before_any_measurement():
    history = wigner_history(0.6, 0.8, 0.8, 0.6)
    for f, w in itertools.product(("up", "down"), ("yes", "no")):
        assert joint(history, OutcomeQuery({"F": f, "W": w}, 0.5)) == pytest.approx(0.0, abs=1e-14)


def test_joint_spot_values():
    inv = 1 / np.sqrt(2)
    history = wigner_history(inv, inv, 1.0, 0.0)
    grid = {
        ("up", "yes"): 0.5,
        ("down", "yes"): 0.0,
        ("up", "no"): 0.0,
        ("down", "no"): 0.5,
    }
    for (f, w), value in grid.items():
        got = joint(history, OutcomeQuery({"F": f, "W": w}, T_LATE))
        assert abs(got - value) < 1e-12


def test_joint_requires_full_assignment():
    history = wigner_history(0.6, 0.8, 1.0, 0.0)
    with pytest.raises(KeyError):
        joint(history, OutcomeQuery({"F": "up"}, T_LATE))
    with pytest.raises(KeyError):
        joint(history, OutcomeQuery({"F": "up", "W": "yes", "X": "up"}, T_LATE))
    with pytest.raises(KeyError):
        joint(history, OutcomeQuery({"F": "sideways", "W": "yes"}, T_LATE))


def test_marginal_w_matches_closed_form():
    rng = np.random.default_rng(5)
    a, b = random_unit_pair(rng)
    alpha, beta = random_unit_pair(rng)
    history = wigner_history(a, b, alpha, beta)
    expected = closed_form_marginal_w(a, b, alpha, beta)
    for w, value in expected.items():
        assert abs(marginal(history, OutcomeQuery({"W": w}, T_LATE)) - value) < 1e-12


def test_marginal_f_matches_closed_form():
    rng = np.random.default_rng(6)
    a, b = random_unit_pair(rng)
    alpha, beta = random_unit_pair(rng)
    history = wigner_history(a, b, alpha, beta)
    expected = closed_form_marginal_f(a, b, alpha, beta)
    for f, value in expected.items():
        assert abs(marginal(history, OutcomeQuery({"F": f}, T_LATE)) - value) < 1e-12


def test_marginal_ready_record_between_events_is_certain():
    history = wigner_history(0.6, 0.8, 0.8, 0.6)
    assert marginal(history, OutcomeQuery({"W": "r"}, 1.5)) == pytest.approx(1.0, abs=1e-14)


def test_marginal_rejects_empty_assignment():
    history = wigner_history(0.6, 0.8, 1.0, 0.0)
    with pytest.raises(KeyError):
        marginal(history, OutcomeQuery({}, T_LATE))


def test_conditional_f_given_w_matches_closed_form():
    rng = np.random.default_rng(7)
    a, b = random_unit_pair(rng)
    alpha, beta = random_unit_pair(rng)
    history = wigner_history(a, b, alpha, beta)
    expected = closed_form_cond_f_given_w(a, b, alpha, beta)
    for (f, w), value in expected.items():
        got = conditional(history, {"F": f}, {"W": w}, T_LATE)
        assert abs(got - value) < 1e-12


def test_conditional_w_given_f_matches_closed_form():
    rng = np.random.default_rng(8)
    a, b = random_unit_pair(rng)
    alpha, beta = random_unit_pair(rng)
    history = wigner_history(a, b, alpha, beta)
    expected = closed_form_cond_w_given_f(a, b, alpha, beta)
    for (f, w), value in expected.items():
        got = conditional(history, {"W": w}, {"F": f}, T_LATE)
        assert abs(got - value) < 1e-12


def test_conditioning_on_null_event_raises():
    # a=1, b=0, alpha=0, beta=1 makes the yes branch amplitude vanish exactly.
    history = wigner_history(1.0, 0.0, 0.0, 1.0)
    assert marginal(history, OutcomeQuery({"W": "yes"}, T_LATE)) == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(ConditioningOnNullEvent):
        conditional(history, {"F": "up"}, {"W": "yes"}, T_LATE)


def test_conditional_rejects_overlapping_sets():
    history = wigner_history(0.6, 0.8, 1.0, 0.0)
    with pytest.raises(ValueError):
        conditional(history, {"F": "up"}, {"F": "down"}, T_LATE)


def test_full_table_late_regime_matches_closed_form():
    rng = np.random.default_rng(9)
    a, b = random_unit_pair(rng)
    alpha, beta = random_unit_pair(rng)
    table = full_table(wigner_history(a, b, alpha, beta), T_LATE)
    expected = closed_form_joint(a, b, alpha, beta)
    assert set(table.as_dict()) == set(expected)
    for key, value in expected.items():
        assert abs(table.value(dict(zip(("F", "W"), key))) - value) < 1e-12
    assert abs(table.total - 1.0) < 1e-12


def test_full_table_before_any_event_is_single_ready_row():
    table = full_table(wigner_history(0.6, 0.8, 1.0, 0.0), 0.25)
    assert table.rows == ((("r", "r"), pytest.approx(1.0, abs=1e-14)),)


def test_full_table_between_events_uses_ready_label_for_pending_detector():
    history = wigner_history(0.6, 0.8, 1.0, 0.0)
    table = full_table(history, 1.5)
    assert set(table.as_dict()) == {("up", "r"), ("down", "r")}
    assert table.value({"F": "up", "W": "r"}) == pytest.approx(0.36, abs=1e-12)
    assert table.value({"F": "down", "W": "r"}) == pytest.approx(0.64, abs=1e-12)


def test_outcome_labels_at_respects_half_open_convention():
    history = wigner_history(0.6, 0.8, 1.0, 0.0)
    assert outcome_labels_at(history, 0.999) == {"F": ("r",), "W": ("r",)}
    assert outcome_labels_at(history, 1.0) == {"F": ("up", "down"), "W": ("r",)}
    assert outcome_labels_at(history, 2.0) == {"F": ("up", "down"), "W": ("yes", "no")}


def test_outcome_labels_at_are_the_labels_of_the_full_table_rows():
    histories = [wigner_history(0.6, 0.8, 0.8, 0.6)]
    for seed in range(12):
        sample = random_wide_scenario(np.random.default_rng([seed, 4]))
        histories.append(build_history(sample.psi0, sample.t0, sample.h_system, sample.schedule))
    for history in histories:
        times = history.schedule.times
        readings = [-math.inf, times[0] - 0.5, *times, *((t1 + t2) / 2 for t1, t2 in zip(times, times[1:]))]
        for t in [*readings, times[-1] + 1.0, math.inf]:
            table = full_table(history, t)
            shown = {d: tuple(dict.fromkeys(key[i] for key, _ in table.rows)) for i, d in enumerate(table.detectors)}
            assert outcome_labels_at(history, t) == shown, t


@given(seed=st.integers(0, 2**32 - 1), t=st.floats(-2, 6))
@settings(max_examples=25, deadline=None)
def test_full_table_rows_sum_to_one_in_every_regime(seed, t):
    rng = np.random.default_rng(seed)
    sample = random_scenario(rng, events_range=(1, 2))
    history = build_history(sample.psi0, sample.t0, sample.h_system, sample.schedule)
    assert abs(full_table(history, t).total - 1.0) < 1e-12


def test_full_table_sums_to_one_when_a_later_kraus_targets_a_record():
    # A Kraus on an earlier record can move its weight back into the ready slot.
    for seed in range(12):
        sample = random_wide_scenario(np.random.default_rng([seed, 4]))
        history = build_history(sample.psi0, sample.t0, sample.h_system, sample.schedule)
        times = sample.schedule.times
        readings = [times[0] - 0.5, *((t1 + t2) / 2 for t1, t2 in zip(times, times[1:])), times[-1] + 1.0]
        for t in readings:
            assert abs(full_table(history, t).total - 1.0) < 1e-12


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_marginal_equals_sum_of_joints(seed):
    rng = np.random.default_rng(seed)
    sample = random_scenario(rng, events_range=(2, 2))
    history = build_history(sample.psi0, sample.t0, sample.h_system, sample.schedule)
    t = sample.schedule.times[-1] + 0.5
    first, second = sample.schedule.detector_labels
    second_labels = sample.schedule.detector(second).kraus.outcome_labels
    for outcome in sample.schedule.detector(first).kraus.outcome_labels:
        lhs = marginal(history, OutcomeQuery({first: outcome}, t))
        rhs = sum(
            joint(history, OutcomeQuery({first: outcome, second: other}, t))
            for other in second_labels
        )
        assert abs(lhs - rhs) < 1e-12


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_chain_consistency(seed):
    rng = np.random.default_rng(seed)
    sample = random_scenario(rng, events_range=(2, 2))
    history = build_history(sample.psi0, sample.t0, sample.h_system, sample.schedule)
    t = sample.schedule.times[-1] + 0.5
    first, second = sample.schedule.detector_labels
    for assignment in all_assignments(sample.schedule):
        target = {second: assignment[second]}
        given_part = {first: assignment[first]}
        base = marginal(history, OutcomeQuery(given_part, t))
        if base < 1e-12:
            continue
        product = conditional(history, target, given_part, t) * base
        assert abs(product - joint(history, OutcomeQuery(assignment, t))) < 1e-12


def density_matrix(state):
    """|psi><psi| of a normalized state, checked to be a trace-one projector."""
    rho = np.outer(state.amplitudes, state.amplitudes.conj())
    assert abs(np.trace(rho) - 1.0) < 1e-12 and np.allclose(rho @ rho, rho, atol=1e-12)
    return rho


def _trace_rule_pairs(history, t):
    """(table value, tr(rho Pi)) for every full_table row, Pi the embedded record projector."""
    rho = density_matrix(state_at(history, t))
    table = full_table(history, t)
    for combo, value in table.rows:
        projector = None
        for label, outcome in zip(table.detectors, combo):
            det = history.schedule.detector(label)
            record = det.record_state(outcome).amplitudes
            factor = Operator(det.ancilla_layout, np.outer(record, record.conj()))
            projector = factor if projector is None else tensor(projector, factor)
        yield value, np.trace(rho @ embed(projector, table.detectors, history.layout).matrix).real


def test_joint_agrees_with_trace_rule():
    # One event: the assignment weight equals tr(rho Pi) with the record
    # projector embedded on the full layout.
    rng = np.random.default_rng(30)
    sample = random_scenario(rng, events_range=(1, 1))
    history = build_history(sample.psi0, sample.t0, sample.h_system, sample.schedule)
    t = sample.schedule.times[-1] + 1.0
    label = sample.schedule.detector_labels[0]
    det = sample.schedule.detector(label)
    rho = density_matrix(state_at(history, t))
    for outcome in det.kraus.outcome_labels:
        record = det.record_state(outcome)
        projector = np.outer(record.amplitudes, record.amplitudes.conj())
        effect = embed(Operator(det.ancilla_layout, projector), [label], history.layout)
        via_trace = np.trace(rho @ effect.matrix).real
        via_joint = joint(history, OutcomeQuery({label: outcome}, t))
        assert abs(via_trace - via_joint) < 1e-12

    # Every full_table row, in every regime, on the Wigner history (a record
    # measured by a later detector) and on two events under a nonzero H.
    a, b = random_unit_pair(rng)
    alpha, beta = random_unit_pair(rng)
    sample = random_scenario(rng, events_range=(2, 2))
    assert np.max(np.abs(sample.h_system.matrix)) > 0
    histories = (
        wigner_history(a, b, alpha, beta),
        build_history(sample.psi0, sample.t0, sample.h_system, sample.schedule),
    )
    for history in histories:
        first, second = history.schedule.times
        for t in (first - 0.3, (first + second) / 2, second + 1.7):
            pairs = list(_trace_rule_pairs(history, t))
            assert pairs
            for via_table, via_trace in pairs:
                assert abs(via_table - via_trace) < 1e-12


def test_twenty_repeated_projective_measurements_match_the_closed_form():
    # A qubit a|up> + b|down> with H = 0, measured 20 times in the same basis.
    # Stored anchors need at most 2 * 2**20 amplitudes; the whole ancillas would
    # need 2 * 3**20.  Every record repeats the first outcome.
    a, b = 0.6, 0.8j
    S = SubsystemLayout.of(("S", 2))
    updown = KrausSet((("up", Operator(S, [[1, 0], [0, 0]])), ("down", Operator(S, [[0, 0], [0, 1]]))))
    labels = [f"M{k}" for k in range(1, 21)]
    schedule = EventSchedule(tuple((float(k), DetectorModel(label, updown)) for k, label in enumerate(labels, 1)))
    history = build_history(StateVector(S, [a, b]), 0.0, Operator(S, np.zeros((2, 2))), schedule)
    assert history.anchors[-1].layout.dim == 2 * 2**20

    def all_show(label, t=25.0):
        return joint(history, OutcomeQuery({d: label for d in labels}, t))

    assert all_show("up") == pytest.approx(abs(a) ** 2, abs=1e-12)
    assert all_show("down") == pytest.approx(abs(b) ** 2, abs=1e-12)
    mixed = {d: ("up" if k % 2 else "down") for k, d in enumerate(labels)}
    assert joint(history, OutcomeQuery(mixed, 25.0)) == 0.0
    assert joint(history, OutcomeQuery({**mixed, "M1": "up", "M2": "up"}, 25.0)) == 0.0
    assert marginal(history, OutcomeQuery({"M7": "up"}, 25.0)) == pytest.approx(abs(a) ** 2, abs=1e-12)
    # Between events 10 and 11 the later detectors are ready.
    first_ten = {d: ("up" if k < 10 else "r") for k, d in enumerate(labels)}
    assert joint(history, OutcomeQuery(first_ten, 10.5)) == pytest.approx(abs(a) ** 2, abs=1e-12)
    assert marginal(history, OutcomeQuery({"M11": "up"}, 10.5)) == 0.0
    assert marginal(history, OutcomeQuery({"M11": "r"}, 10.5)) == pytest.approx(1.0, abs=1e-12)


def test_full_table_at_infinite_clock_readings():
    rng = np.random.default_rng(31)
    sample = random_scenario(rng, events_range=(2, 2))
    history = build_history(sample.psi0, sample.t0, sample.h_system, sample.schedule)
    after = full_table(history, sample.schedule.times[-1] + 1.0)
    at_inf = full_table(history, math.inf)
    assert [key for key, _ in at_inf.rows] == [key for key, _ in after.rows]
    for (_, got), (_, expected) in zip(at_inf.rows, after.rows):
        assert got == pytest.approx(expected, abs=1e-15)
    assert full_table(history, -math.inf).rows == ((("r", "r"), pytest.approx(1.0, abs=1e-14)),)


def test_nan_clock_reading_is_a_domain_error():
    history = wigner_history(0.6, 0.8, 0.8, 0.6)
    nan = float("nan")
    with pytest.raises(DomainError):
        full_table(history, nan)
    with pytest.raises(DomainError):
        joint(history, OutcomeQuery({"F": "up", "W": "yes"}, nan))
    with pytest.raises(DomainError):
        marginal(history, OutcomeQuery({"W": "yes"}, nan))
    with pytest.raises(DomainError):
        conditional(history, {"F": "up"}, {"W": "yes"}, nan)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_probability_table_rejects_non_finite_rows(value):
    with pytest.raises(DomainError, match="non-finite"):
        ProbabilityTable(("M",), ((("up",), 0.5), (("down",), value)), 1.0)
