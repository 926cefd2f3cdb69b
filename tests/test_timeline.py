import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qtimeline.timeline
from qtimeline.hilbert import (
    DomainError,
    LayoutError,
    Operator,
    StateVector,
    SubsystemLayout,
    propagator,
)
from qtimeline.instrument import DetectorModel, KrausSet, apply_instrument
from qtimeline.sampling import (
    random_complete_kraus,
    random_hermitian,
    random_record_scenario,
    random_scenario,
    random_state,
    random_wide_scenario,
)
from qtimeline.timeline import (
    MAX_DENSE_DIM,
    EventSchedule,
    HistoryState,
    ScheduleError,
    _evolve,
    build_history,
    constraint_residual,
    history_layout,
    start_time,
    state_at,
)
from qtimeline.wigner import WignerScenario, build as build_wigner

from helpers import expm_series
from reference import basis_state, embed

S = SubsystemLayout.of(("S", 2))
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def projective_detector(label="M"):
    return DetectorModel(
        label,
        KrausSet(
            (
                ("up", Operator(S, [[1, 0], [0, 0]])),
                ("down", Operator(S, [[0, 0], [0, 1]])),
            )
        ),
    )


def test_schedule_requires_strictly_increasing_times():
    det = projective_detector
    with pytest.raises(ScheduleError):
        EventSchedule(((2.0, det("A")), (1.0, det("B"))))
    with pytest.raises(ScheduleError):
        EventSchedule(((1.0, det("A")), (1.0, det("B"))))
    for bad in (math.nan, math.inf, -math.inf, True, np.True_, "1.5", 1 + 0j, None):
        with pytest.raises(ScheduleError):
            EventSchedule(((bad, det("A")),))


def test_schedule_takes_numpy_times_and_a_wigner_scenario_refuses_a_bool_or_str_time():
    det = projective_detector
    times = EventSchedule(((np.int64(1), det("A")), (np.float32(2.5), det("B")))).times
    assert times == (1.0, 2.5) and all(type(t) is float for t in times)
    with pytest.raises(ScheduleError, match="^event time True is not a real number$"):
        WignerScenario(0.6, 0.8, 1, 0, t_m=True, t_n=2)
    with pytest.raises(ScheduleError, match="^event time '2' is not a real number$"):
        WignerScenario(0.6, 0.8, 1, 0, t_m=1, t_n="2")


def test_empty_schedule_is_pure_free_evolution():
    rng = np.random.default_rng(0)
    h = random_hermitian(rng, S)
    psi0 = random_state(rng, S)
    history = build_history(psi0, 0.0, h, EventSchedule(()))
    assert len(history.anchors) == 1 and history.schedule.times == ()
    assert history.segment_at(-1e300) == history.segment_at(1e300) == 0
    assert history.anchor_time(0) == 0.0
    for t in (-2.0, 0.0, 1.7):
        expected = expm_series(-1j * np.asarray(h.matrix) * t) @ psi0.amplitudes
        np.testing.assert_allclose(state_at(history, t).amplitudes, expected, atol=1e-12)


def test_single_event_three_case_structure():
    # One measurement splits the line into ready-state and recorded regimes.
    rng = np.random.default_rng(1)
    h = random_hermitian(rng, S)
    psi0 = random_state(rng, S)
    det = projective_detector("M")
    t_m = 1.0
    history = build_history(psi0, 0.0, h, EventSchedule(((t_m, det),)))
    h_mat = np.asarray(h.matrix)

    t_before = 0.4
    expected_before = np.kron(expm_series(-1j * h_mat * t_before) @ psi0.amplitudes, [1, 0, 0])
    np.testing.assert_allclose(state_at(history, t_before).amplitudes, expected_before, atol=1e-12)

    t_after = 2.3
    psi_tm = expm_series(-1j * h_mat * t_m) @ psi0.amplitudes
    u_after = expm_series(-1j * h_mat * (t_after - t_m))
    expected_after = np.zeros(6, dtype=complex)
    for k_mat, record in ((np.diag([1, 0]), [0, 1, 0]), (np.diag([0, 1]), [0, 0, 1])):
        expected_after += np.kron(u_after @ k_mat @ psi_tm, record)
    np.testing.assert_allclose(state_at(history, t_after).amplitudes, expected_after, atol=1e-12)


def test_wigner_segment_anchors():
    rng = np.random.default_rng(4)
    z = rng.normal(size=4) + 1j * rng.normal(size=4)
    a, b = z[:2] / np.linalg.norm(z[:2])
    alpha, beta = z[2:] / np.linalg.norm(z[2:])
    history = build_wigner(WignerScenario(a=a, b=b, alpha=alpha, beta=beta, t_m=1.0, t_n=2.0))
    assert history.schedule.times == (1.0, 2.0)
    assert [history.anchor_time(k) for k in range(3)] == [0.0, 1.0, 2.0]

    # between measurements: a|up,up> + b|down,down> with the last ancilla ready
    mid = state_at(history, 1.5).amplitudes.reshape(2, 3, 3)
    expected_mid = np.zeros((2, 3, 3), dtype=complex)
    expected_mid[0, 1, 0] = a
    expected_mid[1, 2, 0] = b
    np.testing.assert_allclose(mid, expected_mid, atol=1e-12)

    # after both: branch amplitudes written against the entangled yes/no vectors
    yes_vec = np.zeros(6, dtype=complex)
    yes_vec[1], yes_vec[5] = alpha, beta
    no_vec = np.zeros(6, dtype=complex)
    no_vec[1], no_vec[5] = -np.conj(beta), np.conj(alpha)
    sf = np.zeros(6, dtype=complex)
    sf[1], sf[5] = a, b
    expected_end = np.kron(np.outer(yes_vec, yes_vec.conj()) @ sf, [0, 1, 0])
    expected_end += np.kron(np.outer(no_vec, no_vec.conj()) @ sf, [0, 0, 1])
    np.testing.assert_allclose(state_at(history, 2.5).amplitudes, expected_end, atol=1e-12)


def test_state_constant_within_segments_for_zero_hamiltonian():
    history = build_wigner(WignerScenario(a=0.6, b=0.8, alpha=1.0, beta=0.0))
    for t1, t2 in ((1.0, 1.999), (2.0, 50.0), (-5.0, 0.999)):
        np.testing.assert_allclose(
            state_at(history, t1).amplitudes, state_at(history, t2).amplitudes, atol=1e-14
        )


def spectral_evolve(h, state, t, t_from):
    """The flow as the spectral formula gives it, for a zero generator too."""
    w, v, v_dag, _ = h._spectrum
    rows = state.amplitudes.reshape(h.layout.dim, -1)
    return ((v * np.exp(w * (-1j * (t - t_from)))) @ v_dag @ rows).reshape(-1)


@pytest.mark.parametrize("sampler", [random_scenario, random_record_scenario])
def test_a_zero_generator_moves_no_amplitudes_and_agrees_with_the_spectral_formula(sampler, monkeypatch):
    rng = np.random.default_rng(31)
    for _ in range(12):
        sample = sampler(rng)
        h0 = Operator(sample.psi0.layout, np.zeros((sample.psi0.layout.dim,) * 2))
        history = build_history(sample.psi0, sample.t0, h0, sample.schedule)
        for k, anchor in enumerate(history.anchors):
            t_k = history.anchor_time(k)
            for t in (t_k, t_k + 0.25, t_k - 3.0, 1e300):
                assert _evolve(h0, anchor, t, t_k) is anchor.amplitudes
                assert np.array_equal(anchor.amplitudes, spectral_evolve(h0, anchor, t, t_k))
        with monkeypatch.context() as patched:  # the same build with every flow a matrix product
            patched.setattr(qtimeline.timeline, "_evolve", spectral_evolve)
            reference = build_history(sample.psi0, sample.t0, h0, sample.schedule)
        for anchor, expected in zip(history.anchors, reference.anchors, strict=True):
            assert anchor.layout == expected.layout
            assert np.array_equal(anchor.amplitudes, expected.amplitudes)


@pytest.mark.parametrize("t, t_from, interval", [(math.inf, 0.0, "inf"), (1e308, -1e308, "inf"),
                                                 (-math.inf, 1.0, "-inf"), (math.inf, math.inf, "nan")])
def test_a_zero_generator_still_refuses_a_non_finite_interval(t, t_from, interval):
    h0 = Operator(S, np.zeros((2, 2)))
    message = f"propagator phase w*dt is not finite: interval {interval}, largest |w| 0.0"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        _evolve(h0, basis_state(S, 0), t, t_from)


def test_half_open_convention_at_event_time():
    history = build_wigner(WignerScenario(a=0.6, b=0.8, alpha=1.0, beta=0.0, t_m=1.0, t_n=2.0))
    assert history.segment_at(1.0) == 1 and history.segment_at(1.0 - 1e-9) == 0
    # at the event the friend's record is written: 0.6|up,up,r> + 0.8|down,down,r>
    recorded = np.zeros((2, 3, 3), dtype=complex)
    recorded[0, 1, 0], recorded[1, 2, 0] = 0.6, 0.8
    np.testing.assert_allclose(state_at(history, 1.0).amplitudes, recorded.reshape(-1), atol=1e-14)
    # just before it both detectors are ready: (0.6|up> + 0.8|down>)|r,r>
    ready = np.zeros((2, 3, 3), dtype=complex)
    ready[0, 0, 0], ready[1, 0, 0] = 0.6, 0.8
    np.testing.assert_allclose(state_at(history, 1.0 - 1e-9).amplitudes, ready.reshape(-1), atol=1e-14)


def test_segment_boundary_consistency():
    rng = np.random.default_rng(9)
    lay = SubsystemLayout.of(("S", 3))
    h = random_hermitian(rng, lay)
    psi0 = random_state(rng, lay)
    detectors = [DetectorModel(f"D{k}", random_complete_kraus(rng, lay, 2)) for k in (1, 2)]
    schedule = EventSchedule(((1.0, detectors[0]), (2.0, detectors[1])))
    history = build_history(psi0, 0.0, h, schedule)

    for k, (t_k, det) in enumerate(schedule.events):
        left = state_at(history, t_k - 1e-12)  # left limit within previous segment
        # Drop the ready axes of this detector and the later ones, transport the
        # tiny remaining step exactly, then record.
        later = tuple(d.record_index(d.ready_label) for _, d in schedule.events[k:])
        fired = SubsystemLayout(left.layout.factors[: 1 + k])
        evolved = StateVector(fired, left.as_tensor()[(slice(None),) * (1 + k) + later].reshape(-1))
        evolved = embed(propagator(history.h_system, 1e-12, 0.0), ("S",), fired).apply(evolved)
        branches = apply_instrument(evolved, det).as_tensor()
        # Write the appended outcome slots at their ancilla indices, later detectors ready.
        pushed = np.zeros(history.layout.dims, dtype=complex)
        for position, label in enumerate(det.kraus.outcome_labels):
            pushed[(...,) + (det.record_index(label),) + later[1:]] = branches[..., position]
        np.testing.assert_allclose(pushed.reshape(-1), state_at(history, t_k).amplitudes, atol=1e-10)


def test_anchor_stores_the_fired_records_only():
    # Anchor k holds the system and one record per fired detector: n_out slots,
    # or the whole n_out + 1 ancilla once a Kraus of an event up to k acts on it.
    samples = [build_wigner(WignerScenario(a=0.6, b=0.8, alpha=0.8, beta=0.6))]
    for seed in range(12):
        sample = random_wide_scenario(np.random.default_rng([seed, 4]))
        samples.append(build_history(sample.psi0, sample.t0, sample.h_system, sample.schedule))
    assert [anchor.layout.dim for anchor in samples[0].anchors] == [2, 2 * 2, 2 * 3 * 2]
    wide = 0
    for history in samples:
        system = history.h_system.layout
        events = history.schedule.events
        for k, anchor in enumerate(history.anchors):
            acted_on = {label for _, det in events[:k] for label in det.kraus.target_labels}
            records = tuple(
                (det.detector_label, det.ancilla_dim - (det.detector_label not in acted_on)) for _, det in events[:k]
            )
            assert anchor.layout == SubsystemLayout(system.factors + records)
            wide += any(det.ancilla_dim == dim for (_, det), (_, dim) in zip(events, records))
    assert wide  # some draw keeps a whole record


def test_record_weights_are_the_anchor_weights_summed_over_the_system():
    # One axis per scheduled detector, keyed by label: every listed entry is the
    # reference weight at its ancilla index, and every ready slot left out is empty.
    for seed in range(12):
        sample = random_wide_scenario(np.random.default_rng([seed, 4]))
        history = build_history(sample.psi0, sample.t0, sample.h_system, sample.schedule)
        system = sample.h_system.layout
        detectors = [det for _, det in sample.schedule.events]
        for k in range(len(history.anchors)):
            table = history.records(k)
            assert history.records(k) is table  # formed once, on first read
            labels, weights = table.labels, table.weights
            stored = (np.abs(history.anchors[k].as_tensor()) ** 2).sum(axis=tuple(range(len(system.factors))))
            # The stored records written into whole ancillas by record_index, unfired ones ready.
            index = []
            for axis, det in enumerate(detectors):
                if axis >= k:
                    index.append([det.record_index(det.ready_label)])
                elif stored.shape[axis] == det.ancilla_dim:
                    index.append(range(det.ancilla_dim))
                else:
                    index.append([det.record_index(label) for label in det.kraus.outcome_labels])
            reference = np.zeros([det.ancilla_dim for det in detectors])
            reference[np.ix_(*index)] = stored.reshape([len(i) for i in index])
            assert weights.shape == tuple(len(shown) for shown in labels)
            for position in np.ndindex(weights.shape):
                key = tuple(shown[i] for shown, i in zip(labels, position))
                full_index = tuple(det.record_index(label) for det, label in zip(detectors, key))
                assert weights[position] == reference[full_index]
            for axis, det in enumerate(detectors):
                if det.ready_label not in labels[axis]:
                    assert not reference.take(det.record_index(det.ready_label), axis=axis).any()
            with pytest.raises(ValueError):
                weights[(0,) * weights.ndim] = 0.5


def test_history_refuses_an_anchor_that_is_not_normalized():
    history = build_wigner(WignerScenario(a=0.6, b=0.8, alpha=0.8, beta=0.6))
    fields = (history.h_system, history.schedule, history.t0)
    HistoryState(*fields, history.anchors)  # the built anchors pass
    off = history.anchors[1]
    anchors = (history.anchors[0], StateVector(off.layout, off.amplitudes * (1 + 1e-9)), history.anchors[2])
    with pytest.raises(DomainError, match="normalized"):
        HistoryState(*fields, anchors)


@pytest.mark.parametrize("k, after", [(0, "initial state"), (1, "after detector 'F'"), (2, "after detector 'W'")])
def test_the_refusal_names_the_first_anchor_off_the_unit_norm(k, after):
    history = build_wigner(WignerScenario(a=0.6, b=0.8, alpha=0.8, beta=0.6))
    anchors = list(history.anchors)
    for j in range(k, len(anchors)):
        anchors[j] = StateVector(anchors[j].layout, anchors[j].amplitudes * (1 + 1e-9))
    with pytest.raises(DomainError) as refused:
        HistoryState(history.h_system, history.schedule, history.t0, tuple(anchors))
    assert str(refused.value) == (f"anchor states must be normalized: anchor {k} ({after}) has norm "
                                  f"{anchors[k].norm!r}, more than 1e-12 from 1")


def test_a_family_complete_to_its_tolerance_can_still_leave_an_anchor_off_the_unit_norm():
    # sqrt(1 + 2e-11) I deviates from completeness by 2e-11 <= TOL_PREDICATE, so DetectorModel accepts it,
    # but it scales the anchor after it to norm 1 + 1e-11, past TOL_EQUALITY: build_history names that anchor.
    scaled = Operator(S, math.sqrt(1 + 2e-11) * np.eye(2))
    schedule = EventSchedule(((1.0, DetectorModel("D", KrausSet((("seen", scaled),)))),))
    with pytest.raises(DomainError) as refused:
        build_history(StateVector(S, [1, 0]), 0.0, Operator(S, np.zeros((2, 2))), schedule)
    assert str(refused.value) == ("anchor states must be normalized: anchor 1 (after detector 'D') has norm "
                                  "1.00000000001, more than 1e-12 from 1")


def test_history_refuses_an_anchor_count_other_than_events_plus_one():
    history = build_wigner(WignerScenario(a=0.6, b=0.8, alpha=0.8, beta=0.6))
    with pytest.raises(DomainError, match=r"anchor count must be event count \+ 1"):
        HistoryState(history.h_system, history.schedule, history.t0, history.anchors[:-1])


@pytest.mark.parametrize("seed", range(4))
def test_a_history_derives_its_full_layout_from_its_system_and_schedule(seed):
    sample = random_wide_scenario(np.random.default_rng([seed, 18]))
    history = build_history(sample.psi0, sample.t0, sample.h_system, sample.schedule)
    assert history.layout == history_layout(sample.psi0.layout, sample.schedule)
    rebuilt = HistoryState(history.h_system, history.schedule, history.t0, history.anchors)
    assert rebuilt.layout == history.layout
    for t in (history.t0, *history.schedule.times, history.schedule.times[-1] + 1.0):
        state = state_at(rebuilt, t)
        assert state.layout == history.layout
        np.testing.assert_array_equal(state.amplitudes, state_at(history, t).amplitudes)
    with pytest.raises(TypeError):  # the layout is derived, never given
        HistoryState(history.layout, history.h_system, history.schedule, history.t0, history.anchors)


@pytest.mark.parametrize("moves_ready_weight", [False, True], ids=["keeps-ready-slot", "moves-ready-slot"])
def test_kraus_on_a_later_record_fails_before_allocating(moves_ready_weight):
    # D1 fires at t=1 with a Kraus on S and on the record of D2, which fires at t=2.
    targets = SubsystemLayout.of(("S", 2), ("D2", 3))
    on_record = np.roll(np.eye(3), 1, axis=0) if moves_ready_weight else np.eye(3)
    kraus = KrausSet(
        (
            ("up", Operator(targets, np.kron([[1, 0], [0, 0]], on_record))),
            ("down", Operator(targets, np.kron([[0, 0], [0, 1]], on_record))),
        )
    )
    schedule = EventSchedule(((1.0, DetectorModel("D1", kraus)), (2.0, projective_detector("D2"))))
    message = "detector 'D1' acts on factor \\('D2', 3\\), which is neither a system factor nor the record"
    with pytest.raises(LayoutError, match=message):
        history_layout(S, schedule)
    tracemalloc.start()
    try:
        with pytest.raises(LayoutError, match=message):
            build_history(basis_state(S, 0), 0.0, Operator(S, np.zeros((2, 2))), schedule)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_state_at_refuses_a_full_layout_over_the_limit():
    # Sixteen binary detectors on a qubit: anchors of at most 2 * 2**16 amplitudes,
    # but the full layout has 2 * 3**16, over the limit.
    schedule = EventSchedule(tuple((float(k), projective_detector(f"M{k}")) for k in range(1, 17)))
    history = build_history(basis_state(S, 0), 0.0, Operator(S, np.zeros((2, 2))), schedule)
    assert max(anchor.layout.dim for anchor in history.anchors) == 2 * 2**16
    assert history.layout.dim == 2 * 3**16 > MAX_DENSE_DIM
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="exceeds the limit"):
            state_at(history, 20.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@given(t=st.floats(-50, 50))
@settings(max_examples=60, deadline=None)
def test_every_time_falls_in_exactly_one_segment(t):
    history = build_wigner(WignerScenario(a=0.6, b=0.8, alpha=0.8, beta=0.6, t_m=1.0, t_n=2.0))
    k = history.segment_at(t)
    if k > 0:  # segment 0 is open to -inf, so t may precede t0
        assert history.anchor_time(k) <= t
    if k < len(history.schedule):
        assert t < history.schedule.times[k]


@given(seed=st.integers(0, 2**32 - 1), t=st.floats(-10, 10))
@settings(max_examples=40, deadline=None)
def test_norm_is_conserved_everywhere(seed, t):
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, S)
    psi0 = random_state(rng, S)
    history = build_history(psi0, 0.0, h, EventSchedule(((1.0, projective_detector()),)))
    assert abs(state_at(history, t).norm - 1.0) < 1e-12


def test_build_history_rejects_bad_inputs():
    psi0 = basis_state(S, 0)
    h = Operator(S, np.zeros((2, 2)))
    sched = EventSchedule(((1.0, projective_detector("M"),),))
    with pytest.raises(ScheduleError):
        build_history(psi0, 1.0, h, sched)  # t0 not before first event
    for t0 in (math.nan, math.inf, -math.inf):
        with pytest.raises(ScheduleError):
            build_history(psi0, t0, h, EventSchedule(()))  # no event bounds t0
    with pytest.raises(DomainError):
        build_history(StateVector(S, [1, 1]), 0.0, h, sched)  # not normalized
    with pytest.raises(DomainError):
        build_history(psi0, 0.0, Operator(S, [[0, 1], [0, 0]]), sched)  # not Hermitian
    with pytest.raises(LayoutError, match="initial state's layout"):
        build_history(psi0, 0.0, Operator(SubsystemLayout.of(("T", 2)), np.zeros((2, 2))), sched)
    with pytest.raises(LayoutError):
        build_history(psi0, 0.0, h, EventSchedule(((1.0, projective_detector("S")),)))


@pytest.mark.parametrize(
    "t0, times, expected",
    [(None, (), 0.0), (None, (1.0,), 0.0), (None, (-1e17,), math.nextafter(-1e17, -math.inf)), (-2.5, (1.0,), -2.5),
     (5.0, (), 5.0)],
    ids=["default-no-events", "default", "default-beyond-2-pow-53", "given", "given-no-events"],
)
def test_start_time_is_the_given_start_or_the_default(t0, times, expected):
    schedule = EventSchedule(tuple((t, projective_detector(f"M{k}")) for k, t in enumerate(times)))
    assert start_time(t0, schedule) == expected


@pytest.mark.parametrize(
    "t0, times, message",
    [
        (None, (-np.finfo(float).max,), r"no finite t0 precedes the first event at -1\.79"),
        (math.nan, (), r"t0=nan must be finite"),
        (-math.inf, (1.0,), r"t0=-inf must be finite"),
        (1.0, (1.0,), r"t0=1.0 must precede the first event at 1.0"),
    ],
    ids=["no-finite-default", "nan", "infinite", "not-before-the-first-event"],
)
def test_start_time_refuses_a_start_that_is_not_finite_or_not_first(t0, times, message):
    schedule = EventSchedule(tuple((t, projective_detector(f"M{k}")) for k, t in enumerate(times)))
    with pytest.raises(ScheduleError, match=f"^{message}"):
        start_time(t0, schedule)


def test_a_detector_that_targets_its_own_record_is_refused_by_the_reachability_rule():
    # Its record is written when it fires, so it is not "the record of a detector fired before it".
    targets = SubsystemLayout.of(("S", 2), ("M", 3))
    kraus = KrausSet(
        (
            ("up", Operator(targets, np.kron([[1, 0], [0, 0]], np.eye(3)))),
            ("down", Operator(targets, np.kron([[0, 0], [0, 1]], np.eye(3)))),
        )
    )
    schedule = EventSchedule(((1.0, DetectorModel("M", kraus)),))
    message = r"^detector 'M' acts on factor \('M', 3\), which is neither a system factor nor the record of a detector"
    with pytest.raises(LayoutError, match=message):
        build_history(basis_state(S, 0), 0.0, Operator(S, np.zeros((2, 2))), schedule)


def test_detector_label_collision_between_events():
    sched = EventSchedule(((1.0, projective_detector("M")), (2.0, projective_detector("M"))))
    with pytest.raises(LayoutError):
        build_history(basis_state(S, 0), 0.0, Operator(S, np.zeros((2, 2))), sched)


def test_constraint_residual_zero_hamiltonian():
    history = build_wigner(WignerScenario(a=0.6, b=0.8, alpha=1.0, beta=0.0))
    assert constraint_residual(history, 1.5, 1e-4) < 1e-14


def test_constraint_residual_second_order_bound():
    # Residual of the symmetric difference obeys ||H^3 psi|| dt^2 / 6 up to
    # higher-order terms.
    psi0 = StateVector(S, np.array([1, 1j]) / np.sqrt(2))
    h = Operator(S, SIGMA_Z)
    history = build_history(psi0, 0.0, h, EventSchedule(((1.0, projective_detector()),)))
    dt = 1e-4
    t = 0.5
    residual = constraint_residual(history, t, dt)
    psi_t = state_at(history, t).amplitudes
    h_full = np.kron(SIGMA_Z, np.eye(3))
    bound = np.linalg.norm(np.linalg.matrix_power(h_full, 3) @ psi_t) * dt**2 / 6
    assert residual < 1e-6
    assert residual <= bound * 1.001 + 1e-12


def test_constraint_residual_rejects_straddling_interval():
    history = build_wigner(WignerScenario(a=0.6, b=0.8, alpha=1.0, beta=0.0, t_m=1.0, t_n=2.0))
    with pytest.raises(DomainError):
        constraint_residual(history, 1.00005, 1e-3)
    with pytest.raises(DomainError):
        constraint_residual(history, 1.0, -1e-4)
    for t in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError):
            constraint_residual(history, t, 1e-4)


def padded_residual(history, t, dt):
    """The residual over full-layout states, as ``state_at`` returns them."""
    plus, minus = state_at(history, t + dt).amplitudes, state_at(history, t - dt).amplitudes
    psi = state_at(history, t)
    h_psi = embed(history.h_system, history.h_system.layout.labels, psi.layout).apply(psi).amplitudes
    return float(np.linalg.norm(1j * (plus - minus) / (2.0 * dt) - h_psi))


def test_constraint_residual_equals_the_full_layout_residual():
    histories = [build_wigner(WignerScenario(a=0.6, b=0.8, alpha=0.8, beta=0.6, t_m=1.0, t_n=2.0))]
    for seed in range(6):
        sample = random_wide_scenario(np.random.default_rng([seed, 5]))
        histories.append(build_history(sample.psi0, sample.t0, sample.h_system, sample.schedule))
    for history in histories:
        for t in np.arange(len(history.schedule) + 1) + 0.5:
            assert abs(constraint_residual(history, t, 1e-3) - padded_residual(history, t, 1e-3)) <= 1e-12


def test_constraint_residual_of_a_history_whose_full_layout_is_over_the_limit():
    # Sixteen binary detectors on a qubit with nonzero H: the full layout, 2 * 3**16,
    # is over the limit; the last anchor holds 2 * 2**16 amplitudes.
    psi0 = StateVector(S, np.array([1, 1j]) / np.sqrt(2))
    h = Operator(S, [[0.3, 1.0], [1.0, -0.3]])
    schedule = EventSchedule(tuple((float(k), projective_detector(f"M{k}")) for k in range(1, 17)))
    history = build_history(psi0, 0.0, h, schedule)
    assert history.layout.dim > MAX_DENSE_DIM
    dt = 1e-4
    residual = constraint_residual(history, 20.0, dt)
    # ||H^3 psi|| <= ||H||^3 = 1.09**1.5 bounds the leading dt^2 / 6 term.
    assert 0 < residual <= 1.09**1.5 * dt**2 / 6 * 1.001 + 1e-12


def test_state_at_needs_a_finite_clock_reading():
    history = build_wigner(WignerScenario(a=0.6, b=0.8, alpha=0.8, beta=0.6))
    for t in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError):
            state_at(history, t)
    with pytest.raises(DomainError):
        history.segment_at(math.nan)


def test_constraint_residual_never_builds_the_full_hamiltonian():
    # A qubit with six binary detectors has total dimension 2 * 3**6 = 1458;
    # an identity-padded H on it would take 34 MB.
    psi0 = StateVector(S, np.array([1, 1j]) / np.sqrt(2))
    h = Operator(S, [[0.3, 1.0], [1.0, -0.3]])
    schedule = EventSchedule(tuple((float(k), projective_detector(f"M{k}")) for k in range(1, 7)))
    history = build_history(psi0, 0.0, h, schedule)
    assert history.layout.dim == 1458
    tracemalloc.start()
    try:
        residual = constraint_residual(history, 7.5, 1e-4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert residual < 1e-6
    assert peak < 4 * 2**20


def test_build_history_runs_one_eigendecomposition(monkeypatch):
    rng = np.random.default_rng(12)
    layout = SubsystemLayout.of(("S", 2), ("Q", 2))
    h = random_hermitian(rng, layout)
    events = tuple(
        (float(k + 1), DetectorModel(f"D{k}", random_complete_kraus(rng, layout, 2))) for k in range(6)
    )
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(matrix, *args, **kwargs):
        calls.append(matrix.shape)
        return eigh(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    history = build_history(random_state(rng, layout), 0.0, h, EventSchedule(events))
    assert calls == [(4, 4)]
    assert all(anchor.is_normalized for anchor in history.anchors)


def test_too_large_history_fails_before_allocating():
    # Thirty binary detectors on a qubit would need 2 * 3**30 amplitudes.
    psi0 = basis_state(S, 0)
    h = Operator(S, np.zeros((2, 2)))
    schedule = EventSchedule(tuple((float(k), projective_detector(f"M{k}")) for k in range(1, 31)))
    assert 2 * 3**30 > MAX_DENSE_DIM
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="exceeds the limit"):
            build_history(psi0, 0.0, h, schedule)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
