import re
import warnings

import numpy as np
import pytest

import qtimeline.hilbert
import qtimeline.probability
import qtimeline.timeline
import qtimeline.wigner
from qtimeline.hilbert import TOL_EQUALITY, DomainError, Operator, SubsystemLayout, normalized
from qtimeline.instrument import validate
from qtimeline.probability import ConditioningOnNullEvent, ProbabilityTable, full_table
from qtimeline.timeline import ScheduleError, state_at
from qtimeline.wigner import (
    FRIEND,
    WIGNER,
    WignerScenario,
    build,
    friend_detector,
    tables,
    unit_pair,
    wigner_detector,
)

from helpers import (
    closed_form_cond_f_given_w,
    closed_form_cond_w_given_f,
    closed_form_joint,
    closed_form_marginal_f,
    closed_form_marginal_w,
    random_unit_pair,
)
from reference import embed


def test_scenario_validates_normalization_and_ordering():
    with pytest.raises(DomainError):
        WignerScenario(a=1.0, b=1.0, alpha=1.0, beta=0.0)
    with pytest.raises(DomainError):
        WignerScenario(a=1.0, b=0.0, alpha=0.5, beta=0.5)
    with pytest.raises(ScheduleError):
        WignerScenario(a=1.0, b=0.0, alpha=1.0, beta=0.0, t_m=2.0, t_n=1.0)


def test_each_pair_is_refused_by_its_one_unit_rule():
    # (a, b) is the initial state's; (alpha, beta) is the phi of Wigner's state test, judged there once.
    with pytest.raises(DomainError, match=re.escape("amplitudes (a, b) must satisfy |x|^2 + |y|^2 = 1")):
        WignerScenario(a=0.5, b=0.5, alpha=1.0, beta=0.0)
    with pytest.raises(DomainError, match="^phi of state test 'W' is not a unit vector: its norm is not within 1e-12"):
        WignerScenario(a=1.0, b=0.0, alpha=0.5, beta=0.5)


@pytest.mark.parametrize("huge", [1e200, complex(1e308, 1e308)])
@pytest.mark.parametrize("pair", ["a", "alpha"])
def test_an_overflowing_pair_is_a_domain_error(huge, pair):
    params = {"a": 1.0, "b": 0.0, "alpha": 1.0, "beta": 0.0, pair: huge}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DomainError):
            WignerScenario(**params)
    assert caught == []


def test_a_pair_unit_to_twelve_digits_is_accepted_as_state_vectors_accept_it():
    # A near-unit (alpha, beta) must still give a Kraus family complete to rounding;
    # one complete only to about 2.6e-12 makes the last anchor fail its norm check.
    near = 0.707106781187  # (near, near) has norm about 1 + 6.4e-13, inside StateVector.is_normalized
    for params in ((near, near, 1.0, 0.0), (near, near, near, near), (0.6, 0.8, near, near)):
        exact = tuple(2**-0.5 if x == near else x for x in params)
        late, reference = (full_table(build(WignerScenario(*p)), 3.0) for p in (params, exact))
        np.testing.assert_allclose(late.weights, reference.weights, rtol=0, atol=1e-12)
        if params[:2] == params[2:]:
            continue  # (a, b) is Wigner's yes state, so "no" is null and the conditional grids are undefined
        late, reference = (tables(WignerScenario(*p), 3.0) for p in (params, exact))
        for name in ("joint", "marginal_w", "marginal_f", "cond_w_given_f", "cond_f_given_w"):
            late_weights, reference_weights = getattr(late, name).weights, getattr(reference, name).weights
            np.testing.assert_allclose(late_weights, reference_weights, rtol=0, atol=1e-12)


def test_shipped_detectors_are_complete():
    assert validate(friend_detector().kraus).max_deviation < 1e-12
    rng = np.random.default_rng(12)
    for _ in range(5):
        alpha, beta = random_unit_pair(rng)
        assert validate(wigner_detector(alpha, beta).kraus).max_deviation < 1e-12


NEAR = 0.707106781187  # (NEAR, NEAR) has norm about 1 + 6.4e-13, inside StateVector.is_normalized


def test_the_scenario_builds_the_family_wigner_detector_builds():
    rng = np.random.default_rng(23)
    pairs = [random_unit_pair(rng) for _ in range(20)] + [(NEAR, NEAR), (1.0, 0.0), (0.6, 0.8j)]
    for alpha, beta in pairs:
        built = WignerScenario(0.6, 0.8, alpha, beta).schedule.detector(WIGNER)
        public = wigner_detector(alpha, beta)
        assert built.kraus.outcome_labels == public.kraus.outcome_labels == ("yes", "no")
        assert np.array_equal(built.kraus.matrices, public.kraus.matrices)


def test_at_the_tolerance_edge_the_scenario_builds_the_family_wigner_detector_builds():
    """Pairs within four ulp of norm 1 +/- TOL_EQUALITY: for every pair the scenario accepts, ``normalized``
    keeps the pair as given, so the two families agree bit for bit."""
    rng = np.random.default_rng(37)
    accepted = refused = 0
    for alpha, beta in [random_unit_pair(rng) for _ in range(10)]:
        for scale in (edge + k * 2.0**-52 for edge in (1 + TOL_EQUALITY, 1 - TOL_EQUALITY) for k in range(-4, 5)):
            pair = (alpha * scale, beta * scale)
            try:
                built = WignerScenario(0.6, 0.8, *pair).schedule.detector(WIGNER).kraus.matrices
            except DomainError:
                refused += 1
                continue
            accepted += 1
            assert np.array_equal(normalized(pair), pair)
            assert np.array_equal(built, wigner_detector(*pair).kraus.matrices)
    assert accepted > 0 and refused > 0 and accepted + refused == 180


def test_wigner_detector_is_the_unit_pairs_outer_product_and_its_complement():
    rng = np.random.default_rng(29)
    for alpha, beta in [random_unit_pair(rng) for _ in range(20)] + [(NEAR, NEAR), (3.0, 4.0j)]:
        yes = np.zeros(6, dtype=complex)
        yes[[1, 5]] = unit_pair(alpha, beta, "(alpha, beta)")
        k_yes, k_no = wigner_detector(alpha, beta).kraus.matrices
        assert np.array_equal(k_yes, np.outer(yes, yes.conj()))
        assert np.array_equal(k_no, np.eye(6) - np.outer(yes, yes.conj()))


def test_yes_effect_is_the_entangled_projector():
    rng = np.random.default_rng(19)
    alpha, beta = random_unit_pair(rng)
    yes_vec = np.zeros(6, dtype=complex)
    yes_vec[1], yes_vec[5] = alpha, beta
    k_yes = wigner_detector(alpha, beta).kraus.operator_for("yes").matrix
    np.testing.assert_allclose(k_yes.conj().T @ k_yes, np.outer(yes_vec, yes_vec.conj()), atol=1e-12)


def test_build_with_a_equal_one_matches_hand_expansion():
    # Feeding |up> through both measurements: yes branch weight alpha*, no
    # branch weight -beta, written against the entangled yes/no vectors.
    rng = np.random.default_rng(13)
    alpha, beta = random_unit_pair(rng)
    history = build(WignerScenario(a=1.0, b=0.0, alpha=alpha, beta=beta))
    yes_vec = np.zeros(6, dtype=complex)
    yes_vec[1], yes_vec[5] = alpha, beta
    no_vec = np.zeros(6, dtype=complex)
    no_vec[1], no_vec[5] = -np.conj(beta), np.conj(alpha)
    expected = np.kron(np.conj(alpha) * yes_vec, [0, 1, 0]) + np.kron(-beta * no_vec, [0, 0, 1])
    np.testing.assert_allclose(state_at(history, 5.0).amplitudes, expected, atol=1e-12)


def test_completion_subspace_is_never_reached():
    # The no-operator's identity extension lives on the subspace orthogonal to
    # the entangled yes/no span; states reachable just before Wigner's event
    # have no amplitude there.
    rng = np.random.default_rng(14)
    a, b = random_unit_pair(rng)
    alpha, beta = random_unit_pair(rng)
    history = build(WignerScenario(a=a, b=b, alpha=alpha, beta=beta, t_m=1.0, t_n=2.0))
    before = state_at(history, 2.0 - 1e-9)

    yes_vec = np.zeros(6, dtype=complex)
    yes_vec[1], yes_vec[5] = alpha, beta
    no_vec = np.zeros(6, dtype=complex)
    no_vec[1], no_vec[5] = -np.conj(beta), np.conj(alpha)
    complement = np.eye(6) - np.outer(yes_vec, yes_vec.conj()) - np.outer(no_vec, no_vec.conj())
    sf_layout = SubsystemLayout.of(("S", 2), ("F", 3))
    leaked = embed(Operator(sf_layout, complement), sf_layout.labels, before.layout).apply(before)
    assert leaked.norm < 1e-12


def test_tables_match_closed_forms_for_random_draws():
    rng = np.random.default_rng(15)
    for _ in range(20):
        a, b = random_unit_pair(rng)
        alpha, beta = random_unit_pair(rng)
        result = tables(WignerScenario(a=a, b=b, alpha=alpha, beta=beta), 3.0)
        joint_ref = closed_form_joint(a, b, alpha, beta)
        for key, value in joint_ref.items():
            assert abs(result.joint.value(dict(zip((FRIEND, WIGNER), key))) - value) < 1e-12
        for w, value in closed_form_marginal_w(a, b, alpha, beta).items():
            assert abs(result.marginal_w.value({WIGNER: w}) - value) < 1e-12
        for f, value in closed_form_marginal_f(a, b, alpha, beta).items():
            assert abs(result.marginal_f.value({FRIEND: f}) - value) < 1e-12
        for key, value in closed_form_cond_w_given_f(a, b, alpha, beta).items():
            assert abs(result.cond_w_given_f.value(dict(zip((FRIEND, WIGNER), key))) - value) < 1e-12
        for key, value in closed_form_cond_f_given_w(a, b, alpha, beta).items():
            assert abs(result.cond_f_given_w.value(dict(zip((FRIEND, WIGNER), key))) - value) < 1e-12


def test_cond_f_given_w_depends_only_on_measurement_basis():
    rng = np.random.default_rng(16)
    alpha, beta = random_unit_pair(rng)
    values = {("up", "yes"): [], ("down", "yes"): [], ("up", "no"): [], ("down", "no"): []}
    for _ in range(8):
        a, b = random_unit_pair(rng)
        result = tables(WignerScenario(a=a, b=b, alpha=alpha, beta=beta), 3.0)
        for key in values:
            values[key].append(result.cond_f_given_w.value(dict(zip((FRIEND, WIGNER), key))))
    for series in values.values():
        assert max(series) - min(series) < 1e-12


def test_conditional_rows_sum_to_one():
    rng = np.random.default_rng(17)
    a, b = random_unit_pair(rng)
    alpha, beta = random_unit_pair(rng)
    result = tables(WignerScenario(a=a, b=b, alpha=alpha, beta=beta), 3.0)
    for f in ("up", "down"):
        row_w = sum(result.cond_w_given_f.value({FRIEND: f, WIGNER: w}) for w in ("yes", "no"))
        assert abs(row_w - 1.0) < 1e-12
    for w in ("yes", "no"):
        row_f = sum(result.cond_f_given_w.value({FRIEND: f, WIGNER: w}) for f in ("up", "down"))
        assert abs(row_f - 1.0) < 1e-12


def test_tables_are_phase_invariant():
    rng = np.random.default_rng(18)
    a, b = random_unit_pair(rng)
    alpha, beta = random_unit_pair(rng)
    theta, phi = 0.83, -1.91
    base = tables(WignerScenario(a=a, b=b, alpha=alpha, beta=beta), 3.0)
    shifted = tables(
        WignerScenario(
            a=a * np.exp(1j * theta),
            b=b * np.exp(1j * theta),
            alpha=alpha * np.exp(1j * phi),
            beta=beta * np.exp(1j * phi),
        ),
        3.0,
    )
    for name in ("joint", "marginal_w", "marginal_f", "cond_w_given_f", "cond_f_given_w"):
        for (key, value), (key2, value2) in zip(
            getattr(base, name).rows, getattr(shifted, name).rows
        ):
            assert key == key2
            assert abs(value - value2) < 1e-12


def test_tables_before_any_event_are_ready_rows():
    result = tables(WignerScenario(a=0.6, b=0.8, alpha=1.0, beta=0.0), 0.5)
    assert result.joint.rows == ((("r", "r"), pytest.approx(1.0, abs=1e-14)),)
    assert result.marginal_w.rows == ((("r",), pytest.approx(1.0, abs=1e-14)),)
    assert result.cond_w_given_f.rows == ((("r", "r"), pytest.approx(1.0, abs=1e-14)),)


def test_tables_between_events_show_friend_outcomes_only():
    result = tables(WignerScenario(a=0.6, b=0.8, alpha=1.0, beta=0.0), 1.5)
    assert set(result.joint.as_dict()) == {("up", "r"), ("down", "r")}
    assert result.marginal_f.value({FRIEND: "up"}) == pytest.approx(0.36, abs=1e-12)


def test_value_refuses_a_detector_the_table_does_not_have():
    result = tables(WignerScenario(0.6, 0.8, 1, 0), 3.0)
    assert result.joint.value({WIGNER: "yes", FRIEND: "down"}) == 0.0
    with pytest.raises(KeyError, match=r"no detector \['F'\] in table over \('W',\)"):
        result.marginal_w.value({WIGNER: "yes", FRIEND: "down"})


def test_tables_check_only_the_segment_table_and_hold_each_derived_array_without_a_copy(monkeypatch):
    checks, made = [], []
    post_init, derived = ProbabilityTable.__post_init__, ProbabilityTable._derived

    def spy(self, detectors, labels, weights, given):
        made.append((weights, derived(self, detectors, labels, weights, given)))
        return made[-1][1]

    monkeypatch.setattr(ProbabilityTable, "__post_init__", lambda self: checks.append(self) or post_init(self))
    monkeypatch.setattr(ProbabilityTable, "_derived", spy)
    result = tables(WignerScenario(0.6, 0.8, 0.8, 0.6), 3.0)  # a fresh history: its segment table is new
    assert checks == [result.joint]
    assert [table for _, table in made] == [result.marginal_f, result.marginal_w,
                                             result.cond_w_given_f, result.cond_f_given_w]
    assert all(table.weights is weights and not weights.flags.writeable for weights, table in made)


def test_tables_judge_each_given_label_once_in_row_order(monkeypatch):
    judged = []
    real = ProbabilityTable.marginal
    monkeypatch.setattr(ProbabilityTable, "marginal", lambda self, names: judged.append(names) or real(self, names))
    result = tables(WignerScenario(0.6, 0.8, 0.8, 0.6), 3.0)
    # One marginal per given detector, in (f, w) order: the judge reads each given label's weight from it once,
    # and which null label it reports first is pinned by the next test.
    assert judged == [(FRIEND,), (WIGNER,)]
    assert result.marginal_f.labels == (("up", "down"),) and result.marginal_w.labels == (("yes", "no"),)


def test_building_the_history_checks_no_layout_again_and_enters_no_errstate(monkeypatch):
    scenario = WignerScenario(0.6, 0.8, 0.6, 0.8)
    build(scenario)  # the shared generator's spectrum is cached from here on
    checks, errstates = [], []
    post_init, errstate = SubsystemLayout.__post_init__, np.errstate
    monkeypatch.setattr(SubsystemLayout, "__post_init__", lambda self: checks.append(self) or post_init(self))
    monkeypatch.setattr(np, "errstate", lambda **kwargs: errstates.append(kwargs) or errstate(**kwargs))
    history = build(scenario)
    assert checks == [] and errstates == []
    assert history.layout == SubsystemLayout.of(("S", 2), (FRIEND, 3), (WIGNER, 3))
    # A zero generator needs no propagator, and the pair the scenario judged needs no normalizing.
    calls = []
    for module, name in ((qtimeline.hilbert, "_unitary"), (qtimeline.timeline, "_unitary"),
                         (qtimeline.hilbert, "normalized"), (qtimeline.wigner, "normalized")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, real=real, name=name: calls.append(name) or real(*args))
    build(WignerScenario(0.6, 0.8, 0.6, 0.8))
    assert calls == []


@pytest.mark.parametrize(
    "params, given",
    [((1, 0, 1, 0), {WIGNER: "no"}), ((1, 0, 0, 1), {WIGNER: "yes"}), ((0, 1, 1, 0), {FRIEND: "up"})],
)
def test_the_first_null_given_label_in_row_order_is_reported(params, given):
    # (1, 0, 1, 0): F=down is null too, but a row loop over (f, w) meets W=no first.
    message = f"conditioning assignment {given} has probability 0.000e+00 at t=3.0"
    with pytest.raises(ConditioningOnNullEvent, match=f"^{re.escape(message)}$"):
        tables(WignerScenario(*params), 3.0)


def test_each_state_is_judged_unit_once(monkeypatch):
    judged = []
    real = qtimeline.hilbert._is_unit
    monkeypatch.setattr(qtimeline.hilbert, "_is_unit", lambda amplitudes: judged.append(amplitudes) or real(amplitudes))
    tables(WignerScenario(0.6, 0.8, 0.8, 0.6), 3.0)
    # The scenario's (a, b), the test's phi, and the two anchors the build adds; the initial state,
    # anchor 0, keeps the verdict the scenario gave it.
    assert len(judged) == 4
