import warnings

import numpy as np
import pytest

from qtimeline.hilbert import DomainError, Operator, SubsystemLayout
from qtimeline.instrument import validate
from qtimeline.timeline import ScheduleError, state_at
from qtimeline.wigner import (
    FRIEND,
    WIGNER,
    WignerScenario,
    build,
    friend_detector,
    tables,
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
    near = 0.707106781187  # norm about 1 + 6.4e-13, inside StateVector.is_normalized
    exact = 2**-0.5
    late = tables(WignerScenario(a=near, b=near, alpha=1.0, beta=0.0), 3.0)
    reference = tables(WignerScenario(a=exact, b=exact, alpha=1.0, beta=0.0), 3.0)
    for name in ("joint", "marginal_w", "marginal_f", "cond_w_given_f", "cond_f_given_w"):
        np.testing.assert_allclose(getattr(late, name).weights, getattr(reference, name).weights, rtol=0, atol=1e-12)


def test_shipped_detectors_are_complete():
    assert validate(friend_detector().kraus).max_deviation < 1e-12
    rng = np.random.default_rng(12)
    for _ in range(5):
        alpha, beta = random_unit_pair(rng)
        assert validate(wigner_detector(alpha, beta).kraus).max_deviation < 1e-12


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
