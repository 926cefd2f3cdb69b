import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtimeline.hilbert import DomainError, LayoutError, Operator, StateVector, SubsystemLayout, _is_unit
from qtimeline.instrument import (
    DetectorModel,
    KrausSet,
    ValidationError,
    apply_instrument,
    state_test,
    validate,
)
from qtimeline.sampling import random_complete_kraus, random_state

from reference import basis_state, completeness_deviation, edge_vectors, embed, tensor

S = SubsystemLayout.of(("S", 2))


def effect(kraus, outcome):
    """The POVM effect K^dag K of one outcome, written out here."""
    k = kraus.operator_for(outcome).matrix
    return k.conj().T @ k


def ready(det):
    return det.record_state(det.ready_label)


def whole_record(state, det):
    """Zero-pad the appended record of ``det`` (outcome slots, Kraus order) into
    its whole ancilla basis, ready slot empty, written out here."""
    tens = state.as_tensor()
    full = np.zeros(tens.shape[:-1] + (det.ancilla_dim,), dtype=complex)
    for position, label in enumerate(det.kraus.outcome_labels):
        full[..., det.record_index(label)] = tens[..., position]
    return StateVector(SubsystemLayout(state.layout.factors[:-1] + det.ancilla_layout.factors), full.reshape(-1))


def projective_updown():
    return KrausSet(
        (
            ("up", Operator(S, [[1, 0], [0, 0]])),
            ("down", Operator(S, [[0, 0], [0, 1]])),
        )
    )


def test_validate_projectors_ok():
    report = validate(projective_updown())
    assert report.ok
    assert report.max_deviation < 1e-14


def test_validate_scaled_identities_ok():
    half = Operator(S, np.eye(2) / np.sqrt(2))
    assert validate(KrausSet((("a", half), ("b", half)))).ok


def test_validate_overcomplete_reports_deviation_one():
    eye = Operator(S, np.eye(2))
    report = validate(KrausSet((("a", eye), ("b", eye))))
    assert not report.ok
    assert report.max_deviation == pytest.approx(1.0)


@pytest.mark.parametrize("dim, n_outcomes", [(2, 1), (2, 3), (3, 2), (4, 4), (6, 2)])
def test_validate_deviation_is_the_reference_deviation_bit_for_bit(dim, n_outcomes):
    rng = np.random.default_rng(dim * 10 + n_outcomes)
    lay = SubsystemLayout.of(("S", dim))
    for _ in range(5):
        kraus = random_complete_kraus(rng, lay, n_outcomes)
        noise = 1e-9 * (rng.normal(size=kraus.matrices.shape) + 1j * rng.normal(size=kraus.matrices.shape))
        perturbed = KrausSet(tuple((label, Operator(lay, k + dk))
                                   for label, k, dk in zip(kraus.outcome_labels, kraus.matrices, noise)))
        for family in (kraus, perturbed):
            assert validate(family).max_deviation == completeness_deviation(family)
        assert validate(perturbed).max_deviation > validate(kraus).max_deviation


def test_validate_refuses_an_overflowing_family_without_a_warning():
    huge = KrausSet((("a", Operator(S, np.full((2, 2), 1e200))), ("b", Operator(S, [[1e200j, 0], [0, 1]]))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = validate(huge)
    assert not report.ok
    assert not report.max_deviation <= 1e-10  # inf or nan


def test_kraus_set_stacks_its_operators_read_only():
    kraus = projective_updown()
    assert kraus.target_labels == ("S",) and kraus.outcome_labels == ("up", "down")
    np.testing.assert_array_equal(kraus.matrices, [op.matrix for _, op in kraus.outcomes])
    with pytest.raises(ValueError):
        kraus.matrices[0, 0, 0] = 0


def test_kraus_set_rejects_duplicate_outcomes_and_mixed_layouts():
    eye = Operator(S, np.eye(2))
    with pytest.raises(ValidationError):
        KrausSet((("a", eye), ("a", eye)))
    other = Operator(SubsystemLayout.of(("X", 2)), np.eye(2))
    with pytest.raises(LayoutError):
        KrausSet((("a", eye), ("b", other)))


def test_kraus_set_needs_an_outcome_and_a_ready_label_of_its_own():
    with pytest.raises(ValidationError, match="at least one outcome"):
        KrausSet(())
    with pytest.raises(ValidationError, match="ready label 'up' collides with an outcome label"):
        DetectorModel("M", projective_updown(), ready_label="up")


LABEL_RULE = "must be non-empty printable text without leading or trailing whitespace or any of = , | @"


@pytest.mark.parametrize(
    "name, outcome, ready_label, refused",
    [
        ("A=B,C", "up", "r", "detector name 'A=B,C'"),
        ("M", "o,0", "r", "outcome label 'o,0'"),
        ("M", "up", " r", "ready label ' r'"),
        ("M", "up", "", "ready label ''"),
        ("", "up", "r", "detector name ''"),
        ("M|N", "up", "r", "detector name 'M|N'"),
        ("M", "up@t", "r", "outcome label 'up@t'"),
        ("M", "up\n", "r", "outcome label 'up\\n'"),
        ("M", "up", "\xa0", "ready label '\\xa0'"),
        (7, "up", "r", "detector name 7"),
        ("M", 1, "r", "outcome label 1"),
    ],
    ids=["separators-in-name", "comma-in-outcome", "padded-ready", "empty-ready", "empty-name", "bar-in-name",
         "at-in-outcome", "newline-in-outcome", "non-printable-ready", "non-string-name", "non-string-outcome"],
)
def test_detector_refuses_a_name_or_label_a_query_cannot_carry(name, outcome, ready_label, refused):
    kraus = KrausSet(((outcome, Operator(S, [[1, 0], [0, 0]])), ("down", Operator(S, [[0, 0], [0, 1]]))))
    with pytest.raises(ValidationError) as err:
        DetectorModel(name, kraus, ready_label=ready_label)
    assert err.value.args[0] == f"{refused} {LABEL_RULE}"


@pytest.mark.parametrize("name", ["A=B,C", "", "M|N", " W", "W@t", 7])
def test_a_state_test_refuses_a_name_a_query_cannot_carry(name):
    with pytest.raises(ValidationError) as err:
        state_test(name, S, [1, 0])
    assert err.value.args[0] == f"detector name {name!r} {LABEL_RULE}"


@pytest.mark.parametrize("label", ["spin up", "größer", "↑", "r 2", "Ω-1", "a.b:c;d"])
def test_detector_accepts_inner_spaces_and_non_ascii_labels(label):
    kraus = KrausSet(((label, Operator(S, [[1, 0], [0, 0]])), ("down", Operator(S, [[0, 0], [0, 1]]))))
    det = DetectorModel(label, kraus, ready_label=f"{label} ready")
    assert det.record_index(label) == 1 and det.record_index(f"{label} ready") == 0


def test_effect_of_projective_case():
    np.testing.assert_allclose(effect(projective_updown(), "up"), [[1, 0], [0, 0]], atol=1e-14)


def test_effect_of_unitary_kraus_is_identity():
    u = Operator(S, np.array([[0, 1], [1, 0]], dtype=complex))
    np.testing.assert_allclose(effect(KrausSet((("only", u),)), "only"), np.eye(2), atol=1e-14)


def test_effect_of_entangled_projector():
    # K = |phi><phi| on a 4-dim joint space gives the same projector as effect.
    lay = SubsystemLayout.of(("S", 2), ("F", 2))
    phi = np.array([0.6, 0, 0, 0.8j])
    k_yes = np.outer(phi, phi.conj())
    k_no = np.eye(4) - k_yes
    kraus = KrausSet((("yes", Operator(lay, k_yes)), ("no", Operator(lay, k_no))))
    np.testing.assert_allclose(effect(kraus, "yes"), k_yes, atol=1e-12)


def test_effect_of_unknown_outcome_raises_keyerror():
    with pytest.raises(KeyError):
        effect(projective_updown(), "sideways")


def test_effects_sum_to_identity_for_random_sets():
    rng = np.random.default_rng(11)
    lay = SubsystemLayout.of(("S", 3))
    kraus = random_complete_kraus(rng, lay, 3)
    total = sum(effect(kraus, label) for label in kraus.outcome_labels)
    np.testing.assert_allclose(total, np.eye(3), atol=1e-10)


def test_detector_default_ancilla_assignment():
    # The one ancilla basis: ready at 0, then outcome i, in Kraus order, at i + 1.
    det = DetectorModel("F", projective_updown())
    assert det.ancilla_dim == 3
    assert [det.record_index(label) for label in ("r", "up", "down")] == [0, 1, 2]
    np.testing.assert_allclose(ready(det).amplitudes, [1, 0, 0])
    np.testing.assert_allclose(det.record_state("down").amplitudes, [0, 0, 1])
    swapped = DetectorModel("F", KrausSet(tuple(reversed(projective_updown().outcomes))), ready_label="ready")
    assert [swapped.record_index(label) for label in ("ready", "down", "up")] == [0, 1, 2]


def test_detector_record_state_unknown_label():
    det = DetectorModel("F", projective_updown())
    with pytest.raises(KeyError):
        det.record_state("sideways")


def test_apply_instrument_records_superposition():
    a, b = 0.6, 0.8j
    det = DetectorModel("F", projective_updown())
    out = apply_instrument(StateVector(S, [a, b]), det)
    # a|up>|up_F> + b|down>|down_F>; the record is appended with slots up=0, down=1
    assert out.layout == SubsystemLayout.of(("S", 2), ("F", 2))
    np.testing.assert_allclose(out.amplitudes, [a, 0, 0, b], atol=1e-14)
    expected = np.zeros(6, dtype=complex)  # F indices in the ancilla: ready=0, up=1, down=2
    expected[0 * 3 + 1] = a
    expected[1 * 3 + 2] = b
    np.testing.assert_allclose(whole_record(out, det).amplitudes, expected, atol=1e-14)


def test_apply_instrument_eigenstate_input():
    det = DetectorModel("F", projective_updown())
    out = apply_instrument(basis_state(S, 0), det)
    expected = np.zeros(6, dtype=complex)
    expected[1] = 1.0
    np.testing.assert_allclose(whole_record(out, det).amplitudes, expected, atol=1e-14)


def test_apply_instrument_on_entangled_targets():
    # Second-stage measurement acting jointly on S and the first record factor,
    # expected amplitudes computed here by explicit outer products.
    from qtimeline.wigner import wigner_detector

    rng = np.random.default_rng(2)
    z = rng.normal(size=4) + 1j * rng.normal(size=4)
    a, b = z[:2] / np.linalg.norm(z[:2])
    alpha, beta = z[2:] / np.linalg.norm(z[2:])

    friend = DetectorModel("F", projective_updown())
    entangled = whole_record(apply_instrument(StateVector(S, [a, b]), friend), friend)

    wd = wigner_detector(alpha, beta)
    out = apply_instrument(entangled, wd)

    yes_vec = np.zeros(6, dtype=complex)
    yes_vec[1] = alpha
    yes_vec[5] = beta
    no_vec = np.zeros(6, dtype=complex)
    no_vec[1] = -np.conj(beta)
    no_vec[5] = np.conj(alpha)
    sf_part = entangled.amplitudes
    expected = np.kron(np.outer(yes_vec, yes_vec.conj()) @ sf_part, [0, 1, 0])
    expected += np.kron(np.outer(no_vec, no_vec.conj()) @ sf_part, [0, 0, 1])
    np.testing.assert_allclose(whole_record(out, wd).amplitudes, expected, atol=1e-12)
    # branch weights against the closed-form interference amplitudes
    yes_amp = a * np.conj(alpha) + b * np.conj(beta)
    no_amp = alpha * b - beta * a
    assert abs(np.vdot(yes_vec, sf_part) - yes_amp) < 1e-12
    assert abs(np.vdot(no_vec, sf_part) - no_amp) < 1e-12


@pytest.mark.parametrize(
    "targets, n_outcomes",
    [
        (("B", "A"), 2),  # reversed against the layout
        (("B", "D1", "A"), 3),  # an earlier record, cycled among the system factors
        (("D1", "A"), 2),
    ],
    ids=["reversed", "record-cycled", "record-first"],
)
def test_apply_instrument_matches_embedded_kraus_reference(targets, n_outcomes):
    # Layout A, B, D1: D1 is an earlier record holding arbitrary amplitudes, and
    # the record of D2 is appended after it.
    rng = np.random.default_rng(len(targets) + n_outcomes)
    dims = {"A": 2, "B": 3, "D1": 3}
    kraus = random_complete_kraus(rng, SubsystemLayout(tuple((t, dims[t]) for t in targets)), n_outcomes)
    det = DetectorModel("D2", kraus)
    rest = SubsystemLayout.of(("A", 2), ("B", 3), ("D1", 3))
    psi_rest = random_state(rng, rest)
    out = apply_instrument(psi_rest, det)
    assert out.layout == SubsystemLayout(rest.factors + (("D2", n_outcomes),))

    expected = np.zeros(rest.dims + (det.ancilla_dim,), dtype=complex)
    for label, op in kraus.outcomes:
        branch = embed(op, targets, rest).apply(psi_rest)
        expected[..., det.record_index(label)] = branch.as_tensor()
    np.testing.assert_allclose(whole_record(out, det).amplitudes, expected.reshape(-1), rtol=0, atol=1e-12)


def test_apply_instrument_refuses_a_state_that_carries_the_record():
    det = DetectorModel("F", projective_updown())
    for carried in (tensor(basis_state(S, 0), ready(det)), apply_instrument(basis_state(S, 0), det)):
        with pytest.raises(LayoutError, match=r"^duplicate subsystem labels: \['S', 'F', 'F'\]$"):
            apply_instrument(carried, det)


def test_detector_rejects_incomplete_kraus():
    eye = Operator(S, np.eye(2))
    with pytest.raises(ValidationError, match="completeness violated by 1.0e\\+00 at detector 'F'"):
        DetectorModel("F", KrausSet((("a", eye), ("b", eye))))


def test_apply_instrument_requires_target_factors():
    det = DetectorModel("F", projective_updown())
    with pytest.raises(LayoutError, match="no subsystem 'S'"):  # the Kraus target is missing
        apply_instrument(basis_state(SubsystemLayout.of(("X", 2)), 0), det)
    with pytest.raises(LayoutError, match="dimension mismatch for 'S'"):
        apply_instrument(basis_state(SubsystemLayout.of(("S", 3)), 0), det)


@given(seed=st.integers(0, 2**32 - 1), n_outcomes=st.integers(2, 4))
@settings(max_examples=30, deadline=None)
def test_instrument_preserves_norm_and_matches_effects(seed, n_outcomes):
    rng = np.random.default_rng(seed)
    lay = SubsystemLayout.of(("S", 3))
    kraus = random_complete_kraus(rng, lay, n_outcomes)
    det = DetectorModel("M", kraus)
    psi = random_state(rng, lay)
    out = apply_instrument(psi, det)
    assert abs(out.norm - 1.0) < 1e-12
    for position, label in enumerate(kraus.outcome_labels):
        weight = np.sum(np.abs(out.as_tensor()[:, position]) ** 2)
        via_effect = np.vdot(psi.amplitudes, effect(kraus, label) @ psi.amplitudes).real
        assert abs(weight - via_effect) < 1e-12



SF = SubsystemLayout.of(("S", 2), ("F", 3))


@pytest.mark.parametrize("layout", [S, SubsystemLayout.of(("S", 3)), SF], ids=["qubit", "qutrit", "S-F"])
def test_a_state_test_is_the_projector_on_its_unit_state_and_the_complement(layout):
    rng = np.random.default_rng(layout.dim)
    for _ in range(10):
        z = rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim)
        phi = z / np.linalg.norm(z)
        det = state_test("T", layout, phi)
        assert det.detector_label == "T" and det.kraus.outcome_labels == ("yes", "no")
        assert det.kraus.target_layout == layout
        unit = phi / math.hypot(*abs(phi))  # the one unit rule, written out here
        k_yes, k_no = det.kraus.matrices
        assert np.array_equal(k_yes, np.outer(unit, unit.conj()))
        assert np.array_equal(k_no, np.eye(layout.dim) - np.outer(unit, unit.conj()))


@pytest.mark.parametrize("dim", [2, 3, 6])
def test_a_state_test_is_complete_to_rounding_for_every_phi_the_unit_rule_accepts(dim):
    layout = SubsystemLayout.of(("L", dim))
    accepted = refused = 0
    for phi in edge_vectors(dim, 20, seed=dim):  # within four ulp of norm 1 +/- 1e-12
        if _is_unit(phi):
            accepted += 1
            assert validate(state_test("T", layout, phi).kraus).max_deviation < 1e-12
        else:
            refused += 1
            with pytest.raises(DomainError, match="^phi of state test 'T' is not a unit vector"):
                state_test("T", layout, phi)
    assert accepted > 0 and refused > 0


@pytest.mark.parametrize("phi", [[0, 0], [np.nan, 0], [np.inf, 0], [1e200, 1e200], [0.5, 0.5]],
                         ids=["zero", "nan", "inf", "overflow", "half"])
def test_a_state_test_refuses_a_phi_off_the_unit_norm_without_a_warning(phi):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError) as err:
            state_test("W", S, phi)
    assert err.value.args[0] == "phi of state test 'W' is not a unit vector: its norm is not within 1e-12 of 1"


def test_a_state_test_refuses_a_phi_of_another_length():
    with pytest.raises(LayoutError, match="^amplitude length 2 does not match layout dimension 6$"):
        state_test("W", SF, [1, 0])
