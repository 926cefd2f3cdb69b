import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qtimeline
from qtimeline import hilbert, timeline
from qtimeline.hilbert import (
    DomainError,
    LayoutError,
    Operator,
    StateVector,
    SubsystemLayout,
    _contract,
    _layout,
    _unitary,
    normalized,
    propagator,
)
from qtimeline.instrument import KrausSet
from qtimeline.sampling import random_hermitian, random_wide_scenario
from qtimeline.scenario import Scenario, parse_scenario, scenario_to_data
from qtimeline.timeline import HistoryState, build_history
from qtimeline.wigner import WignerScenario, build as build_wigner

from helpers import expm_series
from reference import basis_state, completeness_deviation, edge_vectors, embed, tensor

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)


def qubit(label="S"):
    return SubsystemLayout.of((label, 2))


def test_layout_rejects_duplicates_and_bad_dims():
    with pytest.raises(LayoutError):
        SubsystemLayout.of(("S", 2), ("S", 3))
    with pytest.raises(LayoutError):
        SubsystemLayout.of(("S", 0))


# Every layout the build path derives is ``_layout(factors)``, the constructor's layout interned: it must be
# the layout the public constructor makes from the same factors, and refuse what it refuses, however the factors
# relate to a layout built before.  A dimension is a Python or numpy integer: np.int64 is taken as an int,
# 2.5, "2" or a bool refused.
CHECKED = SubsystemLayout.of(("S", 2), ("Q", 3), ("D1", 2))


@pytest.mark.parametrize(
    "factors",
    [
        CHECKED.factors,
        CHECKED.factors + (("D2", 4),),
        CHECKED.factors + (("D2", 4), ("D3", np.int64(2)), (5, 2)),
        (("S", 2), ("Q", 3), ("D1", 3)),
        (("S", 2), ("Q", 3), ("D1", 3), ("D2", 2)),
    ],
    ids=["unchanged", "appended", "several-appended", "resized", "resized-and-appended"],
)
def test_a_derived_layout_is_the_constructed_one(factors):
    derived, built = _layout(factors), SubsystemLayout(factors)
    assert derived.factors == built.factors and derived.labels == built.labels
    assert derived.dims == built.dims and derived.dim == built.dim
    assert derived == built and hash(derived) == hash(built) and repr(derived) == repr(built)
    for lay in (derived, built):
        assert all(type(label) is str and type(dim) is int for label, dim in lay.factors) and type(lay.dim) is int


@pytest.mark.parametrize(
    "factors, message",
    [
        (CHECKED.factors + (("Q", 2),), r"^duplicate subsystem labels: \['S', 'Q', 'D1', 'Q'\]$"),
        (CHECKED.factors + (("D2", 2.5),), r"^dimension 2.5 of subsystem 'D2' is not an integer$"),
        ((("S", 2), ("Q", 3), ("D1", "2")), r"^dimension '2' of subsystem 'D1' is not an integer$"),
        (CHECKED.factors + (("D2", 0),), r"^every subsystem dimension must be >= 1$"),
        (CHECKED.factors + (("D2", True),), r"^dimension True of subsystem 'D2' is not an integer$"),
        ((("S", np.bool_(True)), ("Q", 3), ("D1", 2)), r"^dimension (np\.)?True_? of subsystem 'S' is not an integer$"),
        # in-place twins: each equals, and hashes as, the int factor at its place in CHECKED or in (("X", 1),)
        ((("S", 2), ("Q", 3), ("D1", 2.0)), r"^dimension 2.0 of subsystem 'D1' is not an integer$"),
        ((("X", True),), r"^dimension True of subsystem 'X' is not an integer$"),
        ((("X", np.True_),), r"^dimension (np\.)?True_? of subsystem 'X' is not an integer$"),
    ],
    ids=["duplicate", "float-appended", "string-resized", "zero-appended", "bool-appended", "numpy-bool-resized",
         "float-in-place", "bool-in-place", "numpy-bool-in-place"],
)
def test_a_derived_layout_refuses_what_the_constructor_refuses(factors, message):
    for make in (SubsystemLayout, _layout):
        with pytest.raises(LayoutError, match=message):
            make(factors)


# ``_layout`` caches its layouts; True == 1, np.True_ == 1 and 2.0 == 2 with equal hashes, so a key on the raw
# factors would hand back the int twin's layout and skip the refusal.
POSITIONS = {  # the refused dimension's factor: after CHECKED's, in place of its last, at its own place, alone
    "appended": lambda d: CHECKED.factors + (("D2", d),),
    "resized": lambda d: (("S", 2), ("Q", 3), ("D2", d)),
    "in-place": lambda d: (("S", 2), ("Q", 3), ("D1", d)),
    "alone": lambda d: (("X", d),),
}


@pytest.mark.parametrize("position", list(POSITIONS))
@pytest.mark.parametrize(
    "twin, dim, shown",
    [(1, True, "True"), (1, np.bool_(True), r"(np\.)?True_?"), (2, 2.0, "2.0"), (2, 2.5, "2.5"), (2, "2", "'2'")],
    ids=["bool", "numpy-bool", "float-2.0", "float-2.5", "string"],
)
def test_a_cached_int_twin_lets_no_refused_dimension_through(position, twin, dim, shown):
    factors = POSITIONS[position]
    label = factors(dim)[-1][0]
    assert _layout(factors(twin)) == SubsystemLayout(factors(twin))
    for _ in range(2):
        for make in (_layout, SubsystemLayout):
            with pytest.raises(LayoutError, match=rf"^dimension {shown} of subsystem '{label}' is not an integer$"):
                make(factors(dim))


def test_a_cached_label_keeps_its_own_text():
    assert _layout(CHECKED.factors + ((1, 2),)).labels[-1] == "1"
    assert _layout(CHECKED.factors + ((True, 2),)).labels[-1] == "True"


def clear_layout_caches():
    for cache in (hilbert._interned, hilbert._contract_plan, timeline._history_layout, timeline._pad_plan):
        cache.cache_clear()


def scenario_data(source):
    if source == "wigner":  # Wigner's Kraus widens the friend's record to the layout the parser grows first
        wigner = WignerScenario(0.6, 0.8j, 0.8, 0.6)
        return scenario_to_data(Scenario(wigner.psi0, 0.0, Operator(wigner.psi0.layout, np.zeros((2, 2))),
                                         wigner.schedule, ()))
    return json.loads((Path(__file__).resolve().parent.parent / source).read_text(encoding="utf-8"))


@pytest.mark.parametrize("first", ["parse", "build"])
@pytest.mark.parametrize("source", ["wigner", "tests/data/two_factor_wigner.json", "examples/frauchiger_renner.json"])
def test_equal_factors_give_one_layout_whichever_call_site_asks_first(monkeypatch, first, source):
    data = scenario_data(source)
    handed = []  # (call site, layout) for every layout a call site reads from ``_layout``
    for module in (qtimeline.instrument, qtimeline.timeline, qtimeline.scenario):
        site = module.__name__
        monkeypatch.setattr(module, "_layout", lambda factors, site=site: handed.append((site, _layout(factors)))
                            or handed[-1][1])
    clear_layout_caches()
    sample = parse_scenario(data)
    if first == "build":
        clear_layout_caches()
        handed.clear()
    build_history(sample.psi0, sample.t0, sample.h_system, sample.schedule)
    parse_scenario(data)
    by_factors = {}
    for site, layout in handed:
        by_factors.setdefault(layout.factors, []).append((site, layout))
    shared = [pairs for pairs in by_factors.values() if len({site for site, _ in pairs}) > 1]
    assert shared  # some factors are asked for by two call sites
    for factors, pairs in by_factors.items():
        assert all(layout is _layout(factors) for _, layout in pairs), factors


def test_a_cold_wigner_build_checks_each_factor_of_each_new_layout_once_and_a_warm_one_none(monkeypatch):
    scenario = WignerScenario(0.6, 0.8j, 0.8, 0.6)
    clear_layout_caches()
    checked, built = [], []
    factor, post_init = hilbert._factor, SubsystemLayout.__post_init__
    monkeypatch.setattr(hilbert, "_factor", lambda f: checked.append(f) or factor(f))
    monkeypatch.setattr(SubsystemLayout, "__post_init__", lambda self: built.append(self.factors) or post_init(self))
    build_wigner(scenario)
    # the full layout, the friend's anchor, its record widened for Wigner's Kraus, and Wigner's anchor
    assert built == [(("S", 2), ("F", 3), ("W", 3)), (("S", 2), ("F", 2)), (("S", 2), ("F", 3)),
                     (("S", 2), ("F", 3), ("W", 2))]
    assert checked == [f for factors in built for f in factors]
    checked.clear(), built.clear()
    build_wigner(scenario)
    assert checked == [] and built == []


@pytest.mark.parametrize("lookup", [CHECKED.axis, CHECKED.dim_of], ids=["axis", "dim_of"])
def test_a_lookup_of_a_missing_label_names_the_layout(lookup):
    with pytest.raises(LayoutError, match=r"^no subsystem 'X' in layout \('S', 'Q', 'D1'\)$"):
        lookup("X")


def test_layout_dim_is_product():
    lay = SubsystemLayout.of(("A", 2), ("B", 3), ("C", 4))
    assert lay.dim == 24
    assert lay.axis("B") == 1
    assert lay.dim_of("C") == 4


def test_layout_derived_attributes_leave_eq_hash_and_repr_alone():
    lay = SubsystemLayout.of(("A", 2), ("B", 3))
    twin = SubsystemLayout((("A", 2), ("B", 3)))
    assert lay.labels == ("A", "B") and lay.dims == (2, 3) and lay.dim == 6
    assert twin is not lay and twin == lay and hash(twin) == hash(lay)
    assert hash(lay) == hash((lay.factors,))
    assert repr(lay) == "SubsystemLayout(factors=(('A', 2), ('B', 3)))"
    assert [field.name for field in dataclasses.fields(lay)] == ["factors"]
    assert lay != SubsystemLayout.of(("A", 2), ("B", 2))


def test_statevector_length_must_match_layout():
    with pytest.raises(LayoutError):
        StateVector(qubit(), [1, 0, 0])


def test_statevector_amplitudes_must_be_a_flat_vector():
    with pytest.raises(LayoutError, match=r"flat vector, got shape \(1, 2\)"):
        StateVector(qubit(), [[1, 0]])


def test_operator_apply_refuses_a_state_on_another_layout():
    with pytest.raises(LayoutError, match="layouts differ"):
        Operator(qubit(), SIGMA_X).apply(StateVector(qubit("T"), [1, 0]))


# The tensor and embed tests check the test-side references in reference.py,
# which other tests rely on, against explicit products and index sums.


def test_tensor_basis_vectors():
    e0 = basis_state(qubit("A"), 0)
    f0 = basis_state(qubit("B"), 0)
    out = tensor(e0, f0)
    assert out.layout.dims == (2, 2)
    np.testing.assert_allclose(out.amplitudes, [1, 0, 0, 0])


def test_tensor_is_bilinear_in_amplitudes():
    a, b = 0.6, 0.8j
    psi = StateVector(qubit("A"), [a, b])
    out = tensor(psi, basis_state(qubit("B"), 0))
    np.testing.assert_allclose(out.amplitudes, [a, 0, b, 0])


def test_tensor_identity_operators():
    out = tensor(Operator(qubit("A"), np.eye(2)), Operator(qubit("B"), np.eye(2)))
    np.testing.assert_allclose(out.matrix, np.eye(4))


def test_tensor_rejects_duplicate_labels():
    with pytest.raises(LayoutError):
        tensor(basis_state(qubit("A"), 0), basis_state(qubit("A"), 0))


def test_tensor_rejects_mixed_kinds():
    with pytest.raises(TypeError):
        tensor(basis_state(qubit("A"), 0), Operator(qubit("B"), np.eye(2)))


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_tensor_associative_and_norm_multiplicative(seed):
    rng = np.random.default_rng(seed)
    states = []
    for label, dim in (("A", 2), ("B", 3), ("C", 2)):
        z = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        states.append(StateVector(SubsystemLayout.of((label, dim)), z))
    a, b, c = states
    left = tensor(tensor(a, b), c)
    right = tensor(a, tensor(b, c))
    np.testing.assert_allclose(left.amplitudes, right.amplitudes, atol=1e-12)
    assert abs(tensor(a, b).norm - a.norm * b.norm) < 1e-12


def test_embed_single_factor_action():
    full = SubsystemLayout.of(("S", 2), ("F", 2))
    sx = Operator(qubit("S"), SIGMA_X)
    state = tensor(basis_state(qubit("S"), 0), basis_state(SubsystemLayout.of(("F", 2)), 0))
    flipped = embed(sx, ["S"], full).apply(state)
    np.testing.assert_allclose(flipped.amplitudes, [0, 0, 1, 0])


def test_embed_identity_is_identity():
    full = SubsystemLayout.of(("S", 2), ("F", 2))
    out = embed(Operator(qubit("S"), np.eye(2)), ["S"], full)
    np.testing.assert_allclose(out.matrix, np.eye(4))


def test_embed_leading_block_matches_explicit_kron():
    # Two-factor operator on S(x)F extended over a trailing W factor.
    rng = np.random.default_rng(3)
    sf = SubsystemLayout.of(("S", 2), ("F", 3))
    k = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    full = SubsystemLayout.of(("S", 2), ("F", 3), ("W", 3))
    out = embed(Operator(sf, k), ["S", "F"], full)
    np.testing.assert_allclose(out.matrix, np.kron(k, np.eye(3)), atol=1e-14)


def test_embed_permutes_to_layout_order():
    # Operator declared on (C, A) embedded into (A, B, C); oracle built by
    # summing explicit basis outer products.
    rng = np.random.default_rng(5)
    ca = SubsystemLayout.of(("C", 2), ("A", 2))
    op = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    full = SubsystemLayout.of(("A", 2), ("B", 3), ("C", 2))
    out = embed(Operator(ca, op), ["A", "C"], full).matrix

    expected = np.zeros((12, 12), dtype=complex)
    for a_i in range(2):
        for b_i in range(3):
            for c_i in range(2):
                for a_j in range(2):
                    for c_j in range(2):
                        row = (a_i * 3 + b_i) * 2 + c_i
                        col = (a_j * 3 + b_i) * 2 + c_j
                        expected[row, col] += op[c_i * 2 + a_i, c_j * 2 + a_j]
    np.testing.assert_allclose(out, expected, atol=1e-14)


def test_embed_rejects_mismatched_targets():
    sx = Operator(qubit("S"), SIGMA_X)
    full = SubsystemLayout.of(("S", 2), ("F", 2))
    with pytest.raises(LayoutError):
        embed(sx, ["F"], full)
    with pytest.raises(LayoutError):
        embed(sx, ["S"], SubsystemLayout.of(("S", 3), ("F", 2)))


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_contract_agrees_with_embed(seed):
    rng = np.random.default_rng(seed)
    full = SubsystemLayout.of(("A", 2), ("B", 3), ("C", 2))
    op_lay = SubsystemLayout.of(("C", 2), ("A", 2))
    op = Operator(op_lay, rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    state = StateVector(full, rng.normal(size=12) + 1j * rng.normal(size=12))
    via_embed = embed(op, op_lay.labels, full).apply(state)
    via_axes = _contract(op.matrix[None], op_lay, state)  # a stack of one, its axis last
    np.testing.assert_allclose(via_axes[..., 0].reshape(-1), via_embed.amplitudes, atol=1e-12)


def test_propagator_zero_hamiltonian_is_identity():
    h = Operator(qubit(), np.zeros((2, 2)))
    u = propagator(h, 5.3, -1.2)
    np.testing.assert_allclose(u.matrix, np.eye(2), atol=1e-14)


def test_propagator_diagonal_case():
    h = Operator(qubit(), np.diag([0.7, -1.3]))
    dt = 0.9
    u = propagator(h, dt, 0.0)
    np.testing.assert_allclose(
        u.matrix, np.diag([np.exp(-1j * 0.7 * dt), np.exp(1j * 1.3 * dt)]), atol=1e-12
    )


def test_propagator_sigma_x_quarter_period():
    u = propagator(Operator(qubit(), SIGMA_X), np.pi / 2, 0.0)
    series = expm_series(-1j * SIGMA_X * (np.pi / 2))
    np.testing.assert_allclose(u.matrix, series, atol=1e-12)
    np.testing.assert_allclose(u.matrix, -1j * SIGMA_X, atol=1e-12)


@pytest.mark.parametrize("dt", [-3.7, 1e-9, 1.0, 1e6])
def test_unitary_is_the_spectral_formula_bit_for_bit(dt):
    rng = np.random.default_rng(7)
    for dim in (1, 2, 3, 6, 12):
        h = random_hermitian(rng, SubsystemLayout.of(("S", dim)))
        w, v = np.linalg.eigh(h.matrix)
        assert np.array_equal(_unitary(h, dt), (v * np.exp(-1j * w * dt)) @ v.conj().T)


def test_propagator_rejects_non_hermitian():
    h = Operator(qubit(), [[0, 1], [0, 0]])
    with pytest.raises(DomainError, match=r"^matrix is not Hermitian \(tolerance 1e-10\)$"):
        propagator(h, 1.0, 0.0)


@pytest.mark.parametrize(
    "entry, dt",
    [(1e308, 1.0), (1e300, 1e9), (0.0, float("inf")), (0.0, float("nan"))],
    ids=["eigenvalue-overflows", "phase-overflows", "infinite-interval", "nan-interval"],
)
def test_propagator_refuses_a_phase_that_is_not_finite(entry, dt):
    h = Operator(qubit(), np.full((2, 2), entry))  # Hermitian, with eigenvalues 0 and 2 * entry
    with pytest.raises(DomainError, match=r"phase w\*dt is not finite"):
        propagator(h, dt, 0.0)


@given(
    eigenvalues=st.lists(st.sampled_from([0.0, 1e308, -1e308]) | st.floats(-1e3, 1e3), min_size=1, max_size=3),
    dt=st.sampled_from([0.0, math.inf, -math.inf, math.nan, 1e308, -1e308]) | st.floats(-1e3, 1e3),
)
@settings(max_examples=300, deadline=None)
def test_propagator_refuses_exactly_the_phases_that_are_not_finite(eigenvalues, dt):
    h = Operator(SubsystemLayout.of(("S", len(eigenvalues))), np.diag(eigenvalues))
    w, v, v_dag, _ = h._spectrum
    with np.errstate(over="ignore", invalid="ignore"):
        phases = w * (-1j * dt)
    if np.isfinite(phases).all():
        assert np.array_equal(_unitary(h, dt), (v * np.exp(phases)) @ v_dag)
    else:
        with pytest.raises(DomainError, match=r"^propagator phase w\*dt is not finite: interval "):
            _unitary(h, dt)


@given(
    seed=st.integers(0, 2**32 - 1),
    t0=st.floats(-3, 3),
    t1=st.floats(-3, 3),
    t2=st.floats(-3, 3),
)
@settings(max_examples=40, deadline=None)
def test_propagator_group_law_and_unitarity(seed, t0, t1, t2):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    h = Operator(SubsystemLayout.of(("S", 3)), (g + g.conj().T) / 2)
    u_02 = propagator(h, t2, t0)
    u_12 = propagator(h, t2, t1)
    u_01 = propagator(h, t1, t0)
    assert u_02.is_unitary(1e-10)
    np.testing.assert_allclose(u_12.matrix @ u_01.matrix, u_02.matrix, atol=1e-10)


def test_operator_predicates():
    assert Operator(qubit(), SIGMA_X).is_hermitian()
    assert Operator(qubit(), SIGMA_X).is_unitary()
    assert not Operator(qubit(), [[0, 1], [0, 0]]).is_hermitian()


def test_is_unitary_is_the_completeness_rule_and_fails_near_the_float_limit_without_a_warning():
    # Warnings are errors here, so an overflowing U^dag U - I would fail as a RuntimeWarning, not return False.
    for entry in (1e308, -1e200, math.inf, math.nan):
        assert not Operator(qubit(), [[entry, 0], [0, entry]]).is_unitary()
    rng = np.random.default_rng(5)
    for scale in (0.0, 1e-12, 1e-10, 1e-8):
        u = propagator(random_hermitian(rng, qubit()), 1.0, 0.0)
        op = Operator(qubit(), u.matrix + scale * rng.normal(size=(2, 2)))
        for tol in (1e-12, 1e-10, 1e-8):
            assert op.is_unitary(tol) == (completeness_deviation(KrausSet((("u", op),))) <= tol)



# The copy rule: a read-only complex128 array is held as given; any other input
# is copied once and frozen, so a caller can never change a value afterwards.


def test_state_and_operator_from_writable_arrays_keep_their_own_copies():
    amplitudes, matrix = np.array([0.6, 0.8j]), SIGMA_X.copy()
    state, op = StateVector(qubit(), amplitudes), Operator(qubit(), matrix)
    amplitudes[0], matrix[0, 0] = 1.0, 5.0
    assert state.amplitudes[0] == 0.6 and op.matrix[0, 0] == 0.0
    for held, given in ((state.amplitudes, amplitudes), (op.matrix, matrix)):
        assert not np.shares_memory(held, given)
        assert not held.flags.writeable


def test_a_read_only_complex_array_is_held_as_given():
    amplitudes, matrix = np.array([0.6, 0.8j]), SIGMA_X.copy()
    amplitudes.setflags(write=False)
    matrix.setflags(write=False)
    assert StateVector(qubit(), amplitudes).amplitudes is amplitudes
    assert Operator(qubit(), matrix).matrix is matrix
    real = np.array([1.0, 0.0])
    real.setflags(write=False)
    assert StateVector(qubit(), real).amplitudes.dtype == np.complex128  # converted, so a new array


def test_the_anchors_of_a_built_history_are_read_only():
    sample = random_wide_scenario(np.random.default_rng([1, 4]))
    history = build_history(sample.psi0, sample.t0, sample.h_system, sample.schedule)
    for anchor in history.anchors:
        with pytest.raises(ValueError):
            anchor.amplitudes[0] = 0.5


def test_a_history_with_a_non_normalized_anchor_is_refused_before_any_read():
    sample = random_wide_scenario(np.random.default_rng([1, 4]))
    history = build_history(sample.psi0, sample.t0, sample.h_system, sample.schedule)
    last = history.anchors[-1]
    anchors = (*history.anchors[:-1], StateVector(last.layout, 1.001 * last.amplitudes))
    with pytest.raises(DomainError, match="normalized"):
        HistoryState(history.h_system, history.schedule, history.t0, anchors)


@pytest.mark.parametrize("dim", range(1, 9))
def test_normalized_keeps_a_vector_exactly_when_a_state_vector_calls_it_normalized(dim):
    layout = SubsystemLayout.of(("S", dim))
    kept = accepted = 0
    for z in edge_vectors(dim, 60, dim):
        is_kept = normalized(z) is z
        assert is_kept == StateVector(layout, z).is_normalized
        kept += is_kept
        accepted += StateVector(layout, normalized(z)).is_normalized
    assert 0 < kept < 1080 and accepted == 1080  # both sides of the edge are sampled; a rescaled vector is unit
