import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtimeline.hilbert import (
    DomainError,
    LayoutError,
    Operator,
    StateVector,
    SubsystemLayout,
    _contract,
    propagator,
)

from helpers import expm_series
from reference import basis_state, embed, tensor

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)


def qubit(label="S"):
    return SubsystemLayout.of((label, 2))


def test_layout_rejects_duplicates_and_bad_dims():
    with pytest.raises(LayoutError):
        SubsystemLayout.of(("S", 2), ("S", 3))
    with pytest.raises(LayoutError):
        SubsystemLayout.of(("S", 0))


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
    via_axes = _contract(op.matrix, op_lay, full.labels, state.as_tensor())
    np.testing.assert_allclose(via_axes.reshape(-1), via_embed.amplitudes, atol=1e-12)


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


def test_propagator_rejects_non_hermitian():
    h = Operator(qubit(), [[0, 1], [0, 0]])
    with pytest.raises(DomainError):
        propagator(h, 1.0, 0.0)


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

