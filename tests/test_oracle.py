import ast
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtimeline.hilbert import LayoutError, Operator, StateVector, SubsystemLayout, propagator
from qtimeline.instrument import DetectorModel, KrausSet
from qtimeline import oracle
from qtimeline.oracle import _expm_naive, sequential_born
from qtimeline.probability import OutcomeQuery, conditional, full_table, joint, marginal
from qtimeline.sampling import (
    random_complete_kraus,
    random_hermitian,
    random_record_scenario,
    random_scenario,
    random_state,
    random_wide_scenario,
)
from qtimeline.timeline import EventSchedule, build_history
from qtimeline.wigner import friend_detector, wigner_detector

from helpers import all_assignments, closed_form_joint, random_unit_pair
from oracle_agreement import oracle_joints
from reference import basis_state, tensor

S = SubsystemLayout.of(("S", 2))


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


def test_single_projective_event_on_eigenstate():
    schedule = EventSchedule(((1.0, projective_detector()),))
    h_zero = Operator(S, np.zeros((2, 2)))
    assert sequential_born(basis_state(S, 0), h_zero, schedule, {"M": "up"}) == pytest.approx(1.0)
    assert sequential_born(basis_state(S, 0), h_zero, schedule, {"M": "down"}) == pytest.approx(0.0)


def test_oracle_reproduces_wigner_grid():
    # The second Kraus acts on the first detector's record factor, so that
    # record must be carried coherently and read only at the end of the chain.
    rng = np.random.default_rng(23)
    for _ in range(5):
        a, b = random_unit_pair(rng)
        alpha, beta = random_unit_pair(rng)
        fd = friend_detector()
        psi0 = tensor(StateVector(S, [a, b]), fd.record_state(fd.ready_label))
        schedule = EventSchedule(((1.0, fd), (2.0, wigner_detector(alpha, beta))))
        h_zero = Operator(S, np.zeros((2, 2)))
        expected = closed_form_joint(a, b, alpha, beta)
        for (f, w), value in expected.items():
            got = sequential_born(psi0, h_zero, schedule, {"F": f, "W": w})
            assert abs(got - value) < 1e-12


def test_oracle_runs_where_scipy_cannot_be_imported():
    # A fresh interpreter in which every scipy import raises ImportError.
    tests = Path(__file__).resolve().parent
    path = [Path(oracle.__file__).parents[1], tests, tests.parent / "scripts"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, path)))
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import test_oracle\n"
        "test_oracle.test_oracle_reproduces_wigner_grid()\n"
        "test_oracle.test_oracle_agrees_on_three_qubit_system()\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_oracle_shares_no_code_or_spectral_method_with_the_pipeline():
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    package = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("qtimeline")):
            package |= {("." * node.level + (node.module or ""), alias.name) for alias in node.names}
        elif isinstance(node, ast.Import):
            package |= {(alias.name, None) for alias in node.names if alias.name.startswith("qtimeline")}
    assert package == {(".hilbert", "LayoutError"), (".hilbert", "Operator"), (".hilbert", "StateVector"),
                       (".timeline", "EventSchedule")}
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not names & {"eigh", "eig", "propagator"}


SIGMA_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)


@pytest.mark.parametrize("theta", [1e-9, 1.0, math.pi / 2, 37.3, 1e3])
def test_expm_naive_rotates_by_the_closed_form(theta):
    expected = math.cos(theta) * np.eye(2) - 1j * math.sin(theta) * SIGMA_X
    assert np.max(np.abs(_expm_naive(-1j * theta * SIGMA_X) - expected)) < 1e-12


@pytest.mark.parametrize("dim", [2, 12, 108])
@pytest.mark.parametrize("t", [0.5, 5.0, 50.0])
def test_expm_naive_is_unitary_and_matches_the_spectral_exponential(dim, t):
    h = random_hermitian(np.random.default_rng([dim, 7]), SubsystemLayout.of(("S", dim))).matrix
    u = _expm_naive(-1j * t * h)
    energies, vectors = np.linalg.eigh(h)
    expected = (vectors * np.exp(-1j * t * energies)) @ vectors.conj().T
    assert np.max(np.abs(u.conj().T @ u - np.eye(dim))) < 1e-12
    assert np.max(np.abs(u - expected)) < 1e-12


def test_expm_naive_of_zero_is_exactly_the_identity():
    assert np.array_equal(_expm_naive(np.zeros((3, 3), dtype=np.complex128)), np.eye(3))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_expm_naive_refuses_a_non_finite_generator(bad):
    with pytest.raises(ValueError, match="infinity-norm"):
        _expm_naive(np.array([[0.0, bad], [bad, 0.0]], dtype=np.complex128))


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_oracle_probabilities_sum_to_one(seed):
    rng = np.random.default_rng(seed)
    sample = random_scenario(rng, events_range=(1, 2))
    u = propagator(sample.h_system, sample.schedule.times[0], sample.t0)
    psi_first = u.apply(sample.psi0)
    total = sum(
        sequential_born(psi_first, sample.h_system, sample.schedule, assignment)
        for assignment in all_assignments(sample.schedule)
    )
    assert abs(total - 1.0) < 1e-12


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_oracle_agrees_with_history_pipeline(seed):
    rng = np.random.default_rng(seed)
    sample = random_scenario(rng)
    history = build_history(sample.psi0, sample.t0, sample.h_system, sample.schedule)
    t = sample.schedule.times[-1] + 1.0
    u = propagator(sample.h_system, sample.schedule.times[0], sample.t0)
    psi_first = u.apply(sample.psi0)
    for assignment in all_assignments(sample.schedule):
        p_history = joint(history, OutcomeQuery(assignment, t))
        p_oracle = sequential_born(psi_first, sample.h_system, sample.schedule, assignment)
        assert abs(p_history - p_oracle) < 1e-10


def test_oracle_agrees_on_three_qubit_system():
    rng = np.random.default_rng(31)
    layout = SubsystemLayout.of(("Q0", 2), ("Q1", 2), ("Q2", 2))
    psi0 = random_state(rng, layout)
    h = random_hermitian(rng, layout)
    single = {label: SubsystemLayout.of((label, 2)) for label in layout.labels}
    events = tuple(
        (float(k + 1), DetectorModel(f"D{k}", random_complete_kraus(rng, single[label], 2)))
        for k, label in enumerate(layout.labels)
    )
    schedule = EventSchedule(events)
    history = build_history(psi0, 0.0, h, schedule)
    psi_first = propagator(h, 1.0, 0.0).apply(psi0)
    for assignment in all_assignments(schedule):
        p_history = joint(history, OutcomeQuery(assignment, 4.0))
        p_oracle = sequential_born(psi_first, h, schedule, assignment)
        assert abs(p_history - p_oracle) < 1e-10


@pytest.mark.parametrize(
    "shape",
    [
        {"factors_range": (1, 2), "dim_range": (2, 3)},
        {"factors_range": (3, 3), "dim_range": (2, 2), "events_range": (2, 2)},
    ],
)
def test_oracle_agrees_on_every_accepted_shape(shape):
    # Multi-factor systems, Kraus targets in permuted order, and Kraus
    # families on earlier records, which the oracle carries coherently.
    seen = {"multi_factor": False, "permuted": False, "record": False}
    for seed in range(30):
        sample = random_wide_scenario(np.random.default_rng([seed, 1]), **shape)
        system, schedule = sample.psi0.layout, sample.schedule
        history = build_history(sample.psi0, sample.t0, sample.h_system, schedule)
        psi_first = propagator(sample.h_system, schedule.times[0], sample.t0).apply(sample.psi0)
        targeted = {label for _, det in schedule.events for label in det.kraus.target_labels}
        for _, det in schedule.events:
            if det.detector_label in targeted:
                psi_first = tensor(psi_first, det.record_state(det.ready_label))
        for assignment in all_assignments(schedule):
            p_history = joint(history, OutcomeQuery(assignment, schedule.times[-1] + 1.0))
            p_oracle = sequential_born(psi_first, sample.h_system, schedule, assignment)
            assert abs(p_history - p_oracle) < 1e-10
        seen["multi_factor"] |= len(system.factors) > 1
        for _, det in schedule.events:
            on_system = [label for label in det.kraus.target_labels if label in system]
            seen["permuted"] |= on_system != sorted(on_system, key=system.axis)
            seen["record"] |= len(on_system) < len(det.kraus.target_labels)
    assert all(seen.values()), seen


def test_oracle_requires_every_outcome():
    schedule = EventSchedule(((1.0, projective_detector()),))
    h_zero = Operator(S, np.zeros((2, 2)))
    with pytest.raises(KeyError):
        sequential_born(basis_state(S, 0), h_zero, schedule, {})


def test_oracle_rejects_a_hamiltonian_factor_the_state_lacks():
    schedule = EventSchedule(((1.0, projective_detector()),))
    h_other = Operator(SubsystemLayout.of(("Q", 2)), np.zeros((2, 2)))
    with pytest.raises(LayoutError, match="^Hamiltonian factor 'Q' not in oracle state layout$"):
        sequential_born(basis_state(S, 0), h_other, schedule, {"M": "up"})


def test_oracle_rejects_missing_target_factor():
    wd = wigner_detector(1.0, 0.0)  # acts on S and F, but psi0 has no F factor
    schedule = EventSchedule(((1.0, wd),))
    h_zero = Operator(S, np.zeros((2, 2)))
    with pytest.raises(LayoutError):
        sequential_born(basis_state(S, 0), h_zero, schedule, {"W": "yes"})


@pytest.mark.parametrize("draw", [random_scenario, random_wide_scenario, random_record_scenario])
def test_oracle_agrees_at_every_clock_reading(draw):
    for seed in range(10):
        sample = draw(np.random.default_rng([seed, 4]))
        history = build_history(sample.psi0, sample.t0, sample.h_system, sample.schedule)
        times = sample.schedule.times
        names = sample.schedule.detector_labels
        for k in range(1, len(times) + 1):
            t = (times[k - 1] + times[k]) / 2 if k < len(times) else times[-1] + 1.0
            expected = oracle_joints(sample, k)
            table = dict(full_table(history, t).rows)
            for key, value in table.items():
                assert abs(value - expected[key]) < 1e-10
            ready = [det.ready_label for _, det in sample.schedule.events]
            for key in expected.keys() - table.keys():  # a fired record back at its ready label
                assert any(label == r for label, r in zip(key[:k], ready))

            def oracle(assignment):
                return sum(p for key, p in expected.items()
                           if all(key[names.index(d)] == o for d, o in assignment.items()))

            labels = {name: sorted({key[i] for key in expected}) for i, name in enumerate(names)}
            for d1, d2 in itertools.permutations(names, 2):
                for o1, o2 in itertools.product(labels[d1], labels[d2]):
                    given = {d1: o1}
                    assert abs(marginal(history, OutcomeQuery(given, t)) - oracle(given)) < 1e-10
                    if oracle(given) > 1e-3:
                        quotient = oracle({d1: o1, d2: o2}) / oracle(given)
                        assert abs(conditional(history, {d2: o2}, given, t) - quotient) < 1e-10
