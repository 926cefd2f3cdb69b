"""Random states, Hamiltonians, and complete Kraus families for randomized checks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hilbert import Operator, StateVector, SubsystemLayout
from .instrument import DetectorModel, KrausSet
from .timeline import EventSchedule


def random_state(rng: np.random.Generator, layout: SubsystemLayout) -> StateVector:
    z = rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim)
    return StateVector(layout, z / np.linalg.norm(z))


def random_hermitian(
    rng: np.random.Generator,
    layout: SubsystemLayout,
    spectral_norm: float | None = None,
) -> Operator:
    g = rng.normal(size=(layout.dim, layout.dim)) + 1j * rng.normal(size=(layout.dim, layout.dim))
    h = (g + g.conj().T) / 2.0
    if spectral_norm is not None:
        h = h * (spectral_norm / np.max(np.abs(np.linalg.eigvalsh(h))))
    return Operator(layout, h)


def random_complete_kraus(
    rng: np.random.Generator,
    layout: SubsystemLayout,
    n_outcomes: int,
    outcome_labels=None,
) -> KrausSet:
    """Complete family from the blocks of a QR-orthonormalized random isometry."""
    d = layout.dim
    g = rng.normal(size=(n_outcomes * d, d)) + 1j * rng.normal(size=(n_outcomes * d, d))
    q, _ = np.linalg.qr(g)
    if outcome_labels is None:
        outcome_labels = [f"o{i}" for i in range(n_outcomes)]
    blocks = tuple(
        (label, Operator(layout, q[i * d : (i + 1) * d, :]))
        for i, label in enumerate(outcome_labels)
    )
    return KrausSet(blocks)


@dataclass(frozen=True)
class ScenarioSample:
    psi0: StateVector
    t0: float
    h_system: Operator
    schedule: EventSchedule


def random_scenario(
    rng: np.random.Generator,
    dim_range: tuple[int, int] = (2, 4),
    events_range: tuple[int, int] = (1, 3),
    outcomes_range: tuple[int, int] = (2, 3),
) -> ScenarioSample:
    """Single-factor system, detectors D1..Dk at times 1..k, Kraus on the system."""
    dim = int(rng.integers(dim_range[0], dim_range[1] + 1))
    layout = SubsystemLayout.of(("S", dim))
    n_events = int(rng.integers(events_range[0], events_range[1] + 1))
    events = []
    for k in range(n_events):
        n_outcomes = int(rng.integers(outcomes_range[0], outcomes_range[1] + 1))
        kraus = random_complete_kraus(rng, layout, n_outcomes)
        events.append((float(k + 1), DetectorModel(f"D{k + 1}", kraus)))
    return ScenarioSample(
        psi0=random_state(rng, layout),
        t0=0.0,
        h_system=random_hermitian(rng, layout),
        schedule=EventSchedule(tuple(events)),
    )


def random_wide_scenario(
    rng: np.random.Generator,
    factors_range: tuple[int, int] = (1, 3),
    dim_range: tuple[int, int] = (2, 3),
    events_range: tuple[int, int] = (1, 3),
) -> ScenarioSample:
    """System factors S0..Sn, detectors D1..Dk at times 1..k with 2-3 outcomes. Each Kraus
    family acts on a random subset of the system factors in random order and, from D2 on
    with probability 1/2, on one earlier detector's record at a random place among them."""
    n_factors = int(rng.integers(factors_range[0], factors_range[1] + 1))
    dims = {f"S{i}": int(rng.integers(dim_range[0], dim_range[1] + 1)) for i in range(n_factors)}
    layout = SubsystemLayout(tuple(dims.items()))
    events = []
    for k in range(int(rng.integers(events_range[0], events_range[1] + 1))):
        targets = [str(t) for t in rng.permutation(layout.labels)[: rng.integers(1, n_factors + 1)]]
        if k and rng.random() < 0.5:
            targets.insert(int(rng.integers(0, len(targets) + 1)), f"D{rng.integers(1, k + 1)}")
        target_layout = SubsystemLayout(tuple((t, dims[t]) for t in targets))
        det = DetectorModel(f"D{k + 1}", random_complete_kraus(rng, target_layout, int(rng.integers(2, 4))))
        dims[det.detector_label] = det.ancilla_dim
        events.append((float(k + 1), det))
    return ScenarioSample(
        random_state(rng, layout), 0.0, random_hermitian(rng, layout), EventSchedule(tuple(events))
    )
