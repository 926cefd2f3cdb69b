"""Sequential Born-rule cross-check, computed without any history machinery.

This module is the independent second route: explicit matrix chains built
element by element, matrix exponentials by a scaled and squared power series
in numpy alone, and none of the segment, projection or spectral code used
elsewhere.  It is allowed to be slow and obvious.
"""

from __future__ import annotations

import math

import numpy as np

from .hilbert import LayoutError, Operator, StateVector
from .timeline import EventSchedule


def _index_digits(index: int, dims) -> list[int]:
    digits = []
    for d in reversed(dims):
        digits.append(index % d)
        index //= d
    return digits[::-1]


def _embed_naive(matrix: np.ndarray, target_axes, dims) -> np.ndarray:
    """Elementwise identity-padding of ``matrix`` onto the listed axes."""
    full_dim = int(np.prod(dims))
    target_dims = [dims[ax] for ax in target_axes]
    digits = [_index_digits(index, dims) for index in range(full_dim)]
    out = np.zeros((full_dim, full_dim), dtype=np.complex128)
    for i, di in enumerate(digits):
        for j, dj in enumerate(digits):
            if any(di[k] != dj[k] for k in range(len(dims)) if k not in target_axes):
                continue
            row = 0
            col = 0
            for ax, d in zip(target_axes, target_dims):
                row = row * d + di[ax]
                col = col * d + dj[ax]
            out[i, j] = matrix[row, col]
    return out


def _expm_naive(matrix: np.ndarray) -> np.ndarray:
    """exp(matrix): halve it until its infinity-norm is at most 1/2, sum 20
    terms of the power series, then square the sum back as often."""
    norm = float(np.max(np.sum(np.abs(matrix), axis=1), initial=0.0))
    if not math.isfinite(norm):
        raise ValueError(f"cannot exponentiate a matrix of infinity-norm {norm}")
    squarings = max(0, math.ceil(math.log2(norm)) + 1) if norm > 0 else 0
    scaled = matrix * 0.5**squarings
    term = np.eye(len(matrix), dtype=np.complex128)
    total = term.copy()
    for k in range(1, 21):
        term = term @ scaled / k
        total += term
    for _ in range(squarings):
        total = total @ total
    return total


def sequential_born(
    psi0: StateVector,
    h_system: Operator,
    schedule: EventSchedule,
    outcomes,
) -> float:
    """Probability of a full outcome assignment by the textbook chain.

    ``psi0`` is the state at the first event time, on the system factors plus
    any detector record factors that later Kraus operators act on.  Events
    whose record factor is absent contribute their assigned Kraus operator
    directly; events whose record factor is part of the chain contribute the
    full recording isometry (the coherent sum over outcomes), and their record
    is read out by projection at the end, after everything that touches it has
    acted.
    """
    labels = psi0.layout.labels
    dims = psi0.layout.dims

    missing = set(schedule.detector_labels) - set(outcomes)
    if missing:
        raise KeyError(f"need an outcome for every detector; missing {sorted(missing)}")
    for label in h_system.layout.labels:
        if label not in labels:
            raise LayoutError(f"Hamiltonian factor {label!r} not in oracle state layout")
    for _, det in schedule.events:
        for label in det.kraus.target_labels:
            if label not in labels:
                raise LayoutError(f"Kraus target {label!r} not in oracle state layout")

    h_axes = [labels.index(label) for label in h_system.layout.labels]
    h_full = _embed_naive(np.asarray(h_system.matrix), h_axes, dims)

    state = np.array(psi0.amplitudes, dtype=np.complex128)
    previous_time = None
    for event_time, det in schedule.events:
        if previous_time is not None:
            state = _expm_naive(-1j * h_full * (event_time - previous_time)) @ state
        kraus_axes = [labels.index(label) for label in det.kraus.target_labels]
        if det.detector_label in labels:
            record_axis = labels.index(det.detector_label)
            step = np.zeros((state.size, state.size), dtype=np.complex128)
            for outcome_label, op in det.kraus.outcomes:
                write = np.zeros((det.ancilla_dim, det.ancilla_dim), dtype=np.complex128)
                write[det.record_index(outcome_label), det.record_index(det.ready_label)] = 1.0
                step += _embed_naive(np.asarray(op.matrix), kraus_axes, dims) @ _embed_naive(
                    write, [record_axis], dims
                )
            state = step @ state
        else:
            op = det.kraus.operator_for(outcomes[det.detector_label])
            state = _embed_naive(np.asarray(op.matrix), kraus_axes, dims) @ state
        previous_time = event_time

    for _, det in schedule.events:
        if det.detector_label in labels:
            record_axis = labels.index(det.detector_label)
            record = det.record_state(outcomes[det.detector_label])
            keep = np.outer(record.amplitudes, record.amplitudes.conj())
            state = _embed_naive(keep, [record_axis], dims) @ state

    return float(np.real(np.vdot(state, state)))
