"""Piecewise history states for schedules of instantaneous measurements.

Between measurement events the dynamics is an analytic unitary flow, so the
global state over all clock readings is represented exactly by one anchor
state per time segment.  The segments are the half-open intervals between
consecutive event times, and the schedule is the one record of where they
begin and end.  Time is a query parameter: conditioning on a clock reading
selects a segment and evolves its anchor, and there is no discretized time
grid anywhere.

This module alone knows how a record is stored.  An ancilla's basis is fixed
(``DetectorModel.record_index``): ready at index 0, outcome i at index i + 1.
An anchor stores the system factors, then one axis per detector fired before
it, in schedule order: its outcome slots 1..n, or its whole ancilla from the
first event whose Kraus acts on the record.  A detector that has not fired has
no axis; its record is ready.  ``HistoryState.layout`` is the full layout,
system then every whole ancilla, and ``state_at`` zero-pads an anchor to it.
The record weights every probability reads are computed once per anchor and
keyed by label (``record_labels``), so no reader needs the storage convention.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .hilbert import (
    TOL_EQUALITY,
    DomainError,
    LayoutError,
    Operator,
    StateVector,
    SubsystemLayout,
    propagator,
)
from .instrument import DetectorModel, apply_instrument

# Largest array a history allocates: 2**24 complex128 amplitudes are 256 MiB.
# history_layout bounds the last anchor, which no earlier anchor and no
# intermediate of the build outgrows, and state_at bounds its full-layout
# padding; both check before they allocate.
MAX_DENSE_DIM = 2**24


class ScheduleError(ValueError):
    """Event times are not finite and strictly increasing, or t0 is not before them."""


def default_t0(first_time: float) -> float:
    """Start used when none is given: one unit before the first event, or the next float
    below it once rounding loses that unit (|t| >= 2**53); ScheduleError if none is finite."""
    t0 = min(first_time - 1.0, math.nextafter(first_time, -math.inf))
    if not math.isfinite(t0):
        raise ScheduleError(f"no finite t0 precedes the first event at {first_time}")
    return t0


@dataclass(frozen=True, eq=False)
class EventSchedule:
    """Strictly increasing measurement times with attached detectors; ``times``
    and ``detector_labels`` are computed once, on construction."""

    events: tuple[tuple[float, DetectorModel], ...]

    def __post_init__(self) -> None:
        entries = tuple((float(t), det) for t, det in self.events)
        object.__setattr__(self, "events", entries)
        times = tuple(t for t, _ in entries)
        if not all(math.isfinite(t) for t in times):
            raise ScheduleError(f"event times must be finite, got {list(times)}")
        if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
            raise ScheduleError(f"event times must be strictly increasing, got {list(times)}")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "detector_labels", tuple(det.detector_label for _, det in entries))

    def detector(self, label: str) -> DetectorModel:
        for _, det in self.events:
            if det.detector_label == label:
                return det
        raise KeyError(f"no detector {label!r} in schedule; have {self.detector_labels}")

    def __len__(self) -> int:
        return len(self.events)


@dataclass(frozen=True, eq=False)
class HistoryState:
    """The global state over all clock readings, one anchor per segment.

    Segment k runs from event k (from -inf for k = 0) up to event k+1 (to +inf
    after the last event); ``anchors[k]`` is its state at ``anchor_time(k)``,
    over the system factors and the records of the first k detectors.
    ``layout`` is the full layout that ``state_at`` returns states on.

    Computed on construction: ``record_weights[k]``, the read-only
    |amplitude|^2 of ``anchors[k]`` summed over the system axes with one axis
    per scheduled detector, and ``record_labels[k]``, the labels along each
    axis: the ready label before the detector fires, its outcomes in Kraus
    order after, then the ready label while a later Kraus leaves weight there.
    """

    layout: SubsystemLayout
    h_system: Operator
    schedule: EventSchedule
    t0: float
    anchors: tuple[StateVector, ...]

    def __post_init__(self) -> None:
        if len(self.anchors) != len(self.schedule) + 1:
            raise DomainError("anchor count must be event count + 1")
        system_axes = tuple(range(len(self.h_system.layout.factors)))
        detectors = [det for _, det in self.schedule.events]
        weights, labels = [], []
        for k, anchor in enumerate(self.anchors):
            w = np.asarray((np.abs(anchor.as_tensor()) ** 2).sum(axis=system_axes))
            if abs(math.sqrt(w.sum()) - 1.0) > TOL_EQUALITY:
                raise DomainError("anchor states must be normalized")
            shown = []
            for axis, det in enumerate(detectors[:k]):
                outcomes = det.kraus.outcome_labels
                if w.shape[axis] == det.ancilla_dim:  # a whole ancilla: outcomes, then a ready slot with weight
                    order = list(range(1, det.ancilla_dim))
                    if w.take(0, axis=axis).any():
                        order.append(0)
                        outcomes += (det.ready_label,)
                    w = w.take(order, axis=axis)
                shown.append(outcomes)
            w = w.reshape(w.shape + (1,) * (len(detectors) - k))
            w.setflags(write=False)
            weights.append(w)
            labels.append((*shown, *((det.ready_label,) for det in detectors[k:])))
        object.__setattr__(self, "record_weights", tuple(weights))
        object.__setattr__(self, "record_labels", tuple(labels))

    def segment_at(self, t: float) -> int:
        """Index of the segment holding the clock reading ``t``."""
        # bisect would place NaN after every event time.
        if math.isnan(t):
            raise DomainError("clock reading t is NaN")
        return bisect.bisect_right(self.schedule.times, t)

    def anchor_time(self, k: int) -> float:
        return self.t0 if k == 0 else self.schedule.times[k - 1]


def history_layout(system: SubsystemLayout, schedule: EventSchedule) -> SubsystemLayout:
    """The full layout: system factors, then every detector's whole ancilla.

    Checks before anything is allocated: labels must not collide and a Kraus
    may act only on system factors and on records of detectors fired before it
    (LayoutError); the last, largest anchor ``build_history`` stores, the system
    times n_out per record or n_out + 1 for a record some Kraus acts on, must
    not exceed ``MAX_DENSE_DIM`` (DomainError).
    """
    records = tuple((det.detector_label, det.ancilla_dim) for _, det in schedule.events)
    full = SubsystemLayout(system.factors + records)
    present = dict(system.factors)
    targeted = set()
    for _, det in schedule.events:
        for label, dim in det.kraus.target_layout.factors:
            if present.get(label) != dim:
                raise LayoutError(
                    f"detector {det.detector_label!r} acts on factor ({label!r}, {dim}), which is neither "
                    f"a system factor nor the record of a detector fired before it"
                )
        present[det.detector_label] = det.ancilla_dim
        targeted.update(det.kraus.target_labels)
    stored = system.dim * math.prod(
        det.ancilla_dim - (det.detector_label not in targeted) for _, det in schedule.events
    )
    if stored > MAX_DENSE_DIM:
        raise DomainError(
            f"last anchor of {stored} amplitudes (system and stored records) exceeds the limit of "
            f"{MAX_DENSE_DIM} amplitudes"
        )
    return full


def _pad(state: StateVector, layout: SubsystemLayout) -> StateVector:
    """Zero-pad ``state`` into ``layout``, which lists the same factors in order except
    that a record may be whole where ``state`` stores its outcome slots (indices 1..n),
    and may be absent from ``state``, which then reads as its ready state (index 0)."""
    stored = dict(state.layout.factors)
    index = [range(dim - stored[label], dim) if label in stored else [0] for label, dim in layout.factors]
    out = np.zeros(layout.dims, dtype=np.complex128)
    out[np.ix_(*index)] = state.amplitudes.reshape([len(i) for i in index])
    return StateVector(layout, out.reshape(-1))


def _evolve(h: Operator, state: StateVector, t: float, t_from: float) -> StateVector:
    """``state`` carried from ``t_from`` to ``t`` by the free flow of ``h``.  The system
    factors lead every anchor, so one matmul on the system rows moves every record along."""
    rows = state.amplitudes.reshape(h.layout.dim, -1)
    return StateVector(state.layout, (propagator(h, t, t_from).matrix @ rows).reshape(-1))


def build_history(
    psi0: StateVector,
    t0: float,
    h_system: Operator,
    schedule: EventSchedule,
) -> HistoryState:
    """Assemble the piecewise history of a schedule of measurements.

    Anchor 0 is ``psi0`` at ``t0``: no detector has fired, so it stores no
    record.  Each later anchor is produced by freely evolving the previous one
    to the event time, giving every record that event's Kraus acts on its whole
    ancilla basis, and appending the event's record; the final segment extends
    to +infinity.  Detector self-dynamics is trivial, so records persist
    unchanged once written.  A history whose last anchor exceeds
    ``MAX_DENSE_DIM`` raises :class:`DomainError` before any amplitude is
    allocated.
    """
    if h_system.layout != psi0.layout:
        raise LayoutError("system Hamiltonian must act on the initial state's layout")
    if h_system._spectrum is None:
        raise DomainError("system Hamiltonian must be Hermitian")
    if not psi0.is_normalized:
        raise DomainError("initial state must be normalized")
    if not math.isfinite(t0):
        raise ScheduleError(f"t0={t0} must be finite")
    if len(schedule) and not t0 < schedule.times[0]:
        raise ScheduleError(f"t0={t0} must precede the first event at {schedule.times[0]}")

    full = history_layout(psi0.layout, schedule)
    anchors = [psi0]
    for (t_k, det), t_prev in zip(schedule.events, (t0,) + schedule.times):
        state = _evolve(h_system, anchors[-1], t_k, t_prev)
        targets = dict(det.kraus.target_layout.factors)
        factors = tuple((label, targets.get(label, dim)) for label, dim in state.layout.factors)
        if factors != state.layout.factors:
            state = _pad(state, SubsystemLayout(factors))
        anchors.append(apply_instrument(state, det))

    return HistoryState(full, h_system, schedule, t0, tuple(anchors))


def state_at(history: HistoryState, t: float) -> StateVector:
    """Condition the history on the clock reading ``t``.

    Locates the segment holding ``t``, transports its anchor with the free
    propagator, extended by the identity on every record, and zero-pads it to
    the full layout.  The amplitudes at t = +-inf are undefined, so ``t`` must
    be finite; a full layout beyond ``MAX_DENSE_DIM`` raises
    :class:`DomainError` before anything is allocated.
    """
    if not math.isfinite(t):
        raise DomainError(f"state_at needs a finite clock reading, got t={t}")
    if history.layout.dim > MAX_DENSE_DIM:
        raise DomainError(
            f"full layout of {history.layout.dim} amplitudes exceeds the limit of {MAX_DENSE_DIM} amplitudes"
        )
    k = history.segment_at(t)
    return _pad(_evolve(history.h_system, history.anchors[k], t, history.anchor_time(k)), history.layout)


def constraint_residual(history: HistoryState, t: float, dt: float) -> float:
    """Finite-difference residual of the free-evolution equation at ``t``.

    Uses the symmetric difference over [t-dt, t+dt], which must lie within a
    single segment; the residual is O(dt^2) for the smooth in-segment flow and
    undefined across an event.  It evolves the stored anchor: padding to the
    full layout would not change the norm.
    """
    if dt <= 0:
        raise DomainError("dt must be positive")
    k = history.segment_at(t - dt)
    if k != history.segment_at(t + dt):
        raise DomainError(f"interval [{t - dt}, {t + dt}] straddles an event boundary")
    if not (math.isfinite(t - dt) and math.isfinite(t + dt)):
        raise DomainError(f"constraint_residual needs finite clock readings, got [{t - dt}, {t + dt}]")
    h, anchor, t_k = history.h_system, history.anchors[k], history.anchor_time(k)
    psi_plus, psi_minus, psi = (_evolve(h, anchor, s, t_k).amplitudes for s in (t + dt, t - dt, t))
    h_psi = h.matrix @ psi.reshape(h.layout.dim, -1)
    residual = 1j * (psi_plus - psi_minus) / (2.0 * dt) - h_psi.reshape(-1)
    return float(np.linalg.norm(residual))
