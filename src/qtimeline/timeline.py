"""Piecewise history states for schedules of instantaneous measurements.

Between measurement events the dynamics is an analytic unitary flow, so the
global state over all clock readings is represented exactly by one anchor
state per time segment.  The segments are the half-open intervals between
consecutive event times, and the schedule is the one record of where they
begin and end.  Time is a query parameter: conditioning on a clock reading
selects a segment and evolves its anchor, and there is no discretized time
grid anywhere.

An anchor stores only the records that exist: the system factors, then one
axis per detector fired before it, in schedule order.  That axis holds the
detector's outcomes in Kraus order, or its whole ancilla basis (ready slot
included) from the first event whose Kraus acts on the record.  A detector
that has not fired has no axis; its record is the ready state.
``HistoryState.layout`` is the full layout, system then every whole ancilla,
and ``state_at`` zero-pads an anchor to it on demand.  The record weights
every probability reads are computed once per anchor, when the history is built.
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
    apply_on,
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
    ``layout`` is the full layout that ``state_at`` returns states on, and
    ``record_weights[k]``, computed on construction, is the read-only
    |amplitude|^2 of ``anchors[k]`` summed over the system axes.
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
        weights = []
        for anchor in self.anchors:
            w = np.asarray((np.abs(anchor.as_tensor()) ** 2).sum(axis=system_axes))
            if abs(math.sqrt(w.sum()) - 1.0) > TOL_EQUALITY:
                raise DomainError("anchor states must be normalized")
            w.setflags(write=False)
            weights.append(w)
        object.__setattr__(self, "record_weights", tuple(weights))

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


def _pad(state: StateVector, layout: SubsystemLayout, schedule: EventSchedule) -> StateVector:
    """Zero-pad ``state`` into ``layout``, which lists the same factors in order except
    that a record may be whole where ``state`` stores its outcome slots, and may be
    absent from ``state``, which then reads as its ready state."""
    stored = dict(state.layout.factors)
    index = []
    for label, dim in layout.factors:
        if label not in stored:
            index.append([schedule.detector(label).ready_index])
        elif stored[label] == dim:
            index.append(range(dim))
        else:
            det = schedule.detector(label)
            index.append([det.record_index(outcome) for outcome in det.kraus.outcome_labels])
    out = np.zeros(layout.dims, dtype=np.complex128)
    out[np.ix_(*index)] = state.amplitudes.reshape([len(i) for i in index])
    return StateVector(layout, out.reshape(-1))


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
        # The system factors lead every anchor, so one matmul propagates all records at once.
        amps = anchors[-1].amplitudes.reshape(psi0.layout.dim, -1)
        state = StateVector(anchors[-1].layout, (propagator(h_system, t_k, t_prev).matrix @ amps).reshape(-1))
        targets = dict(det.kraus.target_layout.factors)
        factors = tuple((label, targets.get(label, dim)) for label, dim in state.layout.factors)
        if factors != state.layout.factors:
            state = _pad(state, SubsystemLayout(factors), schedule)
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
    anchor = apply_on(propagator(history.h_system, t, history.anchor_time(k)), history.anchors[k])
    return _pad(anchor, history.layout, history.schedule)


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
    psi_plus, psi_minus, psi = (apply_on(propagator(h, s, t_k), anchor) for s in (t + dt, t - dt, t))
    residual = 1j * (psi_plus.amplitudes - psi_minus.amplitudes) / (2.0 * dt) - apply_on(h, psi).amplitudes
    return float(np.linalg.norm(residual))
