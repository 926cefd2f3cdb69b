"""Piecewise history states for schedules of instantaneous measurements.

Between measurement events the dynamics is an analytic unitary flow, so the
global state over all clock readings is represented exactly as half-open time
segments, each carrying an anchor state on system (x) detector factors.  Time
is a query parameter: conditioning on a clock reading selects a segment and
evolves its anchor, and there is no discretized time grid anywhere.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .hilbert import (
    DomainError,
    LayoutError,
    Operator,
    StateVector,
    SubsystemLayout,
    apply_on,
    propagator,
)
from .instrument import DetectorModel, apply_instrument

# Largest dense dimension build_history accepts: 2**24 complex128 amplitudes
# are 256 MiB, and a history keeps one such anchor per segment.
MAX_DENSE_DIM = 2**24


class ScheduleError(ValueError):
    """Event times are not finite and strictly increasing, or t0 is not before them."""


@dataclass(frozen=True, eq=False)
class EventSchedule:
    """Strictly increasing measurement times with attached detectors."""

    events: tuple[tuple[float, DetectorModel], ...]

    def __post_init__(self) -> None:
        entries = tuple((float(t), det) for t, det in self.events)
        object.__setattr__(self, "events", entries)
        times = [t for t, _ in entries]
        if not all(math.isfinite(t) for t in times):
            raise ScheduleError(f"event times must be finite, got {times}")
        if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
            raise ScheduleError(f"event times must be strictly increasing, got {times}")

    @property
    def times(self) -> tuple[float, ...]:
        return tuple(t for t, _ in self.events)

    @property
    def detector_labels(self) -> tuple[str, ...]:
        return tuple(det.detector_label for _, det in self.events)

    def detector(self, label: str) -> DetectorModel:
        for _, det in self.events:
            if det.detector_label == label:
                return det
        raise KeyError(f"no detector {label!r} in schedule; have {self.detector_labels}")

    def __len__(self) -> int:
        return len(self.events)


@dataclass(frozen=True, eq=False)
class Segment:
    """One half-open interval [t_start, t_end) of pure unitary flow."""

    t_start: float
    t_end: float
    anchor_time: float
    anchor_state: StateVector

    def __post_init__(self) -> None:
        if not self.t_start < self.t_end:
            raise DomainError(f"empty segment [{self.t_start}, {self.t_end})")
        if not (self.t_start <= self.anchor_time < self.t_end):
            raise DomainError("anchor time must lie inside the segment")
        if not self.anchor_state.is_normalized:
            raise DomainError("segment anchor state must be normalized")

    def covers(self, t: float) -> bool:
        return self.t_start <= t < self.t_end


@dataclass(frozen=True, eq=False)
class HistoryState:
    """The global state over all clock readings, one segment per regime."""

    layout: SubsystemLayout
    h_system: Operator
    schedule: EventSchedule
    segments: tuple[Segment, ...]

    def __post_init__(self) -> None:
        if len(self.segments) != len(self.schedule) + 1:
            raise DomainError("segment count must be event count + 1")

    def segment_at(self, t: float) -> Segment:
        # bisect would place NaN after every event time.
        if math.isnan(t):
            raise DomainError("clock reading t is NaN")
        index = bisect.bisect_right(self.schedule.times, t)
        return self.segments[index]


def history_layout(system: SubsystemLayout, schedule: EventSchedule) -> SubsystemLayout:
    """System factors then one record per event; LayoutError on a label collision,
    DomainError beyond ``MAX_DENSE_DIM``, both before anything is allocated."""
    seen = set(system.labels)
    for label in schedule.detector_labels:
        if label in seen:
            raise LayoutError(f"detector label {label!r} collides with an existing factor")
        seen.add(label)
    records = tuple((det.detector_label, det.ancilla_dim) for _, det in schedule.events)
    full = SubsystemLayout(system.factors + records)
    if full.dim > MAX_DENSE_DIM:
        raise DomainError(
            f"dense dimension {full.dim} of system and detector records exceeds the limit of "
            f"{MAX_DENSE_DIM} amplitudes"
        )
    return full


def build_history(
    psi0: StateVector,
    t0: float,
    h_system: Operator,
    schedule: EventSchedule,
) -> HistoryState:
    """Assemble the piecewise history of a schedule of measurements.

    Segment 0 carries ``psi0`` tensored with every detector's ready state,
    anchored at ``t0``.  Each later segment is produced by freely evolving the
    previous anchor to the event time and recording that event's outcome set
    into its ancilla; the final segment extends to +infinity.  Detector
    self-dynamics is trivial, so records persist unchanged once written.
    A history whose dense dimension exceeds ``MAX_DENSE_DIM`` raises
    :class:`DomainError` before any amplitude is allocated.
    """
    if h_system.layout != psi0.layout:
        raise LayoutError("system Hamiltonian must act on the initial state's layout")
    if not h_system.is_hermitian():
        raise DomainError("system Hamiltonian must be Hermitian")
    if not psi0.is_normalized:
        raise DomainError("initial state must be normalized")
    if len(schedule) and not t0 < schedule.times[0]:
        raise ScheduleError(f"t0={t0} must precede the first event at {schedule.times[0]}")

    full = history_layout(psi0.layout, schedule)
    # psi0 (x) |r...r>: psi0 written at every detector's ready index.
    amps = np.zeros((psi0.layout.dim,) + full.dims[len(psi0.layout.factors):], dtype=np.complex128)
    amps[(slice(None),) + tuple(det.ready_index for _, det in schedule.events)] = psi0.amplitudes
    state = StateVector(full, amps.reshape(-1))

    times = schedule.times
    first_end = times[0] if times else math.inf
    segments = [Segment(-math.inf, first_end, t0, state)]

    for k, (t_k, det) in enumerate(schedule.events):
        prev = segments[-1]
        evolved = apply_on(propagator(h_system, t_k, prev.anchor_time), prev.anchor_state)
        post = apply_instrument(evolved, det)
        t_end = times[k + 1] if k + 1 < len(times) else math.inf
        segments.append(Segment(t_k, t_end, t_k, post))

    return HistoryState(full, h_system, schedule, tuple(segments))


def state_at(history: HistoryState, t: float) -> StateVector:
    """Condition the history on the clock reading ``t``.

    Locates the segment covering ``t`` and transports its anchor with the free
    propagator, extended by the identity on every detector factor.  The
    amplitudes at t = +-inf are undefined, so ``t`` must be finite.
    """
    if not math.isfinite(t):
        raise DomainError(f"state_at needs a finite clock reading, got t={t}")
    seg = history.segment_at(t)
    return apply_on(propagator(history.h_system, t, seg.anchor_time), seg.anchor_state)


def constraint_residual(history: HistoryState, t: float, dt: float) -> float:
    """Finite-difference residual of the free-evolution equation at ``t``.

    Uses the symmetric difference over [t-dt, t+dt], which must lie within a
    single segment; the residual is O(dt^2) for the smooth in-segment flow and
    undefined across an event.
    """
    if dt <= 0:
        raise DomainError("dt must be positive")
    seg = history.segment_at(t)
    if not (seg.covers(t - dt) and seg.covers(t + dt)):
        raise DomainError(f"interval [{t - dt}, {t + dt}] straddles an event boundary")
    psi_plus = state_at(history, t + dt).amplitudes
    psi_minus = state_at(history, t - dt).amplitudes
    h_psi = apply_on(history.h_system, state_at(history, t)).amplitudes
    residual = 1j * (psi_plus - psi_minus) / (2.0 * dt) - h_psi
    return float(np.linalg.norm(residual))
