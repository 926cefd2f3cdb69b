"""Piecewise history states for schedules of instantaneous measurements.

Between measurement events the dynamics is an analytic unitary flow, so the
global state over all clock readings is represented exactly by one anchor
state per time segment.  The segments are the half-open intervals between
consecutive event times, and the schedule is the one record of where they
begin and end.  Time is a query parameter: conditioning on a clock reading
selects a segment and evolves its anchor, and there is no discretized time
grid anywhere.

Two places know how a record is stored: ``instrument.apply_instrument``
appends a fired detector's record as its n outcome slots, and this module
decides everything else.  An ancilla's basis is fixed
(``DetectorModel.record_index``): ready at index 0, outcome i at index i + 1.
An anchor stores the system factors, then one axis per detector fired before
it, in schedule order: its outcome slots 1..n, or its whole ancilla from the
first event whose Kraus acts on the record.  A detector that has not fired has
no axis; its record is ready.  ``HistoryState.layout`` is the full layout,
system then every whole ancilla, and ``state_at`` zero-pads an anchor to it.
Each segment's record weights, the one probability primitive, are formed per
anchor on its first read as a labelled ``ProbabilityTable``
(``HistoryState.records``), so no reader needs the storage convention.
``history_layout``'s verdict, keyed by the system layout and each event's
(name, ancilla dimension, target factors), and ``_pad``'s slice block, keyed by
its two layouts, are cached as ``hilbert``'s plans are: ``CACHE_SIZE`` entries, no refusal.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .hilbert import (CACHE_SIZE, DomainError, LayoutError, Operator, StateVector, SubsystemLayout, TOL_EQUALITY,
                      _layout, _unitary)
from .instrument import DetectorModel, apply_instrument
from .probability import ProbabilityTable

# Largest array a history allocates: 2**24 complex128 amplitudes are 256 MiB.
# history_layout bounds the last anchor, which no earlier anchor and no
# intermediate of the build outgrows, and state_at bounds its full-layout
# padding; both check before they allocate.
MAX_DENSE_DIM = 2**24


class ScheduleError(ValueError):
    """Event times are not finite and strictly increasing, or t0 is not before them."""


@dataclass(frozen=True, eq=False)
class EventSchedule:
    """Strictly increasing measurement times with attached detectors; ``times``, ``detector_labels`` and the
    name -> detector and name -> shown-labels maps that ``detector`` and ``check`` read are computed once,
    on construction."""

    events: tuple[tuple[float, DetectorModel], ...]

    def __post_init__(self) -> None:
        for t, _ in self.events:  # a bool or a str is no time, as the scenario parser rules
            if isinstance(t, bool) or not isinstance(t, (int, float, np.integer, np.floating)):
                raise ScheduleError(f"event time {t!r} is not a real number")
        entries = tuple([(float(t), det) for t, det in self.events])
        object.__setattr__(self, "events", entries)
        times, detectors = tuple(zip(*entries)) or ((), ())
        if not all(map(math.isfinite, times)):
            raise ScheduleError(f"event times must be finite, got {list(times)}")
        if list(times) != sorted(set(times)):  # finite, so strictly increasing exactly when sorted and distinct
            raise ScheduleError(f"event times must be strictly increasing, got {list(times)}")
        by_name = {det.detector_label: det for det in reversed(detectors)}  # the first of a repeated name wins
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "detector_labels", tuple([det.detector_label for det in detectors]))
        object.__setattr__(self, "_detectors", by_name)
        object.__setattr__(self, "_shown", {name: (det.ready_label, *det.kraus.outcome_labels)
                                            for name, det in by_name.items()})

    def detector(self, label: str) -> DetectorModel:
        try:
            return self._detectors[label]
        except (KeyError, TypeError):  # TypeError: an unhashable label names no detector either
            raise KeyError(f"no detector {label!r} in schedule; have {self.detector_labels}") from None

    def check(self, assignment: dict[str, str]) -> None:
        """KeyError unless each name is a scheduled detector and each label one it can show: the query rule."""
        for name, label in assignment.items():
            if label not in self._shown.get(name, ()):
                self.detector(name).record_index(label)  # raises the detector's or the label's KeyError

    def __len__(self) -> int:
        return len(self.events)


def start_time(t0: float | None, schedule: EventSchedule) -> float:
    """A history's start: ``t0``, or for None 0 with no events, else one unit before the first event, or the
    next float below it once rounding loses that unit (|t| >= 2**53).  ScheduleError unless it is finite and
    before the first event."""
    first = schedule.times[0] if schedule.times else math.inf
    if t0 is None:
        t0 = min(first - 1.0, math.nextafter(first, -math.inf)) if schedule.times else 0.0
        if not math.isfinite(t0):
            raise ScheduleError(f"no finite t0 precedes the first event at {first}")
    elif not math.isfinite(t0):
        raise ScheduleError(f"t0={t0} must be finite")
    elif not t0 < first:
        raise ScheduleError(f"t0={t0} must precede the first event at {first}")
    return t0


@dataclass(frozen=True, eq=False)
class HistoryState:
    """The global state over all clock readings, one anchor per segment.

    Segment k runs from event k (from -inf for k = 0) up to event k+1 (to +inf
    after the last event); ``anchors[k]`` is its state at ``anchor_time(k)``,
    over the system factors and the records of the first k detectors.
    Construction checks that every anchor is normalized.
    """

    h_system: Operator
    schedule: EventSchedule
    t0: float
    anchors: tuple[StateVector, ...]

    def __post_init__(self) -> None:
        if len(self.anchors) != len(self.schedule) + 1:
            raise DomainError("anchor count must be event count + 1")
        if not all(anchor.is_normalized for anchor in self.anchors):
            k = next(k for k, anchor in enumerate(self.anchors) if not anchor.is_normalized)
            after = f"after detector {self.schedule.detector_labels[k - 1]!r}" if k else "initial state"
            raise DomainError(f"anchor states must be normalized: anchor {k} ({after}) has norm "
                              f"{self.anchors[k].norm!r}, more than {TOL_EQUALITY:g} from 1")
        object.__setattr__(self, "_records", [None] * len(self.anchors))  # filled by ``records``
        object.__setattr__(self, "_system_axes", tuple(range(len(self.h_system.layout.dims))))

    def records(self, k: int) -> ProbabilityTable:
        """The full table of segment ``k``, formed and checked on first read and cached in a list that holds no
        reference back to the history.  ``weights``: the read-only |amplitude|^2 of ``anchors[k]`` summed over
        the system axes, one axis per scheduled detector; ``labels``: per axis, the ready label before it fires,
        its outcomes in Kraus order after, then the ready label while a later Kraus leaves weight there."""
        if (table := self._records[k]) is not None:
            return table
        w = np.asarray((np.abs(self.anchors[k].as_tensor()) ** 2).sum(axis=self._system_axes))
        labels = []
        for axis, (_, det) in enumerate(self.schedule.events):
            if axis >= k:
                labels.append((det.ready_label,))
            elif w.shape[axis] == det.ancilla_dim:  # a whole ancilla: outcomes, then a ready slot with weight
                order, shown = list(range(1, det.ancilla_dim)), det.kraus.outcome_labels
                if w.take(0, axis=axis).any():
                    order.append(0)
                    shown += (det.ready_label,)
                w = w.take(order, axis=axis)
                labels.append(shown)
            else:
                labels.append(det.kraus.outcome_labels)
        w = w.reshape(w.shape + (1,) * (len(labels) - k))
        w.setflags(write=False)
        self._records[k] = table = ProbabilityTable(self.schedule.detector_labels, tuple(labels), w)
        return table

    @cached_property
    def layout(self) -> SubsystemLayout:
        """The full layout, ``history_layout`` of the system and the schedule, that ``state_at`` returns states on."""
        return history_layout(self.h_system.layout, self.schedule)

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
    return _history_layout(system, tuple([(det.detector_label, det.ancilla_dim, det.kraus.target_layout.factors)
                                          for _, det in schedule.events]))


@lru_cache(maxsize=CACHE_SIZE)
def _history_layout(system: SubsystemLayout, events: tuple) -> SubsystemLayout:
    """``history_layout``'s verdict from its structure: (name, ancilla dimension, target factors) per event."""
    full = _layout(system.factors + tuple((name, dim) for name, dim, _ in events))
    present = dict(system.factors)
    targeted = set()
    for name, ancilla_dim, targets in events:
        for label, dim in targets:
            if present.get(label) != dim:
                raise LayoutError(f"detector {name!r} acts on factor ({label!r}, {dim}), which is neither "
                                  f"a system factor nor the record of a detector fired before it")
        present[name] = ancilla_dim
        targeted.update(label for label, _ in targets)
    stored = system.dim * math.prod(dim - (name not in targeted) for name, dim, _ in events)
    if stored > MAX_DENSE_DIM:
        raise DomainError(f"last anchor of {stored} amplitudes (system and stored records) exceeds the limit of "
                          f"{MAX_DENSE_DIM} amplitudes")
    return full


def _pad(amplitudes: np.ndarray, stored: SubsystemLayout, layout: SubsystemLayout) -> StateVector:
    """Amplitudes on ``stored`` zero-padded into ``layout``, by one slice assignment: ``layout`` lists
    the same factors in order except that a record may be whole where ``stored`` keeps its outcome
    slots (1..n), and may be absent from ``stored``, which then reads as its ready state (index 0)."""
    block, shape = _pad_plan(stored, layout)
    out = np.zeros(layout.dims, dtype=np.complex128)
    out[block] = amplitudes.reshape(shape)
    out = out.reshape(-1)
    out.setflags(write=False)
    return StateVector(layout, out)


@lru_cache(maxsize=CACHE_SIZE)
def _pad_plan(stored: SubsystemLayout, layout: SubsystemLayout) -> tuple[tuple[slice, ...], tuple[int, ...]]:
    """``_pad``'s slice block in ``layout`` and the shape ``stored``'s amplitudes take inside it."""
    dims = dict(stored.factors)
    block = tuple(slice(dim - dims[label], dim) if label in dims else slice(1) for label, dim in layout.factors)
    return block, tuple(dims.get(label, 1) for label in layout.labels)


def _evolve(h: Operator, state: StateVector, t: float, t_from: float) -> np.ndarray:
    """The amplitudes of ``state`` carried from ``t_from`` to ``t`` by the free flow of ``h``, read-only.
    The system factors lead every anchor, so one matmul on the system rows moves every record along.
    A zero generator (max|w| = 0) moves nothing over a finite interval: its own amplitudes come back."""
    if h._spectrum[3] == 0.0 and math.isfinite(t - t_from):
        return state.amplitudes
    amplitudes = (_unitary(h, t - t_from) @ state.amplitudes.reshape(h.layout.dim, -1)).reshape(-1)
    amplitudes.setflags(write=False)
    return amplitudes


def build_history(psi0: StateVector, t0: float | None, h_system: Operator, schedule: EventSchedule) -> HistoryState:
    """Assemble the piecewise history of a schedule of measurements.

    Anchor 0 is ``psi0`` at ``t0``, as ``start_time`` judges it: no detector
    has fired, so it stores no record.  Each later anchor is produced by freely evolving the previous one
    to the event time, giving every record that event's Kraus acts on its whole
    ancilla basis, and appending the event's record; the final segment extends
    to +infinity.  Detector self-dynamics is trivial, so records persist
    unchanged once written.  A history whose last anchor exceeds
    ``MAX_DENSE_DIM`` raises :class:`DomainError` before any amplitude is
    allocated.
    """
    if h_system.layout != psi0.layout:
        raise LayoutError("system Hamiltonian must act on the initial state's layout")
    h_system._spectrum  # DomainError unless Hermitian, even when no event ever evolves the state
    if not psi0.is_normalized:
        raise DomainError("initial state must be normalized")
    t0 = start_time(t0, schedule)

    history_layout(psi0.layout, schedule)  # its checks, before anything is allocated
    anchors = [psi0]
    for (t_k, det), t_prev in zip(schedule.events, (t0,) + schedule.times):
        stored = anchors[-1].layout
        amplitudes = _evolve(h_system, anchors[-1], t_k, t_prev)
        targets = det.kraus.target_layout.factors
        if all(map(stored.factors.__contains__, targets)):
            state = StateVector(stored, amplitudes)
        else:  # a Kraus on a record stored as its outcome slots needs its whole ancilla
            whole = dict(targets)
            factors = tuple((label, whole.get(label, dim)) for label, dim in stored.factors)
            state = _pad(amplitudes, stored, _layout(factors))
        anchors.append(apply_instrument(state, det))

    return HistoryState(h_system, schedule, t0, tuple(anchors))


def state_at(history: HistoryState, t: float) -> StateVector:
    """Condition the history on the clock reading ``t``.

    Locates the segment holding ``t``, transports its anchor with the free
    propagator, extended by the identity on every record, and zero-pads it to
    the full layout.  The amplitudes at t = +-inf are undefined, so the
    propagator refuses their phases; a full layout beyond ``MAX_DENSE_DIM``
    raises :class:`DomainError` before anything is allocated.
    """
    if history.layout.dim > MAX_DENSE_DIM:
        raise DomainError(f"full layout of {history.layout.dim} amplitudes exceeds the limit of "
                          f"{MAX_DENSE_DIM} amplitudes")
    k = history.segment_at(t)
    anchor = history.anchors[k]
    return _pad(_evolve(history.h_system, anchor, t, history.anchor_time(k)), anchor.layout, history.layout)


def constraint_residual(history: HistoryState, t: float, dt: float) -> float:
    """Finite-difference residual of the free-evolution equation at ``t``.

    Uses the symmetric difference over [t-dt, t+dt], which must lie within a
    single segment; the residual is O(dt^2) for the smooth in-segment flow and
    undefined across an event or at an infinite reading.  It evolves the stored
    anchor: padding to the full layout would not change the norm.
    """
    if dt <= 0:
        raise DomainError("dt must be positive")
    k = history.segment_at(t - dt)
    if k != history.segment_at(t + dt):
        raise DomainError(f"interval [{t - dt}, {t + dt}] straddles an event boundary")
    h, anchor, t_k = history.h_system, history.anchors[k], history.anchor_time(k)
    psi_plus, psi_minus, psi = (_evolve(h, anchor, s, t_k) for s in (t + dt, t - dt, t))
    h_psi = h.matrix @ psi.reshape(h.layout.dim, -1)
    residual = 1j * (psi_plus - psi_minus) / (2.0 * dt) - h_psi.reshape(-1)
    return float(np.linalg.norm(residual))
