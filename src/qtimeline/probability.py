"""Outcome probabilities over history states at a fixed clock reading.

Every probability here is "at clock reading t".  The Hamiltonian acts on the
system factors only, so the weight of a detector-record configuration is the
same anywhere in a segment: the segment anchor's |amplitude|^2 summed over the
system axes.  That record-weight tensor is the single primitive; the history
computes it once per anchor when it is built, and every query reads it from
``HistoryState.record_weights``.  A joint probability reads one entry, a
marginal sums over the unnamed detectors, and a conditional is the Bayes
quotient of two such sums.  Absolute probabilities marginalized over the clock
are deliberately not offered.

The tensor has one axis per detector fired by t, in schedule order, read by
its size: a whole-ancilla axis by ``record_index``, an outcome-slot axis by
the outcome's position in Kraus order, where the ready label reads 0.  A
detector that has not fired has no axis and reads 1 on its ready label and 0
on any outcome.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .hilbert import DomainError
from .timeline import HistoryState

# Below this weight an event is treated as null and conditioning on it fails
# loudly instead of dividing.
NULL_EVENT_TOL = 1e-14


class ConditioningOnNullEvent(ZeroDivisionError):
    """The conditioning assignment has (numerically) zero probability."""


@dataclass(frozen=True)
class OutcomeQuery:
    """A (possibly partial) detector -> outcome assignment at one clock reading.

    With ``given``, even an empty one, it asks for P(assignments | given);
    without it, an empty ``assignments`` asks for the full table.
    """

    assignments: Mapping[str, str]
    t: float
    given: Mapping[str, str] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "assignments", dict(self.assignments))
        if self.given is not None:
            object.__setattr__(self, "given", dict(self.given))


@dataclass(frozen=True)
class ProbabilityTable:
    """Outcome-assignment grid at a fixed clock reading.

    ``rows`` maps assignment tuples (outcome label per entry of ``detectors``,
    in order) to raw probabilities.  ``given`` names the detectors that are
    conditioned on rather than jointly measured; when it is empty the rows of
    a full table sum to one.
    """

    detectors: tuple[str, ...]
    rows: tuple[tuple[tuple[str, ...], float], ...]
    t: float
    given: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for key, value in self.rows:
            if not math.isfinite(value):
                raise DomainError(f"non-finite probability {value} for {key}")
            if value < -1e-12:
                raise DomainError(f"negative probability {value} for {key}")

    def value(self, assignment: Mapping[str, str]) -> float:
        key = tuple(assignment[d] for d in self.detectors)
        for row_key, row_value in self.rows:
            if row_key == key:
                return row_value
        raise KeyError(f"no row {key} in table over {self.detectors}")

    @property
    def total(self) -> float:
        return sum(value for _, value in self.rows)

    def as_dict(self) -> dict[tuple[str, ...], float]:
        return dict(self.rows)


def _record_weights(history: HistoryState, t: float) -> np.ndarray:
    """Record-weight tensor of the segment holding ``t``: one axis per fired detector."""
    return history.record_weights[history.segment_at(t)]


def _weight(history: HistoryState, weights: np.ndarray, assignments: Mapping[str, str]) -> float:
    """Total weight of the records matching ``assignments``; unnamed detectors are summed."""
    known = set(history.schedule.detector_labels)
    unknown = set(assignments) - known
    if unknown:
        raise KeyError(f"unknown detectors {sorted(unknown)}; schedule has {sorted(known)}")
    index = [slice(None)] * weights.ndim
    null = False
    for axis, (_, det) in enumerate(history.schedule.events):
        label = assignments.get(det.detector_label)
        if label is None:
            continue
        full_index = det.record_index(label)  # KeyError on an unknown label
        if axis >= weights.ndim:
            null |= label != det.ready_label
        elif weights.shape[axis] == det.ancilla_dim:
            index[axis] = full_index
        elif label == det.ready_label:
            null = True
        else:
            index[axis] = det.kraus.outcome_labels.index(label)
    return 0.0 if null else float(weights[tuple(index)].sum())


def _nonnull(weight: float, given: Mapping[str, str], t: float) -> float:
    """The weight of a conditioning assignment, refused when it is (numerically) null."""
    if weight < NULL_EVENT_TOL:
        raise ConditioningOnNullEvent(
            f"conditioning assignment {dict(given)} has probability {weight:.3e} at t={t}"
        )
    return weight


def joint(history: HistoryState, query: OutcomeQuery) -> float:
    """Probability that every detector shows its assigned label at time t."""
    missing = set(history.schedule.detector_labels) - set(query.assignments)
    if missing:
        raise KeyError(f"joint requires a full assignment; missing {sorted(missing)}")
    return _weight(history, _record_weights(history, query.t), query.assignments)


def marginal(history: HistoryState, query: OutcomeQuery) -> float:
    """Probability of a partial assignment, summing implicitly over the rest."""
    if not query.assignments:
        raise KeyError("marginal requires at least one named detector")
    return _weight(history, _record_weights(history, query.t), query.assignments)


def conditional(
    history: HistoryState,
    target: Mapping[str, str],
    given: Mapping[str, str],
    t: float,
) -> float:
    """Bayes quotient P(target and given at t) / P(given at t)."""
    overlap = set(target) & set(given)
    if overlap:
        raise ValueError(f"target and given must name disjoint detectors; both name {sorted(overlap)}")
    weights = _record_weights(history, t)
    denominator = _nonnull(_weight(history, weights, given), given, t)
    return _weight(history, weights, {**target, **given}) / denominator


def outcome_labels_at(history: HistoryState, t: float) -> dict[str, tuple[str, ...]]:
    """Labels each detector can show at time t: those its full-table rows range over."""
    table = full_table(history, t)
    return {d: tuple(dict.fromkeys(key[i] for key, _ in table.rows)) for i, d in enumerate(table.detectors)}


def full_table(history: HistoryState, t: float) -> ProbabilityTable:
    """Joint probabilities of every full assignment realizable at time t.

    A detector shows its ready label until it fires and its outcomes after, plus
    its ready label while a later Kraus on its record leaves weight in that slot
    (only a whole-ancilla axis has that slot).  So the rows always sum to one.
    """
    weights = _record_weights(history, t)
    labels = []
    for axis, (_, det) in enumerate(history.schedule.events):
        if axis >= weights.ndim:
            labels.append((det.ready_label,))
            continue
        shown = det.kraus.outcome_labels
        if weights.shape[axis] == det.ancilla_dim:
            # A whole-ancilla axis is reordered to the outcomes, then the ready slot if it holds weight.
            if np.take(weights, det.ready_index, axis=axis).any():
                shown += (det.ready_label,)
            weights = np.take(weights, [det.record_index(label) for label in shown], axis=axis)
        labels.append(shown)
    rows = tuple(zip(itertools.product(*labels), np.ravel(weights).tolist()))
    return ProbabilityTable(history.schedule.detector_labels, rows, t)
