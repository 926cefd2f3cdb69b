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

The tensor has one axis per scheduled detector, and ``record_labels`` lists
the labels along each axis, so a record is read by its label alone: no
ancilla index and no axis size enters here.  A label an axis does not list
(an outcome of a detector that has not fired, say) weighs 0.
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


def _weight(history: HistoryState, k: int, assignments: Mapping[str, str]) -> float:
    """Weight of the records of anchor ``k`` that match ``assignments``; unnamed detectors are summed."""
    known = set(history.schedule.detector_labels)
    unknown = set(assignments) - known
    if unknown:
        raise KeyError(f"unknown detectors {sorted(unknown)}; schedule has {sorted(known)}")
    weights, labels = history.record_weights[k], history.record_labels[k]
    index = [slice(None)] * len(labels)
    null = False
    for axis, (_, det) in enumerate(history.schedule.events):
        label = assignments.get(det.detector_label)
        if label is None:
            continue
        det.record_index(label)  # KeyError on an unknown label
        if label in labels[axis]:
            index[axis] = labels[axis].index(label)
        else:
            null = True
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
    return _weight(history, history.segment_at(query.t), query.assignments)


def marginal(history: HistoryState, query: OutcomeQuery) -> float:
    """Probability of a partial assignment, summing implicitly over the rest."""
    if not query.assignments:
        raise KeyError("marginal requires at least one named detector")
    return _weight(history, history.segment_at(query.t), query.assignments)


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
    k = history.segment_at(t)
    denominator = _nonnull(_weight(history, k, given), given, t)
    return _weight(history, k, {**target, **given}) / denominator


def outcome_labels_at(history: HistoryState, t: float) -> dict[str, tuple[str, ...]]:
    """Labels each detector can show at time t: those its full-table rows range over."""
    return dict(zip(history.schedule.detector_labels, history.record_labels[history.segment_at(t)]))


def full_table(history: HistoryState, t: float) -> ProbabilityTable:
    """Joint probabilities of every full assignment realizable at time t.

    A detector shows its ready label until it fires and its outcomes after, plus
    its ready label while a later Kraus on its record leaves weight in that slot.
    So the rows always sum to one.
    """
    k = history.segment_at(t)
    rows = tuple(zip(itertools.product(*history.record_labels[k]), np.ravel(history.record_weights[k]).tolist()))
    return ProbabilityTable(history.schedule.detector_labels, rows, t)
