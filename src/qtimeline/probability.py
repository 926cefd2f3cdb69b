"""Outcome probabilities over history states at a fixed clock reading.

Every probability here is "at clock reading t".  The Hamiltonian acts on the
system factors only, so the weight of a detector-record configuration is the
same anywhere in a segment: the segment anchor's |amplitude|^2 summed over the
system axes.  That labelled record-weight array is the single primitive: the
history forms it once per anchor, on first read, as a ``ProbabilityTable`` with
one axis per scheduled detector, and checks it then (``HistoryState.records``).
A full table is that very table; a joint probability reads one entry, a
marginal sums over the unnamed detectors, and a conditional is the Bayes
quotient of two such sums.  Records are read by label alone, through one
label-to-index step; a label an axis does not list (an outcome of a detector
that has not fired, say) weighs 0.  Absolute probabilities marginalized over
the clock are deliberately not offered."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

import numpy as np

from .hilbert import TOL_EQUALITY, DomainError, _frozen

if TYPE_CHECKING:
    from .timeline import HistoryState

# Below this weight an event is treated as null and conditioning on it fails
# loudly instead of dividing.
NULL_EVENT_TOL = 1e-14


class ConditioningOnNullEvent(ZeroDivisionError):
    """The conditioning assignment has (numerically) zero probability."""


@dataclass(frozen=True)
class OutcomeQuery:
    """A (possibly partial) detector -> outcome assignment at one clock reading.

    With ``given``, even an empty one, it asks for P(assignments | given) over disjoint
    detectors (DomainError otherwise); without it, an empty ``assignments`` asks for the full table.
    """

    assignments: Mapping[str, str]
    t: float
    given: Mapping[str, str] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "assignments", dict(self.assignments))
        if self.given is not None:
            object.__setattr__(self, "given", dict(self.given))
            if overlap := self.assignments.keys() & self.given.keys():
                raise DomainError(f"target and given must name disjoint detectors; both name {sorted(overlap)}")


@dataclass(frozen=True, eq=False)
class ProbabilityTable:
    """Outcome-assignment grid at a fixed clock reading: a weight array with labelled axes.

    ``weights`` has one axis per entry of ``detectors`` and ``labels`` lists the
    outcome labels along each axis.  A read-only array (an anchor's record
    weights) is held as given; a writable one is copied once and frozen.
    ``given`` names the detectors conditioned on rather than jointly measured;
    when it is empty the weights of a full table sum to one.  ``rows`` pairs
    each ``itertools.product(*labels)`` key with its weight, built per read: a history keeps its tables.
    """

    detectors: tuple[str, ...]
    labels: tuple[tuple[str, ...], ...]
    weights: np.ndarray
    given: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        weights = _frozen(self.weights, np.float64)
        object.__setattr__(self, "weights", weights)
        if weights.shape != tuple(map(len, self.labels)) or len(self.detectors) != weights.ndim:
            raise DomainError(f"weights of shape {weights.shape} do not fit the labels {self.labels}")
        if not (weights.min(initial=0.0) >= -TOL_EQUALITY and weights.max(initial=0.0) < math.inf):  # NaN fails both
            bad = ~np.isfinite(weights) | (weights < -TOL_EQUALITY)
            cell = np.unravel_index(bad.argmax(), weights.shape)  # the first in row order
            value, key = float(weights[cell]), tuple(axis[i] for axis, i in zip(self.labels, cell))
            kind = "negative" if math.isfinite(value) else "non-finite"
            raise DomainError(f"{kind} probability {value} for {key}")

    def value(self, assignment: Mapping[str, str]) -> float:
        if extra := assignment.keys() - self.detectors:
            raise KeyError(f"no detector {sorted(extra)} in table over {self.detectors}")
        if missing := set(self.detectors) - assignment.keys():
            raise KeyError(f"value requires a full assignment; missing {sorted(missing)}")
        key = tuple(assignment[d] for d in self.detectors)
        if (index := _index(self.labels, key)) is None:
            raise KeyError(f"no row {key} in table over {self.detectors}")
        return float(self.weights[index])

    @property
    def total(self) -> float:
        return float(self.weights.sum())

    @property
    def rows(self) -> tuple[tuple[tuple[str, ...], float], ...]:
        return tuple(zip(itertools.product(*self.labels), self.weights.ravel().tolist()))

    def as_dict(self) -> dict[tuple[str, ...], float]:
        return dict(self.rows)


def _index(labels: tuple[tuple[str, ...], ...], key) -> tuple | None:
    """Index of ``key`` on axes listing ``labels`` (None takes a whole axis); None for an unlisted label."""
    try:
        return tuple(slice(None) if label is None else axis.index(label) for axis, label in zip(labels, key))
    except ValueError:
        return None


def _weight(history: HistoryState, k: int, assignments: Mapping[str, str]) -> float:
    """Weight of the records of anchor ``k`` that match ``assignments``; unnamed detectors are summed."""
    history.schedule.check(assignments)
    records = history.records(k)
    index = _index(records.labels, map(assignments.get, records.detectors))
    return 0.0 if index is None else float(records.weights[index].sum())


def _nonnull(weight: float, given: Mapping[str, str], t: float) -> float:
    """The weight of a conditioning assignment, refused when it is (numerically) null."""
    if weight < NULL_EVENT_TOL:
        raise ConditioningOnNullEvent(
            f"conditioning assignment {dict(given)} has probability {weight:.3e} at t={t}"
        )
    return weight


def _unconditioned(history: HistoryState, query: OutcomeQuery, name: str) -> float:
    """The weight of ``query.assignments`` at ``query.t``; a query with ``given`` is refused, not half-read."""
    if query.given is not None:
        raise DomainError(f"{name} reads no 'given'; ask conditional for P(assignments | given)")
    return _weight(history, history.segment_at(query.t), query.assignments)


def joint(history: HistoryState, query: OutcomeQuery) -> float:
    """Probability that every detector shows its assigned label at time t."""
    missing = set(history.schedule.detector_labels) - set(query.assignments)
    if missing:
        raise KeyError(f"joint requires a full assignment; missing {sorted(missing)}")
    return _unconditioned(history, query, "joint")


def marginal(history: HistoryState, query: OutcomeQuery) -> float:
    """Probability of a partial assignment, summing implicitly over the rest."""
    if not query.assignments:
        raise KeyError("marginal requires at least one named detector")
    return _unconditioned(history, query, "marginal")


def conditional(
    history: HistoryState,
    target: Mapping[str, str],
    given: Mapping[str, str],
    t: float,
) -> float:
    """Bayes quotient P(target and given at t) / P(given at t)."""
    query = OutcomeQuery(target, t, given)
    k = history.segment_at(t)
    denominator = _nonnull(_weight(history, k, query.given), query.given, t)
    return _weight(history, k, {**query.assignments, **query.given}) / denominator


def outcome_labels_at(history: HistoryState, t: float) -> dict[str, tuple[str, ...]]:
    """Labels each detector can show at time t: those its full-table rows range over."""
    return dict(zip(history.schedule.detector_labels, full_table(history, t).labels))


def full_table(history: HistoryState, t: float) -> ProbabilityTable:
    """Joint probabilities of every full assignment realizable at time t.

    A detector shows its ready label until it fires and its outcomes after, plus
    its ready label while a later Kraus on its record leaves weight in that slot.
    So the rows always sum to one.  It is the segment's own table, the same object on every call.
    """
    return history.records(history.segment_at(t))
