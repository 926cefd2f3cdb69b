"""Outcome probabilities over history states at a fixed clock reading.

Every probability here is "at clock reading t".  The Hamiltonian acts on the
system factors only, so the weight of a detector-record configuration is the
same anywhere in a segment: the segment anchor's |amplitude|^2 summed over the
system axes.  That labelled record-weight array is the single primitive: the
history forms it once per anchor, on first read, as a ``ProbabilityTable`` with
one axis per scheduled detector, and checks it then (``HistoryState.records``).
A full table is that very table, and every other answer is a chain of its
public derivations (``query_table``): ``select`` is the one cut of axes to
assigned labels (a label an axis does not list weighs 0), ``marginal`` sums
the unnamed axes away and ``conditioned`` is the one Bayes quotient.  Absolute
probabilities marginalized over the clock are deliberately not offered."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Collection, Mapping

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

    ``select`` (the one cut), ``marginal`` and ``conditioned`` (the one quotient) derive tables.  A table is trusted
    when its cells lie in [0, 1 + TOL_EQUALITY] (a history's do) or it derives from a trusted one: a cut or summed
    cell is then at most the root table's total and a quotient by weights of at least NULL_EVENT_TOL is at most 1,
    so a trusted table's derivations hold their new arrays unchecked and uncopied; others are checked.  The checks
    also refuse a repeated detector name, a label repeated on one axis and a ``given`` that names no axis.
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
        if len(set(self.detectors)) != len(self.detectors):
            raise DomainError(f"detector names {self.detectors} repeat; a selection could not tell their axes apart")
        for d, axis in zip(self.detectors, self.labels):
            if len(set(axis)) != len(axis):
                raise DomainError(f"labels {axis} of detector {d!r} repeat; a row key could not tell them apart")
        if extra := set(self.given).difference(self.detectors):
            raise DomainError(f"given names {sorted(extra)}, no axis of the table over {self.detectors}")
        low, high = weights.min(initial=0.0), weights.max(initial=0.0)
        if not (low >= -TOL_EQUALITY and high < math.inf):  # NaN fails both
            bad = ~np.isfinite(weights) | (weights < -TOL_EQUALITY)
            cell = np.unravel_index(bad.argmax(), weights.shape)  # the first in row order
            value, key = float(weights[cell]), tuple(axis[i] for axis, i in zip(self.labels, cell))
            kind = "negative" if math.isfinite(value) else "non-finite"
            raise DomainError(f"{kind} probability {value} for {key}")
        object.__setattr__(self, "_trusted", low >= 0 and high <= 1 + TOL_EQUALITY)  # else its derivations are checked

    def value(self, assignment: Mapping[str, str]) -> float:
        self._axes(assignment)
        if missing := set(self.detectors) - assignment.keys():
            raise KeyError(f"value requires a full assignment; missing {sorted(missing)}")
        key = tuple(assignment[d] for d in self.detectors)
        if not all(label in axis for axis, label in zip(self.labels, key)):
            raise KeyError(f"no row {key} in table over {self.detectors}")
        return self.select(assignment).weights.item()

    def select(self, assignment: Mapping[str, str]) -> ProbabilityTable:
        """Each named axis cut to its assigned label, the others whole; a label the axis does not list weighs 0."""
        labels, index, listed = list(self.labels), [slice(None)] * len(self.labels), True
        for axis, label in zip(self._axes(assignment), assignment.values()):
            shown, labels[axis] = labels[axis], (label,)
            if listed := listed and label in shown:
                index[axis] = slice(i := shown.index(label), i + 1)
        weights = self.weights[tuple(index)] if listed else np.zeros([len(axis) for axis in labels])
        return self._derived(self.detectors, tuple(labels), weights, self.given)

    def marginal(self, names: Collection[str]) -> ProbabilityTable:
        """This table summed over every axis ``names`` does not name, axes in this table's order; itself if none."""
        self._axes(names)
        detectors, labels, summed = [], [], []
        for axis, d in enumerate(self.detectors):
            if d in names:
                detectors.append(d)
                labels.append(self.labels[axis])
            else:
                summed.append(axis)
        if not summed:
            return self
        given = tuple([d for d in self.given if d in names])
        return self._derived(tuple(detectors), tuple(labels), self.weights.sum(axis=tuple(summed)), given)

    def conditioned(self, names: Collection[str], t: float) -> ProbabilityTable:
        """This table over its marginal of ``names``, marked given; refused at the first null label a row loop meets."""
        return self._quotients(t, names)[0]

    def _quotients(self, t: float, *groups: Collection[str]) -> list[ProbabilityTable]:
        """This table over its marginal of each group of names, marked given.  All groups are judged before any
        quotient is formed: ConditioningOnNullEvent at the first null label a row loop meets, group by group per row."""
        spreads = []
        for names in groups:
            self._axes(names)
            summed = tuple([axis for axis, d in enumerate(self.detectors) if d not in names])
            spreads.append(self.weights.sum(axis=summed, keepdims=True))
        # A Python min over few cells, sums of checked cells and so never NaN, is cheaper than a numpy reduction.
        if min([min(spread.ravel().tolist(), default=math.inf) for spread in spreads]) < NULL_EVENT_TOL:
            cells = [np.broadcast_to(spread, self.weights.shape) for spread in spreads]
            if (met := np.any([w < NULL_EVENT_TOL for w in cells], axis=0)).any():  # a zero-width axis leaves no row
                cell = np.unravel_index(met.argmax(), self.weights.shape)
                names, w = next((names, w) for names, w in zip(groups, cells) if w[cell] < NULL_EVENT_TOL)
                labels = {d: axis[i] for d, axis, i in zip(self.detectors, self.labels, cell)}
                raise ConditioningOnNullEvent(f"conditioning assignment { {d: labels[d] for d in names} } "
                                              f"has probability {w[cell]:.3e} at t={t}")
        return [self._derived(self.detectors, self.labels, self.weights / spread,
                              tuple([d for d in self.detectors if d in names or d in self.given]))
                for names, spread in zip(groups, spreads)]

    def _axes(self, names: Collection[str]) -> list[int]:
        """The axis of each name, in the order given; TypeError for a str, KeyError naming every unknown detector."""
        if isinstance(names, str):  # a str is a collection of characters, never of detector names
            raise TypeError(f"pass a collection of detector names, not the string {names!r}")
        try:
            return list(map(self.detectors.index, names))
        except ValueError:
            extra = sorted(set(names).difference(self.detectors))
            raise KeyError(f"no detector {extra} in table over {self.detectors}") from None

    def _derived(self, detectors, labels, weights, given) -> ProbabilityTable:
        """A table of cells derived from this one's: unchecked if this one is trusted, checked otherwise."""
        (weights := np.asarray(weights)).setflags(write=False)  # new, or a view of read-only cells: held as it is
        if not self._trusted:
            return ProbabilityTable(detectors, labels, weights, given)
        table = object.__new__(ProbabilityTable)
        table.__dict__.update(detectors=detectors, labels=labels, weights=weights, given=given, _trusted=True)
        return table

    @property
    def total(self) -> float:
        return float(self.weights.sum())

    @property
    def rows(self) -> tuple[tuple[tuple[str, ...], float], ...]:
        return tuple(zip(itertools.product(*self.labels), self.weights.ravel().tolist()))

    def as_dict(self) -> dict[tuple[str, ...], float]:
        return dict(self.rows)


def query_table(history: HistoryState, query: OutcomeQuery) -> ProbabilityTable:
    """The query's answer as a table derived from the segment's at ``query.t``: cut to ``query.given`` and
    conditioned on it when it has one, then cut to ``query.assignments``; its total is the query's probability."""
    table, schedule = full_table(history, query.t), history.schedule
    if query.given is not None:
        schedule.check(query.given)
        table = table.select(query.given).conditioned(query.given, query.t)
    schedule.check(query.assignments)
    return table.select(query.assignments)


def _unconditioned(history: HistoryState, query: OutcomeQuery, name: str) -> float:
    """The weight of ``query.assignments`` at ``query.t``; a query with ``given`` is refused, not half-read."""
    if query.given is not None:
        raise DomainError(f"{name} reads no 'given'; ask conditional for P(assignments | given)")
    return query_table(history, query).total


def joint(history: HistoryState, query: OutcomeQuery) -> float:
    """Probability that every detector shows its assigned label at time t."""
    if missing := set(history.schedule.detector_labels) - query.assignments.keys():
        raise KeyError(f"joint requires a full assignment; missing {sorted(missing)}")
    return _unconditioned(history, query, "joint")


def marginal(history: HistoryState, query: OutcomeQuery) -> float:
    """Probability of a partial assignment, summing implicitly over the rest."""
    if not query.assignments:
        raise KeyError("marginal requires at least one named detector")
    return _unconditioned(history, query, "marginal")


def conditional(history: HistoryState, target: Mapping[str, str], given: Mapping[str, str], t: float) -> float:
    """Bayes quotient P(target and given at t) / P(given at t)."""
    return query_table(history, OutcomeQuery(target, t, given)).total


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
