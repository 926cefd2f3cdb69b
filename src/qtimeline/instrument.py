"""Generalized measurements: outcome-labeled Kraus families, detectors that
are complete by construction, and the recording map that appends a detector's
outcome record to a state.

A detector's ancilla has a fixed basis: the ready state at index 0, then
outcome i, in Kraus order, at index i + 1.  Which basis vector encodes a label
carries no physics, so it is not an option.  A record is written once, when its
detector fires, so the recording map takes a state with no factor for the
detector and stacks the branches K_m psi along a new last axis, one slot per
outcome in Kraus order.  The ready slot, always empty after the event, is not
stored; ``timeline`` adds it back where a later Kraus acts on the record.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hilbert import (TOL_PREDICATE, LayoutError, Operator, StateVector, SubsystemLayout, _contract, _layout,
                      _isometry_deviation, unit_vector)


class ValidationError(ValueError):
    """A Kraus family fails a structural requirement (e.g. completeness)."""


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    max_deviation: float


@dataclass(frozen=True, eq=False)
class KrausSet:
    """Ordered family of outcome-labeled Kraus operators on shared target factors.

    ``target_layout``, ``target_labels``, ``outcome_labels`` and ``matrices``,
    the read-only ``(n_out, d, d)`` stack of the operators in outcome order,
    are computed once, on construction.
    """

    outcomes: tuple[tuple[str, Operator], ...]

    def __post_init__(self) -> None:
        entries = tuple([(label, op) for label, op in self.outcomes])  # a non-str label is left for the label rule
        object.__setattr__(self, "outcomes", entries)
        if not entries:
            raise ValidationError("a Kraus set needs at least one outcome")
        labels = tuple([label for label, _ in entries])
        if len(set(labels)) != len(labels):
            raise ValidationError(f"duplicate outcome labels: {list(labels)}")
        reference = entries[0][1].layout
        for label, op in entries:
            if op.layout is not reference and op.layout != reference:
                raise LayoutError(f"Kraus operator for {label!r} is not on layout {reference.labels}")
        matrices = np.array([op.matrix for _, op in entries])  # the layouts agree, so the shapes do
        matrices.setflags(write=False)
        object.__setattr__(self, "target_layout", reference)
        object.__setattr__(self, "target_labels", reference.labels)
        object.__setattr__(self, "outcome_labels", labels)
        object.__setattr__(self, "matrices", matrices)

    def operator_for(self, outcome: str) -> Operator:
        for label, op in self.outcomes:
            if label == outcome:
                return op
        raise KeyError(f"unknown outcome {outcome!r}; have {self.outcome_labels}")


def validate(kraus: KrausSet) -> ValidationReport:
    """Check completeness sum(K^dag K) = I; reports the max-norm deviation."""
    deviation = _isometry_deviation(kraus.matrices.reshape(-1, kraus.target_layout.dim))  # inf or nan fails
    return ValidationReport(deviation <= TOL_PREDICATE, deviation)


@dataclass(frozen=True, eq=False)
class DetectorModel:
    """A Kraus family plus the ancilla that records its outcomes.

    The ancilla has a dedicated ready state (index 0) plus one basis state per
    outcome (index i + 1 for outcome i in Kraus order), mutually orthonormal,
    so outcome records are exactly distinguishable and carry zero weight before
    the measurement happens.
    Construction checks the label rule and completeness (a complete POVM) once, and sets ``ancilla_dim``.
    """

    detector_label: str
    kraus: KrausSet
    ready_label: str = "r"
    _SEPARATORS = frozenset("=,|@")  # of a query string, so no label holds one and a row reads back as a query

    def __post_init__(self) -> None:
        for label in (self.detector_label, self.ready_label, *self.kraus.outcome_labels):
            if not (isinstance(label, str) and label and label == label.strip() and label.isprintable()
                    and self._SEPARATORS.isdisjoint(label)):
                kind = "detector name" if label is self.detector_label else (  # the two are checked first
                    "ready label" if label is self.ready_label else "outcome label")
                raise ValidationError(f"{kind} {label!r} must be non-empty printable text without leading or "
                                      f"trailing whitespace or any of = , | @")
        if self.ready_label in self.kraus.outcome_labels:
            raise ValidationError(f"ready label {self.ready_label!r} collides with an outcome label")
        report = validate(self.kraus)
        if not report.ok:
            raise ValidationError(
                f"completeness violated by {report.max_deviation:.1e} at detector {self.detector_label!r}"
            )
        object.__setattr__(self, "ancilla_dim", len(self.kraus.outcomes) + 1)

    @property
    def ancilla_layout(self) -> SubsystemLayout:
        return SubsystemLayout.of((self.detector_label, self.ancilla_dim))

    def record_index(self, label: str) -> int:
        """Ancilla basis index of a label: 0 for the ready label, i + 1 for outcome i."""
        if label == self.ready_label:
            return 0
        try:
            return self.kraus.outcome_labels.index(label) + 1
        except ValueError:
            raise KeyError(
                f"detector {self.detector_label!r} has no outcome {label!r}; "
                f"have {self.kraus.outcome_labels} and ready label {self.ready_label!r}"
            ) from None

    def record_state(self, label: str) -> StateVector:
        """Ancilla basis vector for an outcome label or the ready label."""
        return StateVector(self.ancilla_layout, np.eye(self.ancilla_dim)[self.record_index(label)])


def state_test(name: str, layout: SubsystemLayout, phi) -> DetectorModel:
    """The yes/no test "is the lab in state phi?" on ``layout``: K_yes = |phi><phi| and K_no = I - K_yes."""
    yes = unit_vector(StateVector(layout, phi).amplitudes, f"phi of state test {name!r}")
    k_yes = yes[:, None] * yes.conj()  # np.outer's products, without its wrapper
    k_no = np.eye(layout.dim) - k_yes
    k_yes.setflags(write=False)
    k_no.setflags(write=False)
    return DetectorModel(name, KrausSet((("yes", Operator(layout, k_yes)), ("no", Operator(layout, k_no)))))


def apply_instrument(state: StateVector, det: DetectorModel) -> StateVector:
    """Record one measurement: psi -> sum_m (K_m psi) (x) |m>.

    ``state`` has no factor for the detector, which has not fired yet; the
    result appends its record as a last factor with one slot per outcome, in
    Kraus order.  A detector is complete by construction, so the map is an
    isometry and preserves the norm.
    """
    # A state that already carries the record fails here, as a duplicate label.
    layout = _layout(state.layout.factors + ((det.detector_label, len(det.kraus.outcomes)),))
    branches = _contract(det.kraus.matrices, det.kraus.target_layout, state)
    amplitudes = branches.reshape(-1)
    amplitudes.setflags(write=False)
    return StateVector(layout, amplitudes)
