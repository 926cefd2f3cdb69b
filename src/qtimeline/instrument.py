"""Generalized measurements: outcome-labeled Kraus families, detectors that
are complete by construction, and the recording map that appends a detector's
outcome record to a state.

A detector's ancilla has a ready state and one orthogonal state per outcome.
A record is written once, when its detector fires, so the recording map takes
a state with no factor for the detector and stacks the branches K_m psi along
a new last axis, one slot per outcome in Kraus order.  The ready slot, always
empty after the event, is not stored; ``timeline`` adds it back where a later
Kraus acts on the record.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .hilbert import (
    TOL_PREDICATE,
    LayoutError,
    Operator,
    StateVector,
    SubsystemLayout,
    _contract,
)


class ValidationError(ValueError):
    """A Kraus family fails a structural requirement (e.g. completeness)."""


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    max_deviation: float


@dataclass(frozen=True, eq=False)
class KrausSet:
    """Ordered family of outcome-labeled Kraus operators on shared target factors."""

    outcomes: tuple[tuple[str, Operator], ...]

    def __post_init__(self) -> None:
        entries = tuple((str(label), op) for label, op in self.outcomes)
        object.__setattr__(self, "outcomes", entries)
        if not entries:
            raise ValidationError("a Kraus set needs at least one outcome")
        labels = [label for label, _ in entries]
        if len(set(labels)) != len(labels):
            raise ValidationError(f"duplicate outcome labels: {labels}")
        reference = entries[0][1].layout
        for label, op in entries:
            if op.layout != reference:
                raise LayoutError(f"Kraus operator for {label!r} is not on layout {reference.labels}")

    @property
    def target_layout(self) -> SubsystemLayout:
        return self.outcomes[0][1].layout

    @property
    def target_labels(self) -> tuple[str, ...]:
        return self.target_layout.labels

    @property
    def outcome_labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.outcomes)

    def operator_for(self, outcome: str) -> Operator:
        for label, op in self.outcomes:
            if label == outcome:
                return op
        raise KeyError(f"unknown outcome {outcome!r}; have {self.outcome_labels}")


def validate(kraus: KrausSet) -> ValidationReport:
    """Check completeness sum(K^dag K) = I; reports the max-norm deviation."""
    dim = kraus.target_layout.dim
    total = np.zeros((dim, dim), dtype=np.complex128)
    # Entries near the float limit overflow to inf or nan, which fail the check.
    with np.errstate(over="ignore", invalid="ignore"):
        for _, op in kraus.outcomes:
            total += op.matrix.conj().T @ op.matrix
        deviation = float(np.max(np.abs(total - np.eye(dim))))
    return ValidationReport(deviation <= TOL_PREDICATE, deviation)


@dataclass(frozen=True, eq=False)
class DetectorModel:
    """A Kraus family plus the ancilla that records its outcomes.

    The ancilla has one basis state per outcome plus a dedicated ready state,
    mutually orthonormal in the standard basis, so outcome records are exactly
    distinguishable and carry zero weight before the measurement happens.
    Construction checks completeness once, so every detector is a complete POVM.
    """

    detector_label: str
    kraus: KrausSet
    ready_index: int = 0
    outcome_basis: Mapping[str, int] | None = None
    ready_label: str = "r"

    def __post_init__(self) -> None:
        if self.outcome_basis is None:
            mapping = {label: i + 1 for i, label in enumerate(self.kraus.outcome_labels)}
        else:
            mapping = {str(k): int(v) for k, v in dict(self.outcome_basis).items()}
        object.__setattr__(self, "outcome_basis", MappingProxyType(mapping))
        if set(mapping) != set(self.kraus.outcome_labels):
            raise ValidationError("outcome basis must map exactly the Kraus outcome labels")
        indices = [self.ready_index, *mapping.values()]
        if len(set(indices)) != len(indices):
            raise ValidationError("ready and outcome basis indices must be distinct")
        if any(i < 0 or i >= self.ancilla_dim for i in indices):
            raise ValidationError(f"ancilla basis indices must lie in [0, {self.ancilla_dim})")
        if self.ready_label in self.kraus.outcome_labels:
            raise ValidationError(f"ready label {self.ready_label!r} collides with an outcome label")
        if self.detector_label in self.kraus.target_labels:
            raise LayoutError("a detector cannot target its own ancilla factor")
        report = validate(self.kraus)
        if not report.ok:
            raise ValidationError(
                f"completeness violated by {report.max_deviation:.1e} at detector {self.detector_label!r}"
            )

    @property
    def ancilla_dim(self) -> int:
        return len(self.kraus.outcomes) + 1

    @property
    def ancilla_layout(self) -> SubsystemLayout:
        return SubsystemLayout.of((self.detector_label, self.ancilla_dim))

    def record_index(self, label: str) -> int:
        """Ancilla basis index of an outcome label or the ready label."""
        if label == self.ready_label:
            return self.ready_index
        try:
            return self.outcome_basis[label]
        except KeyError:
            raise KeyError(
                f"detector {self.detector_label!r} has no outcome {label!r}; "
                f"have {self.kraus.outcome_labels} and ready label {self.ready_label!r}"
            ) from None

    def record_state(self, label: str) -> StateVector:
        """Ancilla basis vector for an outcome label or the ready label."""
        return StateVector(self.ancilla_layout, np.eye(self.ancilla_dim)[self.record_index(label)])


def apply_instrument(state: StateVector, det: DetectorModel) -> StateVector:
    """Record one measurement: psi -> sum_m (K_m psi) (x) |m>.

    ``state`` has no factor for the detector, which has not fired yet; the
    result appends its record as a last factor with one slot per outcome, in
    Kraus order.  A detector is complete by construction, so the map is an
    isometry and preserves the norm.
    """
    # A state that already carries the record fails here, as a duplicate label.
    layout = SubsystemLayout(state.layout.factors + ((det.detector_label, len(det.kraus.outcomes)),))
    stack = np.stack([op.matrix for _, op in det.kraus.outcomes])
    branches = _contract(stack, det.kraus.target_layout, state.layout.labels, state.as_tensor())
    return StateVector(layout, np.moveaxis(branches, 0, -1).reshape(-1))
