"""History states for schedules of instantaneous generalized measurements.

The package builds the global state of a measured system over all clock
readings as exact piecewise time segments, evaluates joint, marginal, and
conditional outcome probabilities at fixed clock readings, and ships a
preconfigured Wigner's-friend scenario.

The sequential Born-rule oracle that cross-checks the pipeline is not
re-exported here: it shares no code with the pipeline, and neither
``import qtimeline`` nor the CLI loads it.  Import it as
``from qtimeline.oracle import sequential_born``.
"""

from .hilbert import DomainError, LayoutError, Operator, StateVector, SubsystemLayout, propagator
from .instrument import DetectorModel, KrausSet, ValidationError, ValidationReport, apply_instrument, validate
from .probability import (ConditioningOnNullEvent, OutcomeQuery, ProbabilityTable, conditional, full_table, joint,
                          marginal, outcome_labels_at)
from .timeline import EventSchedule, HistoryState, ScheduleError, build_history, constraint_residual, state_at
from .wigner import WignerScenario, WignerTables

__all__ = [
    "ConditioningOnNullEvent",
    "DetectorModel",
    "DomainError",
    "EventSchedule",
    "HistoryState",
    "KrausSet",
    "LayoutError",
    "Operator",
    "OutcomeQuery",
    "ProbabilityTable",
    "ScheduleError",
    "StateVector",
    "SubsystemLayout",
    "ValidationError",
    "ValidationReport",
    "WignerScenario",
    "WignerTables",
    "apply_instrument",
    "build_history",
    "conditional",
    "constraint_residual",
    "full_table",
    "joint",
    "marginal",
    "outcome_labels_at",
    "propagator",
    "state_at",
    "validate",
]
