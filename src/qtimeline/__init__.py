"""History states for schedules of instantaneous generalized measurements.

The package builds the global state of a measured system over all clock
readings as exact piecewise time segments, evaluates joint, marginal, and
conditional outcome probabilities at fixed clock readings, and ships a
preconfigured Wigner's-friend scenario plus a sequential Born-rule oracle
for cross-checking.
"""

from .hilbert import (
    DensityMatrix,
    DomainError,
    LayoutError,
    Operator,
    StateVector,
    SubsystemLayout,
    basis_state,
    embed,
    identity,
    inner,
    propagator,
    tensor,
)
from .instrument import (
    DetectorModel,
    Effect,
    KrausSet,
    StateError,
    ValidationError,
    ValidationReport,
    apply_instrument,
    effect_of,
    validate,
)
from .oracle import sequential_born
from .probability import (
    ConditioningOnNullEvent,
    OutcomeQuery,
    ProbabilityTable,
    conditional,
    full_table,
    joint,
    marginal,
    outcome_labels_at,
)
from .timeline import (
    EventSchedule,
    HistoryState,
    ScheduleError,
    Segment,
    build_history,
    constraint_residual,
    state_at,
)
from .wigner import WignerScenario, WignerTables

__all__ = [
    "ConditioningOnNullEvent",
    "DensityMatrix",
    "DetectorModel",
    "DomainError",
    "Effect",
    "EventSchedule",
    "HistoryState",
    "KrausSet",
    "LayoutError",
    "Operator",
    "OutcomeQuery",
    "ProbabilityTable",
    "ScheduleError",
    "Segment",
    "StateError",
    "StateVector",
    "SubsystemLayout",
    "ValidationError",
    "ValidationReport",
    "WignerScenario",
    "WignerTables",
    "apply_instrument",
    "basis_state",
    "build_history",
    "conditional",
    "constraint_residual",
    "effect_of",
    "embed",
    "full_table",
    "identity",
    "inner",
    "joint",
    "marginal",
    "outcome_labels_at",
    "propagator",
    "sequential_born",
    "state_at",
    "tensor",
    "validate",
]
