"""Preconfigured Wigner's-friend scenario.

A friend F measures a qubit S in state a|up> + b|down> projectively; Wigner W
later asks whether S (x) F is in alpha|up,up> + beta|down,down>, a yes/no
``instrument.state_test``, so the friend's record is itself a quantum degree
of freedom for Wigner.  The scenario is parameterized by these amplitudes and
the two event times.  Its five tables are the full table over (F, W) and the
two marginals and two conditionals that ``ProbabilityTable`` derives from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hilbert import DomainError, Operator, StateVector, SubsystemLayout, normalized, unit_vector
from .instrument import DetectorModel, KrausSet, state_test
from .probability import ProbabilityTable, full_table
from .timeline import EventSchedule, HistoryState, build_history

SYSTEM = "S"
FRIEND = "F"
WIGNER = "W"
UP, DOWN = "up", "down"

_SYSTEM_LAYOUT = SubsystemLayout.of((SYSTEM, 2))


@dataclass(frozen=True)
class WignerScenario:
    """Parameters of the two-measurement friend/Wigner schedule.

    Construction builds ``psi0`` and ``schedule`` once, as attributes that are
    not fields, and they judge the parameters: DomainError unless each pair
    ``is_normalized``, ScheduleError unless t_m < t_n, both finite.
    """

    a: complex
    b: complex
    alpha: complex
    beta: complex
    t_m: float = 1.0
    t_n: float = 2.0

    def __post_init__(self) -> None:
        psi0 = StateVector(_SYSTEM_LAYOUT, [self.a, self.b])
        if not psi0.is_normalized:
            raise DomainError("amplitudes (a, b) must satisfy |x|^2 + |y|^2 = 1")
        events = ((self.t_m, _FRIEND_DETECTOR), (self.t_n, _wigner_family([self.alpha, self.beta])))
        object.__setattr__(self, "psi0", psi0)
        object.__setattr__(self, "schedule", EventSchedule(events))


def friend_detector() -> DetectorModel:
    """Projective up/down measurement of the qubit, recorded in ancilla F."""
    k_up = Operator(_SYSTEM_LAYOUT, [[1, 0], [0, 0]])
    k_down = Operator(_SYSTEM_LAYOUT, [[0, 0], [0, 1]])
    return DetectorModel(FRIEND, KrausSet(((UP, k_up), (DOWN, k_down))))


_FRIEND_DETECTOR = friend_detector()  # immutable and parameter-free, so every scenario shares one
_H_ZERO = Operator(_SYSTEM_LAYOUT, np.zeros((2, 2)))  # shared too, so its eigh runs once
# Wigner's Kraus acts on S (x) F; |up,up> and |down,down> sit where the friend's record basis puts them.
_SF_LAYOUT = SubsystemLayout(_SYSTEM_LAYOUT.factors + _FRIEND_DETECTOR.ancilla_layout.factors)
_CORRELATED = [s * _FRIEND_DETECTOR.ancilla_dim + _FRIEND_DETECTOR.record_index(f) for s, f in enumerate((UP, DOWN))]


def unit_pair(x: complex, y: complex, name: str) -> np.ndarray:
    """``(x, y)`` as ``normalized`` admits it, then always divided by its norm, as ``state_test`` divides its phi."""
    return unit_vector(normalized([x, y], name), name)


def wigner_detector(alpha: complex, beta: complex) -> DetectorModel:
    """Yes/no measurement of S (x) F in the entangled basis set by (alpha, beta).

    The yes vector lies in the correlated subspace {|up,up>, |down,down>} reachable
    after the friend's measurement, and k_no = I - k_yes is the no vector's projector
    extended by the identity on the orthogonal complement, which annihilates nothing
    reachable.  The pair is made unit first, as ``unit_pair`` makes it, so a pair unit
    to twelve digits still gives a family complete to rounding.
    """
    return _wigner_family(normalized([alpha, beta], "(alpha, beta)"))


def _wigner_family(pair: np.ndarray) -> DetectorModel:
    """Wigner's family: ``state_test``'s phi is ``pair`` at |up,up> and |down,down>, and zero elsewhere."""
    yes = np.zeros(_SF_LAYOUT.dim, dtype=np.complex128)
    yes[_CORRELATED] = pair
    return state_test(WIGNER, _SF_LAYOUT, yes)


def build(scenario: WignerScenario) -> HistoryState:
    """History of the friend's measurement at t_m followed by Wigner's at t_n.

    The system has no free dynamics, so segment anchors are constant in time
    and only the event ordering matters.
    """
    return build_history(scenario.psi0, None, _H_ZERO, scenario.schedule)


@dataclass(frozen=True)
class WignerTables:
    joint: ProbabilityTable
    marginal_w: ProbabilityTable
    marginal_f: ProbabilityTable
    cond_w_given_f: ProbabilityTable
    cond_f_given_w: ProbabilityTable


def tables(scenario: WignerScenario, t: float) -> WignerTables:
    """The five probability grids of the scenario at clock reading ``t``: the segment's full table over (F, W), its
    marginals and its conditionals.  Both given marginals are judged before either quotient is formed, so the null
    label refused is the first that a row loop over (f, w) meets, F before W in a row."""
    joint = full_table(build(scenario), t)
    marginal_f, marginal_w = joint.marginal((FRIEND,)), joint.marginal((WIGNER,))
    return WignerTables(joint, marginal_w, marginal_f, *joint._quotients(t, (FRIEND,), (WIGNER,)))
