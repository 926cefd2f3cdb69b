"""Preconfigured Wigner's-friend scenario.

A friend F measures a qubit S projectively; Wigner W later measures the joint
S (x) F in an entangled yes/no basis, so the friend's record is itself a
quantum degree of freedom for Wigner.  The scenario is parameterized by the
system amplitudes (a, b), Wigner's yes-state amplitudes (alpha, beta), and the
two event times.  Its five tables are one labelled weight array, the full
table over (F, W), with its two axis sums and two broadcast quotients.
"""

from __future__ import annotations

import cmath
import itertools
from dataclasses import dataclass

import numpy as np

from .hilbert import DomainError, Operator, StateVector, SubsystemLayout, TOL_EQUALITY
from .instrument import DetectorModel, KrausSet
from .probability import ProbabilityTable, _nonnull, full_table
from .timeline import EventSchedule, HistoryState, build_history, default_t0

SYSTEM = "S"
FRIEND = "F"
WIGNER = "W"
UP, DOWN = "up", "down"
YES, NO = "yes", "no"

_SYSTEM_LAYOUT = SubsystemLayout.of((SYSTEM, 2))
# Friend ancilla: ready=0, up=1, down=2; joint S(x)F layout used by Wigner's Kraus.
_SF_LAYOUT = SubsystemLayout.of((SYSTEM, 2), (FRIEND, 3))
_UP_UP = 0 * 3 + 1
_DOWN_DOWN = 1 * 3 + 2


@dataclass(frozen=True)
class WignerScenario:
    """Parameters of the two-measurement friend/Wigner schedule."""

    a: complex
    b: complex
    alpha: complex
    beta: complex
    t_m: float = 1.0
    t_n: float = 2.0

    def __post_init__(self) -> None:
        if not all(map(cmath.isfinite, (self.a, self.b, self.alpha, self.beta, self.t_m, self.t_n))):
            raise DomainError("a, b, alpha, beta, t_m and t_n must be finite")
        for name, x, y in (("(a, b)", self.a, self.b), ("(alpha, beta)", self.alpha, self.beta)):
            if abs(abs(x) ** 2 + abs(y) ** 2 - 1.0) > TOL_EQUALITY:
                raise DomainError(f"amplitudes {name} must satisfy |x|^2 + |y|^2 = 1")
        if not self.t_m < self.t_n:
            raise DomainError(f"need t_m < t_n, got t_m={self.t_m}, t_n={self.t_n}")


def friend_detector() -> DetectorModel:
    """Projective up/down measurement of the qubit, recorded in ancilla F."""
    k_up = Operator(_SYSTEM_LAYOUT, [[1, 0], [0, 0]])
    k_down = Operator(_SYSTEM_LAYOUT, [[0, 0], [0, 1]])
    return DetectorModel(FRIEND, KrausSet(((UP, k_up), (DOWN, k_down))))


_FRIEND_DETECTOR = friend_detector()  # immutable and parameter-free, so ``build`` shares one


def wigner_detector(alpha: complex, beta: complex) -> DetectorModel:
    """Yes/no measurement of S (x) F in the entangled basis set by (alpha, beta).

    The yes/no vectors span only the correlated subspace {|up,up>, |down,down>}
    reachable after the friend's measurement; the no-operator is extended by
    the identity on the orthogonal complement so the family is complete on the
    whole 6-dimensional space.  The extension annihilates nothing reachable.
    """
    yes = np.zeros(6, dtype=np.complex128)
    yes[_UP_UP] = alpha
    yes[_DOWN_DOWN] = beta
    no = np.zeros(6, dtype=np.complex128)
    no[_UP_UP] = -np.conj(beta)
    no[_DOWN_DOWN] = np.conj(alpha)

    k_yes = np.outer(yes, yes.conj())
    correlated = k_yes + np.outer(no, no.conj())
    k_no = np.outer(no, no.conj()) + (np.eye(6) - correlated)
    return DetectorModel(
        WIGNER,
        KrausSet(((YES, Operator(_SF_LAYOUT, k_yes)), (NO, Operator(_SF_LAYOUT, k_no)))),
    )


def build(scenario: WignerScenario) -> HistoryState:
    """History of the friend's measurement at t_m followed by Wigner's at t_n.

    The system has no free dynamics, so segment anchors are constant in time
    and only the event ordering matters.
    """
    psi0 = StateVector(_SYSTEM_LAYOUT, [scenario.a, scenario.b])
    h_zero = Operator(_SYSTEM_LAYOUT, np.zeros((2, 2)))
    schedule = EventSchedule(
        (
            (scenario.t_m, _FRIEND_DETECTOR),
            (scenario.t_n, wigner_detector(scenario.alpha, scenario.beta)),
        )
    )
    return build_history(psi0, default_t0(scenario.t_m), h_zero, schedule)


@dataclass(frozen=True)
class WignerTables:
    joint: ProbabilityTable
    marginal_w: ProbabilityTable
    marginal_f: ProbabilityTable
    cond_w_given_f: ProbabilityTable
    cond_f_given_w: ProbabilityTable


def tables(scenario: WignerScenario, t: float) -> WignerTables:
    """The five probability grids of the scenario at clock reading ``t``.

    All five come from one full table: the marginals are sums over its other
    axis, and the conditionals divide it by the marginal of the given label.
    Each given label is checked in row order over (f, w), F before W.
    """
    joint = full_table(build(scenario), t)
    (f_labels, w_labels), weights = joint.labels, joint.weights
    p_f, p_w = weights.sum(axis=1), weights.sum(axis=0)
    for f, w in itertools.product(range(len(f_labels)), range(len(w_labels))):
        _nonnull(p_f[f], {FRIEND: f_labels[f]}, t)
        _nonnull(p_w[w], {WIGNER: w_labels[w]}, t)
    return WignerTables(
        joint=joint,
        marginal_w=ProbabilityTable((WIGNER,), (w_labels,), p_w, t),
        marginal_f=ProbabilityTable((FRIEND,), (f_labels,), p_f, t),
        cond_w_given_f=ProbabilityTable(joint.detectors, joint.labels, weights / p_f[:, None], t, given=(FRIEND,)),
        cond_f_given_w=ProbabilityTable(joint.detectors, joint.labels, weights / p_w, t, given=(WIGNER,)),
    )
