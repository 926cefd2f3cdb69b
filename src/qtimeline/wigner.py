"""Preconfigured Wigner's-friend scenario.

A friend F measures a qubit S projectively; Wigner W later measures the joint
S (x) F in an entangled yes/no basis, so the friend's record is itself a
quantum degree of freedom for Wigner.  The scenario is parameterized by the
system amplitudes (a, b), Wigner's yes-state amplitudes (alpha, beta), and the
two event times.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .hilbert import DomainError, Operator, StateVector, SubsystemLayout, TOL_EQUALITY
from .instrument import DetectorModel, KrausSet
from .probability import ProbabilityTable, _nonnull, full_table
from .timeline import EventSchedule, HistoryState, build_history

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
            (scenario.t_m, friend_detector()),
            (scenario.t_n, wigner_detector(scenario.alpha, scenario.beta)),
        )
    )
    t0 = 0.0 if scenario.t_m > 0 else scenario.t_m - 1.0
    return build_history(psi0, t0, h_zero, schedule)


@dataclass(frozen=True)
class WignerTables:
    joint: ProbabilityTable
    marginal_w: ProbabilityTable
    marginal_f: ProbabilityTable
    cond_w_given_f: ProbabilityTable
    cond_f_given_w: ProbabilityTable


def tables(scenario: WignerScenario, t: float) -> WignerTables:
    """The five probability grids of the scenario at clock reading ``t``.

    All five come from one full table: the marginals sum its rows, and the
    conditionals divide them by the marginal of the given label.
    """
    history = build(scenario)
    joint = full_table(history, t)
    cells = joint.as_dict()
    f_labels = tuple(dict.fromkeys(f for (f, _), _ in joint.rows))
    w_labels = tuple(dict.fromkeys(w for (_, w), _ in joint.rows))
    p_f = {f: sum(cells[f, w] for w in w_labels) for f in f_labels}
    p_w = {w: sum(cells[f, w] for f in f_labels) for w in w_labels}
    cond_w_rows = []
    cond_f_rows = []
    for (f, w), value in joint.rows:
        cond_w_rows.append(((f, w), value / _nonnull(p_f[f], {FRIEND: f}, t)))
        cond_f_rows.append(((f, w), value / _nonnull(p_w[w], {WIGNER: w}, t)))
    return WignerTables(
        joint=joint,
        marginal_w=ProbabilityTable((WIGNER,), tuple(((w,), p_w[w]) for w in w_labels), t),
        marginal_f=ProbabilityTable((FRIEND,), tuple(((f,), p_f[f]) for f in f_labels), t),
        cond_w_given_f=ProbabilityTable((FRIEND, WIGNER), tuple(cond_w_rows), t, given=(FRIEND,)),
        cond_f_given_w=ProbabilityTable((FRIEND, WIGNER), tuple(cond_f_rows), t, given=(WIGNER,)),
    )
