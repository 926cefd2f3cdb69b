"""References computed apart from the qtimeline pipeline.

* ``wigner_grids``: the five friend/Wigner grids after Wigner's measurement,
  in closed form.
* ``born_table``: the outcome table of a scenario spec (see ``gen.py``) at a
  clock reading, by the textbook sequential Born rule on the system alone:
  evolve, apply the assigned Kraus operator, evolve, ...; the squared norm of
  the branch is the row's probability.  Valid when every Kraus family acts on
  system factors only.

Only numpy is used; no qtimeline code is imported here.
"""

from __future__ import annotations

import itertools

import numpy as np

from gen import READY

UP, DOWN, YES, NO = "up", "down", "yes", "no"


def wigner_grids(a: complex, b: complex, alpha: complex, beta: complex) -> dict:
    """Closed-form grids after t_n, keyed like ``qtimeline.wigner.WignerTables``
    and in the same row order (friend-major).

    After the friend's measurement the state of S (x) F is a|up,up> + b|down,down>.
    Wigner's yes-vector is alpha|up,up> + beta|down,down> and his no-vector
    -conj(beta)|up,up> + conj(alpha)|down,down>, so the yes branch carries
    amplitude conj(alpha) a + conj(beta) b and the no branch -beta a + alpha b,
    and the friend's record in each branch follows the branch vector.
    """
    p_yes = abs(alpha.conjugate() * a + beta.conjugate() * b) ** 2
    p_no = abs(-beta * a + alpha * b) ** 2
    joint = {
        (UP, YES): p_yes * abs(alpha) ** 2,
        (UP, NO): p_no * abs(beta) ** 2,
        (DOWN, YES): p_yes * abs(beta) ** 2,
        (DOWN, NO): p_no * abs(alpha) ** 2,
    }
    p_w = {YES: p_yes, NO: p_no}
    p_f = {f: joint[(f, YES)] + joint[(f, NO)] for f in (UP, DOWN)}
    return {
        "joint": joint,
        "marginal_w": {(w,): p for w, p in p_w.items()},
        "marginal_f": {(f,): p for f, p in p_f.items()},
        "cond_w_given_f": {key: p / p_f[key[0]] for key, p in joint.items()},
        "cond_f_given_w": {key: p / p_w[key[1]] for key, p in joint.items()},
    }


def _apply(matrix: np.ndarray, targets, labels, psi: np.ndarray) -> np.ndarray:
    """Apply ``matrix`` (ordered like ``targets``) to the tensor ``psi``."""
    axes = [labels.index(label) for label in targets]
    moved = np.moveaxis(psi, axes, list(range(len(axes))))
    shape = moved.shape
    out = (matrix @ moved.reshape(matrix.shape[1], -1)).reshape(shape)
    return np.moveaxis(out, list(range(len(axes))), axes)


def born_table(spec, t: float) -> dict[tuple[str, ...], float]:
    """Rows {labels in schedule order: probability} of the table at ``t``.

    Detectors whose event lies after ``t`` show the ready label.  Branches
    share their common prefix, so the cost is about twice the number of rows.
    """
    labels = [label for label, _ in spec["factors"]]
    dims = [dim for _, dim in spec["factors"]]
    if any(not set(ev["targets"]) <= set(labels) for ev in spec["events"]):
        raise ValueError("born_table needs Kraus families on system factors only")
    w, v = np.linalg.eigh(spec["h"])
    fired = [ev for ev in spec["events"] if ev["time"] <= t]
    pending = (READY,) * (len(spec["events"]) - len(fired))
    rows: dict[tuple[str, ...], float] = {}

    def walk(psi, t_prev, k, key):
        if k == len(fired):
            rows[key + pending] = float(np.vdot(psi, psi).real)
            return
        ev = fired[k]
        u = (v * np.exp(-1j * w * (ev["time"] - t_prev))) @ v.conj().T
        psi = (u @ psi.reshape(-1)).reshape(dims)
        for label, kraus in zip(ev["outcomes"], ev["kraus"]):
            walk(_apply(kraus, ev["targets"], labels, psi), ev["time"], k + 1, key + (label,))

    walk(np.asarray(spec["psi0"]).reshape(dims), spec["t0"], 0, ())
    return rows


def table_keys(label_sets) -> list[tuple[str, ...]]:
    """Every full assignment, last detector varying fastest."""
    return list(itertools.product(*label_sets))
