"""Plain-numpy references that the unit tests compare the package against.

``embed`` writes an operator out as the explicit identity-padded matrix on a
full layout, the route that the package's contractions avoid; ``tensor`` is the
Kronecker product of two states or two operators.  None of this calls the
code paths under test.
"""

from __future__ import annotations

import math

import numpy as np

from qtimeline.hilbert import TOL_EQUALITY, LayoutError, Operator, StateVector, SubsystemLayout


def basis_state(layout: SubsystemLayout, index: int) -> StateVector:
    return StateVector(layout, np.eye(layout.dim)[index])


def tensor(a, b):
    """Kronecker product of two states or two operators with disjoint labels."""
    layout = SubsystemLayout(a.layout.factors + b.layout.factors)
    if isinstance(a, StateVector) and isinstance(b, StateVector):
        return StateVector(layout, np.kron(a.amplitudes, b.amplitudes))
    if isinstance(a, Operator) and isinstance(b, Operator):
        return Operator(layout, np.kron(a.matrix, b.matrix))
    raise TypeError("tensor expects two StateVectors or two Operators")


def embed(op: Operator, targets, full: SubsystemLayout) -> Operator:
    """Extend ``op`` by the identity on every factor of ``full`` it does not touch.

    ``targets`` must name exactly the factors of ``op``'s own layout; the
    operator's internal factor order defines how it acts, and the result is
    permuted to ``full``'s canonical order.
    """
    if set(targets) != set(op.layout.labels):
        raise LayoutError(f"targets {sorted(targets)} must name exactly the operator factors {op.layout.labels}")
    for label, dim in op.layout.factors:
        if label not in full or full.dim_of(label) != dim:
            raise LayoutError(f"no factor ({label!r}, {dim}) in full layout {full.factors}")
    rest = tuple(f for f in full.factors if f[0] not in op.layout)
    big = np.kron(op.matrix, np.eye(math.prod(dim for _, dim in rest)))
    # Axes of ``big`` follow op's factors, then the rest; move them to full's order.
    order = [label for label, _ in op.layout.factors + rest]
    perm = [order.index(label) for label in full.labels]
    dims = [dim for _, dim in op.layout.factors + rest]
    tens = big.reshape(dims + dims).transpose(perm + [len(perm) + p for p in perm])
    return Operator(full, tens.reshape(full.dim, full.dim))


def completeness_deviation(kraus) -> float:
    """max |sum_m K_m^dag K_m - I| over the entries, with the identity written out as a matrix."""
    dim = kraus.target_layout.dim
    stacked = kraus.matrices.reshape(-1, dim)
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.max(np.abs(stacked.conj().T @ stacked - np.eye(dim))))


def edge_vectors(dim: int, count: int, seed: int):
    """``count`` seeded complex vectors of length ``dim``, each at 18 norms: within four ulp of 1 +/- TOL_EQUALITY,
    where two ways of rounding a norm can fall on the two sides of the unit-norm tolerance."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        z = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        z = z / np.linalg.norm(z)
        for edge in (1 + TOL_EQUALITY, 1 - TOL_EQUALITY):
            for k in range(-4, 5):
                yield z * (edge + k * 2.0**-52)
