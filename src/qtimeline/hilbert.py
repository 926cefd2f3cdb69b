"""Dense complex linear algebra over labeled tensor-product factors.

States and operators carry a :class:`SubsystemLayout` naming their tensor
factors; every structural mismatch surfaces as :class:`LayoutError` instead of
silent broadcasting.  All values are immutable after construction and every
operation is a pure function, so concurrent reads need no coordination.
Operators act on the factors they name by direct contraction (``_contract``);
no identity-padded matrix is ever built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import zip_longest

import numpy as np

# Structural predicates (Hermitian / unitary / positive / complete) and exact
# equality assertions use separate tolerances: two orders of headroom over
# double-precision accumulation at the dimensions in scope (<= ~64).
TOL_PREDICATE = 1e-10
TOL_EQUALITY = 1e-12
NEAR_ZERO_NORM = 1e-9  # a state vector with a smaller norm is refused, not normalized


class LayoutError(ValueError):
    """Subsystem labels or dimensions do not line up."""


class DomainError(ValueError):
    """Input violates a mathematical precondition of the operation."""


def _factor(factor: tuple[str, int]) -> tuple[str, int]:
    """``factor`` as a layout holds it; LayoutError unless its dimension is a non-bool Python or numpy integer >= 1."""
    label, dim = factor
    if isinstance(dim, bool) or not isinstance(dim, (int, np.integer)):
        raise LayoutError(f"dimension {dim!r} of subsystem {label!r} is not an integer")
    if dim < 1:
        raise LayoutError("every subsystem dimension must be >= 1")
    return str(label), int(dim)


@dataclass(frozen=True)
class SubsystemLayout:
    """Ordered, uniquely labeled tensor factors.

    The factor order is canonical: it fixes the row-major index convention of
    every state and operator built on the layout.  ``labels``, ``dims`` and the
    product dimension ``dim`` are computed once, on construction.
    """

    factors: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        self._settle(self.factors, ())

    def _derive(self, factors: tuple[tuple[str, int], ...]) -> "SubsystemLayout":
        """The layout over ``factors``: this layout's, some resized, then new ones; only those are checked."""
        return object.__new__(SubsystemLayout)._settle(factors, self.factors)

    def _settle(self, factors, checked) -> "SubsystemLayout":
        """Store ``factors``, each through ``_factor`` unless ``checked`` holds it at its place; no label twice."""
        factors = tuple([old if new == old else _factor(new) for new, old in zip_longest(factors, checked)])
        labels, dims = tuple(zip(*factors)) or ((), ())
        if len(set(labels)) != len(labels):
            raise LayoutError(f"duplicate subsystem labels: {list(labels)}")
        object.__setattr__(self, "factors", factors)
        # Derived once; plain attributes, not fields, so eq, hash and repr see only ``factors``.
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "dim", math.prod(dims))
        return self

    @classmethod
    def of(cls, *factors: tuple[str, int]) -> "SubsystemLayout":
        return cls(tuple(factors))

    def __contains__(self, label: str) -> bool:
        return label in self.labels

    def axis(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise LayoutError(f"no subsystem {label!r} in layout {self.labels}") from None

    def dim_of(self, label: str) -> int:
        return self.factors[self.axis(label)][1]


def _frozen(values, dtype) -> np.ndarray:
    """``values`` read-only: a read-only ``dtype`` array is held as given, anything else copied once and frozen."""
    arr = np.asarray(values, dtype=dtype)
    if arr.flags.writeable:
        arr = arr.copy()
        arr.setflags(write=False)
    return arr


def _is_unit(amplitudes: np.ndarray) -> bool:
    """The one unit-norm rule: sqrt(<a|a>) within TOL_EQUALITY of 1; an overflowing or non-finite norm fails it."""
    return abs(math.sqrt(np.vdot(amplitudes, amplitudes).real) - 1.0) <= TOL_EQUALITY


@dataclass(frozen=True, eq=False)
class StateVector:
    """Complex amplitude vector over a layout's row-major product basis."""

    layout: SubsystemLayout
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        arr = _frozen(self.amplitudes, np.complex128)
        if arr.ndim != 1:
            raise LayoutError(f"amplitudes must be a flat vector, got shape {arr.shape}")
        if arr.size != self.layout.dim:
            raise LayoutError(
                f"amplitude length {arr.size} does not match layout dimension {self.layout.dim}"
            )
        object.__setattr__(self, "amplitudes", arr)

    @property
    def norm(self) -> float:
        return math.sqrt(np.vdot(self.amplitudes, self.amplitudes).real)

    @property
    def is_normalized(self) -> bool:
        return _is_unit(self.amplitudes)

    def as_tensor(self) -> np.ndarray:
        return self.amplitudes.reshape(self.layout.dims)


def normalized(amplitudes, what: str = "state vector") -> np.ndarray:
    """``amplitudes`` as given when ``StateVector`` would call them normalized, else divided by their norm.

    That norm is taken after an exact scaling by the power of two just above
    the largest real or imaginary part, so no square overflows or underflows.
    A non-finite entry, or a norm below NEAR_ZERO_NORM, raises DomainError.
    """
    amps = np.ascontiguousarray(amplitudes, dtype=np.complex128)
    if _is_unit(amps):
        return amps
    parts = amps.view(np.float64)
    if not np.isfinite(parts).all():
        raise DomainError(f"{what} has a non-finite entry")
    exponent = math.frexp(np.abs(parts).max(initial=0.0))[1]
    scaled = np.ldexp(parts, -exponent).view(np.complex128)
    norm = float(np.linalg.norm(scaled))
    if math.ldexp(norm, min(exponent, 2)) < NEAR_ZERO_NORM:  # the norm itself wherever it is below 2
        raise DomainError(f"{what} has (near-)zero norm")
    return scaled / norm


def unit_vector(amplitudes: np.ndarray, what: str) -> np.ndarray:
    """``amplitudes`` over ``math.hypot`` of their moduli, unit to rounding; DomainError unless ``_is_unit`` holds."""
    if not _is_unit(amplitudes):
        raise DomainError(f"{what} is not a unit vector: its norm is not within {TOL_EQUALITY:g} of 1")
    return amplitudes / math.hypot(*abs(amplitudes).tolist())


@dataclass(frozen=True, eq=False)
class Operator:
    """Square complex matrix acting on a layout's product basis."""

    layout: SubsystemLayout
    matrix: np.ndarray

    def __post_init__(self) -> None:
        arr = _frozen(self.matrix, np.complex128)
        d = self.layout.dim
        if arr.shape != (d, d):
            raise LayoutError(f"matrix shape {arr.shape} does not match layout dimension {d}")
        object.__setattr__(self, "matrix", arr)

    def is_hermitian(self, tol: float = TOL_PREDICATE) -> bool:
        # Entries near the float limit overflow to inf or nan, which fail the check.
        with np.errstate(over="ignore", invalid="ignore"):
            return bool(abs(self.matrix - self.matrix.conj().T).max() <= tol)

    @cached_property
    def _spectrum(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        """``(w, v, v^dag, max|w|)`` from ``eigh`` of the matrix, computed once; DomainError unless Hermitian."""
        if not self.is_hermitian():
            raise DomainError(f"matrix is not Hermitian (tolerance {TOL_PREDICATE:g})")
        w, v = np.linalg.eigh(self.matrix)
        return w, v, v.conj().T, float(abs(w).max())

    def is_unitary(self, tol: float = TOL_PREDICATE) -> bool:
        product = self.matrix.conj().T @ self.matrix
        return bool(np.max(np.abs(product - np.eye(self.layout.dim))) <= tol)

    def apply(self, state: StateVector) -> StateVector:
        if state.layout != self.layout:
            raise LayoutError("operator and state layouts differ")
        return StateVector(self.layout, self.matrix @ state.amplitudes)


def _contract(matrices: np.ndarray, op_layout: SubsystemLayout, state: StateVector) -> np.ndarray:
    """Apply ``matrices`` (one matrix on ``op_layout``, or a stack whose axes trail the
    result) to the factors of ``op_layout`` in ``state``, as a tensor over its layout."""
    tens = state.as_tensor()
    axes = []
    for label, dim in op_layout.factors:
        ax = state.layout.axis(label)
        if tens.shape[ax] != dim:
            raise LayoutError(
                f"dimension mismatch for {label!r}: operator has {dim}, state has {tens.shape[ax]}"
            )
        axes.append(ax)
    perm = axes + [ax for ax in range(tens.ndim) if ax not in axes]
    moved = tens.transpose(perm)
    lead = matrices.ndim - 2
    out = (matrices @ moved.reshape(op_layout.dim, -1)).reshape(matrices.shape[:lead] + moved.shape)
    return out.transpose([*(lead + perm.index(ax) for ax in range(tens.ndim)), *range(lead)])


def _unitary(h: Operator, dt: float) -> np.ndarray:
    """The matrix of ``propagator`` over ``dt``, with no Operator around it; DomainError for a non-finite phase w*dt
    (exactly when |dt| * max|w| is not finite: it rounds as the largest |w*dt| does, and 0 * inf is NaN)."""
    w, v, v_dag, w_max = h._spectrum
    if not math.isfinite(abs(float(dt)) * w_max):
        raise DomainError(f"propagator phase w*dt is not finite: interval {dt}, largest |w| {w_max}")
    return (v * np.exp(w * (-1j * dt))) @ v_dag


def propagator(h: Operator, t: float, t0: float) -> Operator:
    """Unitary generated by a Hermitian ``h`` over the interval ``t0 -> t``.

    Computed by eigendecomposition, so the result is unitary up to eigensolver
    error rather than series truncation.  The decomposition is cached on
    ``h``, so repeated propagators of one generator run ``eigh`` once.
    """
    return Operator(h.layout, _unitary(h, t - t0))

