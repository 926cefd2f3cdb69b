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


@dataclass(frozen=True)
class SubsystemLayout:
    """Ordered, uniquely labeled tensor factors.

    The factor order is canonical: it fixes the row-major index convention of
    every state and operator built on the layout.  ``labels``, ``dims`` and the
    product dimension ``dim`` are computed once, on construction.
    """

    factors: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        factors = tuple((str(label), int(dim)) for label, dim in self.factors)
        object.__setattr__(self, "factors", factors)
        labels = tuple(label for label, _ in factors)
        if len(set(labels)) != len(labels):
            raise LayoutError(f"duplicate subsystem labels: {list(labels)}")
        dims = tuple(dim for _, dim in factors)
        if any(dim < 1 for dim in dims):
            raise LayoutError("every subsystem dimension must be >= 1")
        # Derived once; plain attributes, not fields, so eq, hash and repr see only ``factors``.
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "dim", math.prod(dims))

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


@dataclass(frozen=True, eq=False)
class StateVector:
    """Complex amplitude vector over a layout's row-major product basis."""

    layout: SubsystemLayout
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.amplitudes, dtype=np.complex128)
        if arr.ndim != 1:
            raise LayoutError(f"amplitudes must be a flat vector, got shape {arr.shape}")
        if arr.size != self.layout.dim:
            raise LayoutError(
                f"amplitude length {arr.size} does not match layout dimension {self.layout.dim}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "amplitudes", arr)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    @property
    def is_normalized(self) -> bool:
        with np.errstate(over="ignore"):  # a norm that overflows is inf, which fails the check
            return abs(self.norm - 1.0) <= TOL_EQUALITY

    def as_tensor(self) -> np.ndarray:
        return self.amplitudes.reshape(self.layout.dims)


def normalized(amplitudes, what: str = "state vector") -> np.ndarray:
    """``amplitudes`` divided by their norm, or as given when that norm is within TOL_EQUALITY of 1.

    The norm is taken after an exact scaling by the power of two just above the
    largest real or imaginary part, so no square overflows or underflows and a
    normalized vector keeps its bits.  A non-finite entry, or a norm below
    NEAR_ZERO_NORM, raises DomainError.
    """
    amps = np.ascontiguousarray(amplitudes, dtype=np.complex128)
    parts = amps.view(np.float64)
    if not np.isfinite(parts).all():
        raise DomainError(f"{what} has a non-finite entry")
    exponent = math.frexp(np.abs(parts).max(initial=0.0))[1]
    scaled = np.ldexp(parts, -exponent).view(np.complex128)
    norm = float(np.linalg.norm(scaled))
    size = math.ldexp(norm, min(exponent, 2))  # the norm itself wherever it is below 2
    if size < NEAR_ZERO_NORM:
        raise DomainError(f"{what} has (near-)zero norm")
    return amps if abs(size - 1.0) <= TOL_EQUALITY else scaled / norm


@dataclass(frozen=True, eq=False)
class Operator:
    """Square complex matrix acting on a layout's product basis."""

    layout: SubsystemLayout
    matrix: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.matrix, dtype=np.complex128)
        d = self.layout.dim
        if arr.shape != (d, d):
            raise LayoutError(f"matrix shape {arr.shape} does not match layout dimension {d}")
        arr.setflags(write=False)
        object.__setattr__(self, "matrix", arr)

    def is_hermitian(self, tol: float = TOL_PREDICATE) -> bool:
        # Entries near the float limit overflow to inf or nan, which fail the check.
        with np.errstate(over="ignore", invalid="ignore"):
            return bool(np.max(np.abs(self.matrix - self.matrix.conj().T)) <= tol)

    @cached_property
    def _spectrum(self) -> tuple[np.ndarray, np.ndarray] | None:
        """``eigh`` of the matrix, or None if it is not Hermitian; computed once."""
        return np.linalg.eigh(self.matrix) if self.is_hermitian() else None

    def is_unitary(self, tol: float = TOL_PREDICATE) -> bool:
        product = self.matrix.conj().T @ self.matrix
        return bool(np.max(np.abs(product - np.eye(self.layout.dim))) <= tol)

    def apply(self, state: StateVector) -> StateVector:
        if state.layout != self.layout:
            raise LayoutError("operator and state layouts differ")
        return StateVector(self.layout, self.matrix @ state.amplitudes)


def _contract(matrices: np.ndarray, op_layout: SubsystemLayout, labels, tens: np.ndarray) -> np.ndarray:
    """Apply ``matrices`` (one matrix on ``op_layout``, or a stack whose axes lead the
    result) to the factors of ``op_layout`` in ``tens``, whose axes ``labels`` names."""
    axes = []
    for label, dim in op_layout.factors:
        if label not in labels:
            raise LayoutError(f"no subsystem {label!r} in layout {tuple(labels)}")
        ax = labels.index(label)
        if tens.shape[ax] != dim:
            raise LayoutError(
                f"dimension mismatch for {label!r}: operator has {dim}, state has {tens.shape[ax]}"
            )
        axes.append(ax)
    perm = axes + [ax for ax in range(tens.ndim) if ax not in axes]
    inverse = sorted(range(len(perm)), key=perm.__getitem__)
    moved = tens.transpose(perm)
    lead = matrices.ndim - 2
    out = (matrices @ moved.reshape(op_layout.dim, -1)).reshape(matrices.shape[:lead] + moved.shape)
    return out.transpose([*range(lead), *(lead + ax for ax in inverse)])


def propagator(h: Operator, t: float, t0: float) -> Operator:
    """Unitary generated by a Hermitian ``h`` over the interval ``t0 -> t``.

    Computed by eigendecomposition, so the result is unitary up to eigensolver
    error rather than series truncation.  The decomposition is cached on
    ``h``, so repeated propagators of one generator run ``eigh`` once.
    """
    spectrum = h._spectrum
    if spectrum is None:
        raise DomainError("propagator requires a Hermitian generator")
    w, v = spectrum
    phases = np.exp(-1j * w * (t - t0))
    return Operator(h.layout, (v * phases) @ v.conj().T)

