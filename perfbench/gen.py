"""Seeded inputs for the benchmark workloads.

Everything here is plain numpy and plain Python data: the workloads turn these
specs into qtimeline objects (or scenario files) themselves, and the
references in ``refs.py`` read the same specs.  Nothing comes from
``qtimeline.sampling`` or the test helpers, so the inputs stay fixed when
those change.

A spec is a dict::

    {"factors": [(label, dim), ...],            # system factors
     "psi0": complex vector, "h": complex matrix, "t0": float,
     "events": [{"time": float, "detector": str, "targets": [label, ...],
                 "outcomes": [label, ...], "kraus": [matrix, ...]}, ...]}

A target may name an earlier detector, whose record factor has dimension
(number of its outcomes + 1); such an event is "Wigner-type".
"""

from __future__ import annotations

import math

import numpy as np

READY = "r"

# Ladder of scenario shapes: (system factor dims, outcomes per event,
# {event index: index of the earlier event whose record it also measures}),
# listed from the fastest operation to the slowest.  With 15 rungs run in
# turn, the median operation falls at the centre of the 8th rung's latencies
# and the 90th percentile at the centre of the 14th rung's.  Both rungs are
# at least 1.8 times slower than the rung below and faster than the rung
# above by the same margin, more than the range over which this machine's
# speed drifts, so a run that spans fast and slow phases does not blend a
# neighbouring rung into these percentiles.  Total dense dimension runs from
# 18 to 13 122.
LADDER = (
    ((2,), (2, 2), {}),
    ((2, 2, 2), (2, 2, 2), {}),
    ((3,), (2, 3, 2), {}),
    ((2,), (2, 2, 2), {2: 0}),
    ((2,), (2, 2, 2, 2), {3: 1}),
    ((2, 2), (2, 2, 2, 2), {}),
    ((2,), (3, 3, 3), {}),
    ((2,), (2, 2, 2, 2, 2), {4: 2}),
    ((4,), (3, 3, 3, 3), {}),
    ((2,), (2,) * 6, {5: 2}),
    ((3,), (2,) * 6, {}),
    ((2, 2), (2,) * 6, {4: 1}),
    ((2, 3), (2,) * 6, {}),
    ((2,), (2,) * 7, {}),
    ((2,), (2,) * 8, {}),
)


def unit_pair(rng) -> tuple[complex, complex]:
    """Complex (x, y) with |x|^2 + |y|^2 = 1 and neither modulus below 0.05."""
    while True:
        z = rng.normal(size=4)
        x, y = complex(z[0], z[1]), complex(z[2], z[3])
        norm = math.sqrt(abs(x) ** 2 + abs(y) ** 2)
        x, y = x / norm, y / norm
        if min(abs(x), abs(y)) >= 0.05:
            return x, y


def wigner_params(rng) -> tuple[complex, complex, complex, complex]:
    """(a, b, alpha, beta) whose yes/no outcomes both have probability >= 1e-6."""
    while True:
        a, b = unit_pair(rng)
        alpha, beta = unit_pair(rng)
        p_yes = abs(alpha.conjugate() * a + beta.conjugate() * b) ** 2
        if 1e-6 <= p_yes <= 1.0 - 1e-6:
            return a, b, alpha, beta


def random_state(rng, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_hermitian(rng, dim: int) -> np.ndarray:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (m + m.conj().T) / 2.0


def random_kraus(rng, dim: int, n_out: int) -> list[np.ndarray]:
    """Complete family: the blocks of a random isometry C^dim -> C^(n_out*dim)."""
    g = rng.normal(size=(n_out * dim, dim)) + 1j * rng.normal(size=(n_out * dim, dim))
    q, _ = np.linalg.qr(g)
    return [np.ascontiguousarray(q[m * dim:(m + 1) * dim, :]) for m in range(n_out)]


def record_kraus(rng, n_record: int, dim: int, n_out: int, record_first: bool) -> list[np.ndarray]:
    """Complete family on (record of ``n_record`` outcomes) x (system factor of ``dim``).

    Each operator maps the span of the record's outcome states into itself and
    the record's ready state into itself (ready index 0), so a record that has
    been written keeps all its weight on outcome labels.
    """
    r = n_record + 1
    fired = random_kraus(rng, n_record * dim, n_out)
    ready = random_kraus(rng, dim, n_out)
    family = []
    for v, w in zip(fired, ready):
        k = np.zeros((r * dim, r * dim), dtype=np.complex128)
        k[dim:, dim:] = v
        k[:dim, :dim] = w
        if not record_first:
            k = k.reshape(r, dim, r, dim).transpose(1, 0, 3, 2).reshape(r * dim, r * dim)
        family.append(np.ascontiguousarray(k))
    return family


def scenario_spec(rng, system_dims, outcomes, wigner_sources=None) -> dict:
    """Random scenario of the given shape.

    System-only events act on a random ordered subset of the system factors;
    a Wigner-type event acts on the named earlier record together with one
    system factor, in random order.
    """
    wigner_sources = wigner_sources or {}
    factors = [(f"S{i}", d) for i, d in enumerate(system_dims)]
    dims = dict(factors)
    sys_dim = math.prod(system_dims)
    t = 0.0
    events = []
    for k, n_out in enumerate(outcomes):
        t += float(rng.uniform(0.5, 1.5))
        labels = [label for label, _ in factors]
        if k in wigner_sources:
            source = wigner_sources[k]
            factor = str(rng.choice(labels))
            record_first = bool(rng.random() < 0.5)
            targets = [f"D{source}", factor] if record_first else [factor, f"D{source}"]
            kraus = record_kraus(rng, outcomes[source], dims[factor], n_out, record_first)
        else:
            size = int(rng.integers(1, len(labels) + 1))
            targets = [str(x) for x in rng.permutation(labels)[:size]]
            kraus = random_kraus(rng, math.prod(dims[label] for label in targets), n_out)
        events.append(
            {
                "time": round(t, 6),
                "detector": f"D{k}",
                "targets": targets,
                "outcomes": [f"o{m}" for m in range(n_out)],
                "kraus": kraus,
            }
        )
        dims[f"D{k}"] = n_out + 1
    return {
        "factors": factors,
        "psi0": random_state(rng, sys_dim),
        "h": random_hermitian(rng, sys_dim),
        "t0": 0.0,
        "events": events,
    }


def is_system_only(spec) -> bool:
    system = {label for label, _ in spec["factors"]}
    return all(set(ev["targets"]) <= system for ev in spec["events"])


def readings(spec, rng) -> dict[str, float]:
    """Clock readings in every regime: before the first event, inside a middle
    segment, and two readings inside the last segment."""
    times = [ev["time"] for ev in spec["events"]]
    mid = len(times) // 2
    return {
        "before": float(rng.uniform(spec["t0"], times[0])),
        "mid": float(rng.uniform(times[mid - 1], times[mid])) if mid else float(times[0]),
        "after": times[-1] + float(rng.uniform(0.1, 2.0)),
        "after2": times[-1] + float(rng.uniform(2.0, 40.0)),
    }


def labels_at(spec, t: float) -> list[tuple[str, ...]]:
    """Labels each detector can show at t, in schedule order."""
    return [tuple(ev["outcomes"]) if ev["time"] <= t else (READY,) for ev in spec["events"]]


def scenario_json(spec, queries) -> dict:
    """The spec as a qtimeline scenario file (complex entries as [re, im])."""

    def pair(z):
        return [float(z.real), float(z.imag)]

    def matrix(m):
        return [[pair(z) for z in row] for row in m]

    return {
        "system": {
            "factors": [[label, dim] for label, dim in spec["factors"]],
            "state": [pair(z) for z in spec["psi0"]],
            "hamiltonian": matrix(spec["h"]),
            "t0": spec["t0"],
        },
        "events": [
            {
                "time": ev["time"],
                "detector": ev["detector"],
                "targets": ev["targets"],
                "kraus": [
                    {"outcome": label, "matrix": matrix(k)}
                    for label, k in zip(ev["outcomes"], ev["kraus"])
                ],
            }
            for ev in spec["events"]
        ],
        "queries": queries,
    }
