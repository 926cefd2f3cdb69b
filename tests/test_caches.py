"""The layout-only caches of ``hilbert`` and ``timeline`` change no result.

Four steps of the build path depend on layouts alone and are cached per
structure key: ``hilbert._interned`` (``hilbert._layout``),
``hilbert._contract_plan``, ``timeline._history_layout`` and
``timeline._pad_plan``.  A build with every cache cleared and a build that
reads them must give the same bits; a refusal must repeat, with its message,
on every call; and no cache may hold more than ``CACHE_SIZE`` entries.
"""

import numpy as np
import pytest

from qtimeline import hilbert, timeline
from qtimeline.hilbert import CACHE_SIZE, DomainError, LayoutError, Operator, StateVector, SubsystemLayout, _contract
from qtimeline.instrument import DetectorModel, KrausSet, state_test
from qtimeline.sampling import random_record_scenario, random_scenario, random_wide_scenario
from qtimeline.timeline import EventSchedule, build_history, state_at
from qtimeline.wigner import WignerScenario, build as build_wigner

CACHES = (hilbert._interned, hilbert._contract_plan, timeline._history_layout, timeline._pad_plan)


def clear_caches():
    for cache in CACHES:
        cache.cache_clear()


def projective(name, layout):
    """A projective measurement of ``layout``'s first factor, which has dimension 2."""
    rest = np.eye(layout.dim // 2)
    kraus = KrausSet(tuple((label, Operator(layout, np.kron(np.diag(p), rest))) for label, p in
                           (("up", [1, 0]), ("down", [0, 1]))))
    return DetectorModel(name, kraus)


def snapshot(history):
    """Every anchor's layout and bits, every segment's table, and the state at each finite anchor time."""
    out = []
    for k, anchor in enumerate(history.anchors):
        table = history.records(k)
        out.append((anchor.layout, anchor.amplitudes.tobytes(), table.labels, table.weights.tobytes()))
        if np.isfinite(history.anchor_time(k)):
            state = state_at(history, history.anchor_time(k))
            out.append((state.layout, state.amplitudes.tobytes()))
    return out


def scenarios():
    yield "wigner", lambda: build_wigner(WignerScenario(0.6, 0.8j, 0.8, 0.6, 1.0, 2.5))
    for sampler in (random_scenario, random_wide_scenario, random_record_scenario):
        for seed in range(4):
            sample = sampler(np.random.default_rng(seed))
            yield f"{sampler.__name__}-{seed}", lambda s=sample: build_history(s.psi0, s.t0, s.h_system, s.schedule)


SCENARIOS = list(scenarios())


@pytest.mark.parametrize("name, make", SCENARIOS, ids=[name for name, _ in SCENARIOS])
def test_a_cold_and_a_warm_build_give_the_same_bits(name, make):
    clear_caches()
    cold = snapshot(make())
    misses = [cache.cache_info().misses for cache in CACHES]
    warm = snapshot(make())
    assert [cache.cache_info().misses for cache in CACHES] == misses  # the warm build computed no plan again
    assert warm == cold


def test_a_wigner_build_of_new_amplitudes_computes_no_plan():
    build_wigner(WignerScenario(0.6, 0.8, 0.6, 0.8))
    before = [cache.cache_info() for cache in CACHES]
    build_wigner(WignerScenario(0.8, 0.6j, 0.6, 0.8))
    after = [cache.cache_info() for cache in CACHES]
    assert [a.misses - b.misses for a, b in zip(after, before)] == [0, 0, 0, 0]
    assert all(a.hits > b.hits for a, b in zip(after, before))


S = SubsystemLayout.of(("S", 2))


def refusals():
    """Calls that must raise the same error and message on every call, none of them cached."""
    zero = Operator(S, np.zeros((2, 2)))
    psi0 = StateVector(S, [1, 0])
    on_x = projective("D1", SubsystemLayout.of(("X", 2)))
    yield "unknown-target", LayoutError, lambda: build_history(psi0, 0.0, zero, EventSchedule(((1.0, on_x),)))
    many = EventSchedule(tuple((float(k), projective(f"M{k}", S)) for k in range(1, 26)))
    yield "over-limit", DomainError, lambda: build_history(psi0, 0.0, zero, many)
    yield "duplicate-label", LayoutError, lambda: hilbert._layout(S.factors + (("S", 3),))
    wide = StateVector(SubsystemLayout.of(("S", 3)), [1, 0, 0])
    yield "dimension-mismatch", LayoutError, lambda: _contract(np.eye(2), S, wide)


REFUSALS = list(refusals())


@pytest.mark.parametrize("name, error, call", REFUSALS, ids=[name for name, _, _ in REFUSALS])
def test_a_refusal_is_raised_again_with_its_message(name, error, call):
    with pytest.raises(error) as first:
        call()
    sizes = [cache.cache_info().currsize for cache in CACHES]
    with pytest.raises(error) as second:
        call()
    assert str(second.value) == str(first.value)
    assert [cache.cache_info().currsize for cache in CACHES] == sizes


def test_no_cache_outgrows_its_bound():
    clear_caches()
    for i in range(CACHE_SIZE + 20):  # a new system label each time: a new key in every cache
        system = SubsystemLayout.of((f"S{i}", 2))
        test = state_test("W", SubsystemLayout(system.factors + (("F", 3),)), [1, 0, 0, 0, 0, 0])
        schedule = EventSchedule(((1.0, projective("F", system)), (2.0, test)))
        history = build_history(StateVector(system, [0.6, 0.8]), 0.0, Operator(system, np.zeros((2, 2))), schedule)
        state_at(history, 3.0)
    for cache in CACHES:
        info = cache.cache_info()
        assert info.maxsize == CACHE_SIZE and info.currsize == CACHE_SIZE, (cache.__name__, info)
