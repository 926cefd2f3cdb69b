import math
from collections import Counter

import numpy as np

from qtimeline.hilbert import SubsystemLayout
from qtimeline.instrument import validate
from qtimeline.sampling import (
    random_complete_kraus,
    random_hermitian,
    random_record_scenario,
    random_scenario,
    random_state,
    random_wide_scenario,
)


def test_random_state_is_normalized():
    rng = np.random.default_rng(0)
    state = random_state(rng, SubsystemLayout.of(("S", 5)))
    assert abs(state.norm - 1.0) < 1e-12


def test_random_hermitian_spectral_norm_control():
    rng = np.random.default_rng(1)
    h = random_hermitian(rng, SubsystemLayout.of(("S", 4)), spectral_norm=2.0)
    assert h.is_hermitian(1e-12)
    assert abs(np.max(np.abs(np.linalg.eigvalsh(h.matrix))) - 2.0) < 1e-12


def test_random_kraus_families_are_complete():
    rng = np.random.default_rng(2)
    for _ in range(10):
        kraus = random_complete_kraus(rng, SubsystemLayout.of(("S", 3)), int(rng.integers(2, 5)))
        assert validate(kraus).max_deviation < 1e-12


def test_random_scenario_shape():
    rng = np.random.default_rng(3)
    sample = random_scenario(rng)
    assert sample.psi0.is_normalized
    assert 1 <= len(sample.schedule) <= 3
    assert sample.t0 < sample.schedule.times[0]
    assert 2 <= sample.psi0.layout.dim <= 4


def test_random_scenario_is_seed_deterministic():
    one = random_scenario(np.random.default_rng(77))
    two = random_scenario(np.random.default_rng(77))
    np.testing.assert_array_equal(one.psi0.amplitudes, two.psi0.amplitudes)
    np.testing.assert_array_equal(one.h_system.matrix, two.h_system.matrix)
    assert one.schedule.times == two.schedule.times


def test_random_wide_scenario_shape_and_determinism():
    for seed in range(20):
        sample = random_wide_scenario(np.random.default_rng(seed))
        system = sample.psi0.layout
        assert sample.psi0.is_normalized and sample.h_system.is_hermitian()
        assert 1 <= len(system.factors) <= 3 and 1 <= len(sample.schedule) <= 3
        for k, (t, det) in enumerate(sample.schedule.events):
            assert t == k + 1 and validate(det.kraus).max_deviation < 1e-12
            earlier = set(sample.schedule.detector_labels[:k])
            records = [label for label in det.kraus.target_labels if label not in system]
            assert len(records) <= 1 and set(records) <= earlier
    one = random_wide_scenario(np.random.default_rng(5))
    two = random_wide_scenario(np.random.default_rng(5))
    np.testing.assert_array_equal(one.psi0.amplitudes, two.psi0.amplitudes)
    assert [d.kraus.target_labels for _, d in one.schedule.events] == [
        d.kraus.target_labels for _, d in two.schedule.events
    ]


def test_random_record_scenario_covers_the_record_shapes_within_dimension_36():
    shapes = Counter()
    for seed in range(10):  # the draws test_oracle_agrees_at_every_clock_reading checks
        sample = random_record_scenario(np.random.default_rng([seed, 4]))
        system = sample.psi0.layout
        assert sample.psi0.is_normalized and sample.h_system.is_hermitian() and len(sample.schedule) >= 2
        assert system.dim * math.prod(det.ancilla_dim for _, det in sample.schedule.events) <= 36
        for k, (t, det) in enumerate(sample.schedule.events):
            assert t == k + 1 and validate(det.kraus).max_deviation < 1e-12
            records = [label for label in det.kraus.target_labels if label not in system]
            assert set(records) <= set(sample.schedule.detector_labels[:k])
            shapes["records only"] += len(records) == len(det.kraus.target_labels)
            shapes["several records"] += len(records) >= 2
            shapes["one outcome"] += len(det.kraus.outcomes) == 1
            shapes["four outcomes"] += len(det.kraus.outcomes) >= 4
    assert min(shapes.values()) > 0 and len(shapes) == 4
