"""Self-tests of the benchmark's references, checks and tracer.

Run from the root of a source checkout:

    PYTHONPATH=src python3 perfbench/selftest.py

Prints one line per test and exits non-zero if any fails.
"""

from __future__ import annotations

import dataclasses
import math
import sys
import tempfile
import types
from pathlib import Path

import numpy as np

import drift
import gen
import refs
import workloads

TESTS = []


def test(fn):
    TESTS.append(fn)
    return fn


@test
def closed_form_known_values():
    s = 1 / math.sqrt(2)
    grids = refs.wigner_grids(s, s, 1, 0)
    assert abs(grids["joint"][("up", "yes")] - 0.5) < 1e-15
    assert abs(grids["joint"][("down", "no")] - 0.5) < 1e-15
    assert grids["joint"][("up", "no")] == 0 and grids["joint"][("down", "yes")] == 0
    assert abs(grids["marginal_w"][("yes",)] - 0.5) < 1e-15
    assert abs(grids["cond_w_given_f"][("up", "yes")] - 1.0) < 1e-15
    assert abs(grids["cond_f_given_w"][("down", "no")] - 1.0) < 1e-15


def _qubit_spec(h, psi0, time_):
    return {
        "factors": [("S0", 2)],
        "psi0": np.array(psi0, dtype=complex),
        "h": np.array(h, dtype=complex),
        "t0": 0.0,
        "events": [{"time": time_, "detector": "D0", "targets": ["S0"], "outcomes": ["up", "down"],
                    "kraus": [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]}],
    }


@test
def born_chain_known_values():
    s = 1 / math.sqrt(2)
    spec = _qubit_spec(np.zeros((2, 2)), [s, s], 1.0)
    before = refs.born_table(spec, 0.5)
    assert list(before) == [("r",)] and abs(before[("r",)] - 1.0) < 1e-15
    rows = refs.born_table(spec, 2.0)
    assert abs(rows[("up",)] - 0.5) < 1e-15 and abs(rows[("down",)] - 0.5) < 1e-15
    # Rabi flop: H = sigma_x from |0> for pi/3 leaves p(up) = cos^2(pi/3) = 1/4.
    rabi = _qubit_spec([[0, 1], [1, 0]], [1, 0], math.pi / 3)
    assert abs(refs.born_table(rabi, 5.0)[("up",)] - 0.25) < 1e-14


@test
def generated_kraus_families_are_complete():
    rng = np.random.default_rng(0)
    for shape in gen.LADDER:
        for ev in gen.scenario_spec(rng, *shape)["events"]:
            total = sum(k.conj().T @ k for k in ev["kraus"])
            assert np.max(np.abs(total - np.eye(len(total)))) < 1e-12


@test
def inputs_repeat_for_a_seed():
    a = gen.scenario_spec(np.random.default_rng([7, 2]), *gen.LADDER[8])
    b = gen.scenario_spec(np.random.default_rng([7, 2]), *gen.LADDER[8])
    assert all(np.array_equal(x, y) for x, y in zip(a["events"][0]["kraus"], b["events"][0]["kraus"]))
    assert np.array_equal(a["psi0"], b["psi0"])


def _perturbed(table, delta=1e-9):
    (key, value), *rest = table.rows
    return dataclasses.replace(table, rows=((key, value + delta), *rest))


@test
def wigner_workload_flags_a_perturbed_grid():
    wl = workloads.WignerGrids(3, None)
    assert all(op.problem is None for op in wl.round())
    tables = wl.tables

    def perturbed(scenario, t):
        result = tables(scenario, t)
        return dataclasses.replace(result, joint=_perturbed(result.joint))

    wl.tables = perturbed
    ops = wl.round()
    assert all(op.problem is not None and not op.known_fault for op in ops), ops


@test
def ladder_workload_flags_a_perturbed_table_and_the_inf_fault():
    wl = workloads.LadderTables(3, None)
    for _ in range(len(gen.LADDER)):
        main, inf = wl.round()
        assert main.problem is None, main.problem
        assert inf.known_fault
    real = wl.probability

    def full_table(history, t):
        return _perturbed(real.full_table(history, t), 1e-8)

    wl.probability = types.SimpleNamespace(**{**vars(real), "full_table": full_table})
    main, _ = wl.round()
    assert main.problem is not None and not main.known_fault


@test
def cli_checks_flag_perturbed_outputs():
    expected = [("3", "F=up", "marginal", 0.25)]
    assert workloads.check_csv([("3", "F=up", "marginal", 0.25)], expected) is None
    assert workloads.check_csv([("3", "F=up", "marginal", 0.25 + 1e-9)], expected) is not None
    data = gen.scenario_json(gen.scenario_spec(np.random.default_rng(1), (2,), (2, 2)), [])
    assert workloads.check_reparse(data, data) is None
    changed = gen.scenario_json(gen.scenario_spec(np.random.default_rng(1), (2,), (2, 2)), [])
    changed["system"]["state"][0][0] += 1e-15
    assert workloads.check_reparse(changed, data) is not None


@test
def cli_round_passes():
    with tempfile.TemporaryDirectory() as tmp:
        wl = workloads.CliCommands(5, Path(tmp))
        ops = wl.round()
        assert len(ops) == 6 and all(op.problem is None for op in ops), [op.problem for op in ops]


@test
def tracer_sees_calls_between_modules():
    import tracer as tracing
    from qtimeline import wigner

    tr = tracing.Tracer()
    tr.install()
    wigner.tables(wigner.WignerScenario(0.6, 0.8, 0.8, 0.6), 3.0)
    summary = tracing.summarize([(tr.spans, tr.names, tr.extras)])
    for name in ("wigner.tables", "wigner.build", "timeline.build_history", "probability.full_table",
                 "hilbert.project_outcome", "instrument.apply_instrument"):
        assert summary[name]["calls"] > 0, name
    spans = np.frombuffer(tr.spans, dtype=np.int64).reshape(-1, 4)
    top = spans[spans[:, 3] < 0]
    total_self = sum(entry["self_ns"] for entry in summary.values())
    assert total_self == int((top[:, 2] - top[:, 1]).sum())



@test
def probes_run_and_scale_to_one_at_reference_speed():
    for probe in (drift.KernelProbe(), drift.SpawnProbe()):
        assert probe() > 0
        assert drift.speed_scale(probe, [probe.reference_s] * 3) == 1.0
        assert drift.speed_scale(probe, [2 * probe.reference_s]) == 0.5


@test
def each_timing_is_scaled_by_its_nearest_probe_calls():
    probe = drift.KernelProbe()
    ref = probe.reference_s
    probes = [ref] * 6 + [2 * ref] * 6
    got = drift.scaled(probe, probes, [1.0, 1.0, 1.0], [0, 6, 12])
    assert np.allclose(got, [1.0, 1 / 1.5, 0.5], rtol=1e-12, atol=0), got


def main() -> int:
    failures = 0
    for fn in TESTS:
        try:
            fn()
        except Exception as err:  # report every test, then fail
            failures += 1
            print(f"FAIL {fn.__name__}: {type(err).__name__}: {err}")
        else:
            print(f"ok   {fn.__name__}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
