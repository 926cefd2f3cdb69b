import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qtimeline
from qtimeline.cli import _evaluate_query, main
from qtimeline.probability import OutcomeQuery, joint
from qtimeline.sampling import random_record_scenario, random_scenario, random_wide_scenario
from qtimeline.scenario import parse_query_string, parse_scenario
from qtimeline.timeline import build_history


def pair(z):
    return [float(np.real(z)), float(np.imag(z))]


def projective_kraus():
    return [
        {"outcome": "up", "matrix": [[pair(1), pair(0)], [pair(0), pair(0)]]},
        {"outcome": "down", "matrix": [[pair(0), pair(0)], [pair(0), pair(1)]]},
    ]


def write_scenario(tmp_path, state=(1.0, 0.0), queries=None, name="scenario.json"):
    data = {
        "system": {
            "factors": [["S", 2]],
            "state": [pair(state[0]), pair(state[1])],
            "hamiltonian": [[pair(0), pair(0)], [pair(0), pair(0)]],
            "t0": 0.0,
        },
        "events": [
            {"time": 1.0, "detector": "M", "targets": ["S"], "kraus": projective_kraus()},
            {"time": 2.0, "detector": "N", "targets": ["S"], "kraus": projective_kraus()},
        ],
        "queries": queries if queries is not None else [{"t": 3.0, "full_table": True}],
    }
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def test_wigner_subcommand_prints_balanced_tables(capsys):
    code = main(["wigner", "--a", "0.7071", "--b", "0.7071", "--alpha", "1", "--beta", "0", "--t", "3.0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "joint p(f,w) at t=3" in out
    assert "0.5" in out
    assert "conditional p(f|w)" in out


def test_wigner_subcommand_csv(tmp_path, capsys):
    csv_path = tmp_path / "tables.csv"
    code = main(
        ["wigner", "--a", "0.6", "--b", "0.8", "--alpha", "0.8", "--beta", "0.6", "--csv", str(csv_path)]
    )
    capsys.readouterr()
    assert code == 0
    rows = read_csv(csv_path)
    assert set(rows[0]) == {"t", "assignment", "kind", "value"}
    joint_rows = [float(r["value"]) for r in rows if r["kind"] == "joint"]
    assert len(joint_rows) == 4
    assert abs(sum(joint_rows) - 1.0) < 1e-9
    conditional_rows = [r for r in rows if r["kind"] == "conditional"]
    assert len(conditional_rows) == 8
    assert any("|" in r["assignment"] for r in conditional_rows)


DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize(
    "args, golden",
    [
        (["wigner"], "wigner.out"),
        (["wigner", "--t", "1.5"], "wigner_t1.5.out"),
        (["wigner", "--t", "inf"], "wigner_tinf.out"),
    ],
)
def test_wigner_output_matches_golden(args, golden, capsys):
    assert main(args) == 0
    assert capsys.readouterr().out.encode() == (DATA / golden).read_bytes()


def test_simulate_output_matches_golden(tmp_path, capsys):
    # Two system factors, nonzero H; D3's Kraus acts on S0 and on D1's record.
    csv_path = tmp_path / "out.csv"
    assert main(["simulate", str(DATA / "two_factor_wigner.json"), "--csv", str(csv_path)]) == 0
    assert capsys.readouterr().out.encode() == (DATA / "two_factor_wigner.out").read_bytes()
    assert csv_path.read_bytes() == (DATA / "two_factor_wigner.csv").read_bytes()


def test_the_unit_norm_edge_file_gets_one_verdict(capsys):
    # Its state's norm is within TOL_EQUALITY of 1 by one rounding of it and not by another: validate,
    # export and simulate must judge it by the one rule StateVector applies, and so agree.
    path = str(DATA / "unit_norm_edge.json")
    assert main(["validate", path]) == 0
    assert capsys.readouterr() == (f"{path}: ok (1 event, 1 query)\n", "")
    assert main(["export", path]) == 0
    exported, err = capsys.readouterr()
    assert err == "" and parse_scenario(json.loads(exported)).psi0.is_normalized
    assert main(["simulate", path]) == 0
    assert capsys.readouterr() == ((DATA / "unit_norm_edge.out").read_text(), "")


def test_a_detector_accepted_as_complete_can_still_leave_an_anchor_off_the_unit_norm(tmp_path, capsys):
    data = json.loads(write_scenario(tmp_path).read_text())
    s = math.sqrt(1 + 2e-11)  # completeness deviation 2e-11 passes the detector; norm 1 + 1e-11 fails the anchor
    data["events"] = [{"time": 1.0, "detector": "D", "targets": ["S"],
                       "kraus": [{"outcome": "seen", "matrix": [[pair(s), pair(0)], [pair(0), pair(s)]]}]}]
    data["queries"] = []
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(data))
    assert main(["validate", str(path)]) == 0
    capsys.readouterr()
    assert main(["simulate", str(path)]) == 2
    assert capsys.readouterr() == ("", f"{path}: anchor states must be normalized: anchor 1 (after detector 'D') "
                                       f"has norm 1.00000000001, more than 1e-12 from 1\n")


def test_wigner_rejects_zero_amplitudes(capsys):
    code = main(["wigner", "--a", "0", "--b", "0"])
    err = capsys.readouterr().err
    assert code == 2
    assert "invalid parameters" in err


UNIT = "0.7071067811865476"
NEAR_UNIT = "0.707106781187"  # 1/sqrt(2) to the 12 digits the CSV prints: norm about 1 + 6.4e-13


@pytest.mark.parametrize(
    "flags, code, err, same_as",
    [
        (["--a", "1e200", "--b", "1e200"], 0, "", ["--a", "1", "--b", "1"]),
        (["--alpha", "1e308", "--beta", "1e308,1e308"], 0, "", ["--alpha", "1", "--beta", "1,1"]),
        (["--a", NEAR_UNIT, "--b", NEAR_UNIT], 0, "", []),
        (["--a", "0.6", "--b", "0.8", "--alpha", NEAR_UNIT, "--beta", NEAR_UNIT], 0, "",
         ["--a", "0.6", "--b", "0.8", "--alpha", UNIT, "--beta", UNIT]),
        (["--a", "1e-200", "--b", "0"], 2, "invalid parameters: (a, b) has (near-)zero norm\n", None),
        (["--a", "5e-324", "--b", "5e-324"], 2, "invalid parameters: (a, b) has (near-)zero norm\n", None),
    ],
    ids=["huge-pair", "huge-complex-pair", "near-unit-pair", "near-unit-wigner-pair", "underflowing-pair",
         "subnormal-pair"],
)
def test_wigner_amplitudes_near_the_float_limits(capsys, flags, code, err, same_as):
    assert main(["wigner", *flags]) == code
    captured = capsys.readouterr()
    assert captured.err == err
    if code == 0:  # a pair is normalized without squaring it, so it reads as the unit pair it scales
        main(["wigner", *same_as])
        assert captured.out == capsys.readouterr().out


FLOAT_TEXT = st.one_of(
    st.floats().map(repr),  # subnormals, +-inf and nan included
    st.sampled_from(["1e308", "-1e308", "1e400", "5e-324", "-5e-324", "2.2e-308", "inf", "-inf", "nan"]),
)
AMPLITUDE_TEXT = st.one_of(FLOAT_TEXT, st.tuples(FLOAT_TEXT, FLOAT_TEXT).map(",".join), st.text(max_size=12))


def run_quietly(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@given(
    amplitudes=st.tuples(*[AMPLITUDE_TEXT] * 4),
    times=st.tuples(*[st.one_of(st.none(), FLOAT_TEXT)] * 3),
)
@settings(max_examples=150, deadline=None)
def test_wigner_flags_never_raise(amplitudes, times):
    argv = ["wigner", *(f"--{name}={text}" for name, text in zip(("a", "b", "alpha", "beta"), amplitudes))]
    argv += [f"--{name}={text}" for name, text in zip(("tm", "tn", "t"), times) if text is not None]
    assert run_quietly(argv) in (0, 1, 2)


@given(
    angles=st.tuples(st.floats(0, 2 * math.pi), st.floats(0, 2 * math.pi)),
    drifts=st.tuples(st.floats(-2e-12, 2e-12), st.floats(-2e-12, 2e-12)),
    scale=st.one_of(st.just(1.0), st.floats(1e-8, 1e300)),
)
@settings(max_examples=150, deadline=None)
def test_wigner_accepts_every_pair_it_can_normalize(angles, drifts, scale):
    argv = ["wigner"]
    for (x, y), angle, drift in zip((("a", "b"), ("alpha", "beta")), angles, drifts):
        size = scale * (1.0 + drift)
        argv += [f"--{x}={size * math.cos(angle)!r}", f"--{y}={size * math.sin(angle)!r}"]
    assert run_quietly(argv) in (0, 1)  # 1 only where a conditional table conditions on a null record


QUERY_BODY = st.one_of(
    st.text(max_size=16),
    st.sampled_from(["full-table", "table", "D1=o0", "D1=r,D2=o1", "D3=o1|D1=o0", "D3=o1|", "|D1=o0", "D1=o9"]),
)
QUERY_TEXT = st.tuples(QUERY_BODY, FLOAT_TEXT).map("@t=".join) | st.text(max_size=20)


@given(queries=st.lists(QUERY_TEXT, min_size=1, max_size=3))
@settings(max_examples=150, deadline=None)
def test_simulate_query_strings_never_raise(queries):
    argv = ["simulate", str(DATA / "two_factor_wigner.json"), *(f"--query={text}" for text in queries)]
    assert run_quietly(argv) in (0, 1, 2)


@pytest.mark.parametrize(
    "flags",
    [
        ["--tn", "inf"], ["--tm=-inf"], ["--tn", "1e400"], ["--alpha", "nan"], ["--beta", "inf"],
        ["--tm=-1e308", "--tn=1e308"],  # finite times whose interval overflows
        ["--a", "1,2,3"],
    ],
    ids=["tn-inf", "tm-minus-inf", "tn-overflow", "alpha-nan", "beta-inf", "interval-overflow", "three-part-a"],
)
def test_wigner_rejects_non_finite_parameters(capsys, flags):
    assert main(["wigner", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("invalid parameters: ")


def test_simulate_runs_file_queries(tmp_path, capsys):
    path = write_scenario(tmp_path)
    csv_path = tmp_path / "out.csv"
    code = main(["simulate", str(path), "--csv", str(csv_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "full table at t=3" in out
    rows = read_csv(csv_path)
    assert [r["kind"] for r in rows] == ["joint"] * 4
    assert abs(sum(float(r["value"]) for r in rows) - 1.0) < 1e-9
    by_assignment = {r["assignment"]: float(r["value"]) for r in rows}
    assert by_assignment["M=up,N=up"] == pytest.approx(1.0, abs=1e-9)


def test_simulate_single_query_line(tmp_path, capsys):
    path = write_scenario(tmp_path)
    code = main(["simulate", str(path), "--query", "M=up,N=up@t=3.0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "joint" in out
    assert "M=up,N=up" in out
    assert "1" in out


def test_simulate_marginal_and_conditional_queries(tmp_path, capsys):
    inv = 1 / np.sqrt(2)
    path = write_scenario(tmp_path, state=(inv, inv))
    code = main(["simulate", str(path), "--query", "M=up@t=3.0", "--query", "N=up|M=up@t=3.0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "marginal" in out
    assert "conditional" in out


def test_simulate_reports_null_conditioning_and_continues(tmp_path, capsys):
    path = write_scenario(
        tmp_path,
        queries=[
            {"t": 3.0, "target": {"N": "up"}, "given": {"M": "down"}},
            {"t": 3.0, "assignment": {"M": "up", "N": "up"}},
        ],
    )
    code = main(["simulate", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert "query 0" in captured.err
    assert "M=up,N=up" in captured.out  # later query still ran


@pytest.mark.parametrize(
    "queries, flags",
    [
        ([{"t": 3.0, "full_table": "false"}], []),
        ([{"t": 3.0, "full_table": True, "assignment": {"M": "up"}}], []),
        ([{"t": 3.0, "assignment": {"M": "up"}, "target": {"N": "up"}, "given": {"M": "up"}}], []),
        (None, ["--query", "M=up,M=down@t=3"]),
    ],
    ids=["full-table-string", "table-and-assignment", "assignment-and-conditional", "detector-twice"],
)
def test_simulate_refuses_ambiguous_queries(tmp_path, capsys, queries, flags):
    path = write_scenario(tmp_path, queries=queries)
    assert main(["simulate", str(path), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "queries[0]" in captured.err or "query 'M=up,M=down@t=3'" in captured.err


def test_simulate_bad_file_is_validation_error(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["simulate", str(missing)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["simulate", str(bad)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", ["simulate", "validate", "export"])
def test_a_missing_file_is_one_validation_line(tmp_path, capsys, command):
    missing = tmp_path / "nope.json"
    assert main([command, str(missing)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"{missing}: ")


def test_validate_ok_and_failure(tmp_path, capsys):
    good = write_scenario(tmp_path)
    assert main(["validate", str(good)]) == 0
    assert "ok" in capsys.readouterr().out

    data = json.loads(good.read_text())
    data["events"][0]["kraus"][0]["matrix"] = [[pair(1), pair(0)], [pair(0), pair(1)]]
    data["events"][0]["kraus"][1]["matrix"] = [[pair(1), pair(0)], [pair(0), pair(1)]]
    bad = tmp_path / "incomplete.json"
    bad.write_text(json.dumps(data))
    assert main(["validate", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "completeness violated by" in err
    assert "'M'" in err


def test_export_roundtrip(tmp_path, capsys):
    rng = np.random.default_rng(50)
    z = rng.normal(size=2) + 1j * rng.normal(size=2)
    z /= np.linalg.norm(z)
    original = write_scenario(tmp_path, state=(z[0], z[1]))
    exported = tmp_path / "exported.json"
    assert main(["export", str(original), "--out", str(exported)]) == 0
    capsys.readouterr()

    from qtimeline.scenario import load_scenario

    first = load_scenario(original)
    second = load_scenario(exported)
    np.testing.assert_array_equal(first.psi0.amplitudes, second.psi0.amplitudes)
    np.testing.assert_array_equal(first.h_system.matrix, second.h_system.matrix)

    # exporting the export is a fixed point
    again = tmp_path / "again.json"
    assert main(["export", str(exported), "--out", str(again)]) == 0
    capsys.readouterr()
    assert exported.read_text() == again.read_text()


def test_simulate_checks_completeness_once_per_event(tmp_path, capsys, monkeypatch):
    from qtimeline import instrument

    data = json.loads(write_scenario(tmp_path).read_text())
    data["events"].append({"time": 2.5, "detector": "P", "targets": ["S"], "kraus": projective_kraus()})
    path = tmp_path / "three.json"
    path.write_text(json.dumps(data))
    calls = []
    real = instrument.validate

    def counting(kraus):
        calls.append(kraus)
        return real(kraus)

    for name, module in list(sys.modules.items()):  # every binding of the name, wherever imported
        if name.startswith("qtimeline") and getattr(module, "validate", None) is real:
            monkeypatch.setattr(module, "validate", counting)
    assert main(["simulate", str(path)]) == 0
    capsys.readouterr()
    assert len(calls) == 3


@pytest.mark.parametrize("command", ["export", "simulate", "wigner"])
def test_unwritable_output_path_is_validation_error(tmp_path, command):
    out = tmp_path / "missing" / "out.txt"
    scenario = str(write_scenario(tmp_path))
    argv = {
        "export": ["export", scenario, "--out", str(out)],
        "simulate": ["simulate", scenario, "--csv", str(out)],
        "wigner": ["wigner", "--csv", str(out)],
    }[command]
    proc = subprocess.run(
        [sys.executable, "-m", "qtimeline.cli", *argv], capture_output=True, text=True, env=child_env()
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith(f"{out}: ")


def child_env():
    """Environment in which a fresh interpreter imports the qtimeline under test."""
    env = dict(os.environ)
    source_root = str(Path(qtimeline.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source_root, env.get("PYTHONPATH")]))
    return env


def test_a_reader_that_stops_early_gets_exit_1_and_no_traceback(tmp_path):
    data = json.loads(write_scenario(tmp_path).read_text())
    data["events"] = [
        {"time": float(i + 1), "detector": f"D{i}", "targets": ["S"], "kraus": projective_kraus()} for i in range(12)
    ]
    data["queries"] = [{"t": 13.0, "full_table": True}]  # 2**12 rows, far more than a pipe buffer holds
    path = tmp_path / "twelve.json"
    path.write_text(json.dumps(data))
    proc = subprocess.Popen(
        [sys.executable, "-m", "qtimeline.cli", "simulate", str(path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(),
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert first == b"full table at t=13\n"
    assert stderr == b""


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "qtimeline.cli", "wigner", "--t", "3.0"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0
    assert "joint p(f,w)" in proc.stdout


SCRIPTS = Path(__file__).parents[1] / "scripts"


def test_experiment_scripts_run(tmp_path):
    agreement = subprocess.run(
        [sys.executable, str(SCRIPTS / "oracle_agreement.py"), "--trials", "5", "--seed", "1"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert agreement.returncode == 0, agreement.stderr
    assert "OK: within tolerance" in agreement.stdout
    out = tmp_path / "sweep.csv"
    sweep = subprocess.run(
        [sys.executable, str(SCRIPTS / "wigner_sweep.py"), "--steps", "3", "--out", str(out)],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert sweep.returncode == 0, sweep.stderr
    assert len(read_csv(out)) == 3

    def sweep_fails(*flags):
        proc = subprocess.run(
            [sys.executable, str(SCRIPTS / "wigner_sweep.py"), "--steps", "3", *flags],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.stdout == "" and len(proc.stderr.splitlines()) == 1, proc.stderr
        return proc.returncode, proc.stderr

    assert sweep_fails("--a", "nan") == (2, "invalid parameters: (a, b) has a non-finite entry\n")
    if Path("/dev/full").exists():  # opens, then fails on the write or the close
        code, message = sweep_fails("--out", "/dev/full")
        assert code == 2 and message.startswith("/dev/full: "), message
    code, message = sweep_fails("--a", "1", "--b", "0")  # W=no is null at theta = 0
    assert code == 1 and message.startswith("conditional tables undefined at theta=0.000000: ")


def test_the_sweep_and_the_cli_make_a_near_unit_pair_unit_alike(tmp_path, capsys):
    a, b, steps = "0.6000000000002", "0.8", 25  # |(a, b)| - 1 is about 1.2e-13, inside the unit tolerance
    out = tmp_path / "sweep.csv"
    sweep = subprocess.run(
        [sys.executable, str(SCRIPTS / "wigner_sweep.py"), "--a", a, "--b", b, "--steps", str(steps),
         "--out", str(out)],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert sweep.returncode == 0, sweep.stderr
    for row, theta in zip(read_csv(out), np.linspace(0.0, np.pi / 2, steps)):  # the sweep's own angles
        csv_path = tmp_path / "wigner.csv"
        alpha, beta = float(np.cos(theta)), float(np.sin(theta))
        assert main(["wigner", "--a", a, "--b", b, f"--alpha={alpha!r}", f"--beta={beta!r}", "--t", "3",
                     "--csv", str(csv_path)]) == 0
        cli = {r["assignment"]: r["value"] for r in read_csv(csv_path) if r["kind"] == "joint"}
        for f in ("up", "down"):
            for w in ("yes", "no"):
                assert row[f"joint_{f}_{w}"] == cli[f"F={f},W={w}"], (theta, f, w)
    capsys.readouterr()


def test_package_and_cli_do_not_import_scipy():
    # A fresh interpreter: this process already holds scipy through the oracle tests.
    code = (
        "import sys\n"
        "import qtimeline, qtimeline.cli, qtimeline.wigner, qtimeline.scenario, qtimeline.sampling\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "path, value",
    [
        (("system", "state", 0), [float("nan"), 0.0]),
        (("events", 0, "time"), float("nan")),
        (("system", "t0"), float("-inf")),
        (("queries", 0, "t"), float("nan")),
        (("system", "factors", 0), ["S", 2.7]),
        (("system", "factors", 0), ["S", "x"]),
        (("system", "factors", 0), ["S", True]),
    ],
)
def test_malformed_numbers_are_validation_errors(tmp_path, capsys, path, value):
    data = json.loads(write_scenario(tmp_path).read_text())
    node = data
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))  # NaN and Infinity tokens, which json.loads accepts
    assert main(["validate", str(bad)]) == 2
    assert main(["simulate", str(bad)]) == 2
    capsys.readouterr()


def write_large_scenario(tmp_path, count=30):
    """A qubit with ``count`` binary detectors: a last anchor of 2 * 2**count amplitudes, over the dense
    limit from 24 detectors on."""
    data = json.loads(write_scenario(tmp_path).read_text())
    data["events"] = [
        {"time": float(k), "detector": f"M{k}", "targets": ["S"], "kraus": projective_kraus()}
        for k in range(1, count + 1)
    ]
    path = tmp_path / "large.json"
    path.write_text(json.dumps(data))
    return path


def test_simulate_too_large_history_is_validation_error(tmp_path, capsys):
    assert main(["simulate", str(write_large_scenario(tmp_path))]) == 2
    assert "exceeds the limit" in capsys.readouterr().err


def test_validate_too_large_history_is_validation_error(tmp_path, capsys):
    assert main(["validate", str(write_large_scenario(tmp_path))]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exceeds the limit" in captured.err


@pytest.mark.parametrize("command", ["validate", "export", "simulate"])
def test_every_file_command_gives_the_parse_verdict_on_a_too_large_history(tmp_path, capsys, command):
    path = write_large_scenario(tmp_path, count=25)
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"{path}: events: last anchor of {2 * 2**25} amplitudes (system and stored records) "
                            f"exceeds the limit of {2**24} amplitudes\n")


@pytest.mark.parametrize("command", ["validate", "simulate"])
@pytest.mark.parametrize(
    "path, value, message",
    [
        (("events", 0, "kraus", 0, "matrix", 0, 0), [1e308, 0.0], "completeness violated by inf"),
        (("system", "hamiltonian", 0, 1), [1e308, 0.0], "not Hermitian"),
    ],
    ids=["kraus", "hamiltonian"],
)
def test_entries_near_the_float_limit_fail_without_warnings(tmp_path, capsys, command, path, value, message):
    data = json.loads(write_scenario(tmp_path).read_text())
    node = data
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    if path[0] == "system":  # keep the matrix Hermitian up to the overflow of its check
        data["system"]["hamiltonian"][1][0] = [-1e308, 0.0]
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(data))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, str(huge)]) == 2
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert message in err


@pytest.mark.parametrize(
    "entry, time", [(1e308, 1.0), (1e300, 1e9)], ids=["eigenvalue-overflows", "phase-overflows"]
)
def test_an_overflowing_phase_is_one_validation_line(tmp_path, capsys, entry, time):
    # Every entry of H is ``entry``: Hermitian, with eigenvalues 0 and 2 * entry, evolved from t0 = 0 to ``time``.
    data = json.loads(write_scenario(tmp_path).read_text())
    data["system"]["hamiltonian"] = [[pair(entry), pair(entry)], [pair(entry), pair(entry)]]
    data["events"] = [dict(data["events"][0], time=time)]
    data["queries"] = [{"t": time + 1.0, "full_table": True}]
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(data))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["simulate", str(path)]) == 2
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"{path}: propagator phase w*dt is not finite")
    assert main(["validate", str(path)]) == 0  # validate builds no history, so nothing is evolved
    capsys.readouterr()


def test_simulate_rejects_nan_query_time(tmp_path, capsys):
    path = write_scenario(tmp_path)
    assert main(["simulate", str(path), "--query", "M=up@t=nan"]) == 2
    assert "NaN" in capsys.readouterr().err


def test_simulate_accepts_infinite_query_time(tmp_path, capsys):
    path = write_scenario(tmp_path)
    assert main(["simulate", str(path), "--query", "full-table@t=inf", "--query", "M=r@t=-inf"]) == 0
    out = capsys.readouterr().out
    assert "M=up,N=up" in out and "nan" not in out


def test_wigner_clock_reading_nan_and_inf(capsys):
    assert main(["wigner", "--t", "nan"]) == 2
    assert "invalid parameters" in capsys.readouterr().err
    assert main(["wigner", "--t", "inf"]) == 0
    out = capsys.readouterr().out
    assert "joint p(f,w) at t=inf" in out
    assert "0.5" in out and "nan" not in out


def without_t0(tmp_path, first_time):
    """The two-event scenario with no ``t0`` and its first event moved to ``first_time``."""
    data = json.loads(write_scenario(tmp_path).read_text())
    del data["system"]["t0"]
    data["events"][0]["time"] = first_time
    path = tmp_path / "no_t0.json"
    path.write_text(json.dumps(data))
    return path


def test_wigner_default_t0_precedes_a_friend_time_beyond_2_pow_53(capsys):
    # t_m - 1 rounds back to t_m once |t_m| >= 2**53; the default start must still precede it.
    assert main(["wigner", "--tm=-1", "--tn=1"]) == 0
    near = capsys.readouterr()
    assert main(["wigner", "--tm=-1e17", "--tn=1"]) == 0
    far = capsys.readouterr()
    assert far.out == near.out and far.err == ""


def test_file_default_t0_precedes_a_first_event_beyond_2_pow_53(tmp_path, capsys):
    path = without_t0(tmp_path, -1e17)
    assert main(["validate", str(path)]) == 0
    assert main(["simulate", str(path)]) == 0
    out = capsys.readouterr().out
    assert "M=up,N=up" in out and capsys.readouterr().err == ""
    assert main(["export", str(path)]) == 0
    t0 = json.loads(capsys.readouterr().out)["system"]["t0"]
    assert t0 < -1e17


@pytest.mark.parametrize("command", ["wigner", "simulate", "validate"])
def test_no_finite_default_t0_is_a_validation_error(tmp_path, capsys, command):
    lowest = -sys.float_info.max
    if command == "wigner":
        args = ["wigner", f"--tm={lowest!r}"]
    else:
        args = [command, str(without_t0(tmp_path, lowest))]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "no finite t0 precedes the first event" in captured.err
    if command != "wigner":
        assert "system.t0" in captured.err


@pytest.mark.parametrize("sampler", [random_scenario, random_wide_scenario, random_record_scenario])
def test_every_full_table_row_reads_back_as_a_query_of_its_weight(sampler):
    for seed in range(6):
        sample = sampler(np.random.default_rng([seed, 18]))
        history = build_history(sample.psi0, sample.t0, sample.h_system, sample.schedule)
        for k in range(len(history.schedule) + 1):
            t = history.anchor_time(k) + 0.5  # the samplers put their events one unit apart
            assert history.segment_at(t) == k
            for row in _evaluate_query(history, OutcomeQuery({}, t)):
                query = parse_query_string(f"{row.assignment}@t={t!r}", history.schedule)
                assert joint(history, query) == row.value


def test_labels_at_the_edge_of_the_rule_round_trip(tmp_path, capsys):
    data = json.loads(write_scenario(tmp_path, state=(0.6, 0.8)).read_text())
    data["events"][0].update(detector="spin meter", ready_label="prêt à mesurer")
    for entry, label in zip(data["events"][0]["kraus"], ("größer", "↓ down")):
        entry["outcome"] = label
    path, table, back = tmp_path / "edge.json", tmp_path / "table.csv", tmp_path / "back.csv"
    path.write_text(json.dumps(data, ensure_ascii=False), encoding="utf-8")
    assert main(["validate", str(path)]) == 0
    for t in ("0.5", "1.5", "3"):
        assert main(["simulate", str(path), "--query", f"full-table@t={t}", "--csv", str(table)]) == 0
        rows = read_csv(table)
        for row in rows:
            assert main(["simulate", str(path), "--query", f"{row['assignment']}@t={t}", "--csv", str(back)]) == 0
            assert read_csv(back) == [row]
    out = capsys.readouterr().out
    assert "spin meter=prêt à mesurer,N=r" in out and "spin meter=↓ down,N=down" in out


ASCII_LOCALE = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}  # the locale's encoding is ASCII


def run_cli(argv, **env):
    """``qtimeline argv`` in a fresh interpreter with ``env`` added to its environment."""
    return subprocess.run([sys.executable, "-m", "qtimeline.cli", *argv], capture_output=True,
                          env={**child_env(), **env})


@pytest.mark.parametrize("command", ["validate", "export", "simulate"])
def test_a_file_that_is_not_utf8_is_one_validation_line(tmp_path, command):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"system": "\xff"}')
    proc = run_cli([command, str(path)])
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr.decode() == (f"{path}: not valid UTF-8: 'utf-8' codec can't decode byte 0xff in "
                                    f"position 12: invalid start byte\n")


@pytest.mark.parametrize("command", ["validate", "export", "simulate"])
@pytest.mark.parametrize(
    "contents, message",
    [
        ("{not json", "not valid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
        ("[1]", "top level must be an object"),
    ],
    ids=["json", "top-level"],
)
def test_a_whole_file_error_prints_its_message_with_no_key(tmp_path, capsys, command, contents, message):
    path = tmp_path / "scenario.json"
    path.write_text(contents)
    assert main([command, str(path)]) == 2
    assert capsys.readouterr() == ("", f"{path}: {message}\n")


def test_a_label_the_locale_cannot_encode_prints_escaped():
    # No PYTHONIOENCODING: stdout is ASCII, and a row holding 'größer' prints with backslash escapes.
    proc = run_cli(["simulate", str(DATA / "non_ascii_label.json")], **ASCII_LOCALE)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == (DATA / "non_ascii_label_ascii.out").read_bytes()
    assert b"M=gr\\xf6\\xdfer,N=up" in proc.stdout
    # The table's rows and its total line pad each label by its printed width, so their values line up.
    table = proc.stdout.decode("ascii").splitlines()[1:6]
    assert len({line.rindex(" ") for line in table}) == 1, table


def test_a_utf8_file_reads_and_writes_alike_under_an_ascii_locale(tmp_path):
    data = json.loads(write_scenario(tmp_path, state=(0.6, 0.8)).read_text())
    data["events"][0]["kraus"][0]["outcome"] = "größer"
    path = tmp_path / "umlaut.json"
    path.write_text(json.dumps(data, ensure_ascii=False), encoding="utf-8")
    runs = {}
    for name, env in (("utf-8", {"PYTHONUTF8": "1"}), ("ascii", ASCII_LOCALE)):
        csv_path = tmp_path / f"{name}.csv"
        validate, export = run_cli(["validate", str(path)], **env), run_cli(["export", str(path)], **env)
        simulate = run_cli(["simulate", str(path), "--csv", str(csv_path)], PYTHONIOENCODING="utf-8", **env)
        for proc in (validate, export, simulate):
            assert (proc.returncode, proc.stderr) == (0, b"")
        runs[name] = (validate.stdout, export.stdout, simulate.stdout, csv_path.read_bytes())
    assert runs["ascii"] == runs["utf-8"]
    assert "M=größer,N=up" in runs["ascii"][3].decode("utf-8")


@pytest.mark.parametrize("command", ["validate", "simulate"])
@pytest.mark.parametrize(
    "field, value, refused",
    [
        ("detector", "A=B,C", "detector name 'A=B,C'"),
        ("outcome", "o,0", "outcome label 'o,0'"),
        ("ready_label", " r", "ready label ' r'"),
        ("ready_label", "", "ready label ''"),
    ],
    ids=["separators-in-name", "comma-in-outcome", "padded-ready-label", "empty-ready-label"],
)
def test_a_label_a_query_cannot_carry_is_one_validation_line(tmp_path, capsys, command, field, value, refused):
    data = json.loads(write_scenario(tmp_path).read_text())
    (data["events"][0]["kraus"][0] if field == "outcome" else data["events"][0])[field] = value
    path = tmp_path / "labels.json"
    path.write_text(json.dumps(data))
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"{path}: events[0]: {refused} must be non-empty printable text without leading or "
                            f"trailing whitespace or any of = , | @\n")


@pytest.mark.parametrize("body", ["table", "full"])
def test_full_table_has_one_query_spelling(tmp_path, capsys, body):
    assert main(["simulate", str(write_scenario(tmp_path)), "--query", f"{body}@t=3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"query '{body}@t=3': assignment entry '{body}' is not of the form detector=outcome\n"
