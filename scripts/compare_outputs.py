#!/usr/bin/env python3
"""Run one fixed command corpus under a git revision and under the working tree; print what differs.

    python3 scripts/compare_outputs.py REV

It runs from a source checkout, with no install: the working tree's ``src/`` goes first on
``sys.path``.  REV's ``src/`` is exported with ``git archive`` into a temporary directory,
so the repository's own ``.git`` is left as it was.  The inputs come from the working tree:
``tests/data/*.json``, ``examples/*.json`` and the files ``generated()`` writes with the
working tree's samplers and canonical form (a query-shape variant of
``two_factor_wigner.json``, a 12-detector qubit chain, seeded sampler files and refusal
inputs), so both sides read the same files.  Each command runs as ``python -m
qtimeline.cli`` in a fresh directory per side, and its stdout, stderr, exit code and
every file it writes there are compared.  Each command that differs is printed with the
parts that differ; the exit code is 1 if any differs, else 0.
"""

import argparse
import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))  # the working tree's package, installed or not

from qtimeline.sampling import random_record_scenario, random_scenario, random_wide_scenario
from qtimeline.scenario import scenario_to_data
ASCII = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}  # stdout cannot encode a non-ASCII label
TWO = "tests/data/two_factor_wigner.json"
FR_CHAIN = ("Fbar=t|F=up@t=2.5", "F=up|Wbar=yes@t=3.5", "Fbar=t|F=up@t=3.5", "W=no|Fbar=t@t=5", "Wbar=yes@t=5")
SCALAR_QUERIES = ("D1=o1,D2=o2,D3=o0@t=4", "D2=o1@t=2.5", "D2=o0|D1=o2@t=2.5", "D3=o2|D1=r@t=4", "D3=o0@t=2.5")
PAIRS = (  # (a, b, alpha, beta): the default pair, a complex one, and a basis pair whose conditionals are undefined
    ("0.7071067811865476", "0.7071067811865476", "1", "0"),
    ("0.6", "0,0.8", "0.8", "0,0.6"),
    ("1", "0", "0.8", "0.6"),
    # near-unit pairs (norm about 1 + 6.4e-13): every grid defined; W=no null once Wigner has measured (exit 1)
    ("0.6", "0.8", "0.707106781187", "0.707106781187"),
    ("0.707106781187", "0.707106781187", "0.707106781187", "0.707106781187"),
)


def _pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def qubit_chain(n: int) -> dict:
    """A qubit S in (0.6, 0.8) under H = X, measured in its basis at t = 1 .. n by detectors D1 .. Dn."""
    def matrix(rows):
        return [[_pair(complex(v)) for v in row] for row in rows]

    kraus = [{"outcome": "up", "matrix": matrix([[1, 0], [0, 0]])},
             {"outcome": "down", "matrix": matrix([[0, 0], [0, 1]])}]
    return {
        "system": {"factors": [["S", 2]], "state": [_pair(0.6), _pair(0.8)],
                   "hamiltonian": matrix([[0, 1], [1, 0]]), "t0": 0.0},
        "events": [{"time": float(k), "detector": f"D{k}", "targets": ["S"], "kraus": kraus} for k in range(1, n + 1)],
        "queries": [{"t": n + 1.0, "full_table": True}],
    }


def query_shapes() -> dict:
    """``two_factor_wigner.json`` with file-only query shapes: an empty given, an empty target, both empty."""
    data = json.loads((ROOT / TWO).read_text(encoding="utf-8"))
    data["queries"] = [
        {"t": 2.5, "target": {"D1": "o0"}, "given": {}},
        {"t": 2.5, "target": {}, "given": {"D1": "o0"}},
        {"t": 2.5, "target": {}, "given": {}},
        {"t": 3.7, "target": {"D3": "o2", "D1": "o1"}, "given": {"D2": "o0"}},
        {"t": 3.7, "assignment": {"D3": "o0", "D2": "o1", "D1": "o2"}},
        {"t": 1.5, "assignment": {"D2": "r", "D1": "o1"}},
    ]
    return data


def sampled(sampler, seed: int, t0: bool) -> dict:
    """A seeded sampler draw with a full table in every segment, a marginal and a conditional; no t0 unless ``t0``."""
    scenario = sampler(np.random.default_rng(seed))
    data = scenario_to_data(scenario)
    if not t0:
        del data["system"]["t0"]
    times, events = scenario.schedule.times, scenario.schedule.events
    (_, first), (_, last), end = events[0], events[-1], times[-1] + 0.5
    target = {last.detector_label: last.kraus.outcome_labels[0]}
    given = {first.detector_label: first.kraus.outcome_labels[-1]} if len(events) > 1 else {}
    data["queries"] = [*({"t": t, "full_table": True} for t in (*(t - 0.5 for t in times), end)),
                       {"t": end, "assignment": target}, {"t": end, "target": target, "given": given}]
    return data


def refusals() -> dict[str, bytes]:
    """Inputs some file command refuses, by name: the bytes of each.  Most are edits of a one-detector chain; only
    ``simulate`` refuses the anchor-norm file and the 1e308 entry, whose phase over t0 = 0 -> 2 is not finite."""
    def edited(*edits) -> bytes:
        data = qubit_chain(1)
        for *keys, key, value in edits:
            part = data
            for k in keys:
                part = part[k]
            part[key] = value
        return json.dumps(data).encode()

    s = (1 + 2e-11) ** 0.5  # complete to 2e-11, within TOL_PREDICATE, but the anchor's norm is 1 + 1e-11
    anchor_norm = {  # ROADMAP item 9: a qubit in |0>, H = 0, one detector whose one outcome is s I
        "system": {"factors": [["S", 2]], "state": [_pair(1), _pair(0)], "hamiltonian": [[_pair(0)] * 2] * 2},
        "events": [{"time": 1.0, "detector": "D", "targets": ["S"],
                    "kraus": [{"outcome": "seen", "matrix": [[_pair(s), _pair(0)], [_pair(0), _pair(s)]]}]}],
    }
    return {
        "not_json.json": b"{not json",
        "not_utf8.json": b"\xff",
        "top_level_list.json": json.dumps([qubit_chain(1)]).encode(),
        "dim_true.json": edited(("system", "factors", [["S", True]])),
        "dim_float.json": edited(("system", "factors", [["S", 2.0]])),
        "repeated_factor.json": edited(("system", "factors", [["S", 2], ["S", 1]])),
        "detector_named_S.json": edited(("events", 0, "detector", "S")),
        "label_with_equals.json": edited(("events", 0, "kraus", 0, "outcome", "u=p")),
        "unknown_target.json": edited(("events", 0, "targets", ["X"])),
        "hamiltonian_1e308.json": edited(("system", "hamiltonian", 0, 0, [1e308, 0.0]), ("events", 0, "time", 2.0)),
        "anchor_norm.json": json.dumps(anchor_norm).encode(),
    }


def generated() -> dict[str, bytes]:
    """Every input written here, by its path among the inputs: its bytes, the same on every call."""
    files = {"tests/data/query_shapes.json": json.dumps(query_shapes()).encode(),
             "chain12.json": json.dumps(qubit_chain(12)).encode()}
    for sampler in (random_scenario, random_wide_scenario, random_record_scenario):
        for seed in (0, 1):
            for t0 in (True, False):
                name = f"samples/{sampler.__name__}-{seed}{'' if t0 else '-no-t0'}.json"
                files[name] = json.dumps(sampled(sampler, seed, t0)).encode()
    files.update((f"refusals/{name}", data) for name, data in refusals().items())
    return files


def corpus() -> list[tuple[dict, list[str]]]:
    """(extra environment, ``qtimeline`` arguments) per command; written files land in the working directory."""
    commands = [  # the CI "Console script" lines
        ({}, ["wigner"]),
        ({}, ["wigner", "--t", "1.5"]),
        ({}, ["wigner", "--t", "inf"]),
        ({}, ["wigner", "--a", "0.6", "--b", "0.8", "--alpha", "0.8", "--beta", "0.6", "--csv", "wigner.csv"]),
        ({}, ["simulate", TWO]),
        ({}, ["simulate", TWO, *(arg for spec in SCALAR_QUERIES for arg in ("--query", spec))]),
        ({}, ["simulate", TWO, "--query", "D2=o0|D3=o1@t=2.5"]),  # a null given: exit 1
        ({}, ["validate", "tests/data/unit_norm_edge.json"]),
        ({}, ["simulate", "tests/data/unit_norm_edge.json"]),
        (ASCII, ["simulate", "tests/data/non_ascii_label.json"]),
        ({}, ["simulate", "examples/frauchiger_renner.json"]),
        ({}, ["simulate", "examples/frauchiger_renner.json", *(arg for spec in FR_CHAIN for arg in ("--query", spec))]),
    ]
    files = generated()
    committed = (*ROOT.glob("tests/data/*.json"), *ROOT.glob("examples/*.json"))
    names = sorted([*(str(p.relative_to(ROOT)) for p in committed), *(n for n in files if n.startswith("tests/data/"))])
    for path in names:
        commands += [({}, ["simulate", path]), ({}, ["simulate", path, "--csv", "out.csv"]), ({}, ["validate", path]),
                     ({}, ["export", path]), ({}, ["export", path, "--out", "out.json"])]
    specs = ("D3=o1,D1=o0@t=3.7", "D3=o1|D1=o0@t=inf", "D3=o1,D1=o2|D2=o0@t=3.7", "D1=o0,D2=o1,D3=r@t=2.5",
             "D1=o0|@t=2.5", "D2=o0|D1=o0@t=0.5", "D1=zz@t=2.5", "X=o0@t=2.5", "full-table@t=1.5")
    commands += [({}, ["simulate", TWO, "--query", spec, "--csv", "out.csv"]) for spec in specs]
    commands.append(({}, ["simulate", TWO, *(arg for spec in specs[:4] for arg in ("--query", spec))]))
    for a, b, alpha, beta in PAIRS:
        for t in ("0.5", "1.5", "3", "inf"):
            flags = ["--a", a, "--b", b, "--alpha", alpha, "--beta", beta, "--t", t]
            commands.append(({}, ["wigner", *flags, "--csv", "out.csv"]))
    commands += [
        ({}, ["wigner", "--t=-inf"]),
        ({}, ["wigner", "--a", "1e200", "--b", "1e200", "--alpha", "3e200", "--beta", "4e200", "--csv", "out.csv"]),
        ({}, ["wigner", "--a", "1", "--b", "0", "--alpha", "1", "--beta", "0"]),  # a null conditional: exit 1
        (ASCII, ["simulate", "tests/data/non_ascii_label.json", "--query", "full-table@t=3", "--csv", "out.csv"]),
        ({}, ["simulate", TWO, "--csv", "missing/out.csv"]),
        ({}, ["wigner", "--csv", "missing/out.csv"]),
        ({}, ["simulate", "chain12.json"]),
        ({}, ["simulate", "chain12.json", "--query", "full-table@t=13", "--csv", "out.csv"]),
    ]
    for name in files:
        if name.startswith(("samples/", "refusals/")):
            commands += [({}, [command, name]) for command in ("validate", "export", "simulate")]
    return commands


def run(src: Path, inputs: Path, workdir: Path, extra_env: dict, args: list[str]) -> tuple:
    """Run one command against ``src`` in an empty ``workdir`` that links to the inputs."""
    workdir.mkdir(parents=True)
    for entry in inputs.iterdir():
        (workdir / entry.name).symlink_to(entry)
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1", **extra_env}
    done = subprocess.run([sys.executable, "-m", "qtimeline.cli", *args], cwd=workdir, env=env, capture_output=True)
    written = {p.name: p.read_bytes() for p in sorted(workdir.iterdir()) if not p.is_symlink()}
    return done.stdout, done.stderr, done.returncode, written


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("rev", help="the git revision to compare the working tree against, e.g. HEAD~1")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory(prefix="compare_outputs.") as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(["git", "archive", "--format=tar", args.rev, "src"], cwd=ROOT, capture_output=True)
        if archive.returncode:
            print(archive.stderr.decode(errors="replace").strip(), file=sys.stderr)
            return 2
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp / "rev", **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
        inputs = tmp / "inputs"
        for name in ("tests/data", "examples"):
            shutil.copytree(ROOT / name, inputs / name)
        for name, data in generated().items():
            (inputs / name).parent.mkdir(parents=True, exist_ok=True)
            (inputs / name).write_bytes(data)

        commands = corpus()
        sides = (("rev", tmp / "rev" / "src"), ("tree", ROOT / "src"))
        differ = 0
        with ThreadPoolExecutor(len(sides)) as pool:
            for n, (extra_env, argv) in enumerate(commands):
                before, after = pool.map(
                    lambda side: run(side[1], inputs, tmp / side[0] / "runs" / str(n), extra_env, argv), sides)
                parts = [part for part, x, y in zip(("stdout", "stderr", "exit code", "written files"), before, after)
                         if x != y]
                if parts:
                    differ += 1
                    env = "".join(f"{k}={v} " for k, v in extra_env.items())
                    print(f"{env}qtimeline {' '.join(argv)}: {', '.join(parts)} differ")
    print(f"{len(commands)} commands, {differ} differ from {args.rev}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
