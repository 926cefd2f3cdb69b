"""The benchmark's workloads.

Each workload object does its set-up in ``__init__`` (imports, inputs,
warm-up) and then yields whole rounds of operations from ``round()``.  Every
operation is checked against a reference from ``refs.py``, against
``qtimeline.oracle``, or against a property the method must have; an
operation whose check fails is reported as failed.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import drift
import gen
import refs

HERE = Path(__file__).resolve().parent

TOL_CLOSED = 1e-12  # closed-form Wigner grids and exact identities
TOL_CHAIN = 1e-10  # sequential Born chain and oracle
TOL_CSV = 1e-10  # CSV values carry 12 significant digits
TOL_TOTAL = 1e-10  # rows and conditional rows sum to one


@dataclass(frozen=True)
class Op:
    seconds: float | None  # None: checked but not timed
    problem: str | None  # None: the output passed its checks
    known_fault: bool = False  # fails because of the t=+inf fault in qtimeline


def compare(got: dict, expected: dict, tol: float, what: str) -> str | None:
    if set(got) != set(expected):
        return f"{what}: rows {sorted(got)} != {sorted(expected)}"
    for key, value in expected.items():
        if not math.isfinite(got[key]) or abs(got[key] - value) > tol:
            return f"{what} {key}: {got[key]!r} vs {value!r} (tol {tol:g})"
    return None


def mass(rows: dict, detectors, assignment) -> float:
    """Sum of the table rows (keyed in ``detectors`` order) that agree with ``assignment``."""
    positions = {d: detectors.index(d) for d in assignment}
    return sum(v for key, v in rows.items() if all(key[positions[d]] == label for d, label in assignment.items()))


def check_total(rows: dict, what: str) -> str | None:
    values = list(rows.values())
    if not all(math.isfinite(v) for v in values):
        return f"{what}: non-finite rows {values}"
    if abs(sum(values) - 1.0) > TOL_TOTAL:
        return f"{what}: rows sum to {sum(values)!r}"
    return None


# ---------------------------------------------------------------- wigner-grids

WIGNER_GRIDS = ("joint", "marginal_w", "marginal_f", "cond_w_given_f", "cond_f_given_w")
T_M, T_N = 1.0, 2.0  # qtimeline.wigner.WignerScenario defaults


def wigner_expected(params, t: float) -> dict:
    """The five grids at ``t``: closed form after t_n, ready-label rows before."""
    a, b, _, _ = params
    if t >= T_N:
        return refs.wigner_grids(*params)
    r = gen.READY
    if t >= T_M:
        p_f = {refs.UP: abs(a) ** 2, refs.DOWN: abs(b) ** 2}
        return {
            "joint": {(f, r): p for f, p in p_f.items()},
            "marginal_w": {(r,): 1.0},
            "marginal_f": {(f,): p for f, p in p_f.items()},
            "cond_w_given_f": {(f, r): 1.0 for f in p_f},
            "cond_f_given_w": {(f, r): p for f, p in p_f.items()},
        }
    return {
        "joint": {(r, r): 1.0},
        "marginal_w": {(r,): 1.0},
        "marginal_f": {(r,): 1.0},
        "cond_w_given_f": {(r, r): 1.0},
        "cond_f_given_w": {(r, r): 1.0},
    }


def check_wigner(grids: dict, params, t: float) -> str | None:
    """``grids`` maps each grid name to its rows {key: value}."""
    for name in ("joint", "marginal_w", "marginal_f"):
        problem = check_total(grids[name], f"t={t} {name}")
        if problem:
            return problem
    for name, given in (("cond_w_given_f", 0), ("cond_f_given_w", 1)):
        by_given: dict[str, dict] = {}
        for key, value in grids[name].items():
            by_given.setdefault(key[given], {})[key] = value
        for label, rows in by_given.items():
            problem = check_total(rows, f"t={t} {name} given {label}")
            if problem:
                return problem
    expected = wigner_expected(params, t)
    for name in WIGNER_GRIDS:
        problem = compare(grids[name], expected[name], TOL_CLOSED, f"t={t} {name}")
        if problem:
            return problem
    return None


class WignerGrids:
    """One ``wigner.tables`` call per operation on fresh amplitudes; the clock
    reading rotates through before t_m, between t_m and t_n, and after t_n."""

    PROBE = drift.KernelProbe

    REGIMES = ((0.05, 0.95), (1.05, 1.95), (2.05, 6.0))

    def __init__(self, seed: int, workdir: Path, tracer=None):
        from qtimeline.wigner import WignerScenario, tables

        self.scenario = WignerScenario
        self.tables = tables
        self.rng = np.random.default_rng([seed, 1])
        for _ in range(10):
            self.round()

    def round(self) -> list[Op]:
        ops = []
        for lo, hi in self.REGIMES:
            params = gen.wigner_params(self.rng)
            t = float(self.rng.uniform(lo, hi))
            start = time.perf_counter()
            result = self.tables(self.scenario(*params), t)
            elapsed = time.perf_counter() - start
            grids = {name: dict(getattr(result, name).rows) for name in WIGNER_GRIDS}
            ops.append(Op(elapsed, check_wigner(grids, params, t)))
        return ops


# --------------------------------------------------------------- ladder-tables

# Oracle rows are computed only where (oracle dimension x rows) stays below
# this: the oracle pads matrices element by element in Python.
ORACLE_BUDGET = 200


class LadderTables:
    """One seeded scenario per round from ``gen.LADDER``; one history serves a
    table in every regime plus a joint, a marginal and a conditional query.
    A second operation per round asks for the table at t=+inf."""

    PROBE = drift.KernelProbe

    def __init__(self, seed: int, workdir: Path, tracer=None):
        from qtimeline import hilbert, instrument, oracle, probability, timeline

        self.hilbert, self.instrument, self.timeline = hilbert, instrument, timeline
        self.oracle = oracle
        self.probability = probability
        self.tracer = tracer
        self.rng = np.random.default_rng([seed, 2])
        self.index = 0
        warm = np.random.default_rng([seed, 3])
        for shape in gen.LADDER[:3]:
            self._round(gen.scenario_spec(warm, *shape), warm)

    @contextlib.contextmanager
    def untraced(self):
        if self.tracer is None:
            yield
            return
        self.tracer.active = False
        try:
            yield
        finally:
            self.tracer.active = True

    def history(self, spec):
        hs, ins, tl = self.hilbert, self.instrument, self.timeline
        layout = hs.SubsystemLayout(tuple(spec["factors"]))
        dims = dict(spec["factors"])
        events = []
        for ev in spec["events"]:
            target = hs.SubsystemLayout(tuple((label, dims[label]) for label in ev["targets"]))
            kraus = ins.KrausSet(
                tuple((label, hs.Operator(target, k)) for label, k in zip(ev["outcomes"], ev["kraus"]))
            )
            det = ins.DetectorModel(ev["detector"], kraus)
            events.append((ev["time"], det))
            dims[ev["detector"]] = det.ancilla_dim
        return tl.build_history(
            hs.StateVector(layout, spec["psi0"]),
            spec["t0"],
            hs.Operator(layout, spec["h"]),
            tl.EventSchedule(tuple(events)),
        )

    def round(self) -> list[Op]:
        shape = gen.LADDER[self.index % len(gen.LADDER)]
        self.index += 1
        return self._round(gen.scenario_spec(self.rng, *shape), self.rng)

    def _round(self, spec, rng) -> list[Op]:
        p = self.probability
        ts = gen.readings(spec, rng)
        detectors = [ev["detector"] for ev in spec["events"]]
        full = {d: str(rng.choice(ev["outcomes"])) for d, ev in zip(detectors, spec["events"])}
        first, last = detectors[0], detectors[-1]
        partial = {first: full[first]}
        target = {last: str(rng.choice(spec["events"][-1]["outcomes"]))}
        try:
            start = time.perf_counter()
            history = self.history(spec)
            tables = {name: p.full_table(history, t) for name, t in ts.items()}
            joint = p.joint(history, p.OutcomeQuery(full, ts["after"]))
            marginal = p.marginal(history, p.OutcomeQuery(partial, ts["mid"]))
            given = {first: self._likeliest(tables["after"], 0)}
            conditional = p.conditional(history, target, given, ts["after"])
            elapsed = time.perf_counter() - start
        except Exception as err:  # reported as a failed operation
            return [Op(None, f"{type(err).__name__}: {err}"), Op(None, "scenario failed", True)]
        with self.untraced():
            rows = {name: dict(table.rows) for name, table in tables.items()}
            problem = self._check(spec, ts, history, rows, (full, joint), (partial, marginal),
                                  (target, given, conditional))
            inf_problem = self._check_inf(history, rows["after"])
        return [Op(elapsed, problem), Op(None, inf_problem, True)]

    @staticmethod
    def _likeliest(table, position: int) -> str:
        weights: dict[str, float] = {}
        for key, value in table.rows:
            weights[key[position]] = weights.get(key[position], 0.0) + value
        return max(weights, key=weights.get)

    def _check_inf(self, history, rows_after) -> str | None:
        try:
            rows = dict(self.probability.full_table(history, math.inf).rows)
        except Exception as err:  # reported as a failed operation
            return f"t=+inf: {type(err).__name__}: {err}"
        return compare(rows, rows_after, TOL_CLOSED, "t=+inf table vs table after the last event")

    def _check(self, spec, ts, history, rows, joint, marginal, conditional) -> str | None:
        for name, table in rows.items():
            problem = check_total(table, f"{name} t={ts[name]}")
            if problem:
                return problem
        problem = compare(rows["after2"], rows["after"], TOL_CLOSED, "two readings in the last segment")
        if problem:
            return problem
        if gen.is_system_only(spec):
            for name in ("before", "mid", "after"):
                problem = compare(rows[name], refs.born_table(spec, ts[name]), TOL_CHAIN, f"born {name}")
                if problem:
                    return problem
        else:
            for name in ("mid", "after"):
                expected = self._oracle_table(spec, history, ts[name])
                if expected is not None:
                    problem = compare(rows[name], expected, TOL_CHAIN, f"oracle {name}")
                    if problem:
                        return problem
        detectors = [ev["detector"] for ev in spec["events"]]
        full, joint_value = joint
        table_joint = mass(rows["after"], detectors, full)
        if abs(joint_value - table_joint) > TOL_CLOSED:
            return f"joint {full}: {joint_value!r} vs table {table_joint!r}"
        partial, marginal_value = marginal
        table_marginal = mass(rows["mid"], detectors, partial)
        if abs(marginal_value - table_marginal) > TOL_CLOSED:
            return f"marginal {partial}: {marginal_value!r} vs table sum {table_marginal!r}"
        target, given, cond_value = conditional
        p_given = mass(rows["after"], detectors, given)
        p_both = mass(rows["after"], detectors, {**target, **given})
        if abs(cond_value * p_given - p_both) > TOL_CHAIN:
            return f"conditional {target}|{given}: {cond_value!r} x {p_given!r} != {p_both!r}"
        return None

    def _oracle_table(self, spec, history, t: float) -> dict | None:
        """Rows at ``t`` from ``qtimeline.oracle``, or None when too large to run."""
        hs = self.hilbert
        fired = [(time_, det) for time_, det in history.schedule.events if time_ <= t]
        spec_fired = spec["events"][: len(fired)]
        targeted = [ev["detector"] for i, ev in enumerate(spec_fired)
                    if any(ev["detector"] in later["targets"] for later in spec_fired[i + 1:])]
        n_out = {ev["detector"]: len(ev["outcomes"]) for ev in spec["events"]}
        sys_dim = int(np.prod([d for _, d in spec["factors"]]))
        oracle_dim = sys_dim * int(np.prod([n_out[d] + 1 for d in targeted]))
        n_rows = int(np.prod([n_out[ev["detector"]] for ev in spec_fired]))
        if oracle_dim * n_rows > ORACLE_BUDGET:
            return None
        w, v = np.linalg.eigh(spec["h"])
        psi = (v * np.exp(-1j * w * (fired[0][0] - spec["t0"]))) @ v.conj().T @ spec["psi0"]
        factors = list(spec["factors"])
        for d in targeted:
            ready = np.zeros(n_out[d] + 1)
            ready[0] = 1.0
            psi = np.kron(psi, ready)
            factors.append((d, n_out[d] + 1))
        state = hs.StateVector(hs.SubsystemLayout(tuple(factors)), psi)
        h = hs.Operator(hs.SubsystemLayout(tuple(spec["factors"])), spec["h"])
        schedule = self.timeline.EventSchedule(tuple(fired))
        pending = (gen.READY,) * (len(spec["events"]) - len(fired))
        rows = {}
        for key in refs.table_keys([ev["outcomes"] for ev in spec_fired]):
            outcomes = dict(zip([ev["detector"] for ev in spec_fired], key))
            rows[key + pending] = self.oracle.sequential_born(state, h, schedule, outcomes)
        return rows


# ------------------------------------------------------------------------- cli

CLI_SHAPES = (((2,), (2, 2)), ((3,), (2, 3, 2)), ((2, 2), (2, 2, 2)))


def _fmt_t(t: float) -> str:
    return f"{t:g}"


def _assignment(detectors, key) -> str:
    return ",".join(f"{d}={label}" for d, label in zip(detectors, key))


def read_csv(path: Path) -> list[tuple[str, str, str, float]]:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    if rows[:1] != [["t", "assignment", "kind", "value"]]:
        raise ValueError(f"unexpected CSV header {rows[:1]}")
    return [(t, a, kind, float(v)) for t, a, kind, v in rows[1:]]


def check_csv(got, expected) -> str | None:
    """``expected`` lists (t string, assignment, kind, value) in output order."""
    if len(got) != len(expected):
        return f"CSV has {len(got)} rows, expected {len(expected)}"
    for g, e in zip(got, expected):
        value = min(max(e[3], 0.0), 1.0)
        if g[:3] != e[:3] or abs(g[3] - value) > TOL_CSV:
            return f"CSV row {g} vs expected {e[:3] + (value,)}"
    return None


class CliCommands:
    """A closed loop of fresh ``python -m qtimeline.cli`` processes, each timed
    from spawn to exit.  A round runs ``wigner --csv``, ``simulate`` with the
    file's queries, ``simulate --query``, ``validate`` and ``export`` twice."""

    PROBE = drift.SpawnProbe

    def __init__(self, seed: int, workdir: Path, tracer=None):
        self.rng = np.random.default_rng([seed, 4])
        self.dir = workdir
        self.traced = tracer is not None
        self.span_files: list[Path] = []
        self.index = 0
        _, proc = self.run(["wigner", "--csv", str(self.dir / "warm.csv")])
        if proc.returncode != 0:
            raise RuntimeError(f"warm-up command failed: {proc.stderr}")
        self.span_files.clear()

    def run(self, args):
        if self.traced:
            spans = self.dir / f"spans-{len(self.span_files)}.npz"
            self.span_files.append(spans)
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans), *args]
        else:
            cmd = [sys.executable, "-m", "qtimeline.cli", *args]
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        return time.perf_counter() - start, proc

    def command(self, args, check) -> Op:
        elapsed, proc = self.run(args)
        if proc.returncode != 0:
            return Op(elapsed, f"{args[0]} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
        try:
            return Op(elapsed, check(proc))
        except (OSError, ValueError, KeyError) as err:
            return Op(elapsed, f"{args[0]}: {type(err).__name__}: {err}")

    def round(self) -> list[Op]:
        n = self.index
        self.index += 1
        return [self._wigner(self.rng, n), *self._scenario_commands(self.rng, n)]

    def _wigner(self, rng, n) -> Op:
        params = gen.wigner_params(rng)
        t = round(float(rng.uniform(2.05, 6.0)), 4)
        out = self.dir / f"wigner-{n}.csv"
        flags = [f"--{name}={z.real!r},{z.imag!r}" for name, z in zip(("a", "b", "alpha", "beta"), params)]
        grids = refs.wigner_grids(*params)
        f, w = "F", "W"
        expected = []
        for (fl, wl), v in grids["joint"].items():
            expected.append((_fmt_t(t), f"{f}={fl},{w}={wl}", "joint", v))
        for (wl,), v in grids["marginal_w"].items():
            expected.append((_fmt_t(t), f"{w}={wl}", "marginal", v))
        for (fl,), v in grids["marginal_f"].items():
            expected.append((_fmt_t(t), f"{f}={fl}", "marginal", v))
        for (fl, wl), v in grids["cond_w_given_f"].items():
            expected.append((_fmt_t(t), f"{w}={wl}|{f}={fl}", "conditional", v))
        for (fl, wl), v in grids["cond_f_given_w"].items():
            expected.append((_fmt_t(t), f"{f}={fl}|{w}={wl}", "conditional", v))
        return self.command(
            ["wigner", *flags, "--t", repr(t), "--csv", str(out)],
            lambda proc: check_csv(read_csv(out), expected),
        )

    def _scenario_commands(self, rng, n) -> list[Op]:
        shape = CLI_SHAPES[n % len(CLI_SHAPES)]
        spec = gen.scenario_spec(rng, *shape)
        ts = {k: round(v, 4) for k, v in gen.readings(spec, rng).items()}
        detectors = [ev["detector"] for ev in spec["events"]]
        first, last = detectors[0], detectors[-1]
        after = refs.born_table(spec, ts["after"])
        mid = refs.born_table(spec, ts["mid"])
        full = {d: str(rng.choice(ev["outcomes"])) for d, ev in zip(detectors, spec["events"])}
        partial = {first: full[first]}
        first_labels = spec["events"][0]["outcomes"]
        given = {first: max(first_labels, key=lambda label: mass(after, detectors, {first: label}))}
        target = {last: str(rng.choice(spec["events"][-1]["outcomes"]))}
        cond = mass(after, detectors, {**target, **given}) / mass(after, detectors, given)

        def table_rows(t, table):
            return [(_fmt_t(t), _assignment(detectors, key), "joint", table[key])
                    for key in refs.table_keys(gen.labels_at(spec, t))]

        def cond_text():
            return f"{last}={target[last]}|{first}={given[first]}"

        queries = [
            {"t": ts["after"], "full_table": True},
            {"t": ts["mid"], "assignment": partial},
            {"t": ts["after"], "target": target, "given": given},
            {"t": ts["after"], "assignment": full},
        ]
        own_expected = [
            *table_rows(ts["after"], after),
            (_fmt_t(ts["mid"]), _assignment([first], [partial[first]]), "marginal", mass(mid, detectors, partial)),
            (_fmt_t(ts["after"]), cond_text(), "conditional", cond),
            (_fmt_t(ts["after"]), _assignment(detectors, [full[d] for d in detectors]), "joint",
             mass(after, detectors, full)),
        ]
        pair = {first: full[first], last: full[last]}
        pair_kind = "joint" if len(detectors) == 2 else "marginal"
        query_strings = [
            f"{first}={full[first]},{last}={full[last]}@t={ts['after']!r}",
            f"{cond_text()}@t={ts['after']!r}",
            f"full-table@t={ts['mid']!r}",
        ]
        query_expected = [
            (_fmt_t(ts["after"]), f"{first}={full[first]},{last}={full[last]}", pair_kind,
             mass(after, detectors, pair)),
            (_fmt_t(ts["after"]), cond_text(), "conditional", cond),
            *table_rows(ts["mid"], mid),
        ]

        data = gen.scenario_json(spec, queries)
        path = self.dir / f"scenario-{n}.json"
        path.write_text(json.dumps(data))
        own_csv = self.dir / f"own-{n}.csv"
        query_csv = self.dir / f"query-{n}.csv"
        export1 = self.dir / f"export-{n}.json"
        export2 = self.dir / f"export-{n}-again.json"
        query_args = [arg for q in query_strings for arg in ("--query", q)]

        def check_export(proc):
            first_bytes, second_bytes = export1.read_bytes(), export2.read_bytes()
            if first_bytes != second_bytes:
                return "export of the exported file differs"
            return check_reparse(json.loads(first_bytes), data)

        return [
            self.command(["simulate", str(path), "--csv", str(own_csv)],
                         lambda proc: check_csv(read_csv(own_csv), own_expected)),
            self.command(["simulate", str(path), *query_args, "--csv", str(query_csv)],
                         lambda proc: check_csv(read_csv(query_csv), query_expected)),
            self.command(["validate", str(path)],
                         lambda proc: None if ": ok (" in proc.stdout else f"validate printed {proc.stdout!r}"),
            self.command(["export", str(path), "--out", str(export1)],
                         lambda proc: check_reparse(json.loads(export1.read_text()), data)),
            self.command(["export", str(export1), "--out", str(export2)], check_export),
        ]


def check_reparse(exported: dict, original: dict) -> str | None:
    """The exported file carries the same numbers as the file it came from."""
    pairs = [
        ("system.state", exported["system"]["state"], original["system"]["state"]),
        ("system.hamiltonian", exported["system"]["hamiltonian"], original["system"]["hamiltonian"]),
        ("system.t0", exported["system"]["t0"], original["system"]["t0"]),
        ("queries", exported["queries"], original["queries"]),
    ]
    for i, (ev_out, ev_in) in enumerate(zip(exported["events"], original["events"])):
        for key in ("time", "detector", "targets", "kraus"):
            pairs.append((f"events[{i}].{key}", ev_out[key], ev_in[key]))
    if len(exported["events"]) != len(original["events"]):
        return "exported file has a different number of events"
    for what, got, want in pairs:
        if got != want:
            return f"exported {what} differs"
    return None


WORKLOADS = {"wigner-grids": WignerGrids, "ladder-tables": LadderTables, "cli": CliCommands}
