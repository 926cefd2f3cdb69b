"""One workload in one fresh process: set up, say READY, run whole rounds.

Usage (normally started by run.py, which sets PYTHONPATH and thread counts):

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

Prints READY once set-up is done, then, unless --setup-only, runs whole
rounds until S seconds have passed since READY and prints one JSON line with
the counts and this process's metrics.  Between rounds it times the
workload's speed probe from drift.py, once per ``every_s`` of the run, and
reports each timing at the probe's reference speed, scaled by the probe calls
nearest to it; the raw timings and probe times go to perfbench/out/ with the
rest of the raw results.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"

# Layers whose calls every workload run must record: the workload calls them
# directly, or every implementation of its calls runs them.  Zero calls here
# means the tracer missed a rebinding, and the traced run fails.
EXPECTED = {
    "wigner-grids": ("wigner.tables", "wigner.build", "timeline.build_history", "instrument.apply_instrument",
                     "probability.full_table"),
    "ladder-tables": ("timeline.build_history", "instrument.apply_instrument", "probability.full_table",
                      "probability.joint", "probability.marginal", "probability.conditional"),
    "cli": ("cli.main", "scenario.load_scenario", "scenario.dump_scenario", "scenario.parse_query_string",
            "timeline.build_history", "probability.full_table", "wigner.tables"),
}

SELF_MS = (
    "scenario.load_scenario", "scenario.dump_scenario", "scenario.parse_query_string", "cli.main",
    "timeline.build_history", "instrument.apply_instrument", "hilbert.apply_on", "timeline.state_at",
    "probability.conditional", "probability.marginal", "probability.joint", "probability.full_table",
    "wigner.tables", "wigner.build", "hilbert.project_outcome",
)
CALLS = (
    "timeline.build_history", "instrument.validate", "hilbert.apply_on", "timeline.state_at",
    "probability.conditional", "hilbert.project_outcome",
)


def layer_metrics(workload: str, summary: dict, n_ops: int) -> dict:
    def entry(name):
        return summary.get(name, {"calls": 0, "self_ns": 0, "extra": 0.0})

    missing = [name for name in EXPECTED[workload] if entry(name)["calls"] == 0]
    if missing:
        raise RuntimeError(f"traced run recorded no calls of {missing}")
    metrics = {}
    for name in SELF_MS:
        metrics[f"{name}.self_ms"] = {"value": entry(name)["self_ns"] / 1e6 / n_ops, "unit": "ms"}
    for name in CALLS:
        metrics[f"{name}.calls"] = {"value": entry(name)["calls"] / n_ops, "unit": "count"}
    metrics["hilbert.project_outcome.bytes_in"] = {
        "value": entry("hilbert.project_outcome")["extra"] / n_ops, "unit": "B-computed"}
    table = entry("probability.full_table")
    metrics["probability.rows_per_projection"] = {
        "value": table["extra"] / max(table.get("projections", 0), 1), "unit": "rows/call"}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import drift
    import tracer as tracing
    import workloads

    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None and args.workload != "cli":  # cli commands trace themselves
        tracer.install()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir, tracer)
        if tracer is not None:
            tracer.reset()
        print("READY", flush=True)
        if args.setup_only:
            return 0

        probe = workload.PROBE()
        probes: list[float] = []
        latencies: list[float] = []
        positions: list[int] = []  # probe calls made before each timed operation's round
        attempted = failed = 0
        unexpected: list[str] = []
        known: list[str] = []
        started = time.perf_counter()
        deadline = started + args.seconds
        while time.perf_counter() < deadline:
            for op in workload.round():
                attempted += 1
                if op.seconds is not None:
                    latencies.append(op.seconds)
                    positions.append(len(probes))
                if op.problem is not None:
                    failed += 1
                    (known if op.known_fault else unexpected).append(op.problem)
            while len(probes) * probe.every_s <= time.perf_counter() - started:
                probes.append(probe())

        scaled = drift.scaled(probe, probes, latencies, positions)
        if args.workload == "cli":
            peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        else:
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result = {
            "correct": not unexpected,
            "attempted": attempted,
            "failed": failed,
            "problems": unexpected[:5],
            "known_faults": known[:1],
            "timed_ops": len(latencies),
            "probe": type(probe).__name__,
            "probe_ms": statistics.median(probes) * 1e3,
            "speed_scale": drift.speed_scale(probe, probes),
        }
        if args.trace:
            if args.workload == "cli":
                traces = [tracing.load_trace(path) for path in workload.span_files]
            else:
                tracer.active = False
                tracer.dump(OUT / f"{args.workload}-seed{args.seed}-spans.npz")
                traces = [(tracer.spans, tracer.names, tracer.extras)]
            summary = tracing.summarize(traces)
            metrics = layer_metrics(args.workload, summary, len(latencies))
            module = "qtimeline.cli" if args.workload == "cli" else "qtimeline"
            for key, value in tracing.import_times(sys.executable, module, None).items():
                metrics[f"import.{key}"] = {"value": value, "unit": "count" if key == "modules" else "ms"}
            metrics["trace.ops_per_s"] = {"value": len(scaled) / sum(scaled), "unit": "1/s"}
        else:
            metrics = {
                "ops_per_s": {"value": len(scaled) / sum(scaled), "unit": "1/s"},
                "latency_p50_ms": {"value": statistics.median(scaled) * 1e3, "unit": "ms"},
                "latency_p90_ms": {"value": statistics.quantiles(scaled, n=10)[8] * 1e3, "unit": "ms"},
                "peak_rss_mb": {"value": peak_kib / 1024.0, "unit": "MiB"},
            }
        result["metrics"] = metrics
        raw = dict(result, latencies_s=latencies, probes_s=probes, probe_positions=positions,
                   layer_summary=summary if args.trace else None)
        (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(raw))
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
