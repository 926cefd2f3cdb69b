"""Benchmark for qtimeline: one workload per invocation, in fresh processes.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload {wigner-grids,ladder-tables,cli} \
        --seed N --seconds S --trace {0,1}

The workload runs in its own worker process (perfbench/worker.py), with
PYTHONPATH set to the checkout's src/ and BLAS/OpenMP threads fixed at one.
With --trace 0 the last line of output is the end-to-end result:
ops_per_s, latency_p50_ms, latency_p90_ms, peak_rss_mb from the worker, and
setup_s, the median time from spawning a worker to its READY line over
SETUP_SAMPLES fresh workers.  Timings are stated at the reference speed of
the workload's probe in drift.py; setup_s is scaled by the median of the
probe times the last worker took during its run.  With --trace 1 the last
line holds the per-layer metrics of a traced run instead.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("wigner-grids", "ladder-tables", "cli")
SETUP_SAMPLES = 4  # fresh workers timed to READY; the last one also runs the workload
SLACK_S = 120  # allowed beyond --seconds for set-up, the last round and checks


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def start_worker(args, setup_only: bool):
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, env=worker_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True)
    return proc, started


def wait_ready(proc, started: float) -> float:
    line = proc.stdout.readline()
    if line.strip() != "READY":
        raise RuntimeError(f"worker did not become ready (got {line!r})")
    return time.perf_counter() - started


def finish(proc, timeout: float) -> str:
    try:
        out, _ = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qtimeline" / "__init__.py").is_file():
        print(f"no qtimeline sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2

    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            proc, started = start_worker(args, setup_only=True)
            try:
                setups.append(wait_ready(proc, started))
            finally:
                finish(proc, SLACK_S)
    proc, started = start_worker(args, setup_only=False)
    try:
        setups.append(wait_ready(proc, started))
    except RuntimeError:
        finish(proc, SLACK_S)
        raise
    out = finish(proc, args.seconds + SLACK_S)
    result = json.loads(out.strip().splitlines()[-1])
    for problem in result.get("problems", []) + result.get("known_faults", []):
        print(f"{args.workload}: {problem}", file=sys.stderr)
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups) * result["speed_scale"], "unit": "s"}
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
