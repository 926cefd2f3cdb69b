"""The machine-speed probes, and a measurement of how the machine's speed drifts.

The host this benchmark runs on changes speed by up to about 1.5 times, in
phases of seconds and states of minutes, while process CPU time stays equal
to wall time.  No clock inside the sandbox can subtract that, so every worker
also times a probe, fixed work of the benchmark's own, at regular moments of
its run, and reports its timings at the speed at which the probe takes its
``reference_s`` (see ``scaled``).  A probe runs none of qtimeline's code,
so a change to qtimeline does not move it.  Each workload uses the probe
whose work is most like its operations:

* ``KernelProbe``: the plain-numpy sequential Born chain of ``refs.py`` on
  one fixed scenario, in the worker process: small numpy calls driven from
  Python, like qtimeline's in-process operations.
* ``SpawnProbe``: a fresh interpreter that imports numpy and exits, like the
  start-up that is most of every ``qtimeline`` command.

Usage: python3 perfbench/drift.py [SECONDS] [kernel|spawn]   (default 60 kernel)

Prints one JSON list with the median probe time (ms) of each one-second
window, then min, median and max.  Run it alone; anything else running at
the same time shows up as drift.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time

import numpy as np

import gen
import refs


class KernelProbe:
    """Times one call of the fixed kernel; its inputs never depend on --seed."""

    every_s = 0.05  # one call (about 1.7 ms) per 50 ms of a run
    # Median call time on the reference machine (2 vCPU Intel Xeon at 2.1 GHz,
    # Python 3.11.7, numpy 2.4.6), over 6 735 calls interleaved with
    # ladder-tables operations.
    reference_s = 1.668e-3

    def __init__(self):
        rng = np.random.default_rng(12345)
        self.spec = gen.scenario_spec(rng, (2,), (2,) * 5)
        self.t = gen.readings(self.spec, rng)["after"]
        self.expected = refs.born_table(self.spec, self.t)

    def __call__(self) -> float:
        start = time.perf_counter()
        rows = refs.born_table(self.spec, self.t)
        elapsed = time.perf_counter() - start
        if rows != self.expected:
            raise RuntimeError("kernel probe gave a different table")
        return elapsed


class SpawnProbe:
    """Times one fresh interpreter, with the caller's environment, importing numpy."""

    every_s = 1.5  # about two calls (about 165 ms each) per round of six cli commands
    # Median on the reference machine over 166 calls between cli rounds.
    reference_s = 0.165

    def __call__(self) -> float:
        # Output captured as for the cli commands: without pipes, a wait with a
        # timeout polls the child at up to 50 ms intervals, and the times come
        # out in 50 ms steps.
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy"], capture_output=True, check=True, timeout=60)
        return time.perf_counter() - start


PROBES = {"kernel": KernelProbe, "spawn": SpawnProbe}


# Probe calls on each side of an operation whose median sets its scale.  The
# host's speed changes within a second: over 8 minutes of ladder-tables
# operations, scaling each by the nearest few probe calls left the 40 s
# window medians a coefficient of variation of 1.2-1.8 %, against 2.7 % with
# one probe median per window and 6.4 % unscaled.
NEIGHBOURS = 3


def speed_scale(probe, seconds: list[float]) -> float:
    """Factor that turns a duration measured alongside these probe times into
    one at the reference speed; dividing a rate by it does the same for rates."""
    return probe.reference_s / statistics.median(seconds)


def scaled(probe, probe_seconds: list[float], durations: list[float], positions: list[int]) -> list[float]:
    """Each duration at the reference speed, by the probe calls nearest to it.

    ``positions[i]`` is the number of probe calls made before the round that
    timed ``durations[i]``; its scale comes from up to NEIGHBOURS calls before
    that round and as many after it.
    """
    return [
        d * speed_scale(probe, probe_seconds[max(0, pos - NEIGHBOURS):pos + NEIGHBOURS])
        for d, pos in zip(durations, positions)
    ]


def main() -> int:
    seconds = float(sys.argv[1]) if len(sys.argv) > 1 else 60.0
    probe = PROBES[sys.argv[2] if len(sys.argv) > 2 else "kernel"]()
    windows = []
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        start = time.perf_counter()
        times = []
        while time.perf_counter() - start < 1.0:
            times.append(probe())
        windows.append(round(statistics.median(times) * 1e3, 4))
    print(json.dumps(windows))
    print(f"min {min(windows)}  median {statistics.median(windows)}  max {max(windows)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
