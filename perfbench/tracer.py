"""Spans around qtimeline's public functions, installed from outside the package.

``Tracer.install`` wraps every public function defined in the pipeline
modules and rebinds the wrapper under every name in every loaded qtimeline
module that refers to the original (``wigner.build_history``,
``probability.project_outcome``, ...), so calls between modules are seen too.
The package source is not touched.  Each call records one span
(name, start ns, end ns, parent span) in a flat in-memory array; per-layer
figures are derived from the spans afterwards.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import subprocess
import sys
import time
from array import array

import numpy as np

PIPELINE_MODULES = ("hilbert", "instrument", "timeline", "probability", "wigner", "scenario", "cli")


class MissedRebinding(RuntimeError):
    """A qtimeline module still refers to an unwrapped pipeline function."""


def _extra_bytes_in(args, result) -> float:
    # Computed, not measured: the size of the state handed to project_outcome.
    return float(args[0].amplitudes.nbytes)


def _extra_rows(args, result) -> float:
    return float(len(result.rows))


EXTRAS = {"hilbert.project_outcome": _extra_bytes_in, "probability.full_table": _extra_rows}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans = array("q")  # name index, start ns, end ns, parent span (-1: none)
        self.extras: dict[str, float] = {}
        self.active = True
        self._stack = [-1]

    def _wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        extra = EXTRAS.get(name)
        if extra is not None:
            self.extras[name] = 0.0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            pos = len(spans) // 4
            spans.extend((index, clock(), 0, stack[-1]))
            stack.append(pos)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[4 * pos + 2] = clock()
            if extra is not None:
                self.extras[name] += extra(args, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [importlib.import_module(f"qtimeline.{m}") for m in PIPELINE_MODULES]
        wrappers = {}
        for short, module in zip(PIPELINE_MODULES, modules):
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value.__module__ == module.__name__ and not attr.startswith("_"):
                    wrappers[value] = self._wrap(f"{short}.{attr}", value)
        loaded = [m for name, m in sys.modules.items() if name == "qtimeline" or name.startswith("qtimeline.")]
        for module in loaded:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])
        for module in loaded:
            for attr, value in vars(module).items():
                if inspect.isfunction(value) and value in wrappers:
                    raise MissedRebinding(f"{module.__name__}.{attr} is still unwrapped")

    def reset(self) -> None:
        """Forget every span and extra recorded so far (e.g. during warm-up)."""
        del self.spans[:]
        for name in self.extras:
            self.extras[name] = 0.0

    def dump(self, path) -> None:
        np.savez(
            path,
            spans=np.frombuffer(self.spans, dtype=np.int64).reshape(-1, 4),
            names=np.array(self.names),
            extras=json.dumps(self.extras),
        )


def summarize(traces) -> dict:
    """Per function name: calls, self time (ns) and the computed extra.

    ``traces`` is a list of (spans array n x 4, names list, extras dict).
    Also counts ``project_outcome`` calls whose parent span is ``full_table``.
    """
    out: dict[str, dict[str, float]] = {}
    for spans, names, extras in traces:
        spans = np.asarray(spans, dtype=np.int64).reshape(-1, 4)
        dur = spans[:, 2] - spans[:, 1]
        child = np.zeros(len(spans), dtype=np.int64)
        has_parent = spans[:, 3] >= 0
        np.add.at(child, spans[has_parent, 3], dur[has_parent])
        self_ns = dur - child
        name_ids = spans[:, 0]
        for i, name in enumerate(names):
            sel = name_ids == i
            entry = out.setdefault(name, {"calls": 0, "self_ns": 0, "extra": 0.0})
            entry["calls"] += int(sel.sum())
            entry["self_ns"] += int(self_ns[sel].sum())
            entry["extra"] += float(extras.get(name, 0.0))
        if "hilbert.project_outcome" in names and "probability.full_table" in names:
            po = names.index("hilbert.project_outcome")
            ft = names.index("probability.full_table")
            under = (name_ids == po) & has_parent
            parents = spans[under, 3]
            entry = out.setdefault("probability.full_table", {"calls": 0, "self_ns": 0, "extra": 0.0})
            entry["projections"] = entry.get("projections", 0) + int((name_ids[parents] == ft).sum())
    return out


def load_trace(path):
    with np.load(path) as data:
        return data["spans"], [str(n) for n in data["names"]], json.loads(str(data["extras"]))


def import_times(python: str, module: str, env, repeats: int = 3) -> dict[str, float]:
    """Medians over fresh interpreters of ``python -X importtime -c 'import <module>'``.

    Returns cumulative ms of numpy, of the outermost scipy imports, of the
    outermost qtimeline imports, and the number of modules imported.
    """
    samples = []
    for _ in range(repeats):
        proc = subprocess.run(
            [python, "-X", "importtime", "-c", f"import {module}"],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        entries = []
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "imported package" in line:
                continue
            _, cumulative, name = line[len("import time:"):].split("|")
            level = (len(name) - len(name.lstrip(" ")) - 1) // 2
            entries.append((level, int(cumulative), name.strip()))
        samples.append(_import_summary(entries))
    return {key: float(np.median([s[key] for s in samples])) for key in samples[0]}


def _import_summary(entries) -> dict[str, float]:
    # Output is post-order: a line's parent is the next line at a lower level.
    def top_level(prefix):
        total = 0
        for i, (level, cumulative, name) in enumerate(entries):
            if not (name == prefix or name.startswith(prefix + ".")):
                continue
            parent = next((e for e in entries[i + 1:] if e[0] < level), None)
            if parent is None or not (parent[2] == prefix or parent[2].startswith(prefix + ".")):
                total += cumulative
        return total / 1000.0

    numpy_ms = sum(c for _, c, n in entries if n == "numpy") / 1000.0
    return {
        "numpy_ms": numpy_ms,
        "scipy_ms": top_level("scipy"),
        "qtimeline_ms": top_level("qtimeline"),
        "modules": float(len(entries)),
    }
