"""Scenario file I/O.

Scenarios are JSON with every complex entry written as a two-element
``[re, im]`` array, which keeps files unambiguous and locale-independent:

    {
      "system": {
        "factors": [["S", 2]],
        "state": [[0.7071067811865476, 0.0], [0.7071067811865476, 0.0]],
        "hamiltonian": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
        "t0": 0.0
      },
      "events": [
        {"time": 1.0, "detector": "F", "targets": ["S"],
         "kraus": [{"outcome": "up",   "matrix": [[[1,0],[0,0]],[[0,0],[0,0]]]},
                   {"outcome": "down", "matrix": [[[0,0],[0,0]],[[0,0],[1,0]]]}]}
      ],
      "queries": [
        {"t": 3.0, "assignment": {"F": "up"}},
        {"t": 3.0, "full_table": true},
        {"t": 3.0, "target": {"F": "up"}, "given": {"W": "yes"}}
      ]
    }

Each query uses exactly one form: a non-empty ``assignment``, ``target`` with
``given`` (which may be empty), or ``"full_table": true`` (JSON ``true`` only).
A query string names each detector at most once on each side of its ``|``.

A file is checked by the constructors a library caller uses (``StateVector``,
``Operator``, ``KrausSet``, ``DetectorModel``, ``EventSchedule``, and
``record_index`` for query labels); their errors become :class:`ScenarioError`
under the offending file key.  Only the JSON form, Hermiticity, factor names
and ``t0`` are checked here, since no constructor sees them.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .hilbert import Operator, StateVector, SubsystemLayout, normalized
from .instrument import DetectorModel, KrausSet
from .probability import OutcomeQuery
from .timeline import EventSchedule, default_t0


class ScenarioError(ValueError):
    """Scenario content is invalid; the message names the offending key."""

    def __init__(self, key: str, message: str):
        super().__init__(f"{key}: {message}")
        self.key = key


@contextmanager
def _at(key: str):
    """Report a library ``ValueError`` raised in the block as a ScenarioError under ``key``."""
    try:
        yield
    except ValueError as err:
        raise ScenarioError(key, str(err)) from None


@dataclass(frozen=True)
class Scenario:
    psi0: StateVector
    t0: float
    h_system: Operator
    schedule: EventSchedule
    queries: tuple[OutcomeQuery, ...]


def _real(value, key: str) -> float:
    """A JSON number other than NaN; +-inf (which ``json.loads`` accepts) passes."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(key, "expected a number")
    try:
        x = float(value)
    except OverflowError:
        raise ScenarioError(key, "number is too large") from None
    if math.isnan(x):
        raise ScenarioError(key, "expected a number, got NaN")
    return x


def _finite(value, key: str) -> float:
    x = _real(value, key)
    if math.isinf(x):
        raise ScenarioError(key, f"expected a finite number, got {x}")
    return x


def _complex_scalar(value, key: str) -> complex:
    if not (isinstance(value, (list, tuple)) and len(value) == 2):
        raise ScenarioError(key, "complex entries must be [re, im] pairs")
    re, im = (_finite(x, key) for x in value)
    return complex(re, im)


def _complex_vector(values, key: str) -> np.ndarray:
    if not isinstance(values, list):
        raise ScenarioError(key, "expected a list of [re, im] pairs")
    return np.array([_complex_scalar(v, f"{key}[{i}]") for i, v in enumerate(values)])


def _complex_matrix(values, key: str) -> np.ndarray:
    if not isinstance(values, list) or not values:
        raise ScenarioError(key, "expected a non-empty list of rows")
    rows = [_complex_vector(row, f"{key}[{i}]") for i, row in enumerate(values)]
    widths = {row.size for row in rows}
    if len(widths) != 1:
        raise ScenarioError(key, "rows have inconsistent lengths")
    return np.array(rows)


def _require(mapping, key: str, context: str):
    if not isinstance(mapping, dict):
        raise ScenarioError(context, "expected an object")
    if key not in mapping:
        raise ScenarioError(f"{context}.{key}" if context else key, "missing required key")
    return mapping[key]


def _str_map(value, key: str) -> dict[str, str]:
    if not isinstance(value, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in value.items()
    ):
        raise ScenarioError(key, "expected an object mapping detector names to outcome labels")
    return dict(value)


def _parse_system(data) -> tuple[StateVector, Operator, float | None]:
    factors = _require(data, "factors", "system")
    if not isinstance(factors, list) or not factors:
        raise ScenarioError("system.factors", "expected a non-empty list of [label, dim] pairs")
    pairs = []
    for i, item in enumerate(factors):
        pair = isinstance(item, list) and len(item) == 2 and isinstance(item[0], str)
        if not (pair and type(item[1]) is int and item[1] >= 1):  # bool is an int subclass
            raise ScenarioError(f"system.factors[{i}]", "expected a [label, dim] pair, dim an integer >= 1")
        pairs.append((item[0], item[1]))
    with _at("system.factors"):
        layout = SubsystemLayout(tuple(pairs))

    amps = _complex_vector(_require(data, "state", "system"), "system.state")
    with _at("system.state"):  # normalized is a no-op on a unit vector, so canonical files keep their bits
        psi0 = StateVector(layout, normalized(amps))

    h_matrix = _complex_matrix(_require(data, "hamiltonian", "system"), "system.hamiltonian")
    with _at("system.hamiltonian"):
        h_system = Operator(layout, h_matrix)
    if not h_system.is_hermitian():
        raise ScenarioError("system.hamiltonian", "matrix is not Hermitian (tolerance 1e-10)")

    t0 = data.get("t0")
    return psi0, h_system, None if t0 is None else _finite(t0, "system.t0")


def _parse_event(data, dims: dict[str, int], key: str):
    time = _finite(_require(data, "time", key), f"{key}.time")
    name = _require(data, "detector", key)
    if not isinstance(name, str) or not name:
        raise ScenarioError(f"{key}.detector", "expected a non-empty string")

    targets = _require(data, "targets", key)
    if not isinstance(targets, list) or not all(isinstance(t, str) for t in targets):
        raise ScenarioError(f"{key}.targets", "expected a list of factor labels")
    for label in targets:
        if label not in dims:
            raise ScenarioError(f"{key}.targets", f"unknown factor {label!r}")
    with _at(f"{key}.targets"):
        target_layout = SubsystemLayout(tuple((label, dims[label]) for label in targets))

    raw_kraus = _require(data, "kraus", key)
    if not isinstance(raw_kraus, list) or not raw_kraus:
        raise ScenarioError(f"{key}.kraus", "expected a non-empty list of outcome entries")
    entries = []
    for i, item in enumerate(raw_kraus):
        outcome = _require(item, "outcome", f"{key}.kraus[{i}]")
        if not isinstance(outcome, str) or not outcome:
            raise ScenarioError(f"{key}.kraus[{i}].outcome", "expected a non-empty string")
        matrix = _complex_matrix(_require(item, "matrix", f"{key}.kraus[{i}]"), f"{key}.kraus[{i}].matrix")
        with _at(f"{key}.kraus[{i}].matrix"):
            entries.append((outcome, Operator(target_layout, matrix)))
    with _at(f"{key}.kraus"):
        kraus = KrausSet(tuple(entries))

    ready_label = data.get("ready_label", "r")
    if not isinstance(ready_label, str) or not ready_label:
        raise ScenarioError(f"{key}.ready_label", "expected a non-empty string")
    with _at(key):
        return time, DetectorModel(name, kraus, ready_label=ready_label)


def _parse_query(data, schedule: EventSchedule, key: str) -> OutcomeQuery:
    t = _real(_require(data, "t", key), f"{key}.t")

    conditional = "target" in data or "given" in data
    if ("assignment" in data) + conditional + ("full_table" in data) != 1:
        forms = [m for m in ("assignment", "target", "given", "full_table") if m in data]
        raise ScenarioError(key, f"query needs one of 'assignment', 'target'/'given', 'full_table'; got {forms}")
    if "full_table" in data:
        if data["full_table"] is not True:
            raise ScenarioError(f"{key}.full_table", "expected true")
        return OutcomeQuery({}, t)
    if conditional:
        target = _str_map(_require(data, "target", key), f"{key}.target")
        given = _str_map(_require(data, "given", key), f"{key}.given")
        _check_names(target, schedule, f"{key}.target")
        _check_names(given, schedule, f"{key}.given")
        if set(target) & set(given):
            raise ScenarioError(key, "target and given must name disjoint detectors")
        return OutcomeQuery(target, t, given)
    assignment = _str_map(data["assignment"], f"{key}.assignment")
    if not assignment:
        raise ScenarioError(f"{key}.assignment", "must name at least one detector")
    _check_names(assignment, schedule, f"{key}.assignment")
    return OutcomeQuery(assignment, t)


def _check_names(assignment: dict[str, str], schedule: EventSchedule, key: str) -> None:
    for det_name, outcome in assignment.items():
        try:
            schedule.detector(det_name).record_index(outcome)  # the label rule of every probability query
        except KeyError as err:
            raise ScenarioError(key, err.args[0]) from None


def parse_scenario(data) -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioError("", "top level must be an object")
    psi0, h_system, t0 = _parse_system(_require(data, "system", ""))

    dims = dict(psi0.layout.factors)
    raw_events = _require(data, "events", "")
    if not isinstance(raw_events, list):
        raise ScenarioError("events", "expected a list")
    events = []
    for i, raw in enumerate(raw_events):
        time, det = _parse_event(raw, dims, f"events[{i}]")
        if det.detector_label in dims:
            message = f"label {det.detector_label!r} collides with an existing factor"
            raise ScenarioError(f"events[{i}].detector", message)
        dims[det.detector_label] = det.ancilla_dim
        events.append((time, det))
    with _at("events"):
        schedule = EventSchedule(tuple(events))

    if t0 is None:
        with _at("system.t0"):
            t0 = default_t0(schedule.times[0]) if schedule.times else 0.0
    elif schedule.times and t0 >= schedule.times[0]:
        raise ScenarioError("system.t0", f"t0={t0} must precede the first event at {schedule.times[0]}")

    raw_queries = data.get("queries", [])
    if not isinstance(raw_queries, list):
        raise ScenarioError("queries", "expected a list")
    queries = tuple(
        _parse_query(raw, schedule, f"queries[{i}]") for i, raw in enumerate(raw_queries)
    )
    return Scenario(psi0, t0, h_system, schedule, queries)


def load_scenario(path) -> Scenario:
    text = Path(path).read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ScenarioError("", f"not valid JSON: {err}") from None
    return parse_scenario(data)


def _pair(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def _matrix_pairs(matrix: np.ndarray) -> list:
    return [[_pair(entry) for entry in row] for row in np.asarray(matrix)]


def scenario_to_data(scenario: Scenario) -> dict:
    """Canonical JSON-ready form; parses back to a bit-identical model."""
    system = {
        "factors": [[label, dim] for label, dim in scenario.psi0.layout.factors],
        "state": [_pair(z) for z in scenario.psi0.amplitudes],
        "hamiltonian": _matrix_pairs(scenario.h_system.matrix),
        "t0": scenario.t0,
    }
    events = []
    for time, det in scenario.schedule.events:
        events.append(
            {
                "time": time,
                "detector": det.detector_label,
                "targets": list(det.kraus.target_labels),
                "kraus": [
                    {"outcome": label, "matrix": _matrix_pairs(op.matrix)}
                    for label, op in det.kraus.outcomes
                ],
                "ready_label": det.ready_label,
            }
        )
    queries = []
    for q in scenario.queries:
        if q.given is not None:
            queries.append({"t": q.t, "target": dict(q.assignments), "given": dict(q.given)})
        elif q.assignments:
            queries.append({"t": q.t, "assignment": dict(q.assignments)})
        else:
            queries.append({"t": q.t, "full_table": True})
    return {"system": system, "events": events, "queries": queries}


def dump_scenario(scenario: Scenario) -> str:
    return json.dumps(scenario_to_data(scenario), indent=2) + "\n"


def parse_query_string(text: str, schedule: EventSchedule) -> OutcomeQuery:
    """Parse compact query syntax: 'F=up,W=yes@t=3.0', 'F=up|W=yes@t=3.0',
    or 'full-table@t=3.0'.  The result is validated as the equivalent JSON query."""
    key = f"query {text!r}"
    if "@" not in text:
        raise ScenarioError(key, "missing '@t=<time>' suffix")
    body, _, time_part = text.rpartition("@")
    if not time_part.startswith("t="):
        raise ScenarioError(key, "time must be written as '@t=<time>'")
    try:
        t = float(time_part[2:])
    except ValueError:
        raise ScenarioError(key, f"cannot parse time {time_part[2:]!r}") from None

    def parse_pairs(chunk: str, part: str) -> dict[str, str]:
        pairs: dict[str, str] = {}
        for item in chunk.split(","):
            if "=" not in item:
                raise ScenarioError(key, f"{part} entry {item!r} is not of the form detector=outcome")
            det, _, outcome = (x.strip() for x in item.partition("="))
            if det in pairs:
                raise ScenarioError(key, f"{part} names detector {det!r} twice")
            pairs[det] = outcome
        return pairs

    body = body.strip()
    if body in ("full-table", "full", "table"):
        data = {"t": t, "full_table": True}
    elif "|" in body:
        target_part, _, given_part = body.partition("|")
        data = {
            "t": t,
            "target": parse_pairs(target_part, "target"),
            "given": parse_pairs(given_part, "given"),
        }
    else:
        data = {"t": t, "assignment": parse_pairs(body, "assignment")}
    return _parse_query(data, schedule, key)
