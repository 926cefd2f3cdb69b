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

A file is checked here for its JSON form only.  Everything else is judged by
the library a caller uses (``SubsystemLayout``, ``StateVector``, ``Operator``
and its Hermitian spectrum, ``KrausSet``, ``DetectorModel`` and its label rule,
``EventSchedule``, ``start_time``, ``history_layout``, and ``EventSchedule.check``
and ``OutcomeQuery`` for queries), and its errors become :class:`ScenarioError`
under the offending file key.  A file that parses is one ``build_history``
accepts up to the propagator's phase rule.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .hilbert import Operator, StateVector, SubsystemLayout, _factor, _layout, normalized
from .instrument import DetectorModel, KrausSet
from .probability import OutcomeQuery
from .timeline import EventSchedule, history_layout, start_time


class ScenarioError(ValueError):
    """Scenario content is invalid; the message names the offending key, if the error has one."""

    def __init__(self, key: str, message: str):
        super().__init__(f"{key}: {message}" if key else message)
        self.key = key


@contextmanager
def _at(key: str):
    """Report a library ``ValueError`` or ``KeyError`` raised in the block as a ScenarioError under ``key``."""
    try:
        yield
    except (ValueError, KeyError) as err:
        raise ScenarioError(key, err.args[0]) from None


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
        if not (isinstance(item, list) and len(item) == 2 and isinstance(item[0], str)):
            raise ScenarioError(f"system.factors[{i}]", "expected a [label, dim] pair")
        with _at(f"system.factors[{i}]"):
            pairs.append(_factor(item))
    with _at("system.factors"):
        layout = SubsystemLayout(tuple(pairs))

    amps = _complex_vector(_require(data, "state", "system"), "system.state")
    with _at("system.state"):  # normalized is a no-op on a unit vector, so canonical files keep their bits
        psi0 = StateVector(layout, normalized(amps))

    h_matrix = _complex_matrix(_require(data, "hamiltonian", "system"), "system.hamiltonian")
    with _at("system.hamiltonian"):
        h_system = Operator(layout, h_matrix)
        h_system._spectrum  # DomainError unless Hermitian; build_history reads the cached eigh

    t0 = data.get("t0")
    return psi0, h_system, None if t0 is None else _real(t0, "system.t0")


def _parse_event(data, layout: SubsystemLayout, key: str):
    time = _finite(_require(data, "time", key), f"{key}.time")
    name = _require(data, "detector", key)
    if not isinstance(name, str):
        raise ScenarioError(f"{key}.detector", "expected a string")

    targets = _require(data, "targets", key)
    if not isinstance(targets, list) or not all(isinstance(t, str) for t in targets):
        raise ScenarioError(f"{key}.targets", "expected a list of factor labels")
    with _at(f"{key}.targets"):
        target_layout = SubsystemLayout(tuple((label, layout.dim_of(label)) for label in targets))

    raw_kraus = _require(data, "kraus", key)
    if not isinstance(raw_kraus, list) or not raw_kraus:
        raise ScenarioError(f"{key}.kraus", "expected a non-empty list of outcome entries")
    entries = []
    for i, item in enumerate(raw_kraus):
        outcome = _require(item, "outcome", f"{key}.kraus[{i}]")
        if not isinstance(outcome, str):
            raise ScenarioError(f"{key}.kraus[{i}].outcome", "expected a string")
        matrix = _complex_matrix(_require(item, "matrix", f"{key}.kraus[{i}]"), f"{key}.kraus[{i}].matrix")
        with _at(f"{key}.kraus[{i}].matrix"):
            entries.append((outcome, Operator(target_layout, matrix)))
    with _at(f"{key}.kraus"):
        kraus = KrausSet(tuple(entries))

    ready_label = data.get("ready_label", "r")
    if not isinstance(ready_label, str):
        raise ScenarioError(f"{key}.ready_label", "expected a string")
    with _at(key):  # the label rule and completeness
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
        target, given = (_str_map(_require(data, part, key), f"{key}.{part}") for part in ("target", "given"))
    else:
        target, given = _str_map(data["assignment"], f"{key}.assignment"), None
        if not target:
            raise ScenarioError(f"{key}.assignment", "must name at least one detector")
    for part, names in ({"target": target, "given": given} if conditional else {"assignment": target}).items():
        with _at(f"{key}.{part}"):
            schedule.check(names)
    with _at(key):
        return OutcomeQuery(target, t, given)


def parse_scenario(data) -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioError("", "top level must be an object")
    psi0, h_system, t0 = _parse_system(_require(data, "system", ""))

    layout = psi0.layout  # grows by each record, so an event may target the records fired before it
    raw_events = _require(data, "events", "")
    if not isinstance(raw_events, list):
        raise ScenarioError("events", "expected a list")
    events = []
    for i, raw in enumerate(raw_events):
        time, det = _parse_event(raw, layout, f"events[{i}]")
        with _at(f"events[{i}].detector"):
            layout = _layout(layout.factors + ((det.detector_label, det.ancilla_dim),))
        events.append((time, det))
    with _at("events"):
        schedule = EventSchedule(tuple(events))
        history_layout(psi0.layout, schedule)  # the size limit of the history the file describes
    with _at("system.t0"):
        t0 = start_time(t0, schedule)

    raw_queries = data.get("queries", [])
    if not isinstance(raw_queries, list):
        raise ScenarioError("queries", "expected a list")
    queries = tuple(_parse_query(raw, schedule, f"queries[{i}]") for i, raw in enumerate(raw_queries))
    return Scenario(psi0, t0, h_system, schedule, queries)


def load_scenario(path) -> Scenario:
    """The scenario of the UTF-8 JSON file at ``path``, whatever the locale's encoding."""
    try:
        data = json.loads(Path(path).read_bytes().decode("utf-8"))
    except UnicodeDecodeError as err:
        raise ScenarioError("", f"not valid UTF-8: {err}") from None
    except json.JSONDecodeError as err:
        raise ScenarioError("", f"not valid JSON: {err}") from None
    return parse_scenario(data)


def _pairs(array: np.ndarray) -> list:
    return np.stack((array.real, array.imag), axis=-1).tolist()


def scenario_to_data(scenario: Scenario) -> dict:
    """Canonical JSON-ready form; parses back to a bit-identical model."""
    system = {
        "factors": [[label, dim] for label, dim in scenario.psi0.layout.factors],
        "state": _pairs(scenario.psi0.amplitudes),
        "hamiltonian": _pairs(scenario.h_system.matrix),
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
                    {"outcome": label, "matrix": _pairs(op.matrix)}
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
    if body == "full-table":
        data = {"t": t, "full_table": True}
    elif "|" in body:
        target_part, _, given_part = body.partition("|")
        data = {"t": t, "target": parse_pairs(target_part, "target"), "given": parse_pairs(given_part, "given")}
    else:
        data = {"t": t, "assignment": parse_pairs(body, "assignment")}
    return _parse_query(data, schedule, key)
