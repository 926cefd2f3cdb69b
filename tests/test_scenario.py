import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtimeline.probability import OutcomeQuery, marginal
from qtimeline.scenario import (
    Scenario,
    ScenarioError,
    dump_scenario,
    load_scenario,
    parse_query_string,
    parse_scenario,
    scenario_to_data,
)
from qtimeline.timeline import build_history


def pair(z):
    return [float(np.real(z)), float(np.imag(z))]


def qubit_scenario(**overrides):
    inv = 1 / np.sqrt(2)
    data = {
        "system": {
            "factors": [["S", 2]],
            "state": [pair(inv), pair(inv)],
            "hamiltonian": [[pair(0), pair(0)], [pair(0), pair(0)]],
            "t0": 0.0,
        },
        "events": [
            {
                "time": 1.0,
                "detector": "M",
                "targets": ["S"],
                "kraus": [
                    {"outcome": "up", "matrix": [[pair(1), pair(0)], [pair(0), pair(0)]]},
                    {"outcome": "down", "matrix": [[pair(0), pair(0)], [pair(0), pair(1)]]},
                ],
            }
        ],
        "queries": [
            {"t": 2.0, "assignment": {"M": "up"}},
            {"t": 2.0, "full_table": True},
        ],
    }
    data.update(overrides)
    return data


def test_parse_minimal_scenario():
    scenario = parse_scenario(qubit_scenario())
    assert scenario.psi0.layout.labels == ("S",)
    assert scenario.schedule.detector_labels == ("M",)
    assert scenario.queries == (OutcomeQuery({"M": "up"}, 2.0), OutcomeQuery({}, 2.0))
    assert scenario.t0 == 0.0


def test_parse_normalizes_slightly_off_state():
    data = qubit_scenario()
    data["system"]["state"] = [pair(0.7071), pair(0.7071)]
    scenario = parse_scenario(data)
    assert abs(scenario.psi0.norm - 1.0) < 1e-15


def test_parse_rejects_non_hermitian_hamiltonian():
    data = qubit_scenario()
    data["system"]["hamiltonian"] = [[pair(0), pair(1)], [pair(0), pair(0)]]
    with pytest.raises(ScenarioError, match="system.hamiltonian"):
        parse_scenario(data)


def test_parse_reports_incomplete_kraus_with_detector_name():
    data = qubit_scenario()
    data["events"][0]["kraus"] = [
        {"outcome": "a", "matrix": [[pair(1), pair(0)], [pair(0), pair(1)]]},
        {"outcome": "b", "matrix": [[pair(1), pair(0)], [pair(0), pair(1)]]},
    ]
    with pytest.raises(ScenarioError, match=r"events\[0\]: completeness violated by 1.0e\+00 at detector 'M'"):
        parse_scenario(data)


def test_parse_rejects_unknown_query_names():
    data = qubit_scenario()
    data["queries"] = [{"t": 2.0, "assignment": {"X": "up"}}]
    with pytest.raises(ScenarioError, match=r"queries\[0\].assignment"):
        parse_scenario(data)
    data["queries"] = [{"t": 2.0, "assignment": {"M": "sideways"}}]
    with pytest.raises(ScenarioError, match=r"queries\[0\].assignment"):
        parse_scenario(data)


def test_parse_rejects_bad_times():
    data = qubit_scenario()
    data["system"]["t0"] = 1.5
    with pytest.raises(ScenarioError, match="system.t0"):
        parse_scenario(data)
    data = qubit_scenario()
    data["events"] = data["events"] + [dict(data["events"][0], time=0.5, detector="N")]
    with pytest.raises(ScenarioError, match="events"):
        parse_scenario(data)


def test_parse_rejects_dimension_mismatch():
    data = qubit_scenario()
    data["system"]["state"] = [pair(1)]
    with pytest.raises(ScenarioError, match="system.state"):
        parse_scenario(data)
    data = qubit_scenario()
    data["events"][0]["kraus"][0]["matrix"] = [[pair(1)]]
    with pytest.raises(ScenarioError, match=r"events\[0\].kraus\[0\].matrix"):
        parse_scenario(data)


def _second_event(data):
    data["events"].append(dict(data["events"][0], time=2.0))


@pytest.mark.parametrize(
    "edit, key",
    [
        (lambda d: d["system"].update(hamiltonian=[[pair(0)]]), r"system\.hamiltonian"),
        (lambda d: d["events"][0].update(targets=["Q"]), r"events\[0\]\.targets"),
        (lambda d: d["events"][0].update(targets=["S", "S"]), r"events\[0\]\.targets"),
        (_second_event, r"events\[1\]\.detector"),
    ],
    ids=["hamiltonian-shape", "unknown-target", "repeated-target", "detector-collision"],
)
def test_constructor_errors_name_the_file_key(edit, key):
    data = qubit_scenario()
    edit(data)
    with pytest.raises(ScenarioError, match=rf"^{key}: "):
        parse_scenario(data)


@pytest.mark.parametrize("assignment", [{"X": "up"}, {"M": "sideways"}], ids=["unknown-detector", "unknown-outcome"])
def test_query_labels_are_judged_by_the_rule_queries_apply(assignment):
    scenario = parse_scenario(qubit_scenario())
    history = build_history(scenario.psi0, scenario.t0, scenario.h_system, scenario.schedule)
    with pytest.raises(KeyError) as at_query:
        marginal(history, OutcomeQuery(assignment, 2.0))
    ((name, label),) = assignment.items()
    with pytest.raises(ScenarioError) as at_parse:
        parse_query_string(f"{name}={label}@t=2.0", scenario.schedule)
    assert str(at_parse.value).endswith(at_query.value.args[0])


def test_roundtrip_is_bit_identical(tmp_path):
    rng = np.random.default_rng(40)
    data = qubit_scenario()
    z = rng.normal(size=2) + 1j * rng.normal(size=2)
    z /= np.linalg.norm(z)
    data["system"]["state"] = [pair(z[0]), pair(z[1])]
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    h = (g + g.conj().T) / 2
    data["system"]["hamiltonian"] = [[pair(h[i, j]) for j in range(2)] for i in range(2)]

    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    first = load_scenario(path)

    exported = tmp_path / "exported.json"
    exported.write_text(dump_scenario(first))
    second = load_scenario(exported)

    np.testing.assert_array_equal(first.psi0.amplitudes, second.psi0.amplitudes)
    np.testing.assert_array_equal(first.h_system.matrix, second.h_system.matrix)
    assert first.schedule.times == second.schedule.times
    for (_, d1), (_, d2) in zip(first.schedule.events, second.schedule.events):
        assert d1.detector_label == d2.detector_label
        for (l1, k1), (l2, k2) in zip(d1.kraus.outcomes, d2.kraus.outcomes):
            assert l1 == l2
            np.testing.assert_array_equal(k1.matrix, k2.matrix)
    assert first.queries == second.queries


def two_detector_scenario():
    data = qubit_scenario()
    data["events"] = data["events"] + [dict(data["events"][0], time=2.0, detector="N")]
    data["queries"] = []
    return parse_scenario(data)


def test_query_string_forms():
    scenario = parse_scenario(qubit_scenario())
    assert parse_query_string("M=up@t=2.5", scenario.schedule) == OutcomeQuery({"M": "up"}, 2.5)
    assert parse_query_string("full-table@t=1.0", scenario.schedule) == OutcomeQuery({}, 1.0)
    with pytest.raises(ScenarioError):
        parse_query_string("M=up", scenario.schedule)
    with pytest.raises(ScenarioError):
        parse_query_string("X=up@t=2.0", scenario.schedule)
    with pytest.raises(ScenarioError):
        parse_query_string("M=up|M=down@t=2.0", scenario.schedule)


def test_query_string_conditional_form():
    scenario = two_detector_scenario()
    q = parse_query_string("M=up|N=down@t=3.0", scenario.schedule)
    assert q == OutcomeQuery({"M": "up"}, 3.0, given={"N": "down"})
    # An empty given stays a conditional, apart from the marginal of the target.
    data = qubit_scenario(queries=[{"t": 3.0, "target": {"M": "up"}, "given": {}}])
    (q,) = parse_scenario(data).queries
    assert q.given == {} and q != OutcomeQuery({"M": "up"}, 3.0)
    assert scenario_to_data(parse_scenario(data))["queries"] == data["queries"]


NAN = float("nan")
INF = float("inf")


def replace_at(data, path, value):
    for step in path[:-1]:
        data = data[step]
    data[path[-1]] = value


@pytest.mark.parametrize(
    "path, value, key",
    [
        (("system", "state", 0), [NAN, 0.0], r"system.state\[0\]"),
        (("system", "hamiltonian", 0, 0), [INF, 0.0], r"system.hamiltonian\[0\]\[0\]"),
        (("events", 0, "kraus", 0, "matrix", 0, 0), [1.0, NAN], r"events\[0\].kraus\[0\].matrix\[0\]\[0\]"),
        (("events", 0, "time"), NAN, r"events\[0\].time"),
        (("events", 0, "time"), INF, r"events\[0\].time"),
        (("system", "t0"), -INF, "system.t0"),
        (("queries", 0, "t"), NAN, r"queries\[0\].t"),
        (("system", "factors", 0), ["S", 2.7], r"system.factors\[0\]"),
        (("system", "factors", 0), ["S", "x"], r"system.factors\[0\]"),
        (("system", "factors", 0), ["S", True], r"system.factors\[0\]"),
        (("system", "factors", 0), ["S", 0], r"system.factors\[0\]"),
    ],
)
def test_parse_rejects_malformed_numbers(path, value, key):
    data = qubit_scenario()
    replace_at(data, path, value)
    with pytest.raises(ScenarioError, match=key):
        parse_scenario(data)


def test_parse_normalizes_state_whose_norm_overflows():
    data = qubit_scenario()
    data["system"]["state"] = [[1e308, 0.0], [0.0, -1e308]]
    amplitudes = parse_scenario(data).psi0.amplitudes
    np.testing.assert_allclose(amplitudes, [2**-0.5, -1j * 2**-0.5], atol=1e-15)


def test_query_times_may_be_infinite():
    data = qubit_scenario()
    data["queries"] = [{"t": INF, "full_table": True}, {"t": -INF, "assignment": {"M": "r"}}]
    assert [q.t for q in parse_scenario(data).queries] == [INF, -INF]
    schedule = parse_scenario(qubit_scenario()).schedule
    assert parse_query_string("M=up@t=inf", schedule).t == INF
    with pytest.raises(ScenarioError, match="NaN"):
        parse_query_string("M=up@t=nan", schedule)


def test_query_string_is_validated_as_json_query():
    scenario = two_detector_scenario()
    with pytest.raises(ScenarioError, match=r"\.target"):
        parse_query_string("X=up|N=down@t=3.0", scenario.schedule)
    with pytest.raises(ScenarioError, match=r"\.given"):
        parse_query_string("M=up|N=sideways@t=3.0", scenario.schedule)
    with pytest.raises(ScenarioError, match="disjoint"):
        parse_query_string("M=up|M=down@t=3.0", scenario.schedule)


@pytest.mark.parametrize(
    "query, key",
    [
        ({"full_table": "false"}, r"queries\[0\]\.full_table: expected true"),
        ({"full_table": False}, r"queries\[0\]\.full_table: expected true"),
        ({"full_table": True, "assignment": {"M": "up"}}, r"queries\[0\]: query needs one of"),
        ({"assignment": {"M": "up"}, "target": {"M": "up"}, "given": {}}, r"queries\[0\]: query needs one of"),
        ({"assignment": {"M": "up"}, "given": {}}, r"queries\[0\]: query needs one of"),
        ({}, r"queries\[0\]: query needs one of"),
    ],
)
def test_parse_refuses_all_but_one_query_form(query, key):
    data = qubit_scenario(queries=[{"t": 1.0, **query}])
    with pytest.raises(ScenarioError, match=key):
        parse_scenario(data)


def test_query_string_refuses_a_detector_named_twice():
    schedule = two_detector_scenario().schedule
    for text in ("M=up,M=down@t=3", "M=up,N=up,M=up@t=3", "N=up|M=up, M=down@t=3"):
        with pytest.raises(ScenarioError, match="names detector 'M' twice"):
            parse_query_string(text, schedule)


def node_paths(node, prefix=()):
    """Every path to a node of a JSON document, the root included."""
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for step, child in children:
        yield from node_paths(child, prefix + (step,))


QUBIT_PATHS = list(node_paths(qubit_scenario()))

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([1e308, -1e308])
    | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(QUBIT_PATHS), json_values), min_size=1, max_size=2))
def test_parse_scenario_fuzz_yields_scenario_or_scenario_error(replacements):
    data = qubit_scenario()
    for path, value in replacements:
        if not path:
            data = value
            continue
        try:  # an earlier replacement may have removed this path
            replace_at(data, path, value)
        except (KeyError, IndexError, TypeError):
            continue
    try:
        result = parse_scenario(data)
    except ScenarioError:
        return
    assert isinstance(result, Scenario)
    assert result.psi0.is_normalized
