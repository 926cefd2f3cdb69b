"""The table algebra: ``select``, ``marginal`` and ``conditioned`` derive every query's table from a segment's.

Derived tables skip the constructor's cell check only when their parent is trusted: its cells lie in
[0, 1 + TOL_EQUALITY], or it derives from such a table.  So the hand-built tables here, with cells the constructor
admits just below 0 or far above 1, must end in DomainError, never in a refused or non-finite cell.
"""

import itertools
import math
import re

import numpy as np
import pytest

from qtimeline.cli import _answer
from qtimeline.hilbert import DomainError
from qtimeline.probability import (NULL_EVENT_TOL, ConditioningOnNullEvent, OutcomeQuery, ProbabilityTable,
                                   conditional, full_table, joint, marginal, query_table)
from qtimeline.sampling import random_record_scenario, random_scenario, random_wide_scenario
from qtimeline.timeline import build_history

T = 0.5


def table(weights, detectors=("A", "B")):
    weights = np.asarray(weights, dtype=float)
    labels = tuple(tuple(f"{d.lower()}{i}" for i in range(n)) for d, n in zip(detectors, weights.shape))
    return ProbabilityTable(detectors, labels, weights)


def null_message(given, weight):
    return f"^{re.escape(f'conditioning assignment {given} has probability {weight:.3e} at t={T}')}$"


def test_select_cuts_the_named_axes_and_keeps_the_others_whole():
    parent = table([[0.1, 0.2, 0.3], [0.15, 0.05, 0.2]])
    cut = parent.select({"B": "b1"})
    assert cut.detectors == ("A", "B") and cut.labels == (("a0", "a1"), ("b1",))
    assert cut.weights.tolist() == [[0.2], [0.05]]
    assert np.shares_memory(cut.weights, parent.weights) and not cut.weights.flags.writeable
    unlisted = parent.select({"A": "a7"})  # a label the axis does not list weighs 0
    assert unlisted.labels == (("a7",), ("b0", "b1", "b2")) and unlisted.weights.tolist() == [[0.0, 0.0, 0.0]]
    with pytest.raises(KeyError, match=re.escape("no detector ['C'] in table over ('A', 'B')")):
        parent.select({"C": "c0"})


def test_marginal_keeps_the_table_order_and_returns_the_table_when_nothing_is_summed():
    parent = table(np.arange(24.0).reshape(2, 3, 4) / 276, ("A", "B", "C"))
    both = parent.marginal(("C", "A"))
    assert both.detectors == ("A", "C") and both.labels == (parent.labels[0], parent.labels[2])
    np.testing.assert_array_equal(both.weights, parent.weights.sum(axis=1))
    assert parent.marginal(("B", "C", "A")) is parent
    assert parent.marginal(()).weights.shape == () and parent.marginal(()).total == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(KeyError, match=re.escape("no detector ['X'] in table over ('A', 'B', 'C')")):
        parent.marginal(("A", "X"))


def test_conditioned_divides_by_the_marginal_and_marks_it_given():
    parent = table([[0.1, 0.3], [0.2, 0.4]])
    on_b = parent.conditioned(("B",), T)
    assert on_b.given == ("B",) and on_b.labels == parent.labels
    np.testing.assert_allclose(on_b.weights, [[1 / 3, 3 / 7], [2 / 3, 4 / 7]], rtol=0, atol=1e-15)
    assert not on_b.weights.flags.writeable


def test_a_negative_parent_cell_ends_in_domain_error_not_in_a_refused_quotient():
    # The F=a0 row weighs 2e-14 >= NULL_EVENT_TOL, so it is divided: its -1e-12 cell would become about -50.
    parent = table([[-1e-12, 1.02e-12], [0.5, 0.5 - 2e-14]])
    with pytest.raises(DomainError, match=r"^negative probability -49\.99"):
        parent.conditioned(("A",), T)


def test_a_negative_parent_cell_ends_in_domain_error_not_in_a_refused_marginal():
    parent = table([[-1e-12, -1e-12, -1e-12], [0.5, 0.25, 0.25 + 3e-12]])
    with pytest.raises(DomainError, match=re.escape("negative probability -3e-12 for ('a0',)")):
        parent.marginal(("A",))
    assert parent.select({"B": "b0"}).weights.tolist() == [[-1e-12], [0.5]]  # admitted again by the constructor


def test_a_derivation_of_a_history_table_runs_no_check(monkeypatch):
    records = full_table(build_history(*_sample(random_scenario, 0)), math.inf)
    checks = []
    post_init = ProbabilityTable.__post_init__
    monkeypatch.setattr(ProbabilityTable, "__post_init__", lambda self: checks.append(self) or post_init(self))
    first = records.detectors[0]
    records.select({first: records.labels[0][0]}).conditioned((first,), T).marginal(records.detectors[:1])
    assert checks == []


def test_a_derivation_of_a_table_with_cells_above_one_is_checked():
    parent = ProbabilityTable(("A", "B"), (("x", "y"), ("u",)), [[1e308], [1e308]])
    # The sum overflows, and numpy warns of it before the constructor refuses the inf it leaves.
    with pytest.warns(RuntimeWarning, match="overflow"), pytest.raises(DomainError, match=re.escape(
            "non-finite probability inf for ('u',)")):
        parent.marginal(("B",))
    assert parent.select({"A": "y"}).weights.tolist() == [[1e308]]  # admitted again by the constructor


def test_a_zero_width_given_axis_conditions_to_an_empty_table():
    parent = ProbabilityTable(("A", "B"), (("a0", "a1"), ()), np.zeros((2, 0)))
    result = parent.conditioned(("B",), T)
    assert result.weights.shape == (2, 0) and result.given == ("B",) and result.rows == ()


def test_a_given_weight_of_exactly_the_null_tolerance_is_accepted_and_the_next_float_below_refused():
    half = NULL_EVENT_TOL / 2  # two equal halves add back to it exactly
    accepted = table([[half, half], [0.5, 0.5 - NULL_EVENT_TOL]]).conditioned(("A",), T)
    assert accepted.weights[0].tolist() == [0.5, 0.5]
    below = math.nextafter(NULL_EVENT_TOL, 0.0)
    with pytest.raises(ConditioningOnNullEvent, match=null_message({"A": "a0"}, below)):
        table([[below / 2, below / 2], [0.5, 0.5 - below]]).conditioned(("A",), T)


def test_the_null_message_names_the_labels_in_the_order_the_caller_gave():
    parent = table([[0.5, 0.5], [0.0, 0.0]])
    with pytest.raises(ConditioningOnNullEvent, match=null_message({"B": "b0", "A": "a1"}, 0.0)):
        parent.conditioned(("B", "A"), T)


@pytest.mark.parametrize("null_a", [(), (0,), (1,), (0, 1)])
@pytest.mark.parametrize("null_b", [(), (0,), (2,), (1, 2), (0, 1, 2)])
def test_several_groups_are_judged_in_one_row_loop_before_any_quotient(null_a, null_b):
    weights = np.array([[0.0 if a in null_a or b in null_b else 1.0 for b in range(3)] for a in range(2)])
    parent = table(weights / max(weights.sum(), 1.0))
    null_a, null_b = np.flatnonzero(weights.sum(axis=1) == 0), np.flatnonzero(weights.sum(axis=0) == 0)
    met = next(({"A": f"a{a}"} if a in null_a else {"B": f"b{b}"} for a, b in itertools.product(range(2), range(3))
                if a in null_a or b in null_b), None)  # a row loop over (a, b): A before B in a row
    if met is None:
        on_a, on_b = parent._quotients(T, ("A",), ("B",))
        assert on_a.given == ("A",) and on_b.given == ("B",)
        return
    with pytest.raises(ConditioningOnNullEvent, match=null_message(met, 0.0)):
        parent._quotients(T, ("A",), ("B",))


def _sample(sampler, seed):
    sample = sampler(np.random.default_rng([seed, 26]))
    return sample.psi0, sample.t0, sample.h_system, sample.schedule


@pytest.mark.parametrize("sampler", [random_scenario, random_wide_scenario, random_record_scenario])
def test_derived_tables_agree_with_the_library_scalars_and_the_cli_cell(sampler):
    for seed in range(6):
        history = build_history(*_sample(sampler, seed))
        for k in range(len(history.schedule) + 1):
            t = history.anchor_time(k) + 0.5  # the samplers put their events one unit apart
            records = full_table(history, t)
            for a, b in itertools.permutations(records.detectors, 2):
                pair = records.marginal((a, b))
                for key, weight in pair.rows:
                    named = dict(zip(pair.detectors, key))
                    assert abs(weight - marginal(history, OutcomeQuery(named, t))) <= 1e-14
                for given in records.labels[records.detectors.index(b)]:
                    if pair.select({b: given}).total < NULL_EVENT_TOL:
                        with pytest.raises(ConditioningOnNullEvent):
                            conditional(history, {a: records.labels[records.detectors.index(a)][0]}, {b: given}, t)
                        continue
                    sliced = pair.select({b: given}).conditioned((b,), t)
                    assert abs(sliced.total - 1.0) <= 1e-12
                    for key, weight in sliced.rows:
                        target = {a: dict(zip(sliced.detectors, key))[a]}
                        library = conditional(history, target, {b: given}, t)
                        assert abs(weight - library) <= 1e-14
                        _, cell = _answer(history, OutcomeQuery(target, t, {b: given}))
                        assert cell.weights.item() == library
                    _, cell = _answer(history, OutcomeQuery({b: given}, t))
                    assert cell.weights.item() == marginal(history, OutcomeQuery({b: given}, t))
            for key, _ in records.rows[:4]:
                query = OutcomeQuery(dict(zip(records.detectors, key)), t)
                assert _answer(history, query)[1].weights.item() == joint(history, query)


@pytest.mark.parametrize("call", [
    lambda t: t.marginal("D1"),
    lambda t: t.conditioned("D1", T),
    lambda t: t._quotients(T, ("D1",), "D10"),
    lambda t: t.select("D1"),
    lambda t: t.value("D1"),
], ids=["marginal", "conditioned", "_quotients", "select", "value"])
def test_a_bare_string_is_refused_not_read_as_its_characters(call):
    # "D1" names a detector here; read as characters it named "D" and "1", which no detector is.
    parent = table([[0.1, 0.2], [0.3, 0.4]], ("D1", "D10"))
    with pytest.raises(TypeError, match=r"^pass a collection of detector names, not the string 'D1"):
        call(parent)


def test_a_string_of_detector_names_neither_sums_nothing_nor_conditions_on_every_detector():
    parent = table([[0.1, 0.2], [0.3, 0.4]], ("F", "W"))
    with pytest.raises(TypeError, match=re.escape("not the string 'FW'")):
        parent.marginal("FW")  # as characters it named both detectors and returned the joint table
    with pytest.raises(TypeError, match=re.escape("not the string 'WF'")):
        parent.conditioned("WF", T)  # as characters it conditioned on both
    assert parent.marginal(["F", "W"]) is parent and parent.marginal({"W": "w0"}).detectors == ("W",)


def _schedule():
    return build_history(*_sample(random_scenario, 0)).schedule


def test_check_refuses_an_unknown_detector():
    schedule = _schedule()
    message = f"no detector 'X' in schedule; have {schedule.detector_labels}"
    with pytest.raises(KeyError, match=f"^{re.escape(repr(message))}$"):
        schedule.check({schedule.detector_labels[0]: schedule.events[0][1].ready_label, "X": "x"})


def test_check_refuses_an_unknown_label_and_another_detectors_label():
    schedule = _schedule()
    (_, first), (_, second) = schedule.events[:2]
    foreign = next(label for label in second.kraus.outcome_labels if label not in first.kraus.outcome_labels)
    for label in ("nowhere", foreign):
        message = (f"detector {first.detector_label!r} has no outcome {label!r}; have {first.kraus.outcome_labels} "
                   f"and ready label {first.ready_label!r}")
        with pytest.raises(KeyError, match=f"^{re.escape(repr(message))}$"):
            schedule.check({first.detector_label: label})


def test_check_accepts_the_ready_label_and_every_outcome():
    schedule = _schedule()
    for _, det in schedule.events:
        for label in (det.ready_label, *det.kraus.outcome_labels):
            assert schedule.check({det.detector_label: label}) is None
        assert schedule.detector(det.detector_label) is det


def _cut(detectors, labels, weights, assignment):
    """Plain numpy: each named axis of ``weights`` cut to its label by a slice, zeros for a label it does not list."""
    labels, index = list(labels), [slice(None)] * len(labels)
    for name, label in assignment.items():
        axis = detectors.index(name)
        i = labels[axis].index(label) if label in labels[axis] else None
        labels[axis], index[axis] = (label,), None if i is None else slice(i, i + 1)
    return tuple(labels), np.zeros([len(axis) for axis in labels]) if None in index else weights[tuple(index)]


def _reference(records, query):
    """The answer's labels, given and weights from the segment's weights in the chain's order: cut to
    ``given``, divide by the marginal of the cut, cut to the assignments.  None for a null given."""
    detectors, labels, weights = records.detectors, records.labels, records.weights
    if query.given is not None:
        labels, weights = _cut(detectors, labels, weights, query.given)
        margin = weights.sum(axis=tuple(i for i, d in enumerate(detectors) if d not in query.given), keepdims=True)
        if margin.min() < NULL_EVENT_TOL:
            return None
        weights = weights / margin
    labels, weights = _cut(detectors, labels, weights, query.assignments)
    return labels, tuple(d for d in detectors if d in (query.given or ())), weights


@pytest.mark.parametrize("sampler", [random_scenario, random_wide_scenario, random_record_scenario])
def test_every_answer_is_the_plain_numpy_chain_bit_for_bit(sampler):
    for seed in range(4):
        history = build_history(*_sample(sampler, seed))
        ready = {det.detector_label: det.ready_label for _, det in history.schedule.events}
        for k in range(len(history.schedule) + 1):
            t = history.anchor_time(k) + 0.5  # the samplers put their events one unit apart
            records = history.records(k)
            shown = dict(zip(records.detectors, records.labels))
            last = {d: labels[-1] for d, labels in shown.items()}
            queries = [OutcomeQuery(last, t), OutcomeQuery(ready, t)]  # joints; most ready labels are unlisted
            for a, b in itertools.permutations(records.detectors, 2):
                rest = {d: last[d] for d in records.detectors if d not in (a, b)}
                queries += [OutcomeQuery({a: shown[a][0]}, t), OutcomeQuery({a: ready[a], b: shown[b][-1]}, t),
                            OutcomeQuery({a: shown[a][-1]}, t, {b: shown[b][0], **rest}),
                            OutcomeQuery({a: ready[a]}, t, {b: ready[b]})]
                queries += [OutcomeQuery({a: x}, t, {b: y}) for x in shown[a] for y in shown[b]]
            for query in queries:
                if (expected := _reference(records, query)) is None:
                    with pytest.raises(ConditioningOnNullEvent):
                        query_table(history, query)
                    continue
                answer = query_table(history, query)
                assert (answer.labels, answer.given) == expected[:2]
                assert answer.weights.shape == expected[2].shape and (answer.weights == expected[2]).all()
                total = float(expected[2].sum())
                if query.given is not None:
                    assert conditional(history, query.assignments, query.given, t) == total
                elif len(query.assignments) == len(records.detectors):
                    assert joint(history, query) == total
                else:
                    assert marginal(history, query) == total
