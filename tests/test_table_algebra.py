"""The table algebra: ``select``, ``marginal`` and ``conditioned`` derive every query's table from a segment's.

Derived tables skip the constructor's cell check only when their parent's cells are all >= 0, so the hand-built
tables here, with cells the constructor admits just below 0, must end in DomainError, never in a refused cell.
"""

import itertools
import math
import re

import numpy as np
import pytest

from qtimeline.cli import _answer
from qtimeline.hilbert import DomainError
from qtimeline.probability import (NULL_EVENT_TOL, ConditioningOnNullEvent, OutcomeQuery, ProbabilityTable,
                                   conditional, full_table, joint, marginal)
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
        (_, on_a), (_, on_b) = parent._conditioned(T, ("A",), ("B",))
        assert on_a.given == ("A",) and on_b.given == ("B",)
        return
    with pytest.raises(ConditioningOnNullEvent, match=null_message(met, 0.0)):
        parent._conditioned(T, ("A",), ("B",))


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
