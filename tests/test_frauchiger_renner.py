"""The Frauchiger–Renner scenario of ``examples/frauchiger_renner.json``, segment by segment.

The closed forms below are derived by hand.  Write |hh> for the coin R at h
with Fbar's record h (so |tt> too), and |uu>, |dd> for the spin S at up, down
with F's record up, down.  Wbar's yes vector and its complement in the span of
|hh>, |tt> are ok_bar = (|hh> - |tt>)/sqrt2 and fail_bar = (|hh> + |tt>)/sqrt2;
W's are ok = (|dd> - |uu>)/sqrt2 and fail = (|dd> + |uu>)/sqrt2.  With no free
dynamics, the anchors are

    after Fbar (t in [1, 2)):  (|h>|down> + |t>|up> + |t>|down>)/sqrt3, Fbar reading R
    after F    (t in [2, 3)):  (|hh>|dd> + |tt>|uu> + |tt>|dd>)/sqrt3
                             = [fail_bar (|uu> + 2|dd>) - ok_bar |uu>]/sqrt6
    after Wbar (t in [3, 4)):  [fail_bar (|uu> + 2|dd>) |no> - ok_bar |uu> |yes>]/sqrt6
    after W    (t >= 4):       [fail_bar (3 fail + ok) |no> - ok_bar (fail - ok) |yes>]/sqrt12

(using |uu> = (fail - ok)/sqrt2 and |dd> = (fail + ok)/sqrt2), so each cell of
the last table is a quarter of its (Wbar, W) weight: 1/12 for (yes, yes),
(yes, no) and (no, yes), and 3/4 for (no, no).  Each table is checked against
``full_table``, against the sequential Born oracle, and through ``conditional``
for the links of the paper's chain, all to 1e-12.
"""

from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from qtimeline.cli import main
from qtimeline.probability import ConditioningOnNullEvent, OutcomeQuery, conditional, full_table, marginal
from qtimeline.scenario import Scenario
from qtimeline.timeline import EventSchedule, build_history

import make_examples
from make_examples import EXAMPLES, frauchiger_renner
from oracle_agreement import oracle_joints

PATH = EXAMPLES / "frauchiger_renner.json"
DATA = Path(__file__).parent / "data"
DETECTORS = ("Fbar", "F", "Wbar", "W")
TOL = 1e-12

_LAST = {("yes", "yes"): Fraction(1, 12), ("yes", "no"): Fraction(1, 12),
         ("no", "yes"): Fraction(1, 12), ("no", "no"): Fraction(3, 4)}
# One reading inside each segment, and the closed-form table there; a cell not listed is 0.
SEGMENTS = {
    0.5: {("r", "r", "r", "r"): Fraction(1)},
    1.5: {("h", "r", "r", "r"): Fraction(1, 3), ("t", "r", "r", "r"): Fraction(2, 3)},
    2.5: {(x, y, "r", "r"): Fraction(1, 3) for x, y in (("h", "down"), ("t", "up"), ("t", "down"))},
    3.5: {
        **{(x, "up", "yes", "r"): Fraction(1, 12) for x in "ht"},
        **{(x, "up", "no", "r"): Fraction(1, 12) for x in "ht"},
        **{(x, "down", "no", "r"): Fraction(1, 3) for x in "ht"},
    },
    5.0: {(x, y, a, b): weight / 4 for x in "ht" for y in ("up", "down") for (a, b), weight in _LAST.items()},
}
# The chain's conditionals (target, given, reading) and their closed forms.
CHAIN = [
    ({"Fbar": "t"}, {"F": "up"}, 2.5, Fraction(1)),  # Fbar, seeing t, knows the spin is up
    ({"Fbar": "t"}, {"F": "up"}, 3.5, Fraction(1, 2)),
    ({"Fbar": "t"}, {"F": "up"}, 5.0, Fraction(1, 2)),
    ({"F": "up"}, {"Wbar": "yes"}, 3.5, Fraction(1)),  # Wbar's ok means F saw up
    ({"F": "up"}, {"Wbar": "yes"}, 5.0, Fraction(1, 2)),
    ({"W": "no"}, {"Fbar": "t"}, 5.0, Fraction(5, 6)),  # 1 without Wbar's event
    ({"W": "yes"}, {"Wbar": "yes"}, 5.0, Fraction(1, 2)),  # the chain predicts 0
]


@pytest.fixture(scope="module")
def scenario() -> Scenario:
    return frauchiger_renner()


@pytest.fixture(scope="module")
def history(scenario):
    return build_history(scenario.psi0, scenario.t0, scenario.h_system, scenario.schedule)


def closed_weight(table, assignment) -> Fraction:
    """The closed-form weight of a partial assignment: its table's cells summed."""
    return sum((p for key, p in table.items() if all(key[DETECTORS.index(d)] == o for d, o in assignment.items())),
               Fraction(0))


def test_each_closed_form_table_sums_to_one():
    assert all(sum(table.values()) == 1 for table in SEGMENTS.values())


@pytest.mark.parametrize("t", sorted(SEGMENTS))
def test_each_segment_table_is_its_closed_form(history, t):
    table = full_table(history, t)
    assert table.detectors == DETECTORS
    cells = table.as_dict()
    assert SEGMENTS[t].keys() <= cells.keys()
    for key, p in cells.items():
        assert abs(p - float(SEGMENTS[t].get(key, 0))) <= TOL, key


@pytest.mark.parametrize("k, t", enumerate(sorted(SEGMENTS)[1:], start=1))
def test_the_oracle_gives_each_segment_table(scenario, history, k, t):
    expected = oracle_joints(scenario, k)  # sequential_born on every assignment of the first k events
    assert full_table(history, t).as_dict().keys() <= expected.keys()
    for key, p in expected.items():
        assert abs(p - float(SEGMENTS[t].get(key, 0))) <= TOL, key
    if k == 4:
        assert sum("r" not in key for key in expected) == 16


@pytest.mark.parametrize("target, given, t, value", CHAIN)
def test_each_link_of_the_chain(scenario, history, target, given, t, value):
    table = SEGMENTS[t]
    assert closed_weight(table, {**target, **given}) / closed_weight(table, given) == value
    assert abs(conditional(history, target, given, t) - float(value)) <= TOL
    k = sum(t > time for time in scenario.schedule.times)
    oracle = oracle_joints(scenario, k)
    assert abs(closed_weight(oracle, {**target, **given}) / closed_weight(oracle, given) - float(value)) <= TOL


def test_wbar_and_w_say_yes_together_at_the_published_rate(history):
    assert closed_weight(SEGMENTS[5.0], {"Wbar": "yes", "W": "yes"}) == Fraction(1, 12)
    assert abs(marginal(history, OutcomeQuery({"Wbar": "yes", "W": "yes"}, 5.0)) - 1 / 12) <= TOL


@pytest.mark.parametrize("t", [0.5, 1.5, 2.5])
def test_conditioning_on_wbar_before_it_fires_is_null(history, t):
    with pytest.raises(ConditioningOnNullEvent):
        conditional(history, {"F": "up"}, {"Wbar": "yes"}, t)


def test_without_wbar_the_last_link_holds(scenario):
    # After F, W's fail holds |tt>(|uu> + |dd>) = sqrt2 |tt> fail whole, and splits |hh>|dd> evenly.
    events = tuple(event for event in scenario.schedule.events if event[1].detector_label != "Wbar")
    three = Scenario(scenario.psi0, scenario.t0, scenario.h_system, EventSchedule(events), ())
    history = build_history(three.psi0, three.t0, three.h_system, three.schedule)
    expected = {**{("h", y, w): Fraction(1, 12) for y in ("up", "down") for w in ("yes", "no")},
                **{("t", y, "no"): Fraction(1, 3) for y in ("up", "down")}}
    oracle = oracle_joints(three, 3)
    for cells in (full_table(history, 5.0).as_dict(), oracle):
        assert cells.keys() >= expected.keys()
        for key, p in cells.items():
            assert abs(p - float(expected.get(key, 0))) <= TOL, key
    assert abs(conditional(history, {"W": "no"}, {"Fbar": "t"}, 5.0) - 1) <= TOL


@pytest.mark.parametrize("name", ["Wbar", "W"])
def test_the_outer_tests_are_the_projector_pairs_of_their_states(scenario, name):
    # Written out here: |hh>, |tt> of R (x) Fbar and |uu>, |dd> of S (x) F are indices 1 and 5 (records r, then
    # the outcomes in Kraus order).
    phi = np.zeros(6)
    phi[[1, 5]] = (1, -1) if name == "Wbar" else (-1, 1)
    phi /= np.sqrt(2)
    det = scenario.schedule.detector(name)
    assert det.kraus.outcome_labels == ("yes", "no")
    assert det.kraus.target_labels == (("R", "Fbar") if name == "Wbar" else ("S", "F"))
    k_yes, k_no = det.kraus.matrices
    np.testing.assert_allclose(k_yes, np.outer(phi, phi), rtol=0, atol=1e-15)
    np.testing.assert_allclose(k_no, np.eye(6) - np.outer(phi, phi), rtol=0, atol=1e-15)


def test_the_generator_writes_the_committed_file(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(make_examples, "EXAMPLES", tmp_path / "examples")
    assert make_examples.main() == 0
    assert capsys.readouterr() == ("wrote examples/frauchiger_renner.json\n", "")
    assert (tmp_path / "examples" / "frauchiger_renner.json").read_bytes() == PATH.read_bytes()


def test_the_example_exports_to_itself_and_validates(capsys):
    assert main(["export", str(PATH)]) == 0
    assert capsys.readouterr() == (PATH.read_text(encoding="utf-8"), "")
    assert main(["validate", str(PATH)]) == 0
    assert capsys.readouterr() == (f"{PATH}: ok (4 events, 13 queries)\n", "")


def test_simulating_the_example_prints_the_golden_output(capsys):
    assert main(["simulate", str(PATH)]) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.encode() == (DATA / "frauchiger_renner.out").read_bytes()


CHAIN = ("Fbar=t|F=up@t=2.5", "F=up|Wbar=yes@t=3.5", "Fbar=t|F=up@t=3.5", "W=no|Fbar=t@t=5", "Wbar=yes@t=5")


def test_the_chain_of_conditionals_prints_the_golden_output(capsys):
    # Four links of the chain and the marginal of Wbar's yes, each printed as one cell: the golden pins each digit.
    assert main(["simulate", str(PATH), *(arg for spec in CHAIN for arg in ("--query", spec))]) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.encode() == (DATA / "frauchiger_renner_chain.out").read_bytes()
