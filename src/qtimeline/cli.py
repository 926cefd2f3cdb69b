"""Command-line front end: run scenario files, emit probability tables.

Subcommands: ``simulate <file>``, ``wigner [param flags]``, ``validate <file>``,
``export <file>``.  Exit codes: 0 ok, 1 runtime query error, 2 validation
error or a file that cannot be read or written.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys
from dataclasses import dataclass

from .hilbert import DomainError, normalized
from .probability import (ConditioningOnNullEvent, OutcomeQuery, ProbabilityTable, conditional, full_table,
                          joint, marginal)
from .scenario import ScenarioError, dump_scenario, load_scenario, parse_query_string
from .timeline import HistoryState, build_history, history_layout
from .wigner import FRIEND, WIGNER, WignerScenario, tables

PRETTY_DIGITS = 6
CSV_DIGITS = 12


@dataclass(frozen=True)
class ResultRow:
    t: float
    assignment: str
    kind: str
    value: float


def _fmt(value: float, digits: int) -> str:
    """Clip reporting round-off into [0, 1]; raw values stay untouched elsewhere."""
    return f"{min(max(value, 0.0), 1.0):.{digits}g}"


def _result_row(t: float, kind: str, value: float, order, assignment, given=None) -> ResultRow:
    """Row text 'D=o,...' in ``order``; with ``given``, those detectors follow a '|'."""
    def text(names) -> str:
        return ",".join(f"{d}={assignment[d]}" for d in order if d in names)

    label = text(assignment.keys() - set(given or ()))
    return ResultRow(t, label if given is None else f"{label}|{text(given)}", kind, value)


def _evaluate_query(history: HistoryState, query: OutcomeQuery) -> list[ResultRow]:
    order = history.schedule.detector_labels
    if query.given is not None:
        value = conditional(history, query.assignments, query.given, query.t)
        both = {**query.assignments, **query.given}
        return [_result_row(query.t, "conditional", value, order, both, query.given)]
    if not query.assignments:
        table = full_table(history, query.t)
        return [_result_row(query.t, "joint", value, order, dict(zip(table.detectors, key)))
                for key, value in table.rows]
    if set(query.assignments) == set(order):
        return [_result_row(query.t, "joint", joint(history, query), order, query.assignments)]
    return [_result_row(query.t, "marginal", marginal(history, query), order, query.assignments)]


def _csv_text(rows: list[ResultRow]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["t", "assignment", "kind", "value"])
    writer.writerows([f"{row.t:g}", row.assignment, row.kind, _fmt(row.value, CSV_DIGITS)] for row in rows)
    return buffer.getvalue()


def _write_output(path: str, text: str) -> bool:
    """Write ``text`` to ``path``; False, after one stderr line, if it cannot be written."""
    try:
        with open(path, "w", newline="") as handle:
            handle.write(text)
    except OSError as err:
        print(f"{path}: {err}", file=sys.stderr)
        return False
    return True


def _print_rows(rows: list[ResultRow]) -> None:
    if not rows:
        return
    width = max(len(r.assignment) for r in rows)
    for row in rows:
        print(f"  {row.kind:<12} t={row.t:<8g} {row.assignment:<{width}}  {_fmt(row.value, PRETTY_DIGITS)}")


def _cmd_simulate(args) -> int:
    try:
        scenario = load_scenario(args.file)
        history = build_history(scenario.psi0, scenario.t0, scenario.h_system, scenario.schedule)
    except (ScenarioError, DomainError, OSError) as err:  # DomainError: the anchor size limit
        print(f"{args.file}: {err}", file=sys.stderr)
        return 2

    if args.query:
        try:
            queries = [parse_query_string(text, scenario.schedule) for text in args.query]
        except ScenarioError as err:
            print(f"{err}", file=sys.stderr)
            return 2
    else:
        queries = list(scenario.queries)

    all_rows: list[ResultRow] = []
    failed = False
    for index, query in enumerate(queries):
        try:
            rows = _evaluate_query(history, query)
        except (ConditioningOnNullEvent, KeyError) as err:
            message = err.args[0] if err.args else str(err)
            print(f"query {index}: {message}", file=sys.stderr)
            failed = True
            continue
        if query.given is None and not query.assignments:
            print(f"full table at t={query.t:g}")
            _print_rows(rows)
            print(f"  {'total':<12} {'':<10} {'':<{max(len(r.assignment) for r in rows)}}  "
                  f"{_fmt(sum(r.value for r in rows), PRETTY_DIGITS)}")
        else:
            _print_rows(rows)
        all_rows.extend(rows)

    if args.csv and not _write_output(args.csv, _csv_text(all_rows)):
        return 2
    return 1 if failed else 0


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) == 1:
        return complex(float(parts[0]), 0.0)
    if len(parts) == 2:
        return complex(float(parts[0]), float(parts[1]))
    raise ValueError(f"cannot parse complex value {text!r}; use 're' or 're,im'")


def _unit_pair(x: str, y: str, name: str):
    """The pair ``normalized`` admits, always divided by its norm, so a near-unit pair is unit too."""
    pair = normalized([_parse_complex(x), _parse_complex(y)], name)
    return pair / math.hypot(*abs(pair))


def _grid(table: ProbabilityTable) -> str:
    row_labels, col_labels = table.labels
    corner = "f\\w"
    width = max(PRETTY_DIGITS + 6, *map(len, col_labels), *map(len, row_labels), len(corner))
    lines = ["  " + f"{corner:<{width}}" + "".join(f"{c:>{width}}" for c in col_labels)]
    for r, values in zip(row_labels, table.weights.tolist()):
        lines.append("  " + f"{r:<{width}}" + "".join(f"{_fmt(v, PRETTY_DIGITS):>{width}}" for v in values))
    return "\n".join(lines)


def _single_column(table: ProbabilityTable) -> str:
    (labels,) = table.labels
    width = max(map(len, labels))
    return "\n".join(f"  {label:<{width}}  {_fmt(value, PRETTY_DIGITS)}"
                     for label, value in zip(labels, table.weights.tolist()))


def _cmd_wigner(args) -> int:
    t = args.t if args.t is not None else args.tn + 1.0
    try:
        a, b = _unit_pair(args.a, args.b, "(a, b)")
        alpha, beta = _unit_pair(args.alpha, args.beta, "(alpha, beta)")
        result = tables(WignerScenario(a=a, b=b, alpha=alpha, beta=beta, t_m=args.tm, t_n=args.tn), t)
    except ConditioningOnNullEvent as err:
        print(f"conditional tables undefined at these parameters: {err}", file=sys.stderr)
        return 1
    except ValueError as err:  # every library error is one: DomainError, ScheduleError, a bad flag
        print(f"invalid parameters: {err}", file=sys.stderr)
        return 2
    print(f"joint p(f,w) at t={t:g}")
    print(_grid(result.joint))
    print(f"\nmarginal p(w) at t={t:g}")
    print(_single_column(result.marginal_w))
    print(f"\nmarginal p(f) at t={t:g}")
    print(_single_column(result.marginal_f))
    print(f"\nconditional p(w|f) at t={t:g}")
    print(_grid(result.cond_w_given_f))
    print(f"\nconditional p(f|w) at t={t:g}")
    print(_grid(result.cond_f_given_w))

    if args.csv:
        grids = (
            (result.joint, "joint"),
            (result.marginal_w, "marginal"),
            (result.marginal_f, "marginal"),
            (result.cond_w_given_f, "conditional"),
            (result.cond_f_given_w, "conditional"),
        )
        rows = [
            _result_row(t, kind, value, (FRIEND, WIGNER), dict(zip(table.detectors, key)), table.given or None)
            for table, kind in grids
            for key, value in table.rows
        ]
        if not _write_output(args.csv, _csv_text(rows)):
            return 2
    return 0


def _cmd_validate(args) -> int:
    try:
        scenario = load_scenario(args.file)
        history_layout(scenario.psi0.layout, scenario.schedule)
    except (ScenarioError, DomainError, OSError) as err:  # DomainError: the anchor size limit
        print(f"{args.file}: {err}", file=sys.stderr)
        return 2
    n_events = len(scenario.schedule)
    print(f"{args.file}: ok ({n_events} event{'s' if n_events != 1 else ''}, "
          f"{len(scenario.queries)} quer{'ies' if len(scenario.queries) != 1 else 'y'})")
    return 0


def _cmd_export(args) -> int:
    try:
        scenario = load_scenario(args.file)
    except (ScenarioError, OSError) as err:
        print(f"{args.file}: {err}", file=sys.stderr)
        return 2
    text = dump_scenario(scenario)
    if args.out:
        return 0 if _write_output(args.out, text) else 2
    sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtimeline",
        description="Probabilities of scheduled quantum measurements at a fixed clock reading.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run the queries of a scenario file")
    p_sim.add_argument("file")
    p_sim.add_argument(
        "--query",
        action="append",
        metavar="SPEC",
        help="run SPEC instead of the file's queries, e.g. 'F=up,W=yes@t=3.0' "
             "or 'F=up|W=yes@t=3.0' or 'full-table@t=3.0' (repeatable)",
    )
    p_sim.add_argument("--csv", metavar="PATH", help="also write rows as CSV")
    p_sim.set_defaults(func=_cmd_simulate)

    p_wig = sub.add_parser("wigner", help="friend/Wigner scenario tables from parameters")
    p_wig.add_argument("--a", default="0.7071067811865476", help="system up amplitude, 're' or 're,im'")
    p_wig.add_argument("--b", default="0.7071067811865476", help="system down amplitude")
    p_wig.add_argument("--alpha", default="1", help="yes-state up,up amplitude")
    p_wig.add_argument("--beta", default="0", help="yes-state down,down amplitude")
    p_wig.add_argument("--tm", type=float, default=1.0, help="friend measurement time")
    p_wig.add_argument("--tn", type=float, default=2.0, help="Wigner measurement time")
    p_wig.add_argument("--t", type=float, default=None, help="clock reading (default tn + 1)")
    p_wig.add_argument("--csv", metavar="PATH", help="also write all table entries as CSV")
    p_wig.set_defaults(func=_cmd_wigner)

    p_val = sub.add_parser("validate", help="check a scenario file without running it")
    p_val.add_argument("file")
    p_val.set_defaults(func=_cmd_validate)

    p_exp = sub.add_parser("export", help="re-emit a scenario file in canonical form")
    p_exp.add_argument("file")
    p_exp.add_argument("--out", metavar="PATH", help="write here instead of stdout")
    p_exp.set_defaults(func=_cmd_export)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
