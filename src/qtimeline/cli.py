"""Command-line front end: run scenario files, emit probability tables.

Subcommands: ``simulate <file>``, ``wigner [param flags]``, ``validate <file>``,
``export <file>``.  Exit codes: 0 ok, 1 runtime query error, 2 validation
error or a file that cannot be read or written.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys
from dataclasses import dataclass

from .hilbert import DomainError
from .probability import (ConditioningOnNullEvent, OutcomeQuery, ProbabilityTable, conditional, full_table,
                          joint, marginal)
from .scenario import ScenarioError, dump_scenario, load_scenario, parse_query_string
from .timeline import HistoryState, build_history
from .wigner import FRIEND, WIGNER, WignerScenario, tables, unit_pair

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
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as err:
        print(f"{path}: {err}", file=sys.stderr)
        return False
    return True


def _print_rows(rows: list[ResultRow], total: bool = False) -> None:
    encoding = sys.stdout.encoding or "utf-8"  # pad each label by its width as stdout prints it, escapes included
    labels = [row.assignment.encode(encoding, "backslashreplace").decode(encoding) for row in rows]
    width = max(map(len, labels))
    for row, label in zip(rows, labels):
        print(f"  {row.kind:<12} t={row.t:<8g} {label:<{width}}  {_fmt(row.value, PRETTY_DIGITS)}")
    if total:
        print(f"  {'total':<12} {'':<10} {'':<{width}}  {_fmt(sum(r.value for r in rows), PRETTY_DIGITS)}")


def _cmd_simulate(args) -> int:
    try:
        scenario = load_scenario(args.file)
        history = build_history(scenario.psi0, scenario.t0, scenario.h_system, scenario.schedule)
    except (ScenarioError, DomainError, OSError) as err:  # DomainError: the phase rule, all a parsed file can fail
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
        full = query.given is None and not query.assignments
        if full:
            print(f"full table at t={query.t:g}")
        _print_rows(rows, total=full)
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
        a, b = unit_pair(_parse_complex(args.a), _parse_complex(args.b), "(a, b)")
        alpha, beta = unit_pair(_parse_complex(args.alpha), _parse_complex(args.beta), "(alpha, beta)")
        result = tables(WignerScenario(a=a, b=b, alpha=alpha, beta=beta, t_m=args.tm, t_n=args.tn), t)
    except ConditioningOnNullEvent as err:
        print(f"conditional tables undefined at these parameters: {err}", file=sys.stderr)
        return 1
    except ValueError as err:  # every library error is one: DomainError, ScheduleError, a bad flag
        print(f"invalid parameters: {err}", file=sys.stderr)
        return 2
    sections = (  # title, table, text form, CSV kind
        ("joint p(f,w)", result.joint, _grid, "joint"),
        ("marginal p(w)", result.marginal_w, _single_column, "marginal"),
        ("marginal p(f)", result.marginal_f, _single_column, "marginal"),
        ("conditional p(w|f)", result.cond_w_given_f, _grid, "conditional"),
        ("conditional p(f|w)", result.cond_f_given_w, _grid, "conditional"),
    )
    print("\n\n".join(f"{title} at t={t:g}\n{text(table)}" for title, table, text, _ in sections))

    if args.csv:
        rows = [
            _result_row(t, kind, value, (FRIEND, WIGNER), dict(zip(table.detectors, key)), table.given or None)
            for _, table, _, kind in sections
            for key, value in table.rows
        ]
        if not _write_output(args.csv, _csv_text(rows)):
            return 2
    return 0


def _cmd_validate(args) -> int:
    try:
        scenario = load_scenario(args.file)
    except (ScenarioError, OSError) as err:
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
    if hasattr(sys.stdout, "reconfigure"):  # a label the locale cannot encode prints escaped, as stderr prints it
        sys.stdout.reconfigure(errors="backslashreplace")
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here at the latest, not in the interpreter's exit flush
    except BrokenPipeError:  # the reader stopped early (``| head``): exit 1, no traceback, exit flush to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
