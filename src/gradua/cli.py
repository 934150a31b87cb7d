"""Command-line entry point: run programs, emit deterministic reports.

`gradua run FILE` executes a program and prints a report (JSON by default,
text on request); `gradua check FILE` only parses. FILE may be `-` for
stdin. Exit codes: 0 when every verification command passed, 1 when some
verdict is negative or a command failed, 2 for usage or parse errors, a
program that cannot be read (missing, or not UTF-8) and a report that
cannot be written.

One table, _COMMANDS, maps each command keyword to its runner and to
whether its first argument is a name. A runner takes the program and the
statement's arguments, reads its definitions from the program's tables,
and returns only its own fields; run() writes every entry's prefix
(`command`, the keyword itself, then `name` for a named command) and, when
the engine raises, its error tail (`ok: false`, then `error`). The set of
statement keywords lives in the dsl's table alone: a keyword with no
runner, a declaration, is skipped, and `report` sets the report's format.

Reports serialize deterministically: dictionary keys appear in a fixed
order, every number is an exact rational rendered as a string, and timing
is omitted unless --timing is given, so byte-identical inputs give
byte-identical reports. A JSON report is written by _write_json, which
gives exactly the bytes of json.dumps(payload, indent=2) at about half
the cost: with an indent, json.dumps runs json's pure-Python encoder. The
golden reports and a differential test against json.dumps pin the bytes.
A runner marks each chart and matrix it reports where it builds it
(_Chart, _Matrix: lists, which JSON writes as plain lists), and the text
renderer dispatches on the marks; it tests no list's cells for a shape.

main builds its argument parser once per process (_parser), on first use
and not at import, so a process that calls main many times only parses
its arguments after the first call; a one-shot `python -m gradua` gains
only from the writer.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from dataclasses import dataclass, field as dataclass_field
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable

from .action import analyze
from .dsl import Program, parse
from .errors import (
    GraduaError,
    NotDoubleStructureError,
    ParseError,
    UnsupportedChartError,
)
from .graded import _graded_failures, _graded_matrix
from .jets import prolong
from .multigrade import _flip_names, _is_round_trip, bihomogenize

SCHEMA_VERSION = "1"
SCHEMA_ENV_VAR = "GRADUA_SCHEMA_VERSION"


@dataclass
class Report:
    results: list[dict] = dataclass_field(default_factory=list)
    format: str | None = None

    @property
    def all_ok(self) -> bool:
        return all(entry.get("ok", True) for entry in self.results)


class _Chart(list):
    """A chart in a report, [[variable, weight], ...]: text writes it on one
    line as (v:w, ...). JSON writes it as the list it is."""


class _Matrix(list):
    """A matrix in a report, rows of exact entries as strings: text writes
    one aligned row a line. JSON writes it as the list it is."""


def _matrix_json(matrix) -> _Matrix:
    return _Matrix([str(c) for c in row] for row in matrix)


def _chart_json(chart) -> _Chart:
    return _Chart([v, w] for v, w in chart.variables)


def _pullbacks_json(pmap) -> dict[str, str]:
    return {v: str(pmap.pullbacks[v]) for v in pmap.target.names}


def _run_check_morphism(program: Program, name: str) -> dict:
    pmap = program.maps[name]
    failing = _graded_failures(pmap)  # is_graded_morphism's test
    entry = {"ok": not failing, "graded": not failing}
    if failing:
        entry["failures"] = [
            {"variable": v, "weight": pmap.target.weight_of(v), "pullback": str(pmap.pullbacks[v])}
            for v in failing
        ]
        return entry
    if pmap.source == pmap.target:
        try:
            entry["matrix"] = _matrix_json(_graded_matrix(pmap))
        except UnsupportedChartError:
            pass
    return entry


def _run_analyze_action(program: Program, name: str, point) -> dict:
    report = analyze(program.actions[name], None if point is None else dict(point))
    entry = {
        "ok": report.monoid_ok,
        "semigroup_ok": report.semigroup_ok,
        "monoid_ok": report.monoid_ok,
    }
    if report.witnesses:
        entry["witnesses"] = [
            {"law": w.law, "variable": w.variable, "defect": str(w.difference)}
            for w in report.witnesses
        ]
    if not report.monoid_ok:
        return entry
    hom_chart = report.homogenized_chart
    entry["degree"] = report.degree
    entry["weights"] = sorted(hom_chart.weights)
    entry["theta"] = {v: str(val) for v, val in report.theta.items()}
    entry["homogenized_chart"] = _chart_json(hom_chart)
    entry["homogenizer"] = _pullbacks_json(report.homogenizer)
    entry["inverse"] = _pullbacks_json(report.inverse_homogenizer)
    entry["projections"] = [_matrix_json(q) for q in report.projections]
    return entry


def _run_prolong(program: Program, name: str, order: int) -> dict:
    lifted = prolong(program.maps[name], order)
    return {
        "order": order,
        "ok": True,
        "source": _chart_json(lifted.source),
        "target": _chart_json(lifted.target),
        "pullbacks": _pullbacks_json(lifted),
    }


def _run_check_double(program: Program, name: str) -> dict:
    first_name, second_name = program.doubles[name]
    h1 = program.actions[first_name]
    h2 = program.actions[second_name]
    entry = {"first": first_name, "second": second_name}
    try:
        bihom = bihomogenize(h1, h2)
    except NotDoubleStructureError as exc:
        if exc.detail is None:
            raise
        entry["ok"] = False
        entry["commuting"] = False
        entry["witnesses"] = [
            {"variable": v, "defect": str(d)} for v, d in exc.detail
        ]
        return entry
    entry["ok"] = True
    entry["commuting"] = True
    entry["chart"] = _chart_json(bihom.chart)
    entry["biweights"] = {
        v: list(rs) for v, rs in zip(bihom.chart.names, bihom.orders)
    }
    entry["homogenizer"] = _pullbacks_json(bihom.homogenizer)
    entry["inverse"] = _pullbacks_json(bihom.inverse)
    entry["total_degree"] = bihom.chart.degree
    return entry


def _run_flip(program: Program, m: int, n: int, chart_name: str) -> dict:
    chart = program.charts[chart_name]
    forward = _flip_names(m, n, chart)
    # with m = n the flip maps the chart to itself and is its own candidate inverse
    backward = forward if m == n else _flip_names(n, m, chart)
    round_trip = _is_round_trip(forward, backward)
    source, target, names = forward
    return {
        "m": m,
        "n": n,
        "chart": chart_name,
        "ok": round_trip,
        "round_trip_identity": round_trip,
        "source": _chart_json(source),
        "target": _chart_json(target),
        "renaming": names,
    }


# each command keyword: its runner, and whether its first argument is a name
_COMMANDS: dict[str, tuple[Callable[..., dict], bool]] = {
    "check-morphism": (_run_check_morphism, True),
    "analyze-action": (_run_analyze_action, True),
    "prolong": (_run_prolong, True),
    "check-double": (_run_check_double, True),
    "flip": (_run_flip, False),
}


def run(program: Program, timing: bool = False) -> Report:
    """Execute a program's commands in order against the core engine.

    Engine errors become report entries with ok=false; nothing raises out
    of this function except genuine bugs.
    """
    report = Report()
    started = time.perf_counter()
    for keyword, *args in program.statements:
        if keyword == "report":
            report.format = args[0]
            continue
        command = _COMMANDS.get(keyword)
        if command is None:
            continue
        begun = time.perf_counter()
        runner, named = command
        entry = {"command": keyword}
        if named:
            entry["name"] = args[0]
        try:
            entry.update(runner(program, *args))
        except GraduaError as exc:
            entry["ok"] = False
            entry["error"] = {"type": type(exc).__name__, "message": str(exc)}
        if timing:
            entry["elapsed_ms"] = round((time.perf_counter() - begun) * 1000, 3)
        report.results.append(entry)
    if timing:
        report.results.append(
            {
                "command": "timing",
                "ok": True,
                "total_ms": round((time.perf_counter() - started) * 1000, 3),
            }
        )
    return report


# --- emission ----------------------------------------------------------------


def emit(report: Report, fmt: str) -> str:
    """Deterministic bytes (as text) for a report, JSON or human-readable."""
    if fmt == "json":
        out: list[str] = []
        _write_json({"version": SCHEMA_VERSION, "results": report.results}, "\n", out)
        out.append("\n")
        return "".join(out)
    if fmt != "text":
        raise ValueError(f"unknown format {fmt!r}")
    lines = [f"gradua report (schema {SCHEMA_VERSION})"]
    for entry in report.results:
        title = entry.get("command", "?")
        name = entry.get("name")
        lines.append("")
        lines.append(f"== {title} {name} ==" if name else f"== {title} ==")
        for key, value in entry.items():
            if key in ("command", "name"):
                continue
            lines.extend(_text_lines(key, value, ""))
    return "\n".join(lines) + "\n"


def _write_json(value, newline: str, out: list[str]) -> None:
    """Append the text json.dumps(value, indent=2) gives to out.

    newline is a line break followed by the indent of the line the value
    starts on. A report holds dicts with string keys, lists, strings, ints,
    floats (the --timing fields), bools and None; keys and strings go
    through json's own escaping, and numbers through the reprs json uses,
    so every byte matches json.dumps, whose indented form runs json's
    pure-Python encoder.
    """
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(float.__repr__(value))
    elif isinstance(value, list):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        separator = "[" + inner
        for item in value:
            out.append(separator)
            _write_json(item, inner, out)
            separator = "," + inner
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key, item in value.items():
            out.append(separator)
            out.append(encode_basestring_ascii(key))
            out.append(": ")
            _write_json(item, inner, out)
            separator = "," + inner
        out.append(newline + "}")
    else:
        raise TypeError(f"a report holds no {type(value).__name__}")


def _text_lines(key: str, value, indent: str) -> list[str]:
    """The text lines of one report field. Charts and matrices carry their
    kind (_Chart, _Matrix) from the runner that built them; any other list
    holds scalars, matrices or dicts, all of one kind."""
    if isinstance(value, bool):
        return [f"{indent}{key}: {'yes' if value else 'no'}"]
    if not isinstance(value, (list, dict)):  # None, int, float, str
        return [f"{indent}{key}: {value}"]
    if isinstance(value, dict):
        lines = [f"{indent}{key}:"]
        for k, v in value.items():
            lines.extend(_text_lines(k, v, indent + "  "))
        return lines
    if isinstance(value, _Chart):
        listing = ", ".join(f"{v}:{w}" for v, w in value)
        return [f"{indent}{key}: ({listing})"]
    if isinstance(value, _Matrix):
        widths = [max(len(row[j]) for row in value) for j in range(len(value[0]))]
        lines = [f"{indent}{key}:"]
        for row in value:
            cells = "  ".join(c.rjust(w) for c, w in zip(row, widths))
            lines.append(f"{indent}  [ {cells} ]")
        return lines
    if value and isinstance(value[0], _Matrix):
        lines = []
        for i, item in enumerate(value):
            lines.extend(_text_lines(f"{key}[{i}]", item, indent))
        return lines
    if value and isinstance(value[0], dict):
        lines = [f"{indent}{key}:"]
        for item in value:
            pairs = ", ".join(f"{k}={v}" for k, v in item.items())
            lines.append(f"{indent}  - {pairs}")
        return lines
    return [f"{indent}{key}: {', '.join(map(str, value))}"]


# --- entry point --------------------------------------------------------------


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text(encoding="utf-8")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and kept for the process:
    parse_args leaves it unchanged, so later in-process calls of main only
    parse."""
    parser = argparse.ArgumentParser(
        prog="gradua",
        description="exact engine for weighted charts and parameter families",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser("run", help="execute a program and emit a report")
    run_parser.add_argument("file", help="program file, or - for stdin")
    run_parser.add_argument(
        "--format", choices=("json", "text"), default=None, help="report format"
    )
    run_parser.add_argument("--out", default=None, help="write the report here")
    run_parser.add_argument(
        "--timing", action="store_true", help="include timing (not byte-stable)"
    )
    check_parser = sub.add_parser("check", help="parse a program, report problems")
    check_parser.add_argument("file", help="program file, or - for stdin")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)

    pinned = os.environ.get(SCHEMA_ENV_VAR)
    if pinned is not None and pinned != SCHEMA_VERSION:
        print(
            f"gradua: {SCHEMA_ENV_VAR}={pinned!r} is not supported "
            f"(this build emits schema {SCHEMA_VERSION})",
            file=sys.stderr,
        )
        return 2

    try:
        source = _read_source(args.file)
    except (OSError, UnicodeDecodeError) as exc:
        print(f"gradua: cannot read {args.file!r}: {exc}", file=sys.stderr)
        return 2

    try:
        program = parse(source)
    except ParseError as exc:
        print(f"gradua: {args.file}: {exc}", file=sys.stderr)
        return 2

    if args.command == "check":
        print(f"ok: {len(program.statements)} statements")
        return 0

    report = run(program, timing=args.timing)
    fmt = args.format or report.format or "json"
    rendered = emit(report, fmt)
    if args.out:
        try:
            Path(args.out).write_text(rendered, encoding="utf-8")
        except OSError as exc:
            print(f"gradua: cannot write {args.out!r}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(rendered)
    return 0 if report.all_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
