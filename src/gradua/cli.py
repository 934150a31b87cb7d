"""Command-line entry point: run programs, emit deterministic reports.

`gradua run FILE` executes a program and prints a report (JSON by default,
text on request); `gradua check FILE` only parses. FILE may be `-` for
stdin. Exit codes: 0 when every verification command passed, 1 when some
verdict is negative or a command failed, 2 for usage or parse errors, a
program that cannot be read (missing, or not UTF-8) and a report that
cannot be written.

Reports serialize deterministically: dictionary keys appear in a fixed
order, every number is an exact rational rendered as a string, and timing
is omitted unless --timing is given, so byte-identical inputs give
byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path

from .action import analyze
from .charts import fresh_name
from .dsl import (
    AnalyzeActionCmd,
    CheckDoubleCmd,
    CheckMorphismCmd,
    FlipCmd,
    Program,
    ProlongCmd,
    ReportCmd,
    parse,
)
from .errors import (
    GraduaError,
    NotDoubleStructureError,
    ParseError,
    UnsupportedChartError,
)
from .graded import _graded_matrix
from .jets import prolong
from .multigrade import bihomogenize, flip, is_renaming_round_trip

SCHEMA_VERSION = "1"
SCHEMA_ENV_VAR = "GRADUA_SCHEMA_VERSION"


@dataclass
class Report:
    version: str = SCHEMA_VERSION
    results: list[dict] = dataclass_field(default_factory=list)
    format: str | None = None

    @property
    def all_ok(self) -> bool:
        return all(entry.get("ok", True) for entry in self.results)


def _matrix_json(matrix) -> list[list[str]]:
    return [[str(c) for c in row] for row in matrix]


def _chart_json(chart) -> list[list]:
    return [[v, w] for v, w in chart.variables]


def _pullbacks_json(pmap) -> dict[str, str]:
    return {v: str(pmap.pullbacks[v]) for v in pmap.target.names}


def _run_check_morphism(stmt: CheckMorphismCmd, maps) -> dict:
    pmap = maps[stmt.name]
    # is_graded_morphism's test, run once per target variable to list failures
    failures = [
        {"variable": v, "weight": w, "pullback": str(pmap.pullbacks[v])}
        for v, w in pmap.target.variables
        if not pmap.pullbacks[v].is_homogeneous(w)
    ]
    graded = not failures
    entry = {
        "command": "check-morphism",
        "name": stmt.name,
        "ok": graded,
        "graded": graded,
    }
    if not graded:
        entry["failures"] = failures
        return entry
    if pmap.source == pmap.target:
        try:
            entry["matrix"] = _matrix_json(_graded_matrix(pmap))
        except UnsupportedChartError:
            pass
    return entry


def _run_analyze_action(stmt: AnalyzeActionCmd, actions) -> dict:
    family = actions[stmt.name]
    theta = dict(stmt.point) if stmt.point is not None else None
    entry = {"command": "analyze-action", "name": stmt.name}
    report = analyze(family, theta)
    entry["ok"] = report.monoid_ok
    entry["semigroup_ok"] = report.semigroup_ok
    entry["monoid_ok"] = report.monoid_ok
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


def _run_prolong(stmt: ProlongCmd, maps) -> dict:
    lifted = prolong(maps[stmt.name], stmt.order)
    return {
        "command": "prolong",
        "name": stmt.name,
        "order": stmt.order,
        "ok": True,
        "source": _chart_json(lifted.source),
        "target": _chart_json(lifted.target),
        "pullbacks": _pullbacks_json(lifted),
    }


def _run_check_double(stmt: CheckDoubleCmd, actions, doubles) -> dict:
    first_name, second_name = doubles[stmt.name]
    h1 = actions[first_name]
    h2 = actions[second_name]
    h2 = h2.with_param(fresh_name("u", h2.chart.names + (h1.param,)))
    entry = {
        "command": "check-double",
        "name": stmt.name,
        "first": first_name,
        "second": second_name,
    }
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
        v: list(rs) for v, rs in zip(bihom.chart.names, bihom.biweights)
    }
    entry["homogenizer"] = _pullbacks_json(bihom.homogenizer)
    entry["inverse"] = _pullbacks_json(bihom.inverse)
    entry["total_degree"] = bihom.chart.degree
    return entry


def _run_flip(stmt: FlipCmd, charts) -> dict:
    chart = charts[stmt.chart_name]
    forward = flip(stmt.m, stmt.n, chart)
    # with m = n the flip maps the chart to itself and is its own candidate inverse
    backward = forward if stmt.m == stmt.n else flip(stmt.n, stmt.m, chart)
    round_trip = is_renaming_round_trip(forward, backward)
    return {
        "command": "flip",
        "m": stmt.m,
        "n": stmt.n,
        "chart": stmt.chart_name,
        "ok": round_trip,
        "round_trip_identity": round_trip,
        "source": _chart_json(forward.source),
        "target": _chart_json(forward.target),
        "renaming": _pullbacks_json(forward),
    }


def run(program: Program, timing: bool = False) -> Report:
    """Execute a program's commands in order against the core engine.

    Engine errors become report entries with ok=false; nothing raises out
    of this function except genuine bugs.
    """
    charts = program.charts()
    maps = program.maps()
    actions = program.actions()
    doubles = program.doubles()
    report = Report()
    started = time.perf_counter()
    commands = (CheckMorphismCmd, AnalyzeActionCmd, ProlongCmd, CheckDoubleCmd, FlipCmd)
    for stmt in program.statements:
        if isinstance(stmt, ReportCmd):
            report.format = stmt.format
            continue
        if not isinstance(stmt, commands):
            continue
        begun = time.perf_counter()
        try:
            if isinstance(stmt, CheckMorphismCmd):
                entry = _run_check_morphism(stmt, maps)
            elif isinstance(stmt, AnalyzeActionCmd):
                entry = _run_analyze_action(stmt, actions)
            elif isinstance(stmt, ProlongCmd):
                entry = _run_prolong(stmt, maps)
            elif isinstance(stmt, CheckDoubleCmd):
                entry = _run_check_double(stmt, actions, doubles)
            else:
                entry = _run_flip(stmt, charts)
        except GraduaError as exc:
            entry = {"command": _command_name(stmt)}
            name = getattr(stmt, "name", None)
            if name is not None:
                entry["name"] = name
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


def _command_name(stmt) -> str:
    return {
        CheckMorphismCmd: "check-morphism",
        AnalyzeActionCmd: "analyze-action",
        ProlongCmd: "prolong",
        CheckDoubleCmd: "check-double",
        FlipCmd: "flip",
    }[type(stmt)]


# --- emission ----------------------------------------------------------------


def emit(report: Report, fmt: str) -> str:
    """Deterministic bytes (as text) for a report, JSON or human-readable."""
    if fmt == "json":
        payload = {"version": report.version, "results": report.results}
        return json.dumps(payload, indent=2) + "\n"
    if fmt != "text":
        raise ValueError(f"unknown format {fmt!r}")
    lines = [f"gradua report (schema {report.version})"]
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


def _is_matrix(value) -> bool:
    return (
        isinstance(value, list)
        and bool(value)
        and all(
            isinstance(row, list) and all(isinstance(c, str) for c in row)
            for row in value
        )
    )


def _is_chart_listing(value) -> bool:
    return (
        isinstance(value, list)
        and bool(value)
        and all(
            isinstance(item, list)
            and len(item) == 2
            and isinstance(item[0], str)
            and isinstance(item[1], int)
            for item in value
        )
    )


def _text_lines(key: str, value, indent: str) -> list[str]:
    if isinstance(value, bool):
        return [f"{indent}{key}: {'yes' if value else 'no'}"]
    if value is None or isinstance(value, (int, float, str)):
        return [f"{indent}{key}: {value}"]
    if _is_chart_listing(value):
        listing = ", ".join(f"{v}:{w}" for v, w in value)
        return [f"{indent}{key}: ({listing})"]
    if _is_matrix(value):
        widths = [
            max(len(row[j]) for row in value) for j in range(len(value[0]))
        ]
        lines = [f"{indent}{key}:"]
        for row in value:
            cells = "  ".join(c.rjust(w) for c, w in zip(row, widths))
            lines.append(f"{indent}  [ {cells} ]")
        return lines
    if isinstance(value, list):
        if all(isinstance(item, (int, float, str)) for item in value):
            joined = ", ".join(str(item) for item in value)
            return [f"{indent}{key}: {joined}"]
        if all(_is_matrix(item) for item in value):
            lines = []
            for i, item in enumerate(value):
                lines.extend(_text_lines(f"{key}[{i}]", item, indent))
            return lines
        lines = [f"{indent}{key}:"]
        for item in value:
            if isinstance(item, dict):
                pairs = ", ".join(f"{k}={v}" for k, v in item.items())
                lines.append(f"{indent}  - {pairs}")
            else:
                lines.append(f"{indent}  - {item}")
        return lines
    if isinstance(value, dict):
        lines = [f"{indent}{key}:"]
        for k, v in value.items():
            lines.extend(_text_lines(k, v, indent + "  "))
        return lines
    return [f"{indent}{key}: {value}"]


# --- entry point --------------------------------------------------------------


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text(encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
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
    args = parser.parse_args(argv)

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
