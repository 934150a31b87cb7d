"""End-to-end command-line tests, run through subprocess like a user would,
and the shape of every report entry, checked on cli.run in process.

The JSON goldens pin the report bytes: if serialization drifts, these fail
and the golden files must be regenerated on purpose, not by accident. The
report writer is checked byte for byte against json.dumps(indent=2), and
main, whose parser is built once per process, against fresh processes.
"""

import argparse
import json
import os
import random
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradua import cli, dsl
from gradua.errors import DomainError, GraduaError, ParseError

HERE = Path(__file__).parent
DATA = HERE / "data"
GOLDEN = HERE / "golden"

GOLDEN_CASES = [
    ("scaling.gradua", "scaling.json", 0),
    ("shear.gradua", "shear.json", 0),
    ("monoid_gap.gradua", "monoid_gap.json", 1),
    ("tour.gradua", "tour.txt", 0),
]


def gradua(*args, stdin=None, env_extra=None):
    env = os.environ.copy()
    env.pop("GRADUA_SCHEMA_VERSION", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "gradua", *args],
        capture_output=True,
        text=True,
        input=stdin,
        env=env,
    )


@pytest.mark.parametrize("source,golden,code", GOLDEN_CASES)
def test_golden_outputs(source, golden, code):
    result = gradua("run", str(DATA / source))
    assert result.returncode == code, result.stderr
    assert result.stdout == (GOLDEN / golden).read_text()


def test_reports_are_byte_stable():
    first = gradua("run", str(DATA / "tour.gradua"))
    second = gradua("run", str(DATA / "tour.gradua"))
    assert first.stdout == second.stdout
    assert first.stdout.encode() == second.stdout.encode()


def test_format_flag_overrides_report_directive():
    # tour.gradua says `report text`; the flag wins
    result = gradua("run", str(DATA / "tour.gradua"), "--format", "json")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["version"] == "1"
    assert [e["command"] for e in payload["results"]] == [
        "analyze-action",
        "prolong",
        "check-double",
        "flip",
    ]


def test_text_format_on_json_default_program():
    result = gradua("run", str(DATA / "scaling.gradua"), "--format", "text")
    assert result.returncode == 0
    assert result.stdout.startswith("gradua report (schema 1)\n")
    assert "graded: yes" in result.stdout


def test_out_writes_file_and_keeps_stdout_quiet(tmp_path):
    out = tmp_path / "report.json"
    result = gradua("run", str(DATA / "scaling.gradua"), "--out", str(out))
    assert result.returncode == 0
    assert result.stdout == ""
    assert out.read_text() == (GOLDEN / "scaling.json").read_text()


def test_stdin_dash():
    source = (DATA / "scaling.gradua").read_text()
    result = gradua("run", "-", stdin=source)
    assert result.returncode == 0
    assert result.stdout == (GOLDEN / "scaling.json").read_text()


def test_check_subcommand_only_parses():
    result = gradua("check", str(DATA / "tour.gradua"))
    assert result.returncode == 0
    assert result.stdout == "ok: 11 statements\n"


def test_check_reports_parse_errors():
    result = gradua("check", "-", stdin="chart V (x:)")
    assert result.returncode == 2
    assert "line 1, column 12" in result.stderr


def test_parse_error_exit_code_and_location():
    result = gradua("run", "-", stdin="chart V (x:1)\nmap m : V -> V { x = +; }\n")
    assert result.returncode == 2
    assert result.stdout == ""
    assert "line 2" in result.stderr and "column" in result.stderr


@pytest.mark.parametrize("literal,col", [("3\u00b2", 23), ("1/0", 22)])
def test_malformed_number_literal_is_a_parse_error(literal, col):
    source = f"chart V (x:1)\nmap m : V -> V {{ x = {literal}*x; }}\n"
    result = gradua("run", "-", stdin=source)
    assert result.returncode == 2
    assert result.stdout == ""
    assert f"line 2, column {col}:" in result.stderr
    assert "Traceback" not in result.stderr


# Numbers above the bit budget (dsl.BIT_BUDGET) are refused where they are
# written, before anything is expanded or printed: a literal Python cannot
# convert, a power whose report Python cannot print, a power that takes
# seconds to expand, and a product of in-budget factors, plain or grouped.
_MAP = "chart C (x:1)\nmap m : C -> C {{ x = {}; }}\ncheck-morphism m\n"
BIG_NUMBER_CASES = [
    ("check", _MAP.format("7" * 5000 + "*x"), 22),
    ("run", _MAP.format("10000000000^430*x"), 34),
    ("run", _MAP.format("(x + 2^999)^200"), 34),
    ("run", _MAP.format("2^1000*2^1000*2^1000*x"), 35),
    ("run", _MAP.format("(x + 2^999)^2*(x + 2^999)^2*(x + 2^999)^2"), 49),
]


@pytest.mark.parametrize("command,source,col", BIG_NUMBER_CASES, ids=range(len(BIG_NUMBER_CASES)))
def test_numbers_above_the_bit_budget_are_parse_errors(command, source, col):
    result = gradua(command, "-", stdin=source)
    assert result.returncode == 2
    assert result.stdout == ""
    assert f"line 2, column {col}:" in result.stderr
    assert f"coefficient budget of {dsl.BIT_BUDGET} bits" in result.stderr
    assert "Traceback" not in result.stderr


def test_a_power_above_the_work_budget_is_a_parse_error():
    # every other budget holds; expanding it took seconds before it was refused
    result = gradua("run", "-", stdin=_MAP.format("(x + 15)^1000"))
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == (
        "gradua: -: line 2, column 31: exponent 1000 on a base of 2 terms may give "
        f"1001 terms of 4000 bits, more work than {dsl.TERM_BUDGET} "
        f"terms of {dsl.BIT_BUDGET} bits\n"
    )
    assert "Traceback" not in result.stderr


def test_missing_file_is_usage_error():
    result = gradua("run", str(DATA / "no_such_file.gradua"))
    assert result.returncode == 2
    assert "cannot read" in result.stderr


def test_unwritable_out_is_usage_error(tmp_path):
    out = tmp_path / "no_such_dir" / "r.json"
    result = gradua("run", str(DATA / "scaling.gradua"), "--out", str(out))
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith(f"gradua: cannot write {str(out)!r}: ")
    assert "Traceback" not in result.stderr
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "check"])
def test_program_that_is_not_utf8_is_usage_error(tmp_path, command):
    path = tmp_path / "b.gradua"
    path.write_bytes(b"\xff\xfe chart")
    result = gradua(command, str(path))
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith(f"gradua: cannot read {str(path)!r}: ")
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("command", ["run", "check"])
def test_missing_file_is_usage_error_for_both_commands(command):
    result = gradua(command, str(DATA / "no_such_file.gradua"))
    assert result.returncode == 2
    assert "gradua: cannot read" in result.stderr
    assert "Traceback" not in result.stderr


def test_bad_usage_exits_2():
    result = gradua()
    assert result.returncode == 2
    result = gradua("run", str(DATA / "scaling.gradua"), "--format", "yaml")
    assert result.returncode == 2


def test_schema_pin_accepts_current_and_rejects_others():
    ok = gradua(
        "run",
        str(DATA / "scaling.gradua"),
        env_extra={"GRADUA_SCHEMA_VERSION": "1"},
    )
    assert ok.returncode == 0
    bad = gradua(
        "run",
        str(DATA / "scaling.gradua"),
        env_extra={"GRADUA_SCHEMA_VERSION": "9"},
    )
    assert bad.returncode == 2
    assert bad.stdout == ""
    assert "GRADUA_SCHEMA_VERSION" in bad.stderr


def test_command_error_becomes_entry():
    source = (
        "chart V (x:1)\n"
        "action h on V { x -> t*x; }\n"
        "analyze-action h at (x=3)\n"
    )
    result = gradua("run", "-", stdin=source)
    assert result.returncode == 1
    payload = json.loads(result.stdout)
    entry = payload["results"][0]
    assert entry["ok"] is False
    assert entry["error"]["type"] == "DomainError"
    assert entry["error"]["message"] == "theta is not fixed by the parameter-0 map"


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_a_coefficient_past_the_int_to_str_limit_is_a_typed_entry(fmt):
    """K = 2^4000 + 1 is inside BIT_BUDGET, but the semigroup witness of
    this family holds K^4, about 16,000 bits: more decimal digits than
    Python writes. The run reports a typed ok: false entry and exits 1,
    with no traceback; the process-wide limit is left as it is."""
    k = 2**4000 + 1
    source = (
        "chart V (a:1, b:1)\n"
        f"action h on V {{ a -> t*a + t^2*{k}*a^3; b -> t*b; }}\n"
        "analyze-action h\n"
    )
    limit = sys.get_int_max_str_digits()
    result = gradua("run", "-", "--format", fmt, stdin=source)
    assert result.returncode == 1
    assert result.stderr == ""
    message = f"a coefficient of 16001 bits has more than the {limit} decimal digits Python writes"
    if fmt == "json":
        assert json.loads(result.stdout)["results"] == [
            {
                "command": "analyze-action",
                "name": "h",
                "ok": False,
                "error": {"type": "DomainError", "message": message},
            }
        ]
    else:
        assert "type: DomainError" in result.stdout and message in result.stdout
    assert issubclass(DomainError, GraduaError) and not issubclass(DomainError, ParseError)


def test_timing_fields_only_with_flag():
    plain = json.loads(gradua("run", str(DATA / "scaling.gradua")).stdout)
    assert all("elapsed_ms" not in e for e in plain["results"])
    timed_run = gradua("run", str(DATA / "scaling.gradua"), "--timing")
    assert timed_run.returncode == 0
    timed = json.loads(timed_run.stdout)
    assert all("elapsed_ms" in e for e in timed["results"][:-1])
    assert timed["results"][-1]["command"] == "timing"
    assert "total_ms" in timed["results"][-1]


def test_failure_report_still_renders_as_text():
    result = gradua("run", str(DATA / "monoid_gap.gradua"), "--format", "text")
    assert result.returncode == 1
    assert "monoid_ok: no" in result.stdout
    assert "defect=y" in result.stdout


# --- the shape of a report entry ----------------------------------------------

# Each of the five commands, passing, with a negative verdict, and failing:
# `h` does not fix x = 3 at t = 0, and `g` commutes with itself but is not
# a monoid action.
SHAPE_PROGRAM = """
chart V (x:1)
chart M (x:1, y:2)
chart W (a:0, b:1)
map idm : M -> M { x = x; y = y; }
map sq : M -> M { x = x*x; y = y; }
action h on V { x -> t*x; }
action g on V { x -> x + 1; }
action a1 on M { x -> t*x; y -> y; }
action a2 on M { x -> x; y -> t*y; }
action s on M { x -> t*x; y -> t*y + x; }
double D { a1, a2 }
double E { a1, s }
double G { g, g }
check-morphism idm
check-morphism sq
analyze-action h
analyze-action h at (x=3)
prolong idm order 1
check-double D
check-double E
check-double G
flip 1 1 M
flip 1 2 W
"""

# The keys of each entry, in order: `command`, then `name` for a statement
# that has one (flip has none), then the runner's fields, or `ok` and `error`.
ENTRY_KEYS = [
    ["command", "name", "ok", "graded", "matrix"],
    ["command", "name", "ok", "graded", "failures"],
    [
        "command", "name", "ok", "semigroup_ok", "monoid_ok", "degree", "weights",
        "theta", "homogenized_chart", "homogenizer", "inverse", "projections",
    ],
    ["command", "name", "ok", "error"],
    ["command", "name", "order", "ok", "source", "target", "pullbacks"],
    [
        "command", "name", "first", "second", "ok", "commuting", "chart",
        "biweights", "homogenizer", "inverse", "total_degree",
    ],
    ["command", "name", "first", "second", "ok", "commuting", "witnesses"],
    ["command", "name", "ok", "error"],
    [
        "command", "m", "n", "chart", "ok", "round_trip_identity", "source",
        "target", "renaming",
    ],
    [
        "command", "m", "n", "chart", "ok", "round_trip_identity", "source",
        "target", "renaming",
    ],
]


@pytest.mark.parametrize("timing", [False, True])
def test_every_report_entry_keeps_its_key_order(timing):
    results = cli.run(dsl.parse(SHAPE_PROGRAM), timing=timing).results
    if timing:
        assert list(results.pop()) == ["command", "ok", "total_ms"]
    expected = [keys + ["elapsed_ms"] if timing else keys for keys in ENTRY_KEYS]
    assert [list(entry) for entry in results] == expected
    assert {entry["command"] for entry in results} == {
        "check-morphism", "analyze-action", "prolong", "check-double", "flip"
    }
    errors = [entry["error"] for entry in results if "error" in entry]
    assert [list(error) for error in errors] == [["type", "message"]] * 2
    assert [error["type"] for error in errors] == [
        "DomainError", "InconsistentActionError"
    ]
    assert all(entry["ok"] is False for entry in results if "error" in entry)


def test_the_command_table_covers_exactly_the_command_statements():
    """_COMMANDS is keyed by the dsl's statement keywords: every one but the
    four declarations and `report`, and each report entry's title is its
    keyword."""
    declarations = {"chart", "map", "action", "double"}
    statements = set(dsl._Parser.STATEMENTS)
    assert set(cli._COMMANDS) == statements - declarations - {"report"}
    assert all(isinstance(named, bool) for _, named in cli._COMMANDS.values())
    program = dsl.parse(SHAPE_PROGRAM)
    commands = [stmt[0] for stmt in program.statements if stmt[0] in cli._COMMANDS]
    assert [entry["command"] for entry in cli.run(program).results] == commands


# --- the kind marks against the shape tests they replaced -----------------------


def _is_matrix(value) -> bool:
    """cli's matrix test from before a matrix carried its kind, kept as the
    oracle: a nonempty list of lists of strings."""
    return (
        isinstance(value, list)
        and bool(value)
        and all(
            isinstance(row, list) and all(isinstance(c, str) for c in row)
            for row in value
        )
    )


def _is_chart_listing(value) -> bool:
    """cli's chart test from before a chart carried its kind, kept as the
    oracle: a nonempty list of [str, int] pairs."""
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


def _lists(value):
    """Every list in a report value, at any depth, the value included."""
    if isinstance(value, dict):
        value = list(value.values())
    elif isinstance(value, list):
        yield value
    else:
        return
    for item in value:
        yield from _lists(item)


def _kind(item) -> str:
    if isinstance(item, dict):
        return "dict"
    if isinstance(item, cli._Matrix):
        return "matrix"
    return "list" if isinstance(item, list) else "scalar"


def test_charts_and_matrices_carry_their_mark_where_the_shape_tests_see_one():
    """A list in a report is marked a chart (cli._Chart) or a matrix
    (cli._Matrix) exactly when the shape test the text renderer used before
    the marks says it is one, so a runner that forgets a mark fails here.
    Every list also holds items of one kind: scalars, matrices or dicts,
    which are the lists the renderer writes. Run on tests/data,
    SHAPE_PROGRAM and the 50 programs of a benchmark pass at seed 1."""
    sources = [path.read_text() for path in sorted(DATA.glob("*.gradua"))]
    sources.append(SHAPE_PROGRAM)
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(HERE.parent / "perfbench"))
        import progs

        rng = random.Random("programs:1")
        sources += [progs.build(rng, i).source for i in range(50)]
    seen = Counter()
    for source in sources:
        for entry in cli.run(dsl.parse(source)).results:
            for value in _lists(entry):
                assert isinstance(value, cli._Chart) == _is_chart_listing(value), value
                assert isinstance(value, cli._Matrix) == _is_matrix(value), value
                if type(value) is list:
                    kinds = {_kind(item) for item in value}
                    assert len(kinds) <= 1 and "list" not in kinds, value
                    seen.update(kinds)
                else:
                    seen[type(value).__name__] += 1
    assert set(seen) == {"_Chart", "_Matrix", "scalar", "matrix", "dict"}, seen


# --- the JSON writer against json.dumps ----------------------------------------


def json_reference(report):
    payload = {"version": cli.SCHEMA_VERSION, "results": report.results}
    return json.dumps(payload, indent=2) + "\n"


# strings with what json escapes: quotes, backslashes, control characters
# and characters outside ASCII
_TEXT = st.text(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f') | st.characters(), max_size=8)
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**130), max_value=2**130)
    | st.floats(allow_nan=False, allow_infinity=False)
    | _TEXT
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=16,
)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.dictionaries(_TEXT, _VALUES, max_size=5), max_size=4))
def test_the_json_writer_gives_the_bytes_of_json_dumps(results):
    report = cli.Report(results)
    assert cli.emit(report, "json") == json_reference(report)


@pytest.mark.parametrize("timing", [False, True])
def test_every_test_program_emits_the_bytes_of_json_dumps(timing):
    sources = [path.read_text() for path in sorted(DATA.glob("*.gradua"))]
    for source in sources + [SHAPE_PROGRAM]:
        report = cli.run(dsl.parse(source), timing=timing)
        assert cli.emit(report, "json") == json_reference(report)


@pytest.mark.parametrize("source,golden,code", GOLDEN_CASES)
def test_golden_outputs_in_process(source, golden, code, capsys):
    assert cli.main(["run", str(DATA / source)]) == code
    assert capsys.readouterr().out == (GOLDEN / golden).read_text()


# --- one parser per process ----------------------------------------------------


def test_the_cached_parser_keeps_no_state(tmp_path, monkeypatch, capsys):
    """A sequence of in-process calls of main gives, call by call, the stdout,
    stderr, exit code and --out file of the same call in a fresh process,
    and builds the parser once: the top-level parser and its two
    subparsers are the only ArgumentParsers constructed."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    cli._parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv(cli.SCHEMA_ENV_VAR, raising=False)
    scaling = str(DATA / "scaling.gradua")
    calls = [
        (["run", scaling, "--format", "json"], {}),
        (["run", str(DATA / "tour.gradua"), "--format", "text"], {}),
        (["check", str(DATA / "tour.gradua")], {}),
        (["run", str(DATA / "monoid_gap.gradua"), "--out", "{out}"], {}),
        (["run", scaling, "--format", "json", "--timing"], {}),
        (["run", scaling, "--format", "yaml"], {}),
        (["run", scaling], {cli.SCHEMA_ENV_VAR: "9"}),
    ]

    def untimed(text):
        return re.sub(r'"(elapsed_ms|total_ms)": [0-9.e-]+', r'"\1": _', text)

    def in_process(args, env):
        with monkeypatch.context() as patch:
            for key, value in env.items():
                patch.setenv(key, value)
            try:
                code = cli.main(args)
            except SystemExit as exc:
                code = exc.code
        out, err = capsys.readouterr()
        return code, untimed(out), err

    def fresh(args, env):
        result = gradua(*args, env_extra={**env, "COLUMNS": "80"})
        return result.returncode, untimed(result.stdout), result.stderr

    codes = []
    for i, (args, env) in enumerate(calls):
        outs = [tmp_path / f"{i}-{side}.json" for side in ("in", "fresh")]
        got = in_process([a.format(out=outs[0]) for a in args], env)
        assert got == fresh([a.format(out=outs[1]) for a in args], env), args
        if "{out}" in args:
            assert outs[0].read_text() == outs[1].read_text() != ""
        codes.append(got[0])
    assert codes == [0, 0, 0, 1, 0, 2, 2]
    assert built == ["gradua", "gradua run", "gradua check"]
