"""Lexer, parser, and canonical-printer tests.

Error positions and messages are frozen: they are part of the interface a
user sees, so regressions here matter as much as wrong parses.
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradua.charts import GradedChart
from gradua.dsl import (
    KEYWORDS,
    AnalyzeActionCmd,
    ChartStmt,
    Program,
    ReportCmd,
    Span,
    parse,
    print_program,
    tokenize,
)
from gradua.errors import ParseError

DATA = Path(__file__).parent / "data"


# --- lexing -----------------------------------------------------------------


def test_tokenize_kinds_and_spans():
    toks = tokenize("chart V (x:1)")
    assert [(t.kind, t.text) for t in toks] == [
        ("keyword", "chart"),
        ("ident", "V"),
        ("symbol", "("),
        ("ident", "x"),
        ("symbol", ":"),
        ("number", "1"),
        ("symbol", ")"),
        ("eof", ""),
    ]
    assert toks[0].span == Span(1, 1)
    assert toks[1].span == Span(1, 7)
    assert toks[5].value == Fraction(1)


def test_fraction_is_a_single_token():
    toks = tokenize("2/3")
    assert [(t.kind, t.text) for t in toks[:-1]] == [("number", "2/3")]
    assert toks[0].value == Fraction(2, 3)


def test_hyphen_after_ident_is_subtraction():
    # only the three command words swallow a hyphen; x-1 stays arithmetic
    toks = tokenize("x-1")
    assert [(t.kind, t.text) for t in toks[:-1]] == [
        ("ident", "x"),
        ("symbol", "-"),
        ("number", "1"),
    ]
    toks = tokenize("check-morphism m")
    assert (toks[0].kind, toks[0].text) == ("keyword", "check-morphism")


def test_tick_names_lex_as_one_ident():
    toks = tokenize("x'2")
    assert [(t.kind, t.text) for t in toks[:-1]] == [("ident", "x'2")]


def test_comments_and_blank_lines_are_skipped():
    program = parse("# a comment\n\nchart V (x:1)  # trailing\n")
    assert list(program.charts()) == ["V"]


def test_empty_program():
    assert parse("") == Program(())
    assert print_program(Program(())) == ""


# --- declarations and commands ----------------------------------------------


def test_parse_chart_and_map():
    program = parse(
        "chart V (x:1, y:2)\n"
        "map psi : V -> V {\n"
        "  x = 2*x;\n"
        "  y = 3*y + 5*x^2;\n"
        "}\n"
    )
    chart = program.charts()["V"]
    assert chart == GradedChart("V", (("x", 1), ("y", 2)))
    psi = program.maps()["psi"]
    assert str(psi.pullbacks["x"]) == "2*x"
    assert str(psi.pullbacks["y"]) == "5*x^2 + 3*y"


def test_parse_action_uses_reserved_parameter():
    program = parse(
        "chart M (x:1, y:2)\n"
        "action g on M {\n"
        "  x -> t*x;\n"
        "  y -> t^2*y + (t - t^2)*x;\n"
        "}\n"
    )
    g = program.actions()["g"]
    assert g.param == "t"
    assert str(g.entries["x"]) == "x*t"
    assert str(g.entries["y"]) == "y*t^2 - x*t^2 + x*t"


def test_parse_double_and_accessors():
    program = parse(
        "chart M (x:1, y:1)\n"
        "action a1 on M { x -> t*x; y -> y; }\n"
        "action a2 on M { x -> x; y -> t*y; }\n"
        "double D { a1, a2 }\n"
    )
    assert program.doubles() == {"D": ("a1", "a2")}


def test_parse_double_tolerant_input_forms():
    prelude = (
        "chart M (x:1, y:1)\n"
        "action a1 on M { x -> t*x; y -> y; }\n"
        "action a2 on M { x -> x; y -> t*y; }\n"
    )
    canonical = parse(prelude + "double D { a1, a2 }\n")
    for variant in (
        "double D { action a1; action a2 }",
        "double D { action a1; action a2; }",
        "double D { a1; a2 }",
        "double D { action a1, a2 }",
    ):
        assert parse(prelude + variant + "\n") == canonical
    # and the canonical printer normalizes every variant
    printed = print_program(parse(prelude + "double D { action a1; action a2; }\n"))
    assert "double D { a1, a2 }" in printed


def test_analyze_point_with_negative_fraction():
    program = parse(
        "chart V (x:1, y:2)\n"
        "action h on V { x -> t*x; y -> t^2*y; }\n"
        "analyze-action h at (y=2, x=-1/2)\n"
    )
    cmd = program.statements[-1]
    assert isinstance(cmd, AnalyzeActionCmd)
    # point entries come back in chart order, not source order
    assert cmd.point == (("x", Fraction(-1, 2)), ("y", Fraction(2)))


def test_rational_coefficients_in_expressions():
    program = parse("chart V (x:1)\nmap m : V -> V { x = 1/2*x; }\n")
    assert str(program.maps()["m"].pullbacks["x"]) == "1/2*x"


# --- the regex tokenizer against the old character scanner --------------------


def _reference_tokenize(source):
    """The tokenizer as it was before the one-regex scanner, kept as the oracle.

    It walks the program one character at a time with str predicates and
    returns (kind, text, (line, col), value) tuples, raising ParseError
    like tokenize.
    """
    hyphenated = ("check-morphism", "analyze-action", "check-double")

    def is_digit(ch):
        return "0" <= ch <= "9"

    tokens = []
    i = 0
    line = 1
    col = 1
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and source[i] != "\n":
                i += 1
            continue
        span = (line, col)
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] in ("_", "'")):
                j += 1
            word = source[i:j]
            if source[j : j + 1] == "-":
                for kw in hyphenated:
                    if source.startswith(kw, i):
                        word = kw
                        j = i + len(kw)
                        break
            kind = "keyword" if word in KEYWORDS else "ident"
            tokens.append((kind, word, span, None))
            col += j - i
            i = j
            continue
        if is_digit(ch):
            j = i
            while j < n and is_digit(source[j]):
                j += 1
            if source[j : j + 1] == "/" and is_digit(source[j + 1 : j + 2]):
                k = j + 1
                while k < n and is_digit(source[k]):
                    k += 1
                text = source[i:k]
                denominator = int(source[j + 1 : k])
                if not denominator:
                    raise ParseError(f"zero denominator in {text!r}", line, col)
                value = Fraction(int(source[i:j]), denominator)
                j = k
            else:
                text = source[i:j]
                value = Fraction(int(text))
            tokens.append(("number", text, span, value))
            col += j - i
            i = j
            continue
        if source.startswith("->", i):
            tokens.append(("symbol", "->", span, None))
            i += 2
            col += 2
            continue
        if ch in "(){}:;,=+-*^":
            tokens.append(("symbol", ch, span, None))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(("eof", "", (line, col), None))
    return tokens


def _lexed(lex, source):
    """Tokens as plain tuples, or the ParseError message."""
    try:
        return [(t[0], t[1], tuple(t[2]), t[3]) for t in lex(source)]
    except ParseError as exc:
        return str(exc)


_PIECES = [
    *"axyzZ_'éΩª²½٣Ⅷ",  # letters, numerals that are not digits
    *"0129/",
    "/0", "00", "1/0", "3/00",
    *" \t\r\n\f\v\u00a0#",
    *"(){}:;,=+-*^>$",
    "->",
    "check-morphism", "analyze-action", "check-double", "check-", "check",
    "analyze", "-morphism", "chart", "report", "json", "prolong", "t",
]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(_PIECES), max_size=24).map("".join))
def test_tokenize_matches_the_character_scanner(source):
    assert _lexed(tokenize, source) == _lexed(_reference_tokenize, source)


def test_tokenize_matches_the_character_scanner_on_programs():
    rng = random.Random(8)
    for path in sorted(DATA.glob("*.gradua")):
        text = path.read_text()
        assert _lexed(tokenize, text) == _lexed(_reference_tokenize, text), path.name
        for _ in range(200):
            cut = rng.randrange(len(text))
            mutated = text[:cut] + rng.choice(_PIECES) + text[cut + 1 :]
            assert _lexed(tokenize, mutated) == _lexed(_reference_tokenize, mutated)


@pytest.mark.parametrize(
    "source",
    [
        "chart V (x:1)  # trailing",
        "chart V (x:1)\n# last line",
        "#",
        "x\f",
        "check-morphismX",
        "check-doubles",
        "x² = 3²",
        "²x",
        "٣",
        "_a'1 __ x''2",
        "\r\n\t  ",
        "1/0",
        "12/",
        "a->b-->c",
    ],
)
def test_tokenize_edge_cases_match_the_character_scanner(source):
    assert _lexed(tokenize, source) == _lexed(_reference_tokenize, source)


def test_eof_after_a_trailing_comment_stays_at_the_comment():
    toks = tokenize("chart V (x:1)  # trailing")
    assert toks[-1].kind == "eof"
    assert toks[-1].span == Span(1, 16)


# --- frozen errors ----------------------------------------------------------

ERROR_CASES = [
    (
        "chart V (x:1)\nmap m : V -> V {\n  x = x +;\n}\n",
        "line 3, column 10: found ';' (expected a variable, a number, ()",
    ),
    (
        "map m : V -> V { x = x; }",
        "line 1, column 9: unknown chart 'V'",
    ),
    (
        "chart V (x:1)\nchart V (y:1)\n",
        "line 2, column 7: duplicate chart name 'V'",
    ),
    (
        "chart V (x:1)\nmap m : V -> V { x = z; }",
        "line 2, column 22: variable 'z' is not in chart 'V'",
    ),
    (
        "chart V (x:-1)",
        "line 1, column 12: found '-' (expected weight)",
    ),
    (
        "chart V (x:1/2)",
        "line 1, column 12: '1/2' is not an integer (expected weight)",
    ),
    (
        "chart V (x:1, y:1)\nmap m : V -> V { x = x; x = y; y = y; }",
        "line 2, column 25: variable 'x' is assigned twice",
    ),
    (
        "chart V (x:1, y:1)\nmap m : V -> V { x = x; }",
        "line 2, column 5: missing pullbacks for ['y']",
    ),
    (
        "chart V (t:1)\naction h on V { t -> t; }",
        "line 2, column 13: chart 'V' has a variable named 't', "
        "which is reserved for the family parameter",
    ),
    (
        "report",
        "line 1, column 7: unexpected end of input (expected json, text)",
    ),
    (
        "chart V (x:1)\nreport loud",
        "line 2, column 8: found 'loud' (expected json, text)",
    ),
    (
        "chart V (x:1) $",
        "line 1, column 15: unexpected character '$'",
    ),
    (
        "frobnicate",
        "line 1, column 1: found 'frobnicate' "
        "(expected chart, map, action, double, a command)",
    ),
    (
        "chart V (x:1)\nmap m : V -> V { y = x; }",
        "line 2, column 18: variable 'y' is not in chart 'V'",
    ),
    (
        "chart V (x:1)\naction h on V { x -> t*x; }\nanalyze-action h at (x=1, x=2)",
        "line 3, column 27: variable 'x' is given twice",
    ),
    (
        "analyze-action nobody",
        "line 1, column 16: unknown action 'nobody'",
    ),
    (
        "check-morphism nobody",
        "line 1, column 16: unknown map 'nobody'",
    ),
    (
        "check-double nobody",
        "line 1, column 14: unknown double 'nobody'",
    ),
    (
        "double D { a, b }",
        "line 1, column 12: unknown action 'a'",
    ),
    (
        "flip 1 1 Q",
        "line 1, column 10: unknown chart 'Q'",
    ),
    (
        "chart V (x:1)\nmap m : V -> V { x = x^1/2; }",
        "line 2, column 24: '1/2' is not an integer "
        "(expected nonnegative integer exponent)",
    ),
    (
        "chart V (x:1)\nmap m : V -> V { x = x;",
        "line 2, column 24: unexpected end of input (expected target variable)",
    ),
    # str.isdigit accepts superscripts (int() refuses them) and other
    # scripts' digits; number literals take ASCII digits only
    (
        "chart V (x:3\u00b2)",
        "line 1, column 13: unexpected character '\u00b2'",
    ),
    (
        "chart V (x:\u0663)",
        "line 1, column 12: unexpected character '\u0663'",
    ),
    (
        "chart V (x:1)\nmap m : V -> V { x = 1/\u00b3*x; }",
        "line 2, column 23: unexpected character '/'",
    ),
    (
        "chart V (x:1)\nmap m : V -> V { x = 1/0*x; }",
        "line 2, column 22: zero denominator in '1/0'",
    ),
    (
        "chart V (x:1)\nmap m : V -> V { x = x^3/00; }",
        "line 2, column 24: zero denominator in '3/00'",
    ),
]


@pytest.mark.parametrize("source,message", ERROR_CASES, ids=range(len(ERROR_CASES)))
def test_parse_errors_are_frozen(source, message):
    with pytest.raises(ParseError) as exc:
        parse(source)
    assert str(exc.value) == message


# --- canonical printing -----------------------------------------------------

FULL_SOURCE = """\
chart M (x:1, y:2)
map idm : M -> M { y = y; x = x; }
action g on M { x -> t*x; y -> x*(t-t^2) + t^2*y; }
action a1 on M { x -> t*x; y -> y; }
action a2 on M { x -> x; y -> t*y; }
double D { a1, a2 }
check-morphism idm
analyze-action g at (x=0, y=0)
prolong idm order 2
check-double D
flip 1 1 M
report json
"""


def test_print_then_parse_is_identity():
    program = parse(FULL_SOURCE)
    text = print_program(program)
    assert parse(text) == program


def test_print_is_a_fixed_point():
    text = print_program(parse(FULL_SOURCE))
    assert print_program(parse(text)) == text


def test_printed_text_is_canonical():
    # same map written in two different orders prints identically
    a = parse("chart V (x:1, y:2)\nmap m : V -> V { x = x; y = y + x^2; }")
    b = parse("chart V (x:1, y:2)\nmap m : V -> V { y = x^2 + y; x = x; }")
    assert print_program(a) == print_program(b)
    assert a == b


def test_corpus_round_trips():
    sources = sorted(DATA.glob("*.gradua"))
    assert sources, "corpus directory is empty"
    for path in sources:
        program = parse(path.read_text())
        text = print_program(program)
        assert parse(text) == program, path.name
        assert print_program(parse(text)) == text, path.name


def test_report_statement_parses():
    program = parse("report text")
    assert program.statements == (ReportCmd("text"),)


def test_spans_do_not_affect_equality():
    a = parse("chart V (x:1)")
    b = parse("\n\n   chart V (x:1)")
    assert a == b
    assert isinstance(a.statements[0], ChartStmt)
    assert a.statements[0].span != b.statements[0].span
