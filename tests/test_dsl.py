"""Lexer, parser, and canonical-printer tests.

Error positions and messages are frozen: they are part of the interface a
user sees, so regressions here matter as much as wrong parses.
"""

import random
import time
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradua import cli, dsl
from gradua.charts import GradedChart
from gradua.dsl import (
    BIT_BUDGET,
    DEGREE_BUDGET,
    KEYWORDS,
    TERM_BUDGET,
    VARIABLE_BUDGET,
    AnalyzeActionCmd,
    ChartStmt,
    Program,
    ReportCmd,
    Span,
    _Parser,
    _number,
    parse,
    print_program,
    tokenize,
)
from gradua.errors import ParseError, ResourceLimitError
from gradua.graded import PolyMap
from gradua.jets import prolong
from gradua.wpoly import WPolynomial

from helpers import random_chart, random_homogeneous

DATA = Path(__file__).parent / "data"


# --- lexing -----------------------------------------------------------------

_SYMBOLS = frozenset(["->", *"(){}:;,=+-*^"])


def _kind(text):
    """A token's kind, read off its text as the Tokens docstring states: a
    keyword or a symbol is its own text, a number starts with a digit and
    an identifier with a letter or `_`; eof's text is empty."""
    if not text:
        return "eof"
    if text in KEYWORDS:
        return "keyword"
    if text in _SYMBOLS:
        return "symbol"
    return "number" if text[0] in "0123456789" else "ident"


def _lexemes(source):
    """(kind, text, span) of each token of source, eof included."""
    tokens = tokenize(source)
    return [(_kind(text), text, tokens.span(i)) for i, text in enumerate(tokens.texts)]


def test_tokenize_kinds_and_spans():
    toks = _lexemes("chart V (x:1)")
    assert [(kind, text) for kind, text, _ in toks] == [
        ("keyword", "chart"),
        ("ident", "V"),
        ("symbol", "("),
        ("ident", "x"),
        ("symbol", ":"),
        ("number", "1"),
        ("symbol", ")"),
        ("eof", ""),
    ]
    assert toks[0][2] == Span(1, 1)
    assert toks[1][2] == Span(1, 7)
    assert _number(toks[5][1]) == 1


def test_fraction_is_a_single_token():
    toks = _lexemes("2/3")
    assert [(kind, text) for kind, text, _ in toks[:-1]] == [("number", "2/3")]
    assert _number(toks[0][1]) == Fraction(2, 3)


def test_hyphen_after_ident_is_subtraction():
    # only the three command words swallow a hyphen; x-1 stays arithmetic
    toks = _lexemes("x-1")
    assert [(kind, text) for kind, text, _ in toks[:-1]] == [
        ("ident", "x"),
        ("symbol", "-"),
        ("number", "1"),
    ]
    assert _lexemes("check-morphism m")[0][:2] == ("keyword", "check-morphism")


def test_tick_names_lex_as_one_ident():
    toks = _lexemes("x'2")
    assert [(kind, text) for kind, text, _ in toks[:-1]] == [("ident", "x'2")]


def test_comments_and_blank_lines_are_skipped():
    program = parse("# a comment\n\nchart V (x:1)  # trailing\n")
    assert list(program.charts) == ["V"]


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
    chart = program.charts["V"]
    assert chart == GradedChart("V", (("x", 1), ("y", 2)))
    psi = program.maps["psi"]
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
    g = program.actions["g"]
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
    assert program.doubles == {"D": ("a1", "a2")}


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
    assert str(program.maps["m"].pullbacks["x"]) == "1/2*x"


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
    """Each token's kind, text and (line, col) as plain tuples, or the
    ParseError message."""
    try:
        return [(t[0], t[1], tuple(t[2])) for t in lex(source)]
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
    assert _lexed(_lexemes, source) == _lexed(_reference_tokenize, source)


def test_tokenize_matches_the_character_scanner_on_programs():
    rng = random.Random(8)
    for path in sorted(DATA.glob("*.gradua")):
        text = path.read_text()
        assert _lexed(_lexemes, text) == _lexed(_reference_tokenize, text), path.name
        for _ in range(200):
            cut = rng.randrange(len(text))
            mutated = text[:cut] + rng.choice(_PIECES) + text[cut + 1 :]
            assert _lexed(_lexemes, mutated) == _lexed(_reference_tokenize, mutated)


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
    assert _lexed(_lexemes, source) == _lexed(_reference_tokenize, source)


def test_eof_after_a_trailing_comment_stays_at_the_comment():
    kind, _, span = _lexemes("chart V (x:1)  # trailing")[-1]
    assert (kind, span) == ("eof", Span(1, 16))


class _ScanCountingSource(str):
    """A source that tallies the characters its str searches scan."""

    scanned = 0

    def _tally(self, start=None, end=None):
        type(self).scanned += len(range(len(self))[start:end])

    def count(self, sub, start=None, end=None):
        self._tally(start, end)
        return str.count(self, sub, start, end)

    def find(self, sub, start=None, end=None):
        self._tally(start, end)
        return str.find(self, sub, start, end)

    def rfind(self, sub, start=None, end=None):
        self._tally(start, end)
        return str.rfind(self, sub, start, end)

    def split(self, sep=None, maxsplit=-1):
        self._tally()
        return str.split(self, sep, maxsplit)


@pytest.mark.parametrize("statements", [50, 400])
def test_locating_tokens_scans_the_source_a_bounded_number_of_times(statements):
    """Every statement span, name and reference is located, yet the source
    is scanned a fixed number of times, however many statements it has."""
    lines = []
    for i in range(statements):
        lines.append(f"chart C{i} (x:1, y:2)")
        lines.append(f"map m{i} : C{i} -> C{i} {{ x = x + 2*x^3; y = y - x^2; }}")
        lines.append(f"  check-morphism m{i}  # line {3 * i + 3}")
    source = _ScanCountingSource("\n".join(lines) + "\n")
    _ScanCountingSource.scanned = 0
    program = parse(source)
    assert _ScanCountingSource.scanned <= 3 * len(source)
    spans = [stmt.span for stmt in program.statements]
    assert spans == [Span(line, 3 if line % 3 == 0 else 1) for line in range(1, 3 * statements + 1)]


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


FULL_PRINTED = """\
chart M (x:1, y:2)
map idm : M -> M {
  x = x;
  y = y;
}
action g on M {
  x -> x*t;
  y -> y*t^2 - x*t^2 + x*t;
}
action a1 on M {
  x -> x*t;
  y -> y;
}
action a2 on M {
  x -> x;
  y -> y*t;
}
double D { a1, a2 }
check-morphism idm
analyze-action g at (x=0, y=0)
prolong idm order 2
check-double D
flip 1 1 M
report json
"""


def test_printed_text_is_frozen():
    assert print_program(parse(FULL_SOURCE)) == FULL_PRINTED
    # analyze-action without a point
    source = "chart M (x:1)\naction g on M {\n  x -> x*t;\n}\nanalyze-action g\n"
    assert print_program(parse(source)) == source


def test_every_statement_class_prints_itself_under_its_table_keyword():
    """Each statement kind states its canonical text once, in its own
    __str__, and the text starts with the keyword whose parser in
    _Parser.STATEMENTS reads it back (test_print_then_parse_is_identity).
    The span is declared once, on the Statement base."""
    classes = set(dsl.Statement.__subclasses__())
    assert all("__str__" in vars(cls) for cls in classes)
    assert not any("span" in vars(cls).get("__annotations__", {}) for cls in classes)
    assert set(_Parser.STATEMENTS) <= KEYWORDS
    program = parse(FULL_SOURCE)
    assert {type(stmt) for stmt in program.statements} == classes
    keywords = {str(stmt).split(" ")[0] for stmt in program.statements}
    assert keywords == set(_Parser.STATEMENTS)


def test_keywords_are_the_statement_table_and_five_inner_words():
    """Each keyword is written once: the words that lex as keywords are the
    keys of _Parser.STATEMENTS and on, at, order, json and text, which are
    read only inside statements. A hyphenated keyword lexes whole, and a
    word that only starts like one does not."""
    inner = {"on", "at", "order", "json", "text"}
    assert not inner & set(_Parser.STATEMENTS)
    assert KEYWORDS == set(_Parser.STATEMENTS) | inner
    near = ["check", "morphism", "check-", "double-check", "ons", "reports", "tuple"]
    lexemes = _lexemes(" ".join(sorted(KEYWORDS) + near))
    keywords = [text for kind, text, _ in lexemes if kind == "keyword"]
    assert set(keywords) == KEYWORDS
    assert len(keywords) == len(KEYWORDS) + 1  # the `double` of double-check


def test_report_statement_parses():
    program = parse("report text")
    assert program.statements == (ReportCmd("text"),)


def test_spans_do_not_affect_equality():
    a = parse("chart V (x:1)")
    b = parse("\n\n   chart V (x:1)")
    assert a == b
    assert isinstance(a.statements[0], ChartStmt)
    assert a.statements[0].span != b.statements[0].span


# --- the term-dict expression parser against the object-level one -----------


class _Token(NamedTuple):
    kind: str
    text: str
    at: int


class _ReferenceParser(_Parser):
    """The expression parser as it was before term dicts, kept as the oracle:
    it builds one WPolynomial per atom and per operator, and reads a token
    of kind, text and position at each step."""

    def peek(self):
        text = self.texts[self.pos]
        return _Token(_kind(text), text, self.pos)

    def advance(self):
        tok = self.peek()
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def parse_expression(self, chart):
        return self.parse_sum(chart)

    def parse_sum(self, chart):
        acc = self.parse_product(chart)
        while True:
            tok = self.peek()
            if tok.kind == "symbol" and tok.text in ("+", "-"):
                self.advance()
                rhs = self.parse_product(chart)
                acc = acc + rhs if tok.text == "+" else acc - rhs
                continue
            return acc

    def parse_product(self, chart):
        acc = self.parse_unary(chart)
        while True:
            tok = self.peek()
            if tok.kind == "symbol" and tok.text == "*":
                self.advance()
                acc = acc * self.parse_unary(chart)
                continue
            return acc

    def parse_unary(self, chart):
        tok = self.peek()
        if tok.kind == "symbol" and tok.text == "-":
            self.advance()
            return -self.parse_unary(chart)
        return self.parse_power(chart)

    def parse_power(self, chart):
        base = self.parse_atom(chart)
        tok = self.peek()
        if tok.kind == "symbol" and tok.text == "^":
            self.advance()
            exponent, etok = self.expect_integer("nonnegative integer exponent")
            if exponent < 0:
                raise self.error("exponents must be nonnegative", etok)
            return base**exponent
        return base

    def parse_atom(self, chart):
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return WPolynomial.constant(chart, Fraction(tok.text))
        if tok.kind == "ident":
            if tok.text not in chart:
                raise self.error(
                    f"variable {tok.text!r} is not in chart {chart.name!r}", tok.at
                )
            self.advance()
            return WPolynomial.variable(chart, tok.text)
        if tok.kind == "symbol" and tok.text == "(":
            self.advance()
            inner = self.parse_sum(chart)
            self.require(")")
            return inner
        raise self.error(
            f"found {tok.text!r}" if tok.text else "unexpected end of input",
            tok.at,
            ("a variable", "a number", "("),
        )


EXPR_CHART = GradedChart("E", (("b", 0), ("x", 1), ("y", 2)))


def _parsed(parser_class, source):
    """The parsed polynomial and the stop position, or the error's particulars."""
    parser = parser_class(tokenize(source))
    try:
        poly = parser.parse_expression(EXPR_CHART)
    except ParseError as exc:
        return type(exc), exc.message, exc.line, exc.col, exc.expected
    # equal polynomials with the same coefficient types: int when integral
    return poly, {m: type(c) for m, c in poly.terms.items()}, parser.pos


def _random_expression(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(["b", "x", "y", "0", "1", "2", "7", "1/2", "2/3", "3/2", "4/6"])
    a = _random_expression(rng, depth - 1)
    b = _random_expression(rng, depth - 1)
    return rng.choice([
        f"{a} + {b}",
        f"{a} - {b}",
        f"{a}*{b}",
        f"{a} - ({a})",
        f"({a})*({b})",
        f"-{a}",
        f"- -({a})",
        f"-(-(-{a}))",
        f"({a})^{rng.randint(0, 3)}",
        f"(({a}))",
        f"0*{a}",
        f"2/3*3/2*{a}",
    ])


FIXED_EXPRESSIONS = [
    "x - x",
    "0*x",
    "x^0",
    "(x + y)^0",
    "0^0",
    "0^2",
    "2/3*3/2",
    "2/3*3/2*x - x",
    "1/2*x*2 + 4/6*y*3/2",
    "- - - x",
    "-(-(x - y)) + -(y - x)",
    "((((x))))^2 - x*x",
    "b^3*x - x*b*b*b",
    "(b + x)^3 - (b + x)*(b + x)^2",
    "3/4*(x + 4/3*y)^2",
    "0",
]


def test_term_dict_parser_matches_the_object_parser():
    rng = random.Random(11)
    sources = FIXED_EXPRESSIONS + [_random_expression(rng, 4) for _ in range(300)]
    for source in sources:
        got = _parsed(_Parser, source)
        assert got == _parsed(_ReferenceParser, source), source
        assert all((type(c) is int) == (c.denominator == 1) for c in got[0].terms.values())
    assert _parsed(_Parser, "x - x")[0].is_zero()
    assert _parsed(_Parser, "2/3*3/2*x - x")[0].is_zero()
    assert _parsed(_Parser, "1/2*x*2")[1] == {((1, 1),): int}


def test_term_dict_parser_errors_match_the_object_parser():
    rng = random.Random(12)
    junk = ["(", ")", "+", "-", "*", "^", "^-1", "1/2", "z", "t", ";", "^x", "", "2/0"]
    errors = 0
    for i in range(400):
        source = _random_expression(rng, 3)
        tokens = source.split(" ")
        cut = rng.randrange(len(tokens) + 1)
        if i % 3 == 0:
            broken = " ".join(tokens[:cut])  # truncated
        elif i % 3 == 1:
            broken = " ".join(tokens[:cut] + [rng.choice(junk)] + tokens[cut:])
        else:
            pos = rng.randrange(len(source) + 1)
            broken = source[:pos] + rng.choice(junk) + source[pos:]
        try:
            tokenize(broken)
        except ParseError:  # refused before either parser runs
            continue
        got = _parsed(_Parser, broken)
        assert got == _parsed(_ReferenceParser, broken), broken
        errors += not isinstance(got[0], WPolynomial)
    assert errors > 100


# --- resource budgets ---------------------------------------------------------

RESOURCE_CASES = [
    (
        "chart V (x:1, y:1)\nmap m : V -> V { x = (x + y)^100000; y = y; }",
        f"line 2, column 30: exponent 100000 on a base of total degree 1 "
        f"exceeds the degree budget of {DEGREE_BUDGET}",
    ),
    (
        "chart V (x:1)\nmap m : V -> V { x = x*2^1000000; }",
        f"line 2, column 26: exponent 1000000 on a base of total degree 0 "
        f"exceeds the degree budget of {DEGREE_BUDGET}",
    ),
    (
        "chart V (x:1)\nmap m : V -> V { x = ((x^2)^30)^30; }",
        f"line 2, column 33: exponent 30 on a base of total degree 60 "
        f"exceeds the degree budget of {DEGREE_BUDGET}",
    ),
    (
        "chart V (a:1, b:1, c:1, d:1, e:1, f:1)\n"
        "map m : V -> V { a = (a + b + c + d + e + f)^20; b = b; c = c; d = d; e = e; f = f; }",
        f"line 2, column 46: exponent 20 on a base of 6 terms may give more "
        f"terms than the budget of {TERM_BUDGET}",
    ),
    (
        "chart V (x:1)\nmap m : V -> V { x = x; }\nprolong m order 1000000",
        f"line 3, column 17: order 1000000 would adapt a chart to 1000001 "
        f"variables, above the budget of {VARIABLE_BUDGET}",
    ),
    (
        # within the variable budget, but the 81 levels of x^3 are not
        "chart V (x:1)\nmap m : V -> V { x = x^3 + x; }\nprolong m order 80",
        f"line 3, column 17: order 80 may expand the pullbacks to 16244 terms, "
        f"above the budget of {TERM_BUDGET}",
    ),
    (
        "chart V (x:1, y:2)\nflip 1000 1000 V",
        f"line 2, column 16: flip 1000 1000 would adapt chart 'V' to 2004002 "
        f"variables, above the budget of {VARIABLE_BUDGET}",
    ),
    (
        # each power is within the budget (165 terms), their product is not
        "chart V (a:1, b:1, c:1, d:1)\n"
        "map m : V -> V { a = (a + b + c + d)^8*(a + b + c + d)^8; b = b; c = c; d = d; }",
        f"line 2, column 39: a product of 165 by 165 terms may give more "
        f"terms than the budget of {TERM_BUDGET}",
    ),
    (
        "chart V (x:1)\nmap m : V -> V { x = x^1001; }",
        f"line 2, column 24: exponent 1001 on a base of total degree 1 "
        f"exceeds the degree budget of {DEGREE_BUDGET}",
    ),
    (
        "chart V (x:1)\nmap m : V -> V { x = x*(2)^1001; }",
        f"line 2, column 28: exponent 1001 on a base of total degree 0 "
        f"exceeds the degree budget of {DEGREE_BUDGET}",
    ),
    # within the degree, bit and term budgets, but seconds of coefficient work
    (
        "chart V (x:1)\nmap m : V -> V { x = (x + 15)^1000; }",
        f"line 2, column 31: exponent 1000 on a base of 2 terms may give 1001 "
        f"terms of 4000 bits, more work than {TERM_BUDGET} terms "
        f"of {BIT_BUDGET} bits",
    ),
    (
        "chart V (x:1, y:1)\nmap m : V -> V { x = (x + y)^1000; y = y; }",
        f"line 2, column 30: exponent 1000 on a base of 2 terms may give 1001 "
        f"terms of 1000 bits, more work than {TERM_BUDGET} terms "
        f"of {BIT_BUDGET} bits",
    ),
    (
        "chart V (x:1, y:1)\nmap m : V -> V { x = (x + y + 1)^60; y = y; }",
        f"line 2, column 34: exponent 60 on a base of 3 terms may give 1891 "
        f"terms of 60 bits, more work than {TERM_BUDGET} terms "
        f"of {BIT_BUDGET} bits",
    ),
]


@pytest.mark.parametrize("source,message", RESOURCE_CASES, ids=range(len(RESOURCE_CASES)))
def test_resource_limits_refuse_before_expanding(source, message):
    with pytest.raises(ResourceLimitError) as exc:
        parse(source)
    assert str(exc.value) == message


def test_a_product_over_the_budget_is_refused_before_it_is_expanded(monkeypatch):
    def expand(a, b):
        raise AssertionError(f"a product of {len(a)} by {len(b)} terms was expanded")

    monkeypatch.setattr(dsl, "_terms_mul", expand)
    with pytest.raises(ResourceLimitError) as exc:
        parse(
            "chart V (a:1, b:1, c:1, d:1)\n"
            "map m : V -> V { a = (a + b + c + d)^8*(a + b + c + d)^8; b = b; c = c; d = d; }"
        )
    assert (exc.value.line, exc.value.col) == (2, 39)


def test_the_product_budget_counts_the_terms_of_the_product_so_far():
    """One-term factors keep a product's term count and a zero factor
    empties it, wherever they stand among the factors."""
    chart = "chart V (a:1, b:1, c:1, d:1)\n"
    rest = "; b = b; c = c; d = d; }"
    big = "(a + b + c + d)^8"  # 165 terms
    parse(f"{chart}map m : V -> V {{ a = {big}*0*{big}{rest}")
    parse(f"{chart}map m : V -> V {{ a = -0*{big}*{big}{rest}")
    source = f"{chart}map m : V -> V {{ a = {big}*2*a^3*-1/2*{big}{rest}"
    with pytest.raises(ResourceLimitError) as exc:
        parse(source)
    assert str(exc.value) == (
        f"line 2, column {source.rindex('*(') - len(chart) + 1}: a product of 165 "
        f"by 165 terms may give more terms than the budget of {TERM_BUDGET}"
    )


def test_budgets_admit_what_they_allow():
    # each check refuses strictly above its budget; nothing here is run
    parse(f"chart V (x:1)\nmap m : V -> V {{ x = x^{DEGREE_BUDGET}; }}")
    parse(f"chart V (x:1)\nmap m : V -> V {{ x = x; }}\nprolong m order {VARIABLE_BUDGET - 1}")
    parse("chart V (x:1)\nmap m : V -> V { x = x^3; }\nprolong m order 67")  # 9726 terms
    with pytest.raises(ResourceLimitError):
        parse("chart V (x:1)\nmap m : V -> V { x = x^3; }\nprolong m order 68")  # 10146
    parse("chart V (x:1)\nmap m : V -> V { x = x^20; }\nprolong m order 8")  # 67 terms
    parse(f"chart V (x:1)\nflip 9 {VARIABLE_BUDGET // 10 - 1} V")
    with pytest.raises(ResourceLimitError):
        parse(f"chart V (x:1)\nflip 9 {VARIABLE_BUDGET // 10} V")
    # the largest power of x + y the work budget admits: its term bound
    # squared times its bit bound, (e + 1)^2 * e, may not pass TERM_BUDGET *
    # BIT_BUDGET, so e = 344
    parse("chart V (x:1, y:1)\nmap m : V -> V { x = (x + y)^344; y = y; }")
    with pytest.raises(ResourceLimitError):
        parse("chart V (x:1, y:1)\nmap m : V -> V { x = (x + y)^345; y = y; }")
    # the largest product the budget admits: 100 by 100 terms
    parse(
        "chart V (x:1, y:1)\n"
        "map m : V -> V { x = (x + y)^99*(x + y)^99; y = y; }"
    )
    # every program in the tests parses within the budgets
    for path in sorted(DATA.glob("*.gradua")):
        parse(path.read_text())


@pytest.mark.parametrize(
    "pullback,order,terms",
    [("x^20", 8, 67), ("x^3*y^2", 4, 33), ("x^4*y*z^2", 5, 124), ("x^3", 80, 16163), ("7", 3, 1)],
)
def test_the_prolong_budget_counts_the_terms_the_leibniz_rule_builds(pullback, order, terms):
    """For one monomial the count is exact: the prolongation of u = m has
    that many terms over its levels 0..order."""
    chart = "chart V (x:1, y:1, z:1)\nchart U (u:1)\n"
    program = parse(f"{chart}map m : V -> U {{ u = {pullback}; }}\n")
    (mono,) = program.maps["m"].pullbacks["u"].terms
    assert dsl._level_terms([mono], order) == terms
    if terms < TERM_BUDGET:
        lifted = prolong(program.maps["m"], order)
        assert sum(len(p.terms) for p in lifted.pullbacks.values()) == terms


def test_the_prolong_budget_counts_the_built_terms_on_seeded_maps():
    """On maps of several terms per pullback the count is the number of
    terms the prolongation builds: at least that many, and no more, as the
    levels of distinct monomials never meet."""
    rng = random.Random(35)
    for _ in range(60):
        chart = random_chart(rng, max_rank=(2, 2, 1))
        pullbacks = {
            v: random_homogeneous(rng, chart, w, max_terms=3, min_terms=1)
            + WPolynomial.variable(chart, v)
            for v, w in chart.variables
        }
        phi = PolyMap(chart, chart, pullbacks)
        order = rng.randint(0, 4)
        monomials = [m for p in phi.pullbacks.values() for m in p.terms]
        built = sum(len(p.terms) for p in prolong(phi, order).pullbacks.values())
        bound = dsl._level_terms(monomials, order)
        assert bound == built


def test_a_prolongation_just_under_the_budget_is_quick():
    """The count admits x^6, y^6, z^6 at order 24, 9663 terms, and building
    them takes a fraction of the fuzz test's two seconds."""
    source = (
        "chart V (x:1, y:1, z:1)\n"
        "map m : V -> V { x = x^6; y = y^6; z = z^6; }\nprolong m order 24\n"
    )
    program = parse(source)
    assert dsl._level_terms([m for p in program.maps["m"].pullbacks.values() for m in p.terms], 24) == 9663
    started = time.perf_counter()
    lifted = prolong(program.maps["m"], 24)
    elapsed = time.perf_counter() - started
    assert sum(len(p.terms) for p in lifted.pullbacks.values()) == 9663
    assert elapsed < 1.0, elapsed
    with pytest.raises(ResourceLimitError):
        parse(source.replace("order 24", "order 25"))


def test_cli_reports_a_resource_limit_as_a_located_parse_error(tmp_path, capsys):
    path = tmp_path / "huge.gradua"
    path.write_text(RESOURCE_CASES[0][0])
    assert cli.main(["run", str(path)]) == 2
    assert capsys.readouterr().err == f"gradua: {path}: {RESOURCE_CASES[0][1]}\n"
