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

from gradua import cli
from gradua.charts import GradedChart
from gradua.dsl import (
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
    parse,
    print_program,
    tokenize,
)
from gradua.errors import ParseError, ResourceLimitError
from gradua.wpoly import WPolynomial

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


# --- the term-dict expression parser against the object-level one -----------


class _ReferenceParser(_Parser):
    """The expression parser as it was before term dicts, kept as the oracle:
    it builds one WPolynomial per atom and per operator."""

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
            return WPolynomial.constant(chart, tok.value)
        if tok.kind == "ident":
            if tok.text not in chart:
                raise self.error(
                    f"variable {tok.text!r} is not in chart {chart.name!r}", tok
                )
            self.advance()
            return WPolynomial.variable(chart, tok.text)
        if tok.kind == "symbol" and tok.text == "(":
            self.advance()
            inner = self.parse_sum(chart)
            self.expect_symbol(")")
            return inner
        raise self.error(
            f"found {tok.text!r}" if tok.text else "unexpected end of input",
            tok,
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
        # within the variable budget, but x^3 of a 81-term curve is not
        "chart V (x:1)\nmap m : V -> V { x = x^3 + x; }\nprolong m order 80",
        f"line 3, column 17: order 80 may expand the pullbacks to 91962 terms, "
        f"above the budget of {TERM_BUDGET}",
    ),
    (
        "chart V (x:1, y:2)\nflip 1000 1000 V",
        f"line 2, column 16: flip 1000 1000 would adapt chart 'V' to 2004002 "
        f"variables, above the budget of {VARIABLE_BUDGET}",
    ),
]


@pytest.mark.parametrize("source,message", RESOURCE_CASES, ids=range(len(RESOURCE_CASES)))
def test_resource_limits_refuse_before_expanding(source, message):
    with pytest.raises(ResourceLimitError) as exc:
        parse(source)
    assert str(exc.value) == message


def test_budgets_admit_what_they_allow():
    # each check refuses strictly above its budget; nothing here is run
    parse(f"chart V (x:1)\nmap m : V -> V {{ x = x^{DEGREE_BUDGET}; }}")
    parse(f"chart V (x:1)\nmap m : V -> V {{ x = x; }}\nprolong m order {VARIABLE_BUDGET - 1}")
    parse("chart V (x:1)\nmap m : V -> V { x = x^3; }\nprolong m order 37")  # 9880 terms
    parse(f"chart V (x:1)\nflip 9 {VARIABLE_BUDGET // 10 - 1} V")
    with pytest.raises(ResourceLimitError):
        parse(f"chart V (x:1)\nflip 9 {VARIABLE_BUDGET // 10} V")
    # the largest term count a power may reach: comb(2 + e - 1, e) = e + 1
    e = min(DEGREE_BUDGET, TERM_BUDGET - 1)
    parse(f"chart V (x:1, y:1)\nmap m : V -> V {{ x = (x + y)^{e}; y = y; }}")
    # every program in the tests parses within the budgets
    for path in sorted(DATA.glob("*.gradua")):
        parse(path.read_text())


def test_cli_reports_a_resource_limit_as_a_located_parse_error(tmp_path, capsys):
    path = tmp_path / "huge.gradua"
    path.write_text(RESOURCE_CASES[0][0])
    assert cli.main(["run", str(path)]) == 2
    assert capsys.readouterr().err == f"gradua: {path}: {RESOURCE_CASES[0][1]}\n"
