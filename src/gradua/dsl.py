"""A small declaration language for charts, maps, and parameter families.

Programs are sequences of declarations (chart, map, action, double) and
commands (check-morphism, analyze-action, prolong, check-double, flip,
report). Parsing resolves every reference on the spot: expressions are
evaluated into exact polynomials over the declared charts, so a parsed
program carries finished engine objects and no unresolved names. Printing a
program emits canonical text (polynomials in canonical term order), and
parsing that text yields an equal program, spans aside.

Rationals are single tokens (2/3); there is no division operator. The
family parameter in action bodies is always called t.

Three fixed budgets keep one line from exhausting memory. A power, a
prolongation or a flip above one is refused before anything is expanded,
with a ResourceLimitError (a ParseError) at the offending token.

The tokenizer scans with one compiled regular expression, one alternative
per token class, and builds tokens and spans as named tuples. An
identifier starts with a letter (str.isalpha) or `_` and goes on with
letters, digits (str.isalnum), `_` and `'`; number literals use ASCII
digits only. Any other character, `\f` included, is a parse error at its
line and column.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, prod
from typing import Callable, NamedTuple

from .charts import GradedChart
from .errors import DomainError, ParseError, ResourceLimitError
from .graded import ActionFamily, PolyMap
from .wpoly import (
    Monomial,
    WPolynomial,
    _coefficient,
    _terms_add_into,
    _terms_mul,
    _terms_pow,
)

KEYWORDS = {
    "chart",
    "map",
    "action",
    "double",
    "on",
    "at",
    "order",
    "prolong",
    "flip",
    "report",
    "json",
    "text",
    "check-morphism",
    "analyze-action",
    "check-double",
}

# One alternative per token class, tried in order at each position: the
# hyphenated keywords come before identifiers, so `check-morphismX` lexes as
# the keyword and then `X`. `\w` is str.isalnum() or `_`, so `[^\W\d]` also
# admits numerals that are not letters, such as `²`; tokenize refuses a word
# that starts with one. `[0-9]` is ASCII only (str.isdigit accepts `²`,
# which int() refuses). Any other character, `\f` included, is `bad`.
_TOKEN = re.compile(
    r"(?P<space>[ \t\r]+)"
    r"|(?P<newline>\n)"
    r"|(?P<comment>#[^\n]*)"
    r"|(?P<hyphenated>check-morphism|analyze-action|check-double)"
    r"|(?P<word>[^\W\d][\w']*)"
    r"|(?P<number>(?P<num>[0-9]+)(?:/(?P<den>[0-9]+))?)"
    r"|(?P<symbol>->|[(){}:;,=+\-*^])"
    r"|(?P<bad>.)",
    re.DOTALL,
)


class Span(NamedTuple):
    line: int
    col: int


class Token(NamedTuple):
    kind: str  # "ident", "number", "keyword", "symbol", "eof"
    text: str
    span: Span
    value: Fraction | None = None


def tokenize(source: str) -> list[Token]:
    """Tokens of a program, ending with an eof token; raises ParseError.

    Lines and columns count from 1, in characters. A comment does not move
    the column, so after a trailing comment with no newline the eof token
    sits where the comment starts.
    """
    tokens: list[Token] = []
    append = tokens.append
    line = 1
    line_start = 0
    col = 1
    group = None
    for m in _TOKEN.finditer(source):
        group = m.lastgroup
        if group == "space":
            continue
        if group == "newline":
            line += 1
            line_start = m.end()
            continue
        col = m.start() - line_start + 1
        if group == "comment":
            continue
        text = m.group()
        if group == "word":
            first = text[0]
            if not (first.isalpha() or first == "_"):
                raise ParseError(f"unexpected character {first!r}", line, col)
            kind = "keyword" if text in KEYWORDS else "ident"
            append(Token(kind, text, Span(line, col)))
        elif group == "symbol":
            append(Token("symbol", text, Span(line, col)))
        elif group == "number":
            den = m.group("den")
            if den is None:
                value = Fraction(int(text))
            else:
                denominator = int(den)
                if not denominator:
                    raise ParseError(f"zero denominator in {text!r}", line, col)
                value = Fraction(int(m.group("num")), denominator)
            append(Token("number", text, Span(line, col), value))
        elif group == "hyphenated":
            append(Token("keyword", text, Span(line, col)))
        else:
            raise ParseError(f"unexpected character {text!r}", line, col)
    if group != "comment":
        col = len(source) - line_start + 1
    append(Token("eof", "", Span(line, col)))
    return tokens


@dataclass(frozen=True)
class ChartStmt:
    name: str
    chart: GradedChart
    span: Span = field(compare=False, repr=False, default=Span(0, 0))


@dataclass(frozen=True)
class MapStmt:
    name: str
    pmap: PolyMap
    span: Span = field(compare=False, repr=False, default=Span(0, 0))


@dataclass(frozen=True)
class ActionStmt:
    name: str
    family: ActionFamily
    span: Span = field(compare=False, repr=False, default=Span(0, 0))


@dataclass(frozen=True)
class DoubleStmt:
    name: str
    first: str
    second: str
    span: Span = field(compare=False, repr=False, default=Span(0, 0))


@dataclass(frozen=True)
class CheckMorphismCmd:
    name: str
    span: Span = field(compare=False, repr=False, default=Span(0, 0))


@dataclass(frozen=True)
class AnalyzeActionCmd:
    name: str
    point: tuple[tuple[str, Fraction], ...] | None = None
    span: Span = field(compare=False, repr=False, default=Span(0, 0))


@dataclass(frozen=True)
class ProlongCmd:
    name: str
    order: int
    span: Span = field(compare=False, repr=False, default=Span(0, 0))


@dataclass(frozen=True)
class CheckDoubleCmd:
    name: str
    span: Span = field(compare=False, repr=False, default=Span(0, 0))


@dataclass(frozen=True)
class FlipCmd:
    m: int
    n: int
    chart_name: str
    span: Span = field(compare=False, repr=False, default=Span(0, 0))


@dataclass(frozen=True)
class ReportCmd:
    format: str
    span: Span = field(compare=False, repr=False, default=Span(0, 0))


Statement = (
    ChartStmt
    | MapStmt
    | ActionStmt
    | DoubleStmt
    | CheckMorphismCmd
    | AnalyzeActionCmd
    | ProlongCmd
    | CheckDoubleCmd
    | FlipCmd
    | ReportCmd
)

ACTION_PARAM = "t"

# Budgets that keep one line of a program from exhausting the machine; a
# statement above one raises ResourceLimitError at the offending token. The
# largest programs in the tests and the benchmark use ^3, order 4 and
# flip 2 2 on three variables (27 variables).
DEGREE_BUDGET = 1000  # exponent times the base's total degree (at least 1)
TERM_BUDGET = 10_000  # the most terms a power or a prolongation can expand to
VARIABLE_BUDGET = 1000  # variables of an adapted chart (prolong, flip)


@dataclass(frozen=True)
class Program:
    statements: tuple[Statement, ...]

    def charts(self) -> dict[str, GradedChart]:
        return {s.name: s.chart for s in self.statements if isinstance(s, ChartStmt)}

    def maps(self) -> dict[str, PolyMap]:
        return {s.name: s.pmap for s in self.statements if isinstance(s, MapStmt)}

    def actions(self) -> dict[str, ActionFamily]:
        return {
            s.name: s.family for s in self.statements if isinstance(s, ActionStmt)
        }

    def doubles(self) -> dict[str, tuple[str, str]]:
        return {
            s.name: (s.first, s.second)
            for s in self.statements
            if isinstance(s, DoubleStmt)
        }


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.charts: dict[str, GradedChart] = {}
        self.maps: dict[str, PolyMap] = {}
        self.actions: dict[str, ActionFamily] = {}
        self.doubles: dict[str, tuple[str, str]] = {}

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def error(self, message: str, tok: Token, expected: tuple[str, ...] = ()) -> ParseError:
        return ParseError(message, tok.span.line, tok.span.col, expected)

    def expect_symbol(self, text: str) -> Token:
        tok = self.peek()
        if tok.kind == "symbol" and tok.text == text:
            return self.advance()
        raise self.error(f"found {tok.text!r}" if tok.text else "unexpected end of input", tok, (text,))

    def expect_keyword(self, text: str) -> Token:
        tok = self.peek()
        if tok.kind == "keyword" and tok.text == text:
            return self.advance()
        raise self.error(f"found {tok.text!r}" if tok.text else "unexpected end of input", tok, (text,))

    def expect_ident(self, what: str) -> Token:
        tok = self.peek()
        if tok.kind == "ident":
            return self.advance()
        raise self.error(
            f"found {tok.text!r}" if tok.text else "unexpected end of input",
            tok,
            (what,),
        )

    def expect_number(self, what: str = "number") -> Token:
        tok = self.peek()
        if tok.kind == "number":
            return self.advance()
        raise self.error(
            f"found {tok.text!r}" if tok.text else "unexpected end of input",
            tok,
            (what,),
        )

    def expect_integer(self, what: str) -> tuple[int, Token]:
        tok = self.expect_number(what)
        assert tok.value is not None
        if tok.value.denominator != 1:
            raise self.error(f"{tok.text!r} is not an integer", tok, (what,))
        return int(tok.value), tok

    # --- declarations -----------------------------------------------------

    def parse_program(self) -> Program:
        statements: list[Statement] = []
        while True:
            tok = self.peek()
            if tok.kind == "eof":
                break
            if tok.kind != "keyword":
                raise self.error(
                    f"found {tok.text!r}",
                    tok,
                    ("chart", "map", "action", "double", "a command"),
                )
            handler: Callable[[], Statement] | None = {
                "chart": self.parse_chart,
                "map": self.parse_map,
                "action": self.parse_action,
                "double": self.parse_double,
                "check-morphism": self.parse_check_morphism,
                "analyze-action": self.parse_analyze_action,
                "prolong": self.parse_prolong,
                "check-double": self.parse_check_double,
                "flip": self.parse_flip,
                "report": self.parse_report,
            }.get(tok.text)
            if handler is None:
                raise self.error(
                    f"{tok.text!r} cannot start a statement",
                    tok,
                    ("chart", "map", "action", "double", "a command"),
                )
            statements.append(handler())
        return Program(tuple(statements))

    def define(self, table: dict, name: str, value, tok: Token, kind: str) -> None:
        if name in table:
            raise self.error(f"duplicate {kind} name {name!r}", tok)
        table[name] = value

    def lookup(self, table: dict, tok: Token, kind: str):
        if tok.text not in table:
            raise self.error(f"unknown {kind} {tok.text!r}", tok)
        return table[tok.text]

    def parse_chart(self) -> ChartStmt:
        kw = self.expect_keyword("chart")
        name_tok = self.expect_ident("chart name")
        self.expect_symbol("(")
        variables: list[tuple[str, int]] = []
        while True:
            var_tok = self.expect_ident("variable name")
            self.expect_symbol(":")
            weight, wtok = self.expect_integer("weight")
            if weight < 0:
                raise self.error("weights must be nonnegative", wtok)
            variables.append((var_tok.text, weight))
            tok = self.peek()
            if tok.kind == "symbol" and tok.text == ",":
                self.advance()
                continue
            break
        self.expect_symbol(")")
        try:
            chart = GradedChart(name_tok.text, tuple(variables))
        except DomainError as exc:
            raise self.error(str(exc), name_tok) from None
        self.define(self.charts, name_tok.text, chart, name_tok, "chart")
        return ChartStmt(name_tok.text, chart, kw.span)

    def parse_map(self) -> MapStmt:
        kw = self.expect_keyword("map")
        name_tok = self.expect_ident("map name")
        self.expect_symbol(":")
        src_tok = self.expect_ident("chart name")
        source = self.lookup(self.charts, src_tok, "chart")
        self.expect_symbol("->")
        dst_tok = self.expect_ident("chart name")
        target = self.lookup(self.charts, dst_tok, "chart")
        self.expect_symbol("{")
        pullbacks: dict[str, WPolynomial] = {}
        while not (self.peek().kind == "symbol" and self.peek().text == "}"):
            var_tok = self.expect_ident("target variable")
            if var_tok.text not in target:
                raise self.error(
                    f"variable {var_tok.text!r} is not in chart {target.name!r}",
                    var_tok,
                )
            if var_tok.text in pullbacks:
                raise self.error(
                    f"variable {var_tok.text!r} is assigned twice", var_tok
                )
            self.expect_symbol("=")
            pullbacks[var_tok.text] = self.parse_expression(source)
            self.expect_symbol(";")
        self.expect_symbol("}")
        try:
            pmap = PolyMap(source, target, pullbacks)
        except DomainError as exc:
            raise self.error(str(exc), name_tok) from None
        self.define(self.maps, name_tok.text, pmap, name_tok, "map")
        return MapStmt(name_tok.text, pmap, kw.span)

    def parse_action(self) -> ActionStmt:
        kw = self.expect_keyword("action")
        name_tok = self.expect_ident("action name")
        self.expect_keyword("on")
        chart_tok = self.expect_ident("chart name")
        chart = self.lookup(self.charts, chart_tok, "chart")
        if ACTION_PARAM in chart:
            raise self.error(
                f"chart {chart.name!r} has a variable named {ACTION_PARAM!r}, "
                "which is reserved for the family parameter",
                chart_tok,
            )
        ext = chart.extend(((ACTION_PARAM, 0),))
        self.expect_symbol("{")
        entries: dict[str, WPolynomial] = {}
        while not (self.peek().kind == "symbol" and self.peek().text == "}"):
            var_tok = self.expect_ident("chart variable")
            if var_tok.text not in chart:
                raise self.error(
                    f"variable {var_tok.text!r} is not in chart {chart.name!r}",
                    var_tok,
                )
            if var_tok.text in entries:
                raise self.error(
                    f"variable {var_tok.text!r} is assigned twice", var_tok
                )
            self.expect_symbol("->")
            entries[var_tok.text] = self.parse_expression(ext)
            self.expect_symbol(";")
        self.expect_symbol("}")
        try:
            family = ActionFamily(chart, ACTION_PARAM, entries)
        except DomainError as exc:
            raise self.error(str(exc), name_tok) from None
        self.define(self.actions, name_tok.text, family, name_tok, "action")
        return ActionStmt(name_tok.text, family, kw.span)

    def _double_member(self) -> Token:
        # an optional `action` keyword is tolerated before each member
        tok = self.peek()
        if tok.kind == "keyword" and tok.text == "action":
            self.advance()
        member = self.expect_ident("action name")
        self.lookup(self.actions, member, "action")
        return member

    def parse_double(self) -> DoubleStmt:
        kw = self.expect_keyword("double")
        name_tok = self.expect_ident("double name")
        self.expect_symbol("{")
        first_tok = self._double_member()
        tok = self.peek()
        if tok.kind == "symbol" and tok.text in (",", ";"):
            self.advance()
        else:
            raise self.error(
                f"found {tok.text!r}" if tok.text else "unexpected end of input",
                tok,
                (",", ";"),
            )
        second_tok = self._double_member()
        if self.peek().kind == "symbol" and self.peek().text == ";":
            self.advance()
        self.expect_symbol("}")
        self.define(
            self.doubles,
            name_tok.text,
            (first_tok.text, second_tok.text),
            name_tok,
            "double",
        )
        return DoubleStmt(name_tok.text, first_tok.text, second_tok.text, kw.span)

    # --- commands ---------------------------------------------------------

    def parse_check_morphism(self) -> CheckMorphismCmd:
        kw = self.expect_keyword("check-morphism")
        name_tok = self.expect_ident("map name")
        self.lookup(self.maps, name_tok, "map")
        return CheckMorphismCmd(name_tok.text, kw.span)

    def parse_analyze_action(self) -> AnalyzeActionCmd:
        kw = self.expect_keyword("analyze-action")
        name_tok = self.expect_ident("action name")
        family = self.lookup(self.actions, name_tok, "action")
        point: tuple[tuple[str, Fraction], ...] | None = None
        tok = self.peek()
        if tok.kind == "keyword" and tok.text == "at":
            self.advance()
            self.expect_symbol("(")
            seen: dict[str, Fraction] = {}
            while True:
                var_tok = self.expect_ident("chart variable")
                if var_tok.text not in family.chart:
                    raise self.error(
                        f"variable {var_tok.text!r} is not in chart "
                        f"{family.chart.name!r}",
                        var_tok,
                    )
                if var_tok.text in seen:
                    raise self.error(
                        f"variable {var_tok.text!r} is given twice", var_tok
                    )
                self.expect_symbol("=")
                negative = False
                if self.peek().kind == "symbol" and self.peek().text == "-":
                    self.advance()
                    negative = True
                num_tok = self.expect_number("rational value")
                assert num_tok.value is not None
                seen[var_tok.text] = -num_tok.value if negative else num_tok.value
                tok = self.peek()
                if tok.kind == "symbol" and tok.text == ",":
                    self.advance()
                    continue
                break
            self.expect_symbol(")")
            point = tuple(
                (v, seen[v]) for v in family.chart.names if v in seen
            )
        return AnalyzeActionCmd(name_tok.text, point, kw.span)

    def parse_prolong(self) -> ProlongCmd:
        kw = self.expect_keyword("prolong")
        name_tok = self.expect_ident("map name")
        pmap = self.lookup(self.maps, name_tok, "map")
        self.expect_keyword("order")
        order, otok = self.expect_integer("order")
        if order < 0:
            raise self.error("order must be nonnegative", otok)
        size = max(len(pmap.source), len(pmap.target)) * (order + 1)
        if size > VARIABLE_BUDGET:
            raise ResourceLimitError(
                f"order {order} would adapt a chart to {size} variables, "
                f"above the budget of {VARIABLE_BUDGET}",
                *otok.span,
            )
        # prolong substitutes (order + 1)-term curves in full, and x^e of a
        # curve has comb(order + e, e) terms before the levels are cut
        terms = sum(
            prod(comb(order + e, e) for _, e in mono)
            for p in pmap.pullbacks.values()
            for mono in p.terms
        )
        if terms > TERM_BUDGET:
            raise ResourceLimitError(
                f"order {order} may expand the pullbacks to {terms} terms, "
                f"above the budget of {TERM_BUDGET}",
                *otok.span,
            )
        return ProlongCmd(name_tok.text, order, kw.span)

    def parse_check_double(self) -> CheckDoubleCmd:
        kw = self.expect_keyword("check-double")
        name_tok = self.expect_ident("double name")
        self.lookup(self.doubles, name_tok, "double")
        return CheckDoubleCmd(name_tok.text, kw.span)

    def parse_flip(self) -> FlipCmd:
        kw = self.expect_keyword("flip")
        m, mtok = self.expect_integer("order")
        n, ntok = self.expect_integer("order")
        if m < 0 or n < 0:
            raise self.error("orders must be nonnegative", mtok if m < 0 else ntok)
        chart_tok = self.expect_ident("chart name")
        chart = self.lookup(self.charts, chart_tok, "chart")
        size = len(chart) * (m + 1) * (n + 1)
        if size > VARIABLE_BUDGET:
            raise ResourceLimitError(
                f"flip {m} {n} would adapt chart {chart.name!r} to {size} "
                f"variables, above the budget of {VARIABLE_BUDGET}",
                *chart_tok.span,
            )
        return FlipCmd(m, n, chart_tok.text, kw.span)

    def parse_report(self) -> ReportCmd:
        kw = self.expect_keyword("report")
        tok = self.peek()
        if tok.kind == "keyword" and tok.text in ("json", "text"):
            self.advance()
            return ReportCmd(tok.text, kw.span)
        raise self.error(
            f"found {tok.text!r}" if tok.text else "unexpected end of input",
            tok,
            ("json", "text"),
        )

    # --- expressions --------------------------------------------------------
    #
    # The expression parsers return term dicts (wpoly.Terms) and combine them
    # with wpoly's term kernels; parse_expression builds the one WPolynomial.
    # Every dict they return is fresh, so parse_sum adds into its own in place.

    def parse_expression(self, chart: GradedChart) -> WPolynomial:
        return WPolynomial(chart, self.parse_sum(chart))

    def parse_sum(self, chart: GradedChart) -> dict[Monomial, Fraction | int]:
        acc = self.parse_product(chart)
        while True:
            tok = self.peek()
            if tok.kind == "symbol" and tok.text in ("+", "-"):
                self.advance()
                rhs = self.parse_product(chart)
                if tok.text == "-":
                    rhs = {m: -c for m, c in rhs.items()}
                _terms_add_into(acc, rhs)
                continue
            return acc

    def parse_product(self, chart: GradedChart) -> dict[Monomial, Fraction | int]:
        acc = self.parse_unary(chart)
        while True:
            tok = self.peek()
            if tok.kind == "symbol" and tok.text == "*":
                self.advance()
                acc = _terms_mul(acc, self.parse_unary(chart))
                continue
            return acc

    def parse_unary(self, chart: GradedChart) -> dict[Monomial, Fraction | int]:
        tok = self.peek()
        if tok.kind == "symbol" and tok.text == "-":
            self.advance()
            return {m: -c for m, c in self.parse_unary(chart).items()}
        return self.parse_power(chart)

    def parse_power(self, chart: GradedChart) -> dict[Monomial, Fraction | int]:
        base = self.parse_atom(chart)
        tok = self.peek()
        if tok.kind == "symbol" and tok.text == "^":
            self.advance()
            exponent, etok = self.expect_integer("nonnegative integer exponent")
            if exponent < 0:
                raise self.error("exponents must be nonnegative", etok)
            # a number counts as degree 1: its power's coefficient grows too
            degree = max((sum(e for _, e in m) for m in base), default=0)
            if exponent * max(degree, 1) > DEGREE_BUDGET:
                raise ResourceLimitError(
                    f"exponent {exponent} on a base of total degree {degree} "
                    f"exceeds the degree budget of {DEGREE_BUDGET}",
                    *etok.span,
                )
            if len(base) > 1 and comb(len(base) + exponent - 1, exponent) > TERM_BUDGET:
                raise ResourceLimitError(
                    f"exponent {exponent} on a base of {len(base)} terms may give "
                    f"more terms than the budget of {TERM_BUDGET}",
                    *etok.span,
                )
            return _terms_pow(base, exponent)
        return base

    def parse_atom(self, chart: GradedChart) -> dict[Monomial, Fraction | int]:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            assert tok.value is not None
            value = _coefficient(tok.value)
            return {(): value} if value else {}
        if tok.kind == "ident":
            if tok.text not in chart:
                raise self.error(
                    f"variable {tok.text!r} is not in chart {chart.name!r}", tok
                )
            self.advance()
            return {((chart.index_of(tok.text), 1),): 1}
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


def parse(source: str) -> Program:
    """Parse and resolve a program; raises ParseError with line and column."""
    return _Parser(tokenize(source)).parse_program()


# --- canonical printing ----------------------------------------------------


def _print_point(point: tuple[tuple[str, Fraction], ...]) -> str:
    return ", ".join(f"{v}={val}" for v, val in point)


def print_program(program: Program) -> str:
    """Canonical text for a program; parsing it back gives an equal program."""
    lines: list[str] = []
    for stmt in program.statements:
        if isinstance(stmt, ChartStmt):
            vars_text = ", ".join(f"{v}:{w}" for v, w in stmt.chart.variables)
            lines.append(f"chart {stmt.name} ({vars_text})")
        elif isinstance(stmt, MapStmt):
            pmap = stmt.pmap
            lines.append(
                f"map {stmt.name} : {pmap.source.name} -> {pmap.target.name} {{"
            )
            for v in pmap.target.names:
                lines.append(f"  {v} = {pmap.pullbacks[v]};")
            lines.append("}")
        elif isinstance(stmt, ActionStmt):
            family = stmt.family
            lines.append(f"action {stmt.name} on {family.chart.name} {{")
            for v in family.chart.names:
                lines.append(f"  {v} -> {family.entries[v]};")
            lines.append("}")
        elif isinstance(stmt, DoubleStmt):
            lines.append(f"double {stmt.name} {{ {stmt.first}, {stmt.second} }}")
        elif isinstance(stmt, CheckMorphismCmd):
            lines.append(f"check-morphism {stmt.name}")
        elif isinstance(stmt, AnalyzeActionCmd):
            if stmt.point is None:
                lines.append(f"analyze-action {stmt.name}")
            else:
                lines.append(
                    f"analyze-action {stmt.name} at ({_print_point(stmt.point)})"
                )
        elif isinstance(stmt, ProlongCmd):
            lines.append(f"prolong {stmt.name} order {stmt.order}")
        elif isinstance(stmt, CheckDoubleCmd):
            lines.append(f"check-double {stmt.name}")
        elif isinstance(stmt, FlipCmd):
            lines.append(f"flip {stmt.m} {stmt.n} {stmt.chart_name}")
        elif isinstance(stmt, ReportCmd):
            lines.append(f"report {stmt.format}")
        else:  # pragma: no cover - exhaustive
            raise AssertionError(f"unknown statement {stmt!r}")
    return "\n".join(lines) + ("\n" if lines else "")
