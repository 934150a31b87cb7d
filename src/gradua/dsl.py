"""A small declaration language for charts, maps, and parameter families.

Programs are sequences of declarations (chart, map, action, double) and
commands (check-morphism, analyze-action, prolong, check-double, flip,
report). Parsing resolves every reference on the spot: expressions are
evaluated into exact polynomials over the declared charts, so a parsed
program carries finished engine objects and no unresolved names. Printing a
program emits canonical text (polynomials in canonical term order), and
parsing that text yields an equal program, spans aside.

The parser states each statement kind once: one table, built with the
class, maps each statement keyword to its parser, and the tokenizer's
keywords are that table's keys plus five words read inside statements (on,
at, order, json, text). An optional token is one accept() call, and one rule-block parser reads the `{ v op expr; }` bodies
of map (`=`, over the source chart) and action (`->`, over the chart
extended by t). Each statement class prints its own canonical text
(__str__), and print_program joins them.

Rationals are single tokens (2/3); there is no division operator. The
family parameter in action bodies is always called t.

Three fixed budgets keep one line from exhausting memory. A power, a
product, a prolongation or a flip above one is refused before anything is
expanded, with a ResourceLimitError (a ParseError) at the offending token.

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
from typing import Any, Callable, NamedTuple

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

    def __str__(self) -> str:
        vars_text = ", ".join(f"{v}:{w}" for v, w in self.chart.variables)
        return f"chart {self.name} ({vars_text})"


@dataclass(frozen=True)
class MapStmt:
    name: str
    pmap: PolyMap
    span: Span = field(compare=False, repr=False, default=Span(0, 0))

    def __str__(self) -> str:
        pmap = self.pmap
        lines = [f"map {self.name} : {pmap.source.name} -> {pmap.target.name} {{"]
        lines += [f"  {v} = {pmap.pullbacks[v]};" for v in pmap.target.names]
        return "\n".join(lines + ["}"])


@dataclass(frozen=True)
class ActionStmt:
    name: str
    family: ActionFamily
    span: Span = field(compare=False, repr=False, default=Span(0, 0))

    def __str__(self) -> str:
        family = self.family
        lines = [f"action {self.name} on {family.chart.name} {{"]
        lines += [f"  {v} -> {family.entries[v]};" for v in family.chart.names]
        return "\n".join(lines + ["}"])


@dataclass(frozen=True)
class DoubleStmt:
    name: str
    first: str
    second: str
    span: Span = field(compare=False, repr=False, default=Span(0, 0))

    def __str__(self) -> str:
        return f"double {self.name} {{ {self.first}, {self.second} }}"


@dataclass(frozen=True)
class CheckMorphismCmd:
    name: str
    span: Span = field(compare=False, repr=False, default=Span(0, 0))

    def __str__(self) -> str:
        return f"check-morphism {self.name}"


@dataclass(frozen=True)
class AnalyzeActionCmd:
    name: str
    point: tuple[tuple[str, Fraction], ...] | None = None
    span: Span = field(compare=False, repr=False, default=Span(0, 0))

    def __str__(self) -> str:
        if self.point is None:
            return f"analyze-action {self.name}"
        point = ", ".join(f"{v}={val}" for v, val in self.point)
        return f"analyze-action {self.name} at ({point})"


@dataclass(frozen=True)
class ProlongCmd:
    name: str
    order: int
    span: Span = field(compare=False, repr=False, default=Span(0, 0))

    def __str__(self) -> str:
        return f"prolong {self.name} order {self.order}"


@dataclass(frozen=True)
class CheckDoubleCmd:
    name: str
    span: Span = field(compare=False, repr=False, default=Span(0, 0))

    def __str__(self) -> str:
        return f"check-double {self.name}"


@dataclass(frozen=True)
class FlipCmd:
    m: int
    n: int
    chart_name: str
    span: Span = field(compare=False, repr=False, default=Span(0, 0))

    def __str__(self) -> str:
        return f"flip {self.m} {self.n} {self.chart_name}"


@dataclass(frozen=True)
class ReportCmd:
    format: str
    span: Span = field(compare=False, repr=False, default=Span(0, 0))

    def __str__(self) -> str:
        return f"report {self.format}"


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
# largest programs in the tests and the benchmark use ^3, order 4,
# flip 2 2 on three variables (27 variables) and products of at most 2 term
# pairs. A product's budget is the product of its operands' term counts.
DEGREE_BUDGET = 1000  # exponent times the base's total degree (at least 1)
TERM_BUDGET = 10_000  # the most terms (or product term pairs) an expansion may reach
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


# what may start a statement, listed by the errors that refuse a token there
_STARTS = ("chart", "map", "action", "double", "a command")


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

    def unexpected(self, tok: Token, expected: tuple[str, ...]) -> ParseError:
        """The error for a token that is none of the expected ones."""
        found = f"found {tok.text!r}" if tok.text else "unexpected end of input"
        return self.error(found, tok, expected)

    def accept(self, text: str, kind: str = "symbol") -> Token | None:
        """The next token, consumed, if it is this text of this kind; else None."""
        tok = self.tokens[self.pos]
        if tok.kind == kind and tok.text == text:
            self.pos += 1
            return tok
        return None

    def require(self, *texts: str, kind: str = "symbol") -> Token:
        """The next token, consumed, which must be one of these texts of this kind."""
        for text in texts:
            tok = self.accept(text, kind)
            if tok is not None:
                return tok
        raise self.unexpected(self.peek(), texts)

    def expect(self, kind: str, what: str) -> Token:
        """The next token, which must be of this kind (ident or number)."""
        tok = self.peek()
        if tok.kind == kind:
            return self.advance()
        raise self.unexpected(tok, (what,))

    def expect_integer(self, what: str) -> tuple[int, Token]:
        tok = self.expect("number", what)
        assert tok.value is not None
        if tok.value.denominator != 1:
            raise self.error(f"{tok.text!r} is not an integer", tok, (what,))
        return int(tok.value), tok

    def check_variable(self, tok: Token, chart: GradedChart) -> None:
        if tok.text not in chart:
            raise self.error(f"variable {tok.text!r} is not in chart {chart.name!r}", tok)

    # --- declarations -----------------------------------------------------

    def parse_program(self) -> Program:
        statements: list[Statement] = []
        while (tok := self.peek()).kind != "eof":
            if tok.kind != "keyword":
                raise self.unexpected(tok, _STARTS)
            handler = self.STATEMENTS.get(tok.text)
            if handler is None:
                raise self.error(f"{tok.text!r} cannot start a statement", tok, _STARTS)
            statements.append(handler(self, self.advance().span))
        return Program(tuple(statements))

    def define(self, table: dict, name: str, value, tok: Token, kind: str) -> None:
        if name in table:
            raise self.error(f"duplicate {kind} name {name!r}", tok)
        table[name] = value

    def reference(self, table: dict, kind: str) -> tuple[Token, Any]:
        """The next token, a declared name of this kind, and what it names."""
        tok = self.expect("ident", f"{kind} name")
        if tok.text not in table:
            raise self.error(f"unknown {kind} {tok.text!r}", tok)
        return tok, table[tok.text]

    def construct(self, name_tok: Token, build: Callable, *args):
        """build(*args), its DomainError raised as a ParseError at name_tok."""
        try:
            return build(*args)
        except DomainError as exc:
            raise self.error(str(exc), name_tok) from None

    def parse_rules(
        self, target: GradedChart, op: str, chart: GradedChart, what: str
    ) -> dict[str, WPolynomial]:
        """A block `{ v op expr; ... }`, at most one rule per variable v of
        target, each expression over chart."""
        self.require("{")
        rules: dict[str, WPolynomial] = {}
        while not self.accept("}"):
            var_tok = self.expect("ident", what)
            self.check_variable(var_tok, target)
            if var_tok.text in rules:
                raise self.error(f"variable {var_tok.text!r} is assigned twice", var_tok)
            self.require(op)
            rules[var_tok.text] = self.parse_expression(chart)
            self.require(";")
        return rules

    # Each statement parser starts after its keyword, whose span it is given.

    def parse_chart(self, span: Span) -> ChartStmt:
        name_tok = self.expect("ident", "chart name")
        self.require("(")
        variables: list[tuple[str, int]] = []
        while True:
            var_tok = self.expect("ident", "variable name")
            self.require(":")
            weight, wtok = self.expect_integer("weight")
            if weight < 0:
                raise self.error("weights must be nonnegative", wtok)
            variables.append((var_tok.text, weight))
            if not self.accept(","):
                break
        self.require(")")
        chart = self.construct(name_tok, GradedChart, name_tok.text, tuple(variables))
        self.define(self.charts, name_tok.text, chart, name_tok, "chart")
        return ChartStmt(name_tok.text, chart, span)

    def parse_map(self, span: Span) -> MapStmt:
        name_tok = self.expect("ident", "map name")
        self.require(":")
        _, source = self.reference(self.charts, "chart")
        self.require("->")
        _, target = self.reference(self.charts, "chart")
        pullbacks = self.parse_rules(target, "=", source, "target variable")
        pmap = self.construct(name_tok, PolyMap, source, target, pullbacks)
        self.define(self.maps, name_tok.text, pmap, name_tok, "map")
        return MapStmt(name_tok.text, pmap, span)

    def parse_action(self, span: Span) -> ActionStmt:
        name_tok = self.expect("ident", "action name")
        self.require("on", kind="keyword")
        chart_tok, chart = self.reference(self.charts, "chart")
        if ACTION_PARAM in chart:
            raise self.error(
                f"chart {chart.name!r} has a variable named {ACTION_PARAM!r}, "
                "which is reserved for the family parameter",
                chart_tok,
            )
        ext = chart.extend(((ACTION_PARAM, 0),))
        entries = self.parse_rules(chart, "->", ext, "chart variable")
        family = self.construct(name_tok, ActionFamily, chart, ACTION_PARAM, entries)
        self.define(self.actions, name_tok.text, family, name_tok, "action")
        return ActionStmt(name_tok.text, family, span)

    def _double_member(self) -> str:
        self.accept("action", "keyword")  # tolerated before each member
        return self.reference(self.actions, "action")[0].text

    def parse_double(self, span: Span) -> DoubleStmt:
        name_tok = self.expect("ident", "double name")
        self.require("{")
        first = self._double_member()
        self.require(",", ";")
        second = self._double_member()
        self.accept(";")
        self.require("}")
        self.define(self.doubles, name_tok.text, (first, second), name_tok, "double")
        return DoubleStmt(name_tok.text, first, second, span)

    # --- commands ---------------------------------------------------------

    def parse_check_morphism(self, span: Span) -> CheckMorphismCmd:
        return CheckMorphismCmd(self.reference(self.maps, "map")[0].text, span)

    def parse_analyze_action(self, span: Span) -> AnalyzeActionCmd:
        name_tok, family = self.reference(self.actions, "action")
        point: tuple[tuple[str, Fraction], ...] | None = None
        if self.accept("at", "keyword"):
            self.require("(")
            seen: dict[str, Fraction] = {}
            while True:
                var_tok = self.expect("ident", "chart variable")
                self.check_variable(var_tok, family.chart)
                if var_tok.text in seen:
                    raise self.error(
                        f"variable {var_tok.text!r} is given twice", var_tok
                    )
                self.require("=")
                negative = self.accept("-")
                num_tok = self.expect("number", "rational value")
                assert num_tok.value is not None
                seen[var_tok.text] = -num_tok.value if negative else num_tok.value
                if not self.accept(","):
                    break
            self.require(")")
            point = tuple(
                (v, seen[v]) for v in family.chart.names if v in seen
            )
        return AnalyzeActionCmd(name_tok.text, point, span)

    def parse_prolong(self, span: Span) -> ProlongCmd:
        name_tok, pmap = self.reference(self.maps, "map")
        self.require("order", kind="keyword")
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
        return ProlongCmd(name_tok.text, order, span)

    def parse_check_double(self, span: Span) -> CheckDoubleCmd:
        return CheckDoubleCmd(self.reference(self.doubles, "double")[0].text, span)

    def parse_flip(self, span: Span) -> FlipCmd:
        m, mtok = self.expect_integer("order")
        n, ntok = self.expect_integer("order")
        if m < 0 or n < 0:
            raise self.error("orders must be nonnegative", mtok if m < 0 else ntok)
        chart_tok, chart = self.reference(self.charts, "chart")
        size = len(chart) * (m + 1) * (n + 1)
        if size > VARIABLE_BUDGET:
            raise ResourceLimitError(
                f"flip {m} {n} would adapt chart {chart.name!r} to {size} "
                f"variables, above the budget of {VARIABLE_BUDGET}",
                *chart_tok.span,
            )
        return FlipCmd(m, n, chart_tok.text, span)

    def parse_report(self, span: Span) -> ReportCmd:
        return ReportCmd(self.require("json", "text", kind="keyword").text, span)

    # the parser of each statement keyword, built once with the class
    STATEMENTS: dict[str, Callable[[_Parser, Span], Statement]] = {
        "chart": parse_chart,
        "map": parse_map,
        "action": parse_action,
        "double": parse_double,
        "check-morphism": parse_check_morphism,
        "analyze-action": parse_analyze_action,
        "prolong": parse_prolong,
        "check-double": parse_check_double,
        "flip": parse_flip,
        "report": parse_report,
    }

    # --- expressions --------------------------------------------------------
    #
    # The expression parsers return term dicts (wpoly.Terms) and combine them
    # with wpoly's term kernels; parse_expression builds the one WPolynomial.
    # Every dict they return is fresh, so parse_sum adds into its own in place.

    def parse_expression(self, chart: GradedChart) -> WPolynomial:
        return WPolynomial(chart, self.parse_sum(chart))

    def parse_sum(self, chart: GradedChart) -> dict[Monomial, Fraction | int]:
        acc = self.parse_product(chart)
        while tok := self.accept("+") or self.accept("-"):
            rhs = self.parse_product(chart)
            if tok.text == "-":
                rhs = {m: -c for m, c in rhs.items()}
            _terms_add_into(acc, rhs)
        return acc

    def parse_product(self, chart: GradedChart) -> dict[Monomial, Fraction | int]:
        acc = self.parse_unary(chart)
        while tok := self.accept("*"):
            rhs = self.parse_unary(chart)
            if len(acc) * len(rhs) > TERM_BUDGET:
                raise ResourceLimitError(
                    f"a product of {len(acc)} by {len(rhs)} terms may give more "
                    f"terms than the budget of {TERM_BUDGET}",
                    *tok.span,
                )
            acc = _terms_mul(acc, rhs)
        return acc

    def parse_unary(self, chart: GradedChart) -> dict[Monomial, Fraction | int]:
        if self.accept("-"):
            return {m: -c for m, c in self.parse_unary(chart).items()}
        return self.parse_power(chart)

    def parse_power(self, chart: GradedChart) -> dict[Monomial, Fraction | int]:
        base = self.parse_atom(chart)
        if self.accept("^"):
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
            self.check_variable(tok, chart)
            self.advance()
            return {((chart.index_of(tok.text), 1),): 1}
        if self.accept("("):
            inner = self.parse_sum(chart)
            self.require(")")
            return inner
        raise self.unexpected(tok, ("a variable", "a number", "("))


# Each keyword is written once: a statement keyword is a key of
# _Parser.STATEMENTS, and these five are only read inside statements.
KEYWORDS = frozenset(_Parser.STATEMENTS) | {"on", "at", "order", "json", "text"}

# One alternative per token class, tried in order at each position: the
# hyphenated keywords, longest first, come before identifiers, so
# `check-morphismX` lexes as the keyword and then `X`. `\w` is str.isalnum()
# or `_`, so `[^\W\d]` also admits numerals that are not letters, such as
# `²`; tokenize refuses a word that starts with one. `[0-9]` is ASCII only
# (str.isdigit accepts `²`, which int() refuses). Any other character, `\f`
# included, is `bad`.
_HYPHENATED = sorted((k for k in KEYWORDS if "-" in k), key=lambda k: (-len(k), k))
_TOKEN = re.compile(
    r"(?P<space>[ \t\r]+)"
    r"|(?P<newline>\n)"
    r"|(?P<comment>#[^\n]*)"
    rf"|(?P<hyphenated>{'|'.join(map(re.escape, _HYPHENATED))})"
    r"|(?P<word>[^\W\d][\w']*)"
    r"|(?P<number>(?P<num>[0-9]+)(?:/(?P<den>[0-9]+))?)"
    r"|(?P<symbol>->|[(){}:;,=+\-*^])"
    r"|(?P<bad>.)",
    re.DOTALL,
)


def parse(source: str) -> Program:
    """Parse and resolve a program; raises ParseError with line and column."""
    return _Parser(tokenize(source)).parse_program()


# --- canonical printing ----------------------------------------------------


def print_program(program: Program) -> str:
    """Canonical text for a program; parsing it back gives an equal program."""
    text = "\n".join(map(str, program.statements))
    return text + "\n" if text else ""
