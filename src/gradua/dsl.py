"""A small declaration language for charts, maps, and parameter families.

Programs are sequences of declarations (chart, map, action, double) and
commands (check-morphism, analyze-action, prolong, check-double, flip,
report). Parsing resolves every reference on the spot: expressions are
evaluated into exact polynomials over the declared charts, so a parsed
program carries finished engine objects, no unresolved names, and the
parser's tables of definitions by name. Printing a program emits canonical
text (polynomials in canonical term order), and parsing that text yields
an equal program.

The parser states each statement kind once: one table, built with the
class, maps each statement keyword to the parser of its arguments and
their printer, and the tokenizer's keywords are that table's keys plus five
words read inside statements (on, at, order, json, text). An optional token
is one accept() call, and one rule-block parser reads the `{ v op expr; }`
bodies of map (`=`, over the source chart) and action (`->`, over the chart
extended by t). Every statement is one type, Statement: the tuple of its
keyword and its arguments, which keeps no source position. Its
canonical text is the keyword and what the keyword's printer writes of the
arguments, and print_program joins these texts.

Rationals are single tokens (2/3); there is no division operator. The
family parameter in action bodies is always called t.

Four fixed budgets keep one line from exhausting memory. A power, a
product, a prolongation or a flip above one is refused before anything is
expanded, with a ResourceLimitError (a ParseError) at the offending token.
A budget whose check recurs has one rule that the statements call. One
exponent rule (_Parser.exponent) reads the integer after every `^` and
holds the degree budget, then the bit budget on coefficients, for plain
factors and groups alike. One coefficient rule (_Parser.coefficients)
holds the bit budget, for the exponent rule and on each `*` of a product.
One adapted-chart rule (_Parser.adapted) holds the variable budget, for
prolong and flip alike. The term budget is one count per construct: a
group's power, which also holds a budget on its work, terms squared times
bits; a product; and a prolongation's levels. A number literal above the
bit budget is a lexical error.

The tokenizer is one re.split of the source by a pattern that captures the
gap (blanks, newlines, comments) and the token after it, at every position:
the token texts and, by a running sum of the parts' lengths, their offsets
come out of C code, with no Python loop over the tokens. Lexical errors are
read off the distinct texts, the first in source order raised. tokenize
returns the texts and their offsets as plain lists, with the source
(Tokens), and the parser reads texts and keeps positions: a keyword or a
symbol is its own text, and a token's kind is read off its text. A line
and column are computed only for a raised ParseError, by counting the
newlines before its token.

In a product, the plain factors (numbers, variables and their powers)
multiply into one coefficient and one monomial; only parenthesized factors
are multiplied as term dicts.

An identifier starts with a letter (str.isalpha) or `_` and goes on with
letters, digits (str.isalnum), `_` and `'`; number literals use ASCII
digits only. Any other character, `\f` included, is a parse error at its
line and column.
"""

from __future__ import annotations

import re
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from math import comb
from operator import mul
from typing import Any, Callable, NamedTuple

from .charts import GradedChart
from .errors import DomainError, ParseError, ResourceLimitError
from .graded import ActionFamily, PolyMap
from .wpoly import (
    Monomial,
    WPolynomial,
    _bits,
    _mono_mul,
    _mono_total_degree,
    _terms_combine,
    _terms_mul,
    _terms_pow,
)

class Span(NamedTuple):
    line: int
    col: int


class Tokens:
    """The tokens of a program, ending with an eof token: each token's text
    (the eof token's is "") and its offset in the source, as plain lists
    read by position, and the source, from which span reads a token's line
    and column.

    The text of a token fixes its kind: a keyword or a symbol is its own
    text, a number starts with a digit and an identifier with a letter or
    `_`. len gives the number of tokens, eof included, which
    perfbench/spans.py counts as dsl.tokens.
    """

    __slots__ = ("texts", "starts", "source")

    def __init__(self, source: str, texts: list[str], starts: list[int]):
        self.texts = texts
        self.starts = starts
        self.source = source

    def __len__(self) -> int:
        return len(self.texts)

    def span(self, i: int) -> Span:
        """Line and column of token i, counted from 1 in characters.

        Only a ParseError asks for one, so the newlines before the token are
        counted when it does, and no table of line starts is kept.
        """
        start = self.starts[i]
        source = self.source
        return Span(source.count("\n", 0, start) + 1, start - source.rfind("\n", 0, start))


def tokenize(source: str) -> Tokens:
    """Tokens of a program, ending with an eof token; raises ParseError.

    Lines and columns count from 1, in characters. A comment does not move
    the column, so after a trailing comment with no newline the eof token
    sits where the comment starts.
    """
    # parts: "" (before the first match), then gap, token and "" (between
    # two matches, which are contiguous) for every match; the first \Z
    # match is eof, and a second one follows it after a trailing gap
    parts = _SPLIT.split(source)
    texts = parts[2::3]
    del texts[texts.index("") + 1 :]
    starts = list(accumulate(map(len, parts)))[1 : 3 * len(texts) : 3]
    del parts
    comment = source.find("#", source.rfind("\n") + 1)
    if comment >= 0:  # a `#` is always a comment, and this one is on the last line
        starts[-1] = comment
    tokens = Tokens(source, texts, starts)
    errors = [
        (texts.index(text), message)
        for text in set(texts).difference(_LEXEMES)
        if (message := _lexical_error(text))
    ]
    if errors:
        i, message = min(errors)
        raise ParseError(message, *tokens.span(i))
    return tokens


def _number(text: str) -> Fraction | int:
    """The value of a number literal, n or n/d; tokenize refuses d = 0."""
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den)) if den else int(num)


def _is_word(text: str) -> bool:
    """Whether a token text is an identifier: a word that is no keyword."""
    return (text[:1].isalpha() or text[:1] == "_") and text not in KEYWORDS


def _lexical_error(text: str) -> str | None:
    """The error a token text that is no keyword or symbol raises, if any:
    a word must start with a letter or `_`, a number literal must keep its
    numerator and denominator within BIT_BUDGET bits, a denominator
    must not be 0, and a character no token starts with is refused.

    A literal of more than BIT_BUDGET // 3 characters is refused unread:
    without leading zeros or a `/` it is above the budget, since each digit
    after the first adds more than 3 bits. A shorter one converts to int
    under Python's int-string limit.
    """
    first = text[0]
    if first.isalpha() or first == "_":
        return None
    if first in _DIGITS:
        num, _, den = text.partition("/")
        if len(text) > BIT_BUDGET // 3 or max(int(num), int(den or 1)).bit_length() > BIT_BUDGET:
            return f"number literal above the coefficient budget of {BIT_BUDGET} bits"
        return f"zero denominator in {text!r}" if den and not int(den) else None
    return f"unexpected character {first!r}"


def _level_terms(monomials: Sequence[Monomial], order: int) -> int:
    """The terms of levels 0..order that prolong builds for these monomials,
    by the Leibniz rule.

    Level s of x^e holds one term per partition of s into at most e parts,
    as many as the partitions of s into parts of at most e, the s^th
    coefficient of G_e = prod_(j <= e) 1/(1 - x^j); an exponent above the
    order counts as the order. A product's levels convolve its factors',
    and the levels up to the order are summed by one more factor 1/(1 - x),
    so a monomial of exponents e_1 >= ... >= e_k has [x^order] G_e_1 *
    (1/(1 - x) * G_e_2 * ... * G_e_k) terms: the rows G_e come from one
    sweep over e, the bracket is a running sum of G_e_2's row and one pass
    per factor 1/(1 - x^j) of the others, and the largest factor's row is
    dotted with it; a constant is the row G_0 = 1. Monomials with the same
    sorted exponents are counted once.

    The count is exact for a polynomial too: the Leibniz weights are
    positive, so no term of a monomial's levels cancels, and the levels of
    distinct monomials share no term, since the exponents of x, x'1, x'2,
    ... in a jet monomial add up to the exponent of x in its monomial.
    """
    shapes = Counter(
        tuple(sorted((min(e, order) for _, e in mono), reverse=True)) or (0,)
        for mono in monomials
    )
    needed = {e for shape in shapes for e in shape}
    row = [1] + [0] * order
    rows = {0: row[:]}
    for e in range(1, max(needed, default=0) + 1):
        for s in range(e, order + 1):
            row[s] += row[s - e]
        if e in needed:
            rows[e] = row[:]
    total = 0
    for shape, count in shapes.items():
        rest = list(accumulate(rows[shape[1]])) if len(shape) > 1 else [1] * (order + 1)
        for e in shape[2:]:
            for j in range(1, e + 1):
                for s in range(j, order + 1):
                    rest[s] += rest[s - j]
        total += count * sum(map(mul, rows[shape[0]], reversed(rest)))
    return total


class Statement(tuple):
    """A statement: its keyword, then its arguments, as one tuple, and
    nothing else. A statement equals the tuple of its keyword and
    arguments, wherever its source put it. str() gives the canonical text:
    the keyword, then what the keyword's printer in _Parser.STATEMENTS
    writes of the arguments."""

    __slots__ = ()

    def __new__(cls, keyword: str, *args: Any) -> Statement:
        return super().__new__(cls, (keyword, *args))

    def __str__(self) -> str:
        keyword, *args = self
        return f"{keyword} {_Parser.STATEMENTS[keyword][1](*args)}"


# The printers: each writes a statement's arguments as they follow its keyword.


def _print_chart(name: str, chart: GradedChart) -> str:
    return f"{name} ({', '.join(f'{v}:{w}' for v, w in chart.variables)})"


def _print_rules(head: str, names: tuple[str, ...], op: str, rules: dict) -> str:
    lines = [f"{head} {{", *(f"  {v} {op} {rules[v]};" for v in names), "}"]
    return "\n".join(lines)


def _print_map(name: str, pmap: PolyMap) -> str:
    head = f"{name} : {pmap.source.name} -> {pmap.target.name}"
    return _print_rules(head, pmap.target.names, "=", pmap.pullbacks)


def _print_action(name: str, family: ActionFamily) -> str:
    chart = family.chart
    return _print_rules(f"{name} on {chart.name}", chart.names, "->", family.entries)


def _print_analyze_action(name: str, point: tuple[tuple[str, Fraction], ...] | None) -> str:
    if point is None:
        return name
    return f"{name} at ({', '.join(f'{v}={val}' for v, val in point)})"


ACTION_PARAM = "t"

# Budgets that keep one line of a program from exhausting the machine; a
# statement above one raises ResourceLimitError at the offending token. The
# largest programs in the tests and the benchmark use ^3, order 4,
# flip 2 2 on three variables (27 variables) and products of at most 2 term
# pairs. A product's budget is the product of its operands' term counts.
# The bit budget bounds a coefficient's numerator and denominator: of a
# literal (a lexical error), of a power (the base's largest bit length
# times the exponent) and of a product (its factors' bounds added), well
# inside the 4300 decimal digits Python converts to and from str. A power's
# work, its term bound squared times its bit bound, may not pass the two
# budgets multiplied.
DEGREE_BUDGET = 1000  # exponent times the base's total degree (at least 1)
TERM_BUDGET = 10_000  # the most terms (or product term pairs) an expansion may reach
VARIABLE_BUDGET = 1000  # variables of an adapted chart (prolong, flip)
BIT_BUDGET = 4096  # bits of a coefficient's numerator or denominator


@dataclass(frozen=True)
class Program:
    """The parsed statements, with their definitions by name.

    charts, maps, actions and doubles are the tables the parser fills as it
    resolves references, each name defined once (a duplicate is a parse
    error), so no run scans the statements for them again. They take no
    part in equality or repr: the statements determine them. Callers share
    the tables and only read them.
    """

    statements: tuple[Statement, ...]
    charts: dict[str, GradedChart] = field(default_factory=dict, compare=False, repr=False)
    maps: dict[str, PolyMap] = field(default_factory=dict, compare=False, repr=False)
    actions: dict[str, ActionFamily] = field(default_factory=dict, compare=False, repr=False)
    doubles: dict[str, tuple[str, str]] = field(default_factory=dict, compare=False, repr=False)


# what may start a statement, listed by the errors that refuse a token there
_STARTS = ("chart", "map", "action", "double", "a command")


class _Parser:
    """The parser reads the token texts and keeps token positions: a line
    and column are computed only for an error."""

    def __init__(self, tokens: Tokens):
        self.tokens = tokens
        self.texts = tokens.texts
        self.pos = 0
        self.charts: dict[str, GradedChart] = {}
        self.maps: dict[str, PolyMap] = {}
        self.actions: dict[str, ActionFamily] = {}
        self.doubles: dict[str, tuple[str, str]] = {}

    def error(self, message: str, at: int, expected: tuple[str, ...] = ()) -> ParseError:
        """The error at the token of position at."""
        return ParseError(message, *self.tokens.span(at), expected)

    def unexpected(self, at: int, expected: tuple[str, ...]) -> ParseError:
        """The error for a token that is none of the expected ones."""
        text = self.texts[at]
        return self.error(f"found {text!r}" if text else "unexpected end of input", at, expected)

    def accept(self, text: str) -> bool:
        """Consume the next token if it is this keyword or symbol."""
        if self.texts[self.pos] == text:
            self.pos += 1
            return True
        return False

    def require(self, *texts: str) -> str:
        """The next token's text, consumed, which must be one of these."""
        text = self.texts[self.pos]
        if text in texts:
            self.pos += 1
            return text
        raise self.unexpected(self.pos, texts)

    def ident(self, what: str) -> str:
        """The next token's text, consumed, which must be an identifier."""
        text = self.texts[self.pos]
        if _is_word(text):
            self.pos += 1
            return text
        raise self.unexpected(self.pos, (what,))

    def name(self, what: str) -> tuple[str, int]:
        """The next token's text, consumed, which must be an identifier, and
        its position."""
        at = self.pos
        return self.ident(what), at

    def number(self, what: str) -> Fraction | int:
        """The value of the next token, consumed, which must be a number
        literal, n or n/d (_number); what names it when it is not. The one
        read of a number token: expect_integer and the values of an
        `analyze ... at` point call it."""
        text = self.texts[self.pos]
        if text[:1] not in _DIGITS:
            raise self.unexpected(self.pos, (what,))
        self.pos += 1
        return _number(text)

    def expect_integer(self, what: str) -> tuple[int, int]:
        """The value of the next token, consumed, which must be a number
        literal of an integer, and the token's position."""
        pos = self.pos
        value = self.number(what)
        if value.denominator != 1:
            raise self.error(f"{self.texts[pos]!r} is not an integer", pos, (what,))
        return int(value), pos

    def exponent(self, degree: int, bits: int) -> tuple[int, int]:
        """The exponent after a `^`, consumed, and its token's position, for
        a base of this total degree whose coefficients have at most this many
        bits (_bits). The one rule of plain factors and groups: exponent
        times the degree may not pass DEGREE_BUDGET, a number counting as
        degree 1, since its power's coefficient grows too; then exponent
        times the bits may not pass BIT_BUDGET (coefficients)."""
        power, at = self.expect_integer("nonnegative integer exponent")
        if power * max(degree, 1) > DEGREE_BUDGET:
            raise ResourceLimitError(
                f"exponent {power} on a base of total degree {degree} "
                f"exceeds the degree budget of {DEGREE_BUDGET}",
                *self.tokens.span(at),
            )
        self.coefficients(power * bits, at, f"exponent {power} on a {bits}-bit base")
        return power, at

    def coefficients(self, bits: int, at: int, what: str) -> None:
        """Refuse what, at token at, when it may give coefficients of more
        bits than BIT_BUDGET: the bound the exponent rule and the product
        budget compute."""
        if bits > BIT_BUDGET:
            message = f"{what} may give {bits}-bit coefficients, above the coefficient budget"
            raise ResourceLimitError(f"{message} of {BIT_BUDGET} bits", *self.tokens.span(at))

    def adapted(self, size: int, at: int, what: str) -> None:
        """Refuse what, at token at, when it would adapt a chart to more than
        VARIABLE_BUDGET variables: the one rule of prolong and flip."""
        if size > VARIABLE_BUDGET:
            message = f"{what} to {size} variables, above the budget"
            raise ResourceLimitError(f"{message} of {VARIABLE_BUDGET}", *self.tokens.span(at))

    # --- declarations -----------------------------------------------------

    def parse_program(self) -> Program:
        statements: list[Statement] = []
        texts = self.texts
        while text := texts[self.pos]:
            kind = self.STATEMENTS.get(text)
            if kind is None:
                if text not in KEYWORDS:
                    raise self.unexpected(self.pos, _STARTS)
                raise self.error(f"{text!r} cannot start a statement", self.pos, _STARTS)
            self.pos += 1
            statements.append(Statement(text, *kind[0](self)))
        return Program(tuple(statements), self.charts, self.maps, self.actions, self.doubles)

    def define(self, table: dict, name: str, value, at: int, kind: str) -> None:
        if name in table:
            raise self.error(f"duplicate {kind} name {name!r}", at)
        table[name] = value

    def reference(self, table: dict, kind: str) -> tuple[str, Any, int]:
        """The next token's text, consumed, a declared name of this kind;
        what it names; and the token's position."""
        name, at = self.name(f"{kind} name")
        if name not in table:
            raise self.error(f"unknown {kind} {name!r}", at)
        return name, table[name], at

    def construct(self, at: int, build: Callable, *args):
        """build(*args), its DomainError raised as a ParseError at the token
        of position at."""
        try:
            return build(*args)
        except DomainError as exc:
            raise self.error(str(exc), at) from None

    def chart_variable(self, chart: GradedChart, what: str) -> str:
        """The next token's text, consumed, which must name a variable of
        chart."""
        at = self.pos
        text = self.texts[at]
        if text not in chart:
            self.ident(what)
            raise self.error(f"variable {text!r} is not in chart {chart.name!r}", at)
        self.pos += 1
        return text

    def parse_rules(
        self, target: GradedChart, op: str, chart: GradedChart, what: str
    ) -> dict[str, WPolynomial]:
        """A block `{ v op expr; ... }`, at most one rule per variable v of
        target, each expression over chart."""
        self.require("{")
        rules: dict[str, WPolynomial] = {}
        while not self.accept("}"):
            at = self.pos
            var = self.chart_variable(target, what)
            if var in rules:
                raise self.error(f"variable {var!r} is assigned twice", at)
            self.require(op)
            rules[var] = self.parse_expression(chart)
            self.require(";")
        return rules

    # Each statement parser starts after its keyword and returns the
    # statement's arguments.

    def parse_chart(self) -> tuple[str, GradedChart]:
        name, at = self.name("chart name")
        self.require("(")
        variables: list[tuple[str, int]] = []
        while True:
            var = self.ident("variable name")
            self.require(":")
            variables.append((var, self.expect_integer("weight")[0]))
            if not self.accept(","):
                break
        self.require(")")
        chart = self.construct(at, GradedChart, name, tuple(variables))
        self.define(self.charts, name, chart, at, "chart")
        return name, chart

    def parse_map(self) -> tuple[str, PolyMap]:
        name, at = self.name("map name")
        self.require(":")
        source = self.reference(self.charts, "chart")[1]
        self.require("->")
        target = self.reference(self.charts, "chart")[1]
        pullbacks = self.parse_rules(target, "=", source, "target variable")
        pmap = self.construct(at, PolyMap, source, target, pullbacks)
        self.define(self.maps, name, pmap, at, "map")
        return name, pmap

    def parse_action(self) -> tuple[str, ActionFamily]:
        name, at = self.name("action name")
        self.require("on")
        _, chart, chart_at = self.reference(self.charts, "chart")
        if ACTION_PARAM in chart:
            raise self.error(
                f"chart {chart.name!r} has a variable named {ACTION_PARAM!r}, "
                "which is reserved for the family parameter",
                chart_at,
            )
        ext = chart.extend(((ACTION_PARAM, 0),))
        entries = self.parse_rules(chart, "->", ext, "chart variable")
        family = self.construct(at, ActionFamily, chart, ACTION_PARAM, entries)
        self.define(self.actions, name, family, at, "action")
        return name, family

    def _double_member(self) -> str:
        self.accept("action")  # tolerated before each member
        return self.reference(self.actions, "action")[0]

    def parse_double(self) -> tuple[str, str, str]:
        name, at = self.name("double name")
        self.require("{")
        first = self._double_member()
        self.require(",", ";")
        second = self._double_member()
        self.accept(";")
        self.require("}")
        self.define(self.doubles, name, (first, second), at, "double")
        return name, first, second

    # --- commands ---------------------------------------------------------

    def parse_check_morphism(self) -> tuple[str]:
        return (self.reference(self.maps, "map")[0],)

    def parse_analyze_action(self) -> tuple[str, tuple[tuple[str, Fraction | int], ...] | None]:
        name, family, _ = self.reference(self.actions, "action")
        point: tuple[tuple[str, Fraction | int], ...] | None = None
        if self.accept("at"):
            self.require("(")
            seen: dict[str, Fraction | int] = {}
            while True:
                at = self.pos
                var = self.chart_variable(family.chart, "chart variable")
                if var in seen:
                    raise self.error(f"variable {var!r} is given twice", at)
                self.require("=")
                negative = self.accept("-")
                value = self.number("rational value")
                seen[var] = -value if negative else value
                if not self.accept(","):
                    break
            self.require(")")
            point = tuple(
                (v, seen[v]) for v in family.chart.names if v in seen
            )
        return name, point

    def parse_prolong(self) -> tuple[str, int]:
        name, pmap, _ = self.reference(self.maps, "map")
        self.require("order")
        order, at = self.expect_integer("order")
        size = max(len(pmap.source), len(pmap.target)) * (order + 1)
        self.adapted(size, at, f"order {order} would adapt a chart")
        terms = _level_terms([m for p in pmap.pullbacks.values() for m in p.terms], order)
        if terms > TERM_BUDGET:
            raise ResourceLimitError(
                f"order {order} may expand the pullbacks to {terms} terms, "
                f"above the budget of {TERM_BUDGET}",
                *self.tokens.span(at),
            )
        return name, order

    def parse_check_double(self) -> tuple[str]:
        return (self.reference(self.doubles, "double")[0],)

    def parse_flip(self) -> tuple[int, int, str]:
        m = self.expect_integer("order")[0]
        n = self.expect_integer("order")[0]
        name, chart, at = self.reference(self.charts, "chart")
        size = len(chart) * (m + 1) * (n + 1)
        self.adapted(size, at, f"flip {m} {n} would adapt chart {chart.name!r}")
        return m, n, name

    def parse_report(self) -> tuple[str]:
        return (self.require("json", "text"),)

    # each statement keyword: the parser of its arguments and their printer,
    # built once with the class
    STATEMENTS: dict[str, tuple[Callable[[_Parser], tuple], Callable[..., str]]] = {
        "chart": (parse_chart, _print_chart),
        "map": (parse_map, _print_map),
        "action": (parse_action, _print_action),
        "double": (parse_double, "{} {{ {}, {} }}".format),
        "check-morphism": (parse_check_morphism, str),
        "analyze-action": (parse_analyze_action, _print_analyze_action),
        "prolong": (parse_prolong, "{} order {}".format),
        "check-double": (parse_check_double, str),
        "flip": (parse_flip, "{} {} {}".format),
        "report": (parse_report, str),
    }

    # --- expressions --------------------------------------------------------
    #
    # The expression parsers return term dicts (wpoly.Terms) and combine them
    # with wpoly's term kernels; parse_expression builds the one WPolynomial.
    # Every dict they return is fresh, so parse_sum adds each product into its
    # own in place: one _terms_combine, the product's sign as its coefficient.

    def parse_expression(self, chart: GradedChart) -> WPolynomial:
        return WPolynomial(chart, self.parse_sum(chart))

    def parse_sum(self, chart: GradedChart) -> dict[Monomial, Fraction | int]:
        acc = self.parse_product(chart)
        texts = self.texts
        while (op := texts[self.pos]) == "+" or op == "-":
            self.pos += 1
            _terms_combine(((1 if op == "+" else -1, self.parse_product(chart)),), acc)
        return acc

    def parse_product(self, chart: GradedChart) -> dict[Monomial, Fraction | int]:
        """Factors joined by `*`, each under any number of unary minuses.

        The plain factors, numbers and variables with their powers, multiply
        into one coefficient and one exponent per variable; only the
        parenthesized factors are term dicts, multiplied with _terms_mul. A
        product has as many terms as the product of its factors' term
        counts, or none once a factor is 0, so the budget on each `*` reads
        the term counts off these without forming the product. Its
        coefficients have about as many bits as its factors' largest
        coefficients added, and the bit budget bounds that sum on each `*`.
        """
        texts = self.texts
        index = chart._index
        coef: Fraction | int = 1
        exponents: dict[int, int] = {}
        acc: dict[Monomial, Fraction | int] | None = None  # the parenthesized factors
        star = -1  # the position of the `*` before this factor
        bits = 0  # the bits of the factors' largest coefficients, added
        pos = self.pos
        while True:
            text = texts[pos]
            while text == "-":
                coef = -coef
                pos += 1
                text = texts[pos]
            var = index.get(text)
            if var is None and text[:1] not in _DIGITS:
                self.pos = pos
                factor = self.parse_group(chart)
                pos = self.pos
                size = len(factor)
                bits += max(map(_bits, factor.values()), default=0)
            else:
                factor = None
                value = 1 if var is not None else _number(text)
                power = 1
                pos += 1
                if texts[pos] == "^":
                    self.pos = pos + 1
                    power = self.exponent(0 if var is None else 1, _bits(value))[0]
                    pos = self.pos
                size = 1 if value or not power else 0
                bits += 0 if var is not None else _bits(value) * power
            if star >= 0:
                before = (1 if acc is None else len(acc)) if coef else 0
                if before * size > TERM_BUDGET:
                    raise ResourceLimitError(
                        f"a product of {before} by {size} terms may give more "
                        f"terms than the budget of {TERM_BUDGET}",
                        *self.tokens.span(star),
                    )
                self.coefficients(bits, star, "a product")
            if factor is not None:
                if coef:
                    acc = factor if acc is None else _terms_mul(acc, factor)
            elif var is None:
                coef *= value**power
            elif power:
                exponents[var] = exponents.get(var, 0) + power
            if texts[pos] != "*":
                break
            star = pos
            pos += 1
        self.pos = pos
        if not coef:
            return {}
        mono = tuple(sorted(exponents.items()))
        if acc is None:
            return {mono: coef}
        if coef == 1 and not mono:
            return acc
        return {_mono_mul(m, mono): c * coef for m, c in acc.items()}

    def parse_group(self, chart: GradedChart) -> dict[Monomial, Fraction | int]:
        """A parenthesized sum and its power; parse_product reads the plain
        factors."""
        if not self.accept("("):
            text = self.texts[self.pos]
            if _is_word(text):
                raise self.error(f"variable {text!r} is not in chart {chart.name!r}", self.pos)
            raise self.unexpected(self.pos, ("a variable", "a number", "("))
        base = self.parse_sum(chart)
        self.require(")")
        if not self.accept("^"):
            return base
        degree = max(map(_mono_total_degree, base), default=0)
        bits = max(map(_bits, base.values()), default=0)
        power, at = self.exponent(degree, bits)
        terms = comb(max(len(base), 1) + power - 1, power)
        if terms > TERM_BUDGET:
            raise ResourceLimitError(
                f"exponent {power} on a base of {len(base)} terms may give "
                f"more terms than the budget of {TERM_BUDGET}",
                *self.tokens.span(at),
            )
        # _terms_pow forms on the order of terms * terms coefficient products
        # of up to power * bits bits: that work has a budget too
        if terms * terms * power * bits > TERM_BUDGET * BIT_BUDGET:
            raise ResourceLimitError(
                f"exponent {power} on a base of {len(base)} terms may give {terms} terms "
                f"of {power * bits} bits, more work than {TERM_BUDGET} terms of {BIT_BUDGET} bits",
                *self.tokens.span(at),
            )
        return _terms_pow(base, power)


# Each keyword is written once: a statement keyword is a key of
# _Parser.STATEMENTS, and these five are only read inside statements.
KEYWORDS = frozenset(_Parser.STATEMENTS) | {"on", "at", "order", "json", "text"}

# Every character is in one gap or one token: a gap is any run of blanks,
# newlines and comments, and each match is a gap then one token. The gap is
# taken whole: the token's `.` and `\Z` alternatives match whatever follows
# it, so the greedy gap is never given back. The token's alternatives are
# tried in order: the hyphenated keywords, longest first, come before
# identifiers, so `check-morphismX` lexes as the keyword and then `X`. `\w`
# is str.isalnum() or `_`, so `[^\W\d]` also admits numerals that are not
# letters, such as `²`; tokenize refuses a word that starts with one. `[0-9]` is ASCII only
# (str.isdigit accepts `²`, which int() refuses). `.` takes any other
# character, `\f` included, as a token that tokenize refuses, and `\Z`
# ends the source with the empty eof token, so the matches leave no
# character between them.
_HYPHENATED = sorted((k for k in KEYWORDS if "-" in k), key=lambda k: (-len(k), k))
_SPLIT = re.compile(
    r"((?:[ \t\r\n]+|#[^\n]*)*)"
    rf"({'|'.join(map(re.escape, _HYPHENATED))}"
    r"|[^\W\d][\w']*|[0-9]+(?:/[0-9]+)?|->|[(){}:;,=+\-*^]|.|\Z)",
    re.DOTALL,
)
_SYMBOLS = frozenset(["->", *"(){}:;,=+-*^"])
_DIGITS = frozenset("0123456789")
# the token texts that are never an error: keywords, symbols and eof's
_LEXEMES = KEYWORDS | _SYMBOLS | {""}


def parse(source: str) -> Program:
    """Parse and resolve a program; raises ParseError with line and column."""
    return _Parser(tokenize(source)).parse_program()


# --- canonical printing ----------------------------------------------------


def print_program(program: Program) -> str:
    """Canonical text for a program; parsing it back gives an equal program."""
    text = "\n".join(map(str, program.statements))
    return text + "\n" if text else ""
