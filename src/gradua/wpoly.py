"""Sparse multivariate polynomials over exact rationals, with weights.

A polynomial is a mapping from monomials to nonzero exact rational
coefficients, stored as int when integral and as a reduced Fraction
otherwise; floats and other inexact numbers are refused. A monomial is a
sorted tuple of (variable index, exponent) pairs with all exponents
positive; the empty tuple is the constant monomial. Indices refer
to positions in the owning chart, which also assigns each variable a natural
weight. The weighted degree of a monomial is sum(weight(v) * exp(v)) over
its factors, and a polynomial is homogeneous of degree r when every monomial
has weighted degree r.

Homogeneity is always decided twice, by two independent routes: scaling
every variable by t**weight and comparing against t**r times the original,
and applying the weighted Euler operator and comparing against r times the
original. The routes must agree; disagreement raises EngineDefectError since
it can only come from a defect in this module.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .charts import GradedChart, fresh_name
from .errors import ChartMismatchError, DomainError, EngineDefectError

Rational = Fraction
Monomial = tuple[tuple[int, int], ...]
Terms = Mapping[Monomial, Fraction | int]

_ZERO = Fraction(0)


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    """Merge two sorted exponent tuples, adding exponents."""
    if not a:
        return b
    if not b:
        return a
    out: list[tuple[int, int]] = []
    i = j = 0
    while i < len(a) and j < len(b):
        ia, ea = a[i]
        ib, eb = b[j]
        if ia == ib:
            out.append((ia, ea + eb))
            i += 1
            j += 1
        elif ia < ib:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def _mono_weighted_degree(mono: Monomial, weights: tuple[int, ...]) -> int:
    return sum(weights[i] * e for i, e in mono)


def _mono_total_degree(mono: Monomial) -> int:
    return sum(e for _, e in mono)


def _exact(value: Fraction | int) -> Fraction:
    """The value as a Fraction; floats and other inexact numbers are refused.

    A Fraction is returned as it is, without a trip through Fraction's
    constructor.
    """
    if type(value) is Fraction:
        return value
    if not isinstance(value, (int, Fraction)):
        raise DomainError(f"coefficient {value!r} is not an exact rational")
    return Fraction(value)


def _coefficient(value: Fraction | int) -> Fraction | int:
    """The stored form of an exact rational: int when integral, else a Fraction."""
    if type(value) is not Fraction:
        value = _exact(value)
    return value.numerator if value.denominator == 1 else value


def _terms_mul(a: Terms, b: Terms) -> dict[Monomial, Fraction | int]:
    """Product of two term dicts, dropping coefficients that cancel to zero.

    The inputs hold no zero coefficient, so a cell's first product is
    nonzero and is stored as it is; no running sum starts from a zero.
    """
    out: dict[Monomial, Fraction | int] = {}
    get = out.get
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            mono = _mono_mul(m1, m2)
            s = get(mono)
            if s is None:
                out[mono] = c1 * c2
            else:
                s += c1 * c2
                if s:
                    out[mono] = s
                else:
                    del out[mono]
    return out


def _terms_add_into(out: dict[Monomial, Fraction | int], terms: Terms) -> None:
    """Add terms into out in place, dropping coefficients that cancel to zero."""
    for mono, c in terms.items():
        s = out.get(mono)
        if s is None:
            out[mono] = c
        else:
            s += c
            if s:
                out[mono] = s
            else:
                del out[mono]


def _terms_pow(a: Terms, n: int) -> Terms:
    """The n-th power of a term dict by repeated squaring; n = 0 gives 1."""
    result: Terms = {(): 1}
    while n:
        if n & 1:
            result = _terms_mul(result, a)
        n >>= 1
        if n:
            a = _terms_mul(a, a)
    return result


def weighted_degree(exponents: Mapping[str, int], chart: GradedChart) -> int:
    """Weight inner product sum(w_i * k_i) of an exponent assignment."""
    total = 0
    for var, e in exponents.items():
        if e < 0:
            raise DomainError(f"negative exponent for {var!r}")
        total += chart.weight_of(var) * e
    return total


class WPolynomial:
    """An immutable sparse polynomial attached to a chart."""

    __slots__ = ("chart", "terms")

    def __init__(self, chart: GradedChart, terms: Terms):
        self.chart = chart
        out: dict[Monomial, Fraction | int] = {}
        for m, c in terms.items():
            if type(c) is not int:
                c = _coefficient(c)
            if c:
                out[m] = c
        self.terms = out

    # construction -----------------------------------------------------

    @classmethod
    def zero(cls, chart: GradedChart) -> WPolynomial:
        return cls(chart, {})

    @classmethod
    def constant(cls, chart: GradedChart, value: Fraction | int) -> WPolynomial:
        return cls(chart, {(): value})

    @classmethod
    def variable(cls, chart: GradedChart, name: str) -> WPolynomial:
        idx = chart.index_of(name)
        return cls(chart, {((idx, 1),): 1})

    @classmethod
    def monomial(
        cls,
        chart: GradedChart,
        exponents: Mapping[str, int],
        coefficient: Fraction | int = 1,
    ) -> WPolynomial:
        pairs = []
        for var, e in exponents.items():
            if e < 0:
                raise DomainError(f"negative exponent for {var!r}")
            if e > 0:
                pairs.append((chart.index_of(var), e))
        pairs.sort()
        return cls(chart, {tuple(pairs): coefficient})

    # predicates and views ----------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def variables(self) -> set[str]:
        names = self.chart.names
        return {names[i] for mono in self.terms for i, _ in mono}

    def total_degree(self) -> int:
        """Largest total degree of any monomial; 0 for the zero polynomial."""
        return max((_mono_total_degree(m) for m in self.terms), default=0)

    def weighted_degree(self) -> int:
        """Largest weighted degree present; 0 for the zero polynomial."""
        w = self.chart.weights
        return max((_mono_weighted_degree(m, w) for m in self.terms), default=0)

    def coefficient(self, exponents: Mapping[str, int]) -> Fraction:
        pairs = sorted((self.chart.index_of(v), e) for v, e in exponents.items() if e > 0)
        return Fraction(self.terms.get(tuple(pairs), 0))

    def constant_term(self) -> Fraction:
        return Fraction(self.terms.get((), 0))

    # arithmetic ---------------------------------------------------------

    def _check_chart(self, other: WPolynomial) -> None:
        if self.chart is not other.chart and self.chart != other.chart:
            raise ChartMismatchError(
                f"charts {self.chart.name!r} and {other.chart.name!r} do not match"
            )

    def __add__(self, other: WPolynomial | Fraction | int) -> WPolynomial:
        if not isinstance(other, WPolynomial):
            if not isinstance(other, (Fraction, int)):
                return NotImplemented
            other = WPolynomial.constant(self.chart, other)
        self._check_chart(other)
        out = dict(self.terms)
        _terms_add_into(out, other.terms)
        return WPolynomial(self.chart, out)

    def __radd__(self, other: Fraction | int) -> WPolynomial:
        return self.__add__(other)

    def __neg__(self) -> WPolynomial:
        return WPolynomial(self.chart, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: WPolynomial | Fraction | int) -> WPolynomial:
        if not isinstance(other, WPolynomial):
            if not isinstance(other, (Fraction, int)):
                return NotImplemented
            other = WPolynomial.constant(self.chart, other)
        return self + (-other)

    def __rsub__(self, other: Fraction | int) -> WPolynomial:
        if isinstance(other, (Fraction, int)):
            return WPolynomial.constant(self.chart, other) - self
        return NotImplemented

    def scale(self, factor: Fraction | int) -> WPolynomial:
        factor = _coefficient(factor)
        if factor == 0:
            return WPolynomial.zero(self.chart)
        return WPolynomial(self.chart, {m: c * factor for m, c in self.terms.items()})

    def __mul__(self, other: WPolynomial | Fraction | int) -> WPolynomial:
        if not isinstance(other, WPolynomial):
            if not isinstance(other, (Fraction, int)):
                return NotImplemented
            return self.scale(other)
        self._check_chart(other)
        return WPolynomial(self.chart, _terms_mul(self.terms, other.terms))

    def __rmul__(self, other: Fraction | int) -> WPolynomial:
        if isinstance(other, (Fraction, int)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, n: int) -> WPolynomial:
        if not isinstance(n, int) or n < 0:
            raise DomainError(f"polynomial power must be a natural number, got {n!r}")
        return WPolynomial(self.chart, _terms_pow(self.terms, n))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WPolynomial):
            return NotImplemented
        return (
            self.chart is other.chart or self.chart == other.chart
        ) and self.terms == other.terms

    __hash__ = None  # type: ignore[assignment]

    # calculus ------------------------------------------------------------

    def differentiate(self, var: str, order: int = 1) -> WPolynomial:
        """Partial derivative, repeated `order` times."""
        if order < 0:
            raise DomainError("derivative order must be a natural number")
        idx = self.chart.index_of(var)
        result = self
        for _ in range(order):
            out: dict[Monomial, Fraction] = {}
            for mono, c in result.terms.items():
                for pos, (i, e) in enumerate(mono):
                    if i == idx:
                        if e == 1:
                            reduced = mono[:pos] + mono[pos + 1:]
                        else:
                            reduced = mono[:pos] + ((i, e - 1),) + mono[pos + 1:]
                        s = out.get(reduced, 0) + c * e
                        if s:
                            out[reduced] = s
                        else:
                            del out[reduced]
                        break
            result = WPolynomial(self.chart, out)
            if result.is_zero():
                break
        return result

    def euler(self) -> WPolynomial:
        """The weighted Euler operator sum(w_i * y_i * df/dy_i)."""
        out = WPolynomial.zero(self.chart)
        for var in sorted(self.variables(), key=self.chart.index_of):
            w = self.chart.weight_of(var)
            if w:
                out = out + WPolynomial.variable(self.chart, var) * self.differentiate(var) * w
        return out

    # structure ------------------------------------------------------------

    def homogeneous_components(self) -> dict[int, WPolynomial]:
        """Split into weighted-homogeneous parts, keyed by degree, ascending."""
        w = self.chart.weights
        buckets: dict[int, dict[Monomial, Fraction]] = {}
        for mono, c in self.terms.items():
            buckets.setdefault(_mono_weighted_degree(mono, w), {})[mono] = c
        return {
            k: WPolynomial(self.chart, terms) for k, terms in sorted(buckets.items())
        }

    def is_homogeneous(self, r: int) -> bool:
        """True when the polynomial is weighted-homogeneous of degree r.

        Decided by both the scaling-substitution route and the Euler-operator
        route; the zero polynomial is homogeneous of every degree.
        """
        if r < 0:
            raise DomainError("homogeneity degree must be a natural number")
        tname = fresh_name("_t", self.chart.names)
        ext = self.chart.extend(((tname, 0),))
        tvar = WPolynomial.variable(ext, tname)
        sigma: dict[str, WPolynomial] = {}
        for var in self.variables():
            sigma[var] = tvar ** self.chart.weight_of(var) * WPolynomial.variable(ext, var)
        scaled = self.substitute(sigma, into=ext)
        by_scaling = scaled == self.lift(ext) * tvar ** r
        by_euler = self.euler() == self.scale(r)
        if by_scaling != by_euler:
            raise EngineDefectError(
                "homogeneity routes disagree: "
                f"scaling={by_scaling} euler={by_euler} for {self}"
            )
        return by_scaling

    # rebasing ---------------------------------------------------------------

    def lift(self, superchart: GradedChart) -> WPolynomial:
        """Reinterpret over a chart that extends this one (same leading vars)."""
        own = self.chart.variables
        if superchart.variables[: len(own)] != own:
            raise ChartMismatchError(
                f"chart {superchart.name!r} does not extend {self.chart.name!r}"
            )
        return WPolynomial(superchart, self.terms)

    def restrict_chart(self, subchart: GradedChart) -> WPolynomial:
        """Rewrite over a sub-chart; fails if a dropped variable occurs."""
        names = self.chart.names
        for var in self.variables():
            if var not in subchart:
                raise DomainError(
                    f"variable {var!r} occurs but is not in chart {subchart.name!r}"
                )
        out: dict[Monomial, Fraction] = {}
        for mono, c in self.terms.items():
            new = tuple(sorted((subchart.index_of(names[i]), e) for i, e in mono))
            out[new] = c
        return WPolynomial(subchart, out)

    # substitution and evaluation ---------------------------------------------

    def substitute(
        self,
        sigma: Mapping[str, WPolynomial],
        into: GradedChart | None = None,
    ) -> WPolynomial:
        """Replace every occurring variable by its assigned polynomial.

        All assigned polynomials must share one target chart; every variable
        occurring in this polynomial must be assigned.
        """
        target = into
        for var, p in sigma.items():
            if not isinstance(p, WPolynomial):
                raise DomainError(f"image of {var!r} is {p!r}, not a polynomial")
            if target is None:
                target = p.chart
            elif p.chart is not target and p.chart != target:
                raise ChartMismatchError("substitution images live on different charts")
        if target is None:
            raise DomainError("substitution into an unknown chart; pass `into`")
        names = self.chart.names
        for var in self.variables():
            if var not in sigma:
                raise DomainError(f"no assignment for variable {var!r}")
        cache: dict[tuple[int, int], Terms] = {}

        def power(i: int, e: int) -> Terms:
            key = (i, e)
            got = cache.get(key)
            if got is None:
                image = sigma[names[i]].terms
                got = image if e == 1 else _terms_pow(image, e)
                cache[key] = got
            return got

        acc: dict[Monomial, Fraction | int] = {}
        for mono, c in self.terms.items():
            prod: Terms = {(): c}
            for i, e in mono:
                prod = _terms_mul(prod, power(i, e))
            _terms_add_into(acc, prod)
        return WPolynomial(target, acc)

    def evaluate(self, point: Mapping[str, Fraction | int]) -> Fraction:
        """Value at a rational point covering every occurring variable."""
        names = self.chart.names
        total = _ZERO
        for mono, c in self.terms.items():
            val = c
            for i, e in mono:
                var = names[i]
                if var not in point:
                    raise DomainError(f"no value for variable {var!r}")
                val *= _exact(point[var]) ** e
            total += val
        return total

    def coefficients_in(self, var: str) -> dict[int, WPolynomial]:
        """Coefficients of powers of one variable, keyed by exponent.

        The coefficients stay on the same chart but no longer involve `var`.
        """
        idx = self.chart.index_of(var)
        buckets: dict[int, dict[Monomial, Fraction]] = {}
        for mono, c in self.terms.items():
            k = 0
            rest = mono
            for pos, (i, e) in enumerate(mono):
                if i == idx:
                    k = e
                    rest = mono[:pos] + mono[pos + 1:]
                    break
            buckets.setdefault(k, {})[rest] = c
        return {k: WPolynomial(self.chart, t) for k, t in sorted(buckets.items())}

    def truncate_total_degree(self, bound: int) -> WPolynomial:
        """Drop monomials of total degree above the bound."""
        return WPolynomial(
            self.chart,
            {m: c for m, c in self.terms.items() if _mono_total_degree(m) <= bound},
        )

    # printing -----------------------------------------------------------------

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        """Terms in canonical order: weighted degree descending, then lexicographic.

        Lexicographic compares dense exponent tuples in declaration order,
        higher powers of earlier variables first, so x^2 precedes y at equal
        weighted degree on the chart (x:1, y:2). The key is sparse: (-wdeg,
        ((i, -e) for each factor x_i^e) + ((n, 0),)), n being the chart's
        length. It orders monomials exactly as the dense key (-wdeg, (-e_0,
        ..., -e_(n-1))) does. At equal weighted degree, let j be the first
        index where the dense exponents differ, say a_j > b_j. Both sparse
        keys hold the same pairs before index j, and a's next pair is (j,
        -a_j). b's next pair is (j, -b_j) when b_j > 0, which a's precedes
        as -a_j < -b_j; otherwise it is a pair (i, -b_i) with i > j or the
        sentinel (n, 0), which a's precedes as j < i and j < n. So a comes
        first under both keys. Without the sentinel, a monomial that lacks
        every later variable would be a prefix of the other's key and sort
        first, which is the wrong way round.
        """
        weights = self.chart.weights
        end = ((len(weights), 0),)

        def key(term: tuple[Monomial, Fraction | int]) -> tuple:
            mono = term[0]
            return (
                -sum([weights[i] * e for i, e in mono]),
                tuple([(i, -e) for i, e in mono]) + end,
            )

        return sorted(self.terms.items(), key=key)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        names = self.chart.names
        pieces: list[str] = []
        for mono, c in self.sorted_terms():
            factors = []
            for i, e in mono:
                factors.append(names[i] if e == 1 else f"{names[i]}^{e}")
            if not factors:
                body = str(abs(c))
            elif abs(c) == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(abs(c))] + factors)
            if not pieces:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"WPolynomial({self.chart.name!r}, {self})"


def monomial_basis(chart: GradedChart, k: int) -> list[tuple[tuple[str, int], ...]]:
    """All exponent assignments of weighted degree exactly k, canonical order.

    Every chart variable must have positive weight; a weight-0 variable would
    make the basis infinite, so its presence is a domain error. Entries are
    tuples of (variable, exponent) pairs in declaration order.
    """
    if k < 0:
        raise DomainError("weighted degree must be a natural number")
    for var, w in chart.variables:
        if w == 0:
            raise DomainError(
                f"weight-0 variable {var!r} makes the degree-{k} basis infinite"
            )
    specs = chart.variables
    out: list[tuple[tuple[str, int], ...]] = []

    def go(pos: int, remaining: int, acc: list[tuple[str, int]]) -> None:
        if pos == len(specs):
            if remaining == 0:
                out.append(tuple(acc))
            return
        var, w = specs[pos]
        for e in range(remaining // w, -1, -1):
            if e:
                acc.append((var, e))
            go(pos + 1, remaining - e * w, acc)
            if e:
                acc.pop()

    go(0, k, [])
    return out
