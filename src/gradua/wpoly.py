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

Homogeneity is always decided twice, by two independent routes, each on
term dicts with no object-level product, sum or derivative, in one helper,
_homogeneity_failures, for any number of polynomials on one chart:
is_homogeneous is its one-polynomial call, and graded decides a map's
gradedness by one call over all its pullbacks. The scaling route is one
call of the scaling kernel, _scaling_failures, for all the polynomials,
under the standard action x -> t**weight * x, whose images come from
_scaling_terms, the one builder of the model family x_i -> t**p_i * x_i
(graded's standard action and jets' level scaling are built from it too).
The Euler route builds each polynomial's weighted Euler operator as one
_terms_combine of the parts x * df/dx, read off the exponents, and compares
it with r times the original. The routes must agree; disagreement raises
EngineDefectError since it can only come from a defect in this module.

Substitution has one kernel, _terms_substitute. It pushes any number of
term dicts through one list of images indexed by variable, with one cache
of powers shared by every polynomial of the call, and forms each result in
one pass over its terms c * m: the powers of m's factors multiplied left to
right, and c times each cell of that product added in place. No monomial
or prefix image is kept. WPolynomial.substitute is its validated public
wrapper; the Picard rounds, the family composites and the composite of two
maps (graded.PolyMap.then) call it on term dicts directly.

The scaling kernel decides h_t^* f = t^r f for any number of polynomials
f and one family h_t given by its images, with t a variable index above
every index of the f: one pass of the substitution kernel on integer
numerators (_cleared), compared with the term dicts of t^r f. It serves
_homogeneity_failures (the standard action) and the certificate's scaling
check in action (any family).
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import lcm
from typing import Hashable, Iterable, Mapping, Sequence

from .charts import GradedChart
from .errors import ChartMismatchError, DomainError, EngineDefectError

Monomial = tuple[tuple[int, int], ...]
Terms = Mapping[Monomial, Fraction | int]


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


def _natural(value: int, what: str) -> int:
    """The value when it is a natural number; DomainError otherwise.

    Exponents, derivative orders and powers go through this check, as
    coefficients go through _exact, and so do the other orders, levels and
    degrees: jet orders and levels (jets), truncation levels (graded),
    basis and homogeneity degrees. A bool, a float or a negative number is
    refused; a caller's range check follows it.
    """
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise DomainError(f"{what} must be a natural number, got {value!r}")
    return value


def _monomial(chart: GradedChart, exponents: Mapping[str, int]) -> Monomial:
    """The monomial of an exponent assignment over chart.

    Every variable must be in chart, at exponent 0 too, and every exponent
    must be a natural number (_natural).
    """
    pairs = []
    for var, e in exponents.items():
        i = chart.index_of(var)
        if _natural(e, f"exponent of {var!r}"):
            pairs.append((i, e))
    pairs.sort()
    return tuple(pairs)


def _scaling_terms(powers: Sequence[int]) -> list[dict[Monomial, int]]:
    """The term dicts of the model family x_i -> x_i * t^powers[i], t at
    index len(powers), after every x_i; a power 0 fixes x_i."""
    t = len(powers)
    return [{((i, 1), (t, p)) if p else ((i, 1),): 1} for i, p in enumerate(powers)]


def _numerators(values: Mapping[Hashable, Fraction | int]) -> tuple[dict, int]:
    """The values as integer numerators over their least common denominator
    d, and d: value = numerator / d for every key. Ints and Fractions only,
    so no Fraction arithmetic is done."""
    d = lcm(*(c.denominator for c in values.values()))
    return {k: c.numerator * (d // c.denominator) for k, c in values.items()}, d


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


def _terms_combine(
    pairs: Iterable[tuple[Fraction | int, Terms]],
    out: dict[Monomial, Fraction | int] | None = None,
) -> dict[Monomial, Fraction | int]:
    """The linear combination sum c * terms over (c, terms) pairs, added into
    out (a fresh dict by default), dropping cells that cancel to zero.

    A pair with c = 0 is skipped, so every stored product is nonzero. The
    coefficients are not put in stored form: an integral Fraction product
    stays a Fraction until one WPolynomial is built from the result.
    """
    if out is None:
        out = {}
    get = out.get
    for c, terms in pairs:
        if not c:
            continue
        for mono, a in terms.items():
            s = get(mono)
            if s is None:
                out[mono] = a * c
            else:
                s += a * c
                if s:
                    out[mono] = s
                else:
                    del out[mono]
    return out


def _terms_pow(a: Terms, n: int) -> Terms:
    """The n-th power of a term dict by repeated squaring; n = 0 gives 1.

    The first factor of the result is taken as it is, not multiplied by 1,
    so n = 1 returns a itself and no product with the constant 1 is formed.
    """
    result: Terms | None = None
    while n:
        if n & 1:
            result = a if result is None else _terms_mul(result, a)
        n >>= 1
        if n:
            a = _terms_mul(a, a)
    return {(): 1} if result is None else result


def _terms_substitute(
    polys: Iterable[Terms], images: Sequence[Terms]
) -> list[dict[Monomial, Fraction | int]]:
    """Each term dict of polys with every variable i replaced by images[i].

    One pass per polynomial. The powers images[i]^e are built once per call
    and shared by every polynomial of it. For each term c * m, the powers of
    m's factors are multiplied left to right, and c times each cell of that
    product is added straight into the result, a cell that cancels deleted:
    no monomial or prefix image is kept, no product with a constant is
    formed, and no second pass adds the parts. Images are indexed only at
    the variables that occur, so the others may be anything.
    """
    powers: dict[tuple[int, int], Terms] = {}
    results = []
    for terms in polys:
        out: dict[Monomial, Fraction | int] = {}
        get = out.get
        for mono, c in terms.items():
            product = None
            for factor in mono:
                power = powers.get(factor)
                if power is None:
                    i, e = factor
                    power = powers[factor] = images[i] if e == 1 else _terms_pow(images[i], e)
                product = power if product is None else _terms_mul(product, power)
            if product is None:  # the constant monomial
                product = {(): 1}
            for m, a in product.items():
                s = get(m)
                if s is None:
                    out[m] = a * c
                else:
                    s += a * c
                    if s:
                        out[m] = s
                    else:
                        del out[m]
        results.append(out)
    return results


def _cleared(polys: Iterable[Terms]) -> list[tuple[dict[Monomial, int], int]]:
    """Each term dict phi_i as its integer numerators over its least common
    denominator, Phi_i = D_i phi_i, with its total degree K_i: the form in
    which _scaling_failures takes its polynomials, built once however many
    families they are checked under."""
    return [
        (ints, max(map(_mono_total_degree, ints)) if ints else 0)
        for ints, _ in map(_numerators, polys)
    ]


def _scaling_failures(
    cleared: Sequence[tuple[Terms, int]], powers: Sequence[int], images: Sequence[Terms], t: int
) -> list[int]:
    """The positions i at which h^* phi_i is not t^powers[i] phi_i, phi_i
    given by _cleared and h^* replacing every variable j by images[j].

    t is the index of the parameter, above every index of the phi_i, so the
    terms of t^r phi_i are those of phi_i with (t, r) appended to each
    monomial, still sorted (phi_i itself when r = 0), and the identity is an
    equality of term dicts. It is decided on integers. _cleared gives Phi_i
    = D_i phi_i = sum_m c_m x^m with integer c_m and total degree K; let E
    clear the denominators of the images, H = E h. h^* is Q-linear and
    multiplicative, so D_i E^K h^* phi_i = sum_m c_m E^(K - |m|) H^m, and
    h^* phi_i = t^r phi_i holds exactly when sum_m c_m E^(K - |m|) H^m = E^K
    t^r Phi_i: D_i E^K is not 0. Both sides are integer term dicts, the left
    one pass of the substitution kernel for all the polynomials at once.
    """
    e = lcm(*(c.denominator for terms in images for c in terms.values()))
    big = [{m: c.numerator * (e // c.denominator) for m, c in terms.items()} for terms in images]
    pushed = _terms_substitute(
        [
            {m: c * e ** (k - _mono_total_degree(m)) for m, c in ints.items()}
            for ints, k in cleared
        ],
        big,
    )
    failures = []
    for i, ((ints, k), r, got) in enumerate(zip(cleared, powers, pushed)):
        tail = ((t, r),) if r else ()
        top = e**k
        if got != {m + tail: c * top for m, c in ints.items()}:
            failures.append(i)
    return failures


def _terms_euler(terms: Terms, weights: Sequence[int]) -> dict[Monomial, Fraction | int]:
    """The weighted Euler operator sum(w_i * y_i * df/dy_i) of a term dict,
    as one combination.

    y_i * df/dy_i keeps every monomial that holds y_i and multiplies its
    coefficient by the exponent of y_i, so each part is read off the
    exponents with no product and no derivative; weight-0 parts are skipped
    by the combination.
    """
    parts: dict[int, dict[Monomial, Fraction | int]] = {}
    for mono, c in terms.items():
        for i, e in mono:
            parts.setdefault(i, {})[mono] = c * e
    return _terms_combine((weights[i], part) for i, part in sorted(parts.items()))


def _homogeneity_failures(
    chart: GradedChart, polys: Sequence[Terms], degrees: Sequence[int]
) -> list[int]:
    """The positions i at which polys[i], a term dict over chart, is not
    weighted-homogeneous of degree degrees[i]; zero is homogeneous of every
    degree.

    Decided by both routes, on term dicts; no chart is built, and a
    polynomial only to name the first poly on which the routes disagree, in
    the EngineDefectError that disagreement raises. The scaling route is
    one call of the scaling kernel (_scaling_failures) for all the polys,
    under the standard action x_i -> x_i * t^(w_i), t at index len(chart),
    its images from _scaling_terms. The Euler route compares each poly's
    _terms_euler with r times the poly ({} when r = 0).
    """
    weights = chart.weights
    scaling = _scaling_failures(_cleared(polys), degrees, _scaling_terms(weights), len(weights))
    for i, (terms, r) in enumerate(zip(polys, degrees)):
        by_euler = _terms_euler(terms, weights) == {m: c * r for m, c in terms.items() if r}
        if by_euler == (i in scaling):
            raise EngineDefectError(
                "homogeneity routes disagree: "
                f"scaling={not by_euler} euler={by_euler} for {WPolynomial(chart, terms)}"
            )
    return scaling


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
        return cls(chart, {_monomial(chart, exponents): coefficient})

    # predicates and views ----------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def variables(self) -> set[str]:
        names = self.chart.names
        return {names[i] for mono in self.terms for i, _ in mono}

    def total_degree(self) -> int:
        """Largest total degree of any monomial; 0 for the zero polynomial."""
        return max((_mono_total_degree(m) for m in self.terms), default=0)

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
        return WPolynomial(self.chart, _terms_pow(self.terms, _natural(n, "polynomial power")))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WPolynomial):
            return NotImplemented
        return (
            self.chart is other.chart or self.chart == other.chart
        ) and self.terms == other.terms

    __hash__ = None  # type: ignore[assignment]

    # calculus ------------------------------------------------------------

    def differentiate(self, var: str, order: int = 1) -> WPolynomial:
        """Partial derivative, repeated `order` times.

        A round forms no sum. d/dx_i sends the term c*x_i^e*m, m free of x_i,
        to c*e*x_i^(e-1)*m: one to one on the monomials that hold x_i, since
        m and e come back from the image, and c*e != 0 for e >= 1. So no two
        images meet and none cancels, and each round is one comprehension.
        """
        idx = self.chart.index_of(var)
        result = self
        for _ in range(_natural(order, "derivative order")):
            result = WPolynomial(self.chart, {
                mono[:pos] + ((i, e - 1),) * (e > 1) + mono[pos + 1:]: c * e
                for mono, c in result.terms.items()
                for pos, (i, e) in enumerate(mono)
                if i == idx
            })
            if result.is_zero():
                break
        return result

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

        The one-polynomial call of _homogeneity_failures: both routes, on
        term dicts; the zero polynomial is homogeneous of every degree.
        """
        return not _homogeneity_failures(
            self.chart, (self.terms,), (_natural(r, "homogeneity degree"),)
        )

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

    # substitution --------------------------------------------------------------

    def substitute(
        self,
        sigma: Mapping[str, WPolynomial],
        into: GradedChart | None = None,
    ) -> WPolynomial:
        """Replace every occurring variable by its assigned polynomial.

        All assigned polynomials must share one target chart; every variable
        occurring in this polynomial must be assigned. The work is one call
        of the kernel _terms_substitute.
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
        for var in self.variables():
            if var not in sigma:
                raise DomainError(f"no assignment for variable {var!r}")
        images = [sigma[v].terms if v in sigma else {} for v in self.chart.names]
        return WPolynomial(target, _terms_substitute((self.terms,), images)[0])

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
        """Terms in canonical order, each sign and magnitude read off the
        coefficient's numerator and denominator. A coefficient with more
        decimal digits than Python writes as text is a DomainError, typed as
        the engine's other refusals, and the process-wide limit stays."""
        terms = self.terms
        if not terms:
            return "0"
        names = self.chart.names
        pieces: list[str] = []
        try:
            for mono, c in self.sorted_terms() if len(terms) > 1 else terms.items():
                num = c.numerator
                den = c.denominator
                if num < 0:
                    sign, num = "- ", -num
                else:
                    sign = "+ "
                factors = [names[i] if e == 1 else f"{names[i]}^{e}" for i, e in mono]
                if den != 1:
                    factors.insert(0, f"{num}/{den}")
                elif num != 1 or not factors:
                    factors.insert(0, str(num))
                pieces.append(sign + "*".join(factors))
        except ValueError:  # str() refuses an int past sys.get_int_max_str_digits()
            bits = max(abs(c.numerator), c.denominator).bit_length()
            raise DomainError(
                f"a coefficient of {bits} bits has more than the "
                f"{sys.get_int_max_str_digits()} decimal digits Python writes"
            ) from None
        first = pieces[0]
        pieces[0] = first[2:] if first[0] == "+" else "-" + first[2:]
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"WPolynomial({self.chart.name!r}, {self})"


def monomial_basis(chart: GradedChart, k: int) -> list[tuple[tuple[str, int], ...]]:
    """All exponent assignments of weighted degree exactly k, canonical order.

    Every chart variable must have positive weight; a weight-0 variable would
    make the basis infinite, so its presence is a domain error. Entries are
    tuples of (variable, exponent) pairs in declaration order.
    """
    _natural(k, "weighted degree")
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
