"""Core polynomial arithmetic: frozen values, algebraic laws, fused kernels.

The reference kernels near the end are the object-level `__mul__`, `__pow__`
and `substitute` that the fused term-dict kernels in gradua.wpoly replaced
(the substitution kernel, _terms_substitute, takes several polynomials at
once and is checked against one substitute per polynomial):
Fraction running sums, one WPolynomial per factor. They are kept here only
as the oracle, next to a sympy oracle for the same three operations. The
object-level `is_homogeneous` and Euler operator, which products, sums,
lifts and derivatives of WPolynomials computed before both routes ran on
term dicts, are kept the same way.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradua.charts import GradedChart, fresh_name
from gradua.errors import (
    ChartMismatchError,
    DomainError,
    EngineDefectError,
    UnknownVariableError,
)
from gradua.wpoly import (
    WPolynomial,
    _coefficient,
    _exact,
    _mono_mul,
    _terms_combine,
    _terms_euler,
    _terms_pow,
    _terms_substitute,
    monomial_basis,
)

from helpers import prefix_cached_substitute, terms_add_into, weighted_degree

V = GradedChart("V", (("x", 1), ("y", 2)))
W = GradedChart("W", (("x1", 1), ("x2", 1), ("y", 2)))
B = GradedChart("B", (("a", 0), ("x", 1), ("y", 2)))

X = WPolynomial.variable(V, "x")
Y = WPolynomial.variable(V, "y")


def test_basic_arithmetic_frozen():
    assert str(X + X) == "2*x"
    assert str((X + Y) * (X - Y)) == "-y^2 + x^2"
    assert str(X - X) == "0"
    assert str((X + 1) ** 2) == "x^2 + 2*x + 1"
    assert str(-(X * 2 - Y)) == "y - 2*x"


def test_canonical_order_puts_higher_weight_first():
    # x^2 and y both have weighted degree 2; ties break lexicographically
    # by exponents, so x^2 prints first.
    assert str(X * X + Y) == "x^2 + y"


def test_constant_and_zero():
    zero = WPolynomial.zero(V)
    assert zero.is_zero()
    assert str(zero) == "0"
    assert WPolynomial.constant(V, Fraction(3, 4)).terms == {(): Fraction(3, 4)}
    assert (X * 0).is_zero()


def test_weighted_and_total_degree():
    p = X**3 + Y
    assert weighted_degree(p) == 3
    assert p.total_degree() == 3
    assert weighted_degree(Y) == 2
    assert Y.total_degree() == 1
    assert weighted_degree(WPolynomial.monomial(V, {"x": 1, "y": 2})) == 5


def test_differentiate_power_rule():
    p = X**3 * Fraction(1, 2) + X * Y
    assert str(p.differentiate("x")) == "3/2*x^2 + y"
    assert str(p.differentiate("y")) == "x"
    assert str(p.differentiate("x", 2)) == "3*x"
    assert p.differentiate("y", 2).is_zero()


def test_differentiate_unknown_variable():
    with pytest.raises(UnknownVariableError):
        X.differentiate("z")


def test_euler_operator_frozen():
    p = X**2 + Y
    assert str(WPolynomial(V, _terms_euler(p.terms, V.weights))) == "2*x^2 + 2*y"


def test_homogeneous_components():
    p = X**2 + Y + X + 1
    comps = p.homogeneous_components()
    assert sorted(comps) == [0, 1, 2]
    assert str(comps[2]) == "x^2 + y"
    assert str(comps[1]) == "x"
    assert str(comps[0]) == "1"


def test_dual_route_homogeneity():
    assert (X**2 + Y).is_homogeneous(2)
    assert not (X**2 + Y).is_homogeneous(1)
    assert not (X**2 + X).is_homogeneous(2)
    assert WPolynomial.zero(V).is_homogeneous(5)
    # weight-0 variables, r = 0, and a chart that already has a variable _t
    T = GradedChart("T", (("_t", 1), ("a", 0), ("y", 2)))
    t, a, y = (WPolynomial.variable(T, v) for v in T.names)
    assert (t**2 * a + y * a**3 - Fraction(1, 3) * y).is_homogeneous(2)
    assert not (t * a + y).is_homogeneous(1)
    assert (a**2 + 5).is_homogeneous(0)
    assert not (a + t).is_homogeneous(0)
    assert WPolynomial.zero(T).is_homogeneous(0)
    assert str(WPolynomial(T, _terms_euler((t * a + y).terms, T.weights))) == "2*y + _t*a"


def test_substitution_diagonalizes_quadric():
    # frozen: x1 -> x1p + x2p, x2 -> x1p - x2p, y -> yp turns y + x1^2
    # into yp + (x1p + x2p)^2
    Wp = GradedChart("Wp", (("x1p", 1), ("x2p", 1), ("yp", 2)))
    f = WPolynomial.variable(W, "y") + WPolynomial.variable(W, "x1") ** 2
    sigma = {
        "x1": WPolynomial.variable(Wp, "x1p") + WPolynomial.variable(Wp, "x2p"),
        "x2": WPolynomial.variable(Wp, "x1p") - WPolynomial.variable(Wp, "x2p"),
        "y": WPolynomial.variable(Wp, "yp"),
    }
    assert str(f.substitute(sigma)) == "x1p^2 + 2*x1p*x2p + x2p^2 + yp"


def test_substitute_requires_coverage():
    f = X + Y
    with pytest.raises(DomainError):
        f.substitute({"x": WPolynomial.variable(V, "x")})


def test_substitute_rejects_mixed_charts():
    f = X + Y
    with pytest.raises(ChartMismatchError):
        f.substitute(
            {"x": WPolynomial.variable(V, "x"), "y": WPolynomial.variable(W, "y")}
        )


def test_coefficients_in():
    p = X**2 * Y + X**2 + Y * 5
    by_x = p.coefficients_in("x")
    assert sorted(by_x) == [0, 2]
    assert str(by_x[2]) == "y + 1"
    assert str(by_x[0]) == "5*y"


def test_lift_and_restrict():
    ext = V.extend((("t", 0),))
    lifted = (X + Y).lift(ext)
    assert lifted.chart == ext
    assert lifted.restrict_chart(V) == X + Y
    t = WPolynomial.variable(ext, "t")
    with pytest.raises(DomainError):
        (lifted * t).restrict_chart(V)


def test_monomial_basis_frozen():
    basis = monomial_basis(V, 4)
    assert basis == [
        (("x", 4),),
        (("x", 2), ("y", 1)),
        (("y", 2),),
    ]
    assert monomial_basis(V, 0) == [()]
    with pytest.raises(DomainError):
        monomial_basis(B, 2)


def test_pow_negative_rejected():
    with pytest.raises(DomainError):
        X ** (-1)


def test_bool_weight_rejected():
    with pytest.raises(DomainError):
        GradedChart("B", (("x", True),))


def test_float_constant_rejected():
    with pytest.raises(DomainError):
        WPolynomial.constant(V, 0.1)


def test_float_monomial_coefficient_rejected():
    with pytest.raises(DomainError):
        WPolynomial.monomial(V, {"x": 1}, 0.5)


def test_float_scale_factor_rejected():
    # Fraction(0.1) would store 3602879701896397/36028797018963968
    with pytest.raises(DomainError):
        X.scale(0.1)


# An exponent, a derivative order or a power is a natural number: an int that
# is not a bool. A variable named in an exponent assignment is a chart
# variable, at exponent 0 too. Anything else raises DomainError.


def test_float_exponent_rejected():
    with pytest.raises(DomainError):
        WPolynomial.monomial(V, {"x": 1.5})


def test_negative_exponent_rejected_by_monomial():
    with pytest.raises(DomainError):
        WPolynomial.monomial(V, {"x": -1})


def test_bool_exponent_rejected():
    with pytest.raises(DomainError):
        WPolynomial.monomial(V, {"x": True})


def test_unknown_variable_at_exponent_zero_rejected_by_monomial():
    with pytest.raises(UnknownVariableError):
        WPolynomial.monomial(V, {"x": 1, "z": 0})


@pytest.mark.parametrize("order", [1.5, True])
def test_inexact_derivative_order_rejected(order):
    with pytest.raises(DomainError):
        X.differentiate("x", order)


def test_bool_power_rejected():
    with pytest.raises(DomainError):
        X**True


def test_exponent_zero_of_a_chart_variable_is_accepted():
    assert WPolynomial.monomial(V, {"x": 0, "y": 0}, 2) == WPolynomial.constant(V, 2)
    assert WPolynomial.monomial(V, {"x": 0}, 5) == WPolynomial.constant(V, 5)
    assert weighted_degree(WPolynomial.monomial(V, {"x": 0, "y": 2})) == 4


@pytest.mark.parametrize("value", [0.5, 0.0, 2.0, "1"])
def test_raw_constructor_rejects_inexact_coefficients(value):
    # 0.0 must be refused too, not dropped as a zero coefficient
    with pytest.raises(DomainError):
        WPolynomial(V, {((0, 1),): value})


def test_exact_passes_a_fraction_through_and_converts_the_rest():
    half = Fraction(1, 2)
    assert _exact(half) is half
    assert _exact(3) == Fraction(3) and type(_exact(3)) is Fraction
    assert type(_exact(True)) is Fraction
    for value in (0.5, "1", None):
        with pytest.raises(DomainError):
            _exact(value)


def test_raw_constructor_stores_integral_coefficients_as_int():
    p = WPolynomial(V, {((0, 1),): Fraction(6, 3), ((1, 1),): Fraction(1, 2), (): True})
    assert [type(c) for c in p.terms.values()] == [int, Fraction, int]
    assert p.terms == {((0, 1),): 2, ((1, 1),): Fraction(1, 2), (): 1}


@pytest.mark.parametrize("image", [2, Fraction(1, 2), 0.5, "x"])
def test_substitute_rejects_a_non_polynomial_image(image):
    with pytest.raises(DomainError):
        X.substitute({"x": image})


# --- algebraic laws ----------------------------------------------------------

CHARTS = (
    V,
    W,
    GradedChart("U", (("u", 1), ("v", 3))),
)


@st.composite
def polynomials(draw, chart=None):
    if chart is None:
        chart = draw(st.sampled_from(CHARTS))
    coeffs = st.fractions(
        min_value=-4, max_value=4, max_denominator=3
    )
    terms = draw(
        st.lists(
            st.tuples(
                st.tuples(*[st.integers(0, 3) for _ in chart.names]), coeffs
            ),
            max_size=4,
        )
    )
    acc = WPolynomial.zero(chart)
    for exponents, c in terms:
        mono = {v: e for v, e in zip(chart.names, exponents) if e}
        acc = acc + WPolynomial.monomial(chart, mono, c)
    return acc


@st.composite
def polynomial_pairs(draw):
    chart = draw(st.sampled_from(CHARTS))
    return draw(polynomials(chart=chart)), draw(polynomials(chart=chart))


@st.composite
def polynomial_triples(draw):
    chart = draw(st.sampled_from(CHARTS))
    return tuple(draw(polynomials(chart=chart)) for _ in range(3))


@given(polynomial_pairs())
def test_addition_commutes(pair):
    f, g = pair
    assert f + g == g + f


@given(polynomial_pairs())
def test_multiplication_commutes(pair):
    f, g = pair
    assert f * g == g * f


@given(polynomial_triples())
def test_distributivity(triple):
    f, g, h = triple
    assert f * (g + h) == f * g + f * h


@given(polynomial_triples())
def test_multiplication_associates(triple):
    f, g, h = triple
    assert (f * g) * h == f * (g * h)


@given(polynomials(), st.integers(0, 4))
def test_pow_matches_repeated_multiplication(f, n):
    expected = WPolynomial.constant(f.chart, 1)
    for _ in range(n):
        expected = expected * f
    assert f**n == expected


@given(polynomials())
def test_components_sum_back(f):
    comps = f.homogeneous_components()
    acc = WPolynomial.zero(f.chart)
    for part in comps.values():
        acc = acc + part
    assert acc == f
    for degree, part in comps.items():
        assert part.is_homogeneous(degree)


@settings(max_examples=60)
@given(polynomials())
def test_dual_routes_never_disagree(f):
    # is_homogeneous computes the scaling route and the derivation route and
    # raises if they split; sweeping random polynomials defends the pairing.
    for r in range(0, weighted_degree(f) + 1):
        try:
            verdict = f.is_homogeneous(r)
        except EngineDefectError:  # pragma: no cover - defect guard
            raise AssertionError("homogeneity routes disagreed")
        comps = f.homogeneous_components()
        truth = f.is_zero() or (set(comps) == {r})
        assert verdict == truth


@given(polynomial_pairs())
def test_substitution_is_a_ring_map(pair):
    f, g = pair
    chart = f.chart
    sigma = {v: WPolynomial.variable(chart, v) ** 2 for v in chart.names}
    lhs = (f * g).substitute(sigma, into=chart)
    rhs = f.substitute(sigma, into=chart) * g.substitute(sigma, into=chart)
    assert lhs == rhs
    assert (f + g).substitute(sigma, into=chart) == f.substitute(
        sigma, into=chart
    ) + g.substitute(sigma, into=chart)


@given(polynomial_pairs())
def test_derivative_leibniz(pair):
    f, g = pair
    v = f.chart.names[0]
    lhs = (f * g).differentiate(v)
    rhs = f.differentiate(v) * g + f * g.differentiate(v)
    assert lhs == rhs


# --- fused kernels against the object-level reference ------------------------

ZERO = Fraction(0)


def ref_mul(f, g):
    out = {}
    for m1, c1 in f.terms.items():
        for m2, c2 in g.terms.items():
            mono = _mono_mul(m1, m2)
            s = out.get(mono, ZERO) + c1 * c2
            if s:
                out[mono] = s
            else:
                del out[mono]
    return WPolynomial(f.chart, out)


def ref_pow(f, n):
    result = WPolynomial.constant(f.chart, 1)
    base = f
    while n:
        if n & 1:
            result = ref_mul(result, base)
        base = ref_mul(base, base) if n > 1 else base
        n >>= 1
    return result


def ref_substitute(f, sigma, target):
    names = f.chart.names
    acc = {}
    for mono, c in f.terms.items():
        prod = WPolynomial.constant(target, c)
        for i, e in mono:
            prod = ref_mul(prod, ref_pow(sigma[names[i]], e))
        for m, cc in prod.terms.items():
            s = acc.get(m, ZERO) + cc
            if s:
                acc[m] = s
            else:
                del acc[m]
    return WPolynomial(target, acc)


def assert_same(got, want):
    # equal, and with the terms in the same order: reports list terms in
    # canonical order, but dict order must not drift under the kernels either
    assert got == want
    assert list(got.terms) == list(want.terms)


def assert_stored_form(p):
    """No stored coefficient is zero or an integral Fraction."""
    for c in p.terms.values():
        assert type(c) in (int, Fraction)
        assert c != 0
        assert type(c) is int or c.denominator != 1


KERNEL_CHARTS = (
    V,
    W,
    B,
    GradedChart("Z", (("a", 0), ("b", 0))),
    GradedChart("E", ()),
)

# ints, proper fractions, and integral Fractions passed in unreduced
COEFFS = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-4, max_value=4, max_denominator=5),
    st.integers(-3, 3).map(lambda k: Fraction(2 * k, 2)),
)


@st.composite
def raw_polynomials(draw, chart):
    """Polynomials built through the raw constructor, zero included."""
    exps = st.tuples(*[st.integers(0, 2) for _ in chart.names])
    terms = draw(st.dictionaries(exps, COEFFS, max_size=4))
    return WPolynomial(
        chart,
        {tuple((i, e) for i, e in enumerate(k) if e): c for k, c in terms.items()},
    )


@st.composite
def kernel_pairs(draw):
    chart = draw(st.sampled_from(KERNEL_CHARTS))
    return draw(raw_polynomials(chart)), draw(raw_polynomials(chart))


@st.composite
def substitutions(draw):
    source = draw(st.sampled_from(KERNEL_CHARTS))
    target = draw(st.sampled_from(KERNEL_CHARTS))
    f = draw(raw_polynomials(source))
    sigma = {v: draw(raw_polynomials(target)) for v in source.names}
    return f, sigma, target


@given(kernel_pairs())
def test_fused_mul_matches_reference(pair):
    f, g = pair
    got = f * g
    assert_same(got, ref_mul(f, g))
    assert_stored_form(got)


@given(kernel_pairs())
def test_fused_mul_with_cancelling_cross_terms(pair):
    # (a + b)(a - b): the cross terms cancel cell by cell inside the kernel
    a, b = pair
    got = (a + b) * (a - b)
    assert_same(got, ref_mul(a + b, a - b))
    assert got == ref_mul(a, a) - ref_mul(b, b)
    assert_stored_form(got)


@given(st.sampled_from(KERNEL_CHARTS).flatmap(raw_polynomials), st.integers(0, 5))
def test_fused_pow_matches_reference(f, n):
    got = f**n
    assert_same(got, ref_pow(f, n))
    assert_stored_form(got)


@settings(max_examples=150)
@given(substitutions())
def test_fused_substitute_matches_reference(case):
    f, sigma, target = case
    got = f.substitute(sigma, into=target)
    assert_same(got, ref_substitute(f, sigma, target))
    assert_stored_form(got)


@st.composite
def shared_substitutions(draw):
    """Several polynomials on one chart and one map of images: with
    exponents up to 2 on small charts, they share monomials and powers."""
    source = draw(st.sampled_from(KERNEL_CHARTS))
    target = draw(st.sampled_from(KERNEL_CHARTS))
    polys = draw(st.lists(raw_polynomials(source), min_size=1, max_size=4))
    sigma = {v: draw(raw_polynomials(target)) for v in source.names}
    return polys, sigma, target


@settings(max_examples=150)
@given(shared_substitutions())
def test_one_shared_substitution_matches_one_substitute_per_polynomial(case):
    polys, sigma, target = case
    images = [sigma[v].terms for v in polys[0].chart.names]
    got = _terms_substitute([p.terms for p in polys], images)
    assert len(got) == len(polys)
    for p, terms in zip(polys, got):
        assert all(terms.values())  # cells that cancel are dropped
        want = p.substitute(sigma, into=target)
        assert_same(WPolynomial(target, terms), want)
        assert_same(want, ref_substitute(p, sigma, target))


SOURCE = GradedChart("S", (("a", 0), ("x1", 1), ("x2", 1), ("y", 2)))


def seeded_substitution(rng):
    """A call of the substitution kernel on seeded term dicts over SOURCE,
    with images over W given only at the variables that occur.

    Every call holds the constant monomial, a monomial repeated in each of
    its polynomials, exponents up to 3, and int and Fraction coefficients.
    Its last polynomial is c * x1^e + c * x2^e, with x2's image the
    negative of x1's and e odd, so that every cell of it cancels.
    """

    def coefficient():
        if rng.random() < 0.5:
            return rng.choice((-4, -3, -2, -1, 1, 2, 3, 4))
        return Fraction(rng.choice((-3, -1, 1, 5)), rng.choice((2, 3)))

    def monomial():
        picked = sorted(rng.sample(range(len(SOURCE.names)), rng.randint(1, 3)))
        return tuple((i, rng.randint(1, 3)) for i in picked)

    shared = monomial()
    polys = []
    for _ in range(rng.randint(1, 3)):
        monos = [(), shared] + [monomial() for _ in range(rng.randint(0, 4))]
        rng.shuffle(monos)
        polys.append({m: coefficient() for m in monos})
    c, e = coefficient(), rng.choice((1, 3))
    polys.append({((1, e),): c, ((2, e),): c})
    occurring = {i for terms in polys for mono in terms for i, _ in mono}
    images = [None] * len(SOURCE.names)
    for i in sorted(occurring):
        cells = [sorted(rng.sample(range(3), rng.randint(0, 2))) for _ in range(rng.randint(1, 3))]
        images[i] = {tuple((j, rng.randint(1, 2)) for j in cell): coefficient() for cell in cells}
    images[2] = {m: -a for m, a in images[1].items()}
    return polys, images


@pytest.mark.parametrize("seed", range(40))
def test_one_pass_substitution_matches_the_prefix_cached_kernel(seed):
    polys, images = seeded_substitution(random.Random(seed))
    got = _terms_substitute(polys, images)
    want = prefix_cached_substitute(polys, images)
    assert got == want
    assert [list(terms) for terms in got] == [list(terms) for terms in want]
    assert got[-1] == {}
    sigma = {
        SOURCE.names[i]: WPolynomial(W, image) for i, image in enumerate(images) if image
    }
    for terms, poly in zip(got, polys):
        assert all(terms.values())  # no stored zero coefficient
        assert_same(WPolynomial(W, terms), ref_substitute(WPolynomial(SOURCE, poly), sigma, W))


def test_cancellation_to_zero_is_dropped():
    x1, x2 = (WPolynomial.variable(W, v) for v in ("x1", "x2"))
    assert (x1 + x2) * (x1 - x2) == x1 * x1 - x2 * x2
    assert ((0, 1), (1, 1)) not in ((x1 + x2) * (x1 - x2)).terms
    half = Fraction(1, 2)
    assert_same((X * half - Y * half) * 2, X - Y)
    # a substitution whose image cancels entirely
    sigma = {"x1": x1, "x2": x1, "y": WPolynomial.variable(W, "y")}
    gone = (WPolynomial.variable(W, "x1") - WPolynomial.variable(W, "x2")).substitute(sigma)
    assert gone.is_zero() and gone.terms == {}
    assert_same(gone, ref_substitute(x1 - x2, sigma, W))
    # a cell that cancels and then reappears moves to the end of the terms
    f = x1 + x2 + WPolynomial.variable(W, "y")
    sigma = {"x1": X + Y, "x2": -X, "y": X}
    assert list(f.substitute(sigma).terms) == [((1, 1),), ((0, 1),)]
    assert_same(f.substitute(sigma), ref_substitute(f, sigma, V))


def test_weight_zero_and_empty_polynomials():
    a = WPolynomial.variable(B, "a")
    zero = WPolynomial.zero(B)
    assert (a * zero).is_zero() and (zero**0) == WPolynomial.constant(B, 1)
    assert_same((a + Fraction(1, 3)) ** 3, ref_pow(a + Fraction(1, 3), 3))
    assert zero.substitute({}, into=V) == WPolynomial.zero(V)
    empty = GradedChart("E", ())
    c = WPolynomial.constant(empty, Fraction(4, 2))
    assert c.terms == {(): 2} and type(c.terms[()]) is int
    assert_same(c.substitute({}, into=B), WPolynomial.constant(B, 2))


@settings(max_examples=60)
@given(kernel_pairs())
def test_every_operation_keeps_the_stored_form(pair):
    f, g = pair
    results = [f, g, f + g, f - g, -f, f * g, f.scale(Fraction(2, 4)), f.scale(2)]
    for v in f.chart.names:
        results.append(f.differentiate(v))
        results.extend(f.coefficients_in(v).values())
    results.extend(f.homogeneous_components().values())
    for p in results:
        assert_stored_form(p)


# --- the term-dict homogeneity routes against the object-level ones -----------


def ref_euler(f):
    """sum(w_i * y_i * df/dy_i) from WPolynomial products, sums and derivatives."""
    out = WPolynomial.zero(f.chart)
    for var in sorted(f.variables(), key=f.chart.index_of):
        w = f.chart.weight_of(var)
        if w:
            out = out + WPolynomial.variable(f.chart, var) * f.differentiate(var) * w
    return out


def ref_is_homogeneous(f, r):
    """Both routes from WPolynomial arithmetic: the scaling route compares
    f(t^w * x) with lift(f) * t^r, the Euler route euler(f) with r * f."""
    tname = fresh_name("_t", f.chart.names)
    ext = f.chart.extend(((tname, 0),))
    tvar = WPolynomial.variable(ext, tname)
    sigma = {
        var: tvar ** f.chart.weight_of(var) * WPolynomial.variable(ext, var)
        for var in f.variables()
    }
    by_scaling = f.substitute(sigma, into=ext) == f.lift(ext) * tvar**r
    by_euler = ref_euler(f) == f.scale(r)
    assert by_scaling == by_euler
    return by_scaling


# weight-0 variables, a chart with no variable and one that already has a
# variable named _t, which the scaling route's parameter must not capture
HOMOGENEITY_CHARTS = KERNEL_CHARTS + (
    GradedChart("T", (("_t", 1), ("a", 0), ("y", 2))),
    GradedChart("T0", (("_t", 0), ("x", 1))),
)


@settings(max_examples=150)
@given(st.sampled_from(HOMOGENEITY_CHARTS).flatmap(raw_polynomials))
def test_term_dict_homogeneity_matches_the_object_level_routes(f):
    got = WPolynomial(f.chart, _terms_euler(f.terms, f.chart.weights))
    assert got == ref_euler(f)
    assert_stored_form(got)
    # f itself, which is the zero polynomial or mixes degrees, and each of its
    # homogeneous components, at r = 0 and on either side of its degree
    cases = [f] + list(f.homogeneous_components().values())
    for p in cases:
        for r in range(0, weighted_degree(f) + 2):
            assert p.is_homogeneous(r) == ref_is_homogeneous(p, r)
    assert f.is_homogeneous(0) == all(
        sum(f.chart.weights[i] * e for i, e in m) == 0 for m in f.terms
    )


# --- fused kernels against sympy ---------------------------------------------


def _random_poly(rng, chart, max_terms=4):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = tuple((i, e) for i in range(len(chart)) if (e := rng.randint(0, 2)))
        terms[mono] = Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 7)))
    return WPolynomial(chart, terms)


def test_fused_kernels_agree_with_sympy():
    sympy = pytest.importorskip("sympy")

    def to_sympy(p):
        syms = sympy.symbols(p.chart.names) if len(p.chart) else ()
        expr = sympy.Integer(0)
        for mono, c in p.terms.items():
            term = sympy.Rational(c.numerator, c.denominator)
            for i, e in mono:
                term *= syms[i] ** e
            expr += term
        return sympy.expand(expr)

    rng = random.Random(6)
    charts = [V, W, B]
    for _ in range(60):
        chart = rng.choice(charts)
        f, g = _random_poly(rng, chart), _random_poly(rng, chart)
        assert to_sympy(f * g) == sympy.expand(to_sympy(f) * to_sympy(g))
        n = rng.randint(0, 4)
        assert to_sympy(f**n) == sympy.expand(to_sympy(f) ** n)
        target = rng.choice(charts)
        sigma = {v: _random_poly(rng, target, 3) for v in chart.names}
        replaced = to_sympy(f).subs(
            {sympy.Symbol(v): to_sympy(p) for v, p in sigma.items()}, simultaneous=True
        )
        assert to_sympy(f.substitute(sigma, into=target)) == sympy.expand(replaced)


# --- the sparse print key against the dense one --------------------------------


def _mono_sort_key(mono, chart):
    """The dense print key sorted_terms used before the sparse one, kept as
    the oracle: weighted degree descending, then the dense exponent tuple
    in declaration order, higher powers of earlier variables first."""
    dense = [0] * len(chart)
    for i, e in mono:
        dense[i] = e
    wdeg = sum(chart.weights[i] * e for i, e in mono)
    return (-wdeg, tuple(-e for e in dense))


def test_sparse_print_key_orders_like_the_dense_key():
    rng = random.Random(7)
    weight_zero = 0
    for _ in range(300):
        n = rng.randint(1, 5)
        chart = GradedChart("K", tuple((f"v{i}", rng.randint(0, 3)) for i in range(n)))
        weight_zero += 0 in chart.weights
        terms = {}
        for _ in range(rng.randint(1, 30)):
            mono = tuple((i, rng.randint(1, 3)) for i in range(n) if rng.random() < 0.5)
            terms[mono] = rng.choice([1, -2, Fraction(1, 3)])
        p = WPolynomial(chart, terms)
        expected = sorted(p.terms.items(), key=lambda mc: _mono_sort_key(mc[0], chart))
        assert p.sorted_terms() == expected
    assert weight_zero > 100


# --- the printer against its earlier body ------------------------------------


def _reference_str(p):
    """WPolynomial.__str__ as it was before it read each sign and magnitude
    off the numerator and denominator, kept as the oracle: abs() and
    comparisons of the coefficient, and sorted_terms for every polynomial."""
    if not p.terms:
        return "0"
    names = p.chart.names
    pieces = []
    for mono, c in p.sorted_terms():
        factors = [names[i] if e == 1 else f"{names[i]}^{e}" for i, e in mono]
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


@st.composite
def printable_polynomials(draw):
    """Polynomials with coefficients of any size and sign, ints and
    fractions, 1 and -1 included, over a chart of up to four variables."""
    chart = draw(st.sampled_from(CHARTS + (B, GradedChart("E", ()))))
    coefficient = st.one_of(
        st.sampled_from([1, -1, Fraction(1, 2), Fraction(-1, 3)]),
        st.integers(-10**30, 10**30),
        st.fractions(max_denominator=10**12),
    )
    monomial = st.lists(st.integers(0, 3), min_size=len(chart), max_size=len(chart)).map(
        lambda es: tuple((i, e) for i, e in enumerate(es) if e)
    )
    return WPolynomial(chart, draw(st.dictionaries(monomial, coefficient, max_size=6)))


@settings(max_examples=300, deadline=None)
@given(printable_polynomials())
def test_str_matches_the_reference_printer(p):
    assert str(p) == _reference_str(p)


def test_chart_lookups_stay_out_of_equality_hash_and_repr():
    """A chart builds its names, weights and index once, on first read;
    equality, hash and repr read its two fields only."""
    a = GradedChart("C", (("x", 1), ("b", 0)))
    b = GradedChart("C", (("x", 1), ("b", 0)))
    assert (a.names, a.weights, a.index_of("b"), "b" in a) == (("x", "b"), (1, 0), 1, True)
    assert a.names is a.names and a.weights is a.weights and a._index is a._index
    assert a == b and hash(a) == hash(b)
    assert a != GradedChart("D", a.variables)
    assert repr(a) == "GradedChart(name='C', variables=(('x', 1), ('b', 0)))"


# --- the derivative against its summing loop ------------------------------------


def _reference_differentiate(p, var, order=1):
    """WPolynomial.differentiate as it was before each round became one
    comprehension, kept as the oracle: a running sum per reduced monomial,
    with a term deleted when its sum cancels."""
    idx = p.chart.index_of(var)
    result = p
    for _ in range(order):
        out = {}
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
        result = WPolynomial(p.chart, out)
        if result.is_zero():
            break
    return result


@st.composite
def derivatives(draw):
    """A polynomial, the zero one included, over a chart with or without a
    weight-0 variable, one of its variables and an order from 0 to 3."""
    chart = draw(st.sampled_from(CHARTS + (B,)))
    p = draw(st.one_of(st.just(WPolynomial.zero(chart)), polynomials(chart=chart)))
    return p, draw(st.sampled_from(chart.names)), draw(st.integers(0, 3))


@settings(max_examples=200, deadline=None)
@given(derivatives())
def test_differentiate_matches_the_summing_loop(case):
    p, var, order = case
    got = p.differentiate(var, order)
    expected = _reference_differentiate(p, var, order)
    assert got.chart is expected.chart
    assert list(got.terms.items()) == list(expected.terms.items())
    assert [type(c) for c in got.terms.values()] == [type(c) for c in expected.terms.values()]


# --- sums of term dicts: _terms_combine against the add-into it replaced --------

SUM_CHART = GradedChart("S", (("x", 1), ("y", 1), ("z", 2)))
SUM_MONOMIALS = st.lists(
    st.tuples(st.integers(0, 2), st.integers(1, 3)), max_size=3, unique_by=lambda f: f[0]
).map(lambda factors: tuple(sorted(factors)))
SUM_COEFFICIENTS = st.one_of(
    st.integers(-6, 6), st.fractions(min_value=-3, max_value=3, max_denominator=6)
).filter(bool).map(_coefficient)
SUM_TERMS = st.dictionaries(SUM_MONOMIALS, SUM_COEFFICIENTS, max_size=6)


@st.composite
def term_sums(draw):
    """Two stored term dicts a and b and a sign s, with some cells of b set
    to cancel the matching cells of a in a + s*b; either may be empty."""
    a, b = draw(SUM_TERMS), draw(SUM_TERMS)
    s = draw(st.sampled_from((1, -1)))
    for mono in draw(st.lists(st.sampled_from(sorted(a)), unique=True)) if a else ():
        b[mono] = -s * a[mono]
    return a, b, s


def _typed(terms):
    return [(m, c, type(c)) for m, c in terms.items()]


@settings(max_examples=300, deadline=None)
@given(term_sums())
def test_sums_through_terms_combine_match_the_add_into_reference(case):
    """a + s*b by one _terms_combine, as WPolynomial.__add__ and dsl's sums
    form it, is the dict the deleted add-into gave (for s = -1, adding the
    negated b): the same cells, coefficient types and key order, with no
    stored zero. WPolynomial's + and - agree."""
    a, b, s = case
    expected = dict(a)
    terms_add_into(expected, b if s == 1 else {m: -c for m, c in b.items()})
    got = _terms_combine(((s, b),), dict(a))
    assert _typed(got) == _typed(expected)
    assert all(got.values())
    p, q = WPolynomial(SUM_CHART, a), WPolynomial(SUM_CHART, b)
    total = p + q if s == 1 else p - q
    assert _typed(total.terms) == _typed(WPolynomial(SUM_CHART, expected).terms)


def test_a_negative_exponent_is_refused_not_squared_forever():
    """A negative exponent reaches the power kernel only from a monomial
    built by hand through the raw constructor. The kernel refuses it: its
    repeated squaring would never end. The image is one term, so an
    unrefused power would spin without growing."""
    chart = GradedChart("C", (("x", 1), ("y", 1)))
    p = WPolynomial(chart, {((0, -1), (1, 1)): 1})
    x = WPolynomial.variable(chart, "x")
    with pytest.raises(DomainError, match="got -1$"):
        p.substitute({"x": x, "y": x})
    with pytest.raises(DomainError, match="got -2$"):
        _terms_pow({((0, 1),): 1}, -2)
