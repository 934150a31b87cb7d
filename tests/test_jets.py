"""Jet adaptation and prolongation, checked against a chain-rule oracle."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradua import action, graded, jets, wpoly
from gradua.action import verify_laws
from gradua.charts import GradedChart, fresh_name
from gradua.errors import DomainError, UnknownVariableError
from gradua.graded import ActionFamily, PolyMap, compose, standard_action, truncate
from gradua.jets import adapt, iota, jet_action, jet_projection, prolong, prolong_action
from gradua.multigrade import check_commuting, flip
from gradua.wpoly import WPolynomial, monomial_basis

from helpers import random_chart, random_homogeneous

LINE = GradedChart("L", (("x", 1),))
PLANE = GradedChart("M", (("x", 1), ("y", 2)))


# Orders, levels and degrees are natural numbers by the one rule of
# exponents (wpoly._natural): a float, a bool or a negative number raises
# DomainError, before any range check.
NATURAL_CALLS = {
    "adapt": lambda v: adapt(PLANE, v),
    "prolong": lambda v: prolong(PolyMap.identity(PLANE), v),
    "iota": lambda v: iota(v, PLANE),
    "flip": lambda v: flip(v, 1, PLANE),
    "jet_projection": lambda v: jet_projection(adapt(PLANE, 2), v),
    "monomial_basis": lambda v: monomial_basis(PLANE, v),
    "jet_name": lambda v: adapt(PLANE, 2).jet_name("x", v),
    "truncate": lambda v: truncate(PLANE, v),
    "is_homogeneous": lambda v: WPolynomial.variable(PLANE, "x").is_homogeneous(v),
}


@pytest.mark.parametrize("value", [1.5, True, -1])
@pytest.mark.parametrize("call", sorted(NATURAL_CALLS))
def test_orders_levels_and_degrees_are_natural_numbers(call, value):
    with pytest.raises(DomainError):
        NATURAL_CALLS[call](value)


def test_adapt_orders_variables_level_major():
    ac = adapt(PLANE, 2)
    assert ac.chart.variables == (
        ("x", 1),
        ("y", 2),
        ("x'1", 2),
        ("y'1", 3),
        ("x'2", 3),
        ("y'2", 4),
    )
    assert [ac.level_of(v) for v in ac.chart.names] == [
        ("x", 0),
        ("y", 0),
        ("x", 1),
        ("y", 1),
        ("x", 2),
        ("y", 2),
    ]
    with pytest.raises(UnknownVariableError):
        ac.level_of("x'3")
    assert ac.jet_name("x", 2) == "x'2"
    with pytest.raises(DomainError):
        ac.jet_name("x", 3)


def test_adapt_marker_escalates_on_ticked_names():
    ticked = GradedChart("Q", (("x'1", 1),))
    ac = adapt(ticked, 1)
    assert ac.marker == "''"
    assert ac.chart.names == ("x'1", "x'1''1")


def test_prolong_square_frozen():
    target = GradedChart("D", (("y", 2),))
    x = WPolynomial.variable(LINE, "x")
    square = PolyMap(LINE, target, {"y": x * x})
    lifted = prolong(square, 2)
    assert str(lifted.pullbacks["y"]) == "x^2"
    assert str(lifted.pullbacks["y'1"]) == "2*x*x'1"
    assert str(lifted.pullbacks["y'2"]) == "2*x*x'2 + 2*x'1^2"


def test_prolong_identity_is_identity():
    lifted = prolong(PolyMap.identity(PLANE), 3)
    assert lifted.is_identity()


def _derivative_oracle(poly, chart, order):
    """Iterated chain rule: differentiate formally, sending x_k to x_{k+1}.

    Works over a chart x0..x{order} where x0 stands for the original
    variable; independent of the Taylor-substitution route in jets.
    """
    results = [poly]
    for _ in range(order):
        prev = results[-1]
        acc = WPolynomial.zero(chart)
        for k in range(order):
            step = prev.differentiate(f"x{k}") * WPolynomial.variable(
                chart, f"x{k + 1}"
            )
            acc = acc + step
        results.append(acc)
    return results


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 4))
def test_prolong_matches_chain_rule_oracle(seed, order):
    rng = random.Random(seed)
    # univariate polynomial map of degree <= 4 with small rational coefficients
    coeffs = [rng.choice([-2, -1, 0, 1, 2]) for _ in range(5)]
    x = WPolynomial.variable(LINE, "x")
    image = WPolynomial.zero(LINE)
    for k, c in enumerate(coeffs):
        if c:
            image = image + x**k * c
    target = GradedChart("D1", (("y", 1),))
    lifted = prolong(PolyMap(LINE, target, {"y": image}), order)

    oracle_chart = GradedChart(
        "O", tuple((f"x{k}", k + 1) for k in range(order + 1))
    )
    seed_poly = WPolynomial.zero(oracle_chart)
    x0 = WPolynomial.variable(oracle_chart, "x0")
    for k, c in enumerate(coeffs):
        if c:
            seed_poly = seed_poly + x0**k * c
    derivatives = _derivative_oracle(seed_poly, oracle_chart, order)

    src = adapt(LINE, order)
    rename = {
        "x0": WPolynomial.variable(src.chart, "x"),
        **{
            f"x{k}": WPolynomial.variable(src.chart, f"x'{k}")
            for k in range(1, order + 1)
        },
    }
    dst = adapt(target, order)
    for k in range(order + 1):
        expected = derivatives[k].substitute(rename, into=src.chart)
        got = lifted.pullbacks[dst.jet_name("y", k)]
        assert got == expected, (k, str(got), str(expected))


def test_prolong_functorial_on_sample():
    x = WPolynomial.variable(LINE, "x")
    mid = GradedChart("D", (("y", 2),))
    z_chart = GradedChart("E", (("z", 4),))
    y = WPolynomial.variable(mid, "y")
    first = PolyMap(LINE, mid, {"y": x * x})
    second = PolyMap(mid, z_chart, {"z": y * y + y * 3})
    lhs = prolong(compose(first, second), 3)
    rhs = compose(prolong(first, 3), prolong(second, 3))
    assert lhs.pullbacks == rhs.pullbacks


def test_jet_action_scales_by_level():
    ac = adapt(PLANE, 2)
    ja = jet_action(ac)
    h = ja.at(3)
    assert str(h.pullbacks["x"]) == "x"
    assert str(h.pullbacks["x'1"]) == "3*x'1"
    assert str(h.pullbacks["y'2"]) == "9*y'2"
    laws = verify_laws(ja)
    assert laws.monoid_ok


def test_iota_embeds_in_top_slot():
    emb = iota(3, LINE)
    assert str(emb.pullbacks["x"]) == "x"
    assert str(emb.pullbacks["x'1"]) == "0"
    assert str(emb.pullbacks["x'2"]) == "0"
    assert str(emb.pullbacks["x'3"]) == "x'1"
    with pytest.raises(DomainError):
        iota(0, LINE)


def reference_iota(order, chart):
    # the name route: every pullback keyed by a name jet_name forms, level
    # 0 to the base variable, the top level to its first jet, the rest to 0
    one, top = adapt(chart, 1), adapt(chart, order)
    pullbacks = {}
    for base in chart.names:
        pullbacks[base] = WPolynomial.variable(one.chart, base)
        for level in range(1, order):
            pullbacks[top.jet_name(base, level)] = WPolynomial.zero(one.chart)
        top_name = top.jet_name(base, order)
        pullbacks[top_name] = WPolynomial.variable(one.chart, one.jet_name(base, 1))
    return PolyMap(one.chart, top.chart, pullbacks)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_iota_on_a_mixed_weight_chart_matches_the_name_route(order):
    chart = GradedChart("C", (("u", 2), ("v", 0), ("w", 1)))
    emb, ref = iota(order, chart), reference_iota(order, chart)
    assert (emb.source, emb.target) == (ref.source, ref.target)
    assert emb.pullbacks == ref.pullbacks
    assert list(emb.pullbacks) == list(emb.target.names)


def test_iota_on_a_mixed_weight_chart_is_unchanged():
    # the order-3 embedding's charts and pullbacks, pinned as printed
    emb = iota(3, GradedChart("C", (("u", 2), ("v", 0), ("w", 1))))
    assert emb.target.variables == (
        ("u", 2), ("v", 0), ("w", 1),
        ("u'1", 3), ("v'1", 1), ("w'1", 2),
        ("u'2", 4), ("v'2", 2), ("w'2", 3),
        ("u'3", 5), ("v'3", 3), ("w'3", 4),
    )
    assert {v: str(p) for v, p in emb.pullbacks.items()} == {
        "u": "u", "v": "v", "w": "w",
        "u'1": "0", "v'1": "0", "w'1": "0",
        "u'2": "0", "v'2": "0", "w'2": "0",
        "u'3": "u'1", "v'3": "v'1", "w'3": "w'1",
    }


def test_iota_intertwines_reparametrizations():
    # the top slot of the order-k chart scales by t^k, so embedding a
    # t^k-scaled tangent vector lands on the t-scaled embedded jet
    emb = iota(3, LINE)
    low = jet_action(adapt(LINE, 1)).at(7**3)
    high = jet_action(adapt(LINE, 3)).at(7)
    assert compose(low, emb).pullbacks == compose(emb, high).pullbacks


def test_jet_projection_forgets_high_levels():
    ac = adapt(PLANE, 2)
    proj = jet_projection(ac, 1)
    assert proj.target.names == ("x", "y", "x'1", "y'1")
    assert all(str(p) in proj.target.names for p in proj.pullbacks.values())
    with pytest.raises(DomainError):
        jet_projection(ac, 3)


def test_prolonged_family_keeps_monoid_laws():
    std = standard_action(PLANE)
    lifted = prolong_action(std, 2)
    laws = verify_laws(lifted)
    assert laws.monoid_ok
    assert lifted.chart == adapt(PLANE, 2).chart


def test_prolonged_family_commutes_with_jet_action():
    ext = PLANE.extend((("t", 0),))
    x = WPolynomial.variable(ext, "x")
    y = WPolynomial.variable(ext, "y")
    t = WPolynomial.variable(ext, "t")
    family = ActionFamily(PLANE, "t", {"x": t * x, "y": t**2 * y + (t - t**2) * x})
    for order in (1, 2):
        lifted = prolong_action(family, order)
        reparam = jet_action(adapt(PLANE, order), "u")
        commuting, witnesses = check_commuting(lifted, reparam)
        assert commuting, witnesses


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 3))
def test_prolong_functorial_random(seed, order):
    rng = random.Random(seed)
    source = random_chart(rng, max_rank=(2, 1, 0), name="S")
    middle = random_chart(rng, max_rank=(2, 1, 0), name="Mm")
    final = random_chart(rng, max_rank=(2, 1, 0), name="F")
    first = PolyMap(
        source,
        middle,
        {
            v: random_homogeneous(rng, source, middle.weight_of(v), max_terms=2)
            for v in middle.names
        },
    )
    second = PolyMap(
        middle,
        final,
        {
            v: random_homogeneous(rng, middle, final.weight_of(v), max_terms=2)
            for v in final.names
        },
    )
    lhs = prolong(compose(first, second), order)
    rhs = compose(prolong(first, order), prolong(second, order))
    assert lhs.pullbacks == rhs.pullbacks


# --- one Taylor substitution against the old per-variable one --------------------


def _reference_taylor_components(p, source, order, inert=()):
    """Levels 0..order of one polynomial, as computed before the curves
    were shared: the curves, work chart and restricted chart are rebuilt
    from polynomial arithmetic for every polynomial. Kept as the oracle.
    """
    jet_chart = source.chart
    s = fresh_name("s", jet_chart.names + inert)
    work = jet_chart.extend(((s, 0),) + tuple((v, 0) for v in inert))
    svar = WPolynomial.variable(work, s)
    sigma = {}
    for v in source.source.names:
        acc = WPolynomial.zero(work)
        power = WPolynomial.constant(work, 1)
        for k in range(source.order + 1):
            jv = WPolynomial.variable(work, source.jet_name(v, k))
            acc = acc + jv * power * Fraction(1, math.factorial(k))
            power = power * svar
        sigma[v] = acc
    for v in inert:
        sigma[v] = WPolynomial.variable(work, v)
    by_power = p.substitute(sigma, into=work).coefficients_in(s)
    restrict_to = jet_chart if not inert else work.restrict(jet_chart.names + inert)
    components = []
    for k in range(order + 1):
        coeff = by_power.get(k)
        if coeff is None:
            components.append(WPolynomial.zero(restrict_to))
        else:
            components.append(coeff.restrict_chart(restrict_to) * math.factorial(k))
    return components


def _reference_prolong(phi, order):
    src = adapt(phi.source, order)
    dst = adapt(phi.target, order)
    pullbacks = {}
    for v in phi.target.names:
        for k, comp in enumerate(_reference_taylor_components(phi.pullbacks[v], src, order)):
            pullbacks[dst.jet_name(v, k)] = comp
    return PolyMap(src.chart, dst.chart, pullbacks)


def _reference_prolong_action(h, order):
    src = adapt(h.chart, order)
    pullbacks = {}
    for v in h.chart.names:
        components = _reference_taylor_components(h.entries[v], src, order, inert=(h.param,))
        for k, comp in enumerate(components):
            pullbacks[src.jet_name(v, k)] = comp
    return ActionFamily(src.chart, h.param, pullbacks)


COEFFICIENTS = [-3, -1, 1, Fraction(2, 3), Fraction(-7, 4), 5]


def _random_poly(rng, chart, max_terms=3, max_exp=2):
    """A sparse polynomial, not necessarily homogeneous, with non-integer
    coefficients and a constant term allowed."""
    acc = WPolynomial.zero(chart)
    for _ in range(rng.randint(0, max_terms)):
        exps = {v: rng.randint(0, max_exp) for v in chart.names if rng.random() < 0.5}
        acc = acc + WPolynomial.monomial(chart, exps, rng.choice(COEFFICIENTS))
    if rng.random() < 0.5:
        acc = acc + rng.choice([Fraction(1, 3), -2, Fraction(5, 6)])
    return acc


def _random_base_chart(rng, name):
    count = rng.randint(1, 3)
    return GradedChart(
        name, tuple((f"{name.lower()}{i}", rng.randint(0, 2)) for i in range(count))
    )


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 5))
def test_prolong_matches_the_per_variable_reference(seed, order):
    rng = random.Random(seed)
    source = _random_base_chart(rng, "S")
    target = _random_base_chart(rng, "T")
    phi = PolyMap(source, target, {v: _random_poly(rng, source) for v in target.names})
    got = prolong(phi, order)
    expected = _reference_prolong(phi, order)
    assert got.source == expected.source and got.target == expected.target
    assert got.pullbacks == expected.pullbacks


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 5))
def test_prolong_action_matches_the_per_variable_reference(seed, order):
    # about half the entries carry a term of the inert parameter t with a
    # non-integer coefficient; the rest may be free of t (such as y -> y)
    rng = random.Random(seed)
    chart = _random_base_chart(rng, "C")
    ext = chart.extend((("t", 0),))
    t = WPolynomial.variable(ext, "t")
    entries = {}
    for v in chart.names:
        entries[v] = _random_poly(rng, ext)
        if rng.random() < 0.5:
            x = WPolynomial.variable(ext, v)
            entries[v] = entries[v] + t ** rng.randint(1, 2) * x * Fraction(3, 2)
    family = ActionFamily(chart, "t", entries)
    got = prolong_action(family, order)
    expected = _reference_prolong_action(family, order)
    assert got.chart == expected.chart and got.param == expected.param
    assert got.entries == expected.entries


def test_prolong_of_a_ticked_chart_matches_the_reference():
    # names that already carry ticks and a variable called s
    chart = GradedChart("Q", (("s", 1), ("x'1", 2)))
    s, x = (WPolynomial.variable(chart, n) for n in chart.names)
    phi = PolyMap(chart, chart, {"s": s * 2 + 1, "x'1": x * s - s**3})
    for order in (1, 3):
        assert prolong(phi, order).pullbacks == _reference_prolong(phi, order).pullbacks


# adapt's layout, which _taylor_components and multigrade._flip_names read by
# position: charts with a weight-0 variable and names that already hold ticks
LAYOUT_CHARTS = [
    PLANE,
    GradedChart("B", (("a", 0), ("x", 1), ("x'", 1))),
    GradedChart("Q", (("x'1", 1), ("y''", 0), ("z", 2))),
]


def _assert_level_major(ac):
    """Level k of base variable i at index k * n + i, named by jet_name and
    weighted w_i + k."""
    n = len(ac.source)
    assert len(ac.chart) == n * (ac.order + 1)
    for k in range(ac.order + 1):
        for i, (v, w) in enumerate(ac.source.variables):
            name, weight = ac.chart.variables[k * n + i]
            assert name == ac.jet_name(v, k)
            assert weight == w + k
            assert ac.level_of(name) == (v, k)


@pytest.mark.parametrize("chart", LAYOUT_CHARTS, ids=lambda c: c.name)
def test_adapt_lays_level_k_of_base_i_at_k_n_plus_i(chart):
    """The contract holds for one adaptation and for iterated ones."""
    for m in range(4):
        inner = adapt(chart, m)
        _assert_level_major(inner)
        for n in range(3):
            _assert_level_major(adapt(inner.chart, n))


@pytest.mark.parametrize("chart", LAYOUT_CHARTS, ids=lambda c: c.name)
def test_prolong_keys_come_in_jet_name_order(chart):
    """The outputs of prolong and prolong_action are keyed base variable by
    base variable, levels 0..order within each, as jet_name names them; the
    map's target has one variable more than its source, so a layout read
    with the source's width would miss."""
    target = GradedChart("T", (("u", 1), ("v'", 0), ("w", 2), ("r", 1)))
    first = WPolynomial.variable(chart, chart.names[0])
    phi = PolyMap(chart, target, {
        v: first ** (j + 1) + j for j, v in enumerate(target.names)
    })
    family = standard_action(chart)
    for order in range(4):
        dst, src = adapt(target, order), adapt(chart, order)
        levels = range(order + 1)
        assert list(prolong(phi, order).pullbacks) == [
            dst.jet_name(v, k) for v in target.names for k in levels
        ]
        assert list(prolong_action(family, order).entries) == [
            src.jet_name(v, k) for v in chart.names for k in levels
        ]


@pytest.mark.parametrize("order", range(6))
def test_taylor_curves_hold_only_integer_coefficients(order, monkeypatch):
    """Prolongation runs no substitution. The levels of a base variable are
    its jet variables, each with coefficient 1, the inert parameter is
    constant, and the Leibniz rule weighs each product of levels by an int
    binomial, so every product is an integer term dict; the polynomials'
    own coefficients enter only in the last combination, one per output
    level."""
    substitutions = []
    for module in (wpoly, graded, action):
        monkeypatch.setattr(module, "_terms_substitute", lambda *a: substitutions.append(a))
    products = []
    original_mul = jets._terms_mul

    def recording_mul(a, b):
        products.append((a, b, original_mul(a, b)))
        return products[-1][2]

    combinations = []
    original_combine = jets._terms_combine

    def recording_combine(pairs):
        combinations.append(list(pairs))
        return original_combine(combinations[-1])

    rng = random.Random(order)
    chart = GradedChart("C", (("a", 0), ("x", 1), ("y", 2)))
    ext = chart.extend((("t", 0),))
    phi = PolyMap(chart, chart, {v: _random_poly(rng, chart, max_exp=3) for v in chart.names})
    t = WPolynomial.variable(ext, "t")
    family = ActionFamily(chart, "t", {v: _random_poly(rng, ext) * t for v in chart.names})
    monkeypatch.setattr(jets, "_terms_mul", recording_mul)
    monkeypatch.setattr(jets, "_terms_combine", recording_combine)
    prolong(phi, order)
    prolong_action(family, order)
    assert not hasattr(jets, "_terms_substitute") and substitutions == []

    for a, b, product in products:
        for factor in (a, b):
            if any(sum(e for _, e in mono) == 1 for mono in factor):
                assert list(factor.values()) == [1]  # a level of a base or inert variable
        assert all(type(c) is int for terms in (a, b, product) for c in terms.values())
    formed = {id(product) for _, _, product in products}
    outputs = []
    for pairs in combinations:
        weights = [c for c, _ in pairs]
        if pairs and all(id(terms) in formed for _, terms in pairs):  # a Leibniz sum
            assert all(type(c) is int for c in weights)
            assert weights == [math.comb(len(pairs) - 1, a) for a in range(len(pairs))]
        else:
            outputs.append(weights)
    coefficients = [list(p.terms.values()) for p in (*phi.pullbacks.values(), *family.entries.values())]
    assert outputs == [
        c for c in coefficients for _ in range(order + 1)
    ]


def _level_sums(terms, n_base, jet_count):
    """Sum of level times exponent over the jet variables of each monomial,
    the level-k variable of base variable i at index k * n_base + i."""
    return [sum(i // n_base * e for i, e in mono if i < jet_count) for mono in terms]


@pytest.mark.parametrize("order", range(1, 5))
def test_prolongation_forms_no_term_above_the_order(order, monkeypatch):
    """Every term dict that the term kernels form for one prolong and one
    prolong_action has level sum at most the order: the terms above it,
    which the levels drop, are never built."""
    formed = []
    for name in [n for n in dir(jets) if n.startswith("_terms_")]:

        def recording(*args, _original=getattr(jets, name)):
            out = _original(*args)
            formed.extend(out if isinstance(out, list) else [out])
            return out

        monkeypatch.setattr(jets, name, recording)
    chart = GradedChart("C", (("a", 0), ("x", 1), ("y", 2)))
    ext = chart.extend((("t", 0),))
    a, x, y = (WPolynomial.variable(chart, v) for v in chart.names)
    phi = PolyMap(chart, chart, {"a": a**2 + 1, "x": x**3 * a - x * Fraction(2, 3), "y": x**2 * y + y**2})
    a, x, y, t = (WPolynomial.variable(ext, v) for v in ext.names)
    family = ActionFamily(chart, "t", {"a": a, "x": t * x + t**2 * a * x**2, "y": t**2 * y - t * x**2 * y})
    prolong(phi, order)
    prolong_action(family, order)
    assert formed
    sums = [s for terms in formed for s in _level_sums(terms, len(chart), len(chart) * (order + 1))]
    assert max(sums) == order


def test_prolong_work_grows_with_the_kept_levels(monkeypatch):
    """Term pairs formed by the products of one prolong, a size ladder: for
    x = x^e at order 1 they grow linearly in e (the curve (x + s*x'1)^e has
    e + 1 terms, of which 2 are kept), and for a dense graded map at orders
    1 to 8 they stay within twice the terms of the result, while the full
    curve expansion outgrows it twelvefold."""
    pairs = []
    original = wpoly._terms_mul

    def counting(a, b):
        pairs.append(len(a) * len(b))
        return original(a, b)

    monkeypatch.setattr(wpoly, "_terms_mul", counting)
    monkeypatch.setattr(jets, "_terms_mul", counting, raising=False)
    line = GradedChart("Q", (("x", 1),))
    for e in (10, 100, 1000):
        pairs.clear()
        lifted = prolong(PolyMap(line, line, {"x": WPolynomial.monomial(line, {"x": e})}), 1)
        assert str(lifted.pullbacks["x'1"]) == f"{e}*x^{e - 1}*x'1"
        assert sum(pairs) <= 3 * e, (e, sum(pairs))

    chart = GradedChart("D", (("x", 1), ("y", 2), ("z", 3)))
    pullbacks = {
        v: sum(
            (WPolynomial.monomial(chart, dict(m), c + 1) for c, m in enumerate(monomial_basis(chart, 2 * w))),
            WPolynomial.zero(chart),
        )
        for v, w in chart.variables
    }
    phi = PolyMap(chart, chart, pullbacks)
    for order in range(1, 9):
        pairs.clear()
        kept = sum(len(p.terms) for p in prolong(phi, order).pullbacks.values())
        assert sum(pairs) <= 2 * kept, (order, sum(pairs), kept)
    full = sum(math.prod(math.comb(8 + e, e) for _, e in m) for p in pullbacks.values() for m in p.terms)
    assert full > 12 * kept


def _sympy_of(p, symbols, sympy):
    """p as a sympy expression, its variables replaced by symbols[name]."""
    names = p.chart.names
    total = sympy.Integer(0)
    for mono, c in p.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for i, e in mono:
            term *= symbols[names[i]] ** e
        total += term
    return total


def _assert_sympy_levels(polys, lifted, src, dst, sympy, inert=()):
    """Level j of each polys[v], lifted[dst.jet_name(v, j)], is j! times the
    s^j coefficient of polys[v] along x + s*x'1 + s^2/2*x'2 + ..., as sympy
    expands the series, with the inert variables constant along the curve."""
    s = sympy.Dummy("s")
    symbols = {v: sympy.Symbol(v) for v in src.chart.names + inert}
    curve = {
        x: sum(s**j / sympy.factorial(j) * symbols[src.jet_name(x, j)] for j in range(src.order + 1))
        for x in src.source.names
    }
    curve.update((v, symbols[v]) for v in inert)
    for v, p in polys.items():
        along = _sympy_of(p, curve, sympy)
        series = sympy.expand(sympy.series(along, s, 0, src.order + 1).removeO())
        for j in range(src.order + 1):
            got = _sympy_of(lifted[dst.jet_name(v, j)], symbols, sympy)
            assert sympy.expand(got - sympy.factorial(j) * series.coeff(s, j)) == 0, (v, j)


def test_prolong_matches_the_sympy_taylor_series():
    """An oracle outside the engine: the level-j pullback of prolong(phi, k)
    is j! times the s^j coefficient of phi(x + s*x'1 + s^2/2*x'2 + ...), the
    series expanded by sympy, at orders 0 to 5. On seeded graded maps, on
    maps with weight-0 variables, constant terms and non-integer
    coefficients, and on families through prolong_action, their parameter
    t inert."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(4096)
    nonlinear = weightless = constants = 0
    for i in range(12):
        order = i % 6
        source = random_chart(rng, max_rank=(2, 1), name="S")
        target = random_chart(rng, max_rank=(1, 2, 2), name="T")
        pullbacks = {
            v: random_homogeneous(rng, source, w, max_terms=3, min_terms=1)
            for v, w in target.variables
        }
        nonlinear += sum(p.total_degree() >= 2 for p in pullbacks.values())
        lifted = prolong(PolyMap(source, target, pullbacks), order)
        _assert_sympy_levels(pullbacks, lifted.pullbacks, adapt(source, order), adapt(target, order), sympy)
    for i in range(12):
        order = i % 6
        source = _random_base_chart(rng, "S")
        target = _random_base_chart(rng, "T")
        pullbacks = {v: _random_poly(rng, source) for v in target.names}
        weightless += 0 in source.weights
        constants += any(() in p.terms for p in pullbacks.values())
        lifted = prolong(PolyMap(source, target, pullbacks), order)
        _assert_sympy_levels(pullbacks, lifted.pullbacks, adapt(source, order), adapt(target, order), sympy)
    for i in range(12):
        order = i % 6
        chart = _random_base_chart(rng, "C")
        ext = chart.extend((("t", 0),))
        t = WPolynomial.variable(ext, "t")
        entries = {
            v: _random_poly(rng, ext) + t ** rng.randint(1, 2) * WPolynomial.variable(ext, v)
            for v in chart.names
        }
        lifted = prolong_action(ActionFamily(chart, "t", entries), order)
        src = adapt(chart, order)
        _assert_sympy_levels(entries, lifted.entries, src, src, sympy, inert=("t",))
    assert nonlinear >= 10 and weightless >= 4 and constants >= 4, (nonlinear, weightless, constants)
