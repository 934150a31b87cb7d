"""Polynomial maps between charts: composition, gradedness, matrices."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradua.charts import GradedChart, fresh_name
from gradua.errors import (
    DomainError,
    EngineDefectError,
    NotInvertibleError,
    UnsupportedChartError,
)
from gradua.graded import (
    ActionFamily,
    PolyMap,
    compose,
    invert_automorphism,
    is_graded_morphism,
    matrix_representation,
    standard_action,
    truncate,
    truncate_map,
    weight_field,
)
from gradua.linalg import mat_mul
from gradua.wpoly import WPolynomial

from helpers import random_chart, random_graded_automorphism

V = GradedChart("V", (("x", 1), ("y", 2)))
W = GradedChart("W", (("x1", 1), ("x2", 1), ("y", 2)))


def scaling_map(a, b, c):
    """x -> a*x, y -> b*y + c*x^2 on the (1, 2)-weighted plane."""
    x = WPolynomial.variable(V, "x")
    y = WPolynomial.variable(V, "y")
    return PolyMap(V, V, {"x": x * a, "y": y * b + x**2 * c})


def test_identity_and_composition():
    ident = PolyMap.identity(V)
    psi = scaling_map(2, 3, 5)
    assert ident.is_identity()
    assert compose(psi, ident).pullbacks == psi.pullbacks
    assert compose(ident, psi).pullbacks == psi.pullbacks


def test_compose_is_diagrammatic():
    # compose(psi, phi) applies psi first; on pullbacks that means
    # substituting psi's entries into phi's.
    psi = scaling_map(2, 1, 0)
    phi = scaling_map(1, 1, 1)  # y picks up x^2
    both = compose(psi, phi)
    assert str(both.pullbacks["y"]) == "4*x^2 + y"


def test_matrix_representation_frozen():
    psi = scaling_map(2, 3, 5)
    assert matrix_representation(psi) == (
        (Fraction(2), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(3), Fraction(0)),
        (Fraction(0), Fraction(5), Fraction(4)),
    )


def test_matrix_respects_composition():
    psi = scaling_map(2, 3, 5)
    phi = scaling_map(Fraction(1, 2), -1, Fraction(7, 3))
    lhs = matrix_representation(compose(psi, phi))
    rhs = mat_mul(matrix_representation(psi), matrix_representation(phi))
    assert lhs == rhs


def test_matrix_rejects_weight_zero_and_high_degree():
    base = GradedChart("Zb", (("a", 0), ("x", 1)))
    with pytest.raises(UnsupportedChartError):
        matrix_representation(PolyMap.identity(base))
    deep = GradedChart("Zd", (("x", 1), ("z", 3)))
    with pytest.raises(UnsupportedChartError):
        matrix_representation(PolyMap.identity(deep))


def test_graded_morphism_accepts_shear():
    x1 = WPolynomial.variable(W, "x1")
    x2 = WPolynomial.variable(W, "x2")
    y = WPolynomial.variable(W, "y")
    shear = PolyMap(W, W, {"x1": x1, "x2": x2, "y": y + x1**2})
    assert is_graded_morphism(shear)


def test_graded_morphism_rejects_weight_mixing():
    x = WPolynomial.variable(V, "x")
    bad = PolyMap(V, V, {"x": x, "y": x})  # weight-2 target fed weight-1
    assert not is_graded_morphism(bad)
    worse = PolyMap(V, V, {"x": x + 1, "y": WPolynomial.variable(V, "y")})
    assert not is_graded_morphism(worse)


def test_invert_automorphism_frozen():
    psi = scaling_map(2, 3, 5)
    inv = invert_automorphism(psi)
    assert str(inv.pullbacks["x"]) == "1/2*x"
    assert str(inv.pullbacks["y"]) == "-5/12*x^2 + 1/3*y"
    assert compose(psi, inv).is_identity()
    assert compose(inv, psi).is_identity()


def test_a_wrong_inverse_is_still_caught(monkeypatch):
    from gradua import linalg

    inverse = linalg.inverse

    def off_by_one(a):
        inv = inverse(a)
        return ((inv[0][0] + 1,) + inv[0][1:],) + inv[1:]

    monkeypatch.setattr(linalg, "inverse", off_by_one)
    with pytest.raises(EngineDefectError):
        invert_automorphism(scaling_map(2, 3, 5))


def test_invert_rejects_singular_linear_part():
    psi = scaling_map(0, 1, 1)
    with pytest.raises(NotInvertibleError):
        invert_automorphism(psi)


def test_invert_rejects_nonaffine_base():
    base = GradedChart("Nb", (("a", 0),))
    a = WPolynomial.variable(base, "a")
    with pytest.raises(NotInvertibleError):
        invert_automorphism(PolyMap(base, base, {"a": a * a}))


def test_standard_action_properties():
    std = standard_action(V)
    assert std.at(1).is_identity()
    h6 = std.at(2).then(std.at(3))
    assert h6.pullbacks == std.at(6).pullbacks
    assert str(std.at(Fraction(-1, 2)).pullbacks["y"]) == "1/4*y"


def test_action_family_param_freshness():
    chart = GradedChart("T", (("t", 1),))
    std = standard_action(chart)
    assert std.param != "t"
    assert std.at(1).is_identity()


def test_action_with_param_rename():
    std = standard_action(V)
    renamed = std.with_param("s")
    assert renamed.param == "s"
    assert renamed.at(5).pullbacks == std.at(5).pullbacks


def test_truncate_drops_high_weights():
    chart, proj = truncate(V, 1)
    assert chart.variables == (("x", 1),)
    assert proj.source == V
    assert str(proj.pullbacks["x"]) == "x"
    same_chart, ident = truncate(V, 2)
    assert same_chart == V
    assert ident.is_identity()
    with pytest.raises(DomainError):
        truncate(V, 7)


def test_truncate_map_commutes_with_projection():
    psi = scaling_map(2, 3, 5)
    low = truncate_map(psi, 1)
    assert str(low.pullbacks["x"]) == "2*x"


def test_weight_field_frozen():
    field = weight_field(V)
    assert [(v, str(p)) for v, p in field] == [("x", "x"), ("y", "2*y")]


def test_pullback_chart_validation():
    x = WPolynomial.variable(V, "x")
    with pytest.raises(DomainError):
        PolyMap(V, V, {"x": x})  # missing y
    with pytest.raises(DomainError):
        PolyMap(V, W, {"x1": x, "x2": x, "y": x * x, "zz": x})


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_random_graded_automorphisms_invert(seed):
    rng = random.Random(seed)
    chart = random_chart(rng)
    gamma = random_graded_automorphism(rng, chart)
    inv = invert_automorphism(gamma)
    assert compose(gamma, inv).is_identity()
    assert compose(inv, gamma).is_identity()


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_random_graded_automorphisms_are_graded(seed):
    rng = random.Random(seed)
    chart = random_chart(rng)
    gamma = random_graded_automorphism(rng, chart)
    assert is_graded_morphism(gamma)


# --- one gradedness route against the old three routes --------------------------


def _reference_is_graded_morphism(psi):
    """The gradedness test as it was, kept as the oracle.

    Each pullback is tested for homogeneity (scaling and Euler routes), and
    the map is also checked to intertwine the two standard families
    symbolically; the two verdicts must agree.
    """
    by_components = all(
        psi.pullbacks[v].is_homogeneous(psi.target.weight_of(v))
        for v in psi.target.names
    )
    tname = fresh_name("_t", psi.source.names + psi.target.names)
    ext_src = psi.source.extend(((tname, 0),))
    tvar = WPolynomial.variable(ext_src, tname)
    scale_src = {
        v: tvar ** psi.source.weight_of(v) * WPolynomial.variable(ext_src, v)
        for v in psi.source.names
    }
    by_intertwining = all(
        psi.pullbacks[v].substitute(scale_src, into=ext_src)
        == psi.pullbacks[v].lift(ext_src) * tvar ** psi.target.weight_of(v)
        for v in psi.target.names
    )
    assert by_components == by_intertwining
    return by_components


def _small_monomials(chart, max_exp=2):
    """Every exponent assignment with entries in 0..max_exp."""
    monos = [{}]
    for v in chart.names:
        monos = [dict(m, **{v: e}) for m in monos for e in range(max_exp + 1)]
    return monos


def _random_weighted_chart(rng, name):
    """One to three variables of weights 0..3, weight 0 included."""
    count = rng.randint(1, 3)
    return GradedChart(
        name, tuple((f"{name.lower()}{i}", rng.randint(0, 3)) for i in range(count))
    )


def _random_map(rng, source, target, graded):
    """Pullbacks built from the small monomials of each target weight.

    When graded is False, some pullbacks get one extra monomial of another
    weight (or a stray constant), so the map usually is not graded.
    """
    monos = _small_monomials(source)
    pullbacks = {}
    for v in target.names:
        w = target.weight_of(v)
        fitting = [m for m in monos if sum(source.weight_of(u) * e for u, e in m.items()) == w]
        acc = WPolynomial.zero(source)
        for m in rng.sample(fitting, min(len(fitting), rng.randint(0, 3))):
            acc = acc + WPolynomial.monomial(source, m, rng.choice([-2, -1, 1, Fraction(1, 2), 3]))
        if not graded and rng.random() < 0.7:
            stray = [m for m in monos if sum(source.weight_of(u) * e for u, e in m.items()) != w]
            if stray:
                acc = acc + WPolynomial.monomial(source, rng.choice(stray), rng.choice([-1, 2]))
        pullbacks[v] = acc
    return PolyMap(source, target, pullbacks)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10**6), st.booleans(), st.booleans())
def test_gradedness_matches_the_three_route_reference(seed, graded, same_chart):
    rng = random.Random(seed)
    source = _random_weighted_chart(rng, "S")
    target = source if same_chart else _random_weighted_chart(rng, "T")
    psi = _random_map(rng, source, target, graded)
    verdict = is_graded_morphism(psi)
    assert verdict == _reference_is_graded_morphism(psi)
    if graded:
        assert verdict


def test_gradedness_reference_on_the_fixed_maps():
    x = WPolynomial.variable(V, "x")
    maps = [
        scaling_map(2, 3, 5),
        PolyMap(V, V, {"x": x, "y": x}),
        PolyMap(V, V, {"x": x + 1, "y": WPolynomial.variable(V, "y")}),
        PolyMap.identity(GradedChart("Z", (("a", 0), ("x", 1)))),
    ]
    for psi in maps:
        assert is_graded_morphism(psi) == _reference_is_graded_morphism(psi)
