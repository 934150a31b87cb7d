"""Polynomial maps between charts: composition, gradedness, matrices.

invert_automorphism runs on the Picard kernel that also inverts the
homogenizer. The weight-filtered back-substitution it replaced is kept
below as the oracle: inverses, error types and messages must agree with it,
on charts with and without weight-0 coordinates.
"""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradua.charts import GradedChart, fresh_name
from gradua import linalg
from gradua.errors import (
    DomainError,
    EngineDefectError,
    GraduaError,
    NotInvertibleError,
    SingularMatrixError,
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

from helpers import (
    chained_family,
    conjugated_action,
    random_chart,
    random_coefficient,
    random_graded_automorphism,
)

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


# --- at and with_param against the substitution route -------------------------


def reference_at(h, value):
    """The self-map at one parameter value by substitution, as at once was."""
    sigma = {v: WPolynomial.variable(h.chart, v) for v in h.chart.names}
    sigma[h.param] = WPolynomial.constant(h.chart, value)
    return PolyMap(
        h.chart,
        h.chart,
        {v: p.substitute(sigma, into=h.chart) for v, p in h.entries.items()},
    )


def reference_with_param(h, param):
    """The family renamed by substitution, as with_param once was."""
    ext = h.chart.extend(((param, 0),))
    sigma = {v: WPolynomial.variable(ext, v) for v in h.chart.names}
    sigma[h.param] = WPolynomial.variable(ext, param)
    return ActionFamily(
        h.chart, param, {v: p.substitute(sigma, into=ext) for v, p in h.entries.items()}
    )


def seeded_families():
    """Dressed standard families, chained ones with weight-0 coordinates, and
    raw families whose terms merge or cancel once t is set."""
    rng = random.Random(21)
    families = [conjugated_action(rng, random_chart(rng))[0] for _ in range(10)]
    families += [chained_family(rng, i % 3)[0] for i in range(12)]
    chart = GradedChart("Z", (("b", 0), ("x", 1), ("y", 2)))
    ext = chart.extend((("t", 0),))
    b, x, y, t = (WPolynomial.variable(ext, v) for v in ext.names)
    for _ in range(12):
        entries = {}
        for v in chart.names:
            acc = WPolynomial.zero(ext)
            for _ in range(rng.randint(0, 6)):
                mono = rng.choice([b, x, y, x * b, y * x, b * b, WPolynomial.constant(ext, 1)])
                c = random_coefficient(rng)
                # c*m*(t^j - t^k) vanishes at t = 1, and merges with c*m at t = 0
                j, k = rng.randint(0, 3), rng.randint(0, 3)
                acc = acc + mono * (t**j - t**k) * c + mono * t**rng.randint(0, 2) * c
            entries[v] = acc
        families.append(ActionFamily(chart, "t", entries))
    return families


def _stored(pmap):
    return {v: {m: type(c) for m, c in p.terms.items()} for v, p in pmap.pullbacks.items()}


def test_at_matches_the_substitution_route():
    families = seeded_families()
    assert any(0 in h.chart.weights for h in families)
    for h in families:
        for value in (0, 1, -1, Fraction(2, 3)):
            got = h.at(value)
            expected = reference_at(h, value)
            assert got == expected
            assert _stored(got) == _stored(expected)
        with pytest.raises(DomainError) as got:
            h.at(1.5)
        with pytest.raises(DomainError) as expected:
            reference_at(h, 1.5)
        assert str(got.value) == str(expected.value)


def test_with_param_matches_the_substitution_route():
    for h in seeded_families():
        for param in ("s", "u", "t_1"):
            if param == h.param:
                continue
            assert h.with_param(param) == reference_with_param(h, param)
        assert h.with_param(h.param) is h
        with pytest.raises(DomainError):
            h.with_param(h.chart.names[0])


# --- the Picard kernel against the back-substitution ----------------------------


def reference_invert_automorphism(psi):
    """invert_automorphism as it was, by weight-filtered back-substitution,
    kept as the oracle.

    For each weight r in increasing order the pullbacks split into a linear
    block in the weight-r variables plus corrections in lower weights; the
    block is inverted exactly and the corrections are pushed through the
    already-built inverse. One composite is checked, psi.then(inverse).
    """
    if psi.source != psi.target:
        raise DomainError("only self-maps of one chart can be inverted here")
    if not is_graded_morphism(psi):
        raise DomainError("the map does not respect the weights")
    chart = psi.source
    inv = {}
    for w in sorted(set(chart.weights)):
        block_vars = [v for v in chart.names if chart.weight_of(v) == w]
        block_monos = [((chart.index_of(u), 1),) for u in block_vars]
        rows = []
        residues = []
        for v in block_vars:
            p = psi.pullbacks[v]
            row = [Fraction(p.terms.get(m, 0)) for m in block_monos]
            residue = WPolynomial(
                chart, {m: c for m, c in p.terms.items() if m not in block_monos}
            )
            if w == 0:
                if residue.total_degree() > 0:
                    raise NotInvertibleError(
                        f"pullback of weight-0 variable {v!r} is not affine"
                    )
            else:
                for u in residue.variables():
                    if chart.weight_of(u) >= w:
                        raise NotInvertibleError(
                            f"pullback of {v!r} has a non-constant linear block "
                            f"(term mixing {u!r})"
                        )
            rows.append(row)
            residues.append(residue)
        try:
            binv = linalg.inverse(tuple(tuple(r) for r in rows))
        except SingularMatrixError as exc:
            raise NotInvertibleError(
                f"weight-{w} linear block is singular: {exc}"
            ) from exc
        solved_residues = [
            r.substitute(inv, into=chart) if r.terms else r for r in residues
        ]
        for i, v in enumerate(block_vars):
            acc = WPolynomial.zero(chart)
            for j, u in enumerate(block_vars):
                part = WPolynomial.variable(chart, u) - solved_residues[j]
                acc = acc + part * binv[i][j]
            inv[v] = acc
    result = PolyMap(chart, chart, inv)
    if not psi.then(result).is_identity():
        raise EngineDefectError("back-substitution produced a wrong inverse")
    return result


def outcome(fn, *args):
    """The result of fn(*args), or the type and message of the error it raised."""
    try:
        return fn(*args)
    except GraduaError as exc:
        return type(exc), str(exc)


def with_pullback(psi, v, p):
    return PolyMap(psi.source, psi.target, {**psi.pullbacks, v: p})


def refusals(rng, psi):
    """Maps that invert_automorphism must refuse, made from psi: a weight-0
    pullback that is not affine, a positive one with a non-constant linear
    block (b * x_v mixes in x_v alone), a singular block (one pullback
    repeated within its weight), a map that is not graded and one between
    two charts."""
    chart = psi.source
    x = {v: WPolynomial.variable(chart, v) for v in chart.names}
    base = [v for v, w in chart.variables if w == 0]
    positive = [v for v, w in chart.variables if w]
    out = []
    if base:
        b = rng.choice(base)
        out.append(with_pullback(psi, b, psi.pullbacks[b] + x[rng.choice(base)] ** 2))
        if positive:
            v = rng.choice(positive)
            out.append(with_pullback(psi, v, psi.pullbacks[v] + x[b] * x[v]))
    for w in set(chart.weights):
        block = [v for v in chart.names if chart.weight_of(v) == w]
        if len(block) > 1:
            u, v = rng.sample(block, 2)
            out.append(with_pullback(psi, v, psi.pullbacks[u]))
    if positive and len(chart) > 1:
        v = rng.choice(positive)
        u = rng.choice([u for u in chart.names if u != v])
        out.append(with_pullback(psi, v, psi.pullbacks[v] + x[u] * x[u] * x[u] + 1))
    other = GradedChart("O", chart.variables)
    out.append(PolyMap(chart, other, {v: x[v] for v in chart.names}))
    return out


def bcw_shear():
    """y -> y + b^5 x^2: its inverse has total degree 7 on a weight-2 coordinate."""
    chart = GradedChart("G", (("b", 0), ("x", 1), ("y", 2)))
    b, x, y = (WPolynomial.variable(chart, v) for v in chart.names)
    return PolyMap(chart, chart, {"b": b, "x": x, "y": y + b**5 * x**2})


def shifted_base():
    """b -> c + 3, c -> 2b + c - 1, with a weight-1 coordinate over it."""
    chart = GradedChart("H", (("b", 0), ("c", 0), ("x", 1)))
    b, c, x = (WPolynomial.variable(chart, v) for v in chart.names)
    return PolyMap(chart, chart, {"b": c + 3, "c": b * 2 + c - 1, "x": x * 2})


def test_invert_automorphism_agrees_with_the_back_substitution():
    rng = random.Random(53)
    maps = [bcw_shear(), shifted_base()]
    for seed in range(200):
        seeded = random.Random(seed)
        chart = random_chart(seeded, max_rank=(2, 1, 1), max_base=2 * (seed % 2))
        maps.append(random_graded_automorphism(seeded, chart))
    seen = {"inverted": 0, "weight 0": 0, "beyond the chart degree": 0}
    for psi in maps:
        got = invert_automorphism(psi)
        expected = reference_invert_automorphism(psi)
        assert got == expected and _stored(got) == _stored(expected)
        seen["inverted"] += 1
        if 0 in psi.source.weights:
            seen["weight 0"] += 1
            degree = max(p.total_degree() for p in got.pullbacks.values())
            seen["beyond the chart degree"] += degree > psi.source.degree
        for bad in refusals(rng, psi):
            refused = outcome(invert_automorphism, bad)
            assert refused == outcome(reference_invert_automorphism, bad)
            assert isinstance(refused, tuple), bad
            kind = re.sub(r"'\w+'|-?\d+", "_", refused[1].split(":")[0])
            seen[kind] = seen.get(kind, 0) + 1
    assert str(maps[0].then(invert_automorphism(maps[0])).pullbacks["y"]) == "y"
    assert str(invert_automorphism(maps[0]).pullbacks["y"]) == "-b^5*x^2 + y"
    assert seen["weight 0"] >= 60 and seen["beyond the chart degree"] >= 20, seen
    # the five refusals: not affine, non-constant block, singular block, not
    # graded, not a self-map
    assert len(seen) == 3 + 5 and min(seen.values()) >= 20, seen


def off_by_one(inverse):
    """linalg.inverse with 1 added to the first entry of every result."""

    def wrong(a):
        inv = inverse(a)
        return ((inv[0][0] + 1,) + inv[0][1:],) + inv[1:]

    return wrong


def test_a_wrong_block_inverse_is_caught_by_the_premise(monkeypatch):
    """With linalg.inverse off by one, C no longer inverts the derivative.
    The pass's checked premise refuses every map. With the check bypassed,
    the settle certificate accepts wrong inverses, and a pass that fails
    is still an EngineDefectError, at the Bass-Connell-Wright bound too."""
    maps = []
    for seed in range(300):
        seeded = random.Random(seed)
        chart = random_chart(seeded, max_base=2 if seed >= 200 else 0)
        maps.append(random_graded_automorphism(seeded, chart))
    monkeypatch.setattr(linalg, "inverse", off_by_one(linalg.inverse))
    for psi in maps:
        with pytest.raises(EngineDefectError, match="cinv \\* C = I"):
            invert_automorphism(psi)
    monkeypatch.setattr(linalg, "is_inverse", lambda a, b: True)
    seen = {"wrong": 0, "not inverted": 0}
    for psi in maps:
        got = outcome(invert_automorphism, psi)
        if isinstance(got, PolyMap):
            assert not compose(psi, got).is_identity()
            seen["wrong"] += 1
        else:
            assert got[0] is EngineDefectError, got
            seen["not inverted"] += "Bass-Connell-Wright" in got[1]
    assert seen["wrong"] >= 100 and seen["not inverted"] >= 20, seen
