"""The homogenizer as the certificate of the laws and of commutation.

analyze and bihomogenize once checked the laws and the commutation of the
families before building coordinates. Now the checked coordinates certify
both, and the direct checks run only to explain a failure. The functions
below keep the old order as a reference; every report, result, error type
and error message must agree with it.
"""

import random
from fractions import Fraction

import pytest

from gradua.action import (
    AnalysisReport,
    _distinct_params,
    _joint_certificate,
    analyze,
    base_projection,
    detect_degree,
    extend_negative,
    homogenize,
    taylor_projections,
    verify_laws,
)
from gradua.charts import GradedChart
from gradua.errors import (
    DomainError,
    GraduaError,
    InconsistentActionError,
    NotDoubleStructureError,
    NotGradedActionError,
)
from gradua.graded import ActionFamily
from gradua.multigrade import bihomogenize, check_commuting
from gradua.wpoly import WPolynomial

from helpers import conjugated_action, random_chart, random_coefficient


# --- the old order, kept as a reference ---------------------------------------


def reference_require_monoid(h):
    laws = verify_laws(h)
    if not laws.monoid_ok:
        broken = ", ".join(sorted({w.law for w in laws.witnesses}))
        raise InconsistentActionError(f"the family breaks the {broken} law")


def reference_analyze(h, theta=None):
    """The laws first, then the base projection, then the homogenizer."""
    laws = verify_laws(h)
    if not laws.monoid_ok:
        return AnalysisReport(laws.semigroup_ok, laws.monoid_ok, laws.witnesses)
    p0 = base_projection(h)
    hom = homogenize(h, theta)
    return AnalysisReport(
        semigroup_ok=True,
        monoid_ok=True,
        witnesses=(),
        base_projection=p0,
        degree=hom.chart.degree,
        projections=hom.projections,
        homogenizer=hom.homogenizer,
        homogenized_chart=hom.chart,
        inverse_homogenizer=hom.inverse,
        theta=hom.theta,
    )


def reference_homogenize(h, theta=None):
    reference_require_monoid(h)
    return homogenize(h, theta)


def reference_bihomogenize(h1, h2, theta=None):
    """Commutation first, then each family's laws before its projections."""
    h1, h2 = _distinct_params(h1, h2)
    commuting, witnesses = check_commuting(h1, h2)
    if not commuting:
        names = ", ".join(v for v, _ in witnesses)
        raise NotDoubleStructureError(f"the families do not commute (see {names})")
    for h in (h1, h2):
        reference_require_monoid(h)
        taylor_projections(h, theta)
    return bihomogenize(h1, h2, theta)


def outcome(fn, *args):
    try:
        return fn(*args)
    except GraduaError as exc:
        return type(exc), str(exc)


def assert_same(new, reference, *args):
    assert outcome(new, *args) == outcome(reference, *args)


# --- families -----------------------------------------------------------------


ext_var = WPolynomial.variable


def on_chart(p, ext):
    """p rewritten over ext, a chart holding all of p's variables."""
    return p.substitute({v: ext_var(ext, v) for v in p.chart.names}, into=ext)


def dressed_family(rng):
    """A genuine family with a weight-0 block, a shifted fixed point, and theta.

    A family from conjugated_action is extended by weight-0 coordinates
    b1.. that every h_t fixes, then conjugated by the triangular map tau:
    b_i -> b_i + k_i, x -> x + a * b^e + c. Its fixed point is tau^-1(0).
    """
    base = random_chart(rng, max_rank=(2, 1, 1), min_vars=2)
    family0, _ = conjugated_action(rng, base)
    blocks = tuple((f"b{i}", 0) for i in range(1, rng.randint(0, 2) + 1))
    chart = GradedChart("W", blocks + base.variables)
    ext = chart.extend((("t", 0),))
    product_entries = {b: ext_var(ext, b) for b, _ in blocks}
    for v in base.names:
        product_entries[v] = on_chart(family0.entries[v], ext)

    tau, tau_inv = {}, {}
    for b, _ in blocks:
        k = Fraction(rng.randint(-2, 2))
        tau[b] = ext_var(ext, b) + k
        tau_inv[b] = ext_var(ext, b) - k
    for v in base.names:
        c = random_coefficient(rng) if rng.random() < 0.5 else Fraction(0)
        tau[v] = ext_var(ext, v) + c
        tau_inv[v] = ext_var(ext, v) - c
        if blocks:
            b, _ = rng.choice(blocks)
            a, e = random_coefficient(rng), rng.choice((1, 2))
            tau[v] = tau[v] + ext_var(ext, b) ** e * a
            tau_inv[v] = tau_inv[v] - tau_inv[b] ** e * a
    tau["t"] = ext_var(ext, "t")
    pushed = {v: p.substitute(tau, into=ext) for v, p in product_entries.items()}
    entries = {v: tau_inv[v].substitute(pushed, into=ext) for v in chart.names}
    origin = {v: 0 for v in chart.names}
    theta = {v: tau_inv[v].evaluate(origin) for v in chart.names}
    return ActionFamily(chart, "t", entries), theta


def bumped(h, variable, z, c):
    """h with c * (t^2 - t) * z added to one entry."""
    t = ext_var(h.extended_chart, h.param)
    entries = dict(h.entries)
    entries[variable] = entries[variable] + (t**2 - t) * z * c
    return ActionFamily(h.chart, h.param, entries)


def translated(h, shift):
    """The family x -> h_t(x + shift) - shift, which fixes theta - shift."""
    ext = h.extended_chart
    sigma = {v: ext_var(ext, v) + shift.get(v, 0) for v in h.chart.names}
    sigma[h.param] = ext_var(ext, h.param)
    entries = {
        v: p.substitute(sigma, into=ext) - shift.get(v, 0) for v, p in h.entries.items()
    }
    return ActionFamily(h.chart, h.param, entries)


def reparametrized(h, factor, param):
    """The family t -> h_(factor * t), written with parameter `param`."""
    g = h.with_param(param)
    u = ext_var(g.extended_chart, param)
    sigma = {v: ext_var(g.extended_chart, v) for v in g.chart.names}
    sigma[param] = u * factor
    entries = {
        v: p.substitute(sigma, into=g.extended_chart) for v, p in g.entries.items()
    }
    return ActionFamily(g.chart, param, entries)


# tests/data/monoid_gap.gradua: composable, but h_1 is not the identity
M = GradedChart("P", (("x", 1), ("y", 1)))
EXT = M.extend((("t", 0),))
MONOID_GAP = ActionFamily(
    M, "t", {"x": ext_var(EXT, "t") * ext_var(EXT, "x"), "y": WPolynomial.zero(EXT)}
)


# --- analyze ------------------------------------------------------------------


@pytest.fixture(scope="module")
def dressed():
    rng = random.Random(20261018)
    return [dressed_family(rng) for _ in range(40)]


def test_analyze_agrees_with_the_law_first_reference(dressed):
    rng = random.Random(7)
    seen = {
        "weight-0 block": 0,
        "shifted theta": 0,
        "broken law": 0,
        "fails at projections": 0,
        "fails at scaling": 0,
    }
    for family, theta in dressed:
        seen["weight-0 block"] += 0 in family.chart.weights
        seen["shifted theta"] += any(theta.values())
        report = analyze(family, theta)
        assert report.monoid_ok
        assert report == reference_analyze(family, theta)

        # a linear bump moves the Taylor projections; a bump that vanishes to
        # second order at theta leaves them alone, so the scaling check fails
        v, u = rng.choice(family.chart.names), rng.choice(family.chart.names)
        shifted_u = ext_var(family.extended_chart, u) - theta[u]
        c = random_coefficient(rng)
        for z in (shifted_u, shifted_u**2):
            broken = bumped(family, v, z, c)
            report = analyze(broken, theta)
            assert report == reference_analyze(broken, theta)
            if report.monoid_ok:
                continue
            seen["broken law"] += 1
            expected = outcome(reference_homogenize, broken, theta)
            assert expected[0] is InconsistentActionError
            for fn in (homogenize, detect_degree, extend_negative):
                assert outcome(fn, broken, theta) == expected
            stage = outcome(_joint_certificate, (broken,), theta, "W_h")
            if z is shifted_u:
                seen["fails at projections"] += "projection" in stage[1]
            else:
                projections = taylor_projections(family, theta)
                assert taylor_projections(broken, theta) == projections
                assert stage[0] is NotGradedActionError
                assert "does not scale" in stage[1]
                seen["fails at scaling"] += 1
    assert all(seen.values()), seen


def test_a_point_not_fixed_by_h0_agrees_with_the_reference(dressed):
    for family, theta in dressed[:5]:
        moved = {v: x + 1 for v, x in theta.items()}
        assert_same(analyze, reference_analyze, family, moved)
        z = ext_var(family.extended_chart, family.chart.names[-1])
        broken = bumped(family, family.chart.names[0], z, 3)
        assert_same(analyze, reference_analyze, broken, moved)


def test_monoid_gap_agrees_with_the_reference():
    report = analyze(MONOID_GAP)
    assert report == reference_analyze(MONOID_GAP)
    assert report.semigroup_ok and not report.monoid_ok
    for fn in (homogenize, detect_degree, extend_negative):
        assert outcome(fn, MONOID_GAP) == (
            InconsistentActionError,
            "the family breaks the monoid law",
        )
    assert_same(homogenize, reference_homogenize, MONOID_GAP)


# --- bihomogenize -------------------------------------------------------------


def test_bihomogenize_agrees_with_the_commutation_first_reference(dressed):
    rng = random.Random(11)
    seen = {"result": 0, "not commuting": 0, "broken law": 0}
    for family, theta in dressed[:12]:
        renamed = family.with_param("u")
        doubled = reparametrized(family, 2, "u")
        v = rng.choice(family.chart.names)
        z = ext_var(family.extended_chart, v) - theta[v]
        pairs = [
            (family, renamed),  # commuting and genuine
            (family, doubled),  # commuting; the second breaks both laws
            (doubled, renamed),  # commuting; the first breaks both laws
            (family, translated(renamed, {v: 1})),  # two genuine families
            (family, bumped(family, v, z**2, 2).with_param("u")),  # breaks a law
        ]
        for h1, h2 in pairs:
            got = outcome(bihomogenize, h1, h2, theta)
            assert got == outcome(reference_bihomogenize, h1, h2, theta)
            if not isinstance(got, tuple):
                seen["result"] += 1
            elif got[0] is NotDoubleStructureError:
                seen["not commuting"] += 1
            elif got[0] is InconsistentActionError:
                seen["broken law"] += 1
    assert all(seen.values()), seen


def test_noncommuting_pairs_carry_their_witnesses():
    ext_t, ext_u = M.extend((("t", 0),)), M.extend((("u", 0),))
    x, t = ext_var(ext_t, "x"), ext_var(ext_t, "t")
    h1 = ActionFamily(M, "t", {"x": t * x, "y": ext_var(ext_t, "y")})
    xu, yu, u = ext_var(ext_u, "x"), ext_var(ext_u, "y"), ext_var(ext_u, "u")
    h2 = ActionFamily(M, "u", {"x": xu, "y": u * yu + (1 - u) * xu**2})
    lawless = ActionFamily(M, "u", {"x": xu, "y": u * u * yu + (1 - u) * xu**2 * 2})
    for second in (h2, lawless):
        assert_same(bihomogenize, reference_bihomogenize, h1, second)
        with pytest.raises(NotDoubleStructureError) as caught:
            bihomogenize(h1, second)
        assert caught.value.detail == check_commuting(h1, second)[1]
    assert not verify_laws(lawless).monoid_ok


def test_the_one_allowed_difference():
    # A point not fixed by h_0 of the first family, paired with a commuting
    # family that breaks a law: the reference reports the first family's
    # DomainError, the certificate reports the later family's broken law.
    # The reverse order agrees.
    rng = random.Random(3)
    family, theta = dressed_family(rng)
    moved = {v: x + 1 for v, x in theta.items()}
    doubled = reparametrized(family, 2, "u")
    assert outcome(reference_bihomogenize, family, doubled, moved)[0] is DomainError
    assert outcome(bihomogenize, family, doubled, moved)[0] is InconsistentActionError
    renamed = family.with_param("u")
    assert_same(bihomogenize, reference_bihomogenize, doubled, renamed, moved)


# --- the direct checks run only to explain a failure --------------------------


def test_direct_checks_run_only_on_failure(monkeypatch):
    import gradua.action as action

    calls = {"verify_laws": 0, "check_commuting": 0}
    for name in calls:
        original = getattr(action, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(action, name, counted)

    family, theta = dressed_family(random.Random(5))
    analyze(family, theta)
    bihomogenize(family, family.with_param("u"), theta)
    assert calls == {"verify_laws": 0, "check_commuting": 0}

    analyze(MONOID_GAP)
    assert calls == {"verify_laws": 1, "check_commuting": 0}

    ext_u = M.extend((("u", 0),))
    xu, yu, u = ext_var(ext_u, "x"), ext_var(ext_u, "y"), ext_var(ext_u, "u")
    shear = ActionFamily(M, "u", {"x": u * xu, "y": u * yu + (1 - u) * xu})
    with pytest.raises(NotDoubleStructureError):
        bihomogenize(MONOID_GAP, shear)
    assert calls == {"verify_laws": 1, "check_commuting": 1}
