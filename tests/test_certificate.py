"""The homogenizer as the certificate of the laws and of commutation.

analyze and bihomogenize once checked the laws and the commutation of the
families before building coordinates. Now the checked coordinates certify
both, and the direct checks run only to explain a failure. The functions
below keep the old order as a reference; every report, result, error type
and error message must agree with it.

The certificate's own stages keep references too: the composite's
Jacobian built by substitution and n^2 derivatives (the term-level read
must equal it), the Fraction-matrix projection checks with idempotence per
joint projection (the rank verdict and its message must equal them), the
two-sided inverse check (the one-composite verdict must equal it, on
correct and on wrong candidates, and so must the zero-residual verdict of
the Picard pass at every limit), the doubling search for the inverse
(the bounded Picard pass must find the same inverse), the n x n products of the
families' Taylor projections for k >= 2 (the joint projections read off
the composite's Jacobian must give the same orders, basis and grid, and a
pair that does not commute must be refused), and the object-level linear
combinations of the homogenizer rows, the scaling check, N and the Picard
iterates (the term-dict combinations must give the same coordinates,
inverse, orders, verdicts and errors), the Picard passes that built every
iterate and settled on x_k = x_(k-1), and that settled on T_k (the pass
on its residual must give the same iterate and verdict at every limit, on
drawn coordinate changes too), and the scaling check
on Fractions and h_0(theta) = theta on integers (the scaling kernel's
integer check and the exact evaluation that replaced the integer one
must give the same verdicts, on mutated coordinates and moved points
too). The reference certificate inverts the basis matrix with
linalg.inverse, the certificate reads C^-1 off the joint projections'
rank factors; both must give the same results. A sympy check ties the
joint projections to the products Q1_r Q2_s.

The inverse kernel lives in gradua.graded, which runs the pass; action
calls the kernel. The helpers that intercept a stage patch it in the
module that calls it.
"""

import random
import re
from fractions import Fraction
from itertools import combinations, product
from math import lcm
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import gradua.action as action
import gradua.graded as graded
from gradua.action import (
    _homogenize_joint,
    _jacobian_coefficients,
    _joint_certificate,
    _resolve_theta,
    analyze,
    extend_negative,
    homogenize,
    taylor_projections,
    verify_laws,
)
from gradua.charts import GradedChart
from gradua.dsl import parse
from gradua.errors import (
    DegenerateActionError,
    DomainError,
    EngineDefectError,
    GraduaError,
    InconsistentActionError,
    NotDoubleStructureError,
    NotGradedActionError,
    SingularMatrixError,
)
from gradua.graded import ActionFamily, PolyMap, _split, invert_automorphism
from gradua.jets import adapt, jet_action, prolong_action
from gradua.linalg import (
    identity,
    independent_columns,
    inverse,
    mat_from_cols,
    mat_mul,
    zeros,
)
from gradua.multigrade import bihomogenize, check_commuting
from gradua.wpoly import (
    WPolynomial, _coefficient, _mono_total_degree, _numerators, _terms_combine,
    _terms_substitute,
)

from helpers import (
    chained_family,
    conjugated_action,
    dense_eliminate,
    distinct_params,
    linear_family,
    nest,
    order_projections,
    random_basis_change,
    random_chart,
    random_coefficient,
    random_graded_automorphism,
    reference_evaluate,
    weighted_degree,
)


# --- the old order, kept as a reference ---------------------------------------


def reference_require_monoid(h):
    laws = verify_laws(h)
    if not laws.monoid_ok:
        broken = ", ".join(sorted({w.law for w in laws.witnesses}))
        raise InconsistentActionError(f"the family breaks the {broken} law")


def reference_analyze(h, theta=None):
    """The laws first, then the homogenizer."""
    laws = verify_laws(h)
    if not laws.monoid_ok:
        return laws
    return homogenize(h, theta)


def reference_homogenize(h, theta=None):
    reference_require_monoid(h)
    return homogenize(h, theta)


def reference_bihomogenize(h1, h2, theta=None):
    """Commutation first, then each family's laws before its projections."""
    h1, h2 = distinct_params(h1, h2)
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
    theta = {v: reference_evaluate(tau_inv[v], origin) for v in chart.names}
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
            for fn in (homogenize, extend_negative):
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


def test_no_refusal_of_a_pair_sharing_a_parameter_names_it(dressed, monkeypatch):
    """check-double passes both families with parameter t. Of the messages a
    pair can be refused with, only the scaling check's names a parameter,
    and _homogenize_joint re-raises it only when both families keep their
    laws and commute, where the certificate exists. So a refusal at the
    scaling check is always explained by a commutation defect or a broken
    law, whose messages name no parameter."""
    refused = []
    scaling = action._check_scaling

    def recording(families, coordinates, orders):
        try:
            return scaling(families, coordinates, orders)
        except NotGradedActionError:
            refused.append(families)
            raise

    monkeypatch.setattr(action, "_check_scaling", recording)
    seen = {"double": 0, "refused at scaling": 0}
    for family, theta in dressed[:10]:
        v = family.chart.names[0]
        z = ext_var(family.extended_chart, v) - theta[v]
        t = ext_var(family.extended_chart, "t")
        # the broken family fails the scaling check; the moved one, not fixing
        # theta, fails the chain rule
        for other in (family, bumped(family, v, z**2, 1), bumped(family, v, t, 1)):
            for h1, h2 in ((family, other), (other, family)):
                assert h1.param == h2.param == "t"
                refused.clear()
                got = outcome(bihomogenize, h1, h2, theta)
                if not isinstance(got, tuple):
                    seen["double"] += 1
                    continue
                assert got[0] in (InconsistentActionError, NotDoubleStructureError), got
                assert "scale" not in got[1] and "t^" not in got[1]
                seen["refused at scaling"] += bool(refused)
    assert seen["double"] == 20 and seen["refused at scaling"] >= 20, seen


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
    for fn in (homogenize, extend_negative):
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


# --- the derivative at theta, read from the composite's terms -------------------


def reference_composite(families, ext):
    """h1 o ... o hk over ext by object-level substitution, the last family
    applied first: the route graded._compose_families replaced."""
    names = families[0].chart.names
    composite = [families[-1].entries[v].lift(ext) for v in names]
    for h in reversed(families[:-1]):
        sigma = dict(zip(names, composite))
        sigma[h.param] = ext_var(ext, h.param)
        composite = [h.entries[v].substitute(sigma, into=ext) for v in names]
    return composite


def reference_cells(families, theta):
    """Cell (v, u) of the composite's derivative at theta, on the route the
    term-level read replaced: n^2 derivatives substituted at theta, then
    coefficients_in once per parameter. Multi-index -> nonzero coefficient."""
    chart = families[0].chart
    params = [h.param for h in families]
    ext = chart.extend(tuple((t, 0) for t in reversed(params)))
    consts = {v: WPolynomial.constant(ext, theta[v]) for v in chart.names}
    consts.update({t: ext_var(ext, t) for t in params})
    cells = []
    for p in reference_composite(families, ext):
        row = []
        for u in chart.names:
            parts = {(): p.differentiate(u).substitute(consts, into=ext)}
            for t in params:
                parts = {
                    idx + (r,): q
                    for idx, part in parts.items()
                    for r, q in part.coefficients_in(t).items()
                }
            row.append({idx: c for idx, q in parts.items() if (c := q.terms.get((), 0))})
        cells.append(row)
    return cells


def reference_joint_projections(families, theta=None):
    """The joint projections on the reference route, checked as Fraction
    matrices with idempotence per P_m; the grid of multi-indices in
    lexicographic order, zero matrices included."""
    point = _resolve_theta(families, theta)[0]
    cells = reference_cells(families, point)
    n_vars = len(cells)
    keys = {idx for row in cells for c in row for idx in c}
    shape = [max(exps) for exps in zip(*keys)] if keys else [0] * len(families)
    grid = {
        idx: tuple(tuple(c.get(idx, Fraction(0)) for c in row) for row in cells)
        for idx in product(*(range(d + 1) for d in shape))
    }
    if any(
        sum(c.values()) != (i == j)
        for i, row in enumerate(cells)
        for j, c in enumerate(row)
    ):
        stacked = tuple(row for q in grid.values() for row in q)
        if len(independent_columns(stacked)) < n_vars:
            raise DegenerateActionError(
                "some direction is annihilated by every Taylor projection"
            )
        raise NotGradedActionError("Taylor projections do not sum to the identity")
    zero = zeros(n_vars, n_vars)
    for idx, q in grid.items():
        if q != zero and mat_mul(q, q) != q:
            name = "_".join(map(str, idx))
            raise NotGradedActionError(f"Taylor coefficient Q_{name} is not a projection")
    return grid


def reference_taylor_projections(h, theta=None):
    """taylor_projections on the reference route, comparing Fraction matrices."""
    return tuple(reference_joint_projections([h], theta).values())


def term_level(families, theta):
    """The engine's cells of the composite's derivative at theta, with
    Fraction values: family j's parameter at slot n + j, as the
    certificate's first stage puts it."""
    chart = families[0].chart
    n, k = len(chart), len(families)
    parts = _split(graded._compose_families(families, range(n, n + k)), n, k)
    point = [_coefficient(theta[v]) for v in chart.names]
    return [
        [{idx: Fraction(c) for idx, c in cell.items()} for cell in row]
        for row in _jacobian_coefficients(parts, point)
    ]


VALUES = [Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 2), Fraction(-3, 4)]
COEFFICIENTS = [1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3)]


@st.composite
def families_at_points(draw):
    """Arbitrary entries (exponents up to 3) on charts with weight-0 variables.

    theta takes repeated values, nonzero ones included, on every weight.
    Half of the cases add c * t^k * m * (z_a - z_b) to one entry with
    theta_a = theta_b, so the contributions of two terms to every cell
    (v, u) with u in m cancel at theta. A third of the cases add a second
    family in u (up to three terms an entry), whose composite with the
    first is read.
    """
    weights = draw(st.lists(st.integers(0, 2), min_size=1, max_size=4))
    chart = GradedChart("J", tuple((f"z{i}", w) for i, w in enumerate(weights)))
    ext = chart.extend((("t", 0),))
    exponents = st.lists(
        st.integers(0, 3), min_size=len(ext), max_size=len(ext)
    ).map(lambda es: tuple((i, e) for i, e in enumerate(es) if e))
    coefficients = st.sampled_from(COEFFICIENTS)
    theta = {v: draw(st.sampled_from(VALUES)) for v in chart.names}
    entries = {
        v: WPolynomial(ext, draw(st.dictionaries(exponents, coefficients, max_size=5)))
        for v in chart.names
    }
    if len(chart) >= 2 and draw(st.booleans()):
        a, b = draw(st.permutations(chart.names))[:2]
        theta[b] = theta[a]
        v = draw(st.sampled_from(chart.names))
        m = WPolynomial(ext, {draw(exponents): draw(coefficients)})
        entries[v] = entries[v] + m * (ext_var(ext, a) - ext_var(ext, b))
    families = [ActionFamily(chart, "t", entries)]
    if draw(st.integers(0, 2)) == 0:
        second = {
            v: WPolynomial(ext, draw(st.dictionaries(exponents, coefficients, max_size=3)))
            for v in chart.names
        }
        families.append(ActionFamily(chart, "t", second).with_param("u"))
    return families, theta


@settings(max_examples=300, deadline=None)
@given(families_at_points())
def test_term_level_jacobian_matches_the_reference_route(case):
    families, theta = case
    got = term_level(families, theta)
    assert got == reference_cells(families, theta)
    assert all(c for row in got for cell in row for c in cell.values())


def test_cells_that_cancel_are_dropped():
    chart = GradedChart("C", (("x", 1), ("y", 0), ("z", 0)))
    ext = chart.extend((("t", 0),))
    x, y, z, t = (ext_var(ext, v) for v in ext.names)
    entry = t * x * y - t * x * z + t**2 * x**2 * y
    h = ActionFamily(chart, "t", {"x": entry, "y": y, "z": z})
    theta = {"x": Fraction(1), "y": Fraction(2), "z": Fraction(2)}
    # d/dx at theta: (2 - 2) t + 4 t^2, so the t^1 cell cancels and is dropped
    assert term_level([h], theta)[0] == [{(2,): 4}, {(1,): 1, (2,): 1}, {(1,): -1}]
    assert term_level([h], theta) == reference_cells([h], theta)


def test_taylor_projections_match_the_reference_route(dressed):
    rng = random.Random(19)
    seen = {"projections": 0, "error": 0, "not a projection": 0}
    for family, theta in dressed:
        v, u = rng.choice(family.chart.names), rng.choice(family.chart.names)
        z = ext_var(family.extended_chart, u) - theta[u]
        for h in (family, bumped(family, v, z, random_coefficient(rng))):
            got = outcome(taylor_projections, h, theta)
            assert got == outcome(reference_taylor_projections, h, theta)
            if isinstance(got, tuple) and isinstance(got[0], type):
                seen["error"] += 1
                # the rank verdict, explained by the per-Q_r check
                seen["not a projection"] += got[1].endswith("is not a projection")
                continue
            seen["projections"] += 1
            assert all(type(x) is Fraction for q in got for row in q for x in row)
    assert all(seen.values()), seen


def rational(x, sympy):
    x = Fraction(x)
    return sympy.Rational(x.numerator, x.denominator)


def to_sympy(p, sympy):
    """A polynomial as a sympy expression in symbols named after its chart."""
    syms = [sympy.Symbol(v) for v in p.chart.names]
    expr = sympy.Integer(0)
    for mono, c in p.terms.items():
        term = rational(c, sympy)
        for i, e in mono:
            term *= syms[i] ** e
        expr += term
    return expr


def test_taylor_projections_agree_with_the_sympy_jacobian(dressed):
    """Q_r is the t^r coefficient of the Jacobian of the entries at theta, and
    there is one Q_r for each power of t up to the Jacobian's t-degree."""
    sympy = pytest.importorskip("sympy")
    seen = {"weight-0 block": 0, "shifted theta": 0}
    for family, theta in dressed:
        names = family.chart.names
        t = sympy.Symbol(family.param)
        point = {sympy.Symbol(v): rational(theta[v], sympy) for v in names}
        entries = sympy.Matrix([to_sympy(family.entries[v], sympy) for v in names])
        jacobian = entries.jacobian([sympy.Symbol(v) for v in names])
        jacobian = jacobian.subs(point, simultaneous=True).expand()
        degree = max(sympy.degree(x, t) for x in jacobian if x != 0)
        qs = taylor_projections(family, theta)
        assert len(qs) == degree + 1
        for r, q in enumerate(qs):
            expected = jacobian.applyfunc(lambda x: x.coeff(t, r))
            got = sympy.Matrix([[rational(x, sympy) for x in row] for row in q])
            assert got == expected, (r, q)
        seen["weight-0 block"] += 0 in family.chart.weights
        seen["shifted theta"] += any(theta.values())
    assert min(seen.values()) >= 10, seen


def sympy_pullbacks(pmap, prefix, sympy):
    """pmap's pullbacks as sympy expressions, by target variable, over
    symbols named prefix + source variable."""
    rename = {sympy.Symbol(v): sympy.Symbol(prefix + v) for v in pmap.source.names}
    return {
        v: to_sympy(p, sympy).subs(rename, simultaneous=True)
        for v, p in pmap.pullbacks.items()
    }


def test_the_inverse_composes_to_the_identity_in_sympy(dressed):
    """An oracle for the inverse kernel that shares no code with it: sympy
    composes the homogenizer phi with its inverse psi both ways, and both
    composites are the identity. Run on the 40 dressed families and on 10
    bihomogenized pairs, 5 of dressed families with a renamed copy and 5 of
    commuting linear families."""
    sympy = pytest.importorskip("sympy")
    cases = [homogenize(family, theta) for family, theta in dressed]
    cases += [bihomogenize(f, f.with_param("u"), theta) for f, theta in dressed[:5]]
    pairs = [fs for fs in joint_cases() if len(fs) == 2 and first_witnesses(fs) is None]
    cases += [bihomogenize(*families) for families in pairs[:5]]
    assert len(cases) == 50
    seen = {"weight-0 block": 0, "shifted theta": 0, "nonlinear inverse": 0}
    for hom in cases:
        phi, psi = hom.homogenizer, hom.inverse_homogenizer
        assert psi.source == phi.target and psi.target == phi.source
        xs = {v: sympy.Symbol("x_" + v) for v in phi.source.names}
        ys = {v: sympy.Symbol("y_" + v) for v in phi.target.names}
        forward = sympy_pullbacks(phi, "x_", sympy)  # y in terms of x
        backward = sympy_pullbacks(psi, "y_", sympy)  # x in terms of y
        into_x = {ys[v]: p for v, p in forward.items()}
        into_y = {xs[v]: p for v, p in backward.items()}
        for v, p in forward.items():
            assert sympy.expand(p.subs(into_y, simultaneous=True)) == ys[v]
        for v, p in backward.items():
            assert sympy.expand(p.subs(into_x, simultaneous=True)) == xs[v]
        seen["weight-0 block"] += 0 in phi.source.weights
        seen["shifted theta"] += any(hom.theta.values())
        seen["nonlinear inverse"] += max(p.total_degree() for p in psi.pullbacks.values()) > 1
    assert min(seen.values()) >= 10, seen


# --- one composite of the inverse ----------------------------------------------


def inversion_inputs(monkeypatch, build, *args):
    """build(*args), and the arguments its first call of the inverse kernel
    got; action calls the kernel, and the kernel, in graded, runs the pass."""
    seen = []
    invert = action._invert_coordinate_change

    def recording(*inputs):
        seen.append(inputs)
        return invert(*inputs)

    with monkeypatch.context() as patched:
        patched.setattr(action, "_invert_coordinate_change", recording)
        result = build(*args)
    return result, seen[0]


def checked_matrices(monkeypatch, build, *args):
    """build(*args), whether or not it succeeds, and the C and C^-1 in stored
    sparse rows that its first check of the inverse kernel's premise
    (action._checked_basis) returned."""
    seen = []
    checked = action._checked_basis

    def recording(*args):
        orders, basis, cinv = checked(*args)
        seen.append((basis, cinv))
        return orders, basis, cinv

    with monkeypatch.context() as patched:
        patched.setattr(action, "_checked_basis", recording)
        result = outcome(build, *args)
    return result, seen[0]


def picard_candidate(monkeypatch, inputs, limit):
    """The last iterate of the Picard pass of _invert_coordinate_change(*inputs),
    cut at round `limit`."""
    formed = []
    picard = graded._picard_inverse

    def at_limit(*args):
        formed.append(picard(*args[:-1], limit)[0])
        return picard(*args)

    with monkeypatch.context() as patched:
        patched.setattr(graded, "_picard_inverse", at_limit)
        graded._invert_coordinate_change(*inputs)
    return formed[0]


def perturbed(psi, rng):
    """psi with 1 added to one coefficient of one pullback."""
    v = rng.choice(psi.target.names)
    terms = dict(psi.pullbacks[v].terms)
    mono = rng.choice(sorted(terms))
    terms[mono] += 1
    return PolyMap(
        psi.source, psi.target, {**psi.pullbacks, v: WPolynomial(psi.source, terms)}
    )


def test_one_composite_agrees_with_the_two_sided_check(dressed, monkeypatch):
    rng = random.Random(29)
    verdicts = {"inverse": [], "picard at limit 1": [], "perturbed": []}

    def record(kind, phi, psi):
        # the two-sided verdict is one_sided and this; by the lemma they agree
        one_sided = phi.then(psi).is_identity()
        assert psi.then(phi).is_identity() == one_sided
        verdicts[kind].append(one_sided)

    for i, (family, theta) in enumerate(dressed):
        builds = [(homogenize, family, theta)]
        if not i % 4:
            builds.append((bihomogenize, family, family.with_param("u"), theta))
        for build, *args in builds:
            joint, inputs = inversion_inputs(monkeypatch, build, *args)
            phi, psi = joint.homogenizer, joint.inverse_homogenizer
            record("inverse", phi, psi)
            record("picard at limit 1", phi, picard_candidate(monkeypatch, inputs, 1))
            record("perturbed", phi, perturbed(psi, rng))
    for seed in range(20):
        seeded = random.Random(seed)
        gamma = random_graded_automorphism(seeded, random_chart(seeded))
        inv = invert_automorphism(gamma)
        record("inverse", gamma, inv)
        record("perturbed", gamma, perturbed(inv, rng))

    assert all(verdicts["inverse"]) and not any(verdicts["perturbed"])
    # the linear guess is right only where the coordinate change is affine
    assert verdicts["picard at limit 1"].count(False) > 10


# --- one bounded Picard pass ----------------------------------------------------


def truncated(p, bound):
    """p without its monomials of total degree above bound."""
    kept = {m: c for m, c in p.terms.items() if _mono_total_degree(m) <= bound}
    return WPolynomial(p.chart, kept)


def reference_invert(phi, theta):
    """The search the bounded pass replaced, kept as the reference.

    The linear part is read at the origin, and Picard rounds truncated at a
    start bound are repeated with the bound doubled, up to 64.
    """
    chart, new_chart = phi.source, phi.target
    names = chart.names
    linear_monos = [((i, 1),) for i in range(len(names))]
    lin_rows = tuple(
        tuple(Fraction(phi.pullbacks[v].terms.get(m, 0)) for m in linear_monos)
        for v in new_chart.names
    )
    try:
        linv = inverse(lin_rows)
    except SingularMatrixError as exc:
        raise NotGradedActionError("coordinate change is singular at theta") from exc
    shift = {v: ext_var(chart, v) - theta[v] for v in names}
    nonlinear = []
    for v, row in zip(new_chart.names, lin_rows):
        linear = WPolynomial.zero(chart)
        for u, c in zip(names, row):
            if c:
                linear = linear + shift[u] * c
        nonlinear.append(phi.pullbacks[v] - linear)
    new_vars = [ext_var(new_chart, v) for v in new_chart.names]
    max_pb_degree = max((p.total_degree() for p in phi.pullbacks.values()), default=1)
    bound = max(new_chart.degree, max_pb_degree, 2)
    while bound <= 64:
        guesses = []
        for i, v in enumerate(names):
            acc = WPolynomial.constant(new_chart, theta[v])
            for j, nv in enumerate(new_vars):
                if linv[i][j]:
                    acc = acc + nv * linv[i][j]
            guesses.append(acc)
        for _ in range(bound):
            sigma = dict(zip(names, guesses))
            updated = []
            for i, v in enumerate(names):
                acc = WPolynomial.constant(new_chart, theta[v])
                for j, nv in enumerate(new_vars):
                    c = linv[i][j]
                    if not c:
                        continue
                    if nonlinear[j].is_zero():
                        acc = acc + nv * c
                    else:
                        pushed = nonlinear[j].substitute(sigma, into=new_chart)
                        acc = acc + (nv - truncated(pushed, bound)) * c
                updated.append(acc)
            settled = updated == guesses
            guesses = updated
            if settled:
                break
        candidate = PolyMap(new_chart, chart, dict(zip(names, guesses)))
        if phi.then(candidate).is_identity():
            return candidate
        bound *= 2
    raise NotGradedActionError("no polynomial inverse of total degree <= 64 exists")


def total_degree(pmap):
    return max(p.total_degree() for p in pmap.pullbacks.values())


def test_bounded_pass_agrees_with_the_doubling_search(dressed):
    rng = random.Random(37)
    chained = [chained_family(rng, i % 3) for i in range(36)]
    seen = {"weight 0": 0, "positive": 0, "outgrew the start bound": 0}
    for family, theta in dressed + chained:
        hom = homogenize(family, theta)
        phi, psi = hom.homogenizer, hom.inverse_homogenizer
        assert psi == reference_invert(phi, hom.theta)
        start = max(hom.homogenized_chart.degree, total_degree(phi), 2)
        seen["outgrew the start bound"] += total_degree(psi) > start
        if not all(hom.homogenized_chart.weights):
            seen["weight 0"] += 1
            continue
        seen["positive"] += 1
        d = max(max(p.coefficients_in(family.param)) for p in family.entries.values())
        assert all(weighted_degree(p) <= d for p in psi.pullbacks.values())
    assert seen["weight 0"] >= 20 and seen["positive"] >= 20, seen
    assert seen["outgrew the start bound"] >= 5, seen


def test_a_degree_bound_below_the_inverse_is_an_engine_defect(monkeypatch):
    rng = random.Random(41)
    while True:
        family, theta = chained_family(rng, 0)
        hom, inputs = inversion_inputs(monkeypatch, homogenize, family, theta)
        if total_degree(hom.inverse_homogenizer) >= 4:
            break
    phi, point, basis, degree = inputs
    exact = total_degree(hom.inverse_homogenizer)
    assert exact <= degree
    assert action._invert_coordinate_change(phi, point, basis, exact) == hom.inverse_homogenizer
    with pytest.raises(EngineDefectError, match=f"<= {exact - 1}$"):
        action._invert_coordinate_change(phi, point, basis, exact - 1)


def test_weight0_coordinates_with_no_inverse_stop_at_the_bcw_bound(monkeypatch):
    # h_t = Psi o s_t o Psi^-1 with Psi(s, u) = (s + (u + s^2)^2, u + s^2): a
    # graded bundle, but the weight-0 coordinate the engine reads off h_0 has
    # no polynomial inverse. phi has total degree 8 on 2 variables, so the
    # Bass-Connell-Wright bound deg(phi)^(n-1) is 8.
    chart = GradedChart("G", (("a", 0), ("b", 1)))
    ext = chart.extend((("t", 0),))
    a, b, t = (ext_var(ext, v) for v in ext.names)
    s = a - b**2
    u = t * (b - (a - b**2) ** 2)
    family = ActionFamily(chart, "t", {"a": s + (u + s**2) ** 2, "b": u + s**2})
    assert verify_laws(family).monoid_ok

    # round 1 is theta + C y; each round k >= 2 is one pass of the
    # substitution kernel, so the pass's own calls count its rounds. Rounds
    # 2 .. 9 check x_1 .. x_8, and no composite is formed
    rounds, inside = [1], []
    picard, substitute = graded._picard_inverse, graded._terms_substitute

    def one_pass(*args):
        inside.append(True)
        try:
            return picard(*args)
        finally:
            inside.pop()

    def one_round(polys, images):
        if inside:
            rounds.append(rounds[-1] + 1)
            assert rounds[-1] <= 9, f"Picard round {rounds[-1]}"
        return substitute(polys, images)

    monkeypatch.setattr(graded, "_picard_inverse", one_pass)
    monkeypatch.setattr(graded, "_terms_substitute", one_round)
    composites = []
    then = PolyMap.then

    def counted_then(*args):
        if inside:
            composites.append(args)
        return then(*args)

    monkeypatch.setattr(PolyMap, "then", counted_then)
    with pytest.raises(NotGradedActionError, match="total degree <= 8 "):
        homogenize(family)
    assert rounds[-1] == 9 and composites == []


# --- the kernel's checked premise ---------------------------------------------


def test_a_wrong_basis_inverse_is_caught_by_the_premise(monkeypatch):
    """With the first entry of the stacked rank factors R off by one, C^-1 is
    wrong, yet every coordinate it builds still scales (a combination of t^r
    coefficients of a monoid action does). The inverse kernel's premise
    check, cinv * C = I, refuses every family. With that check bypassed,
    no wrong inverse is accepted: the pass certifies only a zero residual,
    phi o psi = id, so each family gets a true inverse of its homogenizer
    or, with the iteration under a wrong C not converging, an
    EngineDefectError at the degree bound."""
    families = []
    for seed in range(60):
        rng = random.Random(seed)
        families.append(conjugated_action(rng, random_chart(rng, min_vars=2))[0])
    monkeypatch.setattr(action, "_projections", off_by_one_factor(action._projections))
    for family in families:
        with pytest.raises(EngineDefectError, match="cinv \\* C = I"):
            homogenize(family)
    monkeypatch.setattr(graded.linalg, "_is_inverse", lambda a, b: True)
    seen = {"inverted": 0, "not inverted": 0}
    for family in families:
        got = outcome(homogenize, family)
        if isinstance(got, tuple):
            assert got[0] is EngineDefectError, got
            seen["not inverted"] += 1
        else:
            assert got.homogenizer.then(got.inverse_homogenizer).is_identity()
            seen["inverted"] += 1
    assert seen["not inverted"] >= 30, seen


# --- a zero residual as the certificate ---------------------------------------


def cubic_shear_family():
    """h_t = gamma^-1 o s_t o gamma on (x:1, y:2), with gamma = (x, y + x^3).

    The homogenizer is gamma and N = (0, x^3). The truncated rounds x_k =
    theta + C (y - trunc_k N(x_(k-1))) give x_2 = x_1, the identity, while
    N(x_1) = (0, y1_1^3) still has a term above degree 2: a pass that
    accepted an unchanged round would return it, and it is not the
    inverse.
    """
    chart = GradedChart("C", (("x", 1), ("y", 2)))
    ext = chart.extend((("t", 0),))
    x, y, t = (ext_var(ext, v) for v in ext.names)
    return ActionFamily(chart, "t", {"x": t * x, "y": t**2 * (y + x**3) - t**3 * x**3})


def test_a_zero_residual_is_certified(dressed, monkeypatch):
    """At every limit, the pass's verdict is the one-sided composite and the
    other side: the iterate is certified exactly when it inverts phi."""
    rng = random.Random(37)
    chained = [chained_family(rng, i % 3) for i in range(36)]
    cases = dressed + chained + [(cubic_shear_family(), None)]
    seen = {"accepted": 0, "refused": 0}
    for family, theta in cases:
        phi, point, basis, _, limit = pass_inputs(monkeypatch, family, theta)
        for k in range(1, limit + 1):
            iterate, verdict = graded._picard_inverse(phi, point, basis, k)
            assert verdict == iterate.then(phi).is_identity()
            assert verdict == phi.then(iterate).is_identity()
            seen["accepted" if verdict else "refused"] += 1
            if verdict:
                break
    assert seen["accepted"] >= 50 and seen["refused"] >= 30, seen


def test_a_settled_round_with_terms_above_its_degree_goes_on():
    hom = homogenize(cubic_shear_family())
    assert str(hom.homogenizer.pullbacks["y2_1"]) == "x^3 + y"
    y1, y2 = (ext_var(hom.homogenized_chart, v) for v in ("y1_1", "y2_1"))
    # accepting the settled round 2 would give y = y2_1
    assert hom.inverse_homogenizer.pullbacks["y"] == y2 - y1**3
    assert hom.homogenizer.then(hom.inverse_homogenizer).is_identity()


# --- the rank factors are the inverse -------------------------------------------


def as_fractions(m, cols):
    """The Fraction matrix, with `cols` columns, of an integer form (rows, d)
    of sparse rows."""
    rows, d = m
    return tuple(tuple(Fraction(row.get(j, 0), d) for j in range(cols)) for row in rows)


def written_out(m):
    """A square matrix in stored sparse rows, written out as dense rows."""
    return [[row.get(j, 0) for j in range(len(m))] for row in m]


def fractions_of(m):
    """The Fraction matrix of a square matrix in stored sparse rows (ints and
    Fractions)."""
    return tuple(tuple(Fraction(x) for x in row) for row in written_out(m))


def assert_blocks_factor(c, c_inv, orders, joint):
    """C^-1 C = C C^-1 = I, and for every multi-index the columns of C and
    the rows of C^-1 it owns multiply out to its joint projection."""
    n = len(c)
    assert mat_mul(c_inv, c) == mat_mul(c, c_inv) == identity(n)
    for idx, p in joint.items():
        own = [i for i, o in enumerate(orders) if o == idx]
        b = tuple(tuple(row[i] for i in own) for row in c)
        r = tuple(c_inv[i] for i in own)
        assert (mat_mul(b, r) if own else zeros(n, n)) == p


def certificate_parts(monkeypatch, families, theta):
    """_joint_certificate(families, theta), the joint projections and rank
    factors its rank check returned, and the C and C^-1 that the inverse
    kernel's premise check returned, as Fraction matrices."""
    seen = []
    projections = action._projections

    def recording(*args):
        seen.append(projections(*args))
        return seen[-1]

    with monkeypatch.context() as patched:
        patched.setattr(action, "_projections", recording)
        cert, matrices = checked_matrices(monkeypatch, _joint_certificate, families, theta, "L_h")
    (grid, factored), (basis, cinv) = seen[0], matrices
    return cert, grid, factored, fractions_of(basis), fractions_of(cinv)


def test_rank_factors_give_back_the_projections_and_invert_the_basis(dressed, monkeypatch):
    """P_m = P_m[:, piv] R_m for every nonzero joint projection P_m, and the
    stacked R is C^-1, for one family and for the k = 2 and k = 3
    composites of its copies."""
    seen = {"weight-0 block": 0, "shifted theta": 0, "k = 2": 0, "k = 3": 0}
    for i, (family, theta) in enumerate(dressed):
        runs = [[family]]
        if i < 10:
            runs.append([family, family.with_param("u")])
            runs.append([family, family.with_param("u"), family.with_param("v")])
        for families in runs:
            cert, grid, factored, c, c_inv = certificate_parts(monkeypatch, families, theta)
            # the grid is the box of the nonzero P_m, each given back by its
            # integer form, and zero elsewhere
            n = len(family.chart)
            box = product(*(range(max(exps) + 1) for exps in zip(*factored)))
            keyed = {
                idx: as_fractions(factored[idx].q, n) if idx in factored else zeros(n, n)
                for idx in box
            }
            assert cert.projections == grid == nest(keyed)
            for f in factored.values():
                q = as_fractions(f.q, n)
                at_pivots = tuple(tuple(row[j] for j in f.pivots) for row in q)
                assert mat_mul(at_pivots, as_fractions(f.factor, n)) == q
                assert len(f.factor[0]) == len(f.pivots) == len(independent_columns(q))
            assert_blocks_factor(c, c_inv, cert.orders, keyed)
            if len(families) > 1:
                seen[f"k = {len(families)}"] += 1
        seen["weight-0 block"] += 0 in family.chart.weights
        seen["shifted theta"] += any(theta.values())
    assert seen["k = 2"] == seen["k = 3"] == 10, seen
    assert seen["weight-0 block"] >= 10 and seen["shifted theta"] >= 10, seen


# --- k families: the joint projections off the composite's Jacobian -------------


def reference_basis(joint):
    """The basis columns of every nonzero joint projection, in lexicographic
    order, and their multi-indices: the first-pivot columns of each."""
    basis, orders = [], []
    for idx, p in joint.items():
        if any(map(any, p)):
            for j in independent_columns(p):
                basis.append(tuple(row[j] for row in p))
                orders.append(idx)
    return basis, orders


def reference_joint_route(per_family):
    """The product route _joint_certificate took for k >= 2, kept as the oracle.

    Every pair of nonzero projections of different families is multiplied
    both ways and compared; every joint projection is multiplied out and
    eliminated. Returns the joint projections, the basis columns and their
    multi-indices.
    """
    n = len(per_family[0][0])
    zero = zeros(n, n)
    first_pair = {}
    for (i, qs_a), (j, qs_b) in combinations(enumerate(per_family), 2):
        for (r, a), (s, b) in product(enumerate(qs_a), enumerate(qs_b)):
            if not (any(map(any, a)) and any(map(any, b))):
                continue
            ab = mat_mul(a, b)
            if ab != mat_mul(b, a):
                raise NotDoubleStructureError(
                    "the families' Taylor projections do not commute"
                )
            if (i, j) == (0, 1):
                first_pair[r, s] = ab
    joint = {(r,): q for r, q in enumerate(per_family[0])}
    for j, qs in enumerate(per_family[1:], start=1):
        joint = {
            idx + (s,): (
                first_pair.get((idx[0], s), zero) if j == 1
                else mat_mul(p, q) if any(map(any, p)) and any(map(any, q))
                else zero
            )
            for idx, p in joint.items()
            for s, q in enumerate(qs)
        }
    return (joint, *reference_basis(joint))


def _block_change(rng, c, c_inv, orders):
    """C M with M unit lower triangular inside the blocks of equal order: its
    order projections commute with those of C for the same orders."""
    n = len(orders)
    m = tuple(
        tuple(
            Fraction(1) if i == j
            else Fraction(rng.randint(-2, 2)) if i > j and orders[i] == orders[j]
            else Fraction(0)
            for j in range(n)
        )
        for i in range(n)
    )
    return mat_mul(c, m), mat_mul(inverse(m), c_inv)


def joint_cases():
    """Seeded pairs and triples of linear families: sharing one basis change
    (commuting), changed inside the first family's order blocks (commuting
    with it, with other joint projections), or with a basis change of their
    own (commuting only by chance)."""
    rng = random.Random(41)
    cases = []
    for i in range(90):
        n = rng.randint(2, 5)
        c, c_inv = random_basis_change(rng, n)
        first = [rng.randint(0, 2) for _ in range(n)]
        families = [linear_family(order_projections(c, c_inv, first, 2), "t")]
        for param in "uv"[: 1 + i % 2]:
            orders = [rng.randint(0, 2) for _ in range(n)]
            mode = rng.random()
            if mode < 0.5:
                d, d_inv = random_basis_change(rng, n)
            elif mode < 0.8:
                d, d_inv = _block_change(rng, c, c_inv, first)
            else:
                d, d_inv = c, c_inv
            families.append(linear_family(order_projections(d, d_inv, orders, 2), param))
        cases.append(families)
    return cases


def first_witnesses(families):
    """check_commuting's witnesses for the first pair of families, in
    argument order, that does not commute."""
    for a, b in combinations(families, 2):
        commuting, witnesses = check_commuting(a, b)
        if not commuting:
            return witnesses
    return None


def test_joint_projections_agree_with_the_product_route(monkeypatch):
    """Where the families commute, the certificate read off the composite's
    Jacobian gives the product route's orders, basis columns and grid of
    joint projections, and an inverse. Where they do not, it raises, and
    _homogenize_joint raises NotDoubleStructureError with the witnesses. A
    joint projection that is not idempotent is named by its multi-index."""
    seen = {"pair": 0, "triple": 0, "pair raises": 0, "triple raises": 0}
    messages = set()
    for families in joint_cases():
        kind = "pair" if len(families) == 2 else "triple"
        try:
            joint, basis, orders = reference_joint_route([taylor_projections(h) for h in families])
        except NotDoubleStructureError:
            got = outcome(_joint_certificate, families, None, "L_h")
            assert isinstance(got, tuple)
            messages.add(got[1])
            with pytest.raises(NotDoubleStructureError) as caught:
                _homogenize_joint(families, None, "L_h")
            assert caught.value.detail == first_witnesses(families) is not None
            seen[f"{kind} raises"] += 1
            continue
        cert, grid, _, c, c_inv = certificate_parts(monkeypatch, families, None)
        assert (c, cert.orders) == (mat_from_cols(basis), tuple(orders))
        assert cert.projections == grid == nest(joint)
        assert_blocks_factor(c, c_inv, cert.orders, joint)
        assert cert.homogenizer.then(cert.inverse_homogenizer).is_identity()
        seen[kind] += 1
    assert seen["pair"] + seen["triple"] == 43 and min(seen.values()) >= 8, seen
    named = [m for m in messages if re.fullmatch(r"Taylor coefficient Q(_\d){2,3} is not a projection", m)]
    assert any(len(m.split("_")) == 3 for m in named) and any(len(m.split("_")) == 4 for m in named)


def test_bihomogenize_projections_are_the_products():
    for families in joint_cases()[:40]:
        h1, h2 = families[:2]
        try:
            joint, _, _ = reference_joint_route(
                [taylor_projections(h1), taylor_projections(h2)]
            )
        except NotDoubleStructureError:
            continue
        bihom = bihomogenize(h1, h2)
        assert bihom.projections == nest(joint)


def test_joint_projections_agree_with_the_sympy_composite_jacobian(dressed):
    """For a commuting pair, the t^r u^s coefficient of the derivative of
    h1_t o h2_u at theta is Q1_r Q2_s, and it is the joint projection of
    (r, s); the grid runs up to the derivative's degree in t and in u."""
    sympy = pytest.importorskip("sympy")
    pairs = [([family, family.with_param("u")], theta) for family, theta in dressed[:4]]
    for families in joint_cases()[:30]:
        if len(families) == 2 and first_witnesses(families) is None:
            pairs.append((families, {v: 0 for v in families[0].chart.names}))
    assert len(pairs) >= 10
    for (h1, h2), theta in pairs:
        names = h1.chart.names
        syms = [sympy.Symbol(v) for v in names]
        t, u = sympy.Symbol(h1.param), sympy.Symbol(h2.param)
        first = sympy.Matrix([to_sympy(h1.entries[v], sympy) for v in names])
        second = [to_sympy(h2.entries[v], sympy) for v in names]
        composite = first.subs(dict(zip(syms, second)), simultaneous=True)
        point = {s: rational(theta[v], sympy) for s, v in zip(syms, names)}
        jacobian = composite.jacobian(syms).subs(point, simultaneous=True).expand()
        q1, q2 = taylor_projections(h1, theta), taylor_projections(h2, theta)
        grid = bihomogenize(h1, h2, theta).projections
        nonzero = [x for x in jacobian if x != 0]
        assert len(q1) == max(sympy.degree(x, t) for x in nonzero) + 1
        assert len(q2) == max(sympy.degree(x, u) for x in nonzero) + 1
        assert [len(row) for row in grid] == [len(q2)] * len(q1)
        for r, s in product(range(len(q1)), range(len(q2))):
            p = grid[r][s]
            expected = jacobian.applyfunc(lambda x: x.coeff(t, r).coeff(u, s))
            for m in (mat_mul(q1[r], q2[s]), p):
                assert sympy.Matrix([[rational(x, sympy) for x in row] for row in m]) == expected


# mutations of the assembly: each takes the engine function it wraps


def off_by_one_cell(jacobian):
    """_jacobian_coefficients with 1 added to its first stored coefficient:
    sum P_m moves off I."""

    def wrong(parts, point):
        rows = jacobian(parts, point)
        cell = next(c for row in rows for c in row if c)
        cell[next(iter(cell))] += 1
        return rows

    return wrong


def moved_unit(jacobian):
    """_jacobian_coefficients with 1 moved from the first stored coefficient,
    at multi-index m, to m with its first exponent raised by one, in the
    same cell: sum P_m stays I."""

    def wrong(parts, point):
        rows = jacobian(parts, point)
        cell = next(c for row in rows for c in row if c)
        a = next(iter(cell))
        b = (a[0] + 1, *a[1:])
        cell[a] -= 1
        cell[b] = cell.get(b, 0) + 1
        return rows

    return wrong


def off_by_one_factor(projections):
    """_projections with 1 added to the first entry of the first rank
    factor: C^-1 is wrong."""

    def wrong(coeffs, k):
        grid, factored = projections(coeffs, k)
        idx, f = next(iter(factored.items()))
        rows, d = f.factor
        first = {**rows[0], 0: rows[0].get(0, 0) + d}
        if not first[0]:
            del first[0]
        factored[idx] = f._replace(factor=([first, *rows[1:]], d))
        return grid, factored

    return wrong


MUTATIONS = {
    "cell off by one": ("_jacobian_coefficients", off_by_one_cell),
    "unit moved": ("_jacobian_coefficients", moved_unit),
    "rank factor off by one": ("_projections", off_by_one_factor),
}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_a_wrong_assembly_is_caught_by_the_checks(mutation, dressed, monkeypatch):
    """With the Jacobian read or the rank factors off, the checks that do
    not share the assembly (sum P_m = I and the rank count, the premise
    C^-1 C = I, the scaling check) refuse every call: none returns a
    homogenizer. Run on one-family dressed structures, on the seeded pairs
    and triples of joint_cases and on order-1 jet doubles (a prolonged
    family with the jet scaling)."""
    rng = random.Random(1968)
    doubles = []
    for _ in range(12):
        chart = random_chart(rng, max_rank=(2, 1), max_base=1)
        family, _ = conjugated_action(rng, chart)
        doubles.append([prolong_action(family, 1), jet_action(adapt(chart, 1), "u")])
    calls = [(homogenize, (family, theta)) for family, theta in dressed[:20]]
    for families in joint_cases() + doubles:
        calls.append((_joint_certificate, (families, None, "L_h")))
        calls.append((bihomogenize, tuple(families[:2])))
    succeeds = sum(not isinstance(outcome(fn, *args), tuple) for fn, args in calls)
    name, mutate = MUTATIONS[mutation]
    monkeypatch.setattr(action, name, mutate(getattr(action, name)))
    raised, messages = {}, []
    for fn, args in calls:
        with pytest.raises(GraduaError) as caught:
            fn(*args)
        kind = type(caught.value).__name__
        raised[kind] = raised.get(kind, 0) + 1
        messages.append(str(caught.value))
    assert succeeds >= 100, succeeds
    assert sum(raised.values()) == len(calls), raised
    if mutation == "unit moved":
        # the moved unit empties some coordinates; the scaling check refuses
        # each by name, before the inverse is tried
        empty = re.compile(r"homogenizer coordinate '\w+' is identically zero")
        assert sum(bool(empty.fullmatch(m)) for m in messages) >= 20, raised
        assert not any("inverse" in m for m in messages), raised


# --- sum P_m = I decided by the premise: the refusals are unchanged ---------------


def integer_rows(q):
    """The dense integer numerators of a Fraction matrix over the lcm of its
    denominators."""
    d = lcm(*(x.denominator for row in q for x in row))
    return [[x.numerator * (d // x.denominator) for x in row] for row in q]


def sum_first_stage(families, theta):
    """The certificate's first stage on the route it took before the premise
    decided sum P_m = I, kept as the reference for its refusals: sum P_m = I
    read cell by cell first, then the rank count with the idempotence of
    each P_m, then the premise C^-1 C = I, all on dense matrices (the dense
    elimination kernel of tests/helpers.py and Fraction products). A family
    it accepts goes on through the engine's own first stage."""
    point, values = _resolve_theta(families, theta)
    n, k = len(values), len(families)
    parts = _split(graded._compose_families(families, range(n, n + k)), n, k)
    cells = _jacobian_coefficients(parts, values)
    keys = sorted({idx for row in cells for c in row for idx, x in c.items() if x})
    grid = {idx: tuple(tuple(Fraction(c.get(idx, 0)) for c in row) for row in cells)
            for idx in keys}
    if any(sum(c.values()) != (i == j) for i, row in enumerate(cells) for j, c in enumerate(row)):
        stacked = [row for q in grid.values() for row in integer_rows(q)]
        if len(dense_eliminate(stacked)[0]) < n:
            raise DegenerateActionError(
                "some direction is annihilated by every Taylor projection"
            )
        raise NotGradedActionError("Taylor projections do not sum to the identity")
    factors = {idx: dense_eliminate(integer_rows(q)) for idx, q in grid.items()}
    if sum(len(pivots) for pivots, _, _ in factors.values()) != n:
        for idx, q in grid.items():
            if mat_mul(q, q) != q:
                name = "_".join(map(str, idx))
                raise NotGradedActionError(f"Taylor coefficient Q_{name} is not a projection")
        raise EngineDefectError("idempotent Taylor projections have ranks above the chart")
    c = mat_from_cols([[row[j] for row in grid[idx]]
                       for idx, (pivots, _, _) in factors.items() for j in pivots])
    cinv = tuple(tuple(Fraction(x, d) for x in row)
                 for _, rows, d in factors.values() for row in rows)
    if mat_mul(cinv, c) != identity(n):
        raise EngineDefectError("the Picard pass needs cinv * C = I, which fails")
    return first_stage(families, theta)


first_stage = action._first_stage


def refused_families(rng):
    """Families that the linear stage refuses, each way, and some it accepts:
    the example files' and test_action's families, linear families whose
    Taylor projections are moved off I, miss the image of one of them, have
    a non-idempotent summand or overlap, and seeded dressed families with one entry bumped so that a
    law breaks."""
    families = []
    gap = parse((Path(__file__).parent / "data" / "monoid_gap.gradua").read_text())
    families += [(h, None) for h in gap.actions.values()]
    t, x, y = (ext_var(EXT, v) for v in ("t", "x", "y"))
    families.append((ActionFamily(M, "t", {"x": t * x, "y": WPolynomial.zero(EXT)}), None))
    families.append((ActionFamily(M, "t", {"x": t * x, "y": t * x + t * y}), None))
    for _ in range(30):
        n, degree = rng.randint(1, 4), rng.randint(1, 3)
        c, c_inv = random_basis_change(rng, n)
        qs = order_projections(c, c_inv, [rng.randint(0, degree) for _ in range(n)], degree)
        families.append((linear_family(qs), None))
        r, i, j = rng.randrange(degree + 1), rng.randrange(n), rng.randrange(n)
        moved = [[list(row) for row in q] for q in qs]
        moved[r][i][j] += Fraction(rng.choice([-1, 1]), rng.choice([1, 2, 3]))
        families.append((linear_family([tuple(map(tuple, q)) for q in moved]), None))
        m = tuple(tuple(rng.choice([0, 0, 1, -1, Fraction(1, 2)]) for _ in range(n))
                  for _ in range(n))
        rest = tuple(tuple((a == b) - v for b, v in enumerate(row)) for a, row in enumerate(m))
        families.append((linear_family([rest, m]), None))
        p = next(q for q in qs if any(map(any, q)))
        families.append((linear_family([zeros(n, n) if q == p else q for q in qs]), None))
        twice = tuple(tuple((a == b) - 2 * v for b, v in enumerate(row))
                      for a, row in enumerate(p))
        families.append((linear_family([twice, p, p]), None))
    for _ in range(12):
        h, theta = dressed_family(rng)
        v = rng.choice(h.chart.names)
        z = ext_var(h.extended_chart, rng.choice(h.chart.names))
        families.append((h, theta))
        families.append((bumped(h, v, z, random_coefficient(rng)), theta))
    return families


def test_the_premise_route_refuses_as_the_sum_first_route():
    """Deciding sum P_m = I by the premise C^-1 C = I, with the cell sums run
    only when the rank count or the premise fails, gives every call the
    outcome of the sum-first route: the same error type and message, or
    success. Checked on the first stage, taylor_projections, homogenize
    (with its explanations) and the joint certificate of seeded pairs and
    triples, with each route's first stage in turn."""
    rng = random.Random(39)
    calls = [(taylor_projections, (h, theta)) for h, theta in refused_families(rng)]
    calls += [(homogenize, args) for _, args in calls]
    calls += [(_joint_certificate, (families, None, "L_h")) for families in joint_cases()]

    def refusal(fn, *args):
        try:
            fn(*args)
        except GraduaError as exc:
            return type(exc), str(exc)
        return None

    seen = {}
    for fn, args in calls:
        with pytest.MonkeyPatch.context() as patched:
            patched.setattr(action, "_first_stage", sum_first_stage)
            expected = refusal(fn, *args)
        assert refusal(fn, *args) == expected, (fn.__name__, args)
        kind = expected[1] if expected else "accepted"
        kind = re.sub(r"Q_[\d_]+", "Q_m", re.sub(r"'\w+'|\S+\^\d+", "_", kind))
        seen[kind] = seen.get(kind, 0) + 1
    for message in (
        "accepted",
        "some direction is annihilated by every Taylor projection",
        "Taylor projections do not sum to the identity",
        "Taylor coefficient Q_m is not a projection",
        "the family breaks the monoid law",
    ):
        assert seen.get(message, 0) >= 3, seen


# --- the term-dict linear combinations ------------------------------------------


def reference_nonlinear(phi, theta, cinv):
    """N = phi - C^-1 (x - theta), built as p - z * a, one term at a time."""
    chart = phi.source
    shift = [ext_var(chart, v) - theta[v] for v in chart.names]
    nonlinear = []
    for v, row in zip(phi.target.names, cinv):
        p = phi.pullbacks[v]
        for a, z in zip(row, shift):
            if a:
                p = p - z * a
        nonlinear.append(p)
    return nonlinear


def reference_picard(phi, theta, basis, nonlinear, limit):
    """The Picard pass with its iterates built as acc + r * a and its
    truncation by truncated."""
    chart, new_chart = phi.source, phi.target
    names = chart.names
    rhs = ys = [ext_var(new_chart, v) for v in new_chart.names]
    guesses = []
    for k in range(1, limit + 1):
        within = True
        if guesses:
            sigma = dict(zip(names, guesses))
            rhs = []
            for y, n in zip(ys, nonlinear):
                if not n.terms:
                    rhs.append(y)
                    continue
                pushed = n.substitute(sigma, into=new_chart)
                kept = truncated(pushed, k)
                within = within and len(kept.terms) == len(pushed.terms)
                rhs.append(y - kept)
        updated = []
        for v, row in zip(names, basis):
            acc = WPolynomial.constant(new_chart, theta[v])
            for a, r in zip(row, rhs):
                if a:
                    acc = acc + r * a
            updated.append(acc)
        settled = updated == guesses
        guesses = updated
        if settled and within:
            return PolyMap(new_chart, chart, dict(zip(names, guesses))), True
    candidate = PolyMap(new_chart, chart, dict(zip(names, guesses)))
    return candidate, not settled and candidate.then(phi).is_identity()


def reference_certificate(families, theta, name):
    """_joint_certificate with object-level combinations, kept as the oracle.

    The joint projections and their checks come from
    reference_joint_projections, the basis from their first-pivot columns
    and C^-1 from linalg.inverse. Each row is coeff + entry * c over the
    whole extended chart, then
    coefficients_in once per parameter and restrict_chart; each coordinate
    is checked against lift * t ** r; the inverse comes from
    reference_nonlinear and reference_picard. Returns the chart, phi, psi,
    the orders and theta.
    """
    joint = reference_joint_projections(families, theta)
    chart = families[0].chart
    point = _resolve_theta(families, theta)[0]
    n_vars = len(chart)
    basis, orders = reference_basis(joint)
    basis = mat_from_cols(basis)
    cinv = inverse(basis)

    params = [h.param for h in families]
    ext = chart.extend(tuple((t, 0) for t in reversed(params)))
    composite = reference_composite(families, ext)
    shifted = [
        p - WPolynomial.constant(ext, point[v]) for v, p in zip(chart.names, composite)
    ]
    degree = max(
        (sum(e for i, e in mono if i >= n_vars) for p in composite for mono in p.terms),
        default=0,
    )

    counter = {}
    new_vars, pullbacks = [], []
    for row, idx in zip(cinv, orders):
        coeff = WPolynomial.zero(ext)
        for c, entry in zip(row, shifted):
            if c:
                coeff = coeff + entry * c
        for t, r in zip(params, idx):
            coeff = coeff.coefficients_in(t).get(r, WPolynomial.zero(ext))
        counter[idx] = counter.get(idx, 0) + 1
        new_vars.append((f"y{'_'.join(map(str, idx))}_{counter[idx]}", sum(idx)))
        pullbacks.append(coeff.restrict_chart(chart))
    new_chart = GradedChart(name, tuple(new_vars))
    phi = PolyMap(chart, new_chart, {v: p for (v, _), p in zip(new_vars, pullbacks)})

    for i, h in enumerate(families):
        hext = h.extended_chart
        tvar = ext_var(hext, h.param)
        for (v, _), idx in zip(new_vars, orders):
            p = phi.pullbacks[v]
            if p.substitute(h.entries, into=hext) != p.lift(hext) * tvar ** idx[i]:
                raise NotGradedActionError(
                    f"coordinate {v!r} does not scale by {h.param}^{idx[i]}"
                )

    nonlinear = reference_nonlinear(phi, point, cinv)
    positive = all(new_chart.weights)
    if positive:
        limit = degree
    else:
        limit = max(p.total_degree() for p in pullbacks) ** (n_vars - 1)
    psi, exact = reference_picard(phi, point, basis, nonlinear, max(limit, 1))
    if not exact:
        if positive:
            raise EngineDefectError(
                f"the map has no inverse of total degree <= {limit}"
            )
        raise NotGradedActionError(
            f"no polynomial inverse of total degree <= {limit} exists "
            "(the Bass-Connell-Wright bound)"
        )
    return new_chart, phi, psi, tuple(orders), point


def certificate_fields(families, theta, name):
    cert = _joint_certificate(families, theta, name)
    return (
        cert.homogenized_chart, cert.homogenizer, cert.inverse_homogenizer, cert.orders,
        cert.theta,
    )


def in_stored_form(pmap):
    return all(
        (type(c) is int) if c.denominator == 1 else type(c) is Fraction
        for p in pmap.pullbacks.values()
        for c in p.terms.values()
    )


def broken_inverse_family():
    """The graded bundle of test_weight0_coordinates_with_no_inverse_stop_at_the_bcw_bound."""
    chart = GradedChart("G", (("a", 0), ("b", 1)))
    ext = chart.extend((("t", 0),))
    a, b, t = (ext_var(ext, v) for v in ext.names)
    s = a - b**2
    u = t * (b - (a - b**2) ** 2)
    return ActionFamily(chart, "t", {"a": s + (u + s**2) ** 2, "b": u + s**2})


def test_term_dict_certificate_agrees_with_the_object_level_route(dressed):
    rng = random.Random(43)
    cases = []
    for family, theta in dressed:
        v, u = rng.choice(family.chart.names), rng.choice(family.chart.names)
        z = ext_var(family.extended_chart, u) - theta[u]
        c = random_coefficient(rng)
        cases.append(("one", [family], theta))
        # a linear bump moves the projections, a second-order one does not
        cases.append(("bumped", [bumped(family, v, z, c)], theta))
        cases.append(("bumped", [bumped(family, v, z**2, c)], theta))
    for family, theta in dressed[:10]:
        cases.append(("k = 2", [family, family.with_param("u")], theta))
        cases.append(("k = 3", [family, family.with_param("u"), family.with_param("v")], theta))
        t = ext_var(family.extended_chart, "t")
        v = family.chart.names[0]
        z = ext_var(family.extended_chart, v) - theta[v]
        # a t-bump moves theta under the second family, so the chain rule
        # fails and the joint projections with it; a second-order bump keeps
        # them and fails the scaling check
        moved = bumped(family, v, t, 1).with_param("u")
        cases.append(("k = 2 moved", [family, moved], theta))
        broken = bumped(family, v, z**2, 1).with_param("u")
        cases.append(("k = 2 broken", [family, broken], theta))
    for families in joint_cases()[:40]:
        cases.append((f"k = {len(families)} linear", families, None))
    cases.append(("no inverse", [broken_inverse_family()], None))
    cases.append(("settled too early", [cubic_shear_family()], None))

    seen = {}
    for kind, families, theta in cases:
        got = outcome(certificate_fields, families, theta, "W_h")
        assert got == outcome(reference_certificate, families, theta, "W_h"), kind
        if isinstance(got[0], type):
            stages = ("does not scale", "inverse", "projection")
            kind += ": " + next(stage for stage in stages if stage in got[1])
        else:
            assert in_stored_form(got[1]) and in_stored_form(got[2])
        seen[kind] = seen.get(kind, 0) + 1
    assert seen["one"] == 40 and seen["k = 2"] == seen["k = 3"] == 10, seen
    assert seen["bumped: projection"] >= 30 and seen["bumped: does not scale"] >= 30, seen
    assert seen["k = 2 broken: does not scale"] >= 5, seen
    assert seen["k = 2 moved: projection"] >= 5, seen
    assert seen["k = 2 linear: projection"] >= 5 and seen["k = 3 linear: projection"] >= 5, seen
    assert seen["k = 2 linear"] >= 5 and seen["k = 3 linear"] >= 5, seen
    assert seen["no inverse: inverse"] == seen["settled too early"] == 1, seen


def test_families_that_all_use_t_homogenize_as_the_renamed_ones(dressed):
    """A parameter is a slot, not a name: k = 2 and k = 3 families that all
    use t give the record of the same families with parameters t, u and v,
    or the same error: the explanation's check_commuting names only the
    variables that fail."""

    def joint(families, theta):
        return outcome(_homogenize_joint, families, theta, "W_bh")

    cases = []
    for family, theta in dressed[:10]:
        v = family.chart.names[0]
        z = ext_var(family.extended_chart, v) - theta[v]
        cases += [([family] * k, theta) for k in (2, 3)]
        # a bumped copy breaks a law and does not commute with the family
        cases.append(([family, bumped(family, v, z**2, 1)], theta))
    cases += [(families, None) for families in joint_cases()[:40]]
    seen = {}
    for families, theta in cases:
        shared = [h.with_param("t") for h in families]
        got = joint(shared, theta)
        assert got == joint([h.with_param(p) for h, p in zip(families, "tuv")], theta)
        kind = f"k = {len(families)}" + (": " + got[0].__name__ if isinstance(got, tuple) else "")
        seen[kind] = seen.get(kind, 0) + 1
    assert seen["k = 2"] >= 10 and seen["k = 3"] >= 10, seen
    assert seen.get("k = 2: NotDoubleStructureError", 0) >= 10, seen
    assert seen.get("k = 3: NotDoubleStructureError", 0) >= 3, seen


def test_term_dict_inverse_agrees_with_the_object_level_route(dressed, monkeypatch):
    """Every limit's iterate and verdict equal those of the object-level
    reference and of the pass that settled on T_k, both run on N =
    phi - C^-1 (x - theta) with the C^-1 that the premise check returned."""
    rng = random.Random(47)
    chained = [chained_family(rng, i % 3) for i in range(12)]
    rounds = 0
    for family, theta in dressed[:20] + chained + [(cubic_shear_family(), None)]:
        phi, point, basis, cinv, limit = pass_inputs(monkeypatch, family, theta)
        nonlinear = reference_nonlinear(phi, point, written_out(cinv))
        dense = written_out(basis)
        for k in range(1, limit + 1):
            got = action._picard_inverse(phi, point, basis, k)
            assert got == reference_picard(phi, point, dense, nonlinear, k)
            assert got == settle_picard(phi, point, dense, nonlinear, k)
            rounds += 1
            if got[1]:
                break
    assert rounds >= 60, rounds


nonzero_coefficient = st.one_of(
    st.integers(-4, 4), st.fractions(-2, 2, max_denominator=4)
).filter(bool)
TERMS_CHART = GradedChart("T", (("x", 1), ("y", 2)))
small_terms = st.dictionaries(
    st.sampled_from([(), ((0, 1),), ((1, 1),), ((0, 2),), ((0, 1), (1, 1))]),
    nonzero_coefficient,
    max_size=4,
)


@st.composite
def combinations_to_sum(draw):
    """Pairs (c, terms); some repeat an earlier pair with -c, so that their
    cells cancel to zero, and some pair c = 1/d with terms of d * a."""
    coefficient = st.integers(-3, 3) | nonzero_coefficient  # 0 included
    pairs = draw(st.lists(st.tuples(coefficient, small_terms), max_size=5))
    for c, terms in draw(st.lists(st.sampled_from(pairs), max_size=2)) if pairs else ():
        pairs.append((-c, terms))
    d = draw(st.integers(2, 4))
    integral = {m: a * d for m, a in draw(small_terms).items()}
    pairs.append((Fraction(1, d), integral))
    return draw(st.permutations(pairs))


@given(combinations_to_sum(), small_terms)
@settings(max_examples=150, deadline=None)
def test_terms_combine_is_a_sum_of_scaled_polynomials(pairs, start):
    expected = WPolynomial(TERMS_CHART, start)
    for c, terms in pairs:
        expected = expected + WPolynomial(TERMS_CHART, terms).scale(c)
    out = dict(start)
    assert _terms_combine(pairs, out) is out
    assert all(out.values())  # cells that cancel are dropped
    got = WPolynomial(TERMS_CHART, out)
    assert got == expected and got.terms == expected.terms
    assert all(
        (type(c) is int) if c.denominator == 1 else type(c) is Fraction
        for c in got.terms.values()
    )
    assert WPolynomial(TERMS_CHART, _terms_combine(pairs)) == expected - WPolynomial(
        TERMS_CHART, start
    )


def test_terms_combine_drops_a_full_cancellation():
    x = {((0, 1),): Fraction(1, 2), (): 3}
    assert _terms_combine([(2, x), (Fraction(-4, 2), x)]) == {}
    assert _terms_combine([(0, x)]) == {}
    assert _terms_combine([(Fraction(2), x)]) == {((0, 1),): 1, (): 6}


# --- the Picard pass on T_k, and the checks on integers ---------------------------


def previous_picard(phi, theta, basis, nonlinear, limit):
    """The pass before it settled on T_k, kept as the reference: every round
    substitutes x_(k-1) into each row of N with WPolynomial.substitute, builds
    every iterate x_k = theta + C (y - trunc_k F) as WPolynomials and settles
    on x_k = x_(k-1)."""
    chart, new_chart = phi.source, phi.target
    names = chart.names
    rhs = ys = [{((j, 1),): 1} for j in range(len(new_chart))]
    start = [{(): _coefficient(theta[v])} if theta[v] else {} for v in names]
    guesses = []
    for k in range(1, limit + 1):
        within = True
        if guesses:
            sigma = dict(zip(names, guesses))
            rhs = []
            for y, n in zip(ys, nonlinear):
                if not n.terms:
                    rhs.append(y)
                    continue
                pushed = n.substitute(sigma, into=new_chart).terms
                kept = {m: c for m, c in pushed.items() if _mono_total_degree(m) <= k}
                within = within and len(kept) == len(pushed)
                rhs.append(_terms_combine(((-1, kept),), dict(y)))
        updated = [
            WPolynomial(new_chart, _terms_combine(zip(row, rhs), dict(t)))
            for t, row in zip(start, basis)
        ]
        settled = updated == guesses
        guesses = updated
        if settled and within:
            return PolyMap(new_chart, chart, dict(zip(names, guesses))), True
    candidate = PolyMap(new_chart, chart, dict(zip(names, guesses)))
    return candidate, not settled and candidate.then(phi).is_identity()


def settle_picard(phi, theta, basis, nonlinear, limit):
    """The pass before it iterated on its residual, kept as the reference:
    rounds k = 1 .. limit of x_k = base - C T_k, with base = theta + C y and
    T_k = trunc_k F, F = N(x_(k-1)) by one pass of the substitution kernel.
    A round that settled (T_k = T_(k-1)) was certified when F had no term
    above total degree k; a pass that reached the limit unsettled checked
    the composite candidate.then(phi)."""
    chart, new_chart = phi.source, phi.target
    names = chart.names
    base = []
    for v, row in zip(names, basis):
        terms = {((j, 1),): a for j, a in enumerate(row) if a}
        if theta[v]:
            terms[()] = _coefficient(theta[v])
        base.append(terms)
    columns = [[(j, -a) for j, a in enumerate(row) if a] for row in basis]
    rows = [(j, n.terms) for j, n in enumerate(nonlinear) if n.terms]
    iterate, trunc, settled = base, {}, False
    for k in range(2, limit + 1):
        pushed = _terms_substitute([n for _, n in rows], iterate)
        within = True
        previous, trunc = trunc, {}
        for (j, _), f in zip(rows, pushed):
            kept = {m: c for m, c in f.items() if _mono_total_degree(m) <= k}
            within = within and len(kept) == len(f)
            if kept:
                trunc[j] = kept
        settled = trunc == previous
        if settled and within:
            break
        if not settled:
            iterate = [
                _terms_combine(((a, trunc[j]) for j, a in col if j in trunc), dict(b))
                for b, col in zip(base, columns)
            ]
    candidate = PolyMap(
        new_chart, chart, {v: WPolynomial(new_chart, x) for v, x in zip(names, iterate)}
    )
    if settled:
        return candidate, within
    return candidate, candidate.then(phi).is_identity()


def pass_inputs(monkeypatch, family, theta):
    """phi, theta, C, C^-1 and the limit of the first Picard pass that
    homogenize(family, theta) runs, whether or not it succeeds; C^-1 is
    what the premise check returned."""
    seen = []
    picard = graded._picard_inverse

    def recording(*inputs):
        seen.append(inputs)
        return picard(*inputs)

    with monkeypatch.context() as patched:
        patched.setattr(graded, "_picard_inverse", recording)
        _, (_, cinv) = checked_matrices(monkeypatch, homogenize, family, theta)
    phi, point, basis, limit = seen[0]
    return phi, point, basis, cinv, limit


def test_picard_on_t_k_agrees_with_the_previous_pass_at_every_limit(dressed, monkeypatch):
    """Every limit k gives the iterate and verdict of the pass that built
    each x_k and of the pass that settled on T_k, both run on N = phi -
    C^-1 (x - theta). A pass certified at round s returns there for every
    limit from s on, so the rounds are run up to s and then at the case's
    own limit; a pass that is never certified is run at every limit."""
    rng = random.Random(53)
    chained = [chained_family(rng, i % 3) for i in range(12)]
    cases = dressed + chained + [(cubic_shear_family(), None), (broken_inverse_family(), None)]
    seen = {"certified": 0, "settled above k": 0, "by the composite": 0, "never": 0}
    for family, theta in cases:
        phi, point, basis, cinv, limit = pass_inputs(monkeypatch, family, theta)
        nonlinear = reference_nonlinear(phi, point, written_out(cinv))
        dense = written_out(basis)
        previous = None
        for k in range(1, limit + 1):
            got = graded._picard_inverse(phi, point, basis, k)
            assert got == previous_picard(phi, point, dense, nonlinear, k)
            assert got == settle_picard(phi, point, dense, nonlinear, k)
            if got[0] == previous and not got[1]:
                seen["settled above k"] += 1
            elif got[1] and k == 1:
                seen["by the composite"] += 1
            if got[1]:
                seen["certified"] += 1
                break
            previous = got[0]
        else:
            seen["never"] += 1
        got = graded._picard_inverse(phi, point, basis, limit)
        assert got == previous_picard(phi, point, dense, nonlinear, limit)
        assert got == settle_picard(phi, point, dense, nonlinear, limit)
    assert seen["certified"] == len(cases) - 1 and seen["never"] == 1, seen
    assert seen["settled above k"] >= 1 and seen["by the composite"] >= 1, seen


small_rational = st.one_of(st.integers(-3, 3), st.fractions(-2, 2, max_denominator=3))


@st.composite
def coordinate_changes(draw):
    """phi = A u(x - theta) on a chart whose coordinates all have weight 0,
    with the C and C^-1 of the premise check and the Bass-Connell-Wright
    limit deg(phi)^(n-1), the one the kernel uses on such a chart.

    With z = x - theta, u_i = z_i + g_i, and g_i holds terms of degree 2 ..
    d and linear terms in z_0 .. z_(i-1). In a triangular map g_i has only
    z_0 .. z_(i-1), and phi has a polynomial inverse. Otherwise g_i may
    hold z_i too, and g_0 holds c z_0^2 with c != 0: the Jacobian of u is
    lower triangular, its determinant prod_i (1 + dg_i/dz_i) has the
    non-constant factor 1 + 2c z_0 + ..., and phi has no polynomial
    inverse. Those maps keep d^(n-1) <= 8.
    """
    n = draw(st.integers(1, 3))
    triangular = draw(st.booleans())
    d = draw(st.integers(2, 3 if triangular or n < 3 else 2))
    chart = GradedChart("X", tuple((f"x{i}", 0) for i in range(n)))
    image = GradedChart("Y", tuple((f"y{i}", 0) for i in range(n)))
    theta = {v: draw(small_rational) for v in chart.names}
    z = [ext_var(chart, v) - theta[v] for v in chart.names]
    jacobian = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]  # of u at 0
    us = []
    for i in range(n):
        u = z[i]
        if not triangular and i == 0:
            u = u + z[0] ** 2 * draw(small_rational.filter(bool))
        among = range(i if triangular else i + 1)
        monos = st.lists(st.sampled_from(among), min_size=1, max_size=d)
        for mono in draw(st.lists(monos, max_size=3)) if among else ():
            mono.sort()
            if mono == [i] or i == 0 and mono == [0, 0]:  # u_i's own z_i, and c z_0^2
                continue
            c = draw(small_rational.filter(bool))
            if len(mono) == 1:
                jacobian[i][mono[0]] += c
            term = WPolynomial.constant(chart, c)
            for j in mono:
                term = term * z[j]
            u = u + term
        us.append(u)
    a = [[Fraction(draw(small_rational)) for _ in range(n)] for _ in range(n)]
    try:
        inverse(tuple(map(tuple, a)))
    except SingularMatrixError:
        assume(False)
    phi = PolyMap(chart, image, {
        y: sum((u * c for c, u in zip(row, us) if c), WPolynomial.zero(chart))
        for y, row in zip(image.names, a)
    })
    derivative = mat_mul(tuple(map(tuple, a)), tuple(map(tuple, jacobian)))
    c, c_inv = graded.linalg._scaled(inverse(derivative)), graded.linalg._scaled(derivative)
    assert graded.linalg._is_inverse(c_inv, c)
    basis, cinv = graded.linalg._stored(c), graded.linalg._stored(c_inv)
    limit = max(p.total_degree() for p in phi.pullbacks.values()) ** (n - 1)
    return phi, theta, basis, cinv, limit, triangular


@given(coordinate_changes())
@settings(max_examples=60, deadline=None)
def test_residual_pass_agrees_with_the_settled_pass_on_drawn_maps(change):
    """On drawn coordinate changes, shifted theta and maps with no inverse
    included, the pass gives the iterate and verdict of the pass that
    settled on T_k at every limit up to the Bass-Connell-Wright bound, and
    certifies a triangular map by that bound."""
    phi, theta, basis, cinv, limit, triangular = change
    nonlinear = reference_nonlinear(phi, theta, written_out(cinv))
    for k in range(1, limit + 1):
        got = graded._picard_inverse(phi, theta, basis, k)
        assert got == settle_picard(phi, theta, written_out(basis), nonlinear, k)
    assert got[1] == triangular


def rational_scaling(families, coordinates, orders):
    """The scaling check on Fractions, kept as the reference: h_t^* phi_i by
    WPolynomial.substitute of the family's entries, against the terms of t^r
    phi_i. It lets a zero coordinate pass, as 0 = t^r 0."""
    chart = families[0].chart
    n_vars = len(chart)
    for i, h in enumerate(families):
        for (v, terms), idx in zip(coordinates, orders):
            p = WPolynomial(chart, terms)
            r = idx[i]
            scaled = {m + ((n_vars, r),): c for m, c in p.terms.items()} if r else p.terms
            if p.substitute(h.entries, into=h.extended_chart).terms != scaled:
                raise NotGradedActionError(
                    f"coordinate {v!r} does not scale by {h.param}^{idx[i]}"
                )


def integer_fixes(h, point):
    """h_0(point) = point decided on integers, the route that exact
    evaluation replaced, kept as the reference.

    Write the pullback of v under h_0 (ActionFamily.at(0)) as sum_m C_m
    x^m / E with integer C_m, and point = Theta / q with Theta integral.
    With K at least 1 and at least every |m|, q^K E h_0(point)_v = sum_m C_m
    Theta^m q^(K - |m|) and q^K E point_v = E Theta_v q^(K - 1), both
    integers. As q^K E is not 0, h_0(point)_v = point_v exactly when they
    are equal.
    """
    names = h.chart.names
    big, q = _numerators(point)
    values = [big[v] for v in names]
    zero_map = h.at(0).pullbacks
    for v, target in zip(names, values):
        terms, e = _numerators(zero_map[v].terms)
        k = max([1, *map(_mono_total_degree, terms)])
        total = 0
        for m, c in terms.items():
            for i, f in m:
                c *= values[i] ** f
            if c:
                total += c * q ** (k - _mono_total_degree(m))
        if total != e * target * q ** (k - 1):
            return False
    return True


def test_integer_checks_agree_with_the_rational_ones(dressed, monkeypatch):
    """The scaling check, decided on integers by the scaling kernel, gives
    the rational verdicts, and h_0(theta) = theta, decided by exact
    summation in _resolve_theta, gives the verdicts of the integer route
    it replaced: on the certificate's own coordinates and theta, on a
    coordinate with one coefficient moved, on a coordinate with an added
    term, and on theta moved along one axis. A coordinate with no term is
    the one difference: the integer scaling check refuses it by name."""
    rng = random.Random(59)
    calls = [(family, theta) for family, theta in dressed]
    calls += [((family, family.with_param("u")), theta) for family, theta in dressed[:10]]
    calls += [(tuple(families), None) for families in joint_cases()[:20]]
    seen = {"scales": 0, "refused": 0, "fixed": 0, "moved": 0}
    checked = []
    scaling = action._check_scaling

    def recording(families, coordinates, orders):
        checked.append((families, coordinates, orders))
        return scaling(families, coordinates, orders)

    monkeypatch.setattr(action, "_check_scaling", recording)
    for families, theta in calls:
        if isinstance(families, ActionFamily):
            families = (families,)
        checked.clear()
        outcome(_joint_certificate, families, theta, "I_h")
        if not checked:
            continue
        args = checked[0]
        got = outcome(scaling, *args)
        assert got == outcome(rational_scaling, *args)
        seen["scales" if got is None else "refused"] += 1

        families, coordinates, orders = args
        i = rng.randrange(len(coordinates))
        v, terms = coordinates[i]
        for changed in (
            {**terms, next(iter(terms)): terms[next(iter(terms))] + 1},
            {**terms, ((rng.randrange(len(families[0].chart)), 3),): 1},
        ):
            mutated = [*coordinates[:i], (v, changed), *coordinates[i + 1:]]
            got = outcome(scaling, families, mutated, orders)
            assert got == outcome(rational_scaling, families, mutated, orders)
            seen["scales" if got is None else "refused"] += 1
        emptied = [*coordinates[:i], (v, {}), *coordinates[i + 1:]]
        assert outcome(rational_scaling, families, emptied, orders) is None
        with pytest.raises(EngineDefectError, match=f"^homogenizer coordinate '{v}' is identically zero$"):
            scaling(families, emptied, orders)

        point = _resolve_theta(families, theta)[0]
        v = rng.choice(families[0].chart.names)
        moved = {**point, v: point[v] + rng.choice((1, Fraction(1, 3), -2))}
        refused = (DomainError, "theta is not fixed by the parameter-0 map")
        for h in families:
            for at in (point, moved):
                fixed = outcome(_resolve_theta, (h,), at) != refused
                assert fixed == integer_fixes(h, at)
                seen["fixed" if fixed else "moved"] += 1
    assert seen["scales"] >= 60 and seen["refused"] >= 80, seen
    assert seen["fixed"] >= 80 and seen["moved"] >= 50, seen
