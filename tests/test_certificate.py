"""The homogenizer as the certificate of the laws and of commutation.

analyze and bihomogenize once checked the laws and the commutation of the
families before building coordinates. Now the checked coordinates certify
both, and the direct checks run only to explain a failure. The functions
below keep the old order as a reference; every report, result, error type
and error message must agree with it.

The certificate's own stages keep references too: the Jacobian built from
n^2 derivatives and substitutions (the term-level read must equal it), the
Fraction-matrix projection checks with idempotence per Q_r (the rank
verdict and its message must equal them), the two-sided inverse check (the
one-composite verdict must equal it, on correct and on wrong candidates,
and so must the degree verdict of every settled Picard round), and the
doubling search for the inverse (the bounded Picard pass must find the same
inverse), the n x n products of the families' projections for k >= 2
(the restricted blocks must give the same verdict, error, basis and joint
projections), and the object-level linear combinations of the homogenizer
rows, the scaling check, N and the Picard iterates (the term-dict
combinations must give the same coordinates, inverse, orders, verdicts and
errors).

The inverse kernel lives in gradua.graded, which runs the pass; action
calls the kernel. The helpers that intercept a stage patch it in the
module that calls it.
"""

import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gradua.action as action
import gradua.graded as graded
import gradua.linalg as linalg
from gradua.action import (
    AnalysisReport,
    _distinct_params,
    _jacobian_coefficients,
    _joint_basis,
    _joint_certificate,
    _joint_projections,
    _resolve_theta,
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
    DegenerateActionError,
    DomainError,
    EngineDefectError,
    GraduaError,
    InconsistentActionError,
    NotDoubleStructureError,
    NotGradedActionError,
    SingularMatrixError,
)
from gradua.graded import ActionFamily, PolyMap, invert_automorphism
from gradua.linalg import (
    column,
    independent_columns,
    inverse,
    mat_from_cols,
    mat_mul,
    rank,
    zeros,
)
from gradua.multigrade import bihomogenize, check_commuting
from gradua.wpoly import WPolynomial, _terms_combine

from helpers import (
    chained_family,
    conjugated_action,
    linear_family,
    order_projections,
    random_basis_change,
    random_chart,
    random_coefficient,
    random_graded_automorphism,
)


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


# --- the derivative at theta, read from the entries' terms ---------------------


def reference_jacobian_at(h, theta):
    """The route the term-level read replaced: n^2 derivatives, substituted."""
    ext = h.extended_chart
    consts = {v: WPolynomial.constant(ext, theta[v]) for v in h.chart.names}
    consts[h.param] = ext_var(ext, h.param)
    return [
        [h.entries[v].differentiate(u).substitute(consts, into=ext) for u in h.chart.names]
        for v in h.chart.names
    ]


def reference_coefficients(h, theta):
    return [
        [{k: q.constant_term() for k, q in p.coefficients_in(h.param).items()} for p in row]
        for row in reference_jacobian_at(h, theta)
    ]


def reference_taylor_projections(h, theta=None):
    """taylor_projections on the reference route, comparing Fraction matrices."""
    point = _resolve_theta(h, theta)
    n_vars = len(h.chart)
    coeffs = reference_coefficients(h, point)
    degree = max((k for row in coeffs for c in row for k in c), default=0)
    qs = tuple(
        tuple(tuple(c.get(r, Fraction(0)) for c in row) for row in coeffs)
        for r in range(degree + 1)
    )
    if any(
        sum(c.values()) != (i == j)
        for i, row in enumerate(coeffs)
        for j, c in enumerate(row)
    ):
        if rank(tuple(row for q in qs for row in q)) < n_vars:
            raise DegenerateActionError(
                "some direction is annihilated by every Taylor projection"
            )
        raise NotGradedActionError("Taylor projections do not sum to the identity")
    zero = zeros(n_vars, n_vars)
    for r, q in enumerate(qs):
        if q != zero and mat_mul(q, q) != q:
            raise NotGradedActionError(f"Taylor coefficient Q_{r} is not a projection")
    return qs


def term_level(h, theta):
    return [
        [{k: Fraction(c) for k, c in cell.items()} for cell in row]
        for row in _jacobian_coefficients(h, theta)
    ]


VALUES = [Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 2), Fraction(-3, 4)]
COEFFICIENTS = [1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3)]


@st.composite
def families_at_points(draw):
    """Arbitrary entries (exponents up to 3) on charts with weight-0 variables.

    theta takes repeated values, nonzero ones included, on every weight.
    Half of the cases add c * t^k * m * (z_a - z_b) to one entry with
    theta_a = theta_b, so the contributions of two terms to every cell
    (v, u) with u in m cancel at theta.
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
    return ActionFamily(chart, "t", entries), theta


@settings(max_examples=300, deadline=None)
@given(families_at_points())
def test_term_level_jacobian_matches_the_reference_route(case):
    family, theta = case
    got = term_level(family, theta)
    assert got == reference_coefficients(family, theta)
    assert all(c for row in got for cell in row for c in cell.values())


def test_cells_that_cancel_are_dropped():
    chart = GradedChart("C", (("x", 1), ("y", 0), ("z", 0)))
    ext = chart.extend((("t", 0),))
    x, y, z, t = (ext_var(ext, v) for v in ext.names)
    entry = t * x * y - t * x * z + t**2 * x**2 * y
    h = ActionFamily(chart, "t", {"x": entry, "y": y, "z": z})
    theta = {"x": Fraction(1), "y": Fraction(2), "z": Fraction(2)}
    # d/dx at theta: (2 - 2) t + 4 t^2, so the t^1 cell cancels and is dropped
    assert term_level(h, theta)[0] == [{2: 4}, {1: 1, 2: 1}, {1: -1}]
    assert term_level(h, theta) == reference_coefficients(h, theta)


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


# --- one composite of the inverse ----------------------------------------------


# the module whose code calls each stage of the inverse kernel: action calls
# the kernel, and the kernel, in graded, runs the pass
CALLER = {"_invert_coordinate_change": action, "_picard_inverse": graded}


def inversion_inputs(monkeypatch, build, *args, stage="_invert_coordinate_change"):
    """build(*args), and the arguments its first call of <stage> got."""
    seen = []
    invert = getattr(CALLER[stage], stage)

    def recording(*inputs):
        seen.append(inputs)
        return invert(*inputs)

    with monkeypatch.context() as patched:
        patched.setattr(CALLER[stage], stage, recording)
        result = build(*args)
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
            phi, psi = joint.homogenizer, joint.inverse
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
                        acc = acc + (nv - pushed.truncate_total_degree(bound)) * c
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
        phi, psi = hom.homogenizer, hom.inverse
        assert psi == reference_invert(phi, hom.theta)
        start = max(hom.chart.degree, total_degree(phi), 2)
        seen["outgrew the start bound"] += total_degree(psi) > start
        if not all(hom.chart.weights):
            seen["weight 0"] += 1
            continue
        seen["positive"] += 1
        d = max(max(p.coefficients_in(family.param)) for p in family.entries.values())
        assert all(p.weighted_degree() <= d for p in psi.pullbacks.values())
    assert seen["weight 0"] >= 20 and seen["positive"] >= 20, seen
    assert seen["outgrew the start bound"] >= 5, seen


def test_a_degree_bound_below_the_inverse_is_an_engine_defect(monkeypatch):
    rng = random.Random(41)
    while True:
        family, theta = chained_family(rng, 0)
        hom, inputs = inversion_inputs(monkeypatch, homogenize, family, theta)
        if total_degree(hom.inverse) >= 4:
            break
    phi, point, basis, cinv, degree = inputs
    exact = total_degree(hom.inverse)
    assert exact <= degree
    assert action._invert_coordinate_change(phi, point, basis, cinv, exact) == hom.inverse
    with pytest.raises(EngineDefectError, match=f"<= {exact - 1}$"):
        action._invert_coordinate_change(phi, point, basis, cinv, exact - 1)


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

    truncate = WPolynomial.truncate_total_degree

    def at_most_8(self, bound):
        assert bound <= 8, f"truncated at total degree {bound}"
        return truncate(self, bound)

    monkeypatch.setattr(WPolynomial, "truncate_total_degree", at_most_8)
    with pytest.raises(NotGradedActionError, match="total degree <= 8 "):
        homogenize(family)


# --- the kernel's checked premise ---------------------------------------------


def test_a_wrong_basis_inverse_is_caught_by_the_premise(monkeypatch):
    """With linalg.inverse off by one, C^-1 is wrong, yet every coordinate it
    builds still scales (a combination of t^r coefficients of a monoid action
    does). The Picard pass checks cinv * C = I and refuses every family; with
    that check bypassed, the settle certificate accepts wrong inverses."""
    families = []
    for seed in range(60):
        rng = random.Random(seed)
        families.append(conjugated_action(rng, random_chart(rng, min_vars=2))[0])
    invert = linalg.inverse

    def off_by_one(a):
        inv = invert(a)
        return ((inv[0][0] + 1,) + inv[0][1:],) + inv[1:]

    monkeypatch.setattr(graded.linalg, "inverse", off_by_one)
    for family in families:
        with pytest.raises(EngineDefectError, match="cinv \\* C = I"):
            homogenize(family)
    monkeypatch.setattr(graded.linalg, "is_inverse", lambda a, b: True)
    wrong = 0
    for family in families:
        got = outcome(homogenize, family)
        if not isinstance(got, tuple):
            assert not got.homogenizer.then(got.inverse).is_identity()
            wrong += 1
    assert wrong >= 30, wrong


# --- the settled Picard round as the certificate --------------------------------


def cubic_shear_family():
    """h_t = gamma^-1 o s_t o gamma on (x:1, y:2), with gamma = (x, y + x^3).

    The homogenizer is gamma and N = (0, x^3). Round 2 of the Picard pass
    settles at the identity while F = N(x_1) = (0, y1_1^3) still has a term
    above degree 2, so it is not the inverse.
    """
    chart = GradedChart("C", (("x", 1), ("y", 2)))
    ext = chart.extend((("t", 0),))
    x, y, t = (ext_var(ext, v) for v in ext.names)
    return ActionFamily(chart, "t", {"x": t * x, "y": t**2 * (y + x**3) - t**3 * x**3})


def test_a_settled_round_is_certified_by_its_degree(dressed, monkeypatch):
    rng = random.Random(37)
    chained = [chained_family(rng, i % 3) for i in range(36)]
    cases = dressed + chained + [(cubic_shear_family(), None)]
    seen = {"accepted": 0, "terms above k": 0}
    for family, theta in cases:
        _, inputs = inversion_inputs(
            monkeypatch, homogenize, family, theta, stage="_picard_inverse"
        )
        phi, point, basis, nonlinear, limit = inputs
        previous = None
        for k in range(1, limit + 1):
            iterate, verdict = action._picard_inverse(phi, point, basis, nonlinear, k)
            if iterate == previous:  # round k settled
                pushed = [n.substitute(previous.pullbacks, into=phi.target) for n in nonlinear]
                within = all(f.total_degree() <= k for f in pushed)
                assert verdict == within
                assert within == iterate.then(phi).is_identity()
                assert within == phi.then(iterate).is_identity()
                seen["accepted" if within else "terms above k"] += 1
                if within:
                    break
            previous = iterate
    assert seen["accepted"] >= 50 and seen["terms above k"] >= 3, seen


def test_a_settled_round_with_terms_above_its_degree_goes_on():
    hom = homogenize(cubic_shear_family())
    assert str(hom.homogenizer.pullbacks["y2_1"]) == "x^3 + y"
    y1, y2 = (ext_var(hom.chart, v) for v in ("y1_1", "y2_1"))
    # accepting the settled round 2 would give y = y2_1
    assert hom.inverse.pullbacks["y"] == y2 - y1**3
    assert hom.homogenizer.then(hom.inverse).is_identity()


# --- the k-family certificate by restriction ------------------------------------


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
    basis, orders = [], []
    for idx, p in joint.items():
        if any(map(any, p)):
            for j in independent_columns(p):
                basis.append(column(p, j))
                orders.append(idx)
    return joint, basis, orders


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


def test_restricted_blocks_agree_with_the_product_route():
    seen = {"pair": 0, "triple": 0, "pair raises": 0, "triple raises": 0}
    for families in joint_cases():
        per_family = [taylor_projections(h) for h in families]
        kind = "pair" if len(families) == 2 else "triple"
        try:
            joint, basis, orders = reference_joint_route(per_family)
        except NotDoubleStructureError as exc:
            expected = (type(exc), str(exc))
            assert outcome(_joint_basis, per_family) == expected
            assert outcome(_joint_certificate, families, None, "L_h") == expected
            seen[f"{kind} raises"] += 1
            continue
        assert _joint_basis(per_family) == (basis, orders)
        assert _joint_projections(per_family) == joint
        cert = _joint_certificate(families, None, "L_h")
        assert cert.orders == tuple(orders)
        assert cert.projections == joint
        assert cert.homogenizer.then(cert.inverse).is_identity()
        seen[kind] += 1
    assert min(seen.values()) >= 8, seen


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
        assert bihom.projections == joint
        assert "projections" not in repr(bihom)


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
    truncation by truncate_total_degree."""
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
                kept = pushed.truncate_total_degree(k)
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

    Each row is coeff + entry * c over the whole extended chart, then
    coefficients_in once per parameter and restrict_chart; each coordinate
    is checked against lift * t ** r; the inverse comes from
    reference_nonlinear and reference_picard. Returns the chart, phi, psi,
    the orders and theta.
    """
    per_family = [taylor_projections(h, theta) for h in families]
    chart = families[0].chart
    point = _resolve_theta(families[0], theta)
    n_vars = len(chart)
    basis_cols, orders = _joint_basis(per_family)
    if len(basis_cols) != n_vars:
        raise EngineDefectError("projection images do not fill the chart")
    basis = mat_from_cols(basis_cols)
    cinv = inverse(basis)

    params = [h.param for h in families]
    ext = chart.extend(tuple((t, 0) for t in reversed(params)))
    composite = [families[-1].entries[v].lift(ext) for v in chart.names]
    for h in reversed(families[:-1]):
        sigma = dict(zip(chart.names, composite))
        sigma[h.param] = ext_var(ext, h.param)
        composite = [h.entries[v].substitute(sigma, into=ext) for v in chart.names]
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
    return cert.chart, cert.homogenizer, cert.inverse, cert.orders, cert.theta


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
        broken = bumped(family, family.chart.names[0], t, 1).with_param("u")
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
            stages = ("commute", "does not scale", "inverse", "projection")
            kind += ": " + next(stage for stage in stages if stage in got[1])
        else:
            assert in_stored_form(got[1]) and in_stored_form(got[2])
        seen[kind] = seen.get(kind, 0) + 1
    assert seen["one"] == 40 and seen["k = 2"] == seen["k = 3"] == 10, seen
    assert seen["bumped: projection"] >= 30 and seen["bumped: does not scale"] >= 30, seen
    assert seen["k = 2 broken: does not scale"] >= 5, seen
    assert seen["k = 2 linear: commute"] >= 5 and seen["k = 3 linear: commute"] >= 5, seen
    assert seen["k = 2 linear"] >= 5 and seen["k = 3 linear"] >= 5, seen
    assert seen["no inverse: inverse"] == seen["settled too early"] == 1, seen


def test_term_dict_inverse_agrees_with_the_object_level_route(dressed, monkeypatch):
    """N, and every round's iterate and verdict, equal the reference's."""
    rng = random.Random(47)
    chained = [chained_family(rng, i % 3) for i in range(12)]
    rounds = 0
    for family, theta in dressed[:20] + chained + [(cubic_shear_family(), None)]:
        _, (phi, point, basis, cinv, _) = inversion_inputs(
            monkeypatch, homogenize, family, theta
        )
        _, (_, _, _, nonlinear, limit) = inversion_inputs(
            monkeypatch, homogenize, family, theta, stage="_picard_inverse"
        )
        assert list(nonlinear) == reference_nonlinear(phi, point, cinv)
        for k in range(1, limit + 1):
            got = action._picard_inverse(phi, point, basis, nonlinear, k)
            assert got == reference_picard(phi, point, basis, nonlinear, k)
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
