"""One-parameter family analysis: laws, projections, homogenization."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradua.action import (
    AnalysisReport,
    _homogenize_joint,
    analyze,
    base_projection,
    euler_field,
    extend_negative,
    homogenize,
    reconstruct_entries,
    taylor_projections,
    verify_laws,
)
from gradua.charts import GradedChart
from gradua.errors import (
    DegenerateActionError,
    DomainError,
    InconsistentActionError,
    NotGradedActionError,
)
from gradua.graded import ActionFamily, standard_action
from gradua.linalg import identity, mat_add, mat_mul, zeros
from gradua.multigrade import bihomogenize
from gradua.wpoly import WPolynomial

from helpers import (
    conjugated_action,
    conjugated_diagonal,
    linear_family,
    order_projections,
    random_basis_change,
    random_chart,
)

M = GradedChart("M", (("x", 1), ("y", 2)))
EXT = M.extend((("t", 0),))
X = WPolynomial.variable(EXT, "x")
Y = WPolynomial.variable(EXT, "y")
T = WPolynomial.variable(EXT, "t")

# the running example: x scales once, y mixes a weight-2 scaling with a
# t-dependent shear along x
H = ActionFamily(M, "t", {"x": T * X, "y": T**2 * Y + (T - T**2) * X})


def test_laws_hold_for_running_example():
    report = verify_laws(H)
    assert report.semigroup_ok
    assert report.monoid_ok
    assert report.witnesses == ()


def test_counterexample_is_semigroup_but_not_monoid():
    bad = ActionFamily(M, "t", {"x": T * X, "y": WPolynomial.zero(EXT)})
    report = verify_laws(bad)
    assert report.semigroup_ok
    assert not report.monoid_ok
    assert len(report.witnesses) == 1
    witness = report.witnesses[0]
    assert witness.law == "monoid"
    assert witness.variable == "y"
    assert str(witness.difference) == "y"


def test_semigroup_violation_reported():
    bad = ActionFamily(M, "t", {"x": T * X + T, "y": T**2 * Y})
    report = verify_laws(bad)
    assert not report.semigroup_ok
    assert any(w.law == "semigroup" for w in report.witnesses)


def test_base_projection_idempotent():
    p0 = base_projection(H)
    assert p0.then(p0) == p0
    assert str(p0.pullbacks["x"]) == "0"


def test_base_projection_demands_monoid():
    bad = ActionFamily(M, "t", {"x": T * X, "y": WPolynomial.zero(EXT)})
    with pytest.raises(InconsistentActionError):
        base_projection(bad)


def test_taylor_projections_frozen():
    q0, q1, q2 = taylor_projections(H)
    assert q0 == ((0, 0), (0, 0))
    assert q1 == ((1, 0), (1, 0))
    assert q2 == ((0, 0), (-1, 1))


def test_one_grid_has_three_readers():
    """taylor_projections, homogenize and analyze read one grid: for one
    family, the list Q_0 .. Q_n as a tuple, whose orders are 1-tuples."""
    rng = random.Random(12)
    for _ in range(8):
        family, _ = conjugated_action(rng, random_chart(rng))
        hom = homogenize(family)
        grid = taylor_projections(family)
        assert type(grid) is tuple
        assert grid == hom.projections == analyze(family).projections
        assert len(grid) == hom.chart.degree + 1
        assert sorted(hom.orders) == sorted((w,) for w in hom.chart.weights)


def test_degenerate_direction_detected():
    # the projection analysis does not check the laws, so it reaches a family
    # whose parameter-derivative kills the y-direction outright
    bad = ActionFamily(M, "t", {"x": T * X, "y": WPolynomial.zero(EXT)})
    with pytest.raises(DegenerateActionError):
        taylor_projections(bad)


def test_nonprojection_coefficients_detected():
    bad = ActionFamily(M, "t", {"x": T * X, "y": T * X + T * Y})
    with pytest.raises(NotGradedActionError):
        taylor_projections(bad)


def test_homogenize_frozen():
    hom = homogenize(H)
    assert hom.chart.variables == (("y1_1", 1), ("y2_1", 2))
    assert str(hom.homogenizer.pullbacks["y1_1"]) == "x"
    assert str(hom.homogenizer.pullbacks["y2_1"]) == "-y + x"
    assert str(hom.inverse.pullbacks["x"]) == "y1_1"
    assert str(hom.inverse.pullbacks["y"]) == "-y2_1 + y1_1"
    assert hom.orders == ((1,), (2,))
    assert hom.theta == {"x": Fraction(0), "y": Fraction(0)}


def test_detect_degree():
    assert homogenize(H).chart.degree == 2
    assert homogenize(standard_action(M)).chart.degree == 2


def test_reconstruction_matches_entries():
    hom = homogenize(H)
    rebuilt = reconstruct_entries(hom, H)
    assert rebuilt == dict(H.entries)


def test_extend_negative_gives_involution():
    full = extend_negative(H)
    fm = full.at(-1)
    assert str(fm.pullbacks["x"]) == "-x"
    assert str(fm.pullbacks["y"]) == "y - 2*x"
    assert fm.then(fm).is_identity()


def test_euler_field_of_standard_is_weight_field():
    std = standard_action(M)
    assert [(v, str(p)) for v, p in euler_field(std)] == [
        ("x", "x"),
        ("y", "2*y"),
    ]
    assert [(v, str(p)) for v, p in euler_field(H)] == [
        ("x", "x"),
        ("y", "2*y - x"),
    ]


def test_analyze_full_report():
    report = analyze(H)
    assert isinstance(report, AnalysisReport)
    assert report.monoid_ok
    assert report.degree == 2
    assert report.homogenized_chart.variables == (("y1_1", 1), ("y2_1", 2))
    assert report.base_projection is not None


def test_analyze_evaluates_the_parameter_0_map_once(monkeypatch):
    values = []
    at = ActionFamily.at

    def counted(h, value):
        values.append(value)
        return at(h, value)

    monkeypatch.setattr(ActionFamily, "at", counted)
    fresh = ActionFamily(M, "t", dict(H.entries))
    analyze(fresh)
    analyze(fresh)
    # the homogenizer certifies the monoid law, so h_1 is never evaluated
    assert values == [0]


def test_analyze_forms_no_derivative_no_product_and_no_composite(monkeypatch):
    from gradua import linalg
    from gradua.graded import PolyMap

    calls = {"differentiate": 0, "then": 0, "mat_mul": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    monkeypatch.setattr(
        WPolynomial, "differentiate", counting("differentiate", WPolynomial.differentiate)
    )
    monkeypatch.setattr(PolyMap, "then", counting("then", PolyMap.then))
    monkeypatch.setattr(linalg, "mat_mul", counting("mat_mul", linalg.mat_mul))
    fresh = ActionFamily(M, "t", dict(H.entries))
    assert analyze(fresh).degree == 2
    # the Jacobian is read from the terms, the projections are decided by
    # their ranks, and the inverse is certified by its settled Picard round
    assert calls == {"differentiate": 0, "then": 0, "mat_mul": 0}


def test_zero_joint_projections_are_not_scanned(monkeypatch):
    from gradua import linalg

    seen = []
    eliminate = linalg._eliminate

    def recorded(rows):
        seen.append([list(row) for row in rows])
        return eliminate(rows)

    monkeypatch.setattr(linalg, "_eliminate", recorded)
    # on M, without weight-0 coordinates, Q_0 is zero
    assert homogenize(H).chart.variables == (("y1_1", 1), ("y2_1", 2))
    assert len(seen) == 2
    rng = random.Random(5)
    c, c_inv = random_basis_change(rng, 4)
    first = order_projections(c, c_inv, [0, 1, 1, 2], 2)
    second = order_projections(c, c_inv, [1, 0, 2, 1], 2)
    h1, h2 = linear_family(first, "t"), linear_family(second, "u")
    seen.clear()
    bihom = bihomogenize(h1, h2)
    cells = [q for row in bihom.projections for q in row]
    nonzero = [q for q in cells if q != zeros(4, 4)]
    assert len(nonzero) == 4 < len(cells)
    # the joint projections are read off the composite's Jacobian, and the
    # rank check eliminates the integer numerators of each nonzero one once,
    # in lexicographic order; no family's own Q_r and no zero matrix is
    # scanned
    assert zeros(4, 4) not in first + second
    assert seen == [linalg._scaled(q)[0] for q in nonzero]
    assert [len(eliminate(rows)[0]) for rows in seen] == [1, 1, 1, 1]


def test_analyze_stops_at_broken_monoid():
    bad = ActionFamily(M, "t", {"x": T * X, "y": WPolynomial.zero(EXT)})
    report = analyze(bad)
    assert report.semigroup_ok
    assert not report.monoid_ok
    assert report.degree is None
    assert report.homogenizer is None


def test_theta_must_be_fixed():
    with pytest.raises(DomainError):
        homogenize(H, theta={"x": 1})


def test_shifted_fixed_point():
    # x -> t*(x - 1) + 1 fixes x = 1, not the origin
    chart = GradedChart("L", (("x", 1),))
    ext = chart.extend((("t", 0),))
    x = WPolynomial.variable(ext, "x")
    t = WPolynomial.variable(ext, "t")
    shifted = ActionFamily(chart, "t", {"x": t * (x - 1) + 1})
    with pytest.raises(DomainError):
        homogenize(shifted)  # origin is not fixed
    hom = homogenize(shifted, theta={"x": 1})
    assert str(hom.homogenizer.pullbacks["y1_1"]) == "x - 1"
    assert str(hom.inverse.pullbacks["x"]) == "y1_1 + 1"


def test_float_theta_rejected():
    chart = GradedChart("L", (("x", 1),))
    ext = chart.extend((("t", 0),))
    x = WPolynomial.variable(ext, "x")
    t = WPolynomial.variable(ext, "t")
    shifted = ActionFamily(chart, "t", {"x": t * (x - 1) + 1})
    # 1.0 is the fixed point, but not an exact rational
    with pytest.raises(DomainError):
        homogenize(shifted, theta={"x": 1.0})
    with pytest.raises(DomainError):
        taylor_projections(shifted, theta={"x": 1.0})


def test_weight_zero_directions_become_base_coordinates():
    chart = GradedChart("Bc", (("a", 0), ("y", 1)))
    ext = chart.extend((("t", 0),))
    a = WPolynomial.variable(ext, "a")
    y = WPolynomial.variable(ext, "y")
    t = WPolynomial.variable(ext, "t")
    family = ActionFamily(chart, "t", {"a": a, "y": t * y + (1 - t) * a**2})
    hom = homogenize(family)
    assert hom.chart.weights == (0, 1)
    assert str(hom.homogenizer.pullbacks["y0_1"]) == "a"
    # a^2 has weighted degree 0 here, so y leads the canonical order
    assert str(hom.homogenizer.pullbacks["y1_1"]) == "y - a^2"
    rebuilt = reconstruct_entries(hom, family)
    assert rebuilt == dict(family.entries)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_conjugated_actions_homogenize_back(seed):
    rng = random.Random(seed)
    chart = random_chart(rng)
    family, gamma = conjugated_action(rng, chart)
    hom = homogenize(family)
    assert sorted(hom.chart.weights) == sorted(chart.weights)
    assert reconstruct_entries(hom, family) == dict(family.entries)


# --- the projection check against the pairwise one ----------------------------


def pairwise_complementary(qs):
    """Reference check: sum Q_r = I and Q_r Q_s = delta_rs Q_r for every r, s."""
    n = len(qs[0])
    total = zeros(n, n)
    for q in qs:
        total = mat_add(total, q)
    return total == identity(n) and all(
        mat_mul(a, b) == (a if r == s else zeros(n, n))
        for r, a in enumerate(qs)
        for s, b in enumerate(qs)
    )


def identity_minus(m):
    return tuple(
        tuple((i == j) - x for j, x in enumerate(row)) for i, row in enumerate(m)
    )


def rejection(qs):
    """The error taylor_projections raises on linear_family(qs), or None."""
    try:
        taylor_projections(linear_family(qs))
    except (NotGradedActionError, DegenerateActionError) as exc:
        return type(exc), str(exc)
    return None


def first_nonprojection(qs):
    """The idempotence check the rank test replaced, run after the sum check:
    the first nonzero Q_r with Q_r Q_r != Q_r is reported."""
    n = len(qs[0])
    for r, q in enumerate(qs):
        if q != zeros(n, n) and mat_mul(q, q) != q:
            return NotGradedActionError, f"Taylor coefficient Q_{r} is not a projection"
    return None


def test_projection_check_agrees_with_pairwise_reference():
    rng = random.Random(20260818)
    seen = {
        "accepted": 0,
        "rejected": 0,
        "rejected by rank": 0,
        "zero Q_r": 0,
        "weight-0 block": 0,
    }

    def compare(qs):
        got = rejection(qs)
        verdict = got is None
        assert verdict == pairwise_complementary(qs)
        seen["accepted" if verdict else "rejected"] += 1
        n = len(qs[0])
        total = zeros(n, n)
        for q in qs:
            total = mat_add(total, q)
        if total == identity(n):
            # the rank verdict and its message match the per-Q_r check
            assert got == first_nonprojection(qs)
            seen["rejected by rank"] += not verdict

    for _ in range(40):
        n = rng.randint(1, 4)
        degree = rng.randint(1, 4)
        c, c_inv = random_basis_change(rng, n)
        orders = [rng.randint(0, degree) for _ in range(n)]
        qs = order_projections(c, c_inv, orders, degree)
        seen["zero Q_r"] += len(set(orders)) < degree + 1
        seen["weight-0 block"] += 0 in orders
        compare(qs)

        # a perturbed entry, alone and moved from one summand to another
        r, s = rng.sample(range(degree + 1), 2)
        i, j = rng.randrange(n), rng.randrange(n)
        delta = Fraction(rng.choice([-1, 1]), rng.choice([1, 2, 3]))
        bumped = [[list(row) for row in q] for q in qs]
        bumped[r][i][j] += delta
        compare([tuple(map(tuple, q)) for q in bumped])
        bumped[s][i][j] -= delta
        compare([tuple(map(tuple, q)) for q in bumped])

        # a non-idempotent summand M next to I - M (idempotent when the
        # diagonal happens to hold only 0 and 1)
        diagonal = [rng.choice([0, 1, 1, 2, -1, Fraction(1, 2)]) for _ in range(n)]
        m = conjugated_diagonal(c, c_inv, diagonal)
        compare([identity_minus(m), m])

        # overlapping idempotents P, P summing to I with I - 2P
        p = next(q for q in qs if q != zeros(n, n))
        twice = tuple(tuple(2 * x for x in row) for row in p)
        compare([identity_minus(twice), p, p])

    # every 2x2 split I = (I - M) + M with entries of M in {-1, 0, 1}
    for entries in range(81):
        digits = [entries // 3**k % 3 - 1 for k in range(4)]
        m = tuple(tuple(Fraction(d) for d in digits[k:k + 2]) for k in (0, 2))
        compare([identity_minus(m), m])

    assert all(seen.values()), seen


def test_joint_projections_pass_the_pairwise_reference():
    rng = random.Random(5)
    c, c_inv = random_basis_change(rng, 4)
    first, second = [0, 1, 1, 2], [1, 0, 2, 1]
    h1 = linear_family(order_projections(c, c_inv, first, 2), "t")
    h2 = linear_family(order_projections(c, c_inv, second, 2), "u")
    bihom = bihomogenize(h1, h2)
    assert [len(row) for row in bihom.projections] == [3, 3, 3]
    assert pairwise_complementary([q for row in bihom.projections for q in row])
    assert sorted(bihom.orders) == sorted(zip(first, second))
    assert bihom.homogenizer.then(bihom.inverse).is_identity()


def test_three_commuting_families_homogenize_jointly():
    rng = random.Random(6)
    c, c_inv = random_basis_change(rng, 4)
    orders = [(0, 1, 1), (1, 0, 1), (1, 1, 0), (2, 0, 1)]
    families = [
        linear_family(order_projections(c, c_inv, [o[k] for o in orders], 2), param)
        for k, param in enumerate("tuv")
    ]
    joint = _homogenize_joint(families, None, "L_h3")
    assert sorted(joint.orders) == sorted(orders)
    assert [w for _, w in joint.chart.variables] == [sum(o) for o in joint.orders]
    cells = [q for plane in joint.projections for row in plane for q in row]
    assert len(cells) == 3 * 2 * 2
    assert pairwise_complementary(cells)
    assert joint.homogenizer.then(joint.inverse).is_identity()


# --- metamorphic: the weights do not depend on how the chart is written ------


def _renamed(h):
    """The family on a chart whose variables carry other names; every
    index, and so every term dict, stays as it is."""
    chart = GradedChart("R", tuple((f"{v}_r", w) for v, w in h.chart.variables))
    ext = chart.extend(((h.param, 0),))
    entries = {f"{v}_r": WPolynomial(ext, h.entries[v].terms) for v in h.chart.names}
    return ActionFamily(chart, h.param, entries)


def _permuted(h, order):
    """The family on the chart listing its variables in this order: each
    monomial is re-indexed, the parameter keeping its index n."""
    n = len(h.chart)
    chart = GradedChart("P", tuple(h.chart.variables[i] for i in order))
    ext = chart.extend(((h.param, 0),))
    new_index = {old: new for new, old in enumerate(order)}
    new_index[n] = n

    def moved(terms):
        return {tuple(sorted((new_index[i], e) for i, e in m)): c for m, c in terms.items()}

    return ActionFamily(chart, h.param, {v: WPolynomial(ext, moved(h.entries[v].terms)) for v in chart.names})


def _translated(h, shift):
    """y -> h_t(y + shift) - shift, which fixes theta - shift when h fixes
    theta."""
    ext = h.extended_chart
    sigma = {v: WPolynomial.variable(ext, v) + shift[v] for v in h.chart.names}
    sigma[h.param] = WPolynomial.variable(ext, h.param)
    entries = {v: h.entries[v].substitute(sigma, into=ext) - shift[v] for v in h.chart.names}
    return ActionFamily(h.chart, h.param, entries)


def _shape(hom):
    return sorted(hom.chart.weights), hom.chart.degree


def test_weights_and_degree_survive_renaming_permuting_and_translating():
    """homogenize before and after renaming the chart's variables, permuting
    them, and conjugating the family by a translation, which moves theta
    from the origin: the sorted weights and the degree agree, on charts
    with and without a weight-0 direction. The runs are compared with each
    other, not with a golden."""
    rng = random.Random(35)
    moved = base = 0
    for _ in range(30):
        chart = random_chart(rng, max_rank=(2, 2, 1), min_vars=2, max_base=1)
        family, _ = conjugated_action(rng, chart)
        expected = _shape(homogenize(family))
        assert _shape(homogenize(_renamed(family))) == expected
        order = list(range(len(chart)))
        rng.shuffle(order)
        assert _shape(homogenize(_permuted(family, order))) == expected
        shift = {v: Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for v in chart.names}
        moved += any(shift.values())
        theta = {v: -a for v, a in shift.items()}
        assert _shape(homogenize(_translated(family, shift), theta)) == expected
        base += 0 in chart.weights
    assert moved >= 25 and base >= 5, (moved, base)
