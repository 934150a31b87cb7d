"""Commuting family pairs, joint homogenization, and the order flip."""

import random
from fractions import Fraction

import pytest

from gradua.action import _homogenize_joint, analyze, euler_field
from gradua.charts import GradedChart
from gradua.errors import NotDoubleStructureError
from gradua.graded import ActionFamily, PolyMap, compose
from gradua.jets import adapt, jet_action, prolong_action
from gradua.multigrade import (
    _flip_names,
    _is_round_trip,
    bihomogenize,
    check_commuting,
    flip,
    total_action,
)
from gradua.wpoly import WPolynomial

from helpers import linear_family, order_projections, random_basis_change, weighted_degree

M = GradedChart("M", (("x", 1), ("y", 2)))


def family(chart, param, builder):
    ext = chart.extend(((param, 0),))
    v = {name: WPolynomial.variable(ext, name) for name in chart.names}
    p = WPolynomial.variable(ext, param)
    return ActionFamily(chart, param, builder(v, p))


def test_noncommuting_witness_frozen():
    h1 = family(M, "t", lambda v, t: {"x": t * v["x"], "y": v["y"]})
    h2 = family(M, "u", lambda v, u: {"x": v["x"], "y": u * v["y"] + (1 - u) * v["x"] ** 2})
    commuting, witnesses = check_commuting(h1, h2)
    assert not commuting
    assert len(witnesses) == 1
    variable, defect = witnesses[0]
    assert variable == "y"
    assert str(defect) == "x^2*t^2*u - x^2*t^2 - x^2*u + x^2"  # (1-u)(1-t^2)x^2


def test_noncommuting_pair_rejected_by_bihomogenize():
    h1 = family(M, "t", lambda v, t: {"x": t * v["x"], "y": v["y"]})
    h2 = family(M, "u", lambda v, u: {"x": v["x"], "y": u * v["y"] + (1 - u) * v["x"] ** 2})
    with pytest.raises(NotDoubleStructureError):
        bihomogenize(h1, h2)


def test_parameter_collision_resolved_internally():
    h1 = family(M, "t", lambda v, t: {"x": t * v["x"], "y": v["y"]})
    h2 = family(M, "t", lambda v, t: {"x": v["x"], "y": t * v["y"]})
    commuting, _ = check_commuting(h1, h2)
    assert commuting


def test_bihomogenize_splits_orders():
    h1 = family(M, "t", lambda v, t: {"x": t * v["x"], "y": v["y"]})
    h2 = family(M, "u", lambda v, u: {"x": v["x"], "y": u * v["y"]})
    bihom = bihomogenize(h1, h2)
    assert bihom.chart.variables == (("y0_1_1", 1), ("y1_0_1", 1))
    assert bihom.orders == ((0, 1), (1, 0))
    assert str(bihom.homogenizer.pullbacks["y0_1_1"]) == "y"
    assert str(bihom.homogenizer.pullbacks["y1_0_1"]) == "x"
    assert compose(bihom.homogenizer, bihom.inverse).is_identity()


def test_total_action_can_drop_degree():
    h1 = family(M, "t", lambda v, t: {"x": t * v["x"], "y": v["y"]})
    h2 = family(M, "u", lambda v, u: {"x": v["x"], "y": u * v["y"]})
    total = total_action(h1, h2)
    report = analyze(total)
    assert report.monoid_ok
    assert report.degree == 1


def test_double_vector_bundle_total_structure():
    # three directions with order pairs (1,0), (0,1), (1,1): the diagonal
    # family is standard of degree 2 and its generator adds the two parts
    dvb = GradedChart("Dv", (("x1", 1), ("x2", 1), ("z", 2)))
    h1 = family(
        dvb, "t", lambda v, t: {"x1": t * v["x1"], "x2": v["x2"], "z": t * v["z"]}
    )
    h2 = family(
        dvb, "u", lambda v, u: {"x1": v["x1"], "x2": u * v["x2"], "z": u * v["z"]}
    )
    commuting, _ = check_commuting(h1, h2)
    assert commuting
    bihom = bihomogenize(h1, h2)
    assert sorted(bihom.orders) == [(0, 1), (1, 0), (1, 1)]
    assert sorted(bihom.chart.weights) == [1, 1, 2]

    total = total_action(h1, h2)
    report = analyze(total)
    assert report.degree == 2
    generator = dict(euler_field(total))
    first = dict(euler_field(h1))
    second = dict(euler_field(h2))
    for v in dvb.names:
        assert generator[v] == first[v] + second[v]


def test_bihomogenize_with_corrections():
    # order pairs (1,0), (0,1), (1,2), with the (1,2)-direction sheared by
    # x1*x2; conjugating the standard pair by z -> z + x1*x2 produces
    # exactly these entries
    dvb = GradedChart("Dw", (("x1", 1), ("x2", 1), ("z", 3)))
    h1 = family(
        dvb, "t", lambda v, t: {"x1": t * v["x1"], "x2": v["x2"], "z": t * v["z"]}
    )
    h2 = family(
        dvb,
        "u",
        lambda v, u: {
            "x1": v["x1"],
            "x2": u * v["x2"],
            "z": u**2 * v["z"] + (u**2 - u) * v["x1"] * v["x2"],
        },
    )
    commuting, witnesses = check_commuting(h1, h2)
    assert commuting, [(v, str(d)) for v, d in witnesses]
    bihom = bihomogenize(h1, h2)
    assert sorted(bihom.orders) == [(0, 1), (1, 0), (1, 2)]
    assert str(bihom.homogenizer.pullbacks["y1_2_1"]) == "z + x1*x2"


def test_total_degree_is_the_largest_joint_weight():
    # check-double reports the degree of the joint chart as the total degree;
    # homogenizing the total action itself is the reference
    ext = M.extend((("t", 0),))
    x, y, t = (WPolynomial.variable(ext, v) for v in ("x", "y", "t"))
    sheared = ActionFamily(M, "t", {"x": t * x, "y": t**2 * y + (t - t**2) * x})
    for order in (1, 2):
        lifted = prolong_action(sheared, order)
        scaling = jet_action(adapt(M, order), "u")
        total_degree = bihomogenize(lifted, scaling).chart.degree
        assert total_degree == analyze(total_action(lifted, scaling)).degree

    rng = random.Random(6)
    c, c_inv = random_basis_change(rng, 4)
    orders = [(0, 1, 1), (1, 0, 1), (1, 1, 0), (2, 0, 1)]
    families = [
        linear_family(order_projections(c, c_inv, [o[k] for o in orders], 2), param)
        for k, param in enumerate("tuv")
    ]
    total_degree = _homogenize_joint(families, None, "L_h3").chart.degree
    total = total_action(total_action(families[0], families[1]), families[2])
    assert total_degree == analyze(total).degree == 3


def test_flip_one_one_is_involution():
    chart = GradedChart("B", (("x", 1), ("y", 2)))
    fl = flip(1, 1, chart)
    assert fl.source == fl.target
    assert compose(fl, fl).is_identity()
    assert str(fl.pullbacks["x'1"]) == "x''1"
    assert str(fl.pullbacks["x''1"]) == "x'1"
    assert str(fl.pullbacks["x'1''1"]) == "x'1''1"


def test_flip_intertwines_level_actions():
    # outer reparametrization on one side matches the prolonged inner
    # reparametrization on the other
    chart = GradedChart("B", (("x", 1),))
    fl = flip(1, 1, chart)
    inner = adapt(chart, 1)
    outer_action = jet_action(adapt(inner.chart, 1), "t")
    inner_action = prolong_action(jet_action(inner, "t"), 1)
    for value in (2, -3, 7):
        lhs = compose(fl, inner_action.at(value))
        rhs = compose(outer_action.at(value), fl)
        assert lhs.pullbacks == rhs.pullbacks


def test_flip_mixed_orders_round_trip():
    chart = GradedChart("B", (("x", 1), ("y", 2)))
    forward = flip(1, 2, chart)
    backward = flip(2, 1, chart)
    assert compose(forward, backward).is_identity()
    assert compose(backward, forward).is_identity()


def test_flip_preserves_weights():
    chart = GradedChart("B", (("x", 1), ("y", 2)))
    fl = flip(2, 1, chart)
    for v in fl.target.names:
        image = fl.pullbacks[v]
        assert weighted_degree(image) == fl.target.weight_of(v)


def test_charts_must_match():
    other = GradedChart("O", (("w", 1),))
    h1 = family(M, "t", lambda v, t: {"x": t * v["x"], "y": t**2 * v["y"]})
    h2 = family(other, "u", lambda v, u: {"w": u * v["w"]})
    with pytest.raises(NotDoubleStructureError):
        check_commuting(h1, h2)


# --- the flip round trip on maps of names ----------------------------------------


def _round_trip_by_composition(a, b):
    """The reference: both composites of the PolyMaps are the identity (False
    when the charts do not compose, where compose would raise)."""
    if a.target != b.source or b.target != a.source:
        return False
    return compose(a, b).is_identity() and compose(b, a).is_identity()


def _renaming(source, target, names):
    """The map whose pullback of target variable v is the source variable names[v]."""
    return PolyMap(
        source, target, {v: WPolynomial.variable(source, names[v]) for v in target.names}
    )


TICK_AND_WEIGHT_0 = GradedChart("B", (("a", 0), ("x", 1), ("x'", 1)))


@pytest.mark.parametrize("chart", [M, TICK_AND_WEIGHT_0])
def test_flip_round_trip_matches_composition(chart):
    for m in range(3):
        for n in range(3):
            forward, backward = _flip_names(m, n, chart), _flip_names(n, m, chart)
            assert flip(m, n, chart) == _renaming(*forward)
            assert _is_round_trip(forward, backward)
            assert _round_trip_by_composition(flip(m, n, chart), flip(n, m, chart))
            if m == n and m:
                # a flip that swaps levels is not undone by the identity
                ident = PolyMap.identity(forward[0])
                assert not _round_trip_by_composition(flip(m, n, chart), ident)
                names = (forward[0], forward[0], {v: v for v in forward[0].names})
                assert not _is_round_trip(forward, names)


@pytest.mark.parametrize("chart", [M, TICK_AND_WEIGHT_0])
def test_name_round_trip_agrees_with_composing_flips(chart):
    """Every pair of flips of orders 0..2, matched or not: the round trip on
    the maps of names is the composition reference on flip's PolyMaps."""
    orders = [(m, n) for m in range(3) for n in range(3)]
    names = {mn: _flip_names(*mn, chart) for mn in orders}
    maps = {mn: flip(*mn, chart) for mn in orders}
    verdicts = []
    for first in orders:
        for second in orders:
            verdict = _is_round_trip(names[first], names[second])
            assert verdict == _round_trip_by_composition(maps[first], maps[second])
            verdicts.append(verdict)
    # each flip(m, n) is undone by flip(n, m) only, and flip(0, 0) by itself
    assert sum(verdicts) == len(orders)


def test_renaming_round_trip_on_hand_made_permutations():
    chart = GradedChart("P", (("a", 1), ("b", 1), ("c", 1)))
    cycle = {"a": "b", "b": "c", "c": "a"}
    back = {"a": "c", "b": "a", "c": "b"}
    swap = {"a": "b", "b": "a", "c": "c"}
    collapse = {"a": "a", "b": "a", "c": "c"}
    ident = {v: v for v in chart.names}
    cases = [
        (cycle, back, True),
        (back, cycle, True),
        (swap, swap, True),
        (ident, ident, True),
        (cycle, cycle, False),
        (cycle, swap, False),
        (collapse, swap, False),
        (collapse, ident, False),
    ]
    for a, b, expected in cases:
        maps = _renaming(chart, chart, a), _renaming(chart, chart, b)
        assert _round_trip_by_composition(*maps) == expected
        assert _is_round_trip((chart, chart, a), (chart, chart, b)) == expected


def test_renaming_round_trip_refuses_scaled_and_composite_pullbacks():
    # a map of names stands only for pullbacks that are one variable with
    # coefficient 1: any other pullback breaks the composition round trip
    chart = GradedChart("P", (("a", 1), ("b", 2)))
    a, b = (WPolynomial.variable(chart, n) for n in chart.names)
    ident = PolyMap.identity(chart)
    others = [
        PolyMap(chart, chart, {"a": a * 2, "b": b}),
        PolyMap(chart, chart, {"a": a, "b": b * Fraction(1, 2)}),
        PolyMap(chart, chart, {"a": a, "b": b + a * a}),
        PolyMap(chart, chart, {"a": a, "b": a * a}),
        PolyMap(chart, chart, {"a": a + 1, "b": b}),
        PolyMap(chart, chart, {"a": a, "b": WPolynomial.zero(chart)}),
    ]
    names = (chart, chart, {v: v for v in chart.names})
    assert _is_round_trip(names, names) and _round_trip_by_composition(ident, ident)
    for other in others:
        for first, second in ((ident, other), (other, ident)):
            assert not _round_trip_by_composition(first, second)


def test_renaming_round_trip_needs_charts_that_close_up():
    one = GradedChart("P", (("a", 1),))
    two = GradedChart("Q", (("a", 1),))
    there, back = (one, two, {"a": "a"}), (two, one, {"a": "a"})
    assert _is_round_trip(there, back)
    assert _round_trip_by_composition(_renaming(*there), _renaming(*back))
    assert not _is_round_trip(there, there)
    assert not _round_trip_by_composition(_renaming(*there), _renaming(*there))


def test_renaming_round_trip_needs_both_composites():
    # one composite is the identity, the other sends q to p
    small = GradedChart("S", (("a", 1),))
    big = GradedChart("T", (("p", 1), ("q", 1)))
    doubled = (small, big, {"p": "a", "q": "a"})
    first = (big, small, {"a": "p"})
    assert compose(_renaming(*doubled), _renaming(*first)).is_identity()
    assert not compose(_renaming(*first), _renaming(*doubled)).is_identity()
    assert not _is_round_trip(doubled, first)
    assert not _is_round_trip(first, doubled)
