"""One builder of the model scaling family, checked against the object-level routes.

standard_action and jets.jet_action once multiplied WPolynomial variables by
powers of the parameter, and action.reconstruct_entries lifted the
homogenizer to the extended chart, multiplied it by powers of the parameter
and substituted. All three now take the term dicts x_i * t^(p_i) from
wpoly._scaling_terms: the two families through graded._scaling_family, the
conjugation in two passes of the substitution kernel. The old routes are
kept below as references: every family must have the same chart and
parameter name, and every entry the same chart and the same terms, each
coefficient in the same stored form.
"""

import random

from gradua.action import homogenize, reconstruct_entries
from gradua.charts import GradedChart, fresh_name
from gradua.graded import ActionFamily, standard_action
from gradua.jets import adapt, jet_action
from gradua.wpoly import WPolynomial, _scaling_terms

from helpers import conjugated_action, random_chart
from test_acceptance import SEED
from test_certificate import dressed_family


# --- the object-level routes, kept as references ---------------------------------


def reference_standard_action(chart, param="t"):
    param = fresh_name(param, chart.names)
    ext = chart.extend(((param, 0),))
    tvar = WPolynomial.variable(ext, param)
    entries = {
        v: tvar ** chart.weight_of(v) * WPolynomial.variable(ext, v)
        for v in chart.names
    }
    return ActionFamily(chart, param, entries)


def reference_jet_action(ac, param="t"):
    param = fresh_name(param, ac.chart.names)
    ext = ac.chart.extend(((param, 0),))
    tvar = WPolynomial.variable(ext, param)
    entries = {}
    for name, level in zip(ac.chart.names, ac.jet_orders):
        entries[name] = WPolynomial.variable(ext, name) * tvar**level
    return ActionFamily(ac.chart, param, entries)


def reference_reconstruct_entries(hom, h):
    ext = h.extended_chart
    tvar = WPolynomial.variable(ext, h.param)
    scaled = {
        v: phi_p.lift(ext) * tvar ** hom.chart.weight_of(v)
        for v, phi_p in hom.homogenizer.pullbacks.items()
    }
    out = {}
    for v in h.chart.names:
        out[v] = hom.inverse.pullbacks[v].substitute(scaled, into=ext)
    return out


# --- comparison -------------------------------------------------------------------


def stored(p):
    """The chart and the terms of a polynomial, each coefficient with its type."""
    return p.chart, {m: (type(c), c) for m, c in p.terms.items()}


def assert_same_entries(got, expected):
    assert list(got) == list(expected)
    for v, p in expected.items():
        assert stored(got[v]) == stored(p), v


def assert_same_family(got, expected):
    assert (got.chart, got.param) == (expected.chart, expected.param)
    assert got.extended_chart == expected.extended_chart
    assert_same_entries(got.entries, expected.entries)


NAMES = ("x", "y", "t", "t1", "u", "b", "x'1", "y''2", "s")


def seeded_charts(rng, count):
    """Charts of 1 to 5 variables with weights 0..3, some named t, t1 or u
    (so the parameter must be made fresh) and some ticked."""
    charts = []
    for i in range(count):
        names = rng.sample(NAMES, rng.randint(1, 5))
        charts.append(GradedChart(f"C{i}", tuple((v, rng.randint(0, 3)) for v in names)))
    return charts


def test_scaling_terms_are_the_model_family():
    assert _scaling_terms((2, 0, 1)) == [
        {((0, 1), (3, 2)): 1}, {((1, 1),): 1}, {((2, 1), (3, 1)): 1}
    ]
    assert _scaling_terms(()) == []


def test_standard_action_matches_the_object_level_route():
    charts = seeded_charts(random.Random(2411), 60)
    assert any(0 in c.weights for c in charts) and any("t" in c for c in charts)
    assert any("'" in v for c in charts for v in c.names)
    for chart in charts:
        for param in ("t", "u", "s"):
            assert_same_family(
                standard_action(chart, param), reference_standard_action(chart, param)
            )
        assert_same_family(standard_action(chart), reference_standard_action(chart))


def test_jet_action_matches_the_object_level_route():
    for chart in seeded_charts(random.Random(2415), 25):
        for order in range(4):
            ac = adapt(chart, order)
            for param in ("t", "u"):
                assert_same_family(jet_action(ac, param), reference_jet_action(ac, param))


def test_reconstruct_entries_matches_the_object_level_route():
    """On the dressed families (weight-0 blocks, shifted fixed points) and on
    the acceptance suite's 200 conjugated families."""
    rng = random.Random(20261018)
    cases = [dressed_family(rng) for _ in range(40)]
    rng = random.Random(SEED)
    for _ in range(200):
        chart = random_chart(rng, max_rank=(3, 2, 1), min_vars=2)
        cases.append((conjugated_action(rng, chart)[0], None))
    for family, theta in cases:
        hom = homogenize(family, theta)
        rebuilt = reconstruct_entries(hom, family)
        assert_same_entries(rebuilt, reference_reconstruct_entries(hom, family))
        assert rebuilt == dict(family.entries)
