"""One builder of family composites, checked against the substitution routes.

verify_laws, check_commuting and multigrade.total_action once built their
composites by substituting whole polynomials to rename a parameter, and
euler_field evaluated the parameter at 1 by substitution. They now call
graded._compose_families, which takes each parameter as a slot, build
h_(ts) as a term map and read the generator off graded._split. The old
routes are kept below as references: every
law record (verdicts, witness order, witness polynomials), commutation
verdict and witness, total family, generator, error type and error message
must agree with them.
"""

import random
from fractions import Fraction

from gradua.action import (
    AnalysisReport,
    LawWitness,
    check_commuting,
    euler_field,
    verify_laws,
)
from gradua.charts import GradedChart, fresh_name
from gradua.errors import GraduaError, NotDoubleStructureError
from gradua.graded import ActionFamily, _compose_families, standard_action
from gradua.jets import adapt, jet_action, prolong_action
from gradua.multigrade import total_action
from gradua.wpoly import WPolynomial

from helpers import (
    chained_family,
    conjugated_action,
    distinct_params,
    linear_family,
    order_projections,
    random_basis_change,
    random_chart,
    random_coefficient,
)

var = WPolynomial.variable


# --- the substitution routes, kept as references --------------------------------


def reference_verify_laws(h):
    chart = h.chart
    t = h.param
    s = fresh_name("s", chart.names + (t,))
    ext2 = chart.extend(((t, 0), (s, 0)))
    tvar = var(ext2, t)
    svar = var(ext2, s)

    rename = {v: var(ext2, v) for v in chart.names}
    rename[t] = svar
    entries_s = {v: h.entries[v].substitute(rename, into=ext2) for v in chart.names}

    compose_sigma = dict(entries_s)
    compose_sigma[t] = tvar
    product_sigma = {v: var(ext2, v) for v in chart.names}
    product_sigma[t] = tvar * svar

    witnesses = []
    for v in chart.names:
        composed = h.entries[v].substitute(compose_sigma, into=ext2)
        merged = h.entries[v].substitute(product_sigma, into=ext2)
        if composed != merged:
            witnesses.append(LawWitness("semigroup", v, composed - merged))
    semigroup_ok = not witnesses

    unit = h.at(1)
    for v in chart.names:
        expected = WPolynomial.variable(chart, v)
        if unit.pullbacks[v] != expected:
            witnesses.append(LawWitness("monoid", v, expected - unit.pullbacks[v]))
    monoid_ok = semigroup_ok and all(w.law != "monoid" for w in witnesses)
    return AnalysisReport(semigroup_ok, monoid_ok, tuple(witnesses))


def reference_composite_entries(first, last, ext):
    """Pullbacks of applying `first`, then `last`, over the two-parameter chart."""
    chart = first.chart
    rename = {v: var(ext, v) for v in chart.names}
    rename[first.param] = var(ext, first.param)
    sigma = {v: first.entries[v].substitute(rename, into=ext) for v in chart.names}
    sigma[last.param] = var(ext, last.param)
    return {v: last.entries[v].substitute(sigma, into=ext) for v in chart.names}


def reference_check_commuting(h1, h2):
    h1, h2 = distinct_params(h1, h2)
    chart = h1.chart
    ext = chart.extend(((h1.param, 0), (h2.param, 0)))
    h1_last = reference_composite_entries(h2, h1, ext)
    h2_last = reference_composite_entries(h1, h2, ext)
    witnesses = tuple(
        (v, h1_last[v] - h2_last[v]) for v in chart.names if h1_last[v] != h2_last[v]
    )
    return (not witnesses, witnesses)


def reference_total_action(h1, h2):
    h1, h2 = distinct_params(h1, h2)
    chart = h1.chart
    param = h1.param
    ext = chart.extend(((param, 0),))
    tvar = var(ext, param)
    rename = {v: var(ext, v) for v in chart.names}
    rename[h2.param] = tvar
    sigma = {v: h2.entries[v].substitute(rename, into=ext) for v in chart.names}
    sigma[h1.param] = tvar
    entries = {v: h1.entries[v].substitute(sigma, into=ext) for v in chart.names}
    return ActionFamily(chart, param, entries)


def reference_euler_field(h):
    chart = h.chart
    out = []
    sigma = {v: var(chart, v) for v in chart.names}
    sigma[h.param] = WPolynomial.constant(chart, 1)
    for v in chart.names:
        d = h.entries[v].differentiate(h.param)
        out.append((v, d.substitute(sigma, into=chart)))
    return tuple(out)


def outcome(fn, *args):
    try:
        return fn(*args)
    except GraduaError as exc:
        return type(exc), str(exc)


def same(new, reference, *args):
    got = outcome(new, *args)
    assert got == outcome(reference, *args)
    return got


# --- families ---------------------------------------------------------------------


def bumped(h, variable, z, c):
    """h with c * (t^2 - t) * z added to one entry: a law breaks unless z = 0."""
    t = var(h.extended_chart, h.param)
    entries = dict(h.entries)
    entries[variable] = entries[variable] + (t**2 - t) * z * c
    return ActionFamily(h.chart, h.param, entries)


def seeded_families():
    """Conjugated families on charts with and without weight-0 coordinates,
    chained ones with a weight-0 block, their bumps (linear and quadratic),
    and a family whose chart has a variable named s."""
    rng = random.Random(1408)
    out = []
    for i in range(24):
        if i % 3 == 2:
            family, _ = chained_family(rng, 1 + i % 2)
        else:
            chart = random_chart(rng, max_rank=(2, 1, 1), min_vars=2, max_base=i % 3)
            family, _ = conjugated_action(rng, chart)
        out.append(family)
        v, u = rng.choice(family.chart.names), rng.choice(family.chart.names)
        z = var(family.extended_chart, u)
        out.append(bumped(family, v, z, random_coefficient(rng)))
        out.append(bumped(family, v, z**2, random_coefficient(rng)))
    chart = GradedChart("S", (("s", 1), ("s1", 2)))
    family, _ = conjugated_action(rng, chart)
    out += [family, family.with_param("s2")]
    return out


FAMILIES = seeded_families()


def jet_doubles():
    """Order-1 and order-2 jet lifts of conjugated families with their level
    scaling, whose parameter is renamed to the family's own."""
    rng = random.Random(77)
    out = []
    for order in (1, 2):
        chart = GradedChart("P", (("x1", 1), ("y1", 2)))
        family, _ = conjugated_action(rng, chart)
        lifted = prolong_action(family, order)
        levels = jet_action(adapt(chart, order), "u")
        out += [(lifted, levels), (levels, lifted), (lifted, levels.with_param("t"))]
    return out


def linear_triples():
    """Commuting and non-commuting linear families, in pairs on one chart."""
    rng = random.Random(5)
    out = []
    for _ in range(6):
        c, c_inv = random_basis_change(rng, 3)
        d, d_inv = random_basis_change(rng, 3)
        orders = [[rng.randint(0, 2) for _ in range(3)] for _ in range(2)]
        h1 = linear_family(order_projections(c, c_inv, orders[0], 2), "t")
        h2 = linear_family(order_projections(c, c_inv, orders[1], 2), "u")
        h3 = linear_family(order_projections(d, d_inv, orders[1], 2), "u")
        out += [(h1, h2), (h1, h3), (h2, h3.with_param("t"))]
    return out


# --- the laws -----------------------------------------------------------------------


def test_verify_laws_agrees_with_the_substitution_route():
    seen = {"monoid": 0, "semigroup broken": 0, "monoid broken": 0, "weight 0": 0}
    gap_chart = GradedChart("G", (("x", 1), ("y", 1)))
    gap_ext = gap_chart.extend((("t", 0),))
    monoid_gap = ActionFamily(
        gap_chart, "t", {"x": var(gap_ext, "t") * var(gap_ext, "x"), "y": WPolynomial.zero(gap_ext)}
    )
    for h in FAMILIES + [monoid_gap]:
        report = same(verify_laws, reference_verify_laws, h)
        assert [str(w.difference) for w in report.witnesses] == [
            str(w.difference) for w in reference_verify_laws(h).witnesses
        ]
        seen["weight 0"] += 0 in h.chart.weights
        if report.monoid_ok:
            seen["monoid"] += 1
        elif not report.semigroup_ok:
            seen["semigroup broken"] += 1
        else:
            seen["monoid broken"] += 1
    assert min(seen.values()) >= 1 and seen["semigroup broken"] >= 20, seen


# --- commutation and the total family ---------------------------------------------


def family_pairs():
    rng = random.Random(23)
    pairs = jet_doubles() + linear_triples()
    for h in FAMILIES[:30]:
        other = rng.choice(FAMILIES)
        pairs.append((h, h))  # same family, same parameter
        pairs.append((h, h.with_param("u")))
        if other.chart == h.chart:
            pairs.append((h, other))
        std = standard_action(h.chart)
        pairs.append((h, std))  # one parameter name, mostly not commuting
        pairs.append((std, h.with_param("u")))
    other_chart = GradedChart("O", (("w", 1),))
    pairs.append((FAMILIES[0], standard_action(other_chart)))  # charts differ
    return pairs


def test_check_commuting_agrees_with_the_substitution_route():
    seen = {"commuting": 0, "not commuting": 0, "charts differ": 0}
    for h1, h2 in family_pairs():
        got = same(check_commuting, reference_check_commuting, h1, h2)
        if got[0] is NotDoubleStructureError:
            assert got[1] == "the two families live on different charts"
            seen["charts differ"] += 1
            continue
        commuting, witnesses = got
        assert [(v, str(d)) for v, d in witnesses] == [
            (v, str(d)) for v, d in reference_check_commuting(h1, h2)[1]
        ]
        seen["commuting" if commuting else "not commuting"] += 1
    assert seen["commuting"] >= 20 and seen["not commuting"] >= 20, seen
    assert seen["charts differ"] == 1


def test_total_action_agrees_with_the_substitution_route():
    seen = {"result": 0, "error": 0}
    for h1, h2 in family_pairs():
        got = same(total_action, reference_total_action, h1, h2)
        seen["error" if isinstance(got, tuple) else "result"] += 1
    # three families, as nested total actions
    for h1, h2 in linear_triples()[:3]:
        h3 = h2.with_param("v")
        assert total_action(total_action(h1, h2), h3) == reference_total_action(
            reference_total_action(h1, h2), h3
        )
    assert seen["result"] >= 100 and seen["error"] >= 1, seen


# --- the generator and the helper itself -------------------------------------------


def test_euler_field_agrees_with_the_substitution_route():
    totals = [total_action(h1, h2) for h1, h2 in jet_doubles()]
    for h in FAMILIES + totals:
        assert euler_field(h) == reference_euler_field(h)


def test_compose_families_reads_parameters_by_slot():
    # three linear families with the parameter of the innermost one placed
    # first, last and in the middle of the composite's parameters, then the
    # first and the last family on one shared slot; the reference finds each
    # parameter by name, as the builder once did
    c, c_inv = random_basis_change(random.Random(3), 3)
    families = [
        linear_family(order_projections(c, c_inv, orders, 2), param)
        for orders, param in (([0, 1, 2], "t"), ([1, 1, 0], "u"), ([2, 0, 1], "v"))
    ]
    chart = families[0].chart
    cases = [(params, "tuv") for params in ("vut", "tuv", "uvt")]
    cases.append(("tu", "tut"))  # the parameters read, family by family
    for params, reads in cases:
        ext = chart.extend(tuple((p, 0) for p in params))
        expected = {v: var(ext, v) for v in chart.names}
        for h, p in zip(reversed(families), reversed(reads)):  # the last family is applied first
            sigma = dict(expected)
            sigma[h.param] = var(ext, p)
            expected = {
                v: h.entries[v].substitute(sigma, into=ext) for v in chart.names
            }
        got = _compose_families(families, [ext.index_of(p) for p in reads])
        assert [WPolynomial(ext, terms) for terms in got] == list(expected.values())
    # one family moves to its slot by re-indexing its parameter factor
    assert _compose_families(families[:1], (5,)) == [
        {m[:-1] + ((5, m[-1][1]),) if m and m[-1][0] == 3 else m: c
         for m, c in families[0].entries[v].terms.items()}
        for v in chart.names
    ]


def test_verify_laws_with_parameter_s():
    # the second parameter is a fresh name when the family's own is s
    h, _ = conjugated_action(random.Random(2), GradedChart("C", (("x", 1),)))
    renamed = h.with_param("s")
    assert verify_laws(renamed) == reference_verify_laws(renamed)
    t = var(renamed.extended_chart, "s")
    broken = ActionFamily(h.chart, "s", {"x": renamed.entries["x"] + t**2 - t})
    report = verify_laws(broken)
    assert report == reference_verify_laws(broken) and not report.semigroup_ok
    assert report.witnesses[0].difference.chart.names == ("x", "s", "s1")
    assert Fraction(0) not in report.witnesses[0].difference.terms.values()
