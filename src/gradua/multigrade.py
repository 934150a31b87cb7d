"""Pairs of commuting parameter families and their joint homogenization.

Two monoid families on one chart that commute as self-map families give
every direction a pair of orders, one per family. The joint analysis reads
the joint projections Q1_r Q2_s off the derivative of the families'
composite at theta, picks a basis of each image, and produces coordinates
scaling by t**r under the first family and u**s under the second. The
resulting chart records the pair (r, s) for each variable and carries
r + s as its weight, so collapsing both parameters to one recovers an
ordinary homogenized chart, possibly of lower degree than the pair
suggests.

The checked joint coordinates certify that the families commute and give
the degree of their total action (the argument is in
action._homogenize_joint, which serves any number of families).
bihomogenize returns that routine's record, action.AnalysisReport, the
record of homogenize and analyze too: its orders are the pairs (r, s), and
its projections the grid as nested tuples, projections[r][s] = Q1_r Q2_s. The
direct check, check_commuting, lives in action, which runs it only to
explain a failure; it is re-exported here. A family's parameter is a slot
of graded._compose_families, the builder of every family composite, not a
name: the total family composes the two families on one slot, and the
pair is homogenized as it is, so no family is renamed and two families
that both use t need nothing done to them.

The flip of an iterated jet adaptation, which swaps its two levels, is a
renaming of coordinates, and _flip_names builds it and its candidate
inverse as maps of names, read by position off the two adapted charts
(jets.adapt's layout), each chart built once.
flip wraps that map as a PolyMap; the flip command prints the names and
decides its round trip on them with _is_round_trip, building no
polynomial.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .action import (  # noqa: F401
    AnalysisReport,
    _homogenize_joint,
    _require_same_chart,
    check_commuting,
)
from .charts import GradedChart
from .graded import ActionFamily, PolyMap, _compose_families
from .jets import adapt
from .wpoly import WPolynomial


def total_action(h1: ActionFamily, h2: ActionFamily) -> ActionFamily:
    """Both families run with h1's parameter, second applied first.

    _compose_families puts both parameters on the one slot n = len(chart),
    where h1's extended chart has its parameter, so h2 is not renamed and
    no chart is built.
    """
    _require_same_chart(h1, h2)
    ext = h1.extended_chart
    n_vars = len(h1.chart)
    composite = _compose_families((h1, h2), (n_vars, n_vars))
    entries = {v: WPolynomial(ext, terms) for v, terms in zip(h1.chart.names, composite)}
    return ActionFamily(h1.chart, h1.param, entries)


def bihomogenize(
    h1: ActionFamily,
    h2: ActionFamily,
    theta: Mapping[str, Fraction | int] | None = None,
) -> AnalysisReport:
    """Joint coordinates scaling by t**r under h1 and u**s under h2.

    The two-family case of action._homogenize_joint: the order-(r, s)
    projection is the t^r u^s coefficient of the derivative of h1_t o h2_u
    at theta, which is the product of the order-r projection of h1 and the
    order-s projection of h2. The new coordinates y{r}_{s}_1, y{r}_{s}_2,
    ... have weight r + s; the record's degree is the total degree, and its
    orders the pairs (r, s). The checked coordinates certify that the
    families commute, so check_commuting runs only when they cannot be
    built; a pair that does not commute raises NotDoubleStructureError with
    the commutation witnesses, before any broken law is reported.
    """
    _require_same_chart(h1, h2)
    return _homogenize_joint((h1, h2), theta, f"{h1.chart.name}_bh")


def _flip_names(m: int, n: int, chart: GradedChart) -> tuple[tuple, tuple]:
    """The flip and its candidate inverse as maps of names: for each, its
    source chart, its target chart and the dict from each target variable,
    in chart order, to the source variable it pulls back to.

    The flip's source is the order-n adaptation of the order-m adaptation;
    its target nests the orders the other way around, and is the source of
    the candidate inverse, whose target is the flip's source. A variable
    that is the outer level-q jet of the inner level-p jet of x pulls back
    to the outer level-p jet of the inner level-q jet of x. The two charts
    are built once, and with m = n they are the same chart and the inverse
    is the flip itself.

    Both charts are read by position, by adapt's level-major layout, with
    b base variables: the target variable of outer level q <= m, inner
    level p <= n and base i sits at q*b*(n+1) + p*b + i, and its source
    variable at p*b*(m+1) + q*b + i. The inverse is read the same way, with
    m and n and the two charts swapped. No name is formed or looked up.
    """
    b = len(chart)

    def renaming(m: int, n: int, source: GradedChart, target: GradedChart) -> tuple:
        pulled = (
            source.names[p * b * (m + 1) + q * b + i]
            for q in range(m + 1) for p in range(n + 1) for i in range(b)
        )
        return source, target, dict(zip(target.names, pulled))

    source = adapt(adapt(chart, m).chart, n).chart
    target = source if m == n else adapt(adapt(chart, n).chart, m).chart
    forward = renaming(m, n, source, target)
    return forward, forward if m == n else renaming(n, m, target, source)


def flip(m: int, n: int, chart: GradedChart) -> PolyMap:
    """Swap the two levels of an iterated jet adaptation, as a renaming:
    the PolyMap of _flip_names' flip, each pullback one source variable."""
    (source, target, names), _ = _flip_names(m, n, chart)
    pullbacks = {v: WPolynomial.variable(source, u) for v, u in names.items()}
    return PolyMap(source, target, pullbacks)


def _is_round_trip(forward: tuple, backward: tuple) -> bool:
    """True when two maps of names, each as _flip_names returns them (every
    target variable listed), undo each other both ways round.

    For the renamings they stand for, this is compose(forward,
    backward).is_identity() and compose(backward, forward).is_identity():
    the charts close up (forward's target is backward's source and
    backward's target forward's source), and following one map of names
    and then the other gives back every name. No polynomial is built.
    """
    (source, target, f), (back_source, back_target, g) = forward, backward
    if target != back_source or back_target != source:
        return False
    return all(f.get(g[u]) == u for u in g) and all(g.get(f[v]) == v for v in f)
