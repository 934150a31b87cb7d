"""Pairs of commuting parameter families and their joint homogenization.

Two monoid families on one chart that commute as self-map families give
every direction a pair of orders, one per family. The joint analysis
restricts the second family's Taylor projections to the images of the
first's, picks bases of the restricted images, and produces coordinates
scaling by t**r under the first family and u**s under the second. The
resulting chart records the pair (r, s) for each variable and carries
r + s as its weight, so collapsing both parameters to one recovers an
ordinary homogenized chart, possibly of lower degree than the pair
suggests.

The checked joint coordinates certify that the families commute and give
the degree of their total action (the argument is in
action._homogenize_joint). The direct check, check_commuting, lives in
action, which runs it only to explain a failure; it is re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Mapping

from .action import (  # noqa: F401
    _distinct_params,
    _homogenize_joint,
    _joint_projections,
    check_commuting,
)
from .charts import GradedChart
from .graded import ActionFamily, PolyMap
from .jets import adapt
from .linalg import Matrix
from .wpoly import WPolynomial


@dataclass(frozen=True)
class Bihomogenization:
    """A joint coordinate change and the order pair of each new variable.

    factors holds the two families' Taylor projections; the joint
    projections Q1_r Q2_s are multiplied out only when `projections` is
    read.
    """

    chart: GradedChart
    biweights: tuple[tuple[int, int], ...]
    homogenizer: PolyMap
    inverse: PolyMap
    theta: dict[str, Fraction]
    factors: tuple[tuple[Matrix, ...], ...] = field(repr=False)

    @cached_property
    def projections(self) -> dict[tuple[int, int], Matrix]:
        return _joint_projections(self.factors)


def total_action(
    h1: ActionFamily, h2: ActionFamily, param: str | None = None
) -> ActionFamily:
    """Both families run with one shared parameter, second applied first."""
    h1, h2 = _distinct_params(h1, h2)
    chart = h1.chart
    param = param or h1.param
    ext = chart.extend(((param, 0),))
    tvar = WPolynomial.variable(ext, param)
    rename = {v: WPolynomial.variable(ext, v) for v in chart.names}
    rename[h2.param] = tvar
    sigma = {v: h2.entries[v].substitute(rename, into=ext) for v in chart.names}
    sigma[h1.param] = tvar
    entries = {v: h1.entries[v].substitute(sigma, into=ext) for v in chart.names}
    return ActionFamily(chart, param, entries)


def bihomogenize(
    h1: ActionFamily,
    h2: ActionFamily,
    theta: Mapping[str, Fraction | int] | None = None,
) -> Bihomogenization:
    """Joint coordinates scaling by t**r under h1 and u**s under h2.

    The two-family case of action._homogenize_joint: the order-(r, s)
    projection is the product of the order-r projection of h1 and the
    order-s projection of h2, whose image is the order-s projection of h2
    applied to the image of the order-r projection of h1. The new
    coordinates y{r}_{s}_1, y{r}_{s}_2, ... have weight r + s. The checked
    coordinates certify that the families commute, so check_commuting runs
    only when they cannot be built; a pair that does not commute raises
    NotDoubleStructureError with the commutation witnesses, before any
    broken law is reported.
    """
    h1, h2 = _distinct_params(h1, h2)
    joint = _homogenize_joint((h1, h2), theta, f"{h1.chart.name}_bh")
    return Bihomogenization(
        chart=joint.chart,
        biweights=joint.orders,
        homogenizer=joint.homogenizer,
        inverse=joint.inverse,
        theta=joint.theta,
        factors=joint.factors,
    )


def flip(m: int, n: int, chart: GradedChart) -> PolyMap:
    """Swap the two levels of an iterated jet adaptation, as a renaming.

    The source is the order-n adaptation of the order-m adaptation; the
    target nests the orders the other way around. A variable that is the
    outer level-q jet of the inner level-p jet of x pulls back to the outer
    level-p jet of the inner level-q jet of x.
    """
    inner_src = adapt(chart, m)
    outer_src = adapt(inner_src.chart, n)
    inner_dst = adapt(chart, n)
    outer_dst = adapt(inner_dst.chart, m)

    pullbacks: dict[str, WPolynomial] = {}
    for name in outer_dst.chart.names:
        mid, q = outer_dst.level_of(name)
        base, p = inner_dst.level_of(mid)
        source_name = outer_src.jet_name(inner_src.jet_name(base, q), p)
        pullbacks[name] = WPolynomial.variable(outer_src.chart, source_name)
    return PolyMap(outer_src.chart, outer_dst.chart, pullbacks)


def _renaming(pmap: PolyMap) -> dict[str, str] | None:
    """Target name -> source name when every pullback is one variable with
    coefficient 1; None otherwise."""
    names = pmap.source.names
    out: dict[str, str] = {}
    for v, p in pmap.pullbacks.items():
        if len(p.terms) != 1:
            return None
        ((mono, c),) = p.terms.items()
        if c != 1 or len(mono) != 1 or mono[0][1] != 1:
            return None
        out[v] = names[mono[0][0]]
    return out


def is_renaming_round_trip(forward: PolyMap, backward: PolyMap) -> bool:
    """True when two renamings undo each other, both ways round.

    For renamings this is compose(forward, backward).is_identity() and
    compose(backward, forward).is_identity(), decided by composing the
    maps of names, with no polynomial substituted. A map with a pullback
    that is not a single variable with coefficient 1, or a pair whose
    charts do not compose back to where they started, gives False.
    """
    if forward.target != backward.source or backward.target != forward.source:
        return False
    f = _renaming(forward)
    g = _renaming(backward)
    if f is None or g is None:
        return False
    return all(f[g[u]] == u for u in g) and all(g[f[v]] == v for v in f)
