"""Higher-order tangent lifts: adapted charts, prolongation, reordering.

Adapting a chart to order k introduces, for every variable x of weight w,
jet variables at levels 1..k recording the coefficients of a curve's Taylor
expansion; the level-j variable carries weight w + j. Level-0 variables keep
their names, level-j variables get a tick marker and the level as suffix
(x'1, x'2, ...). The marker grows by one tick whenever the underlying names
already contain ticks, so iterated adaptation never produces colliding or
ambiguous names. The marker is read off the chart's names, so a chart has
one adapted chart per order.

The level scaling (jet_action), each level-k variable times t^k, is the
model family x_i -> t**p_i * x_i with the levels as powers, built by
graded._scaling_family, the builder of the standard action too.

Prolonging a polynomial map reads off the levels of its pullbacks along a
curve: level k is the k-th derivative in the curve parameter at 0, so the
levels of a base variable are its jet variables, and those of a product
follow by the Leibniz rule, with int binomials as weights. Prolonging a
parameter family does the same entrywise, the family parameter constant
along the curve. One prolongation builds the levels of every monomial it
meets once, as integer term dicts up to the order and no further, and
each output level is one combination of them with the polynomial's
coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Mapping

from .charts import GradedChart
from .errors import DomainError
from .graded import ActionFamily, PolyMap, _scaling_family
from .wpoly import WPolynomial, _natural, _terms_combine, _terms_mul


@dataclass(frozen=True)
class AdaptedChart:
    """A chart together with jet variables up to a fixed level.

    jet_orders[i] is the level of chart.variables[i]; base_names[i] is the
    underlying variable it is a jet of (itself, at level 0).
    """

    source: GradedChart
    order: int
    marker: str
    chart: GradedChart
    jet_orders: tuple[int, ...]
    base_names: tuple[str, ...]

    def jet_name(self, base: str, level: int) -> str:
        if _natural(level, "jet level") > self.order:
            raise DomainError(f"level {level} outside 0..{self.order}")
        self.source.index_of(base)
        return base if level == 0 else f"{base}{self.marker}{level}"

    def level_of(self, name: str) -> tuple[str, int]:
        """Underlying variable and level of an adapted variable."""
        i = self.chart.index_of(name)
        return self.base_names[i], self.jet_orders[i]


def _tick_marker(names: tuple[str, ...]) -> str:
    longest = 0
    for name in names:
        run = 0
        for ch in name:
            run = run + 1 if ch == "'" else 0
            longest = max(longest, run)
    return "'" * (longest + 1)


def adapt(chart: GradedChart, order: int) -> AdaptedChart:
    """Chart of jets up to the given level, ordered level-major."""
    _natural(order, "jet order")
    marker = _tick_marker(chart.names)
    variables: list[tuple[str, int]] = []
    jet_orders: list[int] = []
    base_names: list[str] = []
    for k in range(order + 1):
        for v, w in chart.variables:
            name = v if k == 0 else f"{v}{marker}{k}"
            variables.append((name, w + k))
            jet_orders.append(k)
            base_names.append(v)
    jet_chart = GradedChart(f"{chart.name}_j{order}", tuple(variables))
    return AdaptedChart(
        chart, order, marker, jet_chart, tuple(jet_orders), tuple(base_names)
    )


def _taylor_components(
    polys: Mapping[str, WPolynomial],
    source: AdaptedChart,
    target: AdaptedChart,
    inert: tuple[str, ...] = (),
) -> dict[str, WPolynomial]:
    """Levels 0..order of each polynomial along a curve, by the Leibniz
    rule, keyed by the jet names of target: polys maps each variable of
    target.source to a polynomial on source.source, and level k of the
    polynomial of v is the value at target.jet_name(v, k).

    Level k of a function along the curve x + s*x'1 + s^2/2*x'2 + ... is
    its k-th derivative in s at 0, so level k of a base variable is its
    level-k jet variable, with coefficient 1. Extra weight-0 variables of
    the polynomials (a family parameter, say), which follow the base
    variables in their chart, are constant along the curve when named in
    inert: level 0 is the variable itself, every higher level is 0. The
    levels of a product are those of its factors by the Leibniz rule,
    level k of f*g being the sum over a of C(k, a) * f_a * g_(k-a), formed
    for k up to the order only, so no term above the order is built; the
    weights are int binomials and the levels of a monomial are integer
    term dicts. Level k of a
    polynomial is then one _terms_combine of c * image(m)_k over its terms
    c * m. The term dicts are over the result chart, the jet chart (the
    level-k variable of base variable i at index k * n + i, n the number
    of base variables) then the inert variables.

    One cache, keyed by monomial, serves every polynomial: a monomial's
    levels are its prefix's times those of the power of its last factor,
    and the power ((i, e),) is built from ((i, e - 1),) in a loop, so no
    recursion grows with the exponent. This is not the substitution kernel
    (wpoly._terms_substitute): reusing it would make it branch on
    truncation for this one caller, and separate code is simpler there.
    """
    jet_chart = source.chart
    result_chart = jet_chart.extend(tuple((v, 0) for v in inert)) if inert else jet_chart
    n_base = len(source.source)
    order = source.order
    zeros = [{}] * order
    cache: dict[tuple, list] = {(): [{(): 1}] + zeros}
    for i in range(n_base):
        cache[((i, 1),)] = [{((k * n_base + i, 1),): 1} for k in range(order + 1)]
    for j in range(len(inert)):
        cache[((n_base + j, 1),)] = [{((len(jet_chart) + j, 1),): 1}] + zeros

    def leibniz(f: list, g: list) -> list:
        return [
            _terms_combine((comb(k, a), _terms_mul(f[a], g[k - a])) for a in range(k + 1))
            for k in range(order + 1)
        ]

    def image(mono: tuple) -> list:
        if mono not in cache:
            i, e = mono[-1]
            for d in range(2, e + 1):
                if ((i, d),) not in cache:
                    cache[((i, d),)] = leibniz(cache[((i, d - 1),)], cache[((i, 1),)])
            if len(mono) > 1:
                cache[mono] = leibniz(image(mono[:-1]), cache[mono[-1:]])
        return cache[mono]

    components: dict[str, WPolynomial] = {}
    for v in target.source.names:
        images = [(c, image(m)) for m, c in polys[v].terms.items()]
        for k in range(order + 1):
            level = _terms_combine((c, levels[k]) for c, levels in images)
            components[target.jet_name(v, k)] = WPolynomial(result_chart, level)
    return components


def prolong(phi: PolyMap, order: int) -> PolyMap:
    """Lift a polynomial map to the order-k jet charts.

    The level-j pullback of a target jet variable is the j-th Taylor
    coefficient (times j!) of the original pullback along a curve, so
    level 1 is the usual derivative rule and higher levels follow the
    repeated chain rule. A self-map adapts its chart once.
    """
    src = adapt(phi.source, order)
    dst = src if phi.target == phi.source else adapt(phi.target, order)
    return PolyMap(src.chart, dst.chart, _taylor_components(phi.pullbacks, src, dst))


def jet_action(ac: AdaptedChart, param: str = "t") -> ActionFamily:
    """The reparametrization family: each level-k variable scales by t^k.

    Levels, not chart weights, drive the scaling; on the adapted chart of a
    graded chart this is a second, independent family alongside the one the
    underlying weights induce. It is the model family of graded's one
    builder, _scaling_family, with the levels as powers.
    """
    return _scaling_family(ac.chart, ac.jet_orders, param)


def iota(order: int, chart: GradedChart) -> PolyMap:
    """Embed first-level jets at the top level of a higher adapted chart.

    The image curve is the monomial reparametrization s -> s**order of a
    line, so the top level pulls back to the first-level variable, level 0
    to the base variable, and everything strictly between to zero.
    """
    if _natural(order, "iota target level") < 1:
        raise DomainError("iota needs a target level of at least 1")
    one = adapt(chart, 1)
    top = adapt(chart, order)
    pullbacks: dict[str, WPolynomial] = {}
    for name, base, level in zip(top.chart.names, top.base_names, top.jet_orders):
        if level == 0:
            pullbacks[name] = WPolynomial.variable(one.chart, base)
        elif level == order:
            pullbacks[name] = WPolynomial.variable(one.chart, one.jet_name(base, 1))
        else:
            pullbacks[name] = WPolynomial.zero(one.chart)
    return PolyMap(one.chart, top.chart, pullbacks)


def jet_projection(ac: AdaptedChart, order: int) -> PolyMap:
    """Forget jet levels above the given one.

    The pullback is the inclusion of the lower chart's variables, which all
    exist under the same names in the higher chart.
    """
    if _natural(order, "target level") > ac.order:
        raise DomainError(f"target level {order} outside 0..{ac.order}")
    low = adapt(ac.source, order)
    pullbacks = {
        v: WPolynomial.variable(ac.chart, v) for v in low.chart.names
    }
    return PolyMap(ac.chart, low.chart, pullbacks)


def prolong_action(h: ActionFamily, order: int) -> ActionFamily:
    """Lift a parameter family to the adapted chart, parameter inert.

    The family parameter is not given jet variables; each map of the family
    is prolonged as-is, and the results assemble into a family on the
    adapted chart under the same parameter name.
    """
    src = adapt(h.chart, order)
    entries = _taylor_components(h.entries, src, src, inert=(h.param,))
    return ActionFamily(src.chart, h.param, entries)
