"""Polynomial maps between weighted charts, stored contravariantly.

A PolyMap records, for every target variable, its pullback: a polynomial
over the source chart. Composition is written diagrammatically, `a.then(b)`
or `compose(a, b)` meaning "apply a first, then b"; the pullback of the
composite substitutes a's pullbacks into b's.

An ActionFamily is a one-parameter family of self-maps whose entries are
polynomials in the chart variables and one formal parameter. The standard
family scales every variable by t**weight and fixes weight-0 variables.

A map respects the grading when each pullback is weighted-homogeneous of
its target variable's weight. Homogeneity itself is decided by two
independent routes, scaling substitution and the weighted Euler operator
(WPolynomial.is_homogeneous), which must agree or EngineDefectError is
raised.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import linalg
from .charts import GradedChart, fresh_name
from .errors import (
    ChartMismatchError,
    DomainError,
    EngineDefectError,
    NotInvertibleError,
    SingularMatrixError,
    UnsupportedChartError,
)
from .linalg import Matrix
from .wpoly import Monomial, WPolynomial, _coefficient


@dataclass(frozen=True)
class PolyMap:
    """A polynomial map source -> target, stored through its pullbacks."""

    source: GradedChart
    target: GradedChart
    pullbacks: dict[str, WPolynomial]

    def __post_init__(self) -> None:
        missing = set(self.target.names) - set(self.pullbacks)
        if missing:
            raise DomainError(f"missing pullbacks for {sorted(missing)}")
        extra = set(self.pullbacks) - set(self.target.names)
        if extra:
            raise DomainError(f"pullbacks for unknown variables {sorted(extra)}")
        for var, p in self.pullbacks.items():
            if p.chart is not self.source and p.chart != self.source:
                raise ChartMismatchError(
                    f"pullback of {var!r} lives on chart {p.chart.name!r}, "
                    f"expected {self.source.name!r}"
                )

    @classmethod
    def identity(cls, chart: GradedChart) -> PolyMap:
        return cls(chart, chart, {v: WPolynomial.variable(chart, v) for v in chart.names})

    def pull(self, f: WPolynomial) -> WPolynomial:
        """Pullback of a polynomial on the target chart."""
        if f.chart is not self.target and f.chart != self.target:
            raise ChartMismatchError(
                f"polynomial lives on {f.chart.name!r}, expected {self.target.name!r}"
            )
        return f.substitute(self.pullbacks, into=self.source)

    def then(self, other: PolyMap) -> PolyMap:
        """The composite map: this one first, then `other`."""
        if self.target is not other.source and self.target != other.source:
            raise DomainError(
                f"cannot compose: {self.source.name!r}->{self.target.name!r} "
                f"then {other.source.name!r}->{other.target.name!r}"
            )
        return PolyMap(
            self.source,
            other.target,
            {v: self.pull(p) for v, p in other.pullbacks.items()},
        )

    def is_identity(self) -> bool:
        if self.source is not self.target and self.source != self.target:
            return False
        index_of = self.source.index_of
        return all(p.terms == {((index_of(v), 1),): 1} for v, p in self.pullbacks.items())

    def __str__(self) -> str:
        rules = "; ".join(f"{v} = {self.pullbacks[v]}" for v in self.target.names)
        return f"{self.source.name} -> {self.target.name} {{ {rules} }}"


def compose(psi: PolyMap, phi: PolyMap) -> PolyMap:
    """Apply psi first, then phi; pullbacks substitute psi's into phi's."""
    return psi.then(phi)


@dataclass(frozen=True)
class ActionFamily:
    """A family of self-maps of a chart, polynomial in one formal parameter."""

    chart: GradedChart
    param: str
    entries: dict[str, WPolynomial]

    def __post_init__(self) -> None:
        if self.param in self.chart:
            raise DomainError(f"parameter {self.param!r} collides with a chart variable")
        missing = set(self.chart.names) - set(self.entries)
        if missing:
            raise DomainError(f"missing action entries for {sorted(missing)}")
        extra = set(self.entries) - set(self.chart.names)
        if extra:
            raise DomainError(f"entries for unknown variables {sorted(extra)}")
        ext = self.extended_chart
        for var, p in self.entries.items():
            if p.chart != ext:
                raise ChartMismatchError(
                    f"entry for {var!r} must live on the chart extended by "
                    f"{self.param!r}"
                )

    @cached_property
    def extended_chart(self) -> GradedChart:
        return self.chart.extend(((self.param, 0),))

    @cached_property
    def _zero_map(self) -> PolyMap:
        """The parameter-0 map, evaluated once per family."""
        return self.at(0)

    def at(self, value: Fraction | int) -> PolyMap:
        """The self-map at one rational parameter value.

        The parameter is the last variable of extended_chart, so it is the
        last factor of any monomial that has it, and the chart variables keep
        their indices. A term c * x^m * t^k becomes c * value^k * x^m, read
        off in one pass over the terms, equal monomials merged and zeros
        dropped; no polynomial is substituted. A float value raises
        DomainError.
        """
        value = _coefficient(value)
        n_vars = len(self.chart)
        pullbacks = {}
        for v, p in self.entries.items():
            out: dict[Monomial, Fraction | int] = {}
            for mono, c in p.terms.items():
                if mono and mono[-1][0] == n_vars:
                    c *= value ** mono[-1][1]
                    mono = mono[:-1]
                out[mono] = out.get(mono, 0) + c
            pullbacks[v] = WPolynomial(self.chart, out)  # drops the zeros
        return PolyMap(self.chart, self.chart, pullbacks)

    def with_param(self, param: str) -> ActionFamily:
        """The same family written with a different parameter name.

        The parameter is the last variable of both extended charts, so every
        index stays where it is: each entry's terms are re-wrapped, unchanged,
        on the new extended chart.
        """
        if param == self.param:
            return self
        if param in self.chart:
            raise DomainError(f"parameter {param!r} collides with a chart variable")
        ext_new = self.chart.extend(((param, 0),))
        return ActionFamily(
            self.chart,
            param,
            {v: WPolynomial(ext_new, p.terms) for v, p in self.entries.items()},
        )

    def __str__(self) -> str:
        rules = "; ".join(f"{v} -> {self.entries[v]}" for v in self.chart.names)
        return f"{self.chart.name}[{self.param}] {{ {rules} }}"


def standard_action(chart: GradedChart, param: str = "t") -> ActionFamily:
    """Scale each variable by param**weight; weight-0 variables stay fixed."""
    param = fresh_name(param, chart.names)
    ext = chart.extend(((param, 0),))
    tvar = WPolynomial.variable(ext, param)
    entries = {
        v: tvar ** chart.weight_of(v) * WPolynomial.variable(ext, v)
        for v in chart.names
    }
    return ActionFamily(chart, param, entries)


def is_graded_morphism(psi: PolyMap) -> bool:
    """True when every pullback is homogeneous of its target variable's weight.

    Each test runs both of is_homogeneous's routes, scaling and Euler. A
    third route, intertwining the two standard families symbolically, is
    not run: p(t^w . x) == t^r . p(x) over the source chart is the scaling
    route's identity on the same chart, so it could never disagree.
    """
    target = psi.target
    return all(
        psi.pullbacks[v].is_homogeneous(target.weight_of(v)) for v in target.names
    )


def invert_automorphism(psi: PolyMap) -> PolyMap:
    """Inverse of a graded self-map, by weight-filtered back-substitution.

    For each weight r in increasing order the pullbacks split into a linear
    block in the weight-r variables plus corrections in lower weights; the
    block is inverted exactly and the corrections are pushed through the
    already-built inverse. The weight-0 block must be affine and every linear
    block must have constant rational coefficients, otherwise there is no
    polynomial inverse in the supported class.

    One composite is checked: psi.then(inverse) is the identity, that is
    psi^* o inverse^* = id. Then psi^* is a surjective endomorphism of the
    chart's polynomial ring, which is Noetherian, so psi^* is also injective
    (the kernels of its powers stop growing; cf. Matsumura, Commutative
    Ring Theory, Thm 2.4), and psi^* inverse^* psi^* = psi^* gives
    inverse^* o psi^* = id. A wrong inverse still raises EngineDefectError.
    """
    if psi.source != psi.target:
        raise DomainError("only self-maps of one chart can be inverted here")
    if not is_graded_morphism(psi):
        raise DomainError("the map does not respect the weights")
    chart = psi.source
    inv: dict[str, WPolynomial] = {}
    for w in sorted(set(chart.weights)):
        block_vars = [v for v in chart.names if chart.weight_of(v) == w]
        block_monos = [((chart.index_of(u), 1),) for u in block_vars]
        rows: list[list[Fraction]] = []
        residues: list[WPolynomial] = []
        for v in block_vars:
            p = psi.pullbacks[v]
            row = [Fraction(p.terms.get(m, 0)) for m in block_monos]
            residue = WPolynomial(
                chart, {m: c for m, c in p.terms.items() if m not in block_monos}
            )
            if w == 0:
                if residue.total_degree() > 0:
                    raise NotInvertibleError(
                        f"pullback of weight-0 variable {v!r} is not affine"
                    )
            else:
                for u in residue.variables():
                    if chart.weight_of(u) >= w:
                        raise NotInvertibleError(
                            f"pullback of {v!r} has a non-constant linear block "
                            f"(term mixing {u!r})"
                        )
            rows.append(row)
            residues.append(residue)
        try:
            binv = linalg.inverse(tuple(tuple(r) for r in rows))
        except SingularMatrixError as exc:
            raise NotInvertibleError(
                f"weight-{w} linear block is singular: {exc}"
            ) from exc
        solved_residues = [
            r.substitute(inv, into=chart) if r.terms else r for r in residues
        ]
        for i, v in enumerate(block_vars):
            acc = WPolynomial.zero(chart)
            for j, u in enumerate(block_vars):
                part = WPolynomial.variable(chart, u) - solved_residues[j]
                acc = acc + part * binv[i][j]
            inv[v] = acc
    result = PolyMap(chart, chart, inv)
    if not psi.then(result).is_identity():
        raise EngineDefectError("back-substitution produced a wrong inverse")
    return result


def matrix_representation(psi: PolyMap) -> Matrix:
    """Exact matrix of the pullback on the degree-up-to-2 monomial span.

    The basis is: weight-1 variables in declaration order, then weight-2
    variables, then the products x_i*x_j with i <= j ordered lexicographically
    by declaration position. Columns hold the expansions of the pullbacks of
    the basis monomials. Charts of degree above 2 or with weight-0 variables
    are not supported; they are refused before gradedness is decided.
    """
    _matrix_chart(psi)
    if not is_graded_morphism(psi):
        raise DomainError("the map does not respect the weights")
    return _graded_matrix(psi)


def _matrix_chart(psi: PolyMap) -> GradedChart:
    """The chart of a self-map the matrix model supports; raises otherwise."""
    if psi.source != psi.target:
        raise DomainError("matrix representation needs a self-map")
    chart = psi.source
    if chart.degree > 2:
        raise UnsupportedChartError(
            f"chart degree {chart.degree} exceeds 2; no faithful matrix model here"
        )
    if any(w == 0 for w in chart.weights):
        raise UnsupportedChartError("weight-0 variables are not supported here")
    return chart


def _graded_matrix(psi: PolyMap) -> Matrix:
    """matrix_representation of a map whose gradedness is already decided.

    Callers that have just decided it (is_graded_morphism's test) use this
    to avoid deciding it a second time; the chart checks still apply.
    """
    chart = _matrix_chart(psi)
    xs = [v for v in chart.names if chart.weight_of(v) == 1]
    ys = [v for v in chart.names if chart.weight_of(v) == 2]
    pairs = [(i, j) for i in range(len(xs)) for j in range(i, len(xs))]
    dim = len(xs) + len(ys) + len(pairs)
    slot: dict[tuple, int] = {}
    for a, v in enumerate(xs):
        slot[("x", v)] = a
    for b, v in enumerate(ys):
        slot[("y", v)] = len(xs) + b
    for c, (i, j) in enumerate(pairs):
        slot[("z", i, j)] = len(xs) + len(ys) + c

    def expand(p: WPolynomial) -> list[Fraction]:
        col = [Fraction(0)] * dim
        names = chart.names
        for mono, coeff in p.terms.items():
            if len(mono) == 1 and mono[0][1] == 1:
                v = names[mono[0][0]]
                key = ("x", v) if chart.weight_of(v) == 1 else ("y", v)
            elif len(mono) == 1 and mono[0][1] == 2:
                i = xs.index(names[mono[0][0]])
                key = ("z", i, i)
            elif len(mono) == 2 and mono[0][1] == 1 and mono[1][1] == 1:
                i = xs.index(names[mono[0][0]])
                j = xs.index(names[mono[1][0]])
                key = ("z", min(i, j), max(i, j))
            else:
                raise EngineDefectError(f"unexpected monomial in graded pullback: {p}")
            col[slot[key]] += coeff
        return col

    cols: list[list[Fraction]] = []
    for v in xs:
        cols.append(expand(psi.pullbacks[v]))
    for v in ys:
        cols.append(expand(psi.pullbacks[v]))
    for i, j in pairs:
        cols.append(expand(psi.pullbacks[xs[i]] * psi.pullbacks[xs[j]]))
    return linalg.mat_from_cols(cols)


def truncate(chart: GradedChart, k: int) -> tuple[GradedChart, PolyMap]:
    """The sub-chart of weights <= k and the projection onto it.

    The projection goes from the full chart to the truncated one; its
    pullback is the inclusion of coordinates. Truncating at the full degree
    returns the chart itself with the identity.
    """
    if k < 0 or k > chart.degree:
        raise DomainError(f"truncation level {k} outside 0..{chart.degree}")
    if k == chart.degree:
        return chart, PolyMap.identity(chart)
    sub = chart.restrict(
        [v for v, w in chart.variables if w <= k], name=f"{chart.name}_le{k}"
    )
    proj = PolyMap(chart, sub, {v: WPolynomial.variable(chart, v) for v in sub.names})
    return sub, proj


def truncate_map(psi: PolyMap, k: int) -> PolyMap:
    """Restriction of a graded map to the weight-<=k truncations."""
    if not is_graded_morphism(psi):
        raise DomainError("only graded maps descend to truncations")
    src, _ = truncate(psi.source, min(k, psi.source.degree))
    dst, _ = truncate(psi.target, min(k, psi.target.degree))
    pulls = {v: psi.pullbacks[v].restrict_chart(src) for v in dst.names}
    return PolyMap(src, dst, pulls)


def weight_field(chart: GradedChart) -> tuple[tuple[str, WPolynomial], ...]:
    """Coefficients of the weight vector field: each variable times its weight."""
    return tuple(
        (v, WPolynomial.variable(chart, v) * chart.weight_of(v)) for v in chart.names
    )
