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

Polynomial maps are inverted by one kernel, the bounded Picard pass of
_invert_coordinate_change. It inverts graded automorphisms here
(invert_automorphism) and the homogenizer of action's certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Sequence

from . import linalg
from .charts import GradedChart, fresh_name
from .errors import (
    ChartMismatchError,
    DomainError,
    EngineDefectError,
    NotGradedActionError,
    NotInvertibleError,
    SingularMatrixError,
    UnsupportedChartError,
)
from .linalg import Matrix
from .wpoly import (
    Monomial, WPolynomial, _coefficient, _exact, _mono_total_degree, _terms_combine
)


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
    """Inverse of a graded self-map, from the Picard pass of
    _invert_coordinate_change.

    Weight by weight, the pullbacks of the weight-w variables must be a
    linear block B_w in those variables plus terms in lower weights only;
    the weight-0 block must be affine, and every B_w constant and
    invertible. Otherwise there is no polynomial inverse in the supported
    class, and NotInvertibleError is raised. The checks build what the pass
    takes: theta, the block-diagonal B_w as the derivative at theta, the
    block-diagonal B_w^-1 as C, and the chart degree as the bound. The
    kernel's docstring proves that these are right. The checks also
    guarantee a triangular inverse, so any failure of the pass is an
    EngineDefectError.
    """
    if psi.source != psi.target:
        raise DomainError("only self-maps of one chart can be inverted here")
    if not is_graded_morphism(psi):
        raise DomainError("the map does not respect the weights")
    chart = psi.source
    names, weights = chart.names, chart.weights
    constants = [psi.pullbacks[v].terms.get((), 0) for v in names]  # 0 if w > 0
    cinv = [[0] * len(names) for _ in names]  # the B_w, read off psi
    basis = [[0] * len(names) for _ in names]  # the B_w^-1
    theta = {}  # B_w theta_w + constants_w = 0, so 0 in every positive weight
    for w in sorted(set(weights)):
        block = [i for i, u in enumerate(weights) if u == w]
        linear = {((j, 1),) for j in block}
        for i in block:
            terms = psi.pullbacks[names[i]].terms
            for j in block:
                cinv[i][j] = terms.get(((j, 1),), 0)
            residue = [m for m in terms if m not in linear]
            if w == 0 and any(residue):
                raise NotInvertibleError(
                    f"pullback of weight-0 variable {names[i]!r} is not affine"
                )
            mixing = sorted(u for m in residue for u, _ in m if weights[u] >= w)
            if mixing:
                raise NotInvertibleError(
                    f"pullback of {names[i]!r} has a non-constant linear block "
                    f"(term mixing {names[mixing[0]]!r})"
                )
        b_w = tuple(tuple(_exact(cinv[i][j]) for j in block) for i in block)
        try:
            binv = linalg.inverse(b_w)
        except SingularMatrixError as exc:
            raise NotInvertibleError(
                f"weight-{w} linear block is singular: {exc}"
            ) from exc
        for i, row in zip(block, binv):
            for j, c in zip(block, row):
                basis[i][j] = _coefficient(c)
            theta[names[i]] = -sum(c * constants[j] for j, c in zip(block, row))
    try:
        return _invert_coordinate_change(psi, theta, basis, cinv, chart.degree)
    except NotGradedActionError as exc:
        raise EngineDefectError(f"a graded automorphism was not inverted: {exc}") from exc


def _invert_coordinate_change(
    phi: PolyMap,
    theta: Mapping[str, Fraction | int],
    basis: Matrix,
    cinv: Matrix,
    degree: int,
) -> PolyMap:
    """Exact inverse of a polynomial map phi, from one bounded Picard pass.

    This is the one inverse kernel: the homogenizer of action._joint_certificate
    and the graded automorphisms of invert_automorphism are inverted here.
    phi maps the chart of x to a chart of y with as many variables, theta is
    a point with phi(theta) = 0, cinv is the derivative of phi at theta and
    basis is a matrix C. Both matrices are best given in stored form (int
    when integral, see wpoly). degree is a bound D on the total degree of
    the inverse, used when every weight of the y chart is at least 1.

    - The premise, checked. cinv C = I is decided exactly, over ints
      (linalg.is_inverse), and EngineDefectError is raised when it fails.
      The settle certificate below rests on it: with a wrong C it would
      accept a wrong inverse.
    - The pass. N = phi - cinv (x - theta) has order >= 2 at theta, so round
      k of x = theta + C (y - N(x)) from x = theta, truncated at total degree
      k, is the degree-k truncation of the formal inverse psi.
    - The settle certificate. Round k substitutes x_(k-1) into N in full,
      giving F, and then sets x_k = theta + C (y - trunc_k F). If the round
      settles (x_k = x_(k-1)), then N(x_k) = F and phi(x_k) = cinv (x_k -
      theta) + N(x_k) = cinv C (y - trunc_k F) + F = y + (F - trunc_k F). So
      phi o x_k = id exactly when F has no term of total degree above k,
      and the round is certified with no composite; otherwise the pass goes
      on. A pass that reaches its limit unsettled checks the composite
      x_k.then(phi), phi at the iterate.
    - One side proves both. phi o psi = id says psi^* o phi^* = id on Q[y],
      so psi^* : Q[x] -> Q[y] is onto. As x and y are equally many,
      renaming x to y makes psi^* a surjective endomorphism of Q[y]. A
      surjective endomorphism f of a Noetherian ring is injective (cf.
      Matsumura, Commutative Ring Theory, Thm 2.4): the chain ker f^m stops
      growing, say at m, and if f(a) = 0 then a = f^m(b) with f^(m+1)(b) =
      0, so b lies in ker f^m and a = 0. psi^* phi^* psi^* = psi^* and psi^*
      is injective, so phi^* o psi^* = id as well: psi o phi = id. (The
      homogenizer checks that it has as many coordinates as the chart; an
      automorphism is a self-map.)
    - The limits. If every weight of the y chart is at least 1, the pass
      stops at round D and a failure there is an engine defect
      (EngineDefectError). Otherwise a polynomial inverse of phi, if any,
      has total degree at most deg(phi)^(n-1) (Bass, Connell and Wright,
      Bull. AMS 7 (1982), Thm 1.5), so a failure at that round proves that
      phi has none (NotGradedActionError).

    Each caller's inputs meet these conditions:

    - The homogenizer phi of k commuting monoid families fixing theta.
      phi(theta) = 0, from scaling at t = 0. C is the basis matrix and cinv
      its inverse, the derivative of phi at theta: row i of cinv is C^-1_i P
      for the joint projection P of phi_i's multi-index, and C^-1_i P c_j =
      delta_ij if c_j lies in the image of P, else 0. D is the largest
      summed parameter exponent of the families' composite. With every
      parameter set to t, h_t^* x_v = psi_v(t^w phi) = sum_m c_m t^(w.m)
      phi^m has t-degree at most D. Each d = w.m has finitely many m and the
      phi^m are linearly independent, so c_m = 0 for w.m > D: psi has
      weighted, hence total, degree <= D. The families are commuting
      monoid families whenever a failure of the pass is reported, since
      action._homogenize_joint's direct checks run first.
    - A graded automorphism psi that passed invert_automorphism's checks.
      theta solves the affine weight-0 block and is 0 in every positive
      weight. A pullback of weight w >= 1 is B_w times its block plus terms
      in lower weights, and each such term has at least two factors of
      positive weight, counted with multiplicity. So every one of its
      terms vanishes at theta, and all but the linear block vanish there
      to first order: psi(theta) = 0, and the derivative at theta is the
      block-diagonal B_w (B_0 on the affine block). C is the block-diagonal
      B_w^-1. The inverse exists and is graded, so psi^-1_v is homogeneous
      of weight w_v. When every weight is at least 1 its total degree is
      at most w_v, so D is the chart degree.
    """
    if not linalg.is_inverse(cinv, basis):
        raise EngineDefectError("the Picard pass needs cinv * C = I, which fails")
    chart = phi.source
    shift = [  # x_j - theta_j
        {((j, 1),): 1, (): -_coefficient(theta[v])} if theta[v] else {((j, 1),): 1}
        for j, v in enumerate(chart.names)
    ]
    nonlinear = []  # N = phi - cinv (x - theta), one combination per row
    for v, row in zip(phi.target.names, cinv):
        pairs = ((-a, z) for a, z in zip(row, shift))
        terms = _terms_combine(pairs, dict(phi.pullbacks[v].terms))
        nonlinear.append(WPolynomial(chart, terms))

    positive = all(phi.target.weights)
    if positive:
        limit = degree
    else:
        phi_degree = max(p.total_degree() for p in phi.pullbacks.values())
        limit = phi_degree ** (len(chart) - 1)
    inverse, exact = _picard_inverse(phi, theta, basis, nonlinear, max(limit, 1))
    if exact:
        return inverse
    if positive:
        raise EngineDefectError(
            f"the map has no inverse of total degree <= {limit}"
        )
    raise NotGradedActionError(
        f"no polynomial inverse of total degree <= {limit} exists "
        "(the Bass-Connell-Wright bound)"
    )


def _picard_inverse(
    phi: PolyMap,
    theta: Mapping[str, Fraction | int],
    basis: Matrix,
    nonlinear: Sequence[WPolynomial],
    limit: int,
) -> tuple[PolyMap, bool]:
    """Rounds k = 1 .. limit of x = theta + C (y - N(x)), truncated at degree k.

    Returns the last iterate and whether it inverts phi. Round k substitutes
    the previous iterate into N in full, giving F, before it truncates. A
    round that settles is certified from F alone (the proof is in
    _invert_coordinate_change): the iterate inverts phi exactly when F has
    no term of total degree above k. A pass that reaches the limit
    unsettled checks the composite candidate.then(phi).

    Each iterate is one linear combination of term dicts per coordinate,
    with theta in stored form, and trunc_k F is read off F's terms.
    """
    chart, new_chart = phi.source, phi.target
    names = chart.names
    rhs = ys = [{((j, 1),): 1} for j in range(len(new_chart))]
    start = [{(): _coefficient(theta[v])} if theta[v] else {} for v in names]
    guesses: list[WPolynomial] = []
    for k in range(1, limit + 1):
        within = True  # no term of F above total degree k
        if guesses:  # round 1 needs no substitution: N(theta) = 0
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
