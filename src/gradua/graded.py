"""Polynomial maps between weighted charts, stored contravariantly.

A PolyMap records, for every target variable, its pullback: a polynomial
over the source chart. Composition is written diagrammatically, `a.then(b)`
or `compose(a, b)` meaning "apply a first, then b"; the pullback of the
composite substitutes a's pullbacks into b's.

An ActionFamily is a one-parameter family of self-maps whose entries are
polynomials in the chart variables and one formal parameter. The model
family x_i -> t**p_i * x_i has one builder, _scaling_family, on the term
dicts of wpoly._scaling_terms: the standard family (p_i the weights, so
weight-0 variables stay fixed) and jets.jet_action (p_i the jet levels)
are both made by it.
The parameter is the last variable of the family's extended chart, at index
n = len(chart), so it is the last factor of every monomial that has it.
A parameter is a slot, not a name: composites of families, the semigroup
law's h_t o h_s, the commutation of two families, their total family and
the homogenizer's composite, all have one builder, _compose_families, which
puts family i's parameter at the index slots[i] the caller passes, so no
family is renamed to be composed and families given one slot share a
parameter. One reader, _split, writes a family or a composite by its
powers of the parameters: ActionFamily.at sums value^k times the t^k part
and action.euler_field k times it. A family keeps no evaluated map: at
builds one when it is called, and action.base_projection is the one route
to h_0. Names are kept only where a witness is printed.

A map respects the grading when each pullback is weighted-homogeneous of
its target variable's weight. _graded_failures decides this for all the
pullbacks in one call of wpoly._homogeneity_failures, by two independent
routes, scaling substitution and the weighted Euler operator, which must
agree or EngineDefectError is raised.

Polynomial maps are inverted by one kernel, the bounded Picard pass of
_invert_coordinate_change. It inverts graded automorphisms here
(invert_automorphism) and the homogenizer of action's certificate. The
pass iterates on its residual phi(x) - y and certifies an iterate only by
a zero residual; its checked premise proves the negative verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
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
    Monomial, Terms, WPolynomial, _coefficient, _homogeneity_failures, _mono_total_degree,
    _natural, _scaling_terms, _terms_combine, _terms_mul, _terms_substitute,
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

    def then(self, other: PolyMap) -> PolyMap:
        """The composite map: this one first, then `other`.

        One pass of the substitution kernel (wpoly._terms_substitute) pushes
        all of other's pullbacks through this map's, which are complete and
        live on one chart, so no image needs checking again.
        """
        if self.target is not other.source and self.target != other.source:
            raise DomainError(
                f"cannot compose: {self.source.name!r}->{self.target.name!r} "
                f"then {other.source.name!r}->{other.target.name!r}"
            )
        images = [self.pullbacks[v].terms for v in self.target.names]
        pulled = _terms_substitute([p.terms for p in other.pullbacks.values()], images)
        pullbacks = {v: WPolynomial(self.source, t) for v, t in zip(other.pullbacks, pulled)}
        return PolyMap(self.source, other.target, pullbacks)

    def is_identity(self) -> bool:
        if self.source is not self.target and self.source != self.target:
            return False
        index_of = self.source.index_of
        return all(p.terms == {((index_of(v), 1),): 1} for v, p in self.pullbacks.items())


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
        # extended_chart is the chart followed by the parameter at weight 0;
        # a family whose entries were built on that chart takes theirs
        # rather than building it again
        variables = self.chart.variables + ((self.param, 0),)
        first = next(iter(self.entries.values()), None)
        if (
            first is not None
            and first.chart.name == self.chart.name
            and first.chart.variables == variables
        ):
            ext = first.chart
        else:
            ext = GradedChart(self.chart.name, variables)
        object.__setattr__(self, "extended_chart", ext)
        for var, p in self.entries.items():
            if p.chart is not ext and p.chart != ext:
                raise ChartMismatchError(
                    f"entry for {var!r} must live on the chart extended by "
                    f"{self.param!r}"
                )

    def at(self, value: Fraction | int) -> PolyMap:
        """The self-map at one rational parameter value.

        Each entry is split by its power of the parameter (_split), and the
        pullback is sum value^k * part_k, one linear combination
        (wpoly._terms_combine) with equal monomials merged and zeros
        dropped; no polynomial is substituted. A float value raises
        DomainError.
        """
        value = _coefficient(value)
        parts = _split([p.terms for p in self.entries.values()], len(self.chart), 1)
        return PolyMap(self.chart, self.chart, {
            v: WPolynomial(self.chart, _terms_combine((value**k, p) for (k,), p in split.items()))
            for v, split in zip(self.entries, parts)
        })

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


def _compose_families(families: Sequence[ActionFamily], slots: Sequence[int]) -> list[Terms]:
    """Term dicts of the composite family, one per chart variable in chart
    order: families[-1] is applied first and families[0] last.

    The families share one chart of n variables, and family i's parameter
    is the variable of index slots[i] >= n of the composite's monomials, so
    families given one slot share a parameter; no chart is built. The
    innermost family moves to its slot by re-indexing its parameter factor,
    (n, k) -> (slots[-1], k): the parameter is the last factor of any
    monomial that has it, and every slot comes after every chart index, so
    the monomial stays sorted. Each outer family is one pass of the
    substitution kernel (wpoly._terms_substitute) over all its entries: its
    chart variables go to the composite so far and its parameter, at index
    n of its extended chart, to its slot.
    """
    names = families[0].chart.names
    n_vars = len(names)
    at = slots[-1]
    composite: list[Terms] = [families[-1].entries[v].terms for v in names]
    if at != n_vars:
        composite = [
            {
                (m[:-1] + ((at, m[-1][1]),) if m and m[-1][0] == n_vars else m): c
                for m, c in terms.items()
            }
            for terms in composite
        ]
    for h, at in zip(reversed(families[:-1]), reversed(slots[:-1])):
        images = [*composite, {((at, 1),): 1}]
        composite = _terms_substitute([h.entries[v].terms for v in names], images)
    return composite


def _split(
    composite: Sequence[Terms], n_vars: int, k: int
) -> list[dict[tuple[int, ...], dict[Monomial, Fraction | int]]]:
    """Each term dict of a composite of k families, split by its multi-index
    of parameter exponents: the one reader of a family by parameter power.

    Parameter j sits at index n_vars + j (the slots of _compose_families),
    after every chart index, so in every sorted monomial the parameter
    factors come last. Cutting each monomial where they begin writes it
    once as a monomial over the chart, with the same indices, times the
    multi-index m with m_j the exponent at index n_vars + j. A family's own
    entries are its composite for k = 1, with t at index n_vars.
    """
    parts = []
    for terms in composite:
        split: dict[tuple[int, ...], dict[Monomial, Fraction | int]] = {}
        for mono, c in terms.items():
            exps = [0] * k
            cut = len(mono)
            while cut and mono[cut - 1][0] >= n_vars:
                cut -= 1
                i, e = mono[cut]
                exps[i - n_vars] = e
            split.setdefault(tuple(exps), {})[mono[:cut]] = c
        parts.append(split)
    return parts


def _scaling_family(chart: GradedChart, powers: Sequence[int], param: str) -> ActionFamily:
    """The family x_i -> param**powers[i] * x_i, param made fresh for chart.

    The entries are the term dicts of wpoly._scaling_terms: the parameter is
    at index len(chart), where the extended chart puts it.
    """
    param = fresh_name(param, chart.names)
    ext = chart.extend(((param, 0),))
    terms = _scaling_terms(powers)
    return ActionFamily(chart, param, {v: WPolynomial(ext, m) for v, m in zip(chart.names, terms)})


def standard_action(chart: GradedChart, param: str = "t") -> ActionFamily:
    """Scale each variable by param**weight; weight-0 variables stay fixed."""
    return _scaling_family(chart, chart.weights, param)


def _graded_failures(psi: PolyMap) -> list[str]:
    """The target variables, in chart order, whose pullbacks are not
    homogeneous of their weight: one call of wpoly._homogeneity_failures
    over all the pullbacks, so one pass of the scaling kernel per map."""
    names = psi.target.names
    pulled = [psi.pullbacks[v].terms for v in names]
    return [names[i] for i in _homogeneity_failures(psi.source, pulled, psi.target.weights)]


def is_graded_morphism(psi: PolyMap) -> bool:
    """True when every pullback is homogeneous of its target variable's weight.

    _graded_failures decides it, by both of the homogeneity routes, scaling
    and Euler, for all the pullbacks at once; the check-morphism command
    reads the same helper to list the failures. A third route, intertwining
    the two standard families symbolically, is not run: p(t^w . x) == t^r .
    p(x) over the source chart is the scaling route's identity on the same
    chart, so it could never disagree.
    """
    return not _graded_failures(psi)


def invert_automorphism(psi: PolyMap) -> PolyMap:
    """Inverse of a graded self-map, from the Picard pass of
    _invert_coordinate_change.

    Weight by weight, the pullbacks of the weight-w variables must be a
    linear block B_w in those variables plus terms in lower weights only;
    the weight-0 block must be affine, and every B_w constant and
    invertible. Otherwise there is no polynomial inverse in the supported
    class, and NotInvertibleError is raised. The checks build what the pass
    takes: theta, the block-diagonal B_w^-1 as C (each block inverted over
    ints by linalg._inverse), and the chart degree as the bound, with the
    block-diagonal B_w, the derivative at theta, for the premise: B C = I
    is decided on the integer forms by linalg._is_inverse, and
    EngineDefectError is raised when it fails; the kernel gets C alone, in
    stored sparse rows (linalg._stored). The kernel's docstring proves that
    these are right. The checks also guarantee a triangular inverse, so any
    failure of the pass is an EngineDefectError.
    """
    if psi.source != psi.target:
        raise DomainError("only self-maps of one chart can be inverted here")
    if not is_graded_morphism(psi):
        raise DomainError("the map does not respect the weights")
    chart = psi.source
    names, weights = chart.names, chart.weights
    constants = [psi.pullbacks[v].terms.get((), 0) for v in names]  # 0 if w > 0
    blocks = []  # per block: its indices, B_w and B_w^-1 as integer forms
    for w in sorted(set(weights)):
        block = [i for i, u in enumerate(weights) if u == w]
        linear = {((j, 1),) for j in block}
        b_w = []  # read off psi
        for i in block:
            terms = psi.pullbacks[names[i]].terms
            b_w.append([terms.get(((j, 1),), 0) for j in block])
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
        scaled = linalg._scaled(b_w)
        try:
            blocks.append((block, scaled, linalg._inverse(scaled)))
        except SingularMatrixError as exc:
            raise NotInvertibleError(
                f"weight-{w} linear block is singular: {exc}"
            ) from exc
    d_all = lcm(*(d for _, (_, d), _ in blocks))
    e_all = lcm(*(e for _, _, (_, e) in blocks))
    derivative: list[dict[int, int]] = [{} for _ in names]  # the B_w
    basis: list[dict[int, int]] = [{} for _ in names]  # the B_w^-1
    theta = {}  # B_w theta_w + constants_w = 0, so 0 in every positive weight
    for block, (b_rows, d), (rows, e) in blocks:
        for i, b_row, row in zip(block, b_rows, rows):
            derivative[i] = {block[j]: x * (d_all // d) for j, x in b_row.items()}
            basis[i] = {block[j]: x * (e_all // e) for j, x in row.items()}
            shift = sum(x * constants[block[j]] for j, x in row.items())
            theta[names[i]] = _coefficient(Fraction(-shift, e)) if shift else 0
    if not linalg._is_inverse((derivative, d_all), (basis, e_all)):
        raise EngineDefectError("the Picard pass needs cinv * C = I, which fails")
    try:
        return _invert_coordinate_change(psi, theta, linalg._stored((basis, e_all)), chart.degree)
    except NotGradedActionError as exc:
        raise EngineDefectError(f"a graded automorphism was not inverted: {exc}") from exc


def _invert_coordinate_change(
    phi: PolyMap,
    theta: Mapping[str, Fraction | int],
    basis: Sequence[Mapping[int, Fraction | int]],
    degree: int,
) -> PolyMap:
    """Exact inverse of a polynomial map phi, from one bounded Picard pass.

    This is the one inverse kernel: the homogenizer of action._joint_certificate
    and the graded automorphisms of invert_automorphism are inverted here.
    phi maps the chart of x to a chart of y with as many variables, theta is
    a point with phi(theta) = 0 and basis is a matrix C, the inverse of the
    derivative of phi at theta. C comes in stored sparse rows, {column:
    nonzero entry} with each entry an int when integral (see wpoly), from
    the caller's premise check. degree is a bound D on the total
    degree of the inverse, used when every weight of the y chart is at
    least 1.

    - The pass. Write L = C^-1 for the derivative of phi at theta and N =
      phi - L (x - theta), of order >= 2 at theta. Round k of x = theta + C
      (y - N(x)) from x = theta, truncated at total degree k, is the
      degree-k truncation of the formal inverse psi. The pass runs it on
      its residual: x_1 = theta + C y, and x_k = x_(k-1) - C trunc_k R_k
      with R_k = phi(x_(k-1)) - y. Both give the same x_k: if x_(k-1) =
      theta + C (y - T) with T of total degree at most k - 1, then R_k =
      L C (y - T) + N(x_(k-1)) - y = N(x_(k-1)) - T, since L C = I (C L = I
      is checked, and C is square), so x_k = theta + C (y - trunc_k
      N(x_(k-1))).
    - The certificate. R_k = 0 says phi o x_(k-1) = id: the iterate is
      returned, certified by that equality alone. A positive verdict rests
      on no premise.
    - The premise, checked. C L = I is decided exactly on the integer
      forms before either caller calls the kernel, by linalg._is_inverse
      (in invert_automorphism, and in action._checked_basis for the
      homogenizer), and EngineDefectError is raised when it fails. It
      proves the negative verdicts only: with it, the iterates are the
      truncations of psi, so the pass reaches psi, and R = 0, by round
      D + 1 whenever an inverse of total degree at most D exists.
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
      stops at x_D and a failure there is an engine defect
      (EngineDefectError). Otherwise a polynomial inverse of phi, if any,
      has total degree at most deg(phi)^(n-1) (Bass, Connell and Wright,
      Bull. AMS 7 (1982), Thm 1.5), so a failure at that round proves that
      phi has none (NotGradedActionError).

    Each caller's inputs meet these conditions:

    - The homogenizer phi of k commuting monoid families fixing theta.
      phi(theta) = 0, from scaling at t = 0. C is the basis matrix, and its
      inverse is read off the rank factors (proof in
      action._homogenize_joint). C^-1 is the derivative of phi at theta:
      phi_i is row i of C^-1 applied to the m-coefficient of the
      composite, m being phi_i's multi-index, so its derivative at theta
      is C^-1_i P_m, P_m being the joint projection read off the
      composite's derivative there. C^-1_i P_m c_j = delta_ij if c_j lies
      in the image of P_m, else 0, and C^-1_i c_j = delta_ij, so C^-1_i P_m
      = C^-1_i. D is the largest summed parameter exponent of the
      families' composite. With every parameter set to t, h_t^* x_v =
      psi_v(t^w phi) = sum_m c_m t^(w.m) phi^m has t-degree at most D.
      Each d = w.m has finitely many m and the phi^m are linearly
      independent, so c_m = 0 for w.m > D: psi has
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
    positive = all(phi.target.weights)
    if positive:
        limit = degree
    else:
        phi_degree = max(p.total_degree() for p in phi.pullbacks.values())
        limit = phi_degree ** (len(phi.source) - 1)
    inverse, exact = _picard_inverse(phi, theta, basis, limit)
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
    basis: Sequence[Mapping[int, Fraction | int]],
    limit: int,
) -> tuple[PolyMap, bool]:
    """The iterates x_1 = theta + C y and x_k = x_(k-1) - C trunc_k R_k, R_k =
    phi(x_(k-1)) - y, up to x_limit.

    basis is C in stored sparse rows, {column: nonzero entry}, so x_1 and
    the columns of -C are read off its nonzero entries alone. Returns the
    last iterate and whether it inverts phi. Each round pushes
    phi's rows through the iterate in one pass of the substitution kernel
    (wpoly._terms_substitute) and subtracts y, giving the residual. A zero
    residual returns the iterate as certified; otherwise x_k is x_(k-1)
    minus one linear combination of the nonzero rows of trunc_k R_k per
    coordinate. So rounds 2 .. limit + 1 check x_1 .. x_limit, and the
    iterates stay term dicts until the last one is returned. The proofs are
    in _invert_coordinate_change.
    """
    chart, new_chart = phi.source, phi.target
    names = chart.names
    iterate = []  # x_1 = theta + C y
    for v, row in zip(names, basis):
        terms = {((j, 1),): a for j, a in row.items()}
        if theta[v]:
            terms[()] = _coefficient(theta[v])
        iterate.append(terms)
    columns = [[(j, -a) for j, a in row.items()] for row in basis]  # -C
    rows = [phi.pullbacks[v].terms for v in new_chart.names]
    k = 1  # the iterate is x_k
    while True:
        residual = _terms_substitute(rows, iterate)
        for j, r in enumerate(residual):  # minus y_j
            c = r.pop(((j, 1),), 0) - 1
            if c:
                r[((j, 1),)] = c
        exact = not any(residual)
        if exact or k >= limit:
            break
        k += 1
        trunc = {}
        for j, r in enumerate(residual):
            kept = {m: c for m, c in r.items() if _mono_total_degree(m) <= k}
            if kept:
                trunc[j] = kept
        for x, col in zip(iterate, columns):  # x_k, in place of x_(k-1)
            _terms_combine(((a, trunc[j]) for j, a in col if j in trunc), x)
    candidate = PolyMap(
        new_chart, chart, {v: WPolynomial(new_chart, x) for v, x in zip(names, iterate)}
    )
    return candidate, exact


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
    to avoid deciding it a second time; the chart checks still apply. The
    basis is held as monomial keys and each column is read off a term dict;
    a monomial outside the basis is an EngineDefectError.
    """
    chart = _matrix_chart(psi)
    xs = [i for i, w in enumerate(chart.weights) if w == 1]
    ys = [i for i, w in enumerate(chart.weights) if w == 2]
    pairs = [(i, j) for a, i in enumerate(xs) for j in xs[a:]]
    basis = [((i, 1),) for i in xs + ys]
    basis += [((i, 2),) if i == j else ((i, 1), (j, 1)) for i, j in pairs]
    pulled = [psi.pullbacks[v].terms for v in chart.names]
    cols = [pulled[i] for i in xs + ys]
    cols += [_terms_mul(pulled[i], pulled[j]) for i, j in pairs]
    known = set(basis)
    for terms in cols:
        if not known.issuperset(terms):
            raise EngineDefectError(
                f"unexpected monomial in graded pullback: {WPolynomial(chart, terms)}"
            )
    return linalg.mat_from_cols([[terms.get(m, 0) for m in basis] for terms in cols])


def truncate(chart: GradedChart, k: int) -> tuple[GradedChart, PolyMap]:
    """The sub-chart of weights <= k and the projection onto it.

    The projection goes from the full chart to the truncated one; its
    pullback is the inclusion of coordinates. Truncating at the full degree
    returns the chart itself with the identity.
    """
    if _natural(k, "truncation level") > chart.degree:
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
