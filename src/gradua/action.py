"""Analysis of one-parameter polynomial families: when is one a grading?

A family h assigns to the parameter t a polynomial self-map h_t. It is a
monoid action when two laws hold, exactly in t and s:

    semigroup   h_t after h_s equals h_(t*s)
    monoid      semigroup and h_1 = identity

For a monoid family, the derivative of h_t at a fixed point theta of h_0 is
a matrix H(t) with polynomial entries, and its t-Taylor coefficient matrices
Q_0 .. Q_n are complementary projections summing to the identity. Picking a
basis of each image and pushing the dual linear coordinates through h_t
yields, weight by weight, new coordinates on which the family acts by plain
powers of t. That change of coordinates (the homogenizer) is built, checked
exactly, and inverted; its existence is what makes the family a grading in
disguise.

The checked homogenizer is also the certificate of the laws: a family that
acts by plain powers of t in polynomial coordinates with a polynomial
inverse is a monoid action, and families that all act by plain powers in
the same coordinates commute (the argument is in _homogenize_joint). So the
laws (verify_laws) and the commutation of families (check_commuting) are
checked directly only when the homogenizer cannot be built, to explain the
failure.

Every claimed identity is either verified by exact rational arithmetic or
follows from one that is by that argument.

The homogenizer is inverted by graded's one inverse kernel,
_invert_coordinate_change. Its pass, _picard_inverse, is imported here too,
though not called, because perfbench/spans.py wraps both by name in this
module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Mapping, Sequence

from . import linalg
from .charts import GradedChart, fresh_name
from .errors import (
    DegenerateActionError,
    DomainError,
    EngineDefectError,
    GraduaError,
    InconsistentActionError,
    NotDoubleStructureError,
    NotGradedActionError,
)
from .graded import (  # noqa: F401
    ActionFamily, PolyMap, _invert_coordinate_change, _picard_inverse
)
from .linalg import Matrix
from .wpoly import Monomial, WPolynomial, _coefficient, _exact, _terms_combine

_ZERO = Fraction(0)


@dataclass(frozen=True)
class LawWitness:
    """One broken law: which one, on which variable, and the exact defect."""

    law: str
    variable: str
    difference: WPolynomial


@dataclass(frozen=True)
class LawReport:
    semigroup_ok: bool
    monoid_ok: bool
    witnesses: tuple[LawWitness, ...]


@dataclass(frozen=True)
class Homogenization:
    """A homogenizing coordinate change and the data used to build it."""

    chart: GradedChart
    homogenizer: PolyMap
    inverse: PolyMap
    projections: tuple[Matrix, ...]
    theta: dict[str, Fraction]
    orders: tuple[int, ...]


@dataclass(frozen=True)
class AnalysisReport:
    """Everything the action analysis produces, law verdicts first."""

    semigroup_ok: bool
    monoid_ok: bool
    witnesses: tuple[LawWitness, ...]
    base_projection: PolyMap | None = None
    degree: int | None = None
    projections: tuple[Matrix, ...] | None = None
    homogenizer: PolyMap | None = None
    homogenized_chart: GradedChart | None = None
    inverse_homogenizer: PolyMap | None = None
    theta: dict[str, Fraction] | None = None


def verify_laws(h: ActionFamily) -> LawReport:
    """Check the semigroup and monoid laws as exact polynomial identities."""
    chart = h.chart
    t = h.param
    s = fresh_name("s", chart.names + (t,))
    ext2 = chart.extend(((t, 0), (s, 0)))
    tvar = WPolynomial.variable(ext2, t)
    svar = WPolynomial.variable(ext2, s)

    entries_s: dict[str, WPolynomial] = {}
    rename = {v: WPolynomial.variable(ext2, v) for v in chart.names}
    rename[t] = svar
    for v in chart.names:
        entries_s[v] = h.entries[v].substitute(rename, into=ext2)

    compose_sigma = dict(entries_s)
    compose_sigma[t] = tvar
    product_sigma = {v: WPolynomial.variable(ext2, v) for v in chart.names}
    product_sigma[t] = tvar * svar

    witnesses: list[LawWitness] = []
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

    return LawReport(semigroup_ok, monoid_ok, tuple(witnesses))


def _require_monoid(h: ActionFamily) -> None:
    laws = verify_laws(h)
    if not laws.monoid_ok:
        broken = ", ".join(sorted({w.law for w in laws.witnesses}))
        raise InconsistentActionError(f"the family breaks the {broken} law", laws)


def _distinct_params(
    h1: ActionFamily, h2: ActionFamily
) -> tuple[ActionFamily, ActionFamily]:
    if h1.chart != h2.chart:
        raise NotDoubleStructureError("the two families live on different charts")
    if h2.param == h1.param:
        h2 = h2.with_param(fresh_name(h2.param, h2.chart.names + (h1.param,)))
    return h1, h2


def _composite_entries(
    first: ActionFamily, last: ActionFamily, ext: GradedChart
) -> dict[str, WPolynomial]:
    """Pullbacks of applying `first`, then `last`, over the two-parameter chart."""
    chart = first.chart
    rename = {v: WPolynomial.variable(ext, v) for v in chart.names}
    rename[first.param] = WPolynomial.variable(ext, first.param)
    sigma = {v: first.entries[v].substitute(rename, into=ext) for v in chart.names}
    sigma[last.param] = WPolynomial.variable(ext, last.param)
    return {v: last.entries[v].substitute(sigma, into=ext) for v in chart.names}


def check_commuting(
    h1: ActionFamily, h2: ActionFamily
) -> tuple[bool, tuple[tuple[str, WPolynomial], ...]]:
    """Do the two families commute as self-map families, exactly in t and u?

    Returns the verdict and, per failing variable, the pullback through
    first-family-last minus the pullback through second-family-last.
    """
    h1, h2 = _distinct_params(h1, h2)
    chart = h1.chart
    ext = chart.extend(((h1.param, 0), (h2.param, 0)))
    h1_last = _composite_entries(h2, h1, ext)
    h2_last = _composite_entries(h1, h2, ext)
    witnesses = tuple(
        (v, h1_last[v] - h2_last[v])
        for v in chart.names
        if h1_last[v] != h2_last[v]
    )
    return (not witnesses, witnesses)


def _resolve_theta(
    h: ActionFamily, theta: Mapping[str, Fraction | int] | None
) -> dict[str, Fraction]:
    chart = h.chart
    if theta is None:
        point = {v: _ZERO for v in chart.names}
    else:
        point = {v: _exact(theta.get(v, 0)) for v in chart.names}
        unknown = set(theta) - set(chart.names)
        if unknown:
            raise DomainError(f"theta mentions unknown variables {sorted(unknown)}")
    zero_map = h._zero_map
    for v in chart.names:
        if zero_map.pullbacks[v].evaluate(point) != point[v]:
            hint = "" if theta is not None else "; pass a fixed point of h_0"
            raise DomainError(f"theta is not fixed by the parameter-0 map{hint}")
    return point


def base_projection(h: ActionFamily) -> PolyMap:
    """The parameter-0 self-map of a monoid family; checked to be idempotent."""
    _require_monoid(h)
    p0 = h._zero_map
    if p0.then(p0) != p0:
        raise InconsistentActionError("the parameter-0 map is not idempotent")
    return p0


def _jacobian_coefficients(
    h: ActionFamily, theta: Mapping[str, Fraction]
) -> list[list[dict[int, Fraction | int]]]:
    """The t-coefficients of the derivative at theta, read from the entries' terms.

    Cell (v, u) maps k to the t^k coefficient of d(h_t^* x_v)/dx_u at theta.
    A term c * t^k * prod x_i^e_i adds c * e_u * theta_u^(e_u - 1) *
    prod_(i != u) theta_i^e_i to cell (v, u) at power k. Cells that cancel
    are dropped, so every stored coefficient is nonzero. No polynomial is
    built.
    """
    names = h.chart.names
    n_vars = len(names)  # the parameter's index on the extended chart
    point = [_coefficient(theta[v]) for v in names]
    rows = []
    for v in names:
        row: list[dict[int, Fraction | int]] = [{} for _ in names]
        for mono, c in h.entries[v].terms.items():
            k = 0
            if mono and mono[-1][0] == n_vars:
                k = mono[-1][1]
                mono = mono[:-1]
            for u, e in mono:
                value = c * e
                for i, f in mono:
                    if i == u:
                        f -= 1
                    if f:
                        value *= point[i] ** f
                if not value:
                    continue
                cell = row[u]
                s = cell.get(k)
                if s is None:
                    cell[k] = value
                else:
                    s += value
                    if s:
                        cell[k] = s
                    else:
                        del cell[k]
        rows.append(row)
    return rows


class _Projections(tuple):
    """The Taylor projections Q_0 .. Q_n, a plain tuple of matrices to every
    caller, carrying in `pivots` the basis columns of each Q_r that the rank
    check picked (linalg.independent_columns; empty for a zero Q_r)."""

    pivots: tuple[list[int], ...]

    def __new__(cls, qs: Sequence[Matrix], pivots: Sequence[list[int]]) -> _Projections:
        self = super().__new__(cls, qs)
        self.pivots = tuple(pivots)
        return self


def taylor_projections(
    h: ActionFamily, theta: Mapping[str, Fraction | int] | None = None
) -> tuple[Matrix, ...]:
    """Taylor coefficient matrices Q_0 .. Q_n of the derivative at theta.

    Q_r is 1/r! times the r-th t-derivative of H(t) at t=0, which for
    polynomial entries is just the t^r coefficient matrix. The coefficients
    are read in one pass over the entries' terms (_jacobian_coefficients):
    no derivative or substitution is formed. The matrices are checked to be
    complementary projections summing to the identity.

    Two checks suffice: sum Q_r = I, and sum_r rank Q_r = N. Given the sum:

    - Complementary projections have ranks adding up to N: the trace of an
      idempotent is its rank, and sum tr Q_r = tr I = N.
    - Conversely, the images span everything, since x = sum Q_r x, and their
      dimensions add up to N, so their sum is direct. For x in the image of
      Q_s, x = sum_r Q_r x writes x as a sum over the images; by uniqueness
      Q_s x = x and Q_r x = 0 for r != s. So Q_s Q_s = Q_s and Q_r Q_s = 0.

    The ranks are the numbers of pivot columns linalg.independent_columns
    picks, and the pivots travel with the result to be the homogenizer's
    basis (_joint_basis). The ranks of matrices summing to I add up to
    at least N, so a failure means a sum above N; the first Q_r that is not
    idempotent (linalg.is_idempotent) is then reported.

    The laws are not checked here; _homogenize_joint explains a failure.
    """
    point = _resolve_theta(h, theta)
    n_vars = len(h.chart)
    coeffs = _jacobian_coefficients(h, point)
    degree = max((k for row in coeffs for c in row for k in c), default=0)
    qs = tuple(
        tuple(tuple(_exact(c[r]) if r in c else _ZERO for c in row) for row in coeffs)
        for r in range(degree + 1)
    )

    # sum Q_r = I, read entry by entry from the t-coefficients
    if any(
        sum(c.values()) != (i == j)
        for i, row in enumerate(coeffs)
        for j, c in enumerate(row)
    ):
        stacked = tuple(row for q in qs for row in q)
        if linalg.rank(stacked) < n_vars:
            raise DegenerateActionError(
                "some direction is annihilated by every Taylor projection"
            )
        raise NotGradedActionError("Taylor projections do not sum to the identity")
    pivots = [linalg.independent_columns(q) if any(map(any, q)) else [] for q in qs]
    if sum(map(len, pivots)) != n_vars:
        for r, q in enumerate(qs):
            if any(map(any, q)) and not linalg.is_idempotent(q):
                raise NotGradedActionError(f"Taylor coefficient Q_{r} is not a projection")
        raise EngineDefectError("idempotent Taylor projections have ranks above the chart")
    return _Projections(qs, pivots)


def homogenize(
    h: ActionFamily, theta: Mapping[str, Fraction | int] | None = None
) -> Homogenization:
    """Build coordinates on which the family acts by plain powers of t.

    The one-family case of _homogenize_joint: for each order r with a nonzero
    projection Q_r, the t^r coefficients of the pushed dual coordinates
    become the new weight-r coordinates y{r}_1, y{r}_2, ... A family that
    breaks a law raises InconsistentActionError.
    """
    joint = _homogenize_joint((h,), theta, f"{h.chart.name}_h")
    return Homogenization(
        chart=joint.chart,
        homogenizer=joint.homogenizer,
        inverse=joint.inverse,
        projections=tuple(joint.projections.values()),
        theta=joint.theta,
        orders=tuple(r for (r,) in joint.orders),
    )


def _joint_projections(
    factors: Sequence[Sequence[Matrix]],
) -> dict[tuple[int, ...], Matrix]:
    """The joint projection Q1_r_1 ... Qk_r_k of every multi-index, in
    lexicographic order, from each family's Taylor projections; a product
    with a zero factor is the zero matrix and is not computed."""
    n_vars = len(factors[0][0])
    zero = linalg.zeros(n_vars, n_vars)
    joint = {(r,): q for r, q in enumerate(factors[0])}
    for qs in factors[1:]:
        joint = {
            idx + (s,): (
                linalg.mat_mul(p, q) if any(map(any, p)) and any(map(any, q)) else zero
            )
            for idx, p in joint.items()
            for s, q in enumerate(qs)
        }
    return joint


@dataclass(frozen=True)
class _JointHomogenization:
    """Coordinates that scale under k commuting families at once.

    factors holds each family's Taylor projections; the joint projections
    are multiplied out only when `projections` is read.
    """

    chart: GradedChart
    homogenizer: PolyMap
    inverse: PolyMap
    orders: tuple[tuple[int, ...], ...]
    theta: dict[str, Fraction]
    factors: tuple[tuple[Matrix, ...], ...]

    @cached_property
    def projections(self) -> dict[tuple[int, ...], Matrix]:
        return _joint_projections(self.factors)


def _homogenize_joint(
    families: Sequence[ActionFamily],
    theta: Mapping[str, Fraction | int] | None,
    name: str,
) -> _JointHomogenization:
    """Coordinates scaling by t_1**r_1 ... t_k**r_k under k monoid families.

    The families share one chart and have distinct parameters. Each family's
    Taylor projections are computed and checked (taylor_projections).
    Commuting families of complementary projections summing to I have
    products that are again complementary projections summing to I, so the
    joint projection P of the multi-index (r_1, ..., r_k) is the product
    Q1_r_1 ... Qk_r_k with no further check. Neither these products nor the
    commutation of the families' projections are formed as n x n products:
    both are read off the images, one family at a time (_joint_basis). Let B
    hold basis columns of Im P for a nonzero joint projection P of the
    first j families, an n x rank(P) matrix; for one family these are the
    pivot columns of Q1_r that its rank check picked. For each nonzero
    projection Q of the next family, form C = Q B, again n x rank(P).

    - Invariance is commutation. Let the P_i be complementary projections
      summing to I. A matrix Q commutes with every P_i exactly when Q maps
      every Im P_i into itself. If Q P_i = P_i Q and x = P_i x, then Q x =
      P_i Q x. Conversely, Q P_l x lies in Im P_l for any x, so P_i Q P_l x
      = delta_il Q P_l x, and summing over l gives P_i Q x = Q P_i x. As y
      lies in Im P exactly when P y = y, Q commutes with every P_i exactly
      when P_i C = C for every nonzero P_i (Im 0 is kept by any Q).
    - The k-family step. When the first j families commute, Im P is the
      intersection of the images of P's factors: P y = y for y in all of
      them, and P = Q_i R with R the product of the other factors, for each
      factor Q_i. So P C = C exactly when every factor of P fixes C
      (linalg.fixes, decided over ints). And Q commutes with every joint
      projection of the first j families exactly when it commutes with
      each of their projections, since Qi_r is the sum of the joint
      projections with r in place i. By induction on j, the families
      commute pairwise exactly when every such test passes; the first that
      fails raises NotDoubleStructureError.
    - The images restrict. Q P = P Q gives Im(P Q) = Q(Im P), which the
      columns of C span. So rank(P Q) = rank(C), and a zero C is dropped.
    - The pivots stay. pivots(Q P) lies in pivots(P): a non-pivot column
      P e_j of P is a combination of earlier columns P e_i, so Q P e_j is
      the same combination of the earlier columns Q P e_i, and j is no
      pivot of Q P. The columns of C are the columns of Q P at the pivots
      of P; the ones left out lie in the span of earlier columns, so
      first-pivot elimination of C (linalg.independent_columns) picks the
      columns it would pick from the n x n product, and the basis is
      unchanged.

    The joint projections themselves are multiplied out only when read
    (_joint_projections). The dual linear coordinates are pushed through
    the composite of the families, and their t_1^r_1 ... t_k^r_k
    coefficients become the new coordinates y{r_1}_..._{r_k}_{i}, of
    weight r_1 + ... + r_k. Both steps run on term dicts, one linear
    combination (wpoly._terms_combine) and one polynomial per coordinate:

    - The split. The composite's chart is the chart followed by the k
      parameters, so in every sorted monomial of the composite the
      parameter factors come last. Cutting each monomial where they begin
      writes it once as a monomial over the chart, with the same indices,
      times a multi-index of parameter exponents; a constant lies in the
      zero multi-index only, where theta_v is subtracted. Taking the
      coefficient of one multi-index is linear, so the coordinate of row i
      and multi-index m is sum_j C^-1_ij part_j[m] over the split entries:
      what the t_1^r_1 ... t_k^r_k coefficient of the whole row, read off
      and rewritten over the chart, would give.
    - The scaling check. A family's extended chart is the chart followed by
      its parameter t, so t has index n = len(chart), above every index of
      a monomial over the chart. The terms of t^r phi_i are therefore those
      of phi_i with (n, r) appended to each monomial, still sorted (phi_i
      itself when r = 0), and h_t^* phi_i == t^r phi_i is the equality of
      the term dicts of h_t^* phi_i and of t^r phi_i.

    Each new coordinate is checked to scale exactly under every family, and
    the change of coordinates is inverted by the one inverse kernel,
    graded._invert_coordinate_change: a Picard pass of bounded length,
    certified on one side, phi o psi = id, which proves both. The kernel's
    docstring has the proofs: the checked premise, the settle certificate,
    the bound D (the largest summed parameter exponent of the composite)
    when every new weight is at least 1, and the Bass-Connell-Wright bound
    otherwise. That certificate proves the laws, the commutation of the
    families and the total degree, so none of them is checked when it
    succeeds. Write phi for the new coordinates, psi for the verified
    inverse (phi o psi = id = psi o phi) and w_i for the order of phi_i
    under one family h.

    - A pullback h_t^* is a ring homomorphism.
    - h_t^* phi_i = t^w_i phi_i is checked exactly, so h_t^* x_v =
      h_t^* psi_v(phi) = psi_v(t^w phi): h_t = psi o s_t o phi, where s_t
      scales the i-th coordinate by t^w_i. As phi o psi = id, h_t o h_s =
      psi o s_ts o phi = h_ts and h_1 = id.
    - Each of the k families is psi o s_i o phi with s_i a diagonal scaling,
      and diagonal scalings commute, so the families commute.
    - Setting every parameter to t gives psi o s o phi, where s scales the
      coordinate of multi-index (r_1, ..., r_k) by t^(r_1 + ... + r_k). So
      the total action is standard with these weights in the joint
      coordinates, and its degree is the largest of them, the degree of the
      returned chart.

    When a stage raises, the direct checks explain the failure, in this
    order: the commutation of each pair of families (NotDoubleStructureError
    with the witnesses as detail), then each family's laws in argument order
    (InconsistentActionError with the LawReport as detail). If all of them
    hold, the original error is re-raised.
    """
    try:
        return _joint_certificate(families, theta, name)
    except GraduaError:
        for a, b in combinations(families, 2):
            commuting, witnesses = check_commuting(a, b)
            if not commuting:
                names = ", ".join(v for v, _ in witnesses)
                raise NotDoubleStructureError(
                    f"the families do not commute (see {names})", witnesses
                )
        for h in families:
            _require_monoid(h)
        raise


def _joint_certificate(
    families: Sequence[ActionFamily],
    theta: Mapping[str, Fraction | int] | None,
    name: str,
) -> _JointHomogenization:
    """The construction and exact checks of _homogenize_joint, unexplained."""
    per_family = [taylor_projections(h, theta) for h in families]
    chart = families[0].chart
    point = _resolve_theta(families[0], theta)
    n_vars = len(chart)
    basis_cols, orders = _joint_basis(per_family)
    if len(basis_cols) != n_vars:
        raise EngineDefectError("projection images do not fill the chart")
    basis = linalg.mat_from_cols(basis_cols)
    cinv = linalg.inverse(basis)
    # both in stored form, so that integral entries multiply as ints
    basis, cinv = ([[_coefficient(x) for x in row] for row in m] for m in (basis, cinv))

    # the composite applies the last family first; its chart lists the
    # parameters in that order so the innermost entries' terms are already
    # over it
    params = [h.param for h in families]
    k = len(params)
    ext = chart.extend(tuple((t, 0) for t in reversed(params)))
    composite = [families[-1].entries[v].terms for v in chart.names]
    for h in reversed(families[:-1]):
        sigma = {v: WPolynomial(ext, terms) for v, terms in zip(chart.names, composite)}
        sigma[h.param] = WPolynomial.variable(ext, h.param)
        composite = [h.entries[v].substitute(sigma, into=ext).terms for v in chart.names]

    # each entry minus theta, split once by its multi-index of parameter
    # exponents (parameter j sits at index n_vars + k - 1 - j of ext); the
    # rest of each monomial is a monomial over chart
    parts: list[dict[tuple[int, ...], dict[Monomial, Fraction | int]]] = []
    for terms, v in zip(composite, chart.names):
        split: dict[tuple[int, ...], dict[Monomial, Fraction | int]] = {}
        for mono, c in terms.items():
            exps = [0] * k
            cut = len(mono)
            while cut and mono[cut - 1][0] >= n_vars:
                cut -= 1
                i, e = mono[cut]
                exps[n_vars + k - 1 - i] = e
            split.setdefault(tuple(exps), {})[mono[:cut]] = c
        if point[v]:
            constant = {(): _coefficient(point[v])}
            _terms_combine(((-1, constant),), split.setdefault((0,) * k, {}))
        parts.append(split)
    degree = max((sum(idx) for split in parts for idx in split), default=0)

    counter: dict[tuple[int, ...], int] = {}
    new_vars: list[tuple[str, int]] = []
    pullbacks: list[WPolynomial] = []
    for row, idx in zip(cinv, orders):
        pairs = ((c, split[idx]) for c, split in zip(row, parts) if idx in split)
        coeff = _terms_combine(pairs)
        counter[idx] = counter.get(idx, 0) + 1
        new_vars.append((f"y{'_'.join(map(str, idx))}_{counter[idx]}", sum(idx)))
        pullbacks.append(WPolynomial(chart, coeff))
    new_chart = GradedChart(name, tuple(new_vars))
    phi = PolyMap(chart, new_chart, {v: p for (v, _), p in zip(new_vars, pullbacks)})

    # h_t^* p == t^r p, with t at index n_vars of h's extended chart, after
    # every index of p's monomials
    for i, h in enumerate(families):
        hext = h.extended_chart
        for (v, _), idx in zip(new_vars, orders):
            p = phi.pullbacks[v]
            r = idx[i]
            scaled = {m + ((n_vars, r),): c for m, c in p.terms.items()} if r else p.terms
            if p.substitute(h.entries, into=hext).terms != scaled:
                raise NotGradedActionError(
                    f"coordinate {v!r} does not scale by {h.param}^{idx[i]}"
                )

    return _JointHomogenization(
        chart=new_chart,
        homogenizer=phi,
        inverse=_invert_coordinate_change(phi, point, basis, cinv, degree),
        orders=tuple(orders),
        theta=point,
        factors=tuple(per_family),
    )


def _joint_basis(
    per_family: Sequence[_Projections],
) -> tuple[list[linalg.Vector], list[tuple[int, ...]]]:
    """Basis columns of the image of each nonzero joint projection, and the
    multi-index of each column, by restriction (proofs in _homogenize_joint).

    One family's columns are the pivot columns of its Q_r. For each further
    family, each block B of columns is restricted to C = Q B for each
    nonzero Q of that family; every factor of the block must fix C, else the
    families do not commute. NotDoubleStructureError is raised then.
    """
    first = per_family[0]
    # multi-index -> (factors of the joint projection, its basis columns)
    blocks = {
        (r,): ((q,), [linalg.column(q, j) for j in cols])
        for r, (q, cols) in enumerate(zip(first, first.pivots))
        if cols
    }
    for qs in per_family[1:]:
        restricted = {}
        for idx, (factors, cols) in blocks.items():
            b = linalg.mat_from_cols(cols)
            for s, (q, q_cols) in enumerate(zip(qs, qs.pivots)):
                if not q_cols:
                    continue
                c = linalg.mat_mul(q, b)
                if not any(map(any, c)):
                    continue
                if not all(linalg.fixes(f, c) for f in factors):
                    raise NotDoubleStructureError(
                        "the families' Taylor projections do not commute"
                    )
                restricted[idx + (s,)] = (
                    factors + (q,),
                    [linalg.column(c, j) for j in linalg.independent_columns(c)],
                )
        blocks = restricted
    basis_cols = [col for _, cols in blocks.values() for col in cols]
    orders = [idx for idx, (_, cols) in blocks.items() for _ in cols]
    return basis_cols, orders


def detect_degree(
    h: ActionFamily, theta: Mapping[str, Fraction | int] | None = None
) -> int:
    """Largest weight of the homogenized chart."""
    return homogenize(h, theta).chart.degree


def reconstruct_entries(hom: Homogenization, h: ActionFamily) -> dict[str, WPolynomial]:
    """Entries of the family conjugated from the standard one by hom.

    Pull each original variable back through the inverse change, scale the
    new coordinates by their powers of t, and push through the homogenizer.
    For a correct homogenization this reproduces h exactly.
    """
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


def extend_negative(
    h: ActionFamily, theta: Mapping[str, Fraction | int] | None = None
) -> ActionFamily:
    """The family read over every rational parameter value, negatives included.

    The entries are already polynomial in t, so the extension is the same
    formula; what is verified is that conjugating the full-line standard
    family through the homogenizer reproduces those entries exactly, which
    makes the extension the unique polynomial one. In homogenized
    coordinates the parameter -1 map negates the odd-weight variables, and
    it is an involution.
    """
    hom = homogenize(h, theta)
    rebuilt = reconstruct_entries(hom, h)
    for v in h.chart.names:
        if rebuilt[v] != h.entries[v]:
            raise EngineDefectError(
                f"reconstruction through the homogenizer disagrees on {v!r}"
            )
    return ActionFamily(h.chart, h.param, dict(h.entries))


def euler_field(h: ActionFamily) -> tuple[tuple[str, WPolynomial], ...]:
    """Coefficients of the infinitesimal generator at parameter 1.

    For the standard family this is the weight field: each variable times
    its weight.
    """
    chart = h.chart
    out = []
    sigma = {v: WPolynomial.variable(chart, v) for v in chart.names}
    sigma[h.param] = WPolynomial.constant(chart, 1)
    for v in chart.names:
        d = h.entries[v].differentiate(h.param)
        out.append((v, d.substitute(sigma, into=chart)))
    return tuple(out)


def analyze(
    h: ActionFamily,
    theta: Mapping[str, Fraction | int] | None = None,
) -> AnalysisReport:
    """Full pipeline: homogenization, or the broken laws that prevent it.

    The checked homogenizer certifies both laws, and with the semigroup law
    the parameter-0 map is idempotent, so the laws are verified directly
    only when homogenize fails. A broken law gives a report of the law
    verdicts and witnesses; any other failure is raised.
    """
    try:
        hom = homogenize(h, theta)
    except InconsistentActionError as exc:
        laws = exc.detail
        return AnalysisReport(laws.semigroup_ok, laws.monoid_ok, laws.witnesses)
    return AnalysisReport(
        semigroup_ok=True,
        monoid_ok=True,
        witnesses=(),
        base_projection=h._zero_map,
        degree=hom.chart.degree,
        projections=hom.projections,
        homogenizer=hom.homogenizer,
        homogenized_chart=hom.chart,
        inverse_homogenizer=hom.inverse,
        theta=hom.theta,
    )
