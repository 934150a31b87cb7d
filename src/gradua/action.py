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

The composites these checks compare, h_t o h_s for the laws, both orders of
two families for commutation and all k families for the homogenizer, come
from graded._compose_families. The parameter of a family is never renamed or
evaluated by substitution: h_(ts) is a term map, and the infinitesimal
generator reads the t-derivatives at 1 with ActionFamily.at.

The certificate's linear algebra stays in integer form (linalg.IntMatrix)
from the Taylor projections to the inverse kernel's premise: the inverse of
the basis matrix is read off the projections' rank factors, and Fractions
are built only for the public projections.

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
from math import lcm
from typing import Mapping, NamedTuple, Sequence

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
    ActionFamily, PolyMap, _checked_stored, _compose_families, _invert_coordinate_change,
    _picard_inverse,
)
from .linalg import IntMatrix, Matrix
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


class _Factored(NamedTuple):
    """A nonzero Taylor projection Q_r in integer form, as the rank check left it.

    q is Q_r as integer rows over one denominator, pivots its pivot columns
    and factor its rank factor R_r (rank rows over one denominator), so that
    Q_r = Q_r[:, pivots] R_r.
    """

    q: IntMatrix
    pivots: list[int]
    factor: IntMatrix


def verify_laws(h: ActionFamily) -> LawReport:
    """Check the semigroup and monoid laws as exact polynomial identities.

    The composite h_t o h_s is one _compose_families call over the chart
    followed by t and s. h_(ts) is a term map: t is the last factor of any
    monomial of an entry that has it, at index n = len(chart), so t^k
    becomes t^k s^k by appending (n + 1, k) after (n, k).
    """
    chart = h.chart
    t = h.param
    s = fresh_name("s", chart.names + (t,))
    ext2 = chart.extend(((t, 0), (s, 0)))
    n_vars = len(chart)
    composite = _compose_families((h, h.with_param(s)), ext2)

    witnesses: list[LawWitness] = []
    for v, terms in zip(chart.names, composite):
        merged = {
            (m + ((n_vars + 1, m[-1][1]),) if m and m[-1][0] == n_vars else m): c
            for m, c in h.entries[v].terms.items()
        }
        if terms != merged:
            difference = WPolynomial(ext2, terms) - WPolynomial(ext2, merged)
            witnesses.append(LawWitness("semigroup", v, difference))
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
    h1_last = _compose_families((h1, h2), ext)
    h2_last = _compose_families((h2, h1), ext)
    witnesses = tuple(
        (v, WPolynomial(ext, a) - WPolynomial(ext, b))
        for v, a, b in zip(chart.names, h1_last, h2_last)
        if a != b
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


def taylor_projections(
    h: ActionFamily, theta: Mapping[str, Fraction | int] | None = None
) -> tuple[Matrix, ...]:
    """Taylor coefficient matrices Q_0 .. Q_n of the derivative at theta.

    The projections of _taylor_projections, which has the checks.
    """
    return _taylor_projections(h, theta)[0]


def _taylor_projections(
    h: ActionFamily, theta: Mapping[str, Fraction | int] | None = None
) -> tuple[tuple[Matrix, ...], list[_Factored | None], dict[str, Fraction]]:
    """The Taylor projections Q_0 .. Q_n at theta, each nonzero Q_r factored
    by the rank check (None for a zero Q_r), and theta resolved to a point of
    the chart.

    Q_r is 1/r! times the r-th t-derivative of H(t) at t=0, which for
    polynomial entries is just the t^r coefficient matrix. The coefficients
    are read in one pass over the entries' terms (_jacobian_coefficients):
    no derivative or substitution is formed. The same pass writes each Q_r
    twice: as the public Fraction matrix, and as integer numerators over
    one denominator (linalg.IntMatrix), which is all the certificate uses.
    The matrices are checked to be complementary projections summing to the
    identity.

    Two checks suffice: sum Q_r = I, and sum_r rank Q_r = N. Given the sum:

    - Complementary projections have ranks adding up to N: the trace of an
      idempotent is its rank, and sum tr Q_r = tr I = N.
    - Conversely, the images span everything, since x = sum Q_r x, and their
      dimensions add up to N, so their sum is direct. For x in the image of
      Q_s, x = sum_r Q_r x writes x as a sum over the images; by uniqueness
      Q_s x = x and Q_r x = 0 for r != s. So Q_s Q_s = Q_s and Q_r Q_s = 0.

    The ranks come from one fraction-free elimination of each nonzero Q_r's
    numerators (linalg._eliminate), which also gives its pivot columns piv
    and its rank factor R_r = rref(Q_r) restricted to the rank rows, with
    Q_r = Q_r[:, piv] R_r. Both travel with the result (_Factored): the
    pivot columns become the homogenizer's basis and the stacked R_r its
    inverse (_joint_basis). The ranks of matrices summing to I add up to at
    least N, so a failure means a sum above N; the first Q_r that is not
    idempotent (linalg._fixes(q, q)) is then reported.

    The laws are not checked here; _homogenize_joint explains a failure.
    """
    point = _resolve_theta(h, theta)
    n_vars = len(h.chart)
    coeffs = _jacobian_coefficients(h, point)
    degree = max((k for row in coeffs for c in row for k in c), default=0)
    nonzero: list[list[tuple[int, int, Fraction | int]]] = [[] for _ in range(degree + 1)]
    for i, row in enumerate(coeffs):
        for j, c in enumerate(row):
            for r, x in c.items():
                nonzero[r].append((i, j, x))
    # each Q_r as Fractions and as integer rows over one denominator; the
    # zero rows of both are shared and never written to
    zero_row, zero_ints = (_ZERO,) * n_vars, (0,) * n_vars
    public = []
    ints = []
    for entries in nonzero:
        fractions: list = [zero_row] * n_vars
        numerators: list = [zero_ints] * n_vars
        d = lcm(*{x.denominator for _, _, x in entries})
        for i, j, x in entries:
            if fractions[i] is zero_row:
                fractions[i], numerators[i] = [_ZERO] * n_vars, [0] * n_vars
            fractions[i][j] = _exact(x)
            numerators[i][j] = x.numerator * (d // x.denominator)
        public.append(tuple(map(tuple, fractions)))
        ints.append((numerators, d))
    qs = tuple(public)

    # sum Q_r = I, read entry by entry from the t-coefficients
    if any(
        sum(c.values()) != (i == j)
        for i, row in enumerate(coeffs)
        for j, c in enumerate(row)
    ):
        stacked = [row for rows, _ in ints for row in rows]
        if len(linalg._eliminate(stacked)[0]) < n_vars:
            raise DegenerateActionError(
                "some direction is annihilated by every Taylor projection"
            )
        raise NotGradedActionError("Taylor projections do not sum to the identity")
    factored: list[_Factored | None] = []
    for q, entries in zip(ints, nonzero):
        if entries:
            pivots, rows, scale = linalg._eliminate(q[0])
            factored.append(_Factored(q, pivots, (rows, scale)))
        else:
            factored.append(None)
    if sum(len(f.pivots) for f in factored if f) != n_vars:
        for r, f in enumerate(factored):
            if f and not linalg._fixes(f.q, f.q[0]):
                raise NotGradedActionError(f"Taylor coefficient Q_{r} is not a projection")
        raise EngineDefectError("idempotent Taylor projections have ranks above the chart")
    return qs, factored, point


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
    Taylor projections are computed and checked (_taylor_projections), and
    each nonzero Q_r comes factored, Q_r = Q_r[:, piv] R_r, by one
    fraction-free elimination of its integer numerators (linalg._eliminate).
    Commuting families of complementary projections summing to I have
    products that are again complementary projections summing to I, so the
    joint projection P of the multi-index (r_1, ..., r_k) is the product
    Q1_r_1 ... Qk_r_k with no further check. Neither these products nor the
    commutation of the families' projections are formed as n x n products:
    both are read off the images, one family at a time and over ints
    (_joint_basis). Each nonzero joint projection P of the first j families
    is held as a rank factorization P = B R: B holds basis columns of Im P,
    an n x rank(P) matrix, and R is rank(P) x n. For one family, B =
    Q1_r[:, piv] and R = R_r. For each nonzero projection Q of the next
    family, form c = Q B, again n x rank(P).

    - Invariance is commutation. Let the P_i be complementary projections
      summing to I. A matrix Q commutes with every P_i exactly when Q maps
      every Im P_i into itself. If Q P_i = P_i Q and x = P_i x, then Q x =
      P_i Q x. Conversely, Q P_l x lies in Im P_l for any x, so P_i Q P_l x
      = delta_il Q P_l x, and summing over l gives P_i Q x = Q P_i x. As y
      lies in Im P exactly when P y = y, Q commutes with every P_i exactly
      when P_i c = c for every nonzero P_i (Im 0 is kept by any Q).
    - The k-family step. When the first j families commute, Im P is the
      intersection of the images of P's factors: P y = y for y in all of
      them, and P = Q_i S with S the product of the other factors, for each
      factor Q_i. So P c = c exactly when every factor of P fixes c
      (linalg._fixes, decided over ints). And Q commutes with every joint
      projection of the first j families exactly when it commutes with
      each of their projections, since Qi_r is the sum of the joint
      projections with r in place i. By induction on j, the families
      commute pairwise exactly when every such test passes; the first that
      fails raises NotDoubleStructureError.
    - The images restrict. Q P = P Q gives Im(P Q) = Q(Im P), which the
      columns of c span. So rank(P Q) = rank(c), and a zero c is dropped.
    - The pivots stay. pivots(Q P) lies in pivots(P): a non-pivot column
      P e_j of P is a combination of earlier columns P e_i, so Q P e_j is
      the same combination of the earlier columns Q P e_i, and j is no
      pivot of Q P. The columns of c are the columns of Q P at the pivots
      of P; the ones left out lie in the span of earlier columns, so
      first-pivot elimination of c picks the columns it would pick from
      the n x n product, and the basis is unchanged.
    - The factors restrict. P Q = Q P = Q B R = c R. The elimination of c
      gives its pivots piv and rank factor G, c = c[:, piv] G, so P Q =
      c[:, piv] (G R): the new block is B = c[:, piv] and R = G R, and no
      n x n product is formed.
    - The stacked factors are the inverse. Let C hold the blocks' B side by
      side and stack their R in the same order. The joint projections sum
      to I, and being complementary, their ranks add up to n, so C is
      square (a count checked as an engine defect). C (stacked R) = sum_P
      B_P R_P = sum_P P = I, and a square matrix with a right inverse is
      invertible, so the stacked R is C^-1 and no inverse is computed. For
      one family this needs only sum Q_r = I and sum rank Q_r = n, both
      checked by _taylor_projections. The inverse kernel's premise C^-1 C
      = I is checked over ints all the same (graded._checked_stored).

    The joint projections themselves are multiplied out only when read
    (_joint_projections). The dual linear coordinates are pushed through
    the composite of the families, and their t_1^r_1 ... t_k^r_k
    coefficients become the new coordinates y{r_1}_..._{r_k}_{i}, of
    weight r_1 + ... + r_k. Both steps run on term dicts, one linear
    combination (wpoly._terms_combine) and one polynomial per coordinate,
    with the entries of C^-1 in stored form (graded._checked_stored):

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
    per_family = [_taylor_projections(h, theta) for h in families]
    chart = families[0].chart
    point = per_family[0][2]
    n_vars = len(chart)
    basis, cinv, orders = _joint_basis([factored for _, factored, _ in per_family])
    if len(orders) != n_vars:
        raise EngineDefectError("projection images do not fill the chart")
    # the inverse kernel's premise, checked once; both matrices in stored
    # form, so that integral entries multiply as ints
    basis, rows = _checked_stored(basis, cinv)

    # the composite applies the last family first; its chart lists the
    # parameters in that order
    params = [h.param for h in families]
    k = len(params)
    ext = chart.extend(tuple((t, 0) for t in reversed(params)))
    composite = _compose_families(families, ext)

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
    for row, idx in zip(rows, orders):
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
        inverse=_invert_coordinate_change(phi, point, basis, rows, degree),
        orders=tuple(orders),
        theta=point,
        factors=tuple(qs for qs, _, _ in per_family),
    )


def _joint_basis(
    per_family: Sequence[Sequence[_Factored | None]],
) -> tuple[IntMatrix, IntMatrix, list[tuple[int, ...]]]:
    """The basis matrix C, its inverse and the multi-index of each basis
    column, by restriction over ints (proofs in _homogenize_joint).

    Each family gives its factored Taylor projections, as
    _taylor_projections returns them. Every nonzero joint projection P is
    held as a block: the factors of P, basis columns B of its image and
    the rank factor R with P = B R. One family's blocks are Q_r[:, piv] and
    R_r. For each further family, each block is restricted to c = Q B for
    each nonzero Q of that family; every factor of the block must fix c,
    else the families do not commute and NotDoubleStructureError is raised.
    The elimination of c gives its pivots piv and rank factor G, and the
    new block is c[:, piv] and G R. Both products are linalg._product,
    which neither _fixes nor the premise check of C^-1 C = I shares. C
    stacks the blocks' B side by side and C^-1 their R, in the same order;
    both are integer rows over one denominator.
    """
    # multi-index -> (factors of the joint projection, B, R): B as integer
    # columns and R as integer rows, over one denominator each
    blocks = {
        (r,): ((f.q,), ([[row[j] for row in f.q[0]] for j in f.pivots], f.q[1]), f.factor)
        for r, f in enumerate(per_family[0])
        if f
    }
    for factored in per_family[1:]:
        restricted = {}
        for idx, (factors, (b_cols, b_den), (r_rows, r_den)) in blocks.items():
            r_cols = list(zip(*r_rows))
            for s, f in enumerate(factored):
                if not f:
                    continue
                q, q_den = f.q
                c = linalg._product(q, b_cols)
                if not any(map(any, c)):
                    continue
                if not all(linalg._fixes(g, c) for g in factors):
                    raise NotDoubleStructureError(
                        "the families' Taylor projections do not commute"
                    )
                pivots, g_rows, g_den = linalg._eliminate(c)
                restricted[idx + (s,)] = (
                    factors + (f.q,),
                    ([[row[j] for row in c] for j in pivots], q_den * b_den),
                    (linalg._product(g_rows, r_cols), g_den * r_den),
                )
        blocks = restricted
    c_den = lcm(*(b_den for _, (_, b_den), _ in blocks.values()))
    r_den = lcm(*(den for _, _, (_, den) in blocks.values()))
    cols = [
        [x * (c_den // b_den) for x in col]
        for _, (b_cols, b_den), _ in blocks.values()
        for col in b_cols
    ]
    basis = [list(row) for row in zip(*cols)]
    cinv = [
        [x * (r_den // den) for x in row]
        for _, _, (rows, den) in blocks.values()
        for row in rows
    ]
    orders = [idx for idx, (_, _, (rows, _)) in blocks.items() for _ in rows]
    return (basis, c_den), (cinv, r_den), orders


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
    its weight. The t-derivatives of the entries are again a family in t,
    and ActionFamily.at reads it at 1 in one pass over its terms.
    """
    names = h.chart.names
    derivative = ActionFamily(
        h.chart, h.param, {v: h.entries[v].differentiate(h.param) for v in names}
    )
    generator = derivative.at(1)
    return tuple((v, generator.pullbacks[v]) for v in names)


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
