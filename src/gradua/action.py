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
disguise. k commuting families are homogenized the same way, at once: the
t_1^m_1 ... t_k^m_k coefficients of their composite's derivative at theta
are the joint projections, and one pipeline serves every k. Its first
stage, from theta to the joint projections, is one function, _first_stage,
and taylor_projections is that stage for one family. One record,
Homogenization, holds the result for every k: the new coordinates' orders
as multi-indices, and the joint projections as the grid in nested tuples,
which for one family is the list Q_0 .. Q_n. The degree of a family is the
degree of its homogenized chart, analyze(h).degree.

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
from graded._compose_families, which takes each family's parameter as a
slot, an index after the chart's: h_t o h_s puts h at n and n + 1, and the
k families of the homogenizer sit at n .. n + k - 1. So no family is
renamed to be composed, families that share a parameter name are composed
as they are, and a name is made only for a witness chart. The parameter is
never evaluated by substitution: h_(ts) is a term map, and graded._split,
the one reader of a family by parameter power, gives the infinitesimal
generator as sum k * part_k and the certificate's first stage its
multi-indices. The converse
route, reconstruct_entries, conjugates the model family y_i -> t^(w_i) y_i
(wpoly._scaling_terms) back through the homogenizer and its inverse, in
two passes of the substitution kernel.

The certificate's linear algebra stays in integer form (linalg.IntMatrix)
from the joint projections to the inverse kernel's premise: the inverse of
the basis matrix is read off the projections' rank factors, and Fractions
are built only for the public projections, in the same pass. That every
coordinate scales (_check_scaling) is decided by wpoly's one scaling
kernel, the one WPolynomial.is_homogeneous runs for the standard action,
on integer numerators too. That h_0 fixes theta is checked on the
entries' terms with no parameter factor, summed at theta exactly
(_resolve_theta), and the unit law h_1 = id on the entries split by their
power of t: no map of h_0 or h_1 is built for a check. A law's witness is
one linear combination of the law's two sides, on term dicts.

The homogenizer is inverted by graded's one inverse kernel,
_invert_coordinate_change. Its pass, _picard_inverse, is imported here too,
though not called, because perfbench/spans.py wraps both by name in this
module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
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
    _picard_inverse, _split,
)
from .linalg import IntMatrix, Matrix
from .wpoly import (
    Monomial, WPolynomial, _cleared, _coefficient, _exact, _scaling_failures, _scaling_terms,
    _terms_combine, _terms_substitute,
)

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
    """Coordinates that scale under k >= 1 commuting families at once.

    orders holds the multi-index of each new coordinate ((r,) for one
    family; for two, the report's biweights), and projections the joint
    projections on the full lexicographic grid as nested tuples,
    projections[m_1]...[m_k] = P_m, zero matrices included: for one family
    the list Q_0 .. Q_n. The projections are left out of the repr.
    """

    chart: GradedChart
    homogenizer: PolyMap
    inverse: PolyMap
    orders: tuple[tuple[int, ...], ...]
    theta: dict[str, Fraction]
    projections: tuple = field(repr=False)


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
    """A nonzero joint projection P_m in integer form, as the rank check left it.

    q is P_m as integer rows over one denominator, pivots its pivot columns
    and factor its rank factor R_m (rank rows over one denominator), so that
    P_m = P_m[:, pivots] R_m.
    """

    q: IntMatrix
    pivots: list[int]
    factor: IntMatrix


def verify_laws(h: ActionFamily) -> LawReport:
    """Check the semigroup and monoid laws as exact polynomial identities.

    The composite h_t o h_s is one _compose_families call on the slots n =
    len(chart) for t and n + 1 for s. h_(ts) is a term map: t is the last
    factor of any monomial of an entry that has it, at index n, so t^k
    becomes t^k s^k by appending (n + 1, k) after (n, k). h_1 is read off the
    entries split by their power of t (graded._split): its entry for v is
    the sum of the parts, so the unit law's witness x_v - h_1(v) is one
    linear combination of x_v and the parts, empty when the law holds. Each
    witness is one wpoly._terms_combine of the law's two sides; the
    semigroup witnesses live on the chart followed by t and a fresh s, the
    monoid ones on the chart.
    """
    chart = h.chart
    t = h.param
    s = fresh_name("s", chart.names + (t,))
    ext2 = chart.extend(((t, 0), (s, 0)))
    n_vars = len(chart)
    composite = _compose_families((h, h), (n_vars, n_vars + 1))

    witnesses: list[LawWitness] = []
    for v, terms in zip(chart.names, composite):
        merged = {
            (m + ((n_vars + 1, m[-1][1]),) if m and m[-1][0] == n_vars else m): c
            for m, c in h.entries[v].terms.items()
        }
        if terms != merged:
            difference = WPolynomial(ext2, _terms_combine(((1, terms), (-1, merged))))
            witnesses.append(LawWitness("semigroup", v, difference))
    semigroup_ok = not witnesses

    parts = _split([h.entries[v].terms for v in chart.names], n_vars, 1)
    for i, (v, split) in enumerate(zip(chart.names, parts)):
        defect = _terms_combine(((-1, p) for p in split.values()), {((i, 1),): 1})
        if defect:
            witnesses.append(LawWitness("monoid", v, WPolynomial(chart, defect)))
    monoid_ok = semigroup_ok and all(w.law != "monoid" for w in witnesses)

    return LawReport(semigroup_ok, monoid_ok, tuple(witnesses))


def _require_monoid(h: ActionFamily) -> None:
    laws = verify_laws(h)
    if not laws.monoid_ok:
        broken = ", ".join(sorted({w.law for w in laws.witnesses}))
        raise InconsistentActionError(f"the family breaks the {broken} law", laws)


def _require_same_chart(h1: ActionFamily, h2: ActionFamily) -> None:
    if h1.chart != h2.chart:
        raise NotDoubleStructureError("the two families live on different charts")


def check_commuting(
    h1: ActionFamily, h2: ActionFamily
) -> tuple[bool, tuple[tuple[str, WPolynomial], ...]]:
    """Do the two families commute as self-map families, exactly in t and u?

    Returns the verdict and, per failing variable, the pullback through
    first-family-last minus the pullback through second-family-last. Both
    composites put t at slot n = len(chart) and u at n + 1; the witnesses
    live on the chart followed by h1's parameter and h2's, which is named
    u, made fresh, when the two families share a parameter name.
    """
    _require_same_chart(h1, h2)
    chart = h1.chart
    n_vars = len(chart)
    u = fresh_name("u" if h2.param == h1.param else h2.param, chart.names + (h1.param,))
    ext = chart.extend(((h1.param, 0), (u, 0)))
    h1_last = _compose_families((h1, h2), (n_vars, n_vars + 1))
    h2_last = _compose_families((h2, h1), (n_vars + 1, n_vars))
    witnesses = tuple(
        (v, WPolynomial(ext, _terms_combine(((1, a), (-1, b)))))
        for v, a, b in zip(chart.names, h1_last, h2_last)
        if a != b
    )
    return (not witnesses, witnesses)


def _resolve_theta(
    families: Sequence[ActionFamily], theta: Mapping[str, Fraction | int] | None
) -> tuple[dict[str, Fraction], list[Fraction | int]]:
    """Theta, checked to be fixed by every family's h_0, and theta in stored
    form, one value per chart variable.

    The parameter is the last factor of any monomial that has it, at index
    n = len(chart), so h_0's entry for v is the sum of the entry's terms
    with no factor at index n, and h_0(theta)_v is that sum at theta, read
    off the stored terms: no map of h_0 is built.
    """
    names = families[0].chart.names
    if theta is None:
        point = dict.fromkeys(names, _ZERO)
    else:
        point = {v: _exact(theta.get(v, 0)) for v in names}
        unknown = set(theta) - set(names)
        if unknown:
            raise DomainError(f"theta mentions unknown variables {sorted(unknown)}")
    values = [_coefficient(point[v]) for v in names]
    n_vars = len(names)
    for h in families:
        for v, value in zip(names, values):
            fixed = 0
            for mono, c in h.entries[v].terms.items():
                if not mono or mono[-1][0] != n_vars:
                    for i, e in mono:
                        c *= values[i] ** e
                    fixed += c
            if fixed != value:
                hint = "" if theta is not None else "; pass a fixed point of h_0"
                raise DomainError(f"theta is not fixed by the parameter-0 map{hint}")
    return point, values


def base_projection(h: ActionFamily) -> PolyMap:
    """The parameter-0 self-map of a monoid family, which is idempotent:
    _require_monoid proves h_t o h_s = h_ts, and t = s = 0 gives h_0 o h_0 =
    h_0."""
    _require_monoid(h)
    return h._zero_map


def _jacobian_coefficients(
    parts: Sequence[Mapping[tuple[int, ...], Mapping[Monomial, Fraction | int]]],
    point: Sequence[Fraction | int],
) -> list[list[dict[tuple[int, ...], Fraction | int]]]:
    """The parameter coefficients of the derivative at theta, read from the
    split entries' terms.

    Cell (v, u) maps a multi-index m to the t_1^m_1 ... t_k^m_k coefficient
    of d(entry_v)/dx_u at theta, point holding theta in stored form. A term
    c * prod x_i^e_i of part m adds c * e_u * theta_u^(e_u - 1) *
    prod_(i != u) theta_i^e_i to cell (v, u) at m. Cells that cancel are
    dropped, so every stored coefficient is nonzero. No polynomial is built.
    """
    rows = []
    for split in parts:
        row: list[dict[tuple[int, ...], Fraction | int]] = [{} for _ in point]
        for idx, terms in split.items():
            for mono, c in terms.items():
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
                    s = cell.get(idx)
                    if s is None:
                        cell[idx] = value
                    else:
                        s += value
                        if s:
                            cell[idx] = s
                        else:
                            del cell[idx]
        rows.append(row)
    return rows


def taylor_projections(
    h: ActionFamily, theta: Mapping[str, Fraction | int] | None = None
) -> tuple[Matrix, ...]:
    """Taylor coefficient matrices Q_0 .. Q_n of the derivative at theta.

    Q_r is 1/r! times the r-th t-derivative of the derivative H(t) at t=0,
    which for polynomial entries is just the t^r coefficient matrix. These
    are the one-family joint projections of _joint_certificate, from its
    first stage (_first_stage), with its checks (_projections).
    """
    return _first_stage((h,), theta)[3]


def _first_stage(
    families: Sequence[ActionFamily], theta: Mapping[str, Fraction | int] | None
) -> tuple[dict[str, Fraction], list, list, tuple, dict]:
    """The certificate's first stage, for any number of families.

    Returns theta, checked to be fixed by every family's h_0
    (_resolve_theta); theta in stored form, one value per chart variable;
    the families' composite (graded._compose_families), split once by
    multi-index (graded._split); and the joint projections on the grid, as
    nested tuples, with each nonzero one factored (_projections), read off
    the composite's derivative at theta (_jacobian_coefficients). The
    composite applies the last family first, and family j's parameter sits
    at slot n + j, n = len(chart), so it is entry j of the multi-index. No
    chart is built.
    """
    point, values = _resolve_theta(families, theta)
    n_vars, k = len(values), len(families)
    parts = _split(_compose_families(families, range(n_vars, n_vars + k)), n_vars, k)
    projections, factored = _projections(_jacobian_coefficients(parts, values), k)
    return point, values, parts, projections, factored


def _projections(
    coeffs: Sequence[Sequence[Mapping[tuple[int, ...], Fraction | int]]], k: int
) -> tuple[tuple, dict[tuple[int, ...], _Factored]]:
    """The joint projections P_m on the full grid of multi-indices, and each
    nonzero P_m factored by the rank check.

    coeffs are the cells of _jacobian_coefficients for k parameters. The
    grid runs, in lexicographic order, over every multi-index m with m_i at
    most the largest exponent of parameter i in a nonzero cell; the P_m
    with no cell are zero matrices. It is returned as nested tuples,
    grid[m_1]...[m_k] = P_m, so one family's grid is Q_0 .. Q_n. The same
    pass writes each P_m twice: as the public Fraction matrix, and as
    integer numerators over one denominator (linalg.IntMatrix), which is
    all the certificate uses. The checks, sum P_m = I and sum rank P_m =
    n, and their proof are in _homogenize_joint; a failure raises
    DegenerateActionError when some direction is annihilated by every P_m,
    NotGradedActionError otherwise.
    """
    n_vars = len(coeffs)
    nonzero: dict[tuple[int, ...], list[tuple[int, int, Fraction | int]]] = {}
    for i, row in enumerate(coeffs):
        for j, c in enumerate(row):
            for idx, x in c.items():
                nonzero.setdefault(idx, []).append((i, j, x))
    shape = [max(exps) for exps in zip(*nonzero)] if nonzero else [0] * k
    # each P_m as Fractions and, when nonzero, as integer rows over one
    # denominator; the zero rows of both are shared and never written to
    zero_row, zero_ints = (_ZERO,) * n_vars, (0,) * n_vars
    cells: list = []
    ints: dict[tuple[int, ...], IntMatrix] = {}
    for idx in product(*(range(d + 1) for d in shape)):
        entries = nonzero.get(idx, ())
        fractions: list = [zero_row] * n_vars
        numerators: list = [zero_ints] * n_vars
        d = lcm(*{x.denominator for _, _, x in entries})
        for i, j, x in entries:
            if fractions[i] is zero_row:
                fractions[i], numerators[i] = [_ZERO] * n_vars, [0] * n_vars
            fractions[i][j] = _exact(x)
            numerators[i][j] = x.numerator * (d // x.denominator)
        cells.append(tuple(map(tuple, fractions)))
        if entries:
            ints[idx] = (numerators, d)
    # nest the lexicographic list, whose last index runs fastest
    for d in reversed(shape[1:]):
        cells = [tuple(cells[i : i + d + 1]) for i in range(0, len(cells), d + 1)]

    # sum P_m = I, read entry by entry from the coefficients
    if any(
        sum(c.values()) != (i == j)
        for i, row in enumerate(coeffs)
        for j, c in enumerate(row)
    ):
        stacked = [row for rows, _ in ints.values() for row in rows]
        if len(linalg._eliminate(stacked)[0]) < n_vars:
            raise DegenerateActionError(
                "some direction is annihilated by every Taylor projection"
            )
        raise NotGradedActionError("Taylor projections do not sum to the identity")
    factored = {}
    for idx, q in ints.items():
        pivots, rows, scale = linalg._eliminate(q[0])
        factored[idx] = _Factored(q, pivots, (rows, scale))
    if sum(len(f.pivots) for f in factored.values()) != n_vars:
        for idx, f in factored.items():
            if not linalg._fixes(f.q, f.q[0]):
                name = "_".join(map(str, idx))
                raise NotGradedActionError(f"Taylor coefficient Q_{name} is not a projection")
        raise EngineDefectError("idempotent Taylor projections have ranks above the chart")
    return tuple(cells), factored


def homogenize(
    h: ActionFamily, theta: Mapping[str, Fraction | int] | None = None
) -> Homogenization:
    """Build coordinates on which the family acts by plain powers of t.

    The one-family case of _homogenize_joint, whose record it returns: for
    each order r with a nonzero projection Q_r, the t^r coefficients of the
    pushed dual coordinates become the new weight-r coordinates y{r}_1,
    y{r}_2, ..., each of order (r,), and the projections are Q_0 .. Q_n. A
    family that breaks a law raises InconsistentActionError.
    """
    return _homogenize_joint((h,), theta, f"{h.chart.name}_h")


def _homogenize_joint(
    families: Sequence[ActionFamily],
    theta: Mapping[str, Fraction | int] | None,
    name: str,
) -> Homogenization:
    """Coordinates scaling by t_1**r_1 ... t_k**r_k under k monoid families.

    The families share one chart, and theta must be fixed by every family's
    h_0 (_resolve_theta, a DomainError otherwise). Their parameters are
    slots, not names, so families that share a parameter name are
    homogenized as they are. One argument serves every k, k = 1 included.
    The families' composite h1_t1 o ... o hk_tk (graded._compose_families)
    is built once, its entries are split once by their multi-index of
    parameter exponents (graded._split), and its derivative at theta is
    read off the split terms
    (_jacobian_coefficients) as H(t) = sum_m t_1^m_1 ... t_k^m_k P_m.

    - The chain rule. A monoid family fixes theta for every t: h_t(theta) =
      h_t(h_0(theta)) = h_0(theta) = theta, by the semigroup law h_t o h_0
      = h_0. At a point every family fixes, the derivative of the composite
      is the product of the families' derivatives, H1(t_1) ... Hk(t_k), so
      its t^m coefficient P_m is Q1_m_1 ... Qk_m_k, Qi_r being the Taylor
      projections of family i. These are the joint projections. Nothing
      here is assumed: the P_m are checked below, and the certificate
      proves the laws and the commutation of the families.
    - The rank check. Two checks make the P_m complementary projections:
      sum P_m = I, and sum_m rank P_m = n (_projections). Given the sum,
      complementary projections have ranks adding up to n: the trace of an
      idempotent is its rank, and sum tr P_m = tr I = n. Conversely, the
      images span everything, since x = sum P_m x, and their dimensions add
      up to n, so their sum is direct. For x in the image of P_l, x = sum
      P_m x writes x as a sum over the images; by uniqueness P_l x = x and
      P_m x = 0 for m != l. So P_l P_l = P_l and P_m P_l = 0.
    - The factors. The ranks come from one fraction-free elimination of
      each nonzero P_m's integer numerators (linalg._eliminate), which also
      gives its pivot columns piv and its rank factor R_m = rref(P_m)
      restricted to the rank rows, with P_m = P_m[:, piv] R_m. The ranks of
      matrices summing to I add up to at least n, so a failed count means
      a sum above n; the first P_m in lexicographic order that is not
      idempotent (linalg._fixes) is then reported, as Q_r for one family
      and as Q_1_2 for the multi-index (1, 2).
    - The stacked factors are the inverse. Let C hold the pivot columns
      P_m[:, piv] of every nonzero P_m side by side, in lexicographic order
      of m, and stack their R_m in the same order. The ranks add up to n,
      so C is square, and C (stacked R) = sum_m P_m[:, piv] R_m = sum_m P_m
      = I. A square matrix with a right inverse is invertible, so the
      stacked R is C^-1 and no inverse is computed. The inverse kernel's
      premise C^-1 C = I is checked over ints all the same
      (graded._checked_stored).

    The dual linear coordinates are pushed through the composite, and their
    t_1^r_1 ... t_k^r_k coefficients become the new coordinates
    y{r_1}_..._{r_k}_{i}, of weight r_1 + ... + r_k (for one family,
    y{r}_{i}). Both steps run on term dicts, one linear combination
    (wpoly._terms_combine) and one polynomial per coordinate, with the
    entries of C^-1 in stored form (graded._checked_stored):

    - The split. A constant lies in the zero multi-index only, where
      theta_v is subtracted. Taking the coefficient of one multi-index is
      linear, so the coordinate of row i and multi-index m is sum_j C^-1_ij
      part_j[m] over the split entries: what the t_1^r_1 ... t_k^r_k
      coefficient of the whole row, read off and rewritten over the chart,
      would give.
    - The scaling check (_check_scaling). A family's extended chart is the
      chart followed by its parameter t, so t has index n = len(chart),
      above every index of a monomial over the chart, and h_t^* phi_i =
      t^r phi_i is decided by the scaling kernel, wpoly._scaling_failures,
      whose docstring has the proof that its integer form is exact.
    - A coordinate with no term. Its derivative at theta is row i of C^-1
      (proof in graded._invert_coordinate_change), which is not 0, so an
      empty phi_i can only come from a wrong assembly. The check refuses
      it by name as an EngineDefectError, where 0 = t^r 0 would pass.

    Each new coordinate is checked to scale exactly under every family, and
    the change of coordinates is inverted by the one inverse kernel,
    graded._invert_coordinate_change: a Picard pass of bounded length,
    certified on one side by a zero residual, phi o psi = id, which proves
    both. The kernel's docstring has the proofs: the certificate, the
    checked premise, which proves only that a pass that fails has no
    inverse to find, the bound D (the largest summed parameter exponent of
    the composite) when every new weight is at least 1, and the
    Bass-Connell-Wright bound otherwise. Soundness rests on two checks, the
    scaling and the certified inverse, and not on how C was found. The
    certificate proves the laws, the commutation of the families and the
    total degree, so none of them is checked when it succeeds. Write phi
    for the new coordinates, psi for the verified inverse (phi o psi = id
    = psi o phi) and w_i for the order of phi_i under one family h.

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
) -> Homogenization:
    """The construction and exact checks of _homogenize_joint, unexplained."""
    chart = families[0].chart
    k = len(families)
    point, values, parts, projections, factored = _first_stage(families, theta)

    # C: the pivot columns of each nonzero P_m; C^-1: their rank factors
    # stacked in the same order; each as integer rows over one denominator
    c_den = lcm(*(f.q[1] for f in factored.values()))
    r_den = lcm(*(f.factor[1] for f in factored.values()))
    cols = [
        [row[j] * (c_den // d) for row in q]
        for (q, d), pivots, _ in factored.values()
        for j in pivots
    ]
    cinv = [
        [x * (r_den // den) for x in row]
        for _, _, (rows, den) in factored.values()
        for row in rows
    ]
    orders = [idx for idx, f in factored.items() for _ in f.pivots]
    # the inverse kernel's premise, checked once; both matrices in stored
    # form, so that integral entries multiply as ints
    basis, rows = _checked_stored(([list(row) for row in zip(*cols)], c_den), (cinv, r_den))

    # each entry minus theta; a constant lies in the zero multi-index only
    for split, c in zip(parts, values):
        if c:
            _terms_combine(((-1, {(): c}),), split.setdefault((0,) * k, {}))
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

    _check_scaling(families, [(v, p.terms) for v, p in phi.pullbacks.items()], orders)
    return Homogenization(
        chart=new_chart,
        homogenizer=phi,
        inverse=_invert_coordinate_change(phi, point, basis, degree),
        orders=tuple(orders),
        theta=point,
        projections=projections,
    )


def _check_scaling(
    families: Sequence[ActionFamily],
    coordinates: Sequence[tuple[str, Mapping[Monomial, Fraction | int]]],
    orders: Sequence[tuple[int, ...]],
) -> None:
    """Refuse the named coordinates unless h_t^* phi_i = t^r phi_i exactly
    for every family, r being the family's entry of phi_i's multi-index.

    One call of the scaling kernel (wpoly._scaling_failures) per family,
    with t at index n = len(chart), where the family's extended chart puts
    it, and the coordinates put over their denominators (wpoly._cleared)
    once for all the families. A coordinate with no term is refused first, as an EngineDefectError
    naming it: it can only come from a wrong assembly. A coordinate that
    does not scale raises NotGradedActionError, at the first family and
    then the first coordinate that fails.
    """
    for v, terms in coordinates:
        if not terms:
            raise EngineDefectError(f"homogenizer coordinate {v!r} is identically zero")
    cleared = _cleared(terms for _, terms in coordinates)
    n_vars = len(families[0].chart)
    for i, h in enumerate(families):
        powers = [idx[i] for idx in orders]
        images = [h.entries[v].terms for v in h.chart.names]
        failures = _scaling_failures(cleared, powers, images, n_vars)
        if failures:
            v = coordinates[failures[0]][0]
            raise NotGradedActionError(
                f"coordinate {v!r} does not scale by {h.param}^{powers[failures[0]]}"
            )


def reconstruct_entries(hom: Homogenization, h: ActionFamily) -> dict[str, WPolynomial]:
    """Entries of the family conjugated from the standard one by hom.

    h_t^* x_v = psi_v(t^w phi), phi the homogenizer and psi its inverse, in
    two passes of the substitution kernel on term dicts. The model family
    y_i -> t^(w_i) y_i of the homogenized chart (wpoly._scaling_terms) goes
    through phi, with its parameter sent to the parameter of h's extended
    chart, giving t^(w_i) phi_i; then each psi_v goes through those. For a
    correct homogenization this reproduces h exactly.
    """
    names = h.chart.names
    phi, psi = hom.homogenizer.pullbacks, hom.inverse.pullbacks
    images = [*(phi[y].terms for y in hom.chart.names), {((len(names), 1),): 1}]
    scaled = _terms_substitute(_scaling_terms(hom.chart.weights), images)
    rebuilt = _terms_substitute([psi[v].terms for v in names], scaled)
    return {v: WPolynomial(h.extended_chart, terms) for v, terms in zip(names, rebuilt)}


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
    its weight. The t-derivative of an entry sum t^k part_k at t = 1 is sum
    k * part_k, one linear combination of the parts graded._split reads.
    """
    names = h.chart.names
    parts = _split([h.entries[v].terms for v in names], len(names), 1)
    return tuple(
        (v, WPolynomial(h.chart, _terms_combine((k, p) for (k,), p in split.items())))
        for v, split in zip(names, parts)
    )


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
