"""Seeded random builders shared by the unit and acceptance tests.

Everything takes an explicit random.Random so test runs are reproducible;
nothing here touches the global RNG state.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from gradua.action import _require_same_chart
from gradua.charts import GradedChart, fresh_name
from gradua.errors import (
    DomainError,
    EngineDefectError,
    NotInvertibleError,
    SingularMatrixError,
)
from gradua.graded import PolyMap, ActionFamily, compose, is_graded_morphism
from gradua.jets import adapt
from gradua import linalg
from gradua.linalg import inverse, mat_mul
from gradua.wpoly import (
    WPolynomial, _exact, _terms_combine, _terms_mul, _terms_pow, monomial_basis,
)

_LETTERS = "xyz"


def random_chart(
    rng: random.Random,
    max_rank: tuple[int, ...] = (3, 2, 1),
    name: str = "R",
    min_vars: int = 1,
    max_base: int = 0,
) -> GradedChart:
    """A chart with up to max_rank[w-1] variables of weight w, at least min_vars.

    With max_base > 0 it also has up to max_base weight-0 variables b1, b2,
    .., listed first. The count is drawn only then, so max_base = 0 draws
    the same charts as before the option existed.
    """
    while True:
        counts = [rng.randint(0, m) for m in max_rank]
        base = rng.randint(0, max_base) if max_base else 0
        if sum(counts) + base >= min_vars:
            break
    variables = [(f"b{i}", 0) for i in range(1, base + 1)]
    for w, count in enumerate(counts, start=1):
        letter = _LETTERS[(w - 1) % len(_LETTERS)]
        for i in range(1, count + 1):
            variables.append((f"{letter}{i}", w))
    return GradedChart(name, tuple(variables))


def weighted_degree(p: WPolynomial) -> int:
    """The largest weighted degree of p's monomials; 0 for the zero polynomial."""
    w = p.chart.weights
    return max((sum(w[i] * e for i, e in mono) for mono in p.terms), default=0)


def reference_evaluate(p: WPolynomial, point) -> Fraction:
    """The value of p at a rational point, kept as the reference evaluator: a
    name lookup and _exact for every factor, DomainError for a variable with
    no value or an inexact one. The engine evaluates no polynomial."""
    names = p.chart.names
    total = Fraction(0)
    for mono, c in p.terms.items():
        val = c
        for i, e in mono:
            var = names[i]
            if var not in point:
                raise DomainError(f"no value for variable {var!r}")
            val *= _exact(point[var]) ** e
        total += val
    return total


def random_coefficient(rng: random.Random) -> Fraction:
    num = rng.choice([-3, -2, -1, 1, 2, 3])
    den = rng.choice([1, 1, 1, 2, 3])
    return Fraction(num, den)


def random_homogeneous(
    rng: random.Random,
    chart: GradedChart,
    weight: int,
    max_terms: int = 2,
    exclude_linear: bool = False,
    min_terms: int = 0,
) -> WPolynomial:
    """A sparse homogeneous polynomial of the given weighted degree."""
    basis = monomial_basis(chart, weight)
    if exclude_linear:
        basis = [m for m in basis if sum(e for _, e in m) > 1]
    if not basis:
        return WPolynomial.zero(chart)
    count = rng.randint(min(min_terms, len(basis)), min(max_terms, len(basis)))
    acc = WPolynomial.zero(chart)
    for mono in rng.sample(basis, count):
        acc = acc + WPolynomial.monomial(chart, dict(mono), random_coefficient(rng))
    return acc


def random_unipotent(rng: random.Random, chart: GradedChart) -> PolyMap:
    """Identity plus nonlinear same-weight corrections; always invertible.

    On a chart with weight-0 variables, each weight-0 pullback is shifted by
    a constant, and each term of a correction, drawn over the positive part
    of the chart, gains a factor b^e with b of weight 0 and e in 0..3. A
    chart of positive weights is drawn as before.
    """
    base = [v for v, w in chart.variables if w == 0]
    if base:
        positive = GradedChart("P", tuple((v, w) for v, w in chart.variables if w))
    pullbacks = {}
    for v, w in chart.variables:
        x = WPolynomial.variable(chart, v)
        if not base:
            pullbacks[v] = x + random_homogeneous(rng, chart, w, exclude_linear=True)
        elif w == 0:
            pullbacks[v] = x + random_coefficient(rng)
        else:
            correction = random_homogeneous(rng, positive, w, exclude_linear=True)
            for mono, c in correction.terms.items():
                exps = {positive.names[i]: e for i, e in mono}
                b = rng.choice(base)
                exps[b] = rng.randint(0, 3)
                x = x + WPolynomial.monomial(chart, exps, c)
            pullbacks[v] = x
    return PolyMap(chart, chart, pullbacks)


def random_linear(rng: random.Random, chart: GradedChart) -> PolyMap:
    """A weight-preserving linear automorphism built as L * D * U per block."""
    pullbacks = {}
    for w in sorted(set(chart.weights)):
        names = [v for v, wt in chart.variables if wt == w]
        m = len(names)
        lower = [
            [
                Fraction(1) if i == j else (Fraction(rng.randint(-2, 2)) if i > j else Fraction(0))
                for j in range(m)
            ]
            for i in range(m)
        ]
        upper = [
            [
                Fraction(1) if i == j else (Fraction(rng.randint(-2, 2)) if i < j else Fraction(0))
                for j in range(m)
            ]
            for i in range(m)
        ]
        diag = [Fraction(rng.choice([-2, -1, 1, 2])) for _ in range(m)]
        block = [
            [
                sum(lower[i][k] * diag[k] * upper[k][j] for k in range(m))
                for j in range(m)
            ]
            for i in range(m)
        ]
        for i, v in enumerate(names):
            acc = WPolynomial.zero(chart)
            for j, u in enumerate(names):
                if block[i][j]:
                    acc = acc + WPolynomial.variable(chart, u) * block[i][j]
            pullbacks[v] = acc
    return PolyMap(chart, chart, pullbacks)


def random_graded_automorphism(rng: random.Random, chart: GradedChart) -> PolyMap:
    return compose(random_unipotent(rng, chart), random_linear(rng, chart))


def random_shear(rng: random.Random, chart: GradedChart) -> tuple[PolyMap, PolyMap]:
    """A weight-mixing triangular (de Jonquieres) shear and its inverse.

    The variables split into an earlier and a later half. Each later x_i
    becomes x_i + c * u^e for an earlier u and e in (1, 2), chosen so that
    u^e has a weighted degree other than weight(x_i); the earlier variables
    stay fixed, so the inverse is x_i - c * u^e. On a chart of two or more
    variables, all of positive weight, the shear is therefore never graded.
    """
    names = chart.names
    earlier = names[: len(names) // 2]
    forward = {v: WPolynomial.variable(chart, v) for v in names}
    backward = dict(forward)
    for v in names[len(earlier):]:
        mixing = [
            {u: e}
            for u in earlier
            for e in (1, 2)
            if chart.weight_of(u) * e != chart.weight_of(v)
        ]
        if mixing:
            term = WPolynomial.monomial(chart, rng.choice(mixing), random_coefficient(rng))
            forward[v] = forward[v] + term
            backward[v] = backward[v] - term
    return PolyMap(chart, chart, forward), PolyMap(chart, chart, backward)


def reference_invert_automorphism(psi):
    """invert_automorphism as it was, by weight-filtered back-substitution,
    kept as the oracle. conjugated_action inverts with it too, so the test
    families do not rest on the inverse kernel they help to check.

    For each weight r in increasing order the pullbacks split into a linear
    block in the weight-r variables plus corrections in lower weights; the
    block is inverted exactly and the corrections are pushed through the
    already-built inverse. One composite is checked, psi.then(inverse).
    """
    if psi.source != psi.target:
        raise DomainError("only self-maps of one chart can be inverted here")
    if not is_graded_morphism(psi):
        raise DomainError("the map does not respect the weights")
    chart = psi.source
    inv = {}
    for w in sorted(set(chart.weights)):
        block_vars = [v for v in chart.names if chart.weight_of(v) == w]
        block_monos = [((chart.index_of(u), 1),) for u in block_vars]
        rows = []
        residues = []
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
            binv = inverse(tuple(tuple(r) for r in rows))
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


def conjugated_action(
    rng: random.Random, chart: GradedChart, param: str = "t"
) -> tuple[ActionFamily, PolyMap]:
    """A standard family dressed up by a shear and a random graded automorphism.

    The conjugating map gamma applies a weight-mixing shear (see
    random_shear), then a random graded automorphism. Where the shear is not
    graded, neither is gamma, and the family differs from the standard one.
    Returns the family and gamma, which satisfies gamma(h_t(y)) = t-scaling
    of gamma(y), so gamma is a valid homogenizer.
    """
    graded = random_graded_automorphism(rng, chart)
    shear, shear_inv = random_shear(rng, chart)
    gamma = compose(shear, graded)
    gamma_inv = compose(reference_invert_automorphism(graded), shear_inv)
    ext = chart.extend(((param, 0),))
    tvar = WPolynomial.variable(ext, param)
    sigma = {
        u: gamma.pullbacks[u].lift(ext) * tvar ** chart.weight_of(u)
        for u in chart.names
    }
    entries = {
        v: gamma_inv.pullbacks[v].substitute(sigma, into=ext) for v in chart.names
    }
    return ActionFamily(chart, param, entries), gamma


def linear_family(qs, param="t"):
    """The family x -> sum_r param^r Q_r x on a chart with one variable per row."""
    n = len(qs[0])
    chart = GradedChart("L", tuple((f"x{i}", 1) for i in range(n)))
    ext = chart.extend(((param, 0),))
    xs = [WPolynomial.variable(ext, v) for v in chart.names]
    t = WPolynomial.variable(ext, param)
    entries = {}
    for i, v in enumerate(chart.names):
        acc = WPolynomial.zero(ext)
        for r, q in enumerate(qs):
            for j, x in enumerate(xs):
                if q[i][j]:
                    acc = acc + t**r * x * q[i][j]
        entries[v] = acc
    return ActionFamily(chart, param, entries)


def nest(grid):
    """A grid of matrices keyed by multi-index, every multi-index of its box
    a key, as nested tuples: nest(grid)[m_1]...[m_k] == grid[m]."""
    first = range(max(idx[0] for idx in grid) + 1)
    if len(next(iter(grid))) == 1:
        return tuple(grid[r,] for r in first)
    return tuple(nest({idx[1:]: q for idx, q in grid.items() if idx[0] == r}) for r in first)


def random_basis_change(rng, n):
    """C = L U with unit triangular L and U, and its exact inverse."""
    def unit_triangular(below):
        return tuple(
            tuple(
                Fraction(1) if i == j
                else Fraction(rng.randint(-2, 2)) if (i > j) == below
                else Fraction(0)
                for j in range(n)
            )
            for i in range(n)
        )

    c = mat_mul(unit_triangular(True), unit_triangular(False))
    return c, inverse(c)


def conjugated_diagonal(c, c_inv, diagonal):
    n = len(diagonal)
    d = tuple(
        tuple(Fraction(diagonal[i]) if i == j else Fraction(0) for j in range(n))
        for i in range(n)
    )
    return mat_mul(mat_mul(c, d), c_inv)


def order_projections(c, c_inv, orders, degree):
    """Q_r = C E_r C^-1, where E_r picks the coordinates of order r."""
    return [
        conjugated_diagonal(c, c_inv, [1 if o == r else 0 for o in orders])
        for r in range(degree + 1)
    ]


def chained_family(rng, blocks):
    """A standard family conjugated by a de Jonquieres map whose corrections chain.

    The chart has `blocks` weight-0 coordinates b1.., which are only shifted,
    and a random positive part. In a random order each positive coordinate
    gains a constant (half of the time) and c * u^e for the coordinate u just
    before it, so the corrections compose and the inverse outgrows the map.
    Returns the family and its fixed point gamma^-1(0).
    """
    base = random_chart(rng, max_rank=(2, 1, 1), min_vars=2)
    blocks = tuple((f"b{i}", 0) for i in range(1, blocks + 1))
    chart = GradedChart("K", blocks + base.variables)
    x = {v: WPolynomial.variable(chart, v) for v in chart.names}
    forward, backward = {}, {}
    for b, _ in blocks:
        k = Fraction(rng.randint(-2, 2))
        forward[b], backward[b] = x[b] + k, x[b] - k
    order = list(base.names)
    rng.shuffle(order)
    earlier = [b for b, _ in blocks]
    for v in order:
        c = random_coefficient(rng) if rng.random() < 0.5 else 0
        forward[v], backward[v] = x[v] + c, x[v] - c
        if earlier:
            u, e, a = earlier[-1], rng.choice((1, 2, 2)), random_coefficient(rng)
            forward[v] = forward[v] + x[u] ** e * a
            backward[v] = backward[v] - backward[u] ** e * a
        earlier.append(v)
    ext = chart.extend((("t", 0),))
    t = WPolynomial.variable(ext, "t")
    scaled = {u: forward[u].lift(ext) * t ** chart.weight_of(u) for u in chart.names}
    entries = {v: backward[v].substitute(scaled, into=ext) for v in chart.names}
    origin = {v: 0 for v in chart.names}
    theta = {v: reference_evaluate(backward[v], origin) for v in chart.names}
    return ActionFamily(chart, "t", entries), theta


def distinct_params(h1, h2):
    """The pair on one chart with h2's parameter renamed when it is h1's, to
    u made fresh, the name check_commuting gives it in its witnesses: the
    renaming the engine once made before composing two families, kept for
    the reference routes, which find each parameter by its name."""
    _require_same_chart(h1, h2)
    if h2.param == h1.param:
        h2 = h2.with_param(fresh_name("u", h2.chart.names + (h1.param,)))
    return h1, h2


def prefix_cached_substitute(polys, images):
    """The substitution kernel as it was before its one-pass form, kept as a
    reference: one cache of the powers images[i]^e and of the image of every
    monomial met and of its prefixes, a monomial's image its prefix's image
    times the power of its last factor, and each result one _terms_combine
    of c * image(m) over the terms c * m."""
    powers = {}
    cache = {(): {(): 1}}

    def image(mono):
        got = cache.get(mono)
        if got is None:
            last = mono[-1]
            power = powers.get(last)
            if power is None:
                i, e = last
                power = powers[last] = images[i] if e == 1 else _terms_pow(images[i], e)
            got = power if len(mono) == 1 else _terms_mul(image(mono[:-1]), power)
            cache[mono] = got
        return got

    return [_terms_combine((c, image(m)) for m, c in terms.items()) for terms in polys]


def terms_add_into(out, terms):
    """wpoly._terms_add_into as it was before sums went through
    _terms_combine, kept as a reference: add terms into out in place,
    dropping coefficients that cancel to zero."""
    for mono, c in terms.items():
        s = out.get(mono)
        if s is None:
            out[mono] = c
        else:
            s += c
            if s:
                out[mono] = s
            else:
                del out[mono]


def named_flip(m, n, chart):
    """multigrade._flip_names as it was before it read the charts by
    position, kept as a reference: every target name is split into its two
    levels and base by level_of, and its source name formed by jet_name."""
    inner_src = adapt(chart, m)
    outer_src = adapt(inner_src.chart, n)
    inner_dst = inner_src if m == n else adapt(chart, n)
    outer_dst = outer_src if m == n else adapt(inner_dst.chart, m)
    names = {}
    for name in outer_dst.chart.names:
        mid, q = outer_dst.level_of(name)
        base, p = inner_dst.level_of(mid)
        names[name] = outer_src.jet_name(inner_src.jet_name(base, q), p)
    return outer_src.chart, outer_dst.chart, names


# --- the dense integer kernels the sparse ones replaced, kept as references -----


def sparse_rows(rows):
    """Dense integer rows as linalg's sparse rows: {column: nonzero int}."""
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


def dense_rows(rows, cols):
    """Sparse integer rows written out over `cols` columns."""
    return [[row.get(j, 0) for j in range(cols)] for row in rows]


def dense_eliminate(rows):
    """The dense fraction-free Gauss-Jordan kernel linalg._eliminate replaced:
    the pivot columns, the first rank rows of D * rref and D, every column
    scanned left to right, the first that extends the span taken."""
    work = [row for row in rows if any(row)]
    picked = []
    prev = 1
    for j in range(len(rows[0]) if rows else 0):
        r = len(picked)
        n_rows = len(work)
        if r == n_rows:
            break
        pivot = next((i for i in range(r, n_rows) if work[i][j]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        top = work[r]
        p = top[j]
        for i in range(n_rows):
            if i == r:
                continue
            f = work[i][j]
            if f:
                work[i] = [(p * x - f * y) // prev for x, y in zip(work[i], top)]
            elif p != prev:
                work[i] = [p * x // prev for x in work[i]]
        prev = p
        picked.append(j)
        work[r + 1 :] = [row for row in work[r + 1 :] if any(row)]
    return picked, work[: len(picked)], prev


def dense_inverse(rows, d):
    """The dense inverse kernel linalg._inverse replaced, on N / d: the rows
    of D * a^-1 and D, or SingularMatrixError naming the first column of N
    with no pivot."""
    n = len(rows)
    work = [[*row] + [d if i == j else 0 for j in range(n)] for i, row in enumerate(rows)]
    pivots, reduced, denominator = dense_eliminate(work)
    if pivots[:n] != list(range(n)):
        missing = next(j for j in range(n) if j not in pivots)
        raise SingularMatrixError(f"column {missing} has no pivot")
    return [row[n:] for row in reduced], denominator


def assert_kernels_agree(m, cols, sympy=None):
    """The sparse _eliminate on the rows of m, dense or sparse, gives exactly
    the dense reference kernel's pivots, reduced rows and D, and, given
    sympy, its rref; the sparse _inverse of a square m gives the dense
    reference's rows and D, or the same SingularMatrixError."""
    rows = [dict(row) for row in m] if m and isinstance(m[0], dict) else sparse_rows(m)
    dense = dense_rows(rows, cols)
    pivots, reduced, d = linalg._eliminate(rows)
    ref_pivots, ref_reduced, ref_d = dense_eliminate(dense)
    assert (pivots, dense_rows(reduced, cols), d) == (ref_pivots, ref_reduced, ref_d)
    assert all(x for row in reduced for x in row.values())  # no zero is stored
    if sympy is not None and rows:
        expected, expected_pivots = sympy.Matrix(dense).rref()
        assert tuple(pivots) == expected_pivots
        assert [[Fraction(x, d) for x in row] for row in dense_rows(reduced, cols)] == [
            [Fraction(int(expected[i, j].p), int(expected[i, j].q)) for j in range(cols)]
            for i in range(len(pivots))
        ]
    if len(rows) == cols:
        for den in (1, 3):
            try:
                expected_inverse = dense_inverse(dense, den)
            except SingularMatrixError as exc:
                with pytest.raises(SingularMatrixError, match=f"^{exc}$"):
                    linalg._inverse((rows, den))
            else:
                got, e = linalg._inverse((rows, den))
                assert (dense_rows(got, cols), e) == expected_inverse
                assert all(x for row in got for x in row.values())
