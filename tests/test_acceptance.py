"""Acceptance suite: one test per release criterion, each with a time budget.

Every check here is exact rational arithmetic, so there are no tolerances
to pin: equalities are literal. Randomized criteria share one seeded corpus
(see the corpus fixture) so reruns are byte-for-byte reproducible. Each
test prints a single `criterion N: PASS` line; run pytest with -rP (the
default for this repo) to see them.
"""

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import (
    conjugated_action,
    random_chart,
    random_coefficient,
    random_homogeneous,
)

from gradua.action import (
    analyze,
    euler_field,
    extend_negative,
    homogenize,
    reconstruct_entries,
)
from gradua.charts import GradedChart
from gradua.dsl import parse, print_program
from gradua.graded import (
    ActionFamily,
    PolyMap,
    compose,
    invert_automorphism,
    is_graded_morphism,
    matrix_representation,
    standard_action,
)
from gradua.errors import NotInvertibleError
from gradua.jets import adapt, jet_action, prolong, prolong_action
from gradua.linalg import identity, mat_add, mat_mul, zeros
from gradua.multigrade import check_commuting, flip, total_action
from gradua.wpoly import WPolynomial, monomial_basis

HERE = Path(__file__).parent
DATA = HERE / "data"
GOLDEN = HERE / "golden"

SEED = 20260818


def _pass(n: int, detail: str, elapsed: float | None = None) -> None:
    suffix = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"criterion {n}: PASS - {detail}{suffix}")


@pytest.fixture(scope="module")
def corpus():
    """200 randomized conjugated monoid families, homogenized once.

    Every chart has at least two variables, so the weight-mixing shear in
    conjugated_action makes every family differ from the standard one and
    every homogenizer is genuine. Shared by criteria 2, 3, 6, and 7; the
    generation plus homogenization time is part of criterion 2's budget.
    """
    rng = random.Random(SEED)
    entries = []
    started = time.perf_counter()
    for _ in range(200):
        chart = random_chart(rng, max_rank=(3, 2, 1), min_vars=2)
        family, gamma = conjugated_action(rng, chart)
        assert family.entries != standard_action(chart, family.param).entries
        hom = homogenize(family)
        entries.append((chart, family, gamma, hom))
    elapsed = time.perf_counter() - started
    return entries, elapsed


# --- criterion 1: worked examples ---------------------------------------------


def test_criterion_1_worked_examples():
    started = time.perf_counter()

    # (a) the graded self-maps of a rank-(1,1) chart are exactly
    #     x -> a*x, y -> b*y + c*x^2, i.e. matrices [[a,0,0],[0,b,0],[0,c,a^2]]
    #     over the basis (x, y, x^2), and composition is matrix product.
    V = GradedChart("V", (("x", 1), ("y", 2)))
    # shape is forced: these are the only monomials of weights 1 and 2
    assert monomial_basis(V, 1) == [(("x", 1),)]
    assert monomial_basis(V, 2) == [(("x", 2),), (("y", 1),)]

    # symbolic composition law, with the coefficients as weight-0 variables
    coeffs = tuple((name, 0) for name in ("a1", "b1", "c1", "a2", "b2", "c2"))
    C = GradedChart("C", coeffs + (("x", 1), ("y", 2)))

    def symbolic(k: str) -> PolyMap:
        var = lambda n: WPolynomial.variable(C, n)
        pullbacks = {name: var(name) for name, _ in coeffs}
        pullbacks["x"] = var(f"a{k}") * var("x")
        pullbacks["y"] = var(f"b{k}") * var("y") + var(f"c{k}") * var("x") ** 2
        return PolyMap(C, C, pullbacks)

    psi1, psi2 = symbolic("1"), symbolic("2")
    assert is_graded_morphism(psi1)
    composite = compose(psi1, psi2)
    var = lambda n: WPolynomial.variable(C, n)
    assert composite.pullbacks["x"] == var("a1") * var("a2") * var("x")
    assert composite.pullbacks["y"] == var("b1") * var("b2") * var("y") + (
        var("b2") * var("c1") + var("c2") * var("a1") ** 2
    ) * var("x") ** 2

    # numeric multiplicativity on 100 random rational samples
    rng = random.Random(SEED + 1)

    def sample() -> tuple[PolyMap, tuple[Fraction, Fraction, Fraction]]:
        a = random_coefficient(rng)
        b = random_coefficient(rng)
        c = random_coefficient(rng)
        x = WPolynomial.variable(V, "x")
        y = WPolynomial.variable(V, "y")
        return PolyMap(V, V, {"x": a * x, "y": b * y + c * x**2}), (a, b, c)

    for _ in range(100):
        f, (a, b, c) = sample()
        g, _ = sample()
        assert matrix_representation(f) == (
            (a, 0, 0),
            (0, b, 0),
            (0, c, a * a),
        )
        assert matrix_representation(compose(f, g)) == mat_mul(
            matrix_representation(f), matrix_representation(g)
        )

    # the shape needs a and b invertible: b = 0 is not an automorphism
    x = WPolynomial.variable(V, "x")
    with pytest.raises(NotInvertibleError):
        invert_automorphism(PolyMap(V, V, {"x": x, "y": x**2}))

    # (b) the shear (x1, x2, y) -> (x1, x2, y + x1^2) respects weights
    W = GradedChart("W", (("x1", 1), ("x2", 1), ("y", 2)))
    wvar = lambda n: WPolynomial.variable(W, n)
    shear = PolyMap(
        W, W, {"x1": wvar("x1"), "x2": wvar("x2"), "y": wvar("y") + wvar("x1") ** 2}
    )
    assert is_graded_morphism(shear)

    # (c) x -> t*x, y -> 0 composes but fails the identity law, witnessed on y
    P = GradedChart("P", (("x", 1), ("y", 1)))
    ext = P.extend((("t", 0),))
    t = WPolynomial.variable(ext, "t")
    collapse = ActionFamily(
        P,
        "t",
        {"x": t * WPolynomial.variable(ext, "x"), "y": WPolynomial.zero(ext)},
    )
    report = analyze(collapse)
    assert report.semigroup_ok
    assert not report.monoid_ok
    assert [(w.law, w.variable, str(w.difference)) for w in report.witnesses] == [
        ("monoid", "y", "y")
    ]

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _pass(1, "worked examples: self-map shape, shear, law counterexample", elapsed)


# --- criterion 2: randomized conjugated actions --------------------------------


def test_criterion_2_conjugated_actions_homogenize(corpus):
    entries, build_elapsed = corpus
    started = time.perf_counter()
    assert len(entries) == 200
    for chart, family, gamma, hom in entries:
        # weight multiset is recovered exactly
        assert sorted(hom.homogenized_chart.weights) == sorted(chart.weights)
        # the homogenizer conjugates the family back to the standard one
        assert reconstruct_entries(hom, family) == dict(family.entries)
    elapsed = build_elapsed + (time.perf_counter() - started)
    assert elapsed < 30.0
    _pass(2, "200 conjugated actions homogenized, weights exact", elapsed)


# --- criterion 3: projection identities -----------------------------------------


def test_criterion_3_projection_identities(corpus):
    entries, _ = corpus
    for chart, _family, _gamma, hom in entries:
        n = len(chart.names)
        qs = hom.projections
        total = zeros(n, n)
        for r, q_r in enumerate(qs):
            total = mat_add(total, q_r)
            for s, q_s in enumerate(qs):
                expected = q_r if r == s else zeros(n, n)
                assert mat_mul(q_r, q_s) == expected
        assert total == identity(n)
    _pass(3, "Q_r Q_s = delta Q_r and sum Q_r = I on the whole corpus")


# --- criterion 4: prolongation -------------------------------------------------


def _random_graded_map(rng, source, target):
    pullbacks = {
        v: random_homogeneous(rng, source, target.weight_of(v), max_terms=2)
        for v in target.names
    }
    return PolyMap(source, target, pullbacks)


def _family_as_map(h):
    return PolyMap(h.extended_chart, h.chart, dict(h.entries))


def _lift_over_param(phi, param):
    ext_src = phi.source.extend(((param, 0),))
    ext_tgt = phi.target.extend(((param, 0),))
    pullbacks = {v: phi.pullbacks[v].lift(ext_src) for v in phi.target.names}
    pullbacks[param] = WPolynomial.variable(ext_src, param)
    return PolyMap(ext_src, ext_tgt, pullbacks)


def test_criterion_4_prolongation():
    started = time.perf_counter()
    rng = random.Random(SEED + 4)

    for _ in range(100):
        A = random_chart(rng, max_rank=(1, 1, 1), name="A")
        B = random_chart(rng, max_rank=(1, 1, 1), name="B")
        C = random_chart(rng, max_rank=(1, 1, 1), name="C")
        phi = _random_graded_map(rng, A, B)
        psi = _random_graded_map(rng, B, C)
        r = rng.randint(1, 3)

        # functoriality: prolonging a composite is composing prolongations
        assert prolong(compose(phi, psi), r) == compose(
            prolong(phi, r), prolong(psi, r)
        )

        # equivariance: the prolonged map intertwines the jet scaling
        # families of its source and target, symbolically in t
        lifted = prolong(phi, r)
        j_src = jet_action(adapt(A, r), "t")
        j_tgt = jet_action(adapt(B, r), "t")
        route_1 = _family_as_map(j_src).then(lifted)
        route_2 = _lift_over_param(lifted, "t").then(_family_as_map(j_tgt))
        assert route_1 == route_2

    # univariate oracle: repeated chain rule, independently of prolong
    X = GradedChart("X", (("x", 1),))
    Y = GradedChart("Y", (("y", 1),))
    jet_x = adapt(X, 4)
    jet_y = adapt(Y, 4)

    def total_derivative(q):
        out = WPolynomial.zero(jet_x.chart)
        for level in range(4):
            cur = jet_x.jet_name("x", level)
            nxt = jet_x.jet_name("x", level + 1)
            out = out + q.differentiate(cur) * WPolynomial.variable(jet_x.chart, nxt)
        return out

    for _ in range(20):
        p = WPolynomial.zero(X)
        for degree in range(rng.randint(1, 4) + 1):
            coeff = random_coefficient(rng) if rng.random() < 0.7 else Fraction(0)
            p = p + coeff * WPolynomial.variable(X, "x") ** degree
        lifted = prolong(PolyMap(X, Y, {"y": p}), 4)
        expected = p.lift(jet_x.chart)
        for level in range(5):
            assert lifted.pullbacks[jet_y.jet_name("y", level)] == expected
            expected = total_derivative(expected)

    elapsed = time.perf_counter() - started
    assert elapsed < 20.0
    _pass(4, "functoriality, jet equivariance, chain-rule oracle to order 4", elapsed)


# --- criterion 5: homogeneity routes --------------------------------------------


def test_criterion_5_dual_route_homogeneity():
    rng = random.Random(SEED + 5)
    charts = (
        GradedChart("V", (("x", 1), ("y", 2))),
        GradedChart("W", (("x1", 1), ("x2", 1), ("y", 2), ("z", 3))),
        GradedChart("U", (("a", 0), ("x", 1), ("y", 2))),
    )
    checked = 0
    for _ in range(1000):
        chart = rng.choice(charts)
        p = WPolynomial.zero(chart)
        for _ in range(rng.randint(1, 4)):
            exponents = {
                v: rng.randint(0, 2) for v in chart.names if rng.random() < 0.6
            }
            p = p + WPolynomial.monomial(chart, exponents, random_coefficient(rng))
        components = p.homogeneous_components()
        for w in range(0, 8):
            # is_homogeneous settles scaling and derivation routes against
            # each other internally and raises if they ever split
            verdict = p.is_homogeneous(w)
            truth = p.is_zero() or list(components) == [w]
            assert verdict == truth
        checked += 1
    assert checked == 1000
    _pass(5, "both homogeneity routes agree on 1000 random polynomials")


# --- criterion 6: jets of actions, flips, total structures ----------------------


def test_criterion_6_double_structures(corpus):
    entries, _ = corpus
    started = time.perf_counter()

    # (a) prolonging a corpus family commutes with the jet scaling family
    for chart, family, _gamma, _hom in entries[:3]:
        for order in (1, 2):
            lifted = prolong_action(family, order)
            scaling = jet_action(adapt(chart, order), "t").with_param("u")
            commuting, witnesses = check_commuting(lifted, scaling)
            assert commuting, [(v, str(d)) for v, d in witnesses]

    # (b) the order-(1,1) flip is an involution intertwining the two
    # tick-scaling structures on the double chart: conjugating the
    # prolonged inner scaling gives exactly the outer scaling
    M = GradedChart("M", (("x", 1), ("y", 2)))
    inner = adapt(M, 1)
    outer = adapt(inner.chart, 1)
    swap = flip(1, 1, M)
    assert compose(swap, swap).is_identity()

    first = prolong_action(jet_action(inner, "t"), 1)
    assert first.chart == outer.chart

    for q in (Fraction(2), Fraction(1, 2), Fraction(-3)):
        member = first.at(q)
        for name in outer.chart.names:
            inner_name, _outer_level = outer.level_of(name)
            _root, inner_level = inner.level_of(inner_name)
            assert member.pullbacks[name] == q**inner_level * WPolynomial.variable(
                outer.chart, name
            )
        conjugated = compose(compose(swap, member), swap)
        for name in outer.chart.names:
            _inner_name, outer_level = outer.level_of(name)
            expected = q**outer_level * WPolynomial.variable(outer.chart, name)
            assert conjugated.pullbacks[name] == expected

    # (c) the total structure of two commuting degree-1 structures has
    # degree 2 and its generator is the sum of the two weight fields
    D = GradedChart("D", (("x1", 1), ("x2", 1), ("z", 2)))
    ext_t = D.extend((("t", 0),))
    ext_u = D.extend((("u", 0),))

    def dvar(ext, n):
        return WPolynomial.variable(ext, n)

    h1 = ActionFamily(
        D,
        "t",
        {
            "x1": dvar(ext_t, "t") * dvar(ext_t, "x1"),
            "x2": dvar(ext_t, "x2"),
            "z": dvar(ext_t, "t") * dvar(ext_t, "z"),
        },
    )
    h2 = ActionFamily(
        D,
        "u",
        {
            "x1": dvar(ext_u, "x1"),
            "x2": dvar(ext_u, "u") * dvar(ext_u, "x2"),
            "z": dvar(ext_u, "u") * dvar(ext_u, "z"),
        },
    )
    commuting, _ = check_commuting(h1, h2)
    assert commuting
    total = total_action(h1, h2)
    assert analyze(total).degree == 2
    generator = dict(euler_field(total))
    first_field = dict(euler_field(h1))
    second_field = dict(euler_field(h2))
    for v in D.names:
        assert generator[v] == first_field[v] + second_field[v]

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _pass(6, "jet prolongation commutes, flip intertwines, total degree adds", elapsed)


# --- criterion 7: the parameter -1 map ------------------------------------------


def test_criterion_7_negative_parameter(corpus):
    entries, _ = corpus
    for chart, family, _gamma, hom in entries:
        extended = extend_negative(family)
        f = extended.at(-1)
        # in homogenized coordinates, -1 negates the odd-weight directions
        negate = standard_action(hom.homogenized_chart, family.param).at(-1)
        for v, w in hom.homogenized_chart.variables:
            scale = Fraction(-1) ** w
            expected = scale * WPolynomial.variable(hom.homogenized_chart, v)
            assert negate.pullbacks[v] == expected
        assert compose(f, hom.homogenizer) == compose(hom.homogenizer, negate)
        # and it is an involution on the original chart
        assert compose(f, f).is_identity()
    _pass(7, "parameter -1 negates odd weights and squares to the identity")


# --- criterion 8: command-line contract ------------------------------------------


def _gradua(*args, stdin=None, env_extra=None):
    env = os.environ.copy()
    env.pop("GRADUA_SCHEMA_VERSION", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "gradua", *args],
        capture_output=True,
        text=True,
        input=stdin,
        env=env,
    )


def test_criterion_8_cli_contract():
    golden_cases = [
        ("scaling.gradua", "scaling.json", 0),
        ("shear.gradua", "shear.json", 0),
        ("monoid_gap.gradua", "monoid_gap.json", 1),
        ("tour.gradua", "tour.txt", 0),
    ]
    for source, golden, code in golden_cases:
        first = _gradua("run", str(DATA / source))
        second = _gradua("run", str(DATA / source))
        assert first.returncode == code, first.stderr
        assert first.stdout == (GOLDEN / golden).read_text()
        assert first.stdout == second.stdout  # byte-stable across runs

    # parse -> print -> parse is the identity on the whole corpus
    for path in sorted(DATA.glob("*.gradua")):
        program = parse(path.read_text())
        assert parse(print_program(program)) == program

    # exit-code contract: 2 for unparseable input and schema mismatch
    bad_parse = _gradua("run", "-", stdin="chart V (x:)")
    assert bad_parse.returncode == 2
    assert bad_parse.stdout == ""
    pinned = _gradua(
        "run",
        str(DATA / "scaling.gradua"),
        env_extra={"GRADUA_SCHEMA_VERSION": "999"},
    )
    assert pinned.returncode == 2
    json.loads(_gradua("run", str(DATA / "scaling.gradua")).stdout)  # valid JSON
    _pass(8, "golden reports byte-stable, corpus round-trips, exit codes hold")
