"""The benchmark's tracer still finds every gradua layer it wraps, the
fused polynomial kernels and the parser build one polynomial object per
operation or expression, and each command of `gradua run` and each
`analyze` derives what it needs once.

perfbench/spans.py wraps engine functions by name from outside; renaming or
removing one of them would break `perfbench/run.py --trace 1` without any
engine test noticing. This test installs the tracer in a fresh interpreter.
"""

import random
import subprocess
import sys
from pathlib import Path

from fractions import Fraction

from gradua import cli, graded, jets, linalg
from gradua.action import analyze, homogenize
from gradua.charts import GradedChart
from gradua.dsl import parse
from gradua.graded import ActionFamily, PolyMap, standard_action
from gradua.multigrade import bihomogenize
from gradua.wpoly import WPolynomial

from helpers import chained_family, conjugated_action, random_graded_automorphism

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_tracer_installs():
    script = (
        "import sys; sys.path[:0] = ['perfbench', 'src']; "
        "import spans; spans.install(spans.Tracer())"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr


def test_benchmark_oracle_accepts_the_engine():
    """perfbench's own checks pass gradua's outputs and reject corrupted ones.

    mutation_check.py runs a few operations of each workload through the
    benchmark's independent oracle, then corrupts their outputs and exits
    non-zero if a corruption goes unnoticed or a genuine output is rejected.
    """
    done = subprocess.run(
        [sys.executable, "perfbench/mutation_check.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr


def _count_constructions(monkeypatch):
    """Patch WPolynomial.__init__ with a counting wrapper; return the counter."""
    calls = []
    init = WPolynomial.__init__

    def counted(self, chart, terms):
        calls.append(chart)
        init(self, chart, terms)

    monkeypatch.setattr(WPolynomial, "__init__", counted)
    return calls


def test_substitute_builds_one_polynomial(monkeypatch):
    src = GradedChart("S", (("a", 0), ("x", 1), ("y", 2)))
    dst = GradedChart("D", (("u", 1), ("v", 2)))
    a, x, y = (WPolynomial.variable(src, n) for n in src.names)
    u, v = (WPolynomial.variable(dst, n) for n in dst.names)
    f = (x + a) ** 3 * y - y**2 * 5 + a * x - 1
    sigma = {"a": u + 1, "x": u * 2 - v, "y": v**2 + u}
    calls = _count_constructions(monkeypatch)
    f.substitute(sigma, into=dst)
    assert calls == [dst]


def test_is_identity_builds_no_polynomial(monkeypatch):
    chart = GradedChart("C", (("x", 1), ("y", 2)))
    ident = PolyMap.identity(chart)
    x = WPolynomial.variable(chart, "x")
    shear = PolyMap(chart, chart, {"x": x, "y": WPolynomial.variable(chart, "y") + x * x})
    calls = _count_constructions(monkeypatch)
    assert ident.is_identity()
    assert not shear.is_identity()
    assert calls == []


def _count_calls(monkeypatch, owner, name):
    """Patch owner.name with a counting wrapper; return the list of calls."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


GRADED_SHEAR = """\
chart A (x1:1, x2:1, y1:2)
map psi : A -> A {
  x1 = x1 + 1/3*x2;
  x2 = x1 + 2*x2;
  y1 = 3*x1^2 - 3/2*x1*x2 + 3*y1;
}
"""


NOT_GRADED = """\
map bad : A -> A {
  x1 = x1;
  x2 = x2 - x1;
  y1 = x1 + y1;
}
"""


def test_check_morphism_decides_gradedness_once(monkeypatch):
    calls = _count_calls(monkeypatch, WPolynomial, "is_homogeneous")
    for name, graded in (("psi", True), ("bad", False)):
        program = parse(GRADED_SHEAR + NOT_GRADED + f"check-morphism {name}\n")
        calls.clear()
        (entry,) = cli.run(program).results
        assert entry["graded"] is graded
        assert ("matrix" in entry) is graded
        assert len(calls) == 3  # one per target variable
    assert entry["failures"] == [{"variable": "y1", "weight": 2, "pullback": "y1 + x1"}]


def test_analyze_inverts_one_matrix(monkeypatch):
    # h_t = gamma^-1 o s_t o gamma, gamma = (x + 1, y + x^2 + 2): nonlinear,
    # with the fixed point gamma^-1(0) = (-1, -3) off the origin
    chart = GradedChart("S", (("x", 1), ("y", 2)))
    ext = chart.extend((("t", 0),))
    x, y, t = (WPolynomial.variable(ext, v) for v in ext.names)
    gx, gy = (x + 1) * t, (y + x**2 + 2) * t**2
    family = ActionFamily(chart, "t", {"x": gx - 1, "y": gy - (gx - 1) ** 2 - 2})
    calls = _count_calls(monkeypatch, linalg, "inverse")
    report = analyze(family, {"x": -1, "y": -3})
    assert report.monoid_ok and report.degree == 2
    assert len(report.inverse_homogenizer.pullbacks["y"].terms) > 2
    assert len(calls) == 1


def test_analyze_decides_projections_by_rank_and_composes_nothing(monkeypatch):
    # one coordinate of each weight 1..6, as in the benchmark's deep workload
    chart = GradedChart("D", tuple((f"x{w}", w) for w in range(1, 7)))
    family, _ = conjugated_action(random.Random(3), chart)
    assert family.entries != standard_action(chart).entries
    idempotent = _count_calls(monkeypatch, linalg, "is_idempotent")
    scanned = _count_calls(monkeypatch, linalg, "independent_columns")
    composed = _count_calls(monkeypatch, PolyMap, "then")
    report = analyze(family)
    nonzero = [q for q in report.projections if any(map(any, q))]
    assert len(nonzero) == 6 < len(report.projections)  # Q_0 is zero
    # the rank check's pivots are the homogenizer's basis columns, and the
    # settled Picard round certifies the inverse
    assert (len(idempotent), len(scanned), len(composed)) == (0, 6, 0)
    assert [a for a, in scanned] == nonzero

    # psi_y1 of this family has total degree 8 and 134 terms; checking it by
    # the composite phi.then(psi) took most of its homogenize time
    rng = random.Random(31)
    family, theta = [chained_family(rng, i % 3) for i in range(21)][20]
    composed.clear()
    hom = homogenize(family, theta)
    assert len(hom.inverse.pullbacks["y1"].terms) == 134
    assert composed == []


def test_analyze_forms_its_linear_combinations_on_term_dicts(monkeypatch):
    """The homogenizer rows, the scaling check, N and the Picard iterates are
    term-dict combinations: no polynomial sum, difference, scaling, lift,
    coefficient split or chart rewrite, and one polynomial per result."""
    chart = GradedChart("D", tuple((f"x{w}", w) for w in range(1, 7)))
    family, _ = conjugated_action(random.Random(3), chart)
    methods = ("__add__", "__sub__", "scale", "coefficients_in", "restrict_chart", "lift")
    calls = {name: _count_calls(monkeypatch, WPolynomial, name) for name in methods}
    built = _count_constructions(monkeypatch)
    report = analyze(family)
    assert report.degree == 6
    assert {name: len(c) for name, c in calls.items()} == dict.fromkeys(methods, 0)
    # 44 measured: h_0, phi, the scaling checks and N build 6 each, the
    # Picard pass 20; the object-level route built 224
    assert len(built) <= 44


def test_invert_automorphism_runs_one_picard_pass(monkeypatch):
    """One pass, one inverse per weight block, and no polynomial sum,
    difference or scaling beyond those of the gradedness check."""
    chart = GradedChart("A", (("x1", 1), ("x2", 1), ("y1", 2), ("z1", 3)))
    psi = random_graded_automorphism(random.Random(5), chart)
    methods = ("__add__", "__sub__", "scale")
    calls = {name: _count_calls(monkeypatch, WPolynomial, name) for name in methods}
    graded.is_graded_morphism(psi)
    checking = {name: len(c) for name, c in calls.items()}
    for c in calls.values():
        c.clear()
    passes = _count_calls(monkeypatch, graded, "_picard_inverse")
    blocks = _count_calls(monkeypatch, linalg, "inverse")
    inverse = graded.invert_automorphism(psi)
    assert psi.then(inverse).is_identity()
    assert (len(passes), len(blocks)) == (1, 3)
    # is_homogeneous's Euler route makes its own sums and scalings
    assert {name: len(c) for name, c in calls.items()} == checking


def test_prolong_substitutes_the_curves_once(monkeypatch):
    program = parse(GRADED_SHEAR)
    calls = _count_calls(monkeypatch, jets, "_taylor_components")
    lifted = jets.prolong(program.maps()["psi"], 4)
    assert len(lifted.pullbacks) == 15
    assert len(calls) == 1


def test_flip_round_trip_substitutes_nothing(monkeypatch):
    program = parse("chart A (x1:1, x2:1, y1:2)\nflip 2 2 A\n")
    calls = _count_calls(monkeypatch, WPolynomial, "substitute")
    report = cli.run(program)
    assert report.results[0]["round_trip_identity"] is True
    assert calls == []


def test_flip_with_equal_orders_builds_one_renaming(monkeypatch):
    # with m = n the flip is its own candidate inverse
    program = parse("chart A (x1:1, x2:1, y1:2)\nflip 2 2 A\nflip 1 2 A\n")
    calls = _count_calls(monkeypatch, cli, "flip")
    report = cli.run(program)
    assert [args[:2] for args in calls] == [(2, 2), (1, 2), (2, 1)]
    assert [entry["round_trip_identity"] for entry in report.results] == [True, True]


def test_parsing_builds_one_polynomial_per_pullback_and_entry(monkeypatch):
    source = (ROOT / "tests" / "data" / "tour.gradua").read_text()
    calls = _count_constructions(monkeypatch)
    program = parse(source)
    polys = [p for m in program.maps().values() for p in m.pullbacks.values()]
    polys += [p for h in program.actions().values() for p in h.entries.values()]
    assert len(calls) == len(polys) == 8
    assert calls == [p.chart for p in polys]


def test_at_and_with_param_substitute_nothing(monkeypatch):
    family, _ = chained_family(random.Random(4), 2)  # two weight-0 coordinates
    calls = _count_calls(monkeypatch, WPolynomial, "substitute")
    for value in (0, 1, -1, Fraction(2, 3)):
        family.at(value)
    family.with_param("s")
    assert calls == []


def test_check_double_multiplies_no_square_matrix(monkeypatch):
    """Commutation and the joint basis come from n x rank blocks: no right
    operand of mat_mul is n x n, and no joint projection is multiplied out."""
    calls = _count_calls(monkeypatch, linalg, "mat_mul")
    source = (ROOT / "tests" / "data" / "tour.gradua").read_text()
    program = parse(source.replace("check-double D", "").replace("report text", ""))
    cli.run(program)
    assert calls == []  # the one-family commands multiply nothing
    report = cli.run(parse(source.split("analyze-action")[0] + "check-double D\n"))
    assert report.results[0]["commuting"] is True
    # each of the first family's two rank-1 blocks times each Q_s of the second
    assert len(calls) == 4 and all(len(b) == 2 > len(b[0]) for _, b in calls)

    # the order-1 jet double of a dressed structure and its level scaling
    chart = GradedChart("P", (("x1", 1), ("y1", 2)))
    family, _ = conjugated_action(random.Random(9), chart)
    lifted = jets.prolong_action(family, 1)
    levels = jets.jet_action(jets.adapt(chart, 1), "u")
    calls.clear()
    bihom = bihomogenize(lifted, levels)
    assert len(bihom.chart) == 4 and len(calls) >= 4
    assert all(len(b) == 4 > len(b[0]) for _, b in calls)
