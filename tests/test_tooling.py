"""The benchmark's tracer still finds every gradua layer it wraps, the
fused polynomial kernels and the parser build one polynomial object per
operation or expression, and each command of `gradua run` and each
`analyze` derives what it needs once.

perfbench/spans.py wraps engine functions by name from outside; renaming or
removing one of them would break `perfbench/run.py --trace 1` without any
engine test noticing. This test installs the tracer in a fresh interpreter.
The outputs of every benchmark operation are pinned by digest, so a speed
change that alters a result fails here.
"""

import ast
import dataclasses
import hashlib
import importlib.util
import json
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

from fractions import Fraction

import pytest

from gradua import action, cli, dsl, graded, jets, linalg, multigrade, wpoly
from gradua.action import analyze, homogenize
from gradua.charts import GradedChart
from gradua.errors import DomainError, GraduaError, NotDoubleStructureError, ParseError
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


# sha256 over the repr of every perfbench/run.py build_ops result, seeds 1-3,
# one line per op. The engine's outputs are exact, so a change that keeps its
# results keeps these digests; one that alters an output on purpose updates
# them and says why.
BENCH_OUTPUT_DIGESTS = {
    "corpus": "b8f44995a283dced9e6b127e083132d7a8a35a73af71c457cb9fda8db2ce3cf2",
    "deep": "aaba1d9ec9e96a5367cf7a224602bbc364e7dcfe062fe13d41cc978f6e3b799d",
    "programs": "23fad1f0e2bb9dcac8693d9c53112837b230d4c67a8f25b9184fe8eaa7cc2b4a",
}


@pytest.mark.parametrize("workload", sorted(BENCH_OUTPUT_DIGESTS))
def test_benchmark_outputs_are_pinned(workload, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    bench = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, bench)  # for its dataclasses
    spec.loader.exec_module(bench)
    digest = hashlib.sha256()
    for seed in (1, 2, 3):
        for op in bench.build_ops(workload, seed):
            digest.update(repr(op.run()).encode())
            digest.update(b"\n")
    assert digest.hexdigest() == BENCH_OUTPUT_DIGESTS[workload]


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
    """check-morphism reads is_graded_morphism's helper: one call of
    wpoly._homogeneity_failures (is_homogeneous's helper too) for all the
    pullbacks, so one pass of the scaling kernel; no pullback is decided on
    its own."""
    helper = _count_calls(monkeypatch, graded, "_homogeneity_failures")
    passes = _count_calls(monkeypatch, wpoly, "_scaling_failures")
    single = _count_calls(monkeypatch, WPolynomial, "is_homogeneous")
    for name, is_graded in (("psi", True), ("bad", False)):
        program = parse(GRADED_SHEAR + NOT_GRADED + f"check-morphism {name}\n")
        helper.clear()
        passes.clear()
        (entry,) = cli.run(program).results
        assert entry["graded"] is is_graded
        assert ("matrix" in entry) is is_graded
        assert (len(helper), len(passes), single) == (1, 1, [])
        ((_, pulled, degrees),) = helper
        assert (len(pulled), degrees) == (3, (1, 1, 2))  # every target variable
    assert entry["failures"] == [{"variable": "y1", "weight": 2, "pullback": "y1 + x1"}]


def test_check_morphism_makes_no_object_level_product_or_derivative(monkeypatch):
    """The gradedness check's scaling route is one pass of the scaling
    kernel for the whole map, its Euler route one term-dict combination per
    pullback, and the matrix multiplies
    term dicts: no WPolynomial product, sum, lift, scaling, derivative or
    substitute, on a graded map and on one that is not graded."""
    methods = ("__mul__", "__add__", "lift", "differentiate", "scale", "substitute")
    calls = {name: _count_calls(monkeypatch, WPolynomial, name) for name in methods}
    passes = _count_calls(monkeypatch, wpoly, "_scaling_failures")
    for map_name, is_graded in (("psi", True), ("bad", False)):
        program = parse(GRADED_SHEAR + NOT_GRADED + f"check-morphism {map_name}\n")
        passes.clear()
        (entry,) = cli.run(program).results
        assert entry["graded"] is is_graded
        assert {name: len(c) for name, c in calls.items()} == dict.fromkeys(methods, 0)
        assert len(passes) == 1  # the scaling route, once for every target variable


def test_analyze_inverts_one_matrix(monkeypatch):
    # h_t = gamma^-1 o s_t o gamma, gamma = (x + 1, y + x^2 + 2): nonlinear,
    # with the fixed point gamma^-1(0) = (-1, -3) off the origin
    chart = GradedChart("S", (("x", 1), ("y", 2)))
    ext = chart.extend((("t", 0),))
    x, y, t = (WPolynomial.variable(ext, v) for v in ext.names)
    gx, gy = (x + 1) * t, (y + x**2 + 2) * t**2
    family = ActionFamily(chart, "t", {"x": gx - 1, "y": gy - (gx - 1) ** 2 - 2})
    calls = {
        name: _count_calls(monkeypatch, linalg, name)
        for name in ("inverse", "_inverse", "_scaled", "mat_from_cols")
    }
    report = analyze(family, {"x": -1, "y": -3})
    assert report.monoid_ok and report.degree == 2
    assert len(report.inverse_homogenizer.pullbacks["y"].terms) > 2
    # the one matrix inverted is the basis C: C^-1 is read off the Taylor
    # projections' rank factors, and no Fraction matrix is scaled to ints
    assert {name: len(c) for name, c in calls.items()} == dict.fromkeys(calls, 0)


def test_analyze_decides_projections_by_rank_and_composes_nothing(monkeypatch):
    # one coordinate of each weight 1..6, as in the benchmark's deep workload
    chart = GradedChart("D", tuple((f"x{w}", w) for w in range(1, 7)))
    family, _ = conjugated_action(random.Random(3), chart)
    assert family.entries != standard_action(chart).entries
    fixed = _count_calls(monkeypatch, linalg, "_fixes")
    scanned = _count_calls(monkeypatch, linalg, "_eliminate")
    composed = _count_calls(monkeypatch, PolyMap, "then")
    inverted = _count_calls(monkeypatch, linalg, "inverse")
    scaled = _count_calls(monkeypatch, linalg, "_scaled")
    report = analyze(family)
    nonzero = [q for q in report.projections if any(map(any, q))]
    assert len(nonzero) == 6 < len(report.projections)  # Q_0 is zero
    # one elimination per nonzero Q_r gives its rank, its pivots (the
    # homogenizer's basis columns) and its rank factor (rows of C^-1); the
    # settled Picard round certifies the inverse
    assert (len(fixed), len(scanned), len(composed)) == (0, 6, 0)
    assert (len(inverted), len(scaled)) == (0, 0)
    # each elimination runs on the integer numerators of its Q_r
    assert [[list(row) for row in a] for a, in scanned] == [
        linalg._scaled(q)[0] for q in nonzero
    ]

    # psi_y1 of this family has total degree 8 and 134 terms; checking it by
    # the composite phi.then(psi) took most of its homogenize time
    rng = random.Random(31)
    family, theta = [chained_family(rng, i % 3) for i in range(21)][20]
    composed.clear()
    hom = homogenize(family, theta)
    assert len(hom.inverse.pullbacks["y1"].terms) == 134
    assert composed == []


def test_analyze_forms_its_linear_combinations_on_term_dicts(monkeypatch):
    """The homogenizer rows, the scaling check and the Picard iterates are
    term-dict combinations and substitutions: no polynomial sum, difference,
    scaling, lift, coefficient split, chart rewrite or substitute, and one
    polynomial per result that is returned."""
    chart = GradedChart("D", tuple((f"x{w}", w) for w in range(1, 7)))
    family, _ = conjugated_action(random.Random(3), chart)
    methods = (
        "__add__", "__sub__", "scale", "coefficients_in", "restrict_chart", "lift",
        "substitute",
    )
    calls = {name: _count_calls(monkeypatch, WPolynomial, name) for name in methods}
    built = _count_constructions(monkeypatch)
    report = analyze(family)
    assert report.degree == 6
    assert {name: len(c) for name, c in calls.items()} == dict.fromkeys(methods, 0)
    # 18 measured: h_0, phi and the Picard pass's last iterate build 6
    # each; the scaling check and the other rounds stay term dicts. It was
    # 24 when the pass built the 6 rows of N, 44 when the scaling check and
    # every Picard round built polynomials, and the object-level route
    # built 224
    assert len(built) <= 18


def test_invert_automorphism_runs_one_picard_pass(monkeypatch):
    """One pass, one inverse per weight block, and no polynomial sum,
    difference or scaling, in the gradedness check or in the inverse."""
    chart = GradedChart("A", (("x1", 1), ("x2", 1), ("y1", 2), ("z1", 3)))
    psi = random_graded_automorphism(random.Random(5), chart)
    methods = ("__add__", "__sub__", "scale")
    calls = {name: _count_calls(monkeypatch, WPolynomial, name) for name in methods}
    graded.is_graded_morphism(psi)
    checking = {name: len(c) for name, c in calls.items()}
    for c in calls.values():
        c.clear()
    passes = _count_calls(monkeypatch, graded, "_picard_inverse")
    blocks = _count_calls(monkeypatch, linalg, "_inverse")
    inverse = graded.invert_automorphism(psi)
    assert psi.then(inverse).is_identity()
    assert (len(passes), len(blocks)) == (1, 3)
    # both of is_homogeneous's routes run on term dicts, so the gradedness
    # check makes no sum or scaling either; the inverse adds none to it
    assert checking == dict.fromkeys(methods, 0)
    assert {name: len(c) for name, c in calls.items()} == checking


def test_the_inverse_kernel_checks_each_round_by_one_substitution(monkeypatch):
    """Inside the Picard pass of analyze and of invert_automorphism: one pass
    of the substitution kernel per round, no composite and no polynomial
    substitute, and WPolynomials built only for the returned iterate. Both
    maps have an inverse of total degree equal to the pass's limit, so it is
    certified only at round limit + 1, where the pass once checked the
    composite candidate.then(phi)."""
    inside, seen = [], {"then": 0, "substitute": 0, "rounds": 0, "built": 0}
    limits = []
    picard = graded._picard_inverse

    def one_pass(*args):
        limits.append(args[-1])
        inside.append(True)
        try:
            return picard(*args)
        finally:
            inside.pop()

    def counting(owner, name, key):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            seen[key] += bool(inside)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    monkeypatch.setattr(graded, "_picard_inverse", one_pass)
    counting(PolyMap, "then", "then")
    counting(WPolynomial, "substitute", "substitute")
    counting(graded, "_terms_substitute", "rounds")
    counting(WPolynomial, "__init__", "built")

    # h_t = gamma^-1 o s_t o gamma with gamma = (x, y + x^3): the limit is the
    # composite's parameter degree 3, and psi_y = y2_1 - y1_1^3
    chart = GradedChart("C", (("x", 1), ("y", 2)))
    ext = chart.extend((("t", 0),))
    x, y, t = (WPolynomial.variable(ext, v) for v in ext.names)
    family = ActionFamily(chart, "t", {"x": t * x, "y": t**2 * (y + x**3) - t**3 * x**3})
    inverse = analyze(family).inverse_homogenizer
    assert str(inverse.pullbacks["y"]) == "-y1_1^3 + y2_1"
    assert limits == [3]
    assert seen == {"then": 0, "substitute": 0, "rounds": 3, "built": 2}

    # psi = (x, y + x^2) on the same chart: the limit is the chart degree 2
    limits.clear()
    seen.update(dict.fromkeys(seen, 0))
    shear = parse("chart C (x:1, y:2)\nmap psi : C -> C { x = x; y = y + x^2; }").maps["psi"]
    assert str(graded.invert_automorphism(shear).pullbacks["y"]) == "-x^2 + y"
    assert limits == [2]
    assert seen == {"then": 0, "substitute": 0, "rounds": 2, "built": 2}


def test_prolong_builds_the_levels_once(monkeypatch):
    """One computation of the levels per prolongation, and no chart beyond
    the result's: the levels are term dicts, with no work chart and no
    curve parameter, and a self-map's one adapted chart is its source and
    its target."""
    program = parse(GRADED_SHEAR)
    calls = _count_calls(monkeypatch, jets, "_taylor_components")
    charts = _count_calls(monkeypatch, GradedChart, "__post_init__")
    lifted = jets.prolong(program.maps["psi"], 4)
    assert len(lifted.pullbacks) == 15
    assert len(calls) == 1
    assert [c for c, in charts] == [lifted.source] and lifted.target is lifted.source

    family, _ = conjugated_action(random.Random(9), GradedChart("P", (("x1", 1), ("y1", 2))))
    charts.clear()
    lifted = jets.prolong_action(family, 2)
    assert [c for c, in charts] == [lifted.chart, lifted.extended_chart]


def test_prolong_adapts_each_chart_once(monkeypatch):
    """A self-map's chart is adapted once, as flip does for m = n; a map
    between two charts adapts each of them."""
    program = parse(GRADED_SHEAR + "chart B (u:1)\nmap f : A -> B { u = x1 + x2; }\n")
    adapted = _count_calls(monkeypatch, jets, "adapt")
    jets.prolong(program.maps["psi"], 2)
    assert len(adapted) == 1
    adapted.clear()
    lifted = jets.prolong(program.maps["f"], 2)
    assert [chart.name for chart, _ in adapted] == ["A", "B"]
    assert str(lifted.pullbacks["u'1"]) == "x1'1 + x2'1"


def test_a_run_scans_the_program_a_fixed_number_of_times():
    """The runners read the definitions from the tables the parser filled,
    so a run of N commands and one of 2N scan the statements equally often:
    once, to run them. No table is rebuilt."""

    class Scanned(tuple):
        scans = 0

        def __iter__(self):
            Scanned.scans += 1
            return super().__iter__()

    source = (ROOT / "tests" / "data" / "tour.gradua").read_text()
    definitions, commands = source.split("analyze-action g\n")
    commands = "analyze-action g\n" + commands.replace("report text\n", "")
    commands += "check-morphism idm\n"

    def scans(n):
        program = parse(definitions + commands * n)
        Scanned.scans = 0
        report = cli.run(dataclasses.replace(program, statements=Scanned(program.statements)))
        assert len(report.results) == 5 * n and report.all_ok
        return Scanned.scans

    assert scans(20) == scans(40) == 1


def test_reports_are_written_without_the_pure_python_encoder(monkeypatch):
    """json.dumps with an indent runs json's pure-Python encoder, which costs
    twice what cli's own writer costs: with that encoder refused, every
    golden report still comes out of emit, byte for byte."""

    def refused(*args, **kwargs):
        raise AssertionError("the pure-Python JSON encoder ran")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refused)
    with pytest.raises(AssertionError, match="pure-Python"):
        json.dumps({}, indent=2)
    goldens = sorted((ROOT / "tests" / "golden").iterdir())
    assert len(goldens) == 4
    for golden in goldens:
        source = (ROOT / "tests" / "data" / f"{golden.stem}.gradua").read_text()
        report = cli.run(parse(source))
        assert cli.emit(report, report.format or "json") == golden.read_text()
        assert cli.emit(report, "json").startswith('{\n  "version": "1",\n')


def test_check_double_renames_neither_family(monkeypatch):
    """check-double passes the program's two families as they are, both with
    parameter t: it calls no with_param, a commuting pair builds the joint
    chart and no other, and a pair that does not commute gets witnesses over
    (x, y, t, u), u being the name check_commuting gives the second
    parameter."""
    source = (ROOT / "tests" / "data" / "tour.gradua").read_text()
    commuting = parse(source.split("analyze-action")[0] + "check-double D\n")
    other = parse(
        "chart M (x:1, y:2)\n"
        "action a1 on M { x -> t*x; y -> y; }\n"
        "action s on M { x -> t*x; y -> t^2*y + (t^2 - t)*x^2; }\n"
        "double E { s, a1 }\n"
        "check-double E\n"
    )
    renamed = _count_calls(monkeypatch, ActionFamily, "with_param")
    charts = _count_calls(monkeypatch, GradedChart, "__post_init__")
    [entry] = cli.run(commuting).results
    assert entry["commuting"] is True
    assert [c.name for c, in charts] == ["M_bh"]
    charts.clear()
    [entry] = cli.run(other).results
    assert entry["witnesses"] == [
        {"variable": "y", "defect": "x^2*t^2*u^2 - x^2*t^2 - x^2*t*u^2 + x^2*t"}
    ]
    assert ("x", "y", "t", "u") in [c.names for c, in charts]
    assert renamed == []


def test_analyze_builds_one_chart(monkeypatch):
    """analyze builds the homogenized chart and no other: the composite's
    parameters are slots, so the certificate's first stage builds no chart."""
    family, _ = conjugated_action(random.Random(9), GradedChart("P", (("x1", 1), ("y1", 2))))
    charts = _count_calls(monkeypatch, GradedChart, "__post_init__")
    report = analyze(family)
    assert [c for c, in charts] == [report.homogenized_chart]


def test_compositions_of_families_rename_none(monkeypatch):
    """verify_laws, check_commuting, total_action and bihomogenize, on its
    certificate and on its explanation path, compose the families on slots
    and call no with_param, whether the two parameters share a name or not."""
    chart = GradedChart("P", (("x1", 1), ("y1", 2)))
    family, _ = conjugated_action(random.Random(9), chart)
    std = standard_action(chart)
    std_u = std.with_param("u")
    renamed = _count_calls(monkeypatch, ActionFamily, "with_param")
    outcomes = []
    for h1, h2 in ((family, family), (family, std), (family, std_u), (std, std_u)):
        action.verify_laws(h1)
        action.check_commuting(h1, h2)
        multigrade.total_action(h1, h2)
        try:
            outcomes.append(bihomogenize(h1, h2).orders)
        except GraduaError as exc:
            outcomes.append(type(exc).__name__)
    assert renamed == []
    assert outcomes == [((1, 1), (2, 2)), "NotDoubleStructureError", "NotDoubleStructureError",
                        ((1, 1), (2, 2))]


def test_each_family_builder_builds_its_extended_chart_once(monkeypatch):
    """A family built on its extended chart takes that chart as it is:
    parse_action, with_param, the model family's builder (standard_action,
    jet_action) and prolong_action each build the chart extended by the
    parameter once, and ActionFamily and total_action build none."""
    chart = GradedChart("M", (("x", 1), ("y", 2)))
    charts = _count_calls(monkeypatch, GradedChart, "__post_init__")

    def built(make):
        charts.clear()
        family = make()
        assert all(p.chart is family.extended_chart for p in family.entries.values())
        return [c for c, in charts]

    h = standard_action(chart)
    assert built(lambda: standard_action(chart)) == [h.extended_chart]
    assert built(lambda: h.with_param("s")) == [chart.extend((("s", 0),))]
    levels = jets.jet_action(jets.adapt(chart, 1))
    assert built(lambda: jets.jet_action(jets.adapt(chart, 1))) == [
        levels.chart, levels.extended_chart
    ]
    assert built(lambda: jets.prolong_action(h, 1)) == [levels.chart, levels.extended_chart]
    # total_action puts both parameters on one slot, so neither family is
    # renamed, whatever its parameter, and the total takes the first's chart
    other = ActionFamily(chart, "u", {
        v: WPolynomial(chart.extend((("u", 0),)), p.terms) for v, p in h.entries.items()
    })
    assert built(lambda: multigrade.total_action(h, other)) == []
    assert built(lambda: multigrade.total_action(h, h)) == []
    source = "chart M (x:1, y:2)\naction g on M { x -> t*x; y -> t^2*y + t*x^2; }\n"
    charts.clear()
    g = parse(source).actions["g"]
    assert [c for c, in charts] == [chart, g.extended_chart]


def test_is_homogeneous_builds_no_chart_and_no_polynomial(monkeypatch):
    """Both routes of is_homogeneous run on term dicts: the scaling kernel
    takes the standard action's images indexed by variable, so neither an
    extended chart nor an image or Euler polynomial is built."""
    chart = GradedChart("C", (("a", 0), ("x", 1), ("y", 2)))
    a, x, y = (WPolynomial.variable(chart, v) for v in chart.names)
    polys = [
        x * x * a + y * Fraction(1, 3), y * x + x, WPolynomial.zero(chart), a * 5 - 1
    ]
    charts = _count_calls(monkeypatch, GradedChart, "__post_init__")
    built = _count_constructions(monkeypatch)
    verdicts = [[p.is_homogeneous(r) for r in range(4)] for p in polys]
    assert verdicts == [
        [False, False, True, False],
        [False, False, False, False],
        [True] * 4,
        [True, False, False, False],
    ]
    assert (charts, built) == ([], [])


def test_flip_round_trip_substitutes_nothing(monkeypatch):
    program = parse("chart A (x1:1, x2:1, y1:2)\nflip 2 2 A\n")
    calls = _count_calls(monkeypatch, WPolynomial, "substitute")
    report = cli.run(program)
    assert report.results[0]["round_trip_identity"] is True
    assert calls == []


def test_flip_with_equal_orders_builds_one_renaming(monkeypatch):
    # with m = n the flip is its own candidate inverse
    program = parse("chart A (x1:1, x2:1, y1:2)\nflip 2 2 A\nflip 1 2 A\n")
    calls = _count_calls(monkeypatch, cli, "_flip_names")
    adapted = _count_calls(monkeypatch, multigrade, "adapt")
    report = cli.run(program)
    assert [args[:2] for args in calls] == [(2, 2), (1, 2), (2, 1)]
    assert [entry["round_trip_identity"] for entry in report.results] == [True, True]
    # flip 2 2 adapts twice, flip 1 2 and its inverse four times each
    assert [args[1] for args in adapted] == [2, 2] + [1, 2, 2, 1] + [2, 1, 1, 2]


def test_flip_builds_no_polynomial_and_no_map(monkeypatch):
    program = parse("chart A (x1:1, x2:1, y1:2)\nflip 2 2 A\nflip 1 2 A\n")
    built = _count_constructions(monkeypatch)
    maps = _count_calls(monkeypatch, PolyMap, "__post_init__")
    report = cli.run(program)
    assert [entry["ok"] for entry in report.results] == [True, True]
    assert (built, maps) == ([], [])
    # the printed renaming is the name map of flip's PolyMap
    chart = program.charts["A"]
    assert report.results[0]["renaming"] == {
        v: str(p) for v, p in multigrade.flip(2, 2, chart).pullbacks.items()
    }


def test_a_backward_flip_off_by_one_name_fails_the_round_trip(monkeypatch):
    original = multigrade._flip_names

    def off_by_one(m, n, chart):
        source, target, names = original(m, n, chart)
        if (m, n) == (2, 1):  # the backward map of flip 1 2
            first, second = list(names)[:2]
            names = {**names, first: names[second]}
        return source, target, names

    monkeypatch.setattr(cli, "_flip_names", off_by_one)
    program = parse("chart A (x1:1, x2:1, y1:2)\nflip 1 2 A\nreport text\n")
    report = cli.run(program)
    (entry,) = report.results
    assert (entry["ok"], entry["round_trip_identity"]) == (False, False)
    text = cli.emit(report, "text")
    assert "round_trip_identity: no" in text and "ok: no" in text


def test_parsing_builds_one_polynomial_per_pullback_and_entry(monkeypatch):
    source = (ROOT / "tests" / "data" / "tour.gradua").read_text()
    calls = _count_constructions(monkeypatch)
    program = parse(source)
    polys = [p for m in program.maps.values() for p in m.pullbacks.values()]
    polys += [p for h in program.actions.values() for p in h.entries.values()]
    assert len(calls) == len(polys) == 8
    assert calls == [p.chart for p in polys]


def test_parsing_tokenizes_once_and_builds_no_symbol_token(monkeypatch):
    """parse lexes the source in one tokenize call, and the parser reads
    token texts and keeps positions: a successful parse locates one token
    per statement, its keyword, and builds no token object; a refused one
    locates the token of its error too."""
    source = (ROOT / "tests" / "data" / "tour.gradua").read_text()
    source += "analyze-action g at (x=0, y=-1/2)\n"
    lexed = _count_calls(monkeypatch, dsl, "tokenize")
    located = _count_calls(monkeypatch, dsl.Tokens, "span")
    program = dsl.parse(source)
    assert lexed == [(source,)]
    keywords = [str(stmt).split(" ")[0] for stmt in program.statements]
    assert [tokens.texts[i] for tokens, i in located] == keywords
    assert not hasattr(dsl, "Token")
    located.clear()
    with pytest.raises(ParseError):
        dsl.parse("chart V (x:1)\nmap m : V -> V { x = x +; }")
    assert len(located) == 3  # two statement keywords and the error's token


def test_at_and_with_param_substitute_nothing(monkeypatch):
    family, _ = chained_family(random.Random(4), 2)  # two weight-0 coordinates
    calls = _count_calls(monkeypatch, WPolynomial, "substitute")
    for value in (0, 1, -1, Fraction(2, 3)):
        family.at(value)
    family.with_param("s")
    assert calls == []


def test_check_double_multiplies_no_square_matrix(monkeypatch):
    """The joint projections are read off the composite's Jacobian: a
    successful check-double calls no mat_mul, no _fixes and no family's own
    taylor_projections, and makes one n x n elimination per nonzero joint
    projection."""
    calls = _count_calls(monkeypatch, linalg, "mat_mul")
    fixed = _count_calls(monkeypatch, linalg, "_fixes")
    per_family = _count_calls(monkeypatch, action, "taylor_projections")
    eliminated = _count_calls(monkeypatch, linalg, "_eliminate")
    source = (ROOT / "tests" / "data" / "tour.gradua").read_text()
    program = parse(source.replace("check-double D", "").replace("report text", ""))
    cli.run(program)
    assert calls == []  # the one-family commands multiply nothing
    program = parse(source.split("analyze-action")[0] + "check-double D\n")
    double = [program.actions[name] for name in program.doubles["D"]]
    grid = bihomogenize(*double).projections
    nonzero = [q for row in grid for q in row if any(map(any, q))]
    eliminated.clear()
    report = cli.run(program)
    assert report.results[0]["commuting"] is True
    # Q1_r Q2_s is nonzero for two of the four multi-indices, each 2 x 2
    assert len(nonzero) == 2
    assert [[list(row) for row in rows] for rows, in eliminated] == [
        linalg._scaled(q)[0] for q in nonzero
    ]
    assert (calls, fixed, per_family) == ([], [], [])

    # the order-1 jet double of a dressed structure and its level scaling
    chart = GradedChart("P", (("x1", 1), ("y1", 2)))
    family, _ = conjugated_action(random.Random(9), chart)
    lifted = jets.prolong_action(family, 1)
    levels = jets.jet_action(jets.adapt(chart, 1), "u")
    eliminated.clear()
    bihom = bihomogenize(lifted, levels)
    assert len(bihom.chart) == 4
    nonzero = [q for row in bihom.projections for q in row if any(map(any, q))]
    assert len(eliminated) == len(nonzero) >= 4
    assert all(len(rows) == len(rows[0]) == 4 for rows, in eliminated)
    assert (calls, fixed, per_family) == ([], [], [])


def test_family_composites_substitute_once_per_outer_family(monkeypatch):
    """One pass of the substitution kernel per outer family, over all n
    entries: verify_laws 1, check_commuting 2, total_action 1, euler_field
    none, and no WPolynomial.substitute. The parameter is never renamed or
    evaluated by substitution."""
    chart = GradedChart("P", (("x1", 1), ("y1", 2)))
    family, _ = conjugated_action(random.Random(9), chart)
    lifted = jets.prolong_action(family, 1)
    levels = jets.jet_action(jets.adapt(chart, 1), "u")
    n = len(lifted.chart)
    passes = _count_calls(monkeypatch, graded, "_terms_substitute")
    calls = _count_calls(monkeypatch, WPolynomial, "substitute")
    counts = {}
    for name, run in (
        ("verify_laws", lambda: action.verify_laws(lifted)),
        ("check_commuting", lambda: multigrade.check_commuting(lifted, levels)),
        ("total_action", lambda: multigrade.total_action(lifted, levels)),
        ("euler_field", lambda: action.euler_field(lifted)),
    ):
        passes.clear()
        run()
        counts[name] = len(passes)
        assert all(len(polys) == n for polys, _ in passes)
    assert n == 4
    assert counts == {
        "verify_laws": 1, "check_commuting": 2, "total_action": 1, "euler_field": 0
    }
    assert calls == []


def test_no_module_imports_a_name_it_never_uses():
    """Every name a module of src/gradua imports is used in it, listed in its
    __all__, or imported on purpose by a statement marked `# noqa: F401`
    (a re-export, or a name perfbench/spans.py wraps in that module)."""
    unused = []
    for path in sorted((ROOT / "src" / "gradua").glob("*.py")):
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source)
        lines = source.splitlines()
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets
            ):
                used |= set(ast.literal_eval(node.value))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            statement = lines[node.lineno - 1 : node.end_lineno]
            if any("# noqa: F401" in line for line in statement):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    unused.append(f"{path.name}:{node.lineno}: {name}")
    assert not unused, unused


def _linalg_names(path):
    """The names a module takes from linalg: attributes of `linalg`, names
    imported from it, and strings in a tuple that holds the module object
    (how perfbench/spans.py names the functions it wraps)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "linalg":
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module in ("linalg", "gradua.linalg"):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Tuple) and any(
            getattr(e, "id", None) == "linalg" for e in node.elts
        ):
            names.update(e.value for e in node.elts if isinstance(e, ast.Constant))
    return names


def test_every_public_linalg_function_has_a_caller():
    """Each public top-level function of gradua/linalg.py is named in another
    module of src/gradua, in perfbench/spans.py or in the acceptance suite;
    a view with none of these callers is dead code."""
    linalg_path = ROOT / "src" / "gradua" / "linalg.py"
    public = {
        node.name
        for node in ast.parse(linalg_path.read_text(encoding="utf-8")).body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    callers = [p for p in (ROOT / "src" / "gradua").glob("*.py") if p != linalg_path]
    callers += [ROOT / "perfbench" / "spans.py", ROOT / "tests" / "test_acceptance.py"]
    named = set().union(*map(_linalg_names, callers))
    assert public and not public - named, sorted(public - named)


def _mentioned(trees, bare=True):
    """How often the syntax trees mention each name: attributes, strings
    equal to a name (how perfbench/spans.py names what it wraps) and, when
    `bare`, names and imported names. The name an annotated declaration
    declares (a dataclass field, `x: T = ...`) is no mention: it calls
    nothing."""
    out = Counter()
    for root in trees:
        declared = set()  # ast.walk visits a declaration before its target
        for node in ast.walk(root):
            if isinstance(node, ast.AnnAssign):
                declared.add(id(node.target))
            elif isinstance(node, ast.Attribute):
                out[node.attr] += 1
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                out[node.value] += 1
            elif bare and isinstance(node, ast.Name) and id(node) not in declared:
                out[node.id] += 1
            elif bare and isinstance(node, ast.alias):
                out[node.name] += 1
    return out


def _called_outside(node, mentions, bare=True):
    """Whether `mentions`, counted over trees that hold the definition
    `node`, mention its name outside the definition itself."""
    return mentions[node.name] > _mentioned([node], bare)[node.name]


def test_every_private_function_has_a_caller():
    """Each module-level private function of src/gradua is named outside its
    own definition: elsewhere in its module, in another module of
    src/gradua, or in perfbench/spans.py. A helper left behind with no
    caller is dead code."""
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted((ROOT / "src" / "gradua").glob("*.py"))
    }
    spans = ast.parse((ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    mentions = _mentioned([*trees.values(), spans])
    uncalled = [
        f"{name}: {node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
        and not _called_outside(node, mentions)
    ]
    assert not uncalled, uncalled


# Public functions kept with no caller in src/gradua, perfbench or the
# acceptance suite: constructions of the theory, each with its reason.
UNCALLED_CONSTRUCTIONS = {
    "action.py: base_projection": "the bundle projection h_0 onto the base",
    "graded.py: truncate_map": "a graded map descends to each truncation of the tower",
    "graded.py: weight_field": "the weight vector field, the reference of the Euler-route oracle",
    "jets.py: jet_projection": "the projection between jet levels, a morphism of jet lifts",
    "jets.py: iota": "the embedding of first-level jets at the top level of a higher jet chart",
}


def test_every_public_function_has_a_caller():
    """Each public top-level function of src/gradua, and each public method,
    property and classmethod of its classes, is called outside its own
    definition: elsewhere in src/gradua, in perfbench or in the acceptance
    suite. gradua/__init__.py is no caller: a re-export calls nothing. A
    function is called by its name; a method only as an attribute `.name`,
    as a string equal to its name, or by its bare name in its class's own
    body (a dispatch table), never by a local that shares its spelling. The
    constructions kept without a caller are exactly UNCALLED_CONSTRUCTIONS;
    any other public name with none is a second route to a result, or dead
    code."""
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted((ROOT / "src" / "gradua").glob("*.py"))
        if path.name != "__init__.py"
    }
    outside = [*sorted((ROOT / "perfbench").rglob("*.py")), ROOT / "tests" / "test_acceptance.py"]
    callers = [*trees.values()] + [ast.parse(path.read_text(encoding="utf-8")) for path in outside]
    mentions, attributes = _mentioned(callers), _mentioned(callers, bare=False)
    uncalled = []
    for name, tree in trees.items():
        uncalled += [
            f"{name}: {node.name}"
            for node in tree.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
            and not _called_outside(node, mentions)
        ]
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            in_body = _mentioned(
                [node for node in cls.body if not isinstance(node, (ast.FunctionDef, ast.ClassDef))]
            )
            uncalled += [
                f"{name}: {cls.name}.{node.name}"
                for node in cls.body
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                and not in_body[node.name] and not _called_outside(node, attributes, bare=False)
            ]
    assert sorted(uncalled) == sorted(UNCALLED_CONSTRUCTIONS), uncalled


def _is_alias_property(node) -> bool:
    """A property whose body, past its docstring, only returns an attribute
    of the object: a second name for that attribute."""
    if not isinstance(node, ast.FunctionDef) or not any(
        getattr(d, "id", getattr(d, "attr", None)) in ("property", "cached_property")
        for d in node.decorator_list
    ):
        return False
    body = node.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    return (
        len(body) == 1
        and isinstance(body[0], ast.Return)
        and isinstance(body[0].value, ast.Attribute)
        and getattr(body[0].value.value, "id", None) == "self"
    )


def test_no_public_name_is_a_bare_alias():
    """No module of src/gradua binds a public module-level name to another
    name (X = Y, or X = module.Y), and no class has a public property that
    only returns another attribute: each construction or result has one
    name."""
    aliases = []
    for path in sorted((ROOT / "src" / "gradua").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases += [
            f"{path.name}: {cls.name}.{node.name}"
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if _is_alias_property(node) and not node.name.startswith("_")
        ]
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign):
                targets, value = [node.target], node.value
            else:
                continue
            if isinstance(value, (ast.Name, ast.Attribute)):
                aliases += [
                    f"{path.name}: {target.id} = {ast.unparse(value)}"
                    for target in targets
                    if isinstance(target, ast.Name) and not target.id.startswith("_")
                ]
    assert not aliases, aliases


def test_extend_negative_conjugates_the_model_family_on_term_dicts(monkeypatch):
    """reconstruct_entries is two passes of the substitution kernel, the model
    family through the homogenizer and the inverse through that; neither it
    nor the homogenization before it forms a WPolynomial product, power,
    lift or substitute. Run on a family fixing the origin and on one with
    weight-0 coordinates and a shifted fixed point."""
    chart = GradedChart("D", tuple((f"x{w}", w) for w in range(1, 4)))
    cases = [
        (conjugated_action(random.Random(3), chart)[0], None),
        chained_family(random.Random(4), 2),
    ]
    methods = ("__mul__", "__pow__", "lift", "substitute")
    calls = {name: _count_calls(monkeypatch, WPolynomial, name) for name in methods}
    passes = _count_calls(monkeypatch, action, "_terms_substitute")
    for family, theta in cases:
        passes.clear()
        extended = action.extend_negative(family, theta)
        assert extended.entries == family.entries
        assert len(passes) == 2
        assert {name: len(c) for name, c in calls.items()} == dict.fromkeys(methods, 0)


def _calls_in(tree, name):
    """The calls .name(...) in tree, by line."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == name
    ]


def _is_polynomial_call(node):
    return isinstance(node, ast.Call) and getattr(node.func, "id", None) == "WPolynomial"


def test_action_evaluates_no_family_and_subtracts_no_polynomials():
    """action checks the fixed point, the unit law and the law witnesses on
    term dicts: it calls no .at( and no .evaluate(, and subtracts no
    WPolynomial(...) from another."""
    tree = ast.parse((ROOT / "src" / "gradua" / "action.py").read_text(encoding="utf-8"))
    assert _calls_in(tree, "at") == []
    assert _calls_in(tree, "evaluate") == []
    differences = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
        and _is_polynomial_call(node.left) and _is_polynomial_call(node.right)
    ]
    assert differences == []


def test_law_checks_and_joint_certificates_evaluate_no_family(monkeypatch):
    """verify_laws reads h_1 off the entries, and the certificate checks
    that h_0 fixes theta on the entries' terms: verify_laws and bihomogenize
    call ActionFamily.at 0 times, on families that keep or break the laws,
    fixing the origin or a shifted point, commuting or not. One analyze call
    runs it at most once, for its base projection."""
    chart = GradedChart("M", (("x", 1), ("y", 2)))
    ext = chart.extend((("t", 0),))
    x, y, t = (WPolynomial.variable(ext, v) for v in ("x", "y", "t"))
    running = ActionFamily(chart, "t", {"x": t * x, "y": t**2 * y + (t - t**2) * x})
    broken = ActionFamily(chart, "t", {"x": t * x, "y": WPolynomial.zero(ext)})
    shifted, theta = chained_family(random.Random(4), 2)
    values = _count_calls(monkeypatch, ActionFamily, "at")
    for family in (running, broken, shifted):
        verify_laws = action.verify_laws(family)
        assert verify_laws.monoid_ok == (family is not broken)
    bihomogenize(shifted, shifted, theta)
    bihomogenize(running, running)
    with pytest.raises(NotDoubleStructureError):
        bihomogenize(running, standard_action(chart, "u"))
    with pytest.raises(DomainError):
        bihomogenize(running, running, {"x": 1})
    assert values == []
    for family, point, calls in ((running, None, 1), (broken, None, 0), (shifted, theta, 1)):
        fresh = ActionFamily(family.chart, family.param, dict(family.entries))
        values.clear()
        analyze(fresh, point)
        assert len(values) == calls


def _counted_kernels(monkeypatch):
    """Count the term pairs wpoly._terms_mul forms and the terms
    wpoly._terms_combine reads, wherever a module of gradua looks them up."""
    counts = Counter()
    mul, combine = wpoly._terms_mul, wpoly._terms_combine

    def counted_mul(a, b):
        counts["pairs"] += len(a) * len(b)
        return mul(a, b)

    def counted_combine(pairs, out=None):
        pairs = [(c, terms) for c, terms in pairs]
        counts["read"] += sum(len(terms) for c, terms in pairs if c)
        return combine(pairs, out)

    for module in (action, cli, dsl, graded, jets, linalg, multigrade, wpoly):
        for name, fn in (("_terms_mul", counted_mul), ("_terms_combine", counted_combine)):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, fn)
    return counts


def test_analyze_action_of_the_standard_family_grows_linearly_with_the_chart(monkeypatch):
    """gradua run of analyze-action on the standard family of charts of 2,
    4, 8 and 16 weight-1 variables: each doubling of the chart multiplies
    the term pairs _terms_mul forms and the terms _terms_combine reads by
    at most 2.5."""
    counts = _counted_kernels(monkeypatch)
    ladder = []
    for n in (2, 4, 8, 16):
        names = [f"x{i}" for i in range(1, n + 1)]
        source = (
            f"chart C ({', '.join(f'{v}:1' for v in names)})\n"
            f"action h on C {{ {' '.join(f'{v} -> t*{v};' for v in names)} }}\n"
            "analyze-action h\nreport json\n"
        )
        counts.clear()
        report = cli.run(parse(source))
        assert report.results[0]["ok"]
        cli.emit(report, "json")
        ladder.append((counts["pairs"], counts["read"]))
    assert all(read for _, read in ladder), ladder
    for (pairs, read), (more_pairs, more_read) in zip(ladder, ladder[1:]):
        assert more_pairs <= 2.5 * pairs, ladder
        assert more_read <= 2.5 * read, ladder
