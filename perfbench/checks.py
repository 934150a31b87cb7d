"""Checks of engine outputs against the benchmark's own construction.

An analysis is checked in the shape of the CLI's JSON entry (rationals and
polynomials as strings), so in-process reports and `gradua run` reports go
through the same code. Nothing here is compared with a stored copy of an
earlier output: every fact is recomputed from how the input was built.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

import gen
import oracle
import progs
from oracle import ZERO, evaluate, parse, require


def analysis_entry(report) -> dict:
    """An in-process AnalysisReport, printed the way `gradua run` prints it."""
    entry = {"semigroup_ok": report.semigroup_ok, "monoid_ok": report.monoid_ok}
    if report.witnesses:
        entry["witnesses"] = [
            {"law": w.law, "variable": w.variable, "defect": str(w.difference)}
            for w in report.witnesses
        ]
    if report.monoid_ok:
        chart = report.homogenized_chart
        entry["weights"] = sorted(chart.weights)
        entry["theta"] = {v: str(x) for v, x in report.theta.items()}
        entry["homogenized_chart"] = [[v, w] for v, w in chart.variables]
        entry["homogenizer"] = {v: str(report.homogenizer.pullbacks[v]) for v in chart.names}
        entry["inverse"] = {
            v: str(report.inverse_homogenizer.pullbacks[v])
            for v in report.inverse_homogenizer.target.names
        }
        entry["projections"] = [[[str(c) for c in row] for row in q] for q in report.projections]
    return entry


def _coordinate_change(names, new_names, entry) -> tuple[list, list]:
    hom = [parse(entry["homogenizer"][v], names) for v in new_names]
    inv = [parse(entry["inverse"][v], new_names) for v in names]
    return hom, inv


def _check_inverse(rng: random.Random, hom, inv, n: int) -> None:
    z = gen.random_point(rng, n)
    y = [evaluate(p, z) for p in hom]
    require([evaluate(p, y) for p in inv] == z, "inverse o homogenizer is not the identity")
    y = gen.random_point(rng, n)
    z = [evaluate(p, y) for p in inv]
    require([evaluate(p, z) for p in hom] == y, "homogenizer o inverse is not the identity")


def _check_scaling(rng: random.Random, hom, weights, entries, n: int, what: str) -> None:
    """Each new coordinate y_k satisfies y_k(h_t(z)) = t^w_k y_k(z)."""
    z = gen.random_point(rng, n)
    t = gen.small_rational(rng)
    moved = gen.family_at(entries, z, t)
    for k, (p, w) in enumerate(zip(hom, weights)):
        require(evaluate(p, moved) == t**w * evaluate(p, z),
                f"coordinate {k} does not scale by t^{w} under {what}")


def check_analysis(s: gen.Structure, entry: dict, rng: random.Random) -> None:
    n = len(s.names)
    if s.broken is not None:
        z, t, s_, defects = s.broken
        require(entry["semigroup_ok"] is False and entry["monoid_ok"] is False,
                "a family with a broken semigroup law was accepted")
        witnesses = {w["variable"]: w for w in entry.get("witnesses", []) if w["law"] == "semigroup"}
        ext = s.names + ("t", "s")
        for v, d in zip(s.names, defects):
            if d:
                require(v in witnesses, f"broken law on {v} has no witness")
            if v in witnesses:
                value = evaluate(parse(witnesses[v]["defect"], ext), list(z) + [t, s_])
                require(value == d, f"semigroup defect of {v} is wrong")
        return
    require(entry["semigroup_ok"] is True and entry["monoid_ok"] is True,
            "a genuine structure was reported broken")
    require(sorted(entry["weights"]) == sorted(s.weights), "recovered weights differ")
    new_names = tuple(v for v, _ in entry["homogenized_chart"])
    new_weights = [w for _, w in entry["homogenized_chart"]]
    require(sorted(new_weights) == sorted(s.weights), "homogenized chart has other weights")
    theta = s.theta or [ZERO] * n
    require([Fraction(entry["theta"][v]) for v in s.names] == theta, "theta differs")
    qs = [[[Fraction(c) for c in row] for row in q] for q in entry["projections"]]
    oracle.check_projections(qs)
    hom, inv = _coordinate_change(s.names, new_names, entry)
    _check_scaling(rng, hom, new_weights, s.entries, n, "the family")
    _check_inverse(rng, hom, inv, n)


def check_program(prog: progs.Program, report: dict, code: int, rng: random.Random) -> None:
    """A JSON report: every command's result recomputed from the construction."""
    results = report["results"]
    require([r["ok"] for r in results] == prog.expected_ok, "verdicts differ from construction")
    require(code == (0 if all(prog.expected_ok) else 1), f"exit code {code}")
    by_command: dict[str, list[dict]] = {}
    for r in results:
        require("error" not in r, f"{r['command']} failed: {r.get('error')}")
        by_command.setdefault(r["command"], []).append(r)

    morphisms = by_command["check-morphism"]
    require(morphisms[0]["graded"] is True, "dense graded map not graded")
    _check_matrix(rng, prog.psi, morphisms[0]["matrix"])
    if prog.bad is not None:
        require(morphisms[1]["graded"] is False, "non-graded map accepted")
        expected = {v for v, p, w in zip(progs.A_NAMES, prog.bad, progs.A_WEIGHTS)
                    if oracle.weighted_degrees(p, progs.A_WEIGHTS) - {w}}
        require({f["variable"] for f in morphisms[1]["failures"]} == expected,
                "wrong non-homogeneous pullbacks")

    _check_prolong(rng, prog.psi, by_command["prolong"][0])

    analyses = by_command["analyze-action"]
    check_analysis(prog.g, analyses[0], rng)
    if prog.g_bad is not None:
        check_analysis(prog.g_bad, analyses[1], rng)

    doubles = by_command["check-double"]
    _check_double(rng, prog, doubles[0])
    if prog.k is not None:
        _check_non_commuting(prog, doubles[1])

    _check_flip(by_command["flip"][0])


def check_text(prog: progs.Program, text: str, code: int) -> None:
    """A text report: one section per command, in order, with the constructed verdicts."""
    require(code == (0 if all(prog.expected_ok) else 1), f"exit code {code}")
    sections = text.split("\n== ")[1:]
    require(len(sections) == len(prog.expected_ok), "text report has another number of sections")
    commands = [line.split()[0] for line in prog.source.splitlines()
                if line.split()[:1] and line.split()[0] in COMMANDS]
    for command, ok, section in zip(commands, prog.expected_ok, sections):
        header = section.split(" ==", 1)[0]
        require(header.split()[0] == command, "text sections out of order")
        require(f"\nok: {'yes' if ok else 'no'}\n" in section + "\n",
                f"text verdict differs for {header}")


COMMANDS = ("check-morphism", "analyze-action", "prolong", "check-double", "flip")


def _check_matrix(rng: random.Random, psi, matrix) -> None:
    """Column j holds psi^*(basis_j) in the basis x1, x2, y1, x1^2, x1*x2, x2^2."""
    basis = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0), (1, 1, 0), (0, 2, 0)]
    m = [[Fraction(c) for c in row] for row in matrix]
    require(len(m) == len(basis) and all(len(row) == len(basis) for row in m), "matrix shape")
    z = gen.random_point(rng, 3)
    image = [evaluate(p, z) for p in psi]

    def mono(e, point):
        return point[0] ** e[0] * point[1] ** e[1] * point[2] ** e[2]

    for j, e in enumerate(basis):
        expansion = sum((m[i][j] * mono(basis[i], z) for i in range(len(basis))), ZERO)
        require(expansion == mono(e, image), f"matrix column {j} is wrong")


def _check_prolong(rng: random.Random, psi, entry) -> None:
    order = progs.PROLONG_ORDER
    names, weights = [], []
    for k in range(order + 1):
        for v, w in zip(progs.A_NAMES, progs.A_WEIGHTS):
            names.append(v if k == 0 else f"{v}'{k}")
            weights.append(w + k)
    require(entry["source"] == [[v, w] for v, w in zip(names, weights)], "prolonged source chart")
    require(entry["target"] == entry["source"], "prolonged target chart")
    point = gen.random_point(rng, len(names))
    n = len(progs.A_NAMES)
    jets = [[point[k * n + i] for k in range(order + 1)] for i in range(n)]
    for i, v in enumerate(progs.A_NAMES):
        want = oracle.prolong_values(psi[i], jets, order)
        for k in range(order + 1):
            got = evaluate(parse(entry["pullbacks"][names[k * n + i]], names), point)
            require(got == want[k], f"prolongation of {v} at level {k} is wrong")


def _check_double(rng: random.Random, prog: progs.Program, entry) -> None:
    require(entry["commuting"] is True, "jet double reported non-commuting")
    n = len(prog.jet_names)
    new_names = tuple(v for v, _ in entry["chart"])
    biweights = [tuple(entry["biweights"][v]) for v in new_names]
    half = n // 2
    base_weights = prog.jet_weights[:half]
    expected = Counter((w, lvl) for lvl in (0, 1) for w in base_weights)
    require(Counter(biweights) == expected, "biweights differ from the construction")
    require([w for _, w in entry["chart"]] == [r + s for r, s in biweights], "weights are not r + s")
    require(entry["total_degree"] == max(base_weights) + 1, "total degree differs")
    hom, inv = _coordinate_change(prog.jet_names, new_names, entry)
    _check_scaling(rng, hom, [r for r, _ in biweights], prog.j1, n, "the jet lift")
    _check_scaling(rng, hom, [s for _, s in biweights], prog.j2, n, "the jet scaling")
    _check_inverse(rng, hom, inv, n)


def _check_non_commuting(prog: progs.Program, entry) -> None:
    require(entry["commuting"] is False, "non-commuting pair accepted")
    z, t, u, defects = prog.k_defect
    witnesses = {w["variable"]: w["defect"] for w in entry["witnesses"]}
    ext = prog.jet_names + ("t", "u")
    for v, d in zip(prog.jet_names, defects):
        if d:
            require(v in witnesses, f"commutation defect on {v} has no witness")
        if v in witnesses:
            value = evaluate(parse(witnesses[v], ext), list(z) + [t, u])
            require(value == d, f"commutation defect of {v} is wrong")


def _check_flip(entry) -> None:
    m, n = progs.FLIP
    require(entry["round_trip_identity"] is True, "flip does not round-trip")

    def chart(inner: int, outer: int):
        out = []
        for q in range(outer + 1):
            for p in range(inner + 1):
                for v, w in zip(progs.A_NAMES, progs.A_WEIGHTS):
                    out.append((v, p, q, w + p + q))
        return out

    def name(v, p, q):
        inner = v if p == 0 else f"{v}'{p}"
        return inner if q == 0 else f"{inner}''{q}"

    source, target = chart(m, n), chart(n, m)
    require(entry["source"] == [[name(v, p, q), w] for v, p, q, w in source], "flip source chart")
    require(entry["target"] == [[name(v, p, q), w] for v, p, q, w in target], "flip target chart")
    swap = {name(v, p, q): name(v, q, p) for v, p, q, _ in target}
    require(entry["renaming"] == swap, "flip renaming is not the level swap")
