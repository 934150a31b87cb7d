"""Show that the output checks are not vacuous.

    python3 perfbench/mutation_check.py

Runs a few operations of each kind, confirms their outputs pass, then
corrupts one piece of each output at a time (a homogenizer pullback, an
inverse pullback, a prolonged pullback, and more) and confirms the check
rejects every corrupted copy. Exits 1 if some corruption goes unnoticed.
"""

from __future__ import annotations

import copy
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402
import progs  # noqa: E402
import run  # noqa: E402
from oracle import OracleError, parse, render  # noqa: E402


def bump(text: str, names) -> str:
    """The printed polynomial plus one extra unit in its first term."""
    p = parse(text, names)
    mono = next(iter(p), (0,) * len(names))
    p[mono] = p.get(mono, 0) + 1
    return render({m: c for m, c in p.items() if c}, names)


def rejected(check, corrupted) -> bool:
    try:
        check(corrupted)
    except OracleError:
        return True
    return False


def main() -> int:
    from gradua.action import analyze

    rng = random.Random("mutation")
    misses = []

    s = gen.build_structure(rng, (1, 1, 1, 1), run.CORPUS_DEGREES, shifted=True, broken=False)
    family, theta = run._family(s)
    entry = checks.analysis_entry(analyze(family, theta))
    new_names = tuple(v for v, _ in entry["homogenized_chart"])

    def check_entry(e):
        checks.check_analysis(s, e, random.Random(0))

    check_entry(entry)
    mutations = {}
    first = new_names[-1]
    e = copy.deepcopy(entry)
    e["homogenizer"][first] = bump(e["homogenizer"][first], s.names)
    mutations["homogenizer pullback"] = e
    e = copy.deepcopy(entry)
    e["inverse"][s.names[0]] = bump(e["inverse"][s.names[0]], new_names)
    mutations["inverse pullback"] = e
    e = copy.deepcopy(entry)
    e["projections"][0][0][0] = str(int(e["projections"][0][0][0] == "0"))
    mutations["projection entry"] = e
    e = copy.deepcopy(entry)
    e["weights"] = sorted(e["weights"][:-1] + [e["weights"][-1] + 1])
    mutations["recovered weights"] = e
    e = copy.deepcopy(entry)
    e["theta"][s.names[0]] = str(-1 - int(float(e["theta"][s.names[0]])))
    mutations["theta"] = e
    for what, corrupted in mutations.items():
        if not rejected(check_entry, corrupted):
            misses.append(what)

    broken = gen.build_structure(rng, (0, 2, 1), run.CORPUS_DEGREES, shifted=False, broken=True)
    family, theta = run._family(broken)
    entry = checks.analysis_entry(analyze(family, theta))
    checks.check_analysis(broken, entry, random.Random(0))
    e = copy.deepcopy(entry)
    w = e["witnesses"][0]
    w["defect"] = bump(w["defect"], broken.names + ("t", "s"))
    if not rejected(lambda x: checks.check_analysis(broken, x, random.Random(0)), e):
        misses.append("semigroup witness defect")

    program = progs.build(rng, 2)  # index 2: a program with negative verdicts
    code, report = run._program_ops(program, 2)[0].run()
    report = json.loads(report)
    checks.check_program(program, report, code, random.Random(1))

    def check_report(r):
        checks.check_program(program, r, code, random.Random(1))

    prolonged = next(r for r in report["results"] if r["command"] == "prolong")
    names = [v for v, _ in prolonged["source"]]
    for level in (1, 4):
        r = copy.deepcopy(report)
        target = next(x for x in r["results"] if x["command"] == "prolong")
        key = f"y1'{level}"
        target["pullbacks"][key] = bump(target["pullbacks"][key], names)
        if not rejected(check_report, r):
            misses.append(f"prolongation at level {level}")
    r = copy.deepcopy(report)
    double = next(x for x in r["results"] if x["command"] == "check-double")
    v = next(iter(double["biweights"]))
    double["biweights"][v] = [double["biweights"][v][0] + 1, double["biweights"][v][1]]
    if not rejected(check_report, r):
        misses.append("biweights")
    r = copy.deepcopy(report)
    flip = next(x for x in r["results"] if x["command"] == "flip")
    a, b = list(flip["renaming"])[1:3]
    flip["renaming"][a], flip["renaming"][b] = flip["renaming"][b], flip["renaming"][a]
    if not rejected(check_report, r):
        misses.append("flip renaming")

    total = len(mutations) + 5
    if misses:
        print(f"not rejected: {', '.join(misses)}")
        return 1
    print(f"all {total} corrupted outputs rejected")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
