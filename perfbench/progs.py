"""Seeded `.gradua` programs and what each of their reports must say.

Every program has the same commands, so programs cost about the same
whatever the seed; every third program adds three commands built to fail
(a map that is not graded, a family whose semigroup law is broken, and a
pair of families that do not commute), which makes its exit code 1. One in
three, not one in two, keeps the median op inside the cluster of plain
programs instead of in the gap between the two kinds.

    chart A (x1:1, x2:1, y1:2)   map psi, dense and graded   check-morphism psi
                                                              prolong psi order 4
    chart C (b1:0, x1:1, y1:2)   action g, a structure       analyze-action g at (...)
    chart J, the order-1 jets of (x1:1, y1:2)
        action j1, the jet lift of a structure; action j2, the jet scaling
        double D { j1, j2 }                                   check-double D
    flip 2 2 A
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

import gen
from oracle import ONE, Poly, add, diff, evaluate, mul, render, var, widen

A_NAMES, A_WEIGHTS = ("x1", "x2", "y1"), (1, 1, 2)
C_SHAPE = (1, 1, 1)
J_BASE = (0, 1, 1)
PROLONG_ORDER = 4
FLIP = (2, 2)


@dataclass
class Program:
    source: str
    psi: list[Poly]                    # pullbacks of psi over A
    bad: list[Poly] | None             # the non-graded map, negative programs only
    g: gen.Structure                   # analyzed at g.theta
    g_bad: gen.Structure | None        # broken family, negative programs only
    jet_names: tuple[str, ...]
    jet_weights: tuple[int, ...]
    jet_levels: tuple[int, ...]
    j1: list[Poly]                     # over J and t
    j2: list[Poly]
    k: list[Poly] | None               # does not commute with j1, negative programs only
    k_defect: tuple | None = None      # (point, t, u, defects) certifying it
    expected_ok: list[bool] = field(default_factory=list)


def dense_graded(rng: random.Random, names, weights, target_weight: int) -> Poly:
    """Every monomial of the given weighted degree, each with a coefficient."""
    n = len(names)
    out: Poly = {}

    def go(i: int, left: int, exps: list[int]) -> None:
        if i == n:
            if left == 0:
                out[tuple(exps)] = gen.small_rational(rng)
            return
        for e in range(left // weights[i] + 1):
            go(i + 1, left - e * weights[i], exps + [e])

    go(0, target_weight, [])
    return out


def jet_lift(entries: list[Poly], n: int) -> list[Poly]:
    """Order-1 prolongation of a family over n variables and t.

    The jet chart lists the n base variables, then their level-1 jets; the
    parameter comes last. Level 1 is the derivative rule.
    """
    m = 2 * n + 1
    positions = list(range(n)) + [2 * n]
    base = [widen(p, m, positions) for p in entries]
    level1 = []
    for p in entries:
        acc: Poly = {}
        for u in range(n):
            acc = add(acc, mul(widen(diff(p, u), m, positions), var(m, n + u)))
        level1.append(acc)
    return base + level1


def commutation_defects(f: list[Poly], g: list[Poly], z, t, u) -> list[Fraction]:
    """f_t(g_u(z)) - g_u(f_t(z)); both families over the same variables and one parameter."""
    def at(entries, point, p):
        full = list(point) + [p]
        return [evaluate(e, full) for e in entries]
    return [a - b for a, b in zip(at(f, at(g, z, u), t), at(g, at(f, z, t), u))]


def build(rng: random.Random, index: int) -> Program:
    negatives = index % 3 == 2
    lines = [f"# program {index}", f"chart A ({', '.join(f'{v}:{w}' for v, w in zip(A_NAMES, A_WEIGHTS))})"]
    expected: list[bool] = []

    psi = [dense_graded(rng, A_NAMES, A_WEIGHTS, w) for w in A_WEIGHTS]
    lines += _map_block("psi", "A", A_NAMES, psi)
    lines.append("check-morphism psi")
    expected.append(True)
    bad = None
    if negatives:
        bad = [dense_graded(rng, A_NAMES, A_WEIGHTS, w) for w in A_WEIGHTS]
        stray = rng.randrange(len(A_NAMES))
        bad[stray] = add(bad[stray], {(1, 1, 1): gen.small_rational(rng)})
        lines += _map_block("bad", "A", A_NAMES, bad)
        lines.append("check-morphism bad")
        expected.append(False)
    lines.append(f"prolong psi order {PROLONG_ORDER}")
    expected.append(True)

    g = gen.build_structure(rng, C_SHAPE, (2, 1, 2), shifted=True, broken=False)
    lines.append(f"chart C ({', '.join(f'{v}:{w}' for v, w in zip(g.names, g.weights))})")
    lines += _action_block("g", "C", g.names + ("t",), g.entries)
    point = ", ".join(f"{v}={val}" for v, val in zip(g.names, g.theta))
    lines.append(f"analyze-action g at ({point})")
    expected.append(True)
    g_bad = None
    if negatives:
        g_bad = gen.build_structure(rng, C_SHAPE, (2, 1, 2), shifted=False, broken=True)
        lines += _action_block("gb", "C", g_bad.names + ("t",), g_bad.entries)
        lines.append("analyze-action gb")
        expected.append(False)

    small = gen.build_structure(rng, J_BASE, (2, 1), shifted=False, broken=False)
    n = len(small.names)
    jet_names = small.names + tuple(f"{v}'1" for v in small.names)
    jet_weights = small.weights + tuple(w + 1 for w in small.weights)
    jet_levels = (0,) * n + (1,) * n
    j1 = jet_lift(small.entries, n)
    j2 = [mul(var(2 * n + 1, i), {(0,) * (2 * n) + (lvl,): ONE}) for i, lvl in enumerate(jet_levels)]
    chart_j = ", ".join(f"{v}:{w}" for v, w in zip(jet_names, jet_weights))
    lines.append(f"chart J ({chart_j})")
    lines += _action_block("j1", "J", jet_names + ("t",), j1)
    lines += _action_block("j2", "J", jet_names + ("t",), j2)
    lines.append("double D { j1, j2 }")
    lines.append("check-double D")
    expected.append(True)
    k = k_defect = None
    if negatives:
        while True:
            scaled = rng.randrange(2 * n)
            k = [mul(var(2 * n + 1, i), {(0,) * (2 * n) + (1 if i == scaled else 0,): ONE})
                 for i in range(2 * n)]
            z = gen.random_point(rng, 2 * n)
            t, u = gen.small_rational(rng), gen.small_rational(rng)
            defects = commutation_defects(j1, k, z, t, u)
            if any(defects):
                k_defect = (z, t, u, defects)
                break
        lines += _action_block("k", "J", jet_names + ("t",), k)
        lines.append("double E { j1, k }")
        lines.append("check-double E")
        expected.append(False)

    lines.append(f"flip {FLIP[0]} {FLIP[1]} A")
    expected.append(True)
    return Program("\n".join(lines) + "\n", psi, bad, g, g_bad, jet_names, jet_weights,
                   jet_levels, j1, j2, k, k_defect, expected)


def _map_block(name: str, chart: str, names, pulls: list[Poly]) -> list[str]:
    body = [f"  {v} = {render(p, names)};" for v, p in zip(names, pulls)]
    return [f"map {name} : {chart} -> {chart} {{", *body, "}"]


def _action_block(name: str, chart: str, names, entries: list[Poly]) -> list[str]:
    body = [f"  {v} -> {render(p, names)};" for v, p in zip(names, entries)]
    return [f"action {name} on {chart} {{", *body, "}"]
