"""Seeded homogeneity structures built without gradua.

A structure is the standard family S_t (each variable scaled by t to its
weight, weight-0 variables fixed) conjugated by a triangular (de Jonquieres)
polynomial automorphism phi: in a random order, each new coordinate is a
nonzero multiple of the old one plus a polynomial in the coordinates that
come earlier. The added terms are chosen to mix weights, so phi is not
graded and the family h_t = phi^-1 o S_t o phi is not the standard one.
Triangularity keeps phi^-1 polynomial, and it also keeps the engine's
homogenizer (phi followed by a graded map that is triangular with a constant
diagonal) polynomially invertible, weight-0 coordinates included.

All arithmetic is the benchmark's own (oracle.py). The fixed point theta of
h_0 is phi^-1 of a point whose positive-weight coordinates vanish; when
phi has constant terms or the base values are nonzero, theta is not the
origin and is passed to the engine explicitly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from oracle import ONE, ZERO, Poly, add, compose, const, evaluate, mul, scale, var

LETTERS = {0: "b", 1: "x", 2: "y", 3: "z", 4: "p", 5: "q", 6: "r"}


@dataclass
class Structure:
    names: tuple[str, ...]
    weights: tuple[int, ...]
    entries: list[Poly]      # h_t, over the chart variables followed by t
    theta: list[Fraction] | None   # the fixed point passed to the engine, if not 0
    broken: tuple | None = None    # (point z, t, s, defects) certifying a broken law


def chart_names(shape: tuple[int, ...]) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """shape[w] variables of weight w, named by weight letter and index."""
    names, weights = [], []
    for w, count in enumerate(shape):
        for i in range(1, count + 1):
            names.append(f"{LETTERS[w]}{i}")
            weights.append(w)
    return tuple(names), tuple(weights)


def small_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2, 3]))


def _monomial(rng: random.Random, n: int, among: list[int], degree: int) -> tuple:
    e = [0] * n
    for _ in range(degree):
        e[rng.choice(among)] += 1
    return tuple(e)


def triangular(rng: random.Random, weights, degrees: tuple[int, ...],
               constants: bool) -> tuple[list[Poly], list[Poly]]:
    """A weight-mixing triangular automorphism phi and its inverse.

    In a random order, the second half of the coordinates are targets: each
    correction term (one per entry of `degrees`, of that total degree) is
    added to a target and is a monomial in earlier coordinates that are not
    targets themselves. Keeping corrections off the targets bounds the
    degree of phi^-1, so the cost of an input depends on its shape and
    `degrees`, not on how the seed happened to chain the corrections. The
    last term is drawn until some term has a weighted degree different from
    its target's weight, which makes phi non-graded.
    """
    n = len(weights)
    order = list(range(n))
    rng.shuffle(order)
    phi: list[Poly] = [None] * n  # type: ignore[list-item]
    for v in order:
        phi[v] = var(n, v, rng.choice([1, 1, -1, 2, Fraction(1, 2)]))
        if constants and weights[v] > 0:
            phi[v] = add(phi[v], const(n, small_rational(rng)))
    half = (n + 1) // 2
    sources, targets = order[:half], order[half:]
    mixed = False
    for k, degree in enumerate(degrees):
        last = k == len(degrees) - 1 and not mixed
        for _ in range(100):
            v = targets[k % len(targets)] if not last else rng.choice(targets)
            mono = _monomial(rng, n, sources, degree)
            wdeg = sum(w * e for w, e in zip(weights, mono))
            if wdeg != weights[v] or not last:
                break
        else:
            raise ValueError(f"no correction of degree {degree} mixes the weights {weights}")
        mixed = mixed or wdeg != weights[v]
        phi[v] = add(phi[v], {mono: small_rational(rng)})
    # invert in the same order: z_v = (w_v - rest_v(z_earlier)) / a_v
    inv: list[Poly] = [None] * n  # type: ignore[list-item]
    for v in order:
        lead = phi[v][tuple(1 if i == v else 0 for i in range(n))]
        rest = add(phi[v], var(n, v, lead), -ONE)
        images = [inv[i] if inv[i] is not None else {} for i in range(n)]
        inv[v] = scale(add(var(n, v), compose(rest, images, n), -ONE), 1 / lead)
    return phi, inv


def conjugate(phi: list[Poly], inv: list[Poly], weights) -> list[Poly]:
    """Entries of phi^-1 o S_t o phi over the chart variables and t."""
    n = len(weights)
    scaled = []
    for v, w in enumerate(weights):
        image = {m + (0,): c for m, c in phi[v].items()}
        scaled.append(mul(image, {(0,) * n + (w,): ONE}))
    return [compose(p, scaled, n + 1) for p in inv]


def is_standard(entries: list[Poly], weights) -> bool:
    n = len(weights)
    return all(
        p == {tuple(1 if i == v else 0 for i in range(n)) + (w,): ONE}
        for v, (p, w) in enumerate(zip(entries, weights))
    )


def family_at(entries: list[Poly], z, t) -> list[Fraction]:
    point = list(z) + [t]
    return [evaluate(p, point) for p in entries]


def law_defects(entries: list[Poly], z, t, s) -> list[Fraction]:
    """h_t(h_s(z)) - h_(ts)(z), coordinatewise."""
    composed = family_at(entries, family_at(entries, z, s), t)
    merged = family_at(entries, z, t * s)
    return [a - b for a, b in zip(composed, merged)]


def random_point(rng: random.Random, n: int) -> list[Fraction]:
    return [small_rational(rng) for _ in range(n)]


def build_structure(rng: random.Random, shape: tuple[int, ...], degrees: tuple[int, ...],
                    shifted: bool, broken: bool) -> Structure:
    names, weights = chart_names(shape)
    n = len(names)
    while True:
        phi, inv = triangular(rng, weights, degrees, constants=shifted)
        entries = conjugate(phi, inv, weights)
        if not is_standard(entries, weights):
            break
    theta = None
    if shifted:
        w = [small_rational(rng) if wt == 0 else ZERO for wt in weights]
        theta = [evaluate(p, w) for p in inv]
    s = Structure(names, weights, entries, theta)
    if broken:
        _break(rng, s)
    return s


def _break(rng: random.Random, s: Structure) -> None:
    """Add c*(t^2 - t)*z_u to one entry; certify the broken law by evaluation.

    The perturbation vanishes at t = 1, so h_1 stays the identity and what
    breaks is the semigroup law.
    """
    n = len(s.names)
    while True:
        v, u = rng.randrange(n), rng.randrange(n)
        c = small_rational(rng)
        bump = {(0,) * n + (2,): c, (0,) * n + (1,): -c}
        entries = list(s.entries)
        entries[v] = add(entries[v], mul(bump, var(n + 1, u)))
        for _ in range(8):
            z = random_point(rng, n)
            t, s_ = small_rational(rng), small_rational(rng)
            defects = law_defects(entries, z, t, s_)
            if any(defects):
                s.entries = entries
                s.broken = (z, t, s_, defects)
                return
