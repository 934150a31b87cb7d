"""Independent arithmetic for building inputs and checking outputs.

Nothing here calls gradua. Polynomials are dicts from dense exponent
tuples to nonzero Fractions over a fixed list of variable names. The
engine's outputs are read back from their printed form (`str` of a
WPolynomial, or the strings of a JSON report) by `parse`, and every check
evaluates at rational points or multiplies plain Fraction matrices, so a
defect in gradua's own `evaluate`, `substitute` or `prolong` cannot hide
itself here.
"""

from __future__ import annotations

import math
from fractions import Fraction

Poly = dict  # dict[tuple[int, ...], Fraction]

ZERO = Fraction(0)
ONE = Fraction(1)


class OracleError(AssertionError):
    """An engine output disagrees with the independent computation."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise OracleError(message)


# --- polynomial arithmetic ----------------------------------------------------


def const(n: int, c) -> Poly:
    c = Fraction(c)
    return {(0,) * n: c} if c else {}


def var(n: int, i: int, c=1) -> Poly:
    e = [0] * n
    e[i] = 1
    return {tuple(e): Fraction(c)}


def add(a: Poly, b: Poly, scale=ONE) -> Poly:
    out = dict(a)
    for m, c in b.items():
        s = out.get(m, ZERO) + c * scale
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            s = out.get(m, ZERO) + c1 * c2
            if s:
                out[m] = s
            else:
                del out[m]
    return out


def scale(a: Poly, c) -> Poly:
    c = Fraction(c)
    return {m: x * c for m, x in a.items()} if c else {}


def compose(p: Poly, images: list[Poly], n_out: int) -> Poly:
    """p with variable i replaced by images[i]; images live on n_out variables."""
    powers: dict[tuple[int, int], Poly] = {}

    def power(i: int, e: int) -> Poly:
        if (i, e) not in powers:
            powers[(i, e)] = images[i] if e == 1 else mul(power(i, e - 1), images[i])
        return powers[(i, e)]

    out: Poly = {}
    for mono, c in p.items():
        term = const(n_out, c)
        for i, e in enumerate(mono):
            if e:
                term = mul(term, power(i, e))
        out = add(out, term)
    return out


def evaluate(p: Poly, point) -> Fraction:
    total = ZERO
    for mono, c in p.items():
        v = c
        for x, e in zip(point, mono):
            if e:
                v *= x**e
        total += v
    return total


def weighted_degrees(p: Poly, weights) -> set[int]:
    return {sum(w * e for w, e in zip(weights, m)) for m in p}


def render(p: Poly, names) -> str:
    """Text in the DSL's expression syntax (any term order)."""
    if not p:
        return "0"
    pieces = []
    for mono, c in sorted(p.items(), reverse=True):
        factors = [str(abs(c))] if abs(c) != 1 or not any(mono) else []
        for name, e in zip(names, mono):
            if e:
                factors.append(name if e == 1 else f"{name}^{e}")
        body = "*".join(factors)
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(pieces)


def parse(text: str, names) -> Poly:
    """Read a printed polynomial: `c*x^e*y - c2 + ...` over the given names."""
    index = {name: i for i, name in enumerate(names)}
    n = len(names)
    out: Poly = {}
    if text.strip() == "0":
        return out
    tokens = text.split()
    sign = ONE
    for tok in tokens:
        if tok in ("+", "-"):
            sign = ONE if tok == "+" else -ONE
            continue
        if tok.startswith("-"):
            sign, tok = -sign, tok[1:]
        coeff = sign
        exps = [0] * n
        for factor in tok.split("*"):
            if factor[0].isdigit():
                coeff *= Fraction(factor)
                continue
            name, _, e = factor.partition("^")
            if name not in index:
                raise OracleError(f"unknown variable {name!r} in {text!r}")
            exps[index[name]] += int(e) if e else 1
        key = tuple(exps)
        s = out.get(key, ZERO) + coeff
        if s:
            out[key] = s
        else:
            out.pop(key, None)
        sign = ONE
    return out


# --- matrices -----------------------------------------------------------------


def mat_product(a, b):
    inner = range(len(b))
    return [[sum((a[i][k] * b[k][j] for k in inner), ZERO) for j in range(len(b[0]))]
            for i in range(len(a))]


def check_projections(qs) -> None:
    """Each Q is idempotent and they sum to the identity.

    Idempotents summing to I are automatically mutually annihilating
    (trace equals rank for idempotents), so no cross products are needed.
    """
    n = len(qs[0])
    total = [[sum((q[i][j] for q in qs), ZERO) for j in range(n)] for i in range(n)]
    require(total == [[ONE if i == j else ZERO for j in range(n)] for i in range(n)],
            "projections do not sum to the identity")
    for r, q in enumerate(qs):
        require(mat_product(q, q) == [list(row) for row in q], f"Q_{r} is not idempotent")


# --- truncated univariate series ----------------------------------------------


def series_mul(a: list, b: list, order: int) -> list:
    out = [ZERO] * (order + 1)
    for i, x in enumerate(a):
        if x:
            for j in range(order + 1 - i):
                out[i + j] += x * b[j]
    return out


def series_compose(p: Poly, curves: list[list], order: int) -> list:
    """Coefficients of p(c(s)) up to s^order, for curves c_i given as series."""
    out = [ZERO] * (order + 1)
    for mono, c in p.items():
        term = [c] + [ZERO] * order
        for i, e in enumerate(mono):
            for _ in range(e):
                term = series_mul(term, curves[i], order)
        for k in range(order + 1):
            out[k] += term[k]
    return out


def prolong_values(p: Poly, jets: list[list], order: int) -> list[Fraction]:
    """k! [s^k] p(c(s)) with c_i(s) = sum_j jets[i][j] s^j / j!, k = 0..order."""
    curves = [[jets[i][j] / math.factorial(j) for j in range(order + 1)]
              for i in range(len(jets))]
    series = series_compose(p, curves, order)
    return [series[k] * math.factorial(k) for k in range(order + 1)]


def diff(p: Poly, i: int) -> Poly:
    out: Poly = {}
    for mono, c in p.items():
        e = mono[i]
        if e:
            m = mono[:i] + (e - 1,) + mono[i + 1:]
            out[m] = out.get(m, ZERO) + c * e
    return {m: c for m, c in out.items() if c}


def widen(p: Poly, n_out: int, positions) -> Poly:
    """Re-express p over n_out variables, variable i going to positions[i]."""
    out: Poly = {}
    for mono, c in p.items():
        e = [0] * n_out
        for i, k in enumerate(mono):
            e[positions[i]] += k
        out[tuple(e)] = c
    return out
