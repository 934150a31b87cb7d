"""Exact linear algebra over the rationals, just enough for this engine.

The internal currency is the integer form: a matrix N / d held as a list of
integer rows N and one nonzero int d (IntMatrix). The kernel `_eliminate`,
fraction-free Gauss-Jordan (Bareiss, Math. Comp. 22, 1968), computes on it
alone and returns the pivot columns, the reduced rows D * rref and D.
Fractions are met only at the boundary: `_scaled` writes a matrix in
integer form over the lcm of its entries' denominators, `_fractions` builds
one Fraction per entry of a public result, and `_stored` gives wpoly's
stored form (int when integral, else a Fraction) for use as coefficients.

action takes each joint projection's pivots and rank factor from
`_eliminate`; graded inverts linear blocks with `_inverse`. The checks
`_fixes` (a*b == b, is a projection idempotent?) and `_is_inverse` (a*b ==
I, the premise of the Picard pass) keep loops of their own, and a check
must not share the kernel it checks. The public functions, on tuples of
Fraction rows, are `identity`, `zeros`, `mat_from_cols`, `mat_mul`,
`mat_add`, and `inverse` and `independent_columns`, views of `_inverse` and
`_eliminate`.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import Sequence

from .errors import DomainError, SingularMatrixError
from .wpoly import _exact

Matrix = tuple[tuple[Fraction, ...], ...]
IntMatrix = tuple[Sequence[Sequence[int]], int]  # rows N and denominator d: N / d

_ZERO = Fraction(0)
_ONE = Fraction(1)


def identity(n: int) -> Matrix:
    return tuple(tuple(_ONE if i == j else _ZERO for j in range(n)) for i in range(n))


def zeros(rows: int, cols: int) -> Matrix:
    return tuple(tuple(_ZERO for _ in range(cols)) for _ in range(rows))


def mat_from_cols(cols: Sequence[Sequence[Fraction]]) -> Matrix:
    if not cols:
        return ()
    n = len(cols[0])
    if any(len(col) != n for col in cols):
        raise DomainError(
            f"matrix columns have different lengths {sorted({len(col) for col in cols})}"
        )
    return tuple(tuple(_exact(col[i]) for col in cols) for i in range(n))


def _scaled(a: Sequence[Sequence[Fraction | int]]) -> IntMatrix:
    """Integer rows N and the lcm d of the entry denominators, so a = N / d.

    The entries are Fractions or ints (a public matrix, or one in stored
    form). Each entry's numerator and denominator are read once, as one
    pair. When every entry is integral, N is the numerators and d = 1.
    """
    if len({len(row) for row in a}) > 1:
        raise DomainError("matrix rows have different lengths")
    rows = [[x.as_integer_ratio() for x in row] for row in a]
    d = lcm(*{q for row in rows for _, q in row})
    if d == 1:
        return [[p for p, _ in row] for row in rows], 1
    return [[p * (d // q) for p, q in row] for row in rows], d


def _fractions(a: IntMatrix) -> Matrix:
    """The public form of N / d: one Fraction per entry."""
    rows, d = a
    return tuple(tuple(Fraction(x, d) if x else _ZERO for x in row) for row in rows)


def _stored(a: IntMatrix) -> list[list[Fraction | int]]:
    """The entries of N / d in wpoly's stored form: int when integral, else a
    Fraction. An integral entry builds no Fraction."""
    rows, d = a
    if d == 1:
        return rows
    return [[Fraction(x, d) if x % d else x // d for x in row] for row in rows]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if a and len(a[0]) != len(b):
        raise DomainError(
            f"matrix shape mismatch: {len(a[0])} columns times {len(b)} rows"
        )
    na, da = _scaled(a)
    nb, db = _scaled(b)
    cols = list(zip(*nb))
    return _fractions(([[sum(map(mul, row, col)) for col in cols] for row in na], da * db))


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def _fixes(a: IntMatrix, m: Sequence[Sequence[int]]) -> bool:
    """Is a*b == b for any b = M / e? With a = N / d this is N*M == d*M.

    The product is compared row by row and stops at the first difference.
    """
    n, d = a
    cols = list(zip(*m))
    return all(
        sum(map(mul, row, col)) == d * x
        for row, m_row in zip(n, m)
        for col, x in zip(cols, m_row)
    )


def _is_inverse(a: IntMatrix, b: IntMatrix) -> bool:
    """Is a*b == I for square a = N / d and b = M / e? That is N*M == d*e*I.

    The product is compared row by row and stops at the first difference.
    """
    (na, d), (nb, e) = a, b
    de = d * e
    cols = list(zip(*nb))
    return all(
        sum(map(mul, row, col)) == (de if i == j else 0)
        for i, row in enumerate(na)
        for j, col in enumerate(cols)
    )


def _eliminate(rows: Sequence[Sequence[int]]) -> tuple[list[int], list[Sequence[int]], int]:
    """Fraction-free Gauss-Jordan elimination of integer rows.

    Returns the pivot columns, the first rank rows of D * rref and D. The
    columns are scanned left to right and the first one that extends the
    span is always taken, so the pivots are deterministic (the first-pivot
    tie break). Every row, above the pivot row as well as below it, is
    updated as (p * x - f * y) / prev, p being the new pivot and prev the
    one before (1 at the start). After each step every entry is, up to sign,
    a minor of the input, so the division is exact, and every pivot of the
    rows so far equals the newest one. So at the end the pivot rows are D
    times the reduced row echelon form, D being the last pivot (1 if there
    is none). With pivots piv, a = a[:, piv] * (rows / D): row operations
    keep every linear relation among the columns, and column j of the
    reduced form writes column j in the pivot columns.

    A zero row stays zero and never holds a pivot, so zero rows are
    dropped as they appear; the pass stops once every row left holds a
    pivot. The input list is not changed; its rows are replaced, never
    written to.
    """
    work = [row for row in rows if any(row)]
    picked: list[int] = []
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


def _inverse(a: IntMatrix) -> IntMatrix:
    """The inverse of a square a = N / d, as integer rows over one denominator.

    Eliminates [N | dI]. When a is invertible every pivot lies in the left
    block, which ends as D * I, and the right block is D * d * N^-1 = D *
    a^-1. Otherwise SingularMatrixError names the first column of N with no
    pivot.
    """
    rows, d = a
    n = len(rows)
    work = [[*row] + [d if i == j else 0 for j in range(n)] for i, row in enumerate(rows)]
    pivots, reduced, denominator = _eliminate(work)
    if pivots[:n] != list(range(n)):
        missing = next(j for j in range(n) if j not in pivots)
        raise SingularMatrixError(f"column {missing} has no pivot")
    return [row[n:] for row in reduced], denominator


def inverse(a: Matrix) -> Matrix:
    """Inverse by fraction-free Gauss-Jordan (`_inverse`); SingularMatrixError
    when singular."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise DomainError(
            f"inverse needs a square matrix, got {n} rows of lengths "
            f"{sorted({len(row) for row in a})}"
        )
    return _fractions(_inverse(_scaled(a)))


def independent_columns(a: Matrix) -> list[int]:
    """Indices of a maximal independent set of columns, scanning left to right.

    These are the pivot columns of `_eliminate` (the first-pivot tie
    break). Scaling a by the shared denominator does not change which
    columns are independent, so the elimination runs on the integer
    numerators.
    """
    if not a:
        return []
    return _eliminate(_scaled(a)[0])[0]

