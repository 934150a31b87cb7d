"""Exact linear algebra over the rationals, just enough for this engine.

Matrices are tuples of row tuples of Fractions. Everything is pure and
allocation-happy; sizes here never exceed a couple dozen rows.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import SingularMatrixError

Matrix = tuple[tuple[Fraction, ...], ...]
Vector = tuple[Fraction, ...]

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
    return tuple(tuple(Fraction(col[i]) for col in cols) for i in range(n))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise ValueError("matrix shape mismatch")
    cols = len(b[0]) if b else 0
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(len(b))), _ZERO) for j in range(cols))
        for i in range(len(a))
    )


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def column(a: Matrix, j: int) -> Vector:
    return tuple(a[i][j] for i in range(len(a)))


def inverse(a: Matrix) -> Matrix:
    """Gauss-Jordan inverse; raises SingularMatrixError when rank-deficient."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("inverse needs a square matrix")
    work = [list(row) + [_ONE if i == j else _ZERO for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot is None:
            raise SingularMatrixError(f"column {col} has no pivot")
        work[col], work[pivot] = work[pivot], work[col]
        inv_p = _ONE / work[col][col]
        work[col] = [x * inv_p for x in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
    return tuple(tuple(row[n:]) for row in work)


def independent_columns(a: Matrix) -> list[int]:
    """Indices of a maximal independent set of columns, scanning left to right.

    The first column that extends the span is always taken, so the result
    is deterministic (the first-pivot tie break).
    """
    if not a:
        return []
    rows = len(a)
    echelon: list[tuple[int, list[Fraction]]] = []
    picked: list[int] = []
    for j in range(len(a[0])):
        v = [a[i][j] for i in range(rows)]
        for pivot, basis_vec in echelon:
            if v[pivot] != 0:
                factor = v[pivot] / basis_vec[pivot]
                v = [x - factor * y for x, y in zip(v, basis_vec)]
        lead = next((i for i, x in enumerate(v) if x != 0), None)
        if lead is not None:
            echelon.append((lead, v))
            picked.append(j)
    return picked


def rank(a: Matrix) -> int:
    return len(independent_columns(a))
