"""Exact linear algebra over the rationals, just enough for this engine.

Matrices are tuples of row tuples of Fractions, and that is all a caller
sees. Inside, the kernels work over Python ints: `_scaled` writes a matrix
as integer numerators over one shared denominator (the lcm of its entries'
denominators), products multiply numerators only, and elimination is
fraction-free (Bareiss, Math. Comp. 22, 1968), so every division is exact.
Fractions are built only at the boundary, once per returned entry. Sizes
here never exceed a couple dozen rows.

The kernels: `mat_mul`, `inverse`, `independent_columns` (and `rank`), and
the predicates `fixes`, `is_idempotent` and `is_inverse`, which decide a*b
== b, a*a == a and a*b == I over the integers and build no Fraction at
all. The engine decides its Taylor projections by their ranks
(`independent_columns`), and calls `is_idempotent` only to explain a
failure: to name the first projection that is not idempotent. `fixes`
decides whether commuting families' projections keep each other's images
(action._homogenize_joint). `is_inverse` is the checked premise of the
Picard pass that inverts polynomial maps (graded._invert_coordinate_change).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import Sequence

from .errors import DomainError, SingularMatrixError
from .wpoly import _exact

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
    if any(len(col) != n for col in cols):
        raise DomainError(
            f"matrix columns have different lengths {sorted({len(col) for col in cols})}"
        )
    return tuple(tuple(_exact(col[i]) for col in cols) for i in range(n))


def _scaled(a: Matrix) -> tuple[list[list[int]], int]:
    """Integer rows N and the lcm d of the entry denominators, so a = N / d.

    Each entry's numerator and denominator are read once, as one pair. When
    every entry is integral, N is the numerators and d = 1.
    """
    if len({len(row) for row in a}) > 1:
        raise DomainError("matrix rows have different lengths")
    rows = [[x.as_integer_ratio() for x in row] for row in a]
    d = lcm(*{q for row in rows for _, q in row})
    if d == 1:
        return [[p for p, _ in row] for row in rows], 1
    return [[p * (d // q) for p, q in row] for row in rows], d


def _fraction(n: int, d: int) -> Fraction:
    return Fraction(n, d) if n else _ZERO


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if a and len(a[0]) != len(b):
        raise DomainError(
            f"matrix shape mismatch: {len(a[0])} columns times {len(b)} rows"
        )
    na, da = _scaled(a)
    nb, db = _scaled(b)
    d = da * db
    cols = list(zip(*nb))
    return tuple(
        tuple(_fraction(sum(map(mul, row, col)), d) for col in cols) for row in na
    )


def fixes(a: Matrix, b: Matrix) -> bool:
    """Is a*b == b? With a = N / d and b = M / e this is N*M == d*M, over ints.

    No Fraction is built, and the product is compared row by row and stops
    at the first difference. `a` must be square, with as many rows as `b`;
    otherwise DomainError, as for mat_mul.
    """
    if any(len(row) != len(b) for row in a) or len(a) != len(b):
        raise DomainError(
            f"a*b == b needs a square a as tall as b, got {len(a)} rows of "
            f"lengths {sorted({len(row) for row in a})} and {len(b)} rows"
        )
    n, d = _scaled(a)
    m, _ = _scaled(b)
    cols = list(zip(*m))
    return all(
        sum(map(mul, row, col)) == d * x
        for row, m_row in zip(n, m)
        for col, x in zip(cols, m_row)
    )


def is_idempotent(a: Matrix) -> bool:
    """Is a*a == a? That is fixes(a, a), decided over ints."""
    return fixes(a, a)


def is_inverse(a: Matrix, b: Matrix) -> bool:
    """Is a*b == I? With a = N / d and b = M / e this is N*M == d*e*I, over ints.

    No Fraction is built, and the product is compared row by row and stops
    at the first difference. Both must be square of one size; otherwise
    DomainError, as for fixes.
    """
    n = len(a)
    if len(b) != n or any(len(row) != n for m in (a, b) for row in m):
        raise DomainError(
            f"a*b == I needs two square matrices of one size, got {n} and "
            f"{len(b)} rows of lengths {sorted({len(row) for m in (a, b) for row in m})}"
        )
    na, d = _scaled(a)
    nb, e = _scaled(b)
    de = d * e
    cols = list(zip(*nb))
    return all(
        sum(map(mul, row, col)) == (de if i == j else 0)
        for i, row in enumerate(na)
        for j, col in enumerate(cols)
    )


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def column(a: Matrix, j: int) -> Vector:
    return tuple(a[i][j] for i in range(len(a)))


def inverse(a: Matrix) -> Matrix:
    """Inverse by fraction-free Gauss-Jordan; SingularMatrixError when singular.

    With a = N / d, eliminate on the integer matrix [N | dI]. After step k
    every pivot of rows 0..k equals the newest pivot, and every entry is, up
    to sign, a minor of [N | dI], so the division by the previous pivot is
    exact. At the end the left block is D*I and the right block is D * a^-1.
    """
    n = len(a)
    if any(len(row) != n for row in a):
        raise DomainError(
            f"inverse needs a square matrix, got {n} rows of lengths "
            f"{sorted({len(row) for row in a})}"
        )
    rows, d = _scaled(a)
    work = [row + [d if i == j else 0 for j in range(n)] for i, row in enumerate(rows)]
    prev = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col]), None)
        if pivot is None:
            raise SingularMatrixError(f"column {col} has no pivot")
        work[col], work[pivot] = work[pivot], work[col]
        top = work[col]
        p = top[col]
        for r in range(n):
            if r != col:
                f = work[r][col]
                work[r] = [(p * x - f * y) // prev for x, y in zip(work[r], top)]
        prev = p
    return tuple(tuple(_fraction(x, prev) for x in row[n:]) for row in work)


def independent_columns(a: Matrix) -> list[int]:
    """Indices of a maximal independent set of columns, scanning left to right.

    The first column that extends the span is always taken, so the result
    is deterministic (the first-pivot tie break): these are the pivot
    columns of a's echelon form. Scaling a by the shared denominator does
    not change which columns are independent, so the elimination runs
    fraction-free (Bareiss) on the integer numerators.
    """
    if not a:
        return []
    work, _ = _scaled(a)
    n_rows = len(work)
    picked: list[int] = []
    prev = 1
    for j in range(len(work[0])):
        r = len(picked)
        pivot = next((i for i in range(r, n_rows) if work[i][j]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        top = work[r]
        p = top[j]
        for i in range(r + 1, n_rows):
            f = work[i][j]
            work[i] = [(p * x - f * y) // prev for x, y in zip(work[i], top)]
        prev = p
        picked.append(j)
    return picked


def rank(a: Matrix) -> int:
    return len(independent_columns(a))
