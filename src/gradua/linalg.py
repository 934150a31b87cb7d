"""Exact linear algebra over the rationals, just enough for this engine.

The internal currency is the integer form: a matrix N / d held as a list of
sparse integer rows N, each a dict {column: nonzero int}, and one nonzero
int d (IntMatrix). A zero row is an empty dict, and no zero is stored, so
every kernel touches the nonzero entries only; the column count is the
caller's to know. The kernel `_eliminate`, fraction-free Gauss-Jordan
(Bareiss, Math. Comp. 22, 1968), computes on it alone and returns the pivot
columns, the reduced rows D * rref and D. Fractions are met only at the
boundary: `_scaled` writes a matrix of Fraction or int rows in integer
form over the lcm of its entries' denominators, `_fractions` builds one
Fraction per entry of a public result, and `_stored` gives wpoly's stored
form (int when integral, else a Fraction) for use as coefficients, in
sparse rows too. `_scaled` is where a matrix's exactness is checked: each
entry goes through wpoly._exact, so a float raises DomainError rather than
becoming the binary fraction it holds. `mat_from_cols` and `mat_add` read
their entries through wpoly._exact too.

action takes each joint projection's pivots and rank factor from
`_eliminate`; graded inverts linear blocks with `_inverse`. The checks
`_fixes` (a*b == b, is a projection idempotent?) and `_is_inverse` (a*b ==
I, the premise of the Picard pass) multiply row by row (`_row_times`) and
share no step of the elimination, and a check must not share the kernel it
checks. The public functions, on tuples of Fraction rows, are `identity`,
`zeros`, `mat_from_cols`, `mat_mul`, `mat_add`, and `inverse` and
`independent_columns`, views of `_inverse` and `_eliminate`.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Mapping, Sequence

from .errors import DomainError, SingularMatrixError
from .wpoly import _exact

Matrix = tuple[tuple[Fraction, ...], ...]
Row = dict[int, int]  # column -> nonzero entry
IntMatrix = tuple[Sequence[Mapping[int, int]], int]  # rows N and denominator d: N / d

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
    """Sparse integer rows N and the lcm d of the entry denominators, so a =
    N / d.

    The entries are Fractions or ints (a public matrix, or one in stored
    form); any other entry, a float say, raises wpoly._exact's DomainError.
    Each nonzero entry's numerator and denominator are read once, as one
    pair; zeros are not stored. When every entry is integral, N is the
    numerators and d = 1.
    """
    if len({len(row) for row in a}) > 1:
        raise DomainError("matrix rows have different lengths")
    rows = [{j: x.as_integer_ratio() for j, x in enumerate(map(_exact, row)) if x} for row in a]
    d = lcm(*{q for row in rows for _, q in row.values()})
    if d == 1:
        return [{j: p for j, (p, _) in row.items()} for row in rows], 1
    return [{j: p * (d // q) for j, (p, q) in row.items()} for row in rows], d


def _fractions(a: IntMatrix, cols: int) -> Matrix:
    """The public form of N / d with `cols` columns: one Fraction per entry."""
    rows, d = a
    return tuple(
        tuple(Fraction(x, d) if (x := row.get(j)) else _ZERO for j in range(cols))
        for row in rows
    )


def _stored(a: IntMatrix) -> list[dict[int, Fraction | int]]:
    """The entries of N / d in wpoly's stored form, int when integral, else a
    Fraction, in sparse rows. An integral entry builds no Fraction."""
    rows, d = a
    if d == 1:
        return [dict(row) for row in rows]
    return [{j: Fraction(x, d) if x % d else x // d for j, x in row.items()} for row in rows]


def _row_times(row: Mapping[int, int], m: Sequence[Mapping[int, int]]) -> Row:
    """The sparse row times the sparse rows m: one product per pair of
    nonzero entries that meet. Entries that cancel are kept, as 0."""
    out: Row = {}
    for k, x in row.items():
        for j, y in m[k].items():
            out[j] = out.get(j, 0) + x * y
    return out


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if a and len(a[0]) != len(b):
        raise DomainError(
            f"matrix shape mismatch: {len(a[0])} columns times {len(b)} rows"
        )
    na, da = _scaled(a)
    nb, db = _scaled(b)
    return _fractions(([_row_times(row, nb) for row in na], da * db), len(b[0]) if b else 0)


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    """Entrywise sum of two matrices of one shape, exact entries only."""
    if [len(row) for row in a] != [len(row) for row in b]:
        shapes = [f"{len(m)}x{len(m[0]) if m else 0}" for m in (a, b)]
        raise DomainError(f"matrix shape mismatch: {shapes[0]} plus {shapes[1]}")
    return tuple(tuple(_exact(x) + _exact(y) for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def _fixes(a: IntMatrix, m: Sequence[Mapping[int, int]]) -> bool:
    """Is a*b == b for any b = M / e? With a = N / d this is N*M == d*M.

    The product is compared row by row and stops at the first difference.
    """
    n, d = a
    for row, m_row in zip(n, m):
        product = _row_times(row, m)
        if {j: x for j, x in product.items() if x} != {j: d * x for j, x in m_row.items()}:
            return False
    return True


def _is_inverse(a: IntMatrix, b: IntMatrix) -> bool:
    """Is a*b == I for square a = N / d and b = M / e? That is N*M == d*e*I.

    The product is compared row by row and stops at the first difference:
    row i must hold d*e at column i and cancel everywhere else.
    """
    (na, d), (nb, e) = a, b
    de = d * e
    for i, row in enumerate(na):
        product = _row_times(row, nb)
        if product.pop(i, 0) != de or any(product.values()):
            return False
    return True


def _eliminate(rows: Sequence[Mapping[int, int]]) -> tuple[list[int], list[Row], int]:
    """Fraction-free Gauss-Jordan elimination of sparse integer rows.

    Returns the pivot columns, the first rank rows of D * rref and D. The
    columns that occur are scanned in ascending order and the first one that
    extends the span is always taken, so the pivots are deterministic (the
    first-pivot tie break); a column with no entry never extends it. Every
    row, above the pivot row as well as below it, is updated as (p * x - f *
    y) / prev, p being the new pivot and prev the one before (1 at the
    start), on the union of its columns and the pivot row's. After each step
    every entry is, up to sign, a minor of the input, so the division is
    exact, and every pivot of the rows so far equals the newest one. So at
    the end the pivot rows are D times the reduced row echelon form, D being
    the last pivot (1 if there is none). With pivots piv, a = a[:, piv] *
    (rows / D): row operations keep every linear relation among the columns,
    and column j of the reduced form writes column j in the pivot columns.

    Entries that cancel are dropped, so a zero row is empty; it never holds
    a pivot, so zero rows are dropped as they appear, and the pass stops
    once every row left holds a pivot. The input list is not changed; its
    rows are replaced, never written to.
    """
    work = [row for row in rows if row]
    picked: list[int] = []
    prev = 1
    for j in sorted({c for row in work for c in row}):
        r = len(picked)
        n_rows = len(work)
        if r == n_rows:
            break
        pivot = next((i for i in range(r, n_rows) if j in work[i]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        top = work[r]
        p = top[j]
        for i in range(n_rows):
            if i == r:
                continue
            row = work[i]
            f = row.get(j)
            if f:
                new = {c: p * x for c, x in row.items()}
                for c, y in top.items():
                    new[c] = new.get(c, 0) - f * y
                work[i] = {c: x // prev for c, x in new.items() if x}
            elif p != prev:
                work[i] = {c: p * x // prev for c, x in row.items()}
        prev = p
        picked.append(j)
        work[r + 1 :] = [row for row in work[r + 1 :] if row]
    return picked, work[: len(picked)], prev


def _inverse(a: IntMatrix) -> IntMatrix:
    """The inverse of a square a = N / d, as sparse integer rows over one
    denominator.

    Eliminates [N | dI], column n + i holding the d of row i. When a is
    invertible every pivot lies in the left block, which ends as D * I, and
    the right block is D * d * N^-1 = D * a^-1. Otherwise SingularMatrixError
    names the first column of N with no pivot.
    """
    rows, d = a
    n = len(rows)
    pivots, reduced, denominator = _eliminate([{**row, n + i: d} for i, row in enumerate(rows)])
    if pivots[:n] != list(range(n)):
        missing = next(j for j in range(n) if j not in pivots)
        raise SingularMatrixError(f"column {missing} has no pivot")
    return [{j - n: x for j, x in row.items() if j >= n} for row in reduced], denominator


def inverse(a: Matrix) -> Matrix:
    """Inverse by fraction-free Gauss-Jordan (`_inverse`); SingularMatrixError
    when singular."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise DomainError(
            f"inverse needs a square matrix, got {n} rows of lengths "
            f"{sorted({len(row) for row in a})}"
        )
    return _fractions(_inverse(_scaled(a)), n)


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
