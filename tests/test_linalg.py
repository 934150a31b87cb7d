"""Exact matrices: the integer kernels against Fraction references and sympy.

The reference kernels below are the plain Fraction versions that the
integer (shared-denominator, fraction-free) kernels in gradua.linalg
replaced. They are kept here only as the oracle: products and inverses must
be equal, singular inputs must fail at the same column, and
independent_columns must pick the same indices (the first-pivot tie break).
is_idempotent must agree with comparing mat_mul(a, a) to a.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradua import linalg
from gradua.errors import DomainError, SingularMatrixError

ZERO = Fraction(0)
ONE = Fraction(1)


# --- reference kernels over Fraction -----------------------------------------


def ref_mat_mul(a, b):
    cols = len(b[0]) if b else 0
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(len(b))), ZERO) for j in range(cols))
        for i in range(len(a))
    )


def ref_inverse(a):
    n = len(a)
    work = [list(row) + [ONE if i == j else ZERO for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot is None:
            raise SingularMatrixError(f"column {col} has no pivot")
        work[col], work[pivot] = work[pivot], work[col]
        inv_p = ONE / work[col][col]
        work[col] = [x * inv_p for x in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
    return tuple(tuple(row[n:]) for row in work)


def ref_independent_columns(a):
    if not a:
        return []
    rows = len(a)
    echelon = []
    picked = []
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


# --- seeded inputs -----------------------------------------------------------


def rational(rng, max_den):
    return Fraction(rng.randint(-max_den, max_den), rng.randint(1, max_den))


def random_matrix(rng, rows, cols, max_den=10**6, density=0.7):
    return tuple(
        tuple(rational(rng, max_den) if rng.random() < density else ZERO for _ in range(cols))
        for _ in range(rows)
    )


def low_rank(rng, rows, cols, r, max_den=1000):
    """A rows x cols matrix of rank at most r."""
    if r == 0:
        return tuple(tuple(ZERO for _ in range(cols)) for _ in range(rows))
    left = random_matrix(rng, rows, r, max_den, density=1.0)
    right = random_matrix(rng, r, cols, max_den, density=1.0)
    return ref_mat_mul(left, right)


def with_column_copies(rng, a):
    """a with a zero column, a scaled copy and a sum of two columns spliced in."""
    cols = [list(col) for col in zip(*a)]
    n = len(a)
    i, j = rng.randrange(len(cols)), rng.randrange(len(cols))
    extra = [
        [ZERO] * n,
        [Fraction(-3, 7) * x for x in cols[i]],
        [x + y for x, y in zip(cols[i], cols[j])],
    ]
    for col in extra:
        cols.insert(rng.randrange(len(cols) + 1), col)
    return tuple(zip(*cols))


def square_cases():
    """(matrix, singular?) pairs: empty, 1x1, dense, sparse, projections."""
    rng = random.Random(20261018)
    cases = [((), False), (((Fraction(-5, 3),),), False), (((ZERO,),), True)]
    for n in range(1, 8):
        for max_den in (1, 9, 10**6):
            cases.append((random_matrix(rng, n, n, max_den), None))
            cases.append((random_matrix(rng, n, n, max_den, density=0.3), None))
        if n > 1:
            cases.append((low_rank(rng, n, n, rng.randrange(n)), True))
            m = [list(row) for row in random_matrix(rng, n, n)]
            m[-1] = [Fraction(2) * x for x in m[0]]
            cases.append((tuple(map(tuple, m)), True))
    return cases


def rectangular_cases():
    rng = random.Random(1968)
    cases = [(), ((),), ((), ()), ((ZERO, ZERO),)]
    for rows in range(1, 8):
        for cols in range(1, 8):
            cases.append(random_matrix(rng, rows, cols))
            cases.append(random_matrix(rng, rows, cols, 5, density=0.25))
            r = rng.randrange(min(rows, cols) + 1)
            cases.append(low_rank(rng, rows, cols, r))
            cases.append(with_column_copies(rng, low_rank(rng, rows, cols, r)))
    return cases


SQUARE = square_cases()
RECTANGULAR = rectangular_cases()


# --- against the reference kernels -------------------------------------------


def assert_fractions(m):
    assert all(type(x) is Fraction for row in m for x in row)


def test_mat_mul_matches_reference():
    rng = random.Random(5)
    for m in range(0, 6):
        for k in range(0, 6):
            for n in range(0, 6):
                a = random_matrix(rng, m, k, rng.choice((1, 12, 10**6)))
                b = random_matrix(rng, k, n, rng.choice((1, 12, 10**6)), density=0.5)
                if k == 0:
                    a, b = tuple(() for _ in range(m)), ()
                got = linalg.mat_mul(a, b)
                assert got == ref_mat_mul(a, b)
                assert_fractions(got)
    for a, _ in SQUARE:
        assert linalg.mat_mul(a, a) == ref_mat_mul(a, a)


def test_inverse_matches_reference():
    inverted = 0
    for a, singular in SQUARE:
        try:
            expected = ref_inverse(a)
        except SingularMatrixError as exc:
            assert singular is not False
            # the same first column without a pivot
            with pytest.raises(SingularMatrixError, match=str(exc)):
                linalg.inverse(a)
            continue
        assert singular is not True
        got = linalg.inverse(a)
        assert got == expected
        assert_fractions(got)
        assert linalg.mat_mul(a, got) == linalg.identity(len(a))
        inverted += 1
    assert inverted > 15


def test_singular_inputs_raise():
    singular = [a for a, flag in SQUARE if flag]
    assert len(singular) > 10
    for a in singular:
        with pytest.raises(SingularMatrixError):
            linalg.inverse(a)


def test_independent_columns_pick_the_reference_indices():
    for a in RECTANGULAR + [a for a, _ in SQUARE]:
        assert linalg.independent_columns(a) == ref_independent_columns(a)
        assert linalg.rank(a) == len(ref_independent_columns(a))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=1, max_size=5
        )
    ),
    st.integers(1, 6),
)
def test_small_integer_matrices_agree_with_reference(rows, den):
    # entries in {-2..2}/den make many singular and rank-deficient matrices
    a = tuple(tuple(Fraction(x, den) for x in row) for row in rows)
    assert linalg.independent_columns(a) == ref_independent_columns(a)
    assert linalg.mat_mul(a, tuple(zip(*a))) == ref_mat_mul(a, tuple(zip(*a)))
    square = a[: len(a[0])] if len(a) >= len(a[0]) else None
    if square is not None:
        try:
            expected = ref_inverse(square)
        except SingularMatrixError:
            with pytest.raises(SingularMatrixError):
                linalg.inverse(square)
        else:
            assert linalg.inverse(square) == expected


def projection_cases():
    """Idempotents C D C^-1 of every rank, and near misses of each.

    D keeps the first r coordinates, so r < n gives rank-deficient
    projections and r = 0 the zero matrix. Each projection comes with three
    matrices that are not idempotent: one entry moved by 1/3, twice the
    projection (unless it is zero), and a nilpotent strictly upper part.
    """
    rng = random.Random(5311)
    cases = [(), ((ZERO,),), ((ONE,),), linalg.zeros(3, 3), linalg.identity(4)]
    for n in range(1, 7):
        for max_den in (1, 9, 10**6):
            c = random_matrix(rng, n, n, max_den, density=1.0)
            try:
                c_inv = ref_inverse(c)
            except SingularMatrixError:
                continue
            r = rng.randrange(n + 1)
            d = tuple(
                tuple(ONE if i == j < r else ZERO for j in range(n)) for i in range(n)
            )
            p = ref_mat_mul(ref_mat_mul(c, d), c_inv)
            moved = [list(row) for row in p]
            moved[rng.randrange(n)][rng.randrange(n)] += Fraction(1, 3)
            cases.append(p)
            cases.append(tuple(map(tuple, moved)))
            cases.append(tuple(tuple(2 * x for x in row) for row in p))
            cases.append(
                tuple(tuple(x if j > i else ZERO for j, x in enumerate(row))
                      for i, row in enumerate(c))
            )
    return cases


PROJECTIONS = projection_cases()


def test_is_idempotent_matches_the_product():
    verdicts = []
    for a in PROJECTIONS + [a for a, _ in SQUARE]:
        got = linalg.is_idempotent(a)
        assert got == (linalg.mat_mul(a, a) == a) == (ref_mat_mul(a, a) == a)
        verdicts.append(got)
    # genuine projections of every rank, and matrices that are not
    assert verdicts.count(True) > 15 and verdicts.count(False) > 40


def test_is_idempotent_refuses_what_mat_mul_refuses():
    for a in ((ONE, ZERO),), ((ONE, ONE), (ONE,)), ((), ()):
        with pytest.raises(DomainError):
            linalg.mat_mul(a, a)
        with pytest.raises(DomainError):
            linalg.is_idempotent(a)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-1, 1), min_size=n, max_size=n), min_size=n, max_size=n
        )
    ),
    st.integers(1, 3),
)
def test_small_integer_matrices_idempotence_agrees(rows, den):
    a = tuple(tuple(Fraction(x, den) for x in row) for row in rows)
    assert linalg.is_idempotent(a) == (ref_mat_mul(a, a) == a)


# --- against sympy -----------------------------------------------------------


def test_kernels_agree_with_sympy():
    sympy = pytest.importorskip("sympy")

    def to_sympy(m, cols):
        return sympy.Matrix(
            len(m), cols, [sympy.Rational(x.numerator, x.denominator) for row in m for x in row]
        )

    def from_sympy(m):
        return tuple(
            tuple(Fraction(int(m[i, j].p), int(m[i, j].q)) for j in range(m.cols))
            for i in range(m.rows)
        )

    rng = random.Random(14)
    for a, _ in SQUARE[1:]:
        n = len(a)
        s = to_sympy(a, n)
        b = random_matrix(rng, n, rng.randrange(1, 5))
        assert linalg.mat_mul(a, b) == from_sympy(s * to_sympy(b, len(b[0])))
        if s.det() == 0:
            with pytest.raises(SingularMatrixError):
                linalg.inverse(a)
        else:
            assert linalg.inverse(a) == from_sympy(s.inv())
        assert linalg.rank(a) == s.rank()
    for a in RECTANGULAR:
        if a and a[0]:
            assert linalg.rank(a) == to_sympy(a, len(a[0])).rank()
    for a in PROJECTIONS[1:]:
        s = to_sympy(a, len(a))
        assert linalg.is_idempotent(a) == (s * s == s)


# --- typed errors at the boundary --------------------------------------------


def test_shape_mismatch_is_a_domain_error():
    a = ((ONE, ZERO),)
    with pytest.raises(DomainError):
        linalg.mat_mul(a, a)


def test_non_square_inverse_is_a_domain_error():
    with pytest.raises(DomainError):
        linalg.inverse(((ONE, ZERO),))


def test_float_column_entry_rejected():
    with pytest.raises(DomainError):
        linalg.mat_from_cols([(ONE, 0.5)])


def test_ragged_rows_are_a_domain_error():
    # zip-based integer kernels would otherwise truncate the longer rows
    ragged = ((ONE, ONE), (ONE,))
    column_pair = ((ONE,), (ONE,))
    with pytest.raises(DomainError):
        linalg.mat_mul(ragged, column_pair)
    with pytest.raises(DomainError):
        linalg.mat_mul(((ONE, ONE),), ragged)
    with pytest.raises(DomainError):
        linalg.independent_columns(ragged)
    with pytest.raises(DomainError):
        linalg.inverse(ragged)


@pytest.mark.parametrize(
    "cols", [[(1, 2), (4, 5, 6)], [(1, 2, 3), (4, 5)]], ids=["longer", "shorter"]
)
def test_ragged_columns_are_a_domain_error(cols):
    # reading row i of every column would drop a longer column's extra
    # entries, and run off the end of a shorter one
    with pytest.raises(DomainError, match="columns have different lengths"):
        linalg.mat_from_cols(cols)
