import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from apolarity.exactlinalg import (
    FieldMismatchError,
    FieldSpec,
    Matrix,
    _echelon,
)
from conftest import brute_span_dim


def test_field_ops_prime():
    gf7 = FieldSpec.prime_field(7)
    assert gf7.mul(3, 5) == 1  # 15 mod 7
    gf5 = FieldSpec.prime_field(5)
    assert gf5.inv(2) == 3  # 2*3 = 6 = 1 mod 5
    assert gf5.add(4, 4) == 3
    assert gf5.neg(2) == 3


def test_field_ops_rationals():
    q = FieldSpec.rationals()
    assert q.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert q.inv(Fraction(-2, 3)) == Fraction(-3, 2)
    assert q.normalize("7/2") == Fraction(7, 2)


def test_invert_zero_raises():
    with pytest.raises(ZeroDivisionError):
        FieldSpec.prime_field(7).inv(0)
    with pytest.raises(ZeroDivisionError):
        FieldSpec.rationals().inv(Fraction(0))


def test_prime_inverse_matches_fermat():
    gf7 = FieldSpec.prime_field(7)
    for a in range(1, 7):
        assert gf7.inv(a) == pow(a, 5, 7)
    gf = FieldSpec.prime_field(32003)
    rng = random.Random(32003)
    for a in (rng.randrange(1, 32003) for _ in range(1000)):
        assert gf.inv(a) == pow(a, 32001, 32003)
    for field in (gf7, gf):
        with pytest.raises(ZeroDivisionError):
            field.inv(0)


def test_field_mismatch():
    with pytest.raises(FieldMismatchError):
        FieldSpec.prime_field(7).require_same(FieldSpec.prime_field(5))
    with pytest.raises(FieldMismatchError):
        FieldSpec.rationals().require_same(FieldSpec.prime_field(7))


def test_modulus_must_be_prime():
    with pytest.raises(ValueError):
        FieldSpec.prime_field(6)
    with pytest.raises(ValueError):
        FieldSpec.prime_field(1)
    FieldSpec.prime_field(2)
    FieldSpec.prime_field(32003)


def test_rank_golden():
    q = FieldSpec.rationals()
    assert Matrix.identity(2, q).rank() == 2
    assert Matrix([[1, 0], [0, 0]], q).rank() == 1
    # the degree-one contraction matrix of Y1^2 + Y2^2: full rank
    assert Matrix([[1, 0], [0, 1]], q).rank() == 2
    assert Matrix([], q, ncols=3).rank() == 0
    assert Matrix.zero(3, 0, q).rank() == 0


def test_kernel_golden():
    q = FieldSpec.rationals()
    assert Matrix.identity(3, q).kernel_basis() == []
    (vec,) = Matrix([[1, 1]], q).kernel_basis()
    assert vec == [Fraction(1), Fraction(-1)] or vec == [Fraction(-1), Fraction(1)]


def test_kernel_of_empty_row_matrix():
    gf = FieldSpec.prime_field(7)
    basis = Matrix([], gf, ncols=2).kernel_basis()
    assert len(basis) == 2


def _random_matrix(rng, field, nrows, ncols, span=5):
    return Matrix(
        [[field.normalize(rng.randrange(-span, span + 1)) for _ in range(ncols)] for _ in range(nrows)],
        field,
        ncols=ncols,
    )


def test_rank_against_bruteforce_span():
    # oracle: enumerate all GF(5)-combinations of the rows
    import random

    rng = random.Random(7)
    gf5 = FieldSpec.prime_field(5)
    for _ in range(40):
        nrows = rng.randrange(1, 4)
        ncols = rng.randrange(1, 5)
        m = _random_matrix(rng, gf5, nrows, ncols)
        assert m.rank() == brute_span_dim(m.rows, 5)


@given(st.data())
def test_rank_transpose_and_nullity(data):
    field = data.draw(st.sampled_from([FieldSpec.rationals(), FieldSpec.prime_field(32003)]))
    nrows = data.draw(st.integers(0, 5))
    ncols = data.draw(st.integers(0 if nrows else 1, 5))
    rows = data.draw(
        st.lists(
            st.lists(st.integers(-9, 9), min_size=ncols, max_size=ncols),
            min_size=nrows,
            max_size=nrows,
        )
    )
    m = Matrix([[field.normalize(x) for x in r] for r in rows], field, ncols=ncols)
    assert m.rank() == m.transpose().rank()
    kernel = m.kernel_basis()
    assert m.rank() + len(kernel) == m.ncols
    # normal form: one vector per free column (a column that does not raise
    # the rank of the columns before it), 1 there and 0 at the other ones
    prefix_ranks = [
        Matrix([r[:j] for r in m.rows], field, ncols=j).rank() for j in range(m.ncols + 1)
    ]
    free = [j for j in range(m.ncols) if prefix_ranks[j + 1] == prefix_ranks[j]]
    assert len(free) == len(kernel)
    for v, f in zip(kernel, free):
        assert [v[g] for g in free] == [int(g == f) for g in free]
        image = [sum(a * b for a, b in zip(row, v)) for row in m.rows]
        if field.kind == FieldSpec.PRIME:
            image = [x % field.modulus for x in image]
        assert all(x == 0 for x in image)


@given(
    st.lists(
        st.lists(st.integers(-5, 5), min_size=4, max_size=4),
        min_size=1,
        max_size=6,
    )
)
def test_rank_int_matrix_gfp_matches_rationals(rows):
    # with entries bounded by 5, every minor is below 10^4 by Hadamard, so no
    # nonzero minor can vanish mod these primes: the ranks must agree exactly
    q = Matrix([[Fraction(x) for x in r] for r in rows], FieldSpec.rationals(), ncols=4)
    for p in (32003, 15013):
        gf = FieldSpec.prime_field(p)
        m = Matrix([[x % p for x in r] for r in rows], gf, ncols=4)
        assert m.rank() == q.rank()


def _fraction_echelon(rows, reduced):
    """Textbook Gauss-Jordan over Fractions with the kernel's pivot rule (first
    nonzero entry at or below the current row): the oracle for the QQ kernel."""
    rows = [[Fraction(x) for x in r] for r in rows]
    pivot_cols = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivot_cols)
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pc = rows[r][c]
        rows[r] = [x / pc for x in rows[r]]
        for i in range(len(rows)):
            if i > r or (reduced and i < r):
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivot_cols.append(c)
    return pivot_cols, rows[: len(pivot_cols)]


_rational_entries = st.one_of(
    st.just(0),
    st.integers(-9, 9),
    st.builds(Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**30)),
)


@settings(max_examples=60)
@given(st.data())
def test_rational_echelon_matches_fraction_gauss_jordan(data):
    # the QQ kernel eliminates primitive integer rows; its pivots and unit-
    # pivot rows must be those of plain Fraction elimination
    nrows = data.draw(st.integers(0, 5), label="nrows")
    ncols = data.draw(st.integers(0, 6), label="ncols")
    rows = data.draw(st.lists(st.lists(_rational_entries, min_size=ncols, max_size=ncols),
                              min_size=nrows, max_size=nrows), label="rows")
    zero_rows = data.draw(st.sets(st.integers(0, 4), max_size=2), label="zero rows")
    zero_cols = data.draw(st.sets(st.integers(0, 5), max_size=2), label="zero cols")
    negated = data.draw(st.sets(st.integers(0, 4)), label="negated rows")
    rows = [
        [0 if i in zero_rows or j in zero_cols else -x if i in negated else x for j, x in enumerate(r)]
        for i, r in enumerate(rows)
    ]
    snapshot = [[(type(x), x) for x in r] for r in rows]
    for reduced in (False, True):
        pivot_cols, ech = _echelon(rows, FieldSpec.rationals(), reduced=reduced)
        assert (pivot_cols, ech) == _fraction_echelon(rows, reduced)
        assert all(type(x) is Fraction for r in ech for x in r)
        assert [[(type(x), x) for x in r] for r in rows] == snapshot


def test_matmul_and_identity():
    gf = FieldSpec.prime_field(7)
    a = Matrix([[1, 2], [3, 4], [5, 6]], gf)
    assert (Matrix.identity(3, gf) @ a).rows == a.rows
    b = Matrix([[1, 1, 0], [0, 1, 1]], gf)
    ab = b @ a
    assert ab.rows == [[4, 6], [1, 3]]
    with pytest.raises(ValueError):
        a @ a
