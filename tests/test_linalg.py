"""Property-based checks of the exact linear algebra layer."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ezdlab.linalg import (
    Field,
    Matrix,
    _is_prime,
    inverse,
    kernel_basis,
    rank,
    rref,
    solve_matrix,
)

from conftest import _int_kernel, _int_rref

GF101 = Field(101)
GF2 = Field(2)
QQ = Field(None)

FIELDS = [GF101, GF2, QQ]


def _matrices(field, max_dim=6):
    if field.p is not None:
        scalars = st.integers(min_value=0, max_value=field.p - 1)
    else:
        scalars = st.fractions(
            min_value=-5, max_value=5, max_denominator=4
        )
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(scalars, min_size=c, max_size=c), min_size=r, max_size=r
            ).map(lambda rows: Matrix.from_rows(field, rows))
        )
    )


def _check_kernel(m):
    k = kernel_basis(m)
    assert k.rows == m.cols
    assert rank(m) + k.cols == m.cols
    assert rank(k) == k.cols  # the columns are independent
    if k.cols:
        assert (m @ k).is_zero()
    assert not k.data.flags.writeable
    if m.field.p is not None:
        assert k.data.dtype == np.int64
        assert ((k.data >= 0) & (k.data < m.field.p)).all()
    else:
        assert all(type(v) is Fraction for v in k.data.reshape(-1))
    assert k.to_lists() == _int_kernel(m.to_lists(), m.cols, m.field.p)
    return k


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_rank_nullity(field, data):
    """Kernel bases are independent, canonical, read-only null spaces, equal
    entry for entry to the construction from Python reference elimination."""
    _check_kernel(data.draw(_matrices(field)))


def _wide_sparse(field, rows=12, cols=120, seed=3):
    """A sparse rows x cols matrix, shaped like a resolution differential."""
    rng = random.Random(seed)
    arr = [[0] * cols for _ in range(rows)]
    for _ in range(3 * rows):
        arr[rng.randrange(rows)][rng.randrange(cols)] = rng.randrange(1, 7)
    return Matrix.from_rows(field, arr)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_kernel_basis_edge_cases(field):
    no_rows = _check_kernel(Matrix.zeros(field, 0, 4))
    assert no_rows == Matrix.identity(field, 4)
    all_zero = _check_kernel(Matrix.zeros(field, 3, 5))
    assert all_zero == Matrix.identity(field, 5)
    full_rank = Matrix.from_rows(field, [[1, 0, 0], [2, 1, 0], [3, 4, 1], [5, 6, 1]])
    assert _check_kernel(full_rank).data.shape == (3, 0)
    wide = _wide_sparse(field)
    assert _check_kernel(wide).cols >= 120 - 12


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_rref_idempotent(field, data):
    m = data.draw(_matrices(field))
    r1 = rref(m)
    r2 = rref(r1.reduced)
    assert r1.reduced == r2.reduced
    assert r1.pivot_columns == r2.pivot_columns


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_solve_consistency(field, data):
    """a x = b is solvable exactly when b lies in the column space, and any
    returned solution actually solves the system."""
    a = data.draw(_matrices(field))
    coeffs = data.draw(
        st.lists(
            st.integers(0, 3) if field.p is not None else st.fractions(
                min_value=-2, max_value=2, max_denominator=2
            ),
            min_size=a.cols,
            max_size=a.cols,
        )
    )
    b = a @ Matrix.from_rows(field, [[c] for c in coeffs])
    x = solve_matrix(a, b)
    assert x is not None
    assert a @ x == b


def test_inverse_roundtrip():
    m = Matrix.from_rows(GF101, [[1, 2], [3, 5]])
    mi = inverse(m)
    assert mi is not None
    assert m @ mi == Matrix.identity(GF101, 2)
    singular = Matrix.from_rows(GF101, [[1, 2], [2, 4]])
    assert inverse(singular) is None


def test_rational_exactness():
    """No floating point: a classically ill-conditioned system solves exactly."""
    n = 6
    hilbert = Matrix.from_rows(
        QQ, [[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)]
    )
    assert rank(hilbert) == n
    hi = inverse(hilbert)
    assert hilbert @ hi == Matrix.identity(QQ, n)


def test_is_prime_matches_trial_division():
    def by_division(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    for n in range(-2, 5000):
        assert _is_prime(n) == by_division(n), n
    # strong pseudoprimes to small bases and Carmichael numbers
    for n in (561, 1105, 2047, 3215031751, 3825123056546413051):
        assert not _is_prime(n), n
    for n in (2147483647, 4294967291, 2305843009213693951):
        assert _is_prime(n), n


def test_field_rejects_primes_over_cap():
    assert Field(2147483647).p == 2**31 - 1
    for p in (4294967291, 2305843009213693951):
        with pytest.raises(ValueError, match="2\\^31"):
            Field(p)


# the largest primes the parser accepts: sums of two products of residues
# already pass 2^63
BIG_PRIMES = [2147483647, 2147483629, 2147483587]


def test_matmul_exact_at_largest_prime():
    p = 2**31 - 1
    rows = [[p - 1, p - 2, p - 3], [p - 4, p - 5, p - 6], [p - 7, p - 8, p - 9]]
    a = Matrix.from_rows(Field(p), rows)
    assert (a @ a).entry(0, 0) == 30
    assert (a @ a).to_lists() == _int_matmul(rows, rows, p)


def _int_matmul(a, b, p):
    return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] for row in a]


@pytest.mark.parametrize("p", BIG_PRIMES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_arithmetic_near_cap_matches_python_ints(p, data):
    """matmul, rref and inverse agree with Python-int arithmetic mod p for
    the primes just under 2^31."""
    field = Field(p)
    n = data.draw(st.integers(1, 6))
    # residues near p - 1 make the largest products
    scalars = st.one_of(st.integers(0, p - 1), st.integers(p - 16, p - 1))
    square = st.lists(st.lists(scalars, min_size=n, max_size=n), min_size=n, max_size=n)
    a, b = data.draw(square), data.draw(square)
    ma, mb = Matrix.from_rows(field, a), Matrix.from_rows(field, b)
    assert (ma @ mb).to_lists() == _int_matmul(a, b, p)
    red, pivots = _int_rref(a, p)
    res = rref(ma)
    assert res.reduced.to_lists() == red
    assert res.pivot_columns == pivots
    inv = inverse(ma)
    if len(pivots) < n:
        assert inv is None
    else:
        identity = [[int(i == j) for j in range(n)] for i in range(n)]
        assert _int_matmul(a, inv.to_lists(), p) == identity
