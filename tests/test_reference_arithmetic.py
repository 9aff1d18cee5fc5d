"""Sparse ``Matrix`` arithmetic, element actions and the block contraction
behind ``differential_matrix`` against plain Python-int / Fraction loops
written here, which share no code with ``ezdlab.linalg``.  Entries over
GF(2^31 - 1) are drawn near p - 1, where a sum of products of residues
overflows 64 bits."""

from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from ezdlab.linalg import Field, Matrix
from ezdlab.module import dual_k, regular_module
from ezdlab.resolution import _block_matrix

from conftest import GF2, GF101, QQ, make_algebra

FIELDS = [GF2, GF101, Field(2**31 - 1), QQ]
SETTINGS = settings(max_examples=40, deadline=None)


def _entries(field):
    if field.p is None:
        return st.fractions(min_value=-4, max_value=4, max_denominator=5)
    p = field.p
    return st.one_of(st.just(0), st.integers(max(p - 3, 0), p - 1), st.integers(0, p - 1))


def _dense(field, rows, cols):
    return st.lists(st.lists(_entries(field), min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


def _norm(field, v):
    return v % field.p if field.p is not None else Fraction(v)


def _ref_mul(field, a, b, inner, cols):
    return [[_norm(field, sum(row[k] * b[k][j] for k in range(inner))) for j in range(cols)]
            for row in a]


def _ref_sum(field, terms, rows, cols):
    """sum c * m over (c, m) in ``terms``, entry by entry."""
    out = [[0] * cols for _ in range(rows)]
    for c, m in terms:
        for i in range(rows):
            for j in range(cols):
                out[i][j] += c * m[i][j]
    return [[_norm(field, v) for v in row] for row in out]


def _check(m, want, field):
    """``m`` holds exactly ``want``, canonically: no stored zero, every
    GF(p) entry an int in [0, p), every rational a Fraction."""
    assert m.to_lists() == want
    for row in m.nz:
        for v in row.values():
            assert v != 0
            if field.p is not None:
                assert type(v) is int and 0 <= v < field.p
            else:
                assert type(v) is Fraction


@pytest.mark.parametrize("field", FIELDS, ids=str)
@SETTINGS
@given(data=st.data(), n=st.integers(1, 5), k=st.integers(1, 5), m=st.integers(1, 5))
def test_matrix_operations_match_python_loops(field, data, n, k, m):
    a = data.draw(_dense(field, n, k))
    b = data.draw(_dense(field, k, m))
    c = data.draw(_dense(field, n, k))
    ma, mb, mc = (Matrix.from_rows(field, x) for x in (a, b, c))
    _check(ma, [[_norm(field, v) for v in row] for row in a], field)
    _check(ma @ mb, _ref_mul(field, a, b, k, m), field)
    _check(ma + mc, _ref_sum(field, [(1, a), (1, c)], n, k), field)
    _check(ma - mc, _ref_sum(field, [(1, a), (-1, c)], n, k), field)
    _check(ma - ma, [[field.zero] * k for _ in range(n)], field)
    _check(ma.T, [[_norm(field, a[i][j]) for i in range(n)] for j in range(k)], field)
    _check(Matrix.hstack([ma, mc]), [[_norm(field, v) for v in ra + rc]
                                     for ra, rc in zip(a, c)], field)
    _check(Matrix.vstack([ma, mc]), [[_norm(field, v) for v in row] for row in a + c], field)
    zero = field.zero
    want = [[_norm(field, v) for v in row] + [zero] * m for row in a]
    want += [[zero] * k + [_norm(field, v) for v in row] for row in b]
    _check(Matrix.block_diag([ma, mb]), want, field)


@lru_cache(maxsize=None)
def _algebra(field):
    """k[x,y]/(x^2 - xy, y^3): a row of X_x has two nonzeros."""
    return make_algebra(field, ["x", "y"], [{(2, 0): 1, (1, 1): -1}, {(0, 3): 1}])


def _ref_monomial_actions(field, module):
    """The action of each staircase monomial x^a y^b, as the product of
    a copies of X_x and b copies of X_y, in Python loops."""
    n = module.dim
    xs = [a.to_lists() for a in module.actions]
    out = []
    for mono in module.algebra.staircase:
        mat = [[_norm(field, int(i == j)) for j in range(n)] for i in range(n)]
        for v, e in enumerate(mono):
            for _ in range(e):
                mat = _ref_mul(field, xs[v], mat, n, n)
        out.append(mat)
    return out


@pytest.mark.parametrize("field", FIELDS, ids=str)
@SETTINGS
@given(data=st.data())
def test_element_actions_match_python_loops(field, data):
    alg = _algebra(field)
    coeffs = data.draw(st.lists(_entries(field), min_size=alg.dim, max_size=alg.dim))
    r = alg.element(coeffs)
    reg = regular_module(alg)
    for module in (reg, dual_k(reg)):
        monos = _ref_monomial_actions(field, module)
        want = _ref_sum(field, zip(coeffs, monos), module.dim, module.dim)
        _check(module.element_action(r), want, field)
    want = _ref_sum(field, zip(coeffs, _ref_monomial_actions(field, reg)), alg.dim, alg.dim)
    _check(alg.element_action(r), want, field)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@SETTINGS
@given(data=st.data(), r=st.integers(0, 3), c=st.integers(0, 3), transpose=st.booleans())
def test_block_contraction_matches_python_loops(field, data, r, c, transpose):
    """The block matrix whose block (t, j), or (j, t) when transposed, is
    sum_k e_tjk M_k: d_i against the monomial actions of A (the k-linear
    differential) and of dual_k(A) (a Hom or tensor complex map)."""
    alg = _algebra(field)
    d = alg.dim
    e = data.draw(st.lists(st.lists(st.lists(_entries(field), min_size=d, max_size=d),
                                    min_size=c, max_size=c), min_size=r, max_size=r))
    # algebra-entry form: coordinate k of entry (t, j) at row t * d + k, column j
    entries = Matrix(field, c, [
        {j: _norm(field, e[t][j][k]) for j in range(c) if _norm(field, e[t][j][k])}
        for t in range(r) for k in range(d)])
    reg = regular_module(alg)
    for module in (reg, dual_k(reg)):
        monos = _ref_monomial_actions(field, module)
        n = module.dim
        rows, cols = (c, r) if transpose else (r, c)
        want = [[field.zero] * (cols * n) for _ in range(rows * n)]
        for t in range(r):
            for j in range(c):
                block = _ref_sum(field, zip(e[t][j], monos), n, n)
                bi, bj = (j, t) if transpose else (t, j)
                for a in range(n):
                    want[bi * n + a][bj * n:(bj + 1) * n] = block[a]
        got = _block_matrix(entries, module.action_stack(), field, transpose)
        assert (got.rows, got.cols) == (rows * n, cols * n)
        _check(got, want, field)
