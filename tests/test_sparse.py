"""The one sparse elimination engine against Python reference elimination
(``conftest._int_rref``, which shares no code with it): the sparse kernel
and ``kernel_basis``, ``rref``, ``solve_matrix`` and ``image_basis``, the
generator pick, insertion rank and ``rank``, and ``_complex_dims`` against
``_block_matrix`` + reference rank, over GF(2), GF(101), GF(2^31 - 1) and
QQ."""

import random
from fractions import Fraction

import pytest

from ezdlab.linalg import (
    Field,
    Matrix,
    _dense,
    _echelon_insert,
    _sparse_columns,
    _sparse_kernel,
    image_basis,
    kernel_basis,
    rank,
    rref,
    solve_matrix,
)
from ezdlab.module import dual_k, regular_module, residue_field_module, zero_module
from ezdlab.resolution import (
    _block_matrix,
    _complex_dims,
    _pick_independent,
    minimal_free_resolution,
)

from conftest import GF2, GF101, QQ, _int_kernel, _int_rref, make_algebra

FIELDS = [GF2, GF101, Field(2**31 - 1), QQ]
DENSITIES = [0.001, 0.01, 0.1, 0.5]


def _random_sparse(field, rng, rows, cols, density):
    """A random matrix with a zero row, a zero column, a row that is a
    combination of two others and a column that is one of two others."""
    def entry():
        if rng.random() >= density:
            return 0
        if field.p is not None:
            return rng.randint(1, field.p - 1)
        return Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 4))

    data = [[entry() for _ in range(cols)] for _ in range(rows)]
    if rows >= 2:
        data.append([a - 3 * b for a, b in zip(data[0], data[1])])
        data.insert(rng.randrange(len(data)), [0] * cols)
    if cols >= 2:
        for row in data:
            row.append(2 * row[0] + row[1])
            row.insert(rng.randrange(len(row)), 0)
    return Matrix.from_rows(field, data) if data else Matrix.zeros(field, 0, cols)


def _rows(m):
    return [{j: x for j, x in enumerate(row) if x} for row in m.data.tolist()]


def _shapes(field):
    small = [(0, 0), (0, 4), (4, 0), (1, 1), (3, 2)]
    if field.p is None:
        return small + [(12, 18), (18, 12)]
    return small + [(20, 30), (30, 20), (60, 90)]


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("density", DENSITIES)
def test_sparse_kernel_matches_kernel_basis(field, density):
    rng = random.Random(int(density * 1000))
    for rows, cols in _shapes(field):
        m = _random_sparse(field, rng, rows, cols, density)
        got = _sparse_kernel(_rows(m), m.cols, field.p)
        assert all(all(x != 0 for x in col.values()) for col in got.values())
        want = _int_kernel(m.to_lists(), m.cols, field.p)
        assert _dense(field, m.cols, got.values()).to_lists() == want, (rows, cols)
        assert kernel_basis(m).to_lists() == want, (rows, cols)
        pivots = _int_rref(m.to_lists(), field.p)[1]
        assert list(got) == [j for j in range(m.cols) if j not in pivots]


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("density", DENSITIES)
def test_insertion_rank_matches_rank(field, density):
    rng = random.Random(int(density * 1000) + 1)
    for rows, cols in _shapes(field):
        m = _random_sparse(field, rng, rows, cols, density)
        by_rows, by_cols = {}, {}
        row_rank = sum(_echelon_insert(by_rows, row, field.p) for row in _rows(m))
        col_rank = sum(_echelon_insert(by_cols, col, field.p)
                       for col in _sparse_columns(m.data))
        want = len(_int_rref(m.to_lists(), field.p)[1])
        assert row_rank == col_rank == rank(m) == want, (rows, cols)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("density", DENSITIES)
def test_generator_picks_match_rref_pivots(field, density):
    """The columns of ``cols`` that insertion accepts after ``spanning`` are
    the pivot columns of one reduction of [spanning | cols] in cols."""
    rng = random.Random(int(density * 1000) + 2)
    n = 30 if field.p is not None else 12
    for n, s, c in [(0, 0, 3), (4, 0, 0), (4, 3, 0), (5, 2, 6), (n, n, n), (n, 2 * n, n)]:
        spanning = _random_sparse(field, rng, n, s, density)
        cols = _random_sparse(field, rng, n, c, density)
        s, c = spanning.cols, cols.cols  # the helper adds columns
        sparse_cols = _sparse_columns(cols.data)
        picks = {id(v) for v in _pick_independent(
            _sparse_columns(spanning.data), sparse_cols, field.p)}
        got = [j for j, v in enumerate(sparse_cols) if id(v) in picks]
        joined = Matrix.hstack([spanning, cols]).to_lists()
        want = [j - s for j in _int_rref(joined, field.p)[1] if j >= s]
        assert got == want, (n, s, c)
        assert _sparse_columns(cols.data) == sparse_cols  # cols are not consumed


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("density", DENSITIES)
def test_rref_solve_and_image_match_reference(field, density):
    """The dense-Matrix entry points give the reference reduced form and
    pivots, solve a system exactly when its right-hand side lies in the
    column space, and pick the reference pivot columns as image basis."""
    rng = random.Random(int(density * 1000) + 3)
    for rows, cols in _shapes(field):
        m = _random_sparse(field, rng, rows, cols, density)
        red, pivots = _int_rref(m.to_lists(), field.p)
        res = rref(m)
        assert (res.reduced.to_lists(), res.pivot_columns) == (red, pivots), (rows, cols)
        assert image_basis(m) == Matrix(field, m.data[:, list(pivots)]), (rows, cols)
        # solve_matrix's solution is the b block of the reference reduction
        # of [m | b] on the pivot rows, zero on the free rows
        x = Matrix.from_rows(field, [[rng.randint(0, 3) for _ in range(2)]
                                     for _ in range(m.cols)])
        b = m @ x if m.cols else Matrix.zeros(field, m.rows, 2)
        red_b, _ = _int_rref(Matrix.hstack([m, b]).to_lists(), field.p)
        want = [[field.zero] * 2 for _ in range(m.cols)]
        for r, c in enumerate(pivots):
            want[c] = red_b[r][m.cols:]
        assert solve_matrix(m, b).to_lists() == want, (rows, cols)
        # a unit vector outside the column space has no solution
        units = Matrix.hstack([m, Matrix.identity(field, m.rows)]).to_lists()
        outside = [c - m.cols for c in _int_rref(units, field.p)[1] if c >= m.cols]
        if outside:
            e = Matrix.column(field, [int(i == outside[0]) for i in range(m.rows)])
            assert solve_matrix(m, e) is None, (rows, cols)


def _complex_dims_reference(res, other, bound, transpose):
    stack = other.action_stack()
    field = other.algebra.field
    top = min(res.length, bound + 1)
    ranks = [0] + [
        len(_int_rref(_block_matrix(res.diff_alg(i), stack, field, transpose).to_lists(),
                      field.p)[1])
        for i in range(1, top + 1)
    ] + [0]
    return tuple(
        res.betti[i] * other.dim - ranks[i] - ranks[i + 1] if i <= res.length else 0
        for i in range(bound + 1)
    )


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_complex_dims_match_block_matrix_rank(field):
    """Both complexes (Hom(F_., N), whose block (t, j) lands at (j, t) but
    is not transposed itself, and F_. (x) N), for modules whose blocks are
    not symmetric, for the zero module resolved and as the target."""
    alg = make_algebra(field, ["x", "y"], [{(2, 0): 1}, {(1, 1): 1}, {(0, 3): 1}])
    k, z = residue_field_module(alg), zero_module(alg)
    r = regular_module(alg)
    omega = dual_k(r)
    for m in (k, omega, z):
        res = minimal_free_resolution(m, 4)
        for other in (k, r, omega, z):
            for transpose in (False, True):
                got = _complex_dims(res, other, 3, transpose)
                assert got == _complex_dims_reference(res, other, 3, transpose), (
                    m.label, other.label, transpose)
    assert _complex_dims(minimal_free_resolution(z, 4), k, 3, True) == (0, 0, 0, 0)
