"""Minimal free resolutions and the Ext/Tor tables built on them."""

import gc
import weakref
from fractions import Fraction

import numpy as np
import pytest

from ezdlab import linalg, resolution
from ezdlab.linalg import Matrix
from ezdlab import module as module_mod
from ezdlab.module import (
    dual_k,
    free_module,
    regular_module,
    residue_field_module,
    scale_quotient,
    zero_module,
)
from ezdlab.resolution import (
    _block_matrix,
    INF,
    Exactly,
    NEG_INF,
    ResolutionBudgetExceeded,
    ext,
    injective_dimension,
    minimal_free_resolution,
    projective_dimension,
    syzygy_periodicity,
    tor,
)

from conftest import DENSE_ENTRY_POINTS, GF2, GF101, QQ, make_algebra, var


def test_differentials_compose_to_zero(square_zero):
    k = residue_field_module(square_zero)
    res = minimal_free_resolution(k, 5)
    for i in range(1, res.length):
        assert (res.differential_matrix(i) @ res.differential_matrix(i + 1)).is_zero()
    # the augmentation also kills the first syzygy
    assert (res.differential_matrix(0) @ res.differential_matrix(1)).is_zero()


def test_minimality(square_zero):
    """Every differential entry lies in the radical: constant coordinate 0."""
    k = residue_field_module(square_zero)
    res = minimal_free_resolution(k, 5)
    d = square_zero.dim
    for i in range(1, res.length + 1):
        entries = res.diff_alg(i)
        for t in range(res.betti[i - 1]):
            for j in range(res.betti[i]):
                assert entries.entry(t * d, j) == 0


def test_betti_ones_hypersurface(hyper2):
    k = residue_field_module(hyper2)
    res = minimal_free_resolution(k, 10)
    assert res.betti == [1] * 11
    assert not res.terminated


def test_periodicity_certificate(hyper2):
    k = residue_field_module(hyper2)
    cert = syzygy_periodicity(k, 4)
    assert cert is not None
    i, j, witness = cert
    assert (i, j) == (1, 2)
    assert witness.is_isomorphism()


def test_alternating_differentials(hyper4):
    """R/xR over k[x]/(x^4) resolves with 1x1 differentials alternating
    between x and x^3."""
    m = scale_quotient(regular_module(hyper4), var(hyper4, 0))[0]
    res = minimal_free_resolution(m, 6)
    assert res.betti == [1] * 7
    x_coords = [0, 1, 0, 0]
    x3_coords = [0, 0, 0, 1]
    for i in range(1, 7):
        coords = [res.diff_alg(i).entry(k, 0) for k in range(hyper4.dim)]
        expected = x_coords if i % 2 == 1 else x3_coords
        assert coords == expected


def test_free_module_resolves_instantly(ci):
    f = free_module(ci, 3)
    res = minimal_free_resolution(f, 10)
    assert res.terminated
    assert res.betti == [3]


def test_ext_routes_agree(square_zero):
    k = residue_field_module(square_zero)
    r = regular_module(square_zero)
    omega = dual_k(r)
    for m in (k, omega):
        for n in (k, r, omega):
            a = ext(m, n, 4, route="projective")
            b = ext(m, n, 4, route="injective")
            assert list(a.dims) == list(b.dims)


def test_tor_routes_agree(ci):
    k = residue_field_module(ci)
    omega = dual_k(regular_module(ci))
    for m in (k, omega):
        for n in (k, omega):
            a = tor(m, n, 4, route="left")
            b = tor(m, n, 4, route="right")
            assert list(a.dims) == list(b.dims)


def test_ext_k_regular_dim(square_zero):
    """Ext^1(k, R) over R = k[x,y]/(x,y)^2 has dimension 3: the first
    syzygy of k is k^2, and Hom(k, R) = socle(R) = k^... gives 2*2 - 1 = 3."""
    k = residue_field_module(square_zero)
    r = regular_module(square_zero)
    table = ext(k, r, 3)
    assert table.entry(0) == 2  # socle of R is 2-dimensional
    assert table.entry(1) == 3


def test_ext_self_regular_vanishes(square_zero):
    r = regular_module(square_zero)
    table = ext(r, r, 6)
    assert table.entry(0) == 3
    assert all(table.entry(i) == 0 for i in range(1, 7))
    assert table.certified_all_beyond


def test_pd_id_bounds(square_zero, hyper2):
    r = regular_module(square_zero)
    k2 = residue_field_module(hyper2)
    assert projective_dimension(r) == Exactly(0)
    assert projective_dimension(k2) == Exactly(INF)
    omega = dual_k(r)
    assert injective_dimension(omega) == Exactly(0)
    # the square-zero ring is not Gorenstein: omega is not free, A not injective
    assert projective_dimension(omega) == Exactly(INF)
    assert injective_dimension(r) == Exactly(INF)


def test_zero_module_dims(square_zero):
    from ezdlab.module import zero_module

    z = zero_module(square_zero)
    assert projective_dimension(z) == injective_dimension(z) == Exactly(NEG_INF)
    res = minimal_free_resolution(z, 3)
    assert res.terminated
    assert res.betti[0] == 0


def test_tor_k_k_growth(square_zero):
    """Betti numbers of k over k[x,y]/(x,y)^2 double: dim Tor_i(k,k) = 2^i."""
    k = residue_field_module(square_zero)
    table = tor(k, k, 6)
    assert [table.entry(i) for i in range(7)] == [1, 2, 4, 8, 16, 32, 64]


def _cubes_and_xyz():
    return make_algebra(
        GF101,
        ["x", "y", "z"],
        [{(3, 0, 0): 1}, {(0, 3, 0): 1}, {(0, 0, 3): 1}, {(1, 1, 1): 1}],
    )


def test_betti_numbers_of_k_deep():
    """k over k[x,y,z]/(x^3,y^3,z^3,xyz): large, almost empty kernels from
    step 3 on."""
    res = minimal_free_resolution(residue_field_module(_cubes_and_xyz()), 6)
    assert res.betti == [1, 3, 7, 16, 37, 86, 200]


def _fit_recurrence(b):
    """(a, b, c) with b_n = a b_{n-1} + b b_{n-2} + c b_{n-3} for n = 3..5,
    solved exactly by Cramer's rule."""
    rows = [[Fraction(b[n - 1]), Fraction(b[n - 2]), Fraction(b[n - 3])] for n in (3, 4, 5)]
    rhs = [Fraction(b[n]) for n in (3, 4, 5)]

    def det(m):
        return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))

    d = det(rows)
    return tuple(det([r[:j] + [v] + r[j + 1:] for r, v in zip(rows, rhs)]) / d
                 for j in range(3))


def _predicted(betti, coeffs, upto):
    """b_0 .. b_5 continued by the recurrence ``coeffs`` through b_upto."""
    out = list(betti[:6])
    while len(out) <= upto:
        out.append(sum(c * out[-1 - i] for i, c in enumerate(coeffs)))
    return out


def test_betti_numbers_of_k_follow_their_recurrence():
    """An oracle independent of every step past degree 5: the Poincare
    series of k over a monomial ring is rational (Backelin 1982), so the
    order-3 recurrence fitted exactly on b_3 .. b_5 must predict b_6 .. b_9."""
    res = minimal_free_resolution(residue_field_module(_cubes_and_xyz()), 9,
                                  max_total_dim=10 ** 6)
    coeffs = _fit_recurrence(res.betti)
    assert coeffs == (3, -2, 1)
    assert res.betti == _predicted(res.betti, coeffs, 9)
    assert res.betti == [1, 3, 7, 16, 37, 86, 200, 465, 1081, 2513]


def test_a_dropped_generator_breaks_the_recurrence(monkeypatch):
    """The recurrence oracle sees a planted fault: one generator of F_7
    dropped."""
    picks = resolution._pick_independent
    calls = []

    def drop_at_step_7(spanning, cols, p):
        out = picks(spanning, cols, p)
        calls.append(None)  # call 1 is step 0, call n + 1 is step n
        return out[:-1] if len(calls) == 8 else out

    monkeypatch.setattr(resolution, "_pick_independent", drop_at_step_7)
    res = minimal_free_resolution(residue_field_module(_cubes_and_xyz()), 9,
                                  max_total_dim=10 ** 6)
    assert len(calls) == 10 and res.betti[:7] == [1, 3, 7, 16, 37, 86, 200]
    assert res.betti != _predicted(res.betti, _fit_recurrence(res.betti), 9)


def test_a_deeper_resolution_changes_no_shallow_answer():
    """The budget counts only the degrees a call asks for, so the state an
    earlier, deeper call left on k changes neither Tor(k, A) nor Ext(k, A)
    to degree 2, nor a degree-3 resolution within 600 dims (degrees 0-3
    take 513 dims; degrees 0-6 take 6650)."""
    algebra = _cubes_and_xyz()
    k, a = residue_field_module(algebra), regular_module(algebra)
    before = tor(k, a, 2), ext(k, a, 2)
    minimal_free_resolution(k, 6)
    assert (tor(k, a, 2), ext(k, a, 2)) == before
    assert minimal_free_resolution(k, 3, max_total_dim=600).betti == [1, 3, 7, 16]


def test_resolution_steps_do_no_dense_elimination(monkeypatch):
    """Every step runs on sparse columns: with every dense-Matrix entry
    point of the elimination refused, wherever it is bound, k still
    resolves to bound 6."""
    k = residue_field_module(_cubes_and_xyz())

    def refused(*args):
        raise AssertionError("dense elimination in a resolution step")

    for mod in (linalg, module_mod, resolution):
        for name in DENSE_ENTRY_POINTS:
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, refused)
    assert minimal_free_resolution(k, 6).betti == [1, 3, 7, 16, 37, 86, 200]


@pytest.mark.parametrize("field", [GF2, GF101, QQ], ids=str)
def test_betti_numbers_closed_forms(field):
    """b_i = i + 1 for k over k[x,y]/(x^2,y^2) (a complete intersection of
    codimension 2) and b_i = 3^i for k over k[x,y,z]/(x,y,z)^2 (a Koszul
    algebra with Poincare series 1/(1 - 3t))."""
    ci2 = make_algebra(field, ["x", "y"], [{(2, 0): 1}, {(0, 2): 1}])
    res = minimal_free_resolution(residue_field_module(ci2), 12)
    assert res.betti == [i + 1 for i in range(13)]
    square = make_algebra(field, ["x", "y", "z"], [
        {(2, 0, 0): 1}, {(1, 1, 0): 1}, {(1, 0, 1): 1},
        {(0, 2, 0): 1}, {(0, 1, 1): 1}, {(0, 0, 2): 1},
    ])
    res = minimal_free_resolution(residue_field_module(square), 6)
    assert res.betti == [3**i for i in range(7)]
    assert sum(res.betti) * square.dim <= resolution.DEFAULT_RESOLUTION_BUDGET


def test_budget_message_names_module_step_betti_and_budget(hyper4):
    """The budget stop says which module, at which step, how far it got."""
    k = residue_field_module(hyper4)  # betti 1, 1, 1, ...: 4 dims per step
    with pytest.raises(ResolutionBudgetExceeded) as exc:
        minimal_free_resolution(k, 10, max_total_dim=10)
    msg = str(exc.value)
    assert "resolution of k " in msg
    assert "at step 2" in msg
    assert "budget of 10" in msg
    assert "betti so far [1, 1]" in msg
    # the stop leaves the state intact: a larger budget resumes from it
    assert minimal_free_resolution(k, 3, max_total_dim=100).betti == [1, 1, 1, 1]


def _block_reference(entries, stack, field, transpose):
    """Block by block in Python scalars: block (t, j), or (j, t) when
    transposed, is sum_k e_tjk * stack[k], e_tjk at row t * d + k, column j
    of ``entries``."""
    d, n = len(stack), stack[0].rows
    r, c = entries.rows // d, entries.cols
    entries = entries.to_lists()
    stack = [s.to_lists() for s in stack]
    rows, cols = (c, r) if transpose else (r, c)
    out = [[field.zero] * (cols * n) for _ in range(rows * n)]
    for t in range(r):
        for j in range(c):
            bi, bj = (j, t) if transpose else (t, j)
            for a in range(n):
                for b in range(n):
                    terms = (
                        field.canon(entries[t * d + k][j]) * field.canon(stack[k][a][b])
                        for k in range(d)
                    )
                    out[bi * n + a][bj * n + b] = field.canon(sum(terms, field.zero))
    return out


def _check_blocks(m, entries, stack, field, transpose=False):
    assert m.to_lists() == _block_reference(entries, stack, field, transpose)
    assert all(all(v != 0 for v in row.values()) for row in m.nz)
    assert not m.data.flags.writeable
    if field.p is not None:
        assert m.data.dtype == np.int64
        assert ((m.data >= 0) & (m.data < field.p)).all()
    else:
        assert all(type(v) is Fraction for v in m.data.reshape(-1))


@pytest.mark.parametrize("field", [GF2, GF101, QQ], ids=str)
def test_block_builders_match_loop_reference(field):
    """The k-linear differentials and the Hom/tensor block maps equal a
    per-block loop, on a resolution whose differentials have zero blocks."""
    alg = make_algebra(field, ["x", "y"], [{(2, 0): 1}, {(0, 2): 1}])
    res = minimal_free_resolution(residue_field_module(alg), 3)
    assert res.betti == [1, 2, 3, 4]
    mult = alg.mult_stack
    others = (dual_k(regular_module(alg)), residue_field_module(alg))
    zero_blocks = 0
    d = alg.dim
    for i in range(1, res.length + 1):
        entries = res.diff_alg(i)
        assert (entries.rows, entries.cols) == (res.betti[i - 1] * d, res.betti[i])
        zero_blocks += sum(
            all(entries.entry(t * d + k, j) == 0 for k in range(d))
            for t in range(res.betti[i - 1]) for j in range(res.betti[i]))
        _check_blocks(res.differential_matrix(i), entries, mult, field)
        for other in others:
            stack = [other.monomial_action(m) for m in alg.staircase]
            for transpose in (False, True):
                got = _block_matrix(entries, other.action_stack(), field, transpose)
                _check_blocks(got, entries, stack, field, transpose)
    assert zero_blocks > 0


@pytest.mark.parametrize("field", [GF2, GF101, QQ], ids=str)
@pytest.mark.parametrize("shape", [(2, 3), (2, 0), (0, 2)], ids=str)
def test_block_matrix_edge_shapes(field, shape):
    """An all-zero entry block, an entry that uses one coordinate, and a
    differential with no columns (b = 0) or no rows."""
    alg = make_algebra(field, ["x"], [{(3,): 1}])
    mult = alg.mult_stack
    rng = np.random.default_rng(5)
    raw = rng.integers(0, 2, size=shape + (alg.dim,))
    if shape == (2, 3):
        raw[0, 1] = 0
        raw[1, 2] = [0, 0, 1]
    r, c = shape
    n = alg.dim
    # algebra-entry form: coordinate k of entry (t, j) at row t * n + k, column j
    entries = Matrix(field, c, [
        {j: field.canon(raw[t, j, k]) for j in range(c) if raw[t, j, k]}
        for t in range(r) for k in range(n)])
    for transpose in (False, True):
        got = _block_matrix(entries, mult, field, transpose)
        assert got.data.shape == ((c * n, r * n) if transpose else (r * n, c * n))
        _check_blocks(got, entries, mult, field, transpose)


@pytest.mark.parametrize("field", [GF2, GF101, QQ], ids=str)
def test_block_matrix_zero_dim_target(field):
    """Nonzero entry blocks against a 0-dimensional module give an empty
    block matrix, not a reshape error."""
    alg = make_algebra(field, ["x"], [{(2,): 1}])
    res = minimal_free_resolution(residue_field_module(alg), 2)
    stack = zero_module(alg).action_stack()
    assert [(s.rows, s.cols) for s in stack] == [(0, 0)] * alg.dim
    entries = res.diff_alg(1)
    assert not entries.is_zero()
    for transpose in (False, True):
        got = _block_matrix(entries, stack, field, transpose)
        assert got.data.shape == (0, 0)
        assert not got.data.flags.writeable


@pytest.mark.parametrize("field", [GF2, GF101, QQ], ids=str)
def test_ext_tor_against_zero_module(field):
    """Ext and Tor of k against the zero module vanish, whichever side is
    resolved.  The zero module is free, so its route goes first and
    certifies every degree; k's route, run alone, reads the same zeros."""
    alg = make_algebra(field, ["x", "y"], [{(2, 0): 1}, {(0, 2): 1}])
    k, z = residue_field_module(alg), zero_module(alg)
    for table in (ext(k, z, 3), ext(z, k, 3), tor(k, z, 3), tor(z, k, 3),
                  ext(k, z, 3, route="projective"), tor(k, z, 3, route="left")):
        assert table.dims == (0, 0, 0, 0)
    assert ext(k, z, 3).route == "injective"
    assert tor(k, z, 3).route == "right"
    assert ext(k, z, 3).certified_all_beyond and tor(k, z, 3).certified_all_beyond


@pytest.fixture
def kernel_calls(monkeypatch):
    """The shapes of the matrices the resolution takes kernels of."""
    calls = []
    inner = resolution._sparse_kernel

    def counted(rows, ncols, p):
        rows = list(rows)
        calls.append((len(rows), ncols))
        return inner(rows, ncols, p)

    monkeypatch.setattr(resolution, "_sparse_kernel", counted)
    return calls


def test_kernel_built_only_when_the_next_step_needs_it(ci, kernel_calls):
    """A resolution to bound b reduces d_0 .. d_{b-1}, never d_b; resolving
    the same module again, at lower or higher bounds, reuses its state."""
    calls = kernel_calls
    k = residue_field_module(ci)
    res = minimal_free_resolution(k, 3)
    assert len(calls) == 3
    state = k._resolution
    assert res._state is state
    for bound in (1, 3, 5):
        assert minimal_free_resolution(k, bound)._state is state
    assert len(calls) == 5


def test_state_is_freed_with_its_module(ci):
    """The state holds no reference back to its module, so dropping the
    module frees both by reference counting alone."""
    k = residue_field_module(ci)
    minimal_free_resolution(k, 2)
    state = weakref.ref(k._resolution)
    gc.disable()
    try:
        del k
        assert state() is None
    finally:
        gc.enable()


def test_budget_stop_keeps_its_kernel(hyper4, kernel_calls):
    """The kernel a budget stop already built is reused by the retry."""
    calls = kernel_calls
    k = residue_field_module(hyper4)
    with pytest.raises(ResolutionBudgetExceeded):
        minimal_free_resolution(k, 10, max_total_dim=10)
    assert len(calls) == 2
    assert minimal_free_resolution(k, 2).betti == [1, 1, 1]
    assert len(calls) == 2


@pytest.fixture
def states_made(monkeypatch):
    """The labels of the modules a resolution state is made for, in order."""
    made = []
    inner = resolution._ResolutionState.__init__

    def counted(self, module):
        made.append(module.label)
        inner(self, module)

    monkeypatch.setattr(resolution._ResolutionState, "__init__", counted)
    return made


def test_ext_builds_the_dual_once(ci, states_made, monkeypatch):
    """Neither k nor dual_k(A/xA) is free: when the injective route stops on
    its budget, the retry at the larger budget resumes the dual's
    resolution instead of resolving a new dual.  A free first argument
    makes no dual, and a free dual is resolved alone."""
    made, duals = states_made, []
    inner_dual = resolution.dual_k

    def counted_dual(module, *args, **kwargs):
        duals.append(module.label)
        return inner_dual(module, *args, **kwargs)

    monkeypatch.setattr(resolution, "dual_k", counted_dual)
    monkeypatch.setattr(resolution, "ROUTE_BUDGETS", (2, 100))
    k, a = residue_field_module(ci), regular_module(ci)
    ax = scale_quotient(a, var(ci, 0))[0]
    # k's resolution to degree 11 needs 312 dims over this dim-4 algebra,
    # dual_k(A/xA) ~ A/yA's only 48
    table = ext(k, ax, 10)
    assert table.route == "injective"
    assert made == ["k", "dual(A/x)"]
    assert duals == ["A/x"]
    made.clear()
    duals.clear()
    monkeypatch.setattr(resolution, "ROUTE_BUDGETS", (100, 1000))
    assert ext(a, k, 3).route == "projective"
    assert made == ["A"] and duals == []
    made.clear()
    table = ext(k, a, 3)
    assert table.route == "injective" and table.certified_all_beyond
    assert made == ["dual(A)"] and duals == ["A"]


def test_tor_escalates_both_routes_per_budget(ci, states_made, monkeypatch):
    """Neither k nor A/xA is free: Tor tries left and right at the smaller
    budget, then left and right at the larger one, and makes each
    argument's resolution state at most once per call; a given route runs
    only at the larger budget."""
    made, attempts = states_made, []
    inner_resolve = resolution.minimal_free_resolution

    def logged(module, bound, max_total_dim):
        attempts.append((module.label, max_total_dim))
        return inner_resolve(module, bound, max_total_dim)

    monkeypatch.setattr(resolution, "minimal_free_resolution", logged)
    monkeypatch.setattr(resolution, "ROUTE_BUDGETS", (2, 100))
    k = residue_field_module(ci)
    ax = scale_quotient(regular_module(ci), var(ci, 0))[0]
    # k's resolution to degree 11 needs 312 dims over this dim-4 algebra,
    # A/xA's (Betti numbers 1, 1, 1, ...) only 48
    table = tor(k, ax, 10)
    assert table.route == "right"
    assert attempts == [("k", 2), ("A/x", 2), ("k", 100), ("A/x", 100)]
    assert made == ["k", "A/x"]
    attempts.clear()
    made.clear()
    assert tor(residue_field_module(ci), regular_module(ci), 3, route="left").route == "left"
    assert attempts == [("k", 100)]
    assert made == ["k"]


def test_ext_tor_reject_modules_over_different_algebras(ci, hyper2):
    for fn, name in ((ext, "Ext"), (tor, "Tor")):
        with pytest.raises(ValueError, match=name):
            fn(residue_field_module(ci), residue_field_module(hyper2), 2)
