"""The one-reduction subspace routines against the multi-step routes they
replaced: quotient spaces (image basis, then rref, then a solve), minimal
generator picks (two rrefs) and restricted actions (one solve per
variable), entry for entry over GF(2), GF(101) and QQ."""

import random

import numpy as np
import pytest

import ezdlab.linalg as linalg
import ezdlab.module as module_mod
import ezdlab.resolution as resolution
from ezdlab.linalg import (
    Matrix,
    _dense,
    _sparse_columns,
    image_basis,
    kernel_basis,
    rref,
    solve_matrix,
)
from ezdlab.module import (
    _quotient_space,
    _restricted_actions,
    annihilator_submodule,
    dual_k,
    regular_module,
    residue_field_module,
    scale_quotient,
    tensor_module,
    zero_module,
)
from ezdlab.resolution import (
    _pick_independent,
    minimal_free_resolution,
    syzygy_module,
)

from conftest import DENSE_ENTRY_POINTS, GF2, GF101, QQ, make_algebra, var

FIELDS = [GF2, GF101, QQ]


def _random(field, rng, rows, cols):
    top = 1 if field.p == 2 else 4
    return Matrix.from_rows(
        field, [[rng.randint(-top, top) for _ in range(cols)] for _ in range(rows)]
    )


def _quotient_reference(field, n, sub, action_mats):
    w = image_basis(sub)
    res = rref(Matrix.hstack([w, Matrix.identity(field, n)]))
    comp = [c - w.cols for c in res.pivot_columns if c >= w.cols]
    section = Matrix.from_rows(
        field, [[int(j == i) for i in comp] for j in range(n)]
    ) if n else Matrix.zeros(field, 0, 0)
    sol = solve_matrix(Matrix.hstack([w, section]), Matrix.identity(field, n))
    proj = Matrix(field, sol.data[w.cols :, :])
    return proj, section, [proj @ a @ section for a in action_mats]


def _quotient(field, subs, acts):
    """``_quotient_space`` on the sparse rows of the joined ``subs`` blocks."""
    joined = Matrix.hstack(subs)
    return _quotient_space(field, _sparse_columns(joined.data.T), joined.cols,
                           lambda proj: [(proj @ a).data for a in acts])


def _kron(field, a, b):
    """The Kronecker product of two matrices, by numpy."""
    return Matrix(field, np.kron(a.data, b.data))


def _min_gens_reference(kernel, rad_images):
    rad = image_basis(Matrix.hstack(rad_images))
    res = rref(Matrix.hstack([rad, kernel]))
    picks = [c - rad.cols for c in res.pivot_columns if c >= rad.cols]
    return Matrix(kernel.field, kernel.data[:, picks])


def _restricted_reference(basis, images):
    return [solve_matrix(basis, img) for img in images]


def _syzygy_reference(res, i):
    """The i-th syzygy's basis, as ``kernel_basis`` of d_{i-1} gives it, and
    its images under the variables: dense products with the block-diagonal
    action on F_{i-1}, one copy of each variable's matrix per generator."""
    alg = res.module.algebra
    basis = kernel_basis(res.differential_matrix(i - 1))
    eye = Matrix.identity(alg.field, res.betti[i - 1])
    return basis, [_kron(alg.field, eye, va) @ basis for va in alg.actions]


def _subs(field, rng, n):
    """Named column blocks: dependent columns, no columns, everything."""
    base = _random(field, rng, n, max(n - 2, 0))
    dependent = base @ _random(field, rng, base.cols, n + 1)
    return {
        "dependent": [dependent, Matrix.hstack([base, base])],
        "zero-column": [Matrix.zeros(field, n, 0)],
        "spans-all": [_random(field, rng, n, 2), Matrix.identity(field, n)],
    }


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("n", [0, 1, 5])
def test_quotient_space_matches_reference(field, n):
    rng = random.Random(n)
    acts = [_random(field, rng, n, n) for _ in range(2)]
    for name, subs in _subs(field, rng, n).items():
        proj, section, quot = _quotient(field, subs, acts)
        ref = _quotient_reference(field, n, Matrix.hstack(subs), acts)
        assert (proj, section, quot) == ref, name
        assert section.rows == n and proj.rows == section.cols
        for s in subs:
            assert (proj @ s).is_zero(), name
        assert proj @ section == Matrix.identity(field, section.cols), name
        if name == "spans-all":
            assert proj.rows == 0


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_min_gens_match_two_rrefs(field):
    rng = random.Random(1)
    for n in (0, 1, 6):
        kernel = _random(field, rng, n, 4)
        for name, rads in _subs(field, rng, n).items():
            spanning = [v for r in rads for v in _sparse_columns(r.data)]
            picks = _pick_independent(spanning, _sparse_columns(kernel.data), field.p)
            got = _dense(field, n, picks)
            assert got == _min_gens_reference(kernel, rads), (n, name)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_resolution_generators_match_two_rrefs(field):
    """Every step's generators are the two-rref picks from its kernel."""
    alg = make_algebra(field, ["x", "y"], [{(1, 1): 1}, {(2, 0): 1, (0, 2): -1}])
    for m in (regular_module(alg), dual_k(regular_module(alg)),
              scale_quotient(regular_module(alg), var(alg, 0))[0]):
        res = minimal_free_resolution(m, 3)
        st = res._state
        assert st.gens[0] == _min_gens_reference(
            Matrix.identity(field, m.dim), list(m.actions))
        for i in range(1, len(st.gens)):
            kernel, rads = _syzygy_reference(res, i)
            assert st.gens[i] == _min_gens_reference(kernel, rads)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_restricted_actions_match_per_variable_solve(field):
    alg = make_algebra(field, ["x", "y"], [{(1, 1): 1}, {(2, 0): 1, (0, 2): -1}])
    r = regular_module(alg)
    for x in (var(alg, 0), var(alg, 1)):
        sub, incl = annihilator_submodule(r, x)
        images = [a @ incl.matrix for a in r.actions]
        assert list(sub.actions) == _restricted_reference(incl.matrix, images)
    cyclic = scale_quotient(r, var(alg, 0))[0]
    res = minimal_free_resolution(cyclic, 2)
    for i in (1, 2):
        basis, images = _syzygy_reference(res, i)
        syz = syzygy_module(cyclic, i)
        assert list(syz.actions) == _restricted_reference(basis, images)
    # a 0-dimensional subspace
    z = Matrix.zeros(field, r.dim, 0)
    assert _restricted_actions(z, [a @ z for a in r.actions]) == [
        Matrix.zeros(field, 0, 0)
    ] * alg.nvars
    with pytest.raises(ValueError, match="not invariant"):
        e1 = Matrix.from_rows(field, [[int(i == 0)] for i in range(r.dim)])
        _restricted_actions(e1, [a @ e1 for a in r.actions])


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_module_quotients_match_reference(field):
    """M/xM and C (x) M, including the zero module, against the reference."""
    alg = make_algebra(field, ["x", "y"], [{(1, 1): 1}, {(2, 0): 1, (0, 2): -1}])
    r = regular_module(alg)
    omega = dual_k(r)
    for m in (r, omega, zero_module(alg)):
        x = var(alg, 0)
        quot, proj = scale_quotient(m, x)
        ref = _quotient_reference(field, m.dim, m.element_action(x), m.actions)
        assert proj.matrix == ref[0] and list(quot.actions) == ref[2]
        t = tensor_module(omega, m)
        eye_m, eye_omega = Matrix.identity(field, m.dim), Matrix.identity(field, omega.dim)
        rels = [_kron(field, la, eye_m) - _kron(field, eye_omega, ra)
                for la, ra in zip(omega.actions, m.actions)]
        full = [_kron(field, la, eye_m) for la in omega.actions]
        ref = _quotient_reference(field, omega.dim * m.dim, Matrix.hstack(rels), full)
        assert (t.projection, t.section, list(t.actions)) == ref


def test_one_elimination_each(monkeypatch):
    """The quotient and solve_matrix each make one reduction, and the
    resolution steps call no dense-Matrix entry point; neither the quotient
    nor the resolution asks for an image basis."""
    calls, dense_calls = [], []
    inner = linalg._sparse_rref

    def counted(rows, p):
        rows = list(rows)
        width = 1 + max((j for row in rows for j in row), default=-1)
        calls.append((len(rows), width))
        return inner(rows, p)

    def refused(m):
        raise AssertionError("image_basis called")

    def recorded(name, fn):
        def wrapper(*args):
            dense_calls.append(name)
            return fn(*args)
        return wrapper

    for mod in (linalg, module_mod):
        monkeypatch.setattr(mod, "_sparse_rref", counted)
    monkeypatch.setattr(module_mod, "image_basis", refused)
    rng = random.Random(2)
    a, b = _random(GF101, rng, 5, 3), _random(GF101, rng, 5, 2)
    solve_matrix(a, b)
    assert len(calls) == 1
    calls.clear()
    _quotient(GF101, [a, b], [])
    assert calls == [(5, 10)]
    alg = make_algebra(GF101, ["x", "y"], [{(1, 1): 1}, {(2, 0): 1, (0, 2): -1}])
    k = residue_field_module(alg)
    for mod in (linalg, module_mod, resolution):
        for name in DENSE_ENTRY_POINTS:
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, recorded(name, getattr(mod, name)))
    calls.clear()
    assert minimal_free_resolution(k, 3).betti == [1, 2, 3, 4]
    assert dense_calls == []
    assert len(calls) == 3  # the kernels of d_0, d_1 and d_2, once each
    scale_quotient(regular_module(alg), var(alg, 0))
    assert not hasattr(resolution, "image_basis")
    assert not hasattr(module_mod.Module, "radical_subspace")
