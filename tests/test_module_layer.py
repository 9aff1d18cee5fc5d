"""The module layer against independent references: representation
checks that reject bad actions over every field, Hom spaces against the
Python-int kernel of the Kronecker-product system, the natural maps
against their column-by-column coordinates, and the relative dimensions
building only the modules of their natural map."""

import random
from fractions import Fraction

import pytest

import ezdlab.classes as classes
import ezdlab.resolution as resolution
from ezdlab.classes import biduality_map, gamma_map, homothety_map, ic_id, pc_pd
from ezdlab.linalg import Field, Matrix, inverse
from ezdlab.module import (
    HomModule,
    Module,
    direct_sum,
    dual_k,
    hom_module,
    regular_module,
    residue_field_module,
    scale_quotient,
    tensor_module,
    zero_module,
)
from ezdlab.propcheck import load_corpus
from ezdlab.resolution import INF, Exactly

from conftest import GF2, GF101, QQ, _int_kernel, _int_matmul, _int_rref, make_algebra, var

P_MAX = 2**31 - 1  # the largest prime the fields accept
FIELDS = [GF2, GF101, Field(P_MAX), QQ]
# per field, a1 x^2 + a2 x*y + a3 y^2: three coefficients near p at 2^31 - 1
# (a sum of their products with residues would wrap an int64), a
# non-integer one over QQ
QUADRIC = {
    2: (1, 1, 1),
    101: (1, 7, -50),
    P_MAX: (P_MAX - 2, P_MAX - 5, P_MAX - 7),
    None: (1, 3, Fraction(-1, 2)),
}


def _quadric(field):
    a1, a2, a3 = QUADRIC[field.p]
    return {(2, 0): a1, (1, 1): a2, (0, 2): a3}


def _conjugator(field, n, rng):
    """A random invertible n x n matrix, with entries near p at 2^31 - 1."""
    low, high = (P_MAX // 2, P_MAX - 1) if field.p == P_MAX else (-3, 3)
    while True:
        t = Matrix.from_rows(field, [[rng.randint(low, high) for _ in range(n)] for _ in range(n)])
        t_inv = inverse(t)
        if t_inv is not None:
            return t, t_inv


def _conjugated(field, acts, rng):
    """The same representation in a random basis: dense entries."""
    t, t_inv = _conjugator(field, acts[0].rows, rng)
    return [t_inv @ a @ t for a in acts]


def _unit(field, n, i, j, c=1):
    """c times the matrix unit E_ij."""
    return Matrix.from_rows(field, [[c if (r, s) == (i, j) else 0 for s in range(n)]
                                    for r in range(n)])


def _ci(field):
    """k[x,y]/(x*y, q) for the quadric q above: basis 1, x, y, y^2, with
    x^2 a nonzero multiple of y^2."""
    return make_algebra(field, ["x", "y"], [{(1, 1): 1}, _quadric(field)])


# ---------------------------------------------------------------------------
# representation checks


def _with_cubes(field, *gens):
    """k[x,y]/(x^3, y^3, gens...)."""
    return make_algebra(field, ["x", "y"], [{(3, 0): 1}, {(0, 3): 1}, *gens])


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_non_commuting_actions_are_rejected(field):
    """On k^8, X = a E_23 and Y = b E_12 square to zero and XY = 0, so the
    generators of k[x,y]/(x^3, y^3, q) vanish on them, but YX != 0.  In a
    random basis each product sums eight products of residues, which would
    wrap an int64 at p = 2^31 - 1."""
    alg = _with_cubes(field, _quadric(field))
    rng = random.Random(1)
    a, b = (rng.randint(1, P_MAX - 1), rng.randint(1, P_MAX - 1)) if field.p == P_MAX else (1, 1)
    acts = _conjugated(field, [_unit(field, 8, 1, 2, a), _unit(field, 8, 0, 1, b)], rng)
    with pytest.raises(ValueError, match="variable actions do not commute"):
        Module(alg, acts)
    # the same shape with commuting actions is accepted
    Module(alg, _conjugated(field, [_unit(field, 8, 0, 2, a), _unit(field, 8, 0, 2, b)], rng))


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_an_unmet_ideal_generator_is_rejected(field):
    """The regular representation of A = k[x,y]/(x^3, y^3, q) in a random
    basis passes: q sums three nonzero monomial actions.  That of
    k[x,y]/(x^3, y^3, x*y) commutes and kills x^3 and y^3, but not q."""
    alg = _with_cubes(field, _quadric(field))
    rng = random.Random(2)
    Module(alg, _conjugated(field, list(alg.actions), rng))
    other = _with_cubes(field, {(1, 1): 1})
    with pytest.raises(ValueError, match="an ideal generator does not vanish"):
        Module(alg, _conjugated(field, list(other.actions), rng))


def test_every_constructor_checks_its_representation(ci, monkeypatch):
    checked = []
    inner = Module._check_representation

    def recorded(self):
        checked.append(type(self).__name__)
        inner(self)

    monkeypatch.setattr(Module, "_check_representation", recorded)
    r = regular_module(ci)
    h = hom_module(r, residue_field_module(ci))
    assert isinstance(h, HomModule) and checked[-1] == "HomModule"
    tensor_module(r, dual_k(r))
    scale_quotient(r, var(ci, 0))
    assert checked == ["Module", "Module", "HomModule", "Module", "TensorModule", "Module"]


# ---------------------------------------------------------------------------
# Hom spaces against the Kronecker-product system


def _kron_system(source, target):
    """The rows of T (x) 1 - 1 (x) S^t for every variable, as Python ints or
    Fractions: row b * ns + c is entry (b, c) of T X - X S, in the unknowns
    X[d, e] at d * ns + e."""
    ns, nt = source.dim, target.dim
    rows = []
    for sa, ta in zip(source.actions, target.actions):
        s, t = sa.to_lists(), ta.to_lists()
        for b in range(nt):
            for c in range(ns):
                row = [0] * (nt * ns)
                for d in range(nt):
                    row[d * ns + c] += t[b][d]
                for e in range(ns):
                    row[b * ns + e] -= s[e][c]
                rows.append(row)
    return rows


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_hom_matches_the_kronecker_kernel(field):
    """The basis matrix spans the Python-int kernel of the Kronecker system,
    and every basis hom commutes with the actions in Python ints or
    Fractions: source and target of different dimensions, of dimension 0,
    and with zero actions."""
    alg = _ci(field)
    rng = random.Random(3)
    reg = Module(alg, _conjugated(field, list(alg.actions), rng))
    k = residue_field_module(alg)
    modules = [
        reg, dual_k(reg), k, direct_sum(k, k), zero_module(alg),
        scale_quotient(reg, var(alg, 0))[0],
    ]
    for source in modules:
        for target in modules:
            h = hom_module(source, target)
            pair = (source.label, target.label)
            n = source.dim * target.dim
            rows = _kron_system(source, target)
            kernel = [list(col) for col in zip(*_int_kernel(rows, n, field.p))]
            columns = h._bmat.T.to_lists()
            # equal rank, and stacking the two adds none: equal spans
            rank = len(_int_rref(columns, field.p)[1])
            assert rank == h.dim == len(kernel), pair
            assert len(_int_rref(columns + kernel, field.p)[1]) == rank, pair
            for phi in h.basis:
                phi = phi.to_lists()
                for sa, ta in zip(source.actions, target.actions):
                    assert (_int_matmul(phi, sa.to_lists(), field.p)
                            == _int_matmul(ta.to_lists(), phi, field.p)), pair


# ---------------------------------------------------------------------------
# natural maps against their columns one at a time


def _column_by_column(h, mats):
    """The coordinates of each matrix in the Hom space, one call each."""
    cols = [h._coords([mat]).sparse_columns()[0] for mat in mats]
    return Matrix.from_sparse_columns(h.algebra.field, h.dim, cols)


def _homothety_reference(c):
    hcc = hom_module(c, c)
    return _column_by_column(hcc, [c.monomial_action(m) for m in c.algebra.staircase])


def _biduality_reference(x, c):
    field = x.algebra.field
    h1 = hom_module(x, c)
    h2 = hom_module(h1, c)
    columns = [phi.sparse_columns() for phi in h1.basis]
    mats = [Matrix.from_sparse_columns(field, c.dim, [col[i] for col in columns])
            for i in range(x.dim)]
    return _column_by_column(h2, mats)


def _gamma_reference(m, c):
    field = m.algebra.field
    t = tensor_module(c, m)
    h = hom_module(c, t)
    columns = t.projection.sparse_columns()
    mats = [Matrix.from_sparse_columns(field, t.dim, [columns[j * m.dim + i]
                                                      for j in range(c.dim)])
            for i in range(m.dim)]
    return _column_by_column(h, mats)


def test_natural_maps_match_their_columns():
    for inst in load_corpus(bound=4):
        c, reg = inst.c, regular_module(inst.algebra)
        assert homothety_map(c).matrix == _homothety_reference(c), inst.name
        for m in (inst.m, dual_k(reg), residue_field_module(inst.algebra),
                  scale_quotient(reg, inst.x)[0]):
            assert biduality_map(m, c).matrix == _biduality_reference(m, c), inst.name
            assert gamma_map(m, c).matrix == _gamma_reference(m, c), inst.name


# ---------------------------------------------------------------------------
# relative dimensions reuse their natural map's module


def test_relative_dimensions_build_each_module_once(ci, monkeypatch):
    """pc_pd builds Hom(C, M) and C (x) Hom(C, M) once each, for xi, and
    ic_id the same for dual_k(M); once C is certified, neither resolves
    anything."""
    calls = []

    def counted(name, fn):
        def wrapper(a, b):
            out = fn(a, b)
            calls.append((name, a, b, out))
            return out
        return wrapper

    def refused(self):
        raise AssertionError("a resolution step")

    c = regular_module(ci)
    m = scale_quotient(c, var(ci, 0))[0]
    assert classes.is_semidualizing(c, 3).holds
    for name in ("hom_module", "tensor_module"):
        monkeypatch.setattr(classes, name, counted(name, getattr(classes, name)))
    monkeypatch.setattr(resolution._ResolutionState, "_step", refused)
    for fn in (pc_pd, ic_id):
        calls.clear()
        assert fn(m, c, 3) == Exactly(INF)
        (hom, c1, target, h), (tensor, c2, right, _) = calls
        assert (hom, tensor) == ("hom_module", "tensor_module")
        assert c1 is c2 is c and right is h
        assert (target is m) == (fn is pc_pd), fn.__name__
