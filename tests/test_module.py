"""Module constructions: Hom, tensor, k-duals, quotients and isomorphism
testing, against frozen dimension oracles."""

import random

import pytest

from ezdlab import module as module_mod
from ezdlab.groebner import BudgetExceeded
from ezdlab.linalg import Field, Matrix, inverse
from ezdlab.module import (
    Iso,
    Module,
    Morphism,
    NotIso,
    annihilator_submodule,
    direct_sum,
    dual_k,
    free_module,
    hom_module,
    is_isomorphic,
    quotient_algebra,
    regular_module,
    residue_field_module,
    scale_quotient,
    tensor_module,
    transport_to_quotient,
)
from ezdlab.module import _combine

from conftest import GF2, GF101, QQ, make_algebra, var


@pytest.mark.parametrize("build", [hom_module, tensor_module], ids=["hom", "tensor"])
def test_hom_and_tensor_stop_on_the_budget_before_writing(hyper2, monkeypatch, build):
    """Hom and tensor work in a k-space of dimension dim M * dim N: at the
    dimension budget they are built, past it they raise BudgetExceeded
    before any row is written."""
    writes = []
    inner = module_mod._kron_difference

    def counted(*args):
        writes.append(args[0])
        return inner(*args)

    monkeypatch.setattr(module_mod, "_kron_difference", counted)
    monkeypatch.setattr(module_mod, "DEFAULT_RESOLUTION_BUDGET", 36)
    six, eight = free_module(hyper2, 3), free_module(hyper2, 4)
    # Hom(A^3, A^3) and A^3 (x) A^3 are both A^9
    assert build(six, six).dim == 18
    assert writes
    writes.clear()
    with pytest.raises(BudgetExceeded, match="needs 48 dims, over the budget of 36"):
        build(six, eight)
    assert writes == []


def test_tensor_of_large_free_modules_stops_at_once(hyper2):
    """Two free modules of 4,000 dimensions each, each under the budget,
    would need 16,000,000 rows: the tensor stops before allocating them."""
    big = free_module(hyper2, 2000)
    with pytest.raises(BudgetExceeded, match="needs 16000000 dims, over the budget of 10000"):
        tensor_module(big, big)
    assert tensor_module(free_module(hyper2, 50), free_module(hyper2, 50)).dim == 5000


def test_hom_tensor_dims_square_zero(square_zero):
    """Over R = k[x,y]/(x,y)^2: Hom(omega, omega) has dim 3 (it is R),
    omega (x) omega has dim 4."""
    r = regular_module(square_zero)
    omega = dual_k(r)
    assert hom_module(omega, omega).dim == 3
    assert tensor_module(omega, omega).dim == 4


def test_tensor_with_regular_is_identity(ci):
    r = regular_module(ci)
    omega = dual_k(r)
    t = tensor_module(r, omega)
    assert t.dim == omega.dim
    assert isinstance(is_isomorphic(t, omega), Iso)


def test_hom_from_regular_is_identity(ci):
    r = regular_module(ci)
    omega = dual_k(r)
    h = hom_module(r, omega)
    assert isinstance(is_isomorphic(h, omega), Iso)


def test_tensor_hom_adjunction_dims(square_zero):
    """dim Hom(A (x) B, C) = dim Hom(A, Hom(B, C))."""
    r = regular_module(square_zero)
    omega = dual_k(r)
    k = residue_field_module(square_zero)
    for a in (r, omega, k):
        for b in (omega, k):
            for c in (r, omega):
                lhs = hom_module(tensor_module(a, b), c)
                rhs = hom_module(a, hom_module(b, c))
                assert lhs.dim == rhs.dim


def test_dual_involution(sprime):
    m = scale_quotient(regular_module(sprime), var(sprime, 2))[0]
    dd = dual_k(dual_k(m))
    assert dd.dim == m.dim
    assert isinstance(is_isomorphic(dd, m), Iso)


def test_dual_swaps_hom_tensor(square_zero):
    """dual_k(A (x) B) has the dimension of Hom(A, dual_k(B))."""
    r = regular_module(square_zero)
    omega = dual_k(r)
    k = residue_field_module(square_zero)
    for a in (omega, k):
        for b in (r, omega):
            assert dual_k(tensor_module(a, b)).dim == hom_module(a, dual_k(b)).dim


def test_annihilator_vs_scale_quotient(hyper4):
    """Over k[x]/(x^4) with the pair (x, x^3): (0 : x) and A/xA both have
    dimension 1; (0 : x^3) and A/x^3A both have dimension 3."""
    a = regular_module(hyper4)
    x = var(hyper4, 0)
    x3 = var(hyper4, 0, 3)
    assert annihilator_submodule(a, x)[0].dim == 1
    assert scale_quotient(a, x)[0].dim == 1
    assert annihilator_submodule(a, x3)[0].dim == 3
    assert scale_quotient(a, x3)[0].dim == 3


def test_exact_pair_annihilator_iso(hyper4):
    """(0 : x) and A/xA are isomorphic for the exact pair (x, x^3)."""
    a = regular_module(hyper4)
    x = var(hyper4, 0)
    ann = annihilator_submodule(a, x)[0]
    quo = scale_quotient(a, x)[0]
    assert isinstance(is_isomorphic(ann, quo), Iso)


def test_not_isomorphic_witness(square_zero):
    r = regular_module(square_zero)
    omega = dual_k(r)
    verdict = is_isomorphic(omega, r)
    assert isinstance(verdict, NotIso)
    assert verdict.reason


def test_direct_sum(ci):
    r = regular_module(ci)
    s = direct_sum(r, r)
    assert s.dim == 2 * r.dim
    assert isinstance(is_isomorphic(s, free_module(ci, 2)), Iso)


def test_quotient_algebra_and_transport(ci):
    """A/xA for A = k[x,y]/(xy, x^2-y^2) is k[y]/(y^2)."""
    x = var(ci, 0)
    quotient = quotient_algebra(ci, x)
    assert quotient.dim == 2
    m = scale_quotient(regular_module(ci), x)[0]
    mbar = transport_to_quotient(m, quotient, x)
    assert mbar.dim == 2
    assert isinstance(is_isomorphic(mbar, regular_module(quotient)), Iso)


def test_residue_field(sprime):
    k = residue_field_module(sprime)
    assert k.dim == 1
    for a in k.actions:
        assert a.is_zero()


@pytest.mark.parametrize("field", [GF2, GF101, QQ], ids=str)
def test_hom_coordinates_round_trip(field):
    """Hom coordinates are read off the kernel's free rows: they invert
    element_matrix, and a matrix outside the Hom space is refused."""
    alg = make_algebra(field, ["x", "y"], [{(1, 1): 1}, {(2, 0): 1, (0, 2): -1}])
    r = regular_module(alg)
    omega = dual_k(r)
    cyclic = scale_quotient(r, var(alg, 0))[0]
    rng = random.Random(0)
    for src, tgt in ((r, r), (omega, r), (r, omega), (omega, omega), (cyclic, r)):
        h = hom_module(src, tgt)
        for _ in range(5):
            c = Matrix.column(field, [rng.randint(-3, 3) for _ in range(h.dim)])
            phi = h.element_matrix(c)
            Morphism(src, tgt, phi)  # A-linear
            assert h.coordinates_of(phi) == c
    # projection onto the constant coordinate: sends 1 to 1 but x to 0
    e00 = Matrix.from_rows(
        field, [[int(i == j == 0) for j in range(alg.dim)] for i in range(alg.dim)]
    )
    with pytest.raises(ValueError, match="not in the Hom space"):
        hom_module(r, r).coordinates_of(e00)


P_MAX = 2**31 - 1  # the largest prime the fields accept


def _int_combination(mats, coeffs, p):
    """sum c * mat with Python ints, reduced once at the end."""
    n, m = len(mats[0]), len(mats[0][0])
    return [
        [sum(c * mat[i][j] for mat, c in zip(mats, coeffs)) % p for j in range(m)]
        for i in range(n)
    ]


def test_sums_exact_at_large_p():
    """Element actions, ideal-generator evaluation and Hom combinations sum up to
    dim A products of residues near 2^31; each must match Python ints."""
    field = Field(P_MAX)
    rng = random.Random(5)
    alg = make_algebra(field, ["x"], [{(8,): 1}])
    while True:
        t = Matrix.from_rows(field, [[rng.randrange(P_MAX) for _ in range(8)] for _ in range(8)])
        t_inv = inverse(t)
        if t_inv is not None:
            break
    m = Module(alg, [t_inv @ a @ t for a in alg.actions])
    monos = [m.monomial_action(s).data.tolist() for s in alg.staircase]
    coeffs = [rng.randrange(1, P_MAX) for _ in alg.staircase]
    expected = _int_combination(monos, coeffs, P_MAX)
    assert m.element_action(alg.element(coeffs)).data.tolist() == expected
    # the contraction that evaluates the ideal generators on every module
    mats = [m.monomial_action(s) for s in alg.staircase]
    assert Matrix.combination(field, 8, 8, zip(coeffs, mats)).to_lists() == expected
    basis = [Matrix.from_rows(field, mono) for mono in monos]
    assert _combine(field, basis, coeffs).data.tolist() == expected

    # structure constants near p: v_i v_j = a_ij z^2, so one entry of an
    # element's action sums four products of two residues
    names = ["v1", "v2", "v3", "v4", "z"]
    gens = [{(0, 0, 0, 0, 3): 1}]
    for i in range(4):
        gens.append({tuple(int(k in (i, 4)) for k in range(5)): 1})
        for j in range(i, 4):
            mono = tuple((k == i) + (k == j) for k in range(5))
            gens.append({mono: 1, (0, 0, 0, 0, 2): -rng.randrange(P_MAX // 2, P_MAX)})
    alg = make_algebra(field, names, gens)
    coeffs = [rng.randrange(P_MAX // 2, P_MAX) for _ in alg.staircase]
    mults = [mat.to_lists() for mat in alg.mult_stack]
    expected = _int_combination(mults, coeffs, P_MAX)
    assert alg.element_action(alg.element(coeffs)).data.tolist() == expected
