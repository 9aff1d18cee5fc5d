"""Module constructions: Hom, tensor, k-duals, quotients and isomorphism
testing, against frozen dimension oracles."""

import random

import pytest

from ezdlab.linalg import Matrix
from ezdlab.module import (
    Iso,
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

from conftest import GF2, GF101, QQ, make_algebra, var


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
