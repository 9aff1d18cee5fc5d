"""Groebner bases, staircases and quotient presentations against frozen
oracle values (computed independently by hand on these tiny ideals)."""

import itertools
import random

import pytest

from ezdlab.algebra import Algebra
from ezdlab.groebner import (
    MAX_QUOTIENT_DIM,
    InfiniteDimensionalError,
    NonLocalError,
    QuotientPresentation,
    QuotientTooLargeError,
    groebner_basis,
    quotient_basis,
)
from ezdlab.linalg import Field
from ezdlab.poly import DEGREVLEX, PolyRing

GF101 = Field(101)


def _ring(names):
    return PolyRing(GF101, list(names))


def _poly(ring, spec):
    return ring.poly({m: GF101.canon(c) for m, c in spec.items()})


def test_groebner_oracle_ci():
    """(x*y, x^2 - y^2) completes to {x*y, x^2 - y^2, y^3}."""
    r = _ring("xy")
    gb = groebner_basis(r, [_poly(r, {(1, 1): 1}), _poly(r, {(2, 0): 1, (0, 2): -1})])
    lead = sorted(g.lead_monomial for g in gb)
    assert lead == [(0, 3), (1, 1), (2, 0)]
    assert len(gb) == 3


def test_input_reduction_keeps_tails():
    """{x*y, x^2 - y^2, x}: x divides the lead terms of the others, but the
    tail -y^2 must survive; the reduced basis is {x, y^2}."""
    r = _ring("xy")
    gb = groebner_basis(
        r,
        [
            _poly(r, {(1, 1): 1}),
            _poly(r, {(2, 0): 1, (0, 2): -1}),
            _poly(r, {(1, 0): 1}),
        ],
    )
    assert sorted(g.lead_monomial for g in gb) == [(0, 2), (1, 0)]


def test_staircase_dim3():
    r = _ring("xy")
    gb = groebner_basis(
        r, [_poly(r, {(2, 0): 1}), _poly(r, {(1, 1): 1}), _poly(r, {(0, 2): 1})]
    )
    stairs = quotient_basis(r, gb)
    assert stairs == [(0, 0), (0, 1), (1, 0)]


def test_staircase_dim4():
    r = _ring("xy")
    gb = groebner_basis(r, [_poly(r, {(1, 1): 1}), _poly(r, {(2, 0): 1, (0, 2): -1})])
    stairs = quotient_basis(r, gb)
    assert len(stairs) == 4
    assert set(stairs) == {(0, 0), (1, 0), (0, 1), (0, 2)}


def test_staircase_infinite():
    r = _ring("xy")
    gb = groebner_basis(r, [_poly(r, {(1, 1): 1})])
    with pytest.raises(InfiniteDimensionalError):
        quotient_basis(r, gb)


def test_staircase_equals_box_filter():
    """The staircase grown one variable at a time equals the monomials of
    the bounding box that no lead monomial divides, in the same order."""
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(1, 3)
        r = _ring("xyz"[:n])
        lms = [tuple(rng.randint(1, 5) if i == v else 0 for i in range(n)) for v in range(n)]
        lms += [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(0, 3))]
        gb = groebner_basis(r, [_poly(r, {m: 1}) for m in lms if sum(m)])
        leads = [g.lead_monomial for g in gb]
        box = itertools.product(*(range(6) for _ in range(n)))
        expected = [
            m for m in box if not any(all(a <= b for a, b in zip(lm, m)) for lm in leads)
        ]
        expected.sort(key=lambda m: (sum(m), r.order.key(m)))
        assert quotient_basis(r, gb) == expected


def test_staircase_size_limit():
    """A staircase of MAX_QUOTIENT_DIM monomials is accepted; one more is
    refused while it is counted, however large the box around it."""
    r = _ring("x")
    at_limit = groebner_basis(r, [_poly(r, {(MAX_QUOTIENT_DIM,): 1})])
    assert len(quotient_basis(r, at_limit)) == MAX_QUOTIENT_DIM
    over = groebner_basis(r, [_poly(r, {(MAX_QUOTIENT_DIM + 1,): 1})])
    with pytest.raises(QuotientTooLargeError):
        quotient_basis(r, over)
    r3 = _ring("xyz")
    huge = [_poly(r3, {m: 1}) for m in [(99999, 0, 0), (0, 99999, 0), (0, 0, 99999)]]
    with pytest.raises(QuotientTooLargeError):
        QuotientPresentation(r3, huge)


def test_non_local_rejected():
    """x^2 - x has the idempotent x, so the quotient is not local."""
    r = _ring("x")
    pres = QuotientPresentation(r, [_poly(r, {(2,): 1, (1,): -1})])
    with pytest.raises(NonLocalError, match="variable x is not nilpotent"):
        Algebra(pres)


def test_normal_form_coords():
    r = _ring("x")
    pres = QuotientPresentation(r, [_poly(r, {(4,): 1})])
    assert pres.dim == 4
    # x^5 reduces to 0, x^3 + x reduces to itself
    assert pres.normal_form_coords(_poly(r, {(5,): 1})) == [0, 0, 0, 0]
    assert pres.normal_form_coords(_poly(r, {(3,): 1, (1,): 1})) == [0, 1, 0, 1]


def test_degrevlex_order_key():
    # degree dominates; among equal degrees the order refines consistently
    r = PolyRing(GF101, ["x", "y"], DEGREVLEX)
    assert r.order.key((0, 0)) < r.order.key((1, 0))
    assert r.order.key((1, 0)) < r.order.key((1, 1))
