"""Finite-dimensional commutative local algebras and their elements."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groebner import QuotientPresentation
from .linalg import Field, Matrix, _adopt, _dot
from .poly import Polynomial

__all__ = ["Algebra", "Element"]


class Algebra:
    """A finite-dimensional commutative local k-algebra on a staircase basis.

    Carries the multiplication matrix of every basis monomial, so the
    action of an arbitrary element is a coordinate-weighted sum of them.
    """

    def __init__(self, presentation: QuotientPresentation):
        presentation.check_local()
        self.presentation = presentation
        self.field: Field = presentation.field
        self.dim: int = presentation.dim
        self.staircase = list(presentation.staircase)
        self.mult = presentation.multiplication_matrices()
        # mult_stack[i] is the multiplication matrix of staircase monomial i
        self.mult_stack = np.stack([m.data for m in self.mult])
        self.var_action = [
            presentation.poly_action_matrix(presentation.ring.variable(v))
            for v in range(self.nvars)
        ]
        self.radical_indices = [i for i, m in enumerate(self.staircase) if sum(m) > 0]
        # the ideal generators as one (generators x monomials) coefficient
        # array over the monomials they use, so a module evaluates them all
        # in one contraction
        gens = [dict(g.terms) for g in presentation.ideal_generators]
        self.relation_monomials = sorted({m for g in gens for m in g})
        self.relation_coeffs = Matrix.from_rows(
            self.field, [[g.get(m, 0) for m in self.relation_monomials] for g in gens]
        ).data
        self._check_structure()

    @property
    def ring(self):
        return self.presentation.ring

    @property
    def nvars(self) -> int:
        return self.presentation.ring.nvars

    def __eq__(self, other):
        return isinstance(other, Algebra) and self.presentation == other.presentation

    def __hash__(self):
        return hash((self.presentation.ring, tuple(self.presentation.groebner)))

    def __repr__(self):
        ring = self.presentation.ring
        gens = ", ".join(ring.format_poly(g) for g in self.presentation.ideal_generators)
        return f"Algebra({ring.field}[{', '.join(ring.names)}]/({gens}), dim={self.dim})"

    def _check_structure(self):
        ident = Matrix.identity(self.field, self.dim)
        if self.mult[0] != ident:
            raise ValueError("unit does not act as the identity")
        # commutativity and associativity on all basis pairs/triples:
        # M_i M_j must equal the multiplication matrix of m_i*m_j,
        # which is sum_k table[i][j][k] M_k.
        for i in range(self.dim):
            for j in range(i, self.dim):
                prod = self.mult[i] @ self.mult[j]
                if prod != self.mult[j] @ self.mult[i]:
                    raise ValueError("multiplication table is not commutative")
                coords = prod.col(0)  # image of 1 = coordinates of m_i*m_j
                expected = self.element_action(Element(self, coords))
                if prod != expected:
                    raise ValueError("multiplication table is not associative")

    # -- elements -----------------------------------------------------
    def element(self, coords) -> "Element":
        return Element(self, Matrix.column(self.field, coords))

    def one_element(self) -> "Element":
        return self.element([self.field.one] + [self.field.zero] * (self.dim - 1))

    def element_from_poly(self, f: Polynomial) -> "Element":
        return self.element(self.presentation.normal_form_coords(f))

    def element_action(self, e: "Element") -> Matrix:
        """Multiplication-by-e matrix on the algebra itself."""
        if e.parent is not self and e.parent != self:
            raise ValueError("element belongs to a different algebra")
        d = self.dim
        acc = _dot(e.coords.data.T, self.mult_stack.reshape(d, d * d), self.field.p)
        return _adopt(self.field, acc.reshape(d, d))


@dataclass(frozen=True)
class Element:
    parent: Algebra
    coords: Matrix  # dim x 1 column

    def __post_init__(self):
        if self.coords.rows != self.parent.dim or self.coords.cols != 1:
            raise ValueError("coordinate length must equal the algebra dimension")

    def is_zero(self) -> bool:
        return self.coords.is_zero()

    def __add__(self, other: "Element") -> "Element":
        return Element(self.parent, self.coords + other.coords)

    def __mul__(self, other: "Element") -> "Element":
        return Element(self.parent, self.parent.element_action(self) @ other.coords)

    def to_polynomial(self) -> Polynomial:
        ring = self.parent.ring
        coeffs = {}
        for i, m in enumerate(self.parent.staircase):
            c = self.coords.data[i, 0]
            if c != 0:
                coeffs[m] = c
        return ring.poly(coeffs)

    def __repr__(self):
        return f"Element({self.parent.ring.format_poly(self.to_polynomial())})"
