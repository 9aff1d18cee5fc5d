"""Finite-dimensional commutative local algebras, their elements, and
representations given by one action matrix per variable.

Every action is a sparse ``Matrix``; the table of an algebra is the list
of its monomial actions, so a d-dimensional algebra stores d sparse
d x d matrices, not a dense d^3 array."""

from __future__ import annotations

from .groebner import NonLocalError, QuotientPresentation
from .linalg import Field, Matrix
from .poly import Polynomial
from .record import Frozen, _set

__all__ = ["Algebra", "Element", "Representation"]


class Representation:
    """Actions X_1..X_n of the variables of ``self.algebra`` on k^dim:
    monomials act by the recurrence M_1 = I, M_m = X_v M_{m - e_v} (v the
    first variable of m), cached, and ``_check_representation`` accepts
    actions that commute and kill every ideal generator."""

    __slots__ = ("dim", "actions", "_mon_cache")

    def __init__(self, actions: list):
        self.actions = tuple(actions)
        self.dim = actions[0].rows if actions else 0
        self._mon_cache = {}

    def monomial_action(self, m) -> Matrix:
        """The action of m, from that of m with one exponent fewer."""
        m = tuple(m)
        cached = self._mon_cache.get(m)
        if cached is None:
            v = next((v for v, e in enumerate(m) if e), None)
            if v is None:
                cached = Matrix.identity(self.algebra.field, self.dim)
            elif sum(m) == 1:
                cached = self.actions[v]
            else:
                lower = m[:v] + (m[v] - 1,) + m[v + 1 :]
                cached = self.actions[v] @ self.monomial_action(lower)
            self._mon_cache[m] = cached
        return cached

    def action_stack(self) -> list:
        """The monomial actions, in staircase order."""
        return [self.monomial_action(m) for m in self.algebra.staircase]

    def element_action(self, r: "Element") -> Matrix:
        """Action matrix of an algebra element (staircase coordinates)."""
        if r.parent != self.algebra:
            raise ValueError("element belongs to a different algebra")
        terms = [(row[0], self.monomial_action(m))
                 for m, row in zip(self.algebra.staircase, r.coords.nz) if row]
        return Matrix.combination(self.algebra.field, self.dim, self.dim, terms)

    def _check_representation(self):
        n, field = self.dim, self.algebra.field
        for a in self.actions:
            if a.rows != n or a.cols != n:
                raise ValueError("action matrices must be square of the module dimension")
        for i, a in enumerate(self.actions):
            for b in self.actions[i + 1 :]:
                if a @ b != b @ a:
                    raise ValueError("variable actions do not commute")
        # each ideal generator: its coefficients against the actions of the
        # monomials the generators use
        mats = [self.monomial_action(m) for m in self.algebra.relation_monomials]
        for row in self.algebra.relation_coeffs.nz:
            terms = ((c, mats[k]) for k, c in row.items())
            if not Matrix.combination(field, n, n, terms).is_zero():
                raise ValueError("an ideal generator does not vanish on the actions")


class Algebra(Representation):
    """A finite-dimensional commutative local k-algebra on a staircase basis.

    A acts on itself through its variable actions X_v = (NF(x_v m_j))_j,
    and ``mult_stack[i]`` is the sparse action M_i of staircase monomial m_i by
    the recurrence of ``Representation``.  It is the table of A: the X_v
    commute and kill every ideal generator, so a -> M_a represents A;
    M_i e_0 = e_i, so a -> M_a e_0 maps A onto k^d, an isomorphism of
    A-modules as dim A = d; hence M_i e_j = NF(m_i m_j).  A is local when
    each X_v^d e_0 = NF(x_v^d) vanishes; that check runs first, so a
    non-local quotient raises ``NonLocalError`` before any ``ValueError``.
    """

    def __init__(self, presentation: QuotientPresentation):
        self.presentation = presentation
        self.field: Field = presentation.field
        self.staircase = list(presentation.staircase)
        super().__init__([
            presentation.poly_action_matrix(presentation.ring.variable(v))
            for v in range(self.nvars)
        ])
        for name, x in zip(self.ring.names, self.actions):
            power = self.one_element().coords
            for _ in range(self.dim):
                if power.is_zero():  # and so stays
                    break
                power = x @ power
            if not power.is_zero():
                raise NonLocalError(f"variable {name} is not nilpotent in the quotient")
        self.radical_indices = [i for i, m in enumerate(self.staircase) if sum(m) > 0]
        # the ideal generators as one (generators x monomials) coefficient
        # matrix over the monomials they use, which every module evaluates
        gens = [dict(g.terms) for g in presentation.ideal_generators]
        self.relation_monomials = sorted({m for g in gens for m in g})
        self.relation_coeffs = Matrix.from_rows(
            self.field, [[g.get(m, 0) for m in self.relation_monomials] for g in gens]
        )
        self.mult_stack = tuple(self.action_stack())
        # column 0 of M_i is m_i * 1, which must be e_i
        for i, mat in enumerate(self.mult_stack):
            if {r: row[0] for r, row in enumerate(mat.nz) if 0 in row} != {i: 1}:
                raise ValueError("a staircase monomial does not map 1 to itself")
        self._check_representation()

    algebra = property(lambda self: self)  # A is a representation of itself

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

    # -- elements -----------------------------------------------------
    def element(self, coords) -> "Element":
        return Element(self, Matrix.column(self.field, coords))

    def one_element(self) -> "Element":
        return self.element([self.field.one] + [self.field.zero] * (self.dim - 1))

    def element_from_poly(self, f: Polynomial) -> "Element":
        return self.element(self.presentation.normal_form_coords(f))


class Element(Frozen):
    __slots__ = ("parent", "coords")

    def __init__(self, parent: Algebra, coords: Matrix):
        """``coords``: a dim x 1 column."""
        if coords.rows != parent.dim or coords.cols != 1:
            raise ValueError("coordinate length must equal the algebra dimension")
        _set(self, "parent", parent)
        _set(self, "coords", coords)

    def is_zero(self) -> bool:
        return self.coords.is_zero()

    def __add__(self, other: "Element") -> "Element":
        return Element(self.parent, self.coords + other.coords)

    def __mul__(self, other: "Element") -> "Element":
        return Element(self.parent, self.parent.element_action(self) @ other.coords)

    def to_polynomial(self) -> Polynomial:
        ring = self.parent.ring
        coeffs = {}
        for m, row in zip(self.parent.staircase, self.coords.nz):
            if row:
                coeffs[m] = row[0]
        return ring.poly(coeffs)

    def __repr__(self):
        return f"Element({self.parent.ring.format_poly(self.to_polynomial())})"
