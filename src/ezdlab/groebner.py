"""Buchberger completion, staircase bases and normal forms.

The quotient algebras in play are small (a few variables, at most
``MAX_QUOTIENT_DIM`` staircase monomials), so a plain Buchberger loop with
the product criterion and a pair budget is entirely adequate.  Normal
forms give the variable actions, from which ``algebra`` builds the table.
"""

from __future__ import annotations

from .linalg import Field, Matrix
from .poly import PolyRing, Polynomial, mono_divides, mono_lcm, mono_mul
from .record import Record

__all__ = [
    "PairBudgetExceeded",
    "InfiniteDimensionalError",
    "NonLocalError",
    "QuotientTooLargeError",
    "groebner_basis",
    "quotient_basis",
    "QuotientPresentation",
]

DEFAULT_PAIR_BUDGET = 10_000
# The largest quotient dimension d accepted.  An Algebra holds d sparse
# d x d monomial actions, each one sparse product from the one before: at
# d = 256 (x^256, or x^16 and y^16) it builds in 0.22-0.31 s over GF(101) and
# 0.54-0.66 s over QQ on a 2-core Xeon VM.
MAX_QUOTIENT_DIM = 256


class PairBudgetExceeded(Exception):
    """Buchberger processed more S-pairs than the configured budget."""


class InfiniteDimensionalError(Exception):
    """The quotient has an infinite staircase (some variable lacks a pure power)."""


class NonLocalError(Exception):
    """The quotient is finite-dimensional but some variable is not nilpotent."""


class QuotientTooLargeError(Exception):
    """The staircase has more than ``MAX_QUOTIENT_DIM`` monomials."""


def groebner_basis(
    ring: PolyRing,
    generators: list[Polynomial],
    pair_budget: int = DEFAULT_PAIR_BUDGET,
) -> list[Polynomial]:
    """Reduced Groebner basis of the ideal generated by ``generators``."""
    basis = _reduce_generators(ring, generators)
    pairs = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
    processed = 0
    while pairs:
        pairs.sort(
            key=lambda ij: ring.order.key(
                mono_lcm(basis[ij[0]].lead_monomial, basis[ij[1]].lead_monomial)
            )
        )
        i, j = pairs.pop(0)
        processed += 1
        if processed > pair_budget:
            raise PairBudgetExceeded(f"S-pair budget {pair_budget} exceeded")
        lmi = basis[i].lead_monomial
        lmj = basis[j].lead_monomial
        # product criterion: coprime lead monomials give a trivial S-pair
        if mono_lcm(lmi, lmj) == mono_mul(lmi, lmj):
            continue
        s = ring.normal_form(ring.s_poly(basis[i], basis[j]), basis)
        if s.is_zero():
            continue
        s = ring.monic(s)
        basis.append(s)
        k = len(basis) - 1
        pairs.extend((t, k) for t in range(k))
    return _interreduce(ring, basis)


def _reduce_generators(ring: PolyRing, gens: list[Polynomial]) -> list[Polynomial]:
    """Drop input generators only when they reduce to zero modulo the rest.

    Lead-monomial minimalization is not sound before completion, so this
    keeps every generator carrying new content (e.g. a tail that survives
    reduction even though its lead monomial is divisible)."""
    gens = [ring.monic(g) for g in gens if not g.is_zero()]
    out = []
    for i, g in enumerate(gens):
        r = ring.normal_form(g, out + gens[i + 1 :])
        if not r.is_zero():
            out.append(ring.monic(r))
    return out


def _interreduce(ring: PolyRing, basis: list[Polynomial]) -> list[Polynomial]:
    """Minimal, fully reduced, monic basis sorted by lead monomial."""
    basis = [ring.monic(g) for g in basis if not g.is_zero()]
    # drop elements whose lead monomial is divisible by another lead monomial
    minimal = []
    for i, g in enumerate(basis):
        lm = g.lead_monomial
        if any(
            mono_divides(h.lead_monomial, lm) and (h.lead_monomial != lm or j < i)
            for j, h in enumerate(basis)
            if j != i
        ):
            continue
        minimal.append(g)
    reduced = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1 :]
        r = ring.normal_form(g, others)
        if not r.is_zero():
            reduced.append(ring.monic(r))
    reduced.sort(key=lambda g: ring.order.key(g.lead_monomial))
    return reduced


def quotient_basis(ring: PolyRing, groebner: list[Polynomial]) -> list:
    """The staircase: monomials outside the lead-term ideal, sorted by
    degree then ambient order.  Raises when the staircase is infinite or
    has more than ``MAX_QUOTIENT_DIM`` monomials."""
    lms = [g.lead_monomial for g in groebner]
    for v in range(ring.nvars):
        if not any(m[v] > 0 and sum(m) == m[v] for m in lms):
            raise InfiniteDimensionalError(
                f"variable {ring.names[v]} has no pure power in the lead-term ideal"
            )
    # The staircase is closed under division, so it grows one variable at a
    # time: a prefix padded with zeros is a staircase monomial, and each
    # prefix extends until the next exponent of the new variable leaves the
    # staircase.  Every layer is a set of staircase monomials, so counting
    # it stops an oversized quotient before it is enumerated.
    staircase = [()]
    for v in range(ring.nvars):
        pad = (0,) * (ring.nvars - v - 1)
        grown = []
        for m in staircase:
            e = 0
            while not any(mono_divides(lm, m + (e,) + pad) for lm in lms):
                grown.append(m + (e,))
                if len(grown) > MAX_QUOTIENT_DIM:
                    raise QuotientTooLargeError(
                        f"quotient dimension exceeds {MAX_QUOTIENT_DIM}"
                    )
                e += 1
        staircase = grown
    staircase.sort(key=lambda m: (sum(m), ring.order.key(m)))
    return staircase


class QuotientPresentation(Record):
    """A finite-dimensional local quotient k[x1..xn]/I with its staircase."""

    __slots__ = ("ring", "ideal_generators", "groebner", "staircase")

    def __init__(self, ring: PolyRing, ideal_generators: list):
        self.ring = ring
        self.ideal_generators = ideal_generators
        self.groebner = groebner_basis(ring, ideal_generators)
        self.staircase = quotient_basis(ring, self.groebner)

    @property
    def field(self) -> Field:
        return self.ring.field

    @property
    def dim(self) -> int:
        return len(self.staircase)

    def __eq__(self, other):
        return (
            isinstance(other, QuotientPresentation)
            and self.ring == other.ring
            and self.groebner == other.groebner
        )

    def normal_form_coords(self, f: Polynomial) -> list:
        """Coordinates of NF(f) in the staircase basis."""
        nf = self.ring.normal_form(f, self.groebner)
        idx = {m: i for i, m in enumerate(self.staircase)}
        coords = [self.field.zero] * self.dim
        for m, c in nf.terms:
            coords[idx[m]] = c
        return coords

    def poly_action_matrix(self, f: Polynomial) -> Matrix:
        """Matrix of multiplication by f on the staircase basis."""
        cols = [self.normal_form_coords(self.ring.mul(f, self.ring.monomial(m)))
                for m in self.staircase]
        return Matrix.from_rows(self.field, zip(*cols))
