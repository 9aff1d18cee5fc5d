"""Multivariate polynomials over an exact field, with monomial orders.

Polynomials are kept tiny and pure-Python: the quotient algebras this
package targets have a handful of variables and low degrees, so there is
no need for anything cleverer than sorted term tuples.
"""

from __future__ import annotations

from typing import Iterable

from .linalg import Field
from .record import Frozen, _set

Monomial = tuple  # tuple of non-negative ints, one per variable


class MonomialOrder(Frozen):
    __slots__ = ("name",)

    def key(self, e: Monomial):
        if self.name == "degrevlex":
            return (sum(e), tuple(-x for x in reversed(e)))
        if self.name == "lex":
            return tuple(e)
        raise ValueError(f"unknown monomial order {self.name!r}")


DEGREVLEX = MonomialOrder("degrevlex")
LEX = MonomialOrder("lex")


class Polynomial(Frozen):
    """Terms sorted descending in the ambient order; no zero coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: tuple):
        """``terms``: a tuple of (monomial, coefficient)."""
        _set(self, "terms", terms)

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def lead(self):
        if not self.terms:
            raise ValueError("zero polynomial has no lead term")
        return self.terms[0]

    @property
    def lead_monomial(self) -> Monomial:
        return self.lead[0]


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a: Monomial, b: Monomial) -> bool:
    return all(x <= y for x, y in zip(a, b))


def mono_div(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x - y for x, y in zip(a, b))


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


class PolyRing:
    """The ambient polynomial ring: field, named variables, term order."""

    def __init__(self, field: Field, names: list[str], order: MonomialOrder = DEGREVLEX):
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        self.field = field
        self.names = list(names)
        self.nvars = len(names)
        self.order = order

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and self.field == other.field
            and self.names == other.names
            and self.order == other.order
        )

    def __hash__(self):
        return hash((self.field, tuple(self.names), self.order.name))

    def poly(self, coeffs: dict) -> Polynomial:
        """Build a polynomial from {monomial: coefficient}."""
        terms = []
        for m, c in coeffs.items():
            m = tuple(m)
            if len(m) != self.nvars or any(e < 0 for e in m):
                raise ValueError(f"bad exponent vector {m}")
            c = self.field.canon(c)
            if c != 0:
                terms.append((m, c))
        terms.sort(key=lambda t: self.order.key(t[0]), reverse=True)
        return Polynomial(tuple(terms))

    def variable(self, i: int) -> Polynomial:
        e = [0] * self.nvars
        e[i] = 1
        return self.poly({tuple(e): self.field.one})

    def monomial(self, m: Monomial) -> Polynomial:
        return self.poly({tuple(m): self.field.one})

    def add(self, f: Polynomial, g: Polynomial) -> Polynomial:
        acc = dict(f.terms)
        for m, c in g.terms:
            acc[m] = self.field.add(acc.get(m, self.field.zero), c)
        return self.poly(acc)

    def sub(self, f: Polynomial, g: Polynomial) -> Polynomial:
        return self.add(f, self.scale(g, self.field.neg(self.field.one)))

    def scale(self, f: Polynomial, c) -> Polynomial:
        c = self.field.canon(c)
        return self.poly({m: self.field.mul(cc, c) for m, cc in f.terms})

    def mul(self, f: Polynomial, g: Polynomial) -> Polynomial:
        acc: dict = {}
        for mf, cf in f.terms:
            for mg, cg in g.terms:
                m = mono_mul(mf, mg)
                acc[m] = self.field.add(acc.get(m, self.field.zero), self.field.mul(cf, cg))
        return self.poly(acc)

    def term_mul(self, m: Monomial, c, f: Polynomial) -> Polynomial:
        return self.poly(
            {mono_mul(m, mf): self.field.mul(c, cf) for mf, cf in f.terms}
        )

    def monic(self, f: Polynomial) -> Polynomial:
        if f.is_zero():
            return f
        return self.scale(f, self.field.inv(f.lead[1]))

    def normal_form(self, f: Polynomial, basis: Iterable[Polynomial]) -> Polynomial:
        """Full multivariate division remainder of f by ``basis``."""
        basis = [g for g in basis if not g.is_zero()]
        rem: dict = {}
        work = dict(f.terms)
        while work:
            m = max(work, key=self.order.key)
            c = work.pop(m)
            if c == 0:
                continue
            for g in basis:
                lm, lc = g.lead
                if mono_divides(lm, m):
                    q = mono_div(m, lm)
                    factor = self.field.div(c, lc)
                    for mg, cg in g.terms[1:]:
                        mm = mono_mul(q, mg)
                        work[mm] = self.field.sub(
                            work.get(mm, self.field.zero), self.field.mul(factor, cg)
                        )
                    break
            else:
                rem[m] = self.field.add(rem.get(m, self.field.zero), c)
        return self.poly(rem)

    def s_poly(self, f: Polynomial, g: Polynomial) -> Polynomial:
        lmf, lcf = f.lead
        lmg, lcg = g.lead
        l = mono_lcm(lmf, lmg)
        a = self.term_mul(mono_div(l, lmf), self.field.inv(lcf), f)
        b = self.term_mul(mono_div(l, lmg), self.field.inv(lcg), g)
        return self.sub(a, b)

    # -- printing -----------------------------------------------------
    def format_monomial(self, m: Monomial) -> str:
        parts = []
        for name, e in zip(self.names, m):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts) if parts else "1"

    def format_poly(self, f: Polynomial) -> str:
        if f.is_zero():
            return "0"
        parts = []
        for m, c in f.terms:
            mono = self.format_monomial(m)
            if mono == "1":
                parts.append(str(c))
            elif c == self.field.one:
                parts.append(mono)
            else:
                parts.append(f"{c}*{mono}")
        return " + ".join(parts)
