"""Shared fixtures: small benchmark algebras, element helpers and the
Python reference elimination the linear algebra is checked against."""

from fractions import Fraction

import pytest

from ezdlab.algebra import Algebra
from ezdlab.groebner import QuotientPresentation
from ezdlab.linalg import Field
from ezdlab.poly import PolyRing

GF101 = Field(101)
GF2 = Field(2)
QQ = Field(None)

# the dense-Matrix entry points of the elimination, wherever they are bound
DENSE_ENTRY_POINTS = ("rref", "rank", "kernel_basis", "solve_matrix", "inverse",
                      "image_basis", "is_invertible", "_quotient_space")


def _int_rref(rows, p):
    """Reduced row echelon form and pivots of a list of rows, by textbook
    Gauss-Jordan elimination in Python ints mod p, or in Fractions when p
    is None.  It shares no code with ``ezdlab.linalg``."""
    norm = (lambda v: v % p) if p is not None else Fraction
    a = [[norm(v) for v in r] for r in rows]
    pivots, r = [], 0
    for c in range(len(a[0]) if a else 0):
        hit = next((i for i in range(r, len(a)) if a[i][c]), None)
        if hit is None:
            continue
        a[r], a[hit] = a[hit], a[r]
        inv = pow(a[r][c], p - 2, p) if p is not None else 1 / a[r][c]
        a[r] = [norm(v * inv) for v in a[r]]
        for t in range(len(a)):
            if t != r and a[t][c]:
                f = a[t][c]
                a[t] = [norm(v - f * w) for v, w in zip(a[t], a[r])]
        pivots.append(c)
        r += 1
    return a, tuple(pivots)


def _int_kernel(rows, ncols, p):
    """The kernel basis ``kernel_basis`` must give, as lists of rows, from
    ``_int_rref``: column k is the solution whose k-th free variable is one
    and whose other free variables are zero."""
    red, pivots = _int_rref(rows, p)
    free = [j for j in range(ncols) if j not in pivots]
    zero, one = (0, 1) if p is not None else (Fraction(0), Fraction(1))
    out = [[zero] * len(free) for _ in range(ncols)]
    for k, j in enumerate(free):
        out[j][k] = one
        for r, pc in enumerate(pivots):
            out[pc][k] = -red[r][j] % p if p is not None else -red[r][j]
    return out


def _int_matmul(a, b, p):
    """a @ b for lists of rows, in Python ints mod p, or in the entries'
    own arithmetic (Fractions) when p is None."""
    out = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]
    return [[x % p for x in row] for row in out] if p is not None else out


def make_algebra(field, names, gen_specs):
    """Build k[names]/(ideal) from generator specs {monomial: coeff}."""
    ring = PolyRing(field, list(names))
    gens = [ring.poly({m: field.canon(c) for m, c in spec.items()}) for spec in gen_specs]
    return Algebra(QuotientPresentation(ring, gens))


def reference_table(algebra):
    """The multiplication table from normal forms alone, as Python ints mod
    p or Fractions: entry [i][r][j] is coordinate r of NF(m_i * m_j), so
    entry [i] is the matrix of multiplication by staircase monomial m_i,
    in the layout of ``Algebra.mult_stack``."""
    pres, ring = algebra.presentation, algebra.ring
    monos = [ring.monomial(m) for m in algebra.staircase]
    columns = [[pres.normal_form_coords(ring.mul(a, b)) for b in monos] for a in monos]
    return [[list(row) for row in zip(*cols)] for cols in columns]


def var(algebra, i, power=1):
    """The element x_i^power of the algebra."""
    mono = tuple(power if j == i else 0 for j in range(algebra.nvars))
    return algebra.element_from_poly(algebra.ring.monomial(mono))


@pytest.fixture(scope="session")
def hyper2():
    """k[x]/(x^2) over GF(101)."""
    return make_algebra(GF101, ["x"], [{(2,): 1}])


@pytest.fixture(scope="session")
def hyper4():
    """k[x]/(x^4) over GF(101)."""
    return make_algebra(GF101, ["x"], [{(4,): 1}])


@pytest.fixture(scope="session")
def square_zero():
    """R = k[x,y]/(x,y)^2 over GF(101), dim 3."""
    return make_algebra(GF101, ["x", "y"], [{(2, 0): 1}, {(1, 1): 1}, {(0, 2): 1}])


@pytest.fixture(scope="session")
def ci():
    """k[x,y]/(x*y, x^2 - y^2) over GF(101), dim 4; (x, y) is an exact
    zero-divisor pair."""
    return make_algebra(
        GF101, ["x", "y"], [{(1, 1): 1}, {(2, 0): 1, (0, 2): -1}]
    )


@pytest.fixture(scope="session")
def sprime():
    """S' = (k[x,y]/(x,y)^2)[u]/(u^2) over GF(101), dim 6; (u, u) is an
    exact zero-divisor pair."""
    return make_algebra(
        GF101,
        ["x", "y", "u"],
        [{(2, 0, 0): 1}, {(1, 1, 0): 1}, {(0, 2, 0): 1}, {(0, 0, 2): 1}],
    )
