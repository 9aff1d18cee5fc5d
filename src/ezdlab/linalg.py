"""Exact linear algebra over GF(p) and the rationals: sparse ``Matrix``
values, one sparse elimination.

A ``Matrix`` is an immutable shape plus sparse rows, dicts {column:
nonzero} of Python ints in [0, p) over GF(p) or Fractions over QQ, with
one code path for both fields.  A product runs over the nonzeros of its
left factor, so no zero is multiplied; sums, transposes, stacks and
block diagonals work on the rows directly.  The package never reads
``Matrix.data``, the dense numpy copy kept for tests and tools, so no
ezdlab process imports numpy.

Every row reduction runs on sparse lines (rows or columns) of the same
form.  ``_echelon_insert`` adds a line to a semi-echelon basis;
``_sparse_rank`` counts the lines it accepts, and ``_sparse_rref``
back-substitutes the basis to the unique reduced row echelon form, from
which ``_sparse_kernel`` reads the kernel.  The ``Matrix`` entry points
(``rref``, ``rank``, ``kernel_basis``, ``solve_matrix``, ``inverse``,
``image_basis``) hand it fresh lines from ``Matrix.sparse_rows`` or
``Matrix.sparse_columns`` and adopt the lines it returns.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from typing import Iterable, Optional

from .record import Frozen, _set


__all__ = [
    "Field",
    "Matrix",
    "RrefResult",
    "rref",
    "kernel_basis",
    "solve_matrix",
    "inverse",
]


# Miller-Rabin with these bases is exact for every n below 3.3 * 10^24
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# every prime GF(p) accepts is below this cap
_PRIME_CAP = 2**31


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        y = pow(b, d, n)
        if y in (1, n - 1):
            continue
        for _ in range(s - 1):
            y = y * y % n
            if y == n - 1:
                break
        else:
            return False
    return True


def prime_field_error(p: int) -> Optional[str]:
    """Why GF(p) cannot be computed with exactly, or None if it can."""
    if p >= _PRIME_CAP:
        return f"GF({p}) is too large: the supported fields have p < 2^31"
    if not _is_prime(p):
        return f"{p} is not prime"
    return None


class Field(Frozen):
    """GF(p) for a prime p, or the rationals when p is None."""

    __slots__ = ("p",)

    def __init__(self, p: Optional[int] = None):
        if p is not None:
            err = prime_field_error(p)
            if err:
                raise ValueError(err)
        _set(self, "p", p)

    # scalar helpers
    def canon(self, a):
        if self.p is not None:
            return int(a) % self.p
        return Fraction(a)

    def inv(self, a):
        if self.p is not None:
            a = a % self.p
            if a == 0:
                raise ZeroDivisionError("inverse of zero")
            return pow(a, self.p - 2, self.p)
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return Fraction(1) / a

    @property
    def zero(self):
        return 0 if self.p is not None else Fraction(0)

    @property
    def one(self):
        return 1 if self.p is not None else Fraction(1)

    def __str__(self) -> str:
        return f"GF({self.p})" if self.p is not None else "QQ"


def _reduce(lines: list, p: Optional[int]) -> list:
    """The sparse lines with every entry reduced mod p (over GF(p)) and the
    zeros dropped: the canonical form a ``Matrix`` stores."""
    if p is None:
        return [{j: x for j, x in line.items() if x} for line in lines]
    return [{j: y for j, x in line.items() if (y := x % p)} for line in lines]


class Matrix:
    """An immutable exact matrix over a :class:`Field`: its shape and its
    sparse rows.  ``nz[i]`` is row i as a dict {column: nonzero entry}, of
    Python ints in [0, p) over GF(p) or Fractions over QQ.  No row is
    changed after construction, so matrices may share rows; a caller that
    consumes lines takes fresh ones from ``sparse_rows``/``sparse_columns``.
    ``from_rows`` builds one from dense rows of any integers or rationals.
    The hash is computed on first use and kept in ``_hash``, which no
    constructor sets.
    """

    __slots__ = ("field", "rows", "cols", "nz", "_hash")

    def __init__(self, field: Field, cols: int, nz):
        """The matrix with ``cols`` columns and the sparse rows ``nz``,
        adopted as they are: each must be canonical (no zero, every entry
        reduced) and no one else's to change."""
        self.field = field
        self.nz = tuple(nz)
        self.rows = len(self.nz)
        self.cols = cols

    # -- constructors -------------------------------------------------
    @staticmethod
    def from_rows(field: Field, rows: Iterable[Iterable]) -> "Matrix":
        """The matrix with these dense rows, reduced."""
        dense = [list(r) for r in rows]
        ncols = len(dense[0]) if dense else 0
        if any(len(r) != ncols for r in dense):
            raise ValueError("ragged rows")
        canon = field.canon
        return Matrix(field, ncols,
                      [{j: y for j, x in enumerate(r) if (y := canon(x))} for r in dense])

    @staticmethod
    def from_sparse_columns(field: Field, rows: int, lines) -> "Matrix":
        """The matrix with these sparse, canonical columns (read, not kept)."""
        out = [{} for _ in range(rows)]
        lines = list(lines)
        for j, col in enumerate(lines):
            for i, x in col.items():
                out[i][j] = x
        return Matrix(field, len(lines), out)

    @staticmethod
    def zeros(field: Field, rows: int, cols: int) -> "Matrix":
        return Matrix(field, cols, [{} for _ in range(rows)])

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        return Matrix(field, n, [{i: field.one} for i in range(n)])

    @staticmethod
    def column(field: Field, entries: Iterable) -> "Matrix":
        return Matrix.from_rows(field, [[e] for e in entries])

    @staticmethod
    def combination(field: Field, rows: int, cols: int, terms) -> "Matrix":
        """sum c * m over the (c, m) in ``terms``, each m rows x cols."""
        acc = [{} for _ in range(rows)]
        for c, m in terms:
            for out, line in zip(acc, m.nz):
                for j, x in line.items():
                    out[j] = out.get(j, 0) + c * x
        return Matrix(field, cols, _reduce(acc, field.p))

    @staticmethod
    def hstack(mats: list["Matrix"]) -> "Matrix":
        out = [{} for _ in range(mats[0].rows)]
        s = 0
        for m in mats:
            for line, row in zip(out, m.nz):
                for j, x in row.items():
                    line[s + j] = x
            s += m.cols
        return Matrix(mats[0].field, s, out)

    @staticmethod
    def vstack(mats: list["Matrix"]) -> "Matrix":
        return Matrix(mats[0].field, mats[0].cols, [row for m in mats for row in m.nz])

    @staticmethod
    def block_diag(mats: list["Matrix"]) -> "Matrix":
        out = []
        s = 0
        for m in mats:
            out += [{s + j: x for j, x in row.items()} for row in m.nz]
            s += m.cols
        return Matrix(mats[0].field, s, out)

    # -- basics -------------------------------------------------------
    @property
    def data(self):
        """A fresh read-only numpy copy: int64 over GF(p), object Fractions
        over QQ.  For tests and tools; the package itself never reads it."""
        import numpy as np

        dtype = np.int64 if self.field.p is not None else object
        arr = np.empty((self.rows, self.cols), dtype=dtype)
        arr[...] = self.field.zero
        for i, row in enumerate(self.nz):
            for j, x in row.items():
                arr[i, j] = x
        arr.setflags(write=False)
        return arr

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self.nz == other.nz
        )

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            self._hash = hash((self.field, self.rows, self.cols,
                               tuple(frozenset(row.items()) for row in self.nz)))
            return self._hash

    def __repr__(self):
        return f"Matrix({self.field}, {self.to_lists()!r})"

    def entry(self, i: int, j: int):
        return self.nz[i].get(j, self.field.zero)

    def is_zero(self) -> bool:
        return not any(self.nz)

    def to_lists(self):
        zero = self.field.zero
        return [[row.get(j, zero) for j in range(self.cols)] for row in self.nz]

    def sparse_rows(self) -> list:
        """Fresh copies of the sparse rows, for a caller to consume."""
        return [dict(row) for row in self.nz]

    def sparse_columns(self) -> list:
        """The sparse columns, fresh."""
        out = [{} for _ in range(self.cols)]
        for i, row in enumerate(self.nz):
            for j, x in row.items():
                out[j][i] = x
        return out

    def select_columns(self, keep) -> "Matrix":
        """The columns ``keep`` (distinct indices), in that order."""
        pos = {j: k for k, j in enumerate(keep)}
        return Matrix(
            self.field, len(pos),
            [{pos[j]: x for j, x in row.items() if j in pos} for row in self.nz])

    # -- arithmetic ---------------------------------------------------
    def _plus(self, other: "Matrix", sign: int) -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError(f"shape mismatch ({self.rows}, {self.cols}) and "
                             f"({other.rows}, {other.cols})")
        return Matrix.combination(self.field, self.rows, self.cols, ((1, self), (sign, other)))

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._plus(other, 1)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._plus(other, -1)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        """Over the nonzeros of ``self`` alone: each adds one scaled row of
        ``other``, so no zero is multiplied."""
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch ({self.rows}, {self.cols}) @ "
                             f"({other.rows}, {other.cols})")
        b = other.nz
        out = []
        for line in self.nz:
            acc: dict = {}
            for k, x in line.items():
                for j, y in b[k].items():
                    acc[j] = acc.get(j, 0) + x * y
            out.append(acc)
        return Matrix(self.field, other.cols, _reduce(out, self.field.p))

    @property
    def T(self) -> "Matrix":
        return Matrix(self.field, self.rows, self.sparse_columns())


class RrefResult(Frozen):
    __slots__ = ("reduced", "pivot_columns", "rank")


def _sub_scaled(v: dict, c, b: dict, p: Optional[int]) -> list:
    """v -= c * b on sparse lines, in place; returns the indices new to v."""
    new = []
    for k, x in b.items():
        y = v.get(k, 0) - c * x
        if p is not None:
            y %= p
        if y:
            if k not in v:
                new.append(k)
            v[k] = y
        else:
            del v[k]
    return new


def _echelon_insert(basis: dict, v: dict, p: Optional[int]) -> bool:
    """Add the sparse line ``v`` to ``basis`` if it is independent of the
    lines already inserted; return whether it was.

    ``basis`` maps each pivot to a stored line whose least index is that
    pivot, with coefficient 1 there.  ``v`` is consumed: it is reduced in
    place, least index first, until it vanishes or its least index is no
    pivot, and is then stored, scaled, under that index.  ``p`` is None
    over QQ.
    """
    heap = list(v)
    heapq.heapify(heap)
    while heap:
        r = heapq.heappop(heap)
        c = v.get(r)
        if c is None:
            continue
        if r not in basis:
            inv = pow(c, p - 2, p) if p is not None else 1 / c
            basis[r] = {}
            _sub_scaled(basis[r], -inv, v, p)  # basis[r] = inv * v
            return True
        # every index of basis[r] is >= r, so the indices to come only grow
        for k in _sub_scaled(v, c, basis[r], p):
            heapq.heappush(heap, k)
    return False


def _sparse_rank(lines: Iterable[dict], p: Optional[int]) -> int:
    """The rank of the matrix with these sparse rows, or columns (consumed)."""
    basis: dict = {}
    return sum(_echelon_insert(basis, v, p) for v in lines)


def _sparse_rref(rows: Iterable[dict], p: Optional[int]) -> dict:
    """The reduced row echelon form of the matrix with these sparse rows
    (consumed), as {pivot column: reduced row}.

    The rows are inserted into a semi-echelon basis, which is then reduced
    from its highest pivot down, so each row is zero at every other pivot.
    The form is unique, so it equals a dense Gauss-Jordan reduction entry
    for entry.
    """
    basis: dict = {}
    for row in rows:
        _echelon_insert(basis, row, p)
    for c in sorted(basis, reverse=True):
        row = basis[c]
        # the rows with higher pivots are reduced already: subtracting one
        # brings in no pivot index
        for k in [k for k in row if k != c and k in basis]:
            _sub_scaled(row, row[k], basis[k], p)
    return basis


def _sparse_kernel(rows: Iterable[dict], ncols: int, p: Optional[int]) -> dict:
    """The kernel of the matrix with these sparse rows (consumed) and
    ``ncols`` columns, as {free column f: sparse kernel column}.

    Column f is the solution whose free variable f is one and whose other
    free variables are zero; the free columns are the non-pivots of
    ``_sparse_rref``, in column order.
    """
    basis = _sparse_rref(rows, p)
    one = 1 if p is not None else Fraction(1)
    cols = {f: {f: one} for f in range(ncols) if f not in basis}
    for c, row in basis.items():
        for k, x in row.items():
            if k != c:
                cols[k][c] = -x % p if p is not None else -x
    return cols


def rref(m: Matrix) -> RrefResult:
    basis = _sparse_rref(m.sparse_rows(), m.field.p)
    pivots = tuple(sorted(basis))
    rows = [basis[c] for c in pivots] + [{} for _ in range(m.rows - len(pivots))]
    return RrefResult(Matrix(m.field, m.cols, rows), pivots, len(pivots))


def rank(m: Matrix) -> int:
    return _sparse_rank(m.sparse_rows(), m.field.p)


def kernel_basis(m: Matrix) -> Matrix:
    """Columns span the null space of ``m``; column count = cols - rank.

    Column k is the solution whose k-th free variable (in column order) is
    one and whose other free variables are zero.
    """
    kernel = _sparse_kernel(m.sparse_rows(), m.cols, m.field.p)
    return Matrix.from_sparse_columns(m.field, m.cols, kernel.values())


def solve_matrix(a: Matrix, b: Matrix) -> Optional[Matrix]:
    """Solve a X = B columnwise; None if any column is unsolvable."""
    if b.rows != a.rows:
        raise ValueError("dimension mismatch between matrix and right-hand side")
    n = a.cols
    joined = [{**ra, **{n + k: x for k, x in rb.items()}} for ra, rb in zip(a.nz, b.nz)]
    basis = _sparse_rref(joined, a.field.p)
    if any(c >= n for c in basis):
        return None  # a pivot fell in the b block: inconsistent system
    # row c of X is the b block of the reduced row with pivot c, if any
    rows = [{k - n: x for k, x in basis[c].items() if k >= n} if c in basis else {}
            for c in range(n)]
    return Matrix(a.field, b.cols, rows)


def inverse(m: Matrix) -> Optional[Matrix]:
    if m.rows != m.cols:
        return None
    # solve_matrix succeeding on the identity forces full rank
    return solve_matrix(m, Matrix.identity(m.field, m.rows))


def is_invertible(m: Matrix) -> bool:
    return m.rows == m.cols and rank(m) == m.rows


def image_basis(m: Matrix) -> Matrix:
    """A basis of the column space, as columns of the original matrix: each
    column outside the span of the columns before it."""
    basis: dict = {}
    keep = [j for j, v in enumerate(m.sparse_columns())
            if _echelon_insert(basis, v, m.field.p)]
    return m.select_columns(keep)
