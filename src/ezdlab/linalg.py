"""Exact linear algebra over GF(p) and the rationals: dense ``Matrix``
values, one sparse elimination.

Matrices over GF(p) are stored as int64 numpy arrays with entries in
[0, p); rational matrices use object arrays of Fraction.  Everything is
immutable after construction and all operations are pure.

``Matrix`` takes a read-only array of the field's dtype (int64 over GF(p),
object over QQ) as it is, without reducing or copying it.  Such an array
must therefore be canonical (every entry in [0, p), or a Fraction) and
owned by no one else: nothing may still hold a writable view of it.
``_adopt`` freezes an array its caller has just allocated for that path.

Every row reduction runs on sparse lines (rows or columns), dicts
{index: nonzero coefficient} of Python ints in [0, p) or Fractions, with
one code path for both fields.  ``_echelon_insert`` adds a line to a
semi-echelon basis; ``_sparse_rank`` counts the lines it accepts, and
``_sparse_rref`` back-substitutes the basis to the unique reduced row
echelon form, from which ``_sparse_kernel`` reads the kernel.  The
``Matrix`` entry points (``rref``, ``rank``, ``kernel_basis``,
``solve_matrix``, ``inverse``, ``image_basis``) convert with
``_sparse_columns`` and back with ``_dense``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

import numpy as np

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

# int64 products of two residues stay exact only while p < 2^31
_PRIME_CAP = 2**31
_INT64_MAX = 2**63 - 1


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
        return f"GF({p}) is too large: exact int64 arithmetic needs p < 2^31"
    if not _is_prime(p):
        return f"{p} is not prime"
    return None


@dataclass(frozen=True)
class Field:
    """GF(p) for a prime p, or the rationals when p is None."""

    p: Optional[int] = None

    def __post_init__(self):
        if self.p is not None:
            err = prime_field_error(self.p)
            if err:
                raise ValueError(err)

    @staticmethod
    def prime(p: int) -> "Field":
        return Field(p)

    @staticmethod
    def rationals() -> "Field":
        return Field(None)

    # scalar helpers (used by the polynomial layer, which is not numpy-backed)
    def canon(self, a):
        if self.p is not None:
            return int(a) % self.p
        return Fraction(a)

    def add(self, a, b):
        return (a + b) % self.p if self.p is not None else a + b

    def sub(self, a, b):
        return (a - b) % self.p if self.p is not None else a - b

    def mul(self, a, b):
        return (a * b) % self.p if self.p is not None else a * b

    def neg(self, a):
        return (-a) % self.p if self.p is not None else -a

    def inv(self, a):
        if self.p is not None:
            a = a % self.p
            if a == 0:
                raise ZeroDivisionError("inverse of zero")
            return pow(a, self.p - 2, self.p)
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return Fraction(1) / a

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    @property
    def zero(self):
        return 0 if self.p is not None else Fraction(0)

    @property
    def one(self):
        return 1 if self.p is not None else Fraction(1)

    def __str__(self) -> str:
        return f"GF({self.p})" if self.p is not None else "QQ"


GF101 = Field.prime(101)


def _canon_array(field: Field, arr) -> np.ndarray:
    if field.p is not None:
        a = np.asarray(arr, dtype=np.int64) % field.p
    else:
        src = np.asarray(arr, dtype=object)
        a = np.empty(src.shape, dtype=object)
        flat_src = src.reshape(-1)
        flat = a.reshape(-1)
        for i in range(flat_src.size):
            flat[i] = Fraction(flat_src[i])
    a.setflags(write=False)
    return a


def _dot(a: np.ndarray, b: np.ndarray, p: Optional[int]) -> np.ndarray:
    """``a @ b``, reduced mod p over GF(p), exact for every p < 2^31.

    At most k products are summed before a reduction, with
    k (p - 1)^2 < 2^63 (delayed reduction, as in FFLAS-FFPACK), so no int64
    sum wraps.  With p = None (QQ) it is plain object arithmetic.
    """
    # for a 2-D b, dot is matmul with less call overhead on small matrices
    mul = np.dot if b.ndim == 2 else np.matmul
    if p is None:
        return mul(a, b)
    n = a.shape[-1]
    k = _INT64_MAX // (p - 1) ** 2
    if n <= k:
        return mul(a, b) % p
    out = mul(a[..., :k], b[..., :k, :]) % p
    for s in range(k, n, k):
        out += mul(a[..., s : s + k], b[..., s : s + k, :]) % p
        out %= p
    return out


def _linear_combination(field, coeffs: np.ndarray, mats: list, shape: tuple) -> np.ndarray:
    """The sums of coeffs[i, k] * mats[k] over k, one per row i of
    ``coeffs``, as an array of matrices of the given shape: one ``_dot`` of
    the coefficients against the stacked matrices, so exact for every p."""
    size = shape[0] * shape[1]
    if mats:
        stack = np.array([m.data for m in mats]).reshape(len(mats), size)
    else:
        stack = Matrix.zeros(field, 0, size).data
    return _dot(coeffs, stack, field.p).reshape(len(coeffs), *shape)


def _sparse_matmul(field: Field, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` from the nonzeros of ``a`` alone: each adds one scaled row
    of b, so the cost is nnz(a) row operations and no zero is multiplied."""
    rows, cols = a.nonzero()
    terms = a[rows, cols][:, None] * b[cols]
    out = Matrix.zeros(field, len(a), b.shape[1]).data.copy()
    if field.p is not None:
        terms %= field.p  # so each entry of out sums residues, at most len(b) of them
    np.add.at(out, rows, terms)
    if field.p is not None:
        out %= field.p
    return out


def _adopt(field: Field, arr: np.ndarray) -> "Matrix":
    """Wrap ``arr`` without reducing it again.

    Only for an array the caller has just allocated and knows is canonical:
    a GF(p) int64 array already reduced mod p, or a fresh array of
    Fractions.  ``arr`` is frozen in place, so it must not be a view of
    anyone else's writable array.
    """
    arr.setflags(write=False)
    return Matrix(field, arr)


class Matrix:
    """An immutable exact matrix over a :class:`Field`."""

    __slots__ = ("field", "data")

    def __init__(self, field: Field, data):
        self.field = field
        if isinstance(data, np.ndarray) and data.flags.writeable is False and (
            (field.p is not None and data.dtype == np.int64)
            or (field.p is None and data.dtype == object)
        ):
            self.data = data
        else:
            self.data = _canon_array(field, data)
        if self.data.ndim != 2:
            raise ValueError("matrix data must be 2-dimensional")

    # -- constructors -------------------------------------------------
    @staticmethod
    def from_rows(field: Field, rows: Iterable[Iterable]) -> "Matrix":
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        if field.p is not None:
            return Matrix(field, np.array(rows, dtype=np.int64).reshape(len(rows), ncols))
        arr = np.empty((len(rows), ncols), dtype=object)
        for i, r in enumerate(rows):
            for j, v in enumerate(r):
                arr[i, j] = Fraction(v)
        return Matrix(field, arr)

    @staticmethod
    def zeros(field: Field, rows: int, cols: int) -> "Matrix":
        if field.p is not None:
            return _adopt(field, np.zeros((rows, cols), dtype=np.int64))
        return _adopt(field, np.full((rows, cols), Fraction(0), dtype=object))

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        m = Matrix.zeros(field, n, n).data.copy()
        for i in range(n):
            m[i, i] = field.one
        return _adopt(field, m)

    @staticmethod
    def column(field: Field, entries: Iterable) -> "Matrix":
        return Matrix.from_rows(field, [[e] for e in entries])

    @staticmethod
    def hstack(mats: list["Matrix"]) -> "Matrix":
        return _adopt(mats[0].field, np.hstack([m.data for m in mats]))

    @staticmethod
    def vstack(mats: list["Matrix"]) -> "Matrix":
        return _adopt(mats[0].field, np.vstack([m.data for m in mats]))

    @staticmethod
    def block_diag(mats: list["Matrix"]) -> "Matrix":
        field = mats[0].field
        r = sum(m.rows for m in mats)
        c = sum(m.cols for m in mats)
        out = Matrix.zeros(field, r, c).data.copy()
        i = j = 0
        for m in mats:
            out[i : i + m.rows, j : j + m.cols] = m.data
            i += m.rows
            j += m.cols
        return _adopt(field, out)

    # -- basics -------------------------------------------------------
    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.data.shape == other.data.shape
            and bool(np.array_equal(self.data, other.data))
        )

    def __hash__(self):
        if self.field.p is not None:
            return hash((self.field, self.data.shape, self.data.tobytes()))
        return hash((self.field, self.data.shape, tuple(self.data.reshape(-1))))

    def __repr__(self):
        return f"Matrix({self.field}, {self.data.tolist()!r})"

    def entry(self, i: int, j: int):
        return self.data[i, j]

    def is_zero(self) -> bool:
        if self.field.p is not None:
            return not self.data.any()
        return all(v == 0 for v in self.data.reshape(-1))

    def to_lists(self):
        return [list(r) for r in self.data.tolist()]

    # -- arithmetic ---------------------------------------------------
    def _wrap(self, arr) -> "Matrix":
        if self.field.p is not None:
            arr %= self.field.p
        return _adopt(self.field, arr)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._wrap(self.data + other.data)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._wrap(self.data - other.data)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.data.shape} @ {other.data.shape}")
        if self.field.p is not None:
            return _adopt(self.field, _dot(self.data, other.data, self.field.p))
        # a Fraction product costs a gcd even by zero, so skip the zeros
        return _adopt(self.field, _sparse_matmul(self.field, self.data, other.data))

    @property
    def T(self) -> "Matrix":
        return _adopt(self.field, np.ascontiguousarray(self.data.T))


@dataclass(frozen=True)
class RrefResult:
    reduced: Matrix
    pivot_columns: tuple
    rank: int


def _sparse_lines(count: int, major, minor, vals) -> list:
    """``count`` sparse lines; entry e goes to line major[e] at minor[e]."""
    out = [{} for _ in range(count)]
    for i, j, x in zip(major.tolist(), minor.tolist(), vals.tolist()):
        out[i][j] = x
    return out


def _sparse_columns(a: np.ndarray) -> list:
    """The columns of a 2-D array, sparse; ``a.T`` gives its rows."""
    i, j = a.nonzero()
    return _sparse_lines(a.shape[1], j, i, a[i, j])


def _dense(field: Field, rows: int, cols) -> Matrix:
    """The Matrix with these sparse columns; ``.T`` of it for sparse rows."""
    out = Matrix.zeros(field, rows, len(cols)).data.copy()
    for j, col in enumerate(cols):
        out[list(col), j] = list(col.values())
    return _adopt(field, out)


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
    basis = _sparse_rref(_sparse_columns(m.data.T), m.field.p)
    pivots = tuple(sorted(basis))
    rows = [basis[c] for c in pivots] + [{}] * (m.rows - len(pivots))
    return RrefResult(_dense(m.field, m.cols, rows).T, pivots, len(pivots))


def rank(m: Matrix) -> int:
    return _sparse_rank(_sparse_columns(m.data), m.field.p)


def kernel_basis(m: Matrix) -> Matrix:
    """Columns span the null space of ``m``; column count = cols - rank.

    Column k is the solution whose k-th free variable (in column order) is
    one and whose other free variables are zero.
    """
    kernel = _sparse_kernel(_sparse_columns(m.data.T), m.cols, m.field.p)
    return _dense(m.field, m.cols, kernel.values())


def solve_matrix(a: Matrix, b: Matrix) -> Optional[Matrix]:
    """Solve a X = B columnwise; None if any column is unsolvable."""
    if b.rows != a.rows:
        raise ValueError("dimension mismatch between matrix and right-hand side")
    n = a.cols
    basis = _sparse_rref(_sparse_columns(np.hstack([a.data, b.data]).T), a.field.p)
    if any(c >= n for c in basis):
        return None  # a pivot fell in the b block: inconsistent system
    # row c of X is the b block of the reduced row with pivot c, if any
    rows = [{k - n: x for k, x in basis[c].items() if k >= n} if c in basis else {}
            for c in range(n)]
    return _dense(a.field, b.cols, rows).T


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
    keep = [j for j, v in enumerate(_sparse_columns(m.data))
            if _echelon_insert(basis, v, m.field.p)]
    return _adopt(m.field, m.data[:, keep])
