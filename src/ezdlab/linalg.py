"""Exact dense linear algebra over GF(p) and the rationals.

Matrices over GF(p) are stored as int64 numpy arrays with entries in
[0, p); rational matrices use object arrays of Fraction.  Everything is
immutable after construction and all operations are pure.

``Matrix`` takes a read-only array of the field's dtype (int64 over GF(p),
object over QQ) as it is, without reducing or copying it.  Such an array
must therefore be canonical (every entry in [0, p), or a Fraction) and
owned by no one else: nothing may still hold a writable view of it.
``_adopt`` freezes an array its caller has just allocated for that path.
``_rref_hstack`` owns the one array it joins its blocks into: it reduces
that array in place and hands it back, so callers may slice or adopt it.

``_echelon_insert`` and ``_sparse_kernel`` work instead on sparse columns,
dicts {index: nonzero coefficient} of Python ints in [0, p) or Fractions,
for matrices that are almost all zeros.
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
    "solve",
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

    def col(self, j: int) -> "Matrix":
        return Matrix(self.field, self.data[:, j : j + 1])

    def is_zero(self) -> bool:
        if self.field.p is not None:
            return not self.data.any()
        return all(v == 0 for v in self.data.reshape(-1))

    def to_lists(self):
        return [list(r) for r in self.data.tolist()]

    # -- arithmetic ---------------------------------------------------
    def _wrap(self, arr) -> "Matrix":
        if self.field.p is not None:
            return _adopt(self.field, arr % self.field.p)
        # object arithmetic can yield plain ints (an empty dot product is 0)
        return Matrix(self.field, arr)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._wrap(self.data + other.data)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._wrap(self.data - other.data)

    def __neg__(self) -> "Matrix":
        return self._wrap(-self.data)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.data.shape} @ {other.data.shape}")
        if self.field.p is not None:
            return _adopt(self.field, _dot(self.data, other.data, self.field.p))
        return self._wrap(self.data.dot(other.data))

    @property
    def T(self) -> "Matrix":
        return _adopt(self.field, np.ascontiguousarray(self.data.T))


@dataclass(frozen=True)
class RrefResult:
    reduced: Matrix
    pivot_columns: tuple
    rank: int


def _rref_inplace(a: np.ndarray, field: Field):
    """Row-reduce ``a`` in place; returns pivot column list."""
    p = field.p
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        sub = a[r:, c]
        if p is not None:
            nz = np.nonzero(sub)[0]
        else:
            nz = np.array([i for i in range(sub.shape[0]) if sub[i] != 0])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        if p is not None:
            inv = pow(int(a[r, c]), p - 2, p)
            a[r] = (a[r] * inv) % p
            colv = a[:, c].copy()
            colv[r] = 0
            tgt = np.nonzero(colv)[0]
            if tgt.size:
                # row r is zero left of its pivot, so columns < c stay as they are
                a[tgt, c:] = (a[tgt, c:] - np.outer(colv[tgt], a[r, c:])) % p
        else:
            inv = Fraction(1) / a[r, c]
            a[r] = a[r] * inv
            for t in range(rows):
                if t != r and a[t, c] != 0:
                    a[t] = a[t] - a[t, c] * a[r]
        pivots.append(c)
        r += 1
    return pivots


def _rref_hstack(blocks: list) -> tuple:
    """Reduced row echelon form of ``[blocks[0] | blocks[1] | ...]`` and its
    pivot columns.

    The blocks (Matrices over one field, with equal row counts) are joined
    into one fresh array, which is reduced in place and returned.  Pivot
    columns to the right of a block depend only on the span of the columns
    left of them, so a caller may pass a spanning set there, not a basis.
    """
    field = blocks[0].field
    a = np.hstack([b.data for b in blocks])
    return a, _rref_inplace(a, field)


def rref(m: Matrix) -> RrefResult:
    a, pivots = _rref_hstack([m])
    return RrefResult(_adopt(m.field, a), tuple(pivots), len(pivots))


def rank(m: Matrix) -> int:
    return rref(m).rank


def kernel_basis(m: Matrix) -> Matrix:
    """Columns span the null space of ``m``; column count = cols - rank.

    Column k is the solution whose k-th free variable (in column order) is
    one and whose other free variables are zero.
    """
    return _kernel_with_free(m)[0]


def _kernel_with_free(m: Matrix):
    """``kernel_basis(m)`` and the indices of its free rows.

    Those rows of the basis form an identity block, so the coordinates of
    any vector in the kernel are its entries on them.
    """
    res = rref(m)
    field = m.field
    pivots = np.array(res.pivot_columns, dtype=np.intp)
    is_free = np.ones(m.cols, dtype=bool)
    is_free[pivots] = False
    free = np.flatnonzero(is_free)
    # coeffs is a copy, so the reduced matrix is freed before the basis is
    # allocated, and it is negated in place: large kernels peak lower
    coeffs = res.reduced.data[: res.rank][:, free]
    del res
    if field.p is not None:
        out = np.zeros((m.cols, free.size), dtype=np.int64)
        np.negative(coeffs, out=coeffs)
        coeffs %= field.p
        out[pivots] = coeffs
    else:
        out = np.full((m.cols, free.size), Fraction(0), dtype=object)
        out[pivots] = -coeffs
    out[free, np.arange(free.size)] = field.one
    return _adopt(field, out), free


def _sub_scaled(v: dict, c, b: dict, p: Optional[int]) -> list:
    """v -= c * b on sparse columns, in place; returns the indices new to v."""
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
    """Add the sparse column ``v`` to ``basis`` if it is independent of the
    columns already inserted; return whether it was.

    ``basis`` maps each pivot to a stored column whose least index is that
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


def _sparse_kernel(rows: Iterable[dict], ncols: int, p: Optional[int]) -> list:
    """``kernel_basis`` of the matrix with these sparse rows (consumed) and
    ``ncols`` columns, as sparse columns in the same order.

    The rows are inserted into a semi-echelon basis, which is then reduced
    from its highest pivot down to the unique reduced row echelon form, so
    the kernel is the one the dense route gives, entry for entry.
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
    one = 1 if p is not None else Fraction(1)
    cols = {f: {f: one} for f in range(ncols) if f not in basis}
    for c, row in basis.items():
        for k, x in row.items():
            if k != c:
                cols[k][c] = -x % p if p is not None else -x
    return list(cols.values())


def solve(a: Matrix, b: Matrix) -> Optional[Matrix]:
    """One solution of a x = b (b a column), or None if b is not in im(a)."""
    if b.rows != a.rows:
        raise ValueError("dimension mismatch between matrix and right-hand side")
    x = solve_matrix(a, b)
    return x


def solve_matrix(a: Matrix, b: Matrix) -> Optional[Matrix]:
    """Solve a X = B columnwise; None if any column is unsolvable."""
    if b.rows != a.rows:
        raise ValueError("dimension mismatch between matrix and right-hand side")
    red, pivots = _rref_hstack([a, b])
    if pivots and pivots[-1] >= a.cols:
        return None  # a pivot fell in the b block: inconsistent system
    out = Matrix.zeros(a.field, a.cols, b.cols).data.copy()
    out[pivots] = red[: len(pivots), a.cols :]
    return _adopt(a.field, out)


def inverse(m: Matrix) -> Optional[Matrix]:
    if m.rows != m.cols:
        return None
    x = solve_matrix(m, Matrix.identity(m.field, m.rows))
    if x is None:
        return None
    # solve_matrix succeeding on the identity forces full rank
    return x


def is_invertible(m: Matrix) -> bool:
    return m.rows == m.cols and rank(m) == m.rows


def image_basis(m: Matrix) -> Matrix:
    """A basis of the column space, as columns of the original matrix."""
    res = rref(m)
    cols = [m.data[:, [c]] for c in res.pivot_columns]
    if not cols:
        return Matrix.zeros(m.field, m.rows, 0)
    return _adopt(m.field, np.hstack(cols))
