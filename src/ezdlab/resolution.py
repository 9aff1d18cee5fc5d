"""Minimal free resolutions, truncated Ext/Tor, pd/id bounds, periodicity.

Resolutions are built incrementally.  The state of a module's resolution
lives in the module's ``_resolution`` slot: it is made on the first call,
holds no reference back to the module and is freed with it.  Step i builds
the kernel of d_{i-1} when it starts, so a resolution to bound b never
reduces d_b.  Differentials are stored in algebra-entry form: d_i is one
(b_{i-1}, b_i, dim A) array whose entry [t, j] holds the staircase
coordinates of the algebra element in row t, column j.  Every block matrix
built from it (the k-linear d_i, and the maps of the Hom(F_., N) and
F_. (x) N complexes) comes from one contraction of its nonzero entries with
the (dim A, n, n) stack of monomial actions on the target.

Deep in a resolution these block matrices are almost all zeros, so each
step and each Ext/Tor rank runs on sparse columns (``linalg._echelon_insert``
and ``linalg._sparse_kernel``): d_i as sparse rows, its kernel as sparse
columns, the radical images from one sparse column map per variable.  No
step allocates a dense array the size of d_i.  The dimension budget still
counts free-module dimensions, not stored entries: counting entries would
change which Ext/Tor route fits its budget.

Ext and Tor each have two routes.  Ext resolves its first argument or the
k-dual of its second (over a finite-dimensional algebra, k-duality turns
injective coresolutions into projective resolutions); Tor resolves either
argument.  Both run through one escalation (``_escalate``): both routes at
the smaller size budget, then both at the larger, so a module whose Betti
numbers explode falls back to the other route instead of stalling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linalg import (
    Matrix,
    _adopt,
    _dense,
    _dot,
    _echelon_insert,
    _sparse_columns,
    _sparse_kernel,
    _sparse_lines,
    _sparse_rank,
)
from .module import Iso, Module, _restricted_actions, dual_k, is_isomorphic

__all__ = [
    "ResolutionBudgetExceeded",
    "FreeResolution",
    "minimal_free_resolution",
    "ExtTable",
    "TorTable",
    "ext",
    "tor",
    "Exactly",
    "AtLeast",
    "NEG_INF",
    "pd_bounded",
    "id_bounded",
    "syzygy_periodicity",
]

DEFAULT_RESOLUTION_BUDGET = 10_000
ROUTE_BUDGETS = (1500, DEFAULT_RESOLUTION_BUDGET)


class ResolutionBudgetExceeded(Exception):
    """Total resolution dimension passed the growth cutoff."""


# the homological dimension of the zero module
NEG_INF = float("-inf")


def _block_triplets(entries: np.ndarray, stack: np.ndarray, p, transpose=False):
    """(rows, columns, values) of the nonzero entries of the block matrix
    whose block (t, j), or (j, t) when transposed, is
    sum_k entries[t, j, k] * stack[k].  Transposing moves the block but
    leaves the block itself as it is.

    Only the nonzero blocks, and only the algebra coordinates they use, are
    contracted; differentials deep in a resolution are mostly zero blocks.
    """
    nonzero = entries != 0
    t_idx, j_idx = nonzero.any(axis=2).nonzero()
    used = nonzero.any(axis=(0, 1)).nonzero()[0]
    n = stack.shape[1]
    coeffs = entries[t_idx[:, None], j_idx[:, None], used]
    blocks = _dot(coeffs, stack[used].reshape(used.size, n * n), p)
    blocks = blocks.reshape(t_idx.size, n, n)
    if transpose:
        t_idx, j_idx = j_idx, t_idx
    e, a, b = blocks.nonzero()
    return t_idx[e] * n + a, j_idx[e] * n + b, blocks[e, a, b]


def _block_matrix(entries: np.ndarray, stack: np.ndarray, field, transpose=False) -> Matrix:
    """The block matrix of ``_block_triplets``."""
    r, c, _ = entries.shape
    n = stack.shape[1]
    shape = (c * n, r * n) if transpose else (r * n, c * n)
    out = Matrix.zeros(field, *shape).data.copy()
    i, j, vals = _block_triplets(entries, stack, field.p, transpose)
    out[i, j] = vals
    return _adopt(field, out)


def _block_rows(entries: np.ndarray, stack: np.ndarray, p, transpose=False) -> list:
    """The rows of ``_block_matrix``, sparse."""
    count = entries.shape[1 if transpose else 0] * stack.shape[1]
    return _sparse_lines(count, *_block_triplets(entries, stack, p, transpose))


def _sparse_var_apply(var_cols: list, v: dict, d: int, p) -> dict:
    """The block-diagonal action of one variable on a free module (one
    copy of its d x d action matrix per generator) applied to one sparse
    column; var_cols[k] is column k of that matrix, sparse."""
    out: dict = {}
    for i, x in v.items():
        for k, y in var_cols[i % d].items():
            j = i - i % d + k
            out[j] = out.get(j, 0) + x * y
    if p is not None:
        out = {j: y % p for j, y in out.items()}
    return {j: y for j, y in out.items() if y}


def _pick_independent(spanning, cols: list, p) -> list:
    """The columns of ``cols`` outside the span of ``spanning`` (consumed)
    and of the columns before them: the pivot columns of
    [spanning | cols] that fall in cols."""
    echelon: dict = {}
    for v in spanning:
        _echelon_insert(echelon, v, p)
    return [v for v in cols if _echelon_insert(echelon, dict(v), p)]


class _ResolutionState:
    """Incremental minimal free resolution of one module; it keeps no
    reference to the module, so the module's slot makes no cycle."""

    def __init__(self, module: Module):
        self.algebra = module.algebra
        self.field = module.algebra.field
        self.betti: list[int] = []
        self.gens: list[Matrix] = []
        self.diff_alg: list = [None]  # diff_alg[i]: (b_{i-1}, b_i, dim A), i >= 1
        # kernels[i] = ker d_{i-1} in F_{i-1}, as sparse columns
        self.kernels: list[Optional[list]] = [None]
        self.terminated = False
        self.cum_dim = 0
        self._step0(module)

    # -- construction --------------------------------------------------
    def _step0(self, m: Module):
        # the unit vectors outside the span of the action images generate M
        spanning = (v for a in m.actions for v in _sparse_columns(a.data))
        units = [{j: self.field.one} for j in range(m.dim)]
        g0 = _dense(self.field, m.dim, _pick_independent(spanning, units, self.field.p))
        b0 = g0.cols
        self.betti.append(b0)
        self.gens.append(g0)
        self.cum_dim = b0 * self.algebra.dim
        if b0 == 0:
            self.terminated = True
            return
        # column j*d + k of d0 is monomial k acting on generator j
        d0 = _dot(m.action_stack(), g0.data, self.field.p).transpose(1, 2, 0)
        self._d0 = _adopt(self.field, d0.reshape(m.dim, b0 * self.algebra.dim))

    @property
    def length(self) -> int:
        return len(self.betti) - 1

    def _over_budget(self, name: str, step: int, total: int, max_total_dim: int):
        return ResolutionBudgetExceeded(
            f"resolution of {name} needs {total} total "
            f"dims at step {step}, over the budget of {max_total_dim}; "
            f"betti so far {self.betti}"
        )

    def ensure(self, target_len: int, max_total_dim: int, name: str):
        """Resolve through F_target_len; ``name`` labels a budget stop."""
        if self.cum_dim > max_total_dim:
            raise self._over_budget(name, self.length, self.cum_dim, max_total_dim)
        while not self.terminated and self.length < target_len:
            self._step(max_total_dim, name)

    def _step(self, max_total_dim: int, name: str):
        d = self.algebra.dim
        p = self.field.p
        prev_rank = self.betti[-1]
        if len(self.kernels) == len(self.betti):
            # ker d_{i-1} is built only now that step i needs it; a budget
            # stop below keeps it for the retry
            i = self.length
            rows = (_sparse_columns(self._d0.data.T) if i == 0
                    else _block_rows(self.diff_alg[i], self.algebra.mult_stack, p))
            self.kernels.append(list(_sparse_kernel(rows, prev_rank * d, p).values()))
        kernel = self.kernels[-1]
        if not kernel:
            self.terminated = True
            return
        # the kernel columns outside rad·kernel complete a basis of kernel/rad·kernel
        var_maps = [_sparse_columns(va.data) for va in self.algebra.actions]
        rad = (_sparse_var_apply(vm, v, d, p) for vm in var_maps for v in kernel)
        picks = _pick_independent(rad, kernel, p)
        b = len(picks)
        total = self.cum_dim + b * d
        if total > max_total_dim:
            raise self._over_budget(name, self.length + 1, total, max_total_dim)
        self.cum_dim = total
        # algebra-entry form of the new differential + minimality check
        gens = _dense(self.field, prev_rank * d, picks)
        entries = gens.data.reshape(prev_rank, d, b).transpose(0, 2, 1)
        if (entries[:, :, 0] != 0).any():
            raise AssertionError("non-minimal differential entry (unit constant term)")
        self.betti.append(b)
        self.gens.append(gens)
        self.diff_alg.append(entries)

    def differential_matrix(self, i: int) -> Matrix:
        """k-linear d_i; i = 0 maps F_0 onto the module."""
        if i == 0:
            return self._d0
        return _block_matrix(self.diff_alg[i], self.algebra.mult_stack, self.field)


@dataclass
class FreeResolution:
    """A truncated minimal free resolution: a view of the state kept in the
    module's ``_resolution`` slot.  The kernel of d_i is built only when
    step i+1 needs it."""

    module: Module
    betti: list
    terminated: bool
    _state: _ResolutionState

    @property
    def length(self) -> int:
        return len(self.betti) - 1

    def differential_matrix(self, i: int) -> Matrix:
        return self._state.differential_matrix(i)

    def diff_alg(self, i: int) -> np.ndarray:
        """d_i (i >= 1) in algebra-entry form: a read-only (b_{i-1}, b_i, dim A)
        array; [t, j] holds the staircase coordinates of entry (t, j)."""
        return self._state.diff_alg[i]


def minimal_free_resolution(
    module: Module, bound: int, max_total_dim: int = DEFAULT_RESOLUTION_BUDGET
) -> FreeResolution:
    st = module._resolution
    if st is None:
        st = module._resolution = _ResolutionState(module)
    st.ensure(bound, max_total_dim, module.label or "module")
    upto = min(st.length, bound)
    return FreeResolution(
        module,
        list(st.betti[: upto + 1]),
        st.terminated and st.length <= bound,
        st,
    )


# ---------------------------------------------------------------------------
# Ext and Tor tables


@dataclass(frozen=True)
class ExtTable:
    dims: tuple
    bound: int
    certified_all_beyond: bool
    route: str

    def entry(self, i: int) -> int:
        return self.dims[i]

    def vanishes_above(self, n: int) -> bool:
        ok = all(d == 0 for d in self.dims[n + 1 :])
        return ok

    def last_nonzero(self):
        nz = [i for i, d in enumerate(self.dims) if d != 0]
        return nz[-1] if nz else None


TorTable = ExtTable


def _complex_dims(
    res: FreeResolution, other: Module, bound: int, transpose: bool
) -> tuple:
    """(Co)homology dims in degrees 0..bound of Hom(F_., other)
    (transpose=True) or of F_. (x) other (transpose=False).

    Degree i has dimension betti_i * dim(other) less the ranks of the two
    maps at that degree, so each map is reduced once."""
    nN = other.dim
    L = res.length
    stack = other.action_stack()
    p = other.algebra.field.p
    ranks = {0: 0}
    for i in range(1, min(L, bound + 1) + 1):
        ranks[i] = _sparse_rank(_block_rows(res.diff_alg(i), stack, p, transpose), p)
    return tuple(
        res.betti[i] * nN - ranks[i] - ranks.get(i + 1, 0) if i <= L else 0
        for i in range(bound + 1)
    )


def ext(m: Module, n: Module, bound: int, route: Optional[str] = None) -> ExtTable:
    """dim_k Ext^i(M, N) for 0 <= i <= bound.

    Route "projective" resolves M; route "injective" resolves dual_k(N)
    and uses Ext^i(M, N) = Tor_i(dual_k(N), M).  Default: escalate.
    """
    routes = {"projective": (lambda: m, n, True), "injective": (lambda: dual_k(n), m, False)}
    return _escalate("Ext", m, n, bound, route, routes)


def tor(m: Module, n: Module, bound: int, route: Optional[str] = None) -> TorTable:
    """dim_k Tor_i(M, N) for 0 <= i <= bound; resolves M or N, whichever fits."""
    routes = {"left": (lambda: m, n, False), "right": (lambda: n, m, False)}
    return _escalate("Tor", m, n, bound, route, routes)


def _escalate(name: str, m: Module, n: Module, bound: int, route, routes: dict) -> ExtTable:
    """The table of the first route that fits its budget: every route at
    each of ``ROUTE_BUDGETS`` in turn, or only ``route`` at the largest.
    ``routes`` maps a route to (the module it resolves, made on its first
    attempt; the other module; whether the complex is Hom rather than
    tensor).  A retry resumes the resolution its module keeps."""
    if m.algebra != n.algebra:
        raise ValueError(f"{name} requires modules over the same algebra")
    names = [route] if route is not None else list(routes)
    budgets = ROUTE_BUDGETS[-1:] if route is not None else ROUTE_BUDGETS
    resolved: dict = {}
    last_err = None
    for budget in budgets:
        for rt in names:
            make, other, transpose = routes[rt]
            if rt not in resolved:
                resolved[rt] = make()
            try:
                res = minimal_free_resolution(resolved[rt], bound + 1, budget)
            except ResolutionBudgetExceeded as e:
                last_err = e
                continue
            dims = _complex_dims(res, other, bound, transpose)
            return ExtTable(dims, bound, res.terminated, rt)
    raise last_err


# ---------------------------------------------------------------------------
# dimension verdicts


@dataclass(frozen=True)
class Exactly:
    value: object  # int or NEG_INF

    def __repr__(self):
        return f"Exactly({self.value})"


@dataclass(frozen=True)
class AtLeast:
    value: int

    def __repr__(self):
        return f"AtLeast({self.value})"


def pd_bounded(module: Module, bound: int):
    """Exactly(n) iff the minimal resolution terminates at n within bound."""
    if module.dim == 0:
        return Exactly(NEG_INF)
    res = minimal_free_resolution(module, bound)
    if res.terminated:
        return Exactly(res.length)
    return AtLeast(bound + 1)


def id_bounded(module: Module, bound: int):
    """Injective dimension via exact k-duality: id(M) = pd(dual_k(M))."""
    if module.dim == 0:
        return Exactly(NEG_INF)
    return pd_bounded(dual_k(module), bound)


# ---------------------------------------------------------------------------
# syzygy periodicity certificates


def syzygy_module(module: Module, i: int) -> Module:
    """The i-th syzygy (i >= 1) as a validated Module."""
    res = minimal_free_resolution(module, i)
    if res.length < i:
        acts = [Matrix.zeros(module.algebra.field, 0, 0) for _ in module.actions]
        return Module(module.algebra, acts, label=f"syz{i}")
    algebra = module.algebra
    field, d = algebra.field, algebra.dim
    # the syzygy is ker d_{i-1} inside F_{i-1}; its sparse basis is kept
    kernel, rows = res._state.kernels[i], res.betti[i - 1] * d
    images = [
        _dense(field, rows, [_sparse_var_apply(vm, v, d, field.p) for v in kernel])
        for vm in (_sparse_columns(va.data) for va in algebra.actions)
    ]
    acts = _restricted_actions(_dense(field, rows, kernel), images)
    return Module(algebra, acts, label=f"syz{i}({module.label or 'M'})")


def syzygy_periodicity(module: Module, window: int, seed: int = 0):
    """First (i, j, witness) with syzygy_i ≅ syzygy_j, i < j <= window; None if
    the resolution terminates or no certificate is found in the window."""
    try:
        res = minimal_free_resolution(module, window)
    except ResolutionBudgetExceeded:
        return None
    if res.terminated:
        return None
    syz = {}
    for i in range(1, res.length + 1):
        syz[i] = syzygy_module(module, i)
    for i in range(1, res.length + 1):
        for j in range(i + 1, res.length + 1):
            if syz[i].dim != syz[j].dim:
                continue
            verdict = is_isomorphic(syz[i], syz[j], seed=seed)
            if isinstance(verdict, Iso):
                return (i, j, verdict.witness)
    return None
