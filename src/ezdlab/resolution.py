"""Minimal free resolutions, truncated Ext/Tor, exact pd/id, periodicity.

Resolutions are built incrementally.  The state of a module's resolution
lives in the module's ``_resolution`` slot: it is made on the first call,
holds no reference back to the module and is freed with it.  Step i builds
the kernel of d_{i-1} when it starts, so a resolution to bound b never
reduces d_b.  Differentials are stored in algebra-entry form: d_i is the
sparse (b_{i-1} dim A) x b_i matrix of the generators step i picked, whose
rows t * dim A .. (t + 1) dim A - 1 of column j hold the staircase
coordinates of the algebra element in row t, column j.  Every block matrix
built from it (the k-linear d_i, and the maps of the Hom(F_., N) and
F_. (x) N complexes) contracts its nonzero entries, each against the
nonzeros of one monomial action on the target.

Deep in a resolution these block matrices are almost all zeros, so each
step and each Ext/Tor rank runs on sparse lines (``linalg._echelon_insert``
and ``linalg._sparse_kernel``): d_i as sparse rows, its kernel as sparse
columns, the radical images from one sparse column map per variable.  No
step stores a zero.  The dimension budget counts the free-module
dimensions of the degrees a call asks for, F_0 .. F_bound, not stored
entries and not the deeper steps an earlier call left in the state, so
which Ext/Tor route fits its budget depends on the call alone.

Ext and Tor each have two routes.  Ext resolves its first argument or the
k-dual of its second (over a finite-dimensional algebra, k-duality turns
injective coresolutions into projective resolutions); Tor resolves either
argument.  Both run through one escalation (``_escalate``): both routes at
the smaller size budget, then both at the larger, so a module whose Betti
numbers explode falls back to the other route instead of stalling.

Projective and injective dimensions need no resolution.  Every algebra
here is local and artinian, so depth A = 0, and by the Auslander-Buchsbaum
formula a module of finite projective dimension is free: pd M is -inf (M =
0), 0 (M free) or inf.  M is free just when nu(M) dim A = dim M, with nu(M)
= dim M/mM its number of generators, and id M = pd dual_k(M).
"""

from __future__ import annotations

from typing import Optional

from .linalg import Matrix, _echelon_insert, _reduce, _sparse_kernel, _sparse_rank
from .module import Iso, Module, _restricted_actions, dual_k, is_isomorphic
from .record import Frozen, Record

__all__ = [
    "ResolutionBudgetExceeded",
    "FreeResolution",
    "minimal_free_resolution",
    "ExtTable",
    "TorTable",
    "ext",
    "tor",
    "Exactly",
    "NEG_INF",
    "INF",
    "is_free",
    "projective_dimension",
    "injective_dimension",
    "syzygy_periodicity",
]

DEFAULT_RESOLUTION_BUDGET = 10_000
ROUTE_BUDGETS = (1500, DEFAULT_RESOLUTION_BUDGET)


class ResolutionBudgetExceeded(Exception):
    """Total resolution dimension passed the growth cutoff."""


# the homological dimensions of the zero module and of a module with no
# finite resolution
NEG_INF = float("-inf")
INF = float("inf")


def _block_rows(entries: Matrix, stack: list, p, transpose=False) -> list:
    """The sparse rows of the block matrix whose block (t, j), or (j, t)
    when transposed, is sum_k e_tjk stack[k], with e_tjk the entry at row
    t * len(stack) + k, column j of ``entries`` (algebra-entry form).
    Transposing moves the block but leaves the block itself as it is.

    Each nonzero e_tjk adds its multiple of the nonzeros of stack[k] alone;
    differentials deep in a resolution are mostly zero.
    """
    d, n = len(stack), stack[0].rows
    # the nonzero rows of each monomial action, as (row, its entries)
    acts = [[(a, row.items()) for a, row in enumerate(s.nz) if row] for s in stack]
    out = [{} for _ in range((entries.cols if transpose else entries.rows // d) * n)]
    for r, line in enumerate(entries.nz):
        t, k = divmod(r, d)
        act = acts[k]
        for j, x in line.items():
            rb, cb = (j * n, t * n) if transpose else (t * n, j * n)
            for a, items in act:
                row = out[rb + a]
                for b, y in items:
                    row[cb + b] = row.get(cb + b, 0) + x * y
    return _reduce(out, p)


def _block_matrix(entries: Matrix, stack: list, field, transpose=False) -> Matrix:
    """The block matrix of ``_block_rows``."""
    n = stack[0].rows
    cols = (entries.rows // len(stack) if transpose else entries.cols) * n
    return Matrix(field, cols, _block_rows(entries, stack, field.p, transpose))


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
        # gens[0] generates the module; gens[i], i >= 1, is d_i in
        # algebra-entry form
        self.gens: list[Matrix] = []
        self.terminated = False
        self._step0(module)

    # -- construction --------------------------------------------------
    def _step0(self, m: Module):
        # the unit vectors outside the span of the action images generate M
        spanning = (v for a in m.actions for v in a.sparse_columns())
        units = [{j: self.field.one} for j in range(m.dim)]
        g0 = Matrix.from_sparse_columns(
            self.field, m.dim, _pick_independent(spanning, units, self.field.p))
        b0 = g0.cols
        self.betti.append(b0)
        self.gens.append(g0)
        if b0 == 0:
            self.terminated = True
            return
        # column j*d + k of d0 is monomial k acting on generator j
        d = self.algebra.dim
        rows = [{} for _ in range(m.dim)]
        for k, act in enumerate(m.action_stack()):
            for row, line in zip(rows, (act @ g0).nz):
                for j, x in line.items():
                    row[j * d + k] = x
        self._d0 = Matrix(self.field, b0 * d, rows)

    @property
    def length(self) -> int:
        return len(self.betti) - 1

    def ensure(self, target_len: int, max_total_dim: int, name: str):
        """Resolve through F_target_len.  The budget counts the free-module
        dimensions of F_0 .. F_target_len alone, however deep the state is;
        ``name`` labels a budget stop.  A step that overruns is kept, so a
        retry at a larger budget resumes from it."""
        d = self.algebra.dim
        while True:
            upto = min(target_len, self.length)
            total = sum(self.betti[: upto + 1]) * d
            if total > max_total_dim:
                raise ResolutionBudgetExceeded(
                    f"resolution of {name} needs {total} total "
                    f"dims at step {upto}, over the budget of {max_total_dim}; "
                    f"betti so far {self.betti[:upto]}"
                )
            if self.terminated or self.length >= target_len:
                return
            self._step()

    def _kernel(self, i: int) -> list:
        """ker d_{i-1} inside F_{i-1} (i >= 1), as sparse columns.  It is
        built when asked for and not kept."""
        p = self.field.p
        rows = (self._d0.sparse_rows() if i == 1
                else _block_rows(self.gens[i - 1], self.algebra.mult_stack, p))
        return list(_sparse_kernel(rows, self.betti[i - 1] * self.algebra.dim, p).values())

    def _step(self):
        d = self.algebra.dim
        p = self.field.p
        prev_rank = self.betti[-1]
        # ker d_{i-1} is built only now that step i needs it
        kernel = self._kernel(self.length + 1)
        if not kernel:
            self.terminated = True
            return
        # the kernel columns outside rad·kernel complete a basis of kernel/rad·kernel
        var_maps = [va.sparse_columns() for va in self.algebra.actions]
        rad = (_sparse_var_apply(vm, v, d, p) for vm in var_maps for v in kernel)
        picks = _pick_independent(rad, kernel, p)
        # algebra-entry form of the new differential + minimality check
        gens = Matrix.from_sparse_columns(self.field, prev_rank * d, picks)
        if any(gens.nz[t * d] for t in range(prev_rank)):
            raise AssertionError("non-minimal differential entry (unit constant term)")
        self.betti.append(len(picks))
        self.gens.append(gens)

    def differential_matrix(self, i: int) -> Matrix:
        """k-linear d_i; i = 0 maps F_0 onto the module."""
        if i == 0:
            return self._d0
        return _block_matrix(self.gens[i], self.algebra.mult_stack, self.field)


class FreeResolution(Record):
    """A truncated minimal free resolution: a view of the state kept in the
    module's ``_resolution`` slot.  The kernel of d_i is built only when
    step i+1 needs it."""

    __slots__ = ("module", "betti", "terminated", "_state")

    @property
    def length(self) -> int:
        return len(self.betti) - 1

    def differential_matrix(self, i: int) -> Matrix:
        return self._state.differential_matrix(i)

    def diff_alg(self, i: int) -> Matrix:
        """d_i (i >= 1) in algebra-entry form: a (b_{i-1} dim A) x b_i matrix
        whose rows t * dim A .. (t + 1) dim A - 1 of column j hold the
        staircase coordinates of entry (t, j)."""
        return self._state.gens[i]


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


class ExtTable(Frozen):
    __slots__ = ("dims", "bound", "certified_all_beyond", "route")

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


class Exactly(Frozen):
    __slots__ = ("value",)  # NEG_INF, 0 or INF

    def __repr__(self):
        return f"Exactly({self.value})"


def is_free(module: Module) -> bool:
    """nu(M) dim A = dim M, with nu(M) = dim M - rank [X_1 ... X_n] the
    number of generators: then A^nu(M) -> M is onto between spaces of one
    dimension.  No resolution is built, so no budget can stop it."""
    p = module.algebra.field.p
    rad = _sparse_rank([v for a in module.actions for v in a.sparse_columns()], p)
    return (module.dim - rad) * module.algebra.dim == module.dim


def projective_dimension(module: Module) -> Exactly:
    """pd M over a local artinian algebra: -inf, 0 (M free) or inf."""
    if module.dim == 0:
        return Exactly(NEG_INF)
    return Exactly(0 if is_free(module) else INF)


def injective_dimension(module: Module) -> Exactly:
    """id M = pd dual_k(M), by exact k-duality."""
    return projective_dimension(dual_k(module))


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
    # the syzygy is ker d_{i-1} inside F_{i-1}
    kernel, rows = res._state._kernel(i), res.betti[i - 1] * d
    images = [
        Matrix.from_sparse_columns(field, rows, [_sparse_var_apply(vm, v, d, field.p)
                                                 for v in kernel])
        for vm in (va.sparse_columns() for va in algebra.actions)
    ]
    acts = _restricted_actions(Matrix.from_sparse_columns(field, rows, kernel), images)
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
