"""Modules as finite-dimensional representations, morphisms, constructors.

A module over an algebra A = k[x1..xn]/I is a k-space with one action
matrix per variable; the matrices commute and satisfy the ideal
relations.  Every constructor below returns a fully validated Module: the
actions are checked to commute, and all ideal generators are evaluated
on them in one contraction.

Hom and tensor spaces are assembled from the nonzero entries of the
actions: the linear conditions T X - X S = 0 and the tensor relations
(a·m)(x)n - m(x)(a·n) are written straight into sparse rows, which one
sparse elimination solves (``linalg._sparse_kernel``) or quotients by
(``_quotient_space``); no Kronecker product is formed.
"""

from __future__ import annotations

import itertools
import random

from .algebra import Algebra, Element, Representation
from .groebner import BudgetExceeded, QuotientPresentation
from .linalg import (
    Matrix,
    _sparse_kernel,
    _sparse_rref,
    image_basis,
    is_invertible,
    kernel_basis,
    solve_matrix,
)
from .record import Frozen, _set

__all__ = [
    "Module",
    "Morphism",
    "HomModule",
    "TensorModule",
    "Iso",
    "NotIso",
    "Unknown",
    "regular_module",
    "free_module",
    "zero_module",
    "residue_field_module",
    "annihilator_submodule",
    "scale_quotient",
    "hom_module",
    "tensor_module",
    "dual_k",
    "direct_sum",
    "quotient_algebra",
    "transport_to_quotient",
    "transport_from_quotient",
    "is_isomorphic",
]


# the dimension budget: of a resolution's free modules (F_0 .. F_bound), of
# a free module and of the k-space a Hom or tensor module is cut out of
DEFAULT_RESOLUTION_BUDGET = 10_000


def _check_product_budget(what: str, m: Module, n: Module):
    """Stop a Hom or tensor of ``m`` and ``n`` before it writes a row: it
    works in a k-space of dimension dim m * dim n."""
    if (size := m.dim * n.dim) > DEFAULT_RESOLUTION_BUDGET:
        raise BudgetExceeded(
            f"{what} of modules of dimensions {m.dim} and {n.dim} needs {size} "
            f"dims, over the budget of {DEFAULT_RESOLUTION_BUDGET}")


class Module(Representation):
    # besides the monomial actions it caches the state of its minimal free
    # resolution and its semidualizing verdicts by bound
    __slots__ = ("algebra", "label", "_resolution", "_semidual")

    def __init__(self, algebra: Algebra, actions: list, label: str = ""):
        super().__init__(actions)
        self.algebra = algebra
        self.label = label
        self._resolution = None
        self._semidual = {}
        if algebra.nvars != len(self.actions):
            raise ValueError("need one action matrix per variable")
        self._check_representation()

    def socle_dim(self) -> int:
        """dim of the simultaneous kernel of all variable actions."""
        if not self.actions:
            return self.dim
        stacked = Matrix.vstack([a for a in self.actions])
        return kernel_basis(stacked).cols

    def radical_layer_dims(self) -> tuple:
        """dims of M, rad·M, rad²·M, ... down to zero."""
        dims = [self.dim]
        basis = Matrix.identity(self.algebra.field, self.dim)
        while dims[-1] > 0:
            images = [a @ basis for a in self.actions]
            basis = image_basis(Matrix.hstack(images))
            dims.append(basis.cols)
        return tuple(dims)

    def __repr__(self):
        tag = f" {self.label!r}" if self.label else ""
        return f"Module(dim={self.dim}{tag} over {self.algebra!r})"


class Morphism(Frozen):
    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: Module, target: Module, matrix: Matrix):
        if matrix.rows != target.dim or matrix.cols != source.dim:
            raise ValueError("morphism matrix has the wrong shape")
        for sa, ta in zip(source.actions, target.actions):
            if matrix @ sa != ta @ matrix:
                raise ValueError("matrix does not commute with the actions")
        _set(self, "source", source)
        _set(self, "target", target)
        _set(self, "matrix", matrix)

    def is_isomorphism(self) -> bool:
        return is_invertible(self.matrix)


# ---------------------------------------------------------------------------
# basic constructors


def regular_module(algebra: Algebra, label: str = "") -> Module:
    return Module(algebra, list(algebra.actions), label=label or "A")


def free_module(algebra: Algebra, n: int, label: str = "") -> Module:
    acts = [
        Matrix.block_diag([a] * n) if n else Matrix.zeros(algebra.field, 0, 0)
        for a in algebra.actions
    ]
    return Module(algebra, acts, label=label or f"A^{n}")


def zero_module(algebra: Algebra) -> Module:
    acts = [Matrix.zeros(algebra.field, 0, 0) for _ in range(algebra.nvars)]
    return Module(algebra, acts, label="0")


def residue_field_module(algebra: Algebra) -> Module:
    acts = [Matrix.zeros(algebra.field, 1, 1) for _ in range(algebra.nvars)]
    return Module(algebra, acts, label="k")


# ---------------------------------------------------------------------------
# sub/quotient constructions


def _restricted_actions(basis: Matrix, images: list) -> list:
    """Actions on the span of ``basis`` (independent columns), in its
    coordinates, from the images of the basis under each variable."""
    coords = solve_matrix(basis, Matrix.hstack(images))
    if coords is None:
        raise ValueError("subspace is not invariant under the actions")
    w = basis.cols
    return [coords.select_columns(range(v * w, (v + 1) * w)) for v in range(len(images))]


def annihilator_submodule(module: Module, x: Element):
    """(0:_M x) with its inclusion into M."""
    ax = module.element_action(x)
    basis = kernel_basis(ax)
    acts = _restricted_actions(basis, [a @ basis for a in module.actions])
    sub = Module(module.algebra, acts, label=f"ann({module.label or 'M'})")
    return sub, Morphism(sub, module, basis)


def scale_quotient(module: Module, x: Element):
    """(M/xM, the projection from M, the section of the projection that
    the same reduction picked, a k-linear map M/xM -> M)."""
    ax = module.element_action(x)
    proj, section, acts = _quotient_space(
        module.algebra.field, ax.sparse_rows(), module.dim,
        lambda proj: [proj @ a for a in module.actions],
    )
    quot = Module(module.algebra, acts, label=f"{module.label or 'M'}/x")
    return quot, Morphism(module, quot, proj), section


def direct_sum(m: Module, n: Module, label: str = "") -> Module:
    if m.algebra != n.algebra:
        raise ValueError("direct sum requires the same algebra")
    acts = [Matrix.block_diag([a, b]) for a, b in zip(m.actions, n.actions)]
    return Module(m.algebra, acts, label=label or f"{m.label}(+){n.label}")


# ---------------------------------------------------------------------------
# Hom, tensor, duality


class HomModule(Module):
    """Hom_A(M, N) as an A-module; remembers its matrix basis."""

    __slots__ = ("hom_source", "hom_target", "basis", "_bmat", "_free")

    def __init__(self, source: Module, target: Module):
        if source.algebra != target.algebra:
            raise ValueError("Hom requires modules over the same algebra")
        _check_product_budget("Hom", source, target)
        field = source.algebra.field
        ns, nt = source.dim, target.dim
        # unknowns: the entries X[b, c] of an nt x ns matrix, at b * ns + c;
        # one block of rows T X - X S = (T (x) 1 - 1 (x) S^t) vec(X) per variable
        rows = []
        for sa, ta in zip(source.actions, target.actions):
            block = [{} for _ in range(nt * ns)]
            _kron_difference(block, ta, sa.T, field.p)
            rows += block
        # columns are vec(phi); its rows at ``_free`` form an identity block
        kernel = _sparse_kernel(rows, ns * nt, field.p)
        self._bmat = Matrix.from_sparse_columns(field, ns * nt, kernel.values())
        self._free = list(kernel)
        self.hom_source = source
        self.hom_target = target
        self.basis = [self._unvec(v) for v in kernel.values()]
        acts = [self._coords([ta @ phi for phi in self.basis]) for ta in target.actions]
        super().__init__(
            source.algebra,
            acts,
            label=f"Hom({source.label or 'M'},{target.label or 'N'})",
        )

    def _unvec(self, vec: dict) -> Matrix:
        """The target-dim x source-dim matrix whose row-major vec is the
        sparse column ``vec``."""
        ns = self.hom_source.dim
        rows = [{} for _ in range(self.hom_target.dim)]
        for k, x in vec.items():
            rows[k // ns][k % ns] = x
        return Matrix(self._bmat.field, ns, rows)

    def _coords(self, mats: list) -> Matrix:
        """Coordinates of the homs ``mats``, one column each."""
        ns, free = self.hom_source.dim, {f: a for a, f in enumerate(self._free)}
        vecs = [{b * ns + c: x for b, row in enumerate(m.nz) for c, x in row.items()}
                for m in mats]
        field = self._bmat.field
        coords = Matrix.from_sparse_columns(
            field, len(free), [{free[k]: x for k, x in v.items() if k in free} for v in vecs])
        if self._bmat @ coords != Matrix.from_sparse_columns(field, self._bmat.rows, vecs):
            raise ValueError("matrix is not in the Hom space")
        return coords

    def element_matrix(self, coords: Matrix) -> Matrix:
        """The hom as a target-dim x source-dim matrix, from coordinates."""
        vec = self._bmat @ coords
        return self._unvec({k: row[0] for k, row in enumerate(vec.nz) if row})

    def coordinates_of(self, mat: Matrix) -> Matrix:
        """Inverse of element_matrix; the hom must lie in the span."""
        if (mat.rows, mat.cols) != (self.hom_target.dim, self.hom_source.dim):
            raise ValueError("matrix has the wrong shape for the Hom space")
        return self._coords([mat])


def _kron_difference(rows: list, a: Matrix, b: Matrix, p, shift: int = 0):
    """Write the rows of a (x) 1 - 1 (x) b into the sparse ``rows``, at
    columns ``shift`` on, from the nonzero entries of the square matrices a
    and b alone.  Row and column indices are row-major: i * b.rows + j."""
    na, nb = a.rows, b.rows
    for i, line in enumerate(a.nz):
        for k, x in line.items():
            for j in range(nb):
                rows[i * nb + j][shift + k * nb + j] = x
    for j, line in enumerate(b.nz):
        for l, x in line.items():
            for i in range(na):
                row, c = rows[i * nb + j], shift + i * nb + l
                y = row.get(c, 0) - x
                if p is not None:
                    y %= p
                if y:
                    row[c] = y
                else:
                    del row[c]


def hom_module(source: Module, target: Module) -> HomModule:
    return HomModule(source, target)


class TensorModule(Module):
    """M (x)_A N; remembers the projection from and section into M (x)_k N."""

    __slots__ = ("left", "right", "projection", "section")

    def __init__(self, left: Module, right: Module):
        if left.algebra != right.algebra:
            raise ValueError("tensor requires modules over the same algebra")
        _check_product_budget("tensor", left, right)
        field = left.algebra.field
        nl, nr = left.dim, right.dim
        n = nl * nr
        # relation subspace: (a·m)(x)n - m(x)(a·n) over variable generators,
        # the columns of L (x) 1 - 1 (x) R side by side, one block per variable
        rows = [{} for _ in range(n)]
        for v, (la, ra) in enumerate(zip(left.actions, right.actions)):
            _kron_difference(rows, la, ra, field.p, v * n)

        def acted(proj):
            # proj @ (L (x) 1), with L (x) 1 sparse: row i * nr + j of it is
            # row i of L, spread to the columns k * nr + j
            return [proj @ Matrix(field, n, [
                {k * nr + j: x for k, x in row.items()} for row in la.nz for j in range(nr)
            ]) for la in left.actions]

        proj, section, acts = _quotient_space(field, rows, n * len(left.actions), acted)
        self.left = left
        self.right = right
        self.projection = proj
        self.section = section
        super().__init__(
            left.algebra,
            acts,
            label=f"{left.label or 'M'}(x){right.label or 'N'}",
        )


def _quotient_space(field, rows: list, s: int, acted):
    """Quotient of k^n by the span of the columns of an n x s block, given
    by its n sparse ``rows``, with its projection, its section and the
    induced actions; ``acted(proj)`` gives the matrices proj @ a, one per
    action a on k^n.

    One reduction of the rows of [block | I_n]: its pivots in the I block
    pick the coordinate vectors the section spans, and its rows with those
    pivots are zero in the block; their I block is the projection (it
    kills the block's columns and is the identity on the section)."""
    n = len(rows)
    basis = _sparse_rref([{**row, s + r: field.one} for r, row in enumerate(rows)], field.p)
    comp = [c - s for c in sorted(basis) if c >= s]
    section = Matrix.from_sparse_columns(field, n, [{c: field.one} for c in comp])
    proj = Matrix(
        field, n, [{k - s: x for k, x in basis[s + c].items()} for c in comp])
    acts = [x.select_columns(comp) for x in acted(proj)]
    return proj, section, acts


def tensor_module(left: Module, right: Module) -> TensorModule:
    return TensorModule(left, right)


def dual_k(module: Module, label: str = "") -> Module:
    """Contragredient: transpose actions on the k-dual space."""
    acts = [a.T for a in module.actions]
    return Module(module.algebra, acts, label=label or f"dual({module.label or 'M'})")


# ---------------------------------------------------------------------------
# base change along A -> A/xA


def quotient_algebra(algebra: Algebra, x: Element) -> Algebra:
    """A/xA: adjoin the polynomial form of x to the ideal."""
    if x.is_zero():
        raise ValueError("cannot quotient by zero")
    coords = x.coords
    if coords.entry(0, 0) != 0:
        raise ValueError("cannot quotient by a unit (nonzero constant term)")
    f = x.to_polynomial()
    pres = algebra.presentation
    new_pres = QuotientPresentation(pres.ring, list(pres.ideal_generators) + [f])
    return Algebra(new_pres)


def transport_to_quotient(module: Module, quotient: Algebra, x: Element) -> Module:
    """View a module killed by x as a module over A/xA."""
    if not module.element_action(x).is_zero():
        raise ValueError("module is not killed by x; cannot transport")
    return Module(quotient, list(module.actions), label=module.label)


def transport_from_quotient(module: Module, algebra: Algebra) -> Module:
    """View an A/xA-module as an A-module (restriction along A -> A/xA)."""
    return Module(algebra, list(module.actions), label=module.label)


# ---------------------------------------------------------------------------
# isomorphism testing


class Iso(Frozen):
    __slots__ = ("witness",)


class NotIso(Frozen):
    __slots__ = ("reason",)


class Unknown(Frozen):
    __slots__ = ("reason",)


ISO_TRIALS = 32
_EXHAUSTIVE_CAP = 4096


def is_isomorphic(m: Module, n: Module, seed: int = 0):
    """Decide M ≅ N: cheap invariants first, then seeded random combinations
    of a Hom-space basis, with exhaustive enumeration when the Hom space is
    small enough; otherwise Unknown."""
    if m.algebra != n.algebra:
        raise ValueError("modules over different algebras")
    if m.dim != n.dim:
        return NotIso(f"dims differ: {m.dim} vs {n.dim}")
    if m.dim == 0:
        return Iso(Morphism(m, n, Matrix.zeros(m.algebra.field, 0, 0)))
    if m.radical_layer_dims() != n.radical_layer_dims():
        return NotIso(
            f"radical layer dims differ: {m.radical_layer_dims()} vs {n.radical_layer_dims()}"
        )
    if m.socle_dim() != n.socle_dim():
        return NotIso(f"socle dims differ: {m.socle_dim()} vs {n.socle_dim()}")
    hom_mn = hom_module(m, n)
    hom_nm = hom_module(n, m)
    if hom_mn.dim != hom_nm.dim:
        return NotIso(
            f"Hom dims differ: dim Hom(M,N)={hom_mn.dim}, dim Hom(N,M)={hom_nm.dim}"
        )
    h = len(hom_mn.basis)
    if h == 0:
        return NotIso("Hom(M,N) = 0 with M nonzero")
    field = m.algebra.field

    def as_morphism(mat):
        return Iso(Morphism(m, n, mat))

    if field.p is not None and field.p ** h <= _EXHAUSTIVE_CAP:
        for coeffs in itertools.product(range(field.p), repeat=h):
            mat = _combine(field, hom_mn.basis, coeffs)
            if is_invertible(mat):
                return as_morphism(mat)
        return NotIso("no invertible element in Hom(M,N) (exhaustive)")
    rng = random.Random(seed)
    for _ in range(ISO_TRIALS):
        if field.p is not None:
            coeffs = [rng.randrange(field.p) for _ in range(h)]
        else:
            coeffs = [rng.randint(-5, 5) for _ in range(h)]
        mat = _combine(field, hom_mn.basis, coeffs)
        if is_invertible(mat):
            return as_morphism(mat)
    return Unknown(f"no invertible combination found in {ISO_TRIALS} seeded trials")


def _combine(field, basis, coeffs):
    terms = zip((field.canon(c) for c in coeffs), basis)
    return Matrix.combination(field, basis[0].rows, basis[0].cols, terms)
