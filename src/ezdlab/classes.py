"""Exact zero-divisor pairs, semidualizing modules, the classes
G_C / A_C / B_C, proper C-projective resolutions and the relative
homological dimensions they define.

Semidualizing C and the three classes are decided by one test
(``_report``) into one verdict record, ``ClassMembershipReport(verdict,
tables)``: a natural map is an isomorphism (the homothety chi: A ->
Hom(C, C) for C; once C is semidualizing, delta for G_C, gamma for A_C,
xi for B_C), and the named Ext/Tor tables vanish in positive degrees
(Ext(C,C) for C, two for each class).  Every predicate takes and echoes a
truncation bound.  A verdict is CertifiedAll only when the underlying
Ext/Tor computations carry a finiteness certificate (a terminating
resolution); otherwise bounded vanishing is reported as HoldsUpTo(bound).
Each table is computed at the predicate's bound; one that fits no
resolution budget raises BudgetExceeded (a ``budget`` stop) and is not
retried at a smaller bound.

The relative dimensions are decided by one exact rule, with no Ext/Tor
table and no class verdict.  Over a local artinian algebra, a finite
P_C-projective dimension puts M in B_C, where P_C-pd M = pd Hom(C, M)
(Takahashi and White, Math. Scand. 106 (2010)), and pd is 0 or inf
(Auslander-Buchsbaum, depth A = 0).  So P_C-pd M is -inf, 0 or inf, and it
is 0 exactly when M is isomorphic to C^r: Hom(C, M) is free and the
evaluation xi: C (x) Hom(C, M) -> M is an isomorphism (``c_rank``).
Matlis duality turns I_C = add Hom(C, E) into P_C, so I_C-id M = P_C-pd
dual_k(M); flat modules here are free, so F_C-pd is P_C-pd.
"""

from __future__ import annotations

from typing import Optional

from .algebra import Element
from .linalg import Matrix, rank
from .module import (
    Module,
    Morphism,
    dual_k,
    hom_module,
    regular_module,
    tensor_module,
)
from .record import Frozen, Record
from .resolution import (
    Exactly,
    INF,
    NEG_INF,
    _block_matrix,
    ext,
    is_free,
    minimal_free_resolution,
    tor,
)

__all__ = [
    "EzdReport",
    "is_ezd_pair",
    "homothety_map",
    "is_semidualizing",
    "HoldsUpTo",
    "CertifiedAll",
    "Fails",
    "ClassMembershipReport",
    "biduality_map",
    "in_G_C",
    "gamma_map",
    "in_A_C",
    "xi_map",
    "in_B_C",
    "ProperResolutionReport",
    "build_proper_PC_resolution",
    "c_rank",
    "pc_pd",
    "fc_pd",
    "ic_id",
    "NotSemidualizingError",
]

DEFAULT_BOUND = 10


class NotSemidualizingError(Exception):
    """A class predicate was called with a C that failed its certificate."""


# ---------------------------------------------------------------------------
# exact zero-divisor pairs


class EzdReport(Frozen):
    __slots__ = ("holds", "x", "y", "checks")

    def failing_checks(self):
        return [k for k, v in self.checks.items() if not v]


def is_ezd_pair(x: Element, y: Element, module: Module) -> EzdReport:
    """Is M --x--> M --y--> M --x--> M exact with xM not in {0, M}?

    Decided exactly (kernel/image comparisons, no truncation)."""
    ax = module.element_action(x)
    ay = module.element_action(y)
    rx, ry = rank(ax), rank(ay)
    # dim ker x = dim M - rank x, and likewise for y
    checks = {
        "x_nonzero_action": rx > 0,
        "x_not_surjective": rx < module.dim,
        "ker_x_eq_im_y": (ax @ ay).is_zero() and module.dim - rx == ry,
        "ker_y_eq_im_x": (ay @ ax).is_zero() and module.dim - ry == rx,
    }
    return EzdReport(all(checks.values()), x, y, checks)


# ---------------------------------------------------------------------------
# verdicts


class HoldsUpTo(Frozen):
    __slots__ = ("bound",)


class CertifiedAll(Frozen):
    __slots__ = ()


class Fails(Frozen):
    __slots__ = ("witness",)


class ClassMembershipReport(Record):
    # the verdict on semidualizing C or on a class membership; tables: the
    # Ext/Tor tables behind it, by name, none when C = 0 or the natural map
    # is not an isomorphism
    __slots__ = ("verdict", "tables")

    @property
    def holds(self) -> bool:
        return isinstance(self.verdict, (HoldsUpTo, CertifiedAll))


def _verdict(tables: dict, bound: int):
    for name, table in tables.items():
        if not table.vanishes_above(0):
            bad = table.last_nonzero()
            return Fails(f"{name}^{bad} has dimension {table.entry(bad)}")
    if all(t.certified_all_beyond for t in tables.values()):
        return CertifiedAll()
    return HoldsUpTo(bound)


def _report(f: Morphism, failure: str, tables, bound: int) -> ClassMembershipReport:
    """The one test behind semidualizing C and the three classes: the
    natural map ``f`` is an isomorphism (else ``Fails(failure)``), and the
    tables that ``tables(f)`` names as (name, ext or tor, a, b), built in
    that order, vanish in positive degrees."""
    if not f.is_isomorphism():
        return ClassMembershipReport(Fails(failure), {})
    built = {name: fn(a, b, bound) for name, fn, a, b in tables(f)}
    return ClassMembershipReport(_verdict(built, bound), built)


# ---------------------------------------------------------------------------
# semidualizing modules


def homothety_map(c: Module) -> Morphism:
    """chi: A -> Hom(C, C), r |-> multiplication by r on C."""
    algebra = c.algebra
    hcc = hom_module(c, c)
    # column i holds the coordinates of the action of staircase monomial i
    return Morphism(regular_module(algebra), hcc, hcc._coords(c.action_stack()))


def is_semidualizing(c: Module, bound: int = DEFAULT_BOUND) -> ClassMembershipReport:
    """The verdict on C at ``bound``, kept on C so that it is made once."""
    cert = c._semidual.get(bound)
    if cert is None:
        cert = c._semidual[bound] = _is_semidualizing(c, bound)
    return cert


def _is_semidualizing(c: Module, bound: int) -> ClassMembershipReport:
    """C is nonzero, chi is an isomorphism and Ext^{>0}(C,C) = 0."""
    if c.dim == 0:
        return ClassMembershipReport(Fails("zero module"), {})
    return _report(homothety_map(c), "homothety map is not an isomorphism",
                   lambda chi: (("Ext(C,C)", ext, c, c),), bound)


def _require_semidualizing(c: Module, bound: int):
    cert = is_semidualizing(c, bound)
    if not cert.holds:
        raise NotSemidualizingError(cert.verdict.witness)


# ---------------------------------------------------------------------------
# class membership


def biduality_map(x: Module, c: Module) -> Morphism:
    """delta: X -> Hom(Hom(X, C), C), evaluation at x."""
    h1 = hom_module(x, c)
    h2 = hom_module(h1, c)
    # delta(e_i): H1 -> C sends phi to phi(e_i); row r, column a of it is
    # entry (r, i) of basis element a, row r * dim X + i of H1's basis matrix
    rows = h1._bmat.nz
    deltas = [Matrix(c.algebra.field, h1.dim, [rows[r * x.dim + i] for r in range(c.dim)])
              for i in range(x.dim)]
    return Morphism(x, h2, h2._coords(deltas))


def in_G_C(x: Module, c: Module, bound: int = DEFAULT_BOUND) -> ClassMembershipReport:
    """Totally C-reflexive: biduality iso, Ext^{>0}(X,C) = 0 = Ext^{>0}(Hom(X,C),C)."""
    # delta's target is Hom(Hom(X,C),C)
    _require_semidualizing(c, bound)
    return _report(biduality_map(x, c), "biduality map delta is not an isomorphism",
                   lambda delta: (("Ext(X,C)", ext, x, c),
                                  ("Ext(Hom(X,C),C)", ext, delta.target.hom_source, c)),
                   bound)


def gamma_map(m: Module, c: Module) -> Morphism:
    """gamma: M -> Hom(C, C (x) M)."""
    t = tensor_module(c, m)
    h = hom_module(c, t)
    # gamma(e_i): C -> C(x)M, e_c |-> class of e_c (x) e_i, whose column c is
    # column c * dim M + i of the projection
    rows = [[{} for _ in range(t.dim)] for _ in range(m.dim)]
    for r, line in enumerate(t.projection.nz):
        for k, x in line.items():
            rows[k % m.dim][r][k // m.dim] = x
    gammas = [Matrix(m.algebra.field, c.dim, g) for g in rows]
    return Morphism(m, h, h._coords(gammas))


def in_A_C(m: Module, c: Module, bound: int = DEFAULT_BOUND) -> ClassMembershipReport:
    """Auslander class: gamma iso, Tor_{>0}(C,M) = 0 = Ext^{>0}(C, C(x)M)."""
    # gamma's target is Hom(C, C(x)M)
    _require_semidualizing(c, bound)
    return _report(gamma_map(m, c), "natural map gamma is not an isomorphism",
                   lambda gamma: (("Tor(C,M)", tor, c, m),
                                  ("Ext(C,C(x)M)", ext, c, gamma.target.hom_target)),
                   bound)


def xi_map(m: Module, c: Module) -> Morphism:
    """xi: C (x) Hom(C, M) -> M, evaluation."""
    h = hom_module(c, m)
    t2 = tensor_module(c, h)
    # evaluation on the full tensor space: (e_c, phi_a) |-> phi_a(e_c), the
    # column c * dim H + a; entry r of it is row r * dim C + c of H's basis
    rows = h._bmat.nz
    full = Matrix(m.algebra.field, c.dim * h.dim, [
        {k * h.dim + a: x for k in range(c.dim) for a, x in rows[r * c.dim + k].items()}
        for r in range(m.dim)])
    induced = full @ t2.section
    if induced @ t2.projection != full:
        raise AssertionError("evaluation does not factor through the tensor relations")
    return Morphism(t2, m, induced)


def in_B_C(m: Module, c: Module, bound: int = DEFAULT_BOUND) -> ClassMembershipReport:
    """Bass class: xi iso, Ext^{>0}(C,M) = 0 = Tor_{>0}(C, Hom(C,M))."""
    # xi's source is C (x) Hom(C, M)
    _require_semidualizing(c, bound)
    return _report(xi_map(m, c), "natural map xi is not an isomorphism",
                   lambda xi: (("Ext(C,M)", ext, c, m),
                               ("Tor(C,Hom(C,M))", tor, c, xi.source.right)),
                   bound)


# ---------------------------------------------------------------------------
# proper C-projective resolutions and relative dimensions


class ProperResolutionReport(Record):
    # betti: ranks b_i of the C^{b_i} terms; complex_maps: k-matrices,
    # [aug, d1, d2, ...]
    __slots__ = ("betti", "terminated", "proper", "proper_rank2", "augmented_exact",
                 "failing_degree", "complex_maps")


def _complex_is_exact(maps: list) -> Optional[int]:
    """maps[i]: space_{i} -> space_{i-1} (maps[0] is the augmentation onto
    the extra bottom space).  Returns the first failing homological degree,
    or None when exact at every interior spot and surjective onto degree -1."""
    if not maps:
        return None
    # surjectivity of the augmentation
    lower_rank = rank(maps[0])
    if lower_rank != maps[0].rows:
        return 0
    for i in range(len(maps) - 1):
        lower, upper = maps[i], maps[i + 1]
        if not (lower @ upper).is_zero():
            return i + 1
        # each map is reduced once: dim ker(lower) = cols - rank(lower)
        upper_rank = rank(upper)
        if lower.cols - lower_rank != upper_rank:
            return i + 1
        lower_rank = upper_rank
    return None


def build_proper_PC_resolution(
    m: Module,
    c: Module,
    length: int,
    bound: int = DEFAULT_BOUND,
) -> ProperResolutionReport:
    """X+ : ... -> C(x)P_1 -> C(x)P_0 -> M -> 0 from a minimal free
    resolution of Hom(C, M), with the properness test Hom(C^r, X+)
    for r = 1 and r = 2."""
    _require_semidualizing(c, bound)
    field = m.algebra.field
    h = hom_module(c, m)
    res = minimal_free_resolution(h, length)

    # the complex itself: X_i = C^{b_i}; the augmentation C^{b_0} -> M is
    # the row of the homs phi_j that the generators of P_0 name
    g0 = res._state.gens[0]
    phis = [h.element_matrix(g0.select_columns([j])) for j in range(g0.cols)]
    aug = Matrix.hstack(phis) if phis else Matrix.zeros(field, m.dim, 0)
    maps = [aug]
    c_stack = c.action_stack()
    for i in range(1, res.length + 1):
        maps.append(_block_matrix(res.diff_alg(i), c_stack, field))

    fail_plain = _complex_is_exact(maps)

    # properness: Hom(C, X+) with Hom(C, C^{b}) ≅ Hom(C,C)^b; column
    # (j, a) of the augmentation is phi_j composed with basis element a
    hcc = hom_module(c, c)
    aug_hom = h._coords([phi @ psi for phi in phis for psi in hcc.basis])
    hom_maps = [aug_hom]
    hcc_stack = hcc.action_stack()
    for i in range(1, res.length + 1):
        hom_maps.append(_block_matrix(res.diff_alg(i), hcc_stack, field))
    fail_hom = _complex_is_exact(hom_maps)

    # Hom(C^2, X+) is Hom(C, X+) twice over (each map mm becomes
    # block_diag([mm, mm])), so it is exact just when Hom(C, X+) is
    return ProperResolutionReport(
        betti=list(res.betti),
        terminated=res.terminated,
        proper=fail_hom is None,
        proper_rank2=fail_hom is None,
        augmented_exact=fail_plain is None,
        failing_degree=fail_hom,
        complex_maps=maps,
    )


def c_rank(m: Module, c: Module) -> Optional[int]:
    """r with M isomorphic to C^r, or None: r when Hom(C, M) is free of rank
    r and xi: C (x) Hom(C, M) -> M is an isomorphism, for then xi is an
    isomorphism C^r -> M.  Conversely C^r passes both tests once Hom(C, C)
    = A, so the answer is exact for a semidualizing C; for any other C a
    rank it gives is still right."""
    xi = xi_map(m, c)
    h = xi.source.right  # Hom(C, M)
    if is_free(h) and xi.is_isomorphism():
        return h.dim // m.algebra.dim
    return None


def pc_pd(m: Module, c: Module, bound: int = DEFAULT_BOUND) -> Exactly:
    """P_C-projective dimension: -inf for M = 0, 0 when M is C^r, else inf.
    C must pass its semidualizing certificate at ``bound``."""
    if m.dim == 0:
        return Exactly(NEG_INF)
    _require_semidualizing(c, bound)
    return Exactly(INF if c_rank(m, c) is None else 0)


def fc_pd(m: Module, c: Module, bound: int = DEFAULT_BOUND) -> Exactly:
    """F_C-pd: over a finite-dimensional local algebra finitely generated
    flats are free, so this collapses to pc_pd (reported as such)."""
    return pc_pd(m, c, bound)


def ic_id(m: Module, c: Module, bound: int = DEFAULT_BOUND) -> Exactly:
    """I_C-injective dimension: P_C-pd of dual_k(M), since dual_k takes
    I_C = add Hom(C, E) onto P_C = add C."""
    return pc_pd(dual_k(m), c, bound)
