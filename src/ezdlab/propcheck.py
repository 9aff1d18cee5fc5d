"""Executable verification of the theory's facts and propositions, plus a
seeded randomized searcher for the open question about G-class descent
along an exact zero-divisor.

Every verifier gates its hypotheses computationally before asserting the
conclusion; instances failing a hypothesis yield Inconclusive, never a
vacuous Pass.  There is one gate path: a verifier body calls
``_require(ok, reason)`` or a shared gate (``_require_ezd`` for exactness
of the pair on a module, ``_gate_ring_and_c`` for the ring and C,
``_require_x_moves`` for x acting neither as zero nor onto M), which raise
``_Inconclusive`` with the reason.  The ``_verifier`` decorator catches it
once and builds every ``VerificationResult``; bodies only return
``_pass(...)`` or ``_fail(witness, ...)``.  All randomness is driven by
explicit seeds.  The corpus instances are built from the declarations of
the `.ezd` files alone: a file's checks run only under ``ezdlab check``.

The verifiers state facts about a few objects of one instance: A, R/xR,
A/xA and A/yA, C and M reduced over them, the class verdicts of M, R/xR
and M/xM, and the P_C/I_C dimensions of M.  Each is built once, in the
instance's memo (``Instance.once``), under a key that names what it is
built from, module objects and the coordinates of pair elements
(``("bar", C, y.coords)`` is C/yC over A/yA), and lives as long as the
instance, so a later verifier resumes the resolutions and semidualizing
certificates an earlier one left on those modules.  Whole membership
reports are not kept: a class verdict is stored without its Ext/Tor
tables and natural-map witness, which would hold on to every Hom and
tensor module behind them.  Base changes go through ``_mod``.  The open
question is the body ``open-G``, kept out of ``PROP_VERIFIERS``: a search
trial runs it on each configuration through ``Instance.share``, so the
trial has one memo.  Two more live for one search, keyed by the ideal's
reduced Groebner basis, not the text of its generators: each ideal builds
one algebra, each (ideal, drawn radical elements) runs one trial, and a
replayed trial's counterexample entries print the generators the
replaying trial drew.
"""

from __future__ import annotations

import functools
import itertools
import random
from pathlib import Path
from typing import Optional

from .algebra import Algebra, Element
from .groebner import (
    InfiniteDimensionalError,
    NonLocalError,
    PairBudgetExceeded,
    QuotientPresentation,
    QuotientTooLargeError,
)
from .linalg import Field, rank, solve_matrix
from .module import (
    Module,
    Morphism,
    NotIso,
    annihilator_submodule,
    dual_k,
    free_module,
    hom_module,
    is_isomorphic,
    quotient_algebra,
    regular_module,
    residue_field_module,
    scale_quotient,
    tensor_module,
    transport_from_quotient,
    transport_to_quotient,
)
from .poly import PolyRing
from .resolution import (
    INF,
    Exactly,
    ResolutionBudgetExceeded,
    ext,
    injective_dimension,
    tor,
)
from .classes import (
    DEFAULT_BOUND,
    Fails,
    c_rank,
    ic_id,
    in_A_C,
    in_B_C,
    in_G_C,
    is_ezd_pair,
    is_semidualizing,
    pc_pd,
)
from . import dsl
from .record import Frozen, Record, _set

__all__ = [
    "Instance",
    "VerificationResult",
    "load_corpus",
    "fact22_witness",
    "verify_fact_a",
    "verify_fact_b",
    "verify_fact_c",
    "verify_prop_A",
    "verify_prop_B",
    "verify_prop_C",
    "verify_cor_dualizing",
    "verify_cor_K",
    "verify_prop_D",
    "verify_prop_J",
    "verify_prop_E",
    "verify_prop_F",
    "verify_lemma_H",
    "verify_prop_G",
    "verify_open_G",
    "PROP_VERIFIERS",
    "SearchConfig",
    "search_counterexamples",
    "random_gated_instances",
]


class Instance(Frozen):
    """One test configuration: a local algebra with a zero-divisor pair, a
    semidualizing candidate C and a test module M.

    ``_memo`` holds what the verifiers derive from these fields (the ring
    as a module, R/xR, the quotients and base changes, exactness reports,
    slim class verdicts and the P_C/I_C dimensions of M), keyed by what
    each is built from, for as long as the instance lives.  It takes no
    part in equality or the repr.  The instance is frozen so that no field
    changes under a filled memo, and ``replace`` starts a new instance with
    an empty one; ``share`` keeps the memo, as a search trial does for its
    configurations."""

    __slots__ = ("name", "algebra", "x", "y", "c", "m", "bound", "seed", "_memo")
    _fields = __slots__[:-1]

    def __init__(self, name: str, algebra: Algebra, x: Element, y: Element, c: Module,
                 m: Module, bound: int = DEFAULT_BOUND, seed: int = 0):
        for f, v in zip(self._fields, (name, algebra, x, y, c, m, bound, seed)):
            _set(self, f, v)
        _set(self, "_memo", {})

    def once(self, key, build):
        """The memo entry ``key``, made by ``build()`` the first time.  Only
        results are stored: a build that raises runs again on the next call."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def share(self, **changes) -> "Instance":
        """This instance with other ``x``, ``y``, ``c`` or ``m``, holding the
        same memo.  No memo key names the algebra or the bound, so no other
        field may change: that raises ``ValueError``."""
        fixed = set(changes) - {"x", "y", "c", "m"}
        if fixed:
            raise ValueError(f"a shared instance keeps its {', '.join(sorted(fixed))}")
        twin = self.replace(**changes)
        _set(twin, "_memo", self._memo)
        return twin

    def regular(self) -> Module:
        return self.once("A", lambda: regular_module(self.algebra, label="A"))


class VerificationResult(Record):
    # status: "pass" | "fail" | "inconclusive"
    __slots__ = ("prop_id", "instance", "status", "witness", "details")
    _defaults = {"witness": None, "details": ()}


# ---------------------------------------------------------------------------
# the gate path


class _Inconclusive(Exception):
    """The instance fails a hypothesis; the message is the reason."""


def _require(ok: bool, reason: str):
    if not ok:
        raise _Inconclusive(reason)


def _ezd(inst: Instance, module: Module):
    """The report on whether (x, y) is an exact pair on ``module``."""
    return inst.once(
        ("ezd", module, inst.x.coords, inst.y.coords),
        lambda: is_ezd_pair(inst.x, inst.y, module),
    )


def _require_ezd(inst: Instance, module: Module, name: str, listing: bool = False):
    """Gate: (x, y) is an exact pair on ``module``; with ``listing`` the
    reason names the failing checks."""
    rep = _ezd(inst, module)
    checks = f": {rep.failing_checks()}" if listing else ""
    _require(rep.holds, f"(x,y) not ezd on {name}{checks}")


def _gate_ring_and_c(inst: Instance):
    """Gate: (x, y) is exact on the ring and on C, and C is semidualizing."""
    _require_ezd(inst, inst.regular(), "the ring")
    _require_ezd(inst, inst.c, "C")
    cert = is_semidualizing(inst.c, inst.bound)
    _require(cert.holds, f"C not semidualizing: {cert.failure}")


_C_BAR_NOT_SEMIDUALIZING = "C/xC not semidualizing over A/xA"

# what props F and G cannot exercise: depth A = 0 leaves a finite relative
# dimension no value but -inf and 0
_ARTINIAN = "positive dimensions cannot occur over an artinian ring"


def _require_x_moves(inst: Instance):
    """Gate: x acts on M neither as zero nor onto."""
    m = inst.m
    _require(rank(m.element_action(inst.x)) not in (0, m.dim), "x acts as zero or onto M")


def _pass(*details):
    return "pass", None, details


def _fail(witness, *details):
    return "fail", witness, details


def _verifier(prefix: str):
    """Wrap a verifier body into ``verify(inst[, part]) -> VerificationResult``
    with prop id ``prefix`` and the part joined by "-".  The body returns
    ``_pass`` or ``_fail``; an ``_Inconclusive`` it raises becomes an
    inconclusive result with its reason."""

    def wrap(body):
        @functools.wraps(body)
        def verify(inst: Instance, *part) -> VerificationResult:
            pid = "-".join((prefix, *part))
            try:
                status, witness, details = body(inst, *part)
            except _Inconclusive as exc:
                return VerificationResult(pid, inst.name, "inconclusive", str(exc))
            return VerificationResult(pid, inst.name, status, witness, details)

        return verify

    return wrap


# ---------------------------------------------------------------------------
# base-change helpers


def _reduction(inst: Instance, module: Module, e: Element) -> tuple:
    """``scale_quotient(module, e)``: N/eN as an A-module with its
    projection and section, for N = ``module`` and e a pair element."""
    return inst.once(("N/eN", module, e.coords), lambda: scale_quotient(module, e))


def _quotient(inst: Instance, module: Module, e: Element) -> Module:
    """N/eN; ``_quotient(inst, inst.regular(), inst.x)`` is R/xR."""
    return _reduction(inst, module, e)[0]


def _mod(inst: Instance, e: Element, *modules: Module) -> tuple:
    """A/eA for the pair element ``e``, then each of ``modules`` reduced mod
    e, over it."""
    abar = inst.once(("A/eA", e.coords), lambda: quotient_algebra(inst.algebra, e))
    return (abar, *(
        inst.once(("bar", n, e.coords),
                  lambda n=n: transport_to_quotient(_quotient(inst, n, e), abar, e))
        for n in modules
    ))


def _slim(report):
    """A membership report without its tables and natural-map witness."""
    return report.replace(tables={}, witness=None)


def _member(inst: Instance, kind: str, x: Module, c: Module):
    """The slim verdict of ``x`` in the class ``kind`` ("G_C", "A_C" or
    "B_C") of ``c``, over the algebra they are modules over."""
    fn = {"G_C": in_G_C, "A_C": in_A_C, "B_C": in_B_C}[kind]
    return inst.once((kind, x, c), lambda: _slim(fn(x, c, inst.bound)))


def _dim(inst: Instance, dim_fn):
    """``pc_pd`` or ``ic_id`` of (M, C)."""
    return inst.once((dim_fn.__name__, inst.m, inst.c),
                     lambda: dim_fn(inst.m, inst.c, inst.bound))


# ---------------------------------------------------------------------------
# Fact: over an exact zero-divisor, the annihilator equals the quotient


def fact22_witness(x: Element, y: Element, m: Module,
                   reduction: Optional[tuple] = None) -> Morphism:
    """The explicit isomorphism M/xM -> (0:_M x) induced by y.

    Well defined since y.(xM) = 0, surjective since im(y) = ker(x),
    injective since ker(y) = xM.  ``reduction`` is ``scale_quotient(m, x)``,
    made here when not given."""
    ann, incl = annihilator_submodule(m, x)
    quot, _proj, section = reduction or scale_quotient(m, x)
    # any section of the projection will do: two differ by a map into xM,
    # which y kills
    img = m.element_action(y) @ section
    coords = solve_matrix(incl.matrix, img)
    if coords is None:
        raise AssertionError("y-image does not land in the annihilator")
    return Morphism(quot, ann, coords)


@_verifier("fact-a")
def verify_fact_a(inst: Instance):
    _require_ezd(inst, inst.m, "M", listing=True)
    try:
        phi = fact22_witness(inst.x, inst.y, inst.m, _reduction(inst, inst.m, inst.x))
    except AssertionError as exc:
        return _fail(str(exc))
    if not phi.is_isomorphism():
        return _fail("induced map M/xM -> (0:_M x) is not invertible")
    verdict = is_isomorphic(phi.source, phi.target, seed=inst.seed)
    if isinstance(verdict, NotIso):
        return _fail(f"generic iso test disagrees: {verdict.reason}")
    return _pass(f"explicit witness of dimension {phi.source.dim}")


# ---------------------------------------------------------------------------
# Fact: ezd on M vs vanishing of Ext/Tor against R/xR


@_verifier("fact-b")
def verify_fact_b(inst: Instance):
    _require_ezd(inst, inst.regular(), "the ring")
    m = inst.m
    _require(m.dim != 0, "zero module")
    cyc = _quotient(inst, inst.regular(), inst.x)
    i = _ezd(inst, m).holds
    et = ext(cyc, m, inst.bound)
    tt = tor(cyc, m, inst.bound)
    ii = et.vanishes_above(0)
    iii = tt.vanishes_above(0)
    details = (
        f"(i)={i} (ii)={ii} up to {et.bound} (iii)={iii} up to {tt.bound}",
    )
    if i and not (ii and iii):
        bad = et.last_nonzero() if not ii else tt.last_nonzero()
        return _fail(f"(i) holds but vanishing fails at degree {bad}", *details)
    if ii != iii:
        return _fail("(ii) and (iii) disagree", *details)
    # converse: the algebra is local and M is finite (condition (b)), and
    # condition (a) may hold independently; either licenses (ii) => (i)
    ax = m.element_action(inst.x)
    cond_a = rank(ax) not in (0, m.dim)
    if ii and not i and et.certified_all_beyond and tt.certified_all_beyond:
        return _fail("certified vanishing without (i)", *details)
    _require(i or not ii, "vanishing only up to bound; converse undecided")
    return _pass(*details, f"condition (a) holds: {cond_a}")


@_verifier("fact-c")
def verify_fact_c(inst: Instance):
    """Base change of Ext/Tor along A -> A/xA at the dimension level."""
    _require_ezd(inst, inst.regular(), "the ring")
    m = inst.m
    _require_ezd(inst, m, "M")
    abar, m_bar = _mod(inst, inst.x, m)
    # test object: the residue field of the quotient
    xc = inst.x.coords
    n_bar = inst.once(("k of A/eA", xc), lambda: residue_field_module(abar))
    n_up = inst.once(("k of A/eA over A", xc), lambda: transport_from_quotient(n_bar, inst.algebra))
    bound = min(inst.bound, 6)
    pairs = [
        ("Ext(N,M)", ext(n_up, m, bound), ext(n_bar, m_bar, bound)),
        ("Ext(M,N)", ext(m, n_up, bound), ext(m_bar, n_bar, bound)),
        ("Tor(M,N)", tor(m, n_up, bound), tor(m_bar, n_bar, bound)),
    ]
    details = []
    for name, over_a, over_abar in pairs:
        for i in range(bound + 1):
            if over_a.entry(i) != over_abar.entry(i):
                return _fail(
                    f"{name} degree {i}: {over_a.entry(i)} over A vs "
                    f"{over_abar.entry(i)} over A/xA",
                )
        details.append(f"{name} agrees through degree {bound}")
    return _pass(*details)


# ---------------------------------------------------------------------------
# the cyclic module R/xR lies in G_C and A_C


def _cyclic_member(inst: Instance, kind: str):
    _gate_ring_and_c(inst)
    rep = _member(inst, kind, _quotient(inst, inst.regular(), inst.x), inst.c)
    if rep.holds:
        return _pass(f"verdict {rep.verdict!r}")
    return _fail(rep.verdict.witness)


@_verifier("prop-A")
def verify_prop_A(inst: Instance):
    """R/xR lies in G_C."""
    return _cyclic_member(inst, "G_C")


@_verifier("prop-C")
def verify_prop_C(inst: Instance):
    """R/xR lies in A_C."""
    return _cyclic_member(inst, "A_C")


# ---------------------------------------------------------------------------
# semidualizing descends and lifts along the pair


@_verifier("prop-B")
def verify_prop_B(inst: Instance):
    """B (the instance's C) semidualizing over A iff B/xB and B/yB are
    semidualizing over the two quotients.  Checked as a biconditional on
    the instance."""
    b = inst.c
    _require_ezd(inst, inst.regular(), "the ring")
    _require_ezd(inst, b, "B")
    over_a = is_semidualizing(b, inst.bound).holds
    _, bx = _mod(inst, inst.x, b)
    _, by = _mod(inst, inst.y, b)
    sx = is_semidualizing(bx, inst.bound).holds
    sy = is_semidualizing(by, inst.bound).holds
    details = (f"over A: {over_a}; B/xB over A/xA: {sx}; B/yB over A/yA: {sy}",)
    if over_a != (sx and sy):
        return _fail("biconditional violated", *details)
    return _pass(*details)


@_verifier("cor-dualizing")
def verify_cor_dualizing(inst: Instance):
    """If D/xD is dualizing over A/xA and D/yD semidualizing over A/yA,
    then D is dualizing over A (D is the instance's C)."""
    d = inst.c
    _require_ezd(inst, inst.regular(), "the ring")
    _require_ezd(inst, d, "D")
    _, dx = _mod(inst, inst.x, d)
    _, dy = _mod(inst, inst.y, d)
    _require(is_semidualizing(dx, inst.bound).holds, "D/xD not semidualizing over A/xA")
    idx = injective_dimension(dx)
    _require(idx == Exactly(0), f"D/xD not injective over A/xA: id = {idx!r}")
    _require(is_semidualizing(dy, inst.bound).holds, "D/yD not semidualizing over A/yA")
    if not is_semidualizing(d, inst.bound).holds:
        return _fail("D fails semidualizing over A")
    idd = injective_dimension(d)
    if idd != Exactly(0):
        return _fail(f"D semidualizing but id = {idd!r}, not 0")
    return _pass("D dualizing: semidualizing with id 0")


# ---------------------------------------------------------------------------
# membership over A vs over A/xA for modules killed by x


@_verifier("cor-K")
def verify_cor_K(inst: Instance, which: str):
    """For an A/xA-module M: membership over A agrees with membership of
    the same module over A/xA (G for i, A for ii, B for iii)."""
    _gate_ring_and_c(inst)
    m = inst.m
    _require(m.element_action(inst.x).is_zero(), "M is not killed by x")
    _require(m.dim != 0, "zero module")
    abar, c_bar = _mod(inst, inst.x, inst.c)
    m_bar = inst.once(("over A/eA", m, inst.x.coords),
                      lambda: transport_to_quotient(m, abar, inst.x))
    _require(is_semidualizing(c_bar, inst.bound).holds, _C_BAR_NOT_SEMIDUALIZING)
    kind = {"i": "G_C", "ii": "A_C", "iii": "B_C"}[which]
    over_a = _member(inst, kind, m, inst.c)
    over_bar = _member(inst, kind, m_bar, c_bar)
    details = (f"over A: {over_a.verdict!r}; over A/xA: {over_bar.verdict!r}",)
    if over_a.holds != over_bar.holds:
        return _fail("membership verdicts disagree across base change", *details)
    return _pass(*details)


@_verifier("prop-D")
def verify_prop_D(inst: Instance, which: str):
    """Membership of M/xM and M/yM over the two quotients forces
    membership of M (A for i, B for ii, G for iii)."""
    _gate_ring_and_c(inst)
    m = inst.m
    _require_ezd(inst, m, "M")
    kind = {"i": "A_C", "ii": "B_C", "iii": "G_C"}[which]
    _, cx, mx = _mod(inst, inst.x, inst.c, m)
    _, cy, my = _mod(inst, inst.y, inst.c, m)
    _require(
        is_semidualizing(cx, inst.bound).holds and is_semidualizing(cy, inst.bound).holds,
        "C does not stay semidualizing over the quotients",
    )
    hx = _member(inst, kind, mx, cx)
    hy = _member(inst, kind, my, cy)
    _require(hx.holds and hy.holds, f"hypothesis fails over A/{'y' if hx.holds else 'x'}A")
    concl = _member(inst, kind, m, inst.c)
    if concl.holds:
        return _pass(f"conclusion verdict {concl.verdict!r}")
    return _fail(concl.verdict.witness)


@_verifier("prop-J")
def verify_prop_J(inst: Instance, which: str):
    """With M in the class, membership of M/xM (over A, same C) is
    equivalent to (x,y) being ezd on the auxiliary module
    (Hom(M,C) for i, Hom(C,M) for ii, C(x)M for iii)."""
    _gate_ring_and_c(inst)
    m = inst.m
    _require_ezd(inst, m, "M")
    kind = {"i": "G_C", "ii": "B_C", "iii": "A_C"}[which]
    _require(_member(inst, kind, m, inst.c).holds, "M not verified in the class")
    if which == "i":
        aux = hom_module(m, inst.c)
    elif which == "ii":
        aux = hom_module(inst.c, m)
    else:
        aux = tensor_module(inst.c, m)
    left = _member(inst, kind, _quotient(inst, m, inst.x), inst.c).holds
    right = is_ezd_pair(inst.x, inst.y, aux).holds
    details = (f"M/xM in class: {left}; (x,y) ezd on auxiliary: {right}",)
    if left != right:
        witness = ("membership without the auxiliary ezd pair" if left
                   else "auxiliary ezd pair without membership")
        return _fail(witness, *details)
    return _pass(*details)


# ---------------------------------------------------------------------------
# the classes P_C and I_C under the pair


@_verifier("prop-E")
def verify_prop_E(inst: Instance, mode: str):
    """If M is in P_C (mode pc) or I_C (mode ic) and x acts neither as zero
    nor onto, then (x,y) is ezd on M and M/xM lands in the quotient class.
    Matlis duality takes I_C onto P_C, so M is in I_C when dual_k(M) is in
    P_C, which ``c_rank`` decides once C is semidualizing."""
    _gate_ring_and_c(inst)
    _require_x_moves(inst)
    m = inst.m
    dual = dual_k if mode == "ic" else (lambda n: n)
    r = c_rank(dual(m), inst.c)
    _require(r is not None, f"M not recognized in the class (generator dim {inst.c.dim})")
    if not _ezd(inst, m).holds:
        return _fail("(x,y) fails to be ezd on M")
    _, m_bar, c_bar = _mod(inst, inst.x, m, inst.c)
    _require(is_semidualizing(c_bar, inst.bound).holds, _C_BAR_NOT_SEMIDUALIZING)
    rq = c_rank(dual(m_bar), c_bar)
    if rq is None:
        return _fail("M/xM not in the quotient class")
    return _pass(f"rank {r} over A, rank {rq} over A/xA")


@_verifier("prop-F")
def verify_prop_F(inst: Instance, mode: str):
    """Finite P_C-pd (or I_C-id) with x acting neither zero nor onto
    forces (x,y) ezd on M."""
    _gate_ring_and_c(inst)
    _require_x_moves(inst)
    m = inst.m
    verdict = _dim(inst, pc_pd if mode == "pc" else ic_id)
    _require(verdict.value < INF, f"dimension not verified finite: {verdict!r}")
    if _ezd(inst, m).holds:
        return _pass(f"dimension {verdict!r}", _ARTINIAN)
    return _fail(f"dimension {verdict!r} finite but pair not ezd on M")


@_verifier("lemma-H")
def verify_lemma_H(inst: Instance, part: str):
    """Dimension 0 in the relative class forces Tor (parts i, ii) or Ext
    (part iii) against R/xR to vanish above 0."""
    _gate_ring_and_c(inst)
    m = inst.m
    _require(m.dim != 0, "zero module")
    verdict = _dim(inst, ic_id if part == "iii" else pc_pd)
    _require(verdict == Exactly(0), f"dimension is {verdict!r}, lemma exercised at n = 0")
    cyc = _quotient(inst, inst.regular(), inst.x)
    if part == "iii":
        table = ext(cyc, m, inst.bound)
        name = "Ext(R/xR, M)"
    else:
        table = tor(cyc, m, inst.bound)
        name = "Tor(R/xR, M)"
    if table.vanishes_above(0):
        return _pass(f"{name} vanishes above 0 up to {table.bound}")
    return _fail(f"{name} nonzero at degree {table.last_nonzero()}")


@_verifier("prop-G")
def verify_prop_G(inst: Instance, part: str):
    """Finite relative dimension descends to the quotient with equality in
    the local finite case.  Over these artinian algebras a finite value of
    a nonzero M is 0, so the statement is exercised at 0."""
    _gate_ring_and_c(inst)
    _require_x_moves(inst)
    m = inst.m
    dim_fn = ic_id if part == "iii" else pc_pd
    verdict = _dim(inst, dim_fn)
    _require(verdict.value < INF, f"dimension not verified finite: {verdict!r}")
    _, m_bar, c_bar = _mod(inst, inst.x, m, inst.c)
    _require(is_semidualizing(c_bar, inst.bound).holds, _C_BAR_NOT_SEMIDUALIZING)
    verdict_bar = dim_fn(m_bar, c_bar, inst.bound)
    if not verdict_bar.value < INF:
        return _fail(f"quotient dimension not finite: {verdict_bar!r}")
    if verdict_bar != verdict:
        return _fail(f"equality fails in the local finite case: {verdict_bar!r} vs {verdict!r}")
    return _pass(f"both dimensions {verdict!r}", _ARTINIAN)


# ---------------------------------------------------------------------------
# corpus


def _default_corpus_dir() -> Path:
    here = Path(__file__).resolve()
    for parent in here.parents:
        cand = parent / "corpus"
        if cand.is_dir():
            return cand
    raise FileNotFoundError("no corpus directory found above the package")


def load_corpus(directory: Optional[Path] = None, bound: int = DEFAULT_BOUND, seed: int = 0):
    """Instances from the declarations of `.ezd` files; their checks are not
    run.  Convention: the first ring is the algebra, elements named ex/ey
    are the pair, a module named C is the semidualizing candidate (default:
    the ring), a module named M the test module (default: the ring)."""
    directory = Path(directory) if directory is not None else _default_corpus_dir()
    instances = []
    for path in sorted(directory.glob("*.ezd")):
        decls = tuple(s for s in dsl.parse_script(path.read_text()).statements
                      if not isinstance(s, dsl.CheckStmt))
        try:
            env, _ = dsl.run_script(dsl.Script(decls))
        except (InfiniteDimensionalError, NonLocalError):
            continue  # parse-only exhibits (e.g. the infinite staircase)
        if not env.rings or "ex" not in env.elems or "ey" not in env.elems:
            continue
        algebra = next(iter(env.rings.values()))
        reg = regular_module(algebra, label="A")
        c = env.modules.get("C", reg)
        m = env.modules.get("M", reg)
        inst = Instance(path.stem, algebra, env.elems["ex"], env.elems["ey"], c, m, bound, seed)
        inst.once("A", lambda: reg)  # a C or M that defaults to the ring is the ring
        instances.append(inst)
    return instances


# ---------------------------------------------------------------------------
# randomized instance generation


def _draw_presentation(rng: random.Random, p: int):
    """The random part of a presentation: a polynomial ring over GF(p) in
    one to three variables and its ideal generators.  Every draw takes the
    same RNG steps whatever p and whatever becomes of the presentation."""
    nvars = rng.randint(1, 3)
    names = ["x", "y", "z"][:nvars]
    field = Field(p)
    ring = PolyRing(field, names)
    gens = []
    powers = [rng.randint(2, 4 if nvars == 1 else 3) for _ in range(nvars)]
    for v, e in enumerate(powers):
        mono = [0] * nvars
        mono[v] = e
        gens.append(ring.monomial(tuple(mono)))
    for _ in range(rng.randint(0, nvars)):
        mono = tuple(rng.randint(0, 2) for _ in range(nvars))
        if sum(mono) >= 2:
            gens.append(ring.monomial(mono))
    if nvars >= 2 and rng.random() < 0.6:
        # one binomial relation between two pure squares, hypersurface-style
        a, b = rng.sample(range(nvars), 2)
        ma, mb = [0] * nvars, [0] * nvars
        ma[a], mb[b] = 2, 2
        gens.append(
            ring.poly({tuple(ma): field.one, tuple(mb): field.canon(-1)})
        )
    return ring, gens


def _presentation(ring: PolyRing, gens: list, max_dim: int) -> Optional[QuotientPresentation]:
    """ring/(gens) with its reduced Groebner basis and staircase, or None
    when it is not finite-dimensional, larger than ``MAX_QUOTIENT_DIM``,
    or its dimension is outside 2..max_dim."""
    try:
        pres = QuotientPresentation(ring, gens)
    except (
        InfiniteDimensionalError,
        PairBudgetExceeded,
        QuotientTooLargeError,
        ValueError,
    ):
        return None
    if pres.dim < 2 or pres.dim > max_dim:
        return None
    return pres


def _local_algebra(pres: Optional[QuotientPresentation]) -> Optional[Algebra]:
    """The algebra of `pres`, or None when there is none or it is not local."""
    if pres is None:
        return None
    try:
        return Algebra(pres)
    except (NonLocalError, ValueError):
        return None


def _build_algebra(ring: PolyRing, gens: list, max_dim: int) -> Optional[Algebra]:
    """ring/(gens) as a local algebra, or None when `_presentation` or
    `_local_algebra` rejects it."""
    return _local_algebra(_presentation(ring, gens, max_dim))


def _radical_elements(algebra: Algebra, rng: random.Random, cap: int = 40):
    """Nonzero radical elements; exhaustive for GF(2) at small dimension,
    else a seeded sample."""
    field = algebra.field
    idxs = algebra.radical_indices
    out = []
    if field.p == 2 and len(idxs) <= 5:
        for mask in range(1, 2 ** len(idxs)):
            coords = [field.zero] * algebra.dim
            for k, i in enumerate(idxs):
                if mask >> k & 1:
                    coords[i] = field.one
            out.append(algebra.element(coords))
        return out
    for _ in range(cap):
        coords = [field.zero] * algebra.dim
        for i in idxs:
            coords[i] = field.canon(rng.randrange(field.p))
        e = algebra.element(coords)
        if not e.is_zero():
            out.append(e)
    return out


def _ezd_pairs(reg: Module, elems: list, limit: int):
    """The first `limit` pairs of `elems` that are exact zero-divisor pairs
    on the regular module `reg`."""
    pairs = []
    for x, y in itertools.product(elems, repeat=2):
        if is_ezd_pair(x, y, reg).holds:
            pairs.append((x, y))
            if len(pairs) >= limit:
                return pairs
    return pairs


def random_gated_instances(
    seed: int,
    count: int,
    p: int = 2,
    max_dim: int = 6,
    bound: int = 6,
    max_trials: int = 4000,
):
    """Instances where (x,y) is a verified ezd pair on M, for property runs.

    M ranges over the regular module, free rank 2, the k-dual and the
    cyclic quotient; every returned instance is gated through is_ezd_pair."""
    rng = random.Random(seed)
    out = []
    trials = 0
    while len(out) < count and trials < max_trials:
        trials += 1
        algebra = _build_algebra(*_draw_presentation(rng, p), max_dim)
        if algebra is None:
            continue
        reg = regular_module(algebra, label="A")
        for x, y in _ezd_pairs(reg, _radical_elements(algebra, rng), limit=4):
            candidates = [
                reg,
                free_module(algebra, 2),
                dual_k(reg),
                scale_quotient(reg, x)[0],
            ]
            for m in candidates:
                if is_ezd_pair(x, y, m).holds:
                    out.append(
                        Instance(
                            f"rand-{len(out)}", algebra, x, y, reg, m,
                            bound=bound, seed=seed,
                        )
                    )
                    if len(out) >= count:
                        return out
    return out


# ---------------------------------------------------------------------------
# the open-question searcher


class SearchConfig(Record):
    __slots__ = ("seed", "trials", "max_dim", "p", "bound")
    _defaults = {"seed": 0, "trials": 100, "max_dim": 6, "p": 2, "bound": 4}


@_verifier("open-G")
def verify_open_G(inst: Instance):
    """The open question: M in G_C with (x,y) ezd on A, C and M; is M/xM
    in G_{C/xC} over A/xA?  A fail is a counterexample."""
    _gate_ring_and_c(inst)
    _require_ezd(inst, inst.m, "M")
    _require(_member(inst, "G_C", inst.m, inst.c).holds, "M not in G_C")
    _, c_bar, m_bar = _mod(inst, inst.x, inst.c, inst.m)
    _require(is_semidualizing(c_bar, inst.bound).holds, _C_BAR_NOT_SEMIDUALIZING)
    concl = _member(inst, "G_C", m_bar, c_bar)
    if isinstance(concl.verdict, Fails):
        return _fail(concl.verdict.witness)
    return _pass(f"verdict {concl.verdict!r}")


def _search_trial(algebra: Algebra, elems: list, bound: int):
    """One search trial on `algebra` with the radical elements `elems` drawn
    for it: returns (ring_pairs, fully_gated, budget_skips, counterexamples).

    Every configuration runs ``open-G`` on an instance sharing the trial's
    memo.  A configuration is fully gated once M passes the G_C gate, and a
    budget stop skips the rest of its (pair, C).  The result depends on
    nothing but the algebra, the elements and the bound, which is what lets
    the searcher replay it."""
    reg = regular_module(algebra, label="A")
    pairs = _ezd_pairs(reg, elems, limit=3)
    if not pairs:
        return 0, 0, 0, []
    fully_gated = budget_skips = 0
    counterexamples: list = []
    dual = dual_k(reg, label="dual")
    c_candidates = [("A", reg), ("dual_k(A)", dual)]
    ideal = algebra.presentation.ideal_generators
    base = Instance("search", algebra, *pairs[0], reg, reg, bound)
    base.once("A", lambda: reg)
    for x, y in pairs:
        m_candidates = c_candidates + [("A/yA", _quotient(base, reg, y))]
        for c_name, c in c_candidates:
            try:
                for m_name, m in m_candidates:
                    result = verify_open_G(base.share(x=x, y=y, c=c, m=m))
                    status, reason = result.status, result.witness
                    if status != "inconclusive" or reason == _C_BAR_NOT_SEMIDUALIZING:
                        fully_gated += 1
                    if status == "fail":
                        counterexamples.append({
                            "ideal": [algebra.ring.format_poly(g) for g in ideal],
                            "x": repr(x), "y": repr(y), "C": c_name, "M": m_name,
                            "witness": reason,
                        })
            except (ResolutionBudgetExceeded, PairBudgetExceeded):
                budget_skips += 1
    return len(pairs), fully_gated, budget_skips, counterexamples


def search_counterexamples(config: SearchConfig) -> dict:
    """Look for M in G_C with (x,y) ezd on A, C and M such that M/xM is
    not in G_{C/xC} over A/xA.  Returns a deterministic report dict.

    Random presentations repeat, and many generator lists give one ideal,
    so the memos that live for the length of one call are keyed by the
    ideal: its variable names and formatted reduced Groebner basis, which
    is monic, interreduced and sorted, hence canonical.  `bases` runs
    Buchberger once per distinct generator text and maps it to that key
    (None when the presentation is rejected).  `algebras` builds one
    `Algebra` per key.  `outcomes` replays a trial whose key and drawn
    radical elements were seen before: it adds that trial's stored counts
    and counterexample entries to the report instead of running it again.
    A stored entry may come from another generator list of the ideal, so
    every entry's "ideal" is rewritten to the current trial's generators.
    The elements are drawn on every trial, so the RNG takes the same steps
    as without the memos, and the report is the same byte for byte."""
    rng = random.Random(config.seed)
    report = {
        "seed": config.seed,
        "trials": config.trials,
        "max_dim": config.max_dim,
        "field": f"GF({config.p})",
        "bound": config.bound,
        "algebras_built": 0,
        "ring_pairs": 0,
        "fully_gated": 0,
        "budget_skips": 0,
        "counterexamples": [],
    }
    bases: dict = {}
    algebras: dict = {}
    outcomes: dict = {}
    for _trial in range(config.trials):
        ring, gens = _draw_presentation(rng, config.p)
        ideal = tuple(ring.format_poly(g) for g in gens)
        if ideal not in bases:
            pres = _presentation(ring, gens, config.max_dim)
            bases[ideal] = basis = None if pres is None else (
                tuple(ring.names),
                tuple(ring.format_poly(g) for g in pres.groebner),
            )
            if basis not in algebras:
                algebras[basis] = _local_algebra(pres)
        basis = bases[ideal]
        algebra = algebras[basis]
        if algebra is None:
            continue
        report["algebras_built"] += 1
        elems = _radical_elements(algebra, rng)
        key = (basis, tuple(e.coords for e in elems))
        if key not in outcomes:
            outcomes[key] = _search_trial(algebra, elems, config.bound)
        pairs, gated, skips, found = outcomes[key]
        report["ring_pairs"] += pairs
        report["fully_gated"] += gated
        report["budget_skips"] += skips
        report["counterexamples"].extend({**e, "ideal": list(ideal)} for e in found)
    return report


# ---------------------------------------------------------------------------
# registry for the CLI


def _with_part(verifier, part: tuple):
    """``verifier`` with its part fixed, as a function of the instance."""
    return lambda inst: verifier(inst, *part)


PROP_VERIFIERS: dict = {
    "-".join((key, *part)): _with_part(verifier, part)
    for key, verifier, parts in (
        ("fact-a", verify_fact_a, ()),
        ("fact-b", verify_fact_b, ()),
        ("fact-c", verify_fact_c, ()),
        ("A", verify_prop_A, ()),
        ("B", verify_prop_B, ()),
        ("C", verify_prop_C, ()),
        ("dualizing", verify_cor_dualizing, ()),
        ("K", verify_cor_K, ("i", "ii", "iii")),
        ("D", verify_prop_D, ("i", "ii", "iii")),
        ("J", verify_prop_J, ("i", "ii", "iii")),
        ("E", verify_prop_E, ("pc", "ic")),
        ("F", verify_prop_F, ("pc", "ic")),
        ("H", verify_lemma_H, ("i", "iii")),
        ("G", verify_prop_G, ("i", "iii")),
    )
    for part in [(p,) for p in parts] or [()]
}
