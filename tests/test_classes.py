"""Exact zero-divisor pairs, semidualizing certificates, class memberships
and the relative homological dimensions."""

import gc
import weakref

import pytest

from ezdlab import classes, propcheck, resolution
from ezdlab import module as module_mod
from ezdlab.classes import (
    CertifiedAll,
    Fails,
    HoldsUpTo,
    NotSemidualizingError,
    _verdict,
    build_proper_PC_resolution,
    fc_pd,
    homothety_map,
    ic_id,
    in_A_C,
    in_B_C,
    in_G_C,
    is_ezd_pair,
    is_semidualizing,
    pc_pd,
)
from ezdlab.module import (
    Module,
    annihilator_submodule,
    direct_sum,
    dual_k,
    free_module,
    hom_module,
    regular_module,
    residue_field_module,
    scale_quotient,
    tensor_module,
    zero_module,
)
from ezdlab.resolution import INF, Exactly, ExtTable, NEG_INF, minimal_free_resolution

from conftest import var


def test_ezd_pair_ci(ci):
    x, y = var(ci, 0), var(ci, 1)
    rep = is_ezd_pair(x, y, regular_module(ci))
    assert rep.holds
    assert all(rep.checks.values())


def test_ezd_pair_rejects_unit(ci):
    rep = is_ezd_pair(ci.one_element(), var(ci, 1), regular_module(ci))
    assert not rep.holds
    assert rep.failing_checks()


def test_ezd_pair_rejects_nonexact(sprime):
    """x kills nothing but its own multiples in S'; (x, x) is a zero divisor
    pair yet not exact since ker x strictly contains im x."""
    x = var(sprime, 0)
    rep = is_ezd_pair(x, x, regular_module(sprime))
    assert not rep.holds


def test_ezd_pair_u_on_sprime(sprime):
    u = var(sprime, 2)
    assert is_ezd_pair(u, u, regular_module(sprime)).holds


def test_homothety_map_is_iso(square_zero):
    r = regular_module(square_zero)
    omega = dual_k(r)
    chi = homothety_map(omega)
    assert chi.is_isomorphism()


def test_regular_always_semidualizing(ci):
    cert = is_semidualizing(regular_module(ci))
    assert cert.holds
    assert isinstance(cert.verdict, CertifiedAll)


def test_omega_semidualizing(square_zero):
    omega = dual_k(regular_module(square_zero))
    cert = is_semidualizing(omega, 12)
    assert cert.holds
    assert isinstance(cert.verdict, CertifiedAll)
    # the Ext(C,C) table is built only once chi is an isomorphism
    assert "Ext(C,C)" in cert.tables


def test_certificate_is_made_once_per_bound(square_zero):
    omega = dual_k(regular_module(square_zero))
    cert = is_semidualizing(omega, 4)
    assert is_semidualizing(omega, 4) is cert
    assert is_semidualizing(omega, 5) is not cert
    assert omega._semidual == {4: cert, 5: is_semidualizing(omega, 5)}


class _Tracked(Module):
    """A Module that can be weakly referenced (Module itself has slots)."""


def test_module_and_its_caches_freed_by_refcount(square_zero):
    """Nothing a module caches (monomial actions, resolution state,
    semidualizing certificates) refers back to it."""
    omega = dual_k(regular_module(square_zero))
    c = _Tracked(square_zero, list(omega.actions), label="omega")
    assert is_semidualizing(c, 3).holds
    minimal_free_resolution(c, 3)
    assert c._resolution is not None and c._semidual
    ref = weakref.ref(c)
    gc.disable()
    try:
        del c
        assert ref() is None
    finally:
        gc.enable()


def test_residue_field_not_semidualizing(square_zero):
    k = residue_field_module(square_zero)
    cert = is_semidualizing(k)
    assert not cert.holds


def test_free_rank2_not_semidualizing(ci):
    cert = is_semidualizing(free_module(ci, 2))
    assert not cert.holds


def test_class_predicates_reject_bad_c(ci):
    k = residue_field_module(ci)
    with pytest.raises(NotSemidualizingError):
        in_G_C(regular_module(ci), k)


def test_g_class_over_dualizing(square_zero):
    """With C dualizing, every finite module is totally C-reflexive."""
    r = regular_module(square_zero)
    omega = dual_k(r)
    k = residue_field_module(square_zero)
    for m in (r, omega, k):
        rep = in_G_C(m, omega)
        assert rep.holds
        assert isinstance(rep.verdict, CertifiedAll)


def test_a_b_classes_over_dualizing(square_zero):
    r = regular_module(square_zero)
    omega = dual_k(r)
    assert isinstance(in_A_C(r, omega).verdict, CertifiedAll)
    assert isinstance(in_B_C(omega, omega).verdict, CertifiedAll)
    # k fails both natural maps: dim Hom(C, C(x)k) = 4 != 1
    assert isinstance(in_A_C(residue_field_module(square_zero), omega).verdict, Fails)
    assert isinstance(in_B_C(residue_field_module(square_zero), omega).verdict, Fails)


def test_foxby_style_transfer(square_zero, ci):
    """If M is in A_C then C (x) M is in B_C; if M is in B_C then
    Hom(C, M) is in A_C."""
    for algebra in (square_zero, ci):
        r = regular_module(algebra)
        omega = dual_k(r)
        for m in (r, free_module(algebra, 2)):
            assert in_A_C(m, omega).holds
            assert in_B_C(tensor_module(omega, m), omega).holds
        for m in (omega, direct_sum(omega, omega)):
            assert in_B_C(m, omega).holds
            assert in_A_C(hom_module(omega, m), omega).holds


def test_matlis_duality_swaps_the_auslander_and_bass_classes():
    """M is in A_C exactly when its k-dual is in B_C.  The two sides share
    no table: A_C reads gamma into Hom(C, C (x) M), B_C reads xi out of
    C (x) Hom(C, M^v).  Each corpus ring, C in {A, omega}, and six M."""
    kinds = []
    for inst in propcheck.load_corpus(bound=8):
        a = regular_module(inst.algebra)
        omega, k = dual_k(a), residue_field_module(inst.algebra)
        modules = {"k": k, "A": a, "omega": omega, "A/xA": scale_quotient(a, inst.x)[0],
                   "ann x": annihilator_submodule(a, inst.x)[0], "Hom(k,A)": hom_module(k, a)}
        for c_name, c in (("A", a), ("omega", omega)):
            for m_name, m in modules.items():
                auslander = type(in_A_C(m, c, 8).verdict)
                bass = type(in_B_C(dual_k(m), c, 8).verdict)
                assert auslander is bass, (inst.name, c_name, m_name)
                kinds.append(auslander)
    # both sides are exercised: every verdict kind occurs
    assert len(kinds) == 72 and {CertifiedAll, Fails, HoldsUpTo} <= set(kinds)


def test_bounded_membership_when_uncertifiable(sprime):
    """Over the non-Gorenstein S' = (k[x,y]/(x,y)^2)[u]/(u^2), neither A/uA
    nor dual_k(A) is free, so both Ext routes have infinite resolutions and
    G-membership of A/uA in the regular module is reported as bounded,
    never certified."""
    m = scale_quotient(regular_module(sprime), var(sprime, 2))[0]
    rep = in_G_C(m, regular_module(sprime), 10)
    assert rep.holds
    assert isinstance(rep.verdict, HoldsUpTo)
    assert rep.verdict.bound >= 10


def test_proper_resolution_of_c(square_zero):
    omega = dual_k(regular_module(square_zero))
    report = build_proper_PC_resolution(omega, omega, 4, 4)
    assert report.terminated
    assert report.proper
    assert report.proper_rank2
    assert report.augmented_exact
    assert report.betti == [1]


def test_proper_resolution_infinite(hyper2):
    a = regular_module(hyper2)
    m = scale_quotient(a, var(hyper2, 0))[0]
    report = build_proper_PC_resolution(m, a, 4, 4)
    assert not report.terminated
    assert report.proper
    assert report.betti == [1] * 5


def test_pc_pd_values(square_zero):
    r = regular_module(square_zero)
    omega = dual_k(r)
    assert pc_pd(omega, omega) == Exactly(0)
    assert pc_pd(zero_module(square_zero), omega) == Exactly(NEG_INF)
    assert pc_pd(residue_field_module(square_zero), omega) == Exactly(INF)
    # A is not omega^r over this non-Gorenstein ring
    assert pc_pd(r, omega) == Exactly(INF)


def test_ic_id_values(square_zero):
    r = regular_module(square_zero)
    omega = dual_k(r)
    assert ic_id(r, omega) == Exactly(0)
    assert ic_id(zero_module(square_zero), omega) == Exactly(NEG_INF)
    # I_omega = add A, and omega is not free here
    assert ic_id(omega, omega) == Exactly(INF)


def test_fc_pd_artinian_collapse(hyper2, square_zero):
    """Over an artinian algebra, flat = projective, so F_C-pd and P_C-pd
    agree; values land in {-inf, 0, inf}."""
    for algebra in (hyper2, square_zero):
        a = regular_module(algebra)
        assert fc_pd(a, a) == pc_pd(a, a) == Exactly(0)
    m = scale_quotient(regular_module(hyper2), var(hyper2, 0))[0]
    v = fc_pd(m, regular_module(hyper2), 6)
    assert v == Exactly(INF)


def test_relative_dimensions_make_no_class_check(square_zero, monkeypatch):
    """k lies in neither B_omega nor A_omega, and its relative dimensions
    are inf all the same: the exact rule runs no class predicate and no
    isomorphism search."""
    omega = dual_k(regular_module(square_zero))
    k = residue_field_module(square_zero)
    calls = []

    def refused(name):
        def wrapper(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} called")
        return wrapper

    # every binding of is_isomorphic; classes itself imports none
    assert not hasattr(classes, "is_isomorphic")
    targets = [(classes, "in_B_C"), (classes, "in_A_C")] + [
        (mod, "is_isomorphic") for mod in (module_mod, resolution, propcheck)]
    for mod, name in targets:
        monkeypatch.setattr(mod, name, refused(name))
    for fn in (pc_pd, ic_id, fc_pd):
        assert fn(k, omega) == Exactly(INF)
        assert fn(omega, omega) == (Exactly(INF) if fn is ic_id else Exactly(0))
    assert calls == []


def test_verdict_fails_at_the_last_nonzero_degree():
    """A table nonzero in a positive degree refutes membership at its last
    nonzero degree; an all-zero table has no nonzero degree at all."""
    assert ExtTable((0, 0, 0, 0), 3, False, "left").last_nonzero() is None
    zero = ExtTable((2, 0, 0, 0), 3, False, "projective")
    bad = ExtTable((1, 0, 3, 0), 3, False, "injective")
    assert bad.last_nonzero() == 2
    verdict = _verdict({"Ext(X,C)": zero, "Ext(Hom(X,C),C)": bad}, 3)
    assert verdict == Fails("Ext(Hom(X,C),C)^2 has dimension 3")
    assert _verdict({"Ext(X,C)": zero}, 3) == HoldsUpTo(3)


def test_semidualizing_refuted_by_a_nonzero_self_ext(hyper2, monkeypatch):
    """C whose homothety map is an isomorphism but with Ext^i(C,C) != 0 for
    some i > 0 fails its certificate, naming that degree and dimension."""
    table = ExtTable((2, 0, 1, 0), 3, False, "projective")
    monkeypatch.setattr(classes, "ext", lambda m, n, bound: table)
    cert = is_semidualizing(regular_module(hyper2), 3)
    assert not cert.holds and "Ext(C,C)" in cert.tables
    assert cert.tables["Ext(C,C)"] is table
    assert cert.verdict == Fails("Ext(C,C)^2 has dimension 1")
