"""The exact dimension rule against independent oracles.

Over a local artinian algebra pd M is -inf, 0 or inf, and P_C-pd M is 0
exactly when M is isomorphic to C^r.  ``is_free`` and
``projective_dimension`` are checked against the minimal free resolution;
``c_rank`` against the isomorphism search it replaced, M against
C (+) ... (+) C, on the corpus, on C^r itself (the positive controls) and
on k (the negative control); ``pc_pd`` and ``ic_id`` against the class
route they replaced."""

from ezdlab import classes
from ezdlab.classes import c_rank, fc_pd, ic_id, in_A_C, in_B_C, is_semidualizing, pc_pd
from ezdlab.module import (
    Iso,
    Morphism,
    NotIso,
    direct_sum,
    dual_k,
    free_module,
    hom_module,
    is_isomorphic,
    residue_field_module,
    scale_quotient,
    tensor_module,
)
from ezdlab.propcheck import load_corpus, random_gated_instances
from ezdlab.resolution import (
    INF,
    Exactly,
    injective_dimension,
    is_free,
    minimal_free_resolution,
    projective_dimension,
)


def _modules(inst, c):
    """The test modules of an instance: A, omega, k, A/xA, A^2 and
    Hom(C, M)."""
    a = inst.regular()
    return {
        "A": a,
        "omega": dual_k(a),
        "k": residue_field_module(inst.algebra),
        "A/xA": scale_quotient(a, inst.x)[0],
        "A^2": free_module(inst.algebra, 2),
        "Hom(C,M)": hom_module(c, inst.m),
    }


def _power(c, r):
    out = c
    for _ in range(r - 1):
        out = direct_sum(out, c)
    return out


def _reference_rank(m, c):
    """r with M isomorphic to C^r by the isomorphism search, or None; the
    search must decide."""
    if m.dim % c.dim:
        return None
    r = m.dim // c.dim
    verdict = is_isomorphic(m, _power(c, r)) if r else Iso(None)
    assert isinstance(verdict, (Iso, NotIso)), verdict
    return r if isinstance(verdict, Iso) else None


def _rank_cases():
    """(label, M, C, exact) over the corpus.  For a semidualizing C the rule
    is exact, so ``c_rank`` must equal the reference; for A^2 and k, which
    are not, a rank it reports must still be right."""
    for inst in load_corpus():
        a = inst.regular()
        cs = {"A": a, "omega": dual_k(a), "C": inst.c,
              "A^2": free_module(inst.algebra, 2), "k": residue_field_module(inst.algebra)}
        for cname, c in cs.items():
            exact = is_semidualizing(c, inst.bound).holds
            assert exact == (cname in ("A", "omega", "C")), (inst.name, cname)
            mods = dict(_modules(inst, c), **{f"C^{r}": _power(c, r) for r in (1, 2, 3)})
            for mname, m in mods.items():
                yield f"{inst.name}: M={mname}, C={cname}", m, c, exact


def _rank_disagreements():
    bad, ranks = [], []
    for label, m, c, exact in _rank_cases():
        got = c_rank(m, c)
        if exact or got is not None:
            want = _reference_rank(m, c)
            ranks.append(want)
            if got != want:
                bad.append((label, got, want))
    return bad, ranks


def _free_cases():
    for inst in load_corpus() + random_gated_instances(seed=26, count=12):
        for name, m in _modules(inst, inst.c).items():
            yield f"{inst.name}: {name}", m


def test_free_and_pd_match_the_resolution():
    seen = set()
    for label, m in _free_cases():
        res = minimal_free_resolution(m, 4)
        assert is_free(m) == (res.betti[0] * m.algebra.dim == m.dim), label
        pd = projective_dimension(m)
        assert pd in (Exactly(0), Exactly(INF)), label
        assert (pd == Exactly(0)) == res.terminated, label
        dual = minimal_free_resolution(dual_k(m), 4)
        assert (injective_dimension(m) == Exactly(0)) == dual.terminated, label
        seen.add((pd, dual.terminated))
    # free and non-free modules, injective and non-injective ones, all met
    assert {p for p, _ in seen} == {Exactly(0), Exactly(INF)}
    assert {t for _, t in seen} == {True, False}


def test_c_rank_matches_the_isomorphism_search():
    bad, ranks = _rank_disagreements()
    assert bad == []
    # positive controls up to C^3, and modules that are no power of C
    assert {1, 2, 3, None} <= set(ranks)


def test_planted_xi_fault_is_caught(monkeypatch):
    """A xi reported as an isomorphism whatever it is must make the rule
    disagree with the search.  Over the corpus, Hom(C, M) is free with xi
    not an isomorphism only for C = A^2, so that is where it shows."""
    inner = classes.xi_map

    class Lying(Morphism):
        def is_isomorphism(self):
            return True

    def lying_xi(m, c):
        xi = inner(m, c)
        return Lying(xi.source, xi.target, xi.matrix)

    monkeypatch.setattr(classes, "xi_map", lying_xi)
    bad, _ = _rank_disagreements()
    assert bad


def test_relative_dimensions_match_the_class_route():
    """The route the rule replaced: P_C-pd M = pd Hom(C, M) when M is in
    B_C, I_C-id M = id(C (x) M) when M is in A_C, and inf outside the class
    (a finite value puts M in it)."""
    seen = set()
    for label, m, c, exact in _rank_cases():
        if not exact:
            continue
        b, a = in_B_C(m, c, 4), in_A_C(m, c, 4)
        pd = projective_dimension(hom_module(c, m)) if b.holds else Exactly(INF)
        idim = injective_dimension(tensor_module(c, m)) if a.holds else Exactly(INF)
        assert pc_pd(m, c) == fc_pd(m, c) == pd, label
        assert ic_id(m, c) == idim, label
        seen |= {(b.holds, pd.value), (a.holds, idim.value)}
    # in the class at 0, in the class at inf, and outside it
    assert seen == {(True, 0), (True, INF), (False, INF)}
