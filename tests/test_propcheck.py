"""Property verifiers, corpus loading, and the randomized searchers."""

import gc
import json
import random
import weakref

import pytest

from ezdlab import propcheck, resolution
from ezdlab.classes import ClassMembershipReport, Fails
from ezdlab.linalg import Field
from ezdlab.module import is_isomorphic, Iso, regular_module, scale_quotient
from ezdlab.poly import PolyRing
from ezdlab.propcheck import (
    PROP_VERIFIERS,
    SearchConfig,
    fact22_witness,
    load_corpus,
    random_gated_instances,
    search_counterexamples,
)

from conftest import var


@pytest.fixture(scope="module")
def corpus():
    return load_corpus(bound=10)


def test_corpus_loads_gated_instances(corpus):
    names = {inst.name for inst in corpus}
    assert {"hypersurface_x2", "hypersurface_x4", "ci_xy", "sprime_omega"} <= names


def test_corpus_is_built_from_declarations_alone(corpus, monkeypatch):
    """No corpus ``check`` runs while the corpus loads."""
    def refused(*args):
        raise AssertionError("a corpus check ran while loading")

    monkeypatch.setattr(propcheck.dsl, "_run_check", refused)
    assert [inst.name for inst in load_corpus(bound=10)] == [inst.name for inst in corpus]
    assert len(corpus) == 6


def test_fact22_witness_explicit(hyper4):
    m = regular_module(hyper4)
    x, y = var(hyper4, 0), var(hyper4, 0, 3)
    w = fact22_witness(x, y, m)
    assert w.is_isomorphism()
    assert w.source.dim == scale_quotient(m, x)[0].dim


def test_all_verifiers_never_fail_on_corpus(corpus):
    for pid, verifier in PROP_VERIFIERS.items():
        for inst in corpus:
            result = verifier(inst)
            assert result.status in ("pass", "inconclusive"), (
                pid,
                inst.name,
                result.witness,
            )


def test_core_verifiers_pass_everywhere(corpus):
    """The descent statements are decidable on every gated corpus instance."""
    for pid in ("fact-a", "fact-b", "fact-c", "A", "B", "C", "dualizing"):
        for inst in corpus:
            result = PROP_VERIFIERS[pid](inst)
            assert result.status == "pass", (pid, inst.name, result.witness)


def test_random_gated_instances_deterministic():
    a = random_gated_instances(seed=11, count=8)
    b = random_gated_instances(seed=11, count=8)
    assert len(a) == len(b) == 8
    for i1, i2 in zip(a, b):
        assert i1.name == i2.name
        assert i1.algebra.dim == i2.algebra.dim


def test_random_instances_are_gated():
    from ezdlab.classes import is_ezd_pair

    for inst in random_gated_instances(seed=3, count=6):
        assert is_ezd_pair(inst.x, inst.y, inst.m).holds


def test_search_report_shape_and_determinism():
    config = SearchConfig(seed=7, trials=15, max_dim=6, p=2, bound=4)
    r1 = search_counterexamples(config)
    r2 = search_counterexamples(config)
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
    assert r1["seed"] == 7
    assert r1["algebras_built"] > 0
    assert isinstance(r1["counterexamples"], list)


def test_fact_a_on_random_instances():
    for inst in random_gated_instances(seed=5, count=10):
        result = PROP_VERIFIERS["fact-a"](inst)
        assert result.status == "pass", (inst.name, result.witness)


@pytest.fixture(scope="module")
def counted_search():
    """The seed-7 100-trial search, counting its quotient_algebra calls and
    holding a weak reference to every resolution state it makes."""
    calls = []
    states = []
    build = propcheck.quotient_algebra
    make_state = resolution._ResolutionState.__init__

    def counting(algebra, x):
        calls.append((algebra, x.coords.data.tobytes()))
        return build(algebra, x)

    def tracked(state, module):
        states.append(weakref.ref(state))
        make_state(state, module)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(propcheck, "quotient_algebra", counting)
        mp.setattr(resolution._ResolutionState, "__init__", tracked)
        report = search_counterexamples(SearchConfig(seed=7, trials=100))
    return report, calls, states


def test_search_seed7_counts(counted_search):
    report, _calls, _states = counted_search
    assert report["algebras_built"] == 73
    assert report["ring_pairs"] == 170
    assert report["fully_gated"] == 671
    assert report["budget_skips"] == 0
    assert report["counterexamples"] == []


def test_budget_stop_skips_the_rest_of_its_pair_and_c(monkeypatch):
    """A budget stop is counted once per (pair, C) and skips that pair's
    remaining M: with every G_C check of the k-dual stopping, each of the
    170 pairs gates only M = A, once for each C."""
    real_in_G_C = propcheck.in_G_C

    def stopping(m, c, bound):
        if m.label == "dual":
            raise resolution.ResolutionBudgetExceeded("planted")
        return real_in_G_C(m, c, bound)

    monkeypatch.setattr(propcheck, "in_G_C", stopping)
    report = search_counterexamples(SearchConfig(seed=7, trials=100))
    assert report["ring_pairs"] == 170
    assert report["fully_gated"] == 340
    assert report["budget_skips"] == 340


def _basis_key(pres):
    """The search's algebra key: variable names and reduced Groebner basis."""
    return tuple(pres.ring.names), tuple(pres.ring.format_poly(g) for g in pres.groebner)


def test_search_builds_each_quotient_once_per_trial(counted_search):
    """A/xA is built once per distinct (reduced Groebner basis, x) in the
    whole search: not once per gated configuration, and not again when a
    trial repeats an earlier ideal under the same or other generators."""
    _report, calls, _states = counted_search
    keys = {(_basis_key(a.presentation), x) for a, x in calls}
    assert len(calls) == len(keys) == 12


def test_search_builds_one_algebra_and_trial_per_reduced_basis(monkeypatch):
    """The seed-7 100-trial search accepts 26 distinct generator lists, which
    reduce to 10 reduced Groebner bases: it builds one Algebra and runs one
    trial per basis."""
    texts, built, trials = set(), [], []
    present, make, run = propcheck._presentation, propcheck.Algebra, propcheck._search_trial

    def recording_presentation(ring, gens, max_dim):
        pres = present(ring, gens, max_dim)
        if pres is not None:
            texts.add(tuple(ring.format_poly(g) for g in gens))
        return pres

    def counting_algebra(pres):
        built.append(_basis_key(pres))
        return make(pres)

    def counting_trial(algebra, elems, bound):
        trials.append(_basis_key(algebra.presentation))
        return run(algebra, elems, bound)

    monkeypatch.setattr(propcheck, "_presentation", recording_presentation)
    monkeypatch.setattr(propcheck, "Algebra", counting_algebra)
    monkeypatch.setattr(propcheck, "_search_trial", counting_trial)
    report = search_counterexamples(SearchConfig(seed=7, trials=100))
    assert report["algebras_built"] == 73
    assert len(texts) == 26
    assert len(built) == len(set(built)) == 10
    assert sorted(trials) == sorted(built)


def test_generator_lists_of_one_ideal_share_an_algebra_and_a_trial(monkeypatch):
    """(x^2, y^2) and (x^2, y^2, x^2 + y^2) are one ideal of GF(2)[x,y]: the
    search builds one Algebra and runs one trial for both, and every
    counterexample entry prints the generators its own trial drew."""
    ring = PolyRing(Field(2), ["x", "y"])
    x2, y2 = ring.monomial((2, 0)), ring.monomial((0, 2))
    draws = [[x2, y2], [x2, y2, ring.add(x2, y2)]] * 2
    built, trials, quotients = [], [], []
    make, run, build = propcheck.Algebra, propcheck._search_trial, propcheck.quotient_algebra
    real_in_G_C = propcheck.in_G_C

    def counting_algebra(pres):
        built.append(pres)
        return make(pres)

    def counting_trial(algebra, elems, bound):
        trials.append(algebra)
        return run(algebra, elems, bound)

    def recording(algebra, x):
        quotients.append(build(algebra, x))
        return quotients[-1]

    def planted(m, c, bound):
        if any(m.algebra is q for q in quotients):
            return ClassMembershipReport("G_C", Fails("planted"), False, None, {}, bound)
        return real_in_G_C(m, c, bound)

    monkeypatch.setattr(propcheck, "_draw_presentation", lambda rng, p: (ring, draws.pop(0)))
    monkeypatch.setattr(propcheck, "Algebra", counting_algebra)
    monkeypatch.setattr(propcheck, "_search_trial", counting_trial)
    monkeypatch.setattr(propcheck, "quotient_algebra", recording)
    monkeypatch.setattr(propcheck, "in_G_C", planted)
    report = search_counterexamples(SearchConfig(seed=0, trials=4))
    assert report["algebras_built"] == 4
    assert len(built) == len(trials) == 1
    entries = report["counterexamples"]
    assert entries and len(entries) % 4 == 0
    quarter = len(entries) // 4
    ideals = [["x^2", "y^2"], ["x^2", "y^2", "x^2 + y^2"]] * 2
    for k, ideal in enumerate(ideals):
        block = entries[k * quarter : (k + 1) * quarter]
        assert all(e["ideal"] == ideal for e in block)
        assert [list(e)[0] for e in block] == ["ideal"] * quarter
        assert [{**e, "ideal": None} for e in block] == [
            {**e, "ideal": None} for e in entries[:quarter]
        ]


def test_search_leaves_no_resolution_state_alive(counted_search):
    """Resolution states live on their modules, so none outlives the search."""
    _report, _calls, states = counted_search
    gc.collect()
    assert len(states) > 0
    assert sum(ref() is not None for ref in states) == 0


def _memo_free_search(config):
    """The reference search: every trial drawn, built and run on its own
    through the searcher's helpers, and the trial deltas summed."""
    rng = random.Random(config.seed)
    totals = dict.fromkeys(("algebras_built", "ring_pairs", "fully_gated", "budget_skips"), 0)
    counterexamples = []
    for _trial in range(config.trials):
        ring, gens = propcheck._draw_presentation(rng, config.p)
        algebra = propcheck._build_algebra(ring, gens, config.max_dim)
        if algebra is None:
            continue
        totals["algebras_built"] += 1
        elems = propcheck._radical_elements(algebra, rng)
        pairs, gated, skips, found = propcheck._search_trial(algebra, elems, config.bound)
        totals["ring_pairs"] += pairs
        totals["fully_gated"] += gated
        totals["budget_skips"] += skips
        counterexamples.extend(found)
    return totals, counterexamples


REPLAY_CONFIGS = [SearchConfig(seed=7, trials=100), SearchConfig(seed=7, trials=30, p=3)]


@pytest.mark.parametrize("config", REPLAY_CONFIGS, ids=["GF(2)", "GF(3)"])
def test_replayed_search_equals_memo_free_loop(config):
    report = search_counterexamples(config)
    totals, counterexamples = _memo_free_search(config)
    assert {k: report[k] for k in totals} == totals
    assert report["counterexamples"] == counterexamples


@pytest.mark.parametrize("config", REPLAY_CONFIGS, ids=["GF(2)", "GF(3)"])
def test_replayed_counterexamples_match_memo_free_loop(config, monkeypatch):
    """With every G_C conclusion over an A/xA failing, each gated
    configuration is a counterexample; replayed trials must print the same
    entries, in the same order, as trials run afresh."""
    quotients = []
    build, real_in_G_C = propcheck.quotient_algebra, propcheck.in_G_C

    def recording(algebra, x):
        quotients.append(build(algebra, x))
        return quotients[-1]

    def planted(m, c, bound):
        if any(m.algebra is q for q in quotients):
            return ClassMembershipReport("G_C", Fails("planted"), False, None, {}, bound)
        return real_in_G_C(m, c, bound)

    monkeypatch.setattr(propcheck, "quotient_algebra", recording)
    monkeypatch.setattr(propcheck, "in_G_C", planted)
    report = search_counterexamples(config)
    totals, counterexamples = _memo_free_search(config)
    assert {k: report[k] for k in totals} == totals
    assert len(counterexamples) > 0
    assert report["counterexamples"] == counterexamples
