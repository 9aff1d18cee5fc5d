"""Acceptance gate: the end-to-end guarantees of the workbench.

Each test is one criterion and emits a single summary line; run with
``pytest -v`` to see one pass/fail line per criterion.
"""

import json
import time

from ezdlab.classes import (
    fc_pd,
    ic_id,
    is_ezd_pair,
    is_semidualizing,
    pc_pd,
)
from ezdlab.dsl import parse_script, pretty_print
from ezdlab.groebner import InfiniteDimensionalError, groebner_basis, quotient_basis
from ezdlab.linalg import Field
from ezdlab.module import (
    NotIso,
    direct_sum,
    dual_k,
    free_module,
    hom_module,
    is_isomorphic,
    regular_module,
    residue_field_module,
    scale_quotient,
    tensor_module,
    zero_module,
)
from ezdlab.poly import PolyRing
from ezdlab.propcheck import (
    PROP_VERIFIERS,
    SearchConfig,
    fact22_witness,
    load_corpus,
    random_gated_instances,
    search_counterexamples,
    verify_fact_b,
    verify_fact_c,
    verify_prop_A,
    verify_prop_B,
    verify_prop_C,
    verify_prop_J,
)
from ezdlab.resolution import (
    INF,
    Exactly,
    NEG_INF,
    ext,
    minimal_free_resolution,
    syzygy_periodicity,
)

from conftest import make_algebra, var

GF2 = Field(2)
GF101 = Field(101)

_CORPUS = None


def corpus():
    global _CORPUS
    if _CORPUS is None:
        _CORPUS = load_corpus(bound=10)
    return _CORPUS


def _line(n, text):
    print(f"criterion {n:>2}: PASS  {text}")


def test_criterion_01_square_zero_example(square_zero):
    t0 = time.monotonic()
    r = regular_module(square_zero)
    assert r.dim == 3
    omega = dual_k(r)
    cert = is_semidualizing(omega, 12)
    assert cert.holds and "Ext(C,C)" in cert.tables
    assert all(cert.tables["Ext(C,C)"].entry(i) == 0 for i in range(1, 13))
    assert isinstance(is_isomorphic(omega, r), NotIso)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _line(1, f"dim 3, omega semidualizing to bound 12, not free ({elapsed:.2f}s)")


def test_criterion_02_descent_suite():
    mandated = {"hypersurface_x2", "hypersurface_x4", "ci_xy", "sprime_omega"}
    seen = set()
    failures = []
    for inst in corpus():
        ra = verify_prop_A(inst)
        rc = verify_prop_C(inst)
        for pid, res in (("A", ra), ("C", rc)):
            if res.status == "fail":
                failures.append((pid, inst.name, res.witness))
            if res.status == "pass":
                seen.add(inst.name)
    assert not failures, failures
    assert mandated <= seen, f"missing mandated instances: {mandated - seen}"
    _line(2, f"G_C and A_C descent on {len(seen)} gated instances, 0 failures")


def test_criterion_03_annihilator_iso_property():
    instances = random_gated_instances(seed=2026, count=100)
    assert len(instances) >= 100
    for inst in instances:
        w = fact22_witness(inst.x, inst.y, inst.m)
        assert w.is_isomorphism(), inst.name
    _line(3, f"explicit (0:x) = M/xM isomorphism on {len(instances)} seeded instances")


def test_criterion_04_vanishing_and_base_change():
    checked = 0
    for inst in corpus():
        rb = verify_fact_b(inst)
        rc = verify_fact_c(inst)
        assert rb.status == "pass", (inst.name, rb.witness, rb.details)
        assert rc.status == "pass", (inst.name, rc.witness, rc.details)
        checked += 1
    for inst in random_gated_instances(seed=404, count=20, bound=6):
        rb = verify_fact_b(inst)
        rc = verify_fact_c(inst)
        assert rb.status != "fail", (inst.name, rb.witness)
        assert rc.status != "fail", (inst.name, rc.witness)
        checked += 1
    _line(4, f"vanishing + base-change equalities on {checked} instances")


def test_criterion_05_semidualizing_descent_round_trip(sprime):
    inst = next(i for i in corpus() if i.name == "sprime_omega")
    reg = regular_module(inst.algebra)
    genuine = tensor_module(reg, dual_k(reg))
    res = verify_prop_B(inst.replace(c=genuine))
    assert res.status == "pass", (res.witness, res.details)
    assert "over A: True" in res.details[0]
    forged = direct_sum(reg, reg)
    res2 = verify_prop_B(inst.replace(c=forged))
    assert res2.status == "pass", (res2.witness, res2.details)
    assert "over A: False" in res2.details[0]
    _line(5, "descent biconditional: genuine B passes, forged B fails both sides")


def test_criterion_06_auxiliary_pair_biconditional():
    instances = random_gated_instances(seed=606, count=20, bound=6)
    assert len(instances) >= 20
    counts = {}
    for part in ("i", "ii", "iii"):
        for inst in instances:
            res = verify_prop_J(inst, part)
            assert res.status != "fail", (part, inst.name, res.witness)
            counts[part] = counts.get(part, 0) + 1
    assert all(v >= 20 for v in counts.values())
    _line(6, f"class/auxiliary-pair biconditional: parts i-iii x {counts['i']} instances")


def test_criterion_07_both_ext_routes_agree():
    algebra = make_algebra(
        GF2, ["x", "y"], [{(1, 1): 1}, {(2, 0): 1, (0, 2): 1}]
    )
    a = regular_module(algebra)
    x, y = var(algebra, 0), var(algebra, 1)
    modules = [
        a,
        residue_field_module(algebra),
        dual_k(a),
        scale_quotient(a, x)[0],
        scale_quotient(a, y)[0],
        free_module(algebra, 1),
        direct_sum(scale_quotient(a, x)[0], scale_quotient(a, y)[0]),
        hom_module(scale_quotient(a, x)[0], a),
        tensor_module(scale_quotient(a, x)[0], dual_k(a)),
        scale_quotient(a, x + y)[0] if not (x + y).is_zero() else dual_k(a),
    ]
    assert len(modules) == 10
    assert all(m.dim <= 6 for m in modules)
    pairs = 0
    for m in modules:
        for n in modules:
            p = ext(m, n, 4, route="projective")
            q = ext(m, n, 4, route="injective")
            assert [p.entry(i) for i in range(5)] == [q.entry(i) for i in range(5)], (
                m.label,
                n.label,
            )
            pairs += 1
    _line(7, f"projective and injective Ext routes agree on {pairs} pairs, degrees 0..4")


def test_criterion_08_periodicity_goldens(hyper2, hyper4):
    k = residue_field_module(hyper2)
    res = minimal_free_resolution(k, 10)
    assert res.betti == [1] * 11
    cert = syzygy_periodicity(k, 4)
    assert cert is not None and cert[:2] == (1, 2)
    m = scale_quotient(regular_module(hyper4), var(hyper4, 0))[0]
    res4 = minimal_free_resolution(m, 6)
    for i in range(1, 7):
        coords = [res4.diff_alg(i).entry(k, 0) for k in range(hyper4.dim)]
        assert coords == ([0, 1, 0, 0] if i % 2 == 1 else [0, 0, 0, 1])
    _line(8, "betti (1,1,...) with (1,2) certificate; alternating x/x^3 differentials")


def test_criterion_09_dimension_zero_and_collapse(square_zero, ci, hyper2):
    # dimension-zero statements at n = 0 on every corpus instance
    for pid in ("H-i", "H-iii", "G-i", "G-iii"):
        for inst in corpus():
            res = PROP_VERIFIERS[pid](inst)
            assert res.status != "fail", (pid, inst.name, res.witness)
    # artinian collapse: every value is -inf, 0 or inf
    samples = []
    for algebra in (square_zero, ci, hyper2):
        a = regular_module(algebra)
        omega = dual_k(a)
        for c in (a, omega):
            for m in (a, omega, zero_module(algebra), residue_field_module(algebra)):
                for fn in (pc_pd, fc_pd, ic_id):
                    samples.append(fn(m, c, 6))
    assert samples
    for v in samples:
        assert v in (Exactly(NEG_INF), Exactly(0), Exactly(INF)), v
    _line(9, f"dimension-zero lemmas hold; artinian collapse over {len(samples)} samples")


def test_criterion_10_searcher_determinism():
    config = SearchConfig(seed=7, trials=500, max_dim=6, p=2, bound=4)
    r1 = search_counterexamples(config)
    r2 = search_counterexamples(config)
    b1 = json.dumps(r1, sort_keys=True).encode()
    b2 = json.dumps(r2, sort_keys=True).encode()
    assert b1 == b2
    assert r1["fully_gated"] > 0
    if r1["counterexamples"]:
        for ce in r1["counterexamples"]:
            assert {"ideal", "x", "y", "C", "M"} <= set(ce)
        raise AssertionError(f"counterexample found: {r1['counterexamples']}")
    _line(10, f"byte-identical search report; {r1['fully_gated']} fully gated instances")


def test_criterion_11_parser_and_staircase_goldens():
    from pathlib import Path

    files = sorted(
        (Path(__file__).resolve().parent.parent / "corpus").glob("*.ezd")
    )
    assert len(files) >= 10
    for path in files:
        script = parse_script(path.read_text())
        assert parse_script(pretty_print(script)) == script
    ring = PolyRing(GF101, ["x", "y"])
    gb1 = groebner_basis(
        ring, [ring.poly({(2, 0): 1}), ring.poly({(1, 1): 1}), ring.poly({(0, 2): 1})]
    )
    assert len(quotient_basis(ring, gb1)) == 3
    gb2 = groebner_basis(
        ring, [ring.poly({(1, 1): 1}), ring.poly({(2, 0): 1, (0, 2): 100})]
    )
    assert len(quotient_basis(ring, gb2)) == 4
    gb3 = groebner_basis(ring, [ring.poly({(1, 1): 1})])
    try:
        quotient_basis(ring, gb3)
        raise AssertionError("expected an infinite staircase")
    except InfiniteDimensionalError:
        pass
    _line(11, f"{len(files)} scripts round-trip; staircase goldens 3 / 4 / infinite")
