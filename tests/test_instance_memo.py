"""The per-instance memo of the paper verifiers: results do not depend on
the order the verifiers run in, a replaced instance starts empty, a shared
one gives the results of a fresh one, and one pass builds each base change
once.

The memo keeps resolutions between verifiers; the order test checks every
result against ``verifier_goldens.json`` with the verifiers run backwards.
"""

import json
from pathlib import Path

import pytest

from ezdlab import classes, propcheck
from ezdlab.module import direct_sum, dual_k, free_module, residue_field_module
from ezdlab.propcheck import PROP_VERIFIERS, load_corpus, verify_prop_B
from ezdlab.record import FrozenRecordError

GOLDEN = Path(__file__).with_name("verifier_goldens.json")


def test_reverse_registry_order_matches_golden():
    golden = {row[0]: row[1:] for row in json.loads(GOLDEN.read_text())}
    instances = load_corpus(bound=10)
    ci_xy = next(i for i in instances if i.name == "ci_xy")
    variants = {
        "free-C": ci_xy.replace(c=free_module(ci_xy.algebra, 2)),
        "pair-xx": ci_xy.replace(y=ci_xy.x),
    }
    rows = {}
    for pid in reversed(list(PROP_VERIFIERS)):
        for inst in reversed(instances):
            result = PROP_VERIFIERS[pid](inst)
            rows[f"{pid}:{inst.name}"] = [result.status, result.witness]
        for name, inst in variants.items():
            result = PROP_VERIFIERS[pid](inst)
            rows[f"{pid}:ci_xy[{name}]"] = [result.status, result.witness]
    assert rows == golden


def test_replaced_instance_starts_with_an_empty_memo():
    inst = next(i for i in load_corpus(bound=10) if i.name == "sprime_omega")
    first = verify_prop_B(inst)
    assert first.status == "pass" and "over A: True" in first.details[0]
    assert ("bar", inst.c, inst.x.coords) in inst._memo
    reg = inst.regular()
    forged = inst.replace(c=direct_sum(reg, reg))
    assert forged._memo == {}
    second = verify_prop_B(forged)
    assert second.status == "pass", (second.witness, second.details)
    assert "over A: False" in second.details[0]
    with pytest.raises(FrozenRecordError):
        inst.c = forged.c


def _results(inst):
    return [(r.status, r.witness, r.details) for r in (v(inst) for v in PROP_VERIFIERS.values())]


def test_shared_memo_gives_the_results_of_a_fresh_instance():
    """Memo keys name the modules and pair coordinates an entry is built
    from, so an instance that shares a filled memo with another M gives
    every verifier the result a fresh instance gives.  The algebra and the
    bound are in no key, so they cannot change under a shared memo."""
    instances = load_corpus(bound=10)
    for inst in instances:
        _results(inst)
        assert [key for key in inst._memo if isinstance(key, str)] == ["A"], inst.name
    for inst in instances:
        reg = inst.regular()
        others = {
            "R/xR": propcheck._quotient(inst, reg, inst.x),
            "k": residue_field_module(inst.algebra),
            "dual_k(A)": dual_k(reg),
        }
        for name, m in others.items():
            shared = _results(inst.share(m=m))
            assert shared == _results(inst.replace(m=m)), (inst.name, name)
        with pytest.raises(ValueError):
            inst.share(algebra=instances[0].algebra)
        with pytest.raises(ValueError):
            inst.share(bound=4)


def test_one_pass_builds_each_base_change_once(monkeypatch):
    instances = load_corpus(bound=10)
    quotients, reductions, certificates = [], [], []

    def counted(log, fn):
        def wrapper(*args, **kwargs):
            log.append((args, kwargs))
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(propcheck, "quotient_algebra",
                        counted(quotients, propcheck.quotient_algebra))
    monkeypatch.setattr(propcheck, "scale_quotient",
                        counted(reductions, propcheck.scale_quotient))
    monkeypatch.setattr(classes, "_is_semidualizing",
                        counted(certificates, classes._is_semidualizing))
    for pid in sorted(PROP_VERIFIERS):
        for inst in instances:
            PROP_VERIFIERS[pid](inst)

    for inst in instances:
        # A/xA and A/yA, one ring when y has the coordinates of x
        assert sum(args[0] is inst.algebra for args, _ in quotients) <= 2, inst.name
        # R/xR, which fact-a's witness shares with the other verifiers, is
        # made by one call
        cyclic = [args for args, _ in reductions
                  if args[0] is inst.regular() and args[1] is inst.x]
        assert len(cyclic) <= 1, inst.name
    assert len(certificates) <= 20
