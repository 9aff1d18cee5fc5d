"""The records of ``ezdlab.record`` behave as the dataclasses they replace:
the reprs, equality and hashes below were read from the dataclass versions,
frozen records refuse assignment, mutable ones are unhashable, and the
fields kept out of a record's value (dsl ``pos``, ``Instance._memo``) take
no part in equality or the repr."""

import pytest

from ezdlab.classes import CertifiedAll, ClassMembershipReport, Fails, HoldsUpTo
from ezdlab.cli import Report
from ezdlab.dsl import CheckStmt, ModuleExpr, RingDecl
from ezdlab.linalg import Field
from ezdlab.module import NotIso, Unknown, direct_sum
from ezdlab.poly import MonomialOrder, Polynomial
from ezdlab.propcheck import SearchConfig, VerificationResult, load_corpus
from ezdlab.record import FrozenRecordError
from ezdlab.resolution import INF, NEG_INF, Exactly, ExtTable


REPRS = [
    (HoldsUpTo(bound=3), "HoldsUpTo(bound=3)"),
    (Fails(witness="w"), "Fails(witness='w')"),
    (Unknown(reason="r"), "Unknown(reason='r')"),
    (Exactly(INF), "Exactly(inf)"),
    (Exactly(NEG_INF), "Exactly(-inf)"),
    (ExtTable((1, 0, 2), 2, False, "projective"),
     "ExtTable(dims=(1, 0, 2), bound=2, certified_all_beyond=False, route='projective')"),
    (CertifiedAll(), "CertifiedAll()"),
    (VerificationResult("pass"),
     "VerificationResult(status='pass', witness=None, details=())"),
    (SearchConfig(), "SearchConfig(seed=0, trials=100, max_dim=6, p=2, bound=4)"),
    (ClassMembershipReport(HoldsUpTo(bound=3), {}),
     "ClassMembershipReport(verdict=HoldsUpTo(bound=3), tables={})"),
    (RingDecl("R", 101, ("x",), "degrevlex", (), pos=(3, 4)),
     "RingDecl(name='R', p=101, variables=('x',), order='degrevlex', generators=())"),
    (ModuleExpr("name", ("M",), (1, 2)), "ModuleExpr(op='name', args=('M',))"),
    (Field(101), "Field(p=101)"),
    (Field(), "Field(p=None)"),
    (Polynomial((((1, 0), 1),)), "Polynomial(terms=(((1, 0), 1),))"),
    (MonomialOrder("lex"), "MonomialOrder(name='lex')"),
]


@pytest.mark.parametrize("record, text", REPRS, ids=[t.split("(")[0] for _, t in REPRS])
def test_repr_reads_as_the_dataclass_did(record, text):
    assert repr(record) == text


def test_equal_records_are_equal_and_hash_as_their_values():
    for a, b in [
        (HoldsUpTo(3), HoldsUpTo(bound=3)),
        (Field(101), Field(p=101)),
        (CertifiedAll(), CertifiedAll()),
        (ExtTable((1, 0), 1, True, "left"), ExtTable((1, 0), 1, True, "left")),
    ]:
        assert a == b and not a != b
        assert hash(a) == hash(b)
    # the dataclass hash: the tuple of the fields
    assert hash(HoldsUpTo(3)) == hash((3,))
    assert hash(CertifiedAll()) == hash(())
    assert hash(ExtTable((1, 0), 1, True, "left")) == hash(((1, 0), 1, True, "left"))


def test_records_of_other_types_or_values_differ():
    assert NotIso("r") != Unknown("r")
    assert HoldsUpTo(3) != Fails(3)
    assert HoldsUpTo(3) != HoldsUpTo(4)
    assert Field(101) != Field(2)
    assert HoldsUpTo(3) != (3,)
    assert VerificationResult("pass", "w") == VerificationResult("pass", "w")
    assert VerificationResult("pass", "w") != VerificationResult("fail", "w")


def test_frozen_records_refuse_assignment_and_mutable_ones_are_unhashable():
    for record, name in [(HoldsUpTo(3), "bound"), (Polynomial(()), "terms"),
                         (Field(2), "p"), (Exactly(INF), "value")]:
        with pytest.raises(FrozenRecordError):
            setattr(record, name, None)
        with pytest.raises(FrozenRecordError):
            delattr(record, name)
    assert issubclass(FrozenRecordError, AttributeError)
    result = VerificationResult("pass")
    with pytest.raises(TypeError):
        hash(result)
    result.status = "fail"
    assert result.status == "fail"


def test_constructors_keep_their_signatures():
    assert SearchConfig(trials=5) == SearchConfig(0, 5, 6, 2, 4)
    assert VerificationResult("pass", details=("d",)).witness is None
    for bad in [lambda: HoldsUpTo(), lambda: HoldsUpTo(3, 4), lambda: HoldsUpTo(3, bound=3),
                lambda: HoldsUpTo(limit=3), lambda: VerificationResult()]:
        with pytest.raises(TypeError):
            bad()
    with pytest.raises(ValueError):
        Field(4)
    first, second = Report("search", 7, 4), Report("search", 7, 4)
    first.results.append({"id": "x"})
    assert second.results == []


def test_pos_takes_no_part_in_equality():
    args = ("R", 101, ("x",), "degrevlex", ())
    assert RingDecl(*args, pos=(1, 1)) == RingDecl(*args, pos=(5, 7)) == RingDecl(*args)
    assert hash(RingDecl(*args, pos=(1, 1))) == hash(RingDecl(*args))
    assert RingDecl(*args).pos == (0, 0)
    assert CheckStmt("ezd", (), None, (2, 3)) == CheckStmt("ezd", (), None)
    assert ModuleExpr("name", ("M",), (1, 2)) != ModuleExpr("name", ("N",), (1, 2))


def test_instance_replace_starts_an_empty_memo_and_share_keeps_it():
    inst = load_corpus(bound=10)[0]
    reg = inst.regular()
    assert inst._memo
    assert inst.replace() == inst and "_memo" not in repr(inst)
    forged = inst.replace(c=direct_sum(reg, reg))
    assert forged._memo == {} and forged.c is not inst.c and forged.x is inst.x
    assert forged != inst
    twin = inst.share(m=reg)
    assert twin._memo is inst._memo and twin.m is reg
