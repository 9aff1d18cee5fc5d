"""Script language: tokenizing, parsing, pretty-printing and execution."""

from pathlib import Path

import pytest

from ezdlab import dsl, resolution
from ezdlab.groebner import InfiniteDimensionalError

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def corpus_files():
    return sorted(CORPUS.glob("*.ezd"))


def test_corpus_is_large_enough():
    assert len(corpus_files()) >= 10


@pytest.mark.parametrize("path", corpus_files(), ids=lambda p: p.stem)
def test_parse_pretty_reparse(path):
    script = dsl.parse_script(path.read_text())
    printed = dsl.pretty_print(script)
    assert dsl.parse_script(printed) == script
    # pretty-printing is idempotent
    assert dsl.pretty_print(dsl.parse_script(printed)) == printed


def test_simple_script_executes():
    text = """
    ring A = GF(101)[x] / (x^2);
    elem ex = x in A;
    check dim(A, 2);
    check ezd(ex, ex, free(A, 1));
    """
    env, results = dsl.run_script(dsl.parse_script(text))
    assert set(env.rings) == {"A"}
    assert [r.status for r in results] == ["pass", "pass"]


def test_check_failure_reported():
    text = """
    ring A = GF(101)[x] / (x^3);
    elem ex = x in A;
    check ezd(ex, ex, free(A, 1));
    """
    _env, results = dsl.run_script(dsl.parse_script(text))
    assert results[0].status == "fail"
    assert results[0].witness


def test_infinite_staircase_raises():
    text = "ring A = GF(101)[x,y] / (x*y);"
    with pytest.raises(InfiniteDimensionalError):
        dsl.run_script(dsl.parse_script(text))


def test_qq_ring():
    text = """
    ring A = QQ[x] / (x^2);
    check dim(A, 2);
    """
    _env, results = dsl.run_script(dsl.parse_script(text))
    assert results[0].status == "pass"


def test_alias_keeps_the_label_of_the_module_it_names():
    text = """
    ring A = GF(101)[x] / (x^2);
    module M = omega(A);
    module N = M;
    module P = dualk(N);
    """
    env, _results = dsl.run_script(dsl.parse_script(text))
    assert env.modules["N"] is env.modules["M"]
    assert env.modules["M"].label == "M"
    assert env.modules["P"].label == "P"


def test_module_operations_compose():
    text = """
    ring A = GF(101)[x,y] / (x*y, x^2 - y^2);
    elem ex = x in A;
    module M = modx(free(A, 1), ex);
    module D = dualk(M);
    check dim(M, 2);
    check dim(D, 2);
    check isomorphic(M, ann(free(A, 1), ex)) bound 8;
    """
    _env, results = dsl.run_script(dsl.parse_script(text))
    assert all(r.status == "pass" for r in results)


def test_error_positions():
    with pytest.raises(dsl.DslError) as e:
        dsl.parse_script("ring A = GF(4)[x] / (x^2);")
    assert "prime" in str(e.value)
    with pytest.raises(dsl.DslError) as e:
        dsl.parse_script("ring A = GF(2)[x] / (x^2)")
    assert e.value.line == 1
    with pytest.raises(dsl.DslError):
        dsl.parse_script("check bogus(A);")
    with pytest.raises(dsl.DslError):
        dsl.parse_script("module M = free(A, 1;\n")


def test_elem_reparsed_against_ring():
    text = """
    ring A = GF(101)[x,y] / (x*y, x^2 - y^2);
    elem e = x + 2*y in A;
    """
    env, _ = dsl.run_script(dsl.parse_script(text))
    assert not env.elems["e"].is_zero()


def test_bound_clause():
    text = """
    ring A = GF(101)[x] / (x^2);
    check in_gc(modx(free(A, 1), ex), A) bound 5;
    elem ex = x in A;
    """
    # declarations execute in order; move elem before the check
    lines = text.strip().splitlines()
    reordered = "\n".join([lines[0], lines[2], lines[1]])
    _env, results = dsl.run_script(dsl.parse_script(reordered))
    assert results[0].status == "pass"
    assert results[0].tables


RING_XY = "ring A = GF(101)[x,y] / (x^2, y^2);\n"

# element declarations with one fault each: (body, column on line 2, message)
ELEM_FAULTS = [
    ("elem e = x + z in A;", 14, "unknown variable 'z'"),
    ("elem e = x y in A;", 12, "trailing tokens in element polynomial"),
    ("elem e = in A;", 13, "expected a term"),
    ("elem e = x", 11, "unterminated elem declaration"),
    ("elem e = x in B;", 15, "undefined ring 'B' in elem 'e'"),
]
ELEM_FAULT_IDS = ["unknown-variable", "trailing", "empty", "unterminated", "undeclared-ring"]


@pytest.mark.parametrize("body, col, message", ELEM_FAULTS, ids=ELEM_FAULT_IDS)
def test_elem_fault_is_positioned(body, col, message):
    """A faulty element declaration stops the script at the fault; an empty
    polynomial is reported at the ring name."""
    with pytest.raises(dsl.DslError) as e:
        dsl.run_script(dsl.parse_script(RING_XY + body))
    assert (e.value.line, e.value.col, e.value.message) == (2, col, message)


@pytest.mark.parametrize("body, col, message", ELEM_FAULTS, ids=ELEM_FAULT_IDS)
def test_elem_fault_is_a_parse_error(body, col, message):
    """Element polynomials are read against the ring declared before them
    while the script is parsed, so the parser reports their faults."""
    with pytest.raises(dsl.DslError) as e:
        dsl.parse_script(RING_XY + body)
    assert (e.value.line, e.value.col, e.value.message) == (2, col, message)


def test_elem_keeps_its_terms_and_ring_variables():
    script = dsl.parse_script(RING_XY + "elem e = 2*y - x + y in A;")
    elem = script.statements[1]
    assert elem.variables == ("x", "y")
    assert elem.poly == (((1, 0), -1), ((0, 1), 3))
    assert dsl.pretty_print(script).endswith("elem e = -x + 3*y in A;\n")


def test_class_check_over_budget_stops_as_budget(monkeypatch):
    """A class table that fits no route budget at the check's bound stops
    the check as ``budget``; it is not answered at a smaller bound.  With
    these budgets S/uS resolves to bound 4 (36 dims) but not to bound 6,
    and the dual of S fits neither."""
    monkeypatch.setattr(resolution, "ROUTE_BUDGETS", (40, 40))
    text = """
    ring S = GF(101)[x,y,u] / (x^2, x*y, y^2, u^2);
    elem eu = u in S;
    check in_gc(modx(free(S, 1), eu), S) bound {};
    """
    _env, results = dsl.run_script(dsl.parse_script(text.format(4)))
    assert (results[0].status, results[0].witness) == ("pass", "up to bound 4")
    _env, results = dsl.run_script(dsl.parse_script(text.format(6)))
    assert results[0].status == "budget"
    assert results[0].witness.startswith("resolution of dual(S) needs")
    assert "over the budget of 40" in results[0].witness
    assert results[0].tables is None
