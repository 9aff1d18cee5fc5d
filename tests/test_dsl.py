"""Script language: tokenizing, parsing, pretty-printing and execution."""

from pathlib import Path

import pytest

from ezdlab import dsl
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
