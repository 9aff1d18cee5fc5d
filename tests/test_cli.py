"""Command-line interface: subcommands, exit codes, JSON reports."""

import contextlib
import io
import json
import re
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ezdlab import cli, propcheck
from ezdlab.cli import main
from ezdlab.groebner import MAX_QUOTIENT_DIM

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_passes(capsys):
    code, out, _ = run(["check", str(CORPUS / "hypersurface_x2.ezd")], capsys)
    assert code == 0
    assert "pass" in out


def test_check_failure_exit_code(tmp_path, capsys):
    script = tmp_path / "bad.ezd"
    script.write_text(
        "ring A = GF(101)[x] / (x^3);\n"
        "elem ex = x in A;\n"
        "check ezd(ex, ex, free(A, 1));\n"
    )
    code, out, _ = run(["check", str(script)], capsys)
    assert code == 1
    assert "fail" in out


def test_parse_error_exit_code(tmp_path, capsys):
    script = tmp_path / "broken.ezd"
    script.write_text("ring A = GF(101)[x] / (x^2)")
    code, _, err = run(["check", str(script)], capsys)
    assert code == 2
    assert "parse error" in err


def test_missing_file_exit_code(capsys):
    code, _, err = run(["check", "/does/not/exist.ezd"], capsys)
    assert code == 2


def test_json_report_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _, _ = run(
        ["check", str(CORPUS / "ci_xy.ezd"), "--json", str(out_path), "--quiet"],
        capsys,
    )
    assert code == 0
    text = out_path.read_text()
    payload = json.loads(text)
    assert payload["version"] == "1"
    assert payload["command"] == "check"
    assert payload["results"]
    for r in payload["results"]:
        assert set(r) >= {"id", "status", "millis"}
    # parse + re-serialize is byte-identical
    assert json.dumps(payload, sort_keys=True, indent=2) + "\n" == text


def test_quiet_suppresses_stdout(capsys):
    code, out, _ = run(
        ["check", str(CORPUS / "hypersurface_x2.ezd"), "--quiet"], capsys
    )
    assert code == 0
    assert out == ""


def test_ext_example(tmp_path, capsys):
    out_path = tmp_path / "ext.json"
    code, out, _ = run(
        [
            "ext",
            "--ring",
            "GF(101)[x]/(x^2)",
            "--from",
            "k",
            "--to",
            "k",
            "--bound",
            "10",
            "--json",
            str(out_path),
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["results"][0]["tables"]["dims"] == [1] * 11


def test_resolve(capsys):
    code, out, _ = run(
        ["resolve", "--ring", "GF(101)[x]/(x^4)", "--module", "k", "--bound", "5"],
        capsys,
    )
    assert code == 0
    assert "betti=[1, 1, 1, 1, 1, 1]" in out


def test_resolve_budget_entry_records_its_time(tmp_path, capsys):
    """A resolution stopped by its budget is an entry like any other: status
    ``budget``, the budget message as witness and its wall time."""
    out_path = tmp_path / "resolve.json"
    code, _, _ = run(["resolve", "--ring", "GF(101)[x,y,z]/(x^3,y^3,z^3,x*y*z)",
                      "--module", "k", "--bound", "7", "--json", str(out_path)], capsys)
    assert code == 3
    [entry] = json.loads(out_path.read_text())["results"]
    assert entry["status"] == "budget"
    assert entry["witness"].startswith(
        "resolution of k needs 15485 total dims at step 7, over the budget of 10000")
    assert isinstance(entry["millis"], int) and entry["millis"] >= 0


@pytest.mark.parametrize("argv, text", [
    (["resolve", "--module", "dualk(k)"], "betti=[1, 1, 1, 1, 1, 1]"),
    (["ext", "--from", "hom(k,A)", "--to", "k"], "dims=[1, 1, 1, 1, 1, 1]"),
], ids=["dualk", "hom"])
def test_k_inside_an_expression(argv, text, capsys):
    """The residue field k is a module of the flag environment, so it may
    stand inside a module expression."""
    code, out, err = run([*argv, "--ring", "GF(101)[x]/(x^4)", "--bound", "5"], capsys)
    assert code == 0, err
    assert text in out


def test_classify(capsys):
    code, out, _ = run(
        [
            "classify",
            "--ring",
            "GF(101)[x,y]/(x*y, x^2 - y^2)",
            "--module",
            "omega(A)",
            "--c",
            "omega(A)",
        ],
        capsys,
    )
    assert code == 0
    assert "in_G_C" in out and "pc_pd" in out
    assert "pc_pd(omega(A);omega(A))  [0]" in out


@pytest.mark.parametrize("ring, c, exit_code", [
    ("GF(101)[x,y,z]/(x^3,y^3,z^3,x*y*z)", "A", 1),  # k is not in G_A there
    ("GF(101)[x,y]/(x^2,y^2)", "omega(A)", 0),
], ids=["resolve-ring", "ci-omega"])
def test_classify_dimensions_are_exact(ring, c, exit_code, capsys):
    """The relative dimensions of k are decided without a resolution, as
    inf: no budget stop over the ring whose k resolves past the budget, and
    no lower bound."""
    code, out, _ = run(["classify", "--ring", ring, "--module", "k", "--c", c], capsys)
    assert code == exit_code
    for fn in ("pc_pd", "ic_id"):
        assert f"pass          {fn}(k;{c})  [inf]" in out


def test_verify_paper_single_prop(capsys):
    code, out, _ = run(["verify-paper", "--prop", "fact-a", "--bound", "8"], capsys)
    assert code == 0
    assert "fact-a:ci_xy" in out


def test_verify_paper_seed_reaches_the_isomorphism_search(monkeypatch, capsys):
    seeds = []
    inner = propcheck.is_isomorphic

    def recorded(m, n, seed=0):
        seeds.append(seed)
        return inner(m, n, seed=seed)

    monkeypatch.setattr(propcheck, "is_isomorphic", recorded)
    code, _, _ = run(["verify-paper", "--prop", "fact-a", "--seed", "5", "--quiet"], capsys)
    assert code == 0
    assert seeds and set(seeds) == {5}


def test_verify_paper_unknown_prop(capsys):
    code, _, err = run(["verify-paper", "--prop", "nope"], capsys)
    assert code == 2
    assert "unknown property" in err


def test_search_deterministic_json(tmp_path, capsys):
    args = ["search", "--seed", "7", "--trials", "10", "--dims", "5",
            "--bound", "4", "--quiet"]
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run(args + ["--json", str(p1)], capsys)[0] == 0
    assert run(args + ["--json", str(p2)], capsys)[0] == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_usage_error(capsys):
    with pytest.raises(SystemExit) as e:
        main(["bogus"])
    assert e.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["resolve", "--ring", "GF(101)[x,y]/(x^2,y^2)", "--module", "k"],
        ["ext", "--ring", "GF(101)[x]/(x^2)", "--from", "k", "--to", "k"],
        ["verify-paper", "--prop", "fact-a"],
        ["search", "--trials", "1"],
    ],
    ids=lambda argv: argv[0],
)
def test_negative_bound_rejected(argv, capsys):
    with pytest.raises(SystemExit) as e:
        main(argv + ["--bound", "-3"])
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert "--bound" in err and "non-negative" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["search", "--trials", "-3"], "--trials"),
        (["search", "--trials", "5", "--dims", "-1"], "--dims"),
    ],
    ids=["trials", "dims"],
)
def test_negative_search_size_rejected(argv, flag, capsys):
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert flag in err and "non-negative" in err


@pytest.mark.parametrize(
    "body, where, message",
    [
        ("elem ex = x in B;", "line 2, column 16", "undefined ring 'B'"),
        ("check dim(Q, 4);", "line 2, column 11", "undefined module 'Q'"),
        ("check ezd(ex, ey, free(A, 1));", "line 2, column 11", "undefined element 'ex'"),
    ],
    ids=["ring", "module", "element"],
)
def test_undefined_name_exit_code(tmp_path, capsys, body, where, message):
    script = tmp_path / "undefined.ezd"
    script.write_text(f"ring A = GF(101)[x] / (x^2);\n{body}\n")
    code, _, err = run(["check", str(script)], capsys)
    assert code == 2
    assert f"{where}: {message}" in err


@pytest.mark.parametrize("p", [2305843009213693951, 4294967291, 2**31])
def test_prime_over_cap_exit_code(tmp_path, capsys, p):
    script = tmp_path / "big.ezd"
    script.write_text(f"ring A = GF({p})[x] / (x^2);\n")
    code, _, err = run(["check", str(script)], capsys)
    assert code == 2
    assert "line 1, column 13" in err and "2^31" in err


@pytest.mark.parametrize(
    "ring",
    ["GF(101)[x,y] / (x^2, x*y, y^99999)", "GF(101)[x,y,z]/(x^99999, y^99999, z^99999)"],
    ids=["staircase-mutant", "three-powers"],
)
def test_oversized_ring_exit_code(tmp_path, capsys, ring):
    """A ring whose staircase passes MAX_QUOTIENT_DIM is refused at its
    declaration while the staircase is counted, before any table is built."""
    script = tmp_path / "big.ezd"
    script.write_text(f"# too large\n  ring R = {ring};\n")
    t0 = time.monotonic()
    code, _, err = run(["check", str(script)], capsys)
    assert time.monotonic() - t0 < 1
    assert code == 2
    assert f"line 2, column 3: quotient dimension exceeds {MAX_QUOTIENT_DIM}" in err


RING = ["--ring", "GF(101)[x]/(x^2)"]


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["resolve", *RING, "--module", "foo"],
         "--module 'foo', column 1: undefined module 'foo'"),
        (["classify", *RING, "--module", "A", "--c", "dualk(B)"],
         "--c 'dualk(B)', column 7: undefined module 'B'"),
        (["ext", *RING, "--from", "hom(A,", "--to", "k"],
         "--from 'hom(A,', column 7: expected 'name', found 'eof'"),
        (["tor", *RING, "--from", "k", "--to", "omega(Q)"],
         "--to 'omega(Q)', column 7: undefined ring 'Q'"),
        (["resolve", "--ring", "GF(101)[x]/(y^2)", "--module", "k"],
         "--ring 'GF(101)[x]/(y^2)', column 13: unknown variable 'y'"),
        (["resolve", "--ring", "GF(101)[x]/(x^2", "--module", "k"],
         "--ring 'GF(101)[x]/(x^2', column 16: expected ')', found 'eof'"),
        (["resolve", "--ring", "GF(101)[x,x]/(x^2)", "--module", "k"],
         "--ring 'GF(101)[x,x]/(x^2)', column 11: duplicate variable 'x'"),
        (["resolve", "--ring", "GF(101)[x]/(x^300)", "--module", "k"],
         "--ring 'GF(101)[x]/(x^300)', column 1: quotient dimension exceeds 256"),
    ],
    ids=["module", "c", "from", "to", "ring", "ring-unclosed", "ring-duplicate",
         "ring-too-large"],
)
def test_bad_expression_names_its_flag(argv, expected, capsys):
    """Errors in a module or ring given on the command line point at the
    flag and at a column of its value."""
    code, _, err = run(argv, capsys)
    assert code == 2
    assert expected in err
    assert "line" not in err and "Traceback" not in err


def test_ext_to_zero_module(capsys):
    code, out, _ = run(["ext", *RING, "--from", "k", "--to", "free(A,0)", "--bound", "3"], capsys)
    assert code == 0
    assert "dims=[0, 0, 0, 0]" in out


@pytest.mark.parametrize(
    "argv, message",
    [
        (["resolve", *RING, "--module", "k", "--field", "QQ"],
         "unrecognized arguments: --field QQ"),
        (["search", "--trials", "1", "--field", "GF(x)"],
         "argument --field: 'GF(x)', column 4: expected 'int', found 'x'"),
        (["search", "--trials", "1", "--field", "QQ"],
         "argument --field: search requires a finite field"),
    ],
    ids=["resolve-QQ", "search-GF(x)", "search-QQ"],
)
def test_field_flag_only_on_search(argv, message, capsys):
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2
    assert message in capsys.readouterr().err


def test_search_field_reaches_the_search(tmp_path, capsys):
    out = tmp_path / "gf3.json"
    args = ["search", "--trials", "2", "--dims", "4", "--bound", "2", "--quiet"]
    assert run(args + ["--field", "GF(3)", "--json", str(out)], capsys)[0] == 0
    assert json.loads(out.read_text())["results"][0]["tables"]["field"] == "GF(3)"


@pytest.mark.parametrize("c, failure", [
    ("k", "homothety map is not an isomorphism"),
    ("free(A,0)", "zero module"),
], ids=["k", "zero"])
def test_classify_reports_c_not_semidualizing(c, failure, capsys):
    """Every class and dimension line fails with the certificate's reason."""
    code, out, err = run(["classify", *RING, "--module", "k", "--c", c], capsys)
    assert code == 1
    assert "Traceback" not in err
    lines = out.splitlines()
    assert lines[0] == f"fail          semidualizing({c})  [{failure}]"
    assert [line.split()[0] for line in lines[1:]] == ["fail"] * 5
    for line in lines[1:]:
        assert line.endswith(f"[C is not semidualizing: {failure}]")


MIXED = "ring A = GF(101)[x] / (x^2);\nring B = GF(101)[y] / (y^3);\nelem e = y in B;\n"


@pytest.mark.parametrize("line, column", [
    ("module H = hom(A, B);", 12),
    ("check in_gc(A, B);", 7),
    ("check isomorphic(A, B);", 7),
    ("module Q = modx(A, e);", 12),
], ids=["hom", "in_gc", "isomorphic", "modx"])
def test_mixed_rings_are_positioned_errors(tmp_path, capsys, line, column):
    script = tmp_path / "mixed.ezd"
    script.write_text(MIXED + line + "\n")
    code, _, err = run(["check", str(script)], capsys)
    assert code == 2
    assert f"parse error: line 4, column {column}: " in err
    assert "different rings" in err


def test_internal_error_is_not_a_usage_error(monkeypatch):
    """Only the exceptions main maps reach an exit code; a fault inside the
    tool propagates instead of reading as exit 2."""
    def broken(module, bound):
        raise ValueError("internal fault")

    monkeypatch.setattr(cli, "minimal_free_resolution", broken)
    with pytest.raises(ValueError, match="internal fault"):
        main(["resolve", *RING, "--module", "k"])


def test_verify_paper_reasons_are_one_line(tmp_path, capsys):
    """An inconclusive relative dimension names its exact value instead of
    printing a whole report."""
    out = tmp_path / "verify.json"
    code, _, _ = run(["verify-paper", "--json", str(out)], capsys)
    assert code == 0
    results = {r["id"]: r for r in json.loads(out.read_text())["results"]}
    assert len(results) == 144
    for r in results.values():
        witness = r.get("witness", "")
        assert "ClassMembershipReport(" not in witness
    reason = "Exactly(inf)"
    for rid in ("F-pc:sprime_omega", "G-i:sprime_omega", "H-i:sprime_omega"):
        assert results[rid]["status"] == "inconclusive"
        assert reason in results[rid]["witness"], rid



def test_verify_paper_ends_with_a_tally(capsys):
    """The text output ends with the count of each status and the count of
    each inconclusive reason; ``--quiet`` prints neither."""
    code, out, _ = run(["verify-paper"], capsys)
    assert code == 0
    lines = out.splitlines()
    start = lines.index("tally: 120 pass, 0 fail, 24 inconclusive, 0 budget")
    assert start == 144
    reasons = [line.split(None, 1) for line in lines[start + 1:]]
    assert sum(int(n) for n, _ in reasons) == 24
    assert reasons[0] == ["18", "M is not killed by x"]
    assert len({reason for _, reason in reasons}) == len(reasons)
    code, out, _ = run(["verify-paper", "--quiet", "--prop", "fact-a"], capsys)
    assert code == 0 and out == ""

TOKEN = re.compile(r"\w+|\S")
STRAY = ["@", "$", "{", '"', "é", "\t", "0", "-", "1/2", "^", "(", ")", ";", ","]


def _mutant(text, unit, op, where, replacement):
    """``text`` with the character or token at ``where`` (modulo their
    count) deleted, duplicated or replaced."""
    spans = ([m.span() for m in TOKEN.finditer(text)] if unit == "token"
             else [(i, i + 1) for i in range(len(text))])
    s, e = spans[where % len(spans)]
    piece = {"delete": "", "duplicate": text[s:e] * 2, "replace": replacement}[op]
    return text[:s] + piece + text[e:]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    path=st.sampled_from(sorted(CORPUS.glob("*.ezd"))),
    unit=st.sampled_from(["char", "token"]),
    op=st.sampled_from(["delete", "duplicate", "replace"]),
    where=st.integers(min_value=0),
    data=st.data(),
)
def test_mutated_scripts_keep_the_error_contract(tmp_path_factory, path, unit, op, where, data):
    """A corpus script with one character or token deleted, duplicated or
    replaced (by a token of the same script or a stray character) ends in
    exit 0, 1 or 2 and never in an uncaught exception."""
    text = path.read_text()
    replacement = data.draw(st.sampled_from(TOKEN.findall(text) + STRAY))
    script = tmp_path_factory.mktemp("mutant") / path.name
    script.write_text(_mutant(text, unit, op, where, replacement))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["check", str(script)])
    assert code in (0, 1, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()
