"""Command-line front end.

Subcommands
-----------
check         run the checks in an ``.ezd`` script
resolve       betti numbers of a minimal free resolution
ext / tor     dimension tables of Ext / Tor between two modules
classify      class memberships and relative dimensions of M against C
verify-paper  run the property verifiers over the bundled corpus
search        randomized counterexample search

Exit codes: 0 all checks passed, 1 some check failed, 2 usage or parse
error, 3 a computation budget was exhausted.  Human-readable text goes to
stdout; ``--json PATH`` additionally writes a machine-readable report.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import dsl
from .classes import (
    ic_id,
    in_A_C,
    in_B_C,
    in_G_C,
    is_semidualizing,
    pc_pd,
)
from .groebner import BudgetExceeded, InfiniteDimensionalError, NonLocalError
from .module import Module, residue_field_module
from .propcheck import (
    PROP_VERIFIERS,
    SearchConfig,
    load_corpus,
    search_counterexamples,
)
from .record import Record
from .resolution import ext, minimal_free_resolution, tor

__all__ = ["main", "build_parser", "report_to_json", "UsageError"]

REPORT_VERSION = "1"

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


class UsageError(Exception):
    """A command-line value the tool cannot use."""


class Report(Record):
    """The JSON report accumulated by every subcommand."""

    __slots__ = ("command", "seed", "bound", "results")

    def __init__(self, command: str, seed: int, bound: int, results: Optional[list] = None):
        self.command = command
        self.seed = seed
        self.bound = bound
        self.results = [] if results is None else results

    def add(self, r: dsl.CheckResult):
        entry = {"id": r.id, "status": r.status, "millis": r.millis}
        if r.witness is not None:
            entry["witness"] = r.witness
        if r.tables is not None:
            entry["tables"] = r.tables
        self.results.append(entry)

    def exit_code(self) -> int:
        statuses = {r["status"] for r in self.results}
        if "fail" in statuses:
            return EXIT_FAIL
        if "budget" in statuses:
            return EXIT_BUDGET
        return EXIT_PASS


def report_to_json(report: Report) -> str:
    payload = {
        "version": REPORT_VERSION,
        "command": report.command,
        "seed": report.seed,
        "bound": report.bound,
        "results": report.results,
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _emit(report: Report, args) -> int:
    if not args.quiet:
        for r in report.results:
            line = f"{r['status']:<13} {r['id']}"
            if r.get("witness"):
                line += f"  [{r['witness']}]"
            print(line)
    if args.json:
        text = report_to_json(report)
        # the serialization must survive a parse/re-serialize round trip
        assert json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n" == text
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(text)
    return report.exit_code()


# ---------------------------------------------------------------------------
# one-shot module construction from command-line strings


def _flag_error(flag: str, text: str, exc: dsl.DslError) -> UsageError:
    """``exc``, raised while parsing ``text``, restated at its column in the
    value of ``flag``."""
    where = f"line {exc.line}, column {exc.col}"
    if exc.line == 1:
        where = f"column {exc.col}"
    return UsageError(f"{flag} {text!r}, {where}: {exc.message}")


def _build_env(ring_text: str):
    """Environment with a ring named A built from e.g.
    ``GF(101)[x,y]/(x*y, x^2-y^2)`` and its residue field, the module k."""
    try:
        decl = dsl.parse_ring(ring_text)
        env, _ = dsl.run_script(dsl.Script((decl,)))
    except dsl.DslError as exc:
        raise _flag_error("--ring", ring_text, exc) from None
    env.modules["k"] = residue_field_module(env.rings["A"])
    return env


def _module_from_expr(env, flag: str, text: str) -> Module:
    try:
        expr = dsl.parse_module_expr(text)
        return dsl._eval_module(env, expr, expr)
    except dsl.DslError as exc:
        raise _flag_error(flag, text, exc) from None


# ---------------------------------------------------------------------------
# subcommands


def _cmd_check(args) -> int:
    report = Report("check", args.seed, args.bound)
    script = dsl.parse_script(dsl.read_script(args.script))
    _env, results = dsl.run_script(script, default_bound=args.bound, seed=args.seed)
    for r in results:
        report.add(r)
    return _emit(report, args)


def _cmd_resolve(args) -> int:
    report = Report("resolve", args.seed, args.bound)
    env = _build_env(args.ring)
    m = _module_from_expr(env, "--module", args.module)

    def betti():
        res = minimal_free_resolution(m, args.bound)
        witness = f"betti={list(res.betti)} terminated={res.terminated}"
        return "pass", witness, {"betti": list(res.betti), "terminated": res.terminated}

    report.add(dsl.result(f"resolve({args.module})", betti))
    return _emit(report, args)


def _cmd_ext_tor(args) -> int:
    which = args.subcommand
    report = Report(which, args.seed, args.bound)
    env = _build_env(args.ring)
    src = _module_from_expr(env, "--from", getattr(args, "from"))
    dst = _module_from_expr(env, "--to", args.to)
    fn = ext if which == "ext" else tor

    def dims():
        table = fn(src, dst, args.bound)
        return "pass", f"dims={list(table.dims)}", dsl.table_json(table)

    report.add(dsl.result(f"{which}({getattr(args, 'from')},{args.to})", dims))
    return _emit(report, args)


def _dimension(value) -> tuple:
    return "pass", str(value.value), None


def _cmd_classify(args) -> int:
    report = Report("classify", args.seed, args.bound)
    env = _build_env(args.ring)
    m = _module_from_expr(env, "--module", args.module)
    c_name = args.c or "A"
    c = _module_from_expr(env, "--c", c_name)

    report.add(dsl.result(f"semidualizing({c_name})",
                          lambda: dsl.verdict_entry(is_semidualizing(c, args.bound))))
    for label, fn, outcome in (
        ("in_G_C", in_G_C, dsl.verdict_entry),
        ("in_A_C", in_A_C, dsl.verdict_entry),
        ("in_B_C", in_B_C, dsl.verdict_entry),
        ("pc_pd", pc_pd, _dimension),
        ("ic_id", ic_id, _dimension),
    ):
        rid = f"{label}({args.module};{c_name})"
        report.add(dsl.result(rid, lambda: outcome(fn(m, c, args.bound))))
    return _emit(report, args)


def _cmd_verify_paper(args) -> int:
    report = Report("verify-paper", args.seed, args.bound)
    if args.prop and args.prop not in PROP_VERIFIERS:
        raise UsageError(f"unknown property id {args.prop!r}; "
                         f"known: {', '.join(sorted(PROP_VERIFIERS))}")
    pids = [args.prop] if args.prop else sorted(PROP_VERIFIERS)
    instances = load_corpus(bound=args.bound, seed=args.seed)
    for pid in pids:
        verifier = PROP_VERIFIERS[pid]
        for inst in instances:

            def verdict():
                result = verifier(inst)
                return result.status, result.witness, None

            report.add(dsl.result(f"{pid}:{inst.name}", verdict))
    code = _emit(report, args)
    if not args.quiet:
        _print_tally(report.results)
    return code


def _print_tally(results: list):
    """The count of each status, then each inconclusive reason with its
    count, most frequent first."""
    counts = dict.fromkeys(("pass", "fail", "inconclusive", "budget"), 0)
    reasons: dict = {}
    for r in results:
        counts[r["status"]] += 1
        if r["status"] == "inconclusive":
            reasons[r["witness"]] = reasons.get(r["witness"], 0) + 1
    print("tally: " + ", ".join(f"{n} {status}" for status, n in counts.items()))
    for reason, n in sorted(reasons.items(), key=lambda item: -item[1]):
        print(f"{n:>5}  {reason}")


def _cmd_search(args) -> int:
    report = Report("search", args.seed, args.bound)
    config = SearchConfig(
        seed=args.seed, trials=args.trials, max_dim=args.dims, p=args.field, bound=args.bound
    )
    search_report = search_counterexamples(config)
    status = "fail" if search_report["counterexamples"] else "pass"
    # millis pinned to zero so that the report is bytewise reproducible
    report.add(dsl.CheckResult("search", status, None, search_report, 0))
    return _emit(report, args)


# ---------------------------------------------------------------------------
# argument parsing


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _bound(text: str) -> int:
    """A ``--bound`` value, read by the DSL's bound rule."""
    value = _non_negative_int(text)
    err = dsl.bound_error(value)
    if err:
        raise argparse.ArgumentTypeError(f"{text!r}, column 1: {err}")
    return value


def _finite_field(text: str) -> int:
    """The p of a ``GF(p)`` flag value, read by the DSL's field rule."""
    try:
        p = dsl.parse_field(text)
    except dsl.DslError as exc:
        raise argparse.ArgumentTypeError(f"{text!r}, column {exc.col}: {exc.message}")
    if p is None:
        raise argparse.ArgumentTypeError("search requires a finite field GF(p), got QQ")
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ezdlab",
        description="Exact computations with zero-divisor pairs and "
        "semidualizing modules over finite-dimensional local algebras.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, ring=False):
        p.add_argument("--bound", type=_bound, default=10,
                       help="homological degree bound (default 10)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--json", metavar="PATH",
                       help="write a machine-readable report to PATH")
        p.add_argument("--quiet", action="store_true",
                       help="suppress human-readable output")
        if ring:
            p.add_argument("--ring", required=True,
                           help='presentation, e.g. "GF(101)[x,y]/(x*y, x^2-y^2)"')

    p = sub.add_parser("check", help="run the checks in an .ezd script")
    p.add_argument("script", help="path to the script")
    common(p)
    p.set_defaults(run=_cmd_check)

    p = sub.add_parser("resolve", help="betti numbers of a minimal free resolution")
    common(p, ring=True)
    p.set_defaults(run=_cmd_resolve)
    p.add_argument("--module", required=True,
                   help='module expression, e.g. "k", "A", "omega(A)"')

    for which in ("ext", "tor"):
        p = sub.add_parser(which, help=f"dimension table of {which.capitalize()}")
        common(p, ring=True)
        p.set_defaults(run=_cmd_ext_tor)
        p.add_argument("--from", required=True, help="first argument module")
        p.add_argument("--to", required=True, help="second argument module")

    p = sub.add_parser("classify",
                       help="class memberships and relative dimensions of M")
    common(p, ring=True)
    p.set_defaults(run=_cmd_classify)
    p.add_argument("--module", required=True, help="the module M")
    p.add_argument("--c", default=None,
                   help="the semidualizing candidate C (default: the ring)")

    p = sub.add_parser("verify-paper",
                       help="run the property verifiers over the bundled corpus")
    common(p)
    p.set_defaults(run=_cmd_verify_paper)
    p.add_argument("--prop", default=None,
                   help="restrict to one property id (e.g. fact-a, B, J-ii)")

    p = sub.add_parser("search", help="randomized counterexample search")
    common(p)
    p.set_defaults(run=_cmd_search)
    p.add_argument("--field", type=_finite_field, default="GF(2)",
                   help="coefficient field GF(p) of the searched algebras (default GF(2))")
    p.add_argument("--trials", type=_non_negative_int, default=100)
    p.add_argument("--dims", type=_non_negative_int, default=6,
                   help="largest algebra dimension to try")
    return parser


def main(argv: Optional[list] = None) -> int:
    """Run one subcommand; the handlers below are the one map from
    exceptions to exit codes.  Any other exception is a fault of the tool
    and propagates."""
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except dsl.DslError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (UsageError, InfiniteDimensionalError, NonLocalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceeded as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
