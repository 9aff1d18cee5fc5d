"""One run of one workload, in a fresh process; prints one JSON line.

Usage (from run.py): python3 perfbench/worker.py '<spec json>'

The spec names the workload, its sizes, the parent's monotonic clock reading
taken just before the spawn, whether to trace, and a scratch directory.  The
worker imports ``ezdlab.cli`` and builds its parser (that is set-up), then
runs the workload's ops from a cold start: no warm-up, because every CLI
user pays the cold start.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback
from hashlib import sha256

RESOLVE_RING = "GF(101)[x,y,z]/(x^3,y^3,z^3,x*y*z)"


def _cli_op(cli, op_id, argv, report_path):
    """Run one CLI call as a user would (report written to a file)."""
    t = time.perf_counter()
    code = cli.main(argv + ["--quiet", "--json", report_path])
    ms = (time.perf_counter() - t) * 1000
    with open(report_path) as fh:
        result = json.load(fh)["results"][0]
    os.remove(report_path)
    return {"id": op_id, "ms": ms, "exit": code, "status": result["status"],
            "tables": result.get("tables")}


def search_ops(spec, cli):
    seed, trials = spec["seed"], spec["trials"]
    op = _cli_op(
        cli, f"search(seed={seed},trials={trials})",
        ["search", "--seed", str(seed), "--trials", str(trials),
         "--dims", "6", "--bound", "4"],
        spec["report"],
    )
    tables = op.pop("tables")
    op["answer"] = {
        "tables_sha256": sha256(
            json.dumps(tables, sort_keys=True, indent=2).encode()).hexdigest(),
        **{k: tables[k] for k in ("algebras_built", "ring_pairs", "fully_gated",
                                  "budget_skips")},
        "counterexamples": len(tables["counterexamples"]),
    }
    return [op]


def resolve_ops(spec, cli):
    ops = []
    for b in spec["bounds"]:
        op = _cli_op(
            cli, f"resolve(k,bound={b})",
            ["resolve", "--ring", RESOLVE_RING, "--module", "k", "--bound", str(b)],
            spec["report"],
        )
        tables = op.pop("tables") or {}
        op["answer"] = {"betti": tables.get("betti"),
                        "terminated": tables.get("terminated")}
        ops.append(op)
    return ops


def verify_ops(spec, cli):
    from ezdlab import propcheck
    from ezdlab.groebner import PairBudgetExceeded
    from ezdlab.resolution import ResolutionBudgetExceeded

    instances = propcheck.load_corpus(bound=10)[: spec["instances"]]
    pids = sorted(propcheck.PROP_VERIFIERS)[: spec["verifiers"]]
    ops = []
    for pid in pids:
        for inst in instances:
            t = time.perf_counter()
            try:
                status = propcheck.PROP_VERIFIERS[pid](inst).status
            except (ResolutionBudgetExceeded, PairBudgetExceeded):
                status = "budget"
            except Exception:  # a raising verifier fails its op, not the run
                status = "error: " + traceback.format_exc(limit=2)
            ops.append({"id": f"{pid}:{inst.name}", "status": status,
                        "ms": (time.perf_counter() - t) * 1000})
    return ops


WORKLOADS = {"search": search_ops, "resolve": resolve_ops, "verify": verify_ops}


def main():
    spec = json.loads(sys.argv[1])
    from ezdlab import cli

    cli.build_parser()
    out = {"setup_s": time.monotonic() - spec["spawned"]}
    if spec["kind"] != "setup":
        tracer = None
        if spec["trace"]:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        t = time.perf_counter()
        try:
            out["ops"] = WORKLOADS[spec["kind"]](spec, cli)
        except Exception:  # the parent counts every op of this worker as failed
            out["error"] = traceback.format_exc(limit=4)
        out["wall_s"] = time.perf_counter() - t
        out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            out["layers"] = tracer.summary()
            tracer.dump(spec["spans"])
    print(json.dumps(out))


if __name__ == "__main__":
    main()
