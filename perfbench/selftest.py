"""Harness self-test at tiny size.

    python3 perfbench/selftest.py      # from the root of a source checkout

For each workload at tiny size (search with 3 trials, one verifier on one
corpus instance, resolve at bound 3) it checks that an untraced run emits
exactly the end-to-end metrics of BENCHMARK.json and a traced run exactly the
per-layer ones.  It then corrupts one golden answer per workload and checks
that the miss shows in ``failed`` (fail_ratio > 0) and in a nonzero exit, and
that the command fails, printing no result, where ezdlab's source is absent.
Takes under a minute; exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = ROOT / ".bench_out"
WORKLOADS = ("search-gf2", "verify-corpus", "resolve-k")


def bench(workload: str, trace: int, goldens=None, cwd=ROOT):
    cmd = [sys.executable, str(cwd / HERE.name / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    if goldens:
        cmd += ["--goldens", str(goldens)]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None), proc.stderr


def corrupted(goldens: dict, workload: str) -> dict:
    g = json.loads(json.dumps(goldens))
    if workload == "search-gf2":
        g["search"]["search(seed=7,trials=3)"]["fully_gated"] += 1
    elif workload == "verify-corpus":
        g["verify"] = {k: "inconclusive" if v == "pass" else "pass"
                       for k, v in g["verify"].items()}
    else:
        g["resolve_betti"][3] += 1
    return g


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    goldens = json.loads((HERE / "goldens.json").read_text())
    OUT.mkdir(exist_ok=True)
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, result, err = bench(workload, trace)
            got = {k: v["unit"] for k, v in (result or {}).get("metrics", {}).items()}
            if code != 0 or not result or not result["correct"] or got != want[trace]:
                problems.append(f"{workload} trace={trace}: exit {code}, "
                                f"metric names/units differ by "
                                f"{sorted(set(got.items()) ^ set(want[trace].items()))}"
                                f"{err[-500:]}")
        path = OUT / f"goldens-corrupted-{workload}.json"
        path.write_text(json.dumps(corrupted(goldens, workload)))
        code, result, _ = bench(workload, 0, goldens=path)
        if code == 0 or not result or result["failed"] / result["attempted"] <= 0:
            problems.append(f"{workload}: a corrupted golden was not caught "
                            f"(exit {code}, result {result})")
    bare = OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, result, _ = bench("resolve-k", 0, cwd=bare)
    shutil.rmtree(bare)
    if code == 0 or result is not None:
        problems.append(f"without src/: exit {code}, result {result}")
    for p in problems:
        print("FAIL", p)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
