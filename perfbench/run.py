"""The ezdlab benchmark: one command, three workloads, answers checked.

    python3 perfbench/run.py --workload search-gf2 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py          # each workload untraced, then traced

Run it from the root of a source checkout (it imports ``src/ezdlab``).  Each
measured run is a fresh worker process (perfbench/worker.py), one at a time,
so that ``ru_maxrss`` and ezdlab's id-keyed caches start empty.  Workers are
spawned until ``--seconds`` is used up.  Every op's answer is checked against
a known-correct one (perfbench/goldens.json); a miss counts in ``failed`` and
makes the command exit 1.

With ``--trace 0`` the last stdout line holds the end-to-end metrics, taken
from untraced workers only.  With ``--trace 1`` traced and untraced workers
alternate, and it holds the per-layer metrics of the traced ones (medians),
with the tracing overhead each traced worker estimates for itself.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from hashlib import sha256
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
ROOT = Path.cwd()
OUT = ROOT / ".bench_out"

WORKLOADS = ("search-gf2", "verify-corpus", "resolve-k")
SEARCH_REFERENCE_SEED = 7
# full: the benchmark; tiny: the harness self-test
SIZES = {
    "full": {
        "search-gf2": {"trials": 100, "probe_trials": 20},
        "verify-corpus": {"verifiers": 24, "instances": 6},
        "resolve-k": {"bounds": [4, 5, 6]},
    },
    "tiny": {
        "search-gf2": {"trials": 3, "probe_trials": 3},
        "verify-corpus": {"verifiers": 1, "instances": 1},
        "resolve-k": {"bounds": [3]},
    },
}
SETUP_SAMPLES = 5  # set-up-only workers per run, on top of one per worker
MIN_WORKERS = 2
DEADLINE_S = 170  # a run must end within 180 s; a worker past this is killed
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

E2E_UNITS = {
    "setup_s": "s", "wall_s": "s", "work_per_s": "1/s", "op_p50_ms": "ms",
    "op_tail_ms": "ms", "peak_rss_mb": "MB", "decided_ratio": "ratio",
}
WORK_UNIT = {"search-gf2": "fully gated configurations",
             "verify-corpus": "verifier checks",
             "resolve-k": "free ranks (sum of Betti numbers)"}


# ---------------------------------------------------------------------------
# workers


def _worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in PINNED_THREADS:
        env[var] = "1"
    return env


def spawn(spec: dict, deadline: float) -> dict:
    """Run one worker to completion and return its JSON result; a crash, a
    nonzero exit or a timeout comes back as ``{"error": ...}``."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        return {"error": "run deadline reached before the worker started"}
    spec = dict(spec, spawned=time.monotonic())
    with subprocess.Popen(
        [sys.executable, str(WORKER), json.dumps(spec)], cwd=ROOT,
        env=_worker_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True,
    ) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return {"error": f"worker killed after {timeout:.0f} s"}
    lines = out.strip().splitlines()
    if proc.returncode == 0 and lines:
        try:
            return json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return {"error": f"worker exit {proc.returncode}: {(err or out).strip()[-2000:]}"}


def worker_spec(workload: str, sizes: dict) -> tuple:
    """(spec, number of ops) of one measured worker."""
    report = str(OUT / f"report-{os.getpid()}.json")
    if workload == "search-gf2":
        return {"kind": "search", "seed": SEARCH_REFERENCE_SEED,
                "trials": sizes["trials"], "report": report}, 1
    if workload == "verify-corpus":
        return {"kind": "verify", **sizes}, sizes["verifiers"] * sizes["instances"]
    return {"kind": "resolve", "bounds": sizes["bounds"], "report": report}, len(
        sizes["bounds"])


# ---------------------------------------------------------------------------
# oracles


class Oracle:
    """Checks each op's answer; every miss is kept as a message."""

    def __init__(self, workload: str, goldens: dict):
        self.workload = workload
        self.goldens = goldens
        self.first_answer: dict = {}
        self.attempted = 0
        self.failed = 0
        self.misses: list = []

    def check_worker(self, result: dict, expected_ops: int, label: str):
        """``expected_ops`` 0 is a set-up-only worker: its set-up is the op."""
        ops = result.get("ops", ())
        self.attempted += max(expected_ops, 1)
        if "error" in result or len(ops) != expected_ops:
            self.failed += max(expected_ops, 1)
            error = result.get("error", f"{len(ops)} ops returned")
            self.misses.append(f"{label}: every op failed: {error}")
            return
        for op in ops:
            miss = self.check_op(op)
            if miss:
                self.failed += 1
                self.misses.append(f"{label}: {op['id']}: {miss}")

    def check_op(self, op: dict):
        if self.workload == "verify-corpus":
            want = self.goldens["verify"].get(op["id"])
            if op["status"] != want:
                return f"status {op['status']!r}, expected {want!r}"
            return None
        if self.workload == "resolve-k":
            b = int(op["id"].split("bound=")[1].rstrip(")"))
            want = {"betti": self.goldens["resolve_betti"][: b + 1],
                    "terminated": False}
            got = (op["exit"], op["status"], op["answer"])
            if got != (0, "pass", want):
                return f"got exit/status/answer {got}, expected {(0, 'pass', want)}"
            return None
        # search: the golden for the reference size, else the first answer
        # seen in this run for the same seed and size (determinism)
        answer = op["answer"]
        want = self.goldens["search"].get(op["id"]) or self.first_answer.setdefault(
            op["id"], answer)
        exit_want = 1 if answer["counterexamples"] else 0
        if answer != want:
            return f"report differs: {answer} vs {want}"
        if op["exit"] != exit_want or op["status"] != ("fail" if exit_want else "pass"):
            return f"exit {op['exit']} / status {op['status']} disagree with the report"
        return None


# ---------------------------------------------------------------------------
# metrics


def tail(values: list):
    """(percentile, value): the highest whole percentile with at least ten
    samples beyond it (nearest rank); the maximum when n < 11."""
    v = sorted(values)
    n = len(v)
    if n < 11:
        return 100, v[-1]
    q = 100 * (n - 10) // n
    return q, v[-(-q * n // 100) - 1]  # rank ceil(q n / 100), in integers


def work_of(workload: str, result: dict) -> float:
    ops = result["ops"]
    if workload == "search-gf2":
        return ops[0]["answer"]["fully_gated"]
    if workload == "verify-corpus":
        return len(ops)
    return sum(sum(op["answer"]["betti"] or ()) for op in ops)


def end_to_end(workload: str, runs: list, setup: list) -> tuple:
    """(metrics, notes): medians over the untraced workers of one run."""
    by_op: dict = {}
    for r in runs:
        for op in r["ops"]:
            by_op.setdefault(op["id"], []).append(op["ms"])
    op_ms = [statistics.median(v) for v in by_op.values()]
    q, tail_ms = tail(op_ms)
    ops = [op for r in runs for op in r["ops"]]
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(r["wall_s"] for r in runs),
        "work_per_s": statistics.median(work_of(workload, r) / r["wall_s"] for r in runs),
        "op_p50_ms": statistics.median(op_ms),
        "op_tail_ms": tail_ms,
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in runs),
        "decided_ratio": sum(op["status"] == "pass" for op in ops) / len(ops),
    }
    k = len(runs)
    notes = {
        "setup_s": f"n={len(setup)} worker spawns",
        "wall_s": f"n={k} runs",
        "work_per_s": f"n={k} runs; work = {WORK_UNIT[workload]}",
        "op_p50_ms": f"n={len(op_ms)} ops, each the median of {k} runs",
        "op_tail_ms": f"p{q} of n={len(op_ms)} ops" + (
            " (the maximum: fewer than 11 ops)" if q == 100 else ""),
        "peak_rss_mb": f"n={k} runs; ru_maxrss",
        "decided_ratio": f"{sum(op['status'] == 'pass' for op in ops)}"
                         f"/{len(ops)} pass",
    }
    return metrics, notes


def per_layer(traced: list) -> dict:
    """Medians over the traced workers; ``trace.overhead_s`` is each traced
    worker's own estimate of what tracing cost it (tracer.Tracer.overhead_s)."""
    names = [name for name in traced[0]["layers"] if name != "spans"]
    return {name: statistics.median(r["layers"][name] for r in traced)
            for name in names}


def paired_overhead(traced: list, untraced: list) -> tuple:
    """(median traced-minus-untraced wall time over adjacent worker pairs,
    whether it is resolved): it is when every pair agrees in sign and the
    median is larger than the range of the untraced wall times."""
    diffs = [t["wall_s"] - u["wall_s"] for u, t in zip(untraced, traced)]
    walls = [u["wall_s"] for u in untraced]
    diff = statistics.median(diffs)
    same_sign = all(d > 0 for d in diffs) or all(d < 0 for d in diffs)
    return diff, len(walls) > 1 and same_sign and abs(diff) > max(walls) - min(walls)


# ---------------------------------------------------------------------------
# environment record


def environment(workload: str, seed: int, seconds: int, trace: bool, sizes: dict):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        commit = got.stdout.strip() or None
    digest = sha256()
    for path in sorted((ROOT / "src" / "ezdlab").glob("*.py")) + sorted(
            (ROOT / "corpus").glob("*.ezd")):
        digest.update(path.name.encode() + path.read_bytes())
    import numpy

    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "sizes": sizes, "nproc": os.cpu_count(), "cpu": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "git_commit": commit, "src_sha256": digest.hexdigest(),
    }


# ---------------------------------------------------------------------------
# one workload


def run(workload: str, seed: int, seconds: int, trace: bool, size: str,
        goldens: dict) -> dict:
    sizes = SIZES[size][workload]
    start = time.monotonic()
    deadline = start + DEADLINE_S
    oracle = Oracle(workload, goldens)
    setup = [spawn({"kind": "setup"}, deadline) for _ in range(SETUP_SAMPLES)]
    for i, r in enumerate(setup):
        oracle.check_worker(r, 0, f"setup {i}")

    probes = []
    if workload == "search-gf2":
        # the --seed goes to the searcher; twice, to check determinism
        probe = {"kind": "search", "seed": seed, "trials": sizes["probe_trials"],
                 "trace": False,
                 "report": str(OUT / f"report-{os.getpid()}.json")}
        probes = [spawn(probe, deadline) for _ in range(2)]
        for i, r in enumerate(probes):
            oracle.check_worker(r, 1, f"probe {i}")

    spec, n_ops = worker_spec(workload, sizes)
    spec["spans"] = str(OUT / f"spans-{workload}.npz")
    runs, traced, last = [], [], {}
    while True:
        traced_next = trace and len(traced) < len(runs)
        enough = len(runs) >= (1 if trace else MIN_WORKERS) and (
            not trace or traced)
        # stop when the next worker would likely end past --seconds
        if enough and time.monotonic() - start + last.get(traced_next, 0) > seconds:
            break
        if time.monotonic() >= deadline:
            break
        t = time.monotonic()
        done = traced if traced_next else runs
        label = f"{'traced ' if traced_next else ''}run {len(done)}"
        r = spawn(dict(spec, trace=traced_next), deadline)
        last[traced_next] = time.monotonic() - t
        oracle.check_worker(r, n_ops, label)
        if "error" not in r:
            done.append(r)
        if "error" in r and not runs and not traced:
            break  # the program does not even run: stop here

    result = {"correct": oracle.failed == 0, "attempted": oracle.attempted,
              "failed": oracle.failed, "misses": oracle.misses,
              "env": environment(workload, seed, seconds, trace, sizes),
              "workers": [{"traced": r in traced, "setup_s": r["setup_s"],
                           "wall_s": r["wall_s"], "rss_mb": r["rss_mb"]}
                          for r in runs + traced]}
    setup_s = [r["setup_s"] for r in setup + probes + runs if "setup_s" in r]
    if runs and setup_s:
        result["e2e"], result["notes"] = end_to_end(workload, runs, setup_s)
        result["probe_ms"] = [r["ops"][0]["ms"] for r in probes if "ops" in r]
    if traced and runs:
        result["layers"] = per_layer(traced)
        result["paired_overhead_s"] = paired_overhead(traced, runs)
        result["spans"] = statistics.median(r["layers"]["spans"] for r in traced)
    return result


# ---------------------------------------------------------------------------
# output


def print_report(workload: str, result: dict):
    print(f"== {workload}" + (" (traced)" if result["env"]["trace"] else ""))
    for miss in result["misses"]:
        print(f"ORACLE MISS {miss}")
    print(f"fail_ratio      ratio  {result['failed'] / result['attempted']:.6g}"
          f"  ({result['failed']}/{result['attempted']} ops failed)")
    for name, value in result.get("e2e", {}).items():
        print(f"{name:<15} {E2E_UNITS[name]:<6} {value:.6g}  ({result['notes'][name]})")
    if result.get("probe_ms"):
        print(f"search probe with --seed: "
              f"{', '.join(f'{ms:.0f} ms' for ms in result['probe_ms'])}")
    if "layers" in result:
        layers = result["layers"]
        top = sorted(((v, k) for k, v in layers.items()
                      if k.endswith(".self_s") and k.count(".") == 1), reverse=True)
        print("layer self time (traced): " + ", ".join(
            f"{k[:-7]} {v:.3f} s" for v, k in top if v > 0))
        fns = sorted(((v, k) for k, v in layers.items()
                      if k.endswith(".self_s") and k.count(".") > 1), reverse=True)
        print("top functions by self time: " + ", ".join(
            f"{k[:-7]} {v:.3f} s" for v, k in fns[:6]))
        diff, resolved = result["paired_overhead_s"]
        print(f"tracing overhead {layers['trace.overhead_s']:.3f} s per run (estimated "
              f"in each traced worker); {result['spans']:.0f} spans per traced run; "
              f"traced minus untraced wall time {diff:.3f} s, "
              + ("resolved" if resolved else "unresolved: within the untraced "
                 "workers' own spread"))
    print("env " + json.dumps(result["env"], sort_keys=True))


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_ratio")):
        return "ratio"
    return "count"


def result_line(result: dict) -> dict:
    """The result line: end-to-end metrics, or per-layer ones when
    traced."""
    traced = result["env"]["trace"]
    metrics = result.get("layers" if traced else "e2e", {})
    return {"correct": result["correct"] and bool(metrics),
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {name: {"value": value, "unit": layer_unit(name) if traced
                               else E2E_UNITS[name]}
                        for name, value in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=SEARCH_REFERENCE_SEED)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="default: 0 for one workload; for all, an untraced "
                        "then a traced run of each")
    parser.add_argument("--size", choices=tuple(SIZES), default="full",
                        help="tiny is for the harness self-test")
    parser.add_argument("--goldens", default=str(HERE / "goldens.json"),
                        help="known-correct answers (default: goldens.json)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ezdlab" / "cli.py").is_file():
        print(f"error: no src/ezdlab under {ROOT}; run from a source checkout",
              file=sys.stderr)
        return 2
    with open(args.goldens) as fh:
        goldens = json.load(fh)
    OUT.mkdir(exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    if args.trace is not None:
        traces = (bool(args.trace),)
    else:
        traces = (False, True) if args.workload == "all" else (False,)
    lines = {}
    for trace in traces:
        for workload in workloads:
            result = run(workload, args.seed, args.seconds, trace, args.size, goldens)
            print_report(workload, result)
            suffix = "-trace" if trace else ""
            with open(OUT / f"result-{workload}{suffix}.json", "w") as fh:
                json.dump(result, fh, indent=1, sort_keys=True)
            lines[workload + suffix] = result_line(result)
    final = next(iter(lines.values())) if len(lines) == 1 else {
        "correct": all(ln["correct"] for ln in lines.values()),
        "attempted": sum(ln["attempted"] for ln in lines.values()),
        "failed": sum(ln["failed"] for ln in lines.values()),
        "metrics": {f"{run_name}/{name}": metric for run_name, ln in lines.items()
                    for name, metric in ln["metrics"].items()},
    }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
