"""Record perfbench/goldens.json: the known-correct answers of every op.

    python3 perfbench/record_goldens.py

Run it from the root of a checkout of the commit whose answers are the
reference (the goldens in the repository come from the commit named in the
file).  The Betti numbers of k over GF(101)[x,y,z]/(x^3,y^3,z^3,x*y*z) are
also checked against their known values before anything is written.
"""

from __future__ import annotations

import json
import subprocess
import time

from run import HERE, OUT, ROOT, SEARCH_REFERENCE_SEED, SIZES, spawn

RESOLVE_BETTI = [1, 3, 7, 16, 37, 86, 200]
SEARCH_TRIALS = sorted({s["search-gf2"]["trials"] for s in SIZES.values()})


def ops(spec: dict) -> list:
    result = spawn(spec, time.monotonic() + 600)
    if "error" in result:
        raise SystemExit(result["error"])
    return result["ops"]


def main():
    OUT.mkdir(exist_ok=True)
    report = str(OUT / "report-goldens.json")
    search = {}
    for trials in SEARCH_TRIALS:
        (op,) = ops({"kind": "search", "seed": SEARCH_REFERENCE_SEED,
                     "trials": trials, "report": report, "trace": False})
        assert (op["exit"], op["status"]) == (0, "pass"), op
        search[op["id"]] = op["answer"]
    (op,) = ops({"kind": "resolve", "bounds": [len(RESOLVE_BETTI) - 1],
                 "report": report, "trace": False})
    assert op["answer"] == {"betti": RESOLVE_BETTI, "terminated": False}, op
    verify = {op["id"]: op["status"] for op in ops(
        {"kind": "verify", **SIZES["full"]["verify-corpus"], "trace": False})}
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip()
    goldens = {"recorded_at_commit": commit, "search": search,
               "resolve_betti": RESOLVE_BETTI, "verify": verify}
    with open(HERE / "goldens.json", "w") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
