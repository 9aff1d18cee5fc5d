"""Whole processes, as a user and the benchmark start them: no CLI command
imports numpy, ``dataclasses`` or ``inspect``, and the traced benchmark
worker runs every op of each workload, at tiny sizes, through the tracer's
reads of ``Matrix.data``."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
RESOLVE_RING = "GF(101)[x,y,z]/(x^3,y^3,z^3,x*y*z)"

# run the CLI as ``python -m ezdlab.cli`` does, and report at exit whether
# numpy was ever imported
_CLI_AT_EXIT = """
import atexit, runpy, sys
atexit.register(lambda: print("numpy imported:", "numpy" in sys.modules, file=sys.stderr))
sys.argv = ["ezdlab", *sys.argv[1:]]
runpy.run_module("ezdlab.cli", run_name="__main__")
"""


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@pytest.mark.parametrize("argv, code", [
    (["search", "--seed", "7", "--trials", "20", "--dims", "6", "--bound", "4"], 0),
    (["verify-paper"], 0),
    (["resolve", "--ring", RESOLVE_RING, "--module", "k", "--bound", "4"], 0),
    (["classify", "--ring", "GF(101)[x,y]/(x^2,y^2)", "--module", "k", "--c", "omega(A)"], 0),
    (["check", str(CORPUS / "ci_xy.ezd")], 0),
    (["check", str(CORPUS / "qq_hypersurface.ezd")], 0),
], ids=["search", "verify-paper", "resolve", "classify", "check-gf101", "check-qq"])
def test_cli_process_never_imports_numpy(argv, code):
    proc = subprocess.run([sys.executable, "-c", _CLI_AT_EXIT, *argv], cwd=ROOT,
                          env=_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == code, proc.stderr
    assert proc.stderr.splitlines()[-1] == "numpy imported: False", proc.stderr


# the same run, reporting at exit which of ``dataclasses`` and ``inspect``
# (which ``dataclasses`` imports) were loaded
_CLI_LOADED_AT_EXIT = """
import atexit, runpy, sys
atexit.register(lambda: print(
    "loaded:", [m for m in ("dataclasses", "inspect") if m in sys.modules], file=sys.stderr))
sys.argv = ["ezdlab", *sys.argv[1:]]
runpy.run_module("ezdlab.cli", run_name="__main__")
"""


@pytest.mark.parametrize("argv", [
    ["--help"],
    ["search", "--seed", "7", "--trials", "20", "--dims", "6", "--bound", "4"],
    ["verify-paper"],
    ["resolve", "--ring", RESOLVE_RING, "--module", "k", "--bound", "4"],
    ["classify", "--ring", "GF(101)[x,y]/(x^2,y^2)", "--module", "k", "--c", "omega(A)"],
    ["check", str(CORPUS / "ci_xy.ezd")],
], ids=["help", "search", "verify-paper", "resolve", "classify", "check"])
def test_cli_process_never_imports_dataclasses_or_inspect(argv):
    proc = subprocess.run([sys.executable, "-c", _CLI_LOADED_AT_EXIT, *argv], cwd=ROOT,
                          env=_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == "loaded: []", proc.stderr


@pytest.mark.parametrize("spec", [
    {"kind": "resolve", "bounds": [3]},
    {"kind": "search", "seed": 7, "trials": 3},
    # fact-a, the 22nd verifier, is the first to reach kernel_basis
    {"kind": "verify", "verifiers": 22, "instances": 1},
], ids=lambda spec: spec["kind"])
def test_traced_worker_runs_every_op(tmp_path, spec):
    """``perfbench/worker.py`` with ``"trace": true``, one workload per
    worker as the benchmark spawns it.  The tracer reads ``m.data.size`` of
    every ``kernel_basis`` argument and ``x.coords.data.ravel().tolist()``
    in ``quotient_algebra``; the verify and search ops reach those."""
    spec = dict(spec, trace=True, report=str(tmp_path / "report.json"),
                spans=str(tmp_path / "spans.npz"), spawned=time.monotonic())
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), json.dumps(spec)],
        cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert "error" not in out, out["error"]
    assert out["ops"]
    for op in out["ops"]:
        assert "error" not in op and not op["status"].startswith("error"), op
    assert (tmp_path / "spans.npz").exists()
    layers = out["layers"]
    if spec["kind"] == "search":
        assert layers["module.quotient_algebra.calls"] > 0
    if spec["kind"] == "verify":
        assert layers["linalg.kernel_basis.cells"] > 0
