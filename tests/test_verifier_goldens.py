"""What the paper verifiers say, pinned: (id, status, witness) of the 144
``verify-paper`` results over the corpus, and of all 24 verifiers on two
variants of ``ci_xy`` that fail a hypothesis gate:

- ``free-C``: C = A^2.  The pair is exact on C, but C is not semidualizing.
- ``pair-xx``: the pair (x, x).  x^2 = y^2 is not zero, so the pair is not
  exact on the ring.

The corpus alone reaches only a few of the gates, so the variants pin the
order and the wording of the others.  To record the golden again after a
deliberate change of a verdict or its wording:

    PYTHONPATH=src python tests/test_verifier_goldens.py > tests/verifier_goldens.json
"""

import dataclasses
import json
import sys
import tempfile
from pathlib import Path

from ezdlab import cli
from ezdlab.classes import is_ezd_pair, is_semidualizing
from ezdlab.module import free_module
from ezdlab.propcheck import PROP_VERIFIERS, load_corpus

GOLDEN = Path(__file__).with_name("verifier_goldens.json")


def _variants():
    inst = next(i for i in load_corpus(bound=10) if i.name == "ci_xy")
    return {
        "free-C": dataclasses.replace(inst, c=free_module(inst.algebra, 2)),
        "pair-xx": dataclasses.replace(inst, y=inst.x),
    }


def _outcomes(workdir: Path) -> list:
    path = workdir / "verify-paper.json"
    cli.main(["verify-paper", "--quiet", "--json", str(path)])
    rows = [
        [r["id"], r["status"], r.get("witness")]
        for r in json.loads(path.read_text())["results"]
    ]
    for name, inst in _variants().items():
        for pid in sorted(PROP_VERIFIERS):
            result = PROP_VERIFIERS[pid](inst)
            rows.append([f"{pid}:ci_xy[{name}]", result.status, result.witness])
    return rows


def test_variants_fail_the_intended_gates():
    variants = _variants()
    free_c = variants["free-C"]
    assert is_ezd_pair(free_c.x, free_c.y, free_c.c).holds
    assert not is_semidualizing(free_c.c, free_c.bound).holds
    xx = variants["pair-xx"]
    assert not (xx.x * xx.x).is_zero()
    assert not is_ezd_pair(xx.x, xx.y, xx.regular()).holds


def test_verifier_outcomes_match_golden(tmp_path):
    rows = _outcomes(tmp_path)
    golden = json.loads(GOLDEN.read_text())
    assert len(rows) == len(golden) == 144 + 2 * 24
    for got, want in zip(rows, golden):
        assert got == want


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        rows = _outcomes(Path(tmp))
    sys.stdout.write("[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]\n")
