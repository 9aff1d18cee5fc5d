"""The multiplication table an algebra builds from its variable actions:
against normal forms on every corpus ring and search algebra, planted
faults that its checks must refuse, and its build time at the size cap."""

import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from ezdlab import algebra as algebra_mod
from ezdlab import dsl, propcheck
from ezdlab.algebra import Algebra
from ezdlab.cli import main
from ezdlab.groebner import InfiniteDimensionalError, NonLocalError, QuotientPresentation
from ezdlab.linalg import Matrix
from ezdlab.module import direct_sum, hom_module, is_isomorphic, regular_module, tensor_module
from ezdlab.poly import PolyRing
from ezdlab.resolution import ext

from conftest import GF101, QQ, make_algebra, reference_table

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def _assert_reference_table(alg):
    """``mult_stack`` equals the normal-form table, entry and type."""
    stack = alg.mult_stack
    assert len(stack) == alg.dim
    for mat in stack:
        assert all(all(v != 0 for v in row.values()) for row in mat.nz)
        if alg.field.p is not None:
            assert mat.data.dtype == np.int64
        else:
            assert mat.data.dtype == object
            assert all(type(v) is Fraction for v in mat.data.reshape(-1))
    assert [mat.to_lists() for mat in stack] == reference_table(alg)


def _corpus_rings():
    rings = []
    for path in sorted(CORPUS.glob("*.ezd")):
        for stmt in dsl.parse_script(path.read_text()).statements:
            if isinstance(stmt, dsl.RingDecl):
                try:
                    rings.append(dsl._build_ring(stmt))
                except InfiniteDimensionalError:
                    pass
    return rings


def test_every_corpus_ring_matches_the_reference_table():
    rings = _corpus_rings()
    assert len(rings) == 11
    for alg in rings:
        _assert_reference_table(alg)


@pytest.mark.parametrize("p, trials, count", [(2, 500, 14), (3, 100, 11)],
                         ids=["gf2-500", "gf3-100"])
def test_every_search_algebra_matches_the_reference_table(monkeypatch, p, trials, count):
    """The algebras of the seed-7 search, one per reduced Groebner basis,
    collected as it builds them; the trials themselves are skipped, which
    leaves the draws unchanged."""
    built = []
    local_algebra = propcheck._local_algebra

    def collect(pres):
        alg = local_algebra(pres)
        if alg is not None:
            built.append(alg)
        return alg

    monkeypatch.setattr(propcheck, "_local_algebra", collect)
    monkeypatch.setattr(propcheck, "_search_trial", lambda *args: (0, 0, 0, []))
    propcheck.search_counterexamples(propcheck.SearchConfig(seed=7, trials=trials, p=p))
    assert len(built) == count
    for alg in built:
        _assert_reference_table(alg)


@pytest.mark.parametrize("field", [GF101, QQ], ids=str)
def test_a_row_with_several_nonzeros_matches_the_reference_table(field):
    """In k[x,y]/(x^2 - x*y, y^3), x sends both x and y to xy, so a row of
    X_x has two nonzeros, whose terms the table product must add."""
    alg = make_algebra(field, ["x", "y"], [{(2, 0): 1, (1, 1): -1}, {(0, 3): 1}])
    assert (np.count_nonzero(alg.actions[0].data, axis=1) > 1).any()
    _assert_reference_table(alg)


# ---------------------------------------------------------------------------
# planted faults


def _presentation(names, gens):
    ring = PolyRing(GF101, names)
    return QuotientPresentation(ring, [ring.poly({m: GF101.canon(c) for m, c in g.items()})
                                       for g in gens])


def _patch_action(monkeypatch, v, change):
    """Make the action of variable v pass through ``change`` (on a
    writable copy of its array) when an Algebra is built."""
    action = QuotientPresentation.poly_action_matrix

    def planted(self, f):
        out = action(self, f)
        if f == self.ring.variable(v):
            data = out.data.copy()
            change(data)
            out = Matrix.from_rows(out.field, data)
        return out

    monkeypatch.setattr(QuotientPresentation, "poly_action_matrix", planted)


@pytest.mark.parametrize("v", [0, 1], ids=["x", "y"])
def test_every_perturbed_entry_of_a_variable_action_is_refused(monkeypatch, v):
    """Actions that pass all three checks are the regular representation
    on the staircase basis, so changing any one entry must be refused."""
    pres = _presentation(["x", "y"], [{(1, 1): 1}, {(2, 0): 1, (0, 2): -1}])
    for r in range(pres.dim):
        for c in range(pres.dim):
            def bump(data, r=r, c=c):
                data[r, c] += 1

            with monkeypatch.context() as patch:
                _patch_action(patch, v, bump)
                with pytest.raises((ValueError, NonLocalError)):
                    Algebra(pres)
    Algebra(pres)


def test_non_commuting_variable_actions_are_refused(monkeypatch):
    """In k[x,y]/(x^2, y^2), let y kill x instead of sending it to xy: both
    actions still square to zero and M_xy = X_x M_y still maps 1 to xy,
    but X_y X_x != X_x X_y."""
    pres = _presentation(["x", "y"], [{(2, 0): 1}, {(0, 2): 1}])
    x, xy = pres.staircase.index((1, 0)), pres.staircase.index((1, 1))

    def kill_x(data):
        data[xy, x] = 0

    _patch_action(monkeypatch, 1, kill_x)
    with pytest.raises(ValueError, match="variable actions do not commute"):
        Algebra(pres)


def test_a_wrong_structure_constant_is_refused(monkeypatch):
    """Corrupt the first table product of the recurrence, the matrix of the
    first staircase monomial of degree 2: it no longer maps 1 to itself."""
    pres = _presentation(["x", "y"], [{(3, 0): 1}, {(0, 3): 1}])
    monomial_action = algebra_mod.Representation.monomial_action
    calls = []

    def planted(self, m):
        out = monomial_action(self, m)
        if sum(m) == 2 and not calls:
            data = out.data.copy()
            data[0, 0] = (data[0, 0] + 1) % GF101.p
            out = Matrix.from_rows(out.field, data)
            calls.append(m)
        return out

    monkeypatch.setattr(Algebra, "monomial_action", planted)
    with pytest.raises(ValueError, match="does not map 1 to itself"):
        Algebra(pres)
    assert calls


def test_non_local_is_refused_before_any_other_check(monkeypatch):
    """k[x,y]/(x^2 - x, y^2) is not local.  Sending y to y + xy keeps y
    nilpotent but breaks commutation; the build still raises
    NonLocalError, not ValueError."""
    pres = _presentation(["x", "y"], [{(2, 0): 1, (1, 0): -1}, {(0, 2): 1}])
    with pytest.raises(NonLocalError, match="variable x is not nilpotent"):
        Algebra(pres)
    xy = pres.staircase.index((1, 1))

    def bump(data):
        data[xy, 0] += 1

    _patch_action(monkeypatch, 1, bump)
    with pytest.raises(NonLocalError, match="variable x is not nilpotent"):
        Algebra(pres)


# ---------------------------------------------------------------------------
# time at the size cap


@pytest.mark.parametrize(
    "names, gens",
    [(["x"], [{(256,): 1}]), (["x", "y"], [{(16, 0): 1}, {(0, 16): 1}])],
    ids=["x^256", "x^16,y^16"],
)
def test_a_ring_at_the_size_cap_builds_in_time(names, gens):
    t0 = time.monotonic()
    alg = make_algebra(GF101, names, gens)
    assert time.monotonic() - t0 < 2
    assert [(m.rows, m.cols) for m in alg.mult_stack] == [(256, 256)] * 256


def test_qq_hypersurface_with_a_long_exponent_checks_in_time(tmp_path, capsys):
    """The corpus QQ script with x^2 made x^22: both checks fail, fast."""
    text = (CORPUS / "qq_hypersurface.ezd").read_text()
    script = tmp_path / "qq22.ezd"
    script.write_text(text.replace("QQ[x] / (x^2)", "QQ[x] / (x^22)"))
    t0 = time.monotonic()
    code = main(["check", str(script)])
    assert time.monotonic() - t0 < 2
    assert code == 1
    assert "dim = 22, expected 2" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# equality


def test_an_algebra_equals_itself_without_comparing_presentations(monkeypatch):
    """Hom, tensor, direct sums, the isomorphism test and Ext check that
    their modules share an algebra; when both sides are one object the
    check never compares rings and Groebner lists, and an equal twin still
    does."""
    spec = (["x", "y"], [{(1, 1): 1}, {(2, 0): 1, (0, 2): -1}])
    alg, twin = make_algebra(GF101, *spec), make_algebra(GF101, *spec)
    compared = []
    real_eq = QuotientPresentation.__eq__

    def counting_eq(self, other):
        compared.append((self, other))
        return real_eq(self, other)

    monkeypatch.setattr(QuotientPresentation, "__eq__", counting_eq)
    m = regular_module(alg)
    assert alg == alg and not alg != alg
    hom_module(m, m), tensor_module(m, m), direct_sum(m, m)
    is_isomorphic(m, m)
    ext(m, m, 2)
    assert compared == []
    assert alg == twin and len(compared) == 1
