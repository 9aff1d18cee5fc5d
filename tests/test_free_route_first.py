"""The Ext/Tor route order and the resolution step, against independent
oracles.

- With no route given, a route whose module is free goes first: every
  table it returns has the dims of the other route run alone.
- A pass of the verifiers makes no resolution state for a module whose
  partner route's module is free.
- A resolution step that feeds its echelon only the nonzero radical images
  picks the same generators as the step that fed it every image, zero
  ones included (kept below as the reference).
"""

from ezdlab import resolution
from ezdlab.groebner import BudgetExceeded
from ezdlab.linalg import Matrix, _echelon_insert
from ezdlab.module import dual_k, regular_module, residue_field_module, scale_quotient
from ezdlab.propcheck import PROP_VERIFIERS, load_corpus, random_gated_instances
from ezdlab.resolution import ext, is_free, minimal_free_resolution, tor

from conftest import GF101, make_algebra

OTHER = {"projective": "injective", "injective": "projective", "left": "right", "right": "left"}
LIFTED = 10**9  # a budget no resolution here reaches


def test_free_first_tables_match_the_other_route(monkeypatch):
    """Every table the free-first order returns over the corpus and eight
    random gated instances has the dims, through its bound, of the other
    route run alone at the largest budget.  Where that route does not fit
    at the table's bound, the dims are compared through the largest bound
    it fits."""
    calls = []  # every default-route call, with the table it returned
    inner = resolution._escalate

    def recorded(name, m, n, bound, route, routes):
        table = inner(name, m, n, bound, route, routes)
        if route is None:
            calls.append((name, m, n, bound, table))
        return table

    monkeypatch.setattr(resolution, "_escalate", recorded)
    for inst in load_corpus() + random_gated_instances(seed=29, count=8):
        for verifier in PROP_VERIFIERS.values():
            verifier(inst)
    monkeypatch.undo()
    assert len(calls) > 100
    compared = full = certified = 0
    for name, m, n, bound, table in calls:
        fn = ext if name == "Ext" else tor
        other = OTHER[table.route]
        for b in range(bound, -1, -1):
            try:
                alone = fn(m, n, b, route=other)
            except BudgetExceeded:
                continue
            assert alone.dims == table.dims[: b + 1], (name, m.label, n.label, table)
            compared += 1
            full += b == bound
            break
        certified += table.certified_all_beyond
    assert compared == len(calls)
    assert full > len(calls) // 2
    assert certified > 0


def test_no_module_is_resolved_against_a_free_partner(monkeypatch):
    """In one pass of the 24 verifiers over the corpus, no resolution state
    is made for a non-free module when the other route's module is free:
    that route ends at step 0 and certifies every degree."""
    made, checked, wasted = [], [], []
    inner_init = resolution._ResolutionState.__init__
    inner_escalate = resolution._escalate

    def counted(self, module):
        made.append(module)
        inner_init(self, module)

    def watched(name, m, n, bound, route, routes):
        built = {}

        def capture(rt, make):
            def build():
                built[rt] = make()
                return built[rt]
            return build

        start = len(made)
        table = inner_escalate(name, m, n, bound, route, {
            rt: (capture(rt, make), other, transpose)
            for rt, (make, other, transpose) in routes.items()})
        for rt, module in built.items():
            if not any(s is module for s in made[start:]) or is_free(module):
                continue
            partner = OTHER[rt]
            partner_module = built.get(partner) or routes[partner][0]()
            checked.append((name, module.label))
            if is_free(partner_module):
                wasted.append((name, module.label, partner_module.label))
        return table

    monkeypatch.setattr(resolution._ResolutionState, "__init__", counted)
    monkeypatch.setattr(resolution, "_escalate", watched)
    for inst in load_corpus():
        for verifier in PROP_VERIFIERS.values():
            verifier(inst)
    assert checked
    assert wasted == []


def test_gorenstein_membership_is_certified_by_the_injective_route(hyper2):
    """Over the Gorenstein k[x]/(x^2), A is injective, so dual_k(A) is free:
    Ext(A/xA, A) is certified in every degree by the injective route,
    while the projective route alone stays bounded."""
    a = regular_module(hyper2)
    m = scale_quotient(a, hyper2.element_from_poly(hyper2.ring.monomial((1,))))[0]
    table = ext(m, a, 10)
    assert (table.route, table.certified_all_beyond) == ("injective", True)
    alone = ext(m, a, 10, route="projective")
    assert alone.dims == table.dims and not alone.certified_all_beyond


# ---------------------------------------------------------------------------
# the reference resolution step


def _reference_var_apply(var_cols, v, d, p):
    """One variable acting on a sparse column of a free module: a reduction
    pass, then a pass that drops zeros; an image may be empty."""
    out = {}
    for i, x in v.items():
        for k, y in var_cols[i % d].items():
            j = i - i % d + k
            out[j] = out.get(j, 0) + x * y
    if p is not None:
        out = {j: y % p for j, y in out.items()}
    return {j: y for j, y in out.items() if y}


def _reference_pick_independent(spanning, cols, p):
    echelon = {}
    for v in spanning:
        _echelon_insert(echelon, v, p)
    return [v for v in cols if _echelon_insert(echelon, dict(v), p)]


class _ReferenceState(resolution._ResolutionState):
    """A resolution whose steps hand every radical image, empty ones
    included, to the echelon."""

    def _step(self):
        d, p = self.algebra.dim, self.field.p
        prev_rank = self.betti[-1]
        kernel = self._kernel(self.length + 1)
        if not kernel:
            self.terminated = True
            return
        var_maps = [va.sparse_columns() for va in self.algebra.actions]
        rad = (_reference_var_apply(vm, v, d, p) for vm in var_maps for v in kernel)
        picks = _reference_pick_independent(rad, kernel, p)
        self.betti.append(len(picks))
        self.gens.append(Matrix.from_sparse_columns(self.field, prev_rank * d, picks))


def _assert_same_steps(module, bound):
    ref = _ReferenceState(module)
    ref.ensure(bound, LIFTED, "reference")
    state = minimal_free_resolution(module, bound, LIFTED)._state
    assert state.betti == ref.betti, module.label
    assert state._d0 == ref._d0, module.label
    assert state.gens == ref.gens, module.label
    return state.betti


def test_steps_match_the_reference_on_the_corpus():
    """k, omega and A/xA on every corpus ring, to bound 8."""
    for inst in load_corpus():
        a = regular_module(inst.algebra, label="A")
        for m in (residue_field_module(inst.algebra), dual_k(a), scale_quotient(a, inst.x)[0]):
            _assert_same_steps(m, 8)


def test_deep_steps_match_the_reference():
    """k over GF(101)[x,y,z]/(x^3,y^3,z^3,x*y*z) to bound 7, past the
    default budget."""
    alg = make_algebra(GF101, ["x", "y", "z"], [
        {(3, 0, 0): 1}, {(0, 3, 0): 1}, {(0, 0, 3): 1}, {(1, 1, 1): 1}])
    betti = _assert_same_steps(residue_field_module(alg), 7)
    assert betti == [1, 3, 7, 16, 37, 86, 200, 465]
