"""Span tracer that wraps ezdlab's public entry points from outside the package.

Each traced function is replaced, in every ``ezdlab`` module namespace that
bound it (``from .x import f`` makes a second binding), by a wrapper that
records one span: name, start, end and parent span.  Methods and
constructors are wrapped on their class.  Spans live in flat arrays in memory
and are written out once, when the run ends.

ezdlab is single-threaded and has no queues, so no layer ever waits on
another: the tracer records busy (self) time and counts, never waiting time.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

import numpy as np

# Layer (ezdlab module) -> traced callables.  ``Class`` means construction
# (``Class.__init__``); ``Class.method`` is a method.
TRACED = {
    "linalg": ["rref", "kernel_basis", "solve_matrix", "image_basis", "inverse"],
    "poly": ["PolyRing.normal_form"],
    "groebner": ["groebner_basis"],
    "algebra": ["Algebra"],
    "module": [
        "hom_module", "tensor_module", "Module", "scale_quotient", "dual_k",
        "quotient_algebra", "is_isomorphic",
    ],
    "resolution": ["minimal_free_resolution", "ext", "tor", "syzygy_periodicity"],
    "classes": [
        "is_ezd_pair", "is_semidualizing", "in_G_C", "in_A_C", "in_B_C",
        "pc_pd", "ic_id", "build_proper_PC_resolution",
    ],
    "dsl": ["parse_script", "run_script"],
    # plus one span per PROP_VERIFIERS id, named propcheck.<id>
    "propcheck": ["search_counterexamples"],
    "cli": ["main"],
}


class Tracer:
    """Spans and counts of one worker process."""

    def __init__(self):
        self.span_names: list = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.stack: list = []
        self.counts = {"linalg.Matrix.constructions": 0, "linalg.rref.cells": 0,
                       "linalg.kernel_basis.cells": 0, "module.hom_module.unknowns": 0}
        self.quotient_inputs: set = set()
        self.quotient_repeats = 0
        self.counter_s = 0.0  # time spent computing the input-size counts

    # -- wrapping -------------------------------------------------------
    def _wrap(self, name: str, fn, count=None):
        nid = len(self.span_names)
        self.span_names.append(name)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        raised, stack = self.raised, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                count(*args, **kwargs)  # computed outside the span
            i = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            raised.append(0)
            stack.append(i)
            start[i] = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised[i] = 1
                raise
            finally:
                end[i] = perf_counter()
                stack.pop()

        return traced

    def _counting(self, key: str, fn):
        """``fn`` with a call count and no span."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _timed(self, count):
        def timed(*args, **kwargs):
            t = perf_counter()
            count(*args, **kwargs)
            self.counter_s += perf_counter() - t

        return timed

    def _count_cells(self, key):
        counts = self.counts

        def count(m, *args, **kwargs):
            counts[key] += m.data.size

        return count

    def _count_unknowns(self, source, target, *args, **kwargs):
        self.counts["module.hom_module.unknowns"] += source.dim * target.dim

    def _count_quotient(self, algebra, x, *args, **kwargs):
        ring = algebra.ring
        key = (
            str(algebra.field), tuple(ring.names), ring.order.name,
            tuple(ring.format_poly(g) for g in algebra.presentation.ideal_generators),
            tuple(x.coords.data.ravel().tolist()),
        )
        if key in self.quotient_inputs:
            self.quotient_repeats += 1
        self.quotient_inputs.add(key)

    def install(self):
        """Patch the loaded ezdlab package in place; call once per process."""
        from ezdlab import linalg, propcheck

        modules = [m for n, m in sys.modules.items() if n.startswith("ezdlab.")]
        counters = {
            "linalg.rref": self._count_cells("linalg.rref.cells"),
            "linalg.kernel_basis": self._count_cells("linalg.kernel_basis.cells"),
            "module.hom_module": self._count_unknowns,
            "module.quotient_algebra": self._count_quotient,
        }
        for layer, fns in TRACED.items():
            home = sys.modules[f"ezdlab.{layer}"]
            for fn in fns:
                name = f"{layer}.{fn}"
                if "." in fn or fn[0].isupper():
                    cls_name, _, meth = fn.partition(".")
                    cls = getattr(home, cls_name)
                    meth = meth or "__init__"
                    setattr(cls, meth, self._wrap(name, getattr(cls, meth)))
                    continue
                orig = getattr(home, fn)
                count = counters.get(name)
                traced = self._wrap(name, orig, count and self._timed(count))
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, traced)
        for pid, fn in list(propcheck.PROP_VERIFIERS.items()):
            propcheck.PROP_VERIFIERS[pid] = self._wrap(f"propcheck.{pid}", fn)

        # counted only, never spanned: 10^5-10^6 constructions per run
        linalg.Matrix.__init__ = self._counting("linalg.Matrix.constructions",
                                                linalg.Matrix.__init__)

    # -- results --------------------------------------------------------
    def overhead_s(self, n: int = 100_000) -> float:
        """Estimated time the tracer added to this run: the cost of one span
        and of one counted construction, each measured here on a no-op
        called ``n`` times against the bare no-op, times how many there
        were, plus the measured time of the input-size counters."""
        def noop(*args):
            pass

        probe = Tracer()
        costs = []
        for wrapped in (probe._wrap("noop", noop),
                        probe._counting("linalg.Matrix.constructions", noop)):
            t = perf_counter()
            for _ in range(n):
                noop()
            bare = perf_counter() - t
            t = perf_counter()
            for _ in range(n):
                wrapped()
            costs.append(max(perf_counter() - t - bare, 0.0) / n)
        return (costs[0] * len(self.start)
                + costs[1] * self.counts["linalg.Matrix.constructions"]
                + self.counter_s)

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name_of, dtype=np.intc).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.intc).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "raised": np.frombuffer(self.raised, dtype=np.int8).copy(),
        }

    def dump(self, path):
        np.savez_compressed(path, names=np.array(self.span_names), **self.arrays())

    def summary(self) -> dict:
        """Per-span calls and self time, per-layer self time, computed counts
        and the estimated tracing overhead.

        Self time is a span's duration minus the part of it its child spans
        cover; children nest strictly inside their parent (one thread)."""
        a = self.arrays()
        n = len(self.span_names)
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_t = dur - child
        calls = np.bincount(a["name"], minlength=n)
        self_s = np.bincount(a["name"], weights=self_t, minlength=n)
        raised = np.bincount(a["name"], weights=a["raised"], minlength=n)
        out = {}
        layer_self: dict = {}
        for i, name in enumerate(self.span_names):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.self_s"] = float(self_s[i])
            layer = name.split(".")[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + float(self_s[i])
        for layer, total in layer_self.items():
            out[f"{layer}.self_s"] = total
        out.update(self.counts)
        q_calls = out["module.quotient_algebra.calls"]
        out["module.quotient_algebra.repeat_share"] = (
            self.quotient_repeats / q_calls if q_calls else 0.0
        )
        mfr = self.span_names.index("resolution.minimal_free_resolution")
        out["resolution.minimal_free_resolution.useful_ratio"] = (
            (calls[mfr] - raised[mfr]) / calls[mfr] if calls[mfr] else 1.0
        )
        out["spans"] = int(len(dur))
        out["trace.overhead_s"] = self.overhead_s()
        return out
