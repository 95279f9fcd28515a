"""Outside-in tracing of the `nonassoc` layers for the traced benchmark run.

`Tracer.install` replaces each function listed in TARGETS with a wrapper:
on its class for methods, and in every `nonassoc` module namespace that
holds it (`from .x import y` copies the reference).  `uninstall` puts every
original back.  Every call bumps a counter.  A span (name, layer, start,
end, parent) is recorded when a call crosses from one layer into another,
and at the outermost call of each function in TIMED.  A generator called
across layers gets one span whose length is the time spent inside its
resumptions.  Spans stay in memory; `summary` turns them into per-layer
numbers once the job has ended.

`scalars` and `words` get no wrappers: their helpers run millions of times
per job or take under a millisecond, so their time is self time of the
calling layer.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict

# layer -> functions ("name") and methods ("Class.name") wrapped in that layer
TARGETS: dict[str, list[str]] = {
    "cli": ["main", "cmd_verify_identity", "cmd_brackets", "cmd_bernoulli", "cmd_explog",
            "cmd_raltify", "cmd_multioperator"],
    "catalog": ["builtin_algebra", "builtin_loop", "loop_from_algebra", "loop_from_spec",
                "nonlinear_loop_F", "x_squared_y_loop", "phi_G_to_F", "check_homomorphism"],
    "trees": ["parse_tree", "enumerate_trees", "bernoulli_number", "tree_stats",
              "bernoulli_tree_sum", "weighted_tree_sum", "bernoulli_weights"],
    "symalg": ["monomials", "monomials_up_to", "submonomials", "monomial_splits",
               "merge_slots", "split_slot", "iterated_coproduct",
               "SymElement.coproduct", "SymElement.coproduct_terms", "SymElement.truncate",
               "SymElement.graded_piece", "SymElement.to_json", "SymTensor.truncate"],
    "freealg": ["fa_divide", "fa_associator", "fa_commutator", "p_operation", "su_bracket",
                "su_multioperator", "su_multioperator_component", "fa_exp", "fa_loop_divide",
                "fa_exp_inverse", "fa_log", "FreeAlgebra.mono_coproduct",
                "FreeAlgebra.mono_ldiv", "FreeAlgebra.mono_rdiv", "FAElement.coproduct",
                "FAElement.to_json", "FAElement.pretty"],
    "maps": ["tensor_monomials", "tuple_submonomials", "compose", "prolong", "loop_division",
             "eval_word", "check_loop_identity", "right_alt_modify", "similarity_between",
             "multioperator_ms", "FormalMap.on_elements", "FormalMap.prolongation",
             "FormalMap.to_json", "FormalMap.from_series", "FormalMap.slot_projection",
             "Prolongation.at", "Prolongation.table", "FormalLoop.from_map",
             "FormalLoop.division", "SimilarityMap.from_map", "MsMultioperator.component"],
    "dist": ["dist_su_ops", "su_bracket_table", "random_distribution",
             "check_linearized_identity", "brackets_invariance_check", "make_similar_product",
             "su_multioperator_tables", "pbw_span_check", "DistBialgebra.from_loop",
             "DistBialgebra.product_mono", "DistBialgebra.ldiv_mono", "DistBialgebra.rdiv_mono",
             "DistBialgebra.product", "DistBialgebra.divide", "DistSUOps.p",
             "DistSUOps.bracket_vector", "DistSUOps.multioperator_mono",
             "LinearizedEvaluator.on_elements", "_PsiBuilder.psi"],
    "su_ops": ["left_normed_product", "associator", "commutator", "p_operation", "bracket",
               "multioperator", "multioperator_component"],
    "connection": ["connection_from_loop", "adapted_field", "vf_bracket", "covariant_derivative",
                   "torsion", "ms_brackets", "FormalVectorField.table",
                   "FlatConnection.inverse_table"],
}

# qualified name -> metric holding its inclusive span time
TIMED = {
    "freealg.fa_log": "freealg.fa_log.s",
    "freealg.fa_exp": "freealg.fa_exp.s",
    "freealg.fa_loop_divide": "freealg.fa_loop_divide.s",
    "maps.compose": "maps.compose.s",
    "maps.loop_division": "maps.loop_division.s",
    "maps.right_alt_modify": "maps.right_alt_modify.s",
    "maps.multioperator_ms": "maps.multioperator_ms.s",
    "dist.check_linearized_identity": "dist.linearized.s",
    "dist.random_distribution": None,  # spans only, for dist.linearized.sample_s
    "dist.su_bracket_table": "dist.su_bracket_table.s",
    "dist._PsiBuilder.psi": "dist.psi.s",
    "dist.pbw_span_check": "dist.pbw.s",
    "connection.ms_brackets": "connection.ms_brackets.s",
}

# qualified name -> call counter in the summary
COUNTED = {
    "symalg.submonomials": "symalg.submonomials.calls",
    "maps.compose": "maps.compose.calls",
    "dist.DistBialgebra.product_mono": "dist.product_mono.calls",
    "dist.DistBialgebra.ldiv_mono": "dist.ldiv_mono.calls",
    "dist.DistBialgebra.rdiv_mono": "dist.rdiv_mono.calls",
    "su_ops.p_operation": "su_ops.p_operation.calls",
}

# classes whose instances are recorded at construction, to read memo sizes afterwards
RECORDED = {"dist": ["DistBialgebra", "LinearizedEvaluator"], "maps": ["Prolongation"]}

LOOP_BUILDERS = {"catalog.builtin_loop", "catalog.loop_from_algebra", "catalog.loop_from_spec",
                 "catalog.nonlinear_loop_F", "catalog.x_squared_y_loop"}

# every per-layer metric, with its unit
METRICS: dict[str, str] = {
    **{f"{layer}.self_s": "s" for layer in TARGETS},
    "catalog.loops_built": "count",
    "symalg.submonomials.calls": "count",
    "symalg.monomial_splits.hit_ratio": "ratio",
    "symalg.monomial_splits.entries": "count",
    "freealg.fa_log.s": "s",
    "freealg.fa_exp.s": "s",
    "freealg.fa_loop_divide.s": "s",
    "maps.compose.calls": "count",
    "maps.compose.s": "s",
    "maps.loop_division.s": "s",
    "maps.right_alt_modify.s": "s",
    "maps.multioperator_ms.s": "s",
    "maps.prolong_cache.entries": "count",
    "dist.product_mono.calls": "count",
    "dist.prod_memo.entries": "count",
    "dist.prod_memo.hit_ratio": "ratio",
    "dist.ldiv_memo.entries": "count",
    "dist.ldiv_memo.hit_ratio": "ratio",
    "dist.rdiv_memo.entries": "count",
    "dist.rdiv_memo.hit_ratio": "ratio",
    "dist.linearized.s": "s",
    "dist.linearized.sample_s": "s",
    "dist.linearized.memo_entries": "count",
    "dist.su_bracket_table.s": "s",
    "dist.psi.s": "s",
    "dist.pbw.s": "s",
    "su_ops.p_operation.calls": "count",
    "connection.ms_brackets.s": "s",
    "connection.field_cache.entries": "count",
    "trace.overhead_frac": "ratio",
}

_MARK = "__perfbench_wrapped__"


def _module(layer: str):
    return importlib.import_module(f"nonassoc.{layer}")


def _targets():
    """(layer, qualified name, owner, attribute) for every wrapped function."""
    for layer, names in TARGETS.items():
        module = _module(layer)
        for name in names:
            owner_name, _, attr = name.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            yield layer, f"{layer}.{name}", owner, attr


def _raw(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def _nonassoc_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "nonassoc" or name.startswith("nonassoc."))]


def assert_pristine() -> None:
    """Fail if any `nonassoc` module or class attribute is a tracer wrapper."""
    for module in _nonassoc_modules():
        for key, value in vars(module).items():
            attrs = [(key, value)]
            if isinstance(value, type):
                attrs += [(f"{key}.{k}", v) for k, v in vars(value).items()]
            for name, attr in attrs:
                if getattr(getattr(attr, "__func__", attr), _MARK, False):
                    raise AssertionError(f"{module.__name__}.{name} is a tracer wrapper")


class Tracer:
    """Wrappers, counters and spans for one job in one interpreter."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.spans: list = []
        self.instances: dict[str, list] = defaultdict(list)
        self.field_loops: dict[int, object] = {}
        self._stack: list[tuple[str, int]] = [("job", -1)]
        self._active: dict[str, int] = defaultdict(int)
        self._patched: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------------------
    def _wrap(self, fn, qualname: str, layer: str):
        calls, stack, spans, active = self.calls, self._stack, self.spans, self._active
        clock = time.perf_counter
        timed = qualname in TIMED
        field_loops = self.field_loops if qualname == "connection.ms_brackets" else None

        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                calls[qualname] += 1
                top, parent = stack[-1]
                if top == layer:
                    return fn(*args, **kwargs)
                return self._timed_generator(fn(*args, **kwargs), qualname, layer, parent)
        else:
            def wrapper(*args, **kwargs):
                calls[qualname] += 1
                if field_loops is not None:
                    field_loops[id(args[0])] = args[0]
                top, parent = stack[-1]
                outer = timed and not active[qualname]
                if top == layer and not outer:
                    return fn(*args, **kwargs)
                index = len(spans)
                spans.append(None)
                stack.append((layer, index))
                if timed:
                    active[qualname] += 1
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    if timed:
                        active[qualname] -= 1
                    spans[index] = (qualname, layer, start, end, parent, outer)

        setattr(wrapper, _MARK, True)
        return wrapper

    def _timed_generator(self, gen, qualname: str, layer: str, parent: int):
        """Iterate gen, timing only its own resumptions; one span with their total."""
        stack, spans, clock = self._stack, self.spans, time.perf_counter
        index = len(spans)
        spans.append(None)
        inside = 0.0
        try:
            while True:
                stack.append((layer, index))
                start = clock()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    inside += clock() - start
                    stack.pop()
                yield item
        finally:
            spans[index] = (qualname, layer, 0.0, inside, parent, False)

    def _recording_init(self, init, key: str):
        instances = self.instances[key]

        def wrapper(obj, *args, **kwargs):
            instances.append(obj)
            return init(obj, *args, **kwargs)

        setattr(wrapper, _MARK, True)
        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, _raw(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = _nonassoc_modules()
        for layer, qualname, owner, attr in _targets():
            raw = _raw(owner, attr)
            if isinstance(owner, type):
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(self._wrap(raw.__func__, qualname, layer))
                else:
                    wrapped = self._wrap(raw, qualname, layer)
                self._patch(owner, attr, wrapped)
                continue
            wrapped = self._wrap(raw, qualname, layer)
            for module in modules:  # every `from .x import y` copy of the reference
                for key, value in list(vars(module).items()):
                    if value is raw:
                        self._patch(module, key, wrapped)
        for layer, classes in RECORDED.items():
            for name in classes:
                cls = getattr(_module(layer), name)
                self._patch(cls, "__init__", self._recording_init(cls.__init__, name))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def run(self, fn, *args):
        """Call fn inside the job's root span."""
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.append(("job", "job", start, time.perf_counter(), -1, False))

    # -- summary ------------------------------------------------------------------------
    def summary(self) -> dict[str, float]:
        """Raw per-job totals; `derive` turns pooled totals into the reported metrics."""
        out: dict[str, float] = defaultdict(float)
        # index -> span; a generator that was never closed left None behind
        spans = {i: s for i, s in enumerate(self.spans) if s is not None}
        covered = defaultdict(float)  # span index -> time inside its child spans
        for name, layer, start, end, parent, outer in spans.values():
            covered[parent] += end - start
        for i, (name, layer, start, end, parent, outer) in spans.items():
            if layer != "job":
                out[f"{layer}.self_s"] += end - start - covered[i]
            if outer and TIMED.get(name):
                out[TIMED[name]] += end - start
            if name in LOOP_BUILDERS and spans.get(parent, ("job", "job"))[1] != "catalog":
                out["catalog.loops_built"] += 1
        # sampling phase: first random_distribution call to the check's return
        draws = sorted(s[2] for s in spans.values() if s[0] == "dist.random_distribution")
        for name, _, start, end, _, outer in spans.values():
            if name == "dist.check_linearized_identity" and outer:
                first = next((t for t in draws if start <= t <= end), None)
                if first is not None:
                    out["dist.linearized.sample_s"] += end - first
        for qualname, metric in COUNTED.items():
            out[metric] += self.calls[qualname]
        for b in self.instances["DistBialgebra"]:
            out["dist.prod_memo.entries"] += len(b._prod_memo)
            out["dist.ldiv_memo.entries"] += len(b._ldiv_memo)
            out["dist.rdiv_memo.entries"] += len(b._rdiv_memo)
        for ev in self.instances["LinearizedEvaluator"]:
            out["dist.linearized.memo_entries"] += len(ev._memo)
        for p in self.instances["Prolongation"]:
            out["maps.prolong_cache.entries"] += len(p._cache) + len(p._parts_cache)
        for loop in self.field_loops.values():
            out["connection.field_cache.entries"] += len(getattr(loop, "_ms_field_cache", {}))
        info = _module("symalg").monomial_splits.cache_info()
        out["symalg.monomial_splits.hits"] += info.hits
        out["symalg.monomial_splits.misses"] += info.misses
        out["symalg.monomial_splits.entries"] += info.currsize
        return dict(out)


def _ratio(hits: float, total: float) -> float:
    return hits / total if total else 0.0


def derive(totals: dict[str, float]) -> dict[str, float]:
    """Reported per-layer metrics from raw totals summed over a pass's jobs."""
    out = {name: float(totals.get(name, 0.0)) for name in METRICS}
    for memo, calls in (("prod", "product_mono"), ("ldiv", "ldiv_mono"), ("rdiv", "rdiv_mono")):
        n = totals.get(f"dist.{calls}.calls", 0.0)
        out[f"dist.{memo}_memo.hit_ratio"] = _ratio(n - totals.get(f"dist.{memo}_memo.entries", 0.0), n)
    hits = totals.get("symalg.monomial_splits.hits", 0.0)
    out["symalg.monomial_splits.hit_ratio"] = _ratio(
        hits, hits + totals.get("symalg.monomial_splits.misses", 0.0))
    return out
