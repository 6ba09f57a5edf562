"""Spans and counts around escount's public functions, recorded from outside.

`Tracer.install` replaces each listed function, in every loaded `escount*`
module that binds it (as a module attribute or as a value of a module-level
dict), by a wrapper that records a span: name, start, end, parent span and
case id. Spans stay in memory; `layer_metrics` reduces them to per-layer
self times and counts when the pass ends. Self time is a span's duration
minus the durations of its child spans.
"""
from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import Counter, defaultdict

# Functions timed as spans, by module. invert_automorphism and
# pullback_character run per element inside character_permutation and are
# left inside its span, not traced on their own.
SPANNED = {
    "escount.abelian": ("enumerate_automorphisms", "element_permutation", "character_permutation"),
    "escount.numtheory": ("cycle_types",),
    "escount.burnside": ("fixed_point_report", "orbit_count_congruence"),
    "escount.closed_form": ("n_cyclic", "enumerate_invertible_matrices", "n_elementary_abelian"),
    "escount.verify": ("cross_check", "check_reference_values"),
    "escount.cli": ("main",),
}
# Functions only counted: they run tens of thousands of times per case, and
# their time belongs to the caller's self time.
COUNTED = {"escount.abelian": ("rank_mod_p",)}

TIMED_METRICS = (
    "abelian.enumerate_automorphisms",
    "abelian.element_permutation",
    "abelian.character_permutation",
    "numtheory.cycle_types",
    "burnside.fixed_point_report",
    "burnside.orbit_count_congruence",
    "closed_form.n_cyclic",
    "closed_form.enumerate_invertible_matrices",
    "closed_form.n_elementary_abelian",
    "verify.cross_check",
    "verify.check_reference_values",
)


def partition_count(n: int) -> int:
    """p(n), the number of cycle types of S_n."""
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


class Tracer:
    """In-memory spans and counters for one benchmark pass."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, case id]
        self.case: int | None = None
        self._stack: list[int] = []
        self._child_time: list[float] = []
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.refusals: Counter = Counter()
        self.aut_orders: dict = {}

    # -- wrapping ---------------------------------------------------------

    def _span(self, name: str, fn, after=None, materialize: bool = False):
        spans, stack, child_time = self.spans, self._stack, self._child_time
        self_time = self.self_time
        cache_info = getattr(fn, "cache_info", None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else None, self.case]
            stack.append(len(spans))
            spans.append(record)
            child_time.append(0.0)
            misses = cache_info().misses if cache_info else 0
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if materialize:
                    result = list(result)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                self_time[name] += duration - child_time.pop()
                if child_time:
                    child_time[-1] += duration
                record[1], record[2] = start, end
            if after:
                after(self, args, result, bool(cache_info) and cache_info().misses > misses)
            return iter(result) if materialize else result

        return wrapper

    def _counted(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap_budget(self):
        from escount.budget import Budget, BudgetExceededError

        original = Budget.check
        refusals = self.refusals

        @functools.wraps(original)
        def check(budget, limit_name, required):
            try:
                return original(budget, limit_name, required)
            except BudgetExceededError:
                refusals[limit_name] += 1
                raise

        Budget.check = check

    def install(self) -> None:
        """Wrap every listed function wherever an escount module binds it."""
        replacements = {}
        for module_name, names in SPANNED.items():
            short = module_name.split(".", 1)[1]
            for name in names:
                fn = getattr(sys.modules[module_name], name)
                replacements[id(fn)] = self._span(
                    f"{short}.{name}", fn, AFTER.get(name), materialize=name == "cycle_types"
                )
        for module_name, names in COUNTED.items():
            short = module_name.split(".", 1)[1]
            for name in names:
                fn = getattr(sys.modules[module_name], name)
                replacements[id(fn)] = self._counted(f"{short}.{name}", fn)
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] != "escount":
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in replacements:
                    setattr(module, attr, replacements[id(value)])
                elif type(value) is dict:
                    for key, item in list(value.items()):
                        if id(item) in replacements:
                            value[key] = replacements[id(item)]
        self._wrap_budget()

    # -- reduction --------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Additive per-layer figures of this pass; see `finish_layer_metrics`."""
        from dataclasses import fields

        import escount.abelian
        from escount.budget import Budget

        out = {f"{name}.s": self.self_time[name] for name in TIMED_METRICS}
        out["cli.main.self_s"] = self.self_time["cli.main"]
        out["abelian.rank_mod_p.calls"] = self.calls["abelian.rank_mod_p"]
        for key in (
            "abelian.enumerate_automorphisms.candidates",
            "abelian.aut_order",
            "abelian.character_permutation.builds",
            "numtheory.cycle_types.count",
            "burnside.naive_states",
            "burnside.naive_pairs",
            "burnside.congruence_terms",
            "closed_form.matrix_candidates",
            "closed_form.gl_found",
        ):
            out[key] = self.counts[key]
        hits = entries = 0
        for name, value in vars(escount.abelian).items():
            cached = value if hasattr(value, "cache_info") else getattr(value, "__wrapped__", None)
            if (not name.startswith("_") and hasattr(cached, "cache_info")
                    and cached.__module__ == "escount.abelian"):
                info = cached.cache_info()
                hits += info.hits
                entries += info.currsize
        out["abelian.cache_hits"] = hits
        out["abelian.cache_entries"] = entries
        for field in fields(Budget):
            out[f"budget.refusals.{field.name}"] = self.refusals[field.name]
        out["trace.spans"] = len(self.spans)
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as handle:
            for name, start, end, parent, case in self.spans:
                handle.write(json.dumps([name, start, end, parent, case]) + "\n")


def finish_layer_metrics(raw: dict) -> dict:
    """Turn summed additive figures into the reported per-layer metrics."""
    out = dict(raw)
    builds = out.pop("abelian.character_permutation.builds")
    gl_found = out.pop("closed_form.gl_found")
    candidates = out["abelian.enumerate_automorphisms.candidates"]
    matrices = out["closed_form.matrix_candidates"]
    out["abelian.aut_yield"] = out["abelian.aut_order"] / candidates if candidates else 0.0
    out["closed_form.gl_yield"] = gl_found / matrices if matrices else 0.0
    out["abelian.character_permutation.us_per_aut"] = (
        out["abelian.character_permutation.s"] / builds * 1e6 if builds else 0.0
    )
    return out


# -- per-function counts, taken after a successful call -------------------
# `computed` is true when an lru_cache'd function missed its cache.


def _after_automorphisms(tracer, args, result, computed):
    group = args[0]
    tracer.aut_orders[group] = len(result)
    if computed:
        mods = group.moduli
        tracer.counts["abelian.enumerate_automorphisms.candidates"] += math.prod(
            math.gcd(a, b) for a in mods for b in mods
        )
        tracer.counts["abelian.aut_order"] += len(result)


def _after_character_permutation(tracer, args, result, computed):
    if computed:
        tracer.counts["abelian.character_permutation.builds"] += 1


def _after_cycle_types(tracer, args, result, computed):
    tracer.counts["numtheory.cycle_types.count"] += len(result)


def _after_fixed_point_report(tracer, args, result, computed):
    group, n = args[0], args[1]
    tracer.counts["burnside.naive_states"] += group.order ** (2 * n)
    tracer.counts["burnside.naive_pairs"] += tracer.aut_orders.get(group, 0) * math.factorial(n)


def _after_congruence(tracer, args, result, computed):
    group, n = args[0], args[1]
    tracer.counts["burnside.congruence_terms"] += tracer.aut_orders.get(group, 0) * partition_count(n)


def _after_invertible_matrices(tracer, args, result, computed):
    p, s = args[0], args[1]
    tracer.counts["closed_form.matrix_candidates"] += p ** (s * s)
    tracer.counts["closed_form.gl_found"] += len(result)


AFTER = {
    "enumerate_automorphisms": _after_automorphisms,
    "character_permutation": _after_character_permutation,
    "cycle_types": _after_cycle_types,
    "fixed_point_report": _after_fixed_point_report,
    "orbit_count_congruence": _after_congruence,
    "enumerate_invertible_matrices": _after_invertible_matrices,
}
