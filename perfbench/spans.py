"""In-memory span recording around the layers of `diagram_gram`.

The wrappers are installed from outside the package: every namespace of a
loaded `diagram_gram` module that holds the original function gets the
wrapper instead, so a name imported into several modules is traced at every
call site. A wrapper sits outside any `lru_cache`, so a cache hit shows up
as a short span. Functions the package looks up as module globals at call
time (`_zeta_inverse`, `_congruence`, `_bareiss_int`, `_interpolate`, ...)
therefore nest under their callers, and self times add up exactly to the
root span.

Span names are the per-layer metric names their self time is charged to.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter

COUNTER_SPAN = "trace.counters_s"


class Tracer:
    """Spans as `[name, parent index, start ns, end ns]`, plus named counters."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.checks: list[tuple[str, float]] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        record = [name, self._stack[-1] if self._stack else -1, self.clock(), 0]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record: list) -> None:
        record[3] = self.clock()
        self._stack.pop()

    def wrap(self, name: str, fn, on_result=None):
        """Span `name` around `fn`; `on_result(tracer, args, result, missed)`
        then updates counters inside its own `trace.counters_s` span, so the
        counting cost is not charged to any layer."""
        cache_info = getattr(fn, "cache_info", None)

        def traced(*args, **kwargs):
            misses = cache_info().misses if cache_info else 0
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            if on_result is not None:
                missed = cache_info is None or cache_info().misses > misses
                record = self._open(COUNTER_SPAN)
                try:
                    on_result(self, args, result, missed)
                finally:
                    self._close(record)
            return result

        return traced


def self_times(spans) -> dict[str, int]:
    """Self time per span name: duration minus the durations of direct children.

    Children never outlive their parent, so the self times of all spans sum
    to the duration of the root spans.
    """
    own = [end - start for _, _, start, end in spans]
    for _, parent, start, end in spans:
        if parent >= 0:
            own[parent] -= end - start
    out: dict[str, int] = {}
    for (name, *_), ns in zip(spans, own):
        out[name] = out.get(name, 0) + ns
    return out


def root_time(spans) -> int:
    return sum(end - start for _, parent, start, end in spans if parent < 0)


def replace_everywhere(original, replacement) -> None:
    """Rebind every attribute of a loaded `diagram_gram` module that is `original`."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or mod_name.split(".")[0] != "diagram_gram":
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


# -- counters ---------------------------------------------------------------


def _nonzero(matrix, is_zero) -> int:
    return sum(1 for row in matrix for entry in row if not is_zero(entry))


def _count_gram(tracer, args, gram, missed):
    if missed:
        n = gram.dimension()
        tracer.counters["gram.entries"] += n * n
        tracer.counters["gram.nnz"] += _nonzero(gram.entries, lambda p: p.is_zero())


def _count_poset(tracer, args, poset, missed):
    if missed:
        tracer.counters["reduction.poset_relations"] += (
            sum(map(sum, poset.leq)) - len(poset.keys)
        )


def _count_transform(tracer, args, transform, missed):
    tracer.counters["reduction.transform_nnz"] += _nonzero(transform, lambda c: c == 0)


def _count_reduced(tracer, args, reduced, missed):
    tracer.counters["reduction.reduced_nnz"] += _nonzero(reduced, lambda p: p.is_zero())


def _count_hard_diffs(tracer, args, decomposition, missed):
    tracer.counters["reduction.hard_diffs"] += len(decomposition.hard_diffs())


def _count_bareiss(tracer, args, det, missed):
    n = len(args[0])
    tracer.counters["determinant.bareiss_calls"] += 1
    tracer.counters["determinant.bareiss_ops"] += n**3


def _count_interpolate(tracer, args, poly, missed):
    tracer.counters["determinant.eval_points"] += len(args[0])


def _count_components(tracer, args, components, missed):
    tracer.counters["determinant.components"] += len(components)


def _count_profiles(tracer, args, profiles, missed):
    tracer.counters["semisimplicity.profiles"] += len(profiles)


def _count_records(tracer, args, result, missed):
    if missed:
        tracer.counters["semisimplicity.factor_records"] += len(result[1])


def _count_bruteforce(tracer, args, count, missed):
    tracer.counters["stirling.bruteforce_calls"] += 1


def _keep_checks(tracer, args, checks, missed):
    tracer.checks = [(check.name, check.seconds) for check in checks]


# (module, function, span name or None for a counter without a span, counter)
LAYERS = [
    ("gram", "enumerate_diagrams", "gram.enumerate_s", None),
    ("gram", "build_gram", "gram.build_s", _count_gram),
    ("reduction", "coarsening_poset", "reduction.poset_s", _count_poset),
    ("reduction", "_zeta_inverse", "reduction.zeta_inv_s", _count_transform),
    ("reduction", "_congruence", "reduction.congruence_s", _count_reduced),
    ("reduction", "predicted_blocks", "reduction.predict_s", None),
    ("reduction", "compare_blocks", "reduction.compare_s", None),
    ("reduction", "reduce_gram", "reduction.reduce_s", _count_hard_diffs),
    ("reduction", "reduced_decomposition", "reduction.reduce_s", None),
    ("determinant", "det_direct", "determinant.det_direct_s", None),
    ("determinant", "_bareiss_int", "determinant.bareiss_s", _count_bareiss),
    ("determinant", "_interpolate", "determinant.interpolate_s", _count_interpolate),
    ("determinant", "det_blocks", "determinant.det_blocks_s", None),
    ("determinant", "_components", None, _count_components),
    ("semisimplicity", "global_poly", "semisimplicity.global_poly_s", _count_records),
    ("semisimplicity", "verdict", "semisimplicity.verdict_s", None),
    ("semisimplicity", "admissible_profiles", None, _count_profiles),
    ("stirling", "count_coarser_bruteforce", "stirling.bruteforce_s", _count_bruteforce),
    ("golden", "match_published_gram", "golden.report_s", None),
    ("golden", "published_gram_report", "golden.report_s", None),
    ("golden", "published_reduced_report", "golden.report_s", None),
    ("verify", "run_all_checks", "verify.self_s", _keep_checks),
] + [
    ("verify", f"check_{name}", "verify.self_s", None)
    for name in (
        "gram_invariants",
        "block_closed_forms",
        "poset_duality",
        "oracle_equivalence",
        "stirling_recurrences",
        "phi_identities",
        "monomial_expansion",
        "zero_profile_blocks",
    )
]

CACHED = [
    ("gram", "enumerate_diagrams"),
    ("gram", "build_gram"),
    ("reduction", "coarsening_poset"),
    ("reduction", "reduced_decomposition"),
    ("semisimplicity", "global_poly"),
]


def _counter_only(tracer, fn, on_result):
    def counted(*args, **kwargs):
        result = fn(*args, **kwargs)
        on_result(tracer, args, result, True)
        return result

    return counted


def install(tracer: Tracer) -> dict:
    """Install every layer wrapper; returns the original cached functions."""
    cached = {
        fn: getattr(importlib.import_module(f"diagram_gram.{mod}"), fn) for mod, fn in CACHED
    }
    for mod, fn_name, span, on_result in LAYERS:
        module = importlib.import_module(f"diagram_gram.{mod}")
        original = getattr(module, fn_name)
        if span is None:
            wrapper = _counter_only(tracer, original, on_result)
        else:
            wrapper = tracer.wrap(span, original, on_result)
        replace_everywhere(original, wrapper)
    _count_multiply(tracer)
    return cached


def _count_multiply(tracer: Tracer) -> None:
    """Count every diagram product once; Z2Diagram delegates to PartitionDiagram."""
    from diagram_gram.diagrams import PartitionDiagram
    from diagram_gram.z2diagrams import Z2Diagram

    plain, doubled = PartitionDiagram.multiply, Z2Diagram.multiply
    z2_depth = 0

    def plain_multiply(self, other):
        if not z2_depth:
            tracer.counters["diagrams.multiply_calls"] += 1
        return plain(self, other)

    def doubled_multiply(self, other):
        nonlocal z2_depth
        tracer.counters["diagrams.multiply_calls"] += 1
        z2_depth += 1
        try:
            return doubled(self, other)
        finally:
            z2_depth -= 1

    PartitionDiagram.multiply = plain_multiply
    Z2Diagram.multiply = doubled_multiply
