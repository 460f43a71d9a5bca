"""Spans recorded around the public calls between shiftprod's modules.

The recorder wraps the names that a calling module imported (for example
``shiftprod.harness.dot_product_set``), so the program itself is untouched.
Each call leaves one span ``[name, start_ns, end_ns, parent, counts]`` in
memory.  Work counts come from argument and result sizes, never from
clocks, so they repeat exactly on one seed.

A layer's self time is its spans' duration minus the part covered by child
spans.  Everything runs on one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

from shiftprod import explorer, ffharness, harness, progressions
from shiftprod.numeric import RATIONAL_DOMAIN
from shiftprod.setalg import PAIR_CAP


class Recorder:
    """Spans of one traced pass, kept in memory."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, counts=None):
        """``fn`` recorded as span ``name``, which may be a function of the
        call's arguments.  ``counts(args, result)`` returns a dict of work
        counts; ``result`` is None when the call raised."""
        spans, stack, now = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name(*args) if callable(name) else name, 0, 0,
                    stack[-1] if stack else None, None]
            stack.append(len(spans))
            spans.append(span)
            result = None
            span[1] = now()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[2] = now()
                stack.pop()
                if counts is not None:
                    span[4] = counts(args, result)

        return wrapper

    def self_ns(self):
        """Self nanoseconds of every span, in recording order."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own


def _dot_name(E, F):
    kind = "rational" if E.domain in (None, RATIONAL_DOMAIN) else "field"
    return f"setalg.dot_product_set.{kind}"


def _pairs(args, result):
    pairs = len(args[0]) * len(args[1])
    if result is None:
        return {"refused": int(pairs > PAIR_CAP)}
    return {"pairs": pairs}


def _dot(args, result):
    counts = _pairs(args, result)
    if result is not None:
        counts["distinct"] = len(result)
    return counts


def _membership(args, result):
    return {"member": int(bool(result))}


def _points(args, result):
    return {"points": len(result[0]) + len(result[1])} if result else {}


def _exhaustive(args, result):
    return {"complete": int(result[3])} if result else {}


# (module, imported name, span name, counts).  Every binding through which
# one module calls into another, the harness stages that _run_core reaches
# through harness globals, and the two tiers of the cover search.
BOUNDARIES = [
    (progressions, "multiplicative_order", "numeric.multiplicative_order", None),
    (ffharness, "multiplicative_order", "numeric.multiplicative_order", None),
    (ffharness, "is_prime", "numeric.is_prime", None),
    (harness, "dot_product_set", _dot_name, _dot),
    (ffharness, "dot_product_set", _dot_name, _dot),
    (harness, "productset", "setalg.productset", _pairs),
    (explorer, "productset", "setalg.productset", _pairs),
    (progressions, "productset", "setalg.productset", _pairs),
    (harness, "ggp_membership", "progressions.ggp_membership", _membership),
    (harness, "enumerate_ggp", "progressions.enumerate_ggp", None),
    (ffharness, "enumerate_ggp", "progressions.enumerate_ggp", None),
    (harness, "square_part", "harness.square_part", None),
    (harness, "exceptional_set", "harness.exceptional_set", None),
    (harness, "build_point_sets", "harness.build_point_sets", _points),
    (harness, "run_main_pipeline", "harness.run_main_pipeline", None),
    (ffharness, "run_field_pipeline", "ffharness.run_field_pipeline", None),
    (ffharness, "coverage_check", "ffharness.coverage_check", _pairs),
    (ffharness, "subgroup_ggp", "ffharness.subgroup_ggp", None),
    (explorer, "conjecture_scan", "explorer.conjecture_scan", None),
    (explorer, "search_bc", "explorer.search_bc", None),
    (explorer, "_search_exhaustive", "explorer.search_bc.small_universe", _exhaustive),
    (explorer, "_search_heuristic", "explorer.search_bc.large_universe", None),
]


@contextmanager
def traced(recorder):
    """Install the boundary wrappers for the duration of the block."""
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in BOUNDARIES]
    try:
        for mod, attr, name, counts in BOUNDARIES:
            setattr(mod, attr, recorder.wrap(name, getattr(mod, attr), counts))
        yield recorder
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)


def layer_counts(recorder):
    """Work counts of one traced pass; they must repeat exactly."""
    spans = recorder.spans
    calls, sums = {}, {}
    for name, _, _, parent, counts in spans:
        calls[name] = calls.get(name, 0) + 1
        for key, v in (counts or {}).items():
            sums[name, key] = sums.get((name, key), 0) + v
        if parent is not None and name == "progressions.ggp_membership":
            key = spans[parent][0], "probes"
            sums[key] = sums.get(key, 0) + 1
    return calls, sums


def layer_seconds(recorder):
    """Self seconds per span name of one traced pass."""
    secs = {}
    for span, ns in zip(recorder.spans, recorder.self_ns()):
        secs[span[0]] = secs.get(span[0], 0) + ns / 1e9
    return secs


def layer_metrics(calls, sums, secs):
    """The per-layer metrics named in BENCHMARK.json."""
    def s(name):
        return secs.get(name, 0.0)

    def n(name, key=None):
        return calls.get(name, 0) if key is None else sums.get((name, key), 0)

    def ratio(a, b):
        return a / b if b else 0.0

    rat, fld = "setalg.dot_product_set.rational", "setalg.dot_product_set.field"
    member, order = "progressions.ggp_membership", "numeric.multiplicative_order"
    small = "explorer.search_bc.small_universe"
    return {
        f"{order}.calls": n(order),
        f"{order}.s": s(order),
        "numeric.is_prime.calls": n("numeric.is_prime"),
        "numeric.is_prime.s": s("numeric.is_prime"),
        f"{rat}.s": s(rat),
        f"{rat}.pairs": n(rat, "pairs"),
        f"{rat}.ns_per_pair": ratio(s(rat) * 1e9, n(rat, "pairs")),
        f"{fld}.s": s(fld),
        f"{fld}.pairs": n(fld, "pairs"),
        f"{fld}.distinct_per_pair": ratio(n(fld, "distinct"), n(fld, "pairs")),
        "setalg.productset.s": s("setalg.productset"),
        "setalg.productset.pairs": n("setalg.productset", "pairs"),
        "setalg.pair_cap.refused": sum(v for (_, key), v in sums.items()
                                       if key == "refused"),
        f"{member}.s": s(member),
        f"{member}.probes": n(member),
        f"{member}.member_ratio": ratio(n(member, "member"), n(member)),
        "progressions.enumerate_ggp.calls": n("progressions.enumerate_ggp"),
        "progressions.enumerate_ggp.s": s("progressions.enumerate_ggp"),
        "harness.square_part.s": s("harness.square_part"),
        "harness.square_part.probes": n("harness.square_part", "probes"),
        "harness.exceptional_set.s": s("harness.exceptional_set"),
        "harness.exceptional_set.probes": n("harness.exceptional_set", "probes"),
        "harness.build_point_sets.s": s("harness.build_point_sets"),
        "harness.build_point_sets.points": n("harness.build_point_sets", "points"),
        "harness.run_main_pipeline.self_s": s("harness.run_main_pipeline"),
        "ffharness.run_field_pipeline.self_s": s("ffharness.run_field_pipeline"),
        "ffharness.coverage_check.s": s("ffharness.coverage_check"),
        "ffharness.coverage_check.pairs": n("ffharness.coverage_check", "pairs"),
        "ffharness.subgroup_ggp.s": s("ffharness.subgroup_ggp"),
        "explorer.search_bc.self_s": s("explorer.search_bc"),
        f"{small}.s": s(small),
        "explorer.search_bc.large_universe.s": s("explorer.search_bc.large_universe"),
        "explorer.search_bc.complete_ratio": ratio(n(small, "complete"), n(small)),
        "explorer.conjecture_scan.self_s": s("explorer.conjecture_scan"),
    }
