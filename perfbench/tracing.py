"""Per-layer tracing from outside the program.

The layers are padic_cells modules.  While a Tracer is installed, each
traced function is replaced by a wrapper that records a span (function,
parent span, start, end) in an in-memory array; the spans of a pass are
reduced once, at its end, to calls and self time per function.  Self time is
a span's duration minus the durations of its direct children, so the self
times of one request add up to its root span, cli.main.

Wrappers replace every binding of a function: its defining module, every
padic_cells module that imported it by name, and the class for methods.
padics.ord_p is only counted, with no span, to keep the overhead bounded.
"""

from __future__ import annotations

import contextlib
import statistics
import sys
import time
from array import array

LAYERS = {
    "oracle": ("verify_partition", "verify_laws"),
    "measure": ("exact_partition_check", "igusa_zeta", "measure_of_order"),
    "decompose": ("prepare", "decompose_set"),
    "hensel": ("certified_root_points", "make_root_approx", "refine_root",
               "ord_of_poly_at", "digits_of_poly_at"),
    "poly": ("Poly.taylor_shift", "Poly.divmod", "poly_gcd", "squarefree_part",
             "resultant_val"),
    "cells": ("refine_common", "intersect_cells", "contains"),
    "kgroup": ("chi", "cv_check"),
    "dim": ("dim_of",),
    "parser": ("parse_poly", "parse_formula"),
    "cli": ("main",),
}

# Work counts taken from a traced call's arguments and result.
TALLIES = {
    "oracle.verify_partition.classes": (
        "oracle.verify_partition", lambda args, kw, r: r.prime**r.depth),
    "oracle.verify_laws.samples": (
        "oracle.verify_laws",
        lambda args, kw, r: r.samples * sum(not c.is_point for c in args[0].cells)),
    "decompose.prepare.cells_emitted": (
        "decompose.prepare", lambda args, kw, r: len(r.cells)),
    "hensel.certified_root_points.hits": (
        "hensel.certified_root_points", lambda args, kw, r: 1 if r else 0),
    "cells.intersect_cells.nonempty": (
        "cells.intersect_cells", lambda args, kw, r: 1 if r else 0),
}

# Ratios of useful outcomes to calls: metric -> (tally, function).
RATIOS = {
    "hensel.certified_root_points.hit_ratio": (
        "hensel.certified_root_points.hits", "hensel.certified_root_points"),
    "cells.intersect_cells.nonempty_ratio": (
        "cells.intersect_cells.nonempty", "cells.intersect_cells"),
}

NAMES = [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]
CLOCK_RESOLUTION_NS = max(1, round(time.get_clock_info("perf_counter").resolution * 1e9))


class Tracer:
    """Spans and counts of one traced pass; start_pass() begins the next."""

    def __init__(self):
        self.start_pass()

    def start_pass(self) -> None:
        self.spans = array("q")  # (name index, parent offset, start ns, end ns)
        self.stack: list[int] = []
        self.tallies = dict.fromkeys(TALLIES, 0)
        self.ord_p_calls = 0

    def _span_wrapper(self, idx: int, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        tallies = [(key, f) for key, (owner, f) in TALLIES.items() if owner == NAMES[idx]]
        counts = self.tallies

        def traced(*args, **kwargs):
            pos = len(spans)
            spans.extend((idx, stack[-1] if stack else -1, 0, 0))
            stack.append(pos)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[pos + 2] = start
                spans[pos + 3] = end
            for key, tally in tallies:
                counts[key] += tally(args, kwargs, result)
            return result

        return traced

    def _count_wrapper(self, fn):
        def counted(*args, **kwargs):
            self.ord_p_calls += 1
            return fn(*args, **kwargs)

        return counted

    @contextlib.contextmanager
    def installed(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "padic_cells" or name.startswith("padic_cells.")]
        patches = []

        def rebind(original, wrapper):
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        patches.append((mod, attr, value))
                        setattr(mod, attr, wrapper)

        for idx, name in enumerate(NAMES):
            layer, fn = name.split(".", 1)
            mod = sys.modules[f"padic_cells.{layer}"]
            if "." in fn:
                cls_name, method = fn.split(".")
                owner = getattr(mod, cls_name)
                original = owner.__dict__[method]
                patches.append((owner, method, original))
                setattr(owner, method, self._span_wrapper(idx, original))
            else:
                original = getattr(mod, fn)
                rebind(original, self._span_wrapper(idx, original))
        ord_p = sys.modules["padic_cells.padics"].ord_p
        rebind(ord_p, self._count_wrapper(ord_p))
        try:
            yield
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    def end_pass(self, results) -> dict:
        """Reduce the pass's spans: calls, self time and tallies per function,
        and whether every request's self times add up to its root span."""
        spans = self.spans
        n = len(spans) // 4
        child_ns = [0] * n
        for i in range(n):
            parent = spans[4 * i + 1]
            if parent >= 0:
                child_ns[parent // 4] += spans[4 * i + 3] - spans[4 * i + 2]
        calls = dict.fromkeys(NAMES, 0)
        self_ns = dict.fromkeys(NAMES, 0)
        roots = []  # [root duration, sum of self times in its tree]
        for i in range(n):
            name = NAMES[spans[4 * i]]
            own = spans[4 * i + 3] - spans[4 * i + 2] - child_ns[i]
            calls[name] += 1
            self_ns[name] += own
            if spans[4 * i + 1] < 0:
                roots.append([spans[4 * i + 3] - spans[4 * i + 2], 0])
            roots[-1][1] += own
        self_sum_ok = len(roots) == len(results) and all(
            abs(total - dur) <= CLOCK_RESOLUTION_NS for dur, total in roots)
        return {
            "calls": calls,
            "self_s": {k: v / 1e9 for k, v in self_ns.items()},
            "tallies": dict(self.tallies),
            "ord_p_calls": self.ord_p_calls,
            "output_bytes": sum(len(r[2].encode()) for r in results),
            "self_sum_ok": self_sum_ok,
        }


def per_layer(passes: list[dict]) -> dict:
    """Per-layer metrics: medians over traced passes, as {name: (value, unit)}."""
    def med(get):
        return statistics.median(get(p) for p in passes)

    out = {}
    for name in NAMES:
        out[f"{name}.calls"] = (med(lambda p: p["calls"][name]), "count")
        out[f"{name}.self_s"] = (med(lambda p: p["self_s"][name]), "s")
    for key, (tally, fn) in RATIOS.items():
        calls = med(lambda p: p["calls"][fn])
        out[key] = (med(lambda p: p["tallies"][tally]) / calls if calls else 0.0, "ratio")
    ratio_bases = {tally for tally, _ in RATIOS.values()}
    for key in sorted(TALLIES.keys() - ratio_bases):
        out[key] = (med(lambda p: p["tallies"][key]), "count")
    out["cli.output_bytes"] = (med(lambda p: p["output_bytes"]), "bytes")
    out["padics.ord_p.calls"] = (med(lambda p: p["ord_p_calls"]), "count")
    return out
