"""Outside-in tracing of ncpoint layers for the benchmark's traced runs.

The program has no tracing code of its own.  `install` replaces each
function named in TARGETS with a wrapper that records one span per call:
``[name, start, end, parent, attr]``, where ``parent`` is the index of the
enclosing span in the same process (-1 at the top) and ``attr`` is an
optional count read from the call's arguments or result.  Spans stay in
memory; the child entry point hands them to the load generator when its
job ends, and `layer_metrics` turns one round of spans into per-layer
metrics, of which BENCHMARK.json names the ones a run reports.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter


def _dependent(args, result):
    return 1 if result is None else 0


def _fiber_dim(args, result):
    return result.proj_dim


def _special_count(args, result):
    return len(result[1])


def _cache_size(args, result):
    cache = args[0]
    ideal = sum(cache.ideal_dim(d) for d in range(cache.cap + 1))
    words = sum(cache.dim(d) for d in range(cache.cap + 1)) + ideal
    return [words, ideal]


def _count(args, result):
    return len(result)


# span name -> (module, qualified name, attribute reader); a span name may
# cover several functions.
TARGETS = (
    ("scalars.rational_roots", "scalars", "poly_rational_roots", None),
    ("scalars.poly_gcd", "scalars", "poly_gcd", None),
    ("scalars.make_ratfunc", "scalars", "make_ratfunc", None),
    ("linalg.insert", "linalg", "RowReducer.insert", _dependent),
    ("linalg.reduce", "linalg", "RowReducer.reduce", None),
    ("linalg.rref", "linalg", "rref", None),
    ("linalg.matmul", "linalg", "Matrix.mul", None),
    ("linalg.kernel_tracking", "linalg", "kernel_basis_tracking_pivots", _special_count),
    ("linalg.solve_affine", "linalg", "solve_affine", None),
    ("quotient.build", "quotient", "QuotientCache.__init__", _cache_size),
    ("quotient.normal_form", "quotient", "QuotientCache.normal_form", None),
    ("points.extension_fiber", "points", "extension_fiber", _fiber_dim),
    ("points.specialize", "points", "specialize_points", None),
    ("points.module_check", "points", "is_truncated_point_module", None),
    ("points.sample", "points", "sample_modules", _count),
    ("points.search", "points", "_torsionfree_dfs", None),
    ("points.search", "points", "_sample_dfs", None),
    ("colorlie.pbw", "colorlie", "pbw_normal_form", None),
    ("colorlie.koszul_build", "colorlie", "koszul_complex", None),
    ("colorlie.koszul_verify", "colorlie", "koszul_verify", None),
    ("colorlie.u_presentation", "colorlie", "u_presentation", None),
    ("colorlie.axioms", "colorlie", "check_color_axioms", None),
    ("normal.is_q_heisenberg", "normal", "is_q_heisenberg", None),
    ("normal.injective", "normal", "multiplication_injective", None),
    ("normal.find_witness", "normal", "find_witness", None),
    ("normal.nu", "normal", "nu_automorphism", None),
    ("veronese.twist_validate", "veronese", "TwistSystem.validate", None),
    ("veronese.qv_mul", "veronese", "qv_mul", None),
    ("veronese.bold_normal", "veronese", "verify_bold_normal", None),
    ("veronese.weyl", "veronese", "weyl_witness", None),
    ("freealg.mul", "freealg", "NCPoly.__mul__", None),
    ("freealg.parse", "freealg", "parse_algebra", None),
    ("freealg.parse", "freealg", "parse_poly", None),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, attr):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if attr is not None:
                span[4] = attr(args, result)
            return result

        return traced

    def install(self):
        """Wrap every target, in every ncpoint namespace that holds it.

        Functions are imported by name into other modules, and recursion
        goes through the module global, so each binding of the original is
        replaced.  A target that no longer exists raises, so a renamed
        layer shows up as a failed traced job rather than as a zero.
        """
        for name, module_name, qualname, attr in TARGETS:
            module = importlib.import_module(f"ncpoint.{module_name}")
            owner_name, _, fn_name = qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                setattr(owner, fn_name, self.wrap(name, owner.__dict__[fn_name], attr))
                continue
            original = getattr(module, fn_name)
            wrapped = self.wrap(name, original, attr)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "ncpoint" or mod_name.startswith("ncpoint."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)


def layer_metrics(job_spans):
    """Per-layer metrics of one traced round: calls and self seconds of
    every span name in TARGETS, and the metrics read from span attributes.

    `job_spans` holds one span list per job.  A span's self time is its
    duration minus the durations of its direct children, which nest
    inside it because every job runs on one thread.
    """
    calls, self_s = {}, {}
    attrs = {}
    sample_attempts = 0
    for spans in job_spans:
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent, attr) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[i]
            if attr is not None:
                attrs.setdefault(name, []).append(attr)
            if name == "points.search" and parent >= 0 and spans[parent][0] == "points.sample":
                sample_attempts += 1

    out = {}
    for name, *_ in TARGETS:  # a layer the job never called reads 0
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_s"] = self_s.get(name, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    inserts = attrs.get("linalg.insert", [])
    out["linalg.insert.dependent_ratio"] = ratio(sum(inserts), len(inserts))
    specials = attrs.get("linalg.kernel_tracking", [])
    out["linalg.kernel_tracking.specials_per_call"] = ratio(sum(specials), len(specials))
    builds = attrs.get("quotient.build", [])
    out["quotient.build.words"] = sum(words for words, _ in builds)
    out["quotient.build.ideal_rows"] = sum(ideal for _, ideal in builds)
    dims = attrs.get("points.extension_fiber", [])
    out["points.fiber_dim_empty"] = sum(1 for d in dims if d < 0)
    out["points.fiber_dim_0"] = dims.count(0)
    out["points.fiber_dim_1"] = dims.count(1)
    out["points.fiber_dim_2plus"] = sum(1 for d in dims if d >= 2)
    out["points.sample.yield_ratio"] = ratio(sum(attrs.get("points.sample", [])),
                                             sample_attempts)
    return out
