"""Call tracing installed from outside the program.

``install()`` wraps the public functions and methods of each ``pretop``
layer.  A wrapped name is replaced in every ``pretop`` module that holds
it, because modules import functions by name (``pretop.cli`` holds its
own reference to ``sym_hausdorff``).  Methods are replaced on their
class.  Nothing under ``src/`` changes.

Every wrapped call pushes a frame.  On return its duration is charged
to its name, and its self time is the duration minus the time covered
by the wrapped calls made inside it (its child spans).  Counts and
times are exact per name.  Spans (name, start, end, parent) are kept in
memory for the calls worth reading one by one; the hot operators
(``FinitePretop.adh``, interval algebra, ...) and everything inside one
oracle instance run millions of times, so they are only aggregated.
The tracer writes nothing until ``dump()``.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
from time import perf_counter

# (metric name, module, attribute path).  The metric name is the layer
# prefix used in the report.
FUNCTIONS = (
    ("finite.adh", "pretop.finite", "FinitePretop.adh"),
    ("finite.inh", "pretop.finite", "FinitePretop.inh"),
    ("finite.is_topological", "pretop.finite", "is_topological"),
    ("finite.is_cover_compact", "pretop.finite", "is_cover_compact"),
    ("finite.compact_at", "pretop.finite", "compact_at"),
    ("finite.enumerate_pretops", "pretop.finite", "enumerate_pretops"),
    ("maps.is_continuous", "pretop.maps", "is_continuous"),
    ("maps.is_perfect", "pretop.maps", "is_perfect"),
    ("maps.image_mask", "pretop.maps", "SpaceMap.image_mask"),
    ("maps.preimage_mask", "pretop.maps", "SpaceMap.preimage_mask"),
    ("regularize.partial_regularization", "pretop.regularize", "partial_regularization"),
    ("regularize.tower_lemmas_check", "pretop.regularize", "tower_lemmas_check"),
    ("regularize.is_quasi_phc", "pretop.regularize", "is_quasi_phc"),
    ("regularize.hset_check", "pretop.regularize", "hset_check"),
    ("construct.theta_quotient", "pretop.construct", "theta_quotient"),
    ("construct.strict_extension", "pretop.construct", "strict_extension"),
    ("construct.simple_extension", "pretop.construct", "simple_extension"),
    ("construct.end_extension", "pretop.construct", "end_extension"),
    ("model.parse_model", "pretop.model", "parse_model"),
    ("model.eval_set", "pretop.model", "eval_set"),
    ("model.print_model", "pretop.model", "print_model"),
    ("cli.run_command", "pretop.cli", "run_command"),
    ("symbolic.space.builtin", "pretop.symbolic.space", "builtin"),
    ("symbolic.space.build_symbolic", "pretop.symbolic.space", "build_symbolic"),
    ("symbolic.space.truncate", "pretop.symbolic.space", "truncate"),
    ("symbolic.analysis.sym_adh", "pretop.symbolic.analysis", "sym_adh"),
    ("symbolic.analysis.sym_inh", "pretop.symbolic.analysis", "sym_inh"),
    ("symbolic.analysis.cl_theta", "pretop.symbolic.analysis", "cl_theta"),
    ("symbolic.analysis.sym_regularize", "pretop.symbolic.analysis", "sym_regularize"),
    ("symbolic.analysis.ends", "pretop.symbolic.analysis", "ends"),
    ("symbolic.analysis.end_converges", "pretop.symbolic.analysis", "end_converges"),
    ("symbolic.analysis.sym_hausdorff", "pretop.symbolic.analysis", "sym_hausdorff"),
    ("symbolic.analysis.sym_is_compact", "pretop.symbolic.analysis", "sym_is_compact"),
    ("symbolic.analysis.sym_compact_at", "pretop.symbolic.analysis", "sym_compact_at"),
    ("symbolic.maps.sym_is_continuous", "pretop.symbolic.maps", "sym_is_continuous"),
    ("symbolic.maps.build_sym_map", "pretop.symbolic.maps", "build_sym_map"),
    ("symbolic.solve.solve_axis", "pretop.symbolic.solve", "solve_axis"),
    ("symbolic.solve.fit_defsets", "pretop.symbolic.solve", "fit_defsets"),
)

# Set operators: each call counts as one op of its layer.
OPERATORS = {
    "intervals": ("pretop.intervals", "IntervalSet"),
    "defsets": ("pretop.defsets", "DefSet"),
}
OPERATOR_METHODS = ("__or__", "__and__", "__invert__", "__sub__", "meets", "subset_of")

# lru_cache'd functions whose counters the report reads.
CACHES = {
    "builtin": ("pretop.symbolic.space", "builtin"),
    "sym_regularize": ("pretop.symbolic.analysis", "sym_regularize"),
    "ends": ("pretop.symbolic.analysis", "ends"),
    "end_converges": ("pretop.symbolic.analysis", "end_converges"),
}

# Aggregated only: called too often to keep a span per call.
HOT = frozenset(
    ["finite.adh", "finite.inh", "maps.image_mask", "maps.preimage_mask"]
    + [f"{layer}.{m}" for layer in OPERATORS for m in OPERATOR_METHODS]
)


class Tracer:
    """Per-name call counts, total and self time, plus retained spans."""

    def __init__(self):
        self.stats = {}  # name -> [calls, total seconds, self seconds]
        self.spans = []  # [name, start, end, parent span index or -1]
        self.stack = []  # frames, see _enter
        self.spaces_built = 0
        self.space_shapes = set()
        self.caches = {}
        self.enabled = True
        self.origin = perf_counter()

    def _enter(self, name: str, span: bool, keep_below: bool) -> list:
        """Push a frame: [child seconds, span index, keep spans below, own span]."""
        parent = self.stack[-1] if self.stack else None
        idx = parent[1] if parent else -1
        keep = parent[2] if parent else True
        own = span and keep and name not in HOT
        if own:
            self.spans.append([name, 0.0, 0.0, idx])
            idx = len(self.spans) - 1
        frame = [0.0, idx, keep and keep_below, own]
        self.stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list, start: float, end: float):
        self.stack.pop()
        dur = end - start
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += dur
        st[2] += dur - frame[0]
        if self.stack:
            self.stack[-1][0] += dur
        if frame[3]:
            span = self.spans[frame[1]]
            span[1] = start - self.origin
            span[2] = end - self.origin

    def wrap(self, name: str, fn, span: bool = True, keep_below: bool = True):
        """Callable that records ``fn`` under ``name``.  A generator is timed
        per step, so its consumer's work is not charged to it, and keeps
        no spans."""
        tracer = self
        if inspect.isgeneratorfunction(inspect.unwrap(fn)):

            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while tracer.enabled:
                    frame = tracer._enter(name, False, keep_below)
                    t0 = perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit(name, frame, t0, perf_counter())
                    yield item
                yield from it

            return functools.wraps(fn)(gen_wrapper)

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frame = tracer._enter(name, span, keep_below)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(name, frame, t0, perf_counter())

        return functools.wraps(fn)(wrapper)

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every listed function and method, and count space builds."""
        import pretop.cli  # noqa: F401  (loads every layer)

        for key, (modname, attr) in CACHES.items():
            self.caches[key] = getattr(sys.modules[modname], attr)
        for name, modname, path in FUNCTIONS:
            self._patch(name, modname, path)
        for layer, (modname, cls) in OPERATORS.items():
            for m in OPERATOR_METHODS:
                self._patch(f"{layer}.{m}", modname, f"{cls}.{m}")
        self._count_spaces()
        # Pool workers inherit the wrappers through fork; only the parent
        # records, so the counts do not depend on how chunks are scheduled.
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self):
        self.enabled = False

    def _patch(self, name: str, modname: str, path: str):
        module = sys.modules[modname]
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, attr, self.wrap(name, cls.__dict__[attr]))
            return
        original = getattr(module, path)
        wrapped = self.wrap(name, original)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("pretop"):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)

    def _count_spaces(self):
        from pretop.finite import FinitePretop

        init = FinitePretop.__init__
        tracer = self

        def counting_init(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            if tracer.enabled:
                tracer.spaces_built += 1
                tracer.space_shapes.add(obj.vicinity)

        FinitePretop.__init__ = counting_init

    # -- results -----------------------------------------------------------

    def counters(self) -> dict:
        """Exact counts: calls per name, ops per layer, spaces, caches."""
        out = {}
        for name, (calls, _, _) in sorted(self.stats.items()):
            out[f"{name}.calls"] = calls
        for layer in OPERATORS:
            out[f"{layer}.ops"] = sum(
                self.stats.get(f"{layer}.{m}", (0,))[0] for m in OPERATOR_METHODS
            )
        out["finite.spaces_built"] = self.spaces_built
        out["finite.spaces_distinct"] = len(self.space_shapes)
        for key, fn in self.caches.items():
            info = fn.cache_info()
            out[f"symbolic.cache.{key}.hits"] = info.hits
            out[f"symbolic.cache.{key}.misses"] = info.misses
        return out

    def self_times(self) -> dict:
        out = {f"{name}.s": st[2] for name, st in sorted(self.stats.items())}
        for layer in OPERATORS:
            out[f"{layer}.s"] = sum(
                self.stats.get(f"{layer}.{m}", (0, 0.0, 0.0))[2] for m in OPERATOR_METHODS
            )
        return out

    def totals(self) -> dict:
        return {f"{name}.total_s": st[1] for name, st in sorted(self.stats.items())}

    def dump(self, path: str, extra: dict | None = None):
        """Write counters, times and spans once, as one JSON document."""
        doc = {
            "counters": self.counters(),
            "self_s": self.self_times(),
            "total_s": self.totals(),
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans
            ],
        }
        if extra:
            doc.update(extra)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
