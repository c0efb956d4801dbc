"""Per-layer metrics of the traced run, and the end-to-end metric list.

Each layer is a ``pretop`` module.  ``.calls``/``.ops`` and cache
counters are exact counts; ``.s`` is self time summed over the run
(duration minus the time of the wrapped calls inside it).  A layer a
workload never enters reports 0.  ``oracle.parallel_efficiency`` is 0
on workloads without a process pool.
"""

from __future__ import annotations

SUITES = (
    "continuity-5way",
    "compact-at-2way",
    "cover-compact-3way",
    "perfect-3way",
    "open-filter-adh",
    "tower-level-adh",
    "quasi-phc-4way",
    "hset-3way",
    "theta-quotient",
    "extension-order",
    "strict-extension-adh",
    "hausdorff-collapse",
    "interval-laws",
    "defset-boolean",
    "symbolic-dual-engine",
    "kappa-fragment",
)

_ANALYSIS = (
    "sym_adh",
    "sym_inh",
    "cl_theta",
    "sym_regularize",
    "ends",
    "end_converges",
    "sym_hausdorff",
    "sym_is_compact",
    "sym_compact_at",
)

PER_LAYER = (
    ["finite.adh.calls", "finite.adh.s", "finite.inh.calls", "finite.inh.s"]
    + ["finite.spaces_built", "finite.spaces_distinct"]
    + [f"finite.{f}.s" for f in ("is_topological", "is_cover_compact", "compact_at", "enumerate_pretops")]
    + [f"maps.{f}.{k}" for f in ("is_continuous", "is_perfect", "image_mask", "preimage_mask") for k in ("calls", "s")]
    + [
        f"regularize.{f}.s"
        for f in ("partial_regularization", "tower_lemmas_check", "is_quasi_phc", "hset_check")
    ]
    + [f"construct.{f}.s" for f in ("theta_quotient", "strict_extension", "simple_extension", "end_extension")]
    + ["intervals.ops", "intervals.s", "defsets.ops", "defsets.s"]
    + ["model.parse_model.s", "model.eval_set.s", "model.print_model.s", "cli.import_s", "cli.run_command.s"]
    + [f"symbolic.space.{f}.s" for f in ("builtin", "build_symbolic", "truncate")]
    + [f"symbolic.analysis.{f}.s" for f in _ANALYSIS]
    + ["symbolic.maps.sym_is_continuous.s", "symbolic.maps.build_sym_map.s"]
    + [f"symbolic.solve.{f}.{k}" for f in ("solve_axis", "fit_defsets") for k in ("calls", "s")]
    + [
        f"symbolic.cache.{c}.{k}"
        for c in ("builtin", "sym_regularize", "ends", "end_converges")
        for k in ("hits", "misses")
    ]
    + ["oracle.plan_s"]
    + [f"oracle.{s}.s" for s in SUITES]
    + ["oracle.parallel_efficiency", "trace.overhead_ratio"]
)

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def unit(name: str) -> str:
    if name.endswith((".calls", ".ops", ".hits", ".misses")) or name.startswith("finite.spaces_"):
        return "count"
    if name in ("oracle.parallel_efficiency", "trace.overhead_ratio"):
        return "ratio"
    return "s"


def per_layer(counters: dict, self_s: dict, extra: dict) -> dict:
    """Every per-layer metric, from merged counters, self times and the
    values measured outside the tracer (``extra``)."""
    out = {}
    for name in PER_LAYER:
        if name in extra:
            value = extra[name]
        elif unit(name) == "count":
            value = counters.get(name, 0)
        else:
            value = self_s.get(name, 0.0)
        out[name] = {"value": value, "unit": unit(name)}
    return out


def merge(docs) -> tuple:
    """Sum counters and self times over several traced processes."""
    counters, self_s = {}, {}
    for d in docs:
        for k, v in d["counters"].items():
            counters[k] = counters.get(k, 0) + v
        for k, v in d["self_s"].items():
            self_s[k] = self_s.get(k, 0.0) + v
    return counters, self_s
