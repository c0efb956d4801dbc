"""The two workloads.  Each returns a ``Result``: metrics, operation
counts, correctness, one row per query or suite, and notes.

A run repeats whole passes for as long as they fit in ``seconds``
(always at least one).  End-to-end numbers come from untraced passes;
the traced run (``trace=True``) reports the per-layer metrics instead.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import clients
import common
import generate
import layers
import queries

SETUP_REPEATS = 4  # per CPU, before and again after the timed passes
ORACLE_TIMEOUT_S = 170
POOL_WORKERS = 2  # nproc of the host the benchmark was tuned on
# Oracle laws that fail at the benchmark's plan today.  Their failures
# count in ``failed``; any other failing law makes the run incorrect.
KNOWN_ORACLE_DEFECTS = {
    "strict-extension-adh": "fails at size 4 (ROADMAP item 1)",
}


@dataclass
class Result:
    metrics: dict
    attempted: int
    failed: int
    correct: bool
    rows: list = field(default_factory=list)
    notes: list = field(default_factory=list)


# -- shared pieces -----------------------------------------------------------------


_SETUP_SCRIPT = (
    "import sys\n"
    "import pretop.cli\n"
    "from pretop.model import parse_model\n"
    "for path in sys.argv[1:]:\n"
    "    with open(path, encoding='utf-8') as fh:\n"
    "        parse_model(fh.read())\n"
)


def _setup_starts(files: list, times: dict) -> None:
    """SETUP_REPEATS fresh interpreters per CPU, taking turns on the
    CPUs (a child inherits its parent's affinity); appends (seconds,
    speed probe just before on that CPU) of each start to ``times[cpu]``."""
    argv = [sys.executable, "-c", _SETUP_SCRIPT, *files]
    env = common.child_env()
    cpus = sorted(times)
    try:
        for i in range(SETUP_REPEATS * len(cpus)):
            cpu = cpus[i % len(cpus)]
            os.sched_setaffinity(0, {cpu})
            probe = common.probe_s()
            t0 = time.perf_counter()
            subprocess.run(argv, cwd=common.ROOT, env=env, check=True, capture_output=True)
            times[cpu].append((time.perf_counter() - t0, probe))
    finally:
        os.sched_setaffinity(0, cpus)


def with_setup(files: list, measure):
    """(setup seconds, the same scaled, measure()): the time from a fresh
    interpreter to ready, that is ``import pretop.cli`` plus parsing and
    resolving the workload's model files, timed around the measurement.

    One untimed start first writes the bytecode caches.  Half the starts
    run before ``measure`` and half after it, because the host's speed
    drifts over seconds.  The CPUs of a shared host run at different
    speeds, so the result is the mean over CPUs of the median start on
    each.  Each start is scaled by the speed probe run just before it:
    the few seconds of starts are too short for the run's host factor."""
    argv = [sys.executable, "-c", _SETUP_SCRIPT, *files]
    subprocess.run(argv, cwd=common.ROOT, env=common.child_env(), check=True, capture_output=True)
    times = {cpu: [] for cpu in os.sched_getaffinity(0)}
    _setup_starts(files, times)
    out = measure()
    _setup_starts(files, times)
    raw = sum(common.median([t for t, _ in ts]) for ts in times.values()) / len(times)
    scaled = sum(
        common.median([t / common.host_factor([p]) for t, p in ts]) for ts in times.values()
    ) / len(times)
    return raw, scaled, out


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _scaled(setup: tuple, ops_per_s: float, p50_ms: float, p90_ms: float, peak_mb: float,
            probes: list, notes: list) -> dict:
    """The end-to-end metrics, times scaled to the nominal host speed
    (``setup`` is (unscaled, scaled) from ``with_setup``).

    The same code measured 1.3x slower ten minutes later on the shared
    host the benchmark was tuned on, and run-to-run spreads reached a
    quarter of the median.  Dividing by the run's median speed probe
    (``common.host_factor``) takes out the drift that the probe, which
    runs no program code, sees as well."""
    f = common.host_factor(probes)
    notes.append(
        f"host factor {f:.4f} over {len(probes)} probes; unscaled: setup_s {setup[0]:.6g},"
        f" ops_per_s {ops_per_s:.6g}, query_p50_ms {p50_ms:.6g}, query_p90_ms {p90_ms:.6g}"
    )
    return {
        "setup_s": _metric(setup[1], "s"),
        "ops_per_s": _metric(ops_per_s * f, "1/s"),
        "query_p50_ms": _metric(p50_ms / f, "ms"),
        "query_p90_ms": _metric(p90_ms / f, "ms"),
        "peak_rss_mb": _metric(peak_mb, "MB"),
    }


def _passes(seconds: float, one_pass):
    """Run ``one_pass`` as often as it fits in ``seconds``, at least once:
    another pass starts only if a pass as long as the longest so far
    still ends in time, so a run overshoots ``seconds`` only when its
    first pass does."""
    out = []
    longest = 0.0
    t0 = time.perf_counter()
    while not out or time.perf_counter() - t0 + longest <= seconds:
        start = time.perf_counter()
        out.append(one_pass())
        longest = max(longest, time.perf_counter() - start)
    return out


# -- oracle workloads ----------------------------------------------------------------


def oracle_call(seed: int, workers: int, trace_path: str | None = None) -> dict:
    argv = [
        sys.executable,
        os.path.join(common.HERE, "oracle_child.py"),
        "--seed",
        str(seed),
        "--workers",
        str(workers),
    ]
    if trace_path:
        argv += ["--trace", trace_path]
    done = subprocess.run(
        argv,
        cwd=common.ROOT,
        env=common.child_env(),
        capture_output=True,
        text=True,
        timeout=ORACLE_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(f"oracle child failed:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _oracle_verdict(call: dict) -> tuple:
    """(instances, failed instances, correct, notes) of one oracle call."""
    checked = sum(s["checked"] for s in call["suites"])
    failed = sum(s["failures"] for s in call["suites"])
    notes = []
    correct = True
    for s in call["suites"]:
        if s["failures"] and s["name"] not in KNOWN_ORACLE_DEFECTS:
            correct = False
            notes.append(f"suite {s['name']} fails {s['failures']} of {s['checked']} instances")
        elif s["failures"]:
            notes.append(
                f"known defect: {s['name']} {KNOWN_ORACLE_DEFECTS[s['name']]}:"
                f" {s['failures']} of {s['checked']} instances"
            )
    return checked, failed, correct, notes


def _suite_rows(call: dict, run: int) -> list:
    return [
        {
            "row": f"suite:{s['name']}",
            "run": run,
            "checked": s["checked"],
            "failures": s["failures"],
            "seconds": call["suite_s"][s["name"]],
        }
        for s in call["suites"]
    ]


def oracle(seed: int, seconds: float, trace: bool) -> Result:
    if trace:
        return _oracle_traced(seed)
    *setup, calls = with_setup([], lambda: _passes(seconds, lambda: oracle_call(seed, 1)))
    checked = failed = 0
    correct = True
    notes = []
    rows = []
    for run, call in enumerate(calls):
        c, f, ok, n = _oracle_verdict(call)
        checked += c
        failed += f
        correct &= ok
        notes += n if run == 0 else []
        rows += _suite_rows(call, run)
    digest = calls[0]["digest"]
    if any(c["digest"] != digest for c in calls):
        correct = False
        notes.append("oracle JSON differs between passes at the same seed")
    wall = sum(c["wall_s"] for c in calls)
    metrics = _scaled(
        setup,
        checked / wall,
        common.median([c["latency_ms"]["p50"] for c in calls]),
        common.median([c["latency_ms"]["p90"] for c in calls]),
        max(c["peak_rss_mb"] for c in calls),
        [p for c in calls for p in c["probes"]],
        notes,
    )
    notes.append(
        f"{len(calls)} pass(es), {checked} instances, {failed} failing,"
        f" {calls[0]['latency_ms']['samples']} latency samples per pass"
    )
    return Result(metrics, checked, failed, correct, rows, notes)


def _oracle_traced(seed: int) -> Result:
    """One untraced serial call, one untraced call on a 2-worker pool
    whose oracle JSON must match the serial one byte for byte, and two
    traced serial calls at once, one per CPU, whose counters must match."""
    notes = []
    ref = oracle_call(seed, 1)
    checked, failed, correct, n = _oracle_verdict(ref)
    notes += n
    pool = oracle_call(seed, POOL_WORKERS)
    c, f, ok, _ = _oracle_verdict(pool)
    checked += c
    failed += f
    correct &= ok
    if pool["digest"] != ref["digest"]:
        correct = False
        notes.append(f"oracle JSON with {POOL_WORKERS} workers differs from the serial one")
    else:
        notes.append(f"oracle JSON with {POOL_WORKERS} workers is byte-identical to the serial one")
    extra = {
        "oracle.plan_s": ref["plan_s"],
        "oracle.parallel_efficiency": ref["wall_s"] / (POOL_WORKERS * pool["wall_s"]),
    }
    for name in layers.SUITES:
        extra[f"oracle.{name}.s"] = ref["suite_s"].get(name, 0.0)
    trace_dir = common.out_dir("trace")
    paths = [os.path.join(trace_dir, f"oracle-s{seed}-{k}.json") for k in range(2)]
    with ThreadPoolExecutor(max_workers=2) as threads:
        traced = list(threads.map(lambda p: oracle_call(seed, 1, p), paths))
    os.remove(paths[1])
    if traced[0]["counters"] != traced[1]["counters"]:
        correct = False
        notes.append("layer counters differ between two traced runs at the same seed")
    else:
        notes.append(f"{len(traced[0]['counters'])} layer counters repeat exactly across two traced runs")
    if any(t["digest"] != ref["digest"] for t in traced):
        correct = False
        notes.append("traced oracle JSON differs from the untraced one")
    extra["trace.overhead_ratio"] = common.median([t["wall_s"] for t in traced]) / ref["wall_s"]
    metrics = layers.per_layer(traced[0]["counters"], traced[0]["self_s"], extra)
    notes.append(f"spans: {os.path.relpath(paths[0], common.ROOT)}")
    return Result(metrics, checked, failed, correct, _suite_rows(ref, 0), notes)


# -- CLI workloads ---------------------------------------------------------------------


def _allowed(o: clients.Outcome) -> bool:
    """A known defect may run out of time or memory, or stop at a size
    limit (exit 4)."""
    return o.query.known_defect is not None and (
        o.failure in ("timeout", "out of memory") or o.exit_code == 4
    )


def _judge_outcomes(outcomes: list, notes: list) -> tuple:
    failed = sum(1 for o in outcomes if o.failure)
    correct = True
    for o in outcomes:
        if o.failure and not _allowed(o):
            correct = False
            notes.append(f"query {o.query.qid} failed: {o.failure}")
        elif o.failure:
            notes.append(f"known defect: {o.query.qid} {o.failure}: {o.query.known_defect}")
    return failed, correct


def _query_rows(outcomes: list, run: int) -> list:
    return [
        {
            "row": f"query:{o.query.qid}",
            "run": run,
            "latency_ms": o.latency_s * 1000,
            "probe_ms": o.probe_s * 1000,
            "exit": o.exit_code,
            "failure": o.failure,
        }
        for o in outcomes
    ]


def cli_inputs(seed: int) -> tuple:
    """(model files, queries): corpus/*.pt and the built-in symbolic
    spaces with their queries, and the seeded large models with theirs,
    in one seeded order."""
    directory = os.path.relpath(common.out_dir("models", f"cli-s{seed}"), common.ROOT)
    files, large = generate.build(seed, directory)
    generate.write(files, common.ROOT)
    qs = queries.corpus_queries(seed) + large
    random.Random(f"cli:{seed}").shuffle(qs)
    return queries.corpus_files() + list(files), qs


def cli(seed: int, seconds: float, trace: bool) -> Result:
    files, qs = cli_inputs(seed)
    if trace:
        return _cli_traced(seed, qs)
    *setup, passes = with_setup(files, lambda: _passes(seconds, lambda: clients.run_pass(qs)))
    outcomes = [o for run, _ in passes for o in run]
    # A failed query's peak depends on where it stopped.
    peak = max(o.peak_rss_mb for o in outcomes if o.failure is None)
    notes = []
    failed, correct = _judge_outcomes(outcomes, notes)
    latencies = [o.latency_s * 1000 for o in outcomes]
    answered = sum(1 for o in outcomes if o.failure is None)
    # The probes run between queries; their time is not the program's.
    wall = sum(w for _, w in passes) - sum(o.probe_s for o in outcomes)
    metrics = _scaled(
        setup,
        answered / wall,
        common.percentile(latencies, 50),
        common.percentile(latencies, 90),
        peak,
        [o.probe_s for o in outcomes],
        notes,
    )
    rows = [r for run, (outs, _) in enumerate(passes) for r in _query_rows(outs, run)]
    notes.append(
        f"{len(passes)} pass(es) of {len(qs)} queries, {clients.CLIENTS} client,"
        f" per-query limit {clients.LIMIT_S:g} s"
    )
    return Result(metrics, len(outcomes), failed, correct, rows, notes)


def _cli_traced(seed: int, qs: list) -> Result:
    notes = []
    plain, plain_wall = clients.run_pass(qs, clients=clients.TRACED_CLIENTS)
    stats_dir = common.out_dir("trace", f"cli-s{seed}-queries")
    runs = [clients.run_pass(qs, stats_dir, clients.TRACED_CLIENTS) for _ in range(2)]
    os.rmdir(stats_dir)
    outcomes = plain + [o for outs, _ in runs for o in outs]
    failed, correct = _judge_outcomes(outcomes, notes)
    first, second = (outs for outs, _ in runs)
    differ = [
        a.query.qid
        for a, b in zip(first, second)
        if (a.stats and a.stats["counters"]) != (b.stats and b.stats["counters"])
    ]
    if differ:
        correct = False
        notes.append(f"layer counters differ between two traced runs for {', '.join(differ)}")
    else:
        notes.append("layer counters of every query repeat exactly across two traced runs")
    docs = [o.stats for o in first if o.stats]
    counters, self_s = layers.merge(docs)
    extra = {
        "cli.import_s": sum(d["import_s"] for d in docs),
        "trace.overhead_ratio": common.median([w for _, w in runs]) / plain_wall,
    }
    metrics = layers.per_layer(counters, self_s, extra)
    span_path = os.path.join(common.out_dir("trace"), f"cli-s{seed}.json")
    with open(span_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "workload": "cli",
                "seed": seed,
                "queries": [
                    {"query": o.query.qid, "argv": list(o.query.argv), "spans": o.stats["spans"]}
                    for o in first
                    if o.stats
                ],
            },
            fh,
        )
    notes.append(f"spans: {os.path.relpath(span_path, common.ROOT)}")
    return Result(metrics, len(outcomes), failed, correct, _query_rows(plain, 0), notes)


WORKLOADS = {
    "oracle-serial": oracle,
    "cli": cli,
}
