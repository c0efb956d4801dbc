"""One oracle call in a fresh interpreter, as the oracle workloads run it.

    python3 perfbench/oracle_child.py --seed S --workers W [--trace SPANS.json]

Runs ``run_suites("all", max_points=4, seed=S, workers=W)`` and prints
one JSON line: wall time, the summary digest and per-suite counts, the
latency of every instance, and peak memory.  Without ``--trace`` each
instance check is timed from outside through the public ``SUITES``
registry; pool workers send their latencies back through one file per
worker.  A serial run rotates over the CPUs chunk by chunk and runs the
speed probe every PROBE_EVERY chunks, leaving its time out of the wall
time.  With ``--trace`` the layer wrappers are installed instead, the
spans are written to the given file, and only the parent process is
recorded.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import struct
import sys
import time
from array import array

import common

MAX_POINTS = 4
PROBE_EVERY = 8  # chunks of a serial run per speed probe
_HEADER = struct.Struct("<HI")


class LatencySink:
    """Per-suite instance latencies, gathered from every process."""

    def __init__(self, names: list, spool: str):
        self.names = names
        self.index = {n: i for i, n in enumerate(names)}
        self.by_suite = {n: array("d") for n in names}
        self.pending = array("d")
        self.spool = spool
        self.parent = os.getpid()

    def timed(self, check):
        pending = self.pending

        def run(inst):
            t0 = time.perf_counter()
            out = check(inst)
            pending.append(time.perf_counter() - t0)
            return out

        return run

    def flush(self, name: str):
        if os.getpid() == self.parent:
            self.by_suite[name].extend(self.pending)
        else:
            path = os.path.join(self.spool, f"{os.getpid()}.lat")
            with open(path, "ab") as fh:
                fh.write(_HEADER.pack(self.index[name], len(self.pending)))
                self.pending.tofile(fh)
        del self.pending[:]

    def collect(self):
        for entry in sorted(os.listdir(self.spool)):
            path = os.path.join(self.spool, entry)
            with open(path, "rb") as fh:
                data = fh.read()
            pos = 0
            while pos < len(data):
                idx, count = _HEADER.unpack_from(data, pos)
                pos += _HEADER.size
                chunk = array("d")
                chunk.frombytes(data[pos : pos + 8 * count])
                pos += 8 * count
                self.by_suite[self.names[idx]].extend(chunk)
            os.remove(path)


def _install_latency(oracle, spool: str) -> tuple:
    names = list(oracle.SUITES)
    sink = LatencySink(names, spool)
    plan_s = [0.0]
    probes = []
    for name, suite in list(oracle.SUITES.items()):

        def plan(n, rng, _plan=suite.plan):
            t0 = time.perf_counter()
            try:
                return _plan(n, rng)
            finally:
                plan_s[0] += time.perf_counter() - t0

        oracle.SUITES[name] = dataclasses.replace(suite, plan=plan, check=sink.timed(suite.check))
    run_chunk = oracle._run_chunk
    cpus = sorted(os.sched_getaffinity(0))
    turn = [0]

    def chunk_runner(name, chunk, base):
        if os.getpid() == sink.parent:
            # A serial run moves to the next CPU for each chunk, so that it
            # samples every CPU alike: the CPUs of a shared host run at
            # different speeds, and staying on one made runs bimodal.
            os.sched_setaffinity(0, {cpus[turn[0] % len(cpus)]})
            if turn[0] % PROBE_EVERY == 0:
                probes.append(common.probe_s())
            turn[0] += 1
        out = run_chunk(name, chunk, base)
        sink.flush(name)
        return out

    # Pool tasks are pickled by qualified name; keep the name resolvable.
    chunk_runner.__module__ = run_chunk.__module__
    chunk_runner.__qualname__ = run_chunk.__qualname__
    oracle._run_chunk = chunk_runner
    return sink, plan_s, probes


def _install_trace(oracle):
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    for name, suite in list(oracle.SUITES.items()):
        oracle.SUITES[name] = dataclasses.replace(
            suite,
            plan=tracer.wrap(f"oracle.plan.{name}", suite.plan),
            check=tracer.wrap(f"oracle.{name}", suite.check, span=False, keep_below=False),
        )
    return tracer


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--trace", help="write the span file here and report layer counters")
    args = ap.parse_args(argv)

    import pretop.oracle as oracle

    tracer = sink = None
    if args.trace:
        tracer = _install_trace(oracle)
        run_suites = tracer.wrap("oracle.run_suites", oracle.run_suites)
    else:
        spool = common.out_dir("spool", str(os.getpid()))
        sink, plan_s, probes = _install_latency(oracle, spool)
        run_suites = oracle.run_suites

    t0 = time.perf_counter()
    summary = run_suites("all", max_points=MAX_POINTS, seed=args.seed, workers=args.workers)
    wall = time.perf_counter() - t0
    text = summary.to_json()
    doc = {
        "wall_s": wall,
        "digest": hashlib.sha256(text.encode()).hexdigest(),
        "suites": [
            {"name": s.name, "checked": s.checked, "failures": s.failures}
            for s in summary.suites
        ],
        "peak_rss_mb": max(common.self_peak_rss_mb(), common.children_peak_rss_mb()),
    }
    if sink is not None:
        sink.collect()
        os.rmdir(sink.spool)
        doc["wall_s"] -= sum(probes)
        doc["probes"] = probes
        doc["plan_s"] = plan_s[0]
        lat = array("d")
        for name in sink.names:
            lat.extend(sink.by_suite[name])
        doc["latency_ms"] = {
            "p50": common.percentile(lat, 50) * 1000,
            "p90": common.percentile(lat, 90) * 1000,
            "samples": len(lat),
        }
        doc["suite_s"] = {name: sum(sink.by_suite[name]) for name in sink.names}
    else:
        doc["counters"] = tracer.counters()
        doc["self_s"] = tracer.self_times()
        tracer.dump(args.trace, {"workload": "oracle", "workers": args.workers, "seed": args.seed})
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
