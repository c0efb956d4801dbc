"""Closed-loop CLI load, one process per query.

Each client takes the next query as soon as its previous one exits.
Timed passes use one client, so a query never shares the CPUs with
another query and the second CPU of a 2-CPU host is left to the
benchmark itself; traced passes, which are not timed, use two.  Latency
runs from process spawn to exit.  A query still running at the
per-query limit is killed and counted as a failed operation with the
limit as its latency; one that passes 1 GiB of address space fails with
MemoryError.  Peak memory is read per process from wait4.
Known slow queries start first, so that where they fall in the seeded
order does not change the pass's wall time.  Each client runs the speed
probe (``common.probe_s``) before each query it starts.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import common
from queries import Query, judge

CLIENTS = 1
TRACED_CLIENTS = 2
LIMIT_S = 5.0
MEMORY_CAP = 1 << 30  # address space of one query process


@dataclass
class Outcome:
    query: Query
    latency_s: float
    exit_code: int | None
    failure: str | None
    peak_rss_mb: float
    probe_s: float
    stats: dict | None = None


def spawn(argv: list, limit: float, env: dict) -> tuple:
    """Run one process; returns (latency, exit code or None on timeout,
    stdout, stderr, peak RSS in MB).  The process is waited for without
    being reaped first, so the timer can only ever kill our own child."""
    lock = threading.Lock()
    state = {"exited": False, "killed": False}
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=common.ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    try:
        # A runaway query fails with MemoryError instead of taking the
        # shared machine's memory.
        resource.prlimit(proc.pid, resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))
    except ProcessLookupError:
        pass  # already gone
    outputs = {}

    def drain(name, stream):
        outputs[name] = stream.read()
        stream.close()

    readers = [
        threading.Thread(target=drain, args=("out", proc.stdout)),
        threading.Thread(target=drain, args=("err", proc.stderr)),
    ]
    for r in readers:
        r.start()

    def expire():
        with lock:
            if not state["exited"]:
                state["killed"] = True
                proc.kill()

    timer = threading.Timer(limit, expire)
    timer.start()
    os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
    latency = time.perf_counter() - t0
    with lock:
        state["exited"] = True
    timer.cancel()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    for r in readers:
        r.join()
    out = outputs["out"].decode("utf-8", "replace")
    err = outputs["err"].decode("utf-8", "replace")
    if state["killed"]:
        return limit, None, out, err, usage.ru_maxrss / 1024.0
    return latency, proc.returncode, out, err, usage.ru_maxrss / 1024.0


def _schedule(queries: list) -> list:
    return [q for q in queries if q.known_defect] + [q for q in queries if not q.known_defect]


def run_pass(queries: list, stats_dir: str | None = None, clients: int = CLIENTS) -> tuple:
    """Run every query once with ``clients`` clients; returns (outcomes in
    input order, wall seconds).

    With ``stats_dir`` each query runs traced and its stats file is read
    back into ``Outcome.stats``.
    """
    order = _schedule(queries)
    index = {id(q): i for i, q in enumerate(queries)}
    outcomes = [None] * len(queries)
    lock = threading.Lock()
    cursor = [0]
    env = common.child_env()
    errors = []

    def client():
        while True:
            with lock:
                if cursor[0] == len(order):
                    return
                q = order[cursor[0]]
                cursor[0] += 1
            slot = index[id(q)]
            if stats_dir is None:
                argv = [sys.executable, "-m", "pretop.cli", *q.argv]
                stats_path = None
            else:
                stats_path = os.path.join(stats_dir, f"{slot}.json")
                script = os.path.join(common.HERE, "query_child.py")
                argv = [sys.executable, script, stats_path, "--", *q.argv]
            probe = common.probe_s()
            latency, code, out, err, rss = spawn(argv, LIMIT_S, env)
            failure = judge(q, code, out, err, code is None)
            stats = None
            if stats_path is not None and os.path.exists(stats_path):
                # A failed query's counts depend on where it stopped, and a
                # killed one may have left a partial file.
                if failure is None:
                    with open(stats_path, encoding="utf-8") as fh:
                        stats = json.load(fh)
                os.remove(stats_path)
            outcomes[slot] = Outcome(q, latency, code, failure, rss, probe, stats)

    def guarded():
        try:
            client()
        except Exception as exc:  # reported by run_pass, never swallowed
            errors.append(exc)

    threads = [threading.Thread(target=guarded) for _ in range(clients)]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0
    if errors:
        raise errors[0]
    return outcomes, wall
