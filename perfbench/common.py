"""Paths, child-process settings and statistics shared by the benchmark."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import subprocess
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

# Samples that must lie beyond a reported percentile.
TAIL_SAMPLES = 10

# The speed probe: a fixed pure-Python loop, and the seconds it took on
# the 2-CPU host the benchmark was tuned on (Python 3.11.7), in the
# host's usual state.  Every time a run reports is scaled by
# PROBE_NOMINAL_S / (median probe of that run).
PROBE_LOOPS = 30_000
PROBE_NOMINAL_S = 0.005


def child_env() -> dict:
    """Environment of every child: the checkout's sources, a fixed hash
    seed so that set iteration order, and with it every call count,
    repeats from run to run, and bytecode caches written as for a user,
    so that no query pays for compiling the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONSTARTUP", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def out_dir(*parts: str) -> str:
    path = os.path.join(OUT, *parts)
    os.makedirs(path, exist_ok=True)
    return path


def percentile(samples, p: float) -> float:
    """Harrell-Davis estimate of the p-th percentile, refused unless
    TAIL_SAMPLES lie beyond its nearest rank.

    The estimate weighs every order statistic by the Beta(p(n+1),
    (1-p)(n+1)) mass over its slot, instead of taking the one at the
    nearest rank.  On a host whose speed switches between two levels
    every few seconds, the sample near p90 falls in one mode or the
    other from run to run; the weighted form moves smoothly instead.
    """
    n = len(samples)
    if n == 0:
        raise ValueError("no samples")
    rank = max(1, math.ceil(p / 100.0 * n))
    if n - rank < TAIL_SAMPLES and p < 100:
        raise ValueError(
            f"p{p:g} of {n} samples leaves {n - rank} beyond it, need {TAIL_SAMPLES}"
        )
    x = sorted(samples)
    if n == 1 or p >= 100:
        return x[-1]
    q = p / 100.0
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def pdf(t):
        if t <= 0.0 or t >= 1.0:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))

    # Slots further than 12 standard deviations from q carry no weight.
    reach = 12 * math.sqrt(q * (1 - q) / (n + 2))
    first, last = max(0, int((q - reach) * n)), min(n, math.ceil((q + reach) * n))
    steps = 16  # Simpson's rule over each slot [i/n, (i+1)/n]
    width = 1.0 / (n * steps)
    total = acc_x = 0.0
    for i in range(first, last):
        lo = i / n
        acc = pdf(lo) + pdf(lo + 1.0 / n)
        for k in range(1, steps):
            acc += (4 if k % 2 else 2) * pdf(lo + k * width)
        total += acc
        acc_x += acc * x[i]
    return acc_x / total


def probe_s() -> float:
    """Seconds the fixed probe loop takes on this CPU now.  The loop
    runs no code of the program, so it measures the host alone: the
    speed of a shared host drifts by half over minutes, and the probe
    drifts with it."""
    t0 = time.perf_counter()
    acc = 0
    slots = {}
    for i in range(PROBE_LOOPS):
        slots[i & 255] = acc
        acc = (acc * 31 + i) & 0xFFFF
    return time.perf_counter() - t0


def host_factor(probes) -> float:
    """How much slower the host ran than nominal over a run: the median
    probe over PROBE_NOMINAL_S.  Divide times, multiply rates by it."""
    return median(probes) / PROBE_NOMINAL_S


def median(values) -> float:
    s = sorted(values)
    n = len(s)
    mid = n // 2
    return s[mid] if n % 2 else (s[mid - 1] + s[mid]) / 2


def children_peak_rss_mb() -> float:
    """Largest resident set of any child this process has waited for."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def source_digest() -> str:
    """SHA-256 over src/ file paths and contents, for checkouts without git."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_revision() -> str | None:
    """HEAD of the checkout, or None when the checkout is not itself a
    git work tree (a parent directory's repository does not count)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "seed": seed,
    }
