"""Benchmark of the pretop workbench.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Workloads (see BENCHMARK.json for why each one exists):

  oracle-serial    run_suites("all", max_points=4, seed=N, workers=1);
                   the traced run also checks workers=2 against it
  cli              every subcommand over corpus/*.pt, the built-in
                   symbolic spaces and seeded 16-point models, one
                   process per query

With ``--trace 0`` the last stdout line reports the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of a traced run.  Every answer
is checked; rows for each query or suite, the environment and the notes
go to .perfbench/results/ and, as a table, to stdout above that line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import common
import workloads


def _print_rows(result) -> None:
    for row in result.rows:
        cells = [row["row"], f"run={row['run']}"]
        for key in ("latency_ms", "seconds"):
            if key in row:
                cells.append(f"{key}={row[key]:.3f}")
        for key in ("checked", "failures", "exit", "failure"):
            if key in row and row[key] is not None:
                cells.append(f"{key}={row[key]}")
        print("  ".join(cells))
    for name, m in result.metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    for note in result.notes:
        print(f"note: {note}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(common.SRC, "pretop", "cli.py")):
        print(f"no program to measure: {common.SRC}/pretop is missing", file=sys.stderr)
        return 2

    env = common.environment(args.seed)
    result = workloads.WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))
    result.notes = list(dict.fromkeys(result.notes))
    _print_rows(result)
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": env,
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "error_rate": result.failed / result.attempted,
        "metrics": result.metrics,
        "rows": result.rows,
        "notes": result.notes,
    }
    path = os.path.join(
        common.out_dir("results"), f"{args.workload}-s{args.seed}-t{args.trace}.json"
    )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(
        f"python {env['python']}, nproc {env['nproc']}, revision {env['git_revision']},"
        f" src sha256 {env['source_sha256'][:16]}, seed {args.seed}"
    )
    print(f"error_rate = {record['error_rate']} ({result.failed} of {result.attempted} operations)")
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": result.metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
