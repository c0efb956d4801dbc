"""Every workload at one seed, one table.

    python3 perfbench/report.py [--seed N] [--seconds S] [--trace 0|1]

Runs ``run.py`` once per workload and prints each metric with its unit,
the error rate, and whether every answer was right.  Exits 1 if any run
failed or was incorrect.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import common
import workloads


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=5)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    ok = True
    for name in workloads.WORKLOADS:
        cmd = [
            sys.executable,
            os.path.join(common.HERE, "run.py"),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        done = subprocess.run(cmd, cwd=common.ROOT, capture_output=True, text=True)
        if done.returncode != 0:
            print(f"{name}: run failed\n{done.stderr[-2000:]}")
            ok = False
            continue
        line = json.loads(done.stdout.strip().splitlines()[-1])
        rate = line["failed"] / line["attempted"]
        ok &= line["correct"]
        print(f"{name}: correct={line['correct']} error_rate={rate:.6g} ({line['failed']} of {line['attempted']})")
        for metric, m in line["metrics"].items():
            print(f"  {metric:40s} {m['value']:>16.6g} {m['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
