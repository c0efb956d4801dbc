"""One traced CLI query in its own process.

    python3 perfbench/query_child.py STATS.json -- <pretop arguments>

Times ``import pretop.cli``, installs the layer wrappers, runs
``run_command`` on the arguments (stdout and stderr stay the query's
own) and writes the counters, self times and spans to STATS.json once,
at the end.  The exit code is the query's.
"""

from __future__ import annotations

import sys
from time import perf_counter


def main() -> int:
    stats_path = sys.argv[1]
    if sys.argv[2] != "--":
        raise SystemExit("usage: query_child.py STATS.json -- ARGS...")
    argv = sys.argv[3:]
    t0 = perf_counter()
    import pretop.cli as cli

    import_s = perf_counter() - t0
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    code = None
    try:
        code = cli.run_command(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(stats_path, {"import_s": import_s, "exit": code})
    return code


if __name__ == "__main__":
    sys.exit(main())
