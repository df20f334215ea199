#!/usr/bin/env python3
"""Run one Python command and record its wall time and resource use.

Usage: python3 benchmarks/timed_exec.py RESULT_JSON -- ARGS...

Starts `python ARGS...` with inherited standard streams, waits for it with
wait4 and writes {"exit_code", "wall_s", "cpu_s", "rss_kib"} to RESULT_JSON.
The wall clock runs from spawn to exit. The rusage of a reaped child covers
it and every descendant it waited for (sweep pool workers); ru_maxrss is
the largest single process.

run.py does not spawn measured commands itself: a child inherits the
resident-set high-water mark of the process it was forked from, so the
peak RSS of a command started by the benchmark (which holds numpy and
parsed outputs) would read the benchmark's own. This launcher imports
nothing heavy, so the command's own peak always exceeds what it inherits.
"""

import json
import os
import sys
import time


def main(argv):
    if len(argv) < 3 or argv[1] != "--":
        print("usage: timed_exec.py RESULT_JSON -- ARGS...", file=sys.stderr)
        return 2
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable] + argv[2:], os.environ)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    with open(argv[0], "w", encoding="utf-8") as fh:
        json.dump({
            "exit_code": os.waitstatus_to_exitcode(status),
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_kib": usage.ru_maxrss,
        }, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
