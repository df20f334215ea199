#!/usr/bin/env python3
"""Record benchmarks/reference.json: the seed-0 outputs every later run must match.

Usage, from the root of a source checkout: python3 benchmarks/record_reference.py

Run it only on a commit whose numbers are the agreed baseline; the
benchmark then requires seed-0 outputs to match to 1e-9 relative. The
solve workload keeps a sample of rows (the first 17, where the layers
are, and every N/64-th) plus each column's largest magnitude; the sweeps
keep every row.
"""

import json
import os
import sys

import numpy as np

import run


def record(command, runner):
    problem_path, n = run.problem_file(command, 0)
    out_path = os.path.join(run.WORK, command.name + ".out")
    args = ["-m", "layerode.cli"] + command.argv(problem_path, out_path, command.jobs)
    proc = runner.spawn(args, "reference")
    if proc.exit_code != 0:
        raise SystemExit("%s failed: %s" % (command.name, proc.stderr))
    text = run._read(out_path)
    if command.command == "sweep":
        return run.parse_sweep(text)[1]
    table = run.parse_solve(text, n)[1]
    N = command.sizes[0]
    picks = sorted(set(range(17)) | set(range(0, N + 1, N // 64)))
    return {
        "scale": np.abs(table).max(axis=0).tolist(),
        "rows": {str(j): table[j].tolist() for j in picks},
    }


def main():
    os.makedirs(run.WORK, exist_ok=True)
    runner = run.Runner()
    reference = {name: record(c, runner) for name, c in sorted(run.COMMANDS.items())}
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
