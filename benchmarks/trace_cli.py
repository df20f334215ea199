#!/usr/bin/env python3
"""Run one layerode CLI command in this process with every layer wrapped.

Usage: python3 benchmarks/trace_cli.py SPANS_JSON -- CLI_ARGS...

The public functions are replaced at the module attributes where their
callers look them up (cli.march, analysis.march, solver.march,
smallmat.lu_factor, ...), so the library runs unmodified. Each call of a
layer function records a span (name, start, end, parent span, work count);
functions called once per time step are kept as call counts plus busy time
per parent span instead, so a long march does not allocate one record per
step. Everything stays in memory until the command returns, then one JSON
document is written to SPANS_JSON and the CLI's exit code is passed on.
run.py turns the document into the per-layer metrics.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time

perf = time.perf_counter


def _steps(args, kwargs, result):
    return int(result.mesh.N)


def _grid_points(args, kwargs, result):
    grid = args[0] if args else kwargs["grid"]
    return int(grid.values.shape[1])


# (module, attribute, layer name, per-step, work count taken from the call)
TARGETS = (
    ("layerode.cli", "main", "cli.main", False, None),
    ("layerode.cli", "load_problem", "problem.load", False, None),
    ("layerode.cli", "validate", "problem.validate", False, None),
    ("layerode.analysis", "validate", "problem.validate", False, None),
    ("layerode.problem", "sample_A", "problem.sample_A", False, None),
    ("layerode.solver", "sample_A", "problem.sample_A", False, None),
    ("layerode.cli", "build_mesh", "mesh.build", False, None),
    ("layerode.analysis", "build_mesh", "mesh.build", False, None),
    ("layerode.solver", "build_mesh", "mesh.build", False, None),
    ("layerode.analysis", "bisect_mesh", "mesh.bisect", False, None),
    ("layerode.cli", "march", "solver.march", False, _steps),
    ("layerode.solver", "march", "solver.march", False, _steps),
    ("layerode.analysis", "march", "solver.march", False, _steps),
    ("layerode.cli", "decompose", "solver.decompose", False, None),
    ("layerode.cli", "certify_max_principle", "solver.certify", False, None),
    ("layerode.cli", "certify_stability", "solver.certify", False, None),
    ("layerode.smallmat", "lu_solve", "smallmat.lu_solve", False, None),
    ("layerode.smallmat", "lu_factor", "smallmat.lu_factor", True, None),
    ("layerode.smallmat", "lu_solve_factored", "smallmat.lu_solve_factored", True, None),
    ("layerode.cli", "convergence_study", "analysis.study", False, None),
    ("layerode.analysis", "convergence_study", "analysis.study", False, None),
    ("layerode.cli", "uniform_sweep", "analysis.sweep", False, None),
    ("layerode.analysis", "exact_error", "analysis.exact_error", False, _grid_points),
    ("layerode.analysis", "two_mesh_difference", "analysis.two_mesh", False, None),
)


class Tracer:
    """Span store for one traced command; single-threaded by construction."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index or -1, count]
        self.per_step = {}     # (name, parent index) -> [calls, busy seconds]
        self.stack = []

    def span(self, name, fn, count):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            record = [name, perf(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = perf()
            if count is not None:
                record[4] = count(args, kwargs, result)
            return result

        return wrapper

    def step(self, name, fn):
        per_step, stack = self.per_step, self.stack

        def wrapper(*args, **kwargs):
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                busy = perf() - start
                key = (name, stack[-1] if stack else -1)
                entry = per_step.get(key)
                if entry is None:
                    per_step[key] = [1, busy]
                else:
                    entry[0] += 1
                    entry[1] += busy

        return wrapper

    def install(self):
        """Wrap every target that exists; one wrapper per original function."""
        wrapped = {}
        for module_name, attr, name, per_step, count in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            if id(fn) not in wrapped:
                wrapped[id(fn)] = (fn, self.step(name, fn) if per_step
                                   else self.span(name, fn, count))
            setattr(module, attr, wrapped[id(fn)][1])

    def document(self, import_s, exit_code):
        return {
            "import_s": import_s,
            "exit_code": exit_code,
            "spans": self.spans,
            "per_step": [[name, parent, calls, busy]
                         for (name, parent), (calls, busy) in self.per_step.items()],
        }


def main(argv):
    if len(argv) < 3 or argv[1] != "--":
        print("usage: trace_cli.py SPANS_JSON -- CLI_ARGS...", file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    start = perf()
    cli = importlib.import_module("layerode.cli")
    import_s = perf() - start
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print("layerode was imported from %s, not from %s" % (cli.__file__, src), file=sys.stderr)
        return 2
    tracer = Tracer()
    tracer.install()
    exit_code = cli.main(cli_args)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.document(import_s, exit_code), fh)
    return exit_code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
