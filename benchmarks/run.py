#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the layerode command line.

Usage, from the root of a source checkout:

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --workload all --seed 0 --seconds S --trace 0

Every measured command is a fresh `python -m layerode.cli` process built
from `src/` of this checkout, run one at a time with BLAS/OpenMP pools
pinned to one thread. `--trace 0` reports the end-to-end metrics,
`--trace 1` the per-layer metrics of a separate in-process traced run (see
trace_cli.py). The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics. benchmarks/README.md documents
the workloads, metrics and checks.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PROBLEMS = os.path.join(ROOT, "problems")
WORK = os.path.join(ROOT, ".bench_work")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(BENCH_DIR, "reference.json")
TRACER = os.path.join(BENCH_DIR, "trace_cli.py")
TIMED_EXEC = os.path.join(BENCH_DIR, "timed_exec.py")

THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

MIN_REPS = 3            # rounds of workload commands per run, even when --seconds is short
DEADLINE_S = 170.0      # a whole run ends before this; a command still running is killed
SUPERPOSITION_RTOL = 1e-10
REFERENCE_RTOL = 1e-9
ROBUST_ORDER_FLOOR = 0.70

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("steps_per_s", "1/s"),
    ("cpu_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("failed_frac", "ratio"),
)
# failed_frac is 0 on a healthy run, where a relative bound means nothing;
# the result line carries it as failed / attempted instead.
GATED_END_TO_END = tuple(m for m in END_TO_END if m[0] != "failed_frac")

PER_LAYER = (
    ("proc.import_s", "s"),
    ("problem.load_s", "s"),
    ("problem.validate_s", "s"),
    ("problem.validate.calls", "count"),
    ("problem.sample_A_s", "s"),
    ("mesh.build_s", "s"),
    ("mesh.build.calls", "count"),
    ("mesh.bisect_s", "s"),
    ("solver.march_s", "s"),
    ("solver.march.calls", "count"),
    ("solver.march.steps", "count"),
    ("solver.march.us_per_step", "us"),
    ("solver.decompose_s", "s"),
    ("solver.certify_s", "s"),
    ("smallmat.lu_s", "s"),
    ("smallmat.lu_factor.calls", "count"),
    ("smallmat.factor_per_step", "ratio"),
    ("analysis.study_s", "s"),
    ("analysis.study_max_s", "s"),
    ("analysis.exact_error_s", "s"),
    ("analysis.oracle_points", "count"),
    ("analysis.two_mesh_s", "s"),
    ("analysis.sweep_self_s", "s"),
    ("cli.self_s", "s"),
    ("cli.out_bytes", "bytes"),
    ("cli.format_us_per_row", "us"),
    ("trace.overhead_frac", "ratio"),
)


class CheckError(Exception):
    """A command's output is wrong; the run counts as failed."""


# --------------------------------------------------------------- workloads

@dataclass(frozen=True)
class Command:
    """One fixed CLI command shape; the seed only changes the problem data."""

    name: str               # key of its seed-0 outputs in reference.json
    problem: str            # stem of the file in problems/ used at seed 0
    command: str            # "solve" or "sweep"
    sizes: tuple            # mesh sizes N
    mode: str = ""          # sweep error measure
    jobs: int = 1           # sweep workers in the untraced runs
    grid_size: int = 21     # entries of the default eps grid, for n = 2 and 3

    def argv(self, problem_path, out_path, jobs):
        args = [self.command, "--problem", problem_path,
                "--N", ",".join(str(n) for n in self.sizes), "--out", out_path]
        if self.command == "solve":
            return args + ["--decompose", "--certify"]
        return args + ["--mode", self.mode, "--jobs", str(jobs)]

    def steps(self):
        """Backward-Euler steps the inputs imply."""
        if self.command == "solve":
            return 3 * self.sizes[0]          # full, smooth and layer marches
        per_study = sum(self.sizes) * (3 if self.mode == "two_mesh" else 1)
        return self.grid_size * per_study

    def rows(self):
        """Data rows of the output file."""
        if self.command == "solve":
            return self.sizes[0] + 1
        return (self.grid_size + 1) * len(self.sizes)

    def check(self, text, n, reference):
        """Raise CheckError unless `text` is this command's correct output."""
        if self.command == "solve":
            _check_solve(self, text, n, reference)
        else:
            _check_sweep(self, text, reference)


@dataclass(frozen=True)
class Workload:
    """Commands run one after another; one round of them is one sample."""

    name: str
    commands: tuple

    def steps(self):
        return sum(c.steps() for c in self.commands)

    def rows(self):
        return sum(c.rows() for c in self.commands)


# Why each command and workload exists, and how N was scaled: README.md.
COMMANDS = {
    c.name: c
    for c in (
        Command(
            name="solve_large",
            problem="variable_three_scale",
            command="solve",
            sizes=(2 ** 13,),
        ),
        Command(
            name="sweep_exact",
            problem="constant_two_scale",
            command="sweep",
            sizes=(128, 256, 512, 1024),
            mode="exact",
        ),
        Command(
            name="sweep_two_mesh",
            problem="variable_three_scale",
            command="sweep",
            sizes=(128, 256, 512),
            mode="two_mesh",
            jobs=2,
        ),
    )
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload("solve_large", (COMMANDS["solve_large"],)),
        Workload("sweeps", (COMMANDS["sweep_exact"], COMMANDS["sweep_two_mesh"])),
    )
}


# ------------------------------------------------------------ problem data

def _degrees(entry):
    return len(entry) - 1 if isinstance(entry, list) else 0


def draw_problem(template, seed):
    """Admissible random problem with the template's n, T and degree pattern.

    Follows the test suite's random nonnegative problem: off-diagonal
    entries are nonpositive polynomials, each diagonal entry carries its
    row's off-diagonal mass plus a margin in [2, 3] (and a positive slope
    where the template's diagonal varies), forcing and initial value are
    nonnegative. Row sums are then at least 2 on [0, T], so alpha >= 2 and
    every eps <= 1 fits a horizon T >= 1.
    """
    rng = np.random.default_rng(seed)
    n = int(template["n"])
    while True:
        eps = np.sort(2.0 ** -rng.uniform(0.0, 20.0, size=n))
        if n == 1 or (np.diff(eps) > 0.0).all():
            break
    rows = []
    for i in range(n):
        row = [None] * n
        for j in range(n):
            if j != i:
                d = _degrees(template["A"][i][j])
                row[j] = [-rng.uniform(0.0, 1.0)] + [-rng.uniform(0.0, 0.5) for _ in range(d)]
        d = _degrees(template["A"][i][i])
        if any(len(row[j]) - 1 > d for j in range(n) if j != i):
            raise ValueError("template diagonal varies less than its row")
        diag = [rng.uniform(2.0, 3.0)] + [rng.uniform(0.0, 0.5) for _ in range(d)]
        for j in range(n):
            if j != i:
                for k, c in enumerate(row[j]):
                    diag[k] -= c
        row[i] = diag
        rows.append([[float(c) for c in entry] for entry in row])
    f = [[float(rng.uniform(0.0, 2.0))] + [float(rng.uniform(0.0, 1.0))
                                           for _ in range(_degrees(entry))]
         for entry in template["f"]]
    return {
        "n": n,
        "T": float(template["T"]),
        "eps": [float(e) for e in eps],
        "u0": [float(v) for v in rng.uniform(0.0, 2.0, size=n)],
        "A": rows,
        "f": f,
    }


def problem_file(command, seed):
    """Path of the problem the CLI gets: the shipped file at seed 0, a draw otherwise."""
    shipped = os.path.join(PROBLEMS, command.problem + ".json")
    with open(shipped, encoding="utf-8") as fh:
        template = json.load(fh)
    if seed == 0:
        return shipped, int(template["n"])
    path = os.path.join(WORK, "%s-seed%d.json" % (command.problem, seed))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(draw_problem(template, seed), fh, indent=1)
    return path, int(template["n"])


# ----------------------------------------------------------- output checks

def _finite(text, what):
    try:
        value = float(text)
    except ValueError:
        raise CheckError("%s is not a number: %r" % (what, text)) from None
    if not math.isfinite(value):
        raise CheckError("%s is not finite: %r" % (what, text))
    return value


def parse_solve(text, n):
    """Header comments and the (rows, 2 + 3n) number table of `solve --decompose`."""
    lines = text.splitlines()
    comments = {}
    while lines and lines[0].startswith("#"):
        key, _, value = lines.pop(0)[1:].partition("=")
        comments[key.strip()] = value.strip()
    header = ["j", "t_j"] + ["%s_%d" % (p, i + 1) for p in "UVW" for i in range(n)]
    if not lines or lines[0].split(",") != header:
        raise CheckError("unexpected column header %r" % (lines[0] if lines else None))
    table = np.array([[_finite(v, "solve value") for v in line.split(",")]
                      for line in lines[1:]])
    if table.ndim != 2 or table.shape[1] != len(header):
        raise CheckError("ragged solve table")
    return comments, table


def _check_solve(command, text, n, reference):
    comments, table = parse_solve(text, n)
    if comments.get("max_principle") != "ok" or comments.get("stability_ok") != "true":
        raise CheckError("a certificate line is not ok/true: %r" % comments)
    N = command.sizes[0]
    if table.shape[0] != N + 1 or (table[:, 0] != np.arange(N + 1)).any():
        raise CheckError("expected rows j = 0..%d, got %d rows" % (N, table.shape[0]))
    u, v, w = table[:, 2:2 + n], table[:, 2 + n:2 + 2 * n], table[:, 2 + 2 * n:]
    gap = float(np.abs(u - (v + w)).max())
    if gap > SUPERPOSITION_RTOL * (1.0 + float(np.abs(u).max())):
        raise CheckError("U differs from V + W by %.3e" % gap)
    if reference is not None:
        scale = np.array(reference["scale"])
        for j, expected in reference["rows"].items():
            expected = np.array(expected)
            if (np.abs(table[int(j)] - expected) > REFERENCE_RTOL * np.maximum(np.abs(expected), scale)).any():
                raise CheckError("row %s differs from the reference" % j)


def parse_sweep(text):
    """Mode comment and rows [label, N, D, p or None, C_fit] of a sweep."""
    lines = text.splitlines()
    if len(lines) < 2 or not lines[0].startswith("# mode = ") or lines[1] != "eps_label,N,D,p,C_fit":
        raise CheckError("unexpected sweep header")
    rows = []
    for fields in csv.reader(lines[2:]):
        if len(fields) != 5:
            raise CheckError("sweep row with %d fields" % len(fields))
        label, N, D, p, c_fit = fields
        rows.append([label, int(N), _finite(D, "D"),
                     None if p == "" else _finite(p, "p"), _finite(c_fit, "C_fit")])
    return lines[0][len("# mode = "):], rows


def _check_sweep(command, text, reference):
    mode, rows = parse_sweep(text)
    if mode != ("exact_oracle" if command.mode == "exact" else "two_mesh"):
        raise CheckError("sweep mode %r" % mode)
    if len(rows) != command.rows():
        raise CheckError("expected %d sweep rows, got %d" % (command.rows(), len(rows)))
    sizes = list(command.sizes)
    for k in range(0, len(rows), len(sizes)):
        group = rows[k:k + len(sizes)]
        if [r[1] for r in group] != sizes or len({r[0] for r in group}) != 1:
            raise CheckError("sweep rows out of order at row %d" % k)
        if any((r[3] is None) != (i == len(sizes) - 1) for i, r in enumerate(group)):
            raise CheckError("observed orders missing or extra at row %d" % k)
    if rows[-1][0] != "uniform":
        raise CheckError("no uniform rows")
    if reference is None:
        return
    robust = [r[3] for r in rows[-len(sizes):] if r[3] is not None]
    if min(robust) < ROBUST_ORDER_FLOOR:
        raise CheckError("robust order %.3f below %.2f" % (min(robust), ROBUST_ORDER_FLOOR))
    if len(reference) != len(rows):
        raise CheckError("reference has %d rows" % len(reference))
    for got, expected in zip(rows, reference):
        if got[:2] != expected[:2] or (got[3] is None) != (expected[3] is None):
            raise CheckError("row %r differs from the reference" % got[:2])
        for a, b in zip(got[2:], expected[2:]):
            if b is not None and abs(a - b) > REFERENCE_RTOL * abs(b):
                raise CheckError("row %r differs from the reference" % got[:2])


def check_validate(text):
    if not text.startswith("alpha = ") or not _finite(text[8:].strip(), "alpha") > 0.0:
        raise CheckError("unexpected validate output %r" % text[:80])


def load_reference(command):
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)[command.name]


# ------------------------------------------------------------- processes

def child_env():
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = SRC
    return env


@dataclass
class Process:
    """Exit status and resource use of one finished child process tree."""

    exit_code: int
    wall_s: float
    cpu_s: float
    rss_mib: float
    stdout: str
    stderr: str


class Runner:
    """Starts commands one at a time, counts and checks them."""

    def __init__(self):
        self.started = time.perf_counter()
        self.attempted = 0
        self.failures = []
        self.env = child_env()

    def spawn(self, args, tag):
        """Run `python args...` to completion under timed_exec.py."""
        out_path, err_path, usage_path = (os.path.join(WORK, tag + suffix)
                                          for suffix in (".stdout", ".stderr", ".usage.json"))
        if os.path.exists(usage_path):
            os.remove(usage_path)
        timeout = max(1.0, DEADLINE_S - self.elapsed())
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen([sys.executable, TIMED_EXEC, usage_path, "--"] + args,
                                    stdout=out, stderr=err, env=self.env, cwd=ROOT,
                                    start_new_session=True)
            try:
                proc.wait(timeout)
            except subprocess.TimeoutExpired:
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        with open(out_path, encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()
        try:
            usage = json.loads(_read(usage_path))
        except (OSError, ValueError):       # killed at the deadline
            usage = {"exit_code": proc.returncode or -1, "wall_s": 0.0, "cpu_s": 0.0, "rss_kib": 0}
        return Process(usage["exit_code"], usage["wall_s"], usage["cpu_s"],
                       usage["rss_kib"] / 1024.0, stdout, stderr)

    def attempt(self, label, args, tag, check, out_path=None):
        """Run one command and check it; a failure is recorded, never raised.

        out_path, the command's output file, is removed first, so a check
        never reads a file an earlier command left behind.
        """
        self.attempted += 1
        if out_path is not None and os.path.exists(out_path):
            os.remove(out_path)
        proc = self.spawn(args, tag)
        try:
            if proc.exit_code != 0:
                raise CheckError("exit code %d: %s" % (proc.exit_code, proc.stderr.strip()[-400:]))
            check(proc)
        except Exception as exc:    # any broken output, including one the parser trips on
            self.failures.append("%s: %s: %s" % (label, type(exc).__name__, exc))
            print("failed run: %s" % self.failures[-1], file=sys.stderr)
            return proc, False
        return proc, True

    def elapsed(self):
        return time.perf_counter() - self.started


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


# ------------------------------------------------------------- measuring

@dataclass
class Sample:
    """One round of a workload's commands: wall and CPU summed, largest RSS."""

    wall_s: float
    cpu_s: float
    rss_mib: float


def _samples(rounds):
    """Per-round totals of the rounds whose commands all passed; all rounds if none did."""
    kept = [r for r in rounds if all(ok for _, ok in r)] or rounds
    return kept, [Sample(sum(p.wall_s for p, _ in r), sum(p.cpu_s for p, _ in r),
                         max(p.rss_mib for p, _ in r)) for r in kept]


def median_of(procs, attr):
    return statistics.median(getattr(p, attr) for p in procs)


@dataclass
class Plan:
    """Argument lists and output check of one command in one run."""

    command: Command
    validate: list
    cli: list
    out_path: str
    n: int
    reference: object

    def check_output(self, proc):
        self.command.check(_read(self.out_path), self.n, self.reference)


def plan(command, seed, jobs):
    problem_path, n = problem_file(command, seed)
    out_path = os.path.join(WORK, command.name + ".out")
    return Plan(
        command=command,
        validate=["-m", "layerode.cli", "validate", "--problem", problem_path],
        cli=["-m", "layerode.cli"] + command.argv(problem_path, out_path, jobs),
        out_path=out_path,
        n=n,
        reference=load_reference(command) if seed == 0 else None,
    )


def check_setup(proc):
    check_validate(proc.stdout)


def traced_run(runner, plan_):
    """Run one command under trace_cli.py; returns (process, spans document or None)."""
    spans_path = os.path.join(WORK, plan_.command.name + ".spans.json")
    documents = []

    def check_traced(proc):
        plan_.check_output(proc)
        documents.append(json.loads(_read(spans_path)))

    proc, _ = runner.attempt("traced " + plan_.command.name,
                             [TRACER, spans_path, "--"] + plan_.cli[2:],
                             "traced", check_traced, plan_.out_path)
    return proc, (documents[0] if documents else None)


def measure(workload, seed, seconds, trace):
    """One benchmark run: rounds of set-up and workload commands for `seconds`.

    A round is one timed `validate` per command, then each command of the
    workload once. Rounds repeat while the next one is expected to end
    within `seconds` (at least MIN_REPS of them). Returns (result dict for
    the last output line, sample counts and per-command medians).
    """
    runner = Runner()
    # The traced run is in-process at one job, so its untraced baseline is too.
    jobs = {c.name: 1 if trace else c.jobs for c in workload.commands}
    plans = [plan(c, seed, jobs[c.name]) for c in workload.commands]
    for p in plans:
        runner.attempt("warm-up validate", p.validate, "warmup", check_setup)  # compiles bytecode

    if trace:
        traced = [traced_run(runner, p) for p in plans]
        out_bytes = sum(os.path.getsize(p.out_path) if doc is not None else 0
                        for p, (_, doc) in zip(plans, traced))

    # Set-up and workload commands alternate, so both sample the same spells
    # of a shared machine's speed.
    setup_rounds, run_rounds, round_s = [], [], []
    while (len(run_rounds) < MIN_REPS
           or runner.elapsed() + statistics.median(round_s) <= seconds):
        started = runner.elapsed()
        setup_rounds.append([runner.attempt("setup validate", p.validate, "setup", check_setup)
                             for p in plans])
        run_rounds.append([runner.attempt("%s run %d" % (p.command.name, len(run_rounds) + 1),
                                          p.cli, "run", p.check_output, p.out_path)
                           for p in plans])
        round_s.append(runner.elapsed() - started)
    _, setups = _samples(setup_rounds)
    kept, runs = _samples(run_rounds)

    if trace:
        documents = [doc for _, doc in traced]
        if None not in documents:
            metrics = layer_metrics(merge_documents(documents), workload.rows(), out_bytes,
                                    sum(proc.wall_s for proc, _ in traced)
                                    / median_of(runs, "wall_s") - 1.0)
        else:
            metrics = {name: 0.0 for name, _ in PER_LAYER}
        units = PER_LAYER
    else:
        run_s = median_of(runs, "wall_s")
        metrics = {
            "setup_s": median_of(setups, "wall_s"),
            "run_s": run_s,
            "steps_per_s": workload.steps() / run_s,
            "cpu_s": median_of(runs, "cpu_s"),
            "peak_rss_mib": median_of(runs, "rss_mib"),
        }
        units = GATED_END_TO_END
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    }
    parts = {p.command.name: {"run_s": median_of([r[i][0] for r in kept], "wall_s"),
                              "cpu_s": median_of([r[i][0] for r in kept], "cpu_s")}
             for i, p in enumerate(plans)}
    samples = {"setup": len(setups), "runs": len(runs), "jobs": jobs, "parts": parts}
    return result, samples


# ------------------------------------------------------------ trace metrics

def merge_documents(documents):
    """One trace document from those of a workload's commands, in order.

    Parent indices are shifted past the spans of the documents before, and
    the commands' import times add up, as their processes each paid one.
    """
    merged = {"import_s": 0.0, "spans": [], "per_step": []}
    for document in documents:
        offset = len(merged["spans"])

        def shift(parent, offset=offset):
            return parent + offset if parent >= 0 else -1

        merged["import_s"] += document["import_s"]
        merged["spans"] += [[name, start, end, shift(parent), count]
                            for name, start, end, parent, count in document["spans"]]
        merged["per_step"] += [[name, shift(parent), calls, busy]
                               for name, parent, calls, busy in document["per_step"]]
    return merged


def layer_metrics(document, rows, out_bytes, overhead_frac):
    """Per-layer metrics from a trace_cli.py document.

    A layer's `_s` metric is the time spent inside its calls, counting a
    call nested in another call of the same layer once. Self time is a
    span's duration minus the time its child spans and per-step calls
    cover.
    """
    spans = document["spans"]
    names = [s[0] for s in spans]
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    for _, parent, _, busy in document["per_step"]:
        if parent >= 0:
            covered[parent] += busy

    def outermost(i):
        parent = spans[i][3]
        while parent >= 0:
            if names[parent] == names[i]:
                return False
            parent = spans[parent][3]
        return True

    def durations(name):
        return [s[2] - s[1] for i, s in enumerate(spans) if s[0] == name and outermost(i)]

    def total(name):
        return sum(durations(name), 0.0)

    def calls(name):
        return names.count(name)

    def self_time(name):
        return sum((s[2] - s[1] - covered[i] for i, s in enumerate(spans) if s[0] == name), 0.0)

    def step_calls(name, parent_name=None):
        return sum(c for step, parent, c, _ in document["per_step"]
                   if step == name and (parent_name is None
                                        or (parent >= 0 and names[parent] == parent_name)))

    steps = sum(s[4] for s in spans if s[0] == "solver.march")
    march_s = total("solver.march")
    lu_busy = sum((b for step, parent, _, b in document["per_step"]
                   if step.startswith("smallmat.")
                   and (parent < 0 or names[parent] != "smallmat.lu_solve")), 0.0)
    studies = durations("analysis.study")
    cli_self = self_time("cli.main")
    return {
        "proc.import_s": document["import_s"],
        "problem.load_s": total("problem.load"),
        "problem.validate_s": total("problem.validate"),
        "problem.validate.calls": calls("problem.validate"),
        "problem.sample_A_s": total("problem.sample_A"),
        "mesh.build_s": total("mesh.build"),
        "mesh.build.calls": calls("mesh.build"),
        "mesh.bisect_s": total("mesh.bisect"),
        "solver.march_s": march_s,
        "solver.march.calls": calls("solver.march"),
        "solver.march.steps": steps,
        "solver.march.us_per_step": 1e6 * march_s / steps if steps else 0.0,
        "solver.decompose_s": total("solver.decompose"),
        "solver.certify_s": total("solver.certify"),
        "smallmat.lu_s": total("smallmat.lu_solve") + lu_busy,
        "smallmat.lu_factor.calls": step_calls("smallmat.lu_factor"),
        "smallmat.factor_per_step": (step_calls("smallmat.lu_factor", "solver.march") / steps
                                     if steps else 0.0),
        "analysis.study_s": statistics.median(studies) if studies else 0.0,
        "analysis.study_max_s": max(studies) if studies else 0.0,
        "analysis.exact_error_s": total("analysis.exact_error"),
        "analysis.oracle_points": sum(s[4] for s in spans if s[0] == "analysis.exact_error"),
        "analysis.two_mesh_s": total("analysis.two_mesh"),
        "analysis.sweep_self_s": self_time("analysis.sweep"),
        "cli.self_s": cli_self,
        "cli.out_bytes": out_bytes,
        "cli.format_us_per_row": 1e6 * cli_self / rows,
        "trace.overhead_frac": overhead_frac,
    }


# ------------------------------------------------------------- reporting

def machine_facts(seed):
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": THREAD_ENV,
        "seed": seed,
    }


def print_table(workload, result, samples):
    """Human-readable table: every metric with its unit and sample count."""
    metrics = dict(result["metrics"])
    if "run_s" in metrics:
        metrics["failed_frac"] = {"value": result["failed"] / result["attempted"], "unit": "ratio"}
        title, order, default = "end to end", END_TO_END, samples["runs"]
        counts = {"setup_s": samples["setup"], "failed_frac": result["attempted"]}
    else:
        title, order, default, counts = "per layer, one traced run of each command", PER_LAYER, 1, {}
    jobs = ", ".join("%s at %d job(s)" % item for item in samples["jobs"].items())
    print("# %s (%s): %s" % (workload.name, jobs, title))
    print("%-28s %16s %-6s %s" % ("metric", "value", "unit", "samples"))
    for name, unit in order:
        value = ("%16d" if unit in ("count", "bytes") else "%16.6g") % metrics[name]["value"]
        print("%-28s %s %-6s %d" % (name, value, unit, counts.get(name, default)))
    if "run_s" in metrics and len(samples["parts"]) > 1:
        for name, part in samples["parts"].items():
            print("# of which %s: run_s %.6g s, cpu_s %.6g s (medians)"
                  % (name, part["run_s"], part["cpu_s"]))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (os.path.join(SRC, "layerode", "cli.py"), PROBLEMS, REFERENCE)
               if not os.path.exists(p)]
    if missing:
        print("error: not a layerode source checkout, missing %s" % ", ".join(missing),
              file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    print("# machine " + json.dumps(machine_facts(args.seed), sort_keys=True))
    results = {}
    for name in names:
        result, samples = measure(WORKLOADS[name], args.seed, args.seconds, args.trace)
        print_table(WORKLOADS[name], result, samples)
        results[name] = result
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
