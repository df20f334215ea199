"""Command line front end.

Subcommands: validate a problem file, emit a mesh, solve (optionally with
the smooth/layer split and certificates), and run convergence studies for
one parameter choice (converge) or across a parameter grid (sweep).

Exit codes: 0 ok, 1 solve certificate failure, 2 unreadable (also missing)
or malformed input or a mesh too large for memory, 3 problem validation
failure, 4 mesh construction failure, 5 requested convergence band not met,
6 numerical failure (a step's residual was not finite or failed the fixed
1e-12 backward-error guard, a study's error was not finite, a closed-form
propagator left its bounds, the closed form's generator -t E^-1 A or the
smooth part's initial value A(0)^-1 f(0) overflowed, or numpy's linear
algebra reported a singular matrix). numpy's floating-point warnings are
silenced, since each of those failures has its exit code. Text and CSV
output write numbers with 17 significant digits, and --json output with
Python's shortest round-trip repr (2.0, not 2); either way output is
byte-identical across runs and floats round-trip exactly.

validate needs only the problem module, which loads no numpy unless an
entry has degree 3 or more. The numpy-backed names of the other
subcommands are bound into this module on first use (_bind_numeric), and
reading one of them on this module binds them too, so a wrapper or test
double set here replaces what the subcommands call. The package binds no
such copies; this module keeps them only because benchmarks/trace_cli.py
wraps names here and two tests set doubles here, until a run records its
own stage timings.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys

from .problem import (
    ProblemFormatError,
    ProblemValidationError,
    load_problem,
    validate,
)

EXIT_OK = 0
EXIT_CERTIFICATE = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_MESH = 4
EXIT_BAND = 5
EXIT_NUMERICAL = 6

# --mode value -> (printed mode label, error measure in layerode.analysis, looked
# up when a study runs so that a wrapper installed there sees every call)
_MEASURES = {"exact": ("exact_oracle", "exact_error"),
             "two_mesh": ("two_mesh", "two_mesh_difference")}


def _numeric_names():
    """The numpy-backed names of the numeric subcommands, by name."""
    import numpy as np

    from . import analysis
    from .analysis import convergence_study, default_eps_grid, uniform_sweep
    from .mesh import MeshError, build_mesh
    from .solver import (
        SolveFailureError,
        certify_max_principle,
        certify_stability,
        decompose,
        solve,
    )

    return locals()


def _bind_numeric():
    """Bind those names into this module, keeping any bound here already."""
    for name, value in _numeric_names().items():
        globals().setdefault(name, value)


def __getattr__(name):
    # PEP 562: reading a numpy-backed name on this module binds them all.
    if not name.startswith("__"):
        _bind_numeric()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _numeric(command):
    """A numpy-backed subcommand: it binds those names first and runs with
    numpy's floating-point warnings off. Overflow and invalid operations
    are not reported as warnings: every non-finite result fails a check and
    exits with its own code."""
    def run(args):
        _bind_numeric()
        with np.errstate(all="ignore"):
            return command(args)
    return run


def _fmt(x):
    return format(float(x), ".17g")


def _csv_line(fields):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow([str(f) for f in fields])
    return buf.getvalue()


def _table_lines(table):
    """CSV rows of a numeric table: the first column as an integer, the
    others with 17 significant digits like _fmt. One row format is applied
    to 1024 rows at a time, which bounds the Python floats alive at once;
    each returned string holds one such block."""
    rows, cols = table.shape
    row = ",".join(["%d"] + ["%.17g"] * (cols - 1))
    blocks = (table[start:start + 1024] for start in range(0, rows, 1024))
    return ["\n".join([row] * len(b)) % tuple(b.ravel().tolist()) for b in blocks]


def _emit(lines, out_path):
    text = "\n".join([*lines, ""])
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _int_list(text):
    try:
        values = [int(part) for part in text.split(",") if part]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text}") from exc
    if not values:
        raise argparse.ArgumentTypeError("empty mesh size list")
    return values


def _eps_grid_arg(text):
    if text == "default":
        return "default"
    try:
        return [tuple(float(v) for v in group.split(",")) for group in text.split(";") if group]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an eps grid: {text}") from exc


def _band_arg(text):
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text}") from exc
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"band must be a finite number: {text}")
    return value


def _cmd_validate(args):
    vp = validate(load_problem(args.problem))
    spec = vp.spec
    if args.json:
        print(json.dumps({
            "alpha": vp.alpha,
            "n": spec.n,
            "T": spec.T,
            "eps": list(spec.eps),
        }))
    else:
        print("alpha = %s" % _fmt(vp.alpha))
    return EXIT_OK


@_numeric
def _cmd_mesh(args):
    vp = validate(load_problem(args.problem))
    mesh = build_mesh(vp, args.N)
    lines = [
        "# sigmas = " + ",".join(_fmt(s) for s in mesh.sigmas),
        "# b = " + ",".join(str(bit) for bit in mesh.b),
        "j,t_j,delta_j",
        "0,%s," % _fmt(mesh.points[0]),
    ]
    lines += _table_lines(np.column_stack(
        [np.arange(1, mesh.N + 1), mesh.points[1:], mesh.deltas]
    ))
    _emit(lines, args.out)
    return EXIT_OK


@_numeric
def _cmd_solve(args):
    vp = validate(load_problem(args.problem))
    grid = solve(vp, args.N)
    mesh = grid.mesh
    n = vp.spec.n
    lines = ["# alpha = %s" % _fmt(vp.alpha)]
    certificates_ok = True
    if args.certify:
        nonneg = certify_max_principle(grid)
        stability = certify_stability(grid)
        certificates_ok = nonneg and stability.ok
        lines += [
            "# max_principle = %s" % ("ok" if nonneg else "violated"),
            "# stability_bound = %s" % _fmt(stability.bound),
            "# stability_max_norm = %s" % _fmt(stability.max_norm),
            "# stability_ok = %s" % ("true" if stability.ok else "false"),
        ]
    header = ["j", "t_j"] + ["U_%d" % (i + 1) for i in range(n)]
    columns = [np.arange(mesh.N + 1), mesh.points, grid.values]
    if args.decompose:
        parts = decompose(vp, mesh)
        header += ["V_%d" % (i + 1) for i in range(n)]
        header += ["W_%d" % (i + 1) for i in range(n)]
        columns += [parts.smooth.values, parts.singular.values]
    lines.append(_csv_line(header))
    lines += _table_lines(np.column_stack(columns))
    _emit(lines, args.out)
    if not certificates_ok:
        print("error: a solve certificate failed; see the header comments", file=sys.stderr)
        return EXIT_CERTIFICATE
    return EXIT_OK


def _study_lines(lines, label, rows):
    for row in rows:
        lines.append(_csv_line([
            label,
            row.N,
            _fmt(row.error),
            "" if row.p is None else _fmt(row.p),
            _fmt(row.c_fit),
        ]))


def _band_gate(rows, band, what):
    """EXIT_BAND, with a message on stderr, if the smallest order present in
    rows is below band or no order is present; EXIT_OK otherwise or when no
    band was requested."""
    if band is None:
        return EXIT_OK
    ps = [row.p for row in rows if row.p is not None]
    worst = min(ps) if ps else None
    if worst is None or worst < band:
        print(
            "error: %s order %s is below the requested band %s"
            % (what, "absent" if worst is None else _fmt(worst), _fmt(band)),
            file=sys.stderr,
        )
        return EXIT_BAND
    return EXIT_OK


@_numeric
def _cmd_converge(args):
    vp = validate(load_problem(args.problem))
    label, measure = _MEASURES[args.mode]
    report = convergence_study(vp, args.N, getattr(analysis, measure))
    if args.json:
        payload = {"mode": label, **dataclasses.asdict(report)}
        _emit([json.dumps(payload, indent=2)], args.out)
    else:
        lines = ["# mode = %s" % label, "eps_label,N,D,p,C_fit"]
        _study_lines(lines, report.eps_label, report.rows)
        _emit(lines, args.out)
    return _band_gate(report.rows, args.min_p, "observed")


@_numeric
def _cmd_sweep(args):
    spec = load_problem(args.problem)
    grid = default_eps_grid(spec.n) if args.eps_grid == "default" else args.eps_grid
    label, measure = _MEASURES[args.mode]
    sweep = uniform_sweep(spec, grid, args.N, getattr(analysis, measure))
    if args.json:
        payload = {"mode": label, **dataclasses.asdict(sweep)}
        _emit([json.dumps(payload, indent=2)], args.out)
    else:
        lines = ["# mode = %s" % label, "eps_label,N,D,p,C_fit"]
        for report in sweep.reports:
            _study_lines(lines, report.eps_label, report.rows)
        _study_lines(lines, "uniform", sweep.uniform)
        _emit(lines, args.out)
    return _band_gate(sweep.uniform, args.min_p_uniform, "robust")


def _add_problem_options(sub):
    sub.add_argument("--problem", required=True, help="problem file (JSON)")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="layerode",
        description="Layer-adapted implicit solver for stiff linear ODE systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a problem file and report alpha")
    _add_problem_options(p)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("mesh", help="emit mesh points and widths as CSV")
    _add_problem_options(p)
    p.add_argument("--N", required=True, type=int, help="number of mesh intervals")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(func=_cmd_mesh)

    p = sub.add_parser("solve", help="solve and emit the grid as CSV")
    _add_problem_options(p)
    p.add_argument("--N", required=True, type=int, help="number of mesh intervals")
    p.add_argument("--decompose", action="store_true",
                   help="append smooth (V) and layer (W) columns")
    p.add_argument("--certify", action="store_true",
                   help="add nonnegativity and stability certificates to the header")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("converge", help="convergence study for one problem")
    _add_problem_options(p)
    p.add_argument("--N", required=True, type=_int_list,
                   help="doubling mesh sizes, comma separated")
    p.add_argument("--mode", choices=_MEASURES, default="two_mesh",
                   help="error measure (default %(default)s)")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--min-p", type=_band_arg, default=None,
                   help="exit 5 if the smallest observed order is below this")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(func=_cmd_converge)

    p = sub.add_parser("sweep", help="convergence studies across a parameter grid")
    _add_problem_options(p)
    p.add_argument("--N", required=True, type=_int_list,
                   help="doubling mesh sizes, comma separated")
    p.add_argument("--mode", choices=_MEASURES, default="two_mesh",
                   help="error measure (default %(default)s)")
    p.add_argument("--eps-grid", type=_eps_grid_arg, default="default",
                   help="'default' or groups like '0.015625,0.25;0.0625,1'")
    # Accepted and ignored: sweeps run in one process.
    p.add_argument("--jobs", type=int, default=1, help=argparse.SUPPRESS)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--min-p-uniform", type=_band_arg, default=None,
                   help="exit 5 if the smallest robust order is below this")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ProblemValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ProblemFormatError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (RuntimeError, ValueError) as exc:
        # MeshError, SolveFailureError and LinAlgError come from numpy-backed
        # modules. validate can raise LinAlgError before any of them was
        # bound: the roots of a quadratic or higher derivative are numpy's.
        _bind_numeric()
        if isinstance(exc, MeshError):
            print(f"mesh error: {exc}", file=sys.stderr)
            return EXIT_MESH
        if isinstance(exc, (SolveFailureError, np.linalg.LinAlgError)):
            print(f"numerical error: {exc}", file=sys.stderr)
            return EXIT_NUMERICAL
        if isinstance(exc, ValueError):  # OracleUnavailableError among them
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_PARSE
        raise


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
