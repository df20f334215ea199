"""Command line front end.

Subcommands: validate a problem file, emit a mesh, solve (optionally with
the smooth/layer split and certificates), and run convergence studies for
one parameter choice (converge) or across a parameter grid (sweep).

Exit codes: 0 ok, 1 solve certificate failure, 2 unreadable (also missing)
or malformed input, a usage error or a mesh too large for memory, 3 problem
validation failure, 4 mesh construction failure, 5 requested convergence
band not met, 6 numerical failure (a step's value U_j, right-hand side b_j,
matrix M_j or product M_j U_j overflowed, which the message names, a step's
residual was not finite or failed the fixed 1e-12 backward-error guard, a
study's error was not finite, a closed-form propagator left its bounds, the
closed form's generator -t E^-1 A, the smooth part's initial value
A(0)^-1 f(0), the layer part's u(0) - A(0)^-1 f(0) or the stability
certificate's bound overflowed, or numpy's linear algebra reported a
singular matrix). Every failure leaves through _fail, which prints its one
stderr line, led by the code's prefix; a usage error is one such line too,
with no usage block.
numpy's floating-point warnings are silenced, since each of those failures
has its exit code. Text and CSV output write numbers with 17 significant
digits, and --json output with Python's shortest round-trip repr (2.0, not
2); either way output is byte-identical across runs and floats round-trip
exactly. Output is written block by block as it is formatted; if the reader
closes stdout early (as `| head` does), the rest is dropped without a
message and the command returns the exit code it would have returned.

validate needs only the problem module, which loads no numpy. Every other
subcommand imports what it runs when it runs, from the module that defines
it, so a wrapper or test double set on that module sees every call.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import itertools
import json
import math
import os
import sys

from .problem import ProblemFormatError, ProblemValidationError, load_problem, validate

EXIT_OK = 0
EXIT_CERTIFICATE = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_MESH = 4
EXIT_BAND = 5
EXIT_NUMERICAL = 6

# --mode value -> (printed mode label, name of its error measure in
# layerode.analysis)
_MEASURES = {"exact": ("exact_oracle", "exact_error"),
             "two_mesh": ("two_mesh", "two_mesh_difference")}


def _fail(code, message):
    """Print a failing exit's one stderr line, message after the prefix of
    its code, and return the code."""
    prefix = {EXIT_VALIDATION: "validation error", EXIT_MESH: "mesh error",
              EXIT_NUMERICAL: "numerical error"}.get(code, "error")
    print("%s: %s" % (prefix, message), file=sys.stderr)
    return code


class _Parser(argparse.ArgumentParser):
    """The parser of layerode and its subcommands: a usage error is one
    stderr line, with no usage block, and exit 2."""

    def error(self, message):
        sys.exit(_fail(EXIT_PARSE, message))


def _numeric(command):
    """A numpy-backed subcommand: it runs with numpy's floating-point
    warnings off. Overflow and invalid operations are not reported as
    warnings: every non-finite result fails a check and exits with its own
    code."""
    def run(args):
        import numpy as np

        with np.errstate(all="ignore"):
            return command(args)
    return run


def _fmt(x):
    return format(float(x), ".17g")


def _csv_line(fields):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow([str(f) for f in fields])
    return buf.getvalue()


def _table_lines(first, columns):
    """CSV rows of a numeric table given as its columns, each an array with
    one entry or one row of entries per table row: the row number, counted
    from first, then the columns with 17 significant digits like _fmt.
    Blocks of 256 rows are taken from the columns and formatted one at a
    time, with one row format each, so neither the whole table nor the
    Python floats of more than one block are held; each yielded string
    holds one block."""
    import numpy as np

    for start in range(0, len(columns[0]), 256):
        parts = [column[start:start + 256] for column in columns]
        block = np.column_stack([np.arange(first + start, first + start + len(parts[0]))] + parts)
        row = ",".join(["%d"] + ["%.17g"] * (block.shape[1] - 1))
        yield "\n".join([row] * len(block)) % tuple(block.ravel().tolist())


def _emit(lines, out_path):
    """Write each of lines, ended by a newline, to out_path, or to stdout
    when it is None or "-", as it is produced. If the reader of stdout
    closes it early, the rest of the output is dropped: stdout is pointed at
    os.devnull, so that the interpreter's final flush cannot raise either,
    and the command goes on to its own exit code."""
    if out_path is not None and out_path != "-":
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            for line in lines:
                fh.write(line + "\n")
        return
    try:
        for line in lines:
            sys.stdout.write(line + "\n")
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


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
        line = json.dumps({"alpha": vp.alpha, "n": spec.n, "T": spec.T,
                           "eps": list(spec.eps)})
    else:
        line = "alpha = %s" % _fmt(vp.alpha)
    _emit([line], None)
    return EXIT_OK


@_numeric
def _cmd_mesh(args):
    from .mesh import build_mesh

    vp = validate(load_problem(args.problem))
    mesh = build_mesh(vp, args.N)
    lines = [
        "# sigmas = " + ",".join(_fmt(s) for s in mesh.sigmas),
        "# b = " + ",".join(str(bit) for bit in mesh.b),
        "j,t_j,delta_j",
        "0,%s," % _fmt(mesh.points[0]),
    ]
    rows = _table_lines(1, [mesh.points[1:], mesh.deltas])
    _emit(itertools.chain(lines, rows), args.out)
    return EXIT_OK


@_numeric
def _cmd_solve(args):
    from .solver import certify, decompose, solve

    vp = validate(load_problem(args.problem))
    grid = solve(vp, args.N)
    mesh = grid.mesh
    n = vp.spec.n
    lines = ["# alpha = %s" % _fmt(vp.alpha)]
    certificates_ok = True
    if args.certify:
        cert = certify(grid)
        certificates_ok = cert.max_principle and cert.stability_ok
        lines += [
            "# max_principle = %s" % ("ok" if cert.max_principle else "violated"),
            "# stability_bound = %s" % _fmt(cert.stability_bound),
            "# stability_max_norm = %s" % _fmt(cert.stability_max_norm),
            "# stability_ok = %s" % ("true" if cert.stability_ok else "false"),
        ]
    header = ["j", "t_j"] + ["U_%d" % (i + 1) for i in range(n)]
    columns = [mesh.points, grid.values]
    if args.decompose:
        parts = decompose(vp, mesh)
        header += ["%s_%d" % (part, i + 1) for part in "VW" for i in range(n)]
        columns += [parts.smooth.values, parts.singular.values]
    lines.append(_csv_line(header))
    _emit(itertools.chain(lines, _table_lines(0, columns)), args.out)
    if not certificates_ok:
        return _fail(EXIT_CERTIFICATE, "a solve certificate failed; see the header comments")
    return EXIT_OK


def _emit_study(args, result, studies):
    """Write a converge or sweep result: with --json, the library's report
    after a mode key; otherwise one CSV row per mesh size of each (eps
    label, rows) pair in studies."""
    label = _MEASURES[args.mode][0]
    if args.json:
        lines = [json.dumps({"mode": label, **dataclasses.asdict(result)}, indent=2)]
    else:
        lines = ["# mode = %s" % label, "eps_label,N,D,p,C_fit"]
        lines += [_csv_line([eps, row.N, _fmt(row.error),
                             "" if row.p is None else _fmt(row.p), _fmt(row.c_fit)])
                  for eps, rows in studies for row in rows]
    _emit(lines, args.out)


def _band_gate(rows, band, what):
    """EXIT_BAND, with a message on stderr, if the smallest order present in
    rows is below band or no order is present; EXIT_OK otherwise or when no
    band was requested."""
    worst = min((row.p for row in rows if row.p is not None), default=None)
    if band is None or (worst is not None and worst >= band):
        return EXIT_OK
    return _fail(EXIT_BAND, "%s order %s is below the requested band %s"
                 % (what, "absent" if worst is None else _fmt(worst), _fmt(band)))


@_numeric
def _cmd_converge(args):
    from . import analysis

    vp = validate(load_problem(args.problem))
    measure = getattr(analysis, _MEASURES[args.mode][1])
    report = analysis.convergence_study(vp, args.N, measure)
    _emit_study(args, report, [(report.eps_label, report.rows)])
    return _band_gate(report.rows, args.min_p, "observed")


@_numeric
def _cmd_sweep(args):
    from . import analysis

    spec = load_problem(args.problem)
    grid = analysis.default_eps_grid(spec.n) if args.eps_grid == "default" else args.eps_grid
    measure = getattr(analysis, _MEASURES[args.mode][1])
    sweep = analysis.uniform_sweep(spec, grid, args.N, measure)
    studies = [(report.eps_label, report.rows) for report in sweep.reports]
    _emit_study(args, sweep, studies + [("uniform", sweep.uniform)])
    return _band_gate(sweep.uniform, args.min_p_uniform, "robust")


def _build_parser():
    # Each option that several subcommands share is declared once, on a
    # parent parser; a subcommand lists its parents, then adds its own.
    problem, out, as_json, size, study = (_Parser(add_help=False) for _ in range(5))
    problem.add_argument("--problem", required=True, help="problem file (JSON)")
    out.add_argument("--out", default=None, help="output path (default stdout)")
    as_json.add_argument("--json", action="store_true", help="machine-readable output")
    size.add_argument("--N", required=True, type=int, help="number of mesh intervals")
    study.add_argument("--N", required=True, type=_int_list,
                       help="doubling mesh sizes, comma separated")
    study.add_argument("--mode", choices=_MEASURES, default="two_mesh",
                       help="error measure (default %(default)s)")

    parser = _Parser(prog="layerode",
                     description="Layer-adapted implicit solver for stiff linear ODE systems.")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("validate", parents=[problem, as_json],
                   help="check a problem file and report alpha").set_defaults(func=_cmd_validate)
    sub.add_parser("mesh", parents=[problem, size, out],
                   help="emit mesh points and widths as CSV").set_defaults(func=_cmd_mesh)

    p = sub.add_parser("solve", parents=[problem, size, out],
                       help="solve and emit the grid as CSV")
    p.add_argument("--decompose", action="store_true",
                   help="append smooth (V) and layer (W) columns")
    p.add_argument("--certify", action="store_true",
                   help="add nonnegativity and stability certificates to the header")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("converge", parents=[problem, study, as_json, out],
                       help="convergence study for one problem")
    p.add_argument("--min-p", type=_band_arg, default=None,
                   help="exit 5 if the smallest observed order is below this")
    p.set_defaults(func=_cmd_converge)

    p = sub.add_parser("sweep", parents=[problem, study, as_json, out],
                       help="convergence studies across a parameter grid")
    p.add_argument("--eps-grid", type=_eps_grid_arg, default="default",
                   help="'default' or groups like '0.015625,0.25;0.0625,1'")
    # Accepted and ignored: sweeps run in one process.
    p.add_argument("--jobs", type=int, default=1, help=argparse.SUPPRESS)
    p.add_argument("--min-p-uniform", type=_band_arg, default=None,
                   help="exit 5 if the smallest robust order is below this")
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # --help, or a usage error already printed
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ProblemValidationError as exc:
        return _fail(EXIT_VALIDATION, exc)
    except (ProblemFormatError, OSError, MemoryError) as exc:
        return _fail(EXIT_PARSE, exc)
    except (RuntimeError, ValueError) as exc:
        # MeshError, SolveFailureError and LinAlgError come from numpy-backed
        # modules, imported on the way out
        from numpy.linalg import LinAlgError

        from .mesh import MeshError
        from .solver import SolveFailureError

        if isinstance(exc, MeshError):
            return _fail(EXIT_MESH, exc)
        if isinstance(exc, (SolveFailureError, LinAlgError)):
            return _fail(EXIT_NUMERICAL, exc)
        if isinstance(exc, ValueError):  # OracleUnavailableError among them
            return _fail(EXIT_PARSE, exc)
        raise


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
