"""Command-line driver: exit codes, CSV shape and byte-level determinism."""

import csv
import io
import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import cases
import layerode
from layerode.analysis import default_eps_grid, eps_label
from layerode.cli import (
    EXIT_BAND,
    EXIT_CERTIFICATE,
    EXIT_MESH,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_VALIDATION,
    _csv_line,
    _fmt,
    main,
)
from layerode.mesh import build_mesh
from layerode.problem import load_problem, validate
from layerode.solver import decompose, solve

PROBLEMS = sorted(cases.PROBLEMS.glob("*.json"))


def _write_problem(tmp_path, spec, **edits):
    # spec's JSON layout with the given keys replaced or added
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({**asdict(spec), **edits}), encoding="utf-8")
    return str(path)


def _rows(text):
    data_lines = [line for line in text.splitlines() if not line.startswith("#")]
    return list(csv.reader(io.StringIO("\n".join(data_lines))))


def test_validate_reports_alpha(tmp_path, capsys):
    path = _write_problem(tmp_path, cases.constant_two_scale())
    assert main(["validate", "--problem", path]) == EXIT_OK
    assert capsys.readouterr().out == "alpha = 2\n"


def test_validate_json_payload(tmp_path, capsys):
    path = _write_problem(tmp_path, cases.variable_three_scale())
    assert main(["validate", "--problem", path, "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["alpha"] == 2.0
    assert payload["n"] == 3


def test_missing_problem_file_is_a_usage_error(tmp_path, capsys):
    # a missing file and a directory each give the one line of open()'s error
    for path in (str(tmp_path / "nope.json"), str(tmp_path)):
        assert main(["validate", "--problem", path]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: [Errno ")
        assert captured.err.endswith(": '%s'\n" % path)
        assert captured.err.count("\n") == 1


# A 401-digit JSON integer reads as inf, as 1e400 would: T must be finite
# (exit 2), and an eps of inf is out of range (exit 3).
@pytest.mark.parametrize("key,value,code,err", [
    ("plot", True, EXIT_PARSE, "error: unknown problem key(s): plot"),
    ("u0", "00", EXIT_PARSE, "error: initial value must be a sequence, got '00'"),
    ("u0", {"a": 0, "b": 0}, EXIT_PARSE,
     "error: initial value must be a sequence, got {'a': 0, 'b': 0}"),
    ("T", True, EXIT_PARSE, "error: horizon T must be a number, got True"),
    ("n", 2.7, EXIT_PARSE, "error: system size n must be an integer, got 2.7"),
    ("T", 10 ** 400, EXIT_PARSE, "error: horizon T must be finite, got inf"),
    ("eps", [10 ** 400, 0.5], EXIT_VALIDATION,
     "validation error: perturbation parameter 1 is inf, expected a value in (0, 1]"),
], ids=["unknown_key", "string_number", "object_sequence", "bool_number",
        "fractional_system_size", "big_int_T", "big_int_eps"])
def test_malformed_problem_exits_2(tmp_path, capsys, key, value, code, err):
    path = _write_problem(tmp_path, cases.constant_two_scale(), **{key: value})
    assert main(["validate", "--problem", path]) == code
    assert capsys.readouterr() == ("", err + "\n")


def test_mesh_csv_round_trips_points(tmp_path, capsys):
    spec = cases.layer_two_scale()
    path = _write_problem(tmp_path, spec)
    assert main(["mesh", "--problem", path, "--N", "16"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("# sigmas = ")
    rows = _rows(out)
    assert rows[0] == ["j", "t_j", "delta_j"]
    assert rows[1] == ["0", "0", ""]
    mesh = build_mesh(validate(spec), 16)
    points = [float(row[1]) for row in rows[1:]]
    assert points == mesh.points.tolist()
    deltas = [float(row[2]) for row in rows[2:]]
    assert deltas == mesh.deltas.tolist()


def test_broken_mesh_geometry_exits_4(tmp_path, capsys):
    # the problem of test_mesh::test_geometry_guard_rejects_repeated_points
    path = _write_problem(tmp_path, cases.constant_two_scale(eps=(5e-324, 1.0)))
    assert main(["mesh", "--problem", path, "--N", "64"]) == EXIT_MESH
    assert capsys.readouterr() == ("", "mesh error: mesh points are not strictly increasing\n")


def test_solve_csv_matches_library(tmp_path, capsys):
    spec = cases.constant_two_scale()
    path = _write_problem(tmp_path, spec)
    assert main(["solve", "--problem", path, "--N", "16", "--certify"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "# max_principle = ok" in out
    assert "# stability_ok = true" in out
    rows = _rows(out)
    assert rows[0] == ["j", "t_j", "U_1", "U_2"]
    grid = solve(validate(spec), 16)
    values = np.array([[float(row[2]), float(row[3])] for row in rows[1:]])
    assert np.array_equal(values, grid.values)


def test_solve_decompose_adds_part_columns(tmp_path, capsys):
    path = _write_problem(tmp_path, cases.layer_two_scale())
    assert main(["solve", "--problem", path, "--N", "16", "--decompose"]) == EXIT_OK
    rows = _rows(capsys.readouterr().out)
    assert rows[0] == ["j", "t_j", "U_1", "U_2", "V_1", "V_2", "W_1", "W_2"]
    for row in rows[1:]:
        u, v, w = float(row[2]), float(row[4]), float(row[6])
        assert abs(u - (v + w)) <= 1e-10 * (1.0 + abs(u))


def test_solve_output_is_deterministic(tmp_path, capsys):
    path = _write_problem(tmp_path, cases.variable_three_scale())
    assert main(["solve", "--problem", path, "--N", "8"]) == EXIT_OK
    first = capsys.readouterr().out
    assert main(["solve", "--problem", path, "--N", "8"]) == EXIT_OK
    assert capsys.readouterr().out == first


def test_out_file_matches_stdout_with_lf_endings(tmp_path, capsys):
    path = _write_problem(tmp_path, cases.layer_two_scale())
    target = tmp_path / "mesh.csv"
    assert main(["mesh", "--problem", path, "--N", "8", "--out", str(target)]) == EXIT_OK
    capsys.readouterr()
    assert main(["mesh", "--problem", path, "--N", "8"]) == EXIT_OK
    piped = capsys.readouterr().out
    data = target.read_bytes()
    assert b"\r" not in data
    assert data.decode("utf-8") == piped


def test_converge_band_gate(tmp_path, capsys):
    path = _write_problem(tmp_path, cases.decay_scalar())
    args = ["converge", "--problem", path, "--N", "16,32,64", "--mode", "exact"]
    assert main(args + ["--min-p", "0.5"]) == EXIT_OK
    capsys.readouterr()
    assert main(args + ["--min-p", "2.0"]) == EXIT_BAND
    assert "below the requested band" in capsys.readouterr().err


def test_converge_band_gate_fails_when_order_absent(tmp_path, capsys):
    path = _write_problem(tmp_path, cases.steady_scalar())
    args = ["converge", "--problem", path, "--N", "8,16", "--min-p", "0.5"]
    assert main(args) == EXIT_BAND
    capsys.readouterr()


def test_converge_exact_mode_needs_constant_coefficients(tmp_path, capsys):
    path = _write_problem(tmp_path, cases.variable_three_scale())
    args = ["converge", "--problem", path, "--N", "16,32", "--mode", "exact"]
    assert main(args) == EXIT_PARSE
    assert "two_mesh" in capsys.readouterr().err


def test_converge_json_rows(tmp_path, capsys):
    path = _write_problem(tmp_path, cases.decay_scalar())
    args = ["converge", "--problem", path, "--N", "16,32", "--mode", "exact", "--json"]
    assert main(args) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["mode"] == "exact_oracle"
    assert [row["N"] for row in payload["rows"]] == [16, 32]
    assert payload["rows"][1]["p"] is None


def test_sweep_uniform_rows_and_custom_grid(tmp_path, capsys):
    path = _write_problem(tmp_path, cases.constant_two_scale())
    args = [
        "sweep", "--problem", path, "--N", "16,32", "--mode", "exact",
        "--eps-grid", "0.0001,0.01;0.0625,0.25",
    ]
    assert main(args) == EXIT_OK
    out = capsys.readouterr().out
    rows = _rows(out)
    labels = {row[0] for row in rows[1:]}
    assert "uniform" in labels
    assert len([row for row in rows[1:] if row[0] == "uniform"]) == 2


def test_sweep_runs_the_default_grid(tmp_path, capsys):
    path = _write_problem(tmp_path, cases.constant_two_scale())
    assert main(["sweep", "--problem", path, "--N", "16,32"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("# mode = two_mesh\n")
    labels = [row[0] for row in _rows(out)[1:]]
    expected = sorted(default_eps_grid(2))
    assert labels == [eps_label(eps) for eps in expected for _ in (16, 32)] + ["uniform"] * 2


def test_sweep_json_payload(tmp_path, capsys):
    path = _write_problem(tmp_path, cases.constant_two_scale())
    args = [
        "sweep", "--problem", path, "--N", "16,32", "--mode", "exact",
        "--eps-grid", "0.0001,0.01;0.0625,0.25", "--json",
    ]
    assert main(args) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert list(payload) == ["mode", "reports", "uniform"]
    assert payload["mode"] == "exact_oracle"
    assert [report["eps_label"] for report in payload["reports"]] == ["0.0001,0.01", "2^-4,2^-2"]
    for rows in [report["rows"] for report in payload["reports"]] + [payload["uniform"]]:
        assert [list(row) for row in rows] == [["N", "error", "p", "c_fit"]] * 2
        assert [row["N"] for row in rows] == [16, 32]
        assert rows[1]["p"] is None
    assert payload["uniform"][0]["error"] == max(
        report["rows"][0]["error"] for report in payload["reports"]
    )


def test_sweep_jobs_do_not_change_output(tmp_path, capsys):
    path = _write_problem(tmp_path, cases.constant_two_scale())
    args = [
        "sweep", "--problem", path, "--N", "16,32", "--mode", "exact",
        "--eps-grid", "0.0001,0.01;0.0625,0.25;0.125,0.5",
    ]
    assert main(args) == EXIT_OK
    sequential = capsys.readouterr().out
    assert main(args + ["--jobs", "2"]) == EXIT_OK
    assert capsys.readouterr().out == sequential


SRC = str(Path(layerode.__file__).resolve().parent.parent)


def _modules_after(code):
    # the modules a fresh interpreter has loaded once it ran code (with src
    # importable); lines that code prints come along and match no module
    code = "import sys; sys.path.insert(0, %r); %s; print(*sys.modules, sep='\\n')" % (SRC, code)
    done = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=60, check=True)
    return set(done.stdout.splitlines())


@pytest.mark.parametrize("code", ["import layerode", "import layerode.cli"],
                         ids=["package", "cli"])
def test_cli_import_loads_no_process_machinery(code):
    # nor numpy, which the validate command does without
    loaded = _modules_after(code)
    assert sorted({"concurrent.futures", "multiprocessing", "numpy"} & loaded) == []


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("problem", PROBLEMS, ids=lambda p: p.stem)
def test_validate_runs_without_numpy(problem, flags):
    # -X importtime lists every module the command imports on stderr
    argv = ["-X", "importtime", "-m", "layerode.cli", "validate", "--problem", str(problem)]
    done = subprocess.run([sys.executable] + argv + flags, env={**os.environ, "PYTHONPATH": SRC},
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.startswith('{"alpha": 2.0' if flags else "alpha = 2")
    imported = {line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()}
    assert "layerode.problem" in imported
    assert "numpy" not in imported


def test_validate_finds_cubic_extrema_with_numpy(tmp_path):
    # the derivative of 3 - t^2 + t^3 is a quadratic: its roots are numpy's
    # eigenvalues; the first row sum 2 - t^2 + t^3 is smallest, 50/27, at
    # t = 2/3
    spec = cases.constant_two_scale()
    path = _write_problem(tmp_path, spec, A=[[[3, 0, -1, 1], [-1]], [[-1], [3]]])
    code = ("from layerode.cli import main; assert main(['validate', '--problem', %r]) == 0"
            % path)
    assert "numpy" in _modules_after(code)
    assert validate(load_problem(path)).alpha == pytest.approx(50 / 27, rel=1e-14)


def test_sweep_band_gate(tmp_path, capsys):
    path = _write_problem(tmp_path, cases.constant_two_scale())
    args = [
        "sweep", "--problem", path, "--N", "16,32", "--mode", "exact",
        "--eps-grid", "0.0001,0.01", "--min-p-uniform", "2.0",
    ]
    assert main(args) == EXIT_BAND
    capsys.readouterr()


# A closed-form propagator outside its bounds fails the study; without the
# check its rows would print (orders near -16 at 2^-70), and at 1e-300 the
# orders would be nan, which passes any band (nan < band is False). numpy's
# warnings about the overflow must not reach stderr.
@pytest.mark.parametrize("args", [
    ["converge", "--N", "128,256", "--mode", "exact"],
    ["sweep", "--N", "128,256", "--mode", "exact",
     "--eps-grid", "%r,%r;0.0001,0.01" % (2.0 ** -70, 2.0 ** -60)],
    ["sweep", "--N", "16,32", "--mode", "exact",
     "--eps-grid", "1e-300,1e-200", "--min-p-uniform", "0.7"],
], ids=["converge", "sweep", "sweep_band"])
def test_closed_form_outside_bounds_exits_6(tmp_path, capsys, args):
    path = _write_problem(tmp_path, cases.constant_two_scale(),
                          eps=[2.0 ** -70, 2.0 ** -60])
    assert main([args[0], "--problem", path] + args[1:]) == EXIT_NUMERICAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical error: closed-form propagator at t=")
    assert captured.err.count("\n") == 1


OVERFLOWING_GENERATOR = {"n": 2, "T": 1.0, "eps": [1e-300, 1e-200], "u0": [0, 0],
                         "A": [[1e10, -1], [-1, 1e10]], "f": [1, 1]}
OVERFLOWING_REDUCED_VALUE = {"n": 1, "T": 2e10, "eps": [1.0], "u0": [0],
                             "A": [[[1e-10, 1.0]]], "f": [1e300]}

# (problem file data, arguments after --problem FILE, exit code, the one
# stderr line); numpy warns while computing each, and none of that may
# reach stderr. The second problem is admissible (its first row sum is
# exactly 2), but its entries of order 1e308 t^2 overflow in the step
# matrices; the first step whose residual is nan fails. The last two are
# admissible and solve, but 1e10 / 1e-300 overflows the closed form's
# generator -t E^-1 A, and A(0)^-1 f(0) = 1e310 overflows the smooth part's
# initial value.
NON_FINITE_CASES = [
    ({**asdict(cases.constant_two_scale()), "u0": [1e308, 1e308]},
     ["solve", "--N", "16"], EXIT_NUMERICAL,
     "numerical error: step 1 solve residual nan exceeds tolerance\n"),
    ({"n": 2, "T": 10.0, "eps": [0.0001, 0.01], "u0": [0, 0],
      "A": [[[3, 0, 1e308], [-1, 0, -1e308]], [-1, 3]], "f": [2, 2]},
     ["solve", "--N", "16"], EXIT_NUMERICAL,
     "numerical error: step 10 solve residual nan exceeds tolerance\n"),
    (OVERFLOWING_GENERATOR, ["converge", "--mode", "exact", "--N", "128,256"],
     EXIT_NUMERICAL,
     "numerical error: closed-form generator -t E^-1 A is not finite (row norm nan)\n"),
    (OVERFLOWING_REDUCED_VALUE, ["solve", "--N", "16", "--decompose"], EXIT_NUMERICAL,
     "numerical error: reduced initial value A(0)^-1 f(0) is not finite\n"),
]


@pytest.mark.parametrize("data,args,code,err", NON_FINITE_CASES,
                         ids=["overflowing_u0", "overflowing_A",
                              "overflowing_generator", "overflowing_reduced_value"])
def test_non_finite_values_fail_closed(tmp_path, capsys, data, args, code, err):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main([args[0], "--problem", str(path)] + args[1:]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == err


@pytest.mark.parametrize("data,args", [
    (OVERFLOWING_GENERATOR, ["solve", "--N", "16"]),
    (OVERFLOWING_GENERATOR, ["converge", "--N", "128,256"]),
    (OVERFLOWING_REDUCED_VALUE, ["solve", "--N", "16"]),
], ids=["generator_solve", "generator_two_mesh", "reduced_value_solve"])
def test_overflows_outside_a_command_leave_it_working(tmp_path, capsys, data, args):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main([args[0], "--problem", str(path)] + args[1:]) == EXIT_OK
    assert capsys.readouterr().err == ""


def test_cancelling_entries_validate_exactly(tmp_path, capsys):
    # The first row sum is the polynomial 1, although its sampled entries
    # 1 + 1e17 and -1e17 sum to 0 at t = 1. With entries of order 1e17 the
    # step residuals reach ~30, but the solves are backward stable, so the
    # residual guard, scaled by |M_j| |U_j|, passes them.
    path = _write_problem(tmp_path, cases.constant_two_scale(),
                          A=[[[1, 0, 1e17], [0, 0, -1e17]], [-1, 3]])
    assert main(["validate", "--problem", path]) == EXIT_OK
    assert capsys.readouterr() == ("alpha = 1\n", "")
    args = ["solve", "--problem", path, "--N", "16", "--decompose", "--certify"]
    assert main(args) == EXIT_OK
    captured = capsys.readouterr()
    assert len(_rows(captured.out)) == 18  # the header and U_0 .. U_16
    assert captured.err == ""


@pytest.mark.parametrize("args", [
    ["mesh", "--N", "x"],
    ["converge", "--N", "16,x"],
    ["converge", "--N", ","],
    ["sweep", "--N", "16,32", "--eps-grid", "0.1,a"],
    ["converge", "--N", "16,32", "--min-p", "zz"],
], ids=["N", "N_list", "N_empty", "eps_grid", "min_p"])
def test_malformed_option_text_exits_2(capsys, args):
    source = cases.PROBLEMS / "constant_two_scale.json"
    assert main([args[0], "--problem", str(source)] + args[1:]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: argument --" in captured.err


@pytest.mark.parametrize("command", ["mesh", "solve"])
def test_mesh_too_large_for_memory_exits_2(capsys, command):
    # 2^60 intervals ask numpy for exbibytes, which it refuses before
    # touching any memory
    source = cases.PROBLEMS / "constant_two_scale.json"
    assert main([command, "--problem", str(source), "--N", str(2 ** 60)]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("command,flag", [
    ("converge", "--min-p"),
    ("sweep", "--min-p-uniform"),
])
@pytest.mark.parametrize("band", ["nan", "inf", "-inf"])
def test_non_finite_band_is_rejected(tmp_path, capsys, command, flag, band):
    # every order compares False against nan, which would let the gate pass
    path = _write_problem(tmp_path, cases.constant_two_scale())
    args = [command, "--problem", path, "--N", "16,32", "%s=%s" % (flag, band)]
    assert main(args) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "band must be a finite number: %s" % band in captured.err


def _table_tail(text, header):
    # Lines after the column header; comment and header lines are left out.
    lines = text.split("\n")
    return lines[lines.index(header) + 1:]


@pytest.mark.parametrize("problem", PROBLEMS, ids=lambda p: p.stem)
def test_table_output_matches_per_row_formatter(problem, capsys):
    # Reference: one csv.writer row per mesh point, as the output layer
    # was written before it formatted whole tables at once.
    vp = validate(load_problem(str(problem)))
    n, N = vp.spec.n, 256
    mesh = build_mesh(vp, N)

    assert main(["mesh", "--problem", str(problem), "--N", str(N)]) == EXIT_OK
    expected = [_csv_line(["0", _fmt(mesh.points[0]), ""])]
    expected += [_csv_line([j, _fmt(mesh.points[j]), _fmt(mesh.deltas[j - 1])])
                 for j in range(1, N + 1)]
    assert _table_tail(capsys.readouterr().out, "j,t_j,delta_j") == expected + [""]

    args = ["solve", "--problem", str(problem), "--N", str(N), "--decompose", "--certify"]
    assert main(args) == EXIT_OK
    grid = solve(vp, N)
    parts = decompose(vp, mesh)
    expected = []
    for j in range(N + 1):
        fields = [j, _fmt(mesh.points[j])]
        for values in (grid.values, parts.smooth.values, parts.singular.values):
            fields += [_fmt(values[j, i]) for i in range(n)]
        expected.append(_csv_line(fields))
    header = ",".join(["j", "t_j"] + ["%s_%d" % (part, i + 1)
                                      for part in "UVW" for i in range(n)])
    assert _table_tail(capsys.readouterr().out, header) == expected + [""]


def _fail_certificate(monkeypatch):
    monkeypatch.setattr("layerode.cli.certify_max_principle", lambda grid: False)


def _zero_residual_tolerance(monkeypatch):
    monkeypatch.setattr("layerode.solver.STEP_RESIDUAL_RTOL", 0.0)


def _bad_sign(text):
    data = json.loads(text)
    data["A"] = [[[3.0], [1.0]], [[-1.0], [3.0]]]
    return json.dumps(data)


# (exit code, start of its one stderr line, edit of the problem file text
#  or None to use problems/constant_two_scale.json as is, arguments after
#  --problem FILE, fault injected into the CLI)
EXIT_CASES = [
    (EXIT_OK, "", None, ["validate"], None),
    (EXIT_CERTIFICATE, "error: ", None, ["solve", "--N", "16", "--certify"], _fail_certificate),
    (EXIT_PARSE, "error: ", lambda text: "{", ["validate"], None),
    (EXIT_VALIDATION, "validation error: ", _bad_sign, ["validate"], None),
    (EXIT_MESH, "mesh error: ", None, ["mesh", "--N", "6"], None),
    (EXIT_BAND, "error: ", None,
     ["converge", "--N", "16,32", "--mode", "exact", "--min-p", "2.0"], None),
    (EXIT_NUMERICAL, "numerical error: ", None, ["solve", "--N", "64"],
     _zero_residual_tolerance),
]


def test_every_exit_code(tmp_path, capsys, monkeypatch):
    source = cases.PROBLEMS / "constant_two_scale.json"
    for code, prefix, edit, args, fault in EXIT_CASES:
        path = source
        if edit is not None:
            path = tmp_path / "edited.json"
            path.write_text(edit(source.read_text(encoding="utf-8")), encoding="utf-8")
        with monkeypatch.context() as patch:
            if fault is not None:
                fault(patch)
            argv = [args[0], "--problem", str(path)] + args[1:]
            assert main(argv) == code, (code, args)
        lines = capsys.readouterr().err.splitlines(keepends=True)
        assert len(lines) == (code != EXIT_OK), (code, lines)
        assert all(line.startswith(prefix) and line.endswith("\n") for line in lines), lines
    assert sorted(case[0] for case in EXIT_CASES) == list(range(7))
    assert "step 1 solve residual" in lines[0]


def test_linalg_error_exits_6(capsys, monkeypatch):
    # A singular matrix inside numpy's linear algebra is a numerical
    # failure, not an input error, although LinAlgError is a ValueError.
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr("layerode.cli.solve", singular)
    source = cases.PROBLEMS / "constant_two_scale.json"
    assert main(["solve", "--problem", str(source), "--N", "16"]) == EXIT_NUMERICAL
    assert capsys.readouterr().err == "numerical error: Singular matrix\n"
