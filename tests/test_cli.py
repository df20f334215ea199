"""Command-line driver: exit codes, CSV shape and byte-level determinism."""

import csv
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import asdict, replace
from fractions import Fraction
from itertools import zip_longest
from pathlib import Path

import numpy as np
import pytest

import cases
import layerode
from layerode.analysis import default_eps_grid, eps_label, uniform_sweep
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
from layerode.problem import (
    ProblemValidationError,
    load_problem,
    problem_from_dict,
    validate,
)
from layerode.solver import certify, decompose, solve

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
    # the problem of test_mesh::test_subnormal_piece_whose_step_rounds_up_is_named[first]
    path = _write_problem(tmp_path, cases.constant_two_scale(eps=(6e-323, 1.0)))
    assert main(["mesh", "--problem", path, "--N", "64"]) == EXIT_MESH
    assert capsys.readouterr() == ("", "mesh error: the first piece [0, sigma_1] is 1.24e-322 "
                                       "wide, too narrow for 16 intervals: their width "
                                       "underflows\n")


def test_step_rounded_wider_than_2T_over_N_exits_4(tmp_path, capsys):
    # the problem of test_mesh::test_step_rounded_wider_than_2T_over_N_is_named
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"n": 1, "T": 2.055e-321, "eps": [2.055e-321], "u0": [1.0],
                                "A": [[2.0]], "f": [0.0]}), encoding="utf-8")
    assert main(["mesh", "--problem", str(path), "--N", "56"]) == EXIT_MESH
    assert capsys.readouterr() == ("", "mesh error: the first piece [0, sigma_1] is 1.03e-321 "
                                       "wide, too narrow for 28 intervals: their width "
                                       "underflows\n")


def test_two_mesh_study_names_a_bisected_piece(tmp_path, capsys):
    # the coarse mesh solves; its bisection repeats four midpoints, whose
    # zero steps would leave U_j non-finite
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"n": 1, "T": 1e-320, "eps": [1.5e-323], "u0": [1.0],
                                "A": [[2.0]], "f": [0.0]}), encoding="utf-8")
    assert main(["solve", "--problem", str(path), "--N", "8", "--out", os.devnull]) == EXIT_OK
    assert capsys.readouterr() == ("", "")
    argv = ["converge", "--problem", str(path), "--mode", "two_mesh", "--N", "8,16"]
    assert main(argv) == EXIT_MESH
    assert capsys.readouterr() == ("", "mesh error: the first piece [0, sigma_1] is 2e-323 "
                                       "wide, too narrow for 8 intervals: their width "
                                       "underflows\n")


@pytest.mark.parametrize("args", [
    ["mesh", "--N", "16"],
    ["solve", "--N", "16"],
    ["converge", "--N", "16,32"],
], ids=["mesh", "solve", "converge"])
def test_underflowing_layer_exits_4_naming_it(tmp_path, capsys, args):
    # admissible with alpha = 1e10, but (eps_1/alpha) ln N underflows to 0
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"n": 1, "T": 1.0, "eps": [1e-320], "u0": [1.0],
                                "A": [[1e10]], "f": [0.0]}), encoding="utf-8")
    assert main([args[0], "--problem", str(path)] + args[1:]) == EXIT_MESH
    assert capsys.readouterr() == ("", "mesh error: the first piece [0, sigma_1] is 0.0 "
                                       "wide, too narrow for 8 intervals: their width "
                                       "underflows\n")


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


@pytest.mark.parametrize("spec,args", [
    (cases.layer_two_scale(), ["mesh", "--N", "8"]),
    # 1033 rows: four whole output blocks and a partial one
    (cases.variable_three_scale(), ["solve", "--N", "1032", "--decompose", "--certify"]),
], ids=["mesh", "solve_blocks"])
def test_out_file_matches_stdout_with_lf_endings(tmp_path, capsys, spec, args):
    argv = [args[0], "--problem", _write_problem(tmp_path, spec)] + args[1:]
    target = tmp_path / "out.csv"
    assert main(argv + ["--out", str(target)]) == EXIT_OK
    capsys.readouterr()
    assert main(argv + ["--out", "-"]) == EXIT_OK
    piped = capsys.readouterr().out
    data = target.read_bytes()
    assert b"\r" not in data
    assert data.decode("utf-8") == piped


def test_solve_output_streams_to_its_file(tmp_path):
    # The table is formatted and written one block at a time, so the traced
    # peak (numpy reports its buffers to tracemalloc) stays below twice the
    # file's size; holding the whole text, or a stacked table, would not.
    source = cases.PROBLEMS / "variable_three_scale.json"
    target = tmp_path / "solve.csv"
    argv = ["solve", "--problem", str(source), "--N", "8192", "--decompose", "--certify",
            "--out", str(target)]
    tracemalloc.start()
    try:
        assert main(argv) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * target.stat().st_size


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


@pytest.mark.parametrize("problem,mode", [("constant_two_scale", "exact"),
                                          ("variable_three_scale", "two_mesh")])
def test_converge_prints_the_rows_of_a_one_entry_sweep(capsys, problem, mode):
    # converge's rows are those of a sweep over the file's own eps, less the
    # uniform rows; with --json its report is the sweep's only one
    source = cases.PROBLEMS / ("%s.json" % problem)
    grid = ",".join(repr(e) for e in load_problem(source).eps)
    args = ["--problem", str(source), "--N", "64,128,256", "--mode", mode]
    out = {}
    for command in (["converge"], ["sweep", "--eps-grid", grid]):
        for flags in ([], ["--json"]):
            assert main(command + args + flags) == EXIT_OK
            out[command[0], bool(flags)] = capsys.readouterr().out
    sweep_lines = out["sweep", False].splitlines(keepends=True)
    assert out["converge", False] == "".join(
        line for line in sweep_lines if not line.startswith("uniform,"))
    sweep = json.loads(out["sweep", True])
    assert len(sweep["reports"]) == 1
    report = {"mode": sweep["mode"], **sweep["reports"][0]}
    assert out["converge", True] == json.dumps(report, indent=2) + "\n"


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


@pytest.mark.parametrize("code", [
    "import layerode",
    "import layerode.cli",
    "import layerode.cli; hasattr(layerode.cli, 'no_such_name')",
], ids=["package", "cli", "cli_missing_name"])
def test_cli_import_loads_no_process_machinery(code):
    # nor numpy, which the validate command does without
    loaded = _modules_after(code)
    assert sorted({"concurrent.futures", "multiprocessing", "numpy"} & loaded) == []


def _command_imports(args):
    # the command's stdout and the modules it imported: -X importtime lists
    # each of them on stderr
    argv = [sys.executable, "-X", "importtime", "-m", "layerode.cli"] + args
    done = subprocess.run(argv, env={**os.environ, "PYTHONPATH": SRC},
                          capture_output=True, text=True, timeout=60, check=True)
    return done.stdout, {line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()}


# a(t) = 2 - 2^-599 t + t^2 has its minimum 2 at t = 2^-600: its derivative's
# two coefficients are 2^600 apart
NARROW_LINE = {"n": 1, "T": 1.0, "eps": [0.01], "u0": [0.0],
               "A": [[[2.0, -2.0 ** -599, 1.0]]], "f": [1.0]}
# a(t) = 2 + t^14 (1 - t)^2 on [0, 1], least at t = 0 and t = 1: a degree-16
# entry whose derivative has the roots 0, 7/8 and 1
DEGREE_16 = {"n": 1, "T": 1.0, "eps": [0.01], "u0": [0.0],
             "A": [[[2.0] + [0.0] * 13 + [1.0, -2.0, 1.0]]], "f": [1.0]}


# a(t) = c0 + c1 t + c2 t^2, least near 1.084e-9 at t = -c1 / (2 c2), which
# is not a double; eps is tiny so that the horizon fits
NEAR_TANGENT = [66173574.63025145, -162694283.40326092, 1e8]
NEAR_TANGENT_ROW = {"n": 1, "T": 1.0, "eps": [1e-300], "u0": [0.0],
                    "A": [[NEAR_TANGENT]], "f": [1.0]}


def _least_at_bracketing_doubles(coeffs):
    # The least value of a(t) = c0 + c1 t + c2 t^2 (c2 > 0) at the two
    # doubles around its minimiser, when that is not a double, rounded once
    c0, c1, c2 = map(Fraction, coeffs)
    root = -c1 / (2 * c2)
    x = float(root)
    assert Fraction(x) != root
    pair = (x, math.nextafter(x, math.inf)) if Fraction(x) < root else (
        math.nextafter(x, -math.inf), x)
    return float(min(c0 + c1 * t + c2 * t * t for t in map(Fraction, pair)))


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("problem, alpha", [(p, 2.0) for p in PROBLEMS] + [
    (NARROW_LINE, 2.0), (DEGREE_16, 2.0),
    (NEAR_TANGENT_ROW, _least_at_bracketing_doubles(NEAR_TANGENT)),
], ids=[p.stem for p in PROBLEMS] + ["narrow_line", "degree_16", "near_tangent"])
def test_validate_runs_without_numpy(problem, alpha, flags, tmp_path):
    if isinstance(problem, dict):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem), encoding="utf-8")
        problem = path
    out, imported = _command_imports(["validate", "--problem", str(problem)] + flags)
    if flags:
        assert json.loads(out)["alpha"] == alpha
    else:
        assert out == "alpha = %s\n" % _fmt(alpha)
    assert "layerode.problem" in imported
    assert not {"numpy", "fractions"} & imported


@pytest.mark.parametrize("args", [["mesh", "--N", "64"],
                                  ["solve", "--N", "64", "--decompose", "--certify"]],
                         ids=["mesh", "solve"])
@pytest.mark.parametrize("problem", PROBLEMS, ids=lambda p: p.stem)
def test_mesh_and_solve_run_without_analysis(problem, args):
    # each subcommand imports only the modules that define what it runs
    out, imported = _command_imports([args[0], "--problem", str(problem)] + args[1:])
    assert out.startswith("# ")
    assert {"numpy", "layerode.mesh"} <= imported
    assert "layerode.analysis" not in imported


def test_closed_stdout_ends_the_output_quietly():
    # The reader takes one line of a 13 MB table and closes the pipe; the
    # rest of the output is dropped and the command exits as it would have.
    source = cases.PROBLEMS / "variable_three_scale.json"
    argv = [sys.executable, "-m", "layerode.cli", "mesh", "--problem", str(source),
            "--N", "262144"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env={**os.environ, "PYTHONPATH": SRC})
    assert proc.stdout.readline().startswith(b"# sigmas = ")
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (EXIT_OK, b"")


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_validate_into_a_closed_pipe_exits_0(json_flag):
    # the reader is gone before the command starts: its one line is dropped
    # and the command exits 0 without a message, as mesh and solve do
    source = cases.PROBLEMS / "constant_two_scale.json"
    argv = [sys.executable, "-m", "layerode.cli", "validate", "--problem", str(source)]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(argv + json_flag, stdout=write_end, stderr=subprocess.PIPE,
                              env={**os.environ, "PYTHONPATH": SRC}, timeout=60)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (EXIT_OK, b"")


def test_validate_finds_cubic_extrema_without_numpy(tmp_path):
    # the derivative of 3 - t^2 + t^3 is a quadratic; the first row sum
    # 2 - t^2 + t^3 is smallest, 50/27, at t = 2/3
    spec = cases.constant_two_scale()
    path = _write_problem(tmp_path, spec, A=[[[3, 0, -1, 1], [-1]], [[-1], [3]]])
    code = ("from layerode.cli import main; assert main(['validate', '--problem', %r]) == 0"
            % path)
    assert "numpy" not in _modules_after(code)
    assert validate(load_problem(path)).alpha == pytest.approx(50 / 27, rel=1e-14)


@pytest.mark.parametrize("grid,code,err", [
    ("0.0078125,0.0078125", EXIT_OK, ""),
    ("0.0078125,0.00390625", EXIT_VALIDATION,
     "validation error: eps grid entry 0.0078125,0.00390625: perturbation parameters "
     "must not decrease, got 0.0078125 before 0.00390625\n"),
], ids=["coincident", "decreasing"])
def test_sweep_accepts_coincident_scales(tmp_path, capsys, grid, code, err):
    path = _write_problem(tmp_path, cases.constant_two_scale())
    args = ["sweep", "--problem", path, "--N", "16,32", "--mode", "exact",
            "--eps-grid", grid]
    assert main(args) == code
    assert capsys.readouterr().err == err


@pytest.mark.parametrize("grid,code,err", [
    ("0.001,0.01;0.1", EXIT_PARSE,
     "error: eps grid entry 0.1: expected 2 perturbation parameters, got 1\n"),
    ("0.001,0.01;0.5,0.25", EXIT_VALIDATION,
     "validation error: eps grid entry 0.5,0.25: perturbation parameters must not "
     "decrease, got 0.5 before 0.25\n"),
], ids=["length", "decreasing"])
def test_sweep_checks_every_entry_before_its_first_study(tmp_path, capsys, monkeypatch,
                                                         grid, code, err):
    # the bad entry sorts last; the error names it and keeps validate's fields
    studies = []
    monkeypatch.setattr("layerode.analysis.convergence_study",
                        lambda *args: studies.append(args))
    path = _write_problem(tmp_path, cases.constant_two_scale())
    assert main(["sweep", "--problem", path, "--N", "16,32", "--eps-grid", grid]) == code
    assert capsys.readouterr() == ("", err)
    assert studies == []
    spec = replace(cases.constant_two_scale(), A=cases.constant_matrix([[1, -2], [-1, 2]]))
    with pytest.raises(ProblemValidationError) as info:
        uniform_sweep(spec, [(0.01, 0.1)], [16], None)
    assert str(info.value).startswith("eps grid entry 0.01,0.1: row 1 of the coefficient ")
    assert (info.value.condition, info.value.row, info.value.col, info.value.t) == (
        "row-dominance", 1, None, 0.0)


def test_file_eps_is_decided_where_it_is_used(tmp_path, capsys):
    # sweep replaces the file's eps by each grid entry, so a decreasing eps
    # in the file does not stop it; every other command validates that eps
    # and exits 3. A malformed field is found while the file is read, before
    # validation, and exits 2.
    spec = cases.constant_two_scale()
    path = _write_problem(tmp_path, spec, eps=[0.5, 0.25])
    study = ["--mode", "exact", "--N", "16,32"]
    assert main(["sweep", "--problem", path] + study + ["--eps-grid", "0.001,0.01"]) == EXIT_OK
    assert capsys.readouterr().err == ""
    err = "validation error: perturbation parameters must not decrease, got 0.5 before 0.25\n"
    for argv in (["validate"], ["mesh", "--N", "16"], ["solve", "--N", "16"],
                 ["converge"] + study):
        assert main([argv[0], "--problem", path] + argv[1:]) == EXIT_VALIDATION, argv
        assert capsys.readouterr() == ("", err), argv
    path = _write_problem(tmp_path, spec, eps=[0.5, 0.25], T=0.0)
    assert main(["validate", "--problem", path]) == EXIT_PARSE
    assert capsys.readouterr() == ("", "error: horizon T must be positive\n")


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
OVERFLOWING_STABILITY_BOUND = {"n": 1, "T": 1.0, "eps": [1e-210], "u0": [0],
                               "A": [[[1e-200, 1.0]]], "f": [1e200]}
# u tends to f / A = 3.4e308, beyond double range
OVERFLOWING_SOLUTION = {"n": 1, "T": 1.0, "eps": [0.001], "u0": [0.0], "A": [[0.5]],
                        "f": [1.7e308]}
# draw 76 of the contract test's seed 6: each map P_j = M_j^-1 eps/delta_j
# underflows to 0, while P_j U_(j-1) would not, so step 5's residual fails
# although a step-by-step solve passes the guard
UNDERFLOWING_MAP = {
    "n": 1, "T": 1.6394248392071187, "eps": [3.80656377151588e-188],
    "u0": [-1.138607658337869e+227],
    "A": [[[7.148285955581805, 7.668161780187622, 4.4209012049772354e+279,
            0.1840428248930749, 4.298513491459002e-151, 0.20033617732861467,
            3.0047116884464646]]],
    "f": [[1.9158692333445774e-195, 3.2480323467598127, 2.2936597626451444e+34,
           5.846933485950721e+30, 0.5298413907738992, 4.4171305727585235,
           2.1880963418932082, 0.4749455824748503, 0.20665269124889687,
           0.6296507246126398, 0.43953259609012435]]}
# draw 48 of the contract test's seed 3: eps_2/delta_1 u0_2 overflows in
# step 1's right-hand side, while U_1 does not
OVERFLOWING_RIGHT_HAND_SIDE = {
    "n": 2, "T": 0.7592310880327728, "eps": [1.2067502332367114e-273, 1.7837037808354022e-31],
    "u0": [-0.10584176373208448, 2.4382057811705725e+214],
    "A": [[[0.3914202505846182, 1.9950048372518734], [-0.13063818195839824]],
          [[-0.18551395328203296], [0.24762575066431963, 0.1081691874098534]]],
    "f": [[2.375625949234346, 0.27035778732598875, 0.197678557992504],
          [-1.1054191343674007, -5.251833338107095e-134, -3.5002759366992096]]}
# draw 70 of the contract test's seed 1: A(t) of degree 13 overflows at
# step 5's time, near T = 2.2e52
OVERFLOWING_STEP_MATRIX = {
    "n": 1, "T": 2.176130640586125e+52, "eps": [3.64550131236179e-150],
    "u0": [2.884622045162836],
    "A": [[[0.3109150516021262, 0.7322397807331463, 1.0422524802801645, 6.260966456050775,
            2.688900125666709, 1.4026229783725856, 0.33184390732342756,
            5.1292147853607553e-306, 0.17473103750001762, 9.358432742585734,
            3.0533150888310664e-92, 4.636915300186782e-68, 4.5615382318833774e-223,
            8.309127108843712e-214]]],
    "f": [[-4.992580631561202e+71]]}
# a_11 U_1 = 1.5e308 U_1 overflows in M_1 U_1, while U_1 (near 10), b_1 and
# M_1 do not
OVERFLOWING_PRODUCT = {"n": 2, "T": 1.0, "eps": [0.5, 1.0], "u0": [10.0, 10.0],
                       "A": [[1.5e308, -1.4e308], [-1.0, 3.0]], "f": [0.0, 0.0]}

# (problem file data, arguments after --problem FILE, exit code, the one
# stderr line); numpy warns while computing each, and none of that may
# reach stderr. The second problem is admissible (its first row sum is
# exactly 2), but its entries of order 1e308 t^2 overflow in the step
# matrices, and the first step whose value is not finite fails. The next
# three are admissible and solve, but 1e10 / 1e-300 overflows the closed
# form's generator -t E^-1 A, A(0)^-1 f(0) = 1e310 overflows the smooth
# part's initial value, and |f| / alpha = 1e400 the stability certificate's
# bound. The rest are the march's own causes of exit 6: the first step
# whose residual is not finite names the term that overflows, and the
# last fails the guard with a finite residual.
NON_FINITE_CASES = [
    ({**asdict(cases.constant_two_scale()), "u0": [1e308, 1e308]},
     ["solve", "--N", "16"], EXIT_NUMERICAL,
     "numerical error: step 1 right-hand side is not finite: "
     "b_j = eps/delta_j U_(j-1) + f(t_j) overflows double range\n"),
    ({"n": 2, "T": 10.0, "eps": [0.0001, 0.01], "u0": [0, 0],
      "A": [[[3, 0, 1e308], [-1, 0, -1e308]], [-1, 3]], "f": [2, 2]},
     ["solve", "--N", "16"], EXIT_NUMERICAL,
     "numerical error: step 10 solution is not finite: U_j overflows double range\n"),
    (OVERFLOWING_GENERATOR, ["converge", "--mode", "exact", "--N", "128,256"],
     EXIT_NUMERICAL,
     "numerical error: closed-form generator -t E^-1 A is not finite (row norm nan)\n"),
    (OVERFLOWING_REDUCED_VALUE, ["solve", "--N", "16", "--decompose"], EXIT_NUMERICAL,
     "numerical error: reduced initial value A(0)^-1 f(0) is not finite\n"),
    (OVERFLOWING_STABILITY_BOUND, ["solve", "--N", "16", "--certify"], EXIT_NUMERICAL,
     "numerical error: stability bound max(|U(0)|, |f| / alpha) is not finite\n"),
    (OVERFLOWING_SOLUTION, ["solve", "--N", "8"], EXIT_NUMERICAL,
     "numerical error: step 2 solution is not finite: U_j overflows double range\n"),
    (OVERFLOWING_RIGHT_HAND_SIDE, ["solve", "--N", "16", "--decompose", "--certify"],
     EXIT_NUMERICAL,
     "numerical error: step 1 right-hand side is not finite: "
     "b_j = eps/delta_j U_(j-1) + f(t_j) overflows double range\n"),
    (OVERFLOWING_STEP_MATRIX, ["solve", "--N", "8", "--decompose", "--certify"],
     EXIT_NUMERICAL,
     "numerical error: step 5 step matrix is not finite: "
     "M_j = diag(eps)/delta_j + A(t_j) overflows double range\n"),
    (OVERFLOWING_PRODUCT, ["solve", "--N", "8"], EXIT_NUMERICAL,
     "numerical error: step 1 product is not finite: M_j U_j overflows double range\n"),
    (UNDERFLOWING_MAP, ["solve", "--N", "8"], EXIT_NUMERICAL,
     "numerical error: step 5 solve residual 1.982e+39 exceeds tolerance\n"),
]


@pytest.mark.parametrize("data,args,code,err", NON_FINITE_CASES,
                         ids=["overflowing_u0", "overflowing_A",
                              "overflowing_generator", "overflowing_reduced_value",
                              "overflowing_stability_bound", "overflowing_solution",
                              "overflowing_right_hand_side", "overflowing_step_matrix",
                              "overflowing_product", "underflowing_map"])
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
    (OVERFLOWING_STABILITY_BOUND, ["solve", "--N", "16"]),
], ids=["generator_solve", "generator_two_mesh", "reduced_value_solve",
        "stability_bound_solve"])
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
    monkeypatch.setattr("layerode.solver.certify",
                        lambda grid: replace(certify(grid), max_principle=False))


def _zero_residual_tolerance(monkeypatch):
    monkeypatch.setattr("layerode.solver.STEP_RESIDUAL_RTOL", 0.0)


def _bad_sign(text):
    data = json.loads(text)
    data["A"] = [[[3.0], [1.0]], [[-1.0], [3.0]]]
    return json.dumps(data)


# (exit code, start of its one stderr line, edit of the problem file text
#  or None to use problems/constant_two_scale.json as is, arguments after
#  --problem FILE, fault injected into the library)
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

    monkeypatch.setattr("layerode.solver.solve", singular)
    source = cases.PROBLEMS / "constant_two_scale.json"
    assert main(["solve", "--problem", str(source), "--N", "16"]) == EXIT_NUMERICAL
    assert capsys.readouterr().err == "numerical error: Singular matrix\n"


# Exit code -> the prefix of its one stderr line
PREFIXES = {code: prefix for code, prefix, *_ in EXIT_CASES}

# a(t) = 1 + 1.7e308 t^4 + 1e-8 t^16 on [0, 1] is admissible with alpha = 1:
# its derivative's leading coefficients overflow and their ratio does too
WIDE_POLY = {"n": 1, "T": 1.0, "eps": [0.01], "u0": [0.0],
             "A": [[[1.0, 0, 0, 0, 1.7e308] + [0] * 11 + [1e-8]]], "f": [1.0]}


def _contract_draw(rng):
    """A random problem document. Coefficients are order one or drawn
    log-uniformly over the doubles, 1e-320 to 1.7e308; off-diagonal entries
    are mostly nonpositive and diagonals positive, so that many draws are
    admissible and reach every command."""
    def magnitude():
        if rng.random() < 0.3:
            return float(10.0 ** rng.uniform(-320.0, 308.23))
        return float(10.0 ** rng.uniform(-1.0, 1.0))

    def entry(sign):
        degree = rng.integers(0, 17) if rng.random() < 0.3 else rng.integers(0, 3)
        return [sign * magnitude() for _ in range(degree + 1)]

    def signed():
        return 1.0 if rng.random() < 0.5 else -1.0

    n = int(rng.integers(1, 5))
    A = [[entry(1.0 if i == j else (-1.0 if rng.random() < 0.9 else 1.0))
          for j in range(n)] for i in range(n)]
    f = [entry(signed()) for _ in range(n)]
    u0 = [signed() * magnitude() for _ in range(n)]
    eps = sorted(float(10.0 ** rng.uniform(-320.0, 0.0)) for _ in range(n))
    if rng.random() < 0.3:
        T = float(10.0 ** rng.uniform(-300.0, 300.0))
    else:
        T = float(rng.uniform(0.5, 4.0))
    return {"n": n, "T": T, "eps": eps, "u0": u0, "A": A, "f": f}


def _contract_commands(data):
    n = data["n"]
    N = 4 * 2 ** n
    sizes = "%d,%d" % (N, 2 * N)
    constant = all(len(p) == 1 for row in data["A"] for p in row) and all(
        len(p) == 1 for p in data["f"])
    mode = "exact" if constant else "two_mesh"
    return [
        ["validate"],
        ["mesh", "--N", str(N)],
        ["solve", "--N", str(N), "--decompose", "--certify"],
        ["converge", "--N", sizes, "--mode", mode],
        ["sweep", "--N", sizes, "--mode", mode,
         "--eps-grid", ",".join(map(repr, data["eps"]))],
    ]


def _assert_contract(path, data, capsys):
    """Run the commands on one problem and check the CLI contract: an exit
    code in 0..6; on exit 0 an empty stderr and only finite numbers out;
    otherwise one stderr line with the code's prefix. Every command
    validates the problem first, so the others run only after validate
    exits 0. Returns the codes."""
    path.write_text(json.dumps(data), encoding="utf-8")
    codes = []
    for args in _contract_commands(data):
        if codes and codes[0] != EXIT_OK:
            break
        code = main([args[0], "--problem", str(path)] + args[1:])
        out, err = capsys.readouterr()
        context = (args, data)
        assert code in PREFIXES, context
        if code == EXIT_OK:
            assert err == "", context
            for token in out.replace(",", " ").replace("=", " ").split():
                try:
                    value = float(token)
                except ValueError:
                    continue
                assert math.isfinite(value), context
        else:
            assert err.count("\n") == 1 and err.endswith("\n"), context
            assert err.startswith(PREFIXES[code]), context
        codes.append(code)
    return codes


def test_wide_polynomial_validates(tmp_path, capsys):
    assert _assert_contract(tmp_path / "problem.json", WIDE_POLY, capsys)[0] == EXIT_OK
    assert main(["validate", "--problem", str(tmp_path / "problem.json")]) == EXIT_OK
    assert capsys.readouterr().out == "alpha = 1\n"


# Row sums a(t) on [0, T] that dip below 0 far from their other critical
# points, or between two close ones, with the range of the reported time:
# at t ~ 1.83e-65 the first is -1.2e44; the second is negative on
# (7.2, 1.5e44) and least near t = 1.35e44. In the next two, row 1's sum
# 3 - 3.4e308 t + t^2 (+ t^3) has a t coefficient beyond double range where
# its entries are added up as they stand; it turns negative near t = 1e-308
# and shows it at T = 1, where it overflows. The last is
# (t - 1/2)^4 - 2e-14 (t - 1/2)^2 to within rounding: two minima of -1e-28
# at t = 1/2 -+ 1e-7 beside a maximum at 1/2, which float root finders
# merge.
OVERFLOWING_ROW = [[-1.0, -1.7e308], [-1.0, -1.7e308]]
NARROW_MINIMA = [
    ([[[1.0, -1e109, 0, 1e238] + [0] * 7 + [1.0]]], 1.0, (1.8e-65, 1.9e-65)),
    ([[[1.0, 0, 4.8e300, 0, 0, 0, -1.8e297] + [0] * 6 + [1e-12]]], 1e200, (1.3e44, 1.4e44)),
    ([[[5.0, 0, 1.0]] + OVERFLOWING_ROW, [0, 1.0, 0], [0, 0, 1.0]], 1.0, (0.5, 1.5)),
    ([[[5.0, 0, 1.0, 1.0]] + OVERFLOWING_ROW, [0, 1.0, 0], [0, 0, 1.0]], 1.0, (0.5, 1.5)),
    ([[[0.062499999999995004, -0.49999999999998, 1.49999999999998, -2.0, 1.0]]], 1.0,
     (0.4999998, 0.5)),
]


@pytest.mark.parametrize("A, T, window", NARROW_MINIMA,
                         ids=["tiny", "huge", "overflow_quadratic", "overflow_cubic",
                              "tangent_pair"])
def test_narrow_minimum_is_rejected(A, T, window, tmp_path, capsys):
    n = len(A)
    data = {"n": n, "T": T, "eps": [0.01, 0.02, 0.03][:n], "u0": [0.0] * n, "A": A,
            "f": [1.0] * n}
    with pytest.raises(ProblemValidationError) as info:
        validate(problem_from_dict(data))
    assert (info.value.condition, info.value.row) == ("row-dominance", 1)
    assert window[0] < info.value.t < window[1]
    row_sum = [sum(map(Fraction, col)) for col in zip_longest(*A[0], fillvalue=0.0)]
    assert not _positive_at(row_sum, info.value.t)
    assert _assert_contract(tmp_path / "problem.json", data, capsys) == [EXIT_VALIDATION]


def _positive_at(coeffs, t):
    # Whether the polynomial with ascending rational coeffs is positive at
    # the float t = p/q. The denominators are powers of two, as those of any
    # sum of doubles are, so with d the largest of them, d q^degree times
    # the value is the integer acc.
    p, q = t.as_integer_ratio()
    d = max(c.denominator for c in coeffs)
    acc = 0
    for k, c in enumerate(reversed(coeffs)):
        acc = acc * p + c.numerator * (d // c.denominator) * q ** k
    return acc > 0


def test_accepted_draws_have_positive_row_sums():
    # An exact yardstick for validate, in integers: wherever it accepts a
    # draw, every row sum is positive at T 2^-k for k = 0, 4, .., 1100. Draw
    # 78 of seed 26 and draw 96 of seed 32 have a row sum that is negative
    # only near t = 2e-65 and 2e-48, far below their other critical points.
    for seed in (26, 32):
        rng = np.random.default_rng(seed)
        for draw in range(200):
            data = _contract_draw(rng)
            try:
                validate(problem_from_dict(data))
            except ProblemValidationError:
                continue
            for i, row in enumerate(data["A"]):
                coeffs = [sum(map(Fraction, col)) for col in zip_longest(*row, fillvalue=0.0)]
                for k in range(0, 1101, 4):
                    t = math.ldexp(data["T"], -k)
                    assert _positive_at(coeffs, t), (seed, draw, i + 1, t)


def test_random_problems_keep_the_exit_contract(tmp_path, capsys):
    rng = np.random.default_rng(2113)
    path = tmp_path / "problem.json"
    codes = set()
    for _ in range(200):
        codes.update(_assert_contract(path, _contract_draw(rng), capsys))
    assert EXIT_OK in codes and EXIT_VALIDATION in codes, codes
