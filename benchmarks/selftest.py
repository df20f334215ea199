#!/usr/bin/env python3
"""Self-test of the benchmark harness.

Usage, from the root of a source checkout: python3 benchmarks/selftest.py

Runs every workload once at a tiny N, checks that every metric of
BENCHMARK.json (and failed_frac) is printed with its unit, that counts
repeat exactly between two traced runs, and that one corrupted number in
a command's output is counted as a failed run.
"""

import contextlib
import csv
import dataclasses
import io
import json
import os
import unittest

import run

TINY_SIZES = {"solve_large": (64,), "sweep_exact": (8, 16), "sweep_two_mesh": (8, 16)}
COUNT_UNITS = ("count", "bytes")


def tiny(name):
    """Workload `name` with every command at its tiny mesh sizes."""
    workload = run.WORKLOADS[name]
    return dataclasses.replace(workload, commands=tuple(
        dataclasses.replace(c, sizes=TINY_SIZES[c.name]) for c in workload.commands))


def measure(workload, seed, trace):
    """One run with no minimum duration; returns (result, printed table)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        result, samples = run.measure(workload, seed, 0.0, trace)
        run.print_table(workload, result, samples)
    return result, buf.getvalue()


def corrupt_number(text, row, col):
    """Change the leading digit of one number in a CSV data row."""
    lines = text.splitlines()
    data = [i for i, line in enumerate(lines) if line[:1].isdigit() or line[:1] in '"u']
    fields = next(csv.reader([lines[data[row]]]))
    digit = next(i for i, ch in enumerate(fields[col]) if ch in "123456789")
    value = fields[col]
    fields[col] = value[:digit] + str(int(value[digit]) % 9 + 1) + value[digit + 1:]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow(fields)
    lines[data[row]] = buf.getvalue()
    return "\n".join(lines) + "\n"


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        os.makedirs(run.WORK, exist_ok=True)
        with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        cls.end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        cls.per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    def assert_metrics(self, result, table, expected):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, expected)
        for name, unit in expected.items():
            self.assertRegex(table, r"(?m)^%s +\S+ %s " % (name.replace(".", r"\."), unit))

    def test_every_workload_prints_every_metric(self):
        self.assertEqual(set(TINY_SIZES), set(run.COMMANDS))
        for name in sorted(run.WORKLOADS):
            with self.subTest(workload=name):
                result, table = measure(tiny(name), 1, 0)
                self.assertTrue(result["correct"], table)
                self.assertEqual(result["failed"], 0)
                self.assert_metrics(result, table, self.end_to_end)
                self.assertRegex(table, r"(?m)^failed_frac +0 ratio ")

                first, table = measure(tiny(name), 1, 1)
                second, _ = measure(tiny(name), 1, 1)
                self.assertTrue(first["correct"] and second["correct"], table)
                self.assert_metrics(first, table, self.per_layer)
                for metric, unit in self.per_layer.items():
                    if unit in COUNT_UNITS:
                        self.assertEqual(first["metrics"][metric], second["metrics"][metric],
                                         metric)

    def check_corruption_counted(self, workload, seed, row, col):
        read = run._read
        corrupted = []

        def read_once_corrupted(path):
            text = read(path)
            if path.endswith(".out") and not corrupted:
                corrupted.append(path)
                return corrupt_number(text, row, col)
            return text

        run._read = read_once_corrupted
        try:
            result, table = measure(workload, seed, 0)
        finally:
            run._read = read
        self.assertEqual(len(corrupted), 1)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertRegex(table, r"(?m)^failed_frac +%.6g ratio +%d$"
                         % (1.0 / result["attempted"], result["attempted"]))

    def test_corrupted_solve_value_is_a_failed_run(self):
        # U_1 at step 5 no longer equals V_1 + W_1.
        self.check_corruption_counted(tiny("solve_large"), 1, 5, 2)

    def test_corrupted_sweep_error_is_a_failed_run(self):
        # At seed 0 every sweep number is compared with reference.json.
        exact = run.Workload("sweep_exact", (run.COMMANDS["sweep_exact"],))
        self.check_corruption_counted(exact, 0, 7, 2)


if __name__ == "__main__":
    unittest.main(verbosity=2)
