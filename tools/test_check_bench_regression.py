#!/usr/bin/env python3
"""Unit tests for check_bench_regression.py and check_bench_stable.py.

Run from the repository root: python3 tools/test_check_bench_regression.py
"""

import copy
import json
import pathlib
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check_bench_regression as cbr  # noqa: E402
import check_bench_stable as cbs  # noqa: E402


def report(*tables):
    return {"tables": list(tables)}


def table(title, header, rows):
    return {"title": title, "header": header, "rows": rows}


class RateHeaderTest(unittest.TestCase):
    def test_rate_units_are_rates(self):
        for h in ["ops/s", "bytes/s", "B/s", "ops/s (sim)",
                  "records/s (sim)"]:
            self.assertTrue(cbr.is_rate_header(h), h)

    def test_per_word_units_are_costs(self):
        for h in ["msgs/search", "KB/search", "parity msgs/split",
                  "parity KB/split", "best/scalar", "msgs/op"]:
            self.assertFalse(cbr.is_rate_header(h), h)


class CheckTablesTest(unittest.TestCase):
    def test_rising_f12b_msgs_per_search_fails(self):
        # The committed F12b table: a deterministic degraded-read cost. More
        # messages per search is a regression, not a throughput gain.
        with open(ROOT / "BENCH_f12_codes.json") as f:
            baseline = json.load(f)
        f12b = [t for t in baseline["tables"] if t["title"].startswith("F12b")]
        self.assertEqual(len(f12b), 1)
        self.assertIn("msgs/search", f12b[0]["header"])
        col = f12b[0]["header"].index("msgs/search")
        self.assertFalse(cbr.is_throughput_table(f12b[0]))

        fresh = copy.deepcopy(baseline)
        self.assertEqual(cbr.check_tables(baseline, fresh, 0.20)[0], [])
        for t in fresh["tables"]:
            if t["title"] == f12b[0]["title"]:
                cell = t["rows"][0][col]
                t["rows"][0][col] = f"{float(cell) * 2:g}"
        failures, _ = cbr.check_tables(baseline, fresh, 0.20)
        self.assertEqual(len(failures), 1, failures)
        self.assertIn("F12b", failures[0])
        self.assertIn("cost", failures[0])

    def test_falling_cost_passes(self):
        base = report(table("F12b", ["code", "msgs/search"], [["rs", "10"]]))
        fresh = report(table("F12b", ["code", "msgs/search"], [["rs", "6"]]))
        self.assertEqual(cbr.check_tables(base, fresh, 0.20), ([], []))

    def test_wall_clock_throughput_drop_only_warns(self):
        base = report(table("T1b", ["op", "ops/s"], [["insert", "2.0M ops/s"]]))
        fresh = report(table("T1b", ["op", "ops/s"], [["insert", "1.0M ops/s"]]))
        failures, warnings = cbr.check_tables(base, fresh, 0.20)
        self.assertEqual(failures, [])
        self.assertEqual(len(warnings), 1)

    def test_sim_table_checks_each_column_in_its_direction(self):
        header = ["mix", "ops/s (sim)", "msgs/op"]
        base = report(table("F10", header, [["a", "1000", "5"]]))
        slower = report(table("F10", header, [["a", "700", "5"]]))
        costlier = report(table("F10", header, [["a", "1000", "7"]]))
        faster = report(table("F10", header, [["a", "1500", "4"]]))
        self.assertEqual(len(cbr.check_tables(base, slower, 0.20)[0]), 1)
        self.assertEqual(len(cbr.check_tables(base, costlier, 0.20)[0]), 1)
        self.assertEqual(cbr.check_tables(base, faster, 0.20)[0], [])


class StableTablesTest(unittest.TestCase):
    """check_bench_stable: repeated runs of one bench must agree."""

    def runs(self, *reports):
        return [(f"run{i}", r) for i, r in enumerate(reports)]

    def reference(self):
        return report(
            table("T1", ["scheme", "overhead"], [["LH*RS", "1.25"]]),
            table("F10", ["mix", "ops/s (sim)"], [["a", "1000"]]),
            table("T1b", ["op", "ops/s"], [["insert", "2.0M ops/s"]]))

    def changed(self, title, cell):
        fresh = copy.deepcopy(self.reference())
        for t in fresh["tables"]:
            if t["title"] == title:
                t["rows"][0][1] = cell
        return fresh

    def test_identical_reports_pass(self):
        base = self.reference()
        self.assertEqual(cbs.unstable_tables(
            self.runs(base, copy.deepcopy(base), copy.deepcopy(base))), [])

    def test_one_cost_cell_changed_fails(self):
        base = self.reference()
        failures = cbs.unstable_tables(
            self.runs(base, copy.deepcopy(base), self.changed("T1", "1.26")))
        self.assertEqual(len(failures), 1, failures)
        self.assertIn("'T1'", failures[0])
        self.assertIn("row 0 col 1", failures[0])

    def test_one_sim_cell_changed_fails(self):
        failures = cbs.unstable_tables(
            self.runs(self.reference(), self.changed("F10", "1001")))
        self.assertEqual(len(failures), 1, failures)
        self.assertIn("'F10'", failures[0])

    def test_wall_clock_throughput_change_passes(self):
        self.assertEqual(cbs.unstable_tables(
            self.runs(self.reference(), self.changed("T1b", "1.0M ops/s"))),
            [])

    def test_missing_deterministic_table_fails(self):
        base = self.reference()
        short = copy.deepcopy(base)
        short["tables"] = [t for t in short["tables"] if t["title"] != "T1"]
        self.assertEqual(len(cbs.unstable_tables(self.runs(base, short))), 1)
        self.assertEqual(len(cbs.unstable_tables(self.runs(short, base))), 1)


if __name__ == "__main__":
    unittest.main()
