#!/usr/bin/env python3
"""Fails when a deterministic bench table differs between repeated runs.

Usage: check_bench_stable.py REPORT.json REPORT.json [REPORT.json ...]

The reports come from repeated runs of one bench with the same flags.
Every cost table and every "(sim)" table is a pure function of the seeded
scenario, so it must be identical in every report: same header, same
rows, same cells. Wall-clock throughput tables (a "/s" header without
"(sim)", such as T1b) are exempt; check_bench_regression.py only warns on
those. The table classification is the one check_bench_regression.py
gates with.

Exit code: 0 stable, 1 a deterministic table differs or is missing,
2 usage/IO error.
"""

import json
import sys

from check_bench_regression import is_sim_table, is_throughput_table


def is_deterministic(table):
    return is_sim_table(table) or not is_throughput_table(table)


def first_difference(a, b):
    """Describes where two tables of one title first differ."""
    if a.get("header") != b.get("header"):
        return "header"
    rows_a, rows_b = a.get("rows", []), b.get("rows", [])
    for idx, (row_a, row_b) in enumerate(zip(rows_a, rows_b)):
        for col, (cell_a, cell_b) in enumerate(zip(row_a, row_b)):
            if cell_a != cell_b:
                return f"row {idx} col {col}: {cell_a!r} vs {cell_b!r}"
        if len(row_a) != len(row_b):
            return f"row {idx}: {len(row_a)} vs {len(row_b)} cells"
    return f"row count {len(rows_a)} vs {len(rows_b)}"


def unstable_tables(reports):
    """One message per deterministic table that is not identical across
    `reports`, a list of (name, report) pairs; the first is the reference."""
    failures = []
    ref_name, ref = reports[0]
    ref_titles = {t["title"] for t in ref.get("tables", [])}
    for name, other in reports[1:]:
        tables = {t["title"]: t for t in other.get("tables", [])}
        for title in tables.keys() - ref_titles:
            if is_deterministic(tables[title]):
                failures.append(f"{title!r} missing from {ref_name}")
        for table in ref.get("tables", []):
            if not is_deterministic(table):
                continue
            title = table["title"]
            mine = tables.get(title)
            if mine is None:
                failures.append(f"{title!r} missing from {name}")
            elif mine != table:
                failures.append(f"{title!r} differs between {ref_name} and "
                                f"{name}: {first_difference(table, mine)}")
    return failures


def main(argv):
    paths = argv[1:]
    if len(paths) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    reports = []
    try:
        for path in paths:
            with open(path) as f:
                reports.append((path, json.load(f)))
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    failures = unstable_tables(reports)
    for msg in failures:
        print(f"UNSTABLE: {msg}")
    if failures:
        return 1
    print(f"ok: deterministic tables identical across {len(paths)} reports")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
