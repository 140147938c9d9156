#!/usr/bin/env python3
"""Compares a freshly-generated bench report against its committed baseline.

Usage: check_bench_regression.py BASELINE.json FRESH.json [--tolerance=0.20]

Walks every table shared by the two reports and compares numeric cells
row-by-row (rows are matched by position; table layouts are part of the
baseline contract). A cell fails
when the fresh value exceeds the baseline by more than the tolerance —
all simulated-cost tables report costs (messages, bytes, milliseconds),
so higher is worse.

Tables whose header contains rate columns ("ops/s", "bytes/s": a "/s"
not followed by a letter, so "msgs/search" or "KB/split" are costs) are
measured wall-clock throughput, where higher is better and run-to-run
noise is expected; those are checked in the opposite direction with a
doubled tolerance, and only warn (throughput on shared CI runners is too
noisy to gate a merge on). Throughput rows are matched by their first
cell (the op label) instead of by position: per-ISA kernel tables
(bench_t3) contain one row per tier available on the machine, so the row
set legitimately differs between the baseline host and the CI runner —
rows present on only one side warn rather than fail.

Exception: a "(sim)" marker in any header cell (e.g. "ops/s (sim)",
"records/s (sim)") means the rates are derived from deterministic
simulated time, not wall clock — zero run-to-run noise, so they gate as
hard failures like cost tables. These tables keep positional row
matching, and direction is decided per column: "/s" columns fail when
the fresh value drops below baseline, every other numeric column fails
when it rises above (messages, latencies, skew ratios are costs).

Exit code: 0 clean, 1 regression, 2 usage/IO error.
"""

import json
import re
import sys

NUMBER_RE = re.compile(r"^-?\d+(?:\.\d+)?(?:e[+-]?\d+)?$")
RATE_RE = re.compile(r"^(-?\d+(?:\.\d+)?)([KMG]?) (?:ops|B)/s$")
RATE_SCALE = {"": 1.0, "K": 1e3, "M": 1e6, "G": 1e9}


def parse_cell(cell):
    """Returns the numeric value of a table cell, or None for labels."""
    cell = cell.strip().rstrip("%")
    m = RATE_RE.match(cell)
    if m:
        return float(m.group(1)) * RATE_SCALE[m.group(2)]
    if NUMBER_RE.match(cell):
        return float(cell)
    return None


# A per-second rate unit: "/s" as a whole unit ("ops/s", "B/s",
# "ops/s (sim)"), not the start of a word ("msgs/search", "KB/split").
RATE_UNIT_RE = re.compile(r"/s(?![A-Za-z])")


def is_rate_header(header_cell):
    return RATE_UNIT_RE.search(header_cell) is not None


def is_throughput_table(table):
    return any(is_rate_header(h) for h in table.get("header", []))


def is_sim_table(table):
    """Deterministic simulated-time tables: gate hard, per-column direction."""
    return any("(sim)" in h for h in table.get("header", []))


def check_tables(baseline, fresh, tolerance):
    failures = []
    warnings = []
    fresh_tables = {t["title"]: t for t in fresh.get("tables", [])}
    for base_table in baseline.get("tables", []):
        title = base_table["title"]
        fresh_table = fresh_tables.get(title)
        if fresh_table is None:
            failures.append(f"table missing from fresh report: {title!r}")
            continue
        sim = is_sim_table(base_table)
        throughput = not sim and is_throughput_table(base_table)
        tol = tolerance * 2 if throughput else tolerance
        header = base_table.get("header", [])
        base_rows = base_table.get("rows", [])
        fresh_rows = fresh_table.get("rows", [])
        if throughput:
            # Match by op label: the machines' ISA tier sets may differ.
            fresh_by_label = {r[0]: r for r in fresh_rows if r}
            pairs = []
            for base_row in base_rows:
                if not base_row:
                    continue
                fresh_row = fresh_by_label.pop(base_row[0], None)
                if fresh_row is None:
                    warnings.append(
                        f"{title!r}: row {base_row[0]!r} missing from fresh "
                        f"report (ISA tier absent on this machine?)")
                    continue
                pairs.append((base_row[0], base_row, fresh_row))
            for label in fresh_by_label:
                warnings.append(
                    f"{title!r}: row {label!r} not in baseline (new ISA "
                    f"tier; refresh the committed baseline)")
        else:
            if len(base_rows) != len(fresh_rows):
                failures.append(
                    f"{title!r}: row count changed "
                    f"({len(base_rows)} -> {len(fresh_rows)}); refresh the "
                    f"committed baseline alongside the layout change")
                continue
            pairs = [(f"{idx} ({row[0]})" if row else str(idx), row, fresh)
                     for idx, (row, fresh) in enumerate(zip(base_rows,
                                                            fresh_rows))]
        for key, base_row, fresh_row in pairs:
            for col, (b_cell, f_cell) in enumerate(zip(base_row, fresh_row)):
                b = parse_cell(b_cell)
                f = parse_cell(f_cell)
                if b is None or f is None or b <= 0:
                    continue
                if sim and col < len(header) and is_rate_header(header[col]):
                    if f < b * (1 - tol):
                        failures.append(
                            f"{title!r} row {key} col {col}: sim throughput "
                            f"{f:g} < baseline {b:g} (-{(1 - f / b):.0%})")
                elif throughput:
                    if f < b * (1 - tol):
                        warnings.append(
                            f"{title!r} row {key} col {col}: throughput "
                            f"{f:g} < baseline {b:g} (-{(1 - f / b):.0%})")
                elif f > b * (1 + tol):
                    failures.append(
                        f"{title!r} row {key} col {col}: cost {f:g} > "
                        f"baseline {b:g} (+{(f / b - 1):.0%})")
    return failures, warnings


def main(argv):
    tolerance = 0.20
    paths = []
    for arg in argv[1:]:
        if arg.startswith("--tolerance="):
            tolerance = float(arg.split("=", 1)[1])
        else:
            paths.append(arg)
    if len(paths) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        with open(paths[0]) as f:
            baseline = json.load(f)
        with open(paths[1]) as f:
            fresh = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    failures, warnings = check_tables(baseline, fresh, tolerance)
    for w in warnings:
        print(f"warning: {w}")
    for f_msg in failures:
        print(f"REGRESSION: {f_msg}")
    if failures:
        print(f"{len(failures)} regression(s) beyond {tolerance:.0%} "
              f"tolerance vs {paths[0]}")
        return 1
    print(f"ok: {paths[1]} within {tolerance:.0%} of {paths[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
