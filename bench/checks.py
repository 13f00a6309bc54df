"""Parse and cross-check the reports of luderskit CLI commands.

The benchmark reads every command's check rows from its standard output
(`[PASS] name: actual=... expected=... tolerance=...`) and, where the
command wrote them, from its JSON and CSV reports.  It checks each row's
pass flag against its own numbers, the exit status against the rows, and
the three renderings against each other, without the package's own
validator.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass

ROW_RE = re.compile(
    r"^\s*\[(?P<flag>PASS|FAIL)\] (?P<name>\S+): actual=(?P<actual>.*?) "
    r"expected=(?P<expected>.*?) tolerance=(?P<tolerance>\S+)"
)
SUMMARY_RE = re.compile(r"^(?P<passed>\d+)/(?P<total>\d+) checks passed", re.MULTILINE)

# Digits a double can resolve; a deviation of exactly 0 scores this much.
HEADROOM_CAP = 16.0

TIMESTAMP_RE = re.compile(r'"timestamp": "[^"]*"')

REPORT_KEYS = {"command", "parameters", "results", "timestamp", "version"}
ROW_KEYS = {"name", "expected", "actual", "tolerance", "pass"}


@dataclass(frozen=True)
class Row:
    name: str
    actual: str
    expected: str
    tolerance: str
    passed: bool

    def numbers(self):
        """(actual, expected, tolerance) as floats, or None for a textual row."""
        try:
            return float(self.actual), float(self.expected), float(self.tolerance)
        except ValueError:
            return None

    def consistent(self) -> bool:
        """The pass flag agrees with the row's own numbers or strings."""
        values = self.numbers()
        if values is None:
            return self.passed == (self.actual == self.expected)
        actual, expected, tolerance = values
        return self.passed == (abs(actual - expected) <= tolerance)

    def headroom(self):
        """log10(tolerance / |actual - expected|) for a passing numeric row."""
        values = self.numbers()
        if values is None or not self.passed:
            return None
        actual, expected, tolerance = values
        if tolerance <= 0:
            return None
        deviation = abs(actual - expected)
        if deviation == 0:
            return HEADROOM_CAP
        return min(HEADROOM_CAP, math.log10(tolerance / deviation))


def parse_stdout(text: str) -> list:
    rows = []
    for line in text.splitlines():
        match = ROW_RE.match(line)
        if match:
            rows.append(Row(match["name"], match["actual"], match["expected"],
                            match["tolerance"], match["flag"] == "PASS"))
    return rows


def _same_value(a: str, b: str) -> bool:
    """Equal after the reports' 15-significant-digit rendering."""
    try:
        return f"{float(a):.15g}" == f"{float(b):.15g}"
    except ValueError:
        return a == b


def check_command(status, stdout: str, fixed_space=None) -> tuple:
    """(rows, problems) for one command that returned `status`."""
    rows = parse_stdout(stdout)
    problems = []
    if not rows:
        problems.append("no check rows in the output")
    for row in rows:
        if not row.consistent():
            problems.append(f"row {row.name}: pass flag disagrees with its values")
    summary = SUMMARY_RE.search(stdout)
    passed = sum(row.passed for row in rows)
    if summary is None or (int(summary["passed"]), int(summary["total"])) != (passed, len(rows)):
        problems.append("summary line does not match the rows")
    if status != (0 if passed == len(rows) else 1):
        problems.append(f"exit status {status} does not match {len(rows) - passed} FAIL rows")
    if fixed_space is not None:
        dims = [r for r in rows if r.name == "fixed_space_dimension"]
        if len(dims) != 1 or not _same_value(dims[0].expected, str(2 * fixed_space + 1)):
            problems.append(f"fixed_space_dimension row does not expect {2 * fixed_space + 1}")
    return rows, problems


def read_reports(json_path: str, csv_path: str, rows) -> tuple:
    """(normalized report text, problems) for one command's JSON and CSV files.

    The normalized text is the JSON file with its timestamp blanked plus
    the CSV file, byte for byte, so two runs of the same command must give
    equal text.
    """
    problems = []
    with open(json_path, encoding="utf-8") as handle:
        raw_json = handle.read()
    with open(csv_path, encoding="utf-8", newline="") as handle:
        raw_csv = handle.read()
    doc = json.loads(raw_json)
    if set(doc) != REPORT_KEYS or not isinstance(doc["results"], list):
        return "", [f"{json_path}: top-level keys {sorted(doc)}"]
    if not all(isinstance(v, str) for v in doc["parameters"].values()):
        problems.append(f"{json_path}: parameters must be strings")
    json_rows = doc["results"]
    csv_rows = list(csv.reader(raw_csv.splitlines()))
    if csv_rows[:1] != [["name", "expected", "actual", "tolerance", "pass"]]:
        problems.append(f"{csv_path}: bad header")
    csv_rows = csv_rows[1:]
    if not len(json_rows) == len(csv_rows) == len(rows):
        problems.append(f"{json_path}: {len(json_rows)} JSON, {len(csv_rows)} CSV "
                        f"and {len(rows)} printed rows")
    for item, line, row in zip(json_rows, csv_rows, rows):
        if (not isinstance(item, dict) or set(item) != ROW_KEYS
                or not isinstance(item["pass"], bool)):
            problems.append(f"{json_path}: malformed row {item!r}")
            continue
        flag = "true" if item["pass"] else "false"
        if line != [item["name"], item["expected"], item["actual"], item["tolerance"], flag]:
            problems.append(f"{csv_path}: row {item['name']} differs from the JSON")
        if item["name"] != row.name or item["pass"] != row.passed or not all(
            _same_value(item[key], getattr(row, key))
            for key in ("actual", "expected", "tolerance")
        ):
            problems.append(f"{json_path}: row {item['name']} differs from the printed row")
    return TIMESTAMP_RE.sub('"timestamp": ""', raw_json, count=1) + raw_csv, problems
