"""Report documents for the verification commands.

Every check carries expected/actual/tolerance plus a pass flag; numeric
values are serialized as decimal strings with 15 significant digits so
reports are byte-stable across runs (the timestamp field is the only
varying part).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from datetime import datetime, timezone


class ReportSchemaError(ValueError):
    """A report document does not match the published schema."""


def format_quantity(value) -> str:
    """Render a number as a decimal string with 15 significant digits; a string stays as it is."""
    if isinstance(value, str):
        return value
    return f"{float(value):.15g}"


@dataclass(frozen=True)
class CheckResult:
    name: str
    expected: object
    actual: object
    tolerance: object
    passed: bool

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "expected": format_quantity(self.expected),
            "actual": format_quantity(self.actual),
            "tolerance": format_quantity(self.tolerance),
            "pass": bool(self.passed),
        }


@dataclass
class ReportDocument:
    command: str
    parameters: dict
    results: list = field(default_factory=list)
    timestamp: str = ""
    version: str = ""

    def __post_init__(self):
        if not self.timestamp:
            self.timestamp = datetime.now(timezone.utc).isoformat(timespec="seconds")

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def add(self, name, expected, actual, tolerance, passed) -> CheckResult:
        result = CheckResult(name, expected, actual, tolerance, bool(passed))
        self.results.append(result)
        return result

    def as_dict(self) -> dict:
        return {
            "command": self.command,
            "parameters": {k: format_quantity(v) for k, v in self.parameters.items()},
            "results": [r.as_dict() for r in self.results],
            "timestamp": self.timestamp,
            "version": self.version,
        }

    def to_json(self) -> str:
        doc = self.as_dict()
        validate_report(doc)
        return json.dumps(doc, indent=2, sort_keys=True)

    def write_json(self, path):
        with open(path, "w") as handle:
            handle.write(self.to_json() + "\n")

    def write_csv(self, path):
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["name", "expected", "actual", "tolerance", "pass"])
            for r in self.results:
                d = r.as_dict()
                writer.writerow(
                    [d["name"], d["expected"], d["actual"], d["tolerance"],
                     "true" if d["pass"] else "false"]
                )


_TOP_LEVEL_KEYS = {"command", "parameters", "results", "timestamp", "version"}
_RESULT_KEYS = {"name", "expected", "actual", "tolerance", "pass"}


def validate_report(doc: dict) -> None:
    """Raise ReportSchemaError unless doc matches the published schema."""
    problems = []
    if not isinstance(doc, dict):
        raise ReportSchemaError("report must be an object")
    if set(doc) != _TOP_LEVEL_KEYS:
        problems.append(f"top-level keys {sorted(doc)} != {sorted(_TOP_LEVEL_KEYS)}")
    else:
        for key in ("command", "timestamp", "version"):
            if not isinstance(doc[key], str):
                problems.append(f"{key} must be a string")
        if not isinstance(doc["parameters"], dict) or not all(
            isinstance(k, str) and isinstance(v, str)
            for k, v in doc["parameters"].items()
        ):
            problems.append("parameters must map strings to strings")
        if not isinstance(doc["results"], list):
            problems.append("results must be an array")
        else:
            for i, item in enumerate(doc["results"]):
                if not isinstance(item, dict) or set(item) != _RESULT_KEYS:
                    problems.append(f"results[{i}] keys must be {sorted(_RESULT_KEYS)}")
                    continue
                if not isinstance(item["name"], str):
                    problems.append(f"results[{i}].name must be a string")
                if not isinstance(item["pass"], bool):
                    problems.append(f"results[{i}].pass must be a boolean")
                for key in ("expected", "actual", "tolerance"):
                    if not isinstance(item[key], str):
                        problems.append(f"results[{i}].{key} must be a string")
    if problems:
        raise ReportSchemaError("; ".join(problems))
