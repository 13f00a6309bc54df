"""Report documents for the verification commands.

Every check carries expected/actual/tolerance plus a pass flag; numeric
values are serialized as decimal strings with 15 significant digits so
reports are byte-stable across runs (the timestamp field is the only
varying part).
"""

from __future__ import annotations

import csv
import json
from datetime import datetime, timezone

from ._value import Value


class ReportSchemaError(ValueError):
    """A report document does not match the published schema."""


def format_quantity(value) -> str:
    """Render a number as a decimal string with 15 significant digits; a string stays as it is."""
    if isinstance(value, str):
        return value
    return f"{float(value):.15g}"


class CheckResult(Value):
    _fields = __slots__ = ("name", "expected", "actual", "tolerance", "passed")

    def __init__(self, name: str, expected: object, actual: object, tolerance: object,
                 passed: bool):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "expected", expected)
        object.__setattr__(self, "actual", actual)
        object.__setattr__(self, "tolerance", tolerance)
        object.__setattr__(self, "passed", passed)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "expected": format_quantity(self.expected),
            "actual": format_quantity(self.actual),
            "tolerance": format_quantity(self.tolerance),
            "pass": bool(self.passed),
        }


class ReportDocument(Value):
    """A command's report; unlike the other value types, mutable and unhashable."""

    _fields = __slots__ = ("command", "parameters", "results", "timestamp", "version")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, command: str, parameters: dict, results: list | None = None,
                 timestamp: str = "", version: str = ""):
        self.command = command
        self.parameters = parameters
        self.results = [] if results is None else results
        self.timestamp = timestamp or datetime.now(timezone.utc).isoformat(timespec="seconds")
        self.version = version

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
