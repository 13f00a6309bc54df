import csv
import json
import subprocess
import sys

import pytest

from luderskit import cli, spin
from luderskit.cli import run
from luderskit.reports import ReportSchemaError, validate_report


def read_json(path):
    with open(path) as handle:
        return json.load(handle)


def strip_timestamp(doc):
    return {k: v for k, v in doc.items() if k != "timestamp"}


def test_spin_command_passes_and_writes_valid_json(tmp_path):
    out = tmp_path / "spin.json"
    assert run(["spin", "--two-s", "2", "--json", str(out)]) == 0
    doc = read_json(out)
    validate_report(doc)
    assert doc["command"] == "spin"
    assert doc["parameters"]["two_s"] == "2"
    names = [r["name"] for r in doc["results"]]
    assert "spectrum_law" in names and "fixed_space_dim" in names
    assert all(r["pass"] for r in doc["results"])


def test_spin_rejects_invalid_two_s(capsys):
    assert run(["spin", "--two-s", "0"]) == 2
    assert "1..50" in capsys.readouterr().err
    assert run(["spin", "--two-s", "51"]) == 2


def test_spin_command_skips_the_dense_superoperator(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense superoperator path called")
    for name in ("build_luders_channel", "channel_spectrum", "apply_channel"):
        monkeypatch.setattr(cli, name, refuse)
    assert run(["spin", "--two-s", "3"]) == 0


def test_spin_command_builds_legendre_blocks_once(monkeypatch):
    calls = []
    original = spin.harmonic_blocks

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)
    monkeypatch.setattr(spin, "harmonic_blocks", counted)
    assert run(["spin", "--two-s", "3"]) == 0
    assert len(calls) == 1


def test_fock_command_passes(tmp_path):
    out = tmp_path / "fock.json"
    assert run(["fock", "--json", str(out)]) == 0
    doc = read_json(out)
    validate_report(doc)
    names = {r["name"] for r in doc["results"]}
    assert {"resolution_of_unity_disk", "grid_vs_symbolic_disk", "lambda_q2_symbolic",
            "commutator_formula", "damping_ratio_gap"} <= names


def test_fock_rejects_bad_sizing():
    assert run(["fock", "--dim", "4"]) == 2
    assert run(["fock", "--dim", "40", "--radius", "9"]) == 2


@pytest.mark.parametrize("dim", ["8", "15"])
def test_fock_small_dims_report_instead_of_raising(dim):
    assert run(["fock", "--dim", dim, "--radius", "1"]) in (0, 1)


def test_order_long_normal_form_round_trips(capsys):
    # The normal form of (q+p)^62 has 1024 terms, so its re-parse nests 1024 sums deep.
    assert run(["order", "(q+p)^62"]) == 0
    assert "[PASS] parse_round_trip" in capsys.readouterr().out


def test_order_well_ordered_expression(tmp_path):
    out = tmp_path / "order.json"
    assert run(["order", "q^2 - p^2", "--json", str(out)]) == 0
    doc = read_json(out)
    validate_report(doc)
    assert doc["parameters"]["well_ordered"] == "true"


def test_order_not_well_ordered_still_exits_zero():
    assert run(["order", "q^2"]) == 0


def test_order_prints_forms(capsys):
    assert run(["order", "a*ad"]) == 0
    output = capsys.readouterr().out
    assert "normal_form: ad*a + 1" in output
    assert "luders_image: ad*a + 2" in output
    assert "well_ordered: false" in output


def test_order_fixed_space_dimension(tmp_path):
    out = tmp_path / "order.json"
    assert run(["order", "q", "--fixed-space", "2", "--json", str(out)]) == 0
    doc = read_json(out)
    rows = {r["name"]: r for r in doc["results"]}
    assert rows["fixed_space_dimension"]["expected"] == "5"
    assert rows["fixed_space_dimension"]["actual"] == "5"


def test_order_rejects_fixed_space_before_ordering(monkeypatch):
    from luderskit import ordering

    def refuse(expression):
        raise AssertionError("normal_order ran before --fixed-space was validated")

    monkeypatch.setattr(ordering, "normal_order", refuse)
    assert run(["order", "q", "--fixed-space", "13"]) == 2


def test_order_parse_error_distinct_exit_code(capsys):
    assert run(["order", "q +"]) == 2
    assert "parse" in capsys.readouterr().err.lower()
    assert run(["order", "a^x"]) == 2


def test_tolerance_override_tightening_causes_check_failure():
    assert run(["spin", "--two-s", "2", "--tol-override", "spectrum_law=1e-30"]) == 1


def test_tolerance_override_malformed_or_unknown():
    assert run(["spin", "--two-s", "2", "--tol-override", "spectrum_law"]) == 2
    assert run(["spin", "--two-s", "2", "--tol-override", "nope=1e-3"]) == 2
    assert run(["spin", "--two-s", "2", "--tol-override", "spectrum_law=abc"]) == 2


def test_reports_byte_stable_without_timestamp(tmp_path):
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["spin", "--two-s", "1", "--json", str(first)]) == 0
    assert run(["spin", "--two-s", "1", "--json", str(second)]) == 0
    assert strip_timestamp(read_json(first)) == strip_timestamp(read_json(second))
    raw_a = first.read_text().splitlines()
    raw_b = second.read_text().splitlines()
    diff = [
        (a, b) for a, b in zip(raw_a, raw_b) if a != b
    ]
    assert all("timestamp" in a for a, _ in diff)


def test_csv_output(tmp_path):
    out = tmp_path / "spin.csv"
    assert run(["spin", "--two-s", "1", "--csv", str(out)]) == 0
    with open(out) as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["name", "expected", "actual", "tolerance", "pass"]
    assert all(row[4] == "true" for row in rows[1:])


def test_schema_validator_rejects_malformed_documents():
    with pytest.raises(ReportSchemaError):
        validate_report({"command": "spin"})
    with pytest.raises(ReportSchemaError):
        validate_report({
            "command": "spin", "parameters": {}, "timestamp": "t", "version": "v",
            "results": [{"name": "x", "expected": 1.0, "actual": "1", "tolerance": "0",
                         "pass": True}],
        })
    with pytest.raises(ReportSchemaError):
        validate_report({
            "command": "spin", "parameters": {}, "timestamp": "t", "version": "v",
            "results": [{"name": "x", "expected": "1", "actual": "1", "tolerance": "0",
                         "pass": "yes"}],
        })


def test_console_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "luderskit.cli", "order", "q*p + p*q"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "well_ordered: true" in proc.stdout
