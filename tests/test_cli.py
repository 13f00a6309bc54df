import csv
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import luderskit
from luderskit import channel, cli, fock, spin
from luderskit.cli import run
from luderskit.expr import MAX_DEGREE, MAX_NUMBER_DIGITS
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


def test_spin_command_passes_every_row_up_to_the_cap():
    for two_s in range(1, spin.MAX_TWO_S + 1):
        results = cli.cmd_spin(two_s, {}).results
        assert len(results) == 5 and all(r.passed for r in results), two_s


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
    original = spin._legendre_blocks

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)
    monkeypatch.setattr(spin, "_legendre_blocks", counted)
    assert run(["spin", "--two-s", "3"]) == 0
    assert len(calls) == 1


def counting(monkeypatch, module, name):
    """Replace module.name with a wrapper that records each call; return the record."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)
    monkeypatch.setattr(module, name, counted)
    return calls


def test_spin_command_expands_all_harmonics_in_one_call(monkeypatch):
    calls = counting(monkeypatch, spin, "charge_harmonic_coefficients")
    assert run(["spin", "--two-s", "3"]) == 0
    assert len(calls) == 1


def test_spin_command_forms_no_symbol_on_the_nodes(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("node symbol path called")
    for module in (channel, cli):
        monkeypatch.setattr(module, "ring_q_symbols", refuse)
    monkeypatch.setattr(spin, "harmonic_coefficients", refuse)
    assert run(["spin", "--two-s", "3"]) == 0
    assert "5/5 checks passed" in capsys.readouterr().out


def test_fock_command_builds_label_states_as_matrices(monkeypatch):
    calls = counting(monkeypatch, fock, "fock_coherent_state")
    assert run(["fock", "--dim", "16", "--radius", "1.8"]) in (0, 1)
    assert len(calls) <= 5


def test_spin_command_evaluates_each_tau_at_most_twice(monkeypatch):
    calls = counting(monkeypatch, spin, "tau_spin_fraction")
    assert run(["spin", "--two-s", "12"]) == 0
    assert len(calls) <= 2 * 13


def test_spin_command_evaluates_each_tau_once(monkeypatch):
    calls = counting(monkeypatch, spin, "tau_spin_fraction")
    assert run(["spin", "--two-s", "12"]) == 0
    assert len(calls) <= 13


def test_fock_command_forms_no_matrix_power(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("matrix_power called")
    monkeypatch.setattr(np.linalg, "matrix_power", refuse)
    report = cli.cmd_fock(16, 1.8, {})
    assert len(report.results) == 9


def test_fock_command_forms_the_projector_image_once(monkeypatch):
    images = []

    def recorder(original):
        def recorded(factors, weights, operator):
            images.append(operator)
            return original(factors, weights, operator)
        return recorded
    # the image as a matrix, or straight to the symbols of the operator and its image
    for name in ("ring_luders_image", "ring_luders_symbols"):
        for module in (cli, fock):
            monkeypatch.setattr(module, name, recorder(getattr(channel, name)))
    assert run(["fock", "--dim", "16", "--radius", "1.8"]) in (0, 1)
    # the coherent projector P_β is the only operator of trace 1 that the run maps
    assert sum(abs(np.trace(op) - 1) < 1e-9 for op in images) == 1


@pytest.mark.parametrize("dim, radius", [(160, 6.3), (200, 7.07), (8, 1.0), (16, 1.8), (40, 3.0)])
def test_fock_ladder_row_is_the_matrix_expression_exactly(dim, radius):
    # the row works on offset diagonals; the matrix path it replaces gives the same float
    space = fock.FockSpace(dim)
    factors, weights = fock.ring_factors(space, fock.plane_quadrature(space, radius=radius))
    expected = max(np.abs(channel.ring_luders_image(factors, weights, space.ladder_word(m, n))
                          - fock.disk_monomial_image(space, m, n, radius)).max()
                   for m in range(5) for n in range(5 - m))
    row, = (r for r in cli.cmd_fock(dim, radius, {}).results if r.name == "grid_vs_symbolic_disk")
    assert row.actual == expected


@pytest.mark.parametrize("dim, radius", [(160, 6.3), (200, 7.07), (8, 1.0), (16, 1.8), (40, 3.0)])
def test_fock_resolution_row_is_the_matrix_expression_exactly(dim, radius):
    # the row works on the resolution's offset diagonals; the D × D path gives the same float
    space = fock.FockSpace(dim)
    factors, weights = fock.ring_factors(space, fock.plane_quadrature(space, radius=radius))
    expected = np.abs(channel.ring_resolution(factors, weights)
                      - fock.disk_identity_matrix(space, radius)).max()
    row, = (r for r in cli.cmd_fock(dim, radius, {}).results
            if r.name == "resolution_of_unity_disk")
    assert row.actual == expected


@pytest.mark.parametrize("two_s", range(1, spin.MAX_TWO_S + 1))
def test_spin_resolution_row_is_the_matrix_expression_exactly(two_s):
    space = spin.SpinSpace(two_s)
    factors, weights = spin.ring_factors(space, spin.sphere_quadrature(space))
    expected = np.abs(channel.ring_resolution(factors, weights) - np.eye(space.dim)).max()
    row, = (r for r in cli.cmd_spin(two_s, {}).results if r.name == "resolution_of_unity")
    assert row.actual == expected


@pytest.mark.parametrize("dim, radius", [(160, 6.3), (200, 7.07), (8, 1.0), (16, 1.8), (40, 3.0)])
def test_fock_q_rows_are_the_matrix_expressions_exactly(dim, radius):
    # the rows work on q's bands and q²'s three diagonals; the matrix path they replace gives
    # the same floats
    space = fock.FockSpace(dim)
    factors, weights = fock.ring_factors(space, fock.plane_quadrature(space, radius=radius))
    q_op = (space.a + space.adag) / 2
    disk = (fock.disk_monomial_image(space, 2, 0, radius)
            + fock.disk_monomial_image(space, 0, 2, radius)
            + 2 * fock.disk_monomial_image(space, 1, 1, radius)
            + fock.disk_identity_matrix(space, radius)) / 4
    q2 = np.abs(channel.ring_luders_image(factors, weights, q_op @ q_op) - disk).max()
    rng = np.random.default_rng(cli._RNG_SEED)
    cli._label_pairs(rng, space)
    a_pts, b_pts, va, vb, overlaps = cli._label_pairs(rng, space)
    lhs = ((vb.conj() * (va @ q_op.T)).sum(axis=1) * overlaps
           - overlaps.conj() * (va.conj() * (vb @ q_op.T)).sum(axis=1))
    rhs = 0.5 * ((a_pts - a_pts.conj()) - (b_pts - b_pts.conj())) \
        * np.exp(-np.abs(a_pts - b_pts) ** 2)
    rows = {r.name: r.actual for r in cli.cmd_fock(dim, radius, {}).results}
    assert rows["lambda_q2_grid_disk"] == q2
    assert rows["commutator_formula"] == np.abs(lhs - rhs).max()


def test_fock_command_forms_no_ladder_word(monkeypatch):
    calls = counting(monkeypatch, fock.FockSpace, "ladder_word")
    assert run(["fock", "--dim", "16", "--radius", "1.8"]) in (0, 1)
    assert calls == []


def test_spin_command_builds_no_state_matrix_or_projector_family(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("per-node spin path called")
    monkeypatch.setattr(spin, "projector_family", refuse)
    monkeypatch.setattr(spin, "coherent_state_matrix", refuse)
    for module in (channel, cli, spin):
        for name in ("resolution", "q_symbols", "luders_image"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    assert run(["spin", "--two-s", "3"]) == 0
    assert "5/5 checks passed" in capsys.readouterr().out


def test_spin_command_builds_legendre_blocks_on_the_rings(monkeypatch):
    sizes = []
    original = spin._legendre_blocks

    def recorded(lmax, thetas):
        sizes.append(len(thetas))
        return original(lmax, thetas)
    monkeypatch.setattr(spin, "_legendre_blocks", recorded)
    monkeypatch.setattr(spin, "harmonic_blocks", None)  # no phase e^(imφ) is formed
    assert run(["spin", "--two-s", "4"]) == 0
    assert sizes == [5]  # two_s + 1 rings


def test_fock_command_skips_the_dense_state_matrix(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("dense state-matrix path called")
    monkeypatch.setattr(fock, "coherent_state_matrix", refuse)
    for module in (channel, cli, fock):
        for name in ("resolution", "q_symbols", "luders_image"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    assert run(["fock", "--dim", "40", "--radius", "3"]) == 0
    assert "9/9 checks passed" in capsys.readouterr().out


def test_fock_command_passes(tmp_path):
    out = tmp_path / "fock.json"
    assert run(["fock", "--json", str(out)]) == 0
    doc = read_json(out)
    validate_report(doc)
    names = {r["name"] for r in doc["results"]}
    assert {"resolution_of_unity_disk", "grid_vs_symbolic_disk", "lambda_q2_symbolic",
            "commutator_formula", "damping_ratio_gap"} <= names



@pytest.mark.parametrize("dim, radius, status, passed", [
    ("8", "1e-4", 1, False),  # every ξ point flagged: the row compared nothing
    ("40", "3.0", 0, True),
])
def test_fock_damping_row_fails_when_every_xi_point_is_flagged(tmp_path, dim, radius,
                                                               status, passed):
    out = tmp_path / "fock.json"
    assert run(["fock", "--dim", dim, "--radius", radius, "--json", str(out)]) == status
    row, = (r for r in read_json(out)["results"] if r["name"] == "damping_ratio_gap")
    assert row["pass"] is passed
    assert (row["actual"] == "nan") is not passed

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
    assert run(["order", "q", "--fixed-space", "65"]) == 2


def test_order_parse_error_distinct_exit_code(capsys):
    assert run(["order", "q +"]) == 2
    assert "parse" in capsys.readouterr().err.lower()
    assert run(["order", "a^x"]) == 2


@pytest.mark.parametrize("text", ["a^100000", "(a^60)^60", "2^100000", "a^2000000000000000000000"])
def test_order_refuses_degrees_past_the_cap_fast(capsys, text):
    start = time.perf_counter()
    assert run(["order", text]) == 2
    assert time.perf_counter() - start < 1.0
    assert "degree cap" in capsys.readouterr().err


@pytest.mark.parametrize("text, status", [
    ("*".join(["id"] * 3000), 0),
    ("id+(" * 100 + "id" + ")" * 100, 0),
    ("(" * 1000 + "a" + ")" * 1000, 2),
    ("0+" + "-" * 1000 + "a", 2),
    ("1" * 5000, 2),
    ("0." + "1" * 5000, 2),
    ("1/" + "7" * 5000, 2),
    ("a" + " - ad + a" * 1500, 0),
], ids=["id_chain", "nested_sums_at_limit", "parentheses", "unary_minus", "integer",
        "decimal", "denominator", "signed_sum"])
def test_order_front_end_limits_exit_fast(capsys, text, status):
    start = time.perf_counter()
    assert run(["order", text]) == status
    assert time.perf_counter() - start < 1.0
    if status:
        assert "position" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("a^40*ad^30 +", "unexpected end of input (at position 12)"),
    ("a^40*ad^30)", "unexpected trailing input ')' (at position 10)"),
    ("(q+p)^64*(q+p)^64 )", "unexpected trailing input ')' (at position 18)"),
])
def test_order_parse_error_wins_over_an_earlier_degree_overflow(capsys, text, message):
    # the product before the syntax error is past the degree cap, but the
    # whole text is parsed before any of it is evaluated
    from luderskit import ordering

    with pytest.raises(ordering.DegreeError):
        ordering.normal_order(text.rstrip(" +)"))
    assert run(["order", text]) == 2
    err = capsys.readouterr().err
    assert f"cannot parse expression: {message}" in err
    assert "degree cap" not in err


def test_order_keeps_a_zero_scalar_at_degree_zero_in_a_product(capsys):
    # the zero scalar folds to 0 before a^64*ad, so the chain never reaches degree 65
    assert run(["order", "((1/3 + i) - (1/3 + i))*a^64*ad"]) == 0
    assert "  normal_form: 0\n" in capsys.readouterr().out


def test_order_forms_the_anti_normal_form_once(monkeypatch):
    from luderskit import ordering

    calls = counting(monkeypatch, ordering, "anti_normal_order")
    assert run(["order", "q^2 - p^2"]) == 0
    assert len(calls) == 1


def test_order_takes_a_leading_minus_after_a_double_dash(capsys):
    # a printed normal form pasted back: argparse would read "-1500…" as an option
    assert run(["order", "--", "-1500*ad + 1501*a"]) == 0
    assert "normal_form: -1500*ad + 1501*a" in capsys.readouterr().out


def test_order_refuses_coefficients_past_the_digit_limit(capsys):
    # a 70-digit base to the 64th has about 4,500 digits: more than a literal may have
    start = time.perf_counter()
    assert run(["order", f"({'7' * 70})^64*a"]) == 2
    assert time.perf_counter() - start < 1.0
    assert f"more than {MAX_NUMBER_DIGITS} digits" in capsys.readouterr().err
    assert run(["order", f"{'9' * MAX_NUMBER_DIGITS}*a"]) == 0
    assert run(["order", f"{'9' * MAX_NUMBER_DIGITS}*10*a"]) == 2
    assert "normal form" in capsys.readouterr().err


def test_order_judges_each_reduced_coefficient_not_the_shared_denominator(capsys):
    # 2^6900 and 3^4300 have 2,078 and 2,052 digits; their product, the shared
    # denominator, has 4,130, but each printed coefficient stays below the limit
    text = f"1/{2 ** 6900}*a + 1/{3 ** 4300}*ad"
    assert run(["order", text]) == 0
    assert "[PASS] parse_round_trip" in capsys.readouterr().out


def test_order_fixed_space_reaches_the_degree_cap():
    assert run(["order", "q", "--fixed-space", str(MAX_DEGREE)]) == 0


def test_order_degree_cap_boundary(capsys):
    assert run(["order", f"a^{MAX_DEGREE}"]) == 0
    assert run(["order", f"ad^{MAX_DEGREE}*id"]) == 0
    assert run(["order", f"a^{MAX_DEGREE + 1}"]) == 2
    assert "parse" in capsys.readouterr().err
    assert run(["order", f"ad^{MAX_DEGREE}*a"]) == 2
    assert f"degree {MAX_DEGREE + 1} exceeds" in capsys.readouterr().err


def test_order_renders_the_normal_form_once(monkeypatch):
    from luderskit import ordering

    calls = []
    original = ordering.NormalPolynomial.to_source
    monkeypatch.setattr(ordering.NormalPolynomial, "to_source",
                        lambda poly: calls.append(poly) or original(poly))
    assert run(["order", "q^2 - p^2"]) == 0
    # the normal form, the Lüders image and the re-parsed normal form
    assert len(calls) == 3


def test_tolerance_override_tightening_causes_check_failure():
    assert run(["spin", "--two-s", "2", "--tol-override", "spectrum_law=1e-30"]) == 1


def test_tolerance_override_malformed_or_unknown():
    assert run(["spin", "--two-s", "2", "--tol-override", "spectrum_law"]) == 2
    assert run(["spin", "--two-s", "2", "--tol-override", "nope=1e-3"]) == 2
    assert run(["spin", "--two-s", "2", "--tol-override", "spectrum_law=abc"]) == 2


def test_tolerance_override_rejects_nan_and_negative_values(capsys):
    for value in ("nan", "-1", "-inf"):
        assert run(["spin", "--two-s", "2", "--tol-override", f"spectrum_law={value}"]) == 2
        assert "non-negative" in capsys.readouterr().err
    assert run(["spin", "--two-s", "2", "--tol-override", "spectrum_law=inf"]) == 0


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


NO_SCIPY_SCRIPT = """
import contextlib, io, json, sys
sys.modules["scipy"] = None  # any import of scipy or a submodule now raises ImportError
from luderskit import cli, fock
statuses = []
for argv in (["spin", "--two-s", "5"], ["fock"], ["fock", "--dim", "200", "--radius", "7.07"],
             ["order", "q^2-p^2", "--fixed-space", "2"]):
    with contextlib.redirect_stdout(io.StringIO()):
        statuses.append(cli.run(argv))
fock.displacement_matrix(fock.FockSpace(8), 0.5 + 0.5j)
loaded = [name for name, module in sys.modules.items()
          if name.split(".")[0] == "scipy" and module is not None]
print(json.dumps({"statuses": statuses, "scipy": loaded}))
"""


def test_cli_runs_with_scipy_blocked():
    src = os.path.dirname(os.path.dirname(os.path.abspath(luderskit.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SCRIPT],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    outcome = json.loads(proc.stdout)
    assert all(status in (0, 1) for status in outcome["statuses"]), outcome
    assert outcome["scipy"] == []


LAZY_IMPORTS_SCRIPT = """
import contextlib, io, json, sys
import luderskit.cli
lazy = ("numpy.fft", "numpy.polynomial", "numpy.random", "scipy")
on_import = [name for name in lazy if name in sys.modules]
for argv in (["spin", "--two-s", "3"], ["order", "q^2", "--fixed-space", "2"]):
    with contextlib.redirect_stdout(io.StringIO()):
        luderskit.cli.run(argv)
print(json.dumps({"on_import": on_import, "fft_after_runs": "numpy.fft" in sys.modules}))
"""


def test_cli_loads_numpy_submodules_only_when_a_command_needs_them():
    # numpy.fft adds about 0.2 MB of resident memory, and spin and order take no FFT
    src = os.path.dirname(os.path.dirname(os.path.abspath(luderskit.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", LAZY_IMPORTS_SCRIPT],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"on_import": [], "fft_after_runs": False}


def test_console_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "luderskit.cli", "order", "q*p + p*q"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "well_ordered: true" in proc.stdout


def test_textual_check_refuses_a_tolerance_override(capsys):
    assert run(["order", "q", "--tol-override", "parse_round_trip=1"]) == 2
    assert "no numeric tolerance to override" in capsys.readouterr().err


def _valid_report():
    return {"command": "spin", "parameters": {"two_s": "1"}, "timestamp": "t", "version": "v",
            "results": [{"name": "x", "expected": "0", "actual": "0", "tolerance": "0",
                         "pass": True}]}


@pytest.mark.parametrize("corrupt, message", [
    (lambda doc: [doc], "report must be an object"),
    (lambda doc: {**doc, "command": 1}, "command must be a string"),
    (lambda doc: {**doc, "parameters": {"two_s": 1}}, "parameters must map strings to strings"),
    (lambda doc: {**doc, "results": {}}, "results must be an array"),
    (lambda doc: {**doc, "results": [{"name": "x"}]}, "results[0] keys must be"),
    (lambda doc: {**doc, "results": [{**doc["results"][0], "name": 1}]},
     "results[0].name must be a string"),
])
def test_schema_validator_names_what_is_malformed(corrupt, message):
    validate_report(_valid_report())
    with pytest.raises(ReportSchemaError) as excinfo:
        validate_report(corrupt(_valid_report()))
    assert message in str(excinfo.value)


@pytest.mark.parametrize("dim", [8, 12, 16, 27])
def test_fock_label_checks_hold_at_small_dims(dim):
    # the label bound keeps each state's mass past level dim − 1 under 1e-12
    rows = {r.name: r for r in cli.cmd_fock(dim, 0.5, {}).results}
    for name in ("coherent_overlap_law", "commutator_formula"):
        assert rows[name].passed and rows[name].actual < 1e-11, (name, rows[name].actual)


def test_fock_command_splits_its_grid_once(monkeypatch):
    calls = counting(monkeypatch, fock, "split_rings")
    assert run(["fock", "--dim", "16", "--radius", "1.8"]) in (0, 1)
    assert len(calls) == 1


@pytest.mark.parametrize("option, target", [("--json", "missing/x.json"), ("--csv", ".")])
def test_an_unwritable_report_path_exits_2(tmp_path, capsys, option, target):
    assert run(["spin", "--two-s", "2", option, str(tmp_path / target)]) == 2
    assert "error: cannot write the report:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["spin", "--two-s", "2"],
                                  ["fock", "--dim", "16", "--radius", "1.8"],
                                  ["order", "q^2", "--fixed-space", "1"]])
def test_each_report_carries_the_package_version(tmp_path, argv):
    out = tmp_path / "report.json"
    assert run(argv + ["--json", str(out)]) in (0, 1)
    assert read_json(out)["version"] == luderskit.__version__
