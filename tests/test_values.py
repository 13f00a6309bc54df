"""The value types: construction, equality, hash, repr, immutability and copies, by fields.

Each case names a class's fields in order, builds an instance positionally
and by keyword, and checks the behaviour callers rely on: equal when of the
same type with equal field tuples, the field tuple's hash, the
`Name(field=value, ...)` repr, no assignment or deletion on the frozen
types, and `copy`/`pickle` round trips.
"""

import ast
import copy
import json
import os
import pickle
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import luderskit
from luderskit.channel import RingFactors, SpectralReport, SuperoperatorMatrix, WeightedProjectorFamily
from luderskit.expr import Add, ComplexRational, Literal, Mul, Neg, Pow, Sub, Symbol
from luderskit.fock import DampingReport, FockSpace, PlaneQuadrature, XiSpectrum
from luderskit.ordering import FixedSpaceResult, LuedersFamilyCoefficients, luders_fixed_space
from luderskit.reports import CheckResult, ReportDocument
from luderskit.spin import SpherePoint, SphereQuadrature, SpinSpace

HALF = ComplexRational(Fraction(1, 2), Fraction(-3))


def _fixed_space_fields():
    result = luders_fixed_space(1)
    return (1, 3, result.basis, result.family_coordinates)


# (class, field names, positional arguments, hashable)
CASES = [
    (ComplexRational, ("re", "im"), (Fraction(1, 2), Fraction(-3)), True),
    (Literal, ("value",), (HALF,), True),
    (Symbol, ("name",), ("q",), True),
    (Neg, ("operand",), (Symbol("a"),), True),
    (Add, ("lhs", "rhs"), (Symbol("a"), Literal(HALF)), True),
    (Sub, ("lhs", "rhs"), (Symbol("a"), Literal(HALF)), True),
    (Mul, ("lhs", "rhs"), (Symbol("a"), Literal(HALF)), True),
    (Pow, ("base", "exponent"), (Symbol("ad"), 3), True),
    (WeightedProjectorFamily, ("dim", "states", "weights"), (2, np.eye(2), np.ones(2)), False),
    (SuperoperatorMatrix, ("dim", "matrix"), (2, np.eye(4)), False),
    (SpectralReport, ("eigenvalues", "fixed_basis"), (np.array([1.0, 0.5]), (np.eye(2),)), False),
    (RingFactors, ("rows", "log_t", "log_h"),
     (np.array([[1.0, 0.5], [0.3, 0.2]]), np.array([0.0, -1.0]), np.zeros(2)), False),
    (SpinSpace, ("two_s",), (3,), True),
    (SpherePoint, ("theta", "phi"), (0.5, 1.0), True),
    (SphereQuadrature, ("thetas", "phis", "weights", "exact_degree"),
     (np.array([0.5, 2.0]), np.array([0.0, 0.0]), np.array([1.5, 1.5]), 2), False),
    (FockSpace, ("dim", "guard_dim"), (12, 5), True),
    (PlaneQuadrature, ("alphas", "weights", "radius"),
     (np.array([0.5, -0.5]), np.array([0.5, 0.5]), 1.0), False),
    (XiSpectrum, ("xi_points", "coeffs"), (np.array([0.1 + 0.2j]), np.array([1.0 + 0j])), False),
    (DampingReport,
     ("source_symbols", "image_symbols", "xi_points", "source_coeffs", "image_coeffs",
      "ratios", "expected", "deviations", "flagged"),
     tuple(np.full(2, float(k)) for k in range(8)) + (np.array([False, True]),), False),
    (LuedersFamilyCoefficients, ("max_degree", "b0", "bq", "bp"),
     (1, Fraction(1), (Fraction(2),), (Fraction(0),)), True),
    (FixedSpaceResult, ("max_degree", "dimension", "basis", "family_coordinates"),
     _fixed_space_fields(), True),
    (CheckResult, ("name", "expected", "actual", "tolerance", "passed"),
     ("row", 1.0, 1.5, 0.5, True), True),
    (ReportDocument, ("command", "parameters", "results", "timestamp", "version"),
     ("spin", {"two_s": 2}, [CheckResult("row", 1, 1, 0, True)], "t", "0.1.0"), False),
]

# arguments left to their defaults, and the field values the defaults give
DEFAULTS = [
    (ComplexRational, (), {"re": Fraction(0), "im": Fraction(0)}),
    (ComplexRational, (Fraction(2),), {"re": Fraction(2), "im": Fraction(0)}),
    (SpectralReport, (np.array([1.0]),), {"fixed_basis": ()}),
    (FockSpace, (12,), {"guard_dim": 12 - luderskit.fock.DEFAULT_GUARD_MARGIN}),
    (ReportDocument, ("spin", {}), {"results": [], "version": ""}),
]

# every frozen class, and the cached properties of those that build tables on first use
FROZEN = [cls for cls, *_ in CASES if cls is not ReportDocument]
CACHED = {SpinSpace: ("jz", "jplus"), FockSpace: ("a",), SphereQuadrature: ("rings",),
          PlaneQuadrature: ("rings",), RingFactors: ("squares", "_charge_powers", "_charge_ratios")}

IDS = [cls.__name__ for cls, *_ in CASES]


def same(left, right) -> bool:
    """Field values alike: arrays by shape, dtype and entries, anything else by ==."""
    if isinstance(left, np.ndarray) or isinstance(right, np.ndarray):
        return (type(left) is type(right) and left.shape == right.shape
                and left.dtype == right.dtype and np.array_equal(left, right))
    if isinstance(left, tuple) and isinstance(right, tuple):
        return len(left) == len(right) and all(map(same, left, right))
    return left == right


def values(obj, names) -> tuple:
    return tuple(getattr(obj, name) for name in names)


@pytest.mark.parametrize("cls, names, args, hashable", CASES, ids=IDS)
def test_construction_by_position_and_keyword(cls, names, args, hashable):
    by_position = cls(*args)
    by_keyword = cls(**dict(zip(names, args)))
    assert type(by_position) is cls and type(by_keyword) is cls
    assert same(values(by_position, names), values(by_keyword, names))
    with pytest.raises(TypeError):
        cls(*args, None)  # one argument too many


@pytest.mark.parametrize("cls, args, expected", DEFAULTS,
                         ids=[f"{cls.__name__}-{len(args)}" for cls, args, _ in DEFAULTS])
def test_defaults(cls, args, expected):
    obj = cls(*args)
    for name, value in expected.items():
        assert same(getattr(obj, name), value)


@pytest.mark.parametrize("cls, names, args, hashable", CASES, ids=IDS)
def test_equality_by_type_and_fields(cls, names, args, hashable):
    obj = cls(*args)
    twin = copy.copy(obj)  # the same field objects, arrays included
    assert twin is not obj
    assert obj == twin and not obj != twin
    assert obj.__eq__(0) is NotImplemented and obj.__eq__(values(obj, names)) is NotImplemented
    assert obj != 0 and not obj == 0
    assert obj != values(obj, names)
    if hashable:
        assert obj == cls(*args)
    other = next(c for c, *_ in CASES if c is not cls)
    assert obj.__eq__(object.__new__(other)) is NotImplemented


def test_equality_needs_equal_types():
    lhs, rhs = Symbol("a"), Symbol("q")
    assert Add(lhs, rhs) != Sub(lhs, rhs) and Mul(lhs, rhs) != Add(lhs, rhs)
    assert Add(lhs, rhs) != Add(rhs, lhs)
    assert ComplexRational() != 0 and ComplexRational(Fraction(1)) != 1
    assert ComplexRational(Fraction(1)) != ComplexRational(Fraction(1), Fraction(1))
    assert Pow(lhs, 2) != Pow(lhs, 3)


@pytest.mark.parametrize("cls, names, args, hashable", CASES, ids=IDS)
def test_hash_is_the_hash_of_the_fields(cls, names, args, hashable):
    obj = cls(*args)
    if cls is ReportDocument:
        assert cls.__hash__ is None
        with pytest.raises(TypeError):
            hash(obj)
    elif hashable:
        assert hash(obj) == hash(values(obj, names))
        assert {obj: 1}[cls(*args)] == 1
    else:
        with pytest.raises(TypeError):  # a numpy array field is unhashable
            hash(obj)


@pytest.mark.parametrize("cls, names, args, hashable", CASES, ids=IDS)
def test_repr_names_each_field(cls, names, args, hashable):
    obj = cls(*args)
    fields = ", ".join(f"{name}={getattr(obj, name)!r}" for name in names)
    assert repr(obj) == f"{cls.__qualname__}({fields})"


@pytest.mark.parametrize("cls", FROZEN, ids=[cls.__name__ for cls in FROZEN])
def test_frozen_refuses_assignment_and_deletion(cls):
    _, names, args, _ = next(case for case in CASES if case[0] is cls)
    obj = cls(*args)
    before = values(obj, names)
    for name in names + ("unknown",):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert same(values(obj, names), before)


def test_report_document_stays_mutable():
    doc = ReportDocument("spin", {})
    doc.version = "v"
    doc.results.append(CheckResult("row", 1, 1, 0, True))
    assert doc.version == "v" and len(doc.results) == 1 and doc.timestamp
    assert ReportDocument("spin", {}).results is not doc.results  # a new list per document
    assert ReportDocument("spin", {}, timestamp="t").timestamp == "t"


@pytest.mark.parametrize("cls, names, args, hashable", CASES, ids=IDS)
def test_copy_and_pickle_round_trips(cls, names, args, hashable):
    obj = cls(*args)
    for name in CACHED.get(cls, ()):
        getattr(obj, name)
    shallow = copy.copy(obj)  # the same field objects and cached tables
    assert all(a is b for a, b in zip(values(shallow, names), values(obj, names)))
    assert all(getattr(shallow, name) is getattr(obj, name) for name in CACHED.get(cls, ()))
    for twin in (copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(twin) is cls
        assert same(values(twin, names), values(obj, names))
        for name in CACHED.get(cls, ()):
            assert same(getattr(twin, name), getattr(obj, name))


@pytest.mark.parametrize("cls", list(CACHED), ids=[cls.__name__ for cls in CACHED])
def test_cached_tables_are_built_once_and_read_only(cls):
    _, names, args, _ = next(case for case in CASES if case[0] is cls)
    obj = cls(*args)
    for name in CACHED[cls]:
        table = getattr(obj, name)
        assert getattr(obj, name) is table
        for array in table if isinstance(table, tuple) else (table,):
            assert not array.flags.writeable
        with pytest.raises(AttributeError):
            setattr(obj, name, None)


OWNED = {WeightedProjectorFamily: ("states", "weights"), SuperoperatorMatrix: ("matrix",),
         RingFactors: ("rows", "log_t", "log_h"), SphereQuadrature: ("thetas", "phis", "weights"),
         PlaneQuadrature: ("alphas", "weights")}


@pytest.mark.parametrize("cls", list(OWNED), ids=[cls.__name__ for cls in OWNED])
def test_array_fields_are_owned_read_only_copies(cls):
    _, names, args, _ = next(case for case in CASES if case[0] is cls)
    given = [np.array(arg) if isinstance(arg, np.ndarray) else arg for arg in args]
    obj = cls(*given)
    for name in OWNED[cls]:
        stored = getattr(obj, name)
        assert not stored.flags.writeable and stored.flags.c_contiguous
        assert not np.shares_memory(stored, given[names.index(name)])


SRC = os.path.dirname(os.path.abspath(luderskit.__file__))


def test_no_module_imports_dataclasses():
    # the value types are plain classes on luderskit._value: importing the package
    # generates and compiles no methods at run time
    for filename in sorted(os.listdir(SRC)):
        if not filename.endswith(".py"):
            continue
        with open(os.path.join(SRC, filename), encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), filename)
        imported = {alias.name.split(".")[0] for node in ast.walk(tree)
                    if isinstance(node, ast.Import) for alias in node.names}
        imported |= {(node.module or "").split(".")[0] for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom) and not node.level}
        assert "dataclasses" not in imported, filename


def test_cli_import_loads_every_module_eagerly():
    # a module left to load later would take its import out of a fresh process's
    # start-up and put it into the first command that needs it
    script = ("import json, sys; import luderskit.cli; "
              "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'luderskit')))")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.path.dirname(SRC)})
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == sorted(
        ["luderskit", "luderskit._value"]
        + [f"luderskit.{name}" for name in ("channel", "cli", "expr", "fock", "ordering",
                                             "reports", "spin")])
