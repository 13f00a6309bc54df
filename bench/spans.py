"""Spans around calls into luderskit's public functions, from outside the package.

`Tracer.install()` replaces each target in its module (or class)
namespace with a wrapper that records a span, and `uninstall()` puts the
originals back.  A span's self time is its duration minus the durations
of the spans it directly contains, so the self times of one pass add up
to the time spent inside the root spans.  A target missing from the
program (renamed or removed) is skipped and listed in `missing`.
"""

from __future__ import annotations

import importlib
import os
import time
from dataclasses import dataclass, field


def _superop(args, kwargs, result):
    """Computed size of the dense D^4 complex superoperator, and its two_s."""
    return {"superop_bytes": 16 * result.dim ** 4, "arg": result.dim - 1}


def _fock_states_key(args, kwargs, result):
    space, quad = args[0], args[1]
    return {"key": (space.dim, float(quad.radius), len(quad))}


def _parse_chars(args, kwargs, result):
    return {"chars": len(args[0])}


def _terms_out(args, kwargs, result):
    return {"terms_out": len(result.terms)}


def _report_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


def _first_arg(args, kwargs, result):
    return {"arg": args[0]}


# (module, class or None, attribute, layer name, counter hook)
TARGETS = (
    ("luderskit.spin", None, "WeightedProjectorFamily", "channel.family", None),
    ("luderskit.cli", None, "build_luders_channel", "channel.build", _superop),
    ("luderskit.channel", None, "build_luders_channel", "channel.build", _superop),
    ("luderskit.cli", None, "channel_spectrum", "channel.spectrum", None),
    ("luderskit.channel", None, "channel_spectrum", "channel.spectrum", None),
    ("luderskit.cli", None, "apply_channel", "channel.apply", None),
    ("luderskit.channel", None, "apply_channel", "channel.apply", None),
    ("luderskit.spin", None, "sphere_quadrature", "spin.quadrature", None),
    ("luderskit.spin", None, "coherent_state_matrix", "spin.states", None),
    ("luderskit.spin", None, "q_symbol_spin", "spin.q_symbol", None),
    ("luderskit.spin", None, "harmonic_coefficients", "spin.harmonic", None),
    ("luderskit.fock", None, "coherent_state_matrix", "fock.states", _fock_states_key),
    ("luderskit.fock", None, "q_symbol_fock", "fock.q_symbol", None),
    ("luderskit.fock", None, "grid_channel_apply", "fock.apply", None),
    ("luderskit.fock", None, "verify_damping", "fock.damping", None),
    ("luderskit.fock", None, "xi_coefficients", "fock.xi", None),
    ("luderskit.fock", None, "fock_coherent_state", "fock.point_state", None),
    ("luderskit.fock", None, "disk_monomial_image", "fock.disk_image", None),
    ("luderskit.fock", None, "disk_identity_matrix", "fock.disk_image", None),
    ("luderskit.ordering", None, "parse_expression", "expr.parse", _parse_chars),
    ("luderskit.expr", None, "parse_expression", "expr.parse", _parse_chars),
    ("luderskit.ordering", None, "normal_order", "ordering.normal_order", _terms_out),
    ("luderskit.ordering", None, "luders_symbolic", "ordering.luders", None),
    ("luderskit.ordering", None, "anti_normal_order", "ordering.anti_normal", None),
    ("luderskit.ordering", None, "is_well_ordered", "ordering.well_ordered", None),
    ("luderskit.ordering", "NormalPolynomial", "to_source", "ordering.to_source", None),
    ("luderskit.ordering", "AntiNormalPolynomial", "to_source", "ordering.to_source", None),
    ("luderskit.ordering", "AntiNormalPolynomial", "to_normal", "ordering.to_normal", None),
    ("luderskit.ordering", None, "luders_fixed_space", "ordering.fixed_space", _first_arg),
    ("luderskit.reports", "ReportDocument", "write_json", "reports.write", _report_bytes),
    ("luderskit.reports", "ReportDocument", "write_csv", "reports.write", _report_bytes),
)

ROOT = "cli"


@dataclass
class Span:
    name: str
    parent: int          # index of the enclosing span, -1 for a root
    command: int         # index of the command whose root span holds this one
    start: float
    end: float = 0.0
    child_time: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    """Records nested spans in memory while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.missing: list[str] = []
        self.command = -1

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, parent, self.command, time.perf_counter()))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int):
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_time += span.duration

    def call(self, name: str, func, *args, hook=None, **kwargs):
        index = self._open(name)
        try:
            result = func(*args, **kwargs)
        finally:
            self._close(index)
        if hook is not None:
            self.spans[index].info = hook(args, kwargs, result)
        return result

    def run_command(self, command: int, func, *args):
        """Run one CLI command under a root span."""
        self.command = command
        return self.call(ROOT, func, *args)

    def _wrap(self, name, func, hook):
        def traced(*args, **kwargs):
            return self.call(name, func, *args, hook=hook, **kwargs)
        return traced

    def install(self):
        for module_name, class_name, attribute, name, hook in TARGETS:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name, None)
            original = owner.__dict__.get(attribute) if owner is not None else None
            if original is None:
                self.missing.append(".".join(filter(None, (module_name, class_name, attribute))))
                continue
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(name, original, hook))

    def uninstall(self):
        for owner, attribute, original in reversed(self._saved):
            setattr(owner, attribute, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def layer_totals(spans) -> dict:
    """Per layer: summed self time, call count and counter totals."""
    totals: dict[str, dict] = {}
    for span in spans:
        entry = totals.setdefault(span.name, {"self_s": 0.0, "calls": 0, "keys": set()})
        entry["self_s"] += span.self_time
        entry["calls"] += 1
        for key, value in span.info.items():
            if key == "key":
                entry["keys"].add(value)
            elif key != "arg":  # "arg" labels a single call, it is not a count
                entry[key] = entry.get(key, 0) + value
    return totals
