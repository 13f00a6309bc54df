"""Command-line verification front end.

Three subcommands: `spin` certifies the SU(2) channel (spectrum law,
unique fixed point, harmonic damping), `fock` cross-checks the disk-grid
particle channel against analytic disk-limit predictions and the exact
symbolic map, and `order` runs the exact ordering engine on an operator
expression.  Exit status 0 means every check passed; 1 means a check
failed; 2 means the invocation itself was invalid (bad sizing, malformed
expression or override, an expression past the degree cap, the digit
limit or the nesting limit, an ordered form with a coefficient past the
digit limit, or a --json or --csv path that cannot be written).

Grid tolerances in `fock` were fixed by oracle runs at the default
sizing (dim=40, radius=3): comparisons against disk-limit predictions
are tight (1e-9), while rows labelled *_gap quantify the irreducible
distance between the radius-3 disk and the infinite plane and carry
correspondingly coarse tolerances.
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache
from itertools import chain
from math import exp, lgamma, log

import numpy as np

from . import __version__, fock, ordering, spin
# cmd_spin takes its spectrum from the charge blocks and its sums from the ring core, cmd_fock
# works from offset diagonals; apply_channel, build_luders_channel and channel_spectrum stay
# imported for bench/spans.py and bench/selftest.py, and ring_luders_image, ring_luders_symbols
# and ring_q_symbols only because tests patch them here to count or refuse their calls
from .channel import (
    _resolution_diagonals,
    apply_channel,
    build_luders_channel,
    channel_spectrum,
    charge_block_spectrum,
    charge_blocks,
    ring_diagonal_image,
    ring_luders_image,
    ring_luders_sums,
    ring_luders_symbols,
    ring_q_symbols,
)
from .expr import MAX_DEGREE, MAX_NUMBER_DIGITS, ParseError
from .reports import ReportDocument, ReportSchemaError
from .spin import SpinSpace

USAGE_ERROR = 2
CHECK_FAILURE = 1

_RNG_SEED = 20030815
_DIGIT_BOUND = 10 ** MAX_NUMBER_DIGITS  # the smallest integer of MAX_NUMBER_DIGITS + 1 digits
_SAFE_BITS = _DIGIT_BOUND.bit_length() - 1  # integers of at most this many bits are below it


class UsageError(ValueError):
    pass


def _largest_coefficient(poly) -> float:
    """max |c| over the terms of an exact polynomial, 0 for the zero polynomial."""
    return max((abs(complex(c)) for c in poly.terms.values()), default=0.0)


def _check_printable(name: str, poly):
    """Raise UsageError if a printed coefficient has more than MAX_NUMBER_DIGITS digits.

    Such a form would not re-parse.  Digits are bounded from bit lengths, not by
    the quadratic str(); the stored numerators and shared denominator bound every
    reduced coefficient, so only a form past that bound checks them one by one.
    """
    if max(map(int.bit_length, chain([poly.den], *poly.num.values()))) <= _SAFE_BITS:
        return
    for c in poly.terms.values():
        if max(abs(c.re.numerator), c.re.denominator,
               abs(c.im.numerator), c.im.denominator) >= _DIGIT_BOUND:
            raise UsageError(f"the {name} has a coefficient of more than "
                             f"{MAX_NUMBER_DIGITS} digits, past the digit limit")


def _label_pairs(rng, space):
    """(a, b, |a⟩, |b⟩, ⟨a|b⟩) for 50 label pairs, the states as (50, dim) matrices; |α| is
    below min(2, √dim/2), inside check_label's dim/4, and below (1e-12·dim!)^{1/(2·dim)}, so
    each state loses at most |α|^{2·dim}/dim! ≤ 1e-12 of its mass past level dim − 1."""
    dim = space.dim
    bound = min(2.0, np.sqrt(dim) / 2, exp((log(1e-12) + lgamma(dim + 1)) / (2 * dim)))
    draws = rng.uniform(size=(50, 2, 2))  # per pair: |a|, arg a, |b|, arg b
    labels = bound * draws[..., 0] * np.exp(2j * np.pi * draws[..., 1])
    a_pts, b_pts = labels[:, 0], labels[:, 1]
    va, vb = fock.fock_coherent_state(space, a_pts), fock.fock_coherent_state(space, b_pts)
    return a_pts, b_pts, va, vb, (va.conj() * vb).sum(axis=1)


def _q_band(dim: int) -> np.ndarray:
    """q[j, j + 1] = q[j + 1, j] = √(j + 1)/2, j = 0..D − 2: the two bands of the truncated
    q = (a + a†)/2, which is 0 elsewhere."""
    return np.sqrt(np.arange(1, dim)) / 2


def _resolution_gap(factors, weights, diagonal) -> float:
    """max |Σ w|ψ⟩⟨ψ| − diag(d)| over the entries, from the resolution's offset diagonals alone."""
    images, charges = _resolution_diagonals(factors, weights)
    images[:, np.searchsorted(charges, 0)] -= diagonal
    return np.abs(images).max()


def _apply_q(states: np.ndarray) -> np.ndarray:
    """q|ψ⟩ per row ψ, from q's two bands: (qψ)[j] = (√j ψ[j − 1] + √(j + 1) ψ[j + 1])/2."""
    band = _q_band(states.shape[-1])
    out = np.zeros_like(states)
    out[..., 1:] = band * states[..., :-1]
    out[..., :-1] += band * states[..., 1:]
    return out


class _CheckRunner:
    """Builds a command's report and its checks, applying tolerance overrides by name."""

    def __init__(self, command: str, parameters: dict, overrides: dict):
        self.report = ReportDocument(command=command, parameters=parameters, version=__version__)
        self.overrides = dict(overrides)
        self.seen = set()

    def numeric(self, name, expected, actual, tolerance):
        tolerance = self.overrides.get(name, tolerance)
        self.seen.add(name)
        passed = abs(float(actual) - float(expected)) <= float(tolerance)
        self.report.add(name, expected, actual, tolerance, passed)

    def textual(self, name, expected, actual):
        self.seen.add(name)
        if name in self.overrides:
            raise UsageError(f"check {name!r} has no numeric tolerance to override")
        self.report.add(name, expected, actual, 0, expected == actual)

    def finish(self) -> ReportDocument:
        unknown = set(self.overrides) - self.seen
        if unknown:
            raise UsageError(
                f"tolerance override for unknown check(s): {', '.join(sorted(unknown))}"
            )
        return self.report


# --- spin ----------------------------------------------------------------------

def cmd_spin(two_s: int, overrides: dict) -> ReportDocument:
    if not 1 <= two_s <= spin.MAX_TWO_S:
        raise UsageError(f"--two-s must lie in 1..{spin.MAX_TWO_S}, got {two_s}")
    space = SpinSpace(two_s)
    grid = spin.sphere_quadrature(space)
    factors, weights = spin.ring_factors(space, grid)
    run = _CheckRunner("spin", {
        "two_s": two_s,
        "n_theta": weights.shape[0],
        "n_phi": weights.shape[1],
        "seed": _RNG_SEED,
    }, overrides)

    run.numeric("resolution_of_unity", 0.0, _resolution_gap(factors, weights, 1.0), 1e-12)

    spectral = charge_block_spectrum(charge_blocks(factors, weights))
    expected = spin.expected_spectrum(space)
    run.numeric("spectrum_law", 0.0,
                np.abs(spectral.eigenvalues.real - expected).max(), 1e-9)
    run.numeric("fixed_space_dim", 1, spectral.fixed_space_dim, 0)

    fixed = spectral.fixed_basis[0]
    residual = fixed - (np.trace(fixed) / space.dim) * np.eye(space.dim)
    run.numeric("fixed_point_identity", 0.0, np.abs(residual).max(), 1e-9)

    # 20 random Hermitian operators: per operator, its real part's draws, then its imaginary part's
    draws = np.random.default_rng(_RNG_SEED).normal(size=(20, 2, space.dim, space.dim))
    operators = draws[:, 0] + 1j * draws[:, 1]
    operators += operators.conj().swapaxes(-1, -2)
    operators /= 2
    # one ring-core call for the stack: rows 0..19 expand B, rows 20..39 expand Λ(B),
    # and neither a D × D image nor a symbol on the nodes is formed
    sums = np.concatenate(ring_luders_sums(factors, weights, operators))
    # row l² + l + m of the coefficients is damped by entry l² + l + m of the spectrum
    coeffs = spin.charge_harmonic_coefficients(sums, grid, space)
    run.numeric("harmonic_damping", 0.0,
                np.abs(coeffs[:, 20:] - expected[:, None] * coeffs[:, :20]).max(), 1e-9)

    return run.finish()


# --- fock ----------------------------------------------------------------------

def cmd_fock(dim: int, radius: float, overrides: dict) -> ReportDocument:
    if not 8 <= dim <= 200:
        raise UsageError(f"--dim must lie in 8..200, got {dim}")
    if not 0 < radius <= np.sqrt(dim) / 2:
        raise UsageError(
            f"--radius must lie in (0, sqrt(dim)/2 = {np.sqrt(dim) / 2:.3f}], got {radius}"
        )
    space = fock.FockSpace(dim)
    quad = fock.plane_quadrature(space, radius=radius)
    factors, weights = fock.ring_factors(space, quad)
    beta = 1.0
    run = _CheckRunner("fock", {
        "dim": dim,
        "radius": radius,
        "n_radial": weights.shape[0],
        "n_angular": weights.shape[1],
        "beta": beta,
        "seed": _RNG_SEED,
    }, overrides)

    run.numeric("quadrature_mass", radius**2, quad.weights.sum(), 1e-10)

    run.numeric("resolution_of_unity_disk", 0.0,
                _resolution_gap(factors, weights, fock.disk_monomial_diagonal(space, 0, 0, radius)),
                1e-9)

    rng = np.random.default_rng(_RNG_SEED)
    a_pts, b_pts, _, _, overlaps = _label_pairs(rng, space)
    run.numeric("coherent_overlap_law", 0.0,
                np.abs(np.abs(overlaps) ** 2 - np.exp(-np.abs(a_pts - b_pts) ** 2)).max(), 1e-9)

    # each word a†^m a^n and its disk image sit on charge m − n: the words of equal
    # charge q are one stack of offset diagonals and one kernel call
    gaps = []
    for q in range(-4, 5):
        words = [(m, n) for m in range(5) for n in range(5 - m) if m - n == q]
        diagonals = np.stack([space.ladder_diagonal(m, n) for m, n in words])[..., None]
        images, charges = ring_diagonal_image(factors, weights, diagonals, [q])
        images[..., np.searchsorted(charges, q)] -= [
            fock.disk_monomial_diagonal(space, m, n, radius) for m, n in words]
        gaps.append(np.abs(images).max())
    run.numeric("grid_vs_symbolic_disk", 0.0, np.max(gaps), 1e-9)

    lam_q2 = ordering.luders_symbolic(ordering.normal_order("q^2"))
    target = ordering.normal_order("q^2 + 1/2")
    run.numeric("lambda_q2_symbolic", 0.0, _largest_coefficient(lam_q2 - target), 0)

    # the truncated q² = (a² + a†² + a a† + a† a)/4 on its charges −2, 0 and 2; its a a†
    # ends in 0, so entry D − 1 of charge 0 is (D − 1)/4
    band = _q_band(dim)
    squares = np.zeros((dim, 3))
    squares[:dim - 2, 0] = squares[:dim - 2, 2] = band[1:] * band[:-1]
    squares[:, 1] = (2 * np.arange(dim) + 1) / 4
    squares[-1, 1] = (dim - 1) / 4
    images, charges = ring_diagonal_image(factors, weights, squares, [-2, 0, 2])
    for q, disk in ((-2, fock.disk_monomial_diagonal(space, 0, 2, radius)),
                    (2, fock.disk_monomial_diagonal(space, 2, 0, radius)),
                    (0, 2 * fock.disk_monomial_diagonal(space, 1, 1, radius)
                     + fock.disk_monomial_diagonal(space, 0, 0, radius))):
        images[:, np.searchsorted(charges, q)] -= disk / 4
    run.numeric("lambda_q2_grid_disk", 0.0, np.abs(images).max(), 1e-9)

    vb = fock.fock_coherent_state(space, beta)
    damping = fock.verify_damping(space, np.outer(vb, vb.conj()), quad, ring=(factors, weights))
    gaussian = 0.5 * np.exp(-np.abs(quad.alphas - beta) ** 2 / 2)
    window = np.abs(quad.alphas) <= 2.0
    run.numeric("q_projector_symbol", 0.0,
                np.abs(damping.image_symbols - gaussian)[window].max(), 2e-3)

    a_pts, b_pts, va, vb, overlaps = _label_pairs(rng, space)
    # ⟨b|[q, P_a]|b⟩ = ⟨b|q|a⟩⟨a|b⟩ − ⟨b|a⟩⟨a|q|b⟩, one row per label pair
    lhs = ((vb.conj() * _apply_q(va)).sum(axis=1) * overlaps
           - overlaps.conj() * (va.conj() * _apply_q(vb)).sum(axis=1))
    rhs = 0.5 * ((a_pts - a_pts.conj()) - (b_pts - b_pts.conj())) \
        * np.exp(-np.abs(a_pts - b_pts) ** 2)
    run.numeric("commutator_formula", 0.0, np.abs(lhs - rhs).max(), 1e-8)

    run.numeric("damping_ratio_gap", 0.0, damping.max_deviation, 0.75)

    return run.finish()


# --- order ---------------------------------------------------------------------

def cmd_order(expression: str, fixed_space: int | None, overrides: dict) -> ReportDocument:
    if fixed_space is not None and not 0 <= fixed_space <= MAX_DEGREE:
        raise UsageError(f"--fixed-space must lie in 0..{MAX_DEGREE}")
    poly = ordering.normal_order(expression)  # ParseError propagates to main
    anti = ordering.anti_normal_order(poly)
    luders = ordering.luders_symbolic(poly)
    well = ordering._families_coincide(poly, anti)
    for name, form in (("normal form", poly), ("anti-normal form", anti), ("Lüders image", luders)):
        _check_printable(name, form)
    normal_form = poly.to_source()
    run = _CheckRunner("order", {
        "expression": expression,
        "normal_form": normal_form,
        "anti_normal_form": anti.to_source(),
        "luders_image": luders.to_source(),
        "well_ordered": "true" if well else "false",
        "fixed_space": "-" if fixed_space is None else fixed_space,
    }, overrides)

    reparsed = ordering.normal_order(normal_form)
    run.textual("parse_round_trip", normal_form, reparsed.to_source())

    run.numeric("ordering_round_trip", 0.0, _largest_coefficient(anti.to_normal() - poly), 0)

    run.textual("well_ordered_luders_consistency",
                "true" if well else "false",
                "true" if luders == poly else "false")

    if fixed_space is not None:
        result = ordering.luders_fixed_space(fixed_space)
        run.numeric("fixed_space_dimension", 2 * fixed_space + 1, result.dimension, 0)

    return run.finish()


# --- driver ----------------------------------------------------------------------

def _parse_overrides(pairs) -> dict:
    overrides = {}
    for pair in pairs or []:
        name, sep, value = pair.partition("=")
        if not sep or not name:
            raise UsageError(f"--tol-override expects NAME=VALUE, got {pair!r}")
        try:
            overrides[name] = float(value)
            if not overrides[name] >= 0:  # false for nan too
                raise ValueError
        except ValueError:
            raise UsageError(f"tolerance override {pair!r} is not a non-negative number") from None
    return overrides


@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The one argument parser of the process; `run` reuses it on every call."""
    parser = argparse.ArgumentParser(
        prog="luderskit",
        description="Verify Lüders channels of coherent-state POVMs.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", metavar="PATH", help="write the JSON report here")
        p.add_argument("--csv", metavar="PATH", help="write the flat check table here")
        p.add_argument("--tol-override", action="append", metavar="NAME=VALUE",
                       help="replace a named check tolerance (repeatable)")

    p_spin = sub.add_parser("spin", help="certify the SU(2) channel")
    p_spin.add_argument("--two-s", type=int, required=True,
                        help=f"twice the spin, 1..{spin.MAX_TWO_S}")
    common(p_spin)

    p_fock = sub.add_parser("fock", help="cross-check the particle grid channel")
    p_fock.add_argument("--dim", type=int, default=fock.DEFAULT_DIM, help="Fock levels, 8..200")
    p_fock.add_argument("--radius", type=float, default=fock.DEFAULT_RADIUS,
                        help="phase-space disk radius, at most sqrt(dim)/2")
    common(p_fock)

    p_order = sub.add_parser("order", help="run the exact ordering engine")
    p_order.add_argument("expression", help="operator expression, e.g. 'q^2 - p^2'; "
                         f"exponents and degrees up to {MAX_DEGREE}; put '--' before "
                         "one that starts with '-'")
    p_order.add_argument("--fixed-space", type=int, metavar="N",
                         help="also enumerate the invariant space of degree <= N, "
                         f"0..{MAX_DEGREE}")
    common(p_order)
    return parser


def _emit(report: ReportDocument, args) -> int:
    print(f"luderskit {report.command} " +
          " ".join(f"{k}={v}" for k, v in report.parameters.items()
                   if k in ("two_s", "dim", "radius", "expression")))
    for key in ("normal_form", "anti_normal_form", "luders_image", "well_ordered"):
        if key in report.parameters:
            print(f"  {key}: {report.parameters[key]}")
    for result in report.results:
        flag = "PASS" if result.passed else "FAIL"
        print(f"  [{flag}] {result.name}: actual={result.actual} "
              f"expected={result.expected} tolerance={result.tolerance}")
    n_pass = sum(r.passed for r in report.results)
    print(f"{n_pass}/{len(report.results)} checks passed")
    if args.json:
        report.write_json(args.json)
    if args.csv:
        report.write_csv(args.csv)
    return 0 if report.all_passed else CHECK_FAILURE


def run(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        overrides = _parse_overrides(args.tol_override)
        if args.command == "spin":
            report = cmd_spin(args.two_s, overrides)
        elif args.command == "fock":
            report = cmd_fock(args.dim, args.radius, overrides)
        else:
            report = cmd_order(args.expression, args.fixed_space, overrides)
        return _emit(report, args)
    except ParseError as exc:
        print(f"error: cannot parse expression: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (UsageError, ReportSchemaError, ordering.DegreeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except OSError as exc:
        print(f"error: cannot write the report: {exc}", file=sys.stderr)
        return USAGE_ERROR


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
