"""Truncated Fock space, Heisenberg-Weyl coherent states, and the plane grid.

The disk quadrature realizes the coherent-state POVM integral over
|α| <= radius only, so identity-type statements hold on the low Fock
levels that disk actually populates; the closed-form disk-limit images
below (entries times regularized incomplete-gamma factors) are the right
comparison targets for grid output, while infinite-plane statements carry an
irreducible e^(-R²)-scale gap.  guard_dim marks the sub-block where matrix
arithmetic is truncation-safe.

The plane grid is rings × a uniform angle grid: `PlaneQuadrature.rings`
splits it once with `channel.split_rings`, and `ring_factors` turns that
split into the (F, W) pair of the ring core, which the grid helpers
(`q_symbol_fock`, `grid_channel_apply`, `resolution_defect`,
`verify_damping`) run on.
`coherent_state_matrix` gives the dense (n_points, dim) matrix, and
`fock_coherent_state` one row per label of an array of labels.

The module needs numpy alone.  Factorials enter through a cached table of
log k!, and the incomplete-gamma factor P(a, R²), for integer a the
Poisson tail Σ_{j≥a} e^{−R²} R^{2j}/j!, is summed in logs from the far
tail down, so it neither overflows nor underflows before the final
exponential.  `displacement_matrix` exponentiates through the eigenbasis
of the Hermitian generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import lgamma, pi, sqrt

import numpy as np

from .channel import (
    TABLE_CACHE_SIZE,
    _read_only,
    ring_luders_image,
    ring_q_symbols,
    ring_resolution,
    split_rings,
)

DEFAULT_DIM = 40
DEFAULT_GUARD_MARGIN = 8
DEFAULT_RADIUS = 3.0
DEFAULT_N_RADIAL = 40
DEFAULT_N_ANGULAR = 64
XI_FLOOR = 1e-8  # |B_xi| below this is too ill-conditioned for a ratio


class TruncationError(ValueError):
    """A phase-space label is too large for the truncated space."""


@dataclass(frozen=True)
class FockSpace:
    """Levels 0..dim-1 with read-only lowering/raising matrices a, a†, built on first use."""

    dim: int
    guard_dim: int = -1  # -1 means dim - DEFAULT_GUARD_MARGIN

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("dim must be at least 2")
        if self.guard_dim == -1:
            object.__setattr__(self, "guard_dim", max(self.dim - DEFAULT_GUARD_MARGIN, 1))
        if not 0 < self.guard_dim <= self.dim:
            raise ValueError("guard_dim must lie in 1..dim")

    @cached_property
    def a(self) -> np.ndarray:
        return _read_only(np.diag(np.sqrt(np.arange(1, self.dim)), 1), complex)

    @property
    def adag(self) -> np.ndarray:
        return self.a.conj().T

    def ladder_word(self, m: int, n: int) -> np.ndarray:
        """The truncated a†^m a^n: entry (j + m, j + n) is run(j, m) · run(j, n) (`_sqrt_run`)."""
        j = np.arange(self.dim - max(m, n))
        out = np.zeros((self.dim, self.dim), dtype=complex)
        out[j + m, j + n] = _sqrt_run(j, m) * _sqrt_run(j, n)
        return out

    def check_label(self, alpha):
        """Raise TruncationError unless max |α|² <= dim/4 over a label or an array of labels."""
        largest = np.max(np.abs(alpha) ** 2, initial=0.0)
        if not largest <= self.dim / 4:  # true for NaN too
            raise TruncationError(f"|alpha|^2 = {largest:.3f} exceeds dim/4 = {self.dim / 4}")


def _sqrt_run(start: np.ndarray, length: int) -> np.ndarray:
    """run(j, length) = ∏_{i=1..length} √(j + i) for each j, in floats (ints overflow int64)."""
    return np.sqrt(start[:, None] + np.arange(1, length + 1)).prod(axis=1)


def _level_logs(y, size: int) -> np.ndarray:
    """k·log y for k = 0..size−1 on a new last axis of y ≥ 0; exactly 0 at k = 0, even at y = 0."""
    y = np.asarray(y, dtype=float)
    out = np.zeros(y.shape + (size,))
    with np.errstate(divide="ignore"):  # log 0 = −inf, and k·(−inf) = −inf for k ≥ 1
        np.multiply(np.arange(1, size), np.log(y)[..., None], out=out[..., 1:])
    return out


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def _log_factorials(size: int) -> np.ndarray:
    """Read-only log k! for k = 0..size−1."""
    return _read_only([lgamma(k + 1) for k in range(size)])


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def _log_gamma_p(size: int, x: float) -> np.ndarray:
    """Read-only log P(a, x) for a = 0..size−1, P the regularized lower incomplete gamma.

    For integer a, P(a, x) is the Poisson tail Σ_{j≥a} e^{−x} x^j / j!: its
    log pmf is accumulated with logaddexp from the far tail down.  The sum
    stops x + 12√(x + 1) + 40 terms past the last a, where what is cut off
    lies below rounding.
    """
    stop = size + int(x + 12 * sqrt(x + 1)) + 40
    log_pmf = _level_logs(x, stop) - x - _log_factorials(stop)
    return _read_only(np.logaddexp.accumulate(log_pmf[::-1])[::-1][:size])


def _coherent_rows(space: FockSpace, alphas: np.ndarray) -> np.ndarray:
    """Rows e^(-|α|²/2) α^k / sqrt(k!), k = 0..dim-1, on a new last axis of the labels α."""
    k = np.arange(space.dim)
    mags = np.abs(alphas)
    # log-domain magnitudes avoid factorial overflow at high dim; level 0 of α = 0 gives |0⟩
    log_mag = (-mags[..., None]**2 / 2 + _level_logs(mags, space.dim)
               - _log_factorials(space.dim) / 2)
    phases = np.exp(1j * k * np.angle(alphas)[..., None])
    return np.exp(log_mag) * phases


def fock_coherent_state(space: FockSpace, alpha) -> np.ndarray:
    """|α⟩ on the truncated space: 1-D for a scalar label, one row per label for an array."""
    space.check_label(alpha)
    return _coherent_rows(space, np.asarray(alpha, dtype=complex))


def displacement_matrix(space: FockSpace, alpha: complex) -> np.ndarray:
    """exp(α a† - α* a) on the truncated space, as V diag(e^{−iλ}) V† from the eigenpairs
    (λ, V) of the Hermitian generator H = i(α a† − α* a)."""
    space.check_label(alpha)
    alpha = complex(alpha)
    lam, vecs = np.linalg.eigh(1j * (alpha * space.adag - np.conj(alpha) * space.a))
    return (vecs * np.exp(-1j * lam)) @ vecs.conj().T


@dataclass(frozen=True)
class PlaneQuadrature:
    """Disk nodes α_k with weights carrying the d²α/π measure; Σw = radius²."""

    alphas: np.ndarray
    weights: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "alphas", _read_only(self.alphas, complex))
        object.__setattr__(self, "weights", _read_only(self.weights, float))

    def __len__(self):
        return len(self.weights)

    @property
    def points(self) -> np.ndarray:
        return self.alphas

    @cached_property
    def rings(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (|α_r|, W[r, l]) from `channel.split_rings`, split on first use."""
        return tuple(map(_read_only, split_rings(self.alphas, self.weights)))


def plane_quadrature(space: FockSpace, radius: float = DEFAULT_RADIUS,
                     n_radial: int = DEFAULT_N_RADIAL,
                     n_angular: int = DEFAULT_N_ANGULAR) -> PlaneQuadrature:
    """Gauss-Legendre nodes in r² on [0, radius²] × uniform angle grid."""
    if not radius > 0:  # true for NaN too
        raise ValueError("radius must be positive")
    if n_radial < 1 or n_angular < 1:
        raise ValueError(
            f"need at least 1 radial and 1 angular node, got {n_radial} and {n_angular}"
        )
    if radius > np.sqrt(space.dim) / 2:
        raise TruncationError(
            f"radius {radius} exceeds sqrt(dim)/2 = {np.sqrt(space.dim) / 2:.3f}"
        )
    x, w_gl = np.polynomial.legendre.leggauss(n_radial)
    u = 0.5 * (x + 1.0) * radius**2          # u = r², d²α/π = du dφ / (2π)
    w_u = 0.5 * w_gl * radius**2
    angles = 2 * pi * np.arange(n_angular) / n_angular
    alphas = np.sqrt(u)[:, None] * np.exp(1j * angles)[None, :]
    weights = np.repeat(w_u[:, None] / n_angular, n_angular, axis=1)
    return PlaneQuadrature(alphas.ravel(), weights.ravel(), radius)


def coherent_state_matrix(space: FockSpace, quad: PlaneQuadrature) -> np.ndarray:
    """All grid coherent states as rows of an (n_points, dim) matrix."""
    return _coherent_rows(space, quad.alphas)


def ring_factors(space: FockSpace, quad: PlaneQuadrature) -> tuple[np.ndarray, np.ndarray]:
    """(F, W) of a rings × uniform-angle grid, for the ring core in `channel`.

    F[r, k] = e^{−u/2} u^{k/2} / √k! at u = |α|² of ring r is the state at
    the ring's φ = 0 node; the state at node (r, l) is F[r, k] e^{ikφ_l},
    φ_l = 2πl/n_φ, and W[r, l] its weight (`quad.rings`).  Any n_φ is
    accepted: the ring core reproduces the grid's sums, aliasing included.
    """
    radii, weights = quad.rings
    return _coherent_rows(space, radii).real, weights


def q_symbol_fock(space: FockSpace, operator: np.ndarray,
                  quad: PlaneQuadrature) -> np.ndarray:
    """Samples ⟨α_k|B|α_k⟩ on the quadrature nodes."""
    factors, weights = ring_factors(space, quad)
    return ring_q_symbols(factors, weights.shape[1], operator).ravel()


def grid_channel_apply(space: FockSpace, quad: PlaneQuadrature,
                       operator: np.ndarray) -> np.ndarray:
    """Σ_k w_k ⟨α_k|B|α_k⟩ |α_k⟩⟨α_k|, the disk-discretized Lüders image."""
    return ring_luders_image(*ring_factors(space, quad), operator)


def resolution_defect(space: FockSpace, quad: PlaneQuadrature,
                      block: int | None = None) -> float:
    """Max-entry deviation of Σ w|α⟩⟨α| from identity on the leading block."""
    block = space.guard_dim if block is None else block
    rou = ring_resolution(*ring_factors(space, quad))
    return float(np.abs(rou[:block, :block] - np.eye(space.dim)[:block, :block]).max())


# --- analytic disk-limit references -------------------------------------------

def disk_identity_matrix(space: FockSpace, radius: float) -> np.ndarray:
    """Continuum value of the disk POVM integral: diag of regularized γ(k+1, R²)."""
    return disk_monomial_image(space, 0, 0, radius)


def disk_monomial_image(space: FockSpace, m: int, n: int, radius: float) -> np.ndarray:
    """Continuum disk-channel image of a†^m a^n, from its closed form.

    Over the whole plane the image is a^n a†^m; the disk |α| <= R scales
    entry (k + m − n, k) by the regularized incomplete gamma P = P(m + k + 1, R²).
    For max(n − m, 0) <= k < dim − m that entry is (k + m)! / √(k! (k + m − n)!) · P,
    formed in logs so that neither the factorials nor P leave the float range
    before the product does.
    """
    k = np.arange(max(n - m, 0), space.dim - m)
    log_fact = _log_factorials(space.dim)
    log_p = _log_gamma_p(space.dim + 1, radius**2)
    out = np.zeros((space.dim, space.dim), dtype=complex)
    out[k + m - n, k] = np.exp(log_fact[k + m] - (log_fact[k] + log_fact[k + m - n]) / 2
                               + log_p[k + m + 1])
    return out


# --- symplectic-Fourier coefficients and the damping check --------------------

@dataclass(frozen=True)
class XiSpectrum:
    """Discretized coefficients B_ξ of a Q-symbol at the given ξ points."""

    xi_points: np.ndarray
    coeffs: np.ndarray


def xi_coefficients(samples: np.ndarray, quad: PlaneQuadrature,
                    xi_points: np.ndarray) -> XiSpectrum:
    """B_ξ = Σ_k w_k Q(α_k) exp(ᾱ_k ξ - α_k ξ̄) per symbol of a (..., n_nodes) stack."""
    xi_points = np.asarray(xi_points, dtype=complex)
    kern = np.exp(
        np.outer(quad.alphas.conj(), xi_points)
        - np.outer(quad.alphas, xi_points.conj())
    )
    coeffs = (quad.weights * np.asarray(samples)) @ kern
    return XiSpectrum(xi_points, coeffs)


def default_xi_points() -> np.ndarray:
    """Five deterministic rings of five sample points with 0 < |ξ| <= 2."""
    out = []
    for i, r in enumerate(2.0 * (np.arange(1, 6) / 5)):
        angles = 2 * pi * (np.arange(5) + 0.5 * (i % 2)) / 5
        out.extend(r * np.exp(1j * angles))
    return np.array(out)


@dataclass(frozen=True)
class DampingReport:
    """Pointwise ratio B_ξ(Q_Λ(B)) / B_ξ(Q_B) against the Gaussian e^(-|ξ|²)."""

    source_symbols: np.ndarray  # Q_B on the quadrature nodes
    image_symbols: np.ndarray   # Q_Λ(B) on the quadrature nodes
    xi_points: np.ndarray
    source_coeffs: np.ndarray
    image_coeffs: np.ndarray
    ratios: np.ndarray
    expected: np.ndarray
    deviations: np.ndarray
    flagged: np.ndarray  # True where |B_ξ| < XI_FLOOR: not compared

    @property
    def max_deviation(self) -> float:
        live = ~self.flagged
        return float(self.deviations[live].max()) if live.any() else 0.0


def verify_damping(space: FockSpace, operator: np.ndarray, quad: PlaneQuadrature,
                   xi_points: np.ndarray | None = None) -> DampingReport:
    """Compare the transform ratio of Q_Λ(B) to Q_B with e^(-|ξ|²).

    Points where the source coefficient is below XI_FLOOR are flagged and
    excluded from the deviation (the ratio there is ill-conditioned).
    """
    if xi_points is None:
        xi_points = default_xi_points()
    factors, weights = ring_factors(space, quad)
    stack = np.array([operator, ring_luders_image(factors, weights, operator)])
    symbols = ring_q_symbols(factors, weights.shape[1], stack).reshape(2, -1)
    xi = xi_coefficients(symbols, quad, xi_points)
    (source, image), (src, img) = symbols, xi.coeffs
    flagged = np.abs(src) < XI_FLOOR
    ratios = np.where(flagged, np.nan + 0j, img / np.where(flagged, 1.0, src))
    expected = np.exp(-np.abs(xi.xi_points) ** 2)
    deviations = np.where(flagged, np.nan, np.abs(ratios - expected))
    return DampingReport(
        source_symbols=source,
        image_symbols=image,
        xi_points=xi.xi_points,
        source_coeffs=src,
        image_coeffs=img,
        ratios=ratios,
        expected=expected,
        deviations=deviations,
        flagged=flagged,
    )
