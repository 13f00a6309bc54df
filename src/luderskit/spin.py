"""Spin-s spaces, SU(2) coherent states, and exact sphere quadrature.

States |n⟩ are labelled by points of the unit sphere; the basis is
|s, m⟩ with m descending from s to -s, so the highest-weight reference
state is the first basis vector.  The product quadrature (Gauss-Legendre
in cos θ, uniform in φ) integrates every spherical harmonic up to its
exact degree, which makes the discretized POVM resolve the identity to
machine precision.  Grid work runs ring by ring from the split in
`SphereQuadrature.rings`: `ring_factors` (F, W) and the harmonic
transform, which expands a whole stack of symbols in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import comb, factorial, pi

import numpy as np

from .channel import WeightedProjectorFamily, q_symbols, split_rings

MAX_TWO_S = 50  # pinned by the tests; raising it is a change of its own


@dataclass(frozen=True)
class SpinSpace:
    """Spin-s Hilbert space (dim = two_s + 1) with ladder matrices."""

    two_s: int

    def __post_init__(self):
        if not isinstance(self.two_s, int) or self.two_s < 1:
            raise ValueError("two_s must be a positive integer")
        if self.two_s > MAX_TWO_S:
            raise ValueError(f"two_s capped at {MAX_TWO_S}")
        m = self.spin - np.arange(self.dim)
        jz = np.diag(m).astype(complex)
        # J+|s,m> = sqrt((s-m)(s+m+1)) |s,m+1>; basis index k has m = s-k
        k = np.arange(1, self.dim)
        jplus = np.diag(np.sqrt(k * (self.two_s + 1 - k)), 1).astype(complex)
        for arr in (jz, jplus):
            arr.setflags(write=False)
        object.__setattr__(self, "_jz", jz)
        object.__setattr__(self, "_jplus", jplus)

    @property
    def dim(self) -> int:
        return self.two_s + 1

    @property
    def spin(self) -> float:
        return self.two_s / 2

    @property
    def jz(self) -> np.ndarray:
        return self._jz

    @property
    def jplus(self) -> np.ndarray:
        return self._jplus

    @property
    def jminus(self) -> np.ndarray:
        return self._jplus.conj().T


@dataclass(frozen=True)
class SpherePoint:
    theta: float
    phi: float

    def __post_init__(self):
        if not 0.0 <= self.theta <= pi:
            raise ValueError(f"theta must lie in [0, pi], got {self.theta}")
        if not 0.0 <= self.phi < 2 * pi:
            raise ValueError(f"phi must lie in [0, 2*pi), got {self.phi}")

    @property
    def unit_vector(self) -> np.ndarray:
        st = np.sin(self.theta)
        return np.array(
            [st * np.cos(self.phi), st * np.sin(self.phi), np.cos(self.theta)]
        )


def _coherent_rows(space: SpinSpace, thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """Rows ⟨s,m|n⟩ = sqrt(C(2s,s+m)) cos^(s+m)(θ/2) sin^(s-m)(θ/2) e^(-imφ)."""
    two_s = space.two_s
    k = np.arange(space.dim)          # basis index, m = s - k, so s+m = 2s-k
    amps = np.sqrt([comb(two_s, two_s - kk) for kk in k])
    half = thetas[:, None] / 2
    mag = amps[None, :] * np.cos(half) ** (two_s - k)[None, :] * np.sin(half) ** k[None, :]
    return mag * np.exp(-1j * np.outer(phis, space.spin - k))


def spin_coherent_state(space: SpinSpace, point: SpherePoint) -> np.ndarray:
    """The coherent state |n⟩ at one point of the sphere."""
    return _coherent_rows(space, np.array([point.theta]), np.array([point.phi]))[0]


def coherent_state_matrix(space: SpinSpace, grid: "SphereQuadrature") -> np.ndarray:
    """All grid coherent states as rows of an (n_points, dim) matrix."""
    return _coherent_rows(space, grid.thetas, grid.phis)


def overlap_squared(space: SpinSpace, p1: SpherePoint, p2: SpherePoint) -> float:
    """|⟨n1|n2⟩|², computed from the state vectors."""
    v1 = spin_coherent_state(space, p1)
    v2 = spin_coherent_state(space, p2)
    return float(abs(np.vdot(v1, v2)) ** 2)


@dataclass(frozen=True)
class SphereQuadrature:
    """Product quadrature on the sphere carrying the (2s+1)/(4π) sinθ measure.

    Exact for all integrands band-limited to spherical-harmonic degree
    exact_degree; total weight is 2s+1.
    """

    thetas: np.ndarray
    phis: np.ndarray
    weights: np.ndarray
    exact_degree: int

    def __post_init__(self):
        for name in ("thetas", "phis", "weights"):
            arr = np.ascontiguousarray(np.asarray(getattr(self, name), dtype=float))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self):
        return len(self.weights)

    @property
    def points(self) -> list[SpherePoint]:
        return [SpherePoint(t, p) for t, p in zip(self.thetas, self.phis)]

    @cached_property
    def rings(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only (θ_r, φ_l, W[r, l]) from `channel.split_rings`, θ the radial coordinate."""
        thetas, weights = split_rings(self.thetas * np.exp(1j * self.phis), self.weights)
        phis = 2 * pi * np.arange(weights.shape[1]) / weights.shape[1]
        for arr in (thetas, phis, weights):
            arr.setflags(write=False)
        return thetas, phis, weights


def sphere_quadrature(space: SpinSpace, n_theta: int | None = None,
                      n_phi: int | None = None) -> SphereQuadrature:
    """Minimal exact grid: 2s+1 Gauss-Legendre θ-nodes × 4s+1 uniform φ-nodes.

    Every integrand arising from degree-2s symbols (overlaps, symbol
    products) is band-limited to degree 4s, which this grid integrates
    exactly: min(2*n_theta - 1, n_phi - 1) >= 4s.
    """
    two_s = space.two_s
    n_theta = two_s + 1 if n_theta is None else n_theta
    n_phi = 2 * two_s + 1 if n_phi is None else n_phi
    if n_theta < two_s + 1:
        raise ValueError(f"need at least {two_s + 1} theta nodes")
    if n_phi < 2 * two_s + 1:
        raise ValueError(f"need at least {2 * two_s + 1} phi nodes")
    x, w_gl = np.polynomial.legendre.leggauss(n_theta)
    thetas = np.arccos(x)
    phis = 2 * pi * np.arange(n_phi) / n_phi
    # (2s+1)/(4π) sinθ dθ dφ  ->  (2s+1) * w_gl/2 * (1/n_phi) per node
    w_theta = (two_s + 1) * w_gl / 2
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    ww = np.repeat(w_theta[:, None] / n_phi, n_phi, axis=1)
    exact_degree = min(2 * n_theta - 1, n_phi - 1)
    return SphereQuadrature(tt.ravel(), pp.ravel(), ww.ravel(), exact_degree)


def ring_factors(space: SpinSpace, grid: SphereQuadrature) -> tuple[np.ndarray, np.ndarray]:
    """(F, W) of a product grid, for `channel.charge_blocks` and the ring core.

    F[r, k] is the state at ring r and φ = 0, real and non-negative; the
    state at angle φ is e^{−isφ} F[r, k] e^{ikφ}; W from `grid.rings`.
    Raises ValueError unless W has equal weights per ring and n_φ > 2·two_s,
    the bound that makes the φ-sum an exact Kronecker delta on the charge.
    """
    thetas, _, weights = grid.rings
    if weights.shape[1] <= 2 * space.two_s:
        raise ValueError(f"need more than {2 * space.two_s} phi nodes, got {weights.shape[1]}")
    if np.abs(weights - weights[:, :1]).max() > 1e-12 * weights.max():
        raise ValueError("grid weights vary along a ring")
    return _coherent_rows(space, thetas, np.zeros(len(thetas))).real, weights


def q_symbol_spin(space: SpinSpace, operator: np.ndarray,
                  grid: SphereQuadrature) -> np.ndarray:
    """Samples ⟨n_k|B|n_k⟩ on the quadrature nodes."""
    return q_symbols(coherent_state_matrix(space, grid), operator)


# --- spherical harmonics ------------------------------------------------------

def harmonic_blocks(lmax: int, thetas: np.ndarray, phis: np.ndarray):
    """Yield (m, P, phase) for m = 0, 1, -1, ..., lmax, -lmax at the given nodes.

    Y_lm = P[:, l - |m|] * phase for l = |m|..lmax: fully normalized
    harmonics with the Condon-Shortley phase.  P is the real block of
    normalized associated Legendre values, built once per |m| from the
    stable three-term recurrence and shared by ±m; the charge lives in the
    phase, e^(imφ) for m >= 0 and (-1)^m conj(e^(imφ)) for -m.
    """
    x = np.cos(thetas)
    sx = np.sin(thetas)
    pmm = np.full_like(x, 1.0 / np.sqrt(4 * pi))
    for m in range(lmax + 1):
        if m > 0:
            pmm = -np.sqrt((2 * m + 1) / (2 * m)) * sx * pmm
        rows = [pmm]
        if m < lmax:
            rows.append(np.sqrt(2 * m + 3) * x * pmm)
        for l in range(m + 2, lmax + 1):
            a_l = np.sqrt((4 * l * l - 1) / (l * l - m * m))
            a_l1 = np.sqrt((4 * (l - 1) ** 2 - 1) / ((l - 1) ** 2 - m * m))
            rows.append(a_l * (x * rows[-1] - rows[-2] / a_l1))
        block = np.array(rows).T
        phase = np.exp(1j * m * phis)
        yield m, block, phase
        if m > 0:
            yield -m, block, (-1) ** m * phase.conj()


def sph_harm_values(l: int, m: int, thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """Y_lm at the given angles (any sign of m)."""
    if abs(m) > l:
        raise ValueError("|m| must not exceed l")
    for mm, block, phase in harmonic_blocks(l, np.asarray(thetas, float),
                                            np.asarray(phis, float)):
        if mm == m:
            return block[:, l - abs(m)] * phase
    raise AssertionError("unreachable")


@dataclass(frozen=True)
class HarmonicCoefficients:
    """Coefficients B_lm of a Q-symbol, 0 <= l <= 2s, |m| <= l: scalars, or arrays over a stack."""

    two_s: int
    coeffs: dict

    def __getitem__(self, key):
        return self.coeffs.get(key, 0.0 + 0.0j)


def harmonic_coefficients(samples: np.ndarray, grid: SphereQuadrature,
                          space: SpinSpace) -> HarmonicCoefficients:
    """B_lm = sqrt(4π/(2s+1)) Σ_k w_k Q(n_k) conj(Y_lm(n_k)), block by block in m.

    `samples` has shape (..., n_nodes), the flat node axis last as from
    `q_symbol_spin`; each B_lm has the leading shape, so a stack of symbols
    shares one pass over the Legendre blocks (a ring-shaped (n_r, n_φ)
    array raises ValueError).  Each phase is summed against W∘Q over φ
    first, one value per ring.
    """
    if grid.exact_degree < 2 * space.two_s:
        raise ValueError(f"grid exact degree {grid.exact_degree} is below the required "
                         f"{2 * space.two_s}; coefficients would alias")
    thetas, phis, weights = grid.rings
    wq = np.sqrt(4 * pi / (space.two_s + 1)) * weights * np.reshape(
        samples, np.shape(samples)[:-1] + weights.shape)
    coeffs = {}
    for m, block, phase in harmonic_blocks(space.two_s, thetas, phis):
        ring = wq @ phase.conj()
        column = ring.real @ block + 1j * (ring.imag @ block)  # the block stays real
        coeffs.update(((abs(m) + i, m), c) for i, c in enumerate(np.moveaxis(column, -1, 0)))
    return HarmonicCoefficients(space.two_s, coeffs)


def reconstruct_q_symbol(coeffs: HarmonicCoefficients,
                         grid: SphereQuadrature) -> np.ndarray:
    """Invert harmonic_coefficients: Q(n_k) = sqrt(4π/(2s+1)) Σ B_lm Y_lm(n_k), ring by ring."""
    lmax = coeffs.two_s
    out = np.zeros(grid.rings[2].shape, dtype=complex)
    for m, block, phase in harmonic_blocks(lmax, *grid.rings[:2]):
        c_m = np.array([coeffs[(l, m)] for l in range(abs(m), lmax + 1)])
        out += np.outer(block @ c_m.real + 1j * (block @ c_m.imag), phase)
    return np.sqrt(4 * pi / (lmax + 1)) * out.ravel()


# --- damping factors ----------------------------------------------------------

def tau_spin_fraction(two_s: int, l: int) -> Fraction:
    """Exact damping factor (2s)!(2s+1)!/((2s-l)!(2s+1+l)!)."""
    if l < 0 or l > two_s:
        raise ValueError(f"l must lie in 0..{two_s}, got {l}")
    return Fraction(
        factorial(two_s) * factorial(two_s + 1),
        factorial(two_s - l) * factorial(two_s + 1 + l),
    )


def tau_spin(space: SpinSpace, l: int) -> float:
    """Channel eigenvalue on the degree-l harmonic sector."""
    return float(tau_spin_fraction(space.two_s, l))


def expected_spectrum(space: SpinSpace) -> np.ndarray:
    """Eigenvalue multiset {tau_l with multiplicity 2l+1}, descending since tau_l falls with l."""
    taus = [tau_spin(space, l) for l in range(space.dim)]
    return np.repeat(taus, 2 * np.arange(space.dim) + 1)


def projector_family(space: SpinSpace,
                     grid: SphereQuadrature | None = None) -> WeightedProjectorFamily:
    """Discretized coherent-state POVM as a weighted projector family."""
    if grid is None:
        grid = sphere_quadrature(space)
    return WeightedProjectorFamily(
        dim=space.dim,
        states=coherent_state_matrix(space, grid),
        weights=grid.weights,
    )
