"""Spin-s spaces, SU(2) coherent states, and exact sphere quadrature.

States |n⟩ are labelled by points of the unit sphere; the basis is
|s, m⟩ with m descending from s to -s, so the highest-weight reference
state is the first basis vector.  The product quadrature (Gauss-Legendre
in cos θ, uniform in φ) integrates every spherical harmonic up to its
exact degree, which makes the discretized POVM resolve the identity to
machine precision.  Grid work runs ring by ring from the split in
`SphereQuadrature.rings`: `ring_factors` (F, W) and the harmonic
transform, which expands a whole stack of symbols in one pass, from
their node samples or, with no node formed, from the ring charge sums
of `channel.ring_luders_sums`.
"""

from __future__ import annotations

from functools import cached_property
from fractions import Fraction
from math import comb, factorial, isqrt, pi

import numpy as np

from ._value import Value
from .channel import (
    RingFactors,
    WeightedProjectorFamily,
    _alias_free,
    _gauss_legendre,
    _integer,
    _read_only,
    q_symbols,
    split_rings,
)

MAX_TWO_S = 50  # pinned by the tests; raising it is a change of its own


class SpinSpace(Value):
    """Spin-s Hilbert space (dim = two_s + 1) with read-only ladder matrices, built on first use."""

    _fields = ("two_s",)
    __slots__ = _fields + ("__dict__",)

    def __init__(self, two_s: int):
        two_s = _integer(two_s, "two_s")
        if two_s < 1:
            raise ValueError("two_s must be a positive integer")
        if two_s > MAX_TWO_S:
            raise ValueError(f"two_s capped at {MAX_TWO_S}")
        object.__setattr__(self, "two_s", two_s)

    @property
    def dim(self) -> int:
        return self.two_s + 1

    @property
    def spin(self) -> float:
        return self.two_s / 2

    @cached_property
    def jz(self) -> np.ndarray:
        return _read_only(np.diag(self.spin - np.arange(self.dim)), complex)

    @cached_property
    def jplus(self) -> np.ndarray:
        # J+|s,m> = sqrt((s-m)(s+m+1)) |s,m+1>; basis index k has m = s-k
        k = np.arange(1, self.dim)
        return _read_only(np.diag(np.sqrt(k * (self.two_s + 1 - k)), 1), complex)

    @property
    def jminus(self) -> np.ndarray:
        return self.jplus.conj().T


class SpherePoint(Value):
    _fields = __slots__ = ("theta", "phi")

    def __init__(self, theta: float, phi: float):
        if not 0.0 <= theta <= pi:
            raise ValueError(f"theta must lie in [0, pi], got {theta}")
        if not 0.0 <= phi < 2 * pi:
            raise ValueError(f"phi must lie in [0, 2*pi), got {phi}")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", phi)

    @property
    def unit_vector(self) -> np.ndarray:
        st = np.sin(self.theta)
        return np.array(
            [st * np.cos(self.phi), st * np.sin(self.phi), np.cos(self.theta)]
        )


def _binomials(two_s: int) -> np.ndarray:
    """C(2s, k) for k = 0..2s as floats: exact through two_s 56 (C(56, 28) < 2^53), then rounded."""
    return np.array([float(comb(two_s, k)) for k in range(two_s + 1)])


def _coherent_rows(space: SpinSpace, thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """Rows ⟨s,m|n⟩ = sqrt(C(2s,s+m)) cos^(s+m)(θ/2) sin^(s-m)(θ/2) e^(-imφ)."""
    two_s = space.two_s
    k = np.arange(space.dim)          # basis index, m = s - k, so s+m = 2s-k
    amps = np.sqrt(_binomials(two_s))  # C(2s, 2s-k) = C(2s, k)
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


class SphereQuadrature(Value):
    """Product quadrature on the sphere carrying the (2s+1)/(4π) sinθ measure.

    Exact for all integrands band-limited to spherical-harmonic degree
    exact_degree; total weight is 2s+1.
    """

    _fields = ("thetas", "phis", "weights", "exact_degree")
    __slots__ = _fields + ("__dict__",)

    def __init__(self, thetas: np.ndarray, phis: np.ndarray, weights: np.ndarray,
                 exact_degree: int):
        object.__setattr__(self, "thetas", _read_only(thetas, float))
        object.__setattr__(self, "phis", _read_only(phis, float))
        object.__setattr__(self, "weights", _read_only(weights, float))
        object.__setattr__(self, "exact_degree", exact_degree)

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
        return _read_only(thetas), _read_only(phis), _read_only(weights)


def sphere_quadrature(space: SpinSpace, n_theta: int | None = None,
                      n_phi: int | None = None) -> SphereQuadrature:
    """Minimal exact grid: 2s+1 Gauss-Legendre θ-nodes × 4s+1 uniform φ-nodes.

    Every integrand arising from degree-2s symbols (overlaps, symbol
    products) is band-limited to degree 4s, which this grid integrates
    exactly: min(2*n_theta - 1, n_phi - 1) >= 4s.  Raises ValueError unless the node
    counts given are integers (`channel._integer`) of at least 2s + 1 and 4s + 1.
    """
    two_s = space.two_s
    n_theta = two_s + 1 if n_theta is None else _integer(n_theta, "n_theta")
    n_phi = 2 * two_s + 1 if n_phi is None else _integer(n_phi, "n_phi")
    if n_theta < two_s + 1:
        raise ValueError(f"need at least {two_s + 1} theta nodes")
    if n_phi < 2 * two_s + 1:
        raise ValueError(f"need at least {2 * two_s + 1} phi nodes")
    x, w_gl = _gauss_legendre(n_theta)
    thetas = np.arccos(x)
    phis = 2 * pi * np.arange(n_phi) / n_phi
    # (2s+1)/(4π) sinθ dθ dφ  ->  (2s+1) * w_gl/2 * (1/n_phi) per node
    w_theta = (two_s + 1) * w_gl / 2
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    ww = np.repeat(w_theta[:, None] / n_phi, n_phi, axis=1)
    exact_degree = min(2 * n_theta - 1, n_phi - 1)
    return SphereQuadrature(tt.ravel(), pp.ravel(), ww.ravel(), exact_degree)


def ring_factors(space: SpinSpace, grid: SphereQuadrature) -> tuple[RingFactors, np.ndarray]:
    """(F, W) of a product grid: F a `RingFactors`, as the ring core and `channel.charge_blocks` take it.

    F[r, k] is the state at ring r and φ = 0, real and non-negative, in the
    Perelomov form F[r, k] = cos^{2s}(θ_r/2) h_k t_r^k with t_r = tan(θ_r/2)
    and h_k = √C(2s, k); the state at angle φ is e^{−isφ} F[r, k] e^{ikφ};
    W from `grid.rings`.  Raises ValueError unless W has equal weights per
    ring and n_φ > 2·two_s, the bound that makes the φ-sum an exact
    Kronecker delta on the charge (`channel._alias_free`).
    """
    thetas, _, weights = grid.rings
    weights = _alias_free(weights, space.dim)
    with np.errstate(divide="ignore"):  # a ring at θ = 0 has log t = −inf
        log_t = np.log(np.tan(thetas / 2))
    log_h = np.log(_binomials(space.two_s)) / 2
    rows = _coherent_rows(space, thetas, np.zeros(len(thetas))).real
    return RingFactors(rows, log_t, log_h), weights


def q_symbol_spin(space: SpinSpace, operator: np.ndarray,
                  grid: SphereQuadrature) -> np.ndarray:
    """Samples ⟨n_k|B|n_k⟩ on the quadrature nodes."""
    return q_symbols(coherent_state_matrix(space, grid), operator)


# --- spherical harmonics ------------------------------------------------------

def harmonic_blocks(lmax: int, thetas: np.ndarray, phis: np.ndarray):
    """Yield (m, P, phase) for m = 0, 1, -1, ..., lmax, -lmax at the given nodes.

    Y_lm = P[:, l - |m|] * phase for l = |m|..lmax: fully normalized
    harmonics with the Condon-Shortley phase.  P is the real block of
    `_legendre_blocks`; the charge lives in the phase, e^(imφ) for either sign of m.
    """
    phases = np.exp(1j * np.outer(np.arange(lmax + 1), phis))
    for m, block in _legendre_blocks(lmax, thetas):
        yield m, block, phases[m] if m >= 0 else phases[-m].conj()


def _legendre_blocks(lmax: int, thetas: np.ndarray):
    """Yield (m, P) for m = 0, 1, -1, ..., lmax, -lmax: P[:, l - |m|] = P_lm(θ) at the nodes.

    P is the real block of normalized associated Legendre values, for m < 0 the
    m > 0 block times (-1)^m (a new array for odd m), the one place that sign is
    applied; the blocks of all |m| come from one stable three-term recurrence
    over l, vectorised over m.
    """
    x = np.cos(thetas)
    ms = np.arange(lmax + 1)
    # table[l, m] = P_lm at the nodes, 0 for l < m; P_mm is a running product over m
    table = np.zeros((lmax + 1, lmax + 1, len(x)))
    steps = -np.sqrt((2 * ms[1:] + 1) / (2 * ms[1:]))[:, None] * np.sin(thetas)
    table[ms, ms] = pmm = np.cumprod(np.vstack([np.full_like(x, 1.0 / np.sqrt(4 * pi)), steps]),
                                     axis=0)
    # a[l, m] = sqrt((4l² − 1)/(l² − m²)) for m < l, the recurrence coefficients
    l_sq, m_sq = np.meshgrid(ms * ms, ms * ms, indexing="ij")
    a = np.sqrt(np.divide(4 * l_sq - 1, l_sq - m_sq, out=np.ones(l_sq.shape),
                          where=m_sq < l_sq))[:, :, None]
    for l in range(1, lmax + 1):
        table[l, l - 1] = np.sqrt(2 * l + 1) * x * pmm[l - 1]
        table[l, :l - 1] = a[l, :l - 1] * (x * table[l - 1, :l - 1]
                                           - table[l - 2, :l - 1] / a[l - 1, :l - 1])
    for m in range(lmax + 1):
        block = table[m:, m].T
        yield m, block
        if m > 0:  # even m share the block: a copy per m was measurably slower
            yield -m, -block if m % 2 else block


def sph_harm_values(l: int, m: int, thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """Y_lm at the given angles (any sign of m)."""
    if abs(m) > l:
        raise ValueError("|m| must not exceed l")
    blocks = harmonic_blocks(l, np.asarray(thetas, float), np.asarray(phis, float))
    return next(block[:, l - abs(m)] * phase for mm, block, phase in blocks if mm == m)


def _check_degree(grid: SphereQuadrature, space: SpinSpace):
    if grid.exact_degree < 2 * space.two_s:
        raise ValueError(f"grid exact degree {grid.exact_degree} is below the required "
                         f"{2 * space.two_s}; coefficients would alias")


def _legendre_contraction(hat: np.ndarray, ring_weights: np.ndarray, grid: SphereQuadrature,
                          space: SpinSpace) -> np.ndarray:
    """B_lm = sqrt(4π/(2s+1)) Σ_r P_lm(θ_r) v[r] ŵ[…, r, m + 2s] in row l² + l + m.

    v[r] ŵ[…, r, m + 2s] is ring r's φ-sum Σ_l W[r, l] Q[…, r, l] e^(-imφ_l),
    and P_lm the signed Legendre block of `_legendre_blocks`.  The ring weights
    v go into the blocks, so ŵ may be any strided view; each m meets its
    block in one real product.
    """
    thetas = grid.rings[0]
    lmax = space.two_s
    lead = hat.shape[:-2]
    hat = hat.reshape((-1,) + hat.shape[-2:])
    scale = np.sqrt(4 * pi / (lmax + 1)) * ring_weights[:, None]
    coeffs = np.empty((space.dim ** 2, 2 * len(hat)))
    for m, block in _legendre_blocks(lmax, thetas):
        l = np.arange(abs(m), lmax + 1)
        # (r, Re/Im of each symbol) as one contiguous real matrix
        slab = np.ascontiguousarray(hat[:, :, m + lmax].T).view(float)
        coeffs[l * l + l + m] = (scale * block).T @ slab
    return coeffs.view(complex).reshape((space.dim ** 2,) + lead)


def harmonic_coefficients(samples: np.ndarray, grid: SphereQuadrature,
                          space: SpinSpace) -> np.ndarray:
    """B_lm = sqrt(4π/(2s+1)) Σ_k w_k Q(n_k) conj(Y_lm(n_k)), the node front end.

    `samples` has shape (..., n_nodes), the flat node axis last as from
    `q_symbol_spin` (a ring-shaped (n_r, n_φ) array raises ValueError).
    Returns a complex array of shape ((2s+1)²,) + the leading shape: B_lm
    sits in row l² + l + m, the order of `expected_spectrum`, so row i is
    damped by that spectrum's entry i.  Each ring's φ-sum of W∘Q against
    e^(-imφ) is its DFT at m mod n_φ, one `np.fft.fft` for every ring and m,
    then contracted ring by ring with the Legendre blocks, the same
    contraction as `charge_harmonic_coefficients`.
    """
    _check_degree(grid, space)
    weights = grid.rings[2]
    wq = weights * np.reshape(samples, np.shape(samples)[:-1] + weights.shape)
    charges = np.arange(-space.two_s, space.two_s + 1)
    return _legendre_contraction(np.fft.fft(wq)[..., charges % weights.shape[1]],
                                 np.ones(len(weights)), grid, space)


def charge_harmonic_coefficients(sums: np.ndarray, grid: SphereQuadrature,
                                 space: SpinSpace) -> np.ndarray:
    """`harmonic_coefficients` of the ring symbols of the charge sums c, with no node formed.

    `sums` has shape (…, n_r, 4s + 1) as from `channel.ring_luders_sums`
    on `ring_factors(space, grid)`, c[r, q] in column q + 2s.  On an
    alias-free grid the φ-sum of W∘Q against e^(-imφ) is exactly
    n_φ W[r, 0] c[r, −m]: c reversed along q, with ring weights n_φ W[r, 0].
    Raises ValueError if W varies along a ring, n_φ ≤ 2·two_s or the grid's
    exact degree is below 2·two_s.
    """
    _check_degree(grid, space)
    weights = _alias_free(grid.rings[2], space.dim)
    sums = np.asarray(sums)
    if sums.shape[-2:] != (len(weights), 2 * space.two_s + 1):
        raise ValueError(f"charge sums must have shape (..., {len(weights)}, "
                         f"{2 * space.two_s + 1}), got {sums.shape}")
    return _legendre_contraction(sums[..., ::-1], weights.shape[1] * weights[:, 0], grid, space)


def reconstruct_q_symbol(coeffs: np.ndarray, grid: SphereQuadrature) -> np.ndarray:
    """Invert harmonic_coefficients for one symbol: Q(n_k) = sqrt(4π/(2s+1)) Σ B_lm Y_lm(n_k).

    `coeffs` holds B_lm in row l² + l + m; its length (2s+1)² gives lmax = 2s,
    and any other length raises ValueError.  Summed ring by ring.
    """
    lmax = isqrt(len(coeffs)) - 1
    if lmax < 0 or (lmax + 1) ** 2 != len(coeffs):
        raise ValueError(f"{len(coeffs)} coefficients: the count must be (lmax + 1)²")
    out = np.zeros(grid.rings[2].shape, dtype=complex)
    for m, block, phase in harmonic_blocks(lmax, *grid.rings[:2]):
        l = np.arange(abs(m), lmax + 1)
        c_m = coeffs[l * l + l + m]
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
