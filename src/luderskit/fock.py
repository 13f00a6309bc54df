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
`verify_damping`) run on; `verify_damping` takes Q_B and Q_Λ(B) together
from `channel.ring_luders_symbols`, with no D × D image.
`coherent_state_matrix` gives the dense (n_points, dim) matrix, and
`fock_coherent_state` one row per label of an array of labels.  A ladder
word a†^m a^n and its disk-limit image sit on the charge m − n: the truncated
word's offset diagonal is `FockSpace.ladder_diagonal`, the image's
`disk_monomial_diagonal` (whole on D + min(m, n) levels), and `ladder_word`
and `disk_monomial_image` scatter them with `_on_diagonals`.  The word's
Q-symbol ᾱ^m α^n is t^(m+n) on that charge, which `cli` maps through the
grid's moment table (`channel.ring_power_image`), and the whole-space disk
image of every word on the leading D levels is κ[|m − n|, i] times column
max(m, n) of one disk moment table (`disk_moments`).

The module needs numpy alone.  A coherent-state row is one running product
along the levels: e^{−|α|²/2}, then a multiply by α/√k per level k
(`_coherent_rows`), with no log or exponential per entry; every grid row,
label row and P_β is formed so.  The row rises to its peak near k = |α|² and
falls after it, so an entry that leaves the normal floats never climbs back.
The first entry e^{−|α|²/2} is a normal float only up to the float limit
|α|² ≤ MAX_LABEL_SQUARED = 2·ln(1/tiny) ≈ 1416.8, which `check_label`'s
dim/4 reaches from dim 5668 up; a label past it is refused with
TruncationError before any row is formed.  Factorials enter the disk
references through a cached table of log k!, and the incomplete-gamma factor
P(a, R²), for integer a the Poisson tail Σ_{j≥a} e^{−R²} R^{2j}/j!, is the
tail summed in logs from the far end down for a > R², and log1p of minus
the head Σ_{j<a} for a ≤ R², so it neither overflows nor underflows before
the final exponential.  `displacement_matrix` exponentiates through the
eigenbasis of the Hermitian generator.

The symplectic-Fourier coefficients B_ξ of a node symbol (`xi_coefficients`)
run ring by ring through the Jacobi–Anger expansion: one angular transform per
ring and a table of Bessel J_n over the rings × the distinct |ξ| (moduli apart by
rounding alone count once), from Miller's backward recurrence (`_bessel_table`), in
place of an (n_nodes × n_ξ) table of exponentials.  Its cost grows with
2·max|α|·max|ξ|, so points that would need more than MAX_XI_ORDER orders are refused.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import lgamma, log, pi, sqrt

import numpy as np

from ._value import Value
from .channel import (
    TABLE_CACHE_SIZE,
    RingFactors,
    _gauss_legendre,
    _integer,
    _level_logs,
    _on_diagonals,
    _read_only,
    ring_luders_image,
    ring_luders_symbols,
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
MAX_XI_ORDER = 1000  # Bessel orders the ξ transform may sum: its cost grows with them
MAX_DISK_RADIUS_SQUARED = 1e4  # R² of the disk references: their P table grows with it
# e^(-|α|²/2) is a normal float up to |α|² = 2·ln(1/tiny) ≈ 1416.8: the states' float limit
MAX_LABEL_SQUARED = -2 * log(float(np.finfo(float).tiny))
_LOG_UNIT_ROUNDOFF = -53 * log(2)
_SMALL_BESSEL_Z = 2.0 ** -26  # (z/2)² ≤ 2^-54: below it J_n is its leading series term


class TruncationError(ValueError):
    """A phase-space label is too large for the truncated space."""


class FockSpace(Value):
    """Levels 0..dim-1 with read-only lowering/raising matrices a, a†, built on first use."""

    _fields = ("dim", "guard_dim")
    __slots__ = _fields + ("__dict__",)

    def __init__(self, dim: int, guard_dim: int = -1):  # -1 means dim - DEFAULT_GUARD_MARGIN
        dim, guard_dim = _integer(dim, "dim"), _integer(guard_dim, "guard_dim")
        if dim < 2:
            raise ValueError("dim must be at least 2")
        if guard_dim == -1:
            guard_dim = max(dim - DEFAULT_GUARD_MARGIN, 1)
        if not 0 < guard_dim <= dim:
            raise ValueError("guard_dim must lie in 1..dim")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "guard_dim", guard_dim)

    @cached_property
    def a(self) -> np.ndarray:
        return _read_only(np.diag(np.sqrt(np.arange(1, self.dim)), 1), complex)

    @property
    def adag(self) -> np.ndarray:
        return self.a.conj().T

    def ladder_diagonal(self, m: int, n: int) -> np.ndarray:
        """The truncated a†^m a^n on its charge m − n, in `channel._diagonal_index`'s layout:
        entry min(m, n) + j is run(j, m) · run(j, n) (`_sqrt_run`)."""
        _check_powers(m, n)
        j = np.arange(self.dim - max(m, n))
        out = np.zeros(self.dim)
        out[min(m, n) + j] = _sqrt_run(j, m) * _sqrt_run(j, n)
        return out

    def ladder_word(self, m: int, n: int) -> np.ndarray:
        """The truncated a†^m a^n: entry (j + m, j + n) is run(j, m) · run(j, n)."""
        return _on_diagonals(self.ladder_diagonal(m, n)[:, None], [m - n])

    def check_label(self, alpha):
        """Raise TruncationError unless max |α|² <= dim/4 over a label or an array of labels."""
        largest = np.max(np.abs(alpha) ** 2, initial=0.0)
        if not largest <= self.dim / 4:  # true for NaN too
            raise TruncationError(f"|alpha|^2 = {largest:.3f} exceeds dim/4 = {self.dim / 4}")


def _check_powers(m: int, n: int):
    """Raise ValueError unless both powers of a word a†^m a^n are nonnegative."""
    if m < 0 or n < 0:
        raise ValueError("ladder powers must be nonnegative")


def _sqrt_run(start: np.ndarray, length: int) -> np.ndarray:
    """run(j, length) = ∏_{i=1..length} √(j + i) for each j, in floats (ints overflow int64)."""
    return np.sqrt(start[:, None] + np.arange(1, length + 1)).prod(axis=1)


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def _log_factorials(size: int) -> np.ndarray:
    """Read-only log k! for k = 0..size−1."""
    return _read_only([lgamma(k + 1) for k in range(size)])


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def _log_gamma_p(size: int, x: float) -> np.ndarray:
    """Read-only log P(a, x) for a = 0..size−1, P the regularized lower incomplete gamma.

    For integer a, P(a, x) is the Poisson tail Σ_{j≥a} e^{−x} x^j / j!.  For
    a > x its log pmf is accumulated with logaddexp from the far tail down;
    the sum stops x + 12√(x + 1) + 40 terms past the last a, where what is cut
    off lies below rounding.  For a ≤ x it is log1p(−head), the head
    Σ_{j<a} e^{−x} x^j / j! summed from j = 0 up, smallest terms first (the
    pmf rises up to j = x), so the ~x log-sum steps below a leave no drift.
    Near a ≈ x both halves keep the rounding of the log pmf's own terms, of
    size x·log x: 4.5e-12 absolute at x = 1e4.
    """
    stop = size + int(x + 12 * sqrt(x + 1)) + 40
    with np.errstate(divide="ignore"):  # x = 0 gives log x = −inf
        log_x = np.log(x)
    log_pmf = _level_logs(log_x, stop) - x - _log_factorials(stop)
    out = np.logaddexp.accumulate(log_pmf[::-1])[::-1][:size]
    # a = 0..⌊x⌋, where the head Σ_{j<a} is below 1/2, so log1p stays finite
    heads = np.cumsum(np.exp(log_pmf[:min(size, int(x) + 1)]))  # heads[a] = Σ_{j≤a}
    out[:len(heads)] = np.log1p(np.concatenate(([0.0], -heads[:-1])))
    return _read_only(out)


def _coherent_rows(space: FockSpace, alphas: np.ndarray) -> np.ndarray:
    """Rows e^(-|α|²/2) α^k / sqrt(k!), k = 0..dim-1, on a new last axis of the labels α (real
    moduli or complex): one cumulative product e^(-|α|²/2) ∏_{j=1..k} α·(1/√j) along the levels,
    with no log and no exponential per entry.  A modulus and the same label on the real axis
    give the same bits.  Raises TruncationError, before any row is formed, past the float limit
    MAX_LABEL_SQUARED, where the first entry e^(-|α|²/2) would leave the normal floats.
    """
    squares = np.abs(alphas)**2
    largest = np.max(squares, initial=0.0)
    if not largest <= MAX_LABEL_SQUARED:  # true for NaN too
        raise TruncationError(f"|alpha|^2 = {largest:.3f} exceeds the float limit "
                              f"2·ln(1/tiny) = {MAX_LABEL_SQUARED:.3f}: "
                              f"e^(-|alpha|^2/2) is not a normal float")
    rows = np.empty(alphas.shape + (space.dim,), alphas.dtype)
    rows[..., 0] = np.exp(-squares / 2)
    np.multiply(alphas[..., None], 1 / np.sqrt(np.arange(1, space.dim)), out=rows[..., 1:])
    return np.cumprod(rows, axis=-1, out=rows)


def _coherent_magnitudes(space: FockSpace, mags: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows, log |α|): e^(-|α|²/2) |α|^k / sqrt(k!), k = 0..dim-1, on a new last axis of the
    moduli |α|, as one running product (`_coherent_rows`), and log |α| for `RingFactors.log_t`."""
    with np.errstate(divide="ignore"):  # α = 0 gives log |α| = −inf
        log_mags = np.log(mags)
    return _coherent_rows(space, mags), log_mags


def fock_coherent_state(space: FockSpace, alpha) -> np.ndarray:
    """|α⟩ on the truncated space: 1-D for a scalar label, one row per label for an array.

    Each row is e^(-|α|²/2) times the running product of α/√k (`_coherent_rows`).  Raises
    TruncationError unless every |α|² is at most dim/4 (`FockSpace.check_label`) and at most
    the float limit MAX_LABEL_SQUARED ≈ 1416.8, which binds from dim 5668 up.
    """
    space.check_label(alpha)
    return _coherent_rows(space, np.asarray(alpha, dtype=complex))


def displacement_matrix(space: FockSpace, alpha: complex) -> np.ndarray:
    """exp(α a† - α* a) on the truncated space, as V diag(e^{−iλ}) V† from the eigenpairs
    (λ, V) of the Hermitian generator H = i(α a† − α* a)."""
    space.check_label(alpha)
    alpha = complex(alpha)
    lam, vecs = np.linalg.eigh(1j * (alpha * space.adag - np.conj(alpha) * space.a))
    return (vecs * np.exp(-1j * lam)) @ vecs.conj().T


class PlaneQuadrature(Value):
    """Disk nodes α_k with weights carrying the d²α/π measure; Σw = radius²."""

    _fields = ("alphas", "weights", "radius")
    __slots__ = _fields + ("__dict__",)

    def __init__(self, alphas: np.ndarray, weights: np.ndarray, radius: float):
        object.__setattr__(self, "alphas", _read_only(alphas, complex))
        object.__setattr__(self, "weights", _read_only(weights, float))
        object.__setattr__(self, "radius", radius)

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
    """Gauss-Legendre nodes in r² on [0, radius²] × uniform angle grid.

    Raises ValueError unless both node counts are integers (`channel._integer`) of at least 1
    and the radius is positive, then TruncationError past √dim/2.
    """
    n_radial, n_angular = _integer(n_radial, "n_radial"), _integer(n_angular, "n_angular")
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
    x, w_gl = _gauss_legendre(n_radial)
    u = 0.5 * (x + 1.0) * radius**2          # u = r², d²α/π = du dφ / (2π)
    w_u = 0.5 * w_gl * radius**2
    angles = 2 * pi * np.arange(n_angular) / n_angular
    alphas = np.sqrt(u)[:, None] * np.exp(1j * angles)[None, :]
    weights = np.repeat(w_u[:, None] / n_angular, n_angular, axis=1)
    return PlaneQuadrature(alphas.ravel(), weights.ravel(), radius)


def coherent_state_matrix(space: FockSpace, quad: PlaneQuadrature) -> np.ndarray:
    """All grid coherent states as rows of an (n_points, dim) matrix."""
    return _coherent_rows(space, quad.alphas)


def ring_factors(space: FockSpace, quad: PlaneQuadrature) -> tuple[RingFactors, np.ndarray]:
    """(F, W) of a rings × uniform-angle grid, for the ring core in `channel`.

    F[r, k] = e^{−u/2} u^{k/2} / √k! at u = |α|² of ring r is the state at
    the ring's φ = 0 node, in the Perelomov form with t_r = |α_r| and
    h_k = 1/√k!; the state at node (r, l) is F[r, k] e^{ikφ_l},
    φ_l = 2πl/n_φ, and W[r, l] its weight (`quad.rings`).  Any n_φ is
    accepted: the ring core reproduces the grid's sums, aliasing included.
    """
    radii, weights = quad.rings
    rows, log_t = _coherent_magnitudes(space, radii)  # the rows' own log t, −inf at α = 0
    return RingFactors(rows, log_t, -_log_factorials(space.dim) / 2), weights


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
    """Max-entry deviation of Σ w|α⟩⟨α| from identity on the leading block × block, by default
    the guard block; raises ValueError unless `block` is an integer in 1..dim."""
    block = space.guard_dim if block is None else _integer(block, "block")
    if not 1 <= block <= space.dim:
        raise ValueError(f"block must lie in 1..{space.dim}, got {block}")
    rou = ring_resolution(*ring_factors(space, quad))
    return float(np.abs(rou[:block, :block] - np.eye(space.dim)[:block, :block]).max())


# --- analytic disk-limit references -------------------------------------------

def disk_identity_matrix(space: FockSpace, radius: float) -> np.ndarray:
    """Continuum value of the disk POVM integral: diag of regularized γ(k+1, R²)."""
    return disk_monomial_image(space, 0, 0, radius)


def disk_monomial_diagonal(space: FockSpace, m: int, n: int, radius: float) -> np.ndarray:
    """Continuum disk-channel image of the truncated a†^m a^n (`FockSpace.ladder_word`) on its
    charge m − n, in `ladder_diagonal`'s layout.

    Over the whole plane the image of a†^m a^n is a^n a†^m; the disk |α| <= R
    scales entry (k + m − n, k) by the regularized incomplete gamma P = P(m + k + 1, R²).
    For max(n − m, 0) <= k < dim − m that entry, k − max(n − m, 0) of the diagonal,
    is (k + m)! / √(k! (k + m − n)!) · P, formed in logs so that neither the
    factorials nor P leave the float range before the product does.  The entries stop
    where the truncated word does, at k < dim − m, so the last min(m, n) entries that the
    whole-space image has inside the dim × dim block are 0 here.  For the whole-space image
    on that block, call this on at least dim + min(m, n) levels and cut the result to the
    block, or read it from `disk_moments`, as `cli` does.

    Raises ValueError, before any table is built, unless the powers are nonnegative and
    0 <= R² <= MAX_DISK_RADIUS_SQUARED (1e4, radius 100; the CLI's largest R² is 50).  The
    P table runs R² + 12√(R² + 1) + 40 entries past the last level; on levels below 400 it
    stays within 3e-15 of P at R² = 50 and reads P exactly at 1e3 and 1e4 (`_log_gamma_p`),
    while near level R² it still drifts with R² (1.5e-13 at 1e3, 4.5e-12 at 1e4).
    NaN and infinite radii are refused; a radius whose square underflows to 0 is R = 0.
    """
    _check_powers(m, n)
    _check_disk_radius(radius)
    k = np.arange(max(n - m, 0), space.dim - m)
    log_fact = _log_factorials(space.dim)
    log_p = _log_gamma_p(space.dim + 1, radius**2)
    out = np.zeros(space.dim)
    out[:len(k)] = np.exp(log_fact[k + m] - (log_fact[k] + log_fact[k + m - n]) / 2
                          + log_p[k + m + 1])
    return out


def _check_disk_radius(radius: float):
    """Raise ValueError unless 0 <= R² <= MAX_DISK_RADIUS_SQUARED, NaN and inf refused."""
    if not 0 <= radius <= sqrt(MAX_DISK_RADIUS_SQUARED):  # false for NaN too
        raise ValueError(f"radius must lie in 0..{sqrt(MAX_DISK_RADIUS_SQUARED):g} "
                         f"(R² at most MAX_DISK_RADIUS_SQUARED = {MAX_DISK_RADIUS_SQUARED:g}), "
                         f"got {radius}")


def disk_moments(space: FockSpace, radius: float, top: int) -> np.ndarray:
    """M[i, j] = (i + j)! P(i + j + 1, R²) / i! for levels i < dim and j = 0..top: the disk's
    moment table, whose column max(m, n) times κ[|m − n|, i] = √(i! / (i + |m − n|)!) is the
    whole-space disk image of a†^m a^n on its charge m − n, entry i of `ladder_diagonal`'s layout.

    It reads the log k! and log P tables of `disk_monomial_diagonal` on dim + top levels, so
    column 0 is that function's (0, 0) diagonal on dim + top levels bit for bit, and κ times
    column max(m, n) its (m, n) diagonal there, cut to the dim × dim block, to rounding.  Raises
    ValueError, before any table is built, unless top >= 0 and the radius passes
    `disk_monomial_diagonal`'s check.
    """
    top = _integer(top, "top")
    if top < 0:
        raise ValueError(f"top must be nonnegative, got {top}")
    _check_disk_radius(radius)
    log_fact = _log_factorials(space.dim + top)
    log_p = _log_gamma_p(space.dim + top + 1, radius**2)
    i, j = np.arange(space.dim)[:, None], np.arange(top + 1)
    return np.exp(log_fact[i + j] - log_fact[i] + log_p[i + j + 1])


def disk_monomial_image(space: FockSpace, m: int, n: int, radius: float) -> np.ndarray:
    """Continuum disk-channel image of the truncated a†^m a^n: `disk_monomial_diagonal` on
    charge m − n, whose docstring says how to get the whole-space image on the block."""
    return _on_diagonals(disk_monomial_diagonal(space, m, n, radius)[:, None], [m - n])


# --- symplectic-Fourier coefficients and the damping check --------------------

class XiSpectrum(Value):
    """Discretized coefficients B_ξ of a Q-symbol at the given ξ points."""

    _fields = __slots__ = ("xi_points", "coeffs")

    def __init__(self, xi_points: np.ndarray, coeffs: np.ndarray):
        object.__setattr__(self, "xi_points", xi_points)
        object.__setattr__(self, "coeffs", coeffs)


def _jacobi_anger_order(z_max: float) -> int:
    """The first order N ≥ z_max/2 at which (z_max/2)^N / N! is below rounding, or
    MAX_XI_ORDER + 1 if that order lies past the cap.

    |J_n(z)| ≤ (z/2)^n / n! for z ≥ 0, and past z/2 the bound falls with n, so
    the orders above N add less than rounding for every z ≤ z_max.
    """
    half = z_max / 2
    if half == 0:
        return 0
    if half > MAX_XI_ORDER:  # N ≥ z/2 is past the cap already: do not search
        return MAX_XI_ORDER + 1
    n, log_term, log_half = 0, 0.0, log(half)
    while n <= MAX_XI_ORDER and (n < half or log_term >= _LOG_UNIT_ROUNDOFF):
        n += 1
        log_term += log_half - log(n)
    return n


def _bessel_table(z: np.ndarray, orders: int) -> np.ndarray:
    """J[n, …] = J_n(z) for n = 0..orders on a new first axis of an array z ≥ 0.

    Arguments up to `_SMALL_BESSEL_Z` take the leading series term
    (z/2)^n / n! in logs, which is exact at z = 0 and within rounding of J_n
    there; the rest take Miller's backward recurrence (`_miller_bessel`).
    """
    z = np.asarray(z, dtype=float)
    small = z <= _SMALL_BESSEL_Z
    if not small.any():
        return _miller_bessel(z.ravel(), orders).reshape((orders + 1,) + z.shape)
    table = np.empty((orders + 1,) + z.shape)
    with np.errstate(divide="ignore"):  # z = 0 gives log z = −inf, and J_0 = 1 still
        log_half = np.log(z[small]) - log(2)  # not log(z / 2): z / 2 may round to 0
    table[:, small] = np.exp(_level_logs(log_half, orders + 1)
                             - _log_factorials(orders + 1)).T
    if not small.all():
        table[:, ~small] = _miller_bessel(z[~small], orders)
    return table


def _miller_bessel(z: np.ndarray, orders: int) -> np.ndarray:
    """J[n, k] = J_n(z[k]) for n = 0..orders and a 1-D z above `_SMALL_BESSEL_Z`.

    f_{n−1} = (2n/z) f_n − f_{n+1} runs down from f_{M+1} = 0, f_M = 1 at
    M = max(orders, `_jacobi_anger_order(max z)`) and is normalized by
    J_0 + 2 Σ_k J_2k = 1 (Abramowitz & Stegun 9.1.46, Numerical Recipes §6.5).
    Starting there leaves an absolute error of about J_{M+1}(z), below rounding
    for every z ≤ max z.  Each step grows the pair max(|f_n|, |f_{n+1}|) by at
    most 2M/min z + 1, so every column is rescaled by its pair before that
    growth could pass 1e300.
    """
    start = max(orders, _jacobi_anger_order(float(z.max())))
    rows = np.zeros((start + 2, len(z)))
    rows[start] = 1.0
    block = max(1, int(log(1e300) / log(2 * start / z.min() + 1)))
    # row views made once, positional out arguments and no (orders × z) ratio table:
    # the loop's cost is per-call overhead
    f, two_over_z, ratio = list(rows), 2 / z, np.empty_like(z)
    multiply, subtract = np.multiply, np.subtract
    n = start
    while n > 0:
        stop = max(n - block, 0)
        for m in range(n, stop, -1):
            multiply(two_over_z, m, ratio)
            multiply(f[m], ratio, f[m - 1])
            subtract(f[m - 1], f[m + 1], f[m - 1])
        n = stop
        if n:
            rows[n:] /= np.maximum(np.abs(rows[n]), np.abs(rows[n + 1]))
    table = rows[:orders + 1]
    table /= rows[0] + 2 * rows[2::2].sum(axis=0)
    return table


def _distinct_moduli(moduli: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ρ, which): the distinct moduli in increasing order, and each point's index into them.

    Moduli within 4 units of rounding of the next smaller one are merged into the smallest of
    their run: points built on one circle (`default_xi_points`) differ in |ξ| by rounding alone,
    and each distinct ρ costs a Bessel table column per ring.
    """
    order = np.argsort(moduli, kind="stable")
    ranked = moduli[order]
    starts = np.ones(len(ranked), dtype=bool)
    starts[1:] = ranked[1:] - ranked[:-1] > 4 * np.finfo(float).eps * ranked[1:]
    which = np.empty(len(ranked), dtype=int)
    which[order] = np.cumsum(starts) - 1
    return ranked[starts], which


def xi_coefficients(samples: np.ndarray, quad: PlaneQuadrature,
                    xi_points: np.ndarray) -> XiSpectrum:
    """B_ξ = Σ_k w_k Q(α_k) exp(ᾱ_k ξ - α_k ξ̄) per symbol of a (..., n_nodes) stack.

    The sum runs ring by ring (`quad.rings`).  With α = u_r e^{iφ_l} and
    ξ = ρ e^{iψ}, ᾱξ − αξ̄ = 2iu_rρ sin(ψ − φ_l), and Jacobi–Anger
    (e^{iz sin θ} = Σ_n J_n(z) e^{inθ}) gives

        B_ξ = Σ_r Σ_n J_n(2u_rρ) e^{inψ} V̂[r, n mod n_φ],
        V̂[r, m] = Σ_l W[r, l] Q[r, l] e^{−imφ_l},

    exact whatever the aliasing.  The n-sum stops at `_jacobi_anger_order` of
    the largest argument; J_{−n} = (−1)^n J_n folds n < 0 onto one Bessel
    table over the rings × distinct |ξ|, and V̂ at ±n is each ring's DFT
    (`np.fft.fft`) read at ±n mod n_φ.

    Raises ValueError, before any table is built, unless the ξ points are a
    finite 1-D array, the samples' last axis has one entry per node, and the
    series needs at most MAX_XI_ORDER orders.  The cap is reached at
    2·max|α|·max|ξ| ≈ 712; there one call on the 40 × 64 grid at radius 6.3,
    for two symbols at the 25 default points scaled out, took about 11 ms and
    raised the peak RSS by 7.5 MB (one BLAS thread, 2-core x86-64).
    No ξ point gives coeffs with an empty last axis and builds no table.
    """
    xi_points = np.asarray(xi_points, dtype=complex)
    if xi_points.ndim != 1 or not np.isfinite(xi_points).all():
        raise ValueError("xi points must be a finite 1-D array")
    samples = np.asarray(samples)
    if samples.shape[-1:] != (len(quad),):
        raise ValueError(f"samples must end in an axis of {len(quad)} nodes, "
                         f"got shape {samples.shape}")
    if not len(xi_points):
        return XiSpectrum(xi_points, np.zeros(samples.shape[:-1] + (0,), dtype=complex))
    radii, weights = quad.rings
    n_r, n_phi = weights.shape
    rhos, which = _distinct_moduli(np.abs(xi_points))
    order = _jacobi_anger_order(2 * float(radii.max()) * float(rhos.max(initial=0.0)))
    if order > MAX_XI_ORDER:
        raise ValueError(f"the xi transform needs more than {MAX_XI_ORDER} Bessel orders: "
                         f"max|xi| * max|alpha| = {rhos.max() * radii.max():.4g} is too large")
    n = np.arange(order + 1)
    # V̂ at n, then at −n signed by (−1)^n = J_{−n}/J_n, the second n = 0 column
    # zeroed, as n = 0 counts once
    spectra = np.fft.fft(weights * samples.reshape((-1, n_r, n_phi)))
    hats = np.take(spectra, np.concatenate([n, -n]) % n_phi, axis=-1)
    hats[..., order + 1:] *= np.where(n % 2, -1.0, 1.0)
    hats[..., order + 1] = 0
    # to (n, r, stack × ±), complex entries as real pairs: one real batched product with
    # J[n, k, r] sums the rings
    hats = np.ascontiguousarray(hats.reshape(-1, n_r, 2, order + 1).transpose(3, 1, 0, 2))
    bessel = _bessel_table(np.multiply.outer(2 * rhos, radii), order)
    sums = (bessel @ hats.view(float).reshape(order + 1, n_r, -1)).view(complex)
    phases = np.exp(1j * np.outer(n, np.angle(xi_points)))
    sums = sums.reshape(order + 1, len(rhos), -1, 2)[:, which]
    coeffs = (np.einsum("njs,nj->sj", sums[..., 0], phases)
              + np.einsum("njs,nj->sj", sums[..., 1], phases.conj()))
    return XiSpectrum(xi_points, coeffs.reshape(samples.shape[:-1] + xi_points.shape))


def default_xi_points() -> np.ndarray:
    """Five deterministic rings of five sample points with 0 < |ξ| <= 2."""
    out = []
    for i, r in enumerate(2.0 * (np.arange(1, 6) / 5)):
        angles = 2 * pi * (np.arange(5) + 0.5 * (i % 2)) / 5
        out.extend(r * np.exp(1j * angles))
    return np.array(out)


class DampingReport(Value):
    """Pointwise ratio B_ξ(Q_Λ(B)) / B_ξ(Q_B) against the Gaussian e^(-|ξ|²).

    `source_symbols` and `image_symbols` are Q_B and Q_Λ(B) on the
    quadrature nodes; `flagged` is True where |B_ξ| < XI_FLOOR: not compared.
    """

    _fields = __slots__ = ("source_symbols", "image_symbols", "xi_points", "source_coeffs",
                           "image_coeffs", "ratios", "expected", "deviations", "flagged")

    def __init__(self, source_symbols: np.ndarray, image_symbols: np.ndarray,
                 xi_points: np.ndarray, source_coeffs: np.ndarray, image_coeffs: np.ndarray,
                 ratios: np.ndarray, expected: np.ndarray, deviations: np.ndarray,
                 flagged: np.ndarray):
        object.__setattr__(self, "source_symbols", source_symbols)
        object.__setattr__(self, "image_symbols", image_symbols)
        object.__setattr__(self, "xi_points", xi_points)
        object.__setattr__(self, "source_coeffs", source_coeffs)
        object.__setattr__(self, "image_coeffs", image_coeffs)
        object.__setattr__(self, "ratios", ratios)
        object.__setattr__(self, "expected", expected)
        object.__setattr__(self, "deviations", deviations)
        object.__setattr__(self, "flagged", flagged)

    @property
    def max_deviation(self) -> float:
        """Largest deviation over the compared points; NaN when every point is flagged."""
        live = ~self.flagged
        return float(self.deviations[live].max()) if live.any() else float("nan")


def verify_damping(space: FockSpace, operator: np.ndarray, quad: PlaneQuadrature,
                   xi_points: np.ndarray | None = None,
                   ring: tuple[RingFactors, np.ndarray] | None = None) -> DampingReport:
    """Compare the transform ratio of Q_Λ(B) to Q_B with e^(-|ξ|²).

    Points where the source coefficient is below XI_FLOOR are flagged and
    excluded from the deviation (the ratio there is ill-conditioned).
    `ring` is the (F, W) pair of `ring_factors(space, quad)`, formed here
    unless the caller already holds it; raises ValueError unless its W is
    `quad.rings[1]` and its F's `log_t` is log `quad.rings[0]`, entry for
    entry, and its F has shape (n_r, dim).
    """
    if xi_points is None:
        xi_points = default_xi_points()
    if ring is None:
        ring = ring_factors(space, quad)
    else:
        radii, weights = quad.rings
        with np.errstate(divide="ignore"):  # a ring of radius 0 has log −inf, as in ring_factors
            log_radii = np.log(radii)
        if (not isinstance(ring[0], RingFactors) or ring[0].shape != (len(radii), space.dim)
                or not np.array_equal(ring[0].log_t, log_radii)
                or not np.array_equal(ring[1], weights)):
            raise ValueError("ring must be the (F, W) pair of ring_factors(space, quad)")
    factors, weights = ring
    symbols = np.stack(ring_luders_symbols(factors, weights, operator)).reshape(2, -1)
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
