"""Lüders channels from weighted rank-1 projector families.

A family {w_i, |ψ_i⟩} resolving the identity defines the unital channel
B -> Σ_i w_i |ψ_i⟩⟨ψ_i| B |ψ_i⟩⟨ψ_i|.  `resolution`, `q_symbols` and
`luders_image` compute the POVM sum, the symbols ⟨ψ_i|B|ψ_i⟩ and the
channel image directly from a state matrix (one state per row), for any
family; they are the reference for the product-grid core below.  The
superoperator is assembled in
the column-stacking convention, Λ = Σ_i w_i conj(P_i) ⊗ P_i, which makes
it a Hermitian matrix on C^(D²) (the channel is its own Hilbert-Schmidt
adjoint because each POVM element equals its own square root).

Both concrete families live on a product grid (rings × a uniform angle
grid) whose states factor as ψ[i, k] = F[r(i), k] e^{ikφ(i)}, up to a
per-row phase that cancels in |ψ⟩⟨ψ|, with φ(i) on the uniform grid
2πl/n_φ.  `split_rings` owns that layout: every grid consumer works
from its ring coordinates and node weights W (n_r × n_φ).  On any such
grid, aliased or not, `ring_q_symbols`, `ring_resolution` and
`ring_luders_image` compute the same quadrature sums as `q_symbols`,
`resolution` and `luders_image` from the ring factors F (n_r × D) and
W, one offset diagonal at a time, without the state matrix.  The
symbols visit only the c charges q = j − k on which B is nonzero, and
the image only the c′ charges congruent to ±q (mod n_φ) for one of them
(c′ = c on an alias-free grid).  `ring_charge_sums` returns the per-ring
charge sums c[r, q] = Σ_j F[r, j] F[r, j−q] B[j, j−q] that the symbols
Q[r, l] = Σ_q c[r, q] e^{−iqφ_l} are built from, for consumers that need
only their φ-transform (the spin harmonics) and no node.  An image
costs O(D² + n_r·(c + c′)·(D + n_φ)) against the state matrix's
O(n_r·n_φ·D²).  The D² is one scan of B's nonzero
mask for its live charges; each live charge then reads its two offset
diagonals in place, O(D) per charge, and the image writes its charges
back the same way.  A dense B (c = D) costs O(n_r·D² + n_r·n_φ·D); a
ladder word a†^m a^n has c = 1.  When the angle
grid is alias-free (n_φ > 2(D − 1), W constant along each ring; `charge_blocks`
refuses any other grid) the channel preserves the U(1) charge q = j − k and
acts on each offset diagonal b_q = (B[j, j−q])_j by one real symmetric
(D−|q|)-square block; `charge_blocks`, `charge_block_image` and
`charge_block_spectrum` give the channel, its image and its spectrum
from those blocks: O(D³) memory and O(D⁴) time against the
superoperator's O(D⁴) and O(D⁶).  The superoperator stays as the dense
reference.  The symbols and the block image also take a stack (…, D, D).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import repeat
from math import pi

import numpy as np

STATE_NORM_TOL = 1e-12
RESOLUTION_TOL = 1e-10
UNITALITY_TOL = 1e-10
HERMITICITY_TOL = 1e-10
FIXED_POINT_TOL = 1e-7  # eigenvalue window around 1; spectral gaps exceed 1e-1
TABLE_CACHE_SIZE = 16  # sizes kept per cached table: ring-core phases, fock's log tables


class QuadratureError(ValueError):
    """A projector family fails its resolution-of-unity or weight invariants."""


def _read_only(value, dtype=None) -> np.ndarray:
    """An owned, C-contiguous, read-only copy of `value`; writes to `value` never reach it."""
    out = np.array(value, dtype=dtype, order="C")
    out.setflags(write=False)
    return out


def _square(operator: np.ndarray, dim: int) -> np.ndarray:
    """B as a complex array; raises ValueError unless it is dim × dim or a stack of them."""
    operator = np.asarray(operator, dtype=complex)
    if operator.shape[-2:] != (dim, dim):
        raise ValueError(f"operator shape {operator.shape} does not match dimension {dim}")
    return operator


def resolution(states: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Σ_i w_i |ψ_i⟩⟨ψ_i| for the states in the rows of `states`."""
    return (states.T * weights) @ states.conj()


def q_symbols(states: np.ndarray, operator: np.ndarray) -> np.ndarray:
    """⟨ψ_i|B|ψ_i⟩ for every row ψ_i of `states`; one row per B of a stack."""
    return ((states.conj() @ _square(operator, states.shape[1])) * states).sum(axis=-1)


def luders_image(states: np.ndarray, weights: np.ndarray,
                 operator: np.ndarray) -> np.ndarray:
    """Σ_i w_i ⟨ψ_i|B|ψ_i⟩ |ψ_i⟩⟨ψ_i|, in O(n·D²) without the D⁴ superoperator."""
    return resolution(states, weights * q_symbols(states, operator))


@dataclass(frozen=True)
class WeightedProjectorFamily:
    """Unit vectors |ψ_i⟩ in C^dim with positive weights resolving identity."""

    dim: int
    states: np.ndarray   # (n_members, dim) complex, rows are the states
    weights: np.ndarray  # (n_members,) positive reals

    def __post_init__(self):
        states = _read_only(self.states, complex)
        weights = _read_only(self.weights, float)
        if states.ndim != 2 or states.shape[1] != self.dim:
            raise QuadratureError(
                f"states must have shape (n, {self.dim}), got {states.shape}"
            )
        if weights.shape != (states.shape[0],):
            raise QuadratureError("one weight per state required")
        if not np.all(weights > 0):
            raise QuadratureError("weights must be strictly positive")
        norms = np.linalg.norm(states, axis=1)
        worst = np.abs(norms - 1.0).max()
        if worst > STATE_NORM_TOL:
            raise QuadratureError(f"state norm deviates from 1 by {worst:.3e}")
        defect = np.abs(resolution(states, weights) - np.eye(self.dim)).max()
        if defect > RESOLUTION_TOL:
            raise QuadratureError(
                f"resolution of unity fails: entrywise defect {defect:.3e} "
                f"exceeds {RESOLUTION_TOL:.0e} (bad quadrature)"
            )
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "weights", weights)

    def __len__(self):
        return self.states.shape[0]


@dataclass(frozen=True)
class SuperoperatorMatrix:
    """D²×D² matrix of a channel in the column-stacking vectorization."""

    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        matrix = _read_only(self.matrix, complex)
        d2 = self.dim * self.dim
        if matrix.shape != (d2, d2):
            raise ValueError(f"expected shape ({d2}, {d2}), got {matrix.shape}")
        herm = np.abs(matrix - matrix.conj().T).max()
        if herm > HERMITICITY_TOL:
            raise ValueError(
                f"superoperator is not Hilbert-Schmidt Hermitian (defect {herm:.3e})"
            )
        object.__setattr__(self, "matrix", matrix)
        identity = np.eye(self.dim)
        defect = np.abs(apply_channel(self, identity) - identity).max()
        if defect > UNITALITY_TOL:
            raise ValueError(f"channel is not unital (defect {defect:.3e})")


@dataclass(frozen=True)
class SpectralReport:
    """Eigendecomposition summary: spectrum, fixed-space basis and dimension."""

    eigenvalues: np.ndarray  # complex, descending real part
    fixed_basis: tuple = field(default=())

    @property
    def fixed_space_dim(self) -> int:
        """The number of eigenvalues within FIXED_POINT_TOL of 1."""
        return int(np.count_nonzero(_near_one(self.eigenvalues)))


def _near_one(values: np.ndarray) -> np.ndarray:
    """The mask of the values within FIXED_POINT_TOL of 1: the fixed-space window."""
    return np.abs(values - 1.0) <= FIXED_POINT_TOL


def vec(matrix: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(matrix).flatten(order="F")


def unvec(vector: np.ndarray, dim: int) -> np.ndarray:
    return np.asarray(vector).reshape((dim, dim), order="F")


def build_luders_channel(family: WeightedProjectorFamily) -> SuperoperatorMatrix:
    """Assemble Λ = Σ_i w_i conj(P_i) ⊗ P_i for P_i = |ψ_i⟩⟨ψ_i|.

    With column stacking, vec(P B P) = (conj(P) ⊗ P) vec(B); each rank-1
    projector contributes the rank-1 update w_i v_i v_i† with
    v_i = kron(conj(ψ_i), ψ_i), so the sum is assembled as one matrix
    product.  Deterministic for a fixed input ordering.
    """
    states = family.states
    n, d = states.shape
    v = np.einsum("ka,kb->kab", states.conj(), states).reshape(n, d * d)
    matrix = (v.T * family.weights) @ v.conj()
    matrix = 0.5 * (matrix + matrix.conj().T)  # scrub roundoff asymmetry
    return SuperoperatorMatrix(d, matrix)


def apply_channel(chan: SuperoperatorMatrix, operator: np.ndarray) -> np.ndarray:
    """Return Λ(B) for a D×D matrix B."""
    return unvec(chan.matrix @ vec(_square(operator, chan.dim)), chan.dim)


def channel_spectrum(chan: SuperoperatorMatrix) -> SpectralReport:
    """Full spectrum plus an orthonormal Hermitian basis of the fixed space.

    The superoperator is Hermitian, so a dense Hermitian eigensolver is
    used and the spectrum is real.  Eigenvectors with eigenvalue within
    FIXED_POINT_TOL of 1 span the fixed space; they are Hermitized and
    Gram-Schmidt orthonormalized in the Hilbert-Schmidt inner product.
    """
    evals, evecs = np.linalg.eigh(chan.matrix)
    order = np.argsort(evals)[::-1]
    evals = evals[order]
    evecs = evecs[:, order]
    basis = _hermitian_fixed_basis(evecs[:, _near_one(evals)], chan.dim)
    return SpectralReport(eigenvalues=evals.astype(complex), fixed_basis=basis)


def _hermitian_fixed_basis(vectors: np.ndarray, dim: int) -> tuple:
    """Hermitian HS-orthonormal basis of the span of the given eigenvectors, one per vector."""
    candidates = []
    for j in range(vectors.shape[1]):
        f = unvec(vectors[:, j], dim)
        candidates.append(0.5 * (f + f.conj().T))
        candidates.append((f - f.conj().T) / 2j)
    basis: list[np.ndarray] = []
    for cand in candidates:
        for b in basis:
            cand = cand - np.trace(b.conj().T @ cand) * b
        norm = np.linalg.norm(cand)
        if norm > 1e-8:
            basis.append(cand / norm)
    if len(basis) != vectors.shape[1]:
        raise RuntimeError(f"fixed-space Hermitization produced {len(basis)} elements, "
                           f"expected {vectors.shape[1]}")
    return tuple(b.copy() for b in basis)


def choi_matrix(chan: SuperoperatorMatrix) -> np.ndarray:
    """Choi matrix of the channel; positive semidefinite iff the map is CP.

    Obtained by reshuffling the superoperator: with column stacking,
    J[i*D+r, j*D+c] = M[c*D+r, j*D+i].
    """
    d = chan.dim
    m4 = chan.matrix.reshape(d, d, d, d)
    return np.ascontiguousarray(m4.transpose(3, 1, 2, 0).reshape(d * d, d * d))


# --- U(1) charge blocks ---------------------------------------------------------

def _live_charges(operator: np.ndarray) -> np.ndarray:
    """The charges q ≥ 0 whose b_q or b_−q is nonzero in some operator of the stack, or [0]."""
    dim = operator.shape[-1]
    # compare the float view and pair its Re/Im flags as one uint16: the same
    # mask as `operator != 0`, NaN and −0.0 included, at a fraction of the cost
    parts = np.ascontiguousarray(operator).view(float) != 0
    nonzero = (parts.view(np.uint16) != 0).reshape(-1, dim, dim).any(axis=0)
    # read the zero-padded rows of length 2D as rows of length 2D + 1: row j
    # shifts left by j, so column q holds the entries (j, j + q) of both signs
    padded = np.zeros((dim + 1, 2 * dim), dtype=bool)
    padded[:dim, :dim] = nonzero | nonzero.T
    skew = padded.ravel()[:dim * (2 * dim + 1)].reshape(dim, 2 * dim + 1)[:, :dim]
    live = np.flatnonzero(skew.any(axis=0))
    return live if live.size else np.zeros(1, dtype=int)


def _alias_charges(charges: np.ndarray, dim: int, n_angular: int) -> np.ndarray:
    """The charges q′ in 0..D−1 with q′ ≡ ±q (mod n_φ) for some q of `charges`."""
    hit = np.zeros(n_angular, dtype=bool)
    hit[np.concatenate([charges, -charges]) % n_angular] = True
    return np.flatnonzero(hit[np.arange(dim) % n_angular])


def _charge_pair(operator: np.ndarray, charge: int) -> np.ndarray:
    """(…, D−q, 4): Re and Im of b_q[j] = B[…, j, j−q], then of b_−q[j] = B[…, j−q, j]."""
    pair = np.empty(operator.shape[:-2] + (operator.shape[-1] - charge, 2), dtype=complex)
    pair[..., 0] = operator.diagonal(-charge, -2, -1)
    pair[..., 1] = operator.diagonal(charge, -2, -1)
    return pair.view(float)


def _from_charge_pairs(pairs, charges, shape: tuple) -> np.ndarray:
    """B of `shape` (…, D, D) from one `_charge_pair`-layout array per q of `charges`.

    Each pair is written back along its two offset diagonals of the flat
    view; the charges not in `charges` are 0.
    """
    dim = shape[-1]
    out = (np.empty if len(charges) == dim else np.zeros)(shape, dtype=complex)
    flat = out.reshape(shape[:-2] + (dim * dim,))
    for charge, pair in zip(charges, pairs):
        pair = pair.view(complex)
        flat[..., charge * dim::dim + 1] = pair[..., 0]  # B[j, j−q]
        flat[..., charge:(dim - charge) * dim:dim + 1] = pair[..., 1]  # B[j−q, j]
    return out


def _per_charge(factors: np.ndarray, charges, operands, product) -> list:
    """[product(G_q, x) for q, x in zip(charges, operands)], G_q[r, i] = F[r, i + q] F[r, i].

    G_q holds the ring products along the charge-q offset diagonal, in
    `_charge_pair` order; it is formed only for the charges asked for.
    """
    factors = np.asarray(factors, dtype=float)
    dim = factors.shape[1]
    return [product(factors[:, q:] * factors[:, :dim - q], x) for q, x in zip(charges, operands)]


def _alias_free(weights: np.ndarray, dim: int) -> np.ndarray:
    """W as floats; raises ValueError unless n_φ > 2(D − 1) and W is constant along each ring,
    the grids on which the φ-sum is an exact Kronecker delta on the charge q = j − k."""
    weights = np.asarray(weights, dtype=float)
    if weights.shape[1] <= 2 * (dim - 1):
        raise ValueError(f"need more than {2 * (dim - 1)} phi nodes, got {weights.shape[1]}")
    if np.abs(weights - weights[:, :1]).max() > 1e-12 * weights.max():
        raise ValueError("grid weights vary along a ring")
    return weights


def charge_blocks(factors: np.ndarray, weights: np.ndarray) -> dict:
    """{q: M_q} for ψ[r·n_φ + l, k] = F[r, k] e^{ikφ_l} with node weights W, alias-free.

    M_q = G_qᵀ diag(w) G_q with G_q[r, j] = F[r, j] F[r, j−q] and
    w[r] = Σ_l W[r, l] acts on the charge-q offset diagonal of B.  M_{−q}
    is M_q on the same index pairs shifted by q, so one array serves both.
    Raises ValueError on an aliased grid or a W that varies along a ring
    (`_alias_free`), and when M_0 is not unital within UNITALITY_TOL (the
    weights do not resolve I).
    """
    charges = range(np.shape(factors)[1])
    ring_weights = _alias_free(weights, len(charges)).sum(axis=1)
    products = _per_charge(factors, charges, repeat(ring_weights), lambda g, w: (g.T * w) @ g)
    blocks = {}
    for charge, block in zip(charges, products):
        blocks[charge] = blocks[-charge] = block
    defect = np.abs(blocks[0].sum(axis=1) - 1.0).max()
    if defect > UNITALITY_TOL:
        raise ValueError(f"charge block q = 0 is not unital (defect {defect:.3e})")
    return blocks


def charge_block_image(blocks: dict, operator: np.ndarray) -> np.ndarray:
    """Λ(B) charge by charge: one product M_q [b_q, b_−q] per q ≥ 0; B may be a stack (…, D, D)."""
    dim = len(blocks[0])
    operator = _square(operator, dim)
    images = (blocks[q] @ _charge_pair(operator, q) for q in range(dim))
    return _from_charge_pairs(images, range(dim), operator.shape)


def charge_block_spectrum(blocks: dict) -> SpectralReport:
    """Spectrum of Λ as the union of the block spectra, from `charge_blocks` output.

    Each block is real symmetric, and M_{−q} = M_q is diagonalized once.
    `fixed_space_dim` counts eigenvalues within FIXED_POINT_TOL of 1 over
    all blocks; the fixed basis lists the diagonal fixed points diag(v),
    v an eigenvalue-1 eigenvector of M_0.
    """
    values, vectors = np.linalg.eigh(blocks[0])
    fixed = vectors[:, _near_one(values)]
    evals = [values]
    for charge in range(1, values.size):
        evals += 2 * [np.linalg.eigvalsh(blocks[charge])]
    evals = np.sort(np.concatenate(evals))[::-1]
    return SpectralReport(
        eigenvalues=evals.astype(complex),
        fixed_basis=tuple(np.diag(v / np.linalg.norm(v)).astype(complex) for v in fixed.T),
    )


# --- ring factors: the quadrature sums of a product grid, aliasing included ------

def split_rings(points: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(radii, W) of flat polar nodes ρe^{iφ} laid out as rings × a uniform φ-grid.

    n_φ is the length of the first ring; node r·n_φ + l must sit at
    radii[r]·e^{2πil/n_φ}, radii[r] ≥ 0, and W[r, l] is its weight.
    Raises ValueError for any other layout.
    """
    mags = np.abs(points)
    atol = 1e-12 * max(1.0, mags.max())
    # the first node off the first ring ends the angle grid
    n_angular = int(np.argmax(np.abs(mags - mags[0]) > atol)) or len(points)
    if len(points) % n_angular == 0:
        points = points.reshape(-1, n_angular)
        radii = points[:, 0].real
        roots = np.exp(2j * pi * np.arange(n_angular) / n_angular)
        # max-abs, not allclose: this runs once per grid, in the two `rings` properties
        if np.all(radii >= 0) and np.abs(points - radii[:, None] * roots).max() <= atol:
            return radii, np.reshape(weights, points.shape)
    raise ValueError("grid is not rings × a uniform phi grid")


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def _angle_phases(dim: int, n_angular: int) -> np.ndarray:
    """Read-only E[2q, l] = e^{iqφ_l} and E[2q + 1, l] = e^{−iqφ_l} for q = 0..D−1, φ_l = 2πl/n_φ."""
    roots = np.exp(-2j * pi * np.arange(n_angular) / n_angular)
    minus = roots[np.outer(np.arange(dim), np.arange(n_angular)) % n_angular]
    return _read_only(np.stack([minus.conj(), minus], axis=1).reshape(2 * dim, n_angular))


def _phase_rows(dim: int, n_angular: int, charges: np.ndarray) -> np.ndarray:
    """The rows 2q and 2q + 1 of `_angle_phases` for each q of `charges`, in order."""
    table = _angle_phases(dim, n_angular)
    return table if len(charges) == dim else table[(2 * charges[:, None] + (0, 1)).ravel()]


def _live_sums(factors: np.ndarray, operator: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sums, charges): sums[…, r, i] holds c[r, q] and c[r, −q] of `ring_charge_sums` for q = charges[i].

    The charges are the live charges of B.
    """
    operator = _square(operator, np.shape(factors)[1])
    charges = _live_charges(operator)
    sums = np.stack(_per_charge(factors, charges, (_charge_pair(operator, q) for q in charges),
                                np.matmul), axis=-2).view(complex)
    return sums, charges


def ring_charge_sums(factors: np.ndarray, operator: np.ndarray) -> np.ndarray:
    """c[…, r, q + D − 1] = Σ_j F[r, j] F[r, j−q] B[j, j−q] for q = −(D−1)..D−1, per B of a stack.

    The ring symbols are Q[r, l] = Σ_q c[r, q] e^{−iqφ_l}; the sums are
    formed only on the live charges of the stack and are exactly 0 elsewhere.
    """
    dim = np.shape(factors)[1]
    sums, charges = _live_sums(factors, operator)
    out = np.zeros(sums.shape[:-2] + (2 * dim - 1,), dtype=complex)
    out[..., dim - 1 + charges] = sums[..., 0]
    out[..., dim - 1 - charges] = sums[..., 1]
    return out


def _ring_symbols(factors: np.ndarray, n_angular: int,
                  operator: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Q, charges): the symbols of `ring_q_symbols` and the live charges of B they came from."""
    sums, charges = _live_sums(factors, operator)
    phases = _phase_rows(np.shape(factors)[1], n_angular, charges)
    start = int(charges[0] == 0)  # b_{−0} is b_0 again
    return sums[..., 0] @ phases[1::2] + sums[..., start:, 1] @ phases[2 * start::2], charges


def ring_q_symbols(factors: np.ndarray, n_angular: int,
                   operator: np.ndarray) -> np.ndarray:
    """Q[…, r, l] = ⟨ψ_rl|B|ψ_rl⟩ for ψ_rl[k] = F[r, k] e^{ikφ_l}, φ_l = 2πl/n_φ, per B of a stack.

    c[r, q] = Σ_j F[r, j] F[r, j−q] B[j, j−q] is summed one offset
    diagonal at a time, over the charges where some B of the stack is
    nonzero, and Q[r, l] = Σ_q c[r, q] e^{−iqφ_l}.
    """
    return _ring_symbols(factors, n_angular, operator)[0]


def _ring_resolution(factors: np.ndarray, values: np.ndarray, charges: np.ndarray) -> np.ndarray:
    """`ring_resolution` on the charges `charges` only; the other charges are 0."""
    dim = np.shape(factors)[1]
    # one product for both signs: numpy takes gemv for a one-row product, which
    # rounds differently from the gemm of the full table
    hats = (_phase_rows(dim, values.shape[1], charges) @ values.T).reshape(len(charges), 2, -1)
    # hats[i, r] holds Re and Im of V̂[r, q], then of V̂[r, −q], for q = charges[i]
    hats = np.ascontiguousarray(hats.transpose(0, 2, 1)).view(float)
    images = _per_charge(factors, charges, hats, lambda g, hat: g.T @ hat)
    return _from_charge_pairs(images, charges, (dim, dim))


def ring_resolution(factors: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Σ_{r,l} V[r, l] |ψ_rl⟩⟨ψ_rl| for the ring states of `ring_q_symbols`.

    Entry (j, j−q) is Σ_r F[r, j] F[r, j−q] V̂[r, q], with
    V̂[r, q] = Σ_l V[r, l] e^{iqφ_l}.
    """
    values = np.asarray(values)
    if values.ndim != 2 or values.shape[0] != len(factors):
        raise ValueError(f"values must have shape ({len(factors)}, n_angular), got {values.shape}")
    return _ring_resolution(factors, values, np.arange(np.shape(factors)[1]))


def ring_luders_image(factors: np.ndarray, weights: np.ndarray,
                      operator: np.ndarray) -> np.ndarray:
    """Λ(B) = Σ_{r,l} W[r, l] Q[r, l] |ψ_rl⟩⟨ψ_rl| from the ring factors.

    With W constant along each ring, the φ-sum keeps charge q of Q only on
    the image charges q′ ≡ ±q (mod n_φ), so only those are formed; the
    others are exactly 0.  Otherwise every charge is formed.
    """
    weights = np.asarray(weights, dtype=float)
    dim, n_angular = np.shape(factors)[1], weights.shape[1]
    symbols, charges = _ring_symbols(factors, n_angular, operator)
    uniform = np.all(weights == weights[:, :1])
    charges = _alias_charges(charges, dim, n_angular) if uniform else np.arange(dim)
    return _ring_resolution(factors, weights * symbols, charges)
