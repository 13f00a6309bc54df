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
W, without the state matrix.  The factors come as a `RingFactors`: both
families' F takes the Perelomov form F[r, k] = g_r h_k t_r^k, so
F[r, i+q] F[r, i] = F[r, i]² t_r^q κ[q, i] with κ[q, i] = h_{i+q}/h_i, and
every offset diagonal, one column per signed charge q = j − k, meets the
rings in one shared matrix product.  A matrix B enters on all 2D − 1 charges, whatever
its sparsity: one indexed gather of its offset diagonals X (D × (2D − 1)) and the sums
c = t^|q| ⊙ (F² @ (κ ⊙ X)), one matrix product (GEMM) per stack.  The symbols are the FFT
of the alias fold C[r, m] = Σ_{q ≡ m (mod n_φ)} c[r, q] of the charge sums (`_fold`), one
length-n_φ `np.fft` per ring.  When W is constant along each ring, the image's φ-sum is
V̂[r, q′] = n_φ W[r, 0] C[r, q′ mod n_φ], with no symbol on the nodes, on the image charges
q′ ≡ q (mod n_φ) for one of the charges of the sums, exactly 0 on the others; on an
alias-free grid (n_φ > 2(D − 1)) C is c itself and V̂ is the sums scaled, with no fold.  A W
that varies along a ring takes V̂ from the inverse FFT of W ⊙ Q on the nodes, on every
charge.  The image diagonals κ ⊙ (F²ᵀ @ (t^|q| ⊙ V̂)) are one more GEMM, and one indexed
store puts them in a D × D matrix.  A matrix B thus costs O(n_r·D²) (two GEMMs of
n_r·D·2(2D − 1) real multiply-adds, plus on an aliased grid the fold's O(n_r·(D + n_φ))),
against the state matrix's O(n_r·n_φ·D²).  A power symbol, whose Q-symbol is Σ_k c_k t^{p_k}
on the charges q_k (`cli`'s resolution, ladder words and q²), needs no per-ring work of its
own: with W constant along each ring its image on a charge q′ ≡ q_k (mod n_φ) is
κ[|q′|, i] Σ_k c_k M[i, p_k + |q′|], read from the grid's moment table
M[i, s] = Σ_r F[r, i]² n_φ W[r, 0] t_r^s (`ring_moments`: one GEMM of n_r·D·S multiply-adds for
S exponents, shared by every symbol), so each symbol costs one gather of D·c′·K table entries
for its c′ image charges and K terms (`ring_power_image`).
`ring_charge_sums` returns the sums c[r, q] = Σ_j F[r, j] F[r, j−q] B[j, j−q],
`ring_luders_sums` those of B and of Λ(B) for the spin harmonics, which need only their
φ-transform and no node, and `ring_luders_symbols` the symbols of both, Λ(B)'s from its
image diagonals with no D × D image.  `ring_diagonal_image` maps B given as offset
diagonals on chosen charges: it scatters them into a matrix and maps that, at a matrix's
cost.  When the angle grid is alias-free (n_φ > 2(D − 1), W
constant along each ring; `charge_blocks` refuses any other grid) the channel
preserves the U(1) charge q = j − k and acts on each offset diagonal
b_q = (B[j, j−q])_j by one real symmetric (D−|q|)-square block.  `charge_blocks`
builds them all from one Gram product S = F²ᵀ diag(w) F² of O(n_r·D²) flops and
O(D³) scaling by κ, and `charge_block_spectrum` gives the spectrum from them: O(D³)
memory and O(D⁴) time against the superoperator's O(D⁴) and O(D⁶); every image is the
ring core's.  One cached index, `_diagonal_index`, maps each signed charge to its matrix
entries: the ring core's gather and store and `fock`'s scatters go through it.  The
superoperator stays as the dense reference.  The symbols, the sums and the ring image
also take a stack (…, D, D).
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import pi

import numpy as np

from ._value import Value

STATE_NORM_TOL = 1e-12
RESOLUTION_TOL = 1e-10
UNITALITY_TOL = 1e-10
HERMITICITY_TOL = 1e-10
FIXED_POINT_TOL = 1e-7  # eigenvalue window around 1; spectral gaps exceed 1e-1
TABLE_CACHE_SIZE = 16  # sizes per cached table: diagonal indexes, Gauss-Legendre nodes, fock's logs


class QuadratureError(ValueError):
    """A projector family fails its resolution-of-unity or weight invariants."""


def _read_only(value, dtype=None) -> np.ndarray:
    """An owned, C-contiguous, read-only copy of `value`; writes to `value` never reach it."""
    out = np.array(value, dtype=dtype, order="C")
    out.setflags(write=False)
    return out


def _integer(value, name: str) -> int:
    """`value` as an int; raises ValueError unless it is a Python or numpy integer (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


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


class WeightedProjectorFamily(Value):
    """Unit vectors |ψ_i⟩ in C^dim with positive weights resolving identity.

    `states` is (n_members, dim) complex, rows are the states; `weights`
    (n_members,) positive reals.
    """

    _fields = __slots__ = ("dim", "states", "weights")

    def __init__(self, dim: int, states: np.ndarray, weights: np.ndarray):
        states = _read_only(states, complex)
        weights = _read_only(weights, float)
        if states.ndim != 2 or states.shape[1] != dim:
            raise QuadratureError(
                f"states must have shape (n, {dim}), got {states.shape}"
            )
        if weights.shape != (states.shape[0],):
            raise QuadratureError("one weight per state required")
        if not np.all(weights > 0):
            raise QuadratureError("weights must be strictly positive")
        norms = np.linalg.norm(states, axis=1)
        worst = np.abs(norms - 1.0).max()
        if worst > STATE_NORM_TOL:
            raise QuadratureError(f"state norm deviates from 1 by {worst:.3e}")
        defect = np.abs(resolution(states, weights) - np.eye(dim)).max()
        if defect > RESOLUTION_TOL:
            raise QuadratureError(
                f"resolution of unity fails: entrywise defect {defect:.3e} "
                f"exceeds {RESOLUTION_TOL:.0e} (bad quadrature)"
            )
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "weights", weights)


class SuperoperatorMatrix(Value):
    """D²×D² matrix of a channel in the column-stacking vectorization."""

    _fields = __slots__ = ("dim", "matrix")

    def __init__(self, dim: int, matrix: np.ndarray):
        matrix = _read_only(matrix, complex)
        d2 = dim * dim
        if matrix.shape != (d2, d2):
            raise ValueError(f"expected shape ({d2}, {d2}), got {matrix.shape}")
        herm = np.abs(matrix - matrix.conj().T).max()
        if herm > HERMITICITY_TOL:
            raise ValueError(
                f"superoperator is not Hilbert-Schmidt Hermitian (defect {herm:.3e})"
            )
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "matrix", matrix)
        identity = np.eye(dim)
        defect = np.abs(apply_channel(self, identity) - identity).max()
        if defect > UNITALITY_TOL:
            raise ValueError(f"channel is not unital (defect {defect:.3e})")


class SpectralReport(Value):
    """Eigendecomposition summary: spectrum, fixed-space basis and dimension.

    `eigenvalues` is complex, in descending real part.
    """

    _fields = __slots__ = ("eigenvalues", "fixed_basis")

    def __init__(self, eigenvalues: np.ndarray, fixed_basis: tuple = ()):
        object.__setattr__(self, "eigenvalues", eigenvalues)
        object.__setattr__(self, "fixed_basis", fixed_basis)

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
    used and the spectrum is real; its ascending output is reversed.
    Eigenvectors with eigenvalue within FIXED_POINT_TOL of 1 span the
    fixed space, and `_hermitian_fixed_basis` turns them into a Hermitian
    basis, orthonormal in the Hilbert-Schmidt inner product.
    """
    evals, evecs = np.linalg.eigh(chan.matrix)
    evals, evecs = evals[::-1], evecs[:, ::-1]
    basis = _hermitian_fixed_basis(evecs[:, _near_one(evals)], chan.dim)
    return SpectralReport(eigenvalues=evals.astype(complex), fixed_basis=basis)


def _hermitian_fixed_basis(vectors: np.ndarray, dim: int) -> tuple:
    """Hermitian HS-orthonormal basis of the span of the given eigenvectors, one per vector.

    The k eigenvectors F_j are HS-orthonormal and span a space closed under
    B ↦ B†, so the 2k Hermitian parts (F + F†)/2 and (F − F†)/2i, read as
    real vectors (Re, Im), are a tight frame of its Hermitian part: k
    singular values are 1 and the rest 0.  The first k right singular
    vectors are the basis; a rank other than k raises RuntimeError.
    """
    k = vectors.shape[1]
    f = vectors.T.reshape(k, dim, dim).transpose(0, 2, 1)  # unvec of each column
    f_dag = f.conj().transpose(0, 2, 1)
    parts = np.concatenate([(f + f_dag) / 2, (f - f_dag) / 2j]).reshape(2 * k, dim * dim)
    _, sigma, rows = np.linalg.svd(np.hstack([parts.real, parts.imag]), full_matrices=False)
    rank = int(np.count_nonzero(sigma > 1e-8))
    if rank != k:
        raise RuntimeError(f"fixed-space Hermitization produced {rank} elements, expected {k}")
    basis = rows[:k, :dim * dim] + 1j * rows[:k, dim * dim:]
    return tuple(basis.reshape(k, dim, dim))


def choi_matrix(chan: SuperoperatorMatrix) -> np.ndarray:
    """Choi matrix of the channel; positive semidefinite iff the map is CP.

    Obtained by reshuffling the superoperator: with column stacking,
    J[i*D+r, j*D+c] = M[c*D+r, j*D+i].
    """
    d = chan.dim
    m4 = chan.matrix.reshape(d, d, d, d)
    return np.ascontiguousarray(m4.transpose(3, 1, 2, 0).reshape(d * d, d * d))


# --- U(1) charge blocks ---------------------------------------------------------

def _alias_charges(charges: np.ndarray, dim: int, n_angular: int) -> np.ndarray:
    """The signed charges q′ in −(D−1)..D−1 with q′ ≡ q (mod n_φ) for some q of `charges`."""
    hit = np.bincount(charges % n_angular, minlength=n_angular) > 0
    signed = np.arange(1 - dim, dim)
    return signed[hit[signed % n_angular]]


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def _diagonal_index(dim: int) -> np.ndarray:
    """Read-only [i, q + D − 1] → the flat index of B[i + q, i] (q ≥ 0) or B[i, i − q] (q < 0).

    The one map from a charge to its matrix entries: the ring core gathers
    every offset diagonal through it (`_live_sums`) and stores its image back
    through it (`_on_diagonals`).  Past the end of diagonal q (i + |q| ≥ D) it
    repeats the diagonal's last entry, where κ is 0.
    """
    q = np.arange(1 - dim, dim)
    i = np.minimum(np.arange(dim)[:, None], dim - 1 - np.abs(q))
    return _read_only(i * (dim + 1) + np.maximum(q, 0) * dim + np.maximum(-q, 0))


def _table_columns(charges: np.ndarray, dim: int):
    """The columns q + D − 1 of `charges` in the signed tables; a slice (views) when all 2D − 1."""
    return slice(None) if len(charges) == 2 * dim - 1 else charges + (dim - 1)


def _ring_constant(weights: np.ndarray) -> bool:
    """Whether W is exactly constant along each ring: `_alias_free`, `_symbol_image` and
    `ring_moments` ask."""
    return bool(np.all(weights == weights[:, :1]))


def _aliasing(n_angular: int, dim: int) -> bool:
    """Whether two charges of −(D−1)..D−1 share a residue mod n_φ: n_φ ≤ 2(D − 1)."""
    return n_angular <= 2 * (dim - 1)


def _alias_free(weights: np.ndarray, dim: int) -> np.ndarray:
    """W as floats; raises ValueError on a grid that is `_aliasing` or whose W is not
    `_ring_constant`: only the other grids make the φ-sum an exact Kronecker delta on the
    charge q = j − k."""
    weights = np.asarray(weights, dtype=float)
    if _aliasing(weights.shape[1], dim):
        raise ValueError(f"need more than {2 * (dim - 1)} phi nodes, got {weights.shape[1]}")
    if not _ring_constant(weights):
        raise ValueError("grid weights vary along a ring")
    return weights


def charge_blocks(factors: RingFactors, weights: np.ndarray) -> dict:
    """{q: M_q} for ψ[r·n_φ + l, k] = F[r, k] e^{ikφ_l} with node weights W, alias-free.

    M_q = G_qᵀ diag(w) G_q, G_q[r, j] = F[r, j] F[r, j−q] and w[r] = Σ_l W[r, l], acts on
    the charge-q offset diagonal of B.  The Perelomov form makes every block
    M_q[k, n] = S[k, n + q] κ[q, k]/κ[q, n] of one Gram product S = F²ᵀ diag(w) F², the
    Hankel moment matrix S[i, j] = h_i² h_j² μ(i + j).  M_{−q} is M_q on the same index
    pairs shifted by q, so one array serves both.  Raises ValueError on an aliased grid, a
    W that varies along a ring (`_alias_free`) or has not one row per ring (`_per_ring`),
    then TypeError unless F is a `RingFactors`, and ValueError when M_0 is not unital.
    """
    ring_weights = _per_ring(factors, _alias_free(weights, np.shape(factors)[1])).sum(axis=1)
    dim = _ring_dim(factors)
    gram = (factors.squares.T * ring_weights) @ factors.squares
    blocks = {}
    for charge in range(dim):
        kappa = factors.ratios[:dim - charge, charge]
        blocks[charge] = blocks[-charge] = gram[:dim - charge, charge:] * kappa[:, None] / kappa
    defect = np.abs(blocks[0].sum(axis=1) - 1.0).max()
    if defect > UNITALITY_TOL:
        raise ValueError(f"charge block q = 0 is not unital (defect {defect:.3e})")
    return blocks


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

@lru_cache(maxsize=TABLE_CACHE_SIZE)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights (x, w) of n points on [−1, 1]."""
    return tuple(map(_read_only, np.polynomial.legendre.leggauss(n)))


_SQRT_TINY = float(np.sqrt(np.finfo(float).tiny))


def split_rings(points: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(radii, W) of flat polar nodes ρe^{iφ} laid out as rings × a uniform φ-grid.

    n_φ is the length of the first ring; node r·n_φ + l must sit at
    radii[r]·e^{2πil/n_φ}, radii[r] ≥ 0, and W[r, l] is its weight.
    Positions are compared to 1e-12 of the largest radius; a grid with every
    node within √tiny ≈ 1.5e-154 of the origin, where a squared radius is
    subnormal and rings may coincide, is one ring.  Raises ValueError for any
    other layout.
    """
    mags = np.abs(points)
    largest = mags.max()
    atol = 1e-12 * largest if largest > _SQRT_TINY else 2 * _SQRT_TINY
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


_LOG_FLOAT_MAX = float(np.log(np.finfo(float).max))


def _level_logs(log_y, size: int) -> np.ndarray:
    """k·log y for k = 0..size−1 on a new last axis of log y: exactly 0 at k = 0, even at
    log y = −inf (y = 0), and −inf for k ≥ 1 there."""
    log_y = np.asarray(log_y, dtype=float)
    out = np.zeros(log_y.shape + (size,))
    np.multiply(np.arange(1, size), log_y[..., None], out=out[..., 1:])
    return out


class RingFactors(Value):
    """The ring factors F (n_r × D) of a product grid in the Perelomov form F[r, k] = g_r h_k t_r^k.

    `rows` is F; `log_t` holds log t_r per ring (−inf for t = 0) and
    `log_h` log h_k per level.  The form gives F[r, i + q] F[r, i] =
    F[r, i]² t_r^q κ[q, i] with κ[q, i] = h_{i+q}/h_i, so the ring core
    meets every offset diagonal through three tables, built on first use
    and kept on the instance: `squares` F², and t_r^|q| and κ[|q|, i] per
    signed charge q, whose q ≥ 0 halves are `powers` and `ratios`.
    `shape`, `len` and `np.asarray` read F.  Raises ValueError unless the
    shapes agree and (D − 1)·max log t_r stays below log(float max), where
    t^q would overflow.
    """

    _fields = ("rows", "log_t", "log_h")
    __slots__ = _fields + ("__dict__",)

    def __init__(self, rows: np.ndarray, log_t: np.ndarray, log_h: np.ndarray):
        rows = _read_only(rows, float)
        log_t, log_h = _read_only(log_t, float), _read_only(log_h, float)
        if rows.ndim != 2 or log_t.shape != rows.shape[:1] or log_h.shape != rows.shape[1:]:
            raise ValueError(f"factors of shape {rows.shape} need log_t of shape (n_r,) and "
                             f"log_h of shape (D,), got {log_t.shape} and {log_h.shape}")
        dim = rows.shape[1]
        top = (dim - 1) * float(log_t.max(initial=-np.inf)) if dim > 1 else -np.inf
        if not top < _LOG_FLOAT_MAX:  # true for NaN too
            raise ValueError(f"t^{dim - 1} leaves the float range: (D − 1)·max log t = {top:.1f}")
        for name, value in (("rows", rows), ("log_t", log_t), ("log_h", log_h)):
            object.__setattr__(self, name, value)

    @property
    def shape(self) -> tuple:
        return self.rows.shape

    def __len__(self):
        return len(self.rows)

    def __array__(self, dtype=None, copy=None):
        return np.array(self.rows, dtype=dtype, copy=copy)

    @cached_property
    def squares(self) -> np.ndarray:
        """Read-only F²."""
        return _read_only(self.rows * self.rows)

    @cached_property
    def _charge_powers(self) -> np.ndarray:
        """Read-only t_r^|q| at [r, q + D − 1] for each signed q: 1 at q = 0, even at t = 0."""
        dim = self.shape[1]
        return _read_only(np.exp(_level_logs(self.log_t, dim))[:, np.abs(np.arange(1 - dim, dim))])

    @cached_property
    def _charge_ratios(self) -> np.ndarray:
        """Read-only κ[|q|, i] at [i, q + D − 1] for each signed q, and 0 where i + |q| ≥ D: the
        q ≥ 0 half exponentiates its D(D + 1)/2 entries with j = i + q < D alone, and column −q
        copies column q."""
        dim = self.shape[1]
        i, j = np.triu_indices(dim)
        half = np.zeros((dim, dim))
        half[i, j - i] = np.exp(self.log_h[j] - self.log_h[i])
        return _read_only(half[:, np.abs(np.arange(1 - dim, dim))])

    @property
    def powers(self) -> np.ndarray:
        """Read-only t_r^q at [r, q] for q = 0..D−1: exactly 1 at q = 0, even at t = 0."""
        return self._charge_powers[:, self.shape[1] - 1:]

    @property
    def ratios(self) -> np.ndarray:
        """Read-only κ[q, i] = h_{i+q}/h_i at [i, q], and 0 past the end of diagonal q (i + q ≥ D)."""
        return self._charge_ratios[:, self.shape[1] - 1:]


def _ring_dim(factors) -> int:
    """D of the ring factors; raises TypeError unless they are a `RingFactors`."""
    if not isinstance(factors, RingFactors):
        raise TypeError(f"the ring core takes RingFactors, got {type(factors).__name__}")
    return factors.shape[1]


def _per_ring(factors: RingFactors, values) -> np.ndarray:
    """W or V as an array; raises ValueError unless it is n_r × n_φ, one row per ring of F."""
    if np.ndim(values) != 2 or len(values) != len(factors):
        raise ValueError(f"values must have shape ({len(factors)}, n_angular), "
                         f"got {np.shape(values)}")
    return np.asarray(values)


def _fold(sums: np.ndarray, charges: np.ndarray, n_angular: int) -> np.ndarray:
    """The alias fold C[…, m] = Σ_{q ≡ m (mod n_φ)} c[…, q], m = 0..n_φ − 1, of the sums c on the
    sorted signed `charges`: padded to whole turns of n_φ from the multiple of n_φ at or below the
    lowest charge, so residue m lands in column m with no roll, and summed over the turns."""
    base = charges[0] - charges[0] % n_angular
    turns = (charges[-1] - base) // n_angular + 1
    padded = np.zeros(sums.shape[:-1] + (turns * n_angular,), dtype=complex)
    padded[..., charges - base] = sums
    return padded.reshape(sums.shape[:-1] + (turns, n_angular)).sum(axis=-2)


def _diagonal_sums(factors: RingFactors, diagonals: np.ndarray) -> np.ndarray:
    """sums[…, r, q + D − 1] = c[r, q] for every signed charge q, from B's diagonals X in
    `_diagonal_index`'s layout: c = t^|q| ⊙ (F² @ (κ ⊙ X)), one product per B.  Scales X in
    place."""
    diagonals *= factors._charge_ratios
    sums = (factors.squares @ diagonals.view(float)).view(complex)
    sums *= factors._charge_powers
    return sums


def _live_sums(factors: RingFactors, operator: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sums, charges): `_diagonal_sums` of B on all 2D − 1 signed charges, increasing, whatever
    B's sparsity; one indexed gather reads its offset diagonals through `_diagonal_index`."""
    dim = _ring_dim(factors)
    operator = _square(operator, dim)
    flat = operator.reshape(operator.shape[:-2] + (-1,))
    # κ = 0 past each diagonal's end, where the gather repeats its last entry: a NaN
    # or inf read there reaches only the sums of its own charge, which it reaches anyway
    diagonals = np.take(flat, _diagonal_index(dim), axis=-1)
    return _diagonal_sums(factors, diagonals), np.arange(1 - dim, dim)


def ring_charge_sums(factors: RingFactors, operator: np.ndarray) -> np.ndarray:
    """c[…, r, q + D − 1] = Σ_j F[r, j] F[r, j−q] B[j, j−q] for q = −(D−1)..D−1, per B of a stack.

    The ring symbols are Q[r, l] = Σ_q c[r, q] e^{−iqφ_l}; every charge is
    formed, and a charge on which B is 0 gets sums exactly 0.
    """
    return _live_sums(factors, operator)[0]


def _ring_symbols(sums: np.ndarray, charges: np.ndarray, n_angular: int) -> np.ndarray:
    """`ring_q_symbols` from the sums of `_diagonal_sums`: Q[…, r, l] = Σ_m C[…, r, m] e^{−2πilm/n_φ},
    the FFT of their alias fold."""
    return np.fft.fft(_fold(sums, charges, n_angular))


def ring_q_symbols(factors: RingFactors, n_angular: int,
                   operator: np.ndarray) -> np.ndarray:
    """Q[…, r, l] = ⟨ψ_rl|B|ψ_rl⟩ for ψ_rl[k] = F[r, k] e^{ikφ_l}, φ_l = 2πl/n_φ, per B of a stack.

    The charge sums c[r, q] = Σ_j F[r, j] F[r, j−q] B[j, j−q] are formed
    on every charge, and Q[r, l] = Σ_q c[r, q] e^{−iqφ_l}.
    """
    return _ring_symbols(*_live_sums(factors, operator), n_angular)


def _on_diagonals(images: np.ndarray, charges) -> np.ndarray:
    """The D × D matrices with the offset diagonals `images` (…, D, c) on the signed `charges`,
    in `_diagonal_index`'s layout, and 0 elsewhere; a charge with |q| ≥ D has no entries."""
    dim, lead = images.shape[-2], images.shape[:-2]
    index = _diagonal_index(dim)[:, _table_columns(np.clip(charges, 1 - dim, dim - 1), dim)]
    # one indexed store over the leading axes, the entries past each diagonal's end into a
    # spare last entry
    index = np.where(np.arange(dim)[:, None] < dim - np.abs(charges), index, dim * dim)
    out = np.zeros(lead + (dim * dim + 1,), dtype=complex)
    out[..., index] = images
    return out[..., :-1].reshape(lead + (dim, dim))


def ring_resolution(factors: RingFactors, values: np.ndarray) -> np.ndarray:
    """Σ_{r,l} V[r, l] |ψ_rl⟩⟨ψ_rl| for the ring states of `ring_q_symbols`: entry (j, j−q) is
    Σ_r F[r, j] F[r, j−q] V̂[r, q], V̂[r, q] = Σ_l V[r, l] e^{iqφ_l}, the image of the symbol 1
    (c[r, 0] = 1) on charge 0, formed on `_symbol_image`'s charges and exactly 0 on the others."""
    return _on_diagonals(*_symbol_image(factors, values, np.ones((len(factors), 1)),
                                        np.zeros(1, dtype=int)))


def _folded_hats(factors: RingFactors, weights: np.ndarray, sums: np.ndarray,
                 charges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(V̂, image charges) for W constant along each ring: V̂[…, r, q′] = n_φ W[r, 0] C[…, r, q′
    mod n_φ], C the alias fold of the sums (`_fold`), on the image charges q′ of `_alias_charges`.

    The `charges` must be sorted and lie in −(D−1)..D−1, as `_live_sums` and `ring_resolution`
    give them.  On an alias-free grid (`_aliasing` false) each residue
    mod n_φ holds one charge, so C is the sums themselves and the image charges are B's own:
    V̂ = n_φ W[r, 0] c[…, r, q] is one scaled copy, with no fold and no gather.
    """
    dim, n_angular = _ring_dim(factors), weights.shape[1]
    if not _aliasing(n_angular, dim):
        # a C-contiguous copy, so the image product can view it
        return np.multiply(sums, n_angular * weights[:, :1], dtype=complex, order="C"), charges
    image_charges = _alias_charges(charges, dim, n_angular)
    # `take`, not fancy indexing: its copy is C-contiguous, so the image product can view it
    hats = np.take(_fold(sums, charges, n_angular), image_charges % n_angular, axis=-1)
    hats *= n_angular * weights[:, :1]
    return hats, image_charges


def _node_hats(factors: RingFactors, weights: np.ndarray, sums: np.ndarray,
               charges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(V̂, every charge) for any W: V̂[…, r, q′] = Σ_l V[r, l] e^{iq′φ_l}, V = W ⊙ Q, from the
    ring symbols Q on the nodes: the unscaled inverse DFT of V read at q′ mod n_φ."""
    dim, n_angular = _ring_dim(factors), weights.shape[1]
    hats = np.fft.ifft(weights * _ring_symbols(sums, charges, n_angular), norm="forward")
    every_charge = np.arange(1 - dim, dim)
    return np.take(hats, every_charge % n_angular, axis=-1), every_charge


def _symbol_image(factors: RingFactors, weights: np.ndarray, sums: np.ndarray,
                  charges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(images, image charges): Λ(B)'s diagonals κ ⊙ (F²ᵀ @ (t^|q| ⊙ V̂)), V = W ⊙ Q, from B's
    sums on the sorted `charges` in −(D−1)..D−1, B 0 on the others; W must pass `_per_ring`.
    With W constant along each ring, V̂ is the alias fold of the sums (`_folded_hats`), formed
    only on the image charges q′ ≡ q (mod n_φ) and exactly 0 elsewhere: on an alias-free grid,
    B's own charges and the sums scaled by n_φ W[r, 0], with no fold.  Else V̂ comes from the
    symbols on the nodes."""
    weights = _per_ring(factors, weights)
    hats_from = _folded_hats if _ring_constant(weights) else _node_hats
    hats, charges = hats_from(factors, weights, sums, charges)
    columns = _table_columns(charges, _ring_dim(factors))
    hats *= factors._charge_powers[:, columns]
    images = (factors.squares.T @ hats.view(float)).view(complex)
    images *= factors._charge_ratios[:, columns]
    return images, charges


def ring_moments(factors: RingFactors, weights: np.ndarray, size: int) -> np.ndarray:
    """M[i, s] = Σ_r F[r, i]² n_φ W[r, 0] t_r^s for s = 0..size − 1: the grid's moment table,
    one matrix product F²ᵀ @ (n_φ W[:, :1] ⊙ T) with T[r, s] = t_r^s (1 at s = 0, even at t = 0).

    It is all that a power symbol's image reads of the grid (`ring_power_image`).  Raises
    ValueError unless W has one row per ring (`_per_ring`) and is constant along each ring, the
    grids on which the φ-sum of a symbol on charge q is n_φ W[r, 0] on every q′ ≡ q (mod n_φ).
    """
    weights = _per_ring(factors, weights)
    if not _ring_constant(weights):
        raise ValueError("grid weights vary along a ring")
    table = np.exp(_level_logs(factors.log_t, size))
    table *= weights.shape[1] * weights[:, :1]
    return factors.squares.T @ table


def ring_power_image(factors: RingFactors, moments: np.ndarray, n_angular: int,
                     coefficients: np.ndarray, powers, charges) -> tuple[np.ndarray, np.ndarray]:
    """(images, image charges): Λ(B)'s diagonals, per B of a stack, for B whose Q-symbol is the
    power symbol Σ_k c[…, k] t^{p_k} on the charges q_k: the charge sums c[…, k]·t_r^{p_k} on
    charge q_k, summed over the terms of one charge.

    On the grid of the `ring_moments` table M (its n_φ angles), the image on charge q′ is
    κ[|q′|, i] Σ_{k: q_k ≡ q′ (mod n_φ)} c[…, k] M[i, p_k + |q′|], with no per-ring work.  The
    image charges are those `_symbol_image` gives for these sums, the aliases of the q_k (B's
    own charges on an alias-free grid), and so are the images, to rounding.  `coefficients` is
    (…, K), `powers` and `charges` have one entry per term, the charges in −(D−1)..D−1.  Raises
    ValueError on a negative power, or on a term whose column p_k + |q′| lies past M.
    """
    dim = _ring_dim(factors)
    powers, charges = np.asarray(powers), np.asarray(charges)
    # not np.unique, which loads numpy.ma (about 1 MB of resident memory) on first use
    image_charges = (_alias_charges(charges, dim, n_angular) if _aliasing(n_angular, dim)
                     else np.array(sorted(set(charges.tolist()))))
    reach = (image_charges[:, None] - charges) % n_angular == 0
    columns = np.where(reach, np.abs(image_charges)[:, None] + powers, 0)
    if powers.min() < 0 or columns.max() >= moments.shape[1]:
        raise ValueError(f"powers must be nonnegative and reach at most column "
                         f"{moments.shape[1] - 1} of the moments, got {powers}")
    images = np.einsum("...k,ick->...ic", coefficients, moments[:, columns] * reach)
    images *= factors._charge_ratios[:, image_charges + (dim - 1)]
    return images, image_charges


def ring_diagonal_image(factors: RingFactors, weights: np.ndarray, diagonals: np.ndarray,
                        charges) -> tuple[np.ndarray, np.ndarray]:
    """(images, image charges): Λ(B) on its offset diagonals, for B given on its own.

    `diagonals` (…, D, c) holds B in `_diagonal_index`'s layout, [i, k] the entry of lower
    index i on the signed charge q = charges[k], increasing; B is 0 on the other charges, and
    the entries past a diagonal's end (i + |q| ≥ D) are dropped unread.  B is scattered into
    its matrix (`_on_diagonals`) and mapped as `ring_luders_image` maps it, one call per
    stack, so the images are that image's diagonals bit for bit, in the same layout, 0 past
    each end, on the image charges: those of `_alias_charges` when W is constant along each
    ring, every charge otherwise.  Raises ValueError unless `charges` is a non-empty, strictly
    increasing list of integers in −(D−1)..D−1 and `diagonals` has D rows and one column per
    charge.
    """
    dim, charges = _ring_dim(factors), np.asarray(charges)
    if (charges.ndim != 1 or not charges.size or not np.issubdtype(charges.dtype, np.integer)
            or np.any(np.diff(charges) <= 0) or np.any(np.abs(charges) >= dim)):
        raise ValueError(f"charges must be strictly increasing integers in {1 - dim}..{dim - 1}, "
                         f"got {charges}")
    if np.ndim(diagonals) < 2 or np.shape(diagonals)[-2:] != (dim, len(charges)):
        raise ValueError(f"diagonals must have shape (..., {dim}, {len(charges)}), "
                         f"got {np.shape(diagonals)}")
    sums, every_charge = _live_sums(factors, _on_diagonals(np.asarray(diagonals), charges))
    images, _ = _symbol_image(factors, weights, sums, every_charge)  # checks W
    image_charges = (_alias_charges(charges, dim, np.shape(weights)[1])
                     if _ring_constant(np.asarray(weights)) else every_charge)
    return np.take(images, image_charges + (dim - 1), axis=-1), image_charges


def ring_luders_image(factors: RingFactors, weights: np.ndarray,
                      operator: np.ndarray) -> np.ndarray:
    """Λ(B) = Σ_{r,l} W[r, l] Q[r, l] |ψ_rl⟩⟨ψ_rl| from the ring factors, B on every charge;
    B may be a stack (…, D, D)."""
    return _on_diagonals(*_symbol_image(factors, weights, *_live_sums(factors, operator)))


def ring_luders_sums(factors: RingFactors, weights: np.ndarray,
                     operator: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(c_B, c_Λ(B)): the `ring_charge_sums` of B and of `ring_luders_image`(B), per B of a stack.

    B is gathered once and its sums formed once; from sums on every charge the image
    diagonals lie on every charge too, and Λ(B)'s sums come straight from them, with no
    D × D image and no second gather.
    """
    sums, charges = _live_sums(factors, operator)
    images, _ = _symbol_image(factors, weights, sums, charges)  # checks W
    return sums, _diagonal_sums(factors, images)


def ring_luders_symbols(factors: RingFactors, weights: np.ndarray,
                        operator: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Q_B, Q_Λ(B)): the `ring_q_symbols` of B and of `ring_luders_image`(B), per B of a stack,
    from `ring_luders_sums`."""
    sums = ring_luders_sums(factors, weights, operator)
    dim, n_angular = factors.shape[1], np.shape(weights)[1]
    return tuple(_ring_symbols(half, np.arange(1 - dim, dim), n_angular) for half in sums)
