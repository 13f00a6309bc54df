"""Lüders channels from weighted rank-1 projector families.

A family {w_i, |ψ_i⟩} resolving the identity defines the unital channel
B -> Σ_i w_i |ψ_i⟩⟨ψ_i| B |ψ_i⟩⟨ψ_i|.  `resolution`, `q_symbols` and
`luders_image` compute the POVM sum, the symbols ⟨ψ_i|B|ψ_i⟩ and the
channel image directly from a state matrix (one state per row), for the
sphere and the disk alike.  The superoperator is assembled in
the column-stacking convention, Λ = Σ_i w_i conj(P_i) ⊗ P_i, which makes
it a Hermitian matrix on C^(D²) (the channel is its own Hilbert-Schmidt
adjoint because each POVM element equals its own square root).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

STATE_NORM_TOL = 1e-12
RESOLUTION_TOL = 1e-10
UNITALITY_TOL = 1e-10
HERMITICITY_TOL = 1e-10
FIXED_POINT_TOL = 1e-7  # eigenvalue window around 1; spectral gaps exceed 1e-1


class QuadratureError(ValueError):
    """A projector family fails its resolution-of-unity or weight invariants."""


def resolution(states: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Σ_i w_i |ψ_i⟩⟨ψ_i| for the states in the rows of `states`."""
    return (states.T * weights) @ states.conj()


def q_symbols(states: np.ndarray, operator: np.ndarray) -> np.ndarray:
    """⟨ψ_i|B|ψ_i⟩ for every row ψ_i of `states`."""
    operator = np.asarray(operator, dtype=complex)
    dim = states.shape[1]
    if operator.shape != (dim, dim):
        raise ValueError(f"operator shape {operator.shape} does not match dim {dim}")
    return ((states.conj() @ operator) * states).sum(axis=1)


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
        states = np.ascontiguousarray(np.asarray(self.states, dtype=complex))
        weights = np.ascontiguousarray(np.asarray(self.weights, dtype=float))
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
        states.setflags(write=False)
        weights.setflags(write=False)
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
        matrix = np.ascontiguousarray(np.asarray(self.matrix, dtype=complex))
        d2 = self.dim * self.dim
        if matrix.shape != (d2, d2):
            raise ValueError(f"expected shape ({d2}, {d2}), got {matrix.shape}")
        herm = np.abs(matrix - matrix.conj().T).max()
        if herm > HERMITICITY_TOL:
            raise ValueError(
                f"superoperator is not Hilbert-Schmidt Hermitian (defect {herm:.3e})"
            )
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)
        identity = np.eye(self.dim)
        defect = np.abs(apply_channel(self, identity) - identity).max()
        if defect > UNITALITY_TOL:
            raise ValueError(f"channel is not unital (defect {defect:.3e})")


@dataclass(frozen=True)
class SpectralReport:
    """Eigendecomposition summary: spectrum, fixed-space dimension and basis."""

    eigenvalues: np.ndarray            # complex, descending real part
    fixed_space_dim: int
    fixed_basis: tuple = field(default=())


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
    operator = np.asarray(operator, dtype=complex)
    if operator.shape != (chan.dim, chan.dim):
        raise ValueError(
            f"operator shape {operator.shape} does not match dimension {chan.dim}"
        )
    return unvec(chan.matrix @ vec(operator), chan.dim)


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
    n_fixed = int(np.count_nonzero(np.abs(evals - 1.0) <= FIXED_POINT_TOL))
    basis = _hermitian_fixed_basis(evecs[:, :n_fixed], chan.dim, n_fixed)
    return SpectralReport(
        eigenvalues=evals.astype(complex),
        fixed_space_dim=n_fixed,
        fixed_basis=basis,
    )


def _hermitian_fixed_basis(vectors: np.ndarray, dim: int, count: int) -> tuple:
    """Hermitian HS-orthonormal basis of the span of the given eigenvectors."""
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
    if len(basis) != count:
        raise RuntimeError(
            f"fixed-space Hermitization produced {len(basis)} elements, "
            f"expected {count}"
        )
    return tuple(b.copy() for b in basis)


def choi_matrix(chan: SuperoperatorMatrix) -> np.ndarray:
    """Choi matrix of the channel; positive semidefinite iff the map is CP.

    Obtained by reshuffling the superoperator: with column stacking,
    J[i*D+r, j*D+c] = M[c*D+r, j*D+i].
    """
    d = chan.dim
    m4 = chan.matrix.reshape(d, d, d, d)
    return np.ascontiguousarray(m4.transpose(3, 1, 2, 0).reshape(d * d, d * d))
