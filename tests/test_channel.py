from fractions import Fraction
from math import factorial

import numpy as np
import pytest

from luderskit.channel import (
    QuadratureError,
    SuperoperatorMatrix,
    WeightedProjectorFamily,
    apply_channel,
    build_luders_channel,
    channel_spectrum,
    choi_matrix,
    luders_image,
    unvec,
    vec,
)
from luderskit.spin import SpinSpace, expected_spectrum, projector_family


def tau_fraction(two_s, l):
    return Fraction(
        factorial(two_s) * factorial(two_s + 1),
        factorial(two_s - l) * factorial(two_s + 1 + l),
    )


def random_hermitian(rng, dim):
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (raw + raw.conj().T) / 2


def orthonormal_family(rng, dim):
    """Random orthonormal basis as a weight-1 projector family (exact POVM)."""
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    states, _ = np.linalg.qr(raw)
    return WeightedProjectorFamily(dim, states.T.conj(), np.ones(dim))


def test_one_dimensional_family_gives_scalar_identity():
    family = WeightedProjectorFamily(1, np.array([[1.0 + 0j]]), np.array([1.0]))
    chan = build_luders_channel(family)
    assert chan.matrix.shape == (1, 1)
    assert abs(chan.matrix[0, 0] - 1.0) < 1e-15


def test_family_validation_rejects_bad_inputs():
    with pytest.raises(QuadratureError):
        WeightedProjectorFamily(2, np.array([[1.0, 0.0]]), np.array([-1.0]))
    with pytest.raises(QuadratureError):
        WeightedProjectorFamily(2, np.array([[2.0, 0.0]]), np.array([1.0]))
    with pytest.raises(QuadratureError):  # single projector cannot resolve I_2
        WeightedProjectorFamily(2, np.array([[1.0, 0.0]]), np.array([1.0]))
    incomplete = projector_family(SpinSpace(1))
    with pytest.raises(QuadratureError):  # dropping a node breaks the resolution
        WeightedProjectorFamily(2, incomplete.states[1:], incomplete.weights[1:])


def test_unitality_for_spin_half():
    chan = build_luders_channel(projector_family(SpinSpace(1)))
    identity = np.eye(2)
    assert np.abs(apply_channel(chan, identity) - identity).max() < 1e-10


def test_vectorization_convention_against_triple_product():
    rng = np.random.default_rng(5)
    family = orthonormal_family(rng, 4)
    chan = build_luders_channel(family)
    for _ in range(10):
        operator = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        direct = sum(
            w * np.outer(psi, psi.conj()) @ operator @ np.outer(psi, psi.conj())
            for w, psi in zip(family.weights, family.states)
        )
        assert np.abs(apply_channel(chan, operator) - direct).max() < 1e-12
    mat = rng.normal(size=(4, 4))
    assert np.array_equal(unvec(vec(mat), 4), mat)


def test_apply_channel_dimension_mismatch():
    chan = build_luders_channel(projector_family(SpinSpace(1)))
    with pytest.raises(ValueError):
        apply_channel(chan, np.eye(3))


def test_luders_image_matches_superoperator_application():
    rng = np.random.default_rng(31)
    for two_s in range(1, 7):
        family = projector_family(SpinSpace(two_s))
        chan = build_luders_channel(family)
        operator = (rng.normal(size=(family.dim, family.dim))
                    + 1j * rng.normal(size=(family.dim, family.dim)))
        direct = luders_image(family.states, family.weights, operator)
        assert np.abs(direct - apply_channel(chan, operator)).max() < 1e-12, two_s


def test_trace_preservation_on_random_hermitian():
    rng = np.random.default_rng(8)
    chan = build_luders_channel(projector_family(SpinSpace(3)))
    for _ in range(20):
        operator = random_hermitian(rng, 4)
        before, after = np.trace(operator), np.trace(apply_channel(chan, operator))
        assert abs(after - before) <= 1e-10 * np.abs(operator).max() * 4


def test_superoperator_is_hs_self_adjoint():
    chan = build_luders_channel(projector_family(SpinSpace(2)))
    assert np.abs(chan.matrix - chan.matrix.conj().T).max() < 1e-10


def test_hermiticity_preservation():
    rng = np.random.default_rng(13)
    chan = build_luders_channel(projector_family(SpinSpace(2)))
    for _ in range(10):
        operator = random_hermitian(rng, 3)
        image = apply_channel(chan, operator)
        assert np.abs(image - image.conj().T).max() < 1e-12


def test_superoperator_constructor_rejects_non_unital():
    with pytest.raises(ValueError):
        SuperoperatorMatrix(2, 0.5 * np.eye(4))
    with pytest.raises(ValueError):
        SuperoperatorMatrix(2, np.diag([1.0, 2.0, 3.0, 4.0]) + np.triu(np.ones((4, 4)), 1) * 1j)


def test_spin1_eigenvalues_from_cg_factors():
    # oracle: tau_l = (2s)!(2s+1)!/((2s-l)!(2s+1+l)!) at s=1 gives 1, 1/2, 1/10
    assert tau_fraction(2, 0) == 1
    assert tau_fraction(2, 1) == Fraction(1, 2)
    assert tau_fraction(2, 2) == Fraction(1, 10)
    chan = build_luders_channel(projector_family(SpinSpace(2)))
    report = channel_spectrum(chan)
    expected = sorted(
        [float(tau_fraction(2, l)) for l in range(3) for _ in range(2 * l + 1)],
        reverse=True,
    )
    assert np.abs(report.eigenvalues.real - expected).max() < 1e-9
    assert np.abs(report.eigenvalues.imag).max() < 1e-9


def test_spin_half_spectrum_and_fixed_dim():
    chan = build_luders_channel(projector_family(SpinSpace(1)))
    report = channel_spectrum(chan)
    expected = np.array([1.0, 1 / 3, 1 / 3, 1 / 3])
    assert np.abs(report.eigenvalues.real - expected).max() < 1e-9
    assert report.fixed_space_dim == 1


def test_spectrum_lies_in_unit_interval():
    for two_s in (1, 2, 4):
        report = channel_spectrum(build_luders_channel(projector_family(SpinSpace(two_s))))
        assert report.eigenvalues.real.max() <= 1 + 1e-9
        assert report.eigenvalues.real.min() >= -1e-9


def test_fixed_basis_is_hermitian_orthonormal_and_fixed():
    chan = build_luders_channel(projector_family(SpinSpace(2)))
    report = channel_spectrum(chan)
    assert report.fixed_space_dim == 1
    fixed = report.fixed_basis[0]
    assert np.abs(fixed - fixed.conj().T).max() < 1e-12
    assert abs(np.trace(fixed.conj().T @ fixed) - 1.0) < 1e-12
    assert np.abs(apply_channel(chan, fixed) - fixed).max() <= 1e-9
    # spin-1 fixed basis is I/sqrt(3) up to sign
    target = np.eye(3) / np.sqrt(3)
    assert min(np.abs(fixed - target).max(), np.abs(fixed + target).max()) < 1e-9


def test_orthonormal_basis_family_fixed_space_is_diagonal_algebra():
    # complete orthogonal projective measurement fixes every diagonal matrix
    rng = np.random.default_rng(21)
    family = orthonormal_family(rng, 3)
    report = channel_spectrum(build_luders_channel(family))
    assert report.fixed_space_dim == 3


def test_iterated_application_converges_to_normalized_trace():
    rng = np.random.default_rng(34)
    space = SpinSpace(2)
    chan = build_luders_channel(projector_family(space))
    operator = random_hermitian(rng, space.dim)
    tau_1 = float(tau_fraction(2, 1))
    fixed_part = np.trace(operator) / space.dim * np.eye(space.dim)
    defect = np.linalg.norm(operator - fixed_part)
    current = operator
    for _ in range(50):
        current = apply_channel(chan, current)
        new_defect = np.linalg.norm(current - fixed_part)
        assert new_defect <= tau_1 * defect + 1e-12
        defect = new_defect
    assert np.abs(current - fixed_part).max() < 1e-6


def test_choi_one_dimensional():
    family = WeightedProjectorFamily(1, np.array([[1.0 + 0j]]), np.array([1.0]))
    choi = choi_matrix(build_luders_channel(family))
    assert choi.shape == (1, 1)
    assert abs(choi[0, 0] - 1.0) < 1e-12


def test_choi_positive_semidefinite_and_trace():
    for two_s in (1, 2):
        chan = build_luders_channel(projector_family(SpinSpace(two_s)))
        choi = choi_matrix(chan)
        eigenvalues = np.linalg.eigvalsh(choi)
        assert eigenvalues.min() >= -1e-10
        assert abs(np.trace(choi).real - (two_s + 1)) < 1e-10


def test_choi_matches_block_construction_oracle():
    chan = build_luders_channel(projector_family(SpinSpace(1)))
    dim = 2
    blocks = np.zeros((4, 4), dtype=complex)
    for i in range(dim):
        for j in range(dim):
            unit = np.zeros((dim, dim), dtype=complex)
            unit[i, j] = 1.0
            blocks += np.kron(unit, apply_channel(chan, unit))
    assert np.abs(choi_matrix(chan) - blocks).max() < 1e-12


def test_spectrum_law_multiset_for_all_small_spins():
    for two_s in (1, 2, 3, 4, 5):
        space = SpinSpace(two_s)
        report = channel_spectrum(build_luders_channel(projector_family(space)))
        assert np.abs(report.eigenvalues.real - expected_spectrum(space)).max() < 1e-9
