from fractions import Fraction
from math import pi

import numpy as np
import pytest
from scipy.special import sph_harm_y

from luderskit import spin
from luderskit.channel import apply_channel, build_luders_channel
from luderskit.spin import (
    SpherePoint,
    SphereQuadrature,
    SpinSpace,
    coherent_state_matrix,
    expected_spectrum,
    harmonic_coefficients,
    overlap_squared,
    projector_family,
    q_symbol_spin,
    reconstruct_q_symbol,
    ring_factors,
    sph_harm_values,
    sphere_quadrature,
    spin_coherent_state,
    tau_spin,
    tau_spin_fraction,
)


def random_points(rng, count):
    return [
        SpherePoint(np.arccos(rng.uniform(-1, 1)), rng.uniform(0, 2 * pi))
        for _ in range(count)
    ]


def random_hermitian(rng, dim):
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (raw + raw.conj().T) / 2


# --- spaces -------------------------------------------------------------------

def test_space_validation():
    with pytest.raises(ValueError):
        SpinSpace(0)
    with pytest.raises(ValueError):
        SpinSpace(51)
    with pytest.raises(ValueError):
        SpinSpace(1.5)


def test_space_takes_integer_sizes_only():
    # SpinSpace(np.int64(3)) was once refused and SpinSpace(True) read as spin ½
    for two_s in (True, 3.0, "3", None):
        with pytest.raises(ValueError, match="two_s must be an integer"):
            SpinSpace(two_s)
    space = SpinSpace(np.int64(3))
    assert space.two_s == 3 and type(space.two_s) is int and space == SpinSpace(3)
    assert space.jz.shape == (4, 4)


@pytest.mark.parametrize("two_s", [1, 2, 3, 5, 8])
def test_su2_commutators_and_casimir(two_s):
    space = SpinSpace(two_s)
    jz, jp, jm = space.jz, space.jplus, space.jminus
    assert np.abs(jz @ jp - jp @ jz - jp).max() < 1e-12
    assert np.abs(jz @ jm - jm @ jz + jm).max() < 1e-12
    assert np.abs(jp @ jm - jm @ jp - 2 * jz).max() < 1e-12
    casimir = (jp @ jm + jm @ jp) / 2 + jz @ jz
    s = space.spin
    assert np.abs(casimir - s * (s + 1) * np.eye(space.dim)).max() < 1e-12


# --- coherent states ----------------------------------------------------------

def test_north_pole_is_highest_weight():
    space = SpinSpace(3)
    state = spin_coherent_state(space, SpherePoint(0.0, 0.0))
    expected = np.zeros(4)
    expected[0] = 1.0
    assert np.abs(state - expected).max() < 1e-15


def test_south_pole_is_lowest_weight_up_to_phase():
    space = SpinSpace(3)
    state = spin_coherent_state(space, SpherePoint(pi, 1.2))
    assert np.abs(np.abs(state) - np.eye(4)[3]).max() < 1e-12
    assert abs(abs(state[3]) - 1.0) < 1e-12


def test_states_are_normalized():
    rng = np.random.default_rng(2)
    for two_s in (1, 2, 5):
        space = SpinSpace(two_s)
        for point in random_points(rng, 20):
            assert abs(np.linalg.norm(spin_coherent_state(space, point)) - 1) < 1e-12


def test_perpendicular_overlap_spin_half():
    space = SpinSpace(1)
    north = SpherePoint(0.0, 0.0)
    equator = SpherePoint(pi / 2, 0.3)
    assert abs(overlap_squared(space, north, equator) - 0.5) < 1e-12


def test_overlap_at_specific_angle_spin_one():
    # n.n' = 1/2 -> ((1 + 1/2)/2)^2 = 9/16
    space = SpinSpace(2)
    p1 = SpherePoint(0.0, 0.0)
    p2 = SpherePoint(pi / 3, 0.0)
    assert abs(overlap_squared(space, p1, p2) - 9 / 16) < 1e-12


def test_overlap_trivial_cases():
    space = SpinSpace(3)
    point = SpherePoint(1.0, 2.0)
    assert abs(overlap_squared(space, point, point) - 1.0) < 1e-12
    antipode = SpherePoint(pi - 1.0, 2.0 + pi)
    assert overlap_squared(space, point, antipode) < 1e-12


@pytest.mark.parametrize("two_s", [1, 2, 3, 4, 5])
def test_overlap_law_on_100_random_pairs(two_s):
    rng = np.random.default_rng(100 + two_s)
    space = SpinSpace(two_s)
    for _ in range(100):
        p1, p2 = random_points(rng, 2)
        dot = p1.unit_vector @ p2.unit_vector
        closed_form = ((1 + dot) / 2) ** two_s
        assert abs(overlap_squared(space, p1, p2) - closed_form) < 1e-12


def test_sphere_point_validation():
    with pytest.raises(ValueError):
        SpherePoint(-0.1, 0.0)
    with pytest.raises(ValueError):
        SpherePoint(0.5, 2 * pi)


# --- quadrature ---------------------------------------------------------------

def test_quadrature_total_weight_is_dimension():
    for two_s in (1, 2, 5):
        grid = sphere_quadrature(SpinSpace(two_s))
        assert abs(grid.weights.sum() - (two_s + 1)) < 1e-12


def test_quadrature_resolution_of_unity():
    for two_s in (1, 2, 3, 4, 5):
        space = SpinSpace(two_s)
        grid = sphere_quadrature(space)
        psi = coherent_state_matrix(space, grid)
        resolution = (psi.T * grid.weights) @ psi.conj()
        assert np.abs(resolution - np.eye(space.dim)).max() < 1e-12


def test_quadrature_integrates_harmonics_exactly():
    # direct summation oracle: integral of Y_lm over the measure is
    # delta_l0 delta_m0 times (2s+1)/sqrt(4 pi)
    space = SpinSpace(4)
    grid = sphere_quadrature(space)
    assert grid.exact_degree >= 8
    for l in range(9):
        for m in range(-l, l + 1):
            total = np.sum(grid.weights * sph_harm_values(l, m, grid.thetas, grid.phis))
            expected = (space.dim) / np.sqrt(4 * pi) if (l, m) == (0, 0) else 0.0
            assert abs(total - expected) < 1e-12, (l, m)


def test_quadrature_rejects_undersized_requests():
    space = SpinSpace(4)
    with pytest.raises(ValueError):
        sphere_quadrature(space, n_theta=3)
    with pytest.raises(ValueError):
        sphere_quadrature(space, n_phi=4)


@pytest.mark.parametrize("name", ["n_theta", "n_phi"])
def test_quadrature_takes_integer_node_counts_only(name):
    # a fractional n_phi once built a grid of total weight 3.73, not 2s + 1 = 4
    space = SpinSpace(3)
    for count in (7.5, True, "3"):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            sphere_quadrature(space, **{name: count})
    grid = sphere_quadrature(space, **{name: np.int64(9)})
    assert abs(grid.weights.sum() - space.dim) < 1e-13
    assert grid.rings[2].shape[0 if name == "n_theta" else 1] == 9


def test_ring_factors_reject_aliasing_and_non_product_grids():
    two_s = 3
    space = SpinSpace(two_s)
    x, w_gl = np.polynomial.legendre.leggauss(two_s + 1)
    n_phi = 2 * two_s  # one node short of alias-free; sphere_quadrature refuses it
    tt, pp = np.meshgrid(np.arccos(x), 2 * pi * np.arange(n_phi) / n_phi, indexing="ij")
    ww = np.repeat((two_s + 1) * w_gl[:, None] / 2 / n_phi, n_phi, axis=1)
    aliased = SphereQuadrature(tt.ravel(), pp.ravel(), ww.ravel(), n_phi - 1)
    with pytest.raises(ValueError, match="phi nodes"):
        ring_factors(space, aliased)
    grid = sphere_quadrature(space)
    shuffled = np.random.default_rng(0).permutation(len(grid))
    scrambled = SphereQuadrature(grid.thetas[shuffled], grid.phis[shuffled],
                                 grid.weights[shuffled], grid.exact_degree)
    with pytest.raises(ValueError, match="rings"):
        ring_factors(space, scrambled)
    factors, ring_weights = ring_factors(space, grid)
    assert factors.shape == (two_s + 1, space.dim) and np.all(np.asarray(factors) >= 0)
    assert abs(ring_weights.sum() - space.dim) < 1e-12


def test_ring_factors_reject_weights_that_vary_along_a_ring():
    space = SpinSpace(3)
    grid = sphere_quadrature(space)
    tilted = grid.weights * (1 + 1e-6 * np.cos(grid.phis))  # same total per ring
    with pytest.raises(ValueError, match="vary along a ring"):
        ring_factors(space, SphereQuadrature(grid.thetas, grid.phis, tilted, grid.exact_degree))


def test_rings_are_split_once_and_read_only():
    space = SpinSpace(4)
    grid = sphere_quadrature(space)
    assert grid.rings is grid.rings
    thetas, phis, weights = grid.rings
    assert (len(thetas), len(phis), weights.shape) == (5, 9, (5, 9))
    for arr in grid.rings:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0


def test_points_property_round_trips():
    grid = sphere_quadrature(SpinSpace(1))
    points = grid.points
    assert len(points) == len(grid)
    assert abs(points[0].theta - grid.thetas[0]) < 1e-15


# --- spherical harmonics --------------------------------------------------------

def test_spherical_harmonics_match_scipy():
    rng = np.random.default_rng(3)
    thetas = np.arccos(rng.uniform(-1, 1, 40))
    phis = rng.uniform(0, 2 * pi, 40)
    for l in range(0, 12):
        for m in range(-l, l + 1):
            mine = sph_harm_values(l, m, thetas, phis)
            ref = sph_harm_y(l, m, thetas, phis)
            assert np.abs(mine - ref).max() < 1e-12, (l, m)


# --- symbols and coefficients ----------------------------------------------------

def test_q_symbol_of_identity():
    space = SpinSpace(2)
    grid = sphere_quadrature(space)
    samples = q_symbol_spin(space, np.eye(space.dim), grid)
    assert np.abs(samples - 1.0).max() < 1e-12


@pytest.mark.parametrize("two_s", [1, 2, 3])
def test_q_symbol_of_jz_is_s_cos_theta(two_s):
    space = SpinSpace(two_s)
    grid = sphere_quadrature(space)
    samples = q_symbol_spin(space, space.jz, grid)
    assert np.abs(samples - space.spin * np.cos(grid.thetas)).max() < 1e-12


def test_q_symbol_of_top_projector():
    space = SpinSpace(3)
    grid = sphere_quadrature(space)
    projector = np.zeros((4, 4), dtype=complex)
    projector[0, 0] = 1.0
    samples = q_symbol_spin(space, projector, grid)
    expected = np.cos(grid.thetas / 2) ** (2 * space.two_s)
    assert np.abs(samples - expected).max() < 1e-12


def test_q_symbol_real_for_hermitian():
    rng = np.random.default_rng(17)
    space = SpinSpace(3)
    grid = sphere_quadrature(space)
    samples = q_symbol_spin(space, random_hermitian(rng, space.dim), grid)
    assert np.abs(samples.imag).max() < 1e-12


def test_q_symbol_dimension_check():
    space = SpinSpace(2)
    grid = sphere_quadrature(space)
    with pytest.raises(ValueError):
        q_symbol_spin(space, np.eye(2), grid)


def test_harmonic_coefficients_of_identity():
    space = SpinSpace(2)
    grid = sphere_quadrature(space)
    coeffs = harmonic_coefficients(q_symbol_spin(space, np.eye(3), grid), grid, space)
    for row, value in enumerate(coeffs):
        if row == 0:  # (l, m) = (0, 0)
            assert abs(value - np.sqrt(3)) < 1e-12  # sqrt(2s+1): reconstructs Q = 1
        else:
            assert abs(value) < 1e-12


def test_harmonic_coefficients_of_jz_spin_half():
    space = SpinSpace(1)
    grid = sphere_quadrature(space)
    coeffs = harmonic_coefficients(q_symbol_spin(space, space.jz, grid), grid, space)
    for row, value in enumerate(coeffs):
        if row == 1 * 1 + 1 + 0:  # (l, m) = (1, 0)
            assert abs(value) > 0.1
        else:
            assert abs(value) < 1e-12


def test_hermitian_coefficient_symmetry():
    rng = np.random.default_rng(23)
    space = SpinSpace(3)
    grid = sphere_quadrature(space)
    coeffs = harmonic_coefficients(
        q_symbol_spin(space, random_hermitian(rng, space.dim), grid), grid, space)
    for l in range(space.two_s + 1):
        for m in range(-l, l + 1):
            lhs = coeffs[l * l + l - m]
            rhs = (-1) ** m * np.conj(coeffs[l * l + l + m])
            assert abs(lhs - rhs) < 1e-12


def test_reconstruction_reproduces_samples():
    rng = np.random.default_rng(29)
    space = SpinSpace(4)
    grid = sphere_quadrature(space)
    samples = q_symbol_spin(space, random_hermitian(rng, space.dim), grid)
    coeffs = harmonic_coefficients(samples, grid, space)
    assert np.abs(reconstruct_q_symbol(coeffs, grid) - samples).max() < 1e-10


@pytest.mark.parametrize("two_s", [1, 3, 6])
def test_harmonic_coefficients_match_direct_quadrature(two_s):
    # oracle: B_lm = sqrt(4π/(2s+1)) Σ_k w_k Q(n_k) conj(Y_lm(n_k)) with scipy's
    # Y_lm, summed term by term; a non-Hermitian B makes every -m coefficient
    # independent of its +m partner
    rng = np.random.default_rng(700 + two_s)
    space = SpinSpace(two_s)
    grid = sphere_quadrature(space)
    operator = rng.normal(size=(space.dim, space.dim)) + 1j * rng.normal(
        size=(space.dim, space.dim))
    samples = q_symbol_spin(space, operator, grid)
    coeffs = harmonic_coefficients(samples, grid, space)
    scale = np.sqrt(4 * pi / space.dim)
    expected_keys = set()
    for l in range(two_s + 1):
        for m in range(-l, l + 1):
            y = sph_harm_y(l, m, grid.thetas, grid.phis)
            direct = scale * np.sum(grid.weights * samples * y.conj())
            assert abs(coeffs[l * l + l + m] - direct) < 1e-12, (l, m)
            expected_keys.add(l * l + l + m)
    assert set(range(len(coeffs))) == expected_keys


def test_harmonic_transform_rejects_grids_that_are_not_rings():
    space = SpinSpace(3)
    grid = sphere_quadrature(space)
    shuffled = np.random.default_rng(1).permutation(len(grid))
    scrambled = SphereQuadrature(grid.thetas[shuffled], grid.phis[shuffled],
                                 grid.weights[shuffled], grid.exact_degree)
    samples = np.ones(len(grid))
    with pytest.raises(ValueError, match="rings"):
        harmonic_coefficients(samples, scrambled, space)
    with pytest.raises(ValueError, match="rings"):
        reconstruct_q_symbol(harmonic_coefficients(samples, grid, space), scrambled)


def test_reconstruction_rejects_a_coefficient_count_that_is_not_a_square():
    grid = sphere_quadrature(SpinSpace(2))
    with pytest.raises(ValueError, match="lmax"):
        reconstruct_q_symbol(np.ones(10, dtype=complex), grid)


def test_coarse_grid_rejected_for_coefficients():
    fine_space = SpinSpace(4)
    coarse = sphere_quadrature(SpinSpace(2))  # exact degree 4 < 8 required
    samples = np.ones(len(coarse))
    with pytest.raises(ValueError):
        harmonic_coefficients(samples, coarse, fine_space)


# --- damping factors -------------------------------------------------------------

def test_tau_values():
    assert tau_spin(SpinSpace(1), 0) == 1.0
    assert tau_spin(SpinSpace(7), 0) == 1.0
    assert tau_spin_fraction(1, 1) == Fraction(1, 3)
    assert tau_spin_fraction(2, 2) == Fraction(1, 10)
    assert tau_spin_fraction(3, 1) == Fraction(3, 5)
    assert tau_spin_fraction(3, 3) == Fraction(1, 35)


def test_tau_range_and_l_validation():
    space = SpinSpace(6)
    for l in range(7):
        value = tau_spin(space, l)
        assert 0 < value <= 1
        assert (value == 1) == (l == 0)
    with pytest.raises(ValueError):
        tau_spin(space, 7)
    with pytest.raises(ValueError):
        tau_spin(space, -1)


@pytest.mark.parametrize("two_s", [1, 2, 3, 4, 5])
def test_channel_damps_each_harmonic_sector(two_s):
    rng = np.random.default_rng(200 + two_s)
    space = SpinSpace(two_s)
    grid = sphere_quadrature(space)
    chan = build_luders_channel(projector_family(space, grid))
    taus = {l: tau_spin(space, l) for l in range(two_s + 1)}
    for _ in range(5):
        operator = random_hermitian(rng, space.dim)
        before = harmonic_coefficients(q_symbol_spin(space, operator, grid), grid, space)
        image = apply_channel(chan, operator)
        after = harmonic_coefficients(q_symbol_spin(space, image, grid), grid, space)
        for l in range(two_s + 1):
            for m in range(-l, l + 1):
                row = l * l + l + m
                assert abs(after[row] - taus[l] * before[row]) < 1e-9


def test_apply_channel_jz_damps_by_tau1():
    # brute-force oracle: the l=1 sector of J_z damps by tau_1, which is
    # 1/3 at s=1/2 (not 1/2; verified by direct integration)
    space = SpinSpace(1)
    chan = build_luders_channel(projector_family(space))
    image = apply_channel(chan, space.jz)
    assert np.abs(image - space.jz / 3).max() < 1e-12


def test_apply_channel_jz_squared_sector_damping():
    # decompose J_z² into harmonic sectors by brute force: l=0 preserved,
    # l=2 damped by 1/10
    space = SpinSpace(2)
    grid = sphere_quadrature(space)
    chan = build_luders_channel(projector_family(space, grid))
    operator = space.jz @ space.jz
    before = harmonic_coefficients(q_symbol_spin(space, operator, grid), grid, space)
    after = harmonic_coefficients(
        q_symbol_spin(space, apply_channel(chan, operator), grid), grid, space)
    l2 = 2 * 2 + 2  # row of (l, m) = (2, 0); (0, 0) is row 0
    assert abs(before[0]) > 0.1 and abs(before[l2]) > 0.1
    assert abs(after[0] - before[0]) < 1e-12
    assert abs(after[l2] - before[l2] / 10) < 1e-12
    for l in range(space.two_s + 1):
        for m in range(-l, l + 1):
            if l not in (0, 2):
                assert abs(before[l * l + l + m]) < 1e-12


def test_spectrum_and_unique_fixed_point_across_spins():
    from luderskit.channel import channel_spectrum
    for two_s in (1, 2, 3, 4, 5):
        space = SpinSpace(two_s)
        report = channel_spectrum(build_luders_channel(projector_family(space)))
        assert np.abs(report.eigenvalues.real - expected_spectrum(space)).max() < 1e-9
        assert report.fixed_space_dim == 1
        fixed = report.fixed_basis[0]
        residual = fixed - np.trace(fixed) / space.dim * np.eye(space.dim)
        assert np.abs(residual).max() < 1e-9


def test_ladder_matrices_are_built_on_first_use_and_read_only():
    space = SpinSpace(3)
    assert not any(isinstance(v, np.ndarray) for v in vars(space).values())
    k = np.arange(1, 4)
    expected = {"jz": np.diag([1.5, 0.5, -0.5, -1.5]).astype(complex),
                "jplus": np.diag(np.sqrt(k * (4 - k)), 1).astype(complex)}
    for name, matrix in expected.items():
        first = getattr(space, name)
        assert first.dtype == complex and np.array_equal(first, matrix)
        assert not first.flags.writeable and getattr(space, name) is first
    assert np.array_equal(space.jminus, expected["jplus"].T)


def test_sph_harm_values_refuses_m_past_l():
    with pytest.raises(ValueError, match="must not exceed l"):
        sph_harm_values(1, 2, np.array([0.5]), np.array([0.0]))


def test_states_and_ring_factors_past_64_bit_binomials(monkeypatch):
    # C(68, 34) > 2^64, past numpy's integer types; the rows read C(2s, k) from a float table
    monkeypatch.setattr(spin, "MAX_TWO_S", 100)
    rng = np.random.default_rng(68)
    for two_s in (68, 100):
        space = SpinSpace(two_s)
        for point in random_points(rng, 5) + [SpherePoint(0.0, 0.0), SpherePoint(pi, 0.0)]:
            assert abs(np.linalg.norm(spin_coherent_state(space, point)) - 1.0) < 1e-12
        grid = sphere_quadrature(space)
        factors, weights = ring_factors(space, grid)
        states = coherent_state_matrix(space, grid)
        assert np.array_equal(factors.rows, states[::weights.shape[1]].real)
        assert np.all(np.isfinite(factors.log_h))
