"""Property tests of the grid split, the charge blocks and the ring core over random sizings."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import gammainc

from luderskit import fock, spin
from luderskit.channel import (
    charge_block_image,
    charge_block_spectrum,
    charge_blocks,
    luders_image,
    q_symbols,
    resolution,
    ring_luders_image,
    ring_q_symbols,
    ring_resolution,
    split_rings,
)
from luderskit.spin import SpinSpace, expected_spectrum, ring_factors, sphere_quadrature

DETERMINISTIC = settings(derandomize=True, database=None, deadline=None, max_examples=25)


@st.composite
def spin_grids(draw):
    """A spin of 1..12 on a grid with up to 3 extra rings and 4 extra phi nodes."""
    two_s = draw(st.integers(1, 12))
    space = SpinSpace(two_s)
    grid = sphere_quadrature(space, two_s + 1 + draw(st.integers(0, 3)),
                             2 * two_s + 1 + draw(st.integers(0, 4)))
    return space, grid


@DETERMINISTIC
@given(spin_grids())
def test_blocks_are_symmetric_and_m0_is_unital_and_trace_preserving(case):
    space, grid = case
    blocks = charge_blocks(*ring_factors(space, grid))
    for block in blocks.values():
        assert np.abs(block - block.T).max() < 1e-14
    ones = np.ones(space.dim)
    assert np.abs(blocks[0] @ ones - ones).max() < 1e-12
    assert np.abs(ones @ blocks[0] - ones).max() < 1e-12


@DETERMINISTIC
@given(spin_grids())
def test_block_spectrum_is_the_spectrum_law(case):
    space, grid = case
    report = charge_block_spectrum(charge_blocks(*ring_factors(space, grid)))
    assert np.abs(report.eigenvalues.real - expected_spectrum(space)).max() < 1e-12
    assert report.fixed_space_dim == 1


@DETERMINISTIC
@given(spin_grids(), st.integers(0, 2**32 - 1))
def test_block_image_preserves_hermiticity(case, seed):
    space, grid = case
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(space.dim, space.dim)) + 1j * rng.normal(size=(space.dim, space.dim))
    image = charge_block_image(charge_blocks(*ring_factors(space, grid)), raw + raw.conj().T)
    assert np.abs(image - image.conj().T).max() < 1e-12


@pytest.mark.parametrize("two_s", [1, 4, 12])
def test_blocks_reject_weights_that_do_not_resolve_identity(two_s):
    space = SpinSpace(two_s)
    factors, ring_weights = ring_factors(space, sphere_quadrature(space))
    with pytest.raises(ValueError, match="unital"):
        charge_blocks(factors, 1.001 * ring_weights)


# --- the ring core against the dense core -------------------------------------------

@st.composite
def fock_grids(draw):
    """A Fock space of 8..48 levels on a disk grid, aliased or alias-free.

    n_angular lies in 1..3·dim; the grid is alias-free from 2·dim − 1 nodes on.
    """
    dim = draw(st.integers(8, 48))
    space = fock.FockSpace(dim)
    radius = draw(st.floats(0.05, 1.0)) * np.sqrt(dim) / 2
    n_angular = draw(st.one_of(st.integers(1, 2 * dim - 2), st.integers(2 * dim - 1, 3 * dim)))
    quad = fock.plane_quadrature(space, radius, draw(st.integers(2, 12)), n_angular)
    factors, weights = fock.ring_factors(space, quad)
    return fock.coherent_state_matrix(space, quad), quad.weights, factors, weights


@st.composite
def spin_ring_grids(draw):
    """The spin grids above as dense states and ring factors with node weights."""
    space, grid = draw(spin_grids())
    factors, _ = ring_factors(space, grid)
    return (spin.coherent_state_matrix(space, grid), grid.weights, factors,
            grid.weights.reshape(len(factors), -1))


def random_operator(seed, dim):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def assert_close(actual, expected):
    assert np.abs(actual - expected).max() <= 1e-12 * max(1.0, np.abs(expected).max())


def check_ring_core_against_dense_core(case, seed):
    states, node_weights, factors, weights = case
    operator = random_operator(seed, states.shape[1])
    symbols = q_symbols(states, operator)
    assert_close(ring_q_symbols(factors, weights.shape[1], operator).ravel(), symbols)
    assert_close(ring_resolution(factors, weights), resolution(states, node_weights))
    values = weights * symbols.reshape(weights.shape)
    assert_close(ring_resolution(factors, values), resolution(states, values.ravel()))
    assert_close(ring_luders_image(factors, weights, operator),
                 luders_image(states, node_weights, operator))


@DETERMINISTIC
@given(fock_grids(), st.integers(0, 2**32 - 1))
def test_ring_core_is_the_dense_core_on_fock_grids(case, seed):
    check_ring_core_against_dense_core(case, seed)


@DETERMINISTIC
@given(spin_ring_grids(), st.integers(0, 2**32 - 1))
def test_ring_core_is_the_dense_core_on_spin_grids(case, seed):
    check_ring_core_against_dense_core(case, seed)


@DETERMINISTIC
@given(spin_grids(), st.integers(0, 2**32 - 1))
def test_ring_image_is_the_charge_block_image_on_alias_free_grids(case, seed):
    space, grid = case
    factors, ring_weights = ring_factors(space, grid)
    operator = random_operator(seed, space.dim)
    image = charge_block_image(charge_blocks(factors, ring_weights), operator)
    assert_close(ring_luders_image(factors, grid.weights.reshape(len(factors), -1), operator),
                 image)


# --- the one split and the ring-by-ring harmonic transform ----------------------------

@DETERMINISTIC
@given(spin_grids(), st.integers(0, 2**32 - 1))
def test_ring_harmonic_coefficients_are_the_per_node_sum(case, seed):
    space, grid = case
    samples = spin.q_symbol_spin(space, random_operator(seed, space.dim), grid)
    coeffs = spin.harmonic_coefficients(samples, grid, space)
    scale = np.sqrt(4 * np.pi / space.dim)
    direct = {(l, m): scale * np.sum(grid.weights * samples
                                     * spin.sph_harm_values(l, m, grid.thetas, grid.phis).conj())
              for l in range(space.two_s + 1) for m in range(-l, l + 1)}
    assert set(coeffs.coeffs) == set(direct)
    largest = max(abs(value) for value in direct.values())
    assert max(abs(coeffs[key] - value) for key, value in direct.items()) <= 1e-12 * max(1.0, largest)


@DETERMINISTIC
@given(spin_grids(), st.integers(0, 2**32 - 1))
def test_stacked_harmonic_coefficients_are_the_single_symbol_ones(case, seed):
    space, grid = case
    stack = np.array([spin.q_symbol_spin(space, random_operator(seed + i, space.dim), grid)
                      for i in range(3)])
    stacked = spin.harmonic_coefficients(stack, grid, space)
    singles = [spin.harmonic_coefficients(samples, grid, space) for samples in stack]
    assert set(stacked.coeffs) == set(singles[0].coeffs)
    for key, values in stacked.coeffs.items():
        expected = np.array([single[key] for single in singles])
        assert values.shape == (3,)
        assert np.abs(values - expected).max() <= 1e-12 * max(1.0, np.abs(expected).max())
    column = spin.harmonic_coefficients(stack[:, None, :], grid, space)
    assert column[(0, 0)].shape == (3, 1)
    with pytest.raises(ValueError):  # ring-shaped, not one flat symbol
        spin.harmonic_coefficients(stack[0].reshape(grid.rings[2].shape), grid, space)


# --- the closed-form disk reference ------------------------------------------------

def dense_disk_monomial(space, m, n, radius):
    """Oracle: a^n a†^m by dense matrix powers, column k scaled by P(m + k + 1, R²)."""
    exact = np.linalg.matrix_power(space.a, n) @ np.linalg.matrix_power(space.adag, m)
    return exact * gammainc(m + np.arange(space.dim) + 1, radius**2)


@st.composite
def disk_monomials(draw):
    """dim 2..48, a radius up to sqrt(dim), and exponents m, n in 0..dim + 1."""
    dim = draw(st.integers(2, 48))
    radius = draw(st.floats(0.01, 1.0)) * np.sqrt(dim)
    return fock.FockSpace(dim), draw(st.integers(0, dim + 1)), draw(st.integers(0, dim + 1)), radius


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(disk_monomials())
def test_closed_form_disk_image_is_the_dense_product(case):
    space, m, n, radius = case
    closed = fock.disk_monomial_image(space, m, n, radius)
    expected = dense_disk_monomial(space, m, n, radius)
    assert closed.shape == expected.shape
    assert np.all(np.abs(closed - expected) <= 1e-13 * np.abs(expected) + np.finfo(float).tiny)


@st.composite
def split_cases(draw):
    """Flat polar nodes of a spin or disk grid (at least 2 phi nodes), their rings and W."""
    if draw(st.booleans()):
        space, grid = draw(spin_grids())
        n_theta = len(np.unique(grid.thetas))
        thetas = np.arccos(np.polynomial.legendre.leggauss(n_theta)[0])
        return grid.thetas * np.exp(1j * grid.phis), grid.weights, thetas, n_theta
    dim = draw(st.integers(8, 48))
    space = fock.FockSpace(dim)
    radius = draw(st.floats(0.05, 1.0)) * np.sqrt(dim) / 2
    n_radial = draw(st.integers(2, 12))
    quad = fock.plane_quadrature(space, radius, n_radial, draw(st.integers(2, 3 * dim)))
    u = 0.5 * (np.polynomial.legendre.leggauss(n_radial)[0] + 1.0) * radius**2
    return quad.alphas, quad.weights, np.sqrt(u), n_radial


@DETERMINISTIC
@given(split_cases(), st.integers(0, 2**32 - 1))
def test_split_rings_recovers_the_rings_and_rejects_permuted_grids(case, seed):
    points, weights, radii, n_rings = case
    found, ring_weights = split_rings(points, weights)
    assert np.abs(found - radii).max() <= 1e-12 * max(1.0, radii.max())
    assert ring_weights.shape == (n_rings, len(points) // n_rings)
    assert np.array_equal(ring_weights.ravel(), weights)
    # swap two neighbours on one ring: a permutation no rings layout allows
    rng = np.random.default_rng(seed)
    n_phi = ring_weights.shape[1]
    first = rng.integers(n_rings) * n_phi + rng.integers(n_phi - 1)
    order = np.arange(len(points))
    order[[first, first + 1]] = order[[first + 1, first]]
    with pytest.raises(ValueError, match="rings"):
        split_rings(points[order], weights[order])
