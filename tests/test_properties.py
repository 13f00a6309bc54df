"""Property tests of the spin charge blocks over random spins and grid sizings."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from luderskit.channel import charge_block_image, charge_block_spectrum, charge_blocks
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
