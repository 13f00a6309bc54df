"""Property tests: grid split, charge blocks, ring core, operator stacks, exact ordering engine."""

from fractions import Fraction
from math import comb, factorial

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import expm
from scipy.special import gammainc, gammaln, sph_harm_y

from luderskit import channel, cli, fock, ordering, spin
from luderskit.channel import (
    charge_block_spectrum,
    charge_blocks,
    luders_image,
    q_symbols,
    resolution,
    ring_charge_sums,
    ring_diagonal_image,
    ring_luders_image,
    ring_luders_sums,
    ring_q_symbols,
    ring_resolution,
    split_rings,
)
from luderskit.expr import (
    MAX_DEGREE,
    Add,
    ComplexRational,
    I_UNIT,
    Literal,
    Mul,
    Neg,
    OPERATOR_SYMBOLS,
    ParseError,
    Pow,
    Sub,
    Symbol,
    parse_expression,
    to_source,
)
from luderskit.ordering import (
    NormalPolynomial,
    anti_normal_order,
    is_well_ordered,
    luders_symbolic,
    normal_order,
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


@pytest.mark.parametrize("two_s", [1, 4, 12])
def test_blocks_reject_weights_that_do_not_resolve_identity(two_s):
    space = SpinSpace(two_s)
    factors, ring_weights = ring_factors(space, sphere_quadrature(space))
    with pytest.raises(ValueError, match="unital"):
        charge_blocks(factors, 1.001 * ring_weights)


@pytest.mark.parametrize("oversized", [False, True])
def test_blocks_are_the_per_charge_gram_products_up_to_the_cap(oversized):
    # the blocks come from one Gram product of F² and the κ table; here each
    # is written out as G_qᵀ diag(w) G_q with G_q[r, j] = F[r, j] F[r, j − q]
    for two_s in range(13, spin.MAX_TWO_S + 1):
        space = SpinSpace(two_s)
        grid = (sphere_quadrature(space, two_s + 3, 2 * two_s + 5) if oversized
                else sphere_quadrature(space))
        factors, weights = ring_factors(space, grid)
        blocks, dim = charge_blocks(factors, weights), space.dim
        assert set(blocks) == set(range(1 - dim, dim))
        for q in range(dim):
            products = factors.rows[:, q:] * factors.rows[:, :dim - q]
            assert_close(blocks[q], (products.T * weights.sum(axis=1)) @ products)
            assert blocks[-q] is blocks[q]


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
    povm = ring_resolution(factors, weights)
    assert_close(povm, resolution(states, node_weights))
    # W is constant along each ring, so only the charges ≡ 0 (mod n_φ) are formed
    charge = np.subtract.outer(np.arange(len(povm)), np.arange(len(povm)))
    assert not povm[charge % weights.shape[1] != 0].any()
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


def one_charge_operator(seed, dim):
    """(B, q): random entries on b_q, on b_−q or on both, for a random charge q, and 0 elsewhere."""
    rng = np.random.default_rng(seed)
    charge, sides = int(rng.integers(dim)), int(rng.integers(1, 4))
    operator = np.zeros((dim, dim), dtype=complex)
    j = np.arange(charge, dim)
    for side, (rows, cols) in enumerate(((j, j - charge), (j - charge, j))):
        if sides >> side & 1:
            operator[rows, cols] = rng.normal(size=j.size) + 1j * rng.normal(size=j.size)
    return operator, charge


def check_one_charge_image(case, seed):
    """Λ(B) of a charge-q operator is exactly 0 off the charges ≡ ±q (mod n_φ), and the dense image."""
    states, node_weights, factors, weights = case
    dim, n_angular = factors.shape[1], weights.shape[1]
    operator, charge = one_charge_operator(seed, dim)
    image = ring_luders_image(factors, weights, operator)
    offsets = np.abs(np.subtract.outer(np.arange(dim), np.arange(dim))) % n_angular
    aliases = (offsets == charge % n_angular) | (offsets == -charge % n_angular)
    assert np.all(image[~aliases] == 0)
    assert_close(image, luders_image(states, node_weights, operator))
    # weights that vary along a ring mix the charges: the image is formed on all of them
    varied = weights * np.random.default_rng(seed).uniform(0.5, 1.5, size=weights.shape)
    assert_close(ring_luders_image(factors, varied, operator),
                 luders_image(states, varied.ravel(), operator))


@DETERMINISTIC
@given(fock_grids(), st.integers(0, 2**32 - 1))
def test_one_charge_image_lives_on_the_aliases_on_fock_grids(case, seed):
    check_one_charge_image(case, seed)


@DETERMINISTIC
@given(spin_ring_grids(), st.integers(0, 2**32 - 1))
def test_one_charge_image_lives_on_the_aliases_on_spin_grids(case, seed):
    check_one_charge_image(case, seed)



def check_image_on_its_alias_class(factors, weights, seed):
    """Λ(B) of an operator on one signed charge q is exactly 0 on every charge q′ ≢ q (mod n_φ),
    the mirror −q included when 2q ≢ 0, as a matrix and through the diagonal kernel."""
    dim, n_angular = factors.shape[1], weights.shape[1]
    rng = np.random.default_rng(seed)
    charge = int(rng.integers(1 - dim, dim))
    diagonal = np.zeros(dim, dtype=complex)
    diagonal[:dim - abs(charge)] = rng.normal(size=dim - abs(charge)) + 1j
    image = ring_luders_image(factors, weights, np.diag(diagonal[:dim - abs(charge)], -charge))
    signed = np.subtract.outer(np.arange(dim), np.arange(dim))
    assert np.all(image[(signed - charge) % n_angular != 0] == 0)
    images, image_charges = ring_diagonal_image(factors, weights, diagonal[None, :, None], [charge])
    assert list(image_charges) == [q for q in range(1 - dim, dim) if (q - charge) % n_angular == 0]
    if 2 * charge % n_angular:
        assert -charge not in image_charges


@DETERMINISTIC
@given(fock_grids(), st.integers(0, 2**32 - 1))
def test_one_signed_charge_image_lives_on_its_alias_class_on_fock_grids(case, seed):
    _, _, factors, weights = case
    check_image_on_its_alias_class(factors, weights, seed)


@DETERMINISTIC
@given(spin_ring_grids(), st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_one_signed_charge_image_lives_on_its_alias_class_on_spin_grids(case, n_angular, seed):
    # the spin rings under any uniform angle grid, aliased below 2·two_s + 1 nodes
    _, _, factors, weights = case
    uniform = np.repeat(weights.sum(axis=1, keepdims=True) / n_angular, n_angular, axis=1)
    check_image_on_its_alias_class(factors, uniform, seed)


@DETERMINISTIC
@given(spin_ring_grids())
def test_every_charge_block_is_the_ring_image_of_its_unit_diagonals(case):
    """On an alias-free grid the ring image of e_k on the signed charge q lives on q alone, and
    its diagonal there is column k of M_q: the spectrum's blocks are the kernel's action."""
    _, _, factors, weights = case
    dim = factors.shape[1]
    blocks = charge_blocks(factors, weights)
    for charge in range(1 - dim, dim):
        size = dim - abs(charge)
        units = np.zeros((size, dim, 1))
        units[np.arange(size), np.arange(size), 0] = 1  # one e_k per operator of the stack
        images, image_charges = ring_diagonal_image(factors, weights, units, [charge])
        assert list(image_charges) == [charge]
        assert_close(images[:, :size, 0].T, blocks[charge])
        assert np.all(images[:, size:, 0] == 0)



def block_image(blocks, operator):
    """Λ(B) from the charge blocks alone: M_q times each offset diagonal b_q = (B[j, j−q])_j."""
    dim = len(blocks[0])
    image = np.zeros_like(operator, dtype=complex)
    for charge in range(1 - dim, dim):
        i = np.arange(dim - abs(charge))
        rows, cols = i + max(charge, 0), i + max(-charge, 0)
        image[rows, cols] = blocks[charge] @ operator[rows, cols]
    return image


@DETERMINISTIC
@given(spin_ring_grids(), st.integers(0, 2**32 - 1))
def test_one_charge_block_image_lives_on_its_charge(case, seed):
    """The block image of a charge-q operator is exactly 0 off ±q and the dense image."""
    states, node_weights, factors, weights = case
    dim = factors.shape[1]
    operator, charge = one_charge_operator(seed, dim)
    image = block_image(charge_blocks(factors, weights), operator)
    offsets = np.abs(np.subtract.outer(np.arange(dim), np.arange(dim)))
    assert np.all(image[offsets != charge] == 0)
    assert_close(image, luders_image(states, node_weights, operator))

def charge_sparse_stack(seed, dim):
    """A (2, 3) stack in which each operator keeps a random subset of its signed charges."""
    rng = np.random.default_rng(seed)
    stack = random_stack(seed, dim)
    signed = np.subtract.outer(np.arange(dim), np.arange(dim)) + dim - 1
    for index in np.ndindex(stack.shape[:2]):
        stack[index] *= (rng.random(2 * dim - 1) < rng.random())[signed]
    return stack


def check_charge_sparse_symbols(case, seed):
    states, _, factors, weights = case
    stack = charge_sparse_stack(seed, factors.shape[1])
    symbols = ring_q_symbols(factors, weights.shape[1], stack)
    assert_close(symbols.reshape(stack.shape[:2] + (-1,)), q_symbols(states, stack))


@DETERMINISTIC
@given(fock_grids(), st.integers(0, 2**32 - 1))
def test_charge_sparse_symbols_are_the_dense_ones_on_fock_grids(case, seed):
    check_charge_sparse_symbols(case, seed)


@DETERMINISTIC
@given(spin_ring_grids(), st.integers(0, 2**32 - 1))
def test_charge_sparse_symbols_are_the_dense_ones_on_spin_grids(case, seed):
    check_charge_sparse_symbols(case, seed)


def check_charge_sums(case, seed):
    """c[…, r, q + D − 1] = Σ_j F[r, j] F[r, j−q] B[j, j−q] on a stack that leaves some charges empty."""
    _, _, factors, _ = case
    dim = factors.shape[1]
    signed = np.subtract.outer(np.arange(dim), np.arange(dim))
    kept = np.random.default_rng(seed).random(2 * dim - 1) < 0.5
    stack = random_stack(seed, dim) * kept[signed + dim - 1]
    products = np.einsum("rj,rk->rjk", factors, factors)
    expected = np.stack([stack.diagonal(-q, -2, -1) @ products.diagonal(-q, 1, 2).T
                         for q in range(1 - dim, dim)], axis=-1)
    sums = ring_charge_sums(factors, stack)
    assert sums.shape == (2, 3, len(factors), 2 * dim - 1)
    assert_close(sums, expected)
    assert np.all(sums[..., ~kept] == 0)  # exactly 0 off the live charges
    assert_close(ring_charge_sums(factors, stack[1, 2]), expected[1, 2])


@DETERMINISTIC
@given(fock_grids(), st.integers(0, 2**32 - 1))
def test_charge_sums_are_the_offset_diagonal_sums_on_fock_grids(case, seed):
    check_charge_sums(case, seed)


@DETERMINISTIC
@given(spin_ring_grids(), st.integers(0, 2**32 - 1))
def test_charge_sums_are_the_offset_diagonal_sums_on_spin_grids(case, seed):
    check_charge_sums(case, seed)


def check_luders_sums(case, seed):
    """c_B is `ring_charge_sums` of B bit for bit, and c_Λ(B) that of the matrix image, on a
    dense and a charge-sparse stack."""
    _, _, factors, weights = case
    dim = factors.shape[1]
    for stack in (random_stack(seed, dim), charge_sparse_stack(seed, dim)):
        source, image = ring_luders_sums(factors, weights, stack)
        assert source.shape == image.shape == (2, 3, len(factors), 2 * dim - 1)
        assert np.array_equal(source, ring_charge_sums(factors, stack))
        assert_close(image, ring_charge_sums(factors, ring_luders_image(factors, weights, stack)))


@DETERMINISTIC
@given(fock_grids(), st.integers(0, 2**32 - 1))
def test_luders_sums_are_the_charge_sums_of_b_and_its_image_on_fock_grids(case, seed):
    check_luders_sums(case, seed)


@DETERMINISTIC
@given(spin_ring_grids(), st.integers(0, 2**32 - 1))
def test_luders_sums_are_the_charge_sums_of_b_and_its_image_on_spin_grids(case, seed):
    check_luders_sums(case, seed)


def check_stacked_luders_sums(case, seed):
    _, _, factors, weights = case
    stack = random_stack(seed, factors.shape[1])
    stacked = ring_luders_sums(factors, weights, stack)
    for index in np.ndindex(stack.shape[:2]):
        for half, single in zip(stacked, ring_luders_sums(factors, weights, stack[index])):
            assert np.array_equal(half[index], single)


@DETERMINISTIC
@given(fock_grids(), st.integers(0, 2**32 - 1))
def test_stacked_luders_sums_are_the_single_ones_on_fock_grids(case, seed):
    check_stacked_luders_sums(case, seed)


@DETERMINISTIC
@given(spin_ring_grids(), st.integers(0, 2**32 - 1))
def test_stacked_luders_sums_are_the_single_ones_on_spin_grids(case, seed):
    check_stacked_luders_sums(case, seed)


def check_hermitian_luders_sums(case, seed):
    """B = B† gives c[r, −q] = conj c[r, q] for B and for Λ(B), which is Hermitian too."""
    _, _, factors, weights = case
    stack = random_stack(seed, factors.shape[1])
    stack += stack.conj().swapaxes(-1, -2)
    for sums in ring_luders_sums(factors, weights, stack):
        assert_close(sums[..., ::-1], sums.conj())


@DETERMINISTIC
@given(fock_grids(), st.integers(0, 2**32 - 1))
def test_hermitian_luders_sums_are_conjugate_symmetric_on_fock_grids(case, seed):
    check_hermitian_luders_sums(case, seed)


@DETERMINISTIC
@given(spin_ring_grids(), st.integers(0, 2**32 - 1))
def test_hermitian_luders_sums_are_conjugate_symmetric_on_spin_grids(case, seed):
    check_hermitian_luders_sums(case, seed)


@pytest.mark.parametrize("family, size, radius", [("fock", 200, 7.07), ("fock", 200, 0.05),
                                                  ("fock", 8, 0.05), ("spin", 50, None)])
def test_charge_sums_are_finite_and_exact_at_the_extreme_sizings(family, size, radius):
    # the largest t^q the CLI reaches (fock 200 at √dim/2, spin two_s 50) and the
    # smallest radius, where F² and t^q underflow on the high levels
    if family == "fock":
        space = fock.FockSpace(size)
        factors, _ = fock.ring_factors(space, fock.plane_quadrature(space, radius))
    else:
        space = SpinSpace(size)
        factors, _ = ring_factors(space, sphere_quadrature(space))
    check_charge_sums((None, None, factors, None), size)
    assert np.all(np.isfinite(ring_charge_sums(factors, random_stack(size, space.dim))))


def test_ring_core_maps_the_zero_operator_to_zero():
    space = fock.FockSpace(12)
    factors, weights = fock.ring_factors(space, fock.plane_quadrature(space, 1.5, 6, 10))
    zero = np.zeros((12, 12))
    assert np.array_equal(ring_q_symbols(factors, 10, zero), np.zeros((6, 10)))
    assert np.array_equal(ring_luders_image(factors, weights, zero), zero)


@DETERMINISTIC
@given(spin_grids(), st.integers(0, 2**32 - 1))
def test_ring_image_is_the_charge_block_image_on_alias_free_grids(case, seed):
    space, grid = case
    factors, ring_weights = ring_factors(space, grid)
    operator = random_operator(seed, space.dim)
    assert_close(ring_luders_image(factors, grid.weights.reshape(len(factors), -1), operator),
                 block_image(charge_blocks(factors, ring_weights), operator))

# --- the ring core on offset diagonals -----------------------------------------------

@st.composite
def diagonal_kernel_cases(draw):
    """(factors, W, diagonals, charges, operators): dim 8..200 on an aliased or alias-free disk
    grid, W uniform or varying along each ring, and a ladder word or a small stack on shared
    signed charges, as offset diagonals in `_diagonal_index`'s layout and as matrices."""
    dim = draw(st.integers(8, 200))
    space = fock.FockSpace(dim)
    radius = draw(st.floats(0.05, 1.0)) * np.sqrt(dim) / 2
    n_angular = draw(st.one_of(st.sampled_from([3, 5, 7, 64]),
                               st.integers(2 * dim - 1, 2 * dim + 8)))
    quad = fock.plane_quadrature(space, radius, draw(st.integers(2, 12)), n_angular)
    factors, weights = fock.ring_factors(space, quad)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):  # every charge is formed
        weights = weights * rng.uniform(0.5, 1.5, size=weights.shape)
    if draw(st.booleans()):
        m, n = draw(st.integers(0, 4)), draw(st.integers(0, 4))
        diagonals = space.ladder_diagonal(m, n)[None, :, None]
        return factors, weights, diagonals, [m - n], space.ladder_word(m, n)[None]
    charges = sorted(draw(st.sets(st.integers(1 - dim, dim - 1), min_size=1, max_size=4)))
    shape = (draw(st.integers(1, 3)), dim, len(charges))
    diagonals = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    operators = np.zeros((shape[0], dim, dim), dtype=complex)
    for k, q in enumerate(charges):  # the entries past each diagonal's end stay unread
        i = np.arange(dim - abs(q))
        operators[:, i + max(q, 0), i + max(-q, 0)] = diagonals[:, i, k]
    return factors, weights, diagonals, charges, operators


@DETERMINISTIC
@given(diagonal_kernel_cases())
def test_diagonal_image_is_the_matrix_image_exactly(case):
    factors, weights, diagonals, charges, operators = case
    dim = factors.shape[1]
    images, image_charges = ring_diagonal_image(factors, weights, diagonals, charges)
    assert images.shape == diagonals.shape[:-1] + (len(image_charges),)
    signed = np.subtract.outer(np.arange(dim), np.arange(dim))
    for image, operator in zip(images, operators):
        matrix = ring_luders_image(factors, weights, operator)
        assert np.all(matrix[~np.isin(signed, image_charges)] == 0)
        for k, q in enumerate(image_charges):
            assert np.array_equal(image[:dim - abs(q), k], np.diagonal(matrix, -q))
            assert np.all(image[dim - abs(q):, k] == 0)


# --- operator stacks, and the ring image's invariants ---------------------------------

def random_stack(seed, dim):
    """A (2, 3, dim, dim) stack of random complex operators."""
    rng = np.random.default_rng(seed)
    return rng.normal(size=(2, 3, dim, dim)) + 1j * rng.normal(size=(2, 3, dim, dim))


def check_stacked_symbols_are_the_single_ones(case, seed):
    states, _, factors, weights = case
    stack = random_stack(seed, factors.shape[1])
    symbols = ring_q_symbols(factors, weights.shape[1], stack)
    dense = q_symbols(states, stack)
    assert symbols.shape == stack.shape[:2] + weights.shape
    for index in np.ndindex(stack.shape[:2]):
        single = ring_q_symbols(factors, weights.shape[1], stack[index])
        assert np.array_equal(symbols[index], single)
        assert np.array_equal(dense[index], q_symbols(states, stack[index]))


@DETERMINISTIC
@given(fock_grids(), st.integers(0, 2**32 - 1))
def test_stacked_ring_symbols_are_the_single_ones_on_fock_grids(case, seed):
    check_stacked_symbols_are_the_single_ones(case, seed)


@DETERMINISTIC
@given(spin_ring_grids(), st.integers(0, 2**32 - 1))
def test_stacked_ring_symbols_are_the_single_ones_on_spin_grids(case, seed):
    check_stacked_symbols_are_the_single_ones(case, seed)


def check_stacked_images_are_the_single_ones(case, seed):
    states, node_weights, factors, weights = case
    stack = random_stack(seed, factors.shape[1])
    images = ring_luders_image(factors, weights, stack)
    assert images.shape == stack.shape
    for index in np.ndindex(stack.shape[:2]):
        assert np.array_equal(images[index], ring_luders_image(factors, weights, stack[index]))
        assert_close(images[index], luders_image(states, node_weights, stack[index]))


@DETERMINISTIC
@given(fock_grids(), st.integers(0, 2**32 - 1))
def test_stacked_ring_images_are_the_single_ones_on_fock_grids(case, seed):
    check_stacked_images_are_the_single_ones(case, seed)


@DETERMINISTIC
@given(spin_ring_grids(), st.integers(0, 2**32 - 1))
def test_stacked_ring_images_are_the_single_ones_on_spin_grids(case, seed):
    check_stacked_images_are_the_single_ones(case, seed)


@st.composite
def ring_uniform_cases(draw):
    """(factors, W, operators): a disk grid of dim 2..200 under 1..70 phi nodes, aliased or
    not, with W constant along each ring, and a dense operator, an operator on a sparse set
    of signed charges (spanning more than n_φ when the ends are drawn) or a stack of two."""
    dim = draw(st.integers(2, 200))
    space = fock.FockSpace(dim)
    radius = draw(st.floats(0.05, 1.0)) * np.sqrt(dim) / 2
    quad = fock.plane_quadrature(space, radius, draw(st.integers(1, 12)), draw(st.integers(1, 70)))
    factors, weights = fock.ring_factors(space, quad)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    signed = np.subtract.outer(np.arange(dim), np.arange(dim))
    masks = []
    for _ in range(draw(st.integers(1, 2))):
        if draw(st.booleans()):  # dense
            masks.append(np.ones((dim, dim), dtype=bool))
            continue
        charges = draw(st.sets(st.integers(1 - dim, dim - 1), min_size=1, max_size=5))
        if draw(st.booleans()):
            charges |= {1 - dim, dim - 1}
        masks.append(np.isin(signed, sorted(charges)))
    masks = np.array(masks)
    operators = np.where(masks, rng.normal(size=masks.shape) + 1j * rng.normal(size=masks.shape), 0)
    return factors, weights, operators if len(operators) > 1 else operators[0]


@DETERMINISTIC
@given(ring_uniform_cases())
def test_alias_fold_is_the_node_route(case):
    # V̂[r, q′] = n_φ W[r, 0] Σ_{q ≡ q′ (mod n_φ)} c[r, q] against Σ_l W[r, l] Q[r, l] e^{iq′φ_l}
    factors, weights, operators = case
    dim = factors.shape[1]
    sums, charges = channel._live_sums(factors, operators)
    folded, image_charges = channel._folded_hats(factors, weights, sums, charges)
    nodes, every_charge = channel._node_hats(factors, weights, sums, charges)
    assert list(every_charge) == list(range(1 - dim, dim))
    assert folded.shape == sums.shape[:-1] + (len(image_charges),)
    full = np.zeros_like(nodes)
    full[..., image_charges + dim - 1] = folded
    assert np.abs(full - nodes).max() <= 1e-13 * np.abs(nodes).max()


@pytest.mark.parametrize("dim, radius, n_angular", [
    (16, 1.8, 64), (40, 3.0, 64), (160, 6.3, 64), (200, 7.07, 64), (33, 2.85, 64), (40, 3.0, 81)])
def test_luders_symbols_are_the_symbols_of_the_image_bit_for_bit(dim, radius, n_angular):
    space = fock.FockSpace(dim)
    factors, weights = fock.ring_factors(
        space, fock.plane_quadrature(space, radius, fock.DEFAULT_N_RADIAL, n_angular))
    state = fock.fock_coherent_state(space, 1.0)
    for operator in (np.outer(state, state.conj()), random_operator(dim, dim),
                     space.ladder_word(2, 1)):
        source, image = channel.ring_luders_symbols(factors, weights, operator)
        assert np.array_equal(source, ring_q_symbols(factors, n_angular, operator))
        assert np.array_equal(
            image, ring_q_symbols(factors, n_angular, ring_luders_image(factors, weights, operator)))
    with pytest.raises(ValueError, match="must have shape"):
        channel.ring_luders_symbols(factors, weights[:1], operator)


def check_ring_image_invariants(case, seed):
    """HS self-adjointness, Hermiticity and covariance under the grid's rotation."""
    _, _, factors, weights = case
    dim, n_angular = factors.shape[1], weights.shape[1]
    lhs, rhs = random_operator(seed, dim), random_operator(seed + 1, dim)
    image = ring_luders_image(factors, weights, rhs)
    scale = np.linalg.norm(lhs) * np.linalg.norm(rhs)
    assert abs(np.vdot(lhs, image) - np.vdot(ring_luders_image(factors, weights, lhs), rhs)) \
        <= 1e-12 * scale
    hermitian = ring_luders_image(factors, weights, rhs + rhs.conj().T)
    assert_close(hermitian, hermitian.conj().T)
    # U = diag(e^{2πik/n_φ}) moves each ring state one grid angle on: U ψ_rl = ψ_r,l+1
    phases = np.exp(2j * np.pi * np.arange(dim) / n_angular)
    rotation = np.outer(phases, phases.conj())
    assert_close(ring_luders_image(factors, weights, rotation * rhs), rotation * image)


@DETERMINISTIC
@given(fock_grids(), st.integers(0, 2**32 - 1))
def test_ring_image_invariants_on_fock_grids(case, seed):
    check_ring_image_invariants(case, seed)


@DETERMINISTIC
@given(spin_ring_grids(), st.integers(0, 2**32 - 1))
def test_ring_image_invariants_on_spin_grids(case, seed):
    check_ring_image_invariants(case, seed)


@DETERMINISTIC
@given(spin_ring_grids())
def test_ring_and_block_images_are_unital(case):
    _, _, factors, weights = case
    identity = np.eye(factors.shape[1])
    assert_close(ring_luders_image(factors, weights, identity), identity)


@DETERMINISTIC
@given(spin_ring_grids(), st.integers(0, 2**32 - 1))
def test_ring_and_block_images_preserve_the_trace(case, seed):
    _, _, factors, weights = case
    dim = factors.shape[1]
    for operators in (random_operator(seed, dim), random_stack(seed, dim)):
        assert_close(np.trace(ring_luders_image(factors, weights, operators), axis1=-2, axis2=-1),
                     np.trace(operators, axis1=-2, axis2=-1))


@DETERMINISTIC
@given(spin_grids())
def test_choi_matrix_of_the_dense_channel_is_positive_semidefinite(case):
    space, grid = case
    choi = channel.choi_matrix(channel.build_luders_channel(spin.projector_family(space, grid)))
    eigenvalues = np.linalg.eigvalsh(choi)
    assert eigenvalues.min() >= -1e-12 * eigenvalues.max()
    assert abs(np.trace(choi) - space.dim) <= 1e-12 * space.dim


@DETERMINISTIC
@given(spin_ring_grids(), st.integers(0, 2**32 - 1), st.integers(1, 8))
def test_repeated_images_approach_the_trace_at_rate_tau_1(case, seed, steps):
    # Λ is HS self-adjoint with Λ(I) = I and spectrum {τ_l}, so on B − (tr B / D)·I,
    # which is HS-orthogonal to I, Λ^k shrinks the HS norm by at most τ_1^k; J_z,
    # in the l = 1 sector, shrinks by exactly τ_1^k
    _, _, factors, weights = case
    dim = factors.shape[1]
    space = SpinSpace(dim - 1)
    rate = spin.tau_spin(space, 1) ** steps
    operator = random_operator(seed, dim)
    limit = np.trace(operator) / dim * np.eye(dim)
    image, jz = operator, space.jz
    for _ in range(steps):
        image = ring_luders_image(factors, weights, image)
        jz = ring_luders_image(factors, weights, jz)
    assert np.linalg.norm(image - limit) <= rate * np.linalg.norm(operator - limit) \
        + 1e-12 * np.linalg.norm(operator)
    assert_close(jz, rate * space.jz)


def counted(monkeypatch, name, *modules):
    """Replace `name` in each module with one wrapper that records each call; return the record."""
    calls = []
    original = getattr(modules[0], name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)
    for module in modules:
        monkeypatch.setattr(module, name, wrapper)
    return calls


def test_spin_command_maps_its_operators_as_stacks(monkeypatch):
    sums = counted(monkeypatch, "ring_luders_sums", channel, cli)
    single = counted(monkeypatch, "ring_charge_sums", channel)
    images = counted(monkeypatch, "_on_diagonals", channel)
    assert cli.run(["spin", "--two-s", "3"]) == 0
    assert len(sums) == 1
    assert sums[0][2].shape == (20, 4, 4)
    assert single == images == []  # no second gather and no D × D image


def test_damping_check_transforms_both_symbols_in_one_call(monkeypatch):
    calls = counted(monkeypatch, "xi_coefficients", fock)
    space = fock.FockSpace(16)
    quad = fock.plane_quadrature(space, 1.8)
    state = fock.fock_coherent_state(space, 1.0)
    report = fock.verify_damping(space, np.outer(state, state.conj()), quad)
    assert len(calls) == 1
    for symbols, coeffs in ((report.source_symbols, report.source_coeffs),
                            (report.image_symbols, report.image_coeffs)):
        assert_close(coeffs, fock.xi_coefficients(symbols, quad, report.xi_points).coeffs)


def node_sum_xi_coefficients(samples, quad, xi_points):
    """B_ξ = Σ_k w_k Q(α_k) e^{ᾱ_kξ − α_kξ̄}, node by node: the oracle of the ring route."""
    kernel = np.exp(np.outer(quad.alphas.conj(), xi_points)
                    - np.outer(quad.alphas, xi_points.conj()))
    return (quad.weights * samples) @ kernel


@st.composite
def xi_grids(draw):
    """(dim, radius, n_radial, n_angular): a disk grid of 1..70 phi nodes, aliased or not,
    at a radius from 1e-170 to √dim/2, log-uniform."""
    dim = draw(st.integers(8, 48))
    top = np.log10(np.sqrt(dim) / 2)
    radius = min(10.0 ** draw(st.floats(-170.0, top)), np.sqrt(dim) / 2)
    return dim, radius, draw(st.integers(1, 40)), draw(st.integers(1, 70))


@DETERMINISTIC
@given(xi_grids(), st.integers(1, 3), st.integers(0, 2**32 - 1))
@example((16, 1.8, 40, 64), 2, 0)
@example((40, 1.9, 40, 64), 2, 1)
@example((160, 6.3, 40, 64), 2, 2)
@example((200, 7.07, 40, 64), 2, 3)
@example((16, 1e-4, 40, 64), 2, 4)
@example((8, 1.0, 40, 64), 2, 5)
@example((8, 1e-170, 40, 64), 2, 6)
@example((8, 1e-11, 40, 64), 1, 7)
@example((8, 1e-13, 40, 64), 1, 8)
def test_xi_coefficients_are_the_node_sum(grid, n_symbols, seed):
    dim, radius, n_radial, n_angular = grid
    quad = fock.plane_quadrature(fock.FockSpace(dim), radius, n_radial, n_angular)
    rng = np.random.default_rng(seed)
    samples = rng.normal(size=(n_symbols, len(quad))) + 1j * rng.normal(size=(n_symbols, len(quad)))
    n_xi = rng.integers(2, 9)
    xi = rng.uniform(0, 4, n_xi) * np.exp(2j * np.pi * rng.uniform(size=n_xi))
    xi[:2] = 0, 4 * np.exp(2j * np.pi * rng.uniform())
    coeffs = fock.xi_coefficients(samples, quad, xi).coeffs
    expected = node_sum_xi_coefficients(samples, quad, xi)
    assert coeffs.shape == expected.shape
    assert np.abs(coeffs - expected).max() <= 1e-13 * np.abs(expected).max()
    assert_close(fock.xi_coefficients(samples[0], quad, xi).coeffs, coeffs[0])


# --- the one split and the ring-by-ring harmonic transform ----------------------------

@DETERMINISTIC
@given(spin_grids(), st.integers(0, 2**32 - 1))
def test_ring_harmonic_coefficients_are_the_per_node_sum(case, seed):
    space, grid = case
    samples = spin.q_symbol_spin(space, random_operator(seed, space.dim), grid)
    coeffs = spin.harmonic_coefficients(samples, grid, space)
    scale = np.sqrt(4 * np.pi / space.dim)
    direct = {l * l + l + m: scale * np.sum(grid.weights * samples
                                            * spin.sph_harm_values(l, m, grid.thetas, grid.phis).conj())
              for l in range(space.two_s + 1) for m in range(-l, l + 1)}
    assert set(range(len(coeffs))) == set(direct)
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
    assert len(stacked) == len(singles[0])
    for key, values in enumerate(stacked):
        expected = np.array([single[key] for single in singles])
        assert values.shape == (3,)
        assert np.abs(values - expected).max() <= 1e-12 * max(1.0, np.abs(expected).max())
    column = spin.harmonic_coefficients(stack[:, None, :], grid, space)
    assert column[0].shape == (3, 1)
    with pytest.raises(ValueError):  # ring-shaped, not one flat symbol
        spin.harmonic_coefficients(stack[0].reshape(grid.rings[2].shape), grid, space)


@DETERMINISTIC
@given(spin_grids(), st.integers(0, 2**32 - 1))
def test_harmonic_rows_are_damped_by_the_spectrum_in_the_same_order(case, seed):
    # row l² + l + m of the coefficients of Q_Λ(B) is entry l² + l + m of the spectrum
    # times row l² + l + m of those of Q_B, the contract the spin command's check reads
    space, grid = case
    stack = np.array([random_operator(seed + i, space.dim) for i in range(2)])
    states = spin.coherent_state_matrix(space, grid)
    image = np.array([luders_image(states, grid.weights, operator) for operator in stack])
    before, after = (spin.harmonic_coefficients(q_symbols(states, ops), grid, space)
                     for ops in (stack, image))
    assert before.shape == (space.dim ** 2, 2)
    assert_close(after, expected_spectrum(space)[:, None] * before)


@DETERMINISTIC
@given(spin_grids(), st.integers(0, 2**32 - 1))
def test_charge_harmonic_coefficients_are_the_node_ones(case, seed):
    # the charge front end against the node front end on the dense symbols
    space, grid = case
    factors, _ = ring_factors(space, grid)
    states = spin.coherent_state_matrix(space, grid)
    stack = np.array([random_operator(seed + i, space.dim) for i in range(3)])
    sums = ring_charge_sums(factors, stack)
    assert sums.shape == (3, len(factors), 2 * space.dim - 1)
    stacked = spin.charge_harmonic_coefficients(sums, grid, space)
    assert stacked.shape == (space.dim ** 2, 3)
    assert_close(stacked, spin.harmonic_coefficients(q_symbols(states, stack), grid, space))
    single = spin.charge_harmonic_coefficients(ring_charge_sums(factors, stack[0]), grid, space)
    assert single.shape == (space.dim ** 2,)
    assert_close(single, spin.harmonic_coefficients(q_symbols(states, stack[0]), grid, space))


@DETERMINISTIC
@given(spin_grids(), st.integers(0, 2**32 - 1))
def test_charge_harmonic_coefficients_refuse_weights_that_vary_along_a_ring(case, seed):
    space, grid = case
    sums = ring_charge_sums(ring_factors(space, grid)[0], random_operator(seed, space.dim))
    n_phi = grid.rings[2].shape[1]
    tilt = 1 + 1e-3 * np.cos(2 * np.pi * np.arange(len(grid)) / n_phi)
    tilted = spin.SphereQuadrature(grid.thetas, grid.phis, grid.weights * tilt, grid.exact_degree)
    with pytest.raises(ValueError, match="vary along a ring"):
        spin.charge_harmonic_coefficients(sums, tilted, space)
    with pytest.raises(ValueError, match="charge sums"):
        spin.charge_harmonic_coefficients(sums[:, 1:], grid, space)


@DETERMINISTIC
@given(st.integers(0, 50), st.integers(0, 2**32 - 1))
def test_legendre_blocks_are_the_scipy_harmonics(lmax, seed):
    # every (l, m) up to lmax from the vectorised recurrence, poles included
    rng = np.random.default_rng(seed)
    thetas = np.concatenate([[0.0, np.pi], np.arccos(rng.uniform(-1, 1, 9))])
    phis = rng.uniform(0, 2 * np.pi, len(thetas))
    seen = []
    for m, block, phase in spin.harmonic_blocks(lmax, thetas, phis):
        l = np.arange(abs(m), lmax + 1)
        assert block.shape == (len(thetas), len(l))
        oracle = sph_harm_y(l, m, thetas[:, None], phis[:, None])
        assert np.abs(block * phase[:, None] - oracle).max() <= 1e-12
        seen.append(m)
    assert sorted(seen) == list(range(-lmax, lmax + 1))


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


def on_charge(diagonal, charge):
    """The D × D matrix with `diagonal` on the charge row − column = `charge`, by np.diag."""
    dim = len(diagonal)
    if abs(charge) >= dim:
        return np.zeros((dim, dim), dtype=complex)
    return np.diag(diagonal[:dim - abs(charge)], -charge).astype(complex)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(disk_monomials())
def test_ladder_words_and_disk_images_are_their_diagonals_scattered(case):
    space, m, n, radius = case
    assert np.array_equal(space.ladder_word(m, n), on_charge(space.ladder_diagonal(m, n), m - n))
    assert np.array_equal(fock.disk_monomial_image(space, m, n, radius),
                          on_charge(fock.disk_monomial_diagonal(space, m, n, radius), m - n))


# --- numpy-only special functions against SciPy as the oracle -----------------------

@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(st.integers(1, 250), st.floats(0.0, 50.0, exclude_min=True))
def test_poisson_tail_is_the_regularized_incomplete_gamma(top, x):
    # the table for levels 0..top, so its tail is cut just past the level it is drawn for
    a = np.arange(1, top + 1)
    expected = gammainc(a, x)
    tail = np.exp(fock._log_gamma_p(top + 1, x)[a])
    live = expected > 1e-300
    assert np.all(np.abs(tail - expected)[live] <= 1e-12 * expected[live])
    assert np.all(tail[~live] <= 1e-290)


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(st.integers(1, 600))
def test_log_factorial_table_is_gammaln(size):
    table = fock._log_factorials(size)
    expected = gammaln(np.arange(size) + 1.0)
    assert np.all(np.abs(table - expected) <= 1e-15 * np.maximum(expected, 1.0))


@st.composite
def displacements(draw):
    """dim 2..200 and a label with |α|² <= dim/4."""
    dim = draw(st.integers(2, 200))
    modulus = draw(st.floats(0.0, 1.0)) * np.sqrt(dim) / 2
    return fock.FockSpace(dim), modulus * np.exp(1j * draw(st.floats(0.0, 2 * np.pi)))


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(displacements())
def test_displacement_is_the_matrix_exponential(case):
    space, alpha = case
    expected = expm(alpha * space.adag - np.conj(alpha) * space.a)
    assert np.abs(fock.displacement_matrix(space, alpha) - expected).max() <= 1e-13


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.integers(2, 48), st.integers(0, 8), st.integers(0, 8))
def test_closed_form_ladder_word_is_the_dense_product(dim, m, n):
    space = fock.FockSpace(dim)
    word = space.ladder_word(m, n)
    expected = np.linalg.matrix_power(space.adag, m) @ np.linalg.matrix_power(space.a, n)
    assert word.shape == expected.shape
    assert np.all(np.abs(word - expected) <= 1e-12 * np.abs(expected))


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


# --- the exact ordering engine -------------------------------------------------------

_ZERO = ComplexRational()
_ONE = ComplexRational.real(1)
_HALF = ComplexRational.real(Fraction(1, 2))
_HALF_I = ComplexRational(Fraction(0), Fraction(1, 2))

GAUSSIAN_RATIONALS = st.builds(  # zero, real, imaginary and complex values alike
    lambda re, im, den: ComplexRational(Fraction(re, den), Fraction(im, den)),
    st.sampled_from((0, 0, 1, -1)) | st.integers(-9, 9),
    st.sampled_from((0, 0, 1, -1)) | st.integers(-9, 9),
    st.integers(1, 9))


LEAVES = st.one_of(  # the ladder symbols twice, so most trees are not scalars
    st.sampled_from(OPERATOR_SYMBOLS).map(Symbol),
    st.sampled_from(("q", "p", "a", "ad")).map(Symbol),
    st.just(Literal(I_UNIT)),
    st.builds(lambda p, q: Literal(ComplexRational.real(Fraction(p, q))),
              st.integers(0, 12), st.integers(1, 12)),
)
SCALAR_LEAVES = st.one_of(st.just(Symbol("id")), LEAVES.filter(lambda leaf: isinstance(leaf, Literal)))


@st.composite
def expressions(draw, depth=4, degree=8):
    """A tree of at most `depth` operator levels whose normal form has degree <= `degree`.

    Leaves are the parser's own: symbols, i and nonnegative rationals.
    Exponents are 0..6.
    """
    if depth == 0 or (depth < 4 and draw(st.integers(0, 3)) == 0):
        return draw(LEAVES if degree else SCALAR_LEAVES)
    kind = draw(st.sampled_from(("neg", "add", "sub", "mul", "mul", "pow", "pow")))
    if kind == "neg":
        return Neg(draw(expressions(depth - 1, degree)))
    if kind == "pow":
        k = draw(st.integers(0, 6))
        return Pow(draw(expressions(depth - 1, degree // k if k else degree)), k)
    if kind == "mul":
        left = draw(st.integers(0, degree))
        return Mul(draw(expressions(depth - 1, left)), draw(expressions(depth - 1, degree - left)))
    operator = Add if kind == "add" else Sub
    return operator(draw(expressions(depth - 1, degree)), draw(expressions(depth - 1, degree)))


@st.composite
def valued_expressions(draw, depth=3):
    """A tree whose literals take any sign and phase (`GAUSSIAN_RATIONALS`), unlike the parser's.

    Exponents are 0..3, so the normal form has degree at most 3^depth.
    """
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        return draw(st.one_of(LEAVES, GAUSSIAN_RATIONALS.map(Literal)))
    kind = draw(st.sampled_from((Neg, Add, Sub, Mul, Pow)))
    if kind is Neg:
        return Neg(draw(valued_expressions(depth - 1)))
    if kind is Pow:
        return Pow(draw(valued_expressions(depth - 1)), draw(st.integers(0, 3)))
    return kind(draw(valued_expressions(depth - 1)), draw(valued_expressions(depth - 1)))


# Oracle: the normal form on ComplexRational arithmetic, {(m, n): coefficient of a†^m a^n}.
_ORACLE_SYMBOLS = {
    "a": {(0, 1): _ONE},
    "ad": {(1, 0): _ONE},
    "id": {(0, 0): _ONE},
    "q": {(1, 0): _HALF, (0, 1): _HALF},
    "p": {(1, 0): _HALF_I, (0, 1): -_HALF_I},  # (a - a†)/2i
}


ENGINE = settings(derandomize=True, database=None, deadline=None, max_examples=100)


def oracle_product(lhs: dict, rhs: dict) -> dict:
    """(a†^m1 a^n1)(a†^m2 a^n2) with a^n1 a†^m2 = Σ_s s! C(n1,s) C(m2,s) a†^(m2-s) a^(n1-s)."""
    out = {}
    for (m1, n1), c1 in lhs.items():
        for (m2, n2), c2 in rhs.items():
            for s in range(min(n1, m2) + 1):
                weight = ComplexRational.real(factorial(s) * comb(n1, s) * comb(m2, s))
                key = (m1 + m2 - s, n1 + n2 - s)
                out[key] = out.get(key, _ZERO) + c1 * c2 * weight
    return out


def oracle_normal_form(node) -> dict:
    if isinstance(node, Literal):
        out = {(0, 0): node.value}
    elif isinstance(node, Symbol):
        out = _ORACLE_SYMBOLS[node.name]
    elif isinstance(node, Neg):
        out = {k: -c for k, c in oracle_normal_form(node.operand).items()}
    elif isinstance(node, (Add, Sub)):
        out = dict(oracle_normal_form(node.lhs))
        for key, c in oracle_normal_form(node.rhs).items():
            out[key] = out.get(key, _ZERO) + (-c if isinstance(node, Sub) else c)
    elif isinstance(node, Mul):
        out = oracle_product(oracle_normal_form(node.lhs), oracle_normal_form(node.rhs))
    else:
        base = oracle_normal_form(node.base)
        out = {(0, 0): _ONE}
        for _ in range(node.exponent):
            out = oracle_product(out, base)
    return {k: c for k, c in out.items() if not c.is_zero()}


@ENGINE
@given(expressions())
def test_normal_order_is_the_complex_rational_oracle(node):
    assert normal_order(node).terms == oracle_normal_form(node)


@ENGINE
@given(expressions())
def test_normal_form_text_normal_orders_to_itself(node):
    poly = normal_order(node)
    assert normal_order(poly.to_source()) == poly


@ENGINE
@given(expressions())
def test_anti_normal_order_round_trips(node):
    poly = normal_order(node)
    assert anti_normal_order(poly).to_normal() == poly


@ENGINE
@given(expressions())
def test_well_ordered_iff_luders_invariant_on_random_trees(node):
    poly = normal_order(node)
    for case in (poly, poly + poly.adjoint()):
        assert is_well_ordered(case) == (luders_symbolic(case) == case)


@ENGINE
@given(expressions(), st.integers(-9, 9).filter(bool), st.integers(1, 9), st.integers(-9, 9))
def test_equal_polynomials_hash_equal(node, re, den, im):
    poly = normal_order(node)
    scale = ComplexRational(Fraction(re, den), Fraction(im, den))
    inverse_scale = ComplexRational(Fraction(re * den, re * re + im * im),
                                    Fraction(-im * den, re * re + im * im))
    for same in (normal_order(poly.to_source()), NormalPolynomial(poly.terms),
                 poly + poly - poly, poly.scaled(scale).scaled(inverse_scale)):
        assert same == poly
        assert hash(same) == hash(poly)


@ENGINE
@given(expressions())
def test_to_source_parses_back_to_the_tree(node):
    assert parse_expression(to_source(node)) == node


@ENGINE
@given(expressions())
def test_whitespace_inside_fractions_and_powers_parses_to_the_same_tree(node):
    # p/q and ^k are each one token; whitespace inside them is still insignificant
    text = to_source(node).replace("/", " / ").replace("^", "\t^\n")
    assert parse_expression(text) == node


@ENGINE
@given(valued_expressions())
def test_to_source_keeps_the_value_of_every_tree(node):
    assert normal_order(parse_expression(to_source(node))) == normal_order(node)


@st.composite
def scalar_texts(draw, depth=4):
    """(text, value, binding) of a symbol-free expression, its value on ComplexRational arithmetic.

    Leaves are integers, fractions, decimals and i; nodes are unary minus,
    +, -, * and parentheses.  binding is 1 for a sum, 2 for a product or
    unary minus and 3 for an atom; an operand is parenthesized where its
    place needs it, and any node may be.
    """
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        kind = draw(st.sampled_from(("integer", "fraction", "decimal", "i")))
        if kind == "i":
            return "i", I_UNIT, 3
        if kind == "integer":
            text = str(draw(st.integers(0, 99)))
        elif kind == "fraction":
            text = f"{draw(st.integers(0, 99))}/{draw(st.integers(1, 12))}"
        else:
            text = draw(st.sampled_from(("0.5", "2.25", ".125", "3.", "0.0", "10.75")))
        return text, ComplexRational.real(Fraction(text)), 3
    kind = draw(st.sampled_from(("neg", "add", "sub", "mul", "mul", "paren")))
    text, value, binding = draw(scalar_texts(depth - 1))
    if kind == "paren":
        return f"({text})", value, 3
    if kind == "neg":
        return ("-" + text if binding >= 2 else f"-({text})"), -value, 2
    rtext, rvalue, rbinding = draw(scalar_texts(depth - 1))
    if kind == "mul":
        left = text if binding >= 2 else f"({text})"
        right = rtext if rbinding >= 2 else f"({rtext})"
        return f"{left}*{right}", value * rvalue, 2
    if kind == "add":
        return f"{text} + {rtext}", value + rvalue, 1
    return f"{text} - {rtext if rbinding >= 2 else f'({rtext})'}", value - rvalue, 1


@ENGINE
@given(scalar_texts())
def test_symbol_free_trees_fold_to_their_complex_rational_value(case):
    text, value, _ = case
    tree = parse_expression(text)
    assert normal_order(tree) == NormalPolynomial({(0, 0): value})
    # the fold is a lowest-terms Gaussian-integer scalar, with no polynomial formed
    assert ordering._eval_node(tree) == ordering._gaussian(value)


@pytest.mark.parametrize("value, text", [
    (ComplexRational(Fraction(0), Fraction(2)), "(2*i)^2"),
    (ComplexRational(Fraction(0), Fraction(1, 2)), "(1/2*i)^2"),
])
def test_to_source_parenthesizes_an_imaginary_power_base(value, text):
    node = Pow(Literal(value), 2)
    assert to_source(node) == text
    assert normal_order(text) == normal_order(node)


@ENGINE
@given(expressions(), st.data())
def test_parse_error_points_at_an_inserted_character(node, data):
    text = to_source(node)
    index = data.draw(st.integers(0, len(text)))
    with pytest.raises(ParseError) as excinfo:
        parse_expression(text[:index] + "#" + text[index:])
    assert excinfo.value.position == index
    with pytest.raises(ParseError) as excinfo:
        parse_expression(text + " *")
    assert excinfo.value.position == len(text) + 2


@ENGINE
@given(expressions(), st.one_of(st.integers(MAX_DEGREE + 1, 10**6).map(str),
                                st.integers(5000, 6000).map(lambda n: "9" * n)))
def test_parse_error_points_at_an_exponent_past_the_cap(node, exponent):
    prefix = to_source(node) + " + "
    with pytest.raises(ParseError, match="degree cap") as excinfo:
        parse_expression(f"{prefix}a^{exponent}")
    assert excinfo.value.position == len(prefix) + 2


# --- closed-form affine powers, folded word products, integer rendering --------------

def affine_tree(c, x, y):
    """c + x·ad + y·a as a parser tree."""
    return Add(Add(Literal(c), Mul(Literal(x), Symbol("ad"))), Mul(Literal(y), Symbol("a")))


def power_loop(base, k):
    out = NormalPolynomial.identity()
    for _ in range(k):
        out = out * base
    return out


@ENGINE
@given(GAUSSIAN_RATIONALS, GAUSSIAN_RATIONALS, GAUSSIAN_RATIONALS, st.integers(0, 24))
def test_affine_power_is_the_product_loop_and_the_oracle(c, x, y, k):
    tree = affine_tree(c, x, y)
    base = normal_order(tree)
    closed = ordering._affine_power(base, k)
    assert closed == power_loop(base, k)
    assert normal_order(Pow(tree, k)) == closed
    if k <= 10:  # the Fraction oracle takes about 0.8 s at k = 24
        assert closed.terms == oracle_normal_form(Pow(tree, k))


@pytest.mark.parametrize("text", ["q+p", "q+p+1", "(1/3 - 2*i) + 5/7*i*ad - 3/2*a", "a - ad"])
def test_affine_power_at_the_degree_cap_is_the_product_loop(text):
    base = normal_order(text)
    assert ordering._affine_power(base, MAX_DEGREE) == power_loop(base, MAX_DEGREE)


CHAIN_FACTORS = ("a", "ad", "q", "p", "id", "i", "0", "-2/3", "a^2", "ad^2", "ad^3", "-a",
                 "-ad^2", "(1/2 + i)", "(-3/4*i)", "(q+p)", "(a*ad)", "(ad - 1)", "-q")


@ENGINE
@given(st.lists(st.sampled_from(CHAIN_FACTORS), min_size=2, max_size=7))
def test_product_chains_that_fold_and_reorder_are_the_oracle(factors):
    tree = parse_expression("*".join(factors))
    assert normal_order(tree).terms == oracle_normal_form(tree)


@pytest.mark.parametrize("text", ["a*ad*a", "(1/2 + i)*ad^2*a*ad", "-3*a^2*-ad*(-i)",
                                  "q*ad*a", "ad^2*a*q*a", "(2 - i)*ad*(1/3*i)*a^3*ad^2",
                                  "0*a^40*ad^30", "a*0*ad*q"])
def test_fixed_product_chains_are_the_oracle(text):
    tree = parse_expression(text)
    assert normal_order(tree).terms == oracle_normal_form(tree)


@pytest.mark.parametrize("text", ["a^40*ad^30", "ad^33*a^32", "(q+p)^32*(q+p)^33"])
def test_product_chains_past_the_degree_cap_raise(text):
    with pytest.raises(ordering.DegreeError):
        normal_order(text)


def oracle_source(poly, creation_first):
    """Ordered-form text from `.terms` and str(ComplexRational): the renderer's reference."""
    names = ("ad", "a") if creation_first else ("a", "ad")
    pieces = []
    for (m, n), c in sorted(poly.terms.items(), key=lambda kv: (
            -kv[0][0] - kv[0][1], -kv[0][0] if creation_first else -kv[0][1])):
        ops = [f"{sym}^{power}" if power > 1 else sym for sym, power in zip(names, (m, n)) if power]
        text = str(c)
        if ops and text in ("1", "-1"):
            text = text[:-1] + "*".join(ops)
        else:
            text = "*".join([text] + ops)
        pieces.append(f" - {text[1:]}" if text.startswith("-") else f" + {text}")
    joined = "".join(pieces)
    return "0" if not pieces else joined[3:] if joined[1] == "+" else "-" + joined[3:]


@ENGINE
@given(expressions())
def test_ordered_forms_render_as_their_complex_rational_terms(node):
    poly = normal_order(node)
    assert poly.to_source() == oracle_source(poly, creation_first=True)
    anti = anti_normal_order(poly)
    assert anti.to_source() == oracle_source(anti, creation_first=False)


@st.composite
def gaussian_fractions(draw):
    """(re, im, den) with ±1, ±i, zero parts and 1,000-digit numerators and denominators."""
    big = st.integers(10**1000, 10**1100)
    den = draw(st.integers(1, 60) | big)
    parts = [draw(st.sampled_from((0, den, -den)) | st.integers(-10**4, 10**4)
                  | big | big.map(lambda v: -v)) for _ in range(2)]
    return parts[0], parts[1], den


@ENGINE
@given(gaussian_fractions())
def test_integer_coefficient_text_is_the_complex_rational_text(case):
    re, im, den = case
    expected = str(ComplexRational(Fraction(re, den), Fraction(im, den)))
    assert ordering._coefficient_source(re, im, den) == expected
