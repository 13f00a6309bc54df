from fractions import Fraction
from math import factorial

import numpy as np
import pytest

from luderskit import channel, fock
from luderskit.channel import (
    QuadratureError,
    SuperoperatorMatrix,
    WeightedProjectorFamily,
    apply_channel,
    build_luders_channel,
    channel_spectrum,
    charge_blocks,
    choi_matrix,
    luders_image,
    ring_resolution,
    unvec,
    vec,
)
from luderskit.fock import FockSpace, PlaneQuadrature, plane_quadrature
from luderskit.spin import (
    SphereQuadrature,
    SpinSpace,
    coherent_state_matrix,
    expected_spectrum,
    projector_family,
    ring_factors,
    sphere_quadrature,
)


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


@pytest.mark.parametrize("dim", range(2, 9))
def test_orthonormal_family_fixed_basis_is_hermitian_orthonormal_fixed_and_diagonal(dim):
    # the fixed space of a complete orthogonal measurement is the D-dimensional diagonal algebra
    family = orthonormal_family(np.random.default_rng(100 + dim), dim)
    chan = build_luders_channel(family)
    basis = channel_spectrum(chan).fixed_basis
    assert len(basis) == dim
    stacked = np.array(basis)
    assert np.abs(stacked - stacked.conj().transpose(0, 2, 1)).max() < 1e-12
    gram = np.einsum("aij,bij->ab", stacked.conj(), stacked)
    assert np.abs(gram - np.eye(dim)).max() < 1e-12
    for fixed in basis:
        assert np.abs(apply_channel(chan, fixed) - fixed).max() <= 1e-9
        in_family = family.states.conj() @ fixed @ family.states.T
        assert np.abs(in_family - np.diag(np.diag(in_family))).max() < 1e-12


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


# --- U(1) charge blocks ---------------------------------------------------------

@pytest.mark.parametrize("oversized", [False, True])
@pytest.mark.parametrize("two_s", range(1, 9))
def test_charge_blocks_are_the_dense_superoperator(two_s, oversized):
    space = SpinSpace(two_s)
    grid = (sphere_quadrature(space, two_s + 3, 2 * two_s + 5) if oversized
            else sphere_quadrature(space))
    family = projector_family(space, grid)
    dense = build_luders_channel(family).matrix
    blocks = charge_blocks(*ring_factors(space, grid))
    dim = space.dim
    assert set(blocks) == set(range(1 - dim, dim))
    for q, block in blocks.items():
        rows = np.arange(max(q, 0), dim + min(q, 0))
        index = rows + (rows - q) * dim  # column stacking: B[j, k] sits at j + k·D
        assert np.abs(dense[np.ix_(index, index)] - block).max() < 1e-12, q
    charge = np.arange(dim * dim) % dim - np.arange(dim * dim) // dim
    off_sector = charge[:, None] != charge[None, :]
    assert np.abs(dense[off_sector]).max() <= 1e-12


def test_live_charges_are_those_of_the_complex_nonzero_mask():
    # the float-view mask against `operator != 0`: NaN counts as nonzero, −0.0
    # as zero, and a transposed (non-contiguous) stack reads the same
    dim = 7
    rng = np.random.default_rng(5)
    stack = rng.normal(size=(2, dim, dim)) + 1j * rng.normal(size=(2, dim, dim))
    signed = np.subtract.outer(np.arange(dim), np.arange(dim))
    stack *= np.isin(signed, (-6, -2, 0, 3))
    stack[0, 5, 0] = complex(-0.0, -0.0)  # charge 5 stays dead
    stack[1, 1, 5] = complex(0.0, np.nan)  # charge −4 becomes live
    stack[1, 6, 5] = complex(0.0, 1e-300)  # charge 1 becomes live

    def reference(operators):
        nonzero = (operators != 0).any(axis=0)
        return [q for q in range(1 - dim, dim) if nonzero.diagonal(-q).any()]
    for operators, live in ((stack, [-6, -4, -2, 0, 1, 3]),
                            (stack.swapaxes(-1, -2), [-3, -1, 0, 2, 4, 6])):
        assert list(channel._live_charges(operators)) == reference(operators) == live
    assert list(channel._live_charges(np.zeros((dim, dim), dtype=complex))) == [0]


def test_family_and_superoperator_refuse_wrong_shapes():
    with pytest.raises(QuadratureError, match="shape"):
        WeightedProjectorFamily(2, np.eye(3, dtype=complex), np.ones(3))
    with pytest.raises(QuadratureError, match="one weight per state"):
        WeightedProjectorFamily(2, np.eye(2, dtype=complex), np.ones(3))
    with pytest.raises(ValueError, match="expected shape"):
        SuperoperatorMatrix(2, np.eye(3, dtype=complex))


def test_ring_resolution_refuses_values_of_the_wrong_shape():
    factors, weights = ring_factors(SpinSpace(2), sphere_quadrature(SpinSpace(2)))
    for values in (weights.ravel(), weights[1:], weights[None]):
        with pytest.raises(ValueError, match="values must have shape"):
            ring_resolution(factors, values)


def test_ring_core_refuses_weights_with_the_wrong_ring_count():
    # one row of W broadcast over the 6 rings once gave an image 0.35 off, with no error
    space = FockSpace(12)
    word = space.ladder_word(2, 0)
    for n_angular in (10, 24):  # aliased, then alias-free for the charge blocks
        factors, weights = fock.ring_factors(space, plane_quadrature(space, 1.5, 6, n_angular))
        calls = [lambda: channel.ring_luders_image(factors, weights[:1], word),
                 lambda: channel.ring_diagonal_image(factors, weights[:1],
                                                     space.ladder_diagonal(2, 0)[:, None], [2]),
                 lambda: ring_resolution(factors, weights[:1])]
        if n_angular > 2 * (space.dim - 1):
            calls.append(lambda: charge_blocks(factors, weights[:1]))
        for call in calls:
            with pytest.raises(ValueError, match=r"must have shape \(6, n_angular\)"):
                call()


def test_diagonal_image_refuses_charges_out_of_order_range_or_count():
    # a reversed charge list once gave a wrong image with no error, q = −15 at D = 8 was
    # read as charge 5, q = ±8 failed deep in numpy, and an empty integer list in the fold
    space = FockSpace(8)
    factors, weights = fock.ring_factors(space, plane_quadrature(space, 1.0, 6, 20))
    full = np.arange(-7, 8)
    diagonals = np.random.default_rng(3).normal(size=(8, 15)) + 0j
    for charges, columns in ((full[::-1], diagonals[:, ::-1]), ([1, 1], diagonals[:, :2]),
                             ([-15], diagonals[:, :1]), ([-8], diagonals[:, :1]),
                             ([8], diagonals[:, :1]), ([0.0], diagonals[:, :1]),
                             ([[0]], diagonals[:, :1]), ([], diagonals[:, :0]),
                             (np.array([], int), diagonals[:, :0])):
        with pytest.raises(ValueError, match="strictly increasing integers in -7..7"):
            channel.ring_diagonal_image(factors, weights, columns, charges)
    for columns in (diagonals[:, :2], diagonals[:7, :1], diagonals[:, 0]):
        with pytest.raises(ValueError, match=r"diagonals must have shape \(\.\.\., 8, 1\)"):
            channel.ring_diagonal_image(factors, weights, columns, [0])
    images, charges = channel.ring_diagonal_image(factors, weights, diagonals, full)
    assert list(charges) == list(full) and images.shape == (8, 15)


# --- ring factors in the Perelomov form F[r, k] = g_r h_k t_r^k ---------------------

def test_ring_factor_rows_are_the_phi_zero_states_bit_for_bit():
    # the φ = 0 node of each ring, and the product form the ring core reads them through
    space, spin_space = FockSpace(40), SpinSpace(7)
    quad, grid = plane_quadrature(space, 3.0, 12, 16), sphere_quadrature(spin_space)
    for (factors, weights), states in (
            (fock.ring_factors(space, quad), fock.coherent_state_matrix(space, quad)),
            (ring_factors(spin_space, grid), coherent_state_matrix(spin_space, grid))):
        assert np.array_equal(factors.rows, states[::weights.shape[1]].real)
        assert np.array_equal(np.asarray(factors), factors.rows)
        assert factors.shape == (len(factors), states.shape[1])
        dim = factors.shape[1]
        for q in range(dim):
            i = np.arange(dim - q)
            products = factors.rows[:, i + q] * factors.rows[:, i]
            form = factors.squares[:, i] * factors.powers[:, q:q + 1] * factors.ratios[i, q]
            assert np.abs(form - products).max() <= 1e-13 * np.abs(products).max()


def test_ring_factors_refuse_powers_past_the_float_range():
    rows, log_h = np.ones((2, 5)), np.zeros(5)
    limit = np.log(np.finfo(float).max)
    accepted = channel.RingFactors(rows, [-np.inf, 0.999 * limit / 4], log_h)
    assert np.all(np.isfinite(accepted.powers))
    assert np.array_equal(accepted.powers[0], [1, 0, 0, 0, 0])  # t = 0: exactly 1 at q = 0
    for top in (limit / 4, np.inf, np.nan):
        with pytest.raises(ValueError, match="float range"):
            channel.RingFactors(rows, [0.0, top], log_h)
    with pytest.raises(ValueError, match="log_h"):
        channel.RingFactors(rows, [0.0, 0.0], np.zeros(4))


def test_ring_core_refuses_bare_factor_arrays():
    space = SpinSpace(2)
    factors, weights = ring_factors(space, sphere_quadrature(space))
    bare, operator = np.asarray(factors), np.eye(space.dim)
    for call in (lambda: channel.ring_q_symbols(bare, weights.shape[1], operator),
                 lambda: channel.ring_charge_sums(bare, operator),
                 lambda: channel.ring_luders_image(bare, weights, operator),
                 lambda: ring_resolution(bare, weights),
                 lambda: charge_blocks(bare, weights)):
        with pytest.raises(TypeError, match="RingFactors"):
            call()


# --- value types hold owned read-only copies ------------------------------------

def _value_type_cases():
    """(build from the arrays, the arrays, the names they are stored under) per value type."""
    family = projector_family(SpinSpace(2))
    grid = sphere_quadrature(SpinSpace(2))
    plane = plane_quadrature(FockSpace(8), radius=1.0)
    return [
        (lambda *a: WeightedProjectorFamily(3, *a), (family.states, family.weights),
         ("states", "weights")),
        (lambda m: SuperoperatorMatrix(3, m), (build_luders_channel(family).matrix,), ("matrix",)),
        (lambda *a: SphereQuadrature(*a, grid.exact_degree),
         (grid.thetas, grid.phis, grid.weights), ("thetas", "phis", "weights")),
        (lambda *a: PlaneQuadrature(*a, 1.0), (plane.alphas, plane.weights), ("alphas", "weights")),
    ]


@pytest.mark.parametrize("as_view", [False, True])
@pytest.mark.parametrize("case", range(4))
def test_value_types_hold_owned_read_only_copies(case, as_view):
    # the caller passes its own contiguous arrays, or views of them; either way
    # the object copies them, and the caller's arrays stay writable and its own
    make, arrays, names = _value_type_cases()[case]
    held = [np.array(a)[None] if as_view else np.array(a) for a in arrays]
    value = make(*(h[0] if as_view else h for h in held))
    stored = [getattr(value, name) for name in names]
    if isinstance(value, SphereQuadrature):
        stored += list(value.rings)
    for array in stored:
        assert not array.flags.writeable and array.flags.c_contiguous
        assert not any(np.shares_memory(array, h) for h in held)
    before = [array.copy() for array in stored]
    for h in held:
        assert h.flags.writeable
        h[...] = -5.0
    for array, copy in zip(stored, before):
        assert np.array_equal(array, copy)


# --- charge blocks refuse the grids on which the charge is not kept --------------

def _aliased_spin_grid(two_s, n_phi):
    """The exact Gauss-Legendre rings of spin two_s under an n_phi-node angle grid."""
    x, w_gl = np.polynomial.legendre.leggauss(two_s + 1)
    tt, pp = np.meshgrid(np.arccos(x), 2 * np.pi * np.arange(n_phi) / n_phi, indexing="ij")
    ww = np.repeat((two_s + 1) * w_gl[:, None] / 2 / n_phi, n_phi, axis=1)
    return SphereQuadrature(tt.ravel(), pp.ravel(), ww.ravel(), n_phi - 1)


@pytest.mark.parametrize("n_phi", [6, 5, 4])  # 2·two_s, 2·two_s − 1 and 4 at two_s 3
def test_charge_blocks_refuse_an_aliased_grid(n_phi):
    space = SpinSpace(3)
    aliased = _aliased_spin_grid(3, n_phi)
    factors = coherent_state_matrix(space, aliased)[::n_phi].real  # the phi = 0 node of each ring
    weights = aliased.weights.reshape(-1, n_phi)
    with pytest.raises(ValueError, match="phi nodes"):
        charge_blocks(factors, weights)


def test_charge_blocks_refuse_weights_that_vary_along_a_ring():
    space = SpinSpace(3)
    grid = sphere_quadrature(space)
    factors, weights = ring_factors(space, grid)
    tilted = weights * (1 + 1e-6 * np.cos(grid.rings[1]))  # same total per ring
    with pytest.raises(ValueError, match="vary along a ring"):
        charge_blocks(factors, tilted)
