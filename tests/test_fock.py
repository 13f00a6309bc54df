import warnings
from math import factorial, pi

import numpy as np
import pytest

from luderskit import fock
from luderskit.fock import (
    DampingReport,
    FockSpace,
    PlaneQuadrature,
    TruncationError,
    coherent_state_matrix,
    default_xi_points,
    disk_identity_matrix,
    disk_monomial_image,
    displacement_matrix,
    fock_coherent_state,
    grid_channel_apply,
    plane_quadrature,
    q_symbol_fock,
    resolution_defect,
    ring_factors,
    verify_damping,
    xi_coefficients,
)

FIRST_BESSEL_J1_ZERO = 3.8317059702075125


@pytest.fixture(scope="module")
def space():
    return FockSpace(40)


@pytest.fixture(scope="module")
def quad(space):
    return plane_quadrature(space)


def test_space_structure():
    space = FockSpace(6)
    assert space.guard_dim == 1  # max(6 - 8, 1)
    space = FockSpace(40)
    assert space.guard_dim == 32
    basis = np.eye(6)
    small = FockSpace(6, guard_dim=4)
    for k in range(1, 6):
        assert np.abs(small.a @ basis[k] - np.sqrt(k) * basis[k - 1]).max() < 1e-15
    for k in range(5):
        assert np.abs(small.adag @ basis[k] - np.sqrt(k + 1) * basis[k + 1]).max() < 1e-15
    commutator = small.a @ small.adag - small.adag @ small.a
    assert np.abs(commutator[:5, :5] - np.eye(6)[:5, :5]).max() < 1e-14
    assert abs(commutator[5, 5] + 5) < 1e-14  # truncation artifact in last entry


def test_space_validation():
    with pytest.raises(ValueError):
        FockSpace(1)
    with pytest.raises(ValueError):
        FockSpace(10, guard_dim=11)


def test_space_takes_integer_sizes_only():
    # FockSpace(2.5) once built a 3 × 3 a, and FockSpace(9.0) failed later with TypeError
    for size in (2.5, 9.0, True, "8", None):
        with pytest.raises(ValueError, match="dim must be an integer"):
            FockSpace(size)
    with pytest.raises(ValueError, match="guard_dim must be an integer"):
        FockSpace(10, guard_dim=4.0)
    space = FockSpace(np.int64(9), guard_dim=np.int32(3))
    assert (space.dim, space.guard_dim) == (9, 3) and type(space.dim) is int
    assert space.a.shape == (9, 9) and space == FockSpace(9, 3)


def test_negative_ladder_powers_are_refused():
    # a†^-1 once came back as a shift matrix and a^-2 as a row of ones
    space = FockSpace(8)
    for call in (lambda: space.ladder_word(-1, 0), lambda: space.ladder_diagonal(0, -2),
                 lambda: fock.disk_monomial_diagonal(space, -1, 0, 1.0),
                 lambda: disk_monomial_image(space, 2, -3, 1.0)):
        with pytest.raises(ValueError, match="ladder powers must be nonnegative"):
            call()


def test_vacuum_coherent_state(space):
    state = fock_coherent_state(space, 0.0)
    assert abs(state[0] - 1.0) < 1e-15
    assert np.abs(state[1:]).max() == 0.0


def test_coherent_components_match_formula(space):
    alpha = 0.9 - 0.4j
    state = fock_coherent_state(space, alpha)
    for k in range(8):
        expected = np.exp(-abs(alpha) ** 2 / 2) * alpha**k / np.sqrt(factorial(k))
        assert abs(state[k] - expected) < 1e-14


def test_point_state_matches_grid_row(space, quad):
    states = coherent_state_matrix(space, quad)
    for k in range(0, len(quad), 97):
        assert np.abs(fock_coherent_state(space, quad.alphas[k]) - states[k]).max() < 1e-15


def test_coherent_norm_under_precondition(space):
    rng = np.random.default_rng(4)
    for _ in range(20):
        alpha = rng.uniform(0, np.sqrt(space.dim) / 2) * np.exp(2j * pi * rng.uniform())
        assert np.linalg.norm(fock_coherent_state(space, alpha)) >= 1 - 1e-10


def test_label_array_gives_the_single_label_states_exactly(space):
    rng = np.random.default_rng(21)
    labels = rng.uniform(0, np.sqrt(space.dim) / 2, size=(4, 3)) \
        * np.exp(2j * pi * rng.uniform(size=(4, 3)))
    states = fock_coherent_state(space, labels)
    assert states.shape == (4, 3, space.dim)
    for index in np.ndindex(labels.shape):
        assert np.array_equal(states[index], fock_coherent_state(space, labels[index]))


def test_label_array_truncation_error_when_any_label_is_too_large(space):
    labels = np.full(6, 1.0 + 0.5j)
    fock_coherent_state(space, labels)
    labels[4] = 3.2  # |alpha|^2 = 10.24 > dim/4 = 10
    with pytest.raises(TruncationError):
        fock_coherent_state(space, labels)


def test_coherent_truncation_error(space):
    with pytest.raises(TruncationError):
        fock_coherent_state(space, 3.5)  # |alpha|^2 = 12.25 > 10
    with pytest.raises(TruncationError):
        displacement_matrix(space, 4.0)


def test_coherent_is_annihilation_eigenvector(space):
    rng = np.random.default_rng(9)
    for _ in range(10):
        alpha = rng.uniform(0, np.sqrt(space.dim) / 2) * np.exp(2j * pi * rng.uniform())
        state = fock_coherent_state(space, alpha)
        assert abs(np.vdot(state, space.a @ state) - alpha) < 1e-9


def test_overlap_gaussian_law(space):
    rng = np.random.default_rng(14)
    for _ in range(30):
        alpha = rng.uniform(0, 2) * np.exp(2j * pi * rng.uniform())
        beta = rng.uniform(0, 2) * np.exp(2j * pi * rng.uniform())
        va, vb = fock_coherent_state(space, alpha), fock_coherent_state(space, beta)
        assert abs(abs(np.vdot(va, vb)) ** 2 - np.exp(-abs(alpha - beta) ** 2)) < 1e-9


# --- displacement ---------------------------------------------------------------

def test_displacement_zero_is_identity(space):
    assert np.abs(displacement_matrix(space, 0.0) - np.eye(space.dim)).max() < 1e-14


def test_displacement_generates_coherent_state(space):
    alpha = 1.1 + 0.7j
    column = displacement_matrix(space, alpha)[:, 0]
    state = fock_coherent_state(space, alpha)
    assert np.abs(column - state)[: space.guard_dim].max() < 1e-8


def test_displacement_inverse_on_guard_block(space):
    g = space.guard_dim
    alpha = 1.3 - 0.5j
    product = displacement_matrix(space, alpha) @ displacement_matrix(space, -alpha)
    assert np.abs((product - np.eye(space.dim))[:g, :g]).max() < 1e-8


def test_displacement_unitary_on_guard_block(space):
    g = space.guard_dim
    d_mat = displacement_matrix(space, 1.0 + 0.5j)
    gram = d_mat.conj().T @ d_mat
    assert np.abs((gram - np.eye(space.dim))[:g, :g]).max() < 1e-8


def test_displacement_composition_phase(space):
    # group law with the symplectic phase; products of two displacements
    # are truncation-safe on a block 2 rungs of spread below the guard
    alpha, beta = 0.7 + 0.2j, -0.3 + 0.5j
    lhs = displacement_matrix(space, alpha) @ displacement_matrix(space, beta)
    phase = np.exp((alpha * np.conj(beta) - np.conj(alpha) * beta) / 2)
    rhs = phase * displacement_matrix(space, alpha + beta)
    block = space.guard_dim - 8
    assert np.abs((lhs - rhs)[:block, :block]).max() < 1e-7


# --- plane quadrature -------------------------------------------------------------

def test_quadrature_mass_is_disk_area(space, quad):
    assert abs(quad.weights.sum() - quad.radius**2) < 1e-10


def test_quadrature_radius_precondition(space):
    with pytest.raises(TruncationError):
        plane_quadrature(space, radius=3.5)
    with pytest.raises(ValueError):
        plane_quadrature(space, radius=-1.0)


@pytest.mark.parametrize("nodes", [{"n_radial": 0}, {"n_angular": 0}, {"n_radial": -3}])
def test_quadrature_rejects_node_counts_below_one(space, nodes, recwarn):
    with pytest.raises(ValueError, match="at least 1 radial and 1 angular node"):
        plane_quadrature(space, **nodes)
    assert not recwarn.list


def test_ring_factors_accept_aliasing_and_reject_non_product_grids(space):
    aliased = plane_quadrature(space, n_radial=5, n_angular=3)  # n_phi far below 2(dim - 1)
    factors, weights = ring_factors(space, aliased)
    assert factors.shape == (5, space.dim) and np.all(np.asarray(factors) >= 0)
    assert weights.shape == (5, 3) and np.array_equal(weights.ravel(), aliased.weights)
    states = coherent_state_matrix(space, aliased)
    assert np.abs(states[::3] - factors).max() < 1e-15  # the phi = 0 node of each ring
    assert ring_factors(space, plane_quadrature(space, n_radial=4, n_angular=1))[1].shape == (4, 1)
    shuffled = np.random.default_rng(0).permutation(len(aliased))
    scrambled = PlaneQuadrature(aliased.alphas[shuffled], aliased.weights[shuffled],
                                aliased.radius)
    with pytest.raises(ValueError, match="rings"):
        ring_factors(space, scrambled)
    for turn in (0.1, pi):
        rotated = PlaneQuadrature(aliased.alphas * np.exp(1j * turn), aliased.weights,
                                  aliased.radius)
        with pytest.raises(ValueError, match="rings"):
            ring_factors(space, rotated)


def test_resolution_matches_disk_integral(space, quad):
    psi = coherent_state_matrix(space, quad)
    resolution = (psi.T * quad.weights) @ psi.conj()
    assert np.abs(resolution - disk_identity_matrix(space, quad.radius)).max() < 1e-9


def test_guard_block_resolution_gap_is_large(space, quad):
    # the radius-3 disk cannot populate levels near 31, so the identity
    # defect on the full guard block is O(1); see notes in the CLI module
    assert resolution_defect(space, quad) > 0.9
    assert resolution_defect(space, quad, block=1) < 2e-4


@pytest.mark.parametrize("block", [0, -15, 41, 2.0, True, "3"])
def test_resolution_defect_refuses_a_block_outside_the_space(space, quad, block):
    with pytest.raises(ValueError, match="block"):
        resolution_defect(space, quad, block=block)
    assert resolution_defect(space, quad, block=space.dim) > 0.9


def test_grid_channel_unital_up_to_disk_factors(space, quad):
    image = grid_channel_apply(space, quad, np.eye(space.dim, dtype=complex))
    assert np.abs(image - disk_identity_matrix(space, quad.radius)).max() < 1e-9


def test_grid_channel_matches_disk_limit_for_monomials(space, quad):
    worst = 0.0
    for m in range(5):
        for n in range(5 - m):
            operator = np.linalg.matrix_power(space.adag, m) @ np.linalg.matrix_power(space.a, n)
            image = grid_channel_apply(space, quad, operator)
            prediction = disk_monomial_image(space, m, n, quad.radius)
            worst = max(worst, np.abs(image - prediction).max())
    assert worst < 1e-9


def test_disk_image_stays_finite_where_its_factors_leave_the_float_range():
    # (a†^199 a^199) at R = 1, entry (0, 0): 199! · P(200, 1), with 199! ≈ 4e372
    # past the float range and P(200, 1) ≈ 5e-376 below it;
    # 199! P(200, 1) = e^-1 Σ_{j≥200} 199!/j! = e^-1 (1/200 + 1/(200·201) + …)
    expected, term = 0.0, 1.0
    for j in range(200, 240):
        term /= j
        expected += term
    expected *= np.exp(-1.0)
    entry = disk_monomial_image(FockSpace(200), 199, 199, 1.0)[0, 0]
    assert np.isfinite(entry)
    assert abs(entry - expected) <= 1e-12 * expected



def test_log_gamma_p_at_zero_is_exact_without_a_warning():
    # R² underflows to 0 for radii up to about 1e-162: P(0, 0) = 1 and P(a, 0) = 0 for a ≥ 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        logs = fock._log_gamma_p.__wrapped__(5, 0.0)  # past the cache, so the log 0 path runs
    assert np.array_equal(logs, [0.0] + [-np.inf] * 4)

def test_q_symbol_real_for_hermitian(space, quad):
    rng = np.random.default_rng(31)
    raw = rng.normal(size=(space.dim, space.dim)) + 1j * rng.normal(size=(space.dim, space.dim))
    hermitian = (raw + raw.conj().T) / 2
    samples = q_symbol_fock(space, hermitian, quad)
    assert np.abs(samples.imag).max() < 1e-10


def test_vacuum_projector_channel_image_symbol(space, quad):
    # Gaussian convolution oracle: integral of e^(-|g|^2 - |a-g|^2) d^2g/pi
    # equals (1/2) e^(-|a|^2 / 2)
    projector = np.zeros((space.dim, space.dim), dtype=complex)
    projector[0, 0] = 1.0
    image_symbol = q_symbol_fock(space, grid_channel_apply(space, quad, projector), quad)
    prediction = 0.5 * np.exp(-np.abs(quad.alphas) ** 2 / 2)
    assert np.abs(image_symbol - prediction).max() < 5e-5


def test_coherent_commutator_expectation_formula(space):
    rng = np.random.default_rng(37)
    q_op = (space.a + space.adag) / 2
    for _ in range(50):
        alpha = rng.uniform(0, 2) * np.exp(2j * pi * rng.uniform())
        beta = rng.uniform(0, 2) * np.exp(2j * pi * rng.uniform())
        va = fock_coherent_state(space, alpha)
        vb = fock_coherent_state(space, beta)
        proj = np.outer(va, va.conj())
        lhs = np.vdot(vb, (q_op @ proj - proj @ q_op) @ vb)
        rhs = 0.5 * ((alpha - np.conj(alpha)) - (beta - np.conj(beta))) \
            * np.exp(-abs(alpha - beta) ** 2)
        assert abs(lhs - rhs) < 1e-8


# --- symplectic-Fourier transform and damping ---------------------------------------

def test_xi_coefficient_conjugation_symmetry(space, quad):
    rng = np.random.default_rng(41)
    raw = rng.normal(size=(space.dim, space.dim)) + 1j * rng.normal(size=(space.dim, space.dim))
    hermitian = (raw + raw.conj().T) / 2
    samples = q_symbol_fock(space, hermitian, quad)
    xis = default_xi_points()
    plus = xi_coefficients(samples, quad, xis)
    minus = xi_coefficients(samples, quad, -xis)
    assert np.abs(minus.coeffs - plus.coeffs.conj()).max() < 1e-10


def test_xi_coefficients_refuse_non_finite_or_non_1d_points(space, quad):
    samples = np.ones(len(quad))
    for points in ([0.5, np.inf], [0.5, complex(0.0, np.nan)], [[0.5, 1.0]], 0.5):
        with pytest.raises(ValueError, match="finite 1-D"):
            xi_coefficients(samples, quad, points)
    with pytest.raises(ValueError, match="finite 1-D"):
        verify_damping(space, np.eye(space.dim), quad, np.array([np.nan]))


def test_xi_transform_of_no_points_is_empty(space, quad):
    # an empty array is a finite 1-D array: no coefficient and no Bessel table, and a
    # damping report with nothing to compare reads NaN, as when every point is flagged
    samples = np.ones((2, 3, len(quad)))
    for points in (np.array([], complex), []):
        assert xi_coefficients(samples, quad, points).coeffs.shape == (2, 3, 0)
    report = verify_damping(space, np.eye(space.dim), quad, xi_points=np.array([], complex))
    assert report.source_coeffs.shape == report.image_coeffs.shape == (0,)
    assert np.isnan(report.max_deviation)


def test_xi_coefficients_refuse_samples_off_the_grid(quad):
    for shape in ((len(quad) - 1,), (2, len(quad) + 1), (len(quad), 2), ()):
        with pytest.raises(ValueError, match="nodes"):
            xi_coefficients(np.ones(shape), quad, default_xi_points())


def test_xi_coefficients_refuse_orders_past_the_cap(monkeypatch, quad):
    samples = np.ones(len(quad))
    # 2 · max|α| · |ξ| = 1e12 would ask for about 1.4e12 orders: refused before any search
    for xi in (1e12 / (2 * quad.radius), 400.0):
        with pytest.raises(ValueError, match="Bessel orders"):
            xi_coefficients(samples, quad, [0.5, xi])
    # and the cap itself is the limit: the order there is accepted, one more is not
    order = fock._jacobi_anger_order(2 * quad.rings[0].max() * 2.0)
    monkeypatch.setattr(fock, "MAX_XI_ORDER", order)
    xi_coefficients(samples, quad, [2.0])
    monkeypatch.setattr(fock, "MAX_XI_ORDER", order - 1)
    with pytest.raises(ValueError, match="Bessel orders"):
        xi_coefficients(samples, quad, [2.0])


def test_xi_transform_takes_the_default_points_on_their_five_moduli(monkeypatch, quad):
    # the 25 default points lie on 5 circles, but np.abs gives 11 distinct moduli
    points = default_xi_points()
    rhos, which = fock._distinct_moduli(np.abs(points))
    assert np.unique(np.abs(points)).size > 5
    assert np.array_equal(which, np.arange(25) // 5)
    assert np.allclose(rhos, 0.4 * np.arange(1, 6), rtol=1e-15, atol=0)
    arguments = []
    original = fock._bessel_table

    def recorded(z, orders):
        arguments.append(np.shape(z))
        return original(z, orders)
    monkeypatch.setattr(fock, "_bessel_table", recorded)
    xi_coefficients(np.ones(len(quad)), quad, points)
    assert arguments == [(5, len(quad.rings[0]))]
    # moduli apart by more than rounding stay apart, and a zero modulus is one of them
    rhos, which = fock._distinct_moduli(np.array([1.0 + 1e-14, 0.0, 1.0, 1.0 + 2e-16, 0.0]))
    assert list(rhos) == [0.0, 1.0, 1.0 + 1e-14] and list(which) == [2, 0, 1, 1, 0]


def test_bessel_table_matches_scipy_jv():
    from scipy.special import jv

    small = fock._SMALL_BESSEL_Z
    z = np.concatenate([[0.0, 5e-324, 1e-170, small * (1 - 1e-9), small, small * (1 + 1e-9),
                         1e-7, 1e-3], np.linspace(0.01, 60.0, 400)])
    orders = np.arange(121)
    table = fock._bessel_table(z, 120)
    assert table.shape == (121, len(z))
    # scipy's jv is itself off by 1.8e-15 from 40-digit values near z = 55.6
    assert np.abs(table - jv(orders[:, None], z)).max() < 4e-15
    assert table[0, 0] == 1.0 and not table[1:, 0].any()
    # few orders at large arguments: the recurrence starts past them, where J_n is below rounding
    assert np.abs(fock._bessel_table(z, 5) - jv(orders[:6, None], z)).max() < 4e-15
    # one argument at a time: the start order of a mixed table is not what keeps it accurate
    for single in (small * (1 + 1e-9), 0.01, 30.0):
        assert np.abs(fock._bessel_table(np.array([single]), 120)[:, 0]
                      - jv(orders, single)).max() < 4e-15


def test_default_xi_points_layout():
    points = default_xi_points()
    assert len(points) == 25
    assert np.abs(points).max() <= 2.0 + 1e-12
    assert np.abs(points).min() > 0.1


def test_damping_report_for_coherent_projector(space, quad):
    beta = 1.0
    state = fock_coherent_state(space, beta)
    projector = np.outer(state, state.conj())
    report = verify_damping(space, projector, quad)
    assert isinstance(report, DampingReport)
    assert not report.flagged.any()
    assert np.isfinite(report.max_deviation)
    # ratio tracks the Gaussian within the radius-3 disk gap
    assert report.max_deviation < 0.75
    near_axis = np.argmin(np.abs(report.xi_points - 1.0))
    assert report.deviations[near_axis] < 0.05


def test_damping_report_carries_the_node_symbols(space, quad):
    state = fock_coherent_state(space, 0.5 + 0.25j)
    projector = np.outer(state, state.conj())
    report = verify_damping(space, projector, quad)
    assert np.array_equal(report.source_symbols, q_symbol_fock(space, projector, quad))
    image = grid_channel_apply(space, quad, projector)
    assert np.array_equal(report.image_symbols, q_symbol_fock(space, image, quad))


def test_damping_flags_ill_conditioned_points(space, quad):
    # the disk transform of the constant symbol vanishes on the Airy ring,
    # so those ratios must be flagged rather than compared
    ring = (FIRST_BESSEL_J1_ZERO / (2 * quad.radius)) * np.exp(2j * pi * np.arange(4) / 4)
    report = verify_damping(space, np.eye(space.dim, dtype=complex), quad, ring)
    assert report.flagged.all()
    assert np.isnan(report.max_deviation)


def test_damping_zero_operator_fully_flagged(space, quad):
    report = verify_damping(space, np.zeros((space.dim, space.dim)), quad)
    assert report.flagged.all()


def test_damping_ratio_accurate_at_reference_sizing():
    # at dim=160, radius=6.3 the disk gap shrinks below 1e-4 at every
    # default sample point (oracle-measured 2.4e-6 ceiling)
    space = FockSpace(160)
    quad = plane_quadrature(space, radius=6.3, n_radial=80, n_angular=128)
    state = fock_coherent_state(space, 1.0)
    projector = np.outer(state, state.conj())
    report = verify_damping(space, projector, quad)
    assert not report.flagged.any()
    assert report.max_deviation < 1e-4


def test_plane_quadrature_points_property(quad):
    assert np.array_equal(quad.points, quad.alphas)
    assert len(quad) == len(quad.weights)


def test_lowering_matrix_is_built_on_first_use_and_read_only():
    space = FockSpace(8)
    assert not any(isinstance(v, np.ndarray) for v in vars(space).values())
    a = space.a
    assert a.dtype == complex and np.array_equal(a, np.diag(np.sqrt(np.arange(1, 8)), 1))
    assert not a.flags.writeable and space.a is a
    assert np.array_equal(space.adag, a.T)


def test_plane_rings_are_split_once_and_read_only(space):
    quad = plane_quadrature(space, radius=2.0, n_radial=6, n_angular=10)
    assert quad.rings is quad.rings
    radii, weights = quad.rings
    assert radii.shape == (6,) and weights.shape == (6, 10)
    roots = np.exp(2j * pi * np.arange(10) / 10)
    assert np.abs(radii[:, None] * roots - quad.alphas.reshape(6, 10)).max() < 1e-14
    assert np.array_equal(weights.ravel(), quad.weights)
    for array in quad.rings:
        assert not array.flags.writeable and array.flags.c_contiguous


def test_plane_rings_split_at_every_radius(space):
    # positions are compared relative to the largest radius: tiny disks keep their rings
    for radius in (1e-11, 1e-13, 1e-100, 2e-154):
        quad = plane_quadrature(space, radius=radius, n_radial=40, n_angular=64)
        radii, weights = quad.rings
        assert weights.shape == (40, 64)
        roots = np.exp(2j * pi * np.arange(64) / 64)
        assert np.abs(radii[:, None] * roots - quad.alphas.reshape(40, 64)).max() <= 1e-14 * radius
    # inside √tiny a squared radius is subnormal and rings may coincide: one ring
    for radius in (1e-160, 1e-170):
        quad = plane_quadrature(space, radius=radius, n_radial=40, n_angular=64)
        assert quad.rings[1].shape == (1, 40 * 64)


def test_nan_label_and_nan_radius_are_refused(space):
    for label in (np.nan, complex(0.5, np.nan), np.array([0.5, np.nan])):
        with pytest.raises(TruncationError):
            space.check_label(label)
    with pytest.raises(TruncationError):
        fock_coherent_state(space, np.nan)
    with pytest.raises(TruncationError):
        displacement_matrix(space, np.nan)
    with pytest.raises(ValueError, match="radius must be positive"):
        plane_quadrature(space, radius=np.nan)
