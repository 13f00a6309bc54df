"""Verification toolkit for Lüders channels generated by coherent-state POVMs.

Spin (SU(2)) channels damp each spherical-harmonic sector by a squared
Clebsch-Gordan factor and fix only the identity; the particle
(Heisenberg-Weyl) channel realizes anti-normal ordering and fixes the
(2N+1)-dimensional family spanned by the identity and (a^n ± a†^n)
combinations.  Modules: channel (the Lüders core shared by both families:
POVM sums, Q-symbols and channel images from a state matrix or from the
ring factors of a product grid, U(1) charge blocks; the dense
superoperator as reference), spin,
fock (the two concrete POVMs), expr/ordering (exact symbolic engine),
cli/reports (verification front end).
"""

__version__ = "0.1.0"

from .channel import (
    RingFactors,
    SpectralReport,
    SuperoperatorMatrix,
    WeightedProjectorFamily,
    apply_channel,
    build_luders_channel,
    channel_spectrum,
    charge_block_spectrum,
    charge_blocks,
    choi_matrix,
    luders_image,
    q_symbols,
    resolution,
    ring_luders_image,
    ring_q_symbols,
    ring_resolution,
)
from .expr import ComplexRational, ParseError, parse_expression, to_source
from .fock import (
    FockSpace,
    PlaneQuadrature,
    TruncationError,
    displacement_matrix,
    fock_coherent_state,
    grid_channel_apply,
    plane_quadrature,
    q_symbol_fock,
    verify_damping,
)
from .ordering import (
    AntiNormalPolynomial,
    LuedersFamilyCoefficients,
    NormalPolynomial,
    anti_normal_order,
    is_well_ordered,
    luders_fixed_space,
    luders_symbolic,
    normal_order,
    to_matrix,
)
from .spin import (
    SpherePoint,
    SphereQuadrature,
    SpinSpace,
    harmonic_coefficients,
    overlap_squared,
    q_symbol_spin,
    ring_factors,
    sphere_quadrature,
    spin_coherent_state,
    tau_spin,
)

__all__ = [name for name in dir() if not name.startswith("_")]
