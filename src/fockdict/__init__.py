"""Numerical dictionary between L2(R) and the Fock space of entire functions."""

from .fock import FockVector, inner, evaluate, kernel_vector
from .hermite import (
    LineVector,
    QuadratureRule,
    gauss_hermite,
    gauss_hermite_plane,
    hermite_function,
    interval_coeffs,
    project_line,
)
from .bargmann import (
    BargmannPipeline,
    bargmann_coeff,
    bargmann_quadrature,
    fock_sup_norm,
    inverse_bargmann_quadrature,
    verify_pbound,
)
from .operators import (
    OperatorMatrix,
    a1_matrix,
    a2_matrix,
    dilation_fock,
    dilation_matrix,
    fourier_fock,
    md_matrices,
    rotation,
    spectral_projection,
    translation_modulation_fock,
    weyl_matrix,
)
from .singular import (
    EntireSymbol,
    antiderivative_coeffs,
    berezin_check,
    boundedness_probe,
    fock_norm_A,
    hilbert_fock_matrix,
    s_phi_matrix,
)
from .gabor import (
    DensityReport,
    PointSet,
    box_frame_gram,
    box_window_coeffs,
    box_window_fock,
    density_estimate,
    density_frame_predicate,
    frame_bounds_finite,
    lattice_frame_predicate,
    linear_independence_check,
    separation_check,
)
from .uncertainty import (
    ExtremalParams,
    extremal_coeffs,
    s1_matrix,
    s2_matrix,
    uncertainty_gap,
    uncertainty_product,
)
from .quantize import (
    PhasePolynomial,
    PolySymbol,
    anti_wick_matrix,
    anti_wick_toeplitz_residual,
    heat_symbol,
    toeplitz_monomial_matrix,
    toeplitz_poly_matrix,
    weyl_quantize_poly,
    weyl_toeplitz_residual,
)

__version__ = "0.1.0"
