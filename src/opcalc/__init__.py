"""Finite-matrix calculus for functions of normal operators under perturbation.

The package verifies, at matrix scale, the exact identities and certified
bounds connecting double operator integrals, divided-difference Schur
multipliers, sampling-basis factorizations, dyadic function seminorms, and
Schatten-ideal functionals — with every identity checked against a
brute-force functional-calculus oracle.
"""

from .bandlimited import (
    DEFAULT_WINDOW,
    CutoffWindow,
    ModulusOfContinuity,
    TrigPolynomial,
    TrigSlice,
    besov_b1inf1_norm,
    jackson_check,
    lp_piece,
    lp_pieces,
    omega_star,
    partial_derivative,
    random_trig_polynomial,
    seminorm_estimate,
    slice_x,
    slice_y,
    sup_norm,
    vp_smooth,
)
from .doi import (
    DoiKernel,
    difference_via_doi,
    divided_difference_kernel,
    doi_apply,
    quasicommutator_via_doi,
    schur_norm_bracket,
)
from .ideals import (
    IdealSpec,
    averaging_constant_check,
    beta_d_estimate,
    boyd_index_estimate,
    dilate_spectrum,
    kyfan_holder_check,
    majorization_le,
    sigma_averages,
    singular_values,
)
from .perturbation import (
    ConvexBody,
    ExperimentReport,
    certified_lipschitz_constant,
    certified_modulus_bound,
    experiment_fuglede_ratio,
    experiment_holder_sweep,
    experiment_quasicommutator,
    experiment_schatten_decay,
    extend_by_projection,
    project_convex,
)
from .sinc import (
    haagerup_factorization,
    reconstruct_dd,
    reproducing_integral,
    row_energy,
    row_energy_integral,
    sinc_basis,
)
from .spectral import (
    SpectralDecomposition,
    diagonalize,
    functional_calculus,
    normality_defect,
    parts,
    random_normal,
)

__version__ = "0.1.0"
