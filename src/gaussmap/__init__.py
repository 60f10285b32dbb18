"""Gaussian maps on bosonic states: validity, classification, normal forms.

The package covers five areas: symplectic linear algebra on covariance
matrices, Gaussian states and maps in phase space, the classification
of maps that send Gaussian states to Gaussian states, coefficient
sequences of dilated Fock states with mixture probing, and a command
line wrapping all of it.
"""

__version__ = "0.1.0"

from .symplectic import (
    standard_form,
    is_symplectic,
    symplectic_eigenvalues,
    covariance_spectrum,
    is_valid_covariance,
)
from .gaussian import (
    GaussianState,
    GaussianMap,
    char_function,
    wigner_function,
    apply_map,
    apply_map_char,
    compose,
    dilatation,
    transposition,
    transposition_matrix,
)
from .classify import (
    ClassificationReport,
    HSolution,
    NormalForm,
    Witness,
    delta_K,
    direction_margin,
    solve_h,
    is_g2g,
    is_cp,
    is_classical_g2g,
    classify,
    decompose,
    rescale_domain,
    partial_transpose_example,
    q_exchange_example,
)
from .fockprobe import (
    FockCoefficients,
    ProbeResult,
    dilated_fock_coefficients,
    dilated_fock_sweep,
    trace_norm_sum,
    hs_norm_check,
    probe_fock_mixture,
    airy_limit_error,
)
