"""Supersymmetric quantum mechanics with a point singularity.

Classification of U(2) point interactions on the line and the interval by
the supersymmetry they admit, closed-form supercharges, secular-equation
spectra, and numerical verification of every claimed property.
"""

from .errors import (
    GeometryMismatchError,
    NotDiagonalError,
    NotNormalizableError,
    NotUnitaryError,
    ParseError,
    PrecisionLossError,
    SingularSusyError,
    ThetaPiError,
)
from .matkit import (
    IDENTITY,
    SIGMA1,
    SIGMA2,
    SIGMA3,
    circular_distance,
    conjugate,
    diagonalize_u2,
    euler_angles_of,
    is_unitary,
    pauli_combination,
    pauli_vector,
    su2_from_euler,
)
from .system import (
    Geometry,
    SystemSpec,
    WaveFunction,
    boundary_data,
    derivative_rep,
    inverse_robin_length,
    robin_matrix,
    theta_for_scale,
)
from .spectra import (
    Level,
    Spectrum,
    solve_interval_spectrum,
    solve_line_bound_states,
    solve_spectrum,
)
from .classify import (
    SuperchargeSpec,
    SusyClassification,
    admits_susy_at_point,
    annihilates,
    classify_system,
    half_parity_system,
)
from .verify import (
    CheckResult,
    VerificationReport,
    check_algebra,
    check_degeneracy_pairing,
    check_domain_preservation,
    check_lower_bound,
    deficiency_indices,
    run_verification,
    susy_boundary_form,
    witten_parity_search,
)

__version__ = "0.1.0"
