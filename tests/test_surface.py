"""The package's public surface is exactly what the package itself runs.

A name only tests need lives in tests/ (helpers.py, oracle.py,
families.py), so adding one to singular_susy has to change this list.
"""

import types

import singular_susy

PUBLIC = {
    # errors
    "GeometryMismatchError",
    "NotDiagonalError",
    "NotNormalizableError",
    "NotUnitaryError",
    "ParseError",
    "PrecisionLossError",
    "SingularSusyError",
    "ThetaPiError",
    # matkit
    "IDENTITY",
    "SIGMA1",
    "SIGMA2",
    "SIGMA3",
    "circular_distance",
    "conjugate",
    "diagonalize_u2",
    "euler_angles_of",
    "is_unitary",
    "pauli_combination",
    "pauli_vector",
    "su2_from_euler",
    # system
    "BoundaryData",
    "Geometry",
    "SystemSpec",
    "WaveFunction",
    "boundary_data",
    "connection_residual",
    "derivative_rep",
    "half_parity",
    "inverse_robin_length",
    "l2_norm",
    "normalize",
    "robin_matrix",
    "theta_for_scale",
    "wall_residual",
    "wf_inner",
    # spectra
    "Level",
    "Spectrum",
    "solve_interval_spectrum",
    "solve_line_bound_states",
    "solve_spectrum",
    # classify
    "SuperchargeSpec",
    "SusyClassification",
    "admits_susy_at_point",
    "annihilates",
    "classify_system",
    "half_parity_system",
    # verify
    "CheckResult",
    "VerificationReport",
    "check_algebra",
    "check_degeneracy_pairing",
    "check_domain_preservation",
    "check_lower_bound",
    "deficiency_indices",
    "run_verification",
    "susy_boundary_form",
    "witten_parity_search",
}


def test_public_surface_is_pinned():
    names = {
        name
        for name, value in vars(singular_susy).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert names == PUBLIC
