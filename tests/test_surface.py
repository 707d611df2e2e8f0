"""The package's public surface is exactly what the package itself runs.

A name only tests need lives in tests/ (helpers.py, oracle.py,
families.py), so adding one to singular_susy has to change this list, and
every public name, and every public method or property of an exported
class, must be read by some package module other than __init__.py.
"""

import ast
import types
from functools import cached_property
from pathlib import Path

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
    "Geometry",
    "SystemSpec",
    "WaveFunction",
    "boundary_data",
    "derivative_rep",
    "inverse_robin_length",
    "robin_matrix",
    "theta_for_scale",
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


def _uses(tree: ast.AST) -> set:
    """Names read in a module: loaded names and attribute names.  Imports,
    assignments and def/class statements bind names and do not count."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def _package_uses() -> set:
    package = Path(singular_susy.__file__).parent
    used = set()
    for path in package.glob("*.py"):
        if path.name != "__init__.py":
            used |= _uses(ast.parse(path.read_text(), filename=str(path)))
    return used


def test_every_public_name_is_used_by_the_package():
    assert PUBLIC - _package_uses() == set()


def test_every_public_member_is_used_by_the_package():
    """Methods and properties that only tests read live in tests/helpers.py;
    dataclass fields are data, not members, and are not listed."""
    kinds = (types.FunctionType, property, cached_property, classmethod, staticmethod)
    members = {
        "%s.%s" % (name, attr)
        for name in PUBLIC
        if isinstance(getattr(singular_susy, name), type)
        for attr, value in vars(getattr(singular_susy, name)).items()
        if not attr.startswith("_") and isinstance(value, kinds)
    }
    used = _package_uses()
    assert {m for m in members if m.split(".")[1] not in used} == set()
