"""Exception types shared across the package."""


class SingularSusyError(Exception):
    """Base class for all library errors."""


class NotUnitaryError(SingularSusyError):
    """A matrix expected to be unitary is not, within tolerance."""


class NotDiagonalError(SingularSusyError):
    """A matrix expected to be diagonal has off-diagonal entries."""


class GeometryMismatchError(SingularSusyError):
    """The operation requires the other geometry (line vs interval)."""


class ThetaPiError(SingularSusyError):
    """The boundary angle pi is excluded: no finite Robin scale exists there."""


class NotNormalizableError(SingularSusyError):
    """The wavefunction has no finite L2 norm on its geometry."""


class PrecisionLossError(SingularSusyError):
    """A result that float64 arithmetic cannot resolve; the message names the regime."""


class ParseError(SingularSusyError):
    """A JSON system description is malformed; the message names the field."""
