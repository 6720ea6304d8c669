"""Exception types shared across the package."""


class PolyrecError(Exception):
    """Base class for all package-specific errors.

    `exit_code` is the status the command line exits with: 2 for usage
    errors (the default), 3 for the numeric failures of `_NumericFailure`.
    """

    exit_code = 2


class _NumericFailure(PolyrecError):
    """Base class for the numeric failures: exit code 3."""

    exit_code = 3


class InvalidIndexError(PolyrecError):
    """A recurrence was asked for an index outside its valid range."""


class NonzeroConstantTermError(_NumericFailure):
    """series_exp requires an exponent whose EGF coefficient g[0] is zero."""


class UnsupportedShapeError(PolyrecError):
    """A recurrence spec falls outside the shape an operation supports."""


class UnknownFamilyError(PolyrecError):
    """Requested family name is not in the catalog."""


class ParameterError(PolyrecError):
    """A family parameter is missing or out of range."""


class SizeGuardError(PolyrecError):
    """The partition oracle's walk spent its profile budget short of its row."""


class InvalidDistributionError(_NumericFailure):
    """A polynomial with a negative coefficient cannot define a PMF."""


class ZeroMassError(_NumericFailure):
    """A zero polynomial carries no probability mass."""


class ZeroVarianceError(_NumericFailure):
    """Normality diagnostics need strictly positive variance."""


class UnitMassError(_NumericFailure):
    """A row of total mass 1 has log total 0, so no relative error of the
    log-total estimate exists for it."""


class SaddleFailureError(_NumericFailure):
    """The saddle-point equation could not be solved for this input."""


class SaddleOverflowError(_NumericFailure):
    """A float the saddle solver needs is past the double range."""


class ParseError(PolyrecError):
    """Rejected spec text, carrying the offending position.

    Renders as "origin:line:column: message" so editors can jump to the
    spot; line and column are 1-based.
    """

    def __init__(self, origin: str, line: int, column: int, message: str):
        super().__init__(f"{origin}:{line}:{column}: {message}")
        self.origin = origin
        self.line = line
        self.column = column
        self.reason = message
