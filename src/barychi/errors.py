"""Exception types shared across the package."""


class BarychiError(Exception):
    """Base class for all input and domain errors raised by this package."""


class InputFormatError(BarychiError):
    """A fraction string, weight list, or instance document could not be parsed."""


class NonPositiveWeight(BarychiError):
    """Every singular-point weight must be strictly positive."""


class NonPositiveRho(BarychiError):
    """The total-mass bound rho must be strictly positive."""


class InconsistentComponents(BarychiError):
    """Component data does not reconcile with the instance totals."""


class TooManySingularPoints(BarychiError):
    """Singular-point count exceeds the subset-enumeration cap."""


class TooManyLevels(BarychiError):
    """A route would walk more levels of rho than its cap."""


class TooManyDigits(BarychiError):
    """A result has more digits than Python converts to text
    (``sys.get_int_max_str_digits()``)."""


class NoVertices(BarychiError, ValueError):
    """A finite space needs at least one vertex."""


class TooManyWeights(BarychiError, ValueError):
    """A finite space lists more vertex weights than it has vertices."""


class TooManyVertices(BarychiError):
    """Finite-space vertex count exceeds the face-enumeration cap."""


class WeightOutOfRange(BarychiError):
    """A weight lies outside the range an operation is defined for."""


class OutOfScope(BarychiError):
    """The requested homotopy classification is outside the proved case tables."""
