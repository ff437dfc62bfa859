"""Exception types shared across the package.

Every failure that callers are expected to catch derives from CentraError.
DivisionByZeroError additionally derives from ZeroDivisionError so that
generic numeric code keeps working.
"""


class CentraError(ValueError):
    """Base class for all domain errors raised by this package."""


class DivisionByZeroError(CentraError, ZeroDivisionError):
    """Division by the zero scalar of a field."""


class FieldMismatchError(CentraError):
    """Operands belong to different fields."""


class BothZeroError(CentraError):
    """gcd of the zero polynomial with itself is undefined."""


class NotMonicError(CentraError):
    """A monic polynomial was required."""


class DegreeZeroError(CentraError):
    """A polynomial of positive degree was required."""


class IrreducibilityUnsupportedError(CentraError):
    """No exact irreducibility test is available for this field."""


class ReducibleError(CentraError):
    """The polynomial factors, violating the irreducibility hypothesis."""


class ShapeMismatchError(CentraError):
    """Matrix dimensions are not compatible with the operation."""


class NotSquareError(ShapeMismatchError):
    """A square matrix was required."""


class BadPermutationError(CentraError):
    """A block permutation is not a bijection on block indices."""


class NonSeparableFirstKindError(CentraError):
    """First-kind blocks require a separable polynomial."""


class NotSortedDescendingError(CentraError):
    """A partition must be listed in nonincreasing order."""


class NonPositivePartError(CentraError):
    """Partition parts must be positive integers."""


class NotMultipleOfSError(CentraError):
    """A kernel-dimension jump is not divisible by deg p."""


class NoSolutionError(CentraError):
    """The coupling equation has no solution for the given data."""


class FormulaMismatchError(CentraError):
    """Two formulas that must agree returned different values."""


class NotInCentralizerError(CentraError):
    """The matrix does not commute with the canonical form."""


class NotCoprimeError(CentraError):
    """Minimal polynomials of the summands share a factor."""


class LengthMismatchError(CentraError):
    """A coefficient list does not match the basis length."""


class TooLargeError(CentraError):
    """An input exceeds algebra.SIZE_CAP, the oracle's size cap or
    Python's digit limit on converting integers to and from text."""


class SingularMatrixError(CentraError):
    """A nonsingular matrix was required."""


class ParseError(CentraError):
    """Malformed scalar, polynomial, or matrix text."""
