"""Exception types shared across the package.

Every error that flags a bad argument or an infeasible request derives
from HullCountError, so callers can catch the whole family with one except
clause; most kinds also derive from ValueError. A failed integrality or
invariant check raises the builtin ArithmeticError instead (exact_count,
closed_spectrum, classify_hermitian, hull_spectrum, the field build): it
signals a wrong formula or a bug, not bad input, and verify reports it as
a failed cell, with the side (oracle or formula) that raised it.
FieldElem division by zero raises ZeroDivisionError, as numbers do.
"""


class HullCountError(Exception):
    """Base class for all package-specific errors."""


class BadRangeError(HullCountError, ValueError):
    """A structural parameter (length, dimension, order) is out of range."""


class BadIndexError(HullCountError, ValueError):
    """A running index lies outside its product range."""


class NonPrimeError(HullCountError, ValueError):
    """Field characteristic is not prime."""


class DegreeTooLargeError(HullCountError, ValueError):
    """Requested field order exceeds the supported table size."""


class BadSubfieldOrderError(HullCountError, ValueError):
    """Subfield order is not the square root of the field order."""


class NonSquareFieldError(HullCountError, ValueError):
    """Hermitian forms need a field of square order."""


class OddAmbientError(HullCountError, ValueError):
    """Symplectic forms need an even ambient length."""


class RankDeficientGeneratorError(HullCountError, ValueError):
    """Generator matrix rows are linearly dependent."""


class OutOfValidRangeError(HullCountError, ValueError):
    """Ratio factor undefined: the denominator count would be zero."""


class ParityViolationError(HullCountError, ValueError):
    """k - l must be even for symplectic hull parameters."""


class EvenCharacteristicError(HullCountError, ValueError):
    """Quadratic character is only defined in odd characteristic."""


class BadRegimeError(HullCountError, ValueError):
    """Asymptotic regime arguments are inconsistent."""


class WorkLimitExceededError(HullCountError):
    """Enumeration would exceed the configured work limit."""


class OddGramRankError(HullCountError):
    """Alternating Gram matrix reported odd rank: internal bug."""
