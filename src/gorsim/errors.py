"""Exception types shared across the package."""


class GorsimError(Exception):
    """Base class for all package errors."""


class SingularMatrix(GorsimError):
    """Square integer matrix has determinant zero where a nonsingular one is required."""


class DegenerateSimplex(GorsimError):
    """Vertex set does not span: the simplex has zero normalized volume."""


class NonIntegralHeight(GorsimError):
    """A group element has a non-integer coordinate sum in strict mode."""


class NotGorenstein(GorsimError):
    """Delta polynomial is not palindromic, so no Gorenstein index exists."""


class DimensionTooSmall(GorsimError):
    """Requested ambient dimension cannot hold the target delta polynomial."""


class BudgetExceeded(GorsimError):
    """An enumeration hit its configured work ceiling.

    Carries whatever partial progress was made so callers can report it.
    """

    def __init__(self, message, partial=None, used=None):
        super().__init__(message)
        self.partial = partial
        self.used = used


class InvalidParams(GorsimError):
    """Family parameters fail validation (non-prime p, p = q, k < 0, ...)."""


class InvalidChain(GorsimError):
    """Divisor chain is not strictly increasing with each term dividing the next."""


class NoVertexForm(GorsimError):
    """Requested family has no explicit vertex construction."""


class UnsupportedVolume(GorsimError):
    """Volume is not a prime, p**2 or pq, so no expected classification exists."""


class BoundViolation(GorsimError):
    """A classified group falls outside the proven dimension bounds."""


class SearchInvariantError(GorsimError):
    """A class found by the search fails the order or delta it must have."""


class CriterionFailed(GorsimError):
    """An acceptance criterion found a result that contradicts its claim."""
