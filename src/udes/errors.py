"""Exception types shared across the package.

Each class names the violated precondition; all inherit from UdesError so
callers can catch everything coming out of this library in one clause.
"""


class UdesError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(UdesError):
    """Operands have incompatible shapes."""


class NotUnitary(UdesError):
    """A matrix failed the unitarity check ``||U^H U - 1||_HS <= tol``."""


class NotSpecialUnitary(UdesError):
    """A matrix is unitary but its determinant is not 1 within tolerance."""


class NonUnitAxis(UdesError):
    """A rotation axis does not have unit Euclidean norm."""


class NonUnitQuaternion(UdesError):
    """A quaternion does not lie on the unit 3-sphere within tolerance."""


class NonUnitPoint(UdesError):
    """A point expected on the unit 3-sphere is off it."""


class NotRotation(UdesError):
    """A 3x3 matrix is not orthogonal with determinant +1 within tolerance."""


class UnsupportedOrder(UdesError):
    """The moment order t has no closed-form Haar oracle here, or would overflow."""


class DuplicateElements(UdesError):
    """A unitary set contains two elements closer than the distinctness tolerance."""


class NotOrthogonalBasis(UdesError):
    """Four unitaries are not pairwise Hilbert-Schmidt orthogonal (or not four)."""


class NotUnitaryElements(UdesError):
    """An element of a would-be unitary set is not unitary."""


class NotMinimal1Design(UdesError):
    """A set cannot be classified as a minimum-size 1-design."""


class UnknownName(UdesError):
    """No built-in design under the requested name."""


class ProportionalElements(UdesError):
    """Two set elements differ only by a phase, so no closure exists."""


class NotHalfInteger(UdesError):
    """A quaternion expected at half-integer coordinates is not there."""


class InternalConsistencyError(UdesError):
    """Two mathematically equivalent checks disagreed: a bug or a bad tolerance."""
