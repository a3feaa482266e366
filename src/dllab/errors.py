"""Shared exception types."""


class DLLabError(Exception):
    """Base class for library errors."""


class MixedOrderError(DLLabError):
    """Cyclotomic operands or characters over different root orders."""


class RootOrderError(DLLabError):
    """A root order R is not divisible by an order the construction needs."""


class NotInSubfieldError(DLLabError):
    """Element does not lie in the requested subfield."""


class SizeLimitExceededError(DLLabError):
    """An enumeration would exceed the configured size bound."""


class UnsupportedParametersError(DLLabError):
    """Parameter combination outside the supported range."""


class MatrixShapeError(DLLabError):
    """A matrix or determinant does not have the shape its construction
    requires or guarantees."""


class OperandMismatchError(DLLabError):
    """Series operands over different coefficient fields, or batches with
    different row counts."""


class OutsideSubgroupError(DLLabError):
    """A group element lies outside the subgroup a map or character is
    defined on."""


class NotInvariantError(DLLabError):
    """Representation is not invariant under the requested conjugation."""


class NoExtensionError(DLLabError):
    """No extension with the requested trace exists."""


class NotIntegralError(DLLabError):
    """An inner product failed to reduce to a nonnegative integer."""


class InexactDivisionError(DLLabError):
    """A polynomial division that must be exact leaves a remainder."""


class IdentityFailsError(DLLabError):
    """A claimed sum identity does not hold; carries both values."""


class CharacterMismatchError(DLLabError):
    """Two class functions expected to agree differ; carries the witness."""


class PrecisionLossError(DLLabError):
    """A series operation would leave the tracked precision window."""


class AllZeroError(DLLabError):
    """Valuation of the zero series/matrix, or the inverse of zero, requested."""
