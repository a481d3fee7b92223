"""Error types shared across the library.

Division by zero in arithmetic raises the builtin ZeroDivisionError.
Parsing does not: a zero denominator in text is a ParseError.
"""


class NotPrime(ValueError):
    """Field characteristic is not a prime number."""


class Unsupported(ValueError):
    """Request is outside the supported desk-scale regime."""


class MixedFields(ValueError):
    """Operands belong to different fields or rings."""


class ZeroPolynomial(ValueError):
    """Operation is undefined for the zero polynomial."""


class NotInRing(ValueError):
    """Fraction does not belong to the given localization."""


class Singular(ValueError):
    """Matrix (or Moebius parameter block) is not invertible."""


class NotStabilizing(ValueError):
    """Ring automorphism does not map the localization into itself."""


class UnitInput(ValueError):
    """A non-unit was required but a unit was supplied."""


class CapExceeded(RuntimeError):
    """Enumeration or search exceeded its configured cap."""


class NoForm(ValueError):
    """Group family carries no bilinear form."""


class SizeMismatch(ValueError):
    """Matrix size does not match the group context."""


class NotProjective(ValueError):
    """Operation only applies to projective group kinds."""


class IncompatibleKind(ValueError):
    """Group elements or automorphisms come from incompatible contexts."""


class PreconditionFailed(ValueError):
    """A stated precondition of the operation does not hold."""


class ZeroLambda(ValueError):
    """Witness parameter must be nonzero."""


class NotUnit(ValueError):
    """A unit of the ring was required."""


class TrialityUnsupported(ValueError):
    """Order-three diagram symmetries are outside this library's scope."""


class BadRank(ValueError):
    """Rank parameter out of range for the requested construction."""


class CertificateMismatch(RuntimeError):
    """Two independent computations of a certificate disagree."""


class NotInGroup(ValueError):
    """Matrix is not an element of the group it was given for: a group
    context (wrong determinant or form) or an enumerated finite group."""


class ParseError(ValueError):
    """Text input does not follow the expected grammar."""
