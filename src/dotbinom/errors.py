"""Exception types shared across the package."""


class DotAnalogueError(Exception):
    """Base class for every package-specific error."""


class NotPrime(DotAnalogueError):
    """Characteristic is not a prime number."""


class EvenCharacteristic(DotAnalogueError):
    """Characteristic 2 is out of scope; the forms need 2 invertible."""


class DegreeOutOfRange(DotAnalogueError):
    """Extension degree or field order outside the supported bounds."""


class DivisionByZero(DotAnalogueError, ZeroDivisionError):
    """Multiplicative inverse of zero requested."""


class DimensionMismatch(DotAnalogueError):
    """Vector length does not match the ambient dimension."""


class NotALine(DotAnalogueError):
    """line_type called on a subspace of dimension != 1."""


class AmbientMismatch(DotAnalogueError):
    """Operands live in different ambient spaces."""


class MissingDependency(DotAnalogueError):
    """An optional dependency the command needs is not installed."""


class BudgetExceeded(DotAnalogueError):
    """Enumeration would exceed the configured object budget."""


class InvalidQ(DotAnalogueError):
    """q is not an odd prime power."""


class UnsupportedFlavor(DotAnalogueError):
    """Unknown bracket flavor."""


class UndefinedForParameters(DotAnalogueError):
    """No convention covers the requested parameters."""


class ExactDivisionFailed(DotAnalogueError):
    """A division that must be exact left a remainder."""


class IdentityViolated(DotAnalogueError):
    """An identity that must hold exactly failed; args carry the witnesses."""


class Mismatch(DotAnalogueError):
    """Two routes to the same value disagree; args carry both values."""


class NeitherSign(DotAnalogueError):
    """Depressed coefficients are neither symmetric nor anti-symmetric."""
