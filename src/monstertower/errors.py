"""Exception hierarchy shared by all monstertower modules."""


class MonsterTowerError(Exception):
    """Base class for every error raised by this package."""


class ParseError(MonsterTowerError):
    """Malformed textual input. Carries the offending position when known."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


# -- word errors ------------------------------------------------------------

class InvalidSymbol(ParseError):
    """A character outside the R/V/T alphabet."""


class LeadingNonR(ParseError):
    """A nonempty code word must start with R."""


class OrphanT(ParseError):
    """T may only appear immediately after V or T."""


class EmptyWord(MonsterTowerError):
    """Operation requires a nonempty word."""


class NotCritical(MonsterTowerError):
    """Operation requires a critical word (last symbol V or T)."""


class LevelOutOfRange(MonsterTowerError):
    """Requested split level exceeds the word length."""


class MalformedString(MonsterTowerError):
    """String is not of the R^rho Q shape required by the E map."""


# -- series errors ----------------------------------------------------------

class IndeterminateValuation(MonsterTowerError):
    """The series is identically zero, or has no degree bound and its window
    reads zero, so there is no valuation to read off."""


class NegativeValuation(MonsterTowerError):
    """Series quotient would have a pole (wrong chart choice)."""


# -- Puiseux characteristic errors ------------------------------------------

class InvalidCharacteristic(MonsterTowerError):
    """Exponent list violates the Puiseux characteristic invariants."""


class TrivialCharacteristic(MonsterTowerError):
    """[1;] carries no case information."""


class RemainderInvalid(MonsterTowerError):
    """Restriction remainder does not yield a valid characteristic."""


class NotCoprime(MonsterTowerError):
    """Euclidean word construction needs coprime arguments."""


class BadOrder(MonsterTowerError):
    """Euclidean word construction needs a < b."""


# -- lifting / blowup errors -------------------------------------------------

class MaxLevelExceeded(MonsterTowerError):
    """Regularity not reached within the level budget."""


class ConstantParameterization(MonsterTowerError):
    """Curve data is identically constant; nothing to lift or integrate."""


class NonPrimitiveParameterization(MonsterTowerError):
    """The parameterization is a cover: all exponents share a factor, or a
    coordinate is identically constant while the other is singular."""


class IntegrationMismatch(MonsterTowerError):
    """Chart path letters conflict with the valuations of the rebuilt curve."""


class MismatchReport(MonsterTowerError):
    """The Nash and blowup engines disagree. Carries both traces."""

    def __init__(self, message: str, report=None):
        self.report = report
        super().__init__(message)
