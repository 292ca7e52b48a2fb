"""Exception types shared across the package.

Only errors some caller tells apart get a class; bad input is ValueError.
`cli.main` maps BrokenInvariant to exit 1, DimensionTooLarge to exit 3 and
every other class here to exit 2.
"""


class TritradeError(Exception):
    """Base class for all package-specific errors."""


class NotAUnitrade(TritradeError):
    """The given set fails the 0-or-2 line intersection property."""


class BrokenInvariant(TritradeError):
    """A result breaks an identity the theory guarantees: a bug, not bad input."""


class DimensionTooLarge(TritradeError):
    """Exact computation is not supported at this dimension."""


class DimensionTooSmall(TritradeError):
    """Construction needs a higher dimension."""


class PreconditionFailed(TritradeError):
    """Input is a mod-2 sum of two bitrades; carries the witness pair."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness
