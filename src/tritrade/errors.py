"""Exception types shared across the package."""


class TritradeError(Exception):
    """Base class for all package-specific errors."""


class NotAUnitrade(TritradeError):
    """The given set fails the 0-or-2 line intersection property."""


class BadBaseWord(TritradeError):
    """Base word of a signed-subcube basis function contains a maximal digit."""


class EmptyCatalog(TritradeError):
    """A statistic was requested over an empty trade catalog."""


class OrbitTooLarge(TritradeError):
    """Orbit closure exceeded the configured element limit."""


class BrokenInvariant(TritradeError):
    """A result breaks an identity the theory guarantees: a bug, not bad input."""


class DimensionTooLarge(TritradeError):
    """Exact computation is not supported at this dimension."""


class DimensionTooSmall(TritradeError):
    """Construction needs a higher dimension."""


class TooManyMonomials(TritradeError):
    """Subset expansion over the monomial set would be too large."""


class ProfileHasEqualColumns(TritradeError):
    """Triple cardinality formula assumes no column where all rows agree."""


class DegenerateTriple(TritradeError):
    """Monomial triple collapses to rank <= 2 under distance-1 reduction."""


class BadS(TritradeError):
    """Subcube-agreement parameter outside 0..n-1."""


class NotBalanced(TritradeError):
    """Boolean function is not almost balanced in every face."""


class PreconditionUnverifiable(TritradeError):
    """Recovery inequality fails for the recovered monomial set."""


class AmbiguousRecovery(TritradeError):
    """Recovered monomial set does not reproduce the input set."""


class PreconditionFailed(TritradeError):
    """Input is a mod-2 sum of two bitrades; carries the witness pair."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class RankDefect(TritradeError):
    """Linear system ranks disagree with the expected dimensions."""


class OutOfRange(TritradeError):
    """Cardinality outside the window the predicate covers."""

