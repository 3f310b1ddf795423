"""Exception hierarchy shared across the package."""


class KissError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(KissError):
    """A vector or column length disagrees with the matrix it extends."""


class InfeasibleColumn(KissError):
    """An accepted extension failed revalidation of the state invariants."""


class InvalidState(KissError):
    """A Gram state violates one of its structural invariants."""


class RankDeficientBasis(KissError):
    """The leading dim-sized block is singular; rows must be reordered first."""


class RankDeficient(KissError):
    """A stacked center matrix does not have full row rank."""


class MixedModeEntries(KissError):
    """Exact arithmetic was requested on a matrix containing float entries."""


class EmptyCandidates(KissError):
    """Action selection was called with no candidates."""


class ProtectedRow(KissError):
    """A deletion set touches rows marked as protected."""


class ParseError(KissError):
    """A file or scalar literal does not conform to its format."""


class NonUnitVector(KissError):
    """An ingested vector is not unit norm beyond tolerance."""


class CosineCapViolation(KissError):
    """A pairwise cosine exceeds the non-overlap cap of 1/2."""


class ConfigError(KissError):
    """A run configuration file is malformed or contains unknown keys."""


class InvalidSeed(ConfigError):
    """The configured seed cannot start the run: it holds no rows or fewer
    than asked for, has another dimension, lacks the exact cosines rational
    mode needs or the anchors a member list needs, or violates the Gram
    invariants.  It is a config error, raised before a search writes output."""


class CheckpointError(KissError):
    """A checkpoint file is corrupt or fails its integrity check."""


class EnumerationOverflow(KissError):
    """Candidate enumeration exceeded the configured width guard."""


class SoundnessError(KissError):
    """A run claimed a reward above a provably optimal kissing number."""
