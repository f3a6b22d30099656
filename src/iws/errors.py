"""Exception hierarchy shared across the package.

A class exists only where some handler or reader tells it apart.  The CLI
maps each error to its exit code by family, in this order: ``ConfigError``
exits 2, ``NumericalFailure`` and its subclasses exit 4, and every other
``IwsError`` (and an ``OSError``) exits 3.
"""


class IwsError(Exception):
    """Base class for all domain errors."""


class InvariantViolation(IwsError):
    """A domain-type invariant does not hold: bad markers, non-finite data or
    features, an empty or too-short input, a width or length that does not
    match its operation's, or training data with one class only."""


class MalformedFile(IwsError):
    """A trial/manifest/config file violates its schema.

    The message names the offending field path.
    """


class ConfigError(IwsError):
    """A run or generator configuration is invalid; message names the field."""


class SegmentTooShort(IwsError):
    """A trial segment cannot host a single full analysis window."""


class TooFewTrials(IwsError):
    """A subject has fewer trials than the cross-validation scheme needs."""


class NumericalFailure(IwsError):
    """A numerical routine failed: an eigensolve that does not converge, EMD
    that extracts no IMF, or a scaling fit with too few valid lag points."""


class DecompositionFailure(NumericalFailure):
    """EMD could not extract a single intrinsic mode function."""


class DegenerateScaling(NumericalFailure):
    """Too few valid lag points to fit a scaling exponent."""
