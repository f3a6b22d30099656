"""Exception hierarchy shared across the package."""


class IwsError(Exception):
    """Base class for all domain errors."""


class InvariantViolation(IwsError):
    """A domain-type invariant does not hold (bad markers, non-finite data, ...)."""


class MalformedFile(IwsError):
    """A trial/manifest/config file violates its schema.

    The message names the offending field path.
    """


class ConfigError(IwsError):
    """A run or generator configuration is invalid; message names the field."""


class SegmentTooShort(IwsError):
    """A trial segment cannot host a single full analysis window."""


class DecompositionFailure(IwsError):
    """EMD could not extract a single intrinsic mode function."""


class EmptyInput(IwsError):
    """An operation received an empty sequence/collection."""


class InputTooShort(IwsError):
    """A sequence is shorter than the operation's minimum length."""


class DegenerateScaling(IwsError):
    """Too few valid lag points to fit a scaling exponent."""


class TooFewTrials(IwsError):
    """A subject has fewer trials than the cross-validation scheme needs."""


class SingleClassTraining(IwsError):
    """Training data contains only one class where two are required."""


class WidthMismatch(IwsError):
    """Feature width at prediction time differs from training width."""


class LayoutMismatch(IwsError):
    """A feature row or matrix has the wrong width for its operation: sets
    assembled out of order, or a width other than the scaler's or PCA's."""


class LengthMismatch(IwsError):
    """Prediction and truth vectors differ in length."""


class NumericalFailure(IwsError):
    """A numerical routine (eigensolve, optimizer) failed to converge."""
