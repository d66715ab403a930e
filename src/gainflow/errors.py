"""Exception types shared across the package."""


class GainflowError(Exception):
    """Base class for every error raised by this package."""


class SingularMatrix(GainflowError):
    """A linear solve hit a pivot below the singularity threshold."""


class NoConvergence(GainflowError):
    """The eigenvalue iteration failed to converge."""


class NotSymmetric(GainflowError):
    """A matrix required to be symmetric is not, beyond tolerance."""


class NotInSigmaSet(GainflowError):
    """The closed loop shares an eigenvalue with its negation, so the value
    equation has no unique solution."""


class NotStabilizing(GainflowError):
    """The gain does not place the closed loop strictly in the open left
    half-plane."""


class MaxIterExceeded(GainflowError):
    """Iteration budget exhausted before reaching the requested tolerance."""


class NotPD(GainflowError):
    """A matrix required to be positive definite is not."""


class NonFiniteValue(GainflowError):
    """A computed value (here, a flow direction) overflowed to inf or NaN."""


class DegenerateStart(GainflowError):
    """The trajectory starts exactly at the reference gain, so normalized
    residuals are undefined."""


class GenerationFailure(GainflowError):
    """Random instance generation exhausted its resampling budget."""


class SamplingFailure(GainflowError):
    """Rejection sampling for a stabilizing gain exhausted its budget."""
