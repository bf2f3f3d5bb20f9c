"""Exception types shared across the package."""

import copyreg


class PopboError(Exception):
    """Base class for all package-specific errors.

    Attributes:
        trace: on any error raised during a run, the RegretTrace recorded
            before it (attached by the run loop); absent otherwise.
    """

    def __reduce__(self):
        # Rebuild from args and attributes: subclass constructors differ.
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class DomainError(PopboError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class InputError(PopboError, ValueError):
    """Malformed input data (wrong shape, non-finite entries, empty set)."""


class PreconditionError(PopboError, ValueError):
    """A documented operation precondition does not hold."""


class TrainingDivergedError(PopboError, RuntimeError):
    """Training produced a non-finite loss or gradient.

    Attributes:
        step: index of the optimizer step at which divergence was detected.
    """

    def __init__(self, step: int, message: str | None = None):
        self.step = step
        super().__init__(message or f"non-finite training loss or gradient at step {step}")


class RectifiedRegionError(PopboError, RuntimeError):
    """Gradient requested at a point inside the rectified (frozen) region.

    Attributes:
        rate: predicted rate at the offending point.
        threshold: rectification threshold q * n_obs.
    """

    def __init__(self, rate: float, threshold: float):
        self.rate = rate
        self.threshold = threshold
        super().__init__(
            f"point is rectified (rate {rate:.6g} >= threshold {threshold:.6g}); "
            "no gradient is defined there"
        )


class EvaluationFailedError(PopboError, RuntimeError):
    """Objective evaluation raised; it carries the trace recorded before it."""

    def __init__(self, trace, cause: BaseException):
        self.trace = trace
        super().__init__(f"objective evaluation failed: {cause!r}")
