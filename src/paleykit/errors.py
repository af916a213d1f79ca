"""Exception types shared across the package."""


class PaleykitError(Exception):
    """Base class for all package-specific errors."""


class InvalidSmoothnessError(PaleykitError):
    """A multi-index set fails the smoothness-set axioms."""


class UnboundedError(PaleykitError):
    """The linear program has an unbounded objective."""


class InfeasibleError(PaleykitError):
    """The linear program has no feasible point."""


class StageFailure(PaleykitError):
    """A pipeline stage failed in a structured, reportable way.

    Carries .stage (the failing stage name), .reason and .details.
    """

    def __init__(self, stage, reason, details=None):
        super().__init__("%s: %s" % (stage, reason))
        self.stage = stage
        self.reason = reason
        self.details = details or {}
