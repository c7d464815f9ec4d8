"""Exception types shared across the package."""


class HdnormError(Exception):
    """Base class for all hdnorm errors."""


class TooFewSamples(HdnormError):
    """Raised when an operation needs more observations than provided."""


class NonFiniteData(HdnormError, ValueError):
    """Raised when a sample matrix holds a NaN or an infinity.

    ``row`` and ``column`` locate the first one in row-major order, counting
    from 1.  It is also a ``ValueError``, which callers caught before it had a
    type of its own.
    """

    def __init__(self, row: int, column: int):
        super().__init__(row, column)
        self.row, self.column = row, column

    def __str__(self) -> str:
        return f"non-finite entry at row {self.row}, column {self.column}"


class NonPositiveDispersion(HdnormError):
    """Raised when the dispersion-index estimate is not strictly positive.

    The normalized test statistics divide by the square root of the estimate,
    so a non-positive value means the test cannot proceed on this sample.
    """


class InvalidQuantileOrder(HdnormError):
    """Raised for quantile specifications outside their admissible range."""


class InvalidScenarioParams(HdnormError):
    """Raised when a generative scenario is given inconsistent parameters."""


class NotPSD(HdnormError):
    """Raised when a constructed covariance matrix fails the PSD check."""
