"""Exception types shared across the package."""


class GasgateError(Exception):
    """Base class for all errors raised by this package."""


class DataFormatError(GasgateError):
    """Input file or record does not satisfy the CSV/data contract."""


class SingleClassError(GasgateError):
    """A classifier fit was attempted on data containing only one class."""


class NonFiniteScoreError(GasgateError):
    """The SVM decision value of a row is not finite; ``row`` is its 0-based
    index among the rows scored."""

    def __init__(self, row: int, kind: str):
        super().__init__(f"the decision value of row {row + 1} is not finite: "
                         f"its {kind} kernel values overflow")
        self.row = row
        self.kind = kind


class TooFewSamplesError(GasgateError, ValueError):
    """The data has fewer rows than asked of it, such as one per fold; also a
    ``ValueError``, as an out-of-range argument is."""


class PerfectSeparationError(GasgateError):
    """Unregularized logistic fit diverged because the classes are separable."""


class IntervalSolverError(GasgateError):
    """The probability level set could not be reduced to a single interval."""


class GenerationError(GasgateError):
    """Synthetic data generation could not satisfy the requested constraints."""
