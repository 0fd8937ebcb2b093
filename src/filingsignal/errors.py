"""Exception hierarchy shared across pipeline stages."""


class PipelineError(Exception):
    """Base class for all pipeline errors."""


class RetriableError(PipelineError):
    """Transient failure (no response, a 408, 429 or 5xx); safe to retry."""

    def __init__(self, message: str, status: int | None = None,
                 retry_after: int | None = None):  # a Retry-After's seconds
        super().__init__(message)
        self.status = status  # None without a response
        self.retry_after = retry_after


class FinalStatusError(PipelineError):
    """An HTTP status that asking again cannot mend, such as 401 or 404."""

    def __init__(self, message: str, status: int):
        super().__init__(message)
        self.status = status


class EmptyDocumentError(PipelineError):
    """A filing decoded to empty text after cleaning."""


class DimensionMismatchError(PipelineError):
    """Embedding dimension does not match the target index."""


class UnparseableScoreError(PipelineError):
    """No valid 0-100 integer could be extracted from a provider response."""

    def __init__(self, raw_response: str):
        super().__init__(f"no parseable score in response: {raw_response!r}")
        self.raw_response = raw_response


class RowScoringError(PipelineError):
    """A filing could not be fully scored; the whole feature row is dropped."""


class StageInputError(PipelineError):
    """A pipeline stage input is missing, or its producer's inputs changed.

    Carries the name of the stage that would (re)produce it.
    """

    def __init__(self, problem: str, producing_stage: str):
        super().__init__(f"{problem}: run stage {producing_stage!r} first")
        self.producing_stage = producing_stage
