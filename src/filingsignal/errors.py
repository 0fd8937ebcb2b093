"""Exception hierarchy shared across pipeline stages, and how often a
RetriableError is retried."""

# Provider calls made for one item (a filing's chunks, a question, a prompt)
# before its failure is final.
MAX_ATTEMPTS = 3


class PipelineError(Exception):
    """Base class for all pipeline errors."""


class RetriableError(PipelineError):
    """Transient failure (network, rate limit); safe to retry."""


class EmptyDocumentError(PipelineError):
    """A filing decoded to empty text after cleaning."""


class DimensionMismatchError(PipelineError):
    """Embedding dimension does not match the target index."""


class ZeroNormError(PipelineError):
    """A zero vector was passed where a direction is required."""


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
