"""Exception hierarchy shared across pipeline stages, and the record of the
items a stage leaves out."""

from pathlib import Path


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
    """An HTTP status that asking again cannot mend, such as 401 or 403."""


class StageInputError(PipelineError):
    """A pipeline stage input is missing, or its producer's inputs changed;
    the message names the stage that would (re)produce it."""

    def __init__(self, problem: str, producing_stage: str):
        super().__init__(f"{problem}: run stage {producing_stage!r} first")


class Failures:
    """The items one stage run left out, each as (item, error or reason);
    ``run_pipeline`` writes them to ``path`` and counts the retriable ones."""

    def __init__(self, path: Path):
        self.path = path
        self.items: list[tuple[str, BaseException | str]] = []

    def record(self, item: str, error: BaseException | str) -> None:
        """Keep ``item`` as left out for ``error``; a FinalStatusError is raised
        instead, and stops the stage, since it would come back for every item."""
        if isinstance(error, FinalStatusError):
            raise error
        self.items.append((item, error))

    @property
    def retriable(self) -> int:
        """Items left out for a cause that may pass: a RetriableError."""
        return sum(isinstance(error, RetriableError) for _, error in self.items)

    def refusal(self, what: str) -> PipelineError:
        """The error that stops a stage which kept nothing, naming the first failure."""
        item, error = self.items[0]
        return PipelineError(f"{what}: {len(self.items)} failed, each recorded in "
                             f"{self.path}; the first: {item}: {error}")
