"""Question scoring: retrieval-augmented prompts to an LLM, 0-100 features.

Each question is embedded once per run and answered against one filing's own
chunks only. Answers are cached as JSONL keyed on the exact prompt, so a rerun
asks the provider only prompts it has not seen; a filing either yields a full
feature row or none at all. A filing's uncached prompts may be asked through a
pool of threads, and the cache and the row come out the same as when they are
asked one by one.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import logging
import math
import re
import threading
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Callable, Iterable, Iterator, Protocol, Sequence

import numpy as np

from .corpus import Chunk, Filing, read_jsonl, write_atomic, write_csv
from .embed_index import ChunkRef, EmbeddingProvider, VectorIndex, embed_text
from .errors import MAX_ATTEMPTS, RetriableError, RowScoringError, UnparseableScoreError
from .net import post_json

logger = logging.getLogger(__name__)

# Provider calls in flight at once when a filing's uncached questions go
# through a thread pool. It changes no output, so no config field or stage
# hash holds it.
MAX_WORKERS = 8
CHAT_TIMEOUT_S = 120.0

SYSTEM_PROMPT = (
    "You are a meticulous financial analyst reading excerpts from a company's "
    "annual report. Answer the question using ONLY the provided context; do not "
    "rely on outside knowledge. Respond with a single integer confidence score "
    "from 0 to 100, where 100 means the answer is maximally favorable for the "
    "shareholder and 0 means maximally unfavorable or unsupported. Output the "
    "score on its own line in the form:\nSCORE: <n>"
)


@dataclass(frozen=True)
class Question:
    question_id: str
    text: str


@dataclass
class QuestionSet:
    questions: list[Question]

    def __post_init__(self):
        ids = [q.question_id for q in self.questions]
        if len(set(ids)) != len(ids):
            raise ValueError("question_ids must be unique")

    def __len__(self) -> int:
        return len(self.questions)

    @classmethod
    def from_json(cls, text: str) -> "QuestionSet":
        """Parse ``{"questions": [{"id": ..., "text": ...}]}``; other keys are ignored."""
        return cls([Question(q["id"], q["text"]) for q in json.loads(text)["questions"]])

    @classmethod
    def from_json_file(cls, path: str | Path) -> "QuestionSet":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))

    @classmethod
    def default(cls) -> "QuestionSet":
        ref = resources.files("filingsignal").joinpath("data/questions_default.json")
        return cls.from_json(ref.read_text(encoding="utf-8"))


@dataclass
class ScoredAnswer:
    filing_key: tuple[str, str]
    question_id: str
    score: int
    raw_response: str
    context_chunk_refs: list[ChunkRef]


@dataclass
class FeatureRow:
    filing_key: tuple[str, str]
    scores: list[int]  # aligned to QuestionSet order


class LLMProvider(Protocol):
    provider_id: str

    def complete(self, system_prompt: str, user_prompt: str) -> str: ...


class ConstantLLM:
    """Stub that answers every question with the same score."""

    def __init__(self, score: int):
        self.score = score
        self.provider_id = f"constant-stub-{score}"
        self.call_count = 0

    def complete(self, system_prompt: str, user_prompt: str) -> str:
        self.call_count += 1
        return f"SCORE: {self.score}"


class KeywordLLM:
    """Stub that scores by occurrences of a phrase in the prompt context.

    With per_occurrence=0 this is a plain hit/miss stub; a positive increment
    gives graded scores for planted-signal fixtures.
    """

    def __init__(self, phrase: str, hit_score: int, miss_score: int,
                 per_occurrence: int):
        self.phrase = phrase.lower()
        self.hit_score = hit_score
        self.miss_score = miss_score
        self.per_occurrence = per_occurrence
        self.provider_id = (
            f"keyword-stub-{hit_score}-{miss_score}-{per_occurrence}"
        )
        self.call_count = 0

    def complete(self, system_prompt: str, user_prompt: str) -> str:
        self.call_count += 1
        count = user_prompt.lower().count(self.phrase)
        if count == 0:
            score = self.miss_score
        else:
            score = min(100, self.hit_score + self.per_occurrence * (count - 1))
        return f"SCORE: {score}"


class HTTPChatLLM:
    """Chat-style HTTP provider: system + user message in, assistant text out."""

    def __init__(self, endpoint: str, model: str, api_key: str | None = None):
        self.endpoint = endpoint
        self.model = model
        self.api_key = api_key
        self.provider_id = f"http:{model}"

    def complete(self, system_prompt: str, user_prompt: str) -> str:
        payload = {
            "model": self.model,
            "messages": [
                {"role": "system", "content": system_prompt},
                {"role": "user", "content": user_prompt},
            ],
        }
        body = post_json(self.endpoint, payload, self.api_key, CHAT_TIMEOUT_S, "LLM")
        try:
            content = json.loads(body)["choices"][0]["message"]["content"]
        except (ValueError, LookupError, TypeError) as exc:
            raise RetriableError(f"LLM response has no choices[0].message.content: "
                                 f"{exc!r}") from exc
        if not isinstance(content, str):
            raise RetriableError(f"LLM response content is not text: {content!r}")
        return content


def build_prompt(question: str, context_chunks: Sequence[Chunk]) -> tuple[str, str]:
    """Assemble (system_prompt, user_prompt) from retrieved chunks.

    Chunks appear labeled, in retrieval order, before the question.
    """
    if not context_chunks:
        raise ValueError("at least one context chunk is required")
    parts = []
    for i, chunk in enumerate(context_chunks, start=1):
        parts.append(f"[Context {i}]\n{chunk.text}")
    parts.append(f"Question: {question}")
    return SYSTEM_PROMPT, "\n\n".join(parts)


_MARKER_RE = re.compile(r"SCORE:\s*(-?\d+)")
_STANDALONE_INT_RE = re.compile(r"(?<![\d.])(\d{1,3})(?![\d.])")


def parse_score(raw_response: str) -> int:
    """Extract the 0-100 integer from a provider response.

    Prefers the first "SCORE:" marker; falls back to the first standalone
    integer in range. Out-of-range values are errors, never clamped.
    """
    m = _MARKER_RE.search(raw_response)
    if m:
        value = int(m.group(1))
        if not 0 <= value <= 100:
            raise UnparseableScoreError(raw_response)
        return value
    for m in _STANDALONE_INT_RE.finditer(raw_response):
        value = int(m.group(1))
        if 0 <= value <= 100:
            return value
    raise UnparseableScoreError(raw_response)


def prompt_key(provider_id: str, system_prompt: str, user_prompt: str) -> str:
    """sha256 over the provider id and both prompts, each preceded by its byte length."""
    parts = [p.encode("utf-8") for p in (provider_id, system_prompt, user_prompt)]
    return hashlib.sha256(b"".join(len(p).to_bytes(8, "big") + p for p in parts)).hexdigest()


class ScoreCache:
    """JSONL memo of provider answers keyed on ``prompt_key``, so an answer is
    reused only for the exact prompt it answered. Memory holds only each
    prompt's score; the file also keeps the filing, question, raw response and
    context chunk refs for audit.

    ``put`` makes a record visible to ``get`` at once and buffers its line;
    ``flush`` appends the buffered lines to the file in one write. A torn
    final line is cut (see ``read_jsonl``). Older records without
    ``prompt_sha256`` are dropped with one warning: the first load that finds
    them rewrites the file without them (see ``write_atomic``), so their
    prompts are asked again.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._pending: list[str] = []
        records = read_jsonl(self.path)
        keyed = [rec for rec in records if "prompt_sha256" in rec]
        self._scores = {rec["prompt_sha256"]: rec["score"] for rec in keyed}
        if len(keyed) < len(records):
            logger.warning("%s: dropping %d records without prompt_sha256; "
                           "their questions are asked again",
                           self.path, len(records) - len(keyed))
            write_atomic(self.path, "".join(json.dumps(rec) + "\n" for rec in keyed))

    def get(self, key: str) -> int | None:
        """The cached score of the prompt with this key, or None."""
        return self._scores.get(key)

    def put(self, key: str, answer: ScoredAnswer) -> int:
        """Keep ``answer`` unless the key is held; the score held for the key."""
        if key in self._scores:
            return self._scores[key]
        self._scores[key] = answer.score
        self._pending.append(json.dumps({
            "filing_key": list(answer.filing_key),
            "question_id": answer.question_id,
            "prompt_sha256": key,
            "score": answer.score,
            "raw_response": answer.raw_response,
            "context_chunk_refs": [list(r) for r in answer.context_chunk_refs],
        }) + "\n")
        return answer.score

    def flush(self) -> None:
        """Append every record put since the last flush, in put order."""
        if not self._pending:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as f:
            f.write("".join(self._pending))
        self._pending.clear()


def embed_questions(qs: QuestionSet, embedder: EmbeddingProvider) -> list[np.ndarray]:
    """Each question's unit query vector, in question order."""
    return [embed_text(embedder, q.text, f"question {q.question_id}") for q in qs.questions]


@dataclass(frozen=True)
class _Miss:
    """One question of a filing whose prompt the cache does not hold."""

    position: int  # in question order
    question_id: str
    key: str
    system_prompt: str
    user_prompt: str
    refs: list[ChunkRef]


class _FirstFailure:
    """The lowest position among one row's questions that have failed for good.

    The row's workers share it. A question behind a failed one is not asked
    (again), since the row is lost anyway; a question before it still makes
    all its attempts. So the row fails on the same question, with the same
    answers cached before it, as when its questions are asked one by one.
    """

    def __init__(self):
        self.position = math.inf
        self._lock = threading.Lock()

    def record(self, position: int) -> None:
        with self._lock:
            self.position = min(self.position, position)


def _ask(llm: LLMProvider, failure: _FirstFailure, filing_key: tuple[str, str],
         miss: _Miss) -> tuple[str, int]:
    """(raw response, score) for one miss, in up to MAX_ATTEMPTS calls."""
    last_error: Exception | None = None
    for _ in range(MAX_ATTEMPTS):
        if failure.position < miss.position:
            break
        try:
            raw = llm.complete(miss.system_prompt, miss.user_prompt)
            return raw, parse_score(raw)
        except (RetriableError, UnparseableScoreError) as exc:
            last_error = exc
    failure.record(miss.position)
    raise RowScoringError(
        f"question {miss.question_id} failed for {filing_key}: {last_error}"
    ) from last_error


def score_filing(
    filing: Filing,
    chunks: Sequence[Chunk],
    qs: QuestionSet,
    queries: Sequence[np.ndarray],
    index: VectorIndex,
    llm: LLMProvider,
    cache: ScoreCache,
    chunks_per_question: int,
    map_calls: Callable[[Callable[[_Miss], tuple[str, int]], Iterable[_Miss]],
                        Iterator[tuple[str, int]]],
) -> FeatureRow:
    """Score every question for one filing; all-or-nothing.

    ``chunks`` are the filing's own chunks in chunk_index order, as the index
    was built from them, and ``queries`` are the question vectors from
    ``embed_questions``. For each question in order, this thread retrieves
    the filing's top chunks, builds the prompt and looks it up in ``cache``.
    The misses are then asked of ``llm`` through ``map_calls``: the builtin
    ``map`` asks them one by one, an executor's ``map`` overlaps them. Either
    way the answers are put in the cache in question order, as they are read.
    Any question that stays unparseable or unreachable after MAX_ATTEMPTS
    fails the whole row (partial rows would corrupt the design matrix); the
    answers put before it are flushed to the cache either way.
    """
    key = filing.key
    scores: list[int | None] = []
    misses: list[_Miss] = []
    for question, query in zip(qs.questions, queries, strict=True):
        hits = index.top_k(query, chunks_per_question, filing_key=key)
        if not hits:
            raise RowScoringError(f"no indexed chunks for filing {key}")
        context = [chunks[chunk_index] for (_, _, chunk_index), _ in hits]
        system_prompt, user_prompt = build_prompt(question.text, context)
        pkey = prompt_key(llm.provider_id, system_prompt, user_prompt)
        scores.append(cache.get(pkey))
        if scores[-1] is None:
            misses.append(_Miss(len(scores) - 1, question.question_id, pkey, system_prompt,
                                user_prompt, [ref for ref, _ in hits]))
    ask = functools.partial(_ask, llm, _FirstFailure(), key)
    try:
        for miss, (raw, score) in zip(misses, map_calls(ask, misses)):
            # Two questions with one prompt both miss; both get the first answer.
            scores[miss.position] = cache.put(miss.key, ScoredAnswer(
                key, miss.question_id, score, raw, miss.refs))
    finally:
        cache.flush()
    return FeatureRow(key, scores)


# --- features.csv -------------------------------------------------------------


def write_features_csv(path: str | Path, rows: Sequence[FeatureRow],
                       qs: QuestionSet) -> None:
    header = ["ticker", "filing_date"] + [f"q_{q.question_id}" for q in qs.questions]
    write_csv(path, header, ([*row.filing_key, *row.scores]
                             for row in sorted(rows, key=lambda r: r.filing_key)))


def read_features_csv(path: str | Path) -> tuple[list[str], list[FeatureRow]]:
    """Returns (question column names without the q_ prefix, rows)."""
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        header = next(reader)
        qcols = [c[2:] for c in header[2:]]
        rows = []
        for rec in reader:
            rows.append(FeatureRow((rec[0], rec[1]), [int(v) for v in rec[2:]]))
    return qcols, rows
