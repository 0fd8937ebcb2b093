"""Question scoring: retrieval-augmented prompts to an LLM, 0-100 features.

Each question is answered against one filing's chunks only. Scores are cached
as JSONL so re-runs make zero provider calls; a filing either yields a full
feature row or none at all.
"""

from __future__ import annotations

import csv
import json
import logging
import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Protocol, Sequence

import numpy as np

from .corpus import Chunk, Filing
from .embed_index import ChunkRef, EmbeddingProvider, VectorIndex, embed_text
from .errors import RetriableError, RowScoringError, UnparseableScoreError

logger = logging.getLogger(__name__)

DEFAULT_CHUNKS_PER_QUESTION = 4
MAX_ATTEMPTS = 3

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
    version: str

    def __post_init__(self):
        ids = [q.question_id for q in self.questions]
        if len(set(ids)) != len(ids):
            raise ValueError("question_ids must be unique")

    def __len__(self) -> int:
        return len(self.questions)

    @classmethod
    def from_json_file(cls, path: str | Path) -> "QuestionSet":
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        return cls(
            questions=[Question(q["id"], q["text"]) for q in data["questions"]],
            version=data["version"],
        )

    @classmethod
    def default(cls) -> "QuestionSet":
        ref = resources.files("filingsignal").joinpath("data/questions_default.json")
        data = json.loads(ref.read_text(encoding="utf-8"))
        return cls(
            questions=[Question(q["id"], q["text"]) for q in data["questions"]],
            version=data["version"],
        )


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
    filing_date: str


class LLMProvider(Protocol):
    provider_id: str

    def complete(self, system_prompt: str, user_prompt: str) -> str: ...


class ConstantLLM:
    """Stub that answers every question with the same score."""

    def __init__(self, score: int = 50):
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

    def __init__(self, phrase: str, hit_score: int = 90, miss_score: int = 10,
                 per_occurrence: int = 0):
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

    def __init__(self, endpoint: str, model: str, api_key: str | None = None,
                 timeout: float = 120.0):
        self.endpoint = endpoint
        self.model = model
        self.api_key = api_key
        self.timeout = timeout
        self.provider_id = f"http:{model}"

    def complete(self, system_prompt: str, user_prompt: str) -> str:
        import requests

        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        payload = {
            "model": self.model,
            "messages": [
                {"role": "system", "content": system_prompt},
                {"role": "user", "content": user_prompt},
            ],
        }
        try:
            resp = requests.post(self.endpoint, json=payload, headers=headers,
                                 timeout=self.timeout)
        except Exception as exc:
            raise RetriableError(f"LLM request failed: {exc}") from exc
        if resp.status_code != 200:
            raise RetriableError(f"LLM endpoint returned HTTP {resp.status_code}")
        return resp.json()["choices"][0]["message"]["content"]


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


class ScoreCache:
    """JSONL cache of ScoredAnswer records, keyed on filing, question,
    provider, and question-set version. raw_response retained for audit.

    ``put`` makes a record visible to ``get`` at once and buffers its line;
    ``flush`` appends the buffered lines to the file in one write.
    Every record is written as one line ending in a newline, so text after
    the last newline is a record torn by an interrupted write: it is cut from
    the file with a warning, and the next record starts on a fresh line. Any
    other unreadable line raises.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._entries: dict[tuple, ScoredAnswer] = {}
        self._pending: list[str] = []
        if self.path.exists():
            data = self.path.read_bytes()
            complete, newline, torn = data.rpartition(b"\n")
            if torn:
                logger.warning("%s: dropping torn final line (%d bytes)",
                               self.path, len(torn))
                with open(self.path, "r+b") as f:
                    f.truncate(len(complete) + len(newline))
            for line in complete.split(b"\n"):
                if line.strip():
                    rec = json.loads(line)
                    answer = ScoredAnswer(
                        filing_key=tuple(rec["filing_key"]),
                        question_id=rec["question_id"],
                        score=rec["score"],
                        raw_response=rec["raw_response"],
                        context_chunk_refs=[tuple(r) for r in rec["context_chunk_refs"]],
                    )
                    key = (answer.filing_key, answer.question_id,
                           rec["provider_id"], rec["questionset_version"])
                    self._entries[key] = answer

    def get(self, filing_key, question_id, provider_id, qs_version):
        return self._entries.get((filing_key, question_id, provider_id, qs_version))

    def put(self, answer: ScoredAnswer, provider_id: str, qs_version: str) -> None:
        key = (answer.filing_key, answer.question_id, provider_id, qs_version)
        if key in self._entries:
            return
        self._entries[key] = answer
        self._pending.append(json.dumps({
            "filing_key": list(answer.filing_key),
            "question_id": answer.question_id,
            "provider_id": provider_id,
            "questionset_version": qs_version,
            "score": answer.score,
            "raw_response": answer.raw_response,
            "context_chunk_refs": [list(r) for r in answer.context_chunk_refs],
        }) + "\n")

    def flush(self) -> None:
        """Append every record put since the last flush, in put order."""
        if not self._pending:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as f:
            f.write("".join(self._pending))
        self._pending.clear()


def score_filing(
    filing: Filing,
    qs: QuestionSet,
    index: VectorIndex,
    llm: LLMProvider,
    embedder: EmbeddingProvider,
    chunks_by_ref: dict[ChunkRef, Chunk],
    cache: ScoreCache | None = None,
    chunks_per_question: int = DEFAULT_CHUNKS_PER_QUESTION,
    query_vectors: dict[tuple[str, str], np.ndarray] | None = None,
) -> FeatureRow:
    """Score every question for one filing; all-or-nothing.

    Any question that stays unparseable or unreachable after MAX_ATTEMPTS
    fails the whole row (partial rows would corrupt the design matrix), but
    the answers already paid for are flushed to the cache either way.
    ``query_vectors`` memoizes question embeddings across filings, keyed on
    (embedder provider_id, question text); a question is embedded on its
    first cache miss only.
    """
    key = filing.key
    if query_vectors is None:
        query_vectors = {}
    scores: list[int] = []
    try:
        for question in qs.questions:
            cached = cache.get(key, question.question_id, llm.provider_id,
                               qs.version) if cache else None
            if cached is not None:
                scores.append(cached.score)
                continue
            memo_key = (embedder.provider_id, question.text)
            query = query_vectors.get(memo_key)
            if query is None:
                query = query_vectors[memo_key] = embed_text(embedder, question.text)
            hits = index.top_k(query, chunks_per_question, filing_key=key)
            if not hits:
                raise RowScoringError(f"no indexed chunks for filing {key}")
            context = [chunks_by_ref[ref] for ref, _ in hits]
            system_prompt, user_prompt = build_prompt(question.text, context)
            answer = None
            last_error: Exception | None = None
            for _ in range(MAX_ATTEMPTS):
                try:
                    raw = llm.complete(system_prompt, user_prompt)
                    score = parse_score(raw)
                except (RetriableError, UnparseableScoreError) as exc:
                    last_error = exc
                    continue
                answer = ScoredAnswer(key, question.question_id, score, raw,
                                      [ref for ref, _ in hits])
                break
            if answer is None:
                raise RowScoringError(
                    f"question {question.question_id} failed for {key}: {last_error}"
                )
            if cache:
                cache.put(answer, llm.provider_id, qs.version)
            scores.append(answer.score)
    finally:
        if cache:
            cache.flush()
    return FeatureRow(key, scores, filing.filing_date.isoformat())


# --- features.csv -------------------------------------------------------------


def write_features_csv(path: str | Path, rows: Sequence[FeatureRow],
                       qs: QuestionSet) -> None:
    header = ["ticker", "filing_date"] + [f"q_{q.question_id}" for q in qs.questions]
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        for row in sorted(rows, key=lambda r: r.filing_key):
            writer.writerow([row.filing_key[0], row.filing_date, *row.scores])


def read_features_csv(path: str | Path) -> tuple[list[str], list[FeatureRow]]:
    """Returns (question column names without the q_ prefix, rows)."""
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        header = next(reader)
        qcols = [c[2:] for c in header[2:]]
        rows = []
        for rec in reader:
            ticker, filing_date = rec[0], rec[1]
            rows.append(FeatureRow((ticker, filing_date),
                                   [int(v) for v in rec[2:]], filing_date))
    return qcols, rows
