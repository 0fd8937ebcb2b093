"""Question scoring: retrieval-augmented prompts to an LLM, 0-100 features.

Each question is embedded once per run and answered against one filing's own
chunks only. Answers are cached as JSONL keyed on the exact prompt, so a rerun
asks the provider only prompts it has not seen; a filing either yields a full
feature row or none at all.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Protocol, Sequence

import numpy as np

from .corpus import Chunk, Filing, read_jsonl, write_atomic
from .embed_index import ChunkRef, EmbeddingProvider, VectorIndex, embed_text
from .errors import RetriableError, RowScoringError, UnparseableScoreError

logger = logging.getLogger(__name__)

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
    filing_date: str


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
        try:
            content = resp.json()["choices"][0]["message"]["content"]
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

    def put(self, key: str, answer: ScoredAnswer) -> None:
        if key in self._scores:
            return
        self._scores[key] = answer.score
        self._pending.append(json.dumps({
            "filing_key": list(answer.filing_key),
            "question_id": answer.question_id,
            "prompt_sha256": key,
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


def embed_questions(qs: QuestionSet, embedder: EmbeddingProvider) -> list[np.ndarray]:
    """Each question's unit query vector, in question order."""
    return [embed_text(embedder, q.text) for q in qs.questions]


def score_filing(
    filing: Filing,
    chunks: Sequence[Chunk],
    qs: QuestionSet,
    queries: Sequence[np.ndarray],
    index: VectorIndex,
    llm: LLMProvider,
    cache: ScoreCache,
    chunks_per_question: int,
) -> FeatureRow:
    """Score every question for one filing; all-or-nothing.

    ``chunks`` are the filing's own chunks in chunk_index order, as the index
    was built from them, and ``queries`` are the question vectors from
    ``embed_questions``. Each question takes one path: retrieve the filing's
    top chunks, build the prompt, look the prompt up in ``cache``, and only
    on a miss ask ``llm``. Any question that stays unparseable or unreachable
    after MAX_ATTEMPTS fails the whole row (partial rows would corrupt the
    design matrix), but the answers already paid for are flushed to the
    cache either way.
    """
    key = filing.key
    scores: list[int] = []
    try:
        for question, query in zip(qs.questions, queries, strict=True):
            hits = index.top_k(query, chunks_per_question, filing_key=key)
            if not hits:
                raise RowScoringError(f"no indexed chunks for filing {key}")
            context = [chunks[chunk_index] for (_, _, chunk_index), _ in hits]
            system_prompt, user_prompt = build_prompt(question.text, context)
            pkey = prompt_key(llm.provider_id, system_prompt, user_prompt)
            score = cache.get(pkey)
            last_error: Exception | None = None
            for _ in range(MAX_ATTEMPTS if score is None else 0):
                try:
                    raw = llm.complete(system_prompt, user_prompt)
                    score = parse_score(raw)
                except (RetriableError, UnparseableScoreError) as exc:
                    last_error = exc
                    continue
                cache.put(pkey, ScoredAnswer(key, question.question_id, score, raw,
                                             [ref for ref, _ in hits]))
                break
            if score is None:
                raise RowScoringError(
                    f"question {question.question_id} failed for {key}: {last_error}"
                )
            scores.append(score)
    finally:
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
