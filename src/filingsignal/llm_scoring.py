"""Question scoring: retrieval-augmented prompts to an LLM, 0-100 features.

Each question is embedded once per run and answered against one filing's own
chunks only. Answers are cached as JSONL keyed on the exact prompt, so a rerun
asks the provider only prompts it has not seen; a filing either yields a full
feature row or none at all. The same file memoizes each full row, keyed on
every input its prompts are built from, so a rerun retrieves and builds
prompts only for the filings whose inputs changed. A filing's uncached
prompts may be asked through a pool of threads, and the cache and the row
come out the same as when they are asked one by one.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import logging
import math
import os
import re
import threading
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Callable, Iterable, Iterator, Protocol, Sequence

import numpy as np

from .corpus import Chunk, Filing, read_whole_lines, write_atomic, write_csv
from .embed_index import ChunkRef, EmbeddingProvider, VectorIndex, embed_text
from .errors import (FinalStatusError, PipelineError, RetriableError, RowScoringError,
                     UnparseableScoreError)
from .net import check_endpoint, post_json, with_retries

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
        """Refuse an empty set, an id or text that is not a string, an empty
        text and a repeated id."""
        if not self.questions:
            raise ValueError("there are no questions")
        seen = set()
        for q in self.questions:
            if not (isinstance(q.question_id, str) and isinstance(q.text, str) and q.text):
                raise ValueError(f"question {q.question_id!r}: the id and the text must be "
                                 "strings, and the text not empty")
            if q.question_id in seen:
                raise ValueError(f"question {q.question_id!r} is repeated: question_ids "
                                 "must be unique")
            seen.add(q.question_id)

    def __len__(self) -> int:
        return len(self.questions)

    @classmethod
    def from_json(cls, text: str) -> "QuestionSet":
        """Parse ``{"questions": [{"id": ..., "text": ...}]}``, ignoring other keys;
        ValueError unless ``text`` is JSON of that form."""
        try:
            return cls([Question(q["id"], q["text"]) for q in json.loads(text)["questions"]])
        except (LookupError, TypeError) as exc:
            raise ValueError('not of the form {"questions": [{"id": ..., "text": ...}]}: '
                             f"{exc!r}") from exc

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


def _check_score(name: str, value: int) -> None:
    """Refuse a stub score that ``parse_score`` would refuse in every answer."""
    if not 0 <= value <= 100:
        raise ValueError(f"{name} ({value!r}) must be from 0 to 100")


class ConstantLLM:
    """Stub that answers every question with the same score."""

    def __init__(self, score: int = 50):
        _check_score("score", score)
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
        _check_score("hit_score", hit_score)
        _check_score("miss_score", miss_score)
        if per_occurrence < 0:
            raise ValueError(f"per_occurrence ({per_occurrence!r}) must not be negative")
        self.phrase = phrase.lower()
        self.hit_score = hit_score
        self.miss_score = miss_score
        self.per_occurrence = per_occurrence
        self.provider_id = (
            f"keyword-stub-{hit_score}-{miss_score}-{per_occurrence}:{self.phrase}"
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

    def __init__(self, endpoint: str, model: str, api_key_env: str = "LLM_API_KEY"):
        self.endpoint = check_endpoint(endpoint)
        self.model = model
        self.api_key = os.environ.get(api_key_env)
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


def _sha256_of(parts: Iterable[bytes]) -> str:
    """Hex sha256 over ``parts``, each preceded by its byte length."""
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "big") + part)
    return h.hexdigest()


def prompt_key(provider_id: str, system_prompt: str, user_prompt: str) -> str:
    """sha256 over the provider id and both prompts, each preceded by its byte length."""
    return _sha256_of(p.encode("utf-8") for p in (provider_id, system_prompt, user_prompt))


class RowInputs:
    """What every filing's row is built from, apart from the filing's own rows.

    ``key`` is a sha256, in the style of ``prompt_key``, over the LLM provider
    id, the prompt pair that ``build_prompt`` makes from an empty question and
    one empty chunk (the system prompt and the template), the number of chunks
    retrieved per question, and each question's id, text and query vector.
    One stage run shares it; ``score_filing`` adds a filing's own rows to it to
    key that filing's row.
    """

    def __init__(self, qs: QuestionSet, queries: Sequence[np.ndarray], llm: LLMProvider,
                 chunks_per_question: int):
        self.qs = qs
        self.queries = queries
        self.llm = llm
        self.chunks_per_question = chunks_per_question
        template = build_prompt("", [Chunk(("", ""), 0, "", (0, 0))])
        self.key = _sha256_of([
            llm.provider_id.encode("utf-8"),
            *(p.encode("utf-8") for p in template),
            str(chunks_per_question).encode("ascii"),
            *(part for q, query in zip(qs.questions, queries, strict=True)
              for part in (q.question_id.encode("utf-8"), q.text.encode("utf-8"),
                           np.asarray(query, dtype=np.float64).tobytes())),
        ])


# An answer's key and score as ``ScoreCache.put`` writes them. JSON escapes
# every quote inside a string, so this text occurs only as a record's own keys.
_ANSWER = re.compile(r'"prompt_sha256": "([0-9a-f]{64})", "score": (-?(?:0|[1-9][0-9]*))[,}]')


class ScoreCache:
    """JSONL memo of provider answers keyed on ``prompt_key``, so an answer is
    reused only for the exact prompt it answered, and of whole feature rows
    keyed on every input of their prompts (see ``score_filing``). Memory holds
    only each prompt's score and each row's scores; the file also keeps the
    filing, question, raw response and context chunk refs of each answer for
    audit, and the filing of each row.

    ``put`` and ``put_row`` make a record visible to ``get`` and ``get_row``
    at once and buffer its line; ``flush`` appends the buffered lines to the
    file in one write. The file is read whole, after its torn final line is
    cut (see ``read_whole_lines``), and its lines are taken in order: an
    answer's key and score are read by ``_ANSWER`` without parsing the rest
    of its line, and any other line is parsed as JSON. Older records with
    neither ``prompt_sha256`` nor ``row_sha256`` are dropped with one
    warning: the first load that finds them rewrites the file without their
    lines (see ``write_atomic``), so their prompts are asked again.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._pending: list[str] = []
        self._scores: dict[str, int] = {}
        self._rows: dict[str, list[int]] = {}
        lines = read_whole_lines(self.path).decode("utf-8").split("\n")
        dropped: set[int] = set()
        for i, line in enumerate(lines):
            if answer := _ANSWER.search(line):
                self._scores[answer[1]] = int(answer[2])
            elif line.strip():
                rec = json.loads(line)
                if "prompt_sha256" in rec:
                    self._scores[rec["prompt_sha256"]] = rec["score"]
                elif "row_sha256" in rec:
                    self._rows[rec["row_sha256"]] = rec["scores"]
                else:
                    dropped.add(i)
        if dropped:
            logger.warning("%s: dropping %d records without prompt_sha256 or row_sha256; "
                           "their questions are asked again", self.path, len(dropped))
            write_atomic(self.path, "\n".join(
                line for i, line in enumerate(lines) if i not in dropped))

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

    def get_row(self, key: str) -> list[int] | None:
        """The cached scores of the row with this key, or None."""
        return self._rows.get(key)

    def put_row(self, key: str, filing_key: tuple[str, str], scores: list[int]) -> None:
        """Keep a whole row's scores, in question order, under its row key."""
        self._rows[key] = scores
        self._pending.append(json.dumps({"row_sha256": key, "filing_key": list(filing_key),
                                         "scores": scores}) + "\n")

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


def _ask(llm: LLMProvider, failure: _FirstFailure, miss: _Miss) -> tuple[str, int]:
    """(raw response, score) for one miss, asked through ``with_retries``, which
    also retries an answer without a score. A final status is raised as it is."""
    def attempt() -> tuple[str, int]:
        raw = llm.complete(miss.system_prompt, miss.user_prompt)
        return raw, parse_score(raw)

    try:
        return with_retries(attempt, f"question {miss.question_id}", (UnparseableScoreError,),
                            stop=lambda: failure.position < miss.position)
    except PipelineError as exc:
        failure.record(miss.position)
        if isinstance(exc, FinalStatusError):
            raise
        raise RowScoringError(str(exc)) from exc


def score_filing(
    filing: Filing,
    chunks: Sequence[Chunk],
    inputs: RowInputs,
    index: VectorIndex,
    cache: ScoreCache,
    map_calls: Callable[[Callable[[_Miss], tuple[str, int]], Iterable[_Miss]],
                        Iterator[tuple[str, int]]],
) -> FeatureRow:
    """Score every question for one filing; all-or-nothing.

    ``chunks`` are the filing's own chunks in chunk_index order, as the index
    was built from them. The row key is a sha256 over ``inputs.key``, the
    filing key, and the text hashes and vectors of the filing's rows in the
    index in chunk order: every input the row's prompts are built from. A row
    the cache holds under it is returned as it is. Otherwise, for each
    question in order, this thread retrieves the filing's top chunks, builds
    the prompt and looks it up in ``cache``. The misses are then asked of
    ``inputs.llm`` through ``map_calls``: the builtin ``map`` asks them one by
    one, an executor's ``map`` overlaps them. Either way the answers are put
    in the cache in question order, as they are read, and then the row under
    its row key. Any question that stays unparseable or unreachable after
    its attempts fails the whole row (partial rows would corrupt the design
    matrix), and no row is put; a final status is raised as it is. The
    answers put before either are flushed to the cache.
    """
    key = filing.key
    row_key = _sha256_of([inputs.key.encode("ascii"), *(part.encode("utf-8") for part in key),
                          *(h.encode("ascii") for h in index.hashes_of(key)),
                          index.vectors_of(key).tobytes()])
    if (memo := cache.get_row(row_key)) is not None:
        return FeatureRow(key, list(memo))
    llm = inputs.llm
    scores: list[int | None] = []
    misses: list[_Miss] = []
    for question, query in zip(inputs.qs.questions, inputs.queries, strict=True):
        hits = index.top_k(query, inputs.chunks_per_question, filing_key=key)
        if not hits:
            raise RowScoringError(f"no indexed chunks for filing {key}")
        context = [chunks[chunk_index] for (_, _, chunk_index), _ in hits]
        system_prompt, user_prompt = build_prompt(question.text, context)
        pkey = prompt_key(llm.provider_id, system_prompt, user_prompt)
        scores.append(cache.get(pkey))
        if scores[-1] is None:
            misses.append(_Miss(len(scores) - 1, question.question_id, pkey, system_prompt,
                                user_prompt, [ref for ref, _ in hits]))
    ask = functools.partial(_ask, llm, _FirstFailure())
    try:
        for miss, (raw, score) in zip(misses, map_calls(ask, misses)):
            # Two questions with one prompt both miss; both get the first answer.
            scores[miss.position] = cache.put(miss.key, ScoredAnswer(
                key, miss.question_id, score, raw, miss.refs))
        cache.put_row(row_key, key, scores)
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
