"""Question scoring: retrieval-augmented prompts to an LLM, 0-100 features.

Each question is embedded once and answered against one filing's own
chunks only. Answers are cached as JSONL keyed on the exact prompt, so a rerun
asks the provider only prompts it has not seen; a filing either yields a full
feature row or none at all. The same file memoizes each full row, keyed on
every input its prompts are built from, so a rerun retrieves and builds
prompts only for the filings whose inputs changed. A filing's uncached
prompts may be asked through a pool of threads while later filings are
planned; the answers and rows are still put in filing and question order,
and a prompt put twice keeps its first answer, so the cache and the rows
come out the same as when every prompt is asked one by one. The same file
keeps each question's unit vector, so a question is embedded once, not once
per run.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import math
import os
import re
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Protocol, Sequence

import numpy as np

from .corpus import Chunk, Filing, json_line, whole_lines, write_atomic, write_csv
from .embed_index import ChunkRef, EmbeddingProvider, VectorIndex, embed_item
from .errors import PipelineError, RetriableError
from .net import Calls, check_endpoint, post_json, with_retries

logger = logging.getLogger(__name__)

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
        text, a repeated id and a repeated text (two equal feature columns,
        whose one prompt a filing would ask twice)."""
        if not self.questions:
            raise ValueError("there are no questions")
        seen, texts = set(), set()
        for q in self.questions:
            if not (isinstance(q.question_id, str) and isinstance(q.text, str) and q.text):
                raise ValueError(f"question {q.question_id!r}: the id and the text must be "
                                 "strings, and the text not empty")
            if q.question_id in seen:
                raise ValueError(f"question {q.question_id!r} is repeated: question_ids "
                                 "must be unique")
            if q.text in texts:
                raise ValueError(f"question {q.question_id!r} repeats the text of an "
                                 "earlier question: question texts must be unique")
            seen.add(q.question_id)
            texts.add(q.text)

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

    def complete(self, system_prompt: str, user_prompt: str) -> str:
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
        if not phrase.strip():  # str.count("") or (" ") would make every prompt a hit
            raise ValueError("phrase must not be empty or only whitespace")
        self.phrase = phrase.lower()
        self.hit_score = hit_score
        self.miss_score = miss_score
        self.per_occurrence = per_occurrence
        self.provider_id = (
            f"keyword-stub-{hit_score}-{miss_score}-{per_occurrence}:{self.phrase}"
        )

    def complete(self, system_prompt: str, user_prompt: str) -> str:
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

    Takes the first "SCORE:" marker or, without one, the first standalone
    integer in range. A marker out of range is never clamped: it and a reply
    without a score raise ValueError, a reply the caller cannot use.
    """
    marker = _MARKER_RE.search(raw_response)
    for m in [marker] if marker else _STANDALONE_INT_RE.finditer(raw_response):
        value = int(m.group(1))
        if 0 <= value <= 100:
            return value
    raise ValueError(f"no parseable score in response: {raw_response!r}")


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
# A score outside 0-100 does not match, so the JSON parse refuses its line.
_ANSWER = re.compile(r'"prompt_sha256": "([0-9a-f]{64})", "score": (100|[1-9]?[0-9])[,}]')


def _is_score(value) -> bool:
    return type(value) is int and 0 <= value <= 100  # a bool is no score


def _is_number(value) -> bool:
    """A finite float, or an int within float range; a bool is no number."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


# Each record of the score cache by its key field: the field of its value, the
# test of that value, and what a line with the key field but no such value is not.
_RECORDS = {
    "prompt_sha256": ("score", _is_score, "an answer with a string prompt_sha256 and an "
                      "integer score from 0 to 100"),
    "row_sha256": ("scores", lambda v: isinstance(v, list) and all(map(_is_score, v)),
                   "a row with a string row_sha256 and a list of integer scores from 0 to 100"),
    "vector_sha256": ("vector", lambda v: isinstance(v, list) and v and all(map(_is_number, v)),
                      "a vector with a string vector_sha256 and a non-empty list of finite "
                      "numbers"),
}


class ScoreCache:
    """JSONL memo of the records of ``_RECORDS``: provider answers keyed on
    ``prompt_key``, so an answer is reused only for the exact prompt it
    answered, whole feature rows keyed on every input of their prompts (see
    ``score_filing``) and question unit vectors (see ``embed_text``). Memory
    holds each record's key and value; the file also keeps the filing,
    question, raw response and context chunk refs of each answer for audit,
    and the filing of each row.

    A put keeps the first value put for a key, visible to its get at once,
    and buffers its line; a later put of the key writes nothing. Each returns
    the value held. ``flush`` appends the buffered lines in one write. The
    file is read a line at a time, its torn final line cut (see
    ``whole_lines``). A line that is not UTF-8 or not a JSON object, or whose
    first key field is not a string or lacks a value that passes its test,
    raises PipelineError naming it. ``_ANSWER`` reads an answer's key and
    score without parsing the rest of its line. Older records with none of
    the key fields are dropped with one warning: the first load that finds
    them rewrites the file without their lines (see ``write_atomic``), so
    their prompts are asked again; the rewrite reads the file a second time.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._pending: list[str] = []
        self._held: dict[str, dict] = {kind: {} for kind in _RECORDS}
        dropped: set[int] = set()
        for i, line_bytes in enumerate(whole_lines(self.path)):
            try:
                line = line_bytes.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise PipelineError(f"{self.path}: line {i + 1} is not UTF-8: {exc}") from exc
            if answer := _ANSWER.search(line):
                self._held["prompt_sha256"][answer[1]] = int(answer[2])
            elif line.strip():
                rec = json_line(self.path, i + 1, line)
                if not isinstance(rec, dict):
                    raise PipelineError(f"{self.path}: line {i + 1} is not a JSON object")
                for kind, (field, valid, what) in _RECORDS.items():
                    if kind in rec:
                        if not (isinstance(rec[kind], str) and valid(rec.get(field))):
                            raise PipelineError(f"{self.path}: line {i + 1} is not {what}")
                        self._held[kind][rec[kind]] = rec[field]
                        break
                else:
                    dropped.add(i)
        if dropped:
            logger.warning("%s: dropping %d records without %s; their questions are asked "
                           "again", self.path, len(dropped), " or ".join(_RECORDS))
            write_atomic(self.path, b"".join(
                line for i, line in enumerate(whole_lines(self.path)) if i not in dropped))

    def _keep(self, kind: str, key: str, value, record: dict):
        """Keep ``value`` under ``key`` and buffer ``record``'s line, unless the
        key is held; the value held for the key."""
        held = self._held[kind]
        if key in held:
            return held[key]
        held[key] = value
        self._pending.append(json.dumps(record) + "\n")
        return value

    def get(self, key: str) -> int | None:
        """The cached score of the prompt with this key, or None."""
        return self._held["prompt_sha256"].get(key)

    def put(self, key: str, filing_key: tuple[str, str], question_id: str, score: int,
            raw_response: str, context_chunk_refs: list[ChunkRef]) -> int:
        """Keep one answer; the score held for the key.

        A prompt that two filings in flight at once both miss is asked and put
        by each (see ``score_filing``): the second put writes nothing and
        returns the first score, as a serial run would have read it."""
        return self._keep("prompt_sha256", key, score, {
            "filing_key": list(filing_key),
            "question_id": question_id,
            "prompt_sha256": key,
            "score": score,
            "raw_response": raw_response,
            "context_chunk_refs": [list(r) for r in context_chunk_refs],
        })

    def get_row(self, key: str) -> list[int] | None:
        """The cached scores of the row with this key, or None."""
        return self._held["row_sha256"].get(key)

    def put_row(self, key: str, filing_key: tuple[str, str], scores: list[int]) -> list[int]:
        """Keep a whole row's scores, in question order, under its row key; the
        scores held for the key."""
        return self._keep("row_sha256", key, scores, {
            "row_sha256": key, "filing_key": list(filing_key), "scores": scores})

    def get_vector(self, key: str) -> np.ndarray | None:
        """The cached vector with this key, as float64, or None; JSON floats
        read back bit for bit."""
        held = self._held["vector_sha256"].get(key)
        return None if held is None else np.asarray(held, dtype=np.float64)

    def put_vector(self, key: str, vector: np.ndarray) -> np.ndarray:
        """Keep one vector under its key; the vector held, as ``get_vector`` returns it."""
        return np.asarray(self._keep("vector_sha256", key, vector, {
            "vector_sha256": key, "vector": vector.tolist()}), dtype=np.float64)

    def flush(self) -> None:
        """Append every record put since the last flush, in put order."""
        if not self._pending:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as f:
            f.write("".join(self._pending))
        self._pending.clear()


def embed_text(embedder: EmbeddingProvider, text: str, item: str,
               cache: ScoreCache) -> np.ndarray:
    """The unit vector of one question text: the one ``cache`` holds for the
    embedder and the text, or else one embedded now and put.

    A held vector is returned as it was loaded, never normalized again: that
    could change its last bits, and with them every row key built from it.
    """
    key = _sha256_of(p.encode("utf-8") for p in (embedder.provider_id, text))
    if (held := cache.get_vector(key)) is not None:
        return held
    vector = embed_item(embedder, [text], item)[0]
    cache.put_vector(key, vector)
    return vector


def embed_questions(qs: QuestionSet, embedder: EmbeddingProvider,
                    cache: ScoreCache) -> list[np.ndarray]:
    """Each question's unit query vector, in question order, through
    ``embed_text``; the vectors put are flushed to the cache at once, so a run
    whose rows all come from the cache keeps them too."""
    vectors = [embed_text(embedder, q.text, f"question {q.question_id}", cache)
               for q in qs.questions]
    cache.flush()
    return vectors


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
    also retries an answer without a score; its error is raised as it is."""
    def attempt() -> tuple[str, int]:
        raw = llm.complete(miss.system_prompt, miss.user_prompt)
        return raw, parse_score(raw)

    try:
        return with_retries(attempt, f"question {miss.question_id}", (ValueError,),
                            stop=lambda: failure.position < miss.position)
    except PipelineError:
        failure.record(miss.position)
        raise


def score_filing(
    filing: Filing,
    chunks: Sequence[Chunk],
    inputs: RowInputs,
    index: VectorIndex,
    cache: ScoreCache,
    calls: Calls,
) -> tuple[Callable[[], FeatureRow], int]:
    """Start scoring every question of one filing, all-or-nothing; returns the
    function that ends it and returns the row, and the number of prompts
    submitted to ``calls``.

    ``chunks`` are the filing's own chunks in chunk_index order, as the index
    was built from them. The row key is a sha256 over ``inputs.key``, the
    filing key, and the text hashes and vectors of the filing's rows in the
    index in chunk order: every input the row's prompts are built from. A row
    the cache holds under it is returned as it is, with 0 prompts submitted;
    one whose number of scores is not the number of questions raises
    PipelineError naming the cache file and the row key.
    Otherwise, for each question in order, this thread retrieves the filing's
    top chunks, builds the prompt and looks it up in ``cache``; each miss is
    submitted to ``calls``.

    The end, called on the same thread and in filing order, waits for the
    answers and puts them in the cache in question order, then the row under
    its row key. Any question that stays unparseable or unreachable after its
    attempts fails the whole row (partial rows would corrupt the design
    matrix): the end raises the first such error in question order, or one
    met while planning, and puts no row. Either way the answers put are
    flushed to the cache.
    """
    key = filing.key
    row_key = _sha256_of([inputs.key.encode("ascii"), *(part.encode("utf-8") for part in key),
                          *(h.encode("ascii") for h in index.hashes_of(key)),
                          index.vectors_of(key).tobytes()])
    if (memo := cache.get_row(row_key)) is not None:
        if len(memo) != len(inputs.qs):
            raise PipelineError(f"{cache.path}: the row of row_sha256 {row_key} holds "
                                f"{len(memo)} scores for {len(inputs.qs)} questions")
        return (lambda: FeatureRow(key, list(memo))), 0
    llm, failure = inputs.llm, _FirstFailure()
    scores: list[int | None] = []
    asks: list[tuple[_Miss, Callable[[], tuple[str, int]]]] = []
    error = None
    try:
        for question, query in zip(inputs.qs.questions, inputs.queries, strict=True):
            hits = index.top_k(query, inputs.chunks_per_question, filing_key=key)
            if not hits:
                raise PipelineError(f"no indexed chunks for filing {key}")
            context = [chunks[chunk_index] for (_, _, chunk_index), _ in hits]
            system_prompt, user_prompt = build_prompt(question.text, context)
            pkey = prompt_key(llm.provider_id, system_prompt, user_prompt)
            scores.append(cache.get(pkey))
            if scores[-1] is None:
                miss = _Miss(len(scores) - 1, question.question_id, pkey, system_prompt,
                             user_prompt, [ref for ref, _ in hits])
                asks.append((miss, calls.submit(_ask, llm, failure, miss)))
    except PipelineError as exc:  # raised by the end, in filing order
        error = exc

    def end() -> FeatureRow:
        try:
            if error is not None:
                raise error
            for miss, ask in asks:
                raw, score = ask()
                scores[miss.position] = cache.put(miss.key, key, miss.question_id, score, raw,
                                                  miss.refs)
            cache.put_row(row_key, key, scores)
        finally:
            cache.flush()
        return FeatureRow(key, scores)

    return end, len(asks)


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
