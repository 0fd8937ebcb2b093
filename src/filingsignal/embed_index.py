"""Embedding providers and an exact cosine-similarity vector index.

Per-filing chunk counts are small (hundreds), so queries do an exhaustive
scan of the filing's own rows: exact results, no approximate-NN tuning
surface. An index is built whole and never changed in place. It keeps every
vector in one matrix plus each filing's row positions, so a query's cost does
not grow with the rest of the corpus, and it records the sha256 of each row's
chunk text. A vector depends only on the provider and the text, so the next
build copies the row of every text it already holds and embeds only new
texts. The two files of an index record one build id, so a pair that a crash
mixed is refused on load.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import struct
from itertools import groupby
from pathlib import Path
from typing import Protocol, Sequence

import numpy as np

from .errors import (MAX_ATTEMPTS, DimensionMismatchError, PipelineError, RetriableError,
                     ZeroNormError)
from .net import post_json

logger = logging.getLogger(__name__)

INDEX_MAGIC = b"VIDX"
INDEX_VERSION = 2
INDEX_FILE = "vectors.bin"
SIDECAR_FILE = "refs.jsonl"
EMBED_TIMEOUT_S = 60.0

# (ticker, iso filing date, chunk_index)
ChunkRef = tuple[str, str, int]


class EmbeddingProvider(Protocol):
    provider_id: str

    def embed_batch(self, texts: Sequence[str]) -> list[list[float]]: ...


class HashEmbeddingProvider:
    """Deterministic stub: hash whitespace tokens into signed buckets.

    Shared tokens produce correlated vectors, so tests get topical similarity
    with zero network dependency.
    """

    def __init__(self, dimension: int, seed: int):
        self.dimension = dimension
        self.seed = seed
        self.provider_id = f"hash-stub-d{dimension}-s{seed}"

    def embed_batch(self, texts: Sequence[str]) -> list[list[float]]:
        return [self._embed_one(t) for t in texts]

    def _embed_one(self, text: str) -> list[float]:
        vec = np.zeros(self.dimension)
        for token in text.lower().split():
            digest = hashlib.sha256(f"{self.seed}:{token}".encode()).digest()
            bucket = int.from_bytes(digest[:4], "little") % self.dimension
            sign = 1.0 if digest[4] % 2 == 0 else -1.0
            vec[bucket] += sign
        if not vec.any():
            vec[0] = 1.0  # tokenless input still gets a valid direction
        return vec.tolist()


class HTTPEmbeddingProvider:
    """Provider contract over HTTP: POST texts, receive equal-length float arrays."""

    def __init__(self, endpoint: str, model: str, api_key: str | None = None):
        self.endpoint = endpoint
        self.model = model
        self.api_key = api_key
        self.provider_id = f"http:{model}"

    def embed_batch(self, texts: Sequence[str]) -> list[list[float]]:
        body = post_json(self.endpoint, {"model": self.model, "texts": list(texts)},
                         self.api_key, EMBED_TIMEOUT_S, "embedding")
        try:
            embeddings = json.loads(body)["embeddings"]
        except (ValueError, LookupError, TypeError) as exc:
            raise RetriableError(f"embedding response has no embeddings: {exc!r}") from exc
        if not isinstance(embeddings, list):
            raise RetriableError(f"embedding response field embeddings is not a list: "
                                 f"{embeddings!r}")
        return embeddings


def normalize(values: Sequence[float]) -> np.ndarray:
    vec = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(vec)):
        raise ValueError("embedding contains non-finite values")
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        raise ZeroNormError("cannot normalize a zero vector")
    return vec / norm


def embed_item(provider: EmbeddingProvider, texts: Sequence[str], item: str) -> list[np.ndarray]:
    """Unit vectors of one item's texts, whatever the provider's raw scale.

    A RetriableError, or a reply without exactly one vector per text, is
    tried again; after MAX_ATTEMPTS calls a PipelineError names ``item``.
    """
    for attempt in range(1, MAX_ATTEMPTS + 1):
        try:
            vectors = provider.embed_batch(texts)
            if len(vectors) != len(texts):
                raise RetriableError(f"{provider.provider_id} returned {len(vectors)} "
                                     f"vectors for {len(texts)} texts")
            return [normalize(v) for v in vectors]
        except RetriableError as exc:
            if attempt == MAX_ATTEMPTS:
                raise PipelineError(f"embedding of {item} failed {MAX_ATTEMPTS} times: "
                                    f"{exc}") from exc
            logger.warning("embedding of %s: %s; retrying", item, exc)


def embed_text(provider: EmbeddingProvider, text: str, item: str) -> np.ndarray:
    """Embed one non-empty text of ``item`` through ``embed_item``."""
    if not text:
        raise ValueError("text must be non-empty")
    return embed_item(provider, [text], item)[0]


class VectorIndex:
    """Unit vectors with exact top-k queries, restricted to one filing or not.

    Built once from all its rows and never changed. The vectors live in one
    read-only float64 matrix, each row cast from the float32 vector that is
    stored on disk. Beside each ref the index keeps the sha256 of the chunk
    text its row embeds. For each filing, and for the whole index, the index
    keeps the row positions sorted by ref, so a query scans only the filing's
    own rows and a stable sort breaks similarity ties by ref.
    """

    def __init__(self, provider_id: str, refs: Sequence[ChunkRef], hashes: Sequence[str],
                 vectors):
        """``hashes`` and ``vectors`` hold one entry per ref; duplicate refs are rejected."""
        self.provider_id = provider_id
        self.refs = tuple(refs)
        self.hashes = tuple(hashes)
        if len(self.hashes) != len(self.refs):
            raise ValueError(f"{len(self.refs)} refs but {len(self.hashes)} text hashes")
        try:
            stored = np.asarray(vectors, dtype=np.float32)
        except ValueError as exc:  # e.g. rows of unequal length
            raise DimensionMismatchError(f"vectors are not one matrix: {exc}") from exc
        if stored.ndim != 2 or len(stored) != len(self.refs):
            raise DimensionMismatchError(f"{len(self.refs)} refs, vectors of shape {stored.shape}")
        self.dimension = stored.shape[1]
        self.vectors = stored.astype(np.float64)
        self.vectors.flags.writeable = False
        order = sorted(range(len(self.refs)), key=self.refs.__getitem__)
        for a, b in zip(order, order[1:]):
            if self.refs[a] == self.refs[b]:
                raise ValueError(f"duplicate chunk ref {self.refs[a]}")
        self._rows = {key: np.array(list(rows), dtype=np.intp) for key, rows
                      in groupby(order, key=lambda i: self.refs[i][:2])}
        self._rows[None] = np.array(order, dtype=np.intp)

    def __len__(self) -> int:
        return len(self.refs)

    def hashes_of(self, filing_key: tuple[str, str]) -> list[str]:
        """The text hashes of one filing's rows, in chunk order; empty if it has none."""
        return [self.hashes[i] for i in self._rows.get(filing_key, ())]

    def top_k(
        self,
        query: Sequence[float],
        k: int,
        filing_key: tuple[str, str] | None = None,
    ) -> list[tuple[ChunkRef, float]]:
        """Exact k most similar chunks, optionally restricted to one filing.

        Sorted by similarity descending; ties broken by (filing_key,
        chunk_index) ascending.
        """
        q = np.asarray(query, dtype=np.float64)
        if q.shape != (self.dimension,):
            raise DimensionMismatchError(
                f"query dimension {q.shape} != index dimension {self.dimension}"
            )
        rows = self._rows.get(filing_key)
        if rows is None:
            return []
        sims = self.vectors[rows] @ q
        order = np.argsort(-sims, kind="stable")[:k]
        return [(self.refs[rows[i]], float(sims[i])) for i in order]

    # --- persistence ---------------------------------------------------------

    def save(self, directory: str | Path) -> None:
        """Write ``vectors.bin`` and ``refs.jsonl``, each through a temporary file.

        Both files record the build id, a sha256 of the vector bytes.
        ``refs.jsonl`` is renamed into place last, so a save cut short leaves
        two files whose build ids differ, and ``load`` refuses them.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        data = self.vectors.astype("<f4").tobytes()
        build_id = hashlib.sha256(data)
        pid = self.provider_id.encode("utf-8")
        header = INDEX_MAGIC + struct.pack(
            "<III I", INDEX_VERSION, self.dimension, len(self.refs), len(pid)
        ) + pid + build_id.digest()
        lines = [json.dumps({"ticker": ticker, "filing_date": filing_date,
                             "chunk_index": chunk_index, "sha256": sha256}) + "\n"
                 for (ticker, filing_date, chunk_index), sha256 in zip(self.refs, self.hashes)]
        lines.append(json.dumps({"build_id": build_id.hexdigest()}) + "\n")
        vectors_tmp = directory / (INDEX_FILE + ".tmp")
        refs_tmp = directory / (SIDECAR_FILE + ".tmp")
        vectors_tmp.write_bytes(header + data)
        refs_tmp.write_text("".join(lines), encoding="utf-8")
        os.replace(vectors_tmp, directory / INDEX_FILE)
        os.replace(refs_tmp, directory / SIDECAR_FILE)

    @classmethod
    def load(cls, directory: str | Path) -> "VectorIndex":
        """Read an index written by ``save``.

        Raises ValueError when ``vectors.bin`` is not a version-2 index file
        or holds fewer bytes than its header's row count needs, when
        ``refs.jsonl`` holds a different number of refs or a malformed line,
        or when the two files record different build ids.
        """
        directory = Path(directory)
        with open(directory / INDEX_FILE, "rb") as f:
            magic = f.read(4)
            if magic != INDEX_MAGIC:
                raise ValueError(f"not a vector index file (magic {magic!r})")
            header = f.read(16)
            if len(header) != 16:
                raise ValueError(f"{INDEX_FILE} ends inside its header")
            version, dim, count, pid_len = struct.unpack("<III I", header)
            if version != INDEX_VERSION:
                raise ValueError(f"index version {version}; this version reads "
                                 f"only version {INDEX_VERSION}")
            provider_id = f.read(pid_len).decode("utf-8")
            build_id = f.read(32).hex()
            data = f.read(4 * dim * count)
        with open(directory / SIDECAR_FILE, encoding="utf-8") as f:
            records = [json.loads(line) for line in f]
        try:
            builds = [rec["build_id"] for rec in records if "build_id" in rec]
            rows = [rec for rec in records if "build_id" not in rec]
            if len(data) != 4 * dim * count or len(rows) != count:
                raise ValueError(
                    f"{directory}: {INDEX_FILE} header counts {count} vectors of "
                    f"dimension {dim} ({4 * dim * count} bytes), read {len(data)} "
                    f"bytes; {SIDECAR_FILE} has {len(rows)} refs"
                )
            if builds != [build_id]:
                raise ValueError(f"{directory}: {INDEX_FILE} is build {build_id}, but "
                                 f"{SIDECAR_FILE} records builds {builds}")
            refs = [(rec["ticker"], rec["filing_date"], rec["chunk_index"]) for rec in rows]
            hashes = [rec["sha256"] for rec in rows]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"{directory}: malformed {SIDECAR_FILE} line: {exc!r}") from exc
        vectors = np.frombuffer(data, dtype="<f4").reshape(count, dim)
        return cls(provider_id, refs, hashes, vectors)
