"""Embedding providers and an exact cosine-similarity vector index.

Per-filing chunk counts are small (hundreds), so queries do an exhaustive
scan of the filing's own rows: exact results, no approximate-NN tuning
surface. An index is built once and never changes. It keeps every vector in
one matrix plus each filing's row positions, so a query's cost does not grow
with the rest of the corpus.
"""

from __future__ import annotations

import hashlib
import json
import struct
from itertools import groupby
from pathlib import Path
from typing import Protocol, Sequence

import numpy as np

from .errors import DimensionMismatchError, RetriableError, ZeroNormError

INDEX_MAGIC = b"VIDX"
INDEX_VERSION = 1
INDEX_FILE = "vectors.bin"
SIDECAR_FILE = "refs.jsonl"

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

    def __init__(self, endpoint: str, model: str, api_key: str | None = None,
                 timeout: float = 60.0):
        self.endpoint = endpoint
        self.model = model
        self.api_key = api_key
        self.timeout = timeout
        self.provider_id = f"http:{model}"

    def embed_batch(self, texts: Sequence[str]) -> list[list[float]]:
        import requests

        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        try:
            resp = requests.post(
                self.endpoint,
                json={"model": self.model, "texts": list(texts)},
                headers=headers,
                timeout=self.timeout,
            )
        except Exception as exc:
            raise RetriableError(f"embedding request failed: {exc}") from exc
        if resp.status_code != 200:
            raise RetriableError(f"embedding endpoint returned HTTP {resp.status_code}")
        return resp.json()["embeddings"]


def normalize(values: Sequence[float]) -> np.ndarray:
    vec = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(vec)):
        raise ValueError("embedding contains non-finite values")
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        raise ZeroNormError("cannot normalize a zero vector")
    return vec / norm


def embed_text(provider: EmbeddingProvider, text: str) -> np.ndarray:
    """Embed one text and unit-normalize regardless of provider raw scale."""
    if not text:
        raise ValueError("text must be non-empty")
    return normalize(provider.embed_batch([text])[0])


class VectorIndex:
    """Unit vectors with exact top-k queries, restricted to one filing or not.

    Built once from all its rows and never changed. The vectors live in one
    read-only float64 matrix, each row cast from the float32 vector that is
    stored on disk. For each filing, and for the whole index, the index keeps
    the row positions sorted by ref, so a query scans only the filing's own
    rows and a stable sort breaks similarity ties by ref.
    """

    def __init__(self, provider_id: str, refs: Sequence[ChunkRef], vectors):
        """``vectors`` holds one row per ref; duplicate refs are rejected."""
        self.provider_id = provider_id
        self.refs = tuple(refs)
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

    def rows_of(self, filing_key: tuple[str, str]) -> int:
        """How many rows, that is chunks, the index holds for one filing."""
        return len(self._rows.get(filing_key, ()))

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
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        pid = self.provider_id.encode("utf-8")
        header = INDEX_MAGIC + struct.pack(
            "<III I", INDEX_VERSION, self.dimension, len(self.refs), len(pid)
        ) + pid
        with open(directory / INDEX_FILE, "wb") as f:
            f.write(header)
            f.write(self.vectors.astype("<f4").tobytes())
        with open(directory / SIDECAR_FILE, "w", encoding="utf-8") as f:
            for ticker, filing_date, chunk_index in self.refs:
                f.write(json.dumps(
                    {"ticker": ticker, "filing_date": filing_date,
                     "chunk_index": chunk_index}
                ) + "\n")

    @classmethod
    def load(cls, directory: str | Path) -> "VectorIndex":
        """Read an index written by ``save``.

        Raises ValueError when ``vectors.bin`` holds fewer bytes than its
        header's row count needs, or ``refs.jsonl`` holds a different number
        of refs.
        """
        directory = Path(directory)
        with open(directory / INDEX_FILE, "rb") as f:
            magic = f.read(4)
            if magic != INDEX_MAGIC:
                raise ValueError(f"not a vector index file (magic {magic!r})")
            version, dim, count, pid_len = struct.unpack("<III I", f.read(16))
            if version != INDEX_VERSION:
                raise ValueError(f"unsupported index version {version}")
            provider_id = f.read(pid_len).decode("utf-8")
            data = f.read(4 * dim * count)
        with open(directory / SIDECAR_FILE, encoding="utf-8") as f:
            refs = [(rec["ticker"], rec["filing_date"], rec["chunk_index"])
                    for rec in map(json.loads, f)]
        if len(data) != 4 * dim * count or len(refs) != count:
            raise ValueError(
                f"{directory}: {INDEX_FILE} header counts {count} vectors of "
                f"dimension {dim} ({4 * dim * count} bytes), read {len(data)} "
                f"bytes; {SIDECAR_FILE} has {len(refs)} refs"
            )
        vectors = np.frombuffer(data, dtype="<f4").reshape(count, dim)
        return cls(provider_id, refs, vectors)
