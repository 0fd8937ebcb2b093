"""Embedding providers and an exact cosine-similarity vector index.

Per-filing chunk counts are small (hundreds), so queries do an exhaustive
scan: exact results, no approximate-NN tuning surface.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass
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

    def __init__(self, dimension: int = 64, seed: int = 0):
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
    """Immutable-after-build store of unit vectors with exact top-k queries."""

    def __init__(self, dimension: int, provider_id: str):
        self.dimension = dimension
        self.provider_id = provider_id
        self._vectors: list[np.ndarray] = []
        self._refs: list[ChunkRef] = []
        self._ref_set: set[ChunkRef] = set()

    def __len__(self) -> int:
        return len(self._refs)

    @property
    def vectors(self) -> np.ndarray:
        if not self._vectors:
            return np.zeros((0, self.dimension), dtype=np.float32)
        return np.vstack(self._vectors)

    @property
    def refs(self) -> list[ChunkRef]:
        return list(self._refs)

    def add(self, ref: ChunkRef, vector: Sequence[float]) -> None:
        vec = np.asarray(vector, dtype=np.float32)
        if vec.shape != (self.dimension,):
            raise DimensionMismatchError(
                f"vector has dimension {vec.shape}, index expects {self.dimension}"
            )
        if ref in self._ref_set:
            raise ValueError(f"duplicate chunk ref {ref}")
        self._vectors.append(vec)
        self._refs.append(ref)
        self._ref_set.add(ref)

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
        if not self._refs:
            return []
        if filing_key is not None:
            positions = [
                i for i, r in enumerate(self._refs) if (r[0], r[1]) == filing_key
            ]
        else:
            positions = list(range(len(self._refs)))
        if not positions:
            return []
        sims = self.vectors[positions].astype(np.float64) @ q
        order = sorted(
            range(len(positions)),
            key=lambda i: (-sims[i], self._refs[positions[i]]),
        )
        return [
            (self._refs[positions[i]], float(sims[i])) for i in order[:k]
        ]

    # --- persistence ---------------------------------------------------------

    def save(self, directory: str | Path) -> None:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        pid = self.provider_id.encode("utf-8")
        header = INDEX_MAGIC + struct.pack(
            "<III I", INDEX_VERSION, self.dimension, len(self._refs), len(pid)
        ) + pid
        with open(directory / INDEX_FILE, "wb") as f:
            f.write(header)
            f.write(self.vectors.astype("<f4").tobytes())
        with open(directory / SIDECAR_FILE, "w", encoding="utf-8") as f:
            for ticker, filing_date, chunk_index in self._refs:
                f.write(json.dumps(
                    {"ticker": ticker, "filing_date": filing_date,
                     "chunk_index": chunk_index}
                ) + "\n")

    @classmethod
    def load(cls, directory: str | Path) -> "VectorIndex":
        directory = Path(directory)
        with open(directory / INDEX_FILE, "rb") as f:
            magic = f.read(4)
            if magic != INDEX_MAGIC:
                raise ValueError(f"not a vector index file (magic {magic!r})")
            version, dim, count, pid_len = struct.unpack("<III I", f.read(16))
            if version != INDEX_VERSION:
                raise ValueError(f"unsupported index version {version}")
            provider_id = f.read(pid_len).decode("utf-8")
            data = np.frombuffer(f.read(4 * dim * count), dtype="<f4")
        vectors = data.reshape(count, dim)
        index = cls(dim, provider_id)
        with open(directory / SIDECAR_FILE, encoding="utf-8") as f:
            for i, line in enumerate(f):
                rec = json.loads(line)
                index.add(
                    (rec["ticker"], rec["filing_date"], rec["chunk_index"]),
                    vectors[i],
                )
        return index
