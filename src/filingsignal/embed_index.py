"""Embedding providers and an exact cosine-similarity vector index.

Per-filing chunk counts are small (hundreds), so queries do an exhaustive
scan of the filing's own rows: exact results, no approximate-NN tuning
surface. An index is built whole and never changed in place. It keeps every
vector in one matrix plus each filing's row positions, so a query's cost does
not grow with the rest of the corpus, and it records the sha256 of each row's
chunk text. A vector depends only on the provider and the text, so the next
build copies the row of every text it already holds and embeds only new
texts. An index is saved as one file, replaced whole, so a save cut short
leaves the previous index.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from itertools import groupby
from pathlib import Path
from typing import Protocol, Sequence

import numpy as np

from .corpus import write_atomic
from .errors import PipelineError, RetriableError
from .net import check_endpoint, post_json, with_retries

INDEX_MAGIC = b"VIDX"
INDEX_VERSION = 3
INDEX_FILE = "vectors.bin"
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

    def __init__(self, dimension: int = 64, seed: int = 0):
        if dimension < 1:
            raise ValueError(f"dimension ({dimension!r}) must be a positive integer")
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

    def __init__(self, endpoint: str, model: str, api_key_env: str = "EMBEDDING_API_KEY"):
        self.endpoint = check_endpoint(endpoint)
        self.model = model
        self.api_key = os.environ.get(api_key_env)
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
    """``values`` scaled to unit length; ValueError unless they are one vector
    of finite numbers, not all zero."""
    try:
        vec = np.asarray(values, dtype=np.float64)
    except TypeError as exc:
        raise ValueError(f"embedding is not a vector of numbers: {exc}") from exc
    if vec.ndim != 1:
        raise ValueError(f"embedding is not one vector (shape {vec.shape})")
    if not np.all(np.isfinite(vec)):
        raise ValueError("embedding contains non-finite values")
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        raise ValueError("cannot normalize a zero vector")
    return vec / norm


def embed_item(provider: EmbeddingProvider, texts: Sequence[str], item: str,
               dimension: int | None = None) -> list[np.ndarray]:
    """Unit vectors of one item's texts, whatever the provider's raw scale.

    Asked through ``with_retries``, which also retries a reply without
    exactly one vector per text, with a vector that ``normalize`` refuses, or
    with vectors not all of one length, ``dimension`` when it is given.
    """
    def attempt() -> list[np.ndarray]:
        vectors = provider.embed_batch(texts)
        if len(vectors) != len(texts):
            raise ValueError(f"{provider.provider_id} returned {len(vectors)} "
                             f"vectors for {len(texts)} texts")
        units = [normalize(v) for v in vectors]
        lengths = {len(u) for u in units} | ({dimension} if dimension else set())
        if len(lengths) > 1:
            raise ValueError(f"{provider.provider_id} returned vectors of lengths "
                             f"{sorted(lengths)}")
        return units

    return with_retries(attempt, f"embedding of {item}", (ValueError,))


class VectorIndex:
    """Unit vectors with exact top-k queries within one filing.

    Built once from all its rows and never changed. The vectors live in one
    read-only float32 matrix as stored, after ``load`` a view on the file's
    bytes; a query casts only its filing's rows to float64. Beside each ref the
    index keeps the sha256 of the chunk text its row embeds. For each filing the
    index keeps the row positions sorted by ref, so a query scans only the
    filing's own rows and a stable sort breaks similarity ties by chunk index.
    """

    def __init__(self, provider_id: str, refs: Sequence[ChunkRef], hashes: Sequence[str],
                 vectors):
        """``hashes`` and ``vectors`` hold one entry per ref; duplicate refs are rejected."""
        self.provider_id = provider_id
        self.refs = tuple(refs)
        self.hashes = tuple(hashes)
        if len(self.hashes) != len(self.refs):
            raise ValueError(f"{len(self.refs)} refs but {len(self.hashes)} text hashes")
        try:  # a float32 matrix, such as the rows ``load`` reads, is not copied
            stored = np.ascontiguousarray(vectors, dtype=np.float32)
        except ValueError as exc:  # e.g. rows of unequal length
            raise PipelineError(f"vectors are not one matrix: {exc}") from exc
        if stored.ndim != 2 or len(stored) != len(self.refs):
            raise PipelineError(f"{len(self.refs)} refs, vectors of shape {stored.shape}")
        self.dimension = stored.shape[1]
        self.vectors = stored.view()  # read-only here, whoever else holds ``stored``
        self.vectors.flags.writeable = False
        order = sorted(range(len(self.refs)), key=self.refs.__getitem__)
        for a, b in zip(order, order[1:]):
            if self.refs[a] == self.refs[b]:
                raise ValueError(f"duplicate chunk ref {self.refs[a]}")
        self._rows = {key: np.array(list(rows), dtype=np.intp) for key, rows
                      in groupby(order, key=lambda i: self.refs[i][:2])}

    def __len__(self) -> int:
        return len(self.refs)

    def hashes_of(self, filing_key: tuple[str, str]) -> list[str]:
        """The text hashes of one filing's rows, in chunk order; empty if it has none."""
        return [self.hashes[i] for i in self._rows.get(filing_key, ())]

    def vectors_of(self, filing_key: tuple[str, str]) -> np.ndarray:
        """The vectors of one filing's rows as float64, in chunk order; none if it has none."""
        return self.vectors[self._rows.get(filing_key, [])].astype(np.float64)

    def top_k(self, query: Sequence[float], k: int,
              filing_key: tuple[str, str]) -> list[tuple[ChunkRef, float]]:
        """Exact k chunks of one filing most similar to ``query``; empty if
        the filing has no rows.

        Sorted by similarity descending; ties broken by chunk_index ascending.
        """
        q = np.asarray(query, dtype=np.float64)
        if q.shape != (self.dimension,):
            raise PipelineError(
                f"query dimension {q.shape} != index dimension {self.dimension}"
            )
        rows = self._rows.get(filing_key)
        if rows is None:
            return []
        sims = self.vectors[rows].astype(np.float64) @ q
        order = np.argsort(-sims, kind="stable")[:k]
        return [(self.refs[rows[i]], float(sims[i])) for i in order]

    # --- persistence ---------------------------------------------------------

    def save(self, directory: str | Path) -> None:
        """Write the index as one file, ``vectors.bin``, through ``write_atomic``.

        The file holds the magic, the version and the byte length of a JSON
        header (two little-endian uint32), the header (provider id, dimension,
        refs and text hashes), then the float32 rows.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        header = json.dumps({"provider_id": self.provider_id, "dimension": self.dimension,
                             "refs": self.refs, "hashes": self.hashes}).encode("utf-8")
        write_atomic(directory / INDEX_FILE, b"".join([
            INDEX_MAGIC, struct.pack("<II", INDEX_VERSION, len(header)), header,
            self.vectors.astype("<f4", copy=False).data]))

    @classmethod
    def load(cls, directory: str | Path) -> "VectorIndex":
        """Read an index written by ``save``.

        Raises ValueError when ``vectors.bin`` is not an index file of this
        version, when its header is malformed, or when its row bytes are not
        one float32 vector of the header's dimension per ref.
        """
        directory = Path(directory)
        data = (directory / INDEX_FILE).read_bytes()
        if data[:4] != INDEX_MAGIC:
            raise ValueError(f"not a vector index file (magic {data[:4]!r})")
        if len(data) < 12:
            raise ValueError(f"{INDEX_FILE} ends inside its header")
        version, header_len = struct.unpack_from("<II", data, 4)
        if version != INDEX_VERSION:
            raise ValueError(f"index version {version}; this version reads "
                             f"only version {INDEX_VERSION}")
        rows_at = 12 + header_len
        try:
            header = json.loads(data[12:rows_at])
            provider_id, dim = header["provider_id"], header["dimension"]
            refs = [(ticker, filing_date, chunk_index)
                    for ticker, filing_date, chunk_index in header["refs"]]
            hashes = header["hashes"]
            if not isinstance(dim, int) or dim < 1:
                raise ValueError(f"dimension {dim!r} is not a positive integer")
        except (ValueError, LookupError, TypeError) as exc:
            raise ValueError(f"{directory}: malformed {INDEX_FILE} header: {exc!r}") from exc
        size = 4 * dim * len(refs)
        if len(data) - rows_at != size:
            raise ValueError(
                f"{directory}: {INDEX_FILE} header counts {len(refs)} vectors of "
                f"dimension {dim} ({size} bytes), read {len(data) - rows_at} bytes"
            )
        vectors = np.frombuffer(data, dtype="<f4", offset=rows_at).reshape(len(refs), dim)
        return cls(provider_id, refs, hashes, vectors)
