import hashlib
import json
import struct

import numpy as np
import pytest

from filingsignal.embed_index import (HashEmbeddingProvider, VectorIndex,
                                      embed_text, normalize)
from filingsignal.errors import DimensionMismatchError

from conftest import FIXTURES


def brute_force_top_k(vectors, refs, query, k):
    """Independent oracle: sort every similarity, take the first k."""
    sims = [float(np.dot(v, query)) for v in vectors]
    order = sorted(range(len(refs)), key=lambda i: (-sims[i], refs[i]))
    return [(refs[i], sims[i]) for i in order[:k]]


def assert_same_ranking(result, expected):
    """Same refs in the same order; similarities equal to float accumulation."""
    assert [r for r, _ in result] == [r for r, _ in expected]
    assert np.allclose([s for _, s in result], [s for _, s in expected],
                       atol=1e-12)


def text_hashes(refs):
    """Stand-in text hashes, one per ref, for an index built from vectors alone."""
    return [hashlib.sha256(repr(ref).encode()).hexdigest() for ref in refs]


def edit_header(directory, change):
    """Rewrite the JSON header of the index file in ``directory``: ``change``
    edits the parsed header in place, or returns the header's new bytes."""
    path = directory / "vectors.bin"
    data = path.read_bytes()
    length, = struct.unpack_from("<I", data, 8)
    header = json.loads(data[12:12 + length])
    raw = change(header)
    raw = raw if isinstance(raw, bytes) else json.dumps(header).encode()
    path.write_bytes(data[:8] + struct.pack("<I", len(raw)) + raw + data[12 + length:])


FILING = ("T0", "2020-01-01")


def random_index(rng, n, d=32, filings=1):
    """An index of ``n`` random unit vectors, chunk i of filing ``(f"T{i % filings}",
    "2020-01-01")``; with one filing, every ref is in ``FILING``."""
    vectors = rng.standard_normal((n, d))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    refs = [(f"T{i % filings}", "2020-01-01", i) for i in range(n)]
    return VectorIndex("test", refs, text_hashes(refs), vectors), vectors, refs


class TestStubProvider:
    def test_deterministic(self):
        p = HashEmbeddingProvider(64, 0)
        assert np.array_equal(embed_text(p, "alpha", "test"), embed_text(p, "alpha", "test"))

    def test_unit_norm(self):
        p = HashEmbeddingProvider(64, 0)
        for text in ["alpha", "alpha beta gamma", "x " * 500]:
            assert abs(np.linalg.norm(embed_text(p, text, "test")) - 1.0) < 1e-6

    def test_shared_tokens_raise_similarity(self):
        p = HashEmbeddingProvider(64, 0)
        a = embed_text(p, "revenue growth outlook strong", "test")
        b = embed_text(p, "revenue growth guidance strong", "test")
        c = embed_text(p, "litigation settlement patent dispute", "test")
        assert np.dot(a, b) > np.dot(a, c)

    def test_matches_golden_file(self):
        with open(f"{FIXTURES}/stub_embeddings_golden.json", encoding="utf-8") as f:
            golden = json.load(f)
        p = HashEmbeddingProvider(dimension=16, seed=7)
        assert p.provider_id == golden["provider_id"]
        for text, expected in golden["vectors"].items():
            got = embed_text(p, text, "test")
            assert np.allclose(got, expected, atol=1e-12)

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError):
            embed_text(HashEmbeddingProvider(64, 0), "", "test")


class TestTopK:
    def test_k_exceeds_size(self):
        index = VectorIndex("test", [("A", "2020-01-01", 0)], ["a"], [[1.0, 0.0]])
        assert len(index.top_k([1.0, 0.0], 5, ("A", "2020-01-01"))) == 1

    def test_self_match_first(self):
        rng = np.random.default_rng(0)
        index, vectors, refs = random_index(rng, 50)
        result = index.top_k(vectors[17], 3, FILING)
        assert result[0][0] == refs[17]
        assert result[0][1] == pytest.approx(1.0)

    def test_matches_oracle_1000(self):
        rng = np.random.default_rng(1)
        index, _, refs = random_index(rng, 1000)
        query = normalize(rng.standard_normal(32))
        stored = index.vectors.astype(np.float64)
        assert_same_ranking(index.top_k(query, 10, FILING),
                            brute_force_top_k(stored, refs, query, 10))

    @pytest.mark.parametrize("seed", range(10))
    def test_oracle_property(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 400))
        index, _, refs = random_index(rng, n)
        query = normalize(rng.standard_normal(32))
        k = int(rng.integers(1, 20))
        stored = index.vectors.astype(np.float64)
        assert_same_ranking(index.top_k(query, k, FILING),
                            brute_force_top_k(stored, refs, query, k))

    def test_tie_break_by_ref(self):
        # identical vectors, refs out of row order
        index = VectorIndex("test", [("A", "2020-01-01", 2), ("A", "2020-01-01", 1),
                                     ("A", "2020-01-01", 0)], ["a2", "a1", "a0"],
                            [[1.0, 0.0]] * 3)
        refs = [r for r, _ in index.top_k([1.0, 0.0], 3, ("A", "2020-01-01"))]
        assert refs == [("A", "2020-01-01", 0), ("A", "2020-01-01", 1),
                        ("A", "2020-01-01", 2)]

    def test_empty_index(self):
        assert VectorIndex("test", [], [], np.zeros((0, 4))).top_k([1, 0, 0, 0], 3,
                                                                   FILING) == []

    def test_filing_filter(self):
        rng = np.random.default_rng(2)
        index, vectors, refs = random_index(rng, 100, filings=7)
        target = ("T3", "2020-01-01")
        result = index.top_k(normalize(rng.standard_normal(32)), 100,
                             filing_key=target)
        assert result
        assert all((r[0], r[1]) == target for r, _ in result)

    def test_dimension_mismatch(self):
        index = VectorIndex("test", [("A", "2020-01-01", 0)], ["a"], [[1.0, 0.0, 0.0, 0.0]])
        with pytest.raises(DimensionMismatchError):
            index.top_k([1.0, 0.0], 1, ("A", "2020-01-01"))


class TestFilingRows:
    def interleaved_index(self, rng, d=16):
        """Three filings in interleaved rows, chunks out of chunk_index order."""
        keys = [("B", "2021-03-01"), ("A", "2020-02-01"), ("A", "2021-02-01")]
        chunk_order = [5, 0, 3, 9, 1, 2, 8, 4, 7, 6]
        refs = [(*key, c) for c in chunk_order for key in keys]
        vectors = rng.standard_normal((len(refs), d))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        return VectorIndex("test", refs, text_hashes(refs), vectors), keys

    @pytest.mark.parametrize("seed", range(5))
    def test_every_filing_matches_oracle(self, seed):
        rng = np.random.default_rng(seed)
        index, keys = self.interleaved_index(rng)
        stored, refs = index.vectors, index.refs
        query = normalize(rng.standard_normal(stored.shape[1]))
        for key in keys:
            rows = [i for i, r in enumerate(refs) if r[:2] == key]
            expected = brute_force_top_k(stored[rows], [refs[i] for i in rows],
                                         query, 4)
            assert_same_ranking(index.top_k(query, 4, filing_key=key), expected)

    def test_ties_within_filing_break_by_chunk_index(self):
        # two tied groups, enough rows that an unstable sort reorders them
        refs, vectors = [], []
        for chunk_index in np.random.default_rng(8).permutation(100):
            vec = [1.0, 0.0] if chunk_index % 2 else [0.6, 0.8]
            refs += [("A", "2020-01-01", int(chunk_index)),
                     ("B", "2020-01-01", int(chunk_index))]
            vectors += [vec, vec]
        index = VectorIndex("test", refs, text_hashes(refs), vectors)
        result = index.top_k([1.0, 0.0], 100, filing_key=("A", "2020-01-01"))
        assert [r[2] for r, _ in result] == [*range(1, 100, 2), *range(0, 100, 2)]

    def test_unknown_filing_is_empty(self):
        index = VectorIndex("test", [("A", "2020-01-01", 0)], ["a"], [[1.0, 0.0]])
        assert index.top_k([1.0, 0.0], 3, filing_key=("Z", "2020-01-01")) == []


class TestPersistence:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(3)
        index, vectors, refs = random_index(rng, 200)
        index.save(tmp_path)
        loaded = VectorIndex.load(tmp_path)
        assert loaded.dimension == index.dimension
        assert loaded.provider_id == index.provider_id
        assert loaded.refs == index.refs
        assert np.array_equal(loaded.vectors, index.vectors)  # bitwise

    def test_identical_query_results(self, tmp_path):
        rng = np.random.default_rng(4)
        index, _, _ = random_index(rng, 150)
        index.save(tmp_path)
        loaded = VectorIndex.load(tmp_path)
        query = normalize(rng.standard_normal(32))
        assert loaded.top_k(query, 7, FILING) == index.top_k(query, 7, FILING)

    def test_bad_magic_rejected(self, tmp_path):
        (tmp_path / "vectors.bin").write_bytes(b"NOPE" + b"\0" * 32)
        with pytest.raises(ValueError, match="magic"):
            VectorIndex.load(tmp_path)

    def test_duplicate_ref_rejected(self):
        refs = [("A", "2020-01-01", 0), ("B", "2020-01-01", 0), ("A", "2020-01-01", 0)]
        with pytest.raises(ValueError, match=r"duplicate chunk ref \('A'"):
            VectorIndex("test", refs, text_hashes(refs), [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])

    @pytest.mark.parametrize("vectors", [[[1.0, 0.0]], [[1.0, 0.0], [1.0]]])
    def test_vectors_not_one_row_per_ref_rejected(self, vectors):
        refs = [("A", "2020-01-01", 0), ("A", "2020-01-01", 1)]
        with pytest.raises(DimensionMismatchError):
            VectorIndex("test", refs, text_hashes(refs), vectors)

    def test_hashes_not_one_per_ref_rejected(self):
        refs = [("A", "2020-01-01", 0), ("A", "2020-01-01", 1)]
        with pytest.raises(ValueError, match="2 refs but 1 text hashes"):
            VectorIndex("test", refs, text_hashes(refs)[:1], [[1.0, 0.0], [0.0, 1.0]])

    def test_round_trip_keeps_text_hashes(self, tmp_path):
        index = random_index(np.random.default_rng(8), 20)[0]
        index.save(tmp_path)
        assert VectorIndex.load(tmp_path).hashes == index.hashes
        assert [p.name for p in tmp_path.iterdir()] == ["vectors.bin"]

    def test_ref_without_text_hash_rejected(self, tmp_path):
        random_index(np.random.default_rng(9), 5)[0].save(tmp_path)
        edit_header(tmp_path, lambda header: header["hashes"].pop(2))
        with pytest.raises(ValueError, match="5 refs but 4 text hashes"):
            VectorIndex.load(tmp_path)

    def test_fewer_refs_than_header_rejected(self, tmp_path):
        rng = np.random.default_rng(5)
        random_index(rng, 5)[0].save(tmp_path)
        edit_header(tmp_path, lambda header: (header["refs"].pop(), header["hashes"].pop()))
        with pytest.raises(ValueError, match=r"counts 4 vectors.*\(512 bytes\), read 640"):
            VectorIndex.load(tmp_path)

    def test_more_refs_than_header_rejected(self, tmp_path):
        rng = np.random.default_rng(6)
        random_index(rng, 5)[0].save(tmp_path)
        edit_header(tmp_path, lambda header: (header["refs"].append(["Z", "2020-01-01", 0]),
                                              header["hashes"].append("z")))
        with pytest.raises(ValueError, match=r"counts 6 vectors.*\(768 bytes\), read 640"):
            VectorIndex.load(tmp_path)

    @pytest.mark.parametrize("damage, named", [
        (lambda header: header.pop("refs"), r"KeyError\('refs'\)"),
        (lambda header: header.update(refs=[["A", "2020-01-01"]]), "ValueError"),
        (lambda header: header.update(dimension="32"),
         r"ValueError\(\"dimension '32' is not a positive integer"),
        (lambda header: b"{not json", "JSONDecodeError"),
    ], ids=["no-refs", "short-ref", "text-dimension", "not-json"])
    def test_malformed_header_rejected(self, tmp_path, damage, named):
        random_index(np.random.default_rng(10), 5)[0].save(tmp_path)
        edit_header(tmp_path, damage)
        with pytest.raises(ValueError, match=f"malformed vectors.bin header: {named}"):
            VectorIndex.load(tmp_path)

    def test_truncated_vectors_rejected(self, tmp_path):
        rng = np.random.default_rng(7)
        random_index(rng, 5, d=8)[0].save(tmp_path)
        vectors = tmp_path / "vectors.bin"
        vectors.write_bytes(vectors.read_bytes()[:-10])
        with pytest.raises(ValueError, match=r"\(160 bytes\), read 150 bytes"):
            VectorIndex.load(tmp_path)
