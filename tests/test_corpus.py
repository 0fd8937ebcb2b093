import random
from datetime import date

import pytest

from filingsignal.corpus import (Chunk, CorpusStore, Filing, TickerUniverse,
                                 UniverseEntry, chunk_filing, clean_filing_text)
from filingsignal.errors import EmptyDocumentError


def reassemble_chunks(chunks):
    """Inverse of chunk_filing: drop each chunk's leading overlap and join."""
    if not chunks:
        return ""
    parts = [chunks[0].text]
    for prev, cur in zip(chunks, chunks[1:]):
        already = prev.char_span[1] - cur.char_span[0]
        parts.append(cur.text[already:])
    return "".join(parts)


def make_filing(text, ticker="TEST", day=1):
    return Filing(ticker, "0000000001", "ACC-1", date(2020, 1, day),
                  "file:///x", text)


class TestUniverse:
    def test_duplicate_tickers_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            TickerUniverse([UniverseEntry("AAPL", "0000320193"),
                            UniverseEntry("AAPL", "0000320193")])

    def test_cik_must_be_ten_digits(self):
        with pytest.raises(ValueError, match="10 digits"):
            TickerUniverse([UniverseEntry("AAPL", "320193")])

    def test_from_csv_zero_pads(self, tmp_path):
        p = tmp_path / "u.csv"
        p.write_text("ticker,cik\nAAPL,320193\n")
        universe = TickerUniverse.from_csv(p)
        assert universe.entries[0].cik == "0000320193"


class TestCleaner:
    def test_fixture_known_sentences_survive(self, sample_10k_html):
        text = clean_filing_text(sample_10k_html)
        assert "Item 1A. Risk Factors" in text
        assert "record revenue growth" in text
        assert "limited number of suppliers" in text
        assert "Net sales increased 12%" in text

    def test_fixture_markup_removed(self, sample_10k_html):
        text = clean_filing_text(sample_10k_html)
        assert "<" not in text and ">" not in text
        assert "shouldNeverAppear" not in text  # script body
        assert "font-family" not in text  # style body
        assert "hidden xbrl header" not in text  # ix:header content
        assert "R0lGODlh" not in text  # base64 blob

    def test_pure_markup_is_empty_error(self):
        with pytest.raises(EmptyDocumentError):
            clean_filing_text("<html><body><div></div><p> </p></body></html>")

    def test_plain_text_identity_modulo_whitespace(self):
        raw = "Annual  report.\n\n\nRevenue   grew."
        assert clean_filing_text(raw) == "Annual report.\nRevenue grew."


class TestChunking:
    def test_forced_by_definition(self):
        filing = make_filing("abcdefghij")
        chunks = chunk_filing(filing, chunk_chars=4, overlap_chars=0)
        assert [c.text for c in chunks] == ["abcd", "efgh", "ij"]
        assert [c.char_span for c in chunks] == [(0, 4), (4, 8), (8, 10)]
        assert [c.chunk_index for c in chunks] == [0, 1, 2]

    def test_short_text_single_chunk(self):
        filing = make_filing("tiny")
        chunks = chunk_filing(filing, chunk_chars=100, overlap_chars=10)
        assert len(chunks) == 1
        assert chunks[0].text == "tiny"

    def test_overlap_is_exact(self):
        text = "x" * 1000  # no whitespace, so no snapping
        chunks = chunk_filing(make_filing(text), chunk_chars=100, overlap_chars=25)
        for prev, cur in zip(chunks, chunks[1:]):
            assert prev.char_span[1] - cur.char_span[0] == 25

    def test_reconstruction_100kb(self, sample_10k_html):
        rng = random.Random(42)
        words = clean_filing_text(sample_10k_html).split()
        text = " ".join(rng.choice(words) for _ in range(20000))[:100_000]
        filing = make_filing(text)
        chunks = chunk_filing(filing, chunk_chars=2048, overlap_chars=256)
        assert reassemble_chunks(chunks) == text

    def test_spans_monotone_and_cover(self):
        text = "word " * 2000
        chunks = chunk_filing(make_filing(text), chunk_chars=256, overlap_chars=32)
        assert chunks[0].char_span[0] == 0
        assert chunks[-1].char_span[1] == len(text)
        for prev, cur in zip(chunks, chunks[1:]):
            assert cur.char_span[0] > prev.char_span[0]
            assert cur.char_span[0] < prev.char_span[1]  # no gaps
        for c in chunks:
            assert c.text == text[c.char_span[0]:c.char_span[1]]
            assert c.text

    def test_snaps_to_whitespace(self):
        text = ("alpha " * 100).strip()
        chunks = chunk_filing(make_filing(text), chunk_chars=64, overlap_chars=16)
        for c in chunks[:-1]:
            assert c.text[-1].isspace()

    def test_bad_overlap_rejected(self):
        with pytest.raises(ValueError):
            chunk_filing(make_filing("abc"), chunk_chars=4, overlap_chars=4)


class TestStore:
    def test_add_and_load_round_trip(self, tmp_path):
        store = CorpusStore(tmp_path)
        filing = make_filing("some cleaned text")
        assert store.add(filing) is True
        loaded = store.load(filing.key)
        assert loaded.clean_text == "some cleaned text"
        assert loaded.filing_date == filing.filing_date

    def test_refetch_is_noop(self, tmp_path):
        store = CorpusStore(tmp_path)
        filing = make_filing("text")
        assert store.add(filing) is True
        assert store.add(filing) is False
        assert len(store) == 1
        # manifest has exactly one line
        lines = (tmp_path / "manifest.jsonl").read_text().strip().splitlines()
        assert len(lines) == 1

    def test_reopen_sees_existing_records(self, tmp_path):
        CorpusStore(tmp_path).add(make_filing("text"))
        store = CorpusStore(tmp_path)
        assert make_filing("text").key in store

    def test_torn_manifest_line_dropped_and_readded(self, tmp_path):
        CorpusStore(tmp_path).add(make_filing("a", ticker="AAA"))
        CorpusStore(tmp_path).add(make_filing("b", ticker="BBB"))
        manifest = tmp_path / "manifest.jsonl"
        original = manifest.read_bytes()
        manifest.write_bytes(original[:-10])  # tear the last record
        store = CorpusStore(tmp_path)
        assert store.keys() == [("AAA", "2020-01-01")]
        assert store.add(make_filing("b", ticker="BBB")) is True
        assert manifest.read_bytes() == original
        assert len(CorpusStore(tmp_path)) == 2

    def test_keys_sorted(self, tmp_path):
        store = CorpusStore(tmp_path)
        store.add(make_filing("b", ticker="BBB"))
        store.add(make_filing("a", ticker="AAA"))
        assert store.keys() == [("AAA", "2020-01-01"), ("BBB", "2020-01-01")]
