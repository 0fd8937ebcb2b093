import json
import random
from datetime import date

import pytest

from filingsignal.corpus import (Chunk, CorpusStore, Filing, TickerUniverse,
                                 UniverseEntry, chunk_filing, clean_filing_text,
                                 read_records, write_records)
from filingsignal.errors import PipelineError
from filingsignal.labeling import LabeledExample
from filingsignal.market_data import ReturnRecord


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

    @pytest.mark.parametrize("ticker", ["", "A/B", "../../evil", ".A", "-A", "A B", "A\\B"])
    def test_ticker_that_is_not_a_file_name_rejected(self, ticker):
        with pytest.raises(ValueError, match="ticker"):
            TickerUniverse([UniverseEntry(ticker, "0000320193")])

    def test_ticker_with_dot_or_dash_accepted(self):
        universe = TickerUniverse([UniverseEntry("BRK.B", "0001067983"),
                                   UniverseEntry("BRK-A", "0001067983")])
        assert [e.ticker for e in universe.entries] == ["BRK.B", "BRK-A"]

    def test_from_csv_names_the_file_of_a_bad_ticker(self, tmp_path):
        p = tmp_path / "u.csv"
        p.write_text("ticker,cik\nAAPL,320193\n../../evil,1\n")
        with pytest.raises(PipelineError, match=r"u\.csv: ticker '\.\./\.\./evil'"):
            TickerUniverse.from_csv(p)


class TestRecordsCsv:
    def test_return_records_exact_text(self, tmp_path):
        records = [
            ReturnRecord("AAA", date(2019, 3, 1), date(2020, 2, 28),
                         0.1 + 0.2, -0.0, 1e-300, 0.05, 0.25, []),
            ReturnRecord("BRK.B", date(2020, 2, 28), date(2021, 3, 1),
                         -0.125, 1.5, -1 / 3, 0.0, 2.0, ["open_window", "delisted"]),
        ]
        path = tmp_path / "returns.csv"
        write_records(path, ReturnRecord, records)
        assert path.read_bytes() == (
            b"ticker,filing_date,next_filing_date,target_12m,target_max,target_min,"
            b"sp500_12m,sp500_max,flags\r\n"
            b"AAA,2019-03-01,2020-02-28,0.30000000000000004,-0.0,1e-300,0.05,0.25,\r\n"
            b"BRK.B,2020-02-28,2021-03-01,-0.125,1.5,-0.3333333333333333,0.0,2.0,"
            b"open_window;delisted\r\n")
        loaded = read_records(path, ReturnRecord)
        assert loaded == records
        assert repr(loaded[0].target_max) == "-0.0"

    def test_labeled_example_exact_text(self, tmp_path):
        examples = [LabeledExample("AAA", date(2020, 2, 28), 2020, 0.25)]
        path = tmp_path / "labels.csv"
        write_records(path, LabeledExample, examples)
        assert path.read_bytes() == (b"ticker,filing_date,year,label\r\n"
                                     b"AAA,2020-02-28,2020,0.25\r\n")
        assert read_records(path, LabeledExample) == examples


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
        with pytest.raises(PipelineError, match="empty after cleaning"):
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

    @pytest.mark.parametrize("seed", range(40))
    def test_boundary_is_the_last_whitespace_of_the_window(self, seed):
        rng = random.Random(seed)
        text = "".join(rng.choices("ab \n\xa0", weights=[20, 20, 1, 1, 1],
                                   k=rng.randrange(1, 3000)))
        chunk_chars = rng.randrange(2, 400)
        overlap = rng.randrange(chunk_chars)
        chunks = chunk_filing(make_filing(text), chunk_chars, overlap)
        assert reassemble_chunks(chunks) == text
        for chunk in chunks[:-1]:
            start, end = chunk.char_span
            full = start + chunk_chars
            window = range(max(full - overlap, start + overlap + 1), full)
            spaces = [i for i in window if text[i].isspace()] if overlap else []
            assert end == (spaces[-1] + 1 if spaces else full)

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

    @pytest.mark.parametrize("change", [lambda r: {"ticker": "A"}, lambda r: [1],
                                        lambda r: r | {"ticker": 1},
                                        lambda r: r | {"note": "x"}],
                             ids=["part", "list", "number", "extra-field"])
    def test_manifest_line_not_a_record_raises(self, tmp_path, change):
        CorpusStore(tmp_path).add(make_filing("a", ticker="AAA"))
        manifest = tmp_path / "manifest.jsonl"
        record = json.loads(manifest.read_text())
        with open(manifest, "a") as f:
            f.write(json.dumps(change(record)) + "\n")
        with pytest.raises(PipelineError, match=f"^{manifest}: line 2 is not a record of "
                                                "the string fields accession_id, cik, "):
            CorpusStore(tmp_path)

    def test_keys_sorted(self, tmp_path):
        store = CorpusStore(tmp_path)
        store.add(make_filing("b", ticker="BBB"))
        store.add(make_filing("a", ticker="AAA"))
        assert store.keys() == [("AAA", "2020-01-01"), ("BBB", "2020-01-01")]

    def test_text_loads_as_it_was_stored(self, tmp_path):
        """No newline translation: a stored carriage return comes back as one."""
        store = CorpusStore(tmp_path)
        filing = make_filing("first line\r\nsecond\rthird\n")
        store.add(filing)
        assert CorpusStore(tmp_path).load(filing.key).clean_text == filing.clean_text

    def test_edited_text_is_refused(self, tmp_path):
        store = CorpusStore(tmp_path)
        filing = make_filing("revenue grew in every segment")
        store.add(filing)
        path = tmp_path / "filings" / "TEST_2020-01-01.txt"
        path.write_text("revenue fell in every segment")
        with pytest.raises(PipelineError, match=(
                f"^{path} was changed after ingest stored it: .* restore the file, or remove "
                "its line from the manifest and run stage 'ingest'")):
            list(store.load_all())
