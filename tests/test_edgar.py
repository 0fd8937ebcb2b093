import json
from datetime import date
from pathlib import Path

import pytest

from filingsignal.corpus import TickerUniverse, UniverseEntry
from filingsignal.edgar import (CONTACT_ENV_VAR, EdgarClient, FilingEntry,
                                RateLimiter, fetch_filing, resolve_filings)
from filingsignal.errors import Failures, FinalStatusError, PipelineError, RetriableError
from filingsignal.net import MAX_ATTEMPTS


def submissions_body(forms):
    return json.dumps({"filings": {"recent": {
        "form": [f[0] for f in forms],
        "filingDate": [f[1] for f in forms],
        "accessionNumber": [f[2] for f in forms],
        "primaryDocument": [f[3] for f in forms],
    }}})


class MapTransport:
    """Canned (status, body) responses keyed by URL substring; a list of them
    answers successive requests."""

    def __init__(self, responses):
        self.responses = responses
        self.calls = []

    def __call__(self, url):
        self.calls.append(url)
        for key, value in self.responses.items():
            if key in url:
                return (*(value.pop(0) if isinstance(value, list) else value), {})
        return 404, "not found", {}


def make_client(transport):
    return EdgarClient(transport=transport)


def universe(*pairs):
    return TickerUniverse([UniverseEntry(t, c) for t, c in pairs])


def resolved(transport, tickers, year_from, year_to):
    """The entries resolved for ``tickers`` through ``transport``, and the
    failures recorded."""
    failures = Failures(Path("ingest_errors.jsonl"))
    return resolve_filings(make_client(transport), tickers, year_from, year_to,
                           failures), failures


def recorded(failures):
    return [(item, str(error)) for item, error in failures.items]


class TestResolver:
    def test_one_entry_per_annual_filing(self):
        forms = [("10-K", f"{y}-02-01", f"acc-{y}", "doc.htm")
                 for y in range(2002, 2024)]
        transport = MapTransport({"CIK0000000001": (200, submissions_body(forms))})
        entries, failures = resolved(transport, universe(("AAPL", "0000000001")), 2002, 2023)
        assert len(entries) == 22
        assert failures.items == []
        assert entries == sorted(entries, key=lambda e: (e.ticker, e.filing_date))

    def test_empty_universe(self):
        entries, failures = resolved(MapTransport({}), universe(), 2002, 2023)
        assert entries == [] and failures.items == []

    def test_unknown_cik_warns_and_skips(self, slept):
        transport = MapTransport({})
        entries, failures = resolved(transport, universe(("FAKE", "0009999999")), 2010, 2020)
        assert entries == []
        assert recorded(failures) == [
            ("FAKE", "HTTP 404 from https://data.sec.gov/submissions/CIK0009999999.json")]
        assert failures.retriable == 0
        assert len(transport.calls) == 1 and slept == []  # a 404 is not asked again

    def test_server_error_then_answer_resolves_in_the_same_run(self, slept):
        forms = [("10-K", "2020-02-01", "acc-1", "doc.htm")]
        transport = MapTransport({"CIK0000000001": [(500, "boom"),
                                                    (200, submissions_body(forms))]})
        entries, failures = resolved(transport, universe(("AAPL", "0000000001")), 2020, 2020)
        assert [e.accession_id for e in entries] == ["acc-1"] and failures.items == []
        assert len(transport.calls) == 2 and slept == []

    def test_other_final_status_stops_the_resolver(self):
        with pytest.raises(FinalStatusError, match="HTTP 403"):
            resolved(MapTransport({"CIK": (403, "no")}), universe(("AAPL", "0000000001")),
                     2020, 2020)

    def test_no_filings_in_range_warns(self):
        forms = [("10-K", "1999-02-01", "acc-old", "doc.htm")]
        transport = MapTransport({"CIK0000000001": (200, submissions_body(forms))})
        entries, failures = resolved(transport, universe(("AAPL", "0000000001")), 2010, 2020)
        assert entries == []
        assert recorded(failures) == [("AAPL", "no 10-K filings in 2010-2020")]

    def test_amendments_ignored(self):
        forms = [("10-K", "2020-02-01", "acc-orig", "doc.htm"),
                 ("10-K/A", "2020-03-01", "acc-amend", "doc.htm")]
        transport = MapTransport({"CIK0000000001": (200, submissions_body(forms))})
        entries, _ = resolved(transport, universe(("AAPL", "0000000001")), 2020, 2020)
        assert [e.accession_id for e in entries] == ["acc-orig"]

    def test_one_per_year_prefers_earliest(self):
        forms = [("10-K", "2020-06-01", "acc-late", "doc.htm"),
                 ("10-K", "2020-02-01", "acc-early", "doc.htm")]
        transport = MapTransport({"CIK0000000001": (200, submissions_body(forms))})
        entries, _ = resolved(transport, universe(("AAPL", "0000000001")), 2020, 2020)
        assert [e.accession_id for e in entries] == ["acc-early"]

    @pytest.mark.parametrize("body, reason", [
        ("[]", "expected shape"),
        (submissions_body([("10-K", "2020/02/14", "acc-odd", "doc.htm")]), "expected shape"),
        ("<html>busy</html>", "not JSON"),
    ], ids=["list", "slashed-date", "not-json"])
    def test_odd_submissions_warn_and_other_tickers_resolve(self, body, reason):
        good = submissions_body([("10-K", "2020-02-01", "acc-good", "doc.htm")])
        transport = MapTransport({"CIK0000000001": (200, body),
                                  "CIK0000000002": (200, good)})
        entries, failures = resolved(
            transport, universe(("ODD", "0000000001"), ("GOOD", "0000000002")), 2020, 2020)
        assert [e.accession_id for e in entries] == ["acc-good"]
        [(item, error)] = recorded(failures)
        assert item == "ODD" and reason in error and failures.retriable == 0

    def test_bad_year_range(self):
        with pytest.raises(ValueError):
            resolved(MapTransport({}), universe(), 2020, 2010)


class TestClient:
    def test_network_failure_is_retriable_with_context(self):
        def boom(url):
            raise RetriableError("no response from http://x: connection reset")

        client = EdgarClient(transport=boom)
        with pytest.raises(RetriableError, match=f"TICK 2020 failed {MAX_ATTEMPTS} times"):
            client.get("http://x", context="TICK 2020")

    def test_backoff_then_success(self, slept):
        transport = MapTransport({"x": [(429, "slow down"), (429, "slow down"),
                                        (200, "body")]})
        assert make_client(transport).get("http://x") == "body"
        assert slept == [1.0, 2.0]  # exponential

    def test_http_error_is_retriable(self, slept):
        transport = MapTransport({"x": (500, "boom")})
        with pytest.raises(RetriableError, match="HTTP 500"):
            make_client(transport).get("http://x")
        assert len(transport.calls) == MAX_ATTEMPTS
        assert slept == [2.0]  # the first retry after a 5xx is at once

    def test_refuses_network_without_contact_env(self, monkeypatch, slept):
        monkeypatch.delenv(CONTACT_ENV_VAR, raising=False)
        with pytest.raises(PipelineError, match=CONTACT_ENV_VAR) as exc:
            EdgarClient().get("http://example.invalid")  # default transport
        assert not isinstance(exc.value, RetriableError)  # a mistake: never retried
        assert slept == []


class TestRateLimiter:
    def test_sleeps_after_burst(self):
        now = {"t": 0.0}
        slept = []
        limiter = RateLimiter(per_second=8, clock=lambda: now["t"],
                              sleep=slept.append)
        for _ in range(8):
            limiter.acquire()
        assert slept == []
        limiter.acquire()  # ninth call in the same second must wait
        assert len(slept) == 1

    def test_no_second_holds_more_than_the_limit(self):
        now = {"t": 0.0}
        starts = []

        def sleep(seconds):
            now["t"] += seconds

        limiter = RateLimiter(per_second=8, clock=lambda: now["t"], sleep=sleep)
        # a burst either side of the edge of the first second
        for at, calls in [(0.0, 1), (0.875, 7), (1.0, 8)]:
            now["t"] = max(now["t"], at)
            for _ in range(calls):
                limiter.acquire()
                starts.append(now["t"])
        assert max(sum(t <= u < t + 1.0 for u in starts) for t in starts) == 8


class TestFetch:
    def entry(self):
        return FilingEntry("TEST", "0000000001", date(2020, 2, 1), "acc-1",
                           "http://edgar/doc.htm")

    def test_fetch_cleans_markup(self, sample_10k_html):
        client = make_client(MapTransport({"doc.htm": (200, sample_10k_html)}))
        filing = fetch_filing(self.entry(), client)
        assert "Item 1A" in filing.clean_text
        assert "<" not in filing.clean_text

    def test_markup_only_document_fails_hard(self):
        client = make_client(MapTransport({"doc.htm": (200, "<html><p></p></html>")}))
        with pytest.raises(PipelineError, match="empty after cleaning"):
            fetch_filing(self.entry(), client)

    def test_http_error_propagates(self):
        client = make_client(MapTransport({"doc.htm": (503, "maintenance")}))
        with pytest.raises(RetriableError):
            fetch_filing(self.entry(), client)

    def test_missing_document_is_final(self):
        transport = MapTransport({})
        with pytest.raises(PipelineError, match="HTTP 404 from http://edgar/doc.htm") as exc:
            fetch_filing(self.entry(), make_client(transport))
        # one missing item: neither a status that stops the stage nor one worth a retry
        assert not isinstance(exc.value, (FinalStatusError, RetriableError))
        assert len(transport.calls) == 1
