"""EDGAR filing URL resolution and download.

Network access goes through an injectable transport so tests run offline.
EDGAR fair-access rules are enforced here: a descriptive user-agent with a
contact address (from the EDGAR_CONTACT env var) and at most 8 requests per
second. A failed request is retried as ``net.with_retries`` says.
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from dataclasses import dataclass
from datetime import date
from typing import Callable, Mapping, Protocol

from .corpus import Filing, TickerUniverse, clean_filing_text
from .errors import Failures, PipelineError
from .net import check_status, request, with_retries

CONTACT_ENV_VAR = "EDGAR_CONTACT"
SUBMISSIONS_URL = "https://data.sec.gov/submissions/CIK{cik}.json"
ARCHIVE_URL = "https://www.sec.gov/Archives/edgar/data/{cik_int}/{acc_nodash}/{doc}"

MAX_REQUESTS_PER_SECOND = 8
EDGAR_TIMEOUT_S = 30.0


@dataclass(frozen=True)
class FilingEntry:
    ticker: str
    cik: str
    filing_date: date
    accession_id: str
    raw_uri: str


class Transport(Protocol):
    def __call__(self, url: str) -> tuple[int, str, Mapping[str, str]]: ...


class RateLimiter:
    """At most ``per_second`` calls start in any one second: a call waits
    until the ``per_second``-th latest start is a second old."""

    def __init__(self, per_second: int = MAX_REQUESTS_PER_SECOND, clock=time.monotonic,
                 sleep: Callable[[float], None] = time.sleep):
        self._clock = clock
        self._sleep = sleep
        self._starts: deque[float] = deque(maxlen=per_second)

    def acquire(self) -> None:
        if len(self._starts) == self._starts.maxlen:
            wait = self._starts[0] + 1.0 - self._clock()
            if wait > 0:
                self._sleep(wait)
        self._starts.append(self._clock())


def _decode(data: bytes, content_type: str) -> str:
    """EDGAR's bytes as text: the charset if named, else UTF-8 for JSON, else Latin-1."""
    from email.message import Message  # loaded with http.client anyway

    header = Message()
    header["Content-Type"] = content_type
    default = "utf-8" if header.get_content_type() == "application/json" else "iso-8859-1"
    try:
        return data.decode(header.get_content_charset(default), errors="replace")
    except LookupError:  # a charset Python does not know
        return data.decode("utf-8", errors="replace")


def _http_transport(url: str) -> tuple[int, str, Mapping[str, str]]:
    # EdgarClient refuses to use this transport without the contact.
    status, data, headers = request(url, {"User-Agent": os.environ[CONTACT_ENV_VAR]},
                                    None, EDGAR_TIMEOUT_S)
    return status, _decode(data, headers.get("Content-Type", "")), headers


class EdgarClient:
    """Rate-limited HTTP access to EDGAR endpoints, retried through ``with_retries``."""

    def __init__(self, transport: Transport | None = None,
                 limiter: RateLimiter | None = None):
        if transport is None and not os.environ.get(CONTACT_ENV_VAR):  # before any request
            raise PipelineError(
                f"refusing to contact EDGAR without {CONTACT_ENV_VAR} set to a "
                "descriptive identity string with a contact address"
            )
        self.transport = transport or _http_transport
        self.limiter = limiter or RateLimiter()

    def get(self, url: str, context: str = "") -> str:
        """The text of a 200 from ``url``; errors name ``context``, or ``url``. A
        404, a missing ticker or document, is one item's error and is not retried."""
        def attempt() -> str:
            self.limiter.acquire()
            status, text, headers = self.transport(url)
            if status == 404:
                raise PipelineError(f"HTTP 404 from {url}")
            check_status(status, headers, url)
            return text

        return with_retries(attempt, context or url)


def resolve_filings(client: EdgarClient, universe: TickerUniverse, year_from: int,
                    year_to: int, failures: Failures) -> list[FilingEntry]:
    """Resolve 10-K URLs from EDGAR's per-company submissions index.

    Amendments (10-K/A) are ignored; at most one filing per ticker per
    calendar year survives, preferring the original 10-K. A ticker whose
    submissions cannot be fetched or read, are not of the expected shape or
    hold no 10-K in the years asked is recorded in ``failures``, not fatal.
    """
    if year_from > year_to:
        raise ValueError("year_from must be <= year_to")
    entries: list[FilingEntry] = []
    for u in universe.entries:
        try:
            body = client.get(SUBMISSIONS_URL.format(cik=u.cik),
                              context=f"submissions for {u.ticker}")
            found = _extract(u, json.loads(body), year_from, year_to)
        except PipelineError as exc:  # a final status, such as a 403, is raised
            failures.record(u.ticker, exc)
            continue
        except json.JSONDecodeError as exc:
            failures.record(u.ticker, f"submissions not JSON: {exc}")
            continue
        except (AttributeError, LookupError, TypeError, ValueError) as exc:
            failures.record(u.ticker, f"submissions not of the expected shape: {exc!r}")
            continue
        if not found:
            failures.record(u.ticker, f"no 10-K filings in {year_from}-{year_to}")
        entries.extend(found)
    entries.sort(key=lambda e: (e.ticker, e.filing_date))
    return entries


def _extract(u, data, year_from, year_to) -> list[FilingEntry]:
    recent = data.get("filings", {}).get("recent", {})
    forms = recent.get("form", [])
    dates = recent.get("filingDate", [])
    accessions = recent.get("accessionNumber", [])
    docs = recent.get("primaryDocument", [])
    by_year: dict[int, FilingEntry] = {}
    for form, d, acc, doc in zip(forms, dates, accessions, docs):
        if form != "10-K":  # skips 10-K/A amendments
            continue
        filed = date.fromisoformat(d)
        if not year_from <= filed.year <= year_to:
            continue
        uri = ARCHIVE_URL.format(
            cik_int=int(u.cik), acc_nodash=acc.replace("-", ""), doc=doc
        )
        entry = FilingEntry(u.ticker, u.cik, filed, acc, uri)
        prior = by_year.get(filed.year)
        # One 10-K per fiscal year; keep the earliest-filed original.
        if prior is None or filed < prior.filing_date:
            by_year[filed.year] = entry
    return list(by_year.values())


def fetch_filing(entry: FilingEntry, client: EdgarClient) -> Filing:
    """Download one filing through ``client`` and return it with markup stripped."""
    raw = client.get(entry.raw_uri, context=f"{entry.ticker} {entry.filing_date}")
    clean = clean_filing_text(raw)  # raises PipelineError on markup-only docs
    return Filing(
        ticker=entry.ticker,
        cik=entry.cik,
        accession_id=entry.accession_id,
        filing_date=entry.filing_date,
        raw_uri=entry.raw_uri,
        clean_text=clean,
    )
