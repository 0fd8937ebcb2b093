"""EDGAR filing URL resolution and download.

Network access goes through an injectable transport so tests run offline.
EDGAR fair-access rules are enforced here: a descriptive user-agent with a
contact address (from the EDGAR_CONTACT env var) and at most 8 requests per
second, with exponential backoff on 429/503.
"""

from __future__ import annotations

import json
import logging
import os
import time
from dataclasses import dataclass
from datetime import date
from typing import Callable, Protocol

from .corpus import Filing, TickerUniverse, clean_filing_text
from .errors import RetriableError
from .net import request

logger = logging.getLogger(__name__)

CONTACT_ENV_VAR = "EDGAR_CONTACT"
SUBMISSIONS_URL = "https://data.sec.gov/submissions/CIK{cik}.json"
ARCHIVE_URL = "https://www.sec.gov/Archives/edgar/data/{cik_int}/{acc_nodash}/{doc}"

MAX_REQUESTS_PER_SECOND = 8
BACKOFF_STATUSES = (429, 503)
MAX_RETRIES = 5
EDGAR_TIMEOUT_S = 30.0


@dataclass(frozen=True)
class FilingEntry:
    ticker: str
    cik: str
    filing_date: date
    accession_id: str
    raw_uri: str


@dataclass
class WarningRecord:
    ticker: str
    reason: str
    retriable: bool = False  # the cause may pass, such as an HTTP 500


class Transport(Protocol):
    def __call__(self, url: str) -> tuple[int, str]: ...


class RateLimiter:
    """Simple fixed-window limiter: at most `per_second` calls per second."""

    def __init__(self, per_second: int = MAX_REQUESTS_PER_SECOND, clock=time.monotonic,
                 sleep: Callable[[float], None] = time.sleep):
        self.per_second = per_second
        self._clock = clock
        self._sleep = sleep
        self._window_start = 0.0
        self._count = 0

    def acquire(self) -> None:
        now = self._clock()
        if now - self._window_start >= 1.0:
            self._window_start = now
            self._count = 0
        if self._count >= self.per_second:
            self._sleep(self._window_start + 1.0 - now)
            self._window_start = self._clock()
            self._count = 0
        self._count += 1


def _decode(data: bytes, content_type: str) -> str:
    """EDGAR's bytes as text: the charset if named, else UTF-8 for JSON, else Latin-1."""
    from email.message import Message  # loaded with urllib.request anyway

    header = Message()
    header["Content-Type"] = content_type
    default = "utf-8" if header.get_content_type() == "application/json" else "iso-8859-1"
    try:
        return data.decode(header.get_content_charset(default), errors="replace")
    except LookupError:  # a charset Python does not know
        return data.decode("utf-8", errors="replace")


def _http_transport(url: str) -> tuple[int, str]:
    contact = os.environ.get(CONTACT_ENV_VAR)
    if not contact:
        raise RuntimeError(
            f"refusing to contact EDGAR without {CONTACT_ENV_VAR} set to a "
            "descriptive identity string with a contact address"
        )
    status, data, content_type = request(url, {"User-Agent": contact}, None,
                                         EDGAR_TIMEOUT_S)
    return status, _decode(data, content_type)


class EdgarClient:
    """Rate-limited, retrying HTTP access to EDGAR endpoints."""

    def __init__(self, transport: Transport | None = None,
                 limiter: RateLimiter | None = None,
                 sleep: Callable[[float], None] = time.sleep):
        self.transport = transport or _http_transport
        self.limiter = limiter or RateLimiter()
        self._sleep = sleep

    def get(self, url: str, context: str = "") -> str:
        delay = 1.0
        for attempt in range(MAX_RETRIES):
            self.limiter.acquire()
            try:
                status, body = self.transport(url)
            except Exception as exc:  # transport-level failure (DNS, timeout)
                raise RetriableError(f"network failure for {context or url}: {exc}") from exc
            if status == 200:
                return body
            if status in BACKOFF_STATUSES and attempt < MAX_RETRIES - 1:
                logger.warning("EDGAR %s for %s, backing off %.1fs", status, url, delay)
                self._sleep(delay)
                delay *= 2
                continue
            raise RetriableError(f"HTTP {status} for {context or url}")
        raise RetriableError(f"retries exhausted for {context or url}")


class EdgarSubmissionsResolver:
    """Resolve 10-K URLs from EDGAR's per-company submissions index.

    Amendments (10-K/A) are ignored; at most one filing per ticker per
    calendar year survives, preferring the original 10-K. A ticker whose
    submissions cannot be fetched or read is a warning, not a failure.
    """

    def __init__(self, client: EdgarClient | None = None):
        self.client = client or EdgarClient()

    def resolve(
        self, universe: TickerUniverse, year_from: int, year_to: int
    ) -> tuple[list[FilingEntry], list[WarningRecord]]:
        if year_from > year_to:
            raise ValueError("year_from must be <= year_to")
        entries: list[FilingEntry] = []
        warnings: list[WarningRecord] = []
        for u in universe.entries:
            try:
                body = self.client.get(
                    SUBMISSIONS_URL.format(cik=u.cik), context=f"submissions for {u.ticker}"
                )
                data = json.loads(body)
            except RetriableError as exc:
                if "HTTP 404" in str(exc):
                    warnings.append(WarningRecord(u.ticker, f"unknown cik {u.cik}"))
                else:
                    warnings.append(WarningRecord(u.ticker, str(exc), retriable=True))
                continue
            except ValueError as exc:  # not JSON
                warnings.append(WarningRecord(u.ticker, f"submissions not JSON: {exc}"))
                continue
            found = self._extract(u, data, year_from, year_to)
            if not found:
                warnings.append(
                    WarningRecord(u.ticker, f"no 10-K filings in {year_from}-{year_to}")
                )
            entries.extend(found)
        entries.sort(key=lambda e: (e.ticker, e.filing_date))
        return entries, warnings

    @staticmethod
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


def fetch_filing(entry: FilingEntry, client: EdgarClient | None = None) -> Filing:
    """Download one filing and return it with markup stripped."""
    client = client or EdgarClient()
    raw = client.get(entry.raw_uri, context=f"{entry.ticker} {entry.filing_date}")
    clean = clean_filing_text(raw)  # raises EmptyDocumentError on markup-only docs
    return Filing(
        ticker=entry.ticker,
        cik=entry.cik,
        accession_id=entry.accession_id,
        filing_date=entry.filing_date,
        raw_uri=entry.raw_uri,
        clean_text=clean,
    )
