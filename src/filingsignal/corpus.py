"""10-K corpus: ticker universe, filing cleaning, chunking, and on-disk store.

The store keeps one cleaned-text file per filing plus a JSONL manifest so a
partially built corpus is inspectable and resumable.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import logging
import os
import re
from collections import Counter
from dataclasses import asdict, dataclass
from datetime import date
from html import unescape
from html.parser import HTMLParser
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .errors import EmptyDocumentError, PipelineError

logger = logging.getLogger(__name__)

MANIFEST_NAME = "manifest.jsonl"
FILINGS_DIR = "filings"


@dataclass(frozen=True)
class UniverseEntry:
    ticker: str
    cik: str  # zero-padded, 10 digits


@dataclass
class TickerUniverse:
    entries: list[UniverseEntry]

    def __post_init__(self):
        tickers = [e.ticker for e in self.entries]
        if len(set(tickers)) != len(tickers):
            repeated = sorted(t for t, n in Counter(tickers).items() if n > 1)
            raise ValueError(f"duplicate tickers in universe: {repeated}")
        for e in self.entries:
            if not re.fullmatch(r"\d{10}", e.cik):
                raise ValueError(f"cik must be 10 digits, got {e.cik!r} for {e.ticker}")

    @classmethod
    def from_csv(cls, path: str | Path) -> "TickerUniverse":
        """Load a universe from a CSV with columns ticker,cik; a cik of fewer
        than 10 digits is zero-padded. Any mistake is a PipelineError naming
        the file."""
        with open(path, newline="", encoding="utf-8") as f:
            reader = csv.DictReader(f, restval="")
            if missing := sorted({"ticker", "cik"} - set(reader.fieldnames or ())):
                raise PipelineError(f"{path}: no column {missing}")
            entries = []
            for row in reader:
                cik = row["cik"].strip()
                entries.append(UniverseEntry(row["ticker"].strip(),
                                             cik.zfill(10) if cik.isdigit() else cik))
        try:
            return cls(entries)
        except ValueError as exc:
            raise PipelineError(f"{path}: {exc}") from exc

    def __len__(self) -> int:
        return len(self.entries)


@dataclass
class Filing:
    ticker: str
    cik: str
    accession_id: str
    filing_date: date
    raw_uri: str
    clean_text: str

    @property
    def key(self) -> tuple[str, str]:
        return (self.ticker, self.filing_date.isoformat())


@dataclass
class Chunk:
    filing_key: tuple[str, str]  # (ticker, iso filing date)
    chunk_index: int
    text: str
    char_span: tuple[int, int]

    @property
    def sha256(self) -> str:
        """Hex sha256 of ``text``: the key of its vector in the index."""
        return hashlib.sha256(self.text.encode("utf-8")).hexdigest()


# --- cleaning -----------------------------------------------------------------

# Elements whose text content is never document prose.
_SKIP_ELEMENTS = {"script", "style", "head", "title", "ix:header", "xbrl"}

# Long runs without whitespace are tag soup / base64 blobs, not prose.
_BLOB_RE = re.compile(r"\S{200,}")
_BASE64_LINE_RE = re.compile(r"^[A-Za-z0-9+/=]{60,}$", re.MULTILINE)


class _TextExtractor(HTMLParser):
    """Pull visible text out of EDGAR HTML, skipping non-prose elements."""

    _BLOCK_TAGS = {"p", "div", "tr", "td", "th", "br", "li", "table",
                   "h1", "h2", "h3", "h4"}

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.parts: list[str] = []
        self._skip_depth = 0

    def handle_starttag(self, tag, attrs):
        if tag.lower() in _SKIP_ELEMENTS:
            self._skip_depth += 1
        elif tag.lower() in self._BLOCK_TAGS:
            self.parts.append("\n")

    def handle_endtag(self, tag):
        if tag.lower() in _SKIP_ELEMENTS and self._skip_depth > 0:
            self._skip_depth -= 1
        elif tag.lower() in self._BLOCK_TAGS:
            self.parts.append("\n")

    def handle_data(self, data):
        if self._skip_depth == 0:
            self.parts.append(data)


def _looks_like_markup(text: str) -> bool:
    return bool(re.search(r"<(?:html|body|div|p|table|document|sec-document)\b", text, re.I))


def clean_filing_text(raw: str) -> str:
    """Strip markup and non-text artifacts from a raw filing document.

    Plain-text filings (pre-2001 style) pass through with whitespace
    normalization only. Raises EmptyDocumentError when nothing survives.
    """
    if _looks_like_markup(raw):
        extractor = _TextExtractor()
        extractor.feed(raw)
        extractor.close()
        text = "".join(extractor.parts)
    else:
        text = unescape(raw)

    text = _BASE64_LINE_RE.sub(" ", text)
    text = _BLOB_RE.sub(" ", text)
    # Collapse whitespace: runs of blank lines to one newline, spaces to one.
    text = re.sub(r"[ \t\r\f\v]+", " ", text)
    text = re.sub(r" ?\n ?", "\n", text)
    text = re.sub(r"\n{2,}", "\n", text)
    text = text.strip()

    if not text:
        raise EmptyDocumentError("document is empty after cleaning")
    return text


# --- chunking -----------------------------------------------------------------


def chunk_filing(filing: Filing, chunk_chars: int, overlap_chars: int) -> list[Chunk]:
    """Split clean_text into overlapping chunks.

    Consecutive chunks overlap by exactly ``overlap_chars`` (the final chunk
    may overlap more of its predecessor if little text remains). Boundaries
    snap backward to the nearest whitespace within the overlap window so
    chunks tend to end on word breaks. De-overlapped concatenation
    reconstructs clean_text exactly.
    """
    if not 0 <= overlap_chars < chunk_chars:
        raise ValueError("require 0 <= overlap_chars < chunk_chars")

    text = filing.clean_text
    n = len(text)
    chunks: list[Chunk] = []
    start = 0
    index = 0
    while True:
        end = min(start + chunk_chars, n)
        if end < n and overlap_chars > 0:
            # Snap back to the last whitespace in the overlap window, keeping
            # enough progress that the next start strictly advances.
            window_start = max(end - overlap_chars, start + overlap_chars + 1)
            ws = next((i for i in range(end - 1, window_start - 1, -1) if text[i].isspace()),
                      None)
            if ws is not None:
                end = ws + 1
        chunks.append(Chunk(filing.key, index, text[start:end], (start, end)))
        if end >= n:
            break
        start = end - overlap_chars
        index += 1
    return chunks


# --- store --------------------------------------------------------------------


def read_whole_lines(path: Path) -> bytes:
    """The bytes of an append-only JSONL file up to its last newline; b"" if
    it does not exist.

    Every record is appended as one line ending in a newline, so text after
    the last newline is a record torn by an interrupted append: it is cut
    from the file with a warning, and the next append starts on a fresh line.
    """
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return b""
    complete = data.rfind(b"\n") + 1
    if complete < len(data):
        logger.warning("%s: dropping torn final line (%d bytes)", path, len(data) - complete)
        os.truncate(path, complete)
    return data[:complete]


def read_jsonl(path: Path) -> Iterator[dict]:
    """The records of an append-only JSONL file, one at a time, after its torn
    final line is cut (see ``read_whole_lines``). Any unreadable line raises.
    """
    for line in read_whole_lines(path).split(b"\n"):
        if line.strip():
            yield json.loads(line)


def write_atomic(path: str | Path, data: str | bytes) -> None:
    """Replace ``path`` with ``data`` through a temporary file and a rename.

    Text is written as UTF-8 without newline translation. A process killed at
    any point leaves the old file or the new one, never a part of either.
    (Without an fsync this does not cover a power cut.)
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data.encode("utf-8") if isinstance(data, str) else data)
    os.replace(tmp, path)


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Replace ``path`` with a CSV of ``header`` and ``rows`` (see ``write_atomic``)."""
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows(rows)
    write_atomic(path, text.getvalue())


@dataclass
class ManifestRecord:
    ticker: str
    cik: str
    filing_date: str
    accession_id: str
    path: str  # relative to the corpus dir
    sha256: str


class CorpusStore:
    """Filesystem store: filings/<ticker>_<date>.txt plus a JSONL manifest.

    Ingestion is idempotent keyed by (ticker, filing_date); the manifest is
    append-only under a single-writer discipline, and a torn final line is
    cut (see ``read_jsonl``), so that filing is stored again by ``add``.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.filings_dir = self.root / FILINGS_DIR
        self.manifest_path = self.root / MANIFEST_NAME
        self.filings_dir.mkdir(parents=True, exist_ok=True)
        self._records: dict[tuple[str, str], ManifestRecord] = {}
        for fields in read_jsonl(self.manifest_path):
            rec = ManifestRecord(**fields)
            self._records[(rec.ticker, rec.filing_date)] = rec

    def __contains__(self, key: tuple[str, str]) -> bool:
        return key in self._records

    def __len__(self) -> int:
        return len(self._records)

    def keys(self) -> list[tuple[str, str]]:
        return sorted(self._records)

    def add(self, filing: Filing) -> bool:
        """Persist a filing; returns False (no-op) if already stored."""
        key = filing.key
        if key in self._records:
            return False
        rel = f"{FILINGS_DIR}/{filing.ticker}_{filing.filing_date.isoformat()}.txt"
        (self.root / rel).write_text(filing.clean_text, encoding="utf-8")
        rec = ManifestRecord(
            ticker=filing.ticker,
            cik=filing.cik,
            filing_date=filing.filing_date.isoformat(),
            accession_id=filing.accession_id,
            path=rel,
            sha256=hashlib.sha256(filing.clean_text.encode("utf-8")).hexdigest(),
        )
        with open(self.manifest_path, "a", encoding="utf-8") as f:
            f.write(json.dumps(asdict(rec)) + "\n")
        self._records[key] = rec
        return True

    def load(self, key: tuple[str, str]) -> Filing:
        rec = self._records[key]
        text = (self.root / rec.path).read_text(encoding="utf-8")
        return Filing(
            ticker=rec.ticker,
            cik=rec.cik,
            accession_id=rec.accession_id,
            filing_date=date.fromisoformat(rec.filing_date),
            raw_uri="",
            clean_text=text,
        )

    def load_all(self) -> list[Filing]:
        return [self.load(k) for k in self.keys()]
