"""Daily price series and filing-window return computation.

Window convention: hold from the 2nd trading day strictly after a filing to
the 2nd trading day strictly before the next filing. "Days" are trading days,
never calendar days, so boundaries always land on priced dates. The window's
max/min returns use the 98th/2nd percentile of daily cumulative returns as
robust proxies, with linear interpolation between closest ranks.

A price CSV is parsed a column at a time in numpy blocks. A file that this
parse refuses, a row that does not parse among them, is read again a row at
a time, so that the bad row can be named by file, line and row.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path

import numpy as np

from .corpus import write_csv
from .errors import PipelineError

logger = logging.getLogger(__name__)

MAX_PERCENTILE = 98.0
MIN_PERCENTILE = 2.0
MIN_WINDOW_OBSERVATIONS = 10
TRADING_DAY_OFFSET = 2

FLAG_OPEN_WINDOW = "open_window"
FLAG_DELISTED = "delisted"

# A return basis ("12m" or "max") names the stock and benchmark fields it reads.
BASIS_FIELDS = {"12m": ("target_12m", "sp500_12m"), "max": ("target_max", "sp500_max")}
PRICE_COLUMNS = ("symbol", "date", "adjusted_close")

RETURNS_COLUMNS = [
    "ticker", "filing_date", "next_filing_date",
    "target_12m", "target_max", "target_min",
    "sp500_12m", "sp500_max", "flags",
]


class WindowSkipped(Exception):
    """A return window cannot be computed; the record is skipped with a warning."""


@dataclass
class PriceSeries:
    """One symbol's daily closes: ``dates`` (datetime64[D], strictly
    increasing) and ``closes`` (float64, finite and above 0), index-aligned."""

    symbol: str
    dates: np.ndarray
    closes: np.ndarray

    def __post_init__(self):
        self.dates = np.asarray(self.dates, dtype="datetime64[D]")
        self.closes = np.asarray(self.closes, dtype=np.float64)
        if not (np.diff(self.dates) > np.timedelta64(0, "D")).all():
            raise ValueError(f"{self.symbol}: dates must be strictly increasing")
        bad = ~(np.isfinite(self.closes) & (self.closes > 0))
        if bad.any():
            i = bad.argmax()
            raise ValueError(f"{self.symbol}: bad price {float(self.closes[i])} "
                             f"on {self.dates[i]}")


_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()


def load_price_csv(path: str | Path) -> dict[str, PriceSeries | str]:
    """Read daily bars (symbol,date,adjusted_close) into one PriceSeries per symbol.

    A symbol with a row whose date or close does not parse, or is missing,
    maps instead to a reason naming the file, the line and the row; a symbol
    whose rows fail PriceSeries's checks maps to that check's message. A
    header without one of the three columns raises PipelineError naming the
    file. The rows are parsed column by column (see ``_parse_columns``); a
    file that parse refuses is read again row by row, which names the bad
    row, so both parses give the same result.
    """
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None:  # empty file
            return {}
        if missing := [c for c in PRICE_COLUMNS if c not in header]:
            raise PipelineError(f"{path}: header {','.join(header)!r} has no column "
                                f"{', '.join(missing)}")
        i_sym, i_date, i_close = map(header.index, PRICE_COLUMNS)
        rows = _parse_columns(path, len(header), i_sym, i_date, i_close)
        unparsed: dict[str, str] = {}
        if rows is None:
            rows = {}
            for line, rec in enumerate(reader, start=2):
                if not rec:  # blank line
                    continue
                try:
                    symbol = rec[i_sym]
                    day = date.fromisoformat(rec[i_date]).toordinal()
                    close = float(rec[i_close])
                except (ValueError, IndexError) as exc:  # IndexError: a short row
                    symbol = rec[i_sym] if i_sym < len(rec) else ""
                    unparsed.setdefault(symbol, f"{symbol or '(no symbol)'}: {path} line "
                                                f"{line}: {','.join(rec)!r}: {exc}")
                    continue
                days, closes = rows.setdefault(symbol, ([], []))
                days.append(day)
                closes.append(close)
            rows = {symbol: ((np.array(days) - _EPOCH_ORDINAL).astype("datetime64[D]"),
                             np.array(closes)) for symbol, (days, closes) in rows.items()}
    out: dict[str, PriceSeries | str] = {}
    for symbol, (dates, closes) in rows.items():
        order = np.argsort(dates)
        try:
            out[symbol] = PriceSeries(symbol, dates[order], closes[order])
        except ValueError as exc:
            out[symbol] = str(exc)
    return out | unparsed


# A symbol or close field wider than this sends its file to the row-by-row parse.
_FIELD_BYTES = 32
# The column parse reads a file in blocks of about this size, each ending at a line end.
_BLOCK_BYTES = 1 << 18


def _parse_columns(path: str | Path, fields: int, i_sym: int, i_date: int,
                   i_close: int) -> dict[str, tuple[np.ndarray, np.ndarray]] | None:
    """Each symbol's dates and closes, in file order, from the rows after the
    header, parsed a column at a time (see ``_parse_block``); None when the
    file must be read by csv.reader and parsed a row at a time.
    """
    columns: tuple[list[np.ndarray], ...] = ([], [], [])
    with open(path, "rb") as f:
        while block := f.read(_BLOCK_BYTES):
            parsed = _parse_block(block + f.readline(), fields, i_sym, i_date, i_close,
                                  header=not columns[0])
            if parsed is None:
                return None
            for column, part in zip(columns, parsed):
                column.append(part)

    def joined(parts: list[np.ndarray]) -> np.ndarray:
        whole = np.concatenate(parts)
        parts.clear()  # the blocks' arrays are freed one column at a time
        return whole

    symbols, dates, closes = map(joined, columns)
    names, first_rows, inverse = np.unique(symbols, return_index=True, return_inverse=True)
    order = np.argsort(inverse, kind="stable")  # rows by symbol, each in file order
    bounds = np.cumsum(np.bincount(inverse))[:-1]
    dates, closes = np.split(dates[order], bounds), np.split(closes[order], bounds)
    return {names[k].decode("ascii"): (dates[k], closes[k]) for k in np.argsort(first_rows)}


def _parse_block(block: bytes, fields: int, i_sym: int, i_date: int, i_close: int,
                 header: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The symbols, dates and closes of the rows of ``block`` (whole lines of
    a price CSV, the header first if ``header``), or None.

    None means the block holds a NUL, a quote, a byte outside ASCII or a
    carriage return not followed by a newline; a row (a blank one too)
    without ``fields`` fields; a symbol or close wider than ``_FIELD_BYTES``;
    a date not written YYYY-MM-DD or not in the calendar from year 1; or a
    close numpy cannot parse. In every other block csv.reader splits rows at
    exactly the commas and line ends, each date names the day
    ``date.fromisoformat`` names, and numpy reads a close as ``float`` does.
    """
    block += b"" if block.endswith(b"\n") else b"\n"
    # Room after the last row for the widest field.
    buf = np.frombuffer(block + bytes(_FIELD_BYTES), dtype=np.uint8)
    newlines = np.flatnonzero(buf == ord("\n"))
    crlf = buf[newlines - 1] == ord("\r")
    if not block.isascii() or b"\0" in block or b'"' in block \
            or block.count(b"\r") > np.count_nonzero(crlf):
        return None
    starts, ends = np.r_[0, newlines[:-1] + 1], newlines - crlf
    # Every row has fields - 1 commas when each row's share of the commas, in
    # order, lies inside it.
    commas = np.flatnonzero(buf == ord(","))
    if len(commas) != len(starts) * (fields - 1):
        return None
    commas = commas.reshape(-1, fields - 1)
    if not ((commas[:, 0] >= starts).all() and (commas[:, -1] < ends).all()):
        return None
    if header:
        starts, ends, commas = starts[1:], ends[1:], commas[1:]
    windows = np.lib.stride_tricks.sliding_window_view(buf, _FIELD_BYTES)

    def column(i: int) -> np.ndarray | None:
        lo = starts if i == 0 else commas[:, i - 1] + 1
        width = (ends if i == fields - 1 else commas[:, i]) - lo
        widest = int(width.max(initial=1))
        if widest > _FIELD_BYTES:
            return None
        chars = windows[lo, :max(widest, 1)]
        if width.min(initial=widest) < widest:  # blank the bytes after a narrower field
            chars *= np.arange(chars.shape[1]) < width[:, None]
        return chars.view(f"S{chars.shape[1]}").ravel()

    symbols, day_text, close_text = column(i_sym), column(i_date), column(i_close)
    if symbols is None or close_text is None or day_text is None \
            or day_text.dtype.itemsize != 10:
        return None
    # YYYY-MM-DD read from its digits: numpy's own date parser can crash on a
    # bad date in a long array.
    chars = day_text.view(np.uint8).reshape(-1, 10)

    def number(positions: list[int]) -> np.ndarray:
        value = np.zeros(len(chars), dtype=np.int64)
        for i in positions:
            value = value * 10 + (chars[:, i] - ord("0"))
        return value

    year, month, day = number([0, 1, 2, 3]), number([5, 6]), number([8, 9])
    months = ((year - 1970) * 12 + month - 1).astype("datetime64[M]")
    dates = months.astype("datetime64[D]") + (day - 1)
    digits = chars[:, [0, 1, 2, 3, 5, 6, 8, 9]]
    if not ((chars[:, [4, 7]] == ord("-")).all() and (digits >= ord("0")).all()
            and (digits <= ord("9")).all() and (year > 0).all() and (month >= 1).all()
            and (month <= 12).all() and (day >= 1).all()
            and (dates.astype("datetime64[M]") == months).all()):
        return None
    try:
        return symbols, dates, close_text.astype(np.float64)
    except ValueError:
        return None


def price_files(directory: str | Path) -> list[Path]:
    """The price CSVs of a directory, in the order load_price_dir reads them."""
    return sorted(Path(directory).glob("*.csv"))


def load_price_dir(directory: str | Path, rejected: dict[str, str]) -> dict[str, PriceSeries]:
    """Every valid series of a directory's price CSVs; a later file replaces a symbol.

    A series with a row that does not parse, unordered dates or a bad price
    is left out, and its reason is put in ``rejected`` under its symbol, so
    one bad series never stops the others from loading.
    """
    loaded: dict[str, PriceSeries | str] = {}
    for path in price_files(directory):
        loaded.update(load_price_csv(path))
    rejected.update({sym: why for sym, why in loaded.items() if isinstance(why, str)})
    return {sym: series for sym, series in loaded.items() if not isinstance(series, str)}


def _trading_days(
    filing_date: date, next_filing_date: date, calendar: np.ndarray
) -> tuple[date, date]:
    """The 2nd trading day strictly after filing_date and the 2nd strictly
    before next_filing_date, on the sorted date array ``calendar``."""
    i = calendar.searchsorted(np.datetime64(filing_date, "D"), "right") + TRADING_DAY_OFFSET - 1
    if i >= len(calendar):
        raise WindowSkipped(f"calendar ends before {TRADING_DAY_OFFSET} trading days "
                            f"after {filing_date}")
    j = calendar.searchsorted(np.datetime64(next_filing_date, "D")) - TRADING_DAY_OFFSET
    if j < 0:
        raise WindowSkipped(f"calendar starts after {TRADING_DAY_OFFSET} trading days "
                            f"before {next_filing_date}")
    return calendar[i].item(), calendar[j].item()


def window_bounds(
    filing_date: date, next_filing_date: date, calendar: np.ndarray
) -> tuple[date, date]:
    """Trading window between two successive filings.

    start = 2nd trading day strictly after filing_date;
    end   = 2nd trading day strictly before next_filing_date.
    ``calendar`` is the benchmark's date array.
    """
    if next_filing_date <= filing_date:
        raise ValueError("next_filing_date must be after filing_date")
    start, end = _trading_days(filing_date, next_filing_date, calendar)
    if start >= end:
        raise WindowSkipped(
            f"window collapsed: start {start} >= end {end} "
            f"for filings {filing_date} / {next_filing_date}"
        )
    return start, end


@dataclass
class WindowReturns:
    r_12m: float
    r_max: float
    r_min: float


def window_returns(series: PriceSeries, start: date, end: date) -> WindowReturns:
    """Returns over [start, end] relative to the first in-window close."""
    lo = series.dates.searchsorted(np.datetime64(start, "D"))
    hi = series.dates.searchsorted(np.datetime64(end, "D"), "right")
    closes = series.closes[lo:hi]
    if len(closes) < MIN_WINDOW_OBSERVATIONS:
        raise WindowSkipped(
            f"{series.symbol}: only {len(closes)} observations in [{start}, {end}]"
        )
    cumulative = closes / closes[0] - 1.0
    r_12m = float(cumulative[-1])
    r_max = float(np.percentile(cumulative, MAX_PERCENTILE))
    r_min = float(np.percentile(cumulative, MIN_PERCENTILE))
    return WindowReturns(r_12m, r_max, r_min)


@dataclass
class ReturnRecord:
    ticker: str
    filing_date: date
    next_filing_date: date
    target_12m: float
    target_max: float
    target_min: float
    sp500_12m: float
    sp500_max: float
    flags: list[str] = field(default_factory=list)


def compute_return_records(
    filing_dates: dict[str, list[date]],
    prices: dict[str, PriceSeries],
    benchmark: PriceSeries,
) -> tuple[list[ReturnRecord], list[str]]:
    """Build one ReturnRecord per filing-to-filing window.

    The last filing of a ticker gets an open window ending 2 trading days
    before the last priced date. A series ending before the window end is
    used as-is (terminal price = last available) and flagged: dropping
    delisted names would inflate strategy returns.
    """
    calendar = benchmark.dates
    records: list[ReturnRecord] = []
    warnings: list[str] = []
    for ticker in sorted(filing_dates):
        series = prices.get(ticker)
        if series is None:
            warnings.append(f"{ticker}: no price series, skipped")
            continue
        dates = sorted(filing_dates[ticker])
        for i, fdate in enumerate(dates):
            flags: list[str] = []
            try:
                if i + 1 < len(dates):
                    next_fdate = dates[i + 1]
                    start, end = window_bounds(fdate, next_fdate, calendar)
                else:
                    next_fdate = calendar[-1].item()
                    start, end = _trading_days(fdate, next_fdate, calendar)
                    flags.append(FLAG_OPEN_WINDOW)
                    if start >= end:
                        raise WindowSkipped(f"open window collapsed for {ticker} {fdate}")
                if series.dates[-1].item() < end:
                    flags.append(FLAG_DELISTED)
                stock = window_returns(series, start, end)
                bench = window_returns(benchmark, start, end)
            except WindowSkipped as exc:
                warnings.append(f"{ticker} {fdate}: {exc}")
                continue
            records.append(ReturnRecord(
                ticker, fdate, next_fdate,
                stock.r_12m, stock.r_max, stock.r_min,
                bench.r_12m, bench.r_max, flags,
            ))
    return records, warnings


# --- returns.csv --------------------------------------------------------------


def write_returns_csv(path: str | Path, records: list[ReturnRecord]) -> None:
    write_csv(path, RETURNS_COLUMNS, ([
        r.ticker, r.filing_date.isoformat(), r.next_filing_date.isoformat(),
        repr(r.target_12m), repr(r.target_max), repr(r.target_min),
        repr(r.sp500_12m), repr(r.sp500_max), ";".join(r.flags),
    ] for r in records))


def read_returns_csv(path: str | Path) -> list[ReturnRecord]:
    records = []
    with open(path, newline="", encoding="utf-8") as f:
        for rec in csv.DictReader(f):
            records.append(ReturnRecord(
                ticker=rec["ticker"],
                filing_date=date.fromisoformat(rec["filing_date"]),
                next_filing_date=date.fromisoformat(rec["next_filing_date"]),
                target_12m=float(rec["target_12m"]),
                target_max=float(rec["target_max"]),
                target_min=float(rec["target_min"]),
                sp500_12m=float(rec["sp500_12m"]),
                sp500_max=float(rec["sp500_max"]),
                flags=[x for x in rec["flags"].split(";") if x],
            ))
    return records
