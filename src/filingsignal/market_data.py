"""Daily price series and filing-window return computation.

Window convention: hold from the 2nd trading day strictly after a filing to
the 2nd trading day strictly before the next filing. "Days" are trading days,
never calendar days, so boundaries always land on priced dates. The window's
max/min returns use the 98th/2nd percentile of daily cumulative returns as
robust proxies, with linear interpolation between closest ranks.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path

import numpy as np

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
    file.
    """
    rows: dict[str, tuple[list[int], list[float]]] = {}
    unparsed: dict[str, str] = {}
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None:  # empty file
            return {}
        if missing := [c for c in PRICE_COLUMNS if c not in header]:
            raise PipelineError(f"{path}: header {','.join(header)!r} has no column "
                                f"{', '.join(missing)}")
        i_sym, i_date, i_close = map(header.index, PRICE_COLUMNS)
        for line, rec in enumerate(reader, start=2):
            if not rec:  # blank line
                continue
            symbol = rec[i_sym]
            try:
                day = date.fromisoformat(rec[i_date]).toordinal()
                close = float(rec[i_close])
            except (ValueError, IndexError) as exc:  # IndexError: a short row
                unparsed.setdefault(symbol, f"{symbol}: {path} line {line}: "
                                            f"{','.join(rec)!r}: {exc}")
                continue
            days, closes = rows.setdefault(symbol, ([], []))
            days.append(day)
            closes.append(close)
    out: dict[str, PriceSeries | str] = {}
    for symbol, (days, closes) in rows.items():
        order = np.argsort(days)
        try:
            out[symbol] = PriceSeries(
                symbol, (np.array(days)[order] - _EPOCH_ORDINAL).astype("datetime64[D]"),
                np.array(closes)[order])
        except ValueError as exc:
            out[symbol] = str(exc)
    return out | unparsed


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
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(RETURNS_COLUMNS)
        for r in records:
            writer.writerow([
                r.ticker, r.filing_date.isoformat(), r.next_filing_date.isoformat(),
                repr(r.target_12m), repr(r.target_max), repr(r.target_min),
                repr(r.sp500_12m), repr(r.sp500_max), ";".join(r.flags),
            ])


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
