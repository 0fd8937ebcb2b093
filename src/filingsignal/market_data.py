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
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path

import numpy as np

logger = logging.getLogger(__name__)

MAX_PERCENTILE = 98.0
MIN_PERCENTILE = 2.0
MIN_WINDOW_OBSERVATIONS = 10
TRADING_DAY_OFFSET = 2

FLAG_OPEN_WINDOW = "open_window"
FLAG_DELISTED = "delisted"

RETURNS_COLUMNS = [
    "ticker", "filing_date", "next_filing_date",
    "target_12m", "target_max", "target_min",
    "sp500_12m", "sp500_max", "flags",
]


class WindowSkipped(Exception):
    """A return window cannot be computed; the record is skipped with a warning."""


@dataclass
class PriceSeries:
    symbol: str
    observations: list[tuple[date, float]]  # date-sorted (trading_date, adj close)

    def __post_init__(self):
        dates = [d for d, _ in self.observations]
        if any(b <= a for a, b in zip(dates, dates[1:])):
            raise ValueError(f"{self.symbol}: dates must be strictly increasing")
        for d, p in self.observations:
            if not (math.isfinite(p) and p > 0):
                raise ValueError(f"{self.symbol}: bad price {p} on {d}")
        self._dates = dates

    @property
    def dates(self) -> list[date]:
        return self._dates

    @property
    def last_date(self) -> date:
        return self._dates[-1]

    def window(self, start: date, end: date) -> list[tuple[date, float]]:
        lo = bisect_left(self._dates, start)
        hi = bisect_right(self._dates, end)
        return self.observations[lo:hi]


def load_price_csv(path: str | Path) -> dict[str, list[tuple[date, float]]]:
    """Read daily bars (symbol,date,adjusted_close) into date-sorted rows per symbol."""
    rows: dict[str, list[tuple[date, float]]] = {}
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None:  # empty file
            return {}
        i_sym, i_date, i_close = (header.index(c) for c in
                                  ("symbol", "date", "adjusted_close"))
        for rec in reader:
            if rec:  # blank line
                rows.setdefault(rec[i_sym], []).append(
                    (date.fromisoformat(rec[i_date]), float(rec[i_close]))
                )
    return {sym: sorted(obs) for sym, obs in rows.items()}


def price_files(directory: str | Path) -> list[Path]:
    """The price CSVs of a directory, in the order load_price_dir reads them."""
    return sorted(Path(directory).glob("*.csv"))


def load_price_dir(directory: str | Path, rejected: dict[str, str]) -> dict[str, PriceSeries]:
    """Every valid series of a directory's price CSVs; a later file replaces a symbol.

    A series with unordered dates or a bad price is left out, and its reason
    is put in ``rejected`` under its symbol, so one bad series never stops
    the others from loading.
    """
    rows: dict[str, list[tuple[date, float]]] = {}
    for path in price_files(directory):
        rows.update(load_price_csv(path))
    out: dict[str, PriceSeries] = {}
    for symbol, obs in rows.items():
        try:
            out[symbol] = PriceSeries(symbol, obs)
        except ValueError as exc:
            rejected[symbol] = str(exc)
    return out


class TradingCalendar:
    """Sorted set of trading dates with offset lookups."""

    def __init__(self, dates: list[date]):
        self.dates = sorted(set(dates))
        if not self.dates:
            raise ValueError("calendar is empty")

    def nth_after(self, d: date, n: int) -> date:
        """The n-th trading day strictly after d."""
        i = bisect_right(self.dates, d) + n - 1
        if i >= len(self.dates):
            raise WindowSkipped(f"calendar ends before {n} trading days after {d}")
        return self.dates[i]

    def nth_before(self, d: date, n: int) -> date:
        """The n-th trading day strictly before d."""
        i = bisect_left(self.dates, d) - n
        if i < 0:
            raise WindowSkipped(f"calendar starts after {n} trading days before {d}")
        return self.dates[i]


def window_bounds(
    filing_date: date, next_filing_date: date, calendar: TradingCalendar
) -> tuple[date, date]:
    """Trading window between two successive filings.

    start = 2nd trading day strictly after filing_date;
    end   = 2nd trading day strictly before next_filing_date.
    """
    if next_filing_date <= filing_date:
        raise ValueError("next_filing_date must be after filing_date")
    start = calendar.nth_after(filing_date, TRADING_DAY_OFFSET)
    end = calendar.nth_before(next_filing_date, TRADING_DAY_OFFSET)
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
    obs = series.window(start, end)
    if len(obs) < MIN_WINDOW_OBSERVATIONS:
        raise WindowSkipped(
            f"{series.symbol}: only {len(obs)} observations in [{start}, {end}]"
        )
    p0 = obs[0][1]
    cumulative = np.array([p / p0 - 1.0 for _, p in obs])
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
    calendar = TradingCalendar(benchmark.dates)
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
                    next_fdate = calendar.dates[-1]
                    start = calendar.nth_after(fdate, TRADING_DAY_OFFSET)
                    end = calendar.nth_before(next_fdate, TRADING_DAY_OFFSET)
                    flags.append(FLAG_OPEN_WINDOW)
                    if start >= end:
                        raise WindowSkipped(f"open window collapsed for {ticker} {fdate}")
                if series.last_date < end:
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
