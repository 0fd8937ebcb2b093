"""Seeded, scaled synthetic workspace for the pipeline benchmark.

Builds a corpus through the public ``CorpusStore``/``Filing`` API plus one
daily price CSV, sized by ticker count, filing years, text length and price
history. Each ticker gets a quality tier: a higher tier mentions the planted
phrase more often and its price drifts up faster, so the keyword-stub LLM
produces a known signal. Every stock drifts faster than the benchmark index.

The seed changes the text, the tier assignment and the price noise, never
the sizes: every seed gives the same number of filings, characters per filing
and price rows, so timings compare across seeds. One seed always gives the
same bytes.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path

from filingsignal.corpus import CorpusStore, Filing

PLANTED_PHRASE = "record revenue growth"
# Settings of the keyword-stub LLM that scores the planted phrase.
KEYWORD_LLM = {"hit_score": 30, "miss_score": 10, "per_occurrence": 8}
BENCHMARK_SYMBOL = "SPX"
BENCHMARK_DRIFT = 0.04
BASE_DRIFT = 0.08  # annual drift of tier 0; every stock beats the benchmark
TIER_DRIFT_STEP = 0.01
PRICE_NOISE = 0.004  # daily multiplicative noise, not compounded

_WORDS = (
    "revenue operating income margin segment customer product service market "
    "capital liquidity credit facility debt equity dividend share repurchase "
    "acquisition integration restructuring impairment goodwill inventory supply "
    "chain manufacturing distribution pricing demand competition regulatory "
    "compliance litigation settlement contingency tax deferred pension benefit "
    "employee retention talent research development innovation patent license "
    "technology platform software hardware cloud subscription contract backlog "
    "order volume shipment international currency exchange interest rate hedge "
    "derivative fair value cash flow investment expenditure depreciation "
    "amortization lease obligation covenant rating outlook guidance forecast "
    "strategy initiative partnership joint venture expansion efficiency cost "
    "control program risk uncertainty economic cycle downturn recovery inflation "
    "commodity energy environmental sustainability governance board audit "
    "internal controls reporting disclosure estimate judgment accounting policy "
    "quarter fiscal year period annual increase decrease stable improved declined "
    "significant material moderate favorable unfavorable primarily partially "
    "offset driven higher lower overall net gross total core adjusted"
).split()

_HEADINGS = [
    "Item 1. Business.",
    "Item 1A. Risk Factors.",
    "Item 2. Properties.",
    "Item 3. Legal Proceedings.",
    "Item 7. Management's Discussion and Analysis of Financial Condition.",
    "Item 7A. Quantitative and Qualitative Disclosures About Market Risk.",
    "Item 8. Financial Statements and Supplementary Data.",
]


@dataclass(frozen=True)
class WorkspaceSpec:
    tickers: int
    years: tuple[int, ...]
    text_chars: int  # approximate characters of clean text per filing
    price_start: date
    price_end: date
    extra_symbols: int = 0  # priced symbols outside the universe, as in a full price database

    @property
    def filings(self) -> int:
        return self.tickers * len(self.years)


def ticker_names(n: int) -> list[str]:
    return [f"T{i:03d}" for i in range(n)]


def tiers(spec: WorkspaceSpec, seed: int) -> dict[str, int]:
    """Quality tier per ticker: a seeded permutation of 0..tickers-1."""
    names = ticker_names(spec.tickers)
    order = list(range(spec.tickers))
    random.Random(f"tiers:{seed}").shuffle(order)
    return dict(zip(names, order))


def filing_date_of(tier: int, year: int) -> date:
    # Stagger filings over February and March so windows differ per ticker.
    return date(year, 2, 3) + timedelta(days=3 * (tier % 16))


def mentions_of(tier: int) -> int:
    return 1 + tier


def filing_text(ticker: str, year: int, tier: int, text_chars: int,
                rng: random.Random) -> str:
    """About ``text_chars`` characters of 10-K-like prose, headings included."""
    sentences = []
    size = 0
    while size < text_chars:
        words = rng.choices(_WORDS, k=rng.randint(8, 20))
        sentence = " ".join(words).capitalize() + "."
        sentences.append(sentence)
        size += len(sentence) + 1
    for pos in rng.sample(range(len(sentences)), min(mentions_of(tier), len(sentences))):
        sentences[pos] = (f"During fiscal {year} the company delivered "
                          f"{PLANTED_PHRASE} in segment {pos % 7 + 1}.")
    step = max(1, len(sentences) // len(_HEADINGS))
    lines = [f"{ticker} Corporation annual report for fiscal year {year}."]
    for i, sentence in enumerate(sentences):
        if i % step == 0 and i // step < len(_HEADINGS):
            lines.append(_HEADINGS[i // step])
        lines.append(sentence)
    return "\n".join(lines)


def make_filing(spec: WorkspaceSpec, seed: int, ticker: str, tier: int,
                year: int) -> Filing:
    rng = random.Random(f"text:{seed}:{ticker}:{year}")
    return Filing(
        ticker=ticker,
        cik=f"{1000000000 + int(ticker[1:]):010d}",
        accession_id=f"BENCH-{ticker}-{year}",
        filing_date=filing_date_of(tier, year),
        raw_uri=f"bench://{ticker}/{year}",
        clean_text=filing_text(ticker, year, tier, spec.text_chars, rng),
    )


def business_days(start: date, end: date) -> list[date]:
    days = []
    d = start
    while d <= end:
        if d.weekday() < 5:
            days.append(d)
        d += timedelta(days=1)
    return days


def _price_rows(symbol: str, drift: float, days: list[date],
                rng: random.Random) -> list[tuple[str, str, float]]:
    daily = math.log1p(drift) / 365.0
    t0 = days[0]
    return [
        (symbol, d.isoformat(),
         round(100.0 * math.exp(daily * (d - t0).days + rng.gauss(0.0, PRICE_NOISE)), 6))
        for d in days
    ]


def write_prices(spec: WorkspaceSpec, seed: int, prices_dir: Path) -> None:
    """One CSV: every ticker, the extra symbols and the benchmark index."""
    days = business_days(spec.price_start, spec.price_end)
    prices_dir.mkdir(parents=True, exist_ok=True)
    with open(prices_dir / "prices.csv", "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["symbol", "date", "adjusted_close"])
        symbols = [(t, BASE_DRIFT + TIER_DRIFT_STEP * q) for t, q in tiers(spec, seed).items()]
        symbols += [(f"X{i:03d}", BASE_DRIFT) for i in range(spec.extra_symbols)]
        symbols.append((BENCHMARK_SYMBOL, BENCHMARK_DRIFT))
        for symbol, drift in symbols:
            writer.writerows(_price_rows(symbol, drift, days,
                                         random.Random(f"price:{seed}:{symbol}")))


def make_workspace(root: str | Path, spec: WorkspaceSpec, seed: int,
                   years: tuple[int, ...] | None = None) -> Path:
    """Write ``corpus/`` (filings of ``years``, default all) and ``prices/``."""
    root = Path(root)
    store = CorpusStore(root / "corpus")
    add_filings(store, spec, seed, years or spec.years)
    write_prices(spec, seed, root / "prices")
    return root


def add_filings(store: CorpusStore, spec: WorkspaceSpec, seed: int,
                years: tuple[int, ...]) -> int:
    """Add every ticker's filings for ``years``; returns how many were new."""
    added = 0
    for ticker, tier in tiers(spec, seed).items():
        for year in years:
            added += store.add(make_filing(spec, seed, ticker, tier, year))
    return added
