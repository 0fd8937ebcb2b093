"""Walk-forward evaluation: per-year top-k picks, mean and compounded returns
versus the benchmark, and a k-sweep.

Strategy and benchmark returns for a pick are always taken from the same
ReturnRecord, so both legs of every comparison cover identical date windows.
Rebalancing is yearly at report time with equal weights.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import write_csv
from .llm_scoring import FeatureRow
from .market_data import BASIS_FIELDS, ReturnRecord
from .regression import NNLSModel

logger = logging.getLogger(__name__)

# Each test year's (ticker, prediction, record) triples, best first.
Ranking = dict[int, list[tuple[str, float, ReturnRecord]]]


@dataclass(frozen=True)
class SplitSpec:
    train_years: tuple[int, int]  # inclusive
    test_years: tuple[int, int]  # inclusive

    def __post_init__(self):
        if self.train_years[0] > self.train_years[1] or \
           self.test_years[0] > self.test_years[1]:
            raise ValueError("year ranges must be ordered")
        if self.train_years[1] >= self.test_years[0]:
            raise ValueError("train years must strictly precede test years")

    def in_test(self, year: int) -> bool:
        return self.test_years[0] <= year <= self.test_years[1]


@dataclass
class YearResult:
    year: int
    picks: list[tuple[str, float]]  # (ticker, prediction), selection order
    mean_strategy_return: float
    mean_benchmark_return: float


@dataclass
class BacktestReport:
    per_year: list[YearResult]
    strategy_wealth: list[float]  # starts at 1.0, one step per test year
    benchmark_wealth: list[float]
    k: int
    return_basis: str

    def to_json(self) -> str:
        return json.dumps({
            "k": self.k,
            "return_basis": self.return_basis,
            "per_year": [
                {
                    "year": y.year,
                    "picks": [{"ticker": t, "prediction": p} for t, p in y.picks],
                    "mean_strategy_return": y.mean_strategy_return,
                    "mean_benchmark_return": y.mean_benchmark_return,
                }
                for y in self.per_year
            ],
            "strategy_wealth": self.strategy_wealth,
            "benchmark_wealth": self.benchmark_wealth,
        }, indent=2, sort_keys=True)


def compound(returns: list[float]) -> list[float]:
    """Wealth series from yearly returns, starting at 1.0."""
    wealth = [1.0]
    for r in returns:
        wealth.append(wealth[-1] * (1.0 + r))
    return wealth


def rank_test_years(model: NNLSModel, features: list[FeatureRow],
                    returns: list[ReturnRecord], split: SplitSpec) -> Ranking:
    """Rank each test year's filings by prediction, best first.

    Every test row is predicted once; ties are broken by filing key. A row
    without a ReturnRecord is left out, so the next ranked ticker takes its
    place in any top k, and so is a test year left with no row.
    """
    record_by_key = {(r.ticker, r.filing_date.isoformat()): r for r in returns}
    by_year: dict[int, list[FeatureRow]] = {}
    for row in features:
        year = int(row.filing_key[1][:4])
        if split.in_test(year):
            by_year.setdefault(year, []).append(row)

    ranked: Ranking = {}
    for year in range(split.test_years[0], split.test_years[1] + 1):
        rows = by_year.get(year, [])
        if not rows:
            logger.warning("no scored filings in test year %d, omitted", year)
            continue
        scored = sorted(
            ((row, model.predict(row.scores)) for row in rows),
            key=lambda t: (-t[1], t[0].filing_key),
        )
        ranking = []
        for row, prediction in scored:
            record = record_by_key.get(row.filing_key)
            if record is None:
                logger.warning("test row %s has no return record, left out",
                               row.filing_key)
                continue
            ranking.append((row.filing_key[0], prediction, record))
        if not ranking:
            logger.warning("no test row with a return record in %d, omitted", year)
            continue
        ranked[year] = ranking
    return ranked


def run_backtest(ranked: Ranking, k: int, return_basis: str) -> BacktestReport:
    """Pick each ranked year's top k and compound equal-weight yearly returns."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if return_basis not in BASIS_FIELDS:
        raise ValueError(f"unknown return basis {return_basis!r}")
    stock_field, bench_field = BASIS_FIELDS[return_basis]
    per_year: list[YearResult] = []
    for year, ranking in ranked.items():
        top = ranking[:k]
        per_year.append(YearResult(
            year, [(ticker, prediction) for ticker, prediction, _ in top],
            float(np.mean([getattr(r, stock_field) for _, _, r in top])),
            float(np.mean([getattr(r, bench_field) for _, _, r in top]))))
    return BacktestReport(
        per_year=per_year,
        strategy_wealth=compound([y.mean_strategy_return for y in per_year]),
        benchmark_wealth=compound([y.mean_benchmark_return for y in per_year]),
        k=k,
        return_basis=return_basis,
    )


def k_sweep(ranked: Ranking, k_values: list[int],
            return_basis: str) -> list[tuple[int, float, float]]:
    """(k, mean strategy return, mean benchmark return) per candidate k."""
    if not k_values:
        raise ValueError("k_values must be non-empty")
    table = []
    for k in k_values:
        report = run_backtest(ranked, k, return_basis)
        strategy = float(np.mean([y.mean_strategy_return for y in report.per_year]))
        bench = float(np.mean([y.mean_benchmark_return for y in report.per_year]))
        table.append((k, strategy, bench))
    return table


def write_cumulative_csv(path: str | Path, report: BacktestReport) -> None:
    """One row per wealth step, labelled with its test year after a start row."""
    years = [y.year for y in report.per_year]
    labels = [years[0] - 1, *years] if years else [0]
    write_csv(path, ["year", "strategy_wealth", "benchmark_wealth"],
              ([year, repr(sw), repr(bw)] for year, sw, bw
               in zip(labels, report.strategy_wealth, report.benchmark_wealth)))


def write_ksweep_csv(path: str | Path, table: list[tuple[int, float, float]]) -> None:
    write_csv(path, ["k", "mean_strategy_return", "mean_benchmark_return"],
              ([k, repr(s), repr(b)] for k, s, b in table))
