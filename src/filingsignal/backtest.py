"""Walk-forward evaluation: per-year top-k picks, mean and compounded returns
versus the benchmark, and a k-sweep.

Strategy and benchmark returns for a pick are always taken from the same
ReturnRecord, so both legs of every comparison cover identical date windows.
Rebalancing is yearly at report time with equal weights.
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .llm_scoring import FeatureRow
from .market_data import ReturnRecord
from .regression import NNLSModel

logger = logging.getLogger(__name__)

BASIS_12M = "12m"
BASIS_MAX = "max"


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


def _basis_fields(return_basis: str) -> tuple[str, str]:
    if return_basis == BASIS_12M:
        return "target_12m", "sp500_12m"
    if return_basis == BASIS_MAX:
        return "target_max", "sp500_max"
    raise ValueError(f"unknown return basis {return_basis!r}")


def compound(returns: list[float]) -> list[float]:
    """Wealth series from yearly returns, starting at 1.0."""
    wealth = [1.0]
    for r in returns:
        wealth.append(wealth[-1] * (1.0 + r))
    return wealth


def run_backtest(
    model: NNLSModel,
    features: list[FeatureRow],
    returns: list[ReturnRecord],
    split: SplitSpec,
    k: int,
    return_basis: str,
) -> BacktestReport:
    """Predict, pick top-k per test year, compound equal-weight yearly returns.

    Tickers are ranked by prediction, ties broken by ticker ascending. Picks
    without a ReturnRecord are dropped and backfilled from the next
    ranked ticker so the portfolio keeps its size.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    stock_field, bench_field = _basis_fields(return_basis)
    record_by_key = {(r.ticker, r.filing_date.isoformat()): r for r in returns}

    by_year: dict[int, list[FeatureRow]] = {}
    for row in features:
        year = int(row.filing_date[:4])
        if split.in_test(year):
            by_year.setdefault(year, []).append(row)

    per_year: list[YearResult] = []
    strategy_returns: list[float] = []
    bench_returns: list[float] = []
    for year in range(split.test_years[0], split.test_years[1] + 1):
        rows = by_year.get(year, [])
        if not rows:
            logger.warning("no scored filings in test year %d, omitted", year)
            continue
        scored = sorted(
            ((row, model.predict(row.scores)) for row in rows),
            key=lambda t: (-t[1], t[0].filing_key),
        )
        picks: list[tuple[str, float]] = []
        pick_records: list[ReturnRecord] = []
        for row, prediction in scored:
            if len(picks) == k:
                break
            record = record_by_key.get(row.filing_key)
            if record is None:
                logger.warning("pick %s has no return record, backfilling",
                               row.filing_key)
                continue
            picks.append((row.filing_key[0], prediction))
            pick_records.append(record)
        if not picks:
            logger.warning("no picks with return records in %d, omitted", year)
            continue
        mean_strategy = float(np.mean([getattr(r, stock_field) for r in pick_records]))
        mean_bench = float(np.mean([getattr(r, bench_field) for r in pick_records]))
        per_year.append(YearResult(year, picks, mean_strategy, mean_bench))
        strategy_returns.append(mean_strategy)
        bench_returns.append(mean_bench)

    return BacktestReport(
        per_year=per_year,
        strategy_wealth=compound(strategy_returns),
        benchmark_wealth=compound(bench_returns),
        k=k,
        return_basis=return_basis,
    )


def k_sweep(
    model: NNLSModel,
    features: list[FeatureRow],
    returns: list[ReturnRecord],
    split: SplitSpec,
    k_values: list[int],
    return_basis: str,
) -> list[tuple[int, float, float]]:
    """(k, mean strategy return, mean benchmark return) per candidate k."""
    if not k_values:
        raise ValueError("k_values must be non-empty")
    table = []
    for k in k_values:
        report = run_backtest(model, features, returns, split, k, return_basis)
        strategy = float(np.mean([y.mean_strategy_return for y in report.per_year]))
        bench = float(np.mean([y.mean_benchmark_return for y in report.per_year]))
        table.append((k, strategy, bench))
    return table


def write_cumulative_csv(path: str | Path, report: BacktestReport) -> None:
    years = [y.year for y in report.per_year]
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["year", "strategy_wealth", "benchmark_wealth"])
        start = years[0] - 1 if years else 0
        for i, (sw, bw) in enumerate(zip(report.strategy_wealth,
                                         report.benchmark_wealth)):
            writer.writerow([start + i, repr(sw), repr(bw)])


def write_ksweep_csv(path: str | Path, table: list[tuple[int, float, float]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["k", "mean_strategy_return", "mean_benchmark_return"])
        for k, s, b in table:
            writer.writerow([k, repr(s), repr(b)])
