"""Rank-based target engineering: per-year normalized, binned labels in [0,1].

Raw returns are ranked within each filing year (average rank on ties),
normalized to [0,1], then assigned to equal-width quantile bins whose
representative values are b/(bins-1). Rank construction makes labels
invariant under any strictly increasing transform of one year's returns and
independent across years.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from datetime import date
from pathlib import Path

import numpy as np

from .corpus import write_csv
from .market_data import BASIS_FIELDS, ReturnRecord

SOURCE_FIELDS = tuple(stock for stock, _ in BASIS_FIELDS.values())

LABELS_COLUMNS = ["ticker", "filing_date", "year", "label"]


@dataclass
class LabeledExample:
    ticker: str
    filing_date: date
    label: float
    year: int


def bin_label(normalized_rank: float, bins: int) -> float:
    """Map a normalized rank in [0,1] to its bin's representative value."""
    b = min(int(normalized_rank * bins), bins - 1)
    return b / (bins - 1)


def average_ranks(values: list[float]) -> np.ndarray:
    """1-based ranks; tied values share the mean of the ranks they span."""
    a = np.asarray(values, dtype=np.float64)
    order = np.argsort(a, kind="stable")
    ordered = a[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], len(a)]
    ranks = np.empty(len(a))
    ranks[order] = np.repeat(0.5 * (starts + 1 + ends), ends - starts)
    return ranks


def make_labels(
    records: list[ReturnRecord], source_field: str, bins: int
) -> list[LabeledExample]:
    """Label every return record, grouping by filing calendar year."""
    if bins < 2:
        raise ValueError("bins must be >= 2")
    if not records:
        raise ValueError("records must be non-empty")
    if source_field not in SOURCE_FIELDS:
        raise ValueError(
            f"unknown source_field {source_field!r}, expected one of {SOURCE_FIELDS}"
        )

    by_year: dict[int, list[ReturnRecord]] = {}
    for r in records:
        by_year.setdefault(r.filing_date.year, []).append(r)

    out: list[LabeledExample] = []
    for year, group in sorted(by_year.items()):
        values = [getattr(r, source_field) for r in group]
        n = len(group)
        if n == 1:
            labels = [0.5]
        else:
            ranks = average_ranks(values)
            labels = [bin_label((rank - 1.0) / (n - 1.0), bins) for rank in ranks]
        for r, label in zip(group, labels):
            out.append(LabeledExample(r.ticker, r.filing_date, label, year))
    out.sort(key=lambda e: (e.ticker, e.filing_date))
    return out


def write_labels_csv(path: str | Path, examples: list[LabeledExample]) -> None:
    write_csv(path, LABELS_COLUMNS,
              ([e.ticker, e.filing_date.isoformat(), e.year, repr(e.label)] for e in examples))


def read_labels_csv(path: str | Path) -> list[LabeledExample]:
    examples = []
    with open(path, newline="", encoding="utf-8") as f:
        for rec in csv.DictReader(f):
            examples.append(LabeledExample(
                ticker=rec["ticker"],
                filing_date=date.fromisoformat(rec["filing_date"]),
                label=float(rec["label"]),
                year=int(rec["year"]),
            ))
    return examples
