import math
import random
from datetime import date

import pytest

from filingsignal.corpus import read_records, write_records
from filingsignal.labeling import LabeledExample, make_labels
from filingsignal.market_data import ReturnRecord


def record(ticker, year, r12, rmax=0.0, month=3, day=15):
    fdate = date(year, month, day)
    return ReturnRecord(ticker, fdate, date(year + 1, month, day),
                        r12, rmax, -0.1, 0.0, 0.0, [])


def oracle_labels(values, bins):
    """Independent rank/normalize/bin oracle, no scipy.

    Average rank on ties, normalize to [0,1], equal-width bins with
    representative values b/(bins-1).
    """
    n = len(values)
    if n == 1:
        return [0.5]
    sorted_vals = sorted(values)
    labels = []
    for v in values:
        first = sorted_vals.index(v)
        count = sorted_vals.count(v)
        avg_rank = first + 1 + (count - 1) / 2.0  # 1-based average rank
        u = (avg_rank - 1.0) / (n - 1.0)
        b = min(int(u * bins), bins - 1)
        labels.append(b / (bins - 1))
    return labels


class TestExamples:
    def test_five_distinct_five_bins(self):
        records = [record(f"T{i}", 2020, r)
                   for i, r in enumerate([-0.2, 0.0, 0.3, 0.5, 0.9])]
        out = make_labels(records, "target_12m", bins=5)
        by_ticker = {e.ticker: e.label for e in out}
        assert [by_ticker[f"T{i}"] for i in range(5)] == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_all_equal_all_same_label(self):
        records = [record(f"T{i}", 2020, 0.07) for i in range(5)]
        out = make_labels(records, "target_12m", bins=5)
        assert {e.label for e in out} == {0.5}

    def test_single_record_year_gets_half(self):
        out = make_labels([record("T0", 2020, 0.4)], "target_12m", bins=5)
        assert out[0].label == 0.5

    def test_unknown_source_field(self):
        with pytest.raises(ValueError):
            make_labels([record("T0", 2020, 0.1)], "target_q50", bins=5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            make_labels([], "target_12m", bins=5)

    def test_bins_minimum(self):
        with pytest.raises(ValueError):
            make_labels([record("T0", 2020, 0.1)], "target_12m", bins=1)


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", range(10))
    def test_two_years_of_random_returns(self, seed):
        rng = random.Random(seed)
        records, expected = [], {}
        for year in (2019, 2020):
            values = [rng.gauss(0.05, 0.3) for _ in range(50)]
            if seed % 2:  # exercise tie handling half the time
                values = [round(v, 1) for v in values]
            labels = oracle_labels(values, 5)
            for i, (v, lab) in enumerate(zip(values, labels)):
                records.append(record(f"T{year}_{i}", year, v))
                expected[(f"T{year}_{i}", year)] = lab
        out = make_labels(records, "target_12m", bins=5)
        assert len(out) == len(records)
        for e in out:
            assert e.label == expected[(e.ticker, e.year)], e.ticker

    @pytest.mark.parametrize("bins", [2, 3, 5, 10])
    def test_other_bin_counts(self, bins):
        rng = random.Random(bins)
        values = [rng.uniform(-1, 2) for _ in range(37)]
        records = [record(f"T{i}", 2020, v) for i, v in enumerate(values)]
        out = make_labels(records, "target_12m", bins=bins)
        expected = oracle_labels(values, bins)
        by_ticker = {e.ticker: e.label for e in out}
        assert [by_ticker[f"T{i}"] for i in range(37)] == expected


class TestInvariants:
    def random_records(self, seed, years=(2018, 2019, 2020), n=30):
        rng = random.Random(seed)
        return [record(f"T{y}_{i}", y, rng.gauss(0, 0.4))
                for y in years for i in range(n)]

    def test_range(self):
        out = make_labels(self.random_records(1), "target_12m", bins=5)
        assert all(0.0 <= e.label <= 1.0 for e in out)

    def test_per_year_monotonicity(self):
        records = self.random_records(2)
        out = {(e.ticker): e for e in make_labels(records, "target_12m", bins=5)}
        by_year = {}
        for r in records:
            by_year.setdefault(r.filing_date.year, []).append(r)
        for group in by_year.values():
            for a in group:
                for b in group:
                    if a.target_12m > b.target_12m:
                        assert out[a.ticker].label >= out[b.ticker].label

    def test_monotone_transform_invariance(self):
        records = self.random_records(3)
        base = make_labels(records, "target_12m", bins=5)
        transformed = [
            ReturnRecord(r.ticker, r.filing_date, r.next_filing_date,
                         math.exp(3 * r.target_12m) - 0.5, r.target_max,
                         r.target_min, r.sp500_12m, r.sp500_max, r.flags)
            for r in records
        ]
        after = make_labels(transformed, "target_12m", bins=5)
        assert [(e.ticker, e.label) for e in base] == \
               [(e.ticker, e.label) for e in after]

    def test_cross_year_independence(self):
        records = self.random_records(4)
        base = {e.ticker: e.label for e in make_labels(records, "target_12m", bins=5)}
        # rescale and shuffle only 2018's returns
        rng = random.Random(99)
        perturbed = []
        returns_2018 = [r.target_12m for r in records
                        if r.filing_date.year == 2018]
        rng.shuffle(returns_2018)
        it = iter(returns_2018)
        for r in records:
            if r.filing_date.year == 2018:
                perturbed.append(ReturnRecord(
                    r.ticker, r.filing_date, r.next_filing_date,
                    next(it) * 5.0 + 1.0, r.target_max, r.target_min,
                    r.sp500_12m, r.sp500_max, r.flags))
            else:
                perturbed.append(r)
        after = {e.ticker: e.label for e in make_labels(perturbed, "target_12m", bins=5)}
        for ticker, label in base.items():
            if not ticker.startswith("T2018"):
                assert after[ticker] == label

    def test_max_target_uses_other_field(self):
        records = [record(f"T{i}", 2020, 0.0, rmax=r)
                   for i, r in enumerate([0.1, 0.9, 0.5])]
        out = {e.ticker: e.label for e in make_labels(records, "target_max", bins=5)}
        assert out["T1"] == 1.0 and out["T0"] == 0.0


class TestCsv:
    def test_round_trip(self, tmp_path):
        out = make_labels([record("T0", 2020, 0.1), record("T1", 2020, 0.5)],
                          "target_12m", bins=5)
        path = tmp_path / "labels.csv"
        write_records(path, LabeledExample, out)
        assert path.read_text().splitlines()[0] == "ticker,filing_date,year,label"
        loaded = read_records(path, LabeledExample)
        assert [(e.ticker, e.label, e.year) for e in loaded] == \
               [(e.ticker, e.label, e.year) for e in out]
