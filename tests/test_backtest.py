import random
from datetime import date

import numpy as np
import pytest

from filingsignal.backtest import (BacktestReport, SplitSpec, YearResult,
                                   compound, k_sweep, rank_test_years,
                                   run_backtest, write_cumulative_csv)
from filingsignal.llm_scoring import FeatureRow
from filingsignal.market_data import ReturnRecord
from filingsignal.regression import NNLSModel


def identity_model(p=1):
    return NNLSModel([f"q{i}" for i in range(p)], np.ones(p), 0.0,
                     np.zeros(p), np.ones(p))


def rank(features, returns, split):
    return rank_test_years(identity_model(), features, returns, split)


def feature_row(ticker, year, score):
    iso = f"{year}-03-01"
    return FeatureRow((ticker, iso), [score])


def return_record(ticker, year, r12, sp12=0.04, rmax=None, spmax=None):
    return ReturnRecord(ticker, date(year, 3, 1), date(year + 1, 3, 1),
                        r12, rmax if rmax is not None else r12 + 0.05,
                        -0.1, sp12,
                        spmax if spmax is not None else sp12 + 0.02, [])


class TestCompounding:
    def test_two_year_identity(self):
        assert compound([0.1, 0.2])[-1] == pytest.approx(1.32, abs=1e-12)

    def test_product_identity_random(self):
        rng = random.Random(1)
        for _ in range(50):
            returns = [rng.uniform(-0.5, 0.5) for _ in range(rng.randint(1, 10))]
            wealth = compound(returns)
            assert wealth[0] == 1.0
            product = 1.0
            for r in returns:
                product *= 1.0 + r
            assert wealth[-1] == pytest.approx(product, abs=1e-12)


class TestSplitSpec:
    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            SplitSpec((2002, 2018), (2018, 2023))

    def test_membership(self):
        split = SplitSpec((2002, 2017), (2018, 2023))
        assert split.in_test(2018) and split.in_test(2023)
        assert not split.in_test(2017) and not split.in_test(2024)


class TestRunBacktest:
    SPLIT = SplitSpec((2015, 2017), (2018, 2019))

    def test_single_year_single_pick(self):
        split = SplitSpec((2015, 2017), (2018, 2018))
        features = [feature_row("A", 2018, 10)]
        returns = [return_record("A", 2018, 0.10, sp12=0.04)]
        report = run_backtest(rank(features, returns, split), k=1,
                              return_basis="12m")
        assert report.strategy_wealth == [1.0, pytest.approx(1.10)]
        assert report.benchmark_wealth == [1.0, pytest.approx(1.04)]
        assert report.per_year[0].picks == [("A", pytest.approx(10.0))]

    def test_two_years_compound(self):
        features = [feature_row("A", 2018, 5), feature_row("A", 2019, 5)]
        returns = [return_record("A", 2018, 0.1),
                   return_record("A", 2019, 0.2)]
        report = run_backtest(rank(features, returns, self.SPLIT), k=1,
                              return_basis="12m")
        assert report.strategy_wealth[-1] == pytest.approx(1.32, abs=1e-12)

    def test_train_rows_never_evaluated(self):
        features = [feature_row("A", 2016, 99), feature_row("B", 2018, 1)]
        returns = [return_record("A", 2016, 5.0), return_record("B", 2018, 0.0)]
        report = run_backtest(rank(features, returns, self.SPLIT), k=5,
                              return_basis="12m")
        picked = {t for y in report.per_year for t, _ in y.picks}
        assert picked == {"B"}

    def test_missing_return_record_backfilled(self):
        features = [feature_row("A", 2018, 9), feature_row("B", 2018, 5),
                    feature_row("C", 2018, 1)]
        returns = [return_record("B", 2018, 0.07), return_record("C", 2018, 0.01)]
        report = run_backtest(rank(features, returns, SplitSpec((2015, 2017), (2018, 2018))),
                              k=2,
                              return_basis="12m")
        assert [t for t, _ in report.per_year[0].picks] == ["B", "C"]

    def test_empty_year_omitted(self):
        features = [feature_row("A", 2018, 5)]
        returns = [return_record("A", 2018, 0.1)]
        report = run_backtest(rank(features, returns, self.SPLIT), k=1,
                              return_basis="12m")  # nothing filed in 2019
        assert [y.year for y in report.per_year] == [2018]

    def test_max_basis_uses_max_fields(self):
        split = SplitSpec((2015, 2017), (2018, 2018))
        features = [feature_row("A", 2018, 5)]
        returns = [return_record("A", 2018, 0.10, sp12=0.04,
                                 rmax=0.30, spmax=0.12)]
        report = run_backtest(rank(features, returns, split),
                              k=1, return_basis="max")
        assert report.strategy_wealth[-1] == pytest.approx(1.30)
        assert report.benchmark_wealth[-1] == pytest.approx(1.12)

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_must_be_positive(self, k):
        with pytest.raises(ValueError, match="k must be >= 1"):
            run_backtest(rank([feature_row("A", 2018, 5)],
                              [return_record("A", 2018, 0.1)], self.SPLIT), k=k,
                         return_basis="12m")

    def test_tie_broken_by_ticker(self):
        features = [feature_row("B", 2018, 5), feature_row("A", 2018, 5)]
        returns = [return_record("A", 2018, 0.1), return_record("B", 2018, 0.2)]
        report = run_backtest(rank(features, returns, SplitSpec((2015, 2017), (2018, 2018))),
                              k=1,
                              return_basis="12m")
        assert report.per_year[0].picks == [("A", 5.0)]

    def test_picks_match_sort_oracle(self):
        rng = random.Random(0)
        scores = [(f"T{i:03d}", rng.randint(0, 30)) for i in range(100)]  # with ties
        features = [feature_row(t, 2018, s) for t, s in scores]
        returns = [return_record(t, 2018, 0.0) for t, _ in scores]
        report = run_backtest(rank(features, returns, SplitSpec((2015, 2017), (2018, 2018))),
                              k=5,
                              return_basis="12m")
        expected = sorted(scores, key=lambda x: (-x[1], x[0]))[:5]
        assert report.per_year[0].picks == [(t, float(s)) for t, s in expected]

    def test_cumulative_rows_carry_their_years(self, tmp_path):
        report = BacktestReport(  # test years 2018-2020, 2019 omitted
            per_year=[YearResult(2018, [("A", 5.0)], 0.1, 0.04),
                      YearResult(2020, [("A", 5.0)], 0.2, 0.04)],
            strategy_wealth=compound([0.1, 0.2]),
            benchmark_wealth=compound([0.04, 0.04]), k=1, return_basis="12m")
        write_cumulative_csv(tmp_path / "cumulative.csv", report)
        rows = (tmp_path / "cumulative.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["2017", "2018", "2020"]

    def test_determinism(self):
        features = [feature_row(t, 2018, s) for t, s in
                    [("A", 3), ("B", 9), ("C", 9), ("D", 1)]]
        returns = [return_record(t, 2018, r) for t, r in
                   [("A", 0.1), ("B", 0.2), ("C", 0.3), ("D", 0.0)]]
        split = SplitSpec((2015, 2017), (2018, 2018))
        a = run_backtest(rank(features, returns, split), k=2,
                         return_basis="12m")
        b = run_backtest(rank(features, returns, split), k=2,
                         return_basis="12m")
        assert a.to_json() == b.to_json()


class TestKSweep:
    def planted(self):
        """Signal concentrated in top ranks: higher score => higher return."""
        split = SplitSpec((2015, 2017), (2018, 2019))
        features, returns = [], []
        for year in (2018, 2019):
            for i in range(10):
                score = 10 - i
                features.append(feature_row(f"T{i}", year, score))
                returns.append(return_record(f"T{i}", year, 0.30 - 0.03 * i,
                                             sp12=0.03))
        return features, returns, split

    def test_weakly_decreasing_in_k(self):
        features, returns, split = self.planted()
        table = k_sweep(rank(features, returns, split),
                        [1, 2, 3, 5, 10], "12m")
        means = [s for _, s, _ in table]
        assert all(a >= b - 1e-12 for a, b in zip(means, means[1:]))

    def test_k_equals_universe_gives_universe_mean(self):
        features, returns, split = self.planted()
        table = k_sweep(rank(features, returns, split), [10], "12m")
        _, strategy, _ = table[0]
        universe_mean = np.mean([0.30 - 0.03 * i for i in range(10)])
        assert strategy == pytest.approx(universe_mean, abs=1e-12)

    def test_k1_equals_best_single_stock(self):
        features, returns, split = self.planted()
        table = k_sweep(rank(features, returns, split), [1], "12m")
        assert table[0][1] == pytest.approx(0.30, abs=1e-12)

    def test_empty_k_values_rejected(self):
        features, returns, split = self.planted()
        with pytest.raises(ValueError):
            k_sweep(rank(features, returns, split), [], "12m")
