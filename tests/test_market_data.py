from datetime import date, timedelta

import numpy as np
import pytest

from filingsignal.market_data import (PriceSeries, TradingCalendar,
                                      WindowSkipped, compute_return_records,
                                      load_price_csv, load_price_dir,
                                      read_returns_csv, window_bounds,
                                      window_returns, write_returns_csv)
from filingsignal.synthetic import business_days


def weekday_calendar(start=date(2020, 1, 1), end=date(2022, 12, 31)):
    return TradingCalendar(business_days(start, end))


def series_from(prices, start=date(2020, 1, 1), symbol="TST"):
    days = business_days(start, start + timedelta(days=int(len(prices) * 1.6)))
    return PriceSeries(symbol, list(zip(days[:len(prices)], prices)))


class TestPriceSeries:
    def test_rejects_unsorted_dates(self):
        with pytest.raises(ValueError):
            PriceSeries("X", [(date(2020, 1, 2), 1.0), (date(2020, 1, 1), 1.0)])

    def test_rejects_nonpositive_price(self):
        with pytest.raises(ValueError):
            PriceSeries("X", [(date(2020, 1, 1), 0.0)])

    def test_load_csv(self, tmp_path):
        p = tmp_path / "px.csv"
        p.write_text("symbol,date,adjusted_close\nTST,2020-01-02,10.5\n"
                     "TST,2020-01-03,10.6\nSPX,2020-01-02,3000\n")
        rows = load_price_csv(p)
        assert set(rows) == {"TST", "SPX"}
        assert rows["TST"][0] == (date(2020, 1, 2), 10.5)

    def test_load_csv_reads_columns_by_header(self, tmp_path):
        p = tmp_path / "px.csv"
        p.write_text("date,adjusted_close,symbol\n2020-01-03,10.6,TST\n\n"
                     "2020-01-02,10.5,TST\n")
        rows = load_price_csv(p)
        assert rows["TST"] == [(date(2020, 1, 2), 10.5), (date(2020, 1, 3), 10.6)]
        (tmp_path / "empty.csv").write_text("")
        assert load_price_csv(tmp_path / "empty.csv") == {}

    def test_load_dir_leaves_out_bad_series(self, tmp_path):
        (tmp_path / "px.csv").write_text(
            "symbol,date,adjusted_close\nTST,2020-01-02,10.5\nBAD,2020-01-02,0.0\n"
            "DUP,2020-01-02,1.0\nDUP,2020-01-02,1.0\nSPX,2020-01-02,3000\n")
        rejected = {}
        prices = load_price_dir(tmp_path, rejected)
        assert set(prices) == {"TST", "SPX"}
        assert rejected == {"BAD": "BAD: bad price 0.0 on 2020-01-02",
                            "DUP": "DUP: dates must be strictly increasing"}


class TestWindowBounds:
    def test_monday_filing_all_weekdays(self):
        cal = weekday_calendar()
        # Mon 2020-03-02 -> strictly after: Tue 3rd (1st), Wed 4th (2nd)
        start, end = window_bounds(date(2020, 3, 2), date(2021, 3, 2), cal)
        assert start == date(2020, 3, 4)

    def test_friday_filing_skips_weekend(self):
        cal = weekday_calendar()
        # Fri 2020-03-06 -> Mon 9th (1st), Tue 10th (2nd)
        start, _ = window_bounds(date(2020, 3, 6), date(2021, 3, 6), cal)
        assert start == date(2020, 3, 10)

    def test_end_two_trading_days_before(self):
        cal = weekday_calendar()
        # next filing Mon 2021-03-08 -> strictly before: Fri 5th (1st), Thu 4th (2nd)
        _, end = window_bounds(date(2020, 3, 2), date(2021, 3, 8), cal)
        assert end == date(2021, 3, 4)

    def test_collapsed_window_skipped(self):
        cal = weekday_calendar()
        with pytest.raises(WindowSkipped):
            window_bounds(date(2020, 3, 2), date(2020, 3, 5), cal)

    def test_filing_order_enforced(self):
        cal = weekday_calendar()
        with pytest.raises(ValueError):
            window_bounds(date(2021, 1, 1), date(2020, 1, 1), cal)


class TestWindowReturns:
    def test_constant_series_all_zero(self):
        s = series_from([100.0] * 260)
        r = window_returns(s, s.dates[0], s.dates[-1])
        assert r.r_12m == r.r_max == r.r_min == 0.0

    def test_simple_arithmetic(self):
        s = series_from([100.0] * 10 + [110.0])
        r = window_returns(s, s.dates[0], s.dates[-1])
        assert r.r_12m == pytest.approx(0.10)

    def test_percentile_oracle_252_days(self):
        rng = np.random.default_rng(7)
        prices = 100.0 * np.exp(np.cumsum(rng.normal(0.0005, 0.02, 252)))
        s = series_from(list(prices))
        r = window_returns(s, s.dates[0], s.dates[-1])
        cumulative = prices / prices[0] - 1.0
        assert r.r_max == pytest.approx(np.percentile(cumulative, 98), abs=1e-12)
        assert r.r_min == pytest.approx(np.percentile(cumulative, 2), abs=1e-12)

    def test_insufficient_observations_skipped(self):
        s = series_from([100.0] * 5)
        with pytest.raises(WindowSkipped):
            window_returns(s, s.dates[0], s.dates[-1])

    def test_scaling_invariance(self):
        rng = np.random.default_rng(8)
        prices = list(100.0 * np.exp(np.cumsum(rng.normal(0, 0.01, 100))))
        a = series_from(prices)
        b = series_from([p * 7.3 for p in prices])
        ra = window_returns(a, a.dates[0], a.dates[-1])
        rb = window_returns(b, b.dates[0], b.dates[-1])
        for f in ("r_12m", "r_max", "r_min"):
            assert getattr(ra, f) == pytest.approx(getattr(rb, f), abs=1e-12)

    def test_percentile_monotonicity(self):
        # 2nd <= 50th <= 98th percentile over the same cumulative-return set.
        rng = np.random.default_rng(9)
        for _ in range(20):
            prices = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.03, 60)))
            s = series_from(list(prices))
            r = window_returns(s, s.dates[0], s.dates[-1])
            median = np.percentile(prices / prices[0] - 1.0, 50)
            assert r.r_min <= median <= r.r_max
            assert r.r_max >= r.r_min


class TestBenchmark:
    def test_constant_benchmark(self):
        s = series_from([3000.0] * 30, symbol="SPX")
        r = window_returns(s, s.dates[0], s.dates[-1])
        assert (r.r_12m, r.r_max) == (0.0, 0.0)

    def test_identical_series_identical_returns(self):
        rng = np.random.default_rng(10)
        prices = list(100.0 * np.exp(np.cumsum(rng.normal(0, 0.01, 120))))
        stock = series_from(prices)
        bench = series_from(prices, symbol="SPX")
        rs = window_returns(stock, stock.dates[0], stock.dates[-1])
        rb = window_returns(bench, stock.dates[0], stock.dates[-1])
        assert rs.r_12m == pytest.approx(rb.r_12m, abs=1e-12)
        assert rs.r_max == pytest.approx(rb.r_max, abs=1e-12)

    def test_matches_percentile_oracle(self):
        rng = np.random.default_rng(11)
        prices = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.015, 200)))
        bench = series_from(list(prices), symbol="SPX")
        bmax = window_returns(bench, bench.dates[0], bench.dates[-1]).r_max
        cumulative = prices / prices[0] - 1.0
        assert bmax == pytest.approx(np.percentile(cumulative, 98), abs=1e-12)


class TestReturnRecords:
    def build(self, stock_prices=None):
        days = business_days(date(2019, 1, 1), date(2021, 12, 31))
        n = len(days)
        bench = PriceSeries("SPX", [(d, 3000.0 * 1.0001 ** i)
                                    for i, d in enumerate(days)])
        if stock_prices is None:
            stock = PriceSeries("TST", [(d, 100.0 * 1.0002 ** i)
                                        for i, d in enumerate(days)])
        else:
            stock = stock_prices
        filing_dates = {"TST": [date(2019, 2, 4), date(2020, 2, 3)]}
        return filing_dates, {"TST": stock, "SPX": bench}, bench

    def test_windows_align_stock_and_benchmark(self):
        filing_dates, prices, bench = self.build()
        records, warnings = compute_return_records(filing_dates, prices, bench)
        assert len(records) == 2  # closed + open window
        closed = records[0]
        cal = TradingCalendar(bench.dates)
        start, end = window_bounds(closed.filing_date, closed.next_filing_date, cal)
        expected = window_returns(prices["TST"], start, end)
        b = window_returns(bench, start, end)
        assert closed.target_12m == pytest.approx(expected.r_12m, abs=1e-15)
        assert closed.sp500_12m == pytest.approx(b.r_12m, abs=1e-15)
        assert closed.sp500_max == pytest.approx(b.r_max, abs=1e-15)

    def test_last_filing_open_window_flagged(self):
        filing_dates, prices, bench = self.build()
        records, _ = compute_return_records(filing_dates, prices, bench)
        assert records[-1].flags == ["open_window"]

    def test_delisted_series_flagged_not_dropped(self):
        days = business_days(date(2019, 1, 1), date(2021, 12, 31))
        short = PriceSeries("TST", [(d, 100.0) for d in days[:150]])
        filing_dates, prices, bench = self.build(stock_prices=short)
        records, _ = compute_return_records(filing_dates, prices, bench)
        assert any("delisted" in r.flags for r in records)

    def test_missing_series_warns(self):
        filing_dates, prices, bench = self.build()
        del prices["TST"]
        records, warnings = compute_return_records(filing_dates, prices, bench)
        assert records == []
        assert any("no price series" in w for w in warnings)

    def test_csv_round_trip(self, tmp_path):
        filing_dates, prices, bench = self.build()
        records, _ = compute_return_records(filing_dates, prices, bench)
        path = tmp_path / "returns.csv"
        write_returns_csv(path, records)
        header = path.read_text().splitlines()[0]
        assert header == ("ticker,filing_date,next_filing_date,target_12m,"
                          "target_max,target_min,sp500_12m,sp500_max,flags")
        loaded = read_returns_csv(path)
        assert loaded == records
