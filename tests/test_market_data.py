from bisect import bisect_left, bisect_right
from datetime import date, timedelta

import numpy as np
import pytest

from filingsignal import market_data
from filingsignal.errors import PipelineError
from filingsignal.market_data import (PriceSeries, ReturnRecord, WindowSkipped,
                                      compute_return_records,
                                      load_price_csv, load_price_dir,
                                      read_returns_csv, window_bounds,
                                      window_returns, write_returns_csv)
from filingsignal.synthetic import business_days


def weekday_calendar(start=date(2020, 1, 1), end=date(2022, 12, 31)):
    return np.array(business_days(start, end), dtype="datetime64[D]")


def series_from(prices, start=date(2020, 1, 1), symbol="TST"):
    days = business_days(start, start + timedelta(days=int(len(prices) * 1.6)))
    return PriceSeries(symbol, days[:len(prices)], prices)


class TestPriceSeries:
    def test_rejects_unsorted_dates(self):
        with pytest.raises(ValueError):
            PriceSeries("X", [date(2020, 1, 2), date(2020, 1, 1)], [1.0, 1.0])

    def test_rejects_nonpositive_price(self):
        with pytest.raises(ValueError):
            PriceSeries("X", [date(2020, 1, 1)], [0.0])

    def test_load_csv(self, tmp_path):
        p = tmp_path / "px.csv"
        p.write_text("symbol,date,adjusted_close\nTST,2020-01-02,10.5\n"
                     "TST,2020-01-03,10.6\nSPX,2020-01-02,3000\n")
        rows = load_price_csv(p, {"TST", "SPX", "OTHER"})
        assert set(rows) == {"TST", "SPX"}
        assert set(load_price_csv(p, {"TST"})) == {"TST"}
        assert (rows["TST"].dates[0].item(), rows["TST"].closes[0]) == (date(2020, 1, 2), 10.5)

    def test_load_csv_reads_columns_by_header(self, tmp_path):
        p = tmp_path / "px.csv"
        p.write_text("date,adjusted_close,symbol\n2020-01-03,10.6,TST\n\n"
                     "2020-01-02,10.5,TST\n")
        rows = load_price_csv(p, {"TST"})
        assert rows["TST"].dates.tolist() == [date(2020, 1, 2), date(2020, 1, 3)]
        assert rows["TST"].closes.tolist() == [10.5, 10.6]
        (tmp_path / "empty.csv").write_text("")
        assert load_price_csv(tmp_path / "empty.csv", {"TST"}) == {}

    def test_row_without_its_symbol_recorded(self, tmp_path):
        p = tmp_path / "px.csv"
        p.write_text("date,adjusted_close,symbol\n2020-01-02,10.5,TST\n2020-01-03,1.1\n")
        rows = load_price_csv(p, {"TST", ""})
        assert rows["TST"].closes.tolist() == [10.5]
        assert rows[""] == f"(no symbol): {p} line 3: '2020-01-03,1.1': list index out of range"
        assert set(load_price_csv(p, {"TST"})) == {"TST"}  # a row of no needed symbol

    def test_load_dir_leaves_out_bad_series(self, tmp_path):
        (tmp_path / "px.csv").write_text(
            "symbol,date,adjusted_close\nTST,2020-01-02,10.5\nBAD,2020-01-02,0.0\n"
            "DUP,2020-01-02,1.0\nDUP,2020-01-02,1.0\nSPX,2020-01-02,3000\n")
        rejected = {}
        prices = load_price_dir(tmp_path, {"TST", "BAD", "DUP", "SPX"}, rejected)
        assert set(prices) == {"TST", "SPX"}
        assert rejected == {"BAD": "BAD: bad price 0.0 on 2020-01-02",
                            "DUP": "DUP: dates must be strictly increasing"}


    def test_load_dir_leaves_out_unparseable_series(self, tmp_path):
        (tmp_path / "a.csv").write_text(
            "symbol,date,adjusted_close\nTST,2020-01-02,10.5\nBAD,2020-01-02,n/a\n"
            "BAD,2020-01-03,1.0\nDAY,2020-02-30,1.0\nFIX,2020-01-02,\n")
        (tmp_path / "b.csv").write_text(  # a later file replaces a symbol
            "symbol,date,adjusted_close\nFIX,2020-01-02,2.0\n")
        rejected = {}
        prices = load_price_dir(tmp_path, {"TST", "BAD", "DAY", "FIX"}, rejected)
        assert set(prices) == {"TST", "FIX"}
        assert prices["FIX"].dates.tolist() == [date(2020, 1, 2)]
        assert prices["FIX"].closes.tolist() == [2.0]
        assert sorted(rejected) == ["BAD", "DAY"]
        assert rejected["BAD"].startswith(
            f"BAD: {tmp_path / 'a.csv'} line 3: 'BAD,2020-01-02,n/a': ")
        assert rejected["DAY"].startswith(
            f"DAY: {tmp_path / 'a.csv'} line 5: 'DAY,2020-02-30,1.0': ")


# Every symbol the files of TestColumnParse price, as either parse reads them.
EVERY = {"A", "B", "C", "D", "E", "SPX", "", "É", 'C"D'}


def parsed(path, monkeypatch, whole, symbols=EVERY):
    """``load_price_csv(path, symbols)`` as plain values (or the error it
    raises), with the column parse on or off, and whether the column parse
    took the file."""
    parse, took = market_data._parse_columns, []
    with monkeypatch.context() as patch:
        patch.setattr(market_data, "_parse_columns", lambda *args: took.append(
            parse(*args) if whole else None) or took[-1])
        try:
            loaded = load_price_csv(path, symbols)
        except PipelineError as exc:
            return str(exc), bool(took and took[0] is not None)
    return ([(sym, s if isinstance(s, str) else (s.dates.tolist(), s.closes.tolist()))
             for sym, s in loaded.items()], bool(took and took[0] is not None))


CLEAN = "symbol,date,adjusted_close\nB,2020-01-03,2.5\nA,2020-01-02,10\nB,2020-01-02,2.25\n"


class TestColumnParse:
    """The column parse gives what the row-by-row parse gives, or refuses the file."""

    @pytest.mark.parametrize("text, whole", [
        (CLEAN, True),
        (CLEAN.replace("\n", "\r\n"), True),
        (CLEAN.rstrip("\n"), True),
        ("date,volume,symbol,adjusted_close\n2020-01-02,7,SPX,3000.5\n", True),
        ("symbol,date,adjusted_close\n", True),  # no row, so no wanted row
        (CLEAN + "A,2020-01-02,11\n", True),  # a repeated date
        (CLEAN + "C,2020-01-02,0.0\nD,2020-01-02,nan\nE,2020-01-02,-inf\n", True),
        (CLEAN + "C,2020-01-02,1_000\nD,2020-01-02, 2.5 \nE,2020-01-02,+.5e1\n", True),
        (CLEAN + ",2020-01-02,1\n", True),  # an empty symbol
        (CLEAN + "C,2020-01-02,n/a\n", False),
        (CLEAN + "C,2020-01-02,\n", False),
        (CLEAN + "C,2020-01-02,0x10\n", False),
        (CLEAN + "C,2020-01-02," + "1" * 40 + "\n", False),
        (CLEAN + "C,2020-02-30,1\n", False),
        (CLEAN + "C,0000-01-01,1\n", False),
        (CLEAN + "C,20200106,1\n", False),  # fromisoformat reads it; the row parse keeps it
        (CLEAN + "C,2020-1-6,1\n", False),
        (CLEAN + "C,2020-01-06T00,1\n", False),
        (CLEAN + "C,2020-01-06\n", False),  # a short row
        (CLEAN + "C,2020-01-06,1,extra\n", False),  # a long row
        (CLEAN + "\nC,2020-01-06,1\n", False),  # a blank line
        (CLEAN + '"C",2020-01-06,1\n', False),
        (CLEAN + 'C,"2020-01-06",1\n', False),
        (CLEAN + 'C"D,2020-01-06,1\n', True),  # a quote inside a field is read as it is
        (CLEAN + 'C,2020-01-06,1"\n', False),
        (CLEAN + "C,2020-01-06,1\rD,2020-01-06,1\n", False),
        (CLEAN + "C\rD,2020-01-06,1\n", False),  # csv.reader ends a row at a lone \r
        (CLEAN + "É,2020-01-06,1\n", False),
        ("symbol,date\nC,2020-01-06\n", False),  # raises either way
    ])
    def test_equals_row_parse(self, tmp_path, monkeypatch, text, whole):
        path = tmp_path / "px.csv"
        path.write_bytes(text.encode("utf-8"))
        rows, _ = parsed(path, monkeypatch, whole=False)
        assert parsed(path, monkeypatch, whole=True) == (rows, whole)

    def test_equals_row_parse_on_seeded_files(self, tmp_path, monkeypatch):
        monkeypatch.setattr(market_data, "_BLOCK_BYTES", 64)  # several blocks a file
        rng = np.random.default_rng(7)
        subsets = 0
        symbols = ["AAA", "BB", "C"]
        dates = ["2020-01-02", "2020-01-03", "2020-02-29", "2021-02-29", "2020-1-3"]
        closes = ["1.5", "100", "0", "-1", "1e3", "abc", ""]
        whole = 0
        for n in range(200):
            header = list(rng.permutation(["symbol", "date", "adjusted_close", "volume"]))
            rows = [[{"symbol": rng.choice(symbols), "date": rng.choice(dates[:3]),
                      "adjusted_close": rng.choice(closes[:5]), "volume": "7"}[h]
                     for h in header] for _ in range(rng.integers(1, 15))]
            if n % 2:  # a bad date or close somewhere
                rows[rng.integers(len(rows))][header.index(rng.choice(["date", "adjusted_close"]))] \
                    = rng.choice(dates[3:] + closes[5:])
            end = rng.choice(["\n", "\r\n"])
            path = tmp_path / "px.csv"
            path.write_text(end.join(",".join(map(str, r)) for r in [header, *rows]) + end,
                            newline="")
            wanted = set(rng.choice(symbols, rng.integers(0, len(symbols) + 1), replace=False))
            rows_parsed, _ = parsed(path, monkeypatch, whole=False, symbols=wanted)
            got, took = parsed(path, monkeypatch, whole=True, symbols=wanted)
            assert got == rows_parsed, (wanted, path.read_text())
            whole += took
            subsets += len(wanted) < len(symbols)
        assert whole >= 100  # every file without a bad field
        assert subsets >= 100

    def test_block_without_a_wanted_row_stays_on_the_column_path(self, tmp_path,
                                                                  monkeypatch):
        monkeypatch.setattr(market_data, "_BLOCK_BYTES", 64)
        blocks, parse = [], market_data._parse_block
        monkeypatch.setattr(market_data, "_parse_block",
                            lambda *args, **kw: blocks.append(parse(*args, **kw)) or blocks[-1])
        path = tmp_path / "px.csv"
        path.write_text(CLEAN + "Z,2020-01-02,1.5\n" * 20 + "A,2020-01-03,11\n")
        rows, took = parsed(path, monkeypatch, whole=True, symbols={"A", "B"})
        assert took and rows == parsed(path, monkeypatch, whole=False, symbols={"A", "B"})[0]
        assert rows[1] == ("A", ([date(2020, 1, 2), date(2020, 1, 3)], [10.0, 11.0]))
        assert [len(b[0]) for b in blocks if b is not None].count(0) >= 2
        assert None not in blocks

    @pytest.mark.parametrize("bad", [
        "Z,2020-01-06,n/a", "Z,2020-02-30,1", "Z,2020-1-6,1", 'Z,2020-01-06,1"5',
        "Z,2020-01-06," + "1" * 40 + "e"])
    def test_bad_row_of_an_unneeded_symbol_is_not_read(self, tmp_path, monkeypatch, bad):
        path = tmp_path / "px.csv"
        path.write_text(CLEAN + bad + "\n")
        rows, _ = parsed(path, monkeypatch, whole=False, symbols={"A", "B"})
        assert parsed(path, monkeypatch, whole=True, symbols={"A", "B"}) == (rows, True)
        assert [sym for sym, _ in rows] == ["B", "A"]
        needed, took = parsed(path, monkeypatch, whole=True, symbols={"A", "B", "Z"})
        assert not took  # a needed bad row still sends the file to the row parse
        assert dict(needed)["Z"].startswith(f"Z: {path} line 5: {bad!r}: ")


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

    def test_filing_on_the_last_priced_date_is_skipped_not_refused(self):
        cal = weekday_calendar()
        last = cal[-1].item()  # an open window's end date is the last priced date
        with pytest.raises(WindowSkipped, match="calendar ends before"):
            window_bounds(last, last, cal)

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

    def test_percentiles_equal_separate_calls_exactly(self):
        # window_returns takes both percentiles from one np.percentile call.
        rng = np.random.default_rng(13)
        for n in range(market_data.MIN_WINDOW_OBSERVATIONS, 400):
            prices = rng.uniform(1, 500) * np.exp(np.cumsum(rng.normal(0, 0.02, n)))
            s = series_from(list(prices))
            r = window_returns(s, s.dates[0], s.dates[-1])
            cumulative = prices / prices[0] - 1.0
            assert r.r_max == float(np.percentile(cumulative, market_data.MAX_PERCENTILE))
            assert r.r_min == float(np.percentile(cumulative, market_data.MIN_PERCENTILE))

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
        bench = PriceSeries("SPX", days, [3000.0 * 1.0001 ** i for i in range(n)])
        if stock_prices is None:
            stock = PriceSeries("TST", days, [100.0 * 1.0002 ** i for i in range(n)])
        else:
            stock = stock_prices
        filing_dates = {"TST": [date(2019, 2, 4), date(2020, 2, 3)]}
        return filing_dates, {"TST": stock, "SPX": bench}, bench

    def test_windows_align_stock_and_benchmark(self):
        filing_dates, prices, bench = self.build()
        records, warnings = compute_return_records(filing_dates, prices, bench)
        assert len(records) == 2  # closed + open window
        closed = records[0]
        cal = bench.dates
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
        short = PriceSeries("TST", days[:150], [100.0] * 150)
        filing_dates, prices, bench = self.build(stock_prices=short)
        records, _ = compute_return_records(filing_dates, prices, bench)
        assert any("delisted" in r.flags for r in records)

    def test_missing_series_warns(self):
        filing_dates, prices, bench = self.build()
        del prices["TST"]
        records, skipped = compute_return_records(filing_dates, prices, bench)
        assert records == []
        assert skipped == [("TST", "no price series, skipped")]

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


def oracle_return_records(filing_dates, observations, benchmark):
    """compute_return_records on date-sorted (date, close) lists, with bisect.

    ``observations`` maps each priced symbol to its list; ``benchmark`` names
    the symbol whose dates are the trading calendar.
    """
    calendar = [d for d, _ in observations[benchmark]]

    def after(d):  # 2nd trading day strictly after d
        i = bisect_right(calendar, d) + 1
        if i >= len(calendar):
            raise WindowSkipped(f"calendar ends before 2 trading days after {d}")
        return calendar[i]

    def before(d):  # 2nd trading day strictly before d
        i = bisect_left(calendar, d) - 2
        if i < 0:
            raise WindowSkipped(f"calendar starts after 2 trading days before {d}")
        return calendar[i]

    def returns(symbol, start, end):
        closes = [p for d, p in observations[symbol] if start <= d <= end]
        if len(closes) < 10:
            raise WindowSkipped(f"{symbol}: only {len(closes)} observations in [{start}, {end}]")
        cumulative = np.array([p / closes[0] - 1.0 for p in closes])
        return (float(cumulative[-1]), float(np.percentile(cumulative, 98)),
                float(np.percentile(cumulative, 2)))

    records, warnings = [], []
    for ticker in sorted(filing_dates):
        if ticker not in observations:
            warnings.append((ticker, "no price series, skipped"))
            continue
        dates = sorted(filing_dates[ticker])
        for i, fdate in enumerate(dates):
            open_window = i + 1 == len(dates)
            next_fdate = calendar[-1] if open_window else dates[i + 1]
            try:
                start, end = after(fdate), before(next_fdate)
                if start >= end:
                    raise WindowSkipped(f"window collapsed: start {start} >= end {end} "
                                        f"for filings {fdate} / {next_fdate}")
                stock = returns(ticker, start, end)
                bench = returns(benchmark, start, end)
            except WindowSkipped as exc:
                warnings.append((f"{ticker} {fdate}", str(exc)))
                continue
            flags = ["open_window"] if open_window else []
            if observations[ticker][-1][0] < end:
                flags.append("delisted")
            records.append(ReturnRecord(ticker, fdate, next_fdate, *stock, *bench[:2], flags))
    return records, warnings


def test_return_records_equal_list_oracle_exactly():
    rng = np.random.default_rng(12)
    weekdays = business_days(date(2018, 1, 1), date(2022, 12, 30))
    calendar = [d for d in weekdays if rng.random() > 0.03]  # holidays
    last = calendar[-1]

    def walk(days, gaps):
        kept = [d for d in days if rng.random() > gaps]
        closes = 100.0 * np.exp(np.cumsum(rng.normal(0.0003, 0.02, len(kept))))
        return list(zip(kept, closes.tolist()))

    def yearly_filings(years):
        return [date(y, int(rng.integers(2, 5)), int(rng.integers(1, 29))) for y in years]

    observations = {"SPX": walk(calendar, 0.0)}
    filing_dates = {}
    for n in range(8):  # weekday gaps beyond the calendar's own
        observations[f"T{n}"] = walk(calendar, float(rng.uniform(0.0, 0.3)))
        filing_dates[f"T{n}"] = yearly_filings(range(2018, 2023))
    observations["DLST"] = walk([d for d in calendar if d < date(2020, 9, 1)], 0.05)
    filing_dates["DLST"] = yearly_filings(range(2018, 2023))
    observations["SHRT"] = walk(calendar, 0.97)  # too few closes in most windows
    filing_dates["SHRT"] = yearly_filings(range(2018, 2022))
    for symbol, filed in {
        "COLL": [date(2019, 3, 4), date(2019, 3, 6), date(2020, 3, 2)],  # collapsed
        "LATE": [date(2021, 3, 1), last, last + timedelta(days=30)],  # after the last price
        "OPEN": [date(2021, 3, 1), calendar[-4]],  # collapsed open window
        "EARLY": [date(2017, 6, 1), calendar[1], date(2019, 3, 1)],  # before the first
        "LAST": [date(2021, 3, 1), last],  # an open window from the last price
    }.items():
        observations[symbol] = walk(calendar, 0.1)
        filing_dates[symbol] = filed
    filing_dates["MISS"] = [date(2019, 3, 1)]

    prices = {sym: PriceSeries(sym, [d for d, _ in obs], [p for _, p in obs])
              for sym, obs in observations.items()}
    records, warnings = compute_return_records(filing_dates, prices, prices["SPX"])
    expected_records, expected_warnings = oracle_return_records(
        filing_dates, observations, "SPX")
    assert records == expected_records
    assert warnings == expected_warnings
    messages = "\n".join(reason for _, reason in warnings)
    for skipped in ["window collapsed", "calendar ends",
                    "calendar starts", "observations in", "no price series"]:
        assert skipped in messages
    reasons = dict(warnings)
    assert reasons[f"OPEN {calendar[-4]}"].startswith("window collapsed")
    assert reasons[f"LAST {last}"].startswith("calendar ends")
    assert any("delisted" in r.flags for r in records)
