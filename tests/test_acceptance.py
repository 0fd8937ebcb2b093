"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines.
"""

import itertools
import json
import random
import re
import time
from datetime import date

import numpy as np

from filingsignal.backtest import compound
from filingsignal.corpus import Filing, chunk_filing, clean_filing_text
from filingsignal.embed_index import VectorIndex, normalize
from filingsignal.labeling import make_labels
from filingsignal.market_data import (PriceSeries, compute_return_records,
                                      window_bounds, window_returns)
from filingsignal.pipeline import run_pipeline
from filingsignal.regression import nnls
from filingsignal.synthetic import business_days

from conftest import synthetic_config
from test_corpus import reassemble_chunks
from test_labeling import oracle_labels, record as return_record

SYNTH_STAGES = ["embed", "score", "returns", "label", "train", "backtest"]


def report(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS ({detail})")


def test_criterion_1_nnls_oracle_equivalence():
    """200 random instances: objective within 1e-8 of the enumeration oracle."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_gap = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 21))
        p = int(rng.integers(1, 9))
        X = rng.uniform(0, 10, size=(n, p))
        y = rng.uniform(0, 1, size=n)
        coefficients = nnls(X, y)
        assert coefficients.min() >= 0.0

        best = float(np.sum(y ** 2))
        for r in range(1, p + 1):
            for cols in itertools.combinations(range(p), r):
                coef, *_ = np.linalg.lstsq(X[:, list(cols)], y, rcond=None)
                if np.any(coef < 0):
                    continue
                x = np.zeros(p)
                x[list(cols)] = coef
                best = min(best, float(np.sum((X @ x - y) ** 2)))
        mine = float(np.sum((X @ coefficients - y) ** 2))
        gap = mine - best
        worst_gap = max(worst_gap, gap)
        assert gap <= 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(1, f"200 instances, worst objective gap {worst_gap:.2e}, {elapsed:.2f}s")


def test_criterion_2_label_oracle_equivalence():
    """100 random multi-year return sets match the independent oracle."""
    rng = random.Random(2024)
    for trial in range(100):
        years = rng.sample(range(2002, 2023), rng.randint(2, 4))
        records, expected = [], {}
        for year in years:
            n = rng.randint(1, 60)
            values = [rng.gauss(0.05, 0.4) for _ in range(n)]
            if trial % 3 == 0:
                values = [round(v, 1) for v in values]  # force ties
            for i, (v, lab) in enumerate(zip(values, oracle_labels(values, 5))):
                records.append(return_record(f"T{year}_{i}", year, v))
                expected[f"T{year}_{i}"] = lab
        out = make_labels(records, "target_12m", bins=5)
        raw = {r.ticker: r.target_12m for r in records}
        by_year = {}
        for e in out:
            assert e.label == expected[e.ticker]
            assert 0.0 <= e.label <= 1.0
            by_year.setdefault(e.year, []).append(e)
        # per-year monotonicity on this instance
        for group in by_year.values():
            ordered = sorted(group, key=lambda e: raw[e.ticker])
            for a, b in zip(ordered, ordered[1:]):
                assert a.label <= b.label or raw[a.ticker] == raw[b.ticker]
        # monotone-transform invariance on this instance
        transformed = [
            return_record(r.ticker, r.filing_date.year,
                          np.expm1(2.0 * r.target_12m))
            for r in records
        ]
        after = make_labels(transformed, "target_12m", bins=5)
        assert [(e.ticker, e.label) for e in out] == \
               [(e.ticker, e.label) for e in after]
    report(2, "100 instances identical to rank/normalize/bin oracle")


def test_criterion_3_retrieval_exactness():
    """50 random indices (<= 2000 vectors of one filing, D=32) equal the
    full-sort oracle."""
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(1, 2001))
        vectors = rng.standard_normal((n, 32))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        refs = [("T", "2020-01-01", i) for i in reversed(range(n))]  # rows out of ref order
        index = VectorIndex("test", refs, [""] * n, vectors)
        query = normalize(rng.standard_normal(32))
        k = int(rng.integers(1, 25))
        stored = index.vectors.astype(np.float64)
        sims = [float(np.dot(v, query)) for v in stored]
        order = sorted(range(n), key=lambda i: (-sims[i], refs[i]))
        expected = [refs[i] for i in order[:k]]
        got = [r for r, _ in index.top_k(query, k, ("T", "2020-01-01"))]
        assert got == expected
    report(3, "50 random indices match the full-sort oracle in set and order")


def test_criterion_4_return_arithmetic():
    """2-trading-day window offsets; 98th-percentile oracle to 1e-12;
    identical stock/benchmark windows."""
    cal = np.array(business_days(date(2019, 1, 1), date(2021, 12, 31)), dtype="datetime64[D]")
    # Monday filing: 2 trading days strictly after Mon 2020-03-02 is Wed 03-04;
    # 2 trading days strictly before Mon 2021-03-08 is Thu 2021-03-04.
    start, end = window_bounds(date(2020, 3, 2), date(2021, 3, 8), cal)
    assert start == date(2020, 3, 4)
    assert end == date(2021, 3, 4)
    # Friday filing skips the weekend.
    start_f, _ = window_bounds(date(2020, 3, 6), date(2021, 3, 8), cal)
    assert start_f == date(2020, 3, 10)

    rng = np.random.default_rng(11)
    days = business_days(date(2019, 1, 1), date(2021, 12, 31))
    prices = 100.0 * np.exp(np.cumsum(rng.normal(0.0004, 0.015, len(days))))
    series = PriceSeries("TST", days, prices)
    r = window_returns(series, start, end)
    in_window = [(d, p) for d, p in zip(days, prices) if start <= d <= end]
    cumulative = np.array([p / in_window[0][1] - 1.0 for _, p in in_window])
    assert abs(r.r_max - np.percentile(cumulative, 98)) <= 1e-12
    assert abs(r.r_min - np.percentile(cumulative, 2)) <= 1e-12

    bench = PriceSeries("SPX", days, [3000.0 * 1.0002 ** i for i in range(len(days))])
    records, _ = compute_return_records(
        {"TST": [date(2020, 3, 2), date(2021, 3, 8)]},
        {"TST": series, "SPX": bench}, bench)
    closed = records[0]
    b = window_returns(bench, start, end)
    assert closed.sp500_12m == b.r_12m and closed.sp500_max == b.r_max
    assert closed.target_12m == r.r_12m
    report(4, "window offsets, percentile oracle, and window parity hold")


def test_criterion_5_compounding_identity():
    """Final wealth = product(1 + r_t) to 1e-12; [0.1, 0.2] -> 1.32."""
    assert abs(compound([0.1, 0.2])[-1] - 1.32) <= 1e-12
    rng = random.Random(5)
    for _ in range(100):
        returns = [rng.uniform(-0.6, 0.8) for _ in range(rng.randint(1, 12))]
        product = 1.0
        for r in returns:
            product *= 1.0 + r
        assert abs(compound(returns)[-1] - product) <= 1e-12
    report(5, "compounding identity holds on 100 random sequences")


def test_criterion_6_end_to_end_planted_signal(synth_root, tmp_path):
    """Synthetic universe with stub providers: strategy beats benchmark and
    the k-sweep is weakly decreasing; full run well under 60 s."""
    t0 = time.perf_counter()
    config = synthetic_config(synth_root, tmp_path)
    run_pipeline(config, SYNTH_STAGES)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0

    rep = json.loads((tmp_path / "report.json").read_text())
    assert rep["strategy_wealth"][-1] > rep["benchmark_wealth"][-1]

    lines = (tmp_path / "ksweep.csv").read_text().strip().splitlines()[1:]
    means = [float(line.split(",")[1]) for line in lines]
    assert all(a >= b - 1e-12 for a, b in zip(means, means[1:]))
    report(6, f"wealth {rep['strategy_wealth'][-1]:.3f} > "
              f"{rep['benchmark_wealth'][-1]:.3f}, k-sweep decreasing, "
              f"{elapsed:.1f}s")


def test_criterion_7_determinism(synth_root, tmp_path):
    """Two identical pipeline runs produce byte-identical key artifacts."""
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_pipeline(synthetic_config(synth_root, out_a), SYNTH_STAGES)
    run_pipeline(synthetic_config(synth_root, out_b), SYNTH_STAGES)
    for name in ["features.csv", "labels.csv", "model.json", "report.json"]:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
    report(7, "features.csv, labels.csv, model.json, report.json byte-identical")


def test_criterion_8_parser_and_chunker(sample_10k_html):
    """Checked-in EDGAR HTML fixture: known sentences survive, no markup;
    chunk reconstruction is byte-exact."""
    text = clean_filing_text(sample_10k_html)
    for sentence in ["Item 1A. Risk Factors",
                     "record revenue growth",
                     "limited number of suppliers",
                     "Net sales increased 12%"]:
        assert sentence in text
    assert not re.search(r"<[a-zA-Z/][^>]*>", text)
    filing = Filing("EXCO", "0000000001", "A-1", date(2023, 11, 3), "x", text)
    chunks = chunk_filing(filing, chunk_chars=512, overlap_chars=64)
    assert reassemble_chunks(chunks) == text
    report(8, f"cleaner preserved prose, {len(chunks)} chunks reassemble exactly")
