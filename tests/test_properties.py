"""Property tests of the small kernels whose output decides artifact bytes,
each against an oracle or an invariant. The examples are derandomized, so
every run draws the same ones."""

import hashlib
import logging
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import nnls as scipy_nnls
from scipy.stats import rankdata

from filingsignal.backtest import Pick, SplitSpec, run_backtest
from filingsignal.corpus import Filing, chunk_filing, read_records, write_records
from filingsignal.embed_index import VectorIndex
from filingsignal.labeling import LabeledExample, average_ranks, bin_label
from filingsignal.llm_scoring import ScoreCache
from filingsignal.market_data import FLAG_DELISTED, FLAG_OPEN_WINDOW, ReturnRecord
from filingsignal.regression import nnls

from test_backtest import feature_row, rank, return_record

SETTINGS = settings(derandomize=True, database=None, max_examples=100, deadline=None)

# Small integers make ties; -0.0 ties with 0.0.
values = st.lists(st.integers(-3, 3).map(float) | st.floats(allow_nan=False),
                  min_size=1, max_size=40)

# Every finite float, with -0.0 and the subnormals drawn often.
finite = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308]) | \
    st.floats(allow_nan=False, allow_infinity=False)
tickers = st.text("ABZ09.-", min_size=1, max_size=6)
# The flag lists compute_return_records writes.
flags = st.sampled_from([[], [FLAG_OPEN_WINDOW], [FLAG_DELISTED],
                         [FLAG_OPEN_WINDOW, FLAG_DELISTED]])

return_records = st.builds(ReturnRecord, tickers, st.dates(), st.dates(), finite, finite,
                           finite, finite, finite, flags)
labeled_examples = st.builds(LabeledExample, tickers, st.dates(), st.integers(1900, 2100),
                             finite)


@SETTINGS
@given(values)
def test_average_ranks_equal_scipy_rankdata(values):
    np.testing.assert_array_equal(average_ranks(values), rankdata(values, method="average"))


@SETTINGS
@given(ranks=st.lists(st.floats(0, 1), min_size=2, max_size=10), bins=st.integers(2, 20))
def test_bin_label_is_monotone_and_reaches_every_bin(ranks, bins):
    labels = [bin_label(rank, bins) for rank in sorted(ranks)]
    assert labels == sorted(labels) and 0.0 <= labels[0] and labels[-1] <= 1.0
    assert [bin_label((b + 0.5) / bins, bins) for b in range(bins)] == \
        [b / (bins - 1) for b in range(bins)]


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    """One file for every example: each write replaces it whole."""
    return tmp_path_factory.mktemp("records") / "records.csv"


def read_back(path, cls, records):
    """The repr of ``records`` written to ``path`` and read back: a repr tells
    -0.0 from 0.0 and shows every float to its last bit."""
    write_records(path, cls, records)
    return repr(read_records(path, cls))


@SETTINGS
@given(records=st.lists(return_records, max_size=5))
def test_return_records_round_trip(csv_path, records):
    assert read_back(csv_path, ReturnRecord, records) == repr(records)


@SETTINGS
@given(examples=st.lists(labeled_examples, max_size=5))
def test_labeled_examples_round_trip(csv_path, examples):
    assert read_back(csv_path, LabeledExample, examples) == repr(examples)


# --- VectorIndex.top_k and vectors_of ----------------------------------------

# Small integers make tied similarities; the rest are float32 values.
elements = st.integers(-2, 2).map(float) | st.floats(-1, 1, width=32)
FILINGS = [("A", "2020-03-01"), ("B", "2020-03-01"), ("B", "2021-03-01")]


@SETTINGS
@given(data=st.data())
def test_top_k_equals_a_stable_sort_of_float64_rows(data):
    """The top k of each filing, its similarities and its vectors, against
    the filing's rows in a float64 matrix queried one by one."""
    dim = data.draw(st.integers(1, 6))
    pool = data.draw(st.lists(st.lists(elements, min_size=dim, max_size=dim),
                              min_size=1, max_size=4))
    filings = data.draw(st.lists(st.sampled_from(FILINGS), min_size=1, max_size=24))
    rows = [data.draw(st.sampled_from(pool)) for _ in filings]  # repeated rows tie
    refs = [(*key, filings[:i].count(key)) for i, key in enumerate(filings)]
    query = np.array(data.draw(st.lists(elements | st.floats(-1, 1), min_size=dim,
                                        max_size=dim)))
    k = data.draw(st.integers(1, len(refs) + 1))
    index = VectorIndex("p", refs, ["h"] * len(refs), rows)
    reference = np.array(rows, dtype=np.float32).astype(np.float64)
    for key in [*FILINGS, ("C", "2020-03-01")]:
        positions = sorted((i for i, ref in enumerate(refs) if ref[:2] == key),
                           key=lambda i: refs[i][2])
        sims = reference[positions] @ query
        best = sorted(range(len(positions)), key=lambda j: -sims[j])[:k]  # a stable sort
        hits = index.top_k(query, k, key)
        assert [ref for ref, _ in hits] == [refs[positions[j]] for j in best]
        assert np.array([sim for _, sim in hits]).tobytes() == sims[best].tobytes()
        assert index.vectors_of(key).tobytes() == reference[positions].tobytes()


# --- ScoreCache over a cut file ------------------------------------------------

answer_records = st.tuples(st.just("answer"), st.integers(0, 100), st.text(max_size=12))
row_records = st.tuples(st.just("row"), st.lists(st.integers(0, 100), max_size=4))
vector_records = st.tuples(st.just("vector"), st.lists(finite, min_size=1, max_size=3))


@pytest.fixture(scope="module")
def cache_path(tmp_path_factory):
    """One file for every example: each replaces it whole."""
    return tmp_path_factory.mktemp("cache") / "score_cache.jsonl"


def cache_records(path, records) -> list[str]:
    """Write ``records`` to ``path`` through ``ScoreCache``, one line each;
    returns each one's key."""
    path.unlink(missing_ok=True)
    cache, keys = ScoreCache(path), []
    for kind, *value in records:
        keys.append(hashlib.sha256(str(len(keys)).encode()).hexdigest())
        if kind == "answer":
            cache.put(keys[-1], ("A", "2020-03-01"), "q", value[0], value[1],
                      [("A", "2020-03-01", 0)])
        elif kind == "row":
            cache.put_row(keys[-1], ("A", "2020-03-01"), value[0])
        else:
            cache.put_vector(keys[-1], np.array(value[0]))
    cache.flush()
    return keys


def held(cache, kind, key):
    """What ``cache`` holds under ``key`` for a record of ``kind``, comparable by ==."""
    if kind == "vector":
        vector = cache.get_vector(key)
        return None if vector is None else vector.tobytes()
    return cache.get(key) if kind == "answer" else cache.get_row(key)


@SETTINGS
@given(records=st.lists(answer_records | row_records | vector_records, min_size=1,
                               max_size=5), data=st.data())
def test_cache_cut_at_any_byte_keeps_every_whole_line(cache_path, records, data):
    keys = cache_records(cache_path, records)
    whole = cache_path.read_bytes()
    full = ScoreCache(cache_path)
    cut = data.draw(st.integers(0, len(whole)))
    cache_path.write_bytes(whole[:cut])
    kept = whole[:cut].count(b"\n")
    warnings = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = warnings.append
    logging.getLogger("filingsignal").addHandler(handler)
    try:
        cache = ScoreCache(cache_path)
    finally:
        logging.getLogger("filingsignal").removeHandler(handler)
    for i, ((kind, *_), key) in enumerate(zip(records, keys)):
        assert held(cache, kind, key) == (held(full, kind, key) if i < kept else None)
    assert cache_path.read_bytes() == whole[:whole.rfind(b"\n", 0, cut) + 1]
    assert len(warnings) == (not whole[:cut].endswith(b"\n") and cut > 0)


# --- regression.nnls -------------------------------------------------------------

def standardized(A):
    """``A``'s columns of nonzero variance, centered and scaled as ``fit_nnls`` does."""
    A = A - A.mean(axis=0)
    scale = A.std(axis=0)
    return A[:, scale > 0] / scale[scale > 0]


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["gaussian", "scores", "collinear"]),
       n=st.integers(2, 30), p=st.integers(1, 20))
def test_nnls_meets_kkt_and_scipys_objective(seed, kind, n, p):
    rng = np.random.default_rng(seed)
    if kind == "gaussian":
        A = rng.standard_normal((n, p))
    elif kind == "scores":  # integer scores 0-4, with many ties
        A = rng.integers(0, 5, (n, p)).astype(float)
    else:
        A = rng.standard_normal((n, 1)) + 1e-6 * rng.standard_normal((n, p))
    A = standardized(A)
    if not A.size:
        return
    b = rng.standard_normal(n)
    b -= b.mean()
    x = nnls(A, b)
    w = A.T @ (b - A @ x)  # the dual: minus half the objective's gradient
    assert x.min() >= 0.0
    assert np.all(np.abs(w[x > 0]) <= 1e-8) and np.all(w[x == 0] <= 1e-8)
    objective, oracle = (float(np.sum((A @ v - b) ** 2)) for v in (x, scipy_nnls(A, b)[0]))
    # Relative to scipy's, or to a millionth of |b|^2 when b lies (nearly) in the cone.
    assert abs(objective - oracle) <= 1e-8 * max(oracle, 1e-6 * float(b @ b))


# --- chunk_filing ------------------------------------------------------------------


@SETTINGS
@given(text=st.text("ab \n", min_size=1, max_size=200), chunk_chars=st.integers(1, 40),
       data=st.data())
def test_chunks_overlap_exactly_and_cover_the_text(text, chunk_chars, data):
    overlap = data.draw(st.integers(0, chunk_chars - 1))
    filing = Filing("A", "0000000001", "ACC-1", date(2020, 3, 1), "", text)
    chunks = chunk_filing(filing, chunk_chars, overlap)
    assert [c.chunk_index for c in chunks] == list(range(len(chunks)))
    assert chunks[0].char_span[0] == 0 and chunks[-1].char_span[1] == len(text)
    for chunk in chunks:
        start, end = chunk.char_span
        assert chunk.filing_key == filing.key and chunk.text == text[start:end]
        assert 0 < end - start <= chunk_chars
        assert chunk.sha256 == hashlib.sha256(chunk.text.encode("utf-8")).hexdigest()
    for prev, cur in zip(chunks, chunks[1:]):
        assert cur.char_span[0] == prev.char_span[1] - overlap > prev.char_span[0]
    assert chunks[0].text + "".join(c.text[overlap:] for c in chunks[1:]) == text


# --- run_backtest picks ---------------------------------------------------------------

predictions = st.integers(0, 4).map(float) | st.floats(-1e6, 1e6)


@SETTINGS
@given(years=st.lists(st.lists(st.tuples(predictions, st.booleans()), max_size=12),
                      min_size=1, max_size=3),
       k=st.integers(1, 14), data=st.data())
def test_picks_equal_a_sort_oracle(years, k, data):
    """Each test year's picks are its k highest predictions, ties by ticker,
    among the rows with a return record, whatever the rows' order; a year
    with none is left out."""
    features, returns, expected = [], [], []
    for year, rows in enumerate(years, 2018):
        tickers = [(f"T{i:02d}", score, priced) for i, (score, priced) in enumerate(rows)]
        features += [feature_row(t, year, score) for t, score, _ in tickers]
        returns += [return_record(t, year, score / 8) for t, score, priced in tickers if priced]
        top = sorted(((-score, t) for t, score, priced in tickers if priced))[:k]
        if top:
            expected.append((year, [Pick(t, -negated) for negated, t in top],
                             float(np.mean([-negated / 8 for negated, _ in top]))))
    report = run_backtest(rank(data.draw(st.permutations(features)), returns,
                               SplitSpec((2015, 2017), (2018, 2020))), k, "12m")
    assert [(y.year, y.picks, y.mean_strategy_return) for y in report.per_year] == expected
