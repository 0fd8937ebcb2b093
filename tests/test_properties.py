"""Property tests of the small kernels whose output decides artifact bytes,
each against an oracle or an invariant. The examples are derandomized, so
every run draws the same ones."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import rankdata

from filingsignal.corpus import read_records, write_records
from filingsignal.labeling import LabeledExample, average_ranks
from filingsignal.market_data import FLAG_DELISTED, FLAG_OPEN_WINDOW, ReturnRecord

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
