"""The ``attribute`` row writer against a per-value ``"%.10g"`` writer,
on drawn values and sample ids."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from deltalift.cli import _attribute_rows, _feature_prefixes

from tsv_oracle import attribute_rows

# the cells the writer spells out, their neighbours, and the far ends
SPECIAL = [0.0, -0.0, 1.0, -1.0, np.nextafter(1.0, np.inf), np.nextafter(1.0, -np.inf),
           5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 1.7976931348623157e308,
           -1e300, 123456789012.5, 1.0 / 3, np.nan, np.inf, -np.inf]
CELLS = st.one_of(st.sampled_from(SPECIAL), st.floats(width=64))
SIDS = st.one_of(st.sampled_from(["%", "%s", "{sid}", "100%-sure", "%%{sid}%s%d"]),
                 st.text(max_size=12))


@given(data=st.data())
def test_rows_equal_a_per_value_writer(data):
    n = data.draw(st.integers(1, 4))
    n_features = data.draw(st.integers(0, 12))
    sids = data.draw(st.lists(SIDS, min_size=n, max_size=n))
    values = data.draw(arrays(np.float64, (n, n_features, 3), elements=CELLS))
    rows = _attribute_rows(sids, values, _feature_prefixes(n_features))
    assert rows == [attribute_rows(sid, v) for sid, v in zip(sids, values)]
