"""Property test: save_model -> load_model is bit-exact for any finite weights."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from deltalift.serialize import load_model, save_model

from graphgen import random_graph_case
from test_serialize import assert_bit_identical

FINITE = st.floats(allow_nan=False, allow_infinity=False, width=64)


@st.composite
def graphs_with_arbitrary_weights(draw):
    """A random graphgen structure whose every parameter array is redrawn
    from all finite float64 values: signed zeros, subnormals, extremes."""
    seed = draw(st.integers(0, 2**32 - 1))
    graph = random_graph_case(np.random.default_rng(seed)).graph
    updates = {}
    for node in graph.nodes.values():
        for key, value in node.params.items():
            if isinstance(value, np.ndarray):
                updates.setdefault(node.id, {})[key] = draw(
                    arrays(np.float64, value.shape, elements=FINITE)
                )
    return graph.replace_params(updates)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(graph=graphs_with_arbitrary_weights())
def test_save_load_bit_exact(tmp_path, graph):
    path = tmp_path / "model.json"
    save_model(graph, path)
    assert_bit_identical(graph, load_model(path))
