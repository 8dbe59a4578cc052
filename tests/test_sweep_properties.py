"""Property test: for every rule table of the sweep, a batched call equals
the per-sample calls stacked, within 1e-12 of each array's largest entry.

The gradient and DeepLIFT sweeps get the stack of the per-sample forward
traces as their batched trace, so the comparison isolates the sweep.  A
batched forward sums matrix products in another order, and DeepLIFT's
delta ratios can magnify that round-off past 1e-12 (graphgen seed
225095, batch 2: 1.6e-12 at the input); batched against per-sample
forwards is checked in ``test_batched.py``.  lrp_epsilon runs its own
forward.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from deltalift.graph import ForwardTrace, forward

from graphgen import random_graph_case
from test_sweep import sweep_values

RTOL = 1e-12


@settings(max_examples=60, deadline=None)
@given(method=st.sampled_from(["gradient", "deeplift", "lrp"]),
       seed=st.integers(0, 2**32 - 1), batch=st.integers(1, 5))
def test_batched_sweep_equals_stacked_per_sample_sweeps(method, seed, batch):
    rng = np.random.default_rng(seed)
    case = random_graph_case(rng, piecewise_linear_only=method == "lrp")
    graph = case.graph
    xs = rng.normal(size=(batch,) + graph.nodes["x"].output_shape)
    traces = [forward(graph, {"x": x}) for x in xs]
    stacked = ForwardTrace({nid: np.stack([t[nid] for t in traces]) for nid in graph.nodes},
                           graph, batch)
    batched = sweep_values(method, graph, {"x": xs}, case.reference, case.target, stacked)
    singles = [sweep_values(method, graph, {"x": x}, case.reference, case.target, t)
               for x, t in zip(xs, traces)]
    for nid in graph.nodes:
        expected = np.stack([s[nid] for s in singles])
        assert batched[nid].shape == expected.shape
        scale = max(np.max(np.abs(expected)), 1e-300)
        assert np.max(np.abs(batched[nid] - expected)) <= RTOL * scale, nid
