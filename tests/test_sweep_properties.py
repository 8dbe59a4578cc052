"""Property tests of the sweep's rule tables.

For every rule table, a batched call equals the per-sample calls
stacked, within 1e-12 of each array's largest entry.

Every sweep gets the stack of the per-sample forward traces as its
batched trace, so the comparison isolates the sweep.  A batched forward
sums matrix products in another order, and DeepLIFT's delta ratios can
magnify that round-off past 1e-12 (graphgen seed 225095, batch 2:
1.6e-12 at the input); batched against per-sample forwards is checked
in ``test_batched.py``.  The LRP case also compares ``lrp_epsilon``,
which runs its own forward, batched against per-sample calls.

epsilon-LRP telescopes at every epsilon: the input relevance plus every
filtering node's bias share (which holds its stabilizer term) is the
target's activation.  It does so with relu or prelu rectifiers, both
positively homogeneous (f(x) = f'(x) x).
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from deltalift.baselines import lrp_epsilon
from deltalift.graph import ForwardTrace, Graph, NodeSpec, forward

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
    batched = sweep_values(method, graph, case.reference, case.target, stacked)
    singles = [sweep_values(method, graph, case.reference, case.target, t) for t in traces]
    for nid in graph.nodes:
        expected = np.stack([s[nid] for s in singles])
        assert batched[nid].shape == expected.shape
        scale = max(np.max(np.abs(expected)), 1e-300)
        assert np.max(np.abs(batched[nid] - expected)) <= RTOL * scale, nid
    if method == "lrp":
        # lrp_epsilon's own batched forward against its per-sample calls
        called = lrp_epsilon(graph, {"x": xs}, target=case.target)
        one_by_one = [lrp_epsilon(graph, {"x": x}, target=case.target) for x in xs]
        for nid in graph.nodes:
            expected = np.stack([r[nid] for r in one_by_one])
            assert called[nid].shape == expected.shape
            scale = max(np.max(np.abs(expected)), 1e-300)
            assert np.max(np.abs(called[nid] - expected)) <= RTOL * scale, nid


def prelu_twin(graph, rng):
    """``graph`` with each relu a prelu of random per-channel slopes,
    negative and above 1 included."""
    nodes = [NodeSpec(n.id, "prelu", n.inputs, n.output_shape,
                      {"slopes": rng.uniform(-0.5, 1.5, size=n.output_shape[-1])})
             if n.kind == "relu" else n for n in graph.nodes.values()]
    return Graph(nodes, graph.outputs, graph.constraint_groups)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), batch=st.sampled_from([1, 5]),
       epsilon=st.sampled_from([1e-9, 1e-2, 1.0]),
       rectifier=st.sampled_from(["relu", "prelu"]))
def test_lrp_relevance_telescopes_to_the_target_activation(seed, batch, epsilon, rectifier):
    rng = np.random.default_rng(seed)
    case = random_graph_case(rng, piecewise_linear_only=True)
    xs = rng.normal(size=(batch,) + case.graph.nodes["x"].output_shape)
    graph = case.graph
    if rectifier == "prelu":
        graph = prelu_twin(graph, rng)
        assert "relu" not in {node.kind for node in graph.nodes.values()}
    rel = lrp_epsilon(graph, {"x": xs}, target=case.target, epsilon=epsilon)
    inputs = rel["x"].reshape(batch, -1)
    total = inputs.sum(axis=1) + sum(rel.bias_relevance.values())
    # round-off of a sum is relative to the magnitudes it adds up
    scale = (np.abs(rel.target_activation) + np.abs(inputs).sum(axis=1)
             + sum(np.abs(v) for v in rel.bias_relevance.values()))
    assert np.all(np.abs(total - rel.target_activation) <= 1e-12 * scale)
