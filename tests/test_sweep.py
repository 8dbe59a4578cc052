"""The one reverse sweep (``autodiff.vjp_sweep``) under its three rule
tables: gradients, DeepLIFT multipliers and epsilon-LRP relevances.

Buffers are created lazily, so these tests pin down what callers may
rely on: every node id has an entry, nodes the sweep never reached read
as zeros, and a node reached only by all-zero values is skipped, as if
unreached, rather than failing in a rule that would raise.
"""

import math

import numpy as np
import pytest

from deltalift.autodiff import backward, resolve_target, target_seed, vjp_sweep
from deltalift.baselines import lrp_epsilon
from deltalift.engine import (
    LRP_EPSILON,
    AttributionError,
    _lrp_rules,
    compute_reference,
    deeplift,
    propagate_multipliers,
)
from deltalift.graph import (
    DenseOnRead,
    Graph,
    GraphBuilder,
    NodeSpec,
    forward,
    stable_sigmoid,
)

from graphgen import ancestors, random_graph_case


def softmax_then_affine(weights):
    b = GraphBuilder()
    x = b.input("x", (3,))
    s = b.softmax("s", b.affine("a", x, np.eye(3) + 0.5, np.zeros(3)))
    b.affine("o", s, weights, np.array([0.4]))
    return b.build(outputs=["o"])


def tanh_then_affine(weights):
    b = GraphBuilder()
    x = b.input("x", (3,))
    t = b.tanh("t", b.affine("h", x, np.eye(3) - 0.25, np.ones(3)))
    b.affine("o", t, weights, np.array([0.4]))
    return b.build(outputs=["o"])


class TestAllZeroSkip:
    x = np.array([0.3, -1.2, 2.0])

    def test_deeplift_zero_multiplier_does_not_cross_softmax(self):
        g = softmax_then_affine(np.zeros((1, 3)))
        report = deeplift(g, {"x": self.x}, target=("o", 0))
        assert np.array_equal(report.contributions["x"], np.zeros(3))
        assert np.array_equal(report.multipliers["x"], np.zeros(3))

    def test_deeplift_nonzero_multiplier_at_softmax_raises(self):
        g = softmax_then_affine(np.array([[0.0, 1.0, 0.0]]))
        with pytest.raises(AttributionError, match="cannot cross softmax"):
            deeplift(g, {"x": self.x}, target=("o", 0))

    def test_lrp_zero_relevance_does_not_reach_tanh(self):
        g = tanh_then_affine(np.zeros((1, 3)))
        rel = lrp_epsilon(g, {"x": self.x}, target=("o", 0))
        assert rel["o"][0] == pytest.approx(0.4)
        assert np.array_equal(rel["x"], np.zeros(3))
        assert set(rel.bias_relevance) == {"o"}

    def test_lrp_nonzero_relevance_at_tanh_raises(self):
        g = tanh_then_affine(np.array([[0.0, 1.0, 0.0]]))
        with pytest.raises(AttributionError, match="tanh"):
            lrp_epsilon(g, {"x": self.x}, target=("o", 0))


def with_dead_branch(graph: Graph, rng) -> Graph:
    """``graph`` plus an affine -> tanh branch off input "x" that no
    target depends on (tanh: LRP would raise if relevance reached it)."""
    in_dim = math.prod(graph.nodes["x"].output_shape)
    dead = [
        NodeSpec("dead_fc", "affine", ("x",), (3,),
                 {"weights": rng.normal(size=(3, in_dim)), "bias": rng.normal(size=3)}),
        NodeSpec("dead_act", "tanh", ("dead_fc",), (3,)),
    ]
    return Graph(list(graph.nodes.values()) + dead, graph.outputs + ("dead_act",))


def sweep_values(method, graph, reference, target, trace):
    """Every node's value from one sweep of ``method`` over ``trace``, a
    forward trace of every node."""
    if method == "gradient":
        return backward(graph, trace, target)
    if method == "deeplift":
        return propagate_multipliers(graph, trace, compute_reference(graph, reference),
                                     target)
    seed = target_seed(graph.nodes[target[0]].output_shape,
                       resolve_target(graph, target, trace.batch)[1])
    return vjp_sweep(graph, trace, {target[0]: seed},
                     rules=_lrp_rules(LRP_EPSILON, DenseOnRead()))[0]


@pytest.mark.parametrize("method", ["gradient", "deeplift", "lrp"])
def test_every_node_has_an_entry_and_unreached_nodes_read_zero(method):
    rng = np.random.default_rng(808)
    for _ in range(25):
        case = random_graph_case(rng, piecewise_linear_only=method == "lrp")
        graph = with_dead_branch(case.graph, rng)
        reached = ancestors(graph, case.target[0])
        assert {"dead_fc", "dead_act"}.isdisjoint(reached)
        shape = graph.nodes["x"].output_shape
        for inputs in ({"x": case.inputs["x"]}, {"x": rng.normal(size=(3,) + shape)}):
            trace = forward(graph, inputs)
            values = sweep_values(method, graph, case.reference, case.target, trace)
            assert set(values) == set(graph.nodes)
            for nid in graph.nodes:
                assert values[nid].shape == trace[nid].shape
                if nid not in reached:
                    assert np.array_equal(values[nid], np.zeros(trace[nid].shape)), nid
            if method == "lrp":
                # lrp_epsilon's relevances: activation times that sweep's
                # multipliers at every node, zero off the target's ancestors
                relevances = lrp_epsilon(graph, inputs, target=case.target).relevances
                assert set(relevances) == set(graph.nodes)
                for nid in graph.nodes:
                    assert np.array_equal(relevances[nid], trace[nid] * values[nid]), nid


def masked_sigmoid(x):
    """The two-branch form ``stable_sigmoid`` replaced: the oracle."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_stable_sigmoid_bits_match_masked_formula():
    edges = np.array([0.0, -0.0, 1e-300, -1e-300, 708.0, -708.0, 745.0, -745.0,
                      1000.0, -1000.0])
    noise = np.random.default_rng(5).normal(scale=40.0, size=10_000)
    for x in (edges, noise, noise.reshape(100, 100)):  # one sample and a batch
        got, want = stable_sigmoid(x), masked_sigmoid(x)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    for v in edges:  # each edge value alone, as a one-element sample
        one = np.array([v])
        assert stable_sigmoid(one).view(np.uint64) == masked_sigmoid(one).view(np.uint64)
