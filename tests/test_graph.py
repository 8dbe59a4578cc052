"""Graph construction, validation, ordering and forward semantics."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from deltalift.graph import (
    Graph,
    GraphBuilder,
    GraphError,
    NodeSpec,
    conv1d_windows,
    forward,
    n_parameters,
    topo_order,
    validate_graph,
)

from graphgen import random_graph_case


def chain_graph():
    b = GraphBuilder()
    x = b.input("a", (3,))
    h = b.affine("b", x, np.eye(3), np.zeros(3))
    b.relu("c", h)
    return b.build(outputs=["c"])


class TestValidation:
    def test_minimal_chain_is_ok(self):
        report = validate_graph(chain_graph())
        assert report.ok
        assert report.violations == []

    def test_affine_shape_mismatch_reported(self):
        nodes = [
            NodeSpec("x", "input", (), (5,), {"shape": (5,)}),
            NodeSpec(
                "h",
                "affine",
                ("x",),
                (3,),
                {"weights": np.ones((3, 4)), "bias": np.zeros(3)},
            ),
        ]
        report = validate_graph(Graph(nodes, outputs=["h"]))
        assert not report.ok
        assert any("shape" in v and "'h'" in v for v in report.violations)

    def test_cycle_reported(self):
        nodes = [
            NodeSpec("a", "relu", ("b",), (2,)),
            NodeSpec("b", "relu", ("a",), (2,)),
        ]
        report = validate_graph(Graph(nodes, outputs=["a"]))
        assert not report.ok
        assert any(v.startswith("cycle") for v in report.violations)

    def test_dangling_reference_reported(self):
        nodes = [NodeSpec("a", "relu", ("ghost",), (2,))]
        report = validate_graph(Graph(nodes, outputs=["a"]))
        assert any("dangling" in v for v in report.violations)

    def test_unknown_kind_rejected_at_construction(self):
        with pytest.raises(GraphError, match="warp"):
            NodeSpec("a", "warp", (), (2,))

    def test_validated_graphs_never_fail_forward(self, rng):
        # shape safety: anything that validates must evaluate
        for _ in range(30):
            case = random_graph_case(rng)
            assert validate_graph(case.graph).ok
            forward(case.graph, case.inputs)


class TestTopoOrder:
    def test_chain(self):
        assert topo_order(chain_graph()) == ["a", "b", "c"]

    def test_diamond_endpoints(self):
        b = GraphBuilder()
        a = b.input("a", (2,))
        left = b.relu("b", a)
        right = b.tanh("c", a)
        b.product("d", left, right)
        order = topo_order(b.build(outputs=["d"]))
        assert order[0] == "a" and order[-1] == "d"

    def test_repeated_calls_identical(self, rng):
        case = random_graph_case(rng)
        first = topo_order(case.graph)
        for _ in range(3):
            assert topo_order(case.graph) == first

    def test_cycle_raises(self):
        nodes = [
            NodeSpec("a", "relu", ("b",), (2,)),
            NodeSpec("b", "relu", ("a",), (2,)),
        ]
        with pytest.raises(GraphError, match="cycle"):
            topo_order(Graph(nodes, outputs=["a"]))


class TestForward:
    def test_affine_hand_arithmetic(self):
        b = GraphBuilder()
        x = b.input("x", (2,))
        b.affine("y", x, [[1.0, 2.0], [3.0, 4.0]], [0.0, 0.0])
        g = b.build(outputs=["y"])
        out = forward(g, {"x": np.array([1.0, 1.0])})["y"]
        assert_allclose(out, [3.0, 7.0])

    def test_softmax_symmetry(self):
        b = GraphBuilder()
        x = b.input("x", (2,))
        b.softmax("s", x)
        g = b.build(outputs=["s"])
        assert_allclose(forward(g, {"x": np.zeros(2)})["s"], [0.5, 0.5])

    def test_softmax_sums_to_one(self, rng):
        b = GraphBuilder()
        x = b.input("x", (7,))
        b.softmax("s", x)
        g = b.build(outputs=["s"])
        for _ in range(50):
            out = forward(g, {"x": rng.normal(size=7) * 20})["s"]
            assert abs(out.sum() - 1.0) < 1e-12

    def test_elementwise_kinds(self, rng):
        b = GraphBuilder()
        x = b.input("x", (4,))
        b.relu("r", x)
        b.prelu("p", x, [0.1, 0.2, 0.3, 0.4])
        b.sigmoid("s", x)
        b.tanh("t", x)
        g = b.build(outputs=["r", "p", "s", "t"])
        v = np.array([-2.0, -0.5, 0.5, 2.0])
        tr = forward(g, {"x": v})
        assert_allclose(tr["r"], np.maximum(v, 0))
        assert_allclose(tr["p"], np.where(v > 0, v, v * [0.1, 0.2, 0.3, 0.4]))
        assert_allclose(tr["s"], 1 / (1 + np.exp(-v)))
        assert_allclose(tr["t"], np.tanh(v))

    def test_maxout_is_max_of_affine_pieces(self, rng):
        w = rng.normal(size=(3, 4, 5))
        bias = rng.normal(size=(3, 4))
        b = GraphBuilder()
        x = b.input("x", (5,))
        b.maxout("m", x, w, bias)
        g = b.build(outputs=["m"])
        v = rng.normal(size=5)
        expected = (w @ v + bias).max(axis=0)
        assert_allclose(forward(g, {"x": v})["m"], expected)

    def test_maxpool_matches_window_scan(self, rng):
        # oracle: direct scan over every window
        for _ in range(25):
            length = int(rng.integers(4, 12))
            channels = int(rng.integers(1, 4))
            width = int(rng.integers(2, length + 1))
            stride = int(rng.integers(1, width + 1))
            b = GraphBuilder()
            x = b.input("x", (length, channels))
            b.maxpool1d("p", x, width, stride)
            g = b.build(outputs=["p"])
            v = rng.normal(size=(length, channels))
            out = forward(g, {"x": v})["p"]
            n_win = (length - width) // stride + 1
            for w_i in range(n_win):
                for c in range(channels):
                    window = v[w_i * stride:w_i * stride + width, c]
                    assert out[w_i, c] == window.max()

    def test_conv1d_matches_direct_sum(self, rng):
        filters = rng.normal(size=(2, 3, 2))
        bias = rng.normal(size=2)
        b = GraphBuilder()
        x = b.input("x", (6, 2))
        b.conv1d("c", x, filters, bias, stride=2)
        g = b.build(outputs=["c"])
        v = rng.normal(size=(6, 2))
        out = forward(g, {"x": v})["c"]
        assert out.shape == (2, 2)
        for p in range(2):
            for f in range(2):
                expected = (v[2 * p:2 * p + 3, :] * filters[f]).sum() + bias[f]
                assert_allclose(out[p, f], expected)

    def test_forward_deterministic_bitwise(self, rng):
        case = random_graph_case(rng)
        t1 = forward(case.graph, case.inputs)
        t2 = forward(case.graph, case.inputs)
        for nid in t1.activations:
            assert np.array_equal(t1[nid], t2[nid])

    def test_missing_input_rejected(self):
        g = chain_graph()
        with pytest.raises(GraphError, match="missing tensor"):
            forward(g, {})

    def test_non_finite_input_rejected(self):
        g = chain_graph()
        with pytest.raises(ValueError, match="non-finite"):
            forward(g, {"a": np.array([1.0, np.nan, 0.0])})

    def test_saturated_relu_demo_outputs(self):
        # y = relu(x1 + 2 x2 + 2) feeding out = 0.1 + 0.2 y: the relu is
        # active at the origin but shuts off at (-1, -1)
        b = GraphBuilder()
        x = b.input("x", (2,))
        pre = b.affine("pre", x, [[1.0, 2.0]], [2.0])
        y = b.relu("y", pre)
        b.affine("out", y, [[0.2]], [0.1])
        g = b.build(outputs=["out"])
        assert_allclose(forward(g, {"x": np.zeros(2)})["out"], [0.5])
        assert_allclose(forward(g, {"x": np.array([-1.0, -1.0])})["out"], [0.1])


class TestReplaceParams:
    def test_shape_change_rejected(self):
        g = chain_graph()
        with pytest.raises(GraphError, match="shape"):
            g.replace_params({"b": {"weights": np.eye(4)}})
        with pytest.raises(GraphError, match="no parameter array"):
            g.replace_params({"b": {"slopes": np.ones(3)}})

    def test_non_finite_values_rejected(self):
        g = chain_graph()
        with pytest.raises(ValueError, match="non-finite"):
            g.replace_params({"b": {"bias": np.array([0.0, np.inf, 0.0])}})

    def test_new_graph_is_not_validated_again(self, monkeypatch):
        import deltalift.graph as graph_module

        g = chain_graph()
        calls = []
        monkeypatch.setattr(graph_module, "validate_graph",
                            lambda graph: calls.append(graph))
        swapped = g.replace_params({"b": {"weights": 2.0 * np.eye(3)}})
        out = forward(swapped, {"a": np.array([1.0, -1.0, 2.0])})["c"]
        assert_allclose(out, [2.0, 0.0, 4.0])
        assert topo_order(swapped) == topo_order(g)
        assert calls == []


def test_parameter_count_small_net():
    b = GraphBuilder()
    x = b.input("x", (3,))
    h = b.affine("h", x, np.ones((4, 3)), np.zeros(4))
    b.prelu("p", h, np.full(4, 0.1))
    g = b.build(outputs=["p"])
    assert n_parameters(g) == 4 * 3 + 4 + 4


def test_windows_helper_shapes(rng):
    x = rng.normal(size=(9, 3))
    win = conv1d_windows(x, 4, 2)
    assert win.shape == (3, 3, 4)
    assert_allclose(win[1, :, :], x[2:6, :].T)
