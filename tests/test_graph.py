"""Graph construction, validation, ordering and forward semantics."""

import numpy as np
import pytest
from numpy.lib.stride_tricks import as_strided
from numpy.testing import assert_allclose, assert_array_equal

from deltalift.genomics import build_genomics_cnn
from deltalift.graph import (
    IM2COL_BLOCK_ROWS,
    ConstraintGroup,
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

    @pytest.mark.parametrize(
        "node, message",
        [
            (NodeSpec("r", "relu", ("x", "x"), (2,)), "relu node reads 1 input, not 2"),
            (NodeSpec("r", "relu", (), (2,)), "relu node reads 1 input, not 0"),
            (NodeSpec("r", "product", ("x",), (2,)), "product node reads 2 inputs, not 1"),
            (NodeSpec("r", "input", ("x",), (2,), {"shape": (2,)}),
             "input node reads 0 inputs, not 1"),
        ],
        ids=["relu-two", "relu-none", "product-one", "input-with-input"],
    )
    def test_arity_violation_names_the_node(self, node, message):
        x = NodeSpec("x", "input", (), (2,), {"shape": (2,)})
        report = validate_graph(Graph([x, node], outputs=["r"]))
        assert report.violations == [f"shape: node 'r': {message}"]

    @pytest.mark.parametrize(
        "node, message",
        [
            (NodeSpec("r", "relu", ("x",), (2,), {"slopes": [0.1]}),
             "relu node takes no parameter 'slopes'"),
            (NodeSpec("r", "softmax", ("x",), (2,), {"shape": (2,)}),
             "softmax node takes no parameter 'shape'"),
            (NodeSpec("r", "affine", ("x",), (2,),
                      {"weights": np.eye(2), "bias": np.zeros(2), "stride": 1}),
             "affine node takes no parameter 'stride'"),
        ],
        ids=["relu-slopes", "softmax-shape", "affine-stride"],
    )
    def test_a_parameter_outside_the_kind_names_node_and_key(self, node, message):
        # a prelu edited to relu with its slopes left ran as a relu
        x = NodeSpec("x", "input", (), (2,), {"shape": (2,)})
        report = validate_graph(Graph([x, node], outputs=["r"]))
        assert report.violations == [f"shape: node 'r': {message}"]

    def test_node_reading_a_failed_node_is_skipped(self):
        # the relu's input fails its own rules, so the relu is not checked;
        # reading the input's shape raised KeyError
        nodes = [NodeSpec("x", "input", (), (2,), {"shape": (-2,)}),
                 NodeSpec("r", "relu", ("x",), (2,))]
        assert validate_graph(Graph(nodes, outputs=["r"])).violations == [
            "shape: node 'x': input 'shape' must hold integers >= 1, got (-2,)"]

    @pytest.mark.parametrize("bad", [2.5, 2.0, np.float64(2.0), True])
    def test_window_geometry_must_be_an_integer(self, bad):
        # 2.5 was truncated to 2, and True read as 1
        b = GraphBuilder()
        x = b.input("x", (6, 2))
        for kind_and_key, add in [
            ("maxpool1d 'width'", lambda: b.maxpool1d("p", x, bad, 1)),
            ("maxpool1d 'stride'", lambda: b.maxpool1d("p", x, 2, bad)),
            ("conv1d 'stride'", lambda: b.conv1d("c", x, np.ones((1, 2, 2)), [0.0], bad)),
            ("input 'shape'", lambda: b.input("y", (6, bad))),
        ]:
            with pytest.raises(GraphError, match=f"^{kind_and_key} must hold integers >= 1"):
                add()

    def test_numpy_integer_geometry_is_an_int(self):
        b = GraphBuilder()
        x = b.input("x", np.array([6, 2]))
        p = b.maxpool1d("p", x, np.int64(2), np.int32(2))
        node = b.build(outputs=[p]).nodes["p"]
        assert node.output_shape == (3, 2)
        assert [type(node.params[k]) for k in ("width", "stride")] == [int, int]

    def test_duplicate_node_id_rejected_at_construction(self):
        nodes = [NodeSpec("a", "input", (), (2,)), NodeSpec("a", "relu", ("a",), (2,))]
        with pytest.raises(GraphError, match="^duplicate node id 'a'$"):
            Graph(nodes, outputs=["a"])

    def test_unknown_kind_rejected_at_construction(self):
        with pytest.raises(GraphError, match="warp"):
            NodeSpec("a", "warp", (), (2,))

    def test_validated_graphs_never_fail_forward(self, rng):
        # shape safety: anything that validates must evaluate
        for _ in range(30):
            case = random_graph_case(rng)
            assert validate_graph(case.graph).ok
            forward(case.graph, case.inputs)

    @pytest.mark.parametrize(
        "bad, message",
        [
            (ConstraintGroup("fc1", (0,), 1.0),
             "constraint: group 200 targets 'fc1', which is not an input node"),
            (ConstraintGroup("ghost", (0,), 1.0),
             "constraint: group 200 targets 'ghost', which is not an input node"),
            (ConstraintGroup("seq", (), 1.0), "constraint: group 200 is empty"),
            (ConstraintGroup("seq", (0, 800), 1.0),
             "constraint: group 200 has indices outside [0, 800)"),
            (ConstraintGroup("seq", (-1, 3), 1.0),
             "constraint: group 200 has indices outside [0, 800)"),
            (ConstraintGroup("seq", (0, 1), float("nan")),
             "constraint: group 200 has a non-finite total"),
            (ConstraintGroup("seq", (0, 1), -float("inf")),
             "constraint: group 200 has a non-finite total"),
            # normalization would shift weight twice onto index 0 and change
            # outputs on inputs that satisfy the group
            (ConstraintGroup("seq", (0, 0, 1), 1.0), "constraint: group 200 repeats index 0"),
            (ConstraintGroup("seq", (3, 5, 7, 5, 3), 1.0),
             "constraint: group 200 repeats index 5"),
        ],
    )
    def test_constraint_group_violation_reported(self, bad, message):
        # the paper CNN's 200 one-hot row groups are valid; only the
        # appended group is reported
        cnn = build_genomics_cnn(seed=0)
        assert len(cnn.constraint_groups) == 200
        graph = Graph(cnn.nodes.values(), cnn.outputs, cnn.constraint_groups + (bad,))
        assert validate_graph(graph).violations == [message]


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

    @pytest.mark.parametrize("slopes", [[0.25, 0.5, 1.5], [-0.5, -2.0, 0.0]])
    def test_prelu_equals_where_form(self, rng, slopes):
        b = GraphBuilder()
        x = b.input("x", (7, 3))
        b.prelu("p", x, slopes)
        g = b.build(outputs=["p"])
        v = rng.normal(size=(2, 7, 3))
        v[0, :2] = 0.0
        v[1, :2] = -0.0
        out = forward(g, {"x": v})["p"]
        slopes = np.asarray(slopes)
        # equal in value to the where form (-0.0 == 0.0 here), and bit for
        # bit the max/min form, which also fixes the sign of a zero result
        assert_array_equal(out, np.where(v > 0, v, slopes * v))
        expected = np.maximum(v, 0.0) + slopes * np.minimum(v, 0.0)
        assert out.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("in_shape, slopes", [
        ((186, 20), np.linspace(-0.5, 1.5, 20)),  # per channel, the paper CNN's shape
        ((186, 20), [0.25]),  # one shared slope
        ((9,), np.linspace(0.1, 0.9, 9)),  # a vector: one slope per unit
        ((9,), [-0.3]),
    ])
    @pytest.mark.parametrize("batch", [None, 1, 32])
    def test_prelu_sample_slopes_match_per_channel_product(self, rng, in_shape, slopes,
                                                           batch):
        b = GraphBuilder()
        b.prelu("p", b.input("x", in_shape), slopes)
        g = b.build(outputs=["p"])
        v = rng.normal(size=in_shape if batch is None else (batch,) + in_shape)
        v.flat[:3] = [0.0, -0.0, 0.0]
        # the in-place form the sample-shaped slopes replaced
        expected = np.minimum(v, 0.0)
        expected *= np.asarray(slopes)
        expected += np.maximum(v, 0.0)
        out = forward(g, {"x": v})["p"]
        assert_array_equal(out, expected)
        assert out.tobytes() == expected.tobytes()
        assert g.nodes["p"].sample_slopes.shape == in_shape

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
            batch = rng.normal(size=(3, length, channels))
            outs = [(v, forward(g, {"x": v})["p"])]
            outs += zip(batch, forward(g, {"x": batch})["p"])
            n_win = (length - width) // stride + 1
            for sample, out in outs:
                for w_i in range(n_win):
                    for c in range(channels):
                        window = sample[w_i * stride:w_i * stride + width, c]
                        assert out[w_i, c] == window.max()

    def test_conv1d_matches_direct_sum(self, rng):
        filters = rng.normal(size=(2, 3, 2))
        bias = rng.normal(size=2)
        b = GraphBuilder()
        x = b.input("x", (6, 2))
        b.conv1d("c", x, filters, bias, stride=2)
        g = b.build(outputs=["c"])
        v = rng.normal(size=(6, 2))
        batch = rng.normal(size=(4, 6, 2))
        outs = [(v, forward(g, {"x": v})["c"])]
        outs += zip(batch, forward(g, {"x": batch})["c"])
        for sample, out in outs:
            assert out.shape == (2, 2)
            for p in range(2):
                for f in range(2):
                    window = sample[2 * p:2 * p + 3, :]
                    assert_allclose(out[p, f], (window * filters[f]).sum() + bias[f])

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


@pytest.mark.parametrize("shape, width, stride, axis", [
    ((9, 3), 4, 2, 0), ((9,), 3, 1, 0), ((2, 9, 3), 4, 2, 1), ((3, 10, 2), 3, 3, 1),
    ((0, 9, 3), 4, 2, 1),
])
def test_windows_match_as_strided_reference(rng, shape, width, stride, axis):
    x = rng.normal(size=shape)
    n_out = (shape[axis] - width) // stride + 1
    step = x.strides[axis]
    expected = as_strided(x, shape[:axis] + (n_out, width) + shape[axis + 1:],
                          x.strides[:axis] + (stride * step, step) + x.strides[axis + 1:],
                          writeable=False)
    win = conv1d_windows(x, width, stride, axis)
    assert win.shape == expected.shape
    assert_array_equal(win, expected)
    assert not win.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        win[...] = 0.0
    # a non-contiguous input gives the same windows
    strided = np.repeat(x, 2, axis=-1)[..., ::2]
    assert not strided.flags.c_contiguous or x.size == 0
    assert_array_equal(conv1d_windows(strided, width, stride, axis), expected)


def test_filter_matrix_is_a_read_only_c_ordered_copy(rng):
    filters = rng.normal(size=(20, 15, 4))
    b = GraphBuilder()
    b.conv1d("c", b.input("x", (200, 4)), filters, np.zeros(20), 2)
    node = b.build(outputs=["c"]).nodes["c"]
    w = node.filter_matrix
    assert w.shape == (60, 20)
    assert w.flags.c_contiguous
    assert w.tobytes() == np.ascontiguousarray(filters.reshape(20, -1).T).tobytes()
    assert not np.shares_memory(w, node.params["filters"])
    with pytest.raises(ValueError, match="read-only"):
        w[0, 0] = 1.0
    assert node.filter_matrix is w  # made once per node


def test_new_filters_get_their_own_filter_matrix(rng):
    # a node made with other filters, by with_params or replace_params,
    # must not read the matrix cached on the node it came from
    b = GraphBuilder()
    b.conv1d("c", b.input("x", (30, 4)), rng.normal(size=(6, 5, 4)), np.zeros(6))
    graph = b.build(outputs=["c"])
    node = graph.nodes["c"]
    assert_array_equal(node.filter_matrix, node.params["filters"].reshape(6, -1).T)
    filters = rng.normal(size=(6, 5, 4))
    renewed = graph.replace_params({"c": {"filters": filters}})
    x = rng.normal(size=(2, 30, 4))
    for new in (node.with_params(filters=filters), renewed.nodes["c"]):
        assert_array_equal(new.filter_matrix, filters.reshape(6, -1).T)
    assert_array_equal(forward(renewed, {"x": x})["c"],
                       per_sample_im2col(x, renewed.nodes["c"], 1))


def test_windows_helper_shapes(rng):
    x = rng.normal(size=(9, 3))
    win = conv1d_windows(x, 4, 2)
    assert win.shape == (3, 4, 3)
    assert_allclose(win[1], x[2:6])
    assert not win.flags.writeable
    batch = rng.normal(size=(2, 9, 3))
    win = conv1d_windows(batch, 4, 2, axis=1)
    assert win.shape == (2, 3, 4, 3)
    assert_allclose(win[1, 1], batch[1, 2:6])


def per_sample_im2col(x, node, lead):
    """The conv1d forward with no blocking: every sample's windows copied
    into one (P, K*C) array and one product with ``node.filter_matrix``."""
    width, stride = node.params["filters"].shape[1], node.params["stride"]
    rows = [conv1d_windows(sample, width, stride)
            for sample in x.reshape((-1,) + x.shape[lead:])]
    out = np.stack([np.ascontiguousarray(win.reshape(len(win), -1)) @ node.filter_matrix
                    for win in rows])
    out += node.params["bias"]
    return out.reshape(x.shape[:lead] + node.output_shape)


def one_product_im2col(x, filters, bias, stride, lead):
    """The conv1d forward before blocks and the filter matrix: every window
    copied into one (B*P, K*C) array and one product with the transposed
    view of the filters."""
    n_filt, width, channels = filters.shape
    win = conv1d_windows(x, width, stride, lead)
    out = win.reshape(-1, width * channels) @ filters.reshape(n_filt, -1).T
    out += bias
    return out.reshape(win.shape[:lead + 1] + (n_filt,))


PAPER_CONV = [(200, 15, stride, batch) for stride in (1, 2, 3)
              for batch in (None, 1, 4, 5, 32, 33)]
# more output rows than a block holds, so each block is one sample
LONG_CONV = [(IM2COL_BLOCK_ROWS + 40, 5, 1, batch) for batch in (None, 1, 3)]


@pytest.mark.parametrize("length, width, stride, batch", PAPER_CONV + LONG_CONV)
def test_blocked_conv_forward_equals_per_sample_products(rng, length, width, stride, batch):
    # a block's product gives each of its samples the bits of that
    # sample's own product: OpenBLAS keeps one kernel for a C-ordered
    # right-hand side from 8 rows up to a block's 768
    filters, bias = rng.normal(size=(20, width, 4)), rng.normal(size=20)
    b = GraphBuilder()
    b.conv1d("c", b.input("x", (length, 4)), filters, bias, stride)
    graph = b.build(outputs=["c"])
    node = graph.nodes["c"]
    assert (node.output_shape[0] > IM2COL_BLOCK_ROWS) == (length > IM2COL_BLOCK_ROWS)
    x = rng.normal(size=(length, 4) if batch is None else (batch, length, 4))
    lead = 0 if batch is None else 1
    got = forward(graph, {"x": x})["c"]
    want = per_sample_im2col(x, node, lead)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    # the transposed view's product differs from it by round-off only
    old = one_product_im2col(x, filters, bias, stride, lead)
    assert np.abs(got - old).max() <= 1e-12 * np.abs(old).max()
