"""Gradient correctness against the finite-difference oracle."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from deltalift.autodiff import (
    Routed,
    backward,
    finite_difference_check,
    vjp_sweep,
)
from deltalift.graph import (
    IM2COL_BLOCK_ROWS,
    GraphBuilder,
    GraphError,
    _pool_argmax,
    _window_starts,
    forward,
    im2col_blocks,
)

from graphgen import random_graph_case


def _central_difference(graph, inputs, target, h=1e-5):
    """Independent numeric gradient, re-derived here rather than via the
    library's checker."""
    t_node, t_index = target
    out = {}
    for input_id, base in inputs.items():
        work = {k: np.array(v, dtype=float) for k, v in inputs.items()}
        grad = np.zeros_like(work[input_id])
        flat = work[input_id].ravel()
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            fp = forward(graph, work)[t_node].flat[t_index]
            flat[i] = keep - h
            fm = forward(graph, work)[t_node].flat[t_index]
            flat[i] = keep
            grad.flat[i] = (fp - fm) / (2 * h)
        out[input_id] = grad
    return out


class TestBackward:
    def test_affine_rows(self, rng):
        w = rng.normal(size=(3, 4))
        b = GraphBuilder()
        x = b.input("x", (4,))
        b.affine("y", x, w, np.zeros(3))
        g = b.build(outputs=["y"])
        tr = forward(g, {"x": rng.normal(size=4)})
        for j in range(3):
            grads = backward(tr, ("y", j))
            assert_allclose(grads["x"], w[j])

    def test_unknown_target_rejected(self, rng):
        b = GraphBuilder()
        x = b.input("x", (2,))
        b.relu("r", x)
        g = b.build(outputs=["r"])
        tr = forward(g, {"x": np.ones(2)})
        with pytest.raises(GraphError, match="nope"):
            backward(tr, ("nope", 0))

    @pytest.mark.parametrize("batch", [None, 2])
    @pytest.mark.parametrize("index", [
        1.7, True, np.float64(2.9), "1", np.array([1.0, 2.0]), np.array([True, False]),
        np.array(["1", "2"]),
    ], ids=repr)
    def test_non_integer_target_index_rejected(self, rng, batch, index):
        b = GraphBuilder()
        b.affine("h", b.input("x", (2,)), rng.normal(size=(3, 2)), rng.normal(size=3))
        g = b.build(outputs=["h"])
        tr = forward(g, {"x": rng.normal(size=(2,) if batch is None else (batch, 2))})
        with pytest.raises(GraphError, match=r"target index .* is not an integer"):
            backward(tr, ("h", index))
        for index in (1, np.int64(2), np.uint8(0), np.array(1)) + (
                () if batch is None else (np.array([2, 0]),)):
            assert backward(tr, ("h", index))["x"].shape == tr["x"].shape

    def test_per_sample_target_indices_need_a_batch(self, rng):
        b = GraphBuilder()
        b.affine("h", b.input("x", (2,)), rng.normal(size=(3, 2)), rng.normal(size=3))
        g = b.build(outputs=["h"])
        tr = forward(g, {"x": rng.normal(size=2)})
        with pytest.raises(GraphError, match="^per-sample target indices need a batch"):
            backward(tr, ("h", np.array([1, 2])))

    def test_inactive_relu_blocks_gradient(self):
        b = GraphBuilder()
        x = b.input("x", (2,))
        pre = b.affine("pre", x, [[1.0, 2.0]], [2.0])
        y = b.relu("y", pre)
        b.affine("out", y, [[0.2]], [0.1])
        g = b.build(outputs=["out"])
        tr = forward(g, {"x": np.array([-1.0, -1.0])})
        grads = backward(tr, ("out", 0))
        assert_allclose(grads["x"], [0.0, 0.0])

    def test_maxpool_gradient_one_hot_per_window(self, rng):
        b = GraphBuilder()
        x = b.input("x", (8, 2))
        b.maxpool1d("p", x, 4, 4)
        g = b.build(outputs=["p"])
        v = rng.normal(size=(8, 2))
        tr = forward(g, {"x": v})
        for t_index in range(4):
            grads = backward(tr, ("p", t_index))["x"]
            assert grads.sum() == 1.0
            assert ((grads == 0) | (grads == 1)).all()

    def test_maxpool_tie_routes_to_first_index(self):
        b = GraphBuilder()
        x = b.input("x", (3,))
        b.maxpool1d("p", x, 3, 3)
        g = b.build(outputs=["p"])
        tr = forward(g, {"x": np.array([5.0, 5.0, 1.0])})
        grads = backward(tr, ("p", 0))["x"]
        assert_allclose(grads, [1.0, 0.0, 0.0])

    @pytest.mark.parametrize("shape, lead", [
        ((11,), 0), ((11, 3), 0), ((4, 11), 1), ((4, 11, 3), 1),
    ])
    def test_pool_routing_matches_add_at_oracle(self, rng, shape, lead):
        # overlapping windows (stride < width) of small integers: many ties
        width, stride = 4, 2
        x = rng.integers(0, 3, size=shape).astype(float)
        n_out = (shape[lead] - width) // stride + 1
        out_shape = shape[:lead] + (n_out,) + shape[lead + 1:]
        values = rng.normal(size=out_shape)
        expected_flat = np.empty(out_shape, dtype=np.intp)
        for out_index in np.ndindex(*out_shape):
            j = out_index[lead]
            members = [out_index[:lead] + (j * stride + k,) + out_index[lead + 1:]
                       for k in range(width)]
            first_max = max(range(width), key=lambda k: (x[members[k]], -k))
            expected_flat[out_index] = np.ravel_multi_index(members[first_max], shape)
        expected = np.zeros(x.size)
        np.add.at(expected, expected_flat.ravel(), values.ravel())

        flat = _pool_argmax(x, width, stride, lead)
        np.testing.assert_array_equal(flat, expected_flat)
        routed = Routed(flat, values, shape).dense()
        assert routed.shape == shape
        assert routed.tobytes() == expected.reshape(shape).tobytes()

    def test_window_starts_are_cached_and_read_only(self):
        starts, step = _window_starts((4, 11, 3), 4, 2, 1)
        assert step == 3 and starts.shape == (4, 4, 3)
        assert _window_starts((4, 11, 3), 4, 2, 1)[0] is starts
        with pytest.raises(ValueError, match="read-only"):
            starts[0, 0, 0] = 1
        with pytest.raises(ValueError, match="read-only"):
            starts += 1

    # (length, width, stride): (21, 4, 2) and (12, 4, 3) leave trailing
    # input rows that no window reads
    @pytest.mark.parametrize("length, width, stride", [
        (20, 4, 1), (21, 4, 2), (12, 4, 3), (30, 7, 2),
    ])
    @pytest.mark.parametrize("channels", [1, 4])
    @pytest.mark.parametrize("batch", [None, 1, 2, 5])
    def test_conv_transpose_matches_per_tap_oracle(self, rng, length, width, stride,
                                                   channels, batch):
        b = GraphBuilder()
        x = b.input("x", (length, channels))
        b.conv1d("c", x, rng.normal(size=(6, width, channels)), rng.normal(size=6),
                 stride=stride)
        g = b.build(outputs=["c"])
        lead = 0 if batch is None else 1
        shape = (length, channels) if batch is None else (batch, length, channels)
        tr = forward(g, {"x": rng.normal(size=shape)})
        grad_out = rng.normal(size=tr["c"].shape)
        grads, _ = vjp_sweep(tr, {"c": grad_out})

        # one (B*P, F) @ (F, C) product per filter tap, added in tap order
        filters = g.nodes["c"].params["filters"]
        rows = grad_out.reshape(-1, filters.shape[0])
        n_out = grad_out.shape[lead]
        expected = np.zeros(shape)
        for k in range(width):
            reads = (slice(None),) * lead + (slice(k, k + stride * (n_out - 1) + 1, stride),)
            expected[reads] += (rows @ filters[:, k, :]).reshape(
                grad_out.shape[:-1] + (channels,))
        if stride * (n_out - 1) + width < length:
            assert not expected[..., -1, :].any()
        assert grads["x"].shape == shape
        assert grads["x"].tobytes() == expected.tobytes()

    # 96 output rows per sample at both strides (stride 2 leaves a trailing
    # input row); the batches fill part of one im2col block, exactly two,
    # and two and part of a third
    @pytest.mark.parametrize("length, stride", [(100, 1), (196, 2)])
    @pytest.mark.parametrize("blocks", ["one", "full", "partial"])
    def test_dense_conv_rules_across_im2col_blocks(self, rng, length, stride, blocks):
        width, channels, n_filt, n_out = 5, 3, 4, 96
        per_block = IM2COL_BLOCK_ROWS // n_out
        batch = {"one": per_block // 2, "full": 2 * per_block,
                 "partial": 2 * per_block + 3}[blocks]
        b = GraphBuilder()
        b.conv1d("c", b.input("x", (length, channels)),
                 rng.normal(size=(n_filt, width, channels)), rng.normal(size=n_filt),
                 stride=stride)
        g = b.build(outputs=["c"])
        xs = rng.normal(size=(batch, length, channels))
        tr = forward(g, {"x": xs})
        grad_out = rng.normal(size=tr["c"].shape)
        assert grad_out.shape == (batch, n_out, n_filt)
        assert len(list(im2col_blocks(xs, width, stride, 1))) == -(-batch // per_block)
        got_x = vjp_sweep(tr, {"c": grad_out})[0]["x"]
        got_params = vjp_sweep(tr, {"c": grad_out}, want_param_grads=True)[1]["c"]

        # one window at a time
        filters = g.nodes["c"].params["filters"]
        want_x, want_filters, want_bias = np.zeros(xs.shape), np.zeros(filters.shape), 0.0
        for s, p in np.ndindex(batch, n_out):
            reads = slice(p * stride, p * stride + width)
            want_x[s, reads] += np.tensordot(grad_out[s, p], filters, axes=1)
            want_filters += grad_out[s, p][:, None, None] * xs[s, reads]
            want_bias = want_bias + grad_out[s, p]
        assert_allclose(got_x, want_x, rtol=1e-12, atol=1e-12)
        assert_allclose(got_params["filters"], want_filters, rtol=1e-12, atol=1e-12)
        assert_allclose(got_params["bias"], want_bias, rtol=1e-12, atol=1e-12)

    def test_softmax_jacobian_row(self, rng):
        b = GraphBuilder()
        x = b.input("x", (4,))
        b.softmax("s", x)
        g = b.build(outputs=["s"])
        v = rng.normal(size=4)
        tr = forward(g, {"x": v})
        s = tr["s"]
        for j in range(4):
            grads = backward(tr, ("s", j))["x"]
            expected = s[j] * ((np.arange(4) == j) - s)
            assert_allclose(grads, expected, atol=1e-12)

    def test_random_mlp_matches_central_differences(self, rng):
        # three dense blocks, mixed nonlinearities
        b = GraphBuilder()
        x = b.input("x", (4,))
        h1 = b.tanh("t1", b.affine("f1", x, rng.normal(size=(6, 4)), rng.normal(size=6)))
        h2 = b.sigmoid("s2", b.affine("f2", h1, rng.normal(size=(5, 6)), rng.normal(size=5)))
        b.affine("f3", h2, rng.normal(size=(2, 5)), rng.normal(size=2))
        g = b.build(outputs=["f3"])
        inputs = {"x": rng.normal(size=4)}
        tr = forward(g, inputs)
        grads = backward(tr, ("f3", 1))
        numeric = _central_difference(g, inputs, ("f3", 1))
        assert_allclose(grads["x"], numeric["x"], rtol=1e-6, atol=1e-8)


class TestFiniteDifferenceCheck:
    def test_linear_model_near_exact(self, rng):
        b = GraphBuilder()
        x = b.input("x", (5,))
        b.affine("y", x, rng.normal(size=(3, 5)), rng.normal(size=3))
        g = b.build(outputs=["y"])
        report = finite_difference_check(g, {"x": rng.normal(size=5)}, ("y", 2))
        assert report.passed
        assert report.max_rel_deviation < 1e-9

    def test_random_graphs_pass_at_tolerance(self, rng):
        for _ in range(25):
            case = random_graph_case(rng)
            report = finite_difference_check(
                case.graph, case.inputs, case.target, h=1e-5, tolerance=1e-6
            )
            assert report.passed, (case.kinds, report)

    def test_exact_kink_detected_and_perturbed(self):
        b = GraphBuilder()
        x = b.input("x", (2,))
        b.relu("r", x)
        g = b.build(outputs=["r"])
        report = finite_difference_check(g, {"x": np.array([0.0, 1.0])}, ("r", 1))
        assert report.perturbed
        assert any("perturb" in note for note in report.notes)
        assert report.passed
