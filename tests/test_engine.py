"""Multiplier rules, propagation, and the conservation property."""

import gc
import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose

from deltalift.autodiff import backward, vjp_node
from deltalift.baselines import (
    gradient_times_input,
    lrp_as_contribution_report,
    lrp_epsilon,
    random_relu_mlp,
)
from deltalift.engine import (
    ATTRIBUTE_CHUNK,
    EPS_STABLE,
    METHODS,
    AttributionError,
    _max_multiplier_backprop,
    attribute,
    compute_deltas,
    compute_reference,
    contributions,
    deeplift,
    fixed_target_node,
    local_multipliers_product,
    local_multipliers_rescale,
    propagate_multipliers,
    select_attribution_target,
    zeros_reference,
)
from deltalift.genomics import (
    DatasetSpec,
    build_genomics_cnn,
    compare_methods,
    encode_batch,
    generate_dataset,
    one_hot_encode,
)
from deltalift.graph import GraphBuilder, GraphError, forward
from deltalift.normalize import attribution_model

from graphgen import random_graph_case, routes_sparsely


def saturated_relu_net():
    """Two-feature net whose relu is active at the origin reference but
    shut off at (-1, -1); gradients vanish there while the reference
    comparison still assigns credit."""
    b = GraphBuilder()
    x = b.input("x", (2,))
    pre = b.affine("pre", x, [[1.0, 2.0]], [2.0])
    y = b.relu("y", pre)
    b.affine("out", y, [[0.2]], [0.1])
    return b.build(outputs=["out"])


class TestReference:
    def test_zero_reference_bias_free_linear(self, rng):
        b = GraphBuilder()
        x = b.input("x", (3,))
        h = b.affine("h", x, rng.normal(size=(4, 3)), np.zeros(4))
        b.affine("o", h, rng.normal(size=(2, 4)), np.zeros(2))
        g = b.build(outputs=["o"])
        ref = compute_reference(g, {"x": np.zeros(3)})
        for nid in g.nodes:
            assert_allclose(ref[nid], 0.0)

    def test_saturated_relu_net_reference(self):
        g = saturated_relu_net()
        ref = compute_reference(g, {"x": np.zeros(2)})
        assert_allclose(ref["y"], [2.0])
        assert_allclose(ref["out"], [0.5])

    def test_reference_is_plain_forward(self, rng):
        case = random_graph_case(rng)
        ref = compute_reference(case.graph, case.reference)
        tr = forward(case.graph, case.reference)
        for nid in case.graph.nodes:
            assert np.array_equal(ref[nid], tr[nid])

    def test_memoized_zeros_reference_leaves_no_cycle(self, monkeypatch):
        """The zeros reference is evaluated once per graph, and keeping it
        does not keep the graph: with the cyclic collector off, a graph
        attributed against it is freed at its last reference."""
        import deltalift.engine as engine_module

        calls = []
        monkeypatch.setattr(
            engine_module, "forward",
            lambda *a, _real=forward, **k: calls.append(1) or _real(*a, **k),
        )
        rng = np.random.default_rng(46)
        inputs = {"seq": np.eye(4)[rng.integers(0, 4, size=(3, 200))]}
        collecting = gc.isenabled()
        gc.disable()
        try:
            cnn = build_genomics_cnn(seed=3)
            first = deeplift(cnn, inputs).contributions["seq"]
            assert len(calls) == 2  # the inputs and the zeros reference
            attribute(cnn, inputs, "grad_input")
            assert len(calls) == 3  # the memo is hit: one forward per call
            assert np.array_equal(deeplift(cnn, inputs).contributions["seq"], first)
            alive = weakref.ref(cnn)
            del cnn
            assert alive() is None
        finally:
            if collecting:
                gc.enable()


class TestRuleTableMemo:
    def test_one_state_builds_deeplift_s_table_once(self, monkeypatch, rng):
        """A reference state keeps DeepLIFT's rule table, and the zeros
        reference's table is kept with it once per graph; a fresh state
        builds its own, which gives the same bits."""
        import deltalift.engine as engine_module

        built = []
        monkeypatch.setattr(
            engine_module, "_rule_table",
            lambda ref, _real=engine_module._rule_table: built.append(1) or _real(ref),
        )
        b = GraphBuilder()
        h = b.prelu("h", b.affine("fc", b.input("x", (4,)), rng.normal(size=(6, 4)),
                                  rng.normal(size=6)), np.full(6, 0.3))
        b.affine("out", h, rng.normal(size=(2, 6)), rng.normal(size=2))
        g = b.build(outputs=["out"])
        one, batch = {"x": rng.normal(size=4)}, {"x": rng.normal(size=(3, 4))}
        state = compute_reference(g, {"x": rng.normal(size=4)})
        first = [deeplift(g, x, state, ("out", 1)) for x in (one, batch)]
        for _ in range(3):
            for x, report in zip((one, batch), first):
                again = deeplift(g, x, state, ("out", 1))
                assert again.contributions["x"].tobytes() == report.contributions["x"].tobytes()
            propagate_multipliers(forward(g, one), state, ("out", 1))
        assert len(built) == 1
        for _ in range(3):
            deeplift(g, one, target=("out", 0))
            attribute(g, batch, "grad_input", target=("out", 0))
        assert len(built) == 2  # the zeros reference's, made once
        fresh = compute_reference(g, state.reference_input)
        for x, report in zip((one, batch), first):
            again = deeplift(g, x, fresh, ("out", 1))
            assert again.contributions["x"].tobytes() == report.contributions["x"].tobytes()
        assert len(built) == 3


def test_attribution_calls_leave_nothing_for_the_collector():
    """With the cyclic collector off, calls of every method, one sample
    and a batch, and ``compare_methods`` make no reference cycle: the
    memoized attribution model, zeros reference and rule tables, and the
    bias shares LRP forms on read, all free at their last reference."""
    data = generate_dataset(DatasetSpec(n_train=0, n_val=0, n_test=12, length=60, seed=6))
    xs = encode_batch(data.test)

    def paper_cnn():
        return build_genomics_cnn(length=60, pool_width=10, pool_stride=10,
                                  dense_units=12, seed=2)

    # half the sequences score as positives; numpy's first median call
    # makes garbage of its own, so it runs before the collector stops
    bias = -np.median(forward(paper_cnn(), {"seq": xs})["logit"][:, 0])

    def calls():
        cnn = paper_cnn().replace_params({"logit": {"bias": np.array([bias])}})
        state = compute_reference(cnn, zeros_reference(cnn))
        for inputs in ({"seq": xs[0]}, {"seq": xs[:ATTRIBUTE_CHUNK]}):
            for _ in range(5):
                for method in METHODS:
                    attribute(cnn, inputs, method)
                deeplift(cnn, inputs, state)
                deeplift(cnn, inputs, {"seq": np.full((60, 4), 0.25)})
                rel = lrp_epsilon(cnn, inputs)
                lrp_as_contribution_report(cnn, inputs, rel)
                dict(rel.bias_relevance)
        for _ in range(5):
            assert compare_methods(cnn, data.test).n_correct_positives > 0
        return weakref.ref(cnn)

    collecting = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        alive = calls()
        assert alive() is None
        assert gc.collect() == 0
    finally:
        if collecting:
            gc.enable()


def affine_multiplier_rows(g, trace, ref):
    """Propagated multipliers of "x" to each output of affine node "y",
    stacked into the (out, in) matrix the affine rule should reproduce."""
    n_out = g.nodes["y"].output_shape[0]
    return np.stack([propagate_multipliers(trace, ref, ("y", k))["x"]
                     for k in range(n_out)])


class TestAffineRule:
    def test_scalar_example(self):
        b = GraphBuilder()
        x = b.input("x", (1,))
        b.affine("y", x, [[3.0]], [0.0])
        g = b.build(outputs=["y"])
        tr = forward(g, {"x": np.array([5.0])})
        ref = compute_reference(g, {"x": np.array([3.0])})
        m = affine_multiplier_rows(g, tr, ref)
        assert_allclose(m, [[3.0]])
        # delta_x = 2 gives C = 6 = delta_y
        assert_allclose(m @ (tr["x"] - ref["x"]), tr["y"] - ref["y"])

    def test_random_affine_conserves_exactly(self, rng):
        for _ in range(20):
            out_dim, in_dim = rng.integers(1, 6, size=2)
            w = rng.normal(size=(out_dim, in_dim))
            b = GraphBuilder()
            x = b.input("x", (int(in_dim),))
            b.affine("y", x, w, rng.normal(size=out_dim))
            g = b.build(outputs=["y"])
            xs = rng.normal(size=in_dim)
            x0 = rng.normal(size=in_dim)
            tr = forward(g, {"x": xs})
            ref = compute_reference(g, {"x": x0})
            lhs = affine_multiplier_rows(g, tr, ref) @ (xs - x0)
            assert_allclose(lhs, tr["y"] - ref["y"], atol=1e-12)

    def test_bias_only_shift_contributes_nothing(self, rng):
        b = GraphBuilder()
        x = b.input("x", (3,))
        b.affine("y", x, rng.normal(size=(2, 3)), rng.normal(size=2))
        g = b.build(outputs=["y"])
        point = rng.normal(size=3)
        report = deeplift(g, {"x": point}, {"x": point}, target=("y", 0))
        assert_allclose(report.contributions["x"], 0.0)
        # activations themselves are far from zero
        assert np.abs(forward(g, {"x": point})["y"]).max() > 0

    def test_conv_transpose_is_adjoint_of_forward(self, rng):
        # <conv(v), u> = <v, conv^T(u)>: the sweep's conv transpose, which
        # carries conv multipliers, is the adjoint of the bias-free forward;
        # conv is bilinear, so <conv(v), u> = <filters, dfilters(u)> too
        for stride in (1, 2):
            for lead in ((), (3,)):
                b = GraphBuilder()
                x = b.input("x", (8, 2))
                b.conv1d("c", x, rng.normal(size=(3, 3, 2)), np.zeros(3),
                         stride=stride)
                g = b.build(outputs=["c"])
                node = g.nodes["c"]
                v = rng.normal(size=lead + (8, 2))
                trace = forward(g, {"x": v})
                u = rng.normal(size=trace["c"].shape)
                grads = {"x": np.zeros(v.shape)}
                param_grads = {}
                vjp_node(node, u, trace, grads, param_grads)
                lhs = (trace["c"] * u).sum()
                assert_allclose((v * grads["x"]).sum(), lhs, rtol=1e-12)
                dw = param_grads["c"]["filters"]
                assert_allclose((node.params["filters"] * dw).sum(), lhs, rtol=1e-12)


class TestMaxRule:
    def _pool_pair(self):
        b = GraphBuilder()
        v = b.input("v", (2,))
        b.maxpool1d("p", v, 2, 2)
        return b.build(outputs=["p"])

    def _propagate(self, trace, ref):
        """Multipliers of "v" to the pooled output and their contributions."""
        mult = propagate_multipliers(trace, ref, ("p", 0))["v"]
        return mult, mult * (trace["v"] - ref["v"])

    def test_window_example(self):
        g = self._pool_pair()
        tr = forward(g, {"v": np.array([3.0, 5.0])})
        ref = compute_reference(g, {"v": np.array([4.0, 1.0])})
        mult, contrib = self._propagate(tr, ref)
        assert_allclose(contrib, [0.0, 1.0])
        assert_allclose(mult, [0.0, 0.25])

    def test_input_at_reference_contributes_nothing(self):
        g = self._pool_pair()
        point = np.array([2.0, 7.0])
        tr = forward(g, {"v": point})
        ref = compute_reference(g, {"v": point})
        _, contrib = self._propagate(tr, ref)
        assert_allclose(contrib, 0.0)

    def test_tie_routes_all_delta_to_lowest_index(self):
        g = self._pool_pair()
        tr = forward(g, {"v": np.array([5.0, 5.0])})
        ref = compute_reference(g, {"v": np.array([1.0, 2.0])})
        _, contrib = self._propagate(tr, ref)
        delta_y = 5.0 - 2.0
        assert_allclose(contrib, [delta_y, 0.0])
        assert_allclose(contrib.sum(), delta_y)

    def test_reroute_matches_per_window_oracle(self, rng):
        # overlapping windows; the reference equals the input on the first
        # rows of every sample, so some windows' argmax has no delta and
        # reroutes to the member with the largest |delta|
        width, stride, eps = 4, 2, EPS_STABLE
        b = GraphBuilder()
        v = b.input("v", (12, 2))
        b.maxpool1d("p", v, width, stride)
        g = b.build(outputs=["p"])
        x = rng.integers(0, 4, size=(3, 12, 2)).astype(float)
        x_ref = rng.integers(0, 4, size=(3, 12, 2)).astype(float)
        x_ref[:, :6] = x[:, :6]
        x_ref[2, 6:8] = x[2, 6:8]
        # window rows 4-7 whose max sits at its reference while another
        # member moved: the second one has a tie in |delta|
        x[0, 4:8, 0], x_ref[0, 4:8, 0] = [5, 1, 2, 0], [5, 1, 7, 0]
        x[1, 4:8, 1], x_ref[1, 4:8, 1] = [3, 3, 1, 1], [3, 3, 4, 4]
        tr = forward(g, {"v": x})
        ref = compute_reference(g, {"v": x_ref})
        m_out = rng.normal(size=tr["p"].shape)
        mult = {}
        _max_multiplier_backprop(g.nodes["p"], m_out, tr, ref, mult)

        dx = x - x_ref
        route = (tr["p"] - ref["p"]) * m_out
        expected = np.zeros(x.shape)
        rerouted = 0
        for i, j, c in np.ndindex(*route.shape):
            rows = j * stride + np.arange(width)
            pick = rows[np.argmax(x[i, rows, c])]
            if not abs(dx[i, pick, c]) > eps:
                pick = rows[np.argmax(np.abs(dx[i, rows, c]))]
                rerouted += route[i, j, c] != 0
            if abs(dx[i, pick, c]) > eps:
                expected[i, pick, c] += route[i, j, c] / dx[i, pick, c]
        assert rerouted >= 2
        # the rule writes a routed buffer; the sweep makes it dense
        np.testing.assert_array_equal(mult["v"].dense(), expected)


class TestRescaleRule:
    def test_relu_partial_shutoff(self):
        b = GraphBuilder()
        x = b.input("x", (1,))
        b.relu("r", x)
        g = b.build(outputs=["r"])
        tr = forward(g, {"x": np.array([-1.0])})
        ref = compute_reference(g, {"x": np.array([2.0])})
        m = local_multipliers_rescale(g.nodes["r"], tr, ref)
        assert_allclose(m, [2.0 / 3.0])

    def test_sigmoid_limit_is_derivative_at_reference(self):
        b = GraphBuilder()
        x = b.input("x", (1,))
        b.sigmoid("s", x)
        g = b.build(outputs=["s"])
        x0 = np.array([0.7])
        tr = forward(g, {"x": x0 + 1e-9})
        ref = compute_reference(g, {"x": x0})
        m = local_multipliers_rescale(g.nodes["s"], tr, ref)
        s0 = 1 / (1 + np.exp(-x0))
        assert_allclose(m, s0 * (1 - s0), atol=1e-12)

    def test_tanh_direct_ratio(self):
        b = GraphBuilder()
        x = b.input("x", (1,))
        b.tanh("t", x)
        g = b.build(outputs=["t"])
        tr = forward(g, {"x": np.array([3.0])})
        ref = compute_reference(g, {"x": np.array([0.0])})
        m = local_multipliers_rescale(g.nodes["t"], tr, ref)
        assert_allclose(m, [np.tanh(3.0) / 3.0])

    @pytest.mark.parametrize("shift, expected", [(EPS_STABLE, 0.0), (2 * EPS_STABLE, 1.0)],
                             ids=["at-eps", "twice-eps"])
    def test_relu_switches_to_the_ratio_only_above_the_stabilizer(self, shift, expected):
        # the ratio needs |delta_in| > EPS_STABLE; exactly EPS_STABLE still
        # takes the derivative at the reference input 0, which is 0
        b = GraphBuilder()
        x = b.input("x", (1,))
        b.relu("r", x)
        g = b.build(outputs=["r"])
        ref = compute_reference(g, {"x": np.zeros(1)})
        m = local_multipliers_rescale(g.nodes["r"], forward(g, {"x": np.array([shift])}), ref)
        assert m.tolist() == [expected]

    @pytest.mark.parametrize("kind", ["sigmoid", "tanh"])
    def test_continuity_across_stability_threshold(self, kind, rng):
        # the ratio just above EPS_STABLE and the derivative fallback just
        # below it must agree closely: no jump at the switch
        b = GraphBuilder()
        x = b.input("x", (1,))
        getattr(b, kind)("y", x)
        g = b.build(outputs=["y"])
        for _ in range(20):
            x0 = rng.normal(size=1)
            eps = EPS_STABLE
            ref = compute_reference(g, {"x": x0})
            above = local_multipliers_rescale(
                g.nodes["y"], forward(g, {"x": x0 + 1.01 * eps}), ref
            )
            below = local_multipliers_rescale(
                g.nodes["y"], forward(g, {"x": x0 + 0.99 * eps}), ref
            )
            assert abs(above[0] - below[0]) < 1e-6


class TestProductRule:
    def _product_graph(self):
        b = GraphBuilder()
        a = b.input("a", (1,))
        c = b.input("c", (1,))
        b.product("p", a, c)
        return b.build(outputs=["p"])

    def test_zero_references_split_symmetrically(self):
        g = self._product_graph()
        tr = forward(g, {"a": np.array([2.0]), "c": np.array([3.0])})
        ref = compute_reference(g, {"a": np.zeros(1), "c": np.zeros(1)})
        m1, m2 = local_multipliers_product(g.nodes["p"], tr, ref)
        c1 = m1 * (tr["a"] - ref["a"])
        c2 = m2 * (tr["c"] - ref["c"])
        assert_allclose(c1, [3.0])
        assert_allclose(c2, [3.0])
        assert_allclose(c1 + c2, tr["p"] - ref["p"])

    def test_unit_references_hand_expansion(self):
        g = self._product_graph()
        tr = forward(g, {"a": np.array([3.0]), "c": np.array([4.0])})
        ref = compute_reference(g, {"a": np.ones(1), "c": np.ones(1)})
        m1, m2 = local_multipliers_product(g.nodes["p"], tr, ref)
        assert_allclose(m1 * 2.0, [5.0])
        assert_allclose(m2 * 3.0, [6.0])
        assert_allclose(m1 * 2.0 + m2 * 3.0, tr["p"] - ref["p"])

    def test_operand_at_reference_gets_zero(self, rng):
        g = self._product_graph()
        a, c0, c1 = rng.normal(size=3)
        tr = forward(g, {"a": np.array([a]), "c": np.array([c1])})
        ref = compute_reference(g, {"a": np.array([a]), "c": np.array([c0])})
        m1, m2 = local_multipliers_product(g.nodes["p"], tr, ref)
        assert_allclose(m1 * 0.0, 0.0)
        assert_allclose(m2 * (c1 - c0), tr["p"] - ref["p"])


class TestPropagation:
    def test_two_stacked_affine_layers_compose_weights(self, rng):
        w1 = rng.normal(size=(4, 3))
        w2 = rng.normal(size=(2, 4))
        b = GraphBuilder()
        x = b.input("x", (3,))
        h = b.affine("h", x, w1, rng.normal(size=4))
        b.affine("o", h, w2, rng.normal(size=2))
        g = b.build(outputs=["o"])
        tr = forward(g, {"x": rng.normal(size=3)})
        ref = compute_reference(g, {"x": rng.normal(size=3)})
        for j in range(2):
            mm = propagate_multipliers(tr, ref, ("o", j))
            assert_allclose(mm["x"], (w2 @ w1)[j], atol=1e-12)

    def test_merged_affine_pair_equals_single_layer(self, rng):
        # chain-rule consistency: h = W2 (W1 x + b1) + b2 must attribute
        # exactly like the algebraically merged single layer
        w1 = rng.normal(size=(5, 3))
        b1 = rng.normal(size=5)
        w2 = rng.normal(size=(2, 5))
        b2 = rng.normal(size=2)
        stacked = GraphBuilder()
        x = stacked.input("x", (3,))
        h = stacked.affine("h", x, w1, b1)
        stacked.affine("o", h, w2, b2)
        g_two = stacked.build(outputs=["o"])

        merged = GraphBuilder()
        x = merged.input("x", (3,))
        merged.affine("o", x, w2 @ w1, w2 @ b1 + b2)
        g_one = merged.build(outputs=["o"])

        xs = {"x": rng.normal(size=3)}
        x0 = {"x": rng.normal(size=3)}
        r_two = deeplift(g_two, xs, x0, target=("o", 1))
        r_one = deeplift(g_one, xs, x0, target=("o", 1))
        assert_allclose(r_two.contributions["x"], r_one.contributions["x"],
                        atol=1e-12)

    def test_propagation_deterministic(self, rng):
        case = random_graph_case(rng)
        tr = forward(case.graph, case.inputs)
        ref = compute_reference(case.graph, case.reference)
        m1 = propagate_multipliers(tr, ref, case.target)
        m2 = propagate_multipliers(tr, ref, case.target)
        for nid in case.graph.nodes:
            assert np.array_equal(m1[nid], m2[nid])

    def test_multiplier_of_target_is_one(self, rng):
        case = random_graph_case(rng)
        tr = forward(case.graph, case.inputs)
        ref = compute_reference(case.graph, case.reference)
        mm = propagate_multipliers(tr, ref, case.target)
        t_node, t_index = case.target
        assert mm[t_node].flat[t_index] == 1.0

    def test_softmax_in_path_rejected(self, rng):
        b = GraphBuilder()
        x = b.input("x", (3,))
        s = b.softmax("s", x)
        b.affine("o", s, rng.normal(size=(1, 3)), np.zeros(1))
        g = b.build(outputs=["o"])
        tr = forward(g, {"x": rng.normal(size=3)})
        ref = compute_reference(g, {"x": rng.normal(size=3)})
        with pytest.raises(AttributionError, match="softmax"):
            propagate_multipliers(tr, ref, ("o", 0))


class TestContributions:
    def test_linear_model_end_to_end(self, rng):
        w = rng.normal(size=(1, 4))
        b = GraphBuilder()
        x = b.input("x", (4,))
        b.affine("y", x, w, rng.normal(size=1))
        g = b.build(outputs=["y"])
        xs = rng.normal(size=4)
        x0 = rng.normal(size=4)
        report = deeplift(g, {"x": xs}, {"x": x0}, target=("y", 0))
        assert_allclose(report.contributions["x"], w[0] * (xs - x0))
        assert report.residual < 1e-12

    def test_trace_and_reference_from_different_graphs_refused(self, rng):
        def linear():
            b = GraphBuilder()
            b.affine("y", b.input("x", (4,)), np.ones((1, 4)), np.zeros(1))
            return b.build(outputs=["y"])

        graph, twin = linear(), linear()
        trace = forward(graph, {"x": rng.normal(size=4)})
        reference = compute_reference(twin, {"x": np.zeros(4)})
        for call in (lambda: contributions(trace, reference, ("y", 0), {"x": np.ones(4)}),
                     lambda: compute_deltas(trace, reference),
                     # returned the twin's multipliers without a word
                     lambda: propagate_multipliers(trace, reference, ("y", 0))):
            with pytest.raises(AttributionError,
                               match="^trace and reference come from different graphs$"):
                call()

    def test_reference_on_the_graph_before_normalization_refused(self):
        # the attribution model's normalized layers shift the activations,
        # so a reference on the raw graph gave other multipliers
        raw = build_genomics_cnn(length=20, pool_width=5, pool_stride=5, dense_units=6)
        model = attribution_model(raw)
        x = one_hot_encode("ACGTGATAAGCTAGCTAGGC")
        reference = compute_reference(raw, {"seq": np.full((20, 4), 0.25)})
        with pytest.raises(AttributionError, match="different graphs"):
            propagate_multipliers(forward(model, {"seq": x}), reference, ("logit", 0))

    def test_input_equal_reference_all_zero(self, rng):
        case = random_graph_case(rng)
        report = deeplift(case.graph, case.inputs, case.inputs,
                          target=case.target)
        assert_allclose(report.contributions["x"], 0.0, atol=1e-12)
        assert report.delta_target == 0.0

    def test_summation_to_delta_random_graphs(self):
        rng = np.random.default_rng(7)
        kinds_seen = set()
        pools = []  # whether each pool routes sparsely or sweeps dense
        for _ in range(120):
            case = random_graph_case(rng)
            kinds_seen |= case.kinds
            pools += [routes_sparsely(case.graph, nid) for nid, node
                      in case.graph.nodes.items() if node.kind == "maxpool1d"]
            report = deeplift(case.graph, case.inputs, case.reference,
                              target=case.target)
            tol = max(1e-9, 1e-6 * abs(report.delta_target))
            assert report.residual <= tol, (case.kinds, report.residual)
        assert {"conv1d", "maxpool1d", "maxout", "product", "prelu",
                "sigmoid", "tanh", "relu", "affine"} <= kinds_seen
        assert pools.count(True) >= 5 and pools.count(False) >= 5, pools


class TestSoftmaxHeadReuse:
    def test_cached_reference_skips_normalization_and_recomputation(
            self, rng, monkeypatch):
        import deltalift.engine as engine_module
        import deltalift.graph as graph_module
        import deltalift.normalize as normalize_module

        b = GraphBuilder()
        x = b.input("x", (4,))
        h = b.tanh("h", b.affine("fc", x, rng.normal(size=(5, 4)), rng.normal(size=5)))
        pre = b.affine("pre", h, rng.normal(size=(3, 5)), rng.normal(size=3))
        b.softmax("out", pre)
        g = b.build(outputs=["out"])
        x0 = {"x": rng.normal(size=4)}
        reference = compute_reference(g, x0)
        probes = [{"x": rng.normal(size=4)} for _ in range(3)]
        fresh = [deeplift(g, p, x0, target=("pre", 1)) for p in probes]
        deeplift(g, probes[0], target=("pre", 1), reference=reference)

        calls = []
        for module, name in [(normalize_module, "mean_normalize_softmax_weights"),
                             (graph_module, "validate_graph"),
                             (engine_module, "compute_reference")]:
            real = getattr(module, name)
            monkeypatch.setattr(
                module, name,
                lambda *a, _real=real, _name=name, **k: calls.append(_name) or _real(*a, **k),
            )
        for probe, expected in zip(probes, fresh):
            report = deeplift(g, probe, target=("pre", 1), reference=reference)
            assert_allclose(report.contributions["x"], expected.contributions["x"],
                            rtol=0, atol=1e-12)
            assert report.delta_target == pytest.approx(expected.delta_target)
        assert calls == []


class TestTargetSelection:
    def test_sigmoid_head_targets_pre_activation(self, rng):
        b = GraphBuilder()
        x = b.input("x", (2,))
        pre = b.affine("pre", x, rng.normal(size=(1, 2)), np.zeros(1))
        b.sigmoid("out", pre)
        g = b.build(outputs=["out"])
        assert select_attribution_target(g) == ("pre", 0)

    def test_softmax_head_uses_predicted_class(self, rng):
        b = GraphBuilder()
        x = b.input("x", (2,))
        pre = b.affine("pre", x, rng.normal(size=(3, 2)), np.zeros(3))
        b.softmax("out", pre)
        g = b.build(outputs=["out"])
        tr = forward(g, {"x": np.array([1.0, -0.5])})
        node, index = select_attribution_target(g, trace=tr)
        assert node == "pre"
        assert index == int(np.argmax(tr["out"]))
        assert select_attribution_target(g, ("pre", 2)) == ("pre", 2)
        with pytest.raises(AttributionError, match="forward trace.*explicit"):
            select_attribution_target(g)

    def test_explicit_hidden_target_honored(self, rng):
        case = random_graph_case(rng)
        hidden = [nid for nid in case.graph.nodes
                  if case.graph.nodes[nid].kind != "input"][0]
        assert select_attribution_target(case.graph, (hidden, 0)) == (hidden, 0)

    def test_headless_graph_requires_explicit_target(self, rng):
        b = GraphBuilder()
        x = b.input("x", (2,))
        b.affine("y", x, rng.normal(size=(2, 2)), np.zeros(2))
        g = b.build(outputs=["y"])
        with pytest.raises(AttributionError, match="explicit"):
            select_attribution_target(g)

    def test_an_unresolvable_target_is_refused_before_any_forward(self, rng, monkeypatch):
        """Every method, whether it traces the target's ancestors or every
        node, refuses an automatic target on a graph without a head and a
        target node the graph lacks without running a forward pass."""
        import deltalift.engine as engine_module

        calls = []
        monkeypatch.setattr(
            engine_module, "forward",
            lambda *a, _real=forward, **k: calls.append(1) or _real(*a, **k),
        )
        b = GraphBuilder()
        x = b.input("x", (2,))
        b.sigmoid("out", b.affine("pre", x, rng.normal(size=(3, 2)), np.zeros(3)))
        g = b.build(outputs=["out"])
        inputs = {"x": rng.normal(size=(4, 2))}
        methods = [lambda target, method=method: attribute(g, inputs, method, target=target)
                   for method in METHODS]
        methods.append(lambda target: lrp_epsilon(g, inputs, target=target))
        for call in methods:
            with pytest.raises(AttributionError, match="automatic target selection "
                                                       "needs one output"):
                call(None)
            with pytest.raises(GraphError, match="target node 'nope' does not exist"):
                call(("nope", 0))
        with pytest.raises(AttributionError, match="explicit"):
            fixed_target_node(g)
        with pytest.raises(GraphError, match="does not exist"):
            fixed_target_node(g, "nope")
        assert calls == []
        assert fixed_target_node(g, ("pre", 2)) == "pre"


class TestRedundantInputsHead:
    """Additive features behind a saturating head: contributions to the
    squashed output shrink as redundant features pile up, while the
    pre-activation target keeps them at full scale."""

    def _graph(self):
        b = GraphBuilder()
        x = b.input("x", (2,))
        s = b.affine("s", x, [[1.0, 1.0]], [0.0])
        b.sigmoid("t", s)
        return b.build(outputs=["t"])

    def test_one_active_feature(self):
        g = self._graph()
        report = deeplift(g, {"x": np.array([100.0, 0.0])}, target=("t", 0))
        assert_allclose(report.contributions["x"], [0.5, 0.0], atol=1e-9)

    def test_two_active_features_attenuate(self):
        g = self._graph()
        report = deeplift(g, {"x": np.array([100.0, 100.0])}, target=("t", 0))
        assert_allclose(report.contributions["x"], [0.25, 0.25], atol=1e-9)

    def test_pre_activation_target_avoids_attenuation(self):
        g = self._graph()
        for point in ([100.0, 0.0], [100.0, 100.0]):
            report = deeplift(g, {"x": np.array(point)})  # auto: pre-sigmoid
            assert report.target == ("s", 0)
            assert_allclose(report.contributions["x"][0], 100.0, atol=1e-9)


class TestPiecewiseLinearEquivalence:
    def test_zero_bias_zero_reference_matches_gradient_times_input(self):
        # relu/maxpool/affine nets with zero bias and zero reference:
        # every reference activation is 0, so multipliers collapse to
        # gradients away from kinks
        rng = np.random.default_rng(11)
        checked = 0
        for _ in range(40):
            case = random_graph_case(rng, piecewise_linear_only=True,
                                     zero_bias=True, with_head=False)
            inputs = case.inputs
            report = deeplift(case.graph, inputs, zeros_reference(case.graph),
                              target=case.target)
            tr = forward(case.graph, inputs)
            grads = backward(tr, case.target)
            gi = grads["x"] * inputs["x"]
            if np.min(np.abs(tr["x"])) < 1e-6:
                continue  # skip near-kink draws
            assert_allclose(report.contributions["x"], gi, atol=1e-9)
            checked += 1
        assert checked >= 30


class TestAttributeDispatch:
    def test_each_method_matches_its_direct_call(self):
        g, inputs = random_relu_mlp(np.random.default_rng(3))
        target = ("head", 0)
        reference = compute_reference(g, {"x": np.full(g.nodes["x"].output_shape, 0.5)})
        direct = {
            "deeplift": deeplift(g, inputs, target=target, reference=reference),
            "grad_input": gradient_times_input(
                g, inputs, target=target, reference=reference.reference_input),
            "lrp": lrp_as_contribution_report(
                g, inputs, lrp_epsilon(g, inputs, target=target, epsilon=1e-4)),
        }
        for method, expected in direct.items():
            report = attribute(g, inputs, method, reference=reference, target=target,
                               lrp_epsilon=1e-4)
            assert report.method == method
            assert np.array_equal(report.contributions["x"], expected.contributions["x"])
            assert report.delta_target == expected.delta_target

    def test_unknown_method_rejected(self):
        g, inputs = random_relu_mlp(np.random.default_rng(3))
        with pytest.raises(AttributionError, match="unknown method"):
            attribute(g, inputs, "saliency", target=("head", 0))


class TestInvalidStabilizer:
    """DeepLIFT's stabilizer is the constant EPS_STABLE: no eps_stable
    value is taken, bad or good."""

    VALUES = [float("nan"), float("inf"), -float("inf"), -1e-7, "1e-7", True, EPS_STABLE]

    @pytest.mark.parametrize("value", VALUES)
    def test_deeplift_and_propagation_reject(self, rng, value):
        g, inputs = random_relu_mlp(rng)
        with pytest.raises(TypeError, match="eps_stable"):
            deeplift(g, inputs, target=("head", 0), eps_stable=value)
        reference = compute_reference(g, zeros_reference(g))
        with pytest.raises(TypeError, match="positional arguments"):
            propagate_multipliers(forward(g, inputs), reference, ("head", 0), value)
        with pytest.raises(TypeError, match="eps_stable"):
            attribute(g, inputs, "deeplift", target=("head", 0), eps_stable=value)
