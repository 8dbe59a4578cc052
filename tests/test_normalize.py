"""Output-preserving weight normalization passes, and the attribution
model they make."""

import gc
import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose

from deltalift.baselines import gradient_times_input, lrp_as_contribution_report, lrp_epsilon
from deltalift.engine import (
    METHODS,
    attribute,
    compute_reference,
    deeplift,
    propagate_multipliers,
)
from deltalift.graph import ConstraintGroup, Graph, GraphBuilder, forward
from deltalift.normalize import (
    NormalizationError,
    attribution_model,
    mean_normalize_softmax_weights,
    normalize_constrained_weights,
)
from deltalift.genomics import build_genomics_cnn, one_hot_encode


def softmax_head_graph(weights, bias=None):
    weights = np.asarray(weights, dtype=float)
    n_classes, in_dim = weights.shape
    b = GraphBuilder()
    x = b.input("x", (in_dim,))
    pre = b.affine("pre", x, weights, np.zeros(n_classes) if bias is None else bias)
    b.softmax("out", pre)
    return b.build(outputs=["out"])


class TestSoftmaxMeanNormalization:
    def test_uniform_weights_zeroed(self, rng):
        g = softmax_head_graph([[5.0, 1.0], [5.0, 3.0]])
        gn = mean_normalize_softmax_weights(g)
        w = gn.nodes["pre"].params["weights"]
        assert_allclose(w[:, 0], [0.0, 0.0])
        for _ in range(20):
            x = rng.normal(size=2)
            assert_allclose(
                forward(g, {"x": x})["out"], forward(gn, {"x": x})["out"],
                atol=1e-15,
            )

    def test_mean_subtraction_values(self):
        g = softmax_head_graph([[1.0], [3.0]])
        gn = mean_normalize_softmax_weights(g)
        assert_allclose(gn.nodes["pre"].params["weights"], [[-1.0], [1.0]])

    def test_ten_class_head_outputs_preserved(self, rng):
        w = rng.normal(size=(10, 6)) * 3
        g = softmax_head_graph(w, rng.normal(size=10))
        gn = mean_normalize_softmax_weights(g)
        worst = 0.0
        for _ in range(100):
            x = rng.normal(size=6) * 2
            before = forward(g, {"x": x})["out"]
            after = forward(gn, {"x": x})["out"]
            worst = max(worst, np.abs(before - after).max())
        assert worst < 1e-12

    def test_class_uniform_feature_multiplier_exactly_zero(self, rng):
        w = rng.normal(size=(4, 3))
        w[:, 1] = 2.5  # feature 1 feeds all classes equally
        g = softmax_head_graph(w)
        gn = mean_normalize_softmax_weights(g)
        tr = forward(gn, {"x": rng.normal(size=3)})
        ref = compute_reference(gn, {"x": np.zeros(3)})
        for cls in range(4):
            mm = propagate_multipliers(gn, tr, ref, ("pre", cls))
            assert mm["x"][1] == 0.0

    def test_requires_affine_softmax_head(self, rng):
        b = GraphBuilder()
        x = b.input("x", (2,))
        b.sigmoid("out", b.affine("pre", x, rng.normal(size=(1, 2)), np.zeros(1)))
        g = b.build(outputs=["out"])
        with pytest.raises(NormalizationError, match="softmax"):
            mean_normalize_softmax_weights(g)


class TestConstrainedNormalization:
    def test_single_column_hand_example(self):
        b = GraphBuilder()
        x = b.input("x", (4,))
        b.affine("y", x, [[1.0, 2.0, 3.0, 4.0]], [0.0])
        g = b.build(
            outputs=["y"],
            constraint_groups=[ConstraintGroup("x", (0, 1, 2, 3), 1.0)],
        )
        gn = normalize_constrained_weights(g)
        assert_allclose(gn.nodes["y"].params["weights"],
                        [[-1.5, -0.5, 0.5, 1.5]])
        assert_allclose(gn.nodes["y"].params["bias"], [2.5])
        for hot in range(4):
            x_hot = np.zeros(4)
            x_hot[hot] = 1.0
            assert_allclose(
                forward(g, {"x": x_hot})["y"], forward(gn, {"x": x_hot})["y"],
                atol=1e-15,
            )

    def test_already_centered_column_unchanged(self):
        b = GraphBuilder()
        x = b.input("x", (2,))
        b.affine("y", x, [[-1.0, 1.0]], [0.5])
        g = b.build(outputs=["y"],
                    constraint_groups=[ConstraintGroup("x", (0, 1), 1.0)])
        gn = normalize_constrained_weights(g)
        assert_allclose(gn.nodes["y"].params["weights"], [[-1.0, 1.0]])
        assert_allclose(gn.nodes["y"].params["bias"], [0.5])

    def test_genomics_conv_outputs_preserved_on_one_hot(self, rng):
        graph = build_genomics_cnn(length=30, pool_width=8, pool_stride=8,
                                   dense_units=12, seed=5)
        gn = normalize_constrained_weights(graph)
        worst = 0.0
        for _ in range(100):
            seq = "".join(rng.choice(list("ACGT"), size=30))
            x = one_hot_encode(seq)
            a = forward(graph, {"seq": x})["prob"]
            c = forward(gn, {"seq": x})["prob"]
            worst = max(worst, np.abs(a - c).max())
        assert worst < 1e-12

    def test_conv_reference_activation_is_bias_after_normalization(self):
        # all-zeros input into the normalized conv gives exactly the bias,
        # which equals the average activation over the four bases
        graph = build_genomics_cnn(length=30, pool_width=8, pool_stride=8,
                                   dense_units=12, seed=5)
        gn = normalize_constrained_weights(graph)
        ref = compute_reference(gn, {"seq": np.zeros((30, 4))})
        assert_allclose(ref["conv"], np.broadcast_to(
            gn.nodes["conv"].params["bias"], ref["conv"].shape))

    def test_group_on_weightless_consumer_rejected(self):
        b = GraphBuilder()
        x = b.input("x", (4,))
        b.relu("r", x)
        g = b.build(outputs=["r"],
                    constraint_groups=[ConstraintGroup("x", (0, 1, 2, 3), 1.0)])
        with pytest.raises(NormalizationError, match="no weights"):
            normalize_constrained_weights(g)

    @pytest.mark.parametrize("groups, message", [
        ([((0, 2), 1.0)], "constraint groups must each cover one full input row"),
        ([((0,), 1.0)], "constraint groups must each cover one full input row"),
        ([((2 * r, 2 * r + 1), 1.0) for r in range(4)],
         r"rows \[4\] seen by filter windows carry no constraint group"),
        ([((2 * r, 2 * r + 1), 1.0 + (r == 3)) for r in range(5)],
         r"all row groups must share one total, got \[1.0, 2.0\]"),
    ], ids=["two-rows", "part-row", "missing-row", "two-totals"])
    def test_conv_groups_that_cannot_be_applied_are_refused(self, rng, groups, message):
        b = GraphBuilder()
        x = b.input("x", (5, 2))
        b.conv1d("conv", x, rng.normal(size=(3, 2, 2)), np.zeros(3))
        g = b.build(outputs=["conv"], constraint_groups=[
            ConstraintGroup("x", indices, total) for indices, total in groups])
        with pytest.raises(NormalizationError, match=f"^conv1d 'conv': {message}"):
            normalize_constrained_weights(g)

    def test_no_groups_rejected(self, rng):
        b = GraphBuilder()
        x = b.input("x", (2,))
        b.affine("y", x, rng.normal(size=(1, 2)), np.zeros(1))
        g = b.build(outputs=["y"])
        with pytest.raises(NormalizationError, match="constraint"):
            normalize_constrained_weights(g)


def grouped_graph(rng, first="affine", head="softmax"):
    """x (one-hot over 4) -> ``first`` -> relu -> affine -> ``head``, with
    x's constant-sum group declared."""
    b = GraphBuilder()
    x = b.input("x", (4,))
    h = (b.affine("fc", x, rng.normal(size=(4, 4)), rng.normal(size=4))
         if first == "affine" else x)
    units = 3 if head == "softmax" else 1
    pre = b.affine("pre", b.relu("r", h), rng.normal(size=(units, 4)),
                   rng.normal(size=units))
    getattr(b, head)("out", pre)
    return b.build(outputs=["out"], constraint_groups=[ConstraintGroup("x", (0, 1, 2, 3), 1.0)])


def same_report(a, b):
    return (a.target == b.target and a.delta_target == b.delta_target
            and all(a.contributions[k].tobytes() == b.contributions[k].tobytes()
                    for k in a.contributions))


class TestAttributionModel:
    def test_both_passes_in_order_once_per_graph(self, rng):
        g = grouped_graph(rng)
        model = attribution_model(g)
        by_hand = mean_normalize_softmax_weights(normalize_constrained_weights(g))
        for node_id in ("fc", "pre"):
            for key, value in by_hand.nodes[node_id].params.items():
                assert model.nodes[node_id].params[key].tobytes() == value.tobytes()
        assert attribution_model(g) is model
        # the model is its own attribution model
        assert attribution_model(model) is model

    def test_every_method_explains_the_normalized_model(self, rng):
        g = grouped_graph(rng, head="sigmoid")
        x = {"x": np.eye(4)[2]}
        # the normalized weights in a graph that declares no groups, which
        # every method explains as given
        normalized = normalize_constrained_weights(g)
        plain = Graph(normalized.nodes.values(), normalized.outputs)
        for method in METHODS:
            assert same_report(attribute(g, x, method), attribute(plain, x, method))
        assert same_report(lrp_as_contribution_report(g, x, lrp_epsilon(g, x)),
                           attribute(plain, x, "lrp"))

    def test_a_group_that_cannot_be_applied_is_refused(self, rng):
        # the group's input feeds a relu, which has no weights to shift
        g = grouped_graph(rng, first="relu")
        x = {"x": np.eye(4)[1]}
        for call in (lambda: deeplift(g, x), lambda: gradient_times_input(g, x),
                     lambda: attribute(g, x, "lrp"), lambda: lrp_epsilon(g, x)):
            with pytest.raises(NormalizationError, match=r"'r' \(relu\), which has no"):
                call()

    def test_a_hand_normalized_graph_takes_the_pass_once_more(self, monkeypatch):
        """Nothing marks a graph as normalized: one that
        ``normalize_constrained_weights`` returns still declares its groups,
        so it is centred again, and its scores are the raw graph's up to
        round-off."""
        import deltalift.normalize as normalize_module

        graph = build_genomics_cnn(length=30, pool_width=8, pool_stride=8,
                                   dense_units=12, seed=5)
        x = {"seq": one_hot_encode("ACGTTGCA" * 3 + "GATACA")}
        normalized = normalize_constrained_weights(graph)
        calls = []
        real = normalize_module.normalize_constrained_weights
        monkeypatch.setattr(normalize_module, "normalize_constrained_weights",
                            lambda g: calls.append(g) or real(g))
        again = deeplift(normalized, x)
        assert calls == [normalized] and attribution_model(normalized) is not normalized
        raw = deeplift(graph, x)
        assert calls == [normalized, graph]
        assert again.target == raw.target
        scale = np.abs(raw.contributions["seq"]).max()
        assert_allclose(again.contributions["seq"], raw.contributions["seq"],
                        rtol=1e-12, atol=1e-12 * scale)
        deeplift(graph, x)
        deeplift(normalized, x)
        assert calls == [normalized, graph]

    def test_the_memo_keeps_no_cycle(self, rng):
        """A graph and its attribution model are freed at their last
        reference with the cyclic collector off."""
        collecting = gc.isenabled()
        gc.disable()
        try:
            g = grouped_graph(rng)
            model = weakref.ref(attribution_model(g))
            alive = weakref.ref(g)
            del g
            assert alive() is None and model() is None
        finally:
            if collecting:
                gc.enable()
