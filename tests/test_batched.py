"""Batched forward, gradient sweep and training agree with per-sample runs.

A batch stacks samples along a leading axis and runs the same per-kind
rules as one sample.  Matrix products of a batch sum in another order,
so batched results are compared to per-sample ones within 1e-12
relative, not bitwise.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from deltalift.autodiff import vjp_sweep
from deltalift.genomics import (
    DatasetSpec,
    auroc,
    build_genomics_cnn,
    encode_dataset,
    generate_dataset,
)
from deltalift.graph import GraphBuilder, GraphError, forward
from deltalift.train import EVAL_CHUNK, TrainConfig, evaluate, train_step

from graphgen import random_graph_case

RTOL = 1e-12
TRAINABLE_KINDS = {"affine", "conv1d", "maxpool1d", "relu", "prelu", "sigmoid",
                   "tanh", "maxout", "product", "softmax"}


def headed_cases(n_cases=40, seed=404):
    """Random graphs with a sigmoid or softmax head, covering every kind."""
    rng = np.random.default_rng(seed)
    cases = []
    while len(cases) < n_cases:
        case = random_graph_case(rng)
        if case.graph.outputs == ("head",):
            cases.append(case)
    kinds = set().union(*(c.kinds for c in cases))
    assert TRAINABLE_KINDS <= kinds, TRAINABLE_KINDS - kinds
    return cases


def labelled_batch(case, rng, size):
    shape = case.graph.nodes["x"].output_shape
    n_classes = case.graph.nodes["head"].output_shape[0]
    return [({"x": rng.normal(size=shape)}, i % max(n_classes, 2))
            for i in range(size)]


def as_inputs(graph, x):
    return x if isinstance(x, dict) else {graph.input_ids()[0]: x}


def per_sample_loss_and_grads(graph, batch):
    """The summed loss and parameter gradients, one sweep per sample."""
    head = graph.nodes[graph.outputs[0]]
    pre = head.inputs[0]
    total = 0.0
    summed = {}
    for x, label in batch:
        trace = forward(graph, as_inputs(graph, x))
        z, y = trace[pre], trace[head.id]
        if head.kind == "sigmoid":
            total += np.logaddexp(0.0, z[0]) - label * z[0]
            seed = y - label
        else:
            total += np.logaddexp.reduce(z) - z[label]
            seed = y.copy()
            seed[label] -= 1.0
        _, pgrads = vjp_sweep(graph, trace, {pre: seed}, want_param_grads=True)
        for nid, arrs in pgrads.items():
            for key, g in arrs.items():
                summed.setdefault(nid, {}).setdefault(key, 0.0)
                summed[nid][key] = summed[nid][key] + g
    return total, summed


def assert_close_relative(actual, expected):
    scale = max(np.max(np.abs(expected)), 1e-300)
    assert np.max(np.abs(actual - expected)) <= RTOL * scale


def check_train_step(graph, batch):
    # with lr 1, no momentum and no decay, the new velocity is -mean(grad)
    config = TrainConfig(learning_rate=1.0, momentum=0.0, weight_decay=0.0)
    _, velocity, loss = train_step(graph, batch, config, None)
    total, summed = per_sample_loss_and_grads(graph, batch)
    assert loss == pytest.approx(total / len(batch), rel=RTOL)
    for nid, arrs in velocity.items():
        for key, v in arrs.items():
            expected = summed.get(nid, {}).get(key, np.zeros_like(v))
            assert_close_relative(-v * len(batch), expected)


def test_batched_forward_equals_stacked_single_traces():
    rng = np.random.default_rng(1)
    for case in headed_cases():
        batch = labelled_batch(case, rng, 5)
        stacked = forward(case.graph, {"x": np.stack([x["x"] for x, _ in batch])})
        assert stacked.batch == 5
        singles = [forward(case.graph, x) for x, _ in batch]
        assert singles[0].batch is None
        for nid in case.graph.nodes:
            expected = np.stack([t[nid] for t in singles])
            assert stacked[nid].shape == expected.shape
            assert_allclose(stacked[nid], expected, rtol=RTOL, atol=1e-14)


def test_batched_gradient_sweep_keeps_per_sample_gradients():
    rng = np.random.default_rng(2)
    for case in headed_cases(n_cases=15):
        xs = rng.normal(size=(4,) + case.graph.nodes["x"].output_shape)
        seeds = rng.normal(size=(4,) + case.graph.nodes["head"].output_shape)
        grads, _ = vjp_sweep(case.graph, forward(case.graph, {"x": xs}),
                             {"head": seeds})
        for i in range(4):
            single, _ = vjp_sweep(case.graph, forward(case.graph, {"x": xs[i]}),
                                  {"head": seeds[i]})
            for nid in case.graph.nodes:
                assert_allclose(grads[nid][i], single[nid], rtol=RTOL, atol=1e-14)


def test_train_step_matches_summed_per_sample_sweeps_on_random_graphs():
    rng = np.random.default_rng(3)
    for case in headed_cases():
        check_train_step(case.graph, labelled_batch(case, rng, 6))


def test_train_step_matches_summed_per_sample_sweeps_on_paper_cnn():
    data = generate_dataset(DatasetSpec(n_train=8, n_val=0, n_test=0, seed=3))
    batch = encode_dataset(data.train)  # bare arrays, not dicts
    check_train_step(build_genomics_cnn(seed=3), batch)


def test_evaluate_matches_per_sample_loop():
    rng = np.random.default_rng(4)
    cases = headed_cases(n_cases=10)
    data = generate_dataset(DatasetSpec(n_train=0, n_val=EVAL_CHUNK + 8,
                                        n_test=0, length=60, seed=4))
    cnn = build_genomics_cnn(length=60, pool_width=10, pool_stride=10,
                             dense_units=12, seed=4)
    runs = [(c.graph, labelled_batch(c, rng, 12)) for c in cases]
    runs.append((cnn, encode_dataset(data.val)))
    for graph, dataset in runs:
        dataset = [(x, label % 2) for x, label in dataset]
        head = graph.nodes[graph.outputs[0]]
        losses, scores = [], []
        for x, label in dataset:
            trace = forward(graph, as_inputs(graph, x))
            z = trace[head.inputs[0]]
            if head.kind == "sigmoid":
                losses.append(np.logaddexp(0.0, z[0]) - label * z[0])
            else:
                losses.append(np.logaddexp.reduce(z) - z[label])
            scores.append(trace[head.id][-1])
        loss, roc = evaluate(graph, dataset)
        assert loss == pytest.approx(np.mean(losses), rel=RTOL)
        assert roc == auroc(scores, [label for _, label in dataset])


def two_input_graph():
    b = GraphBuilder()
    b.product("p", b.input("a", (3,)), b.input("b", (3,)))
    return b.build(outputs=["p"])


def test_batch_with_wrong_trailing_shape_rejected():
    g = two_input_graph()
    with pytest.raises(GraphError, match="expects shape"):
        forward(g, {"a": np.ones((4, 2)), "b": np.ones((4, 3))})


def test_inputs_with_different_batch_sizes_rejected():
    g = two_input_graph()
    with pytest.raises(GraphError, match="batch size"):
        forward(g, {"a": np.ones((4, 3)), "b": np.ones((5, 3))})
    with pytest.raises(GraphError, match="batch size"):
        forward(g, {"a": np.ones((4, 3)), "b": np.ones(3)})


def test_train_step_rejects_samples_of_mixed_shapes():
    b = GraphBuilder()
    b.sigmoid("prob", b.affine("logit", b.input("x", (2,)), [[1.0, -1.0]], [0.0]))
    g = b.build(outputs=["prob"])
    batch = [({"x": np.ones(2)}, 1), ({"x": np.ones(3)}, 0)]
    with pytest.raises(GraphError):
        train_step(g, batch, TrainConfig(), None)


def test_parameter_gradients_match_central_differences():
    # an oracle independent of the sweep: the batch loss's numeric slope
    # in every parameter entry
    rng = np.random.default_rng(5)
    h = 1e-6
    config = TrainConfig(learning_rate=1.0, momentum=0.0, weight_decay=0.0)
    for case in headed_cases(n_cases=20, seed=505):
        batch = [(x, label % 2) for x, label in labelled_batch(case, rng, 4)]
        _, velocity, _ = train_step(case.graph, batch, config, None)
        for nid, arrs in velocity.items():
            for key, v in arrs.items():
                base = case.graph.nodes[nid].params[key]
                for i in range(base.size):
                    step = np.zeros(base.size)
                    step[i] = h
                    step = step.reshape(base.shape)
                    up = case.graph.replace_params({nid: {key: base + step}})
                    down = case.graph.replace_params({nid: {key: base - step}})
                    numeric = (evaluate(up, batch)[0] - evaluate(down, batch)[0]) / (2 * h)
                    analytic = -v.flat[i]
                    assert abs(analytic - numeric) <= 1e-5 * max(1.0, abs(numeric)), \
                        (case.kinds, nid, key, i, analytic, numeric)
