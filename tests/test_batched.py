"""Batched forward, gradient sweep, training and attribution agree with
per-sample runs.

A batch stacks samples along a leading axis and runs the same per-kind
rules as one sample.  Matrix products of a batch sum in another order,
so batched results are compared to per-sample ones within 1e-12
relative, not bitwise.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from deltalift.autodiff import vjp_sweep
from deltalift.baselines import (
    gradient_times_input,
    lrp_as_contribution_report,
    lrp_epsilon,
)
from deltalift.engine import (
    compute_reference,
    deeplift,
    maxout_segments,
    zeros_reference,
)
from deltalift.genomics import (
    DatasetSpec,
    auroc,
    build_genomics_cnn,
    encode_dataset,
    generate_dataset,
)
from deltalift.graph import Graph, GraphBuilder, GraphError, NodeSpec, forward
from deltalift.normalize import attribution_model
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


@pytest.mark.parametrize("size", [1, 5, 33])
def test_train_step_on_paper_cnn_off_the_filter_gradient_block(size):
    # the filter gradient sums whole-sample blocks of the im2col rows;
    # these sizes leave a partial last block
    data = generate_dataset(DatasetSpec(n_train=size + size % 2, n_val=0, n_test=0,
                                        seed=5))
    check_train_step(build_genomics_cnn(seed=5), encode_dataset(data.train[:size]))


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


# ---------------------------------------------------------------------------
# Attribution: deeplift, grad*input and epsilon-LRP on a batch equal the
# per-sample calls stacked, and each row conserves on its own.


def attribution_cases(n_cases=60, seed=606, **kwargs):
    rng = np.random.default_rng(seed)
    return [random_graph_case(rng, **kwargs) for _ in range(n_cases)]


MOVED = 2


def attribution_batch(case, rng, size=6):
    """The case's input, the reference itself (every rule takes its
    |delta| <= eps_stable fallback), the reference with one feature moved
    (row MOVED: some units fall back, others do not), and random draws."""
    x, x0 = case.inputs["x"], case.reference["x"]
    moved = x0.copy()
    moved.flat[0] = x.flat[0]
    draws = rng.normal(size=(size - 3,) + x.shape)
    return np.concatenate([np.stack([x, x0, moved]), draws])


def assert_report_rows(batched, singles, near_reference=()):
    """Every array and per-sample value of ``batched`` equals the stacked
    ``singles`` within RTOL of its largest entry over the batch.

    Rows listed in ``near_reference`` sit close to the reference, where
    DeepLIFT's rescale multipliers divide differences close to zero: a
    unit with |delta| ~ 1e-5 turns the one-ulp differences of batched sums
    into ~1e-11 relative.  Their multipliers are held to 1e-9 relative;
    their contributions, which multiply by that delta again, are not.
    """
    assert batched.batch == len(singles)
    for name in ("contributions", "multipliers", "deltas"):
        for nid, arr in getattr(batched, name).items():
            expected = np.stack([getattr(s, name)[nid] for s in singles])
            if name == "multipliers" and near_reference:
                scale = np.max(np.abs(expected))
                loose = list(near_reference)
                assert np.max(np.abs(arr[loose] - expected[loose])) <= 1e-9 * scale
                arr, expected = np.delete(arr, loose, 0), np.delete(expected, loose, 0)
            assert_close_relative(arr, expected)
    assert_close_relative(batched.delta_target,
                          np.array([s.delta_target for s in singles]))
    for i, single in enumerate(singles):
        row = batched.sample(i)
        assert row.target == single.target
        assert row.method == single.method
        assert row.residual == batched.residual[i]


def assert_conserves(report):
    bound = np.maximum(1e-9, 1e-6 * np.abs(report.delta_target))
    assert np.all(report.residual <= bound), (report.residual, report.delta_target)


def test_batched_deeplift_and_grad_input_equal_stacked_calls():
    rng = np.random.default_rng(6)
    kinds, split_classes = set(), 0
    for case in attribution_cases():
        kinds |= case.kinds
        xs = attribution_batch(case, rng)
        head = case.graph.nodes[case.graph.outputs[0]].kind
        # headed graphs choose their own target: per row for softmax
        target = None if head in ("sigmoid", "softmax") else case.target
        dl = deeplift(case.graph, {"x": xs}, case.reference, target=target)
        assert_report_rows(dl, [deeplift(case.graph, {"x": x}, case.reference,
                                         target=target) for x in xs],
                           near_reference=[MOVED])
        assert_conserves(dl)
        gi = gradient_times_input(case.graph, {"x": xs}, target=target,
                                  reference=case.reference)
        assert_report_rows(gi, [gradient_times_input(case.graph, {"x": x}, target=target,
                                                     reference=case.reference)
                                for x in xs])
        if head == "softmax":
            split_classes += len(set(dl.target[1])) > 1
    assert TRAINABLE_KINDS <= kinds, TRAINABLE_KINDS - kinds
    assert split_classes >= 3


def test_batched_lrp_equals_stacked_calls():
    rng = np.random.default_rng(7)
    for case in attribution_cases(n_cases=30, seed=707, piecewise_linear_only=True):
        xs = attribution_batch(case, rng)
        rel = lrp_epsilon(case.graph, {"x": xs}, target=case.target)
        singles = [lrp_epsilon(case.graph, {"x": x}, target=case.target) for x in xs]
        for nid in case.graph.nodes:
            assert_close_relative(rel[nid], np.stack([s[nid] for s in singles]))
        for nid, absorbed in rel.bias_relevance.items():
            assert_close_relative(absorbed, np.array([s.bias_relevance.get(nid, 0.0) for s in singles]))
        report = lrp_as_contribution_report(case.graph, {"x": xs}, rel)
        assert_report_rows(report, [lrp_as_contribution_report(case.graph, {"x": x}, s)
                                    for x, s in zip(xs, singles)])


def test_per_sample_targets_of_a_batch():
    b = GraphBuilder()
    x = b.input("x", (3,))
    b.affine("y", b.tanh("h", b.affine("fc", x, np.eye(3), np.ones(3))),
             np.arange(12.0).reshape(4, 3) - 5.0, np.zeros(4))
    g = b.build(outputs=["y"])
    xs = np.random.default_rng(8).normal(size=(4, 3))
    report = deeplift(g, {"x": xs}, target=("y", np.array([3, 0, 2, 0])))
    assert_report_rows(report, [deeplift(g, {"x": x}, target=("y", k))
                                for x, k in zip(xs, [3, 0, 2, 0])])
    with pytest.raises(GraphError, match=r"^target index 4 \(sample 2 of the batch\) "
                                         r"out of range for node 'y' with 4 elements$"):
        deeplift(g, {"x": xs}, target=("y", np.array([0, 1, 4, 5])))
    with pytest.raises(GraphError, match=r"^target index 5 \(sample 0 of the batch\) "):
        deeplift(g, {"x": xs}, target=("y", 5))
    with pytest.raises(GraphError, match=r"^target index -1 \(sample 1 "):
        deeplift(g, {"x": xs}, target=("y", np.array([0, -1, 9, 0])))
    with pytest.raises(GraphError, match="one target index or 4"):
        deeplift(g, {"x": xs}, target=("y", np.array([0, 1])))


def test_max_pool_reroute_in_a_batch():
    # row 0's pool argmax sits at its reference value, so the window's
    # delta reroutes to the member that moved
    b = GraphBuilder()
    b.affine("o", b.maxpool1d("p", b.input("x", (2,)), 2, 2), [[2.0]], [0.5])
    g = b.build(outputs=["o"])
    ref = {"x": np.array([1.0, 5.0])}
    xs = np.array([[1.0, 0.0], [3.0, 2.0], [1.0, 5.0], [0.0, 0.5]])
    report = deeplift(g, {"x": xs}, ref, target=("o", 0))
    assert_allclose(report.contributions["x"][0], [0.0, -8.0])
    assert_report_rows(report, [deeplift(g, {"x": x}, ref, target=("o", 0)) for x in xs])
    assert_conserves(report)


def test_maxout_batch_with_ragged_segment_counts():
    # unit 0 has pieces x, 2x - 1 and 3x - 3 (crossings at x = 1 and 2):
    # from reference 0 the rows cross 0, 1 and 2 of them, and row 3 sits
    # at the reference itself
    w = np.array([[[1.0], [0.5]], [[2.0], [-1.0]], [[3.0], [2.0]]])
    bias = np.array([[0.0, 0.3], [-1.0, -0.2], [-3.0, 0.1]])
    b = GraphBuilder()
    b.affine("o", b.maxout("m", b.input("x", (1,)), w, bias), [[1.0, -0.5]], [0.2])
    g = b.build(outputs=["o"])
    ref = {"x": np.zeros(1)}
    xs = np.array([[0.5], [1.5], [3.0], [0.0], [-2.0]])
    share = maxout_segments(g.nodes["m"], ref["x"], xs)[:, 0]
    counts = (share > 0).sum(axis=-1)
    assert counts[:4].tolist() == [1, 2, 3, 1]
    report = deeplift(g, {"x": xs}, ref, target=("o", 0))
    assert_report_rows(report, [deeplift(g, {"x": x}, ref, target=("o", 0)) for x in xs])
    assert_conserves(report)


def test_batched_reference_pairs_rows():
    # a reference computed from a batch attributes row i against
    # reference row i, as the single call with that pair does
    rng = np.random.default_rng(10)
    kinds = set()
    for case in attribution_cases(n_cases=120, seed=1010):
        kinds |= case.kinds
        shape = case.inputs["x"].shape
        xs, x0s = rng.normal(size=(2, 4) + shape)
        head = case.graph.nodes[case.graph.outputs[0]].kind
        target = None if head in ("sigmoid", "softmax") else case.target
        paired = deeplift(case.graph, {"x": xs},
                          reference=compute_reference(case.graph, {"x": x0s}),
                          target=target)
        for i in range(len(xs)):
            single = deeplift(case.graph, {"x": xs[i]}, {"x": x0s[i]}, target=target)
            row = paired.sample(i)
            assert row.target == single.target
            for name in ("contributions", "multipliers", "deltas"):
                expected = getattr(single, name)["x"]
                scale = max(np.max(np.abs(expected)), 1e-300)
                assert np.max(np.abs(getattr(row, name)["x"] - expected)) <= 1e-10 * scale
            assert row.delta_target == pytest.approx(single.delta_target, rel=1e-10, abs=1e-300)
        assert_conserves(paired)
    assert TRAINABLE_KINDS <= kinds, TRAINABLE_KINDS - kinds


def relu_twin(graph):
    """The graph with every PReLU replaced by a ReLU, for LRP."""
    nodes = [NodeSpec(n.id, "relu", n.inputs, n.output_shape) if n.kind == "prelu" else n
             for n in graph.nodes.values()]
    return Graph(nodes, graph.outputs, graph.constraint_groups)


def test_batched_attribution_on_paper_cnn():
    data = generate_dataset(DatasetSpec(n_train=0, n_val=0, n_test=6, seed=9))
    xs = np.stack([x for x, _ in encode_dataset(data.test)])
    cnn = build_genomics_cnn(seed=9)
    reference = compute_reference(attribution_model(cnn), zeros_reference(cnn))
    dl = deeplift(cnn, {"seq": xs}, reference=reference)
    assert_conserves(dl)
    gi = gradient_times_input(cnn, {"seq": xs})
    twin = relu_twin(cnn)
    lrp = lrp_as_contribution_report(twin, {"seq": xs}, lrp_epsilon(twin, {"seq": xs}))
    for batched, single in [
        (dl, lambda x: deeplift(cnn, x, reference=reference)),
        (gi, lambda x: gradient_times_input(cnn, x)),
        (lrp, lambda x: lrp_as_contribution_report(twin, x, lrp_epsilon(twin, x))),
    ]:
        singles = [single({"seq": x}) for x in xs]
        for name in ("contributions", "multipliers", "deltas"):
            assert_close_relative(getattr(batched, name)["seq"],
                                  np.stack([getattr(s, name)["seq"] for s in singles]))
        assert_close_relative(batched.delta_target, np.array([s.delta_target for s in singles]))
        assert [batched.sample(i).target for i in range(len(xs))] == [("logit", 0)] * len(xs)


def test_attribution_rejects_wrong_trailing_shape():
    b = GraphBuilder()
    b.affine("o", b.relu("r", b.affine("h", b.input("x", (3,)), np.eye(3), np.ones(3))),
             np.ones((1, 3)), np.zeros(1))
    g = b.build(outputs=["o"])
    xs = {"x": np.ones((4, 2))}
    for call in (lambda: deeplift(g, xs, target="o"),
                 lambda: gradient_times_input(g, xs, target="o"),
                 lambda: lrp_epsilon(g, xs, target="o")):
        with pytest.raises(GraphError, match="expects shape"):
            call()


def test_batch_of_no_samples_rejected():
    b = GraphBuilder()
    b.affine("o", b.relu("r", b.affine("h", b.input("x", (3,)), np.eye(3), np.ones(3))),
             np.ones((1, 3)), np.zeros(1))
    g = b.build(outputs=["o"])
    xs = {"x": np.ones((0, 3))}
    for call in (lambda: forward(g, xs),
                 lambda: deeplift(g, xs, target="o"),
                 lambda: gradient_times_input(g, xs, target="o"),
                 lambda: lrp_epsilon(g, xs, target="o")):
        with pytest.raises(GraphError, match="at least one sample"):
            call()
    with pytest.raises(GraphError, match="at least one sample"):
        forward(two_input_graph(), {"a": np.ones((0, 3)), "b": np.ones((0, 3))})
