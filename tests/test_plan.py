"""Per-graph plans, sweep results made dense on read, and report-only
calls that evaluate only the target's ancestors.

The oracle is the public every-node path: a full ``forward`` trace,
``propagate_multipliers`` or ``backward`` over it, and ``contributions``
built from their results; for epsilon-LRP, ``vjp_sweep`` over that trace
under engine's LRP table.  The reports of ``deeplift``,
``gradient_times_input``, ``lrp_as_contribution_report`` and
``attribute(..., "lrp")`` must equal it byte for byte, and so must
``lrp_epsilon``'s relevance at every ancestor of the target.
"""

import numpy as np
import pytest

import deltalift.baselines as baselines
import deltalift.engine as engine
from deltalift.autodiff import (
    Routed,
    SweepValues,
    backward,
    target_seed,
    target_value,
    vjp_sweep,
)
from deltalift.baselines import (
    gradient_times_input,
    lrp_as_contribution_report,
    lrp_epsilon,
)
from deltalift.engine import (
    LRP_EPSILON,
    METHODS,
    _lrp_rules,
    attribute,
    compute_reference,
    contributions,
    deeplift,
    propagate_multipliers,
    select_attribution_target,
    zeros_reference,
)
from deltalift.genomics import build_genomics_cnn
from deltalift.graph import DenseOnRead, Graph, GraphBuilder, GraphError, NodeSpec, forward
from deltalift.normalize import (
    attribution_model,
    mean_normalize_softmax_weights,
)
from deltalift.train import TrainConfig, train_step

from graphgen import ancestors, random_graph_case


def identical(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def assert_same_report(got, want, what):
    assert got.target[0] == want.target[0], what
    assert identical(got.target[1], want.target[1]), what
    assert got.method == want.method, what
    for field in ("contributions", "multipliers", "deltas"):
        g, w = getattr(got, field), getattr(want, field)
        assert set(g) == set(w), (what, field)
        for nid in w:
            assert identical(g[nid], w[nid]), (what, field, nid)
    assert identical(got.delta_target, want.delta_target), what
    assert identical(got.residual, want.residual), what


def full_deeplift(graph, inputs, reference_input=None, target=None):
    """DeepLIFT's report from a trace of every node and the public sweep."""
    graph = attribution_model(graph)
    ref = compute_reference(graph, reference_input or zeros_reference(graph))
    trace = forward(graph, inputs)
    resolved = select_attribution_target(graph, target, trace)
    mult = propagate_multipliers(graph, trace, ref, resolved)
    return contributions(trace, ref, resolved, dict(mult))


def full_grad_input(graph, inputs, reference_input=None, target=None):
    """Gradient*input's report, on the same normalized head as DeepLIFT's."""
    graph = attribution_model(graph)
    ref = compute_reference(graph, reference_input or zeros_reference(graph))
    trace = forward(graph, inputs)
    resolved = select_attribution_target(graph, target, trace)
    return contributions(trace, ref, resolved, dict(backward(graph, trace, resolved)),
                         "grad_input")


def full_lrp(graph, inputs, target=None):
    """epsilon-LRP from a trace of every node: the trace, the resolved
    target and the multipliers of one sweep under engine's LRP table."""
    graph = attribution_model(graph)
    trace = forward(graph, inputs)
    resolved = select_attribution_target(graph, target, trace)
    seed = target_seed(graph.nodes[resolved[0]].output_shape, resolved[1])
    mult, _ = vjp_sweep(graph, trace, {resolved[0]: seed},
                        rules=_lrp_rules(LRP_EPSILON, DenseOnRead()))
    return trace, resolved, mult


def check_lrp(graph, inputs, target=None):
    relevance = lrp_epsilon(graph, inputs, target=target)
    trace, resolved, mult = full_lrp(graph, inputs, target)
    reached = ancestors(trace.graph, resolved[0])
    assert set(relevance.relevances) == set(graph.nodes)
    for nid in graph.nodes:
        want = trace[nid] * mult[nid]
        if nid in reached:
            assert identical(relevance[nid], want), nid
        else:
            assert relevance[nid].shape == want.shape and not relevance[nid].any(), nid
    report = lrp_as_contribution_report(graph, inputs, relevance)
    assert_same_report(report, contributions(trace, None, resolved, mult, "lrp"), target)
    # the report-only call equals the report built from the full trace
    assert_same_report(attribute(graph, inputs, "lrp", target=target), report, target)


def batch_of(shape, batch, rng):
    return rng.normal(size=shape if batch is None else (batch,) + shape)


# ---------------------------------------------------------------------------
# Report-only calls against the every-node path


def test_reports_equal_the_every_node_path_on_random_graphs():
    rng = np.random.default_rng(1515)
    seen = {"conv1d": 0, "maxpool1d": 0, "sigmoid head": 0, "softmax head": 0}
    for i in range(210):
        case = random_graph_case(rng, piecewise_linear_only=i % 3 == 2)
        graph = case.graph
        head = graph.nodes[graph.outputs[0]].kind
        seen["conv1d"] += "conv1d" in case.kinds
        seen["maxpool1d"] += "maxpool1d" in case.kinds
        seen[f"{head} head"] = seen.get(f"{head} head", 0) + 1
        # explicit targets, the head's own, and a softmax class fixed in advance
        targets = [case.target]
        if head in ("sigmoid", "softmax"):
            targets.append(None)
        if head == "softmax":
            targets.append(("pre_head", case.target[1]))
        for batch in (None, 1, 5):
            inputs = {"x": batch_of(graph.nodes["x"].output_shape, batch, rng)}
            for target in targets:
                what = (i, batch, target)
                assert_same_report(
                    deeplift(graph, inputs, case.reference, target=target),
                    full_deeplift(graph, inputs, case.reference, target), what)
                assert_same_report(
                    gradient_times_input(graph, inputs, target=target,
                                         reference=case.reference),
                    full_grad_input(graph, inputs, case.reference, target),
                    what)
            if i % 3 == 2:
                check_lrp(graph, inputs, case.target)
    assert seen["conv1d"] >= 60 and seen["maxpool1d"] >= 60, seen
    assert seen["sigmoid head"] >= 20 and seen["softmax head"] >= 20, seen


def relu_twin(graph):
    nodes = [NodeSpec(n.id, "relu", n.inputs, n.output_shape) if n.kind == "prelu" else n
             for n in graph.nodes.values()]
    return Graph(nodes, graph.outputs, graph.constraint_groups)


@pytest.fixture(scope="module")
def paper_cnn():
    cnn = build_genomics_cnn(seed=77)
    return cnn, relu_twin(cnn)


def one_hot(rng, batch, length=200):
    seqs = np.eye(4)[rng.integers(0, 4, size=(32 if batch is None else batch, length))]
    return seqs[0] if batch is None else seqs


@pytest.mark.parametrize("batch", [None, 1, 5, 8, 32])
def test_reports_equal_the_every_node_path_on_the_paper_cnn(paper_cnn, batch):
    cnn, twin = paper_cnn
    inputs = {"seq": one_hot(np.random.default_rng(batch or 0), batch)}
    for graph in (cnn, twin):
        assert_same_report(deeplift(graph, inputs), full_deeplift(graph, inputs), batch)
        assert_same_report(gradient_times_input(graph, inputs),
                           full_grad_input(graph, inputs), batch)
    check_lrp(twin, inputs)


@pytest.fixture
def recorded(monkeypatch):
    """Counts of ``Routed.dense`` calls, and every trace the attribution
    entry points evaluate."""
    seen = {"dense": 0, "traces": []}
    real_dense, real_forward = Routed.dense, forward

    def dense(self):
        seen["dense"] += 1
        return real_dense(self)

    def recording(*args, **kwargs):
        trace = real_forward(*args, **kwargs)
        seen["traces"].append(trace)
        return trace

    monkeypatch.setattr(Routed, "dense", dense)
    for module in (engine, baselines):
        monkeypatch.setattr(module, "forward", recording)
    return seen


@pytest.mark.parametrize("batch", [None, 8])
def test_paper_cnn_reports_form_no_dense_buffer_and_skip_the_sigmoid(
        paper_cnn, recorded, batch):
    cnn, _ = paper_cnn
    model = attribution_model(cnn)
    inputs = {"seq": one_hot(np.random.default_rng(5), batch)}
    reference = compute_reference(model, zeros_reference(cnn))
    gradient_times_input(cnn, inputs)  # evaluates the memoized zeros reference
    recorded["traces"].clear()
    deeplift(cnn, inputs, reference=reference)
    gradient_times_input(cnn, inputs)
    assert recorded["dense"] == 0
    assert len(recorded["traces"]) == 2
    for trace in recorded["traces"]:
        assert "logit" in trace.activations and "prob" not in trace.activations
    # the buffers below the pool stay routed in the sweep's result
    trace = forward(model, inputs, upto="logit")
    for values in (propagate_multipliers(model, trace, reference, "logit"),
                   backward(model, trace, "logit")):
        assert [type(dict.__getitem__(values, nid)) for nid in ("conv_act", "conv")] \
            == [Routed, Routed]
        assert type(dict.__getitem__(values, "prob")) is tuple
    assert recorded["dense"] == 0


def softmax_graph(rng):
    b = GraphBuilder()
    h = b.relu("h", b.affine("fc", b.input("x", (4,)), rng.normal(size=(5, 4)), np.zeros(5)))
    b.softmax("head", b.affine("pre", h, rng.normal(size=(3, 5)), np.zeros(3)))
    return b.build(outputs=["head"])


def test_a_softmax_head_is_never_evaluated(recorded):
    graph = softmax_graph(np.random.default_rng(9))
    x = {"x": np.random.default_rng(10).normal(size=(6, 4))}
    for call in (lambda **kw: deeplift(graph, x, **kw),
                 lambda **kw: gradient_times_input(graph, x, **kw),
                 lambda **kw: attribute(graph, x, "lrp", **kw),
                 lambda **kw: lrp_epsilon(graph, x, **kw)):
        call()  # evaluates the memoized zeros reference
        recorded["traces"].clear()
        call()  # the predicted class is read from the pre-activations
        assert [("head" in t.activations) for t in recorded["traces"]] == [False]
        recorded["traces"].clear()
        call(target=("pre", 2))
        assert [("head" in t.activations) for t in recorded["traces"]] == [False]


@pytest.mark.parametrize("batch", [None, 5])
@pytest.mark.parametrize("target", [None, ("pre", 1)], ids=["None", "1"])
def test_every_method_explains_the_normalized_softmax_logit(batch, target):
    rng = np.random.default_rng(16)
    graph = softmax_graph(rng)
    inputs = {"x": batch_of((4,), batch, rng)}
    reference = compute_reference(graph, {"x": rng.normal(size=4)})
    reports = {method: attribute(graph, inputs, method, reference=reference,
                                 target=target) for method in METHODS}
    t_node, t_index = reports["deeplift"].target
    assert t_node == "pre"
    for report in reports.values():
        assert report.target[0] == t_node and identical(report.target[1], t_index)
    assert identical(reports["grad_input"].delta_target, reports["deeplift"].delta_target)
    normalized = mean_normalize_softmax_weights(graph)
    logit = forward(normalized, inputs)["pre"]
    assert identical(reports["lrp"].delta_target, target_value(logit, t_index))
    ref_logit = forward(normalized, reference.reference_input)["pre"]
    assert np.allclose(reports["deeplift"].delta_target,
                       target_value(logit - ref_logit, t_index), rtol=0, atol=1e-12)


@pytest.mark.parametrize("batch", [None, 1, 5])
def test_reference_inputs_equal_their_computed_state(batch):
    rng = np.random.default_rng(23)
    heads = set()
    for i in range(40):
        case = random_graph_case(rng)
        graph = case.graph
        heads.add(graph.nodes[graph.outputs[0]].kind)
        inputs = {"x": batch_of(graph.nodes["x"].output_shape, batch, rng)}
        references = [case.reference]
        if batch:  # a batch of references pairs row-wise with the inputs
            references.append({"x": batch_of(graph.nodes["x"].output_shape, batch, rng)})
        for reference in references:
            state = compute_reference(graph, reference)  # before head normalization
            what = (i, batch)
            assert_same_report(deeplift(graph, inputs, reference, case.target),
                               deeplift(graph, inputs, state, case.target), what)
            assert_same_report(gradient_times_input(graph, inputs, case.target, reference),
                               gradient_times_input(graph, inputs, case.target, state), what)
            for method in ("deeplift", "grad_input"):
                assert_same_report(
                    attribute(graph, inputs, method, reference, case.target),
                    attribute(graph, inputs, method, state, case.target), what)
    assert {"softmax", "sigmoid"} <= heads
    for bad in ([np.zeros(3)], np.zeros(3), "zeros"):
        with pytest.raises(engine.AttributionError, match="ReferenceState or a dict"):
            deeplift(graph, inputs, bad, case.target)


@pytest.mark.parametrize("batch", [None, 1, 5])
def test_a_softmax_auto_target_is_the_full_forwards_argmax(batch):
    rng = np.random.default_rng(24)
    graphs = [(softmax_graph(rng), "pre", None)]
    while len(graphs) < 25:
        case = random_graph_case(rng)
        if case.graph.nodes[case.graph.outputs[0]].kind == "softmax":
            graphs.append((case.graph, "pre_head", case.reference))
    for i, (graph, pre, reference) in enumerate(graphs):
        inputs = {"x": batch_of(graph.nodes["x"].output_shape, batch, rng)}
        probs = forward(attribution_model(graph), inputs)[graph.outputs[0]]
        explicit = (pre, np.argmax(probs, axis=-1))
        # LRP supports the relu-only graph alone
        for method in METHODS if i == 0 else ("deeplift", "grad_input"):
            auto = attribute(graph, inputs, method, reference)
            assert_same_report(auto, attribute(graph, inputs, method, reference, explicit),
                               (i, method))
            assert identical(auto.target[1], np.asarray(explicit[1])), (i, method)
        if i == 0:
            rel = lrp_epsilon(graph, inputs)
            assert rel.target[0] == pre and identical(rel.target[1], auto.target[1])


def test_forward_upto_evaluates_the_ancestors_only():
    rng = np.random.default_rng(11)
    graph = softmax_graph(rng)
    x = {"x": rng.normal(size=4)}
    full = forward(graph, x)
    part = forward(graph, x, upto="h")
    assert set(part.activations) == {"x", "fc", "h"}
    for nid in part.activations:
        assert identical(part[nid], full[nid])
    assert set(forward(graph, x, upto="x").activations) == {"x"}
    with pytest.raises(GraphError, match="'nope' does not exist"):
        forward(graph, x, upto="nope")
    with pytest.raises(ValueError, match="non-finite"):
        forward(graph, {"x": np.array([0.0, np.nan, 1.0, 2.0])}, upto="h")


# ---------------------------------------------------------------------------
# The sweep's result mapping


def pooled_graph(rng):
    """x -> conv -> relu -> pool -> fc, plus a tanh branch off x that no
    target reaches."""
    b = GraphBuilder()
    x = b.input("x", (13, 3))
    act = b.relu("act", b.conv1d("conv", x, rng.normal(size=(4, 3, 3)), rng.normal(size=4)))
    b.affine("out", b.maxpool1d("pool", act, 4, 2), rng.normal(size=(2, 16)), np.zeros(2))
    b.tanh("dead", b.affine("dead_fc", x, rng.normal(size=(2, 39)), np.zeros(2)))
    return b.build(outputs=["out", "dead"])


@pytest.mark.parametrize("batch", [None, 3])
def test_sweep_values_are_dense_on_read_and_stable(batch):
    rng = np.random.default_rng(12)
    graph = pooled_graph(rng)
    trace = forward(graph, {"x": batch_of((13, 3), batch, rng)})
    values = backward(graph, trace, ("out", 1))
    assert isinstance(values, SweepValues) and set(values) == set(graph.nodes)
    # the routed nodes and the unreached ones hold no dense array until read
    assert type(dict.__getitem__(values, "act")) is Routed
    assert type(dict.__getitem__(values, "dead")) is tuple
    for nid in graph.nodes:
        first = values[nid]
        assert type(first) is np.ndarray and first.shape == trace[nid].shape
        again = values[nid]
        assert again is first and identical(again, first)
    assert not values["dead"].any() and not values["dead_fc"].any()
    # every way of reading a SweepValues sees the dense arrays
    fresh = backward(graph, trace, ("out", 1))
    for copy in (dict(fresh), {**fresh}, fresh.copy(), dict(fresh.items())):
        assert set(copy) == set(graph.nodes)
        for nid, value in copy.items():
            assert type(value) is np.ndarray and identical(value, values[nid])
    fresh = backward(graph, trace, ("out", 1))
    assert [identical(v, values[n]) for n, v in zip(fresh, fresh.values())] == \
        [True] * len(graph.nodes)
    assert identical(fresh.get("act"), values["act"]) and fresh.get("nope") is None
    assert identical(fresh.pop("conv"), values["conv"]) and "conv" not in fresh


def test_a_training_sweep_returns_no_values():
    rng = np.random.default_rng(13)
    graph = pooled_graph(rng)
    trace = forward(graph, {"x": batch_of((13, 3), 4, rng)})
    values, params = vjp_sweep(graph, trace, {"out": np.ones((4, 2))},
                               want_param_grads=True)
    assert values is None and set(params) == {"conv", "out"}


# ---------------------------------------------------------------------------
# Plans


def test_replace_params_passes_the_plan_on_with_identical_training_steps():
    rng = np.random.default_rng(14)
    seqs = np.eye(4)[rng.integers(0, 4, size=(6, 60))]
    batch = list(zip(seqs, [1, 0, 1, 1, 0, 0]))
    start = build_genomics_cnn(length=60, pool_width=10, pool_stride=10,
                               dense_units=12, seed=3)
    config = TrainConfig(learning_rate=0.1, weight_decay=1e-3)
    kept, rebuilt = start, start
    kept_v = rebuilt_v = None
    plan = start.plan()
    for _ in range(3):
        kept, kept_v, kept_loss = train_step(kept, batch, config, kept_v)
        assert kept._plan is plan
        # a graph built anew from the same nodes makes its own plan
        rebuilt = Graph(list(rebuilt.nodes.values()), rebuilt.outputs,
                        rebuilt.constraint_groups)
        rebuilt, rebuilt_v, rebuilt_loss = train_step(rebuilt, batch, config, rebuilt_v)
        assert rebuilt._plan is not plan
        assert kept_loss == rebuilt_loss
        for nid, node in kept.nodes.items():
            for key, value in node.params.items():
                if isinstance(value, np.ndarray):
                    assert identical(value, rebuilt.nodes[nid].params[key]), (nid, key)


def test_a_graph_of_other_structure_never_shares_a_plan():
    rng = np.random.default_rng(15)
    cnn = build_genomics_cnn(length=60, pool_width=10, pool_stride=10,
                             dense_units=12, seed=4)
    twin = relu_twin(cnn)  # the same node ids, one kind changed
    x = {"seq": np.eye(4)[rng.integers(0, 4, size=60)]}
    cnn_trace, twin_trace = forward(cnn, x), forward(twin, x)
    assert cnn.plan() is not twin.plan()
    assert cnn.plan().order == twin.plan().order
    assert identical(twin_trace["conv_act"], np.maximum(twin_trace["conv"], 0.0))
    assert not identical(cnn_trace["conv_act"], twin_trace["conv_act"])
    # the same structure built twice still makes two plans, with equal steps
    again = Graph(list(cnn.nodes.values()), cnn.outputs, cnn.constraint_groups)
    assert again._plan is None and again.plan() is not cnn.plan()
    assert again.plan().steps == cnn.plan().steps
    # a smaller graph over a prefix of the ids has its own order and steps
    b = GraphBuilder()
    b.affine("fc1", b.input("seq", (60, 4)), rng.normal(size=(3, 240)), np.zeros(3))
    small = b.build(outputs=["fc1"])
    assert small.plan().order == ("seq", "fc1")
    assert np.array_equal(forward(small, x)["fc1"],
                          x["seq"].reshape(-1) @ small.nodes["fc1"].params["weights"].T)
