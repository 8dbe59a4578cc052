"""Deferred rectifiers under max-pooling against the eager forward.

A batched ``forward`` does not evaluate a relu or prelu node that only
max pools read (``Plan.deferred``): each pool takes its route and output
from the rectifier's input, and the rectifier's activation is formed by
its forward rule when a caller first reads it.  The oracle here is the
eager forward that deferral replaced: every node by its dense
``FORWARD_RULES`` entry, and each pool's route by ``_pool_argmax`` on its
input's dense activation.  Routes, pool outputs and every entry read
must be byte-identical to the oracle's.
"""

import functools

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

import deltalift.graph
from deltalift.baselines import gradient_times_input, lrp_as_contribution_report, lrp_epsilon
from deltalift.engine import _reference_on
from deltalift.genomics import build_genomics_cnn
from deltalift.graph import FORWARD_RULES, DenseOnRead, GraphBuilder, _pool_argmax, forward
from deltalift.train import TrainConfig, evaluate, train_step

from test_routed import assert_identical, hand_built, one_hot, relu_twin


def eager_forward(graph, inputs, batch):
    """(activations, routes) of the eager forward: every node evaluated."""
    lead = 0 if batch is None else 1
    acts = {nid: np.ascontiguousarray(x, dtype=np.float64) for nid, x in inputs.items()}
    routes = {}
    for nid in graph.plan().order:
        node = graph.nodes[nid]
        if node.kind == "maxpool1d":
            x = acts[node.inputs[0]]
            routes[nid] = _pool_argmax(x, node.params["width"], node.params["stride"], lead)
            acts[nid] = x.take(routes[nid])
        elif node.kind != "input":
            acts[nid] = FORWARD_RULES[node.kind](node, acts, lead)
    return acts, routes


# slopes of every sign, and subnormal ones, whose products with distinct
# inputs round to the same value
SLOPES = [-0.5, -5e-324, 0.0, 5e-324, 1e-320, 0.25, 1.0, 1.5]


def rectified_pool_graph(rng, kind, vector, conv, second_pool, act_is_output):
    """input -> [conv] -> relu/prelu -> one or two max pools -> affine."""
    b = GraphBuilder()
    length, channels = int(rng.integers(6, 14)), int(rng.integers(1, 4))
    pre = b.input("x", (length,) if vector else (length, channels))
    if conv and not vector:
        n_filt = int(rng.integers(1, 4))
        # weights and bias in halves: integer-like sums tie exactly
        pre = b.conv1d("conv", pre, rng.integers(-2, 3, size=(n_filt, 2, channels)) * 0.5,
                       rng.integers(-3, 2, size=n_filt) * 0.5)
    n_slopes = 1 if rng.random() < 0.3 else b.shape_of(pre)[-1]
    act = (b.relu("act", pre) if kind == "relu"
           else b.prelu("act", pre, rng.choice(SLOPES, size=n_slopes)))
    outputs = ["act"] if act_is_output else []
    for name in ["pool", "pool2"][:2 if second_pool else 1]:
        width = int(rng.integers(1, 5))
        stride = int(rng.integers(1, width + 2))  # overlapping, touching or gapped
        pool = b.maxpool1d(name, act, width, stride)
        size = int(np.prod(b.shape_of(pool)))
        outputs.append(b.affine(f"{name}_fc", pool, rng.normal(size=(2, size)),
                                rng.normal(size=2)))
    return b.build(outputs=outputs)


def sample_inputs(rng, graph, batch):
    shape = graph.nodes["x"].output_shape
    full = shape if batch is None else (batch,) + shape
    # small multiples of 0.5, mostly <= 0: exact ties and windows whose
    # max is not positive; or normals
    if rng.random() < 0.7:
        return {"x": rng.integers(-4, 2, size=full) * 0.5}
    return {"x": rng.normal(size=full) - 0.5}


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["relu", "prelu"]),
       batch=st.sampled_from([None, 1, 2, 5]), vector=st.booleans(), conv=st.booleans(),
       second_pool=st.booleans())
def test_deferred_entries_routes_and_pools_equal_the_eager_forward(
        seed, kind, batch, vector, conv, second_pool):
    rng = np.random.default_rng(seed)
    graph = rectified_pool_graph(rng, kind, vector, conv, second_pool, act_is_output=False)
    inputs = sample_inputs(rng, graph, batch)
    want, want_routes = eager_forward(graph, inputs, batch)
    assert graph.plan().deferred == {"act"}

    trace = forward(graph, inputs)
    waiting = dict.__getitem__(trace.activations, "act")
    assert type(waiting) is (np.ndarray if batch is None else functools.partial)
    # the routes and pool outputs come without forming the rectifier
    assert_identical(trace.routes, want_routes, "routes")
    for name in trace.routes:
        assert not trace.routes[name].flags.writeable
        assert_identical(trace[name], want[name], name)
    assert type(dict.__getitem__(trace.activations, "act")) is type(waiting)
    for nid in graph.nodes:
        assert_identical(trace[nid], want[nid], nid)
    assert trace["act"] is trace["act"]

    # a trace built by hand from the activations of an unread one
    built = hand_built(forward(graph, inputs))
    assert type(built.activations) is dict and built.routes == {}
    for name in want_routes:
        assert_identical(built.route(name), want_routes[name], ("hand-built", name))
    assert_identical(built.activations, want, "hand-built")


def pooled_and_squashed(rng):
    """A relu that a max pool and a tanh both read."""
    b = GraphBuilder()
    act = b.relu("act", b.input("x", (8, 2)))
    b.maxpool1d("pool", act, 2, 2)
    b.tanh("squash", act)
    return b.build(outputs=["pool", "squash"])


@pytest.mark.parametrize("build", [
    lambda rng: rectified_pool_graph(rng, "prelu", False, True, False, act_is_output=True),
    pooled_and_squashed,
], ids=["graph-output", "non-pool-consumer"])
def test_a_rectifier_read_by_more_than_pools_is_evaluated(build):
    rng = np.random.default_rng(3)
    graph = build(rng)
    assert graph.plan().deferred == frozenset()
    trace = forward(graph, sample_inputs(rng, graph, 4))
    assert type(trace.activations) is dict
    assert type(dict.__getitem__(trace.activations, "act")) is np.ndarray


def test_dense_on_read_forms_each_deferred_entry_once():
    calls = []

    def form(value):
        calls.append(value)
        return np.full(2, value)

    values = DenseOnRead(a=np.zeros(2), b=functools.partial(form, 1.0))
    assert set(values) == {"a", "b"} and "b" in values and len(values) == 2
    for copy in (dict(values), {**values}, values.copy(), dict(values.items())):
        assert [type(v) for v in copy.values()] == [np.ndarray, np.ndarray]
    assert values["b"] is values.get("b") and calls == [1.0]
    assert [v.tolist() for v in values.values()] == [[0.0, 0.0], [1.0, 1.0]]
    assert values.pop("b").tolist() == [1.0, 1.0] and "b" not in values
    assert values.get("b") is None and values.pop("b", None) is None


# ---------------------------------------------------------------------------
# The paper CNN's conv_act under batched training and attribution


@pytest.fixture
def rectifier_calls(monkeypatch):
    """(node id, batched) of every dense relu/prelu forward rule call, on
    graphs whose plans are made after the fixture."""
    calls = []
    for kind in ("relu", "prelu"):
        def counted(node, acts, lead, rule=FORWARD_RULES[kind]):
            calls.append((node.id, bool(lead)))
            return rule(node, acts, lead)

        monkeypatch.setitem(deltalift.graph.FORWARD_RULES, kind, counted)
    return calls


def test_batched_training_and_attribution_never_form_conv_act(rectifier_calls):
    cnn = build_genomics_cnn(seed=3)
    twin = relu_twin(cnn)
    seqs = one_hot(np.random.default_rng(61), (32, 200))
    labels = np.random.default_rng(62).integers(0, 2, size=32)
    for graph in (cnn, twin):  # the memoized zeros references, one sample each
        _reference_on(graph)
    rectifier_calls.clear()
    batch = list(zip(seqs, labels))
    train_step(cnn, batch, TrainConfig(), None)
    evaluate(cnn, batch)
    gradient_times_input(cnn, {"seq": seqs})
    lrp_as_contribution_report(twin, {"seq": seqs}, lrp_epsilon(twin, {"seq": seqs}))
    assert ("conv_act", True) not in rectifier_calls
    assert ("fc1_act", True) in rectifier_calls  # dense layers stay eager
    # a later read forms it, once, with the eager array's bytes
    trace = forward(cnn, {"seq": seqs})
    want, _ = eager_forward(cnn, {"seq": seqs}, 32)
    rectifier_calls.clear()
    assert_identical(trace["conv_act"], want["conv_act"], "conv_act")
    assert_identical(trace["conv_act"], want["conv_act"], "conv_act")
    assert rectifier_calls == [("conv_act", True)]
    # one sample keeps the eager path
    rectifier_calls.clear()
    single = forward(cnn, {"seq": seqs[0]})
    assert ("conv_act", False) in rectifier_calls
    assert type(single.activations) is dict
