"""Routed sweep buffers below max-pooling against dense oracle rules.

A max-pool rule writes its input only the window maxima's entries (a
``Routed`` buffer), and the rules below it keep them routed.  The oracle
tables here are the dense rules the routed ones replaced: max-pooling
scatters into a dense array, and every elementwise rule works on whole
arrays, so a sweep under them never routes anything.  Every
array of the routed sweep must agree with the oracle's within 1e-12 of
its largest entry: where windows overlap, a routed index repeats and the
dense array sums its values after, not before, the rules below the pool.

The LRP oracle also differs in what it sweeps: relevances, filtered at
affine and conv1d nodes and passed through rectifiers, where
``lrp_epsilon`` sweeps multipliers whose product with the activations is
the relevance.

A later section checks the routes themselves: ``forward`` records each
pool's window argmax in the trace, and no sweep over that trace scans the
windows again.  The last checks two kernels alone: the routed conv1d
transpose against a per-entry ``np.add.at`` loop, and DeepLIFT's max-pool
rule against its ``np.where`` form where no window reroutes.
"""

import numpy as np
import pytest

import deltalift.engine
import deltalift.graph
from deltalift.autodiff import (
    Routed,
    _conv1d_input_grad,
    accumulate,
    backward,
    resolve_target,
    target_seed,
    vjp_node,
    vjp_sweep,
)
from deltalift.baselines import LRP_EPSILON, _lrp_rules, lrp_epsilon
from deltalift.engine import (
    EPS_STABLE,
    _deeplift_rules,
    compute_reference,
    deeplift,
    propagate_multipliers,
)
from deltalift.genomics import build_genomics_cnn
from deltalift.graph import (
    ELEMENTWISE_KINDS,
    KNOWN_KINDS,
    DenseOnRead,
    ForwardTrace,
    Graph,
    GraphBuilder,
    NodeSpec,
    _pool_argmax,
    _window_starts,
    conv1d_windows,
    forward,
)
from deltalift.train import TrainConfig, train_step

from graphgen import random_graph_case

RTOL = 1e-12


# ---------------------------------------------------------------------------
# The dense oracle rules


def dense_vjp(node, grad_out, trace, grads, param_grads=None):
    """Gradient rules with max-pooling scattered into a dense array and
    the elementwise kinds (and the prelu slope gradient) over whole
    arrays; every other kind defers to ``vjp_node``, which then only ever
    sees dense arrays."""
    kind = node.kind
    if kind != "maxpool1d" and kind not in ELEMENTWISE_KINDS:
        vjp_node(node, grad_out, trace, grads, param_grads)
        return
    lead = 0 if trace.batch is None else 1
    src = node.inputs[0]
    x = trace[src]
    if kind == "maxpool1d":
        flat = _pool_argmax(x, int(node.params["width"]), int(node.params["stride"]), lead)
        gx = np.bincount(flat.ravel(), grad_out.ravel(), x.size).reshape(x.shape)
    elif kind == "relu":
        gx = grad_out * (x > 0)
    elif kind == "prelu":
        slopes = node.params["slopes"]
        if param_grads is not None:
            gs = np.minimum(x, 0.0)
            gs *= grad_out
            param_grads[node.id] = {"slopes": gs.reshape(-1, slopes.size).sum(axis=0)}
        gx = grad_out * ((x > 0) + (x <= 0) * slopes)
    elif kind == "sigmoid":
        y = trace[node.id]
        gx = grad_out * y * (1.0 - y)
    else:
        y = trace[node.id]
        gx = grad_out * (1.0 - y * y)
    accumulate(grads, src, gx)


DENSE_GRADIENT = dict.fromkeys(KNOWN_KINDS, dense_vjp)


def dense_deeplift_rules(reference):
    """DeepLIFT's table with the dense Rescale and max-pool rules."""

    def rescale(node, m_out, trace, mult, _):
        src = node.inputs[0]
        dx = trace[src] - reference[src]
        dy = trace[node.id] - reference[node.id]
        ratio_ok = np.abs(dx) > EPS_STABLE
        deriv = {}
        dense_vjp(node, np.ones(reference[node.id].shape), reference, deriv)
        dx[~ratio_ok] = 1.0
        np.divide(dy, dx, out=dy)
        np.copyto(dy, deriv[src], where=~ratio_ok)
        dy *= m_out
        accumulate(mult, src, dy)

    def maxpool(node, m_out, trace, mult, _):
        src = node.inputs[0]
        x = trace[src]
        lead = 0 if trace.batch is None else 1
        width, stride = int(node.params["width"]), int(node.params["stride"])
        dx = x - reference[src]
        route = (trace[node.id] - reference[node.id]) * m_out
        dx_flat = dx.ravel()
        chosen = _pool_argmax(x, width, stride, lead)
        chosen_dx = dx_flat[chosen]
        ok = np.abs(chosen_dx) > EPS_STABLE
        if not ok.all():
            weak = ~ok
            starts, step = _window_starts(x.shape, width, stride, lead)
            starts = starts[weak]
            members = starts[:, None] + step * np.arange(width)
            chosen[weak] = starts + step * np.abs(dx_flat[members]).argmax(axis=1)
            chosen_dx = dx_flat[chosen]
            ok = np.abs(chosen_dx) > EPS_STABLE
        values = np.where(ok, route, 0.0) / np.where(ok, chosen_dx, 1.0)
        accumulate(mult, src, np.bincount(chosen.ravel(), values.ravel(),
                                          x.size).reshape(x.shape))

    return {**_deeplift_rules(reference),
            **dict.fromkeys(ELEMENTWISE_KINDS, rescale), "maxpool1d": maxpool}


def dense_lrp_rules(epsilon, bias_rel):
    """epsilon-LRP as a relevance sweep: dense filtering, pass-through and
    max-pool rules, seeded with the target's relevance.  Its bias shares
    go into the plain dict ``bias_rel`` as they are formed."""

    def filtering(node, r_out, trace, relevance, _):
        if not r_out.any():
            return
        src = node.inputs[0]
        a = trace[node.id]
        stabilizer = np.where(a >= 0, epsilon, -epsilon)
        share = r_out / (a + stabilizer)
        message = {}
        vjp_node(node, share, trace, message)
        accumulate(relevance, src, trace[src] * message[src])
        absorbed = (node.params["bias"] + stabilizer) * share
        bias_rel[node.id] = (float(absorbed.sum()) if trace.batch is None
                             else absorbed.reshape(trace.batch, -1).sum(axis=1))

    def pass_through(node, r_out, trace, relevance, _):
        accumulate(relevance, node.inputs[0], r_out.copy())

    return {**_lrp_rules(epsilon, DenseOnRead()), "affine": filtering, "conv1d": filtering,
            "relu": pass_through, "maxpool1d": dense_vjp}


# ---------------------------------------------------------------------------
# Helpers


def tables(method, reference):
    """(routed table, oracle table, routed bias shares, oracle bias shares);
    the routed shares are formed when read, the oracle's at once."""
    if method == "gradient":
        return None, DENSE_GRADIENT, None, None
    if method == "deeplift":
        return _deeplift_rules(reference), dense_deeplift_rules(reference), None, None
    routed_bias, dense_bias = DenseOnRead(), {}
    return (_lrp_rules(LRP_EPSILON, routed_bias), dense_lrp_rules(LRP_EPSILON, dense_bias),
            routed_bias, dense_bias)


def assert_close(got, want, what):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape, what
    scale = max(float(np.max(np.abs(want), initial=0.0)), 1e-300)
    assert np.max(np.abs(got - want), initial=0.0) <= RTOL * scale, what


def compare_sweeps(method, graph, inputs, seeds, reference_input=None):
    """Run one sweep under the routed and the oracle tables; compare every
    node's array (and LRP's bias shares) and return the routed values.
    LRP compares relevances: the routed sweep's multipliers times the
    activations against the oracle's sweep seeded with ``seeds`` times
    the activations."""
    trace = forward(graph, inputs)
    reference = None
    if method == "deeplift":
        reference = compute_reference(graph, reference_input)
    routed, dense, routed_bias, dense_bias = tables(method, reference)
    got, _ = vjp_sweep(graph, trace, seeds, rules=routed)
    if method == "lrp":
        seeds = {nid: seed * trace[nid] for nid, seed in seeds.items()}
    want, _ = vjp_sweep(graph, trace, seeds, rules=dense)
    assert set(got) == set(want) == set(graph.nodes)
    for nid in graph.nodes:
        assert type(got[nid]) is np.ndarray, nid
        if method == "lrp":
            got[nid] = trace[nid] * got[nid]
        assert_close(got[nid], want[nid], (method, nid))
    if routed_bias is not None:
        assert set(routed_bias) == set(dense_bias)
        for nid in dense_bias:
            assert_close(routed_bias[nid], dense_bias[nid], (method, "bias", nid))
    return got


def target_seeds(graph, target, trace_batch):
    t_node, t_index = resolve_target(graph, target, trace_batch)
    return {t_node: target_seed(graph.nodes[t_node].output_shape, t_index)}


def compare_params(graph, inputs, seeds):
    """The training sweep's parameter gradients against the oracle's."""
    trace = forward(graph, inputs)
    _, got = vjp_sweep(graph, trace, seeds, want_param_grads=True)
    _, want = vjp_sweep(graph, trace, seeds, want_param_grads=True, rules=DENSE_GRADIENT)
    assert set(got) == set(want)
    for nid in want:
        assert set(got[nid]) == set(want[nid])
        for key in want[nid]:
            assert_close(got[nid][key], want[nid][key], ("params", nid, key))


BATCHES = [None, 1, 5]


def batch_of(shape, batch, rng):
    return rng.normal(size=shape if batch is None else (batch,) + shape)


# ---------------------------------------------------------------------------
# The random-graph ensemble


@pytest.mark.parametrize("method", ["gradient", "deeplift", "lrp"])
def test_routed_sweep_matches_dense_oracle_on_random_graphs(method):
    rng = np.random.default_rng(1217)
    pooled = overlapping = vector = 0
    for _ in range(80):
        case = random_graph_case(rng, piecewise_linear_only=method == "lrp")
        graph = case.graph
        pools = [n for n in graph.nodes.values() if n.kind == "maxpool1d"]
        pooled += bool(pools)
        overlapping += any(int(n.params["stride"]) < int(n.params["width"]) for n in pools)
        vector += any(graph.nodes[n.inputs[0]].kind == "input" for n in pools)
        shape = graph.nodes["x"].output_shape
        for batch in BATCHES:
            inputs = {"x": batch_of(shape, batch, rng)}
            trace = forward(graph, inputs)
            seeds = target_seeds(graph, case.target, trace.batch)
            compare_sweeps(method, graph, inputs, seeds, case.reference)
            if method == "deeplift" and batch is not None:
                # a batched reference pairs its rows with the inputs
                compare_sweeps(method, graph, inputs, seeds,
                               {"x": batch_of(shape, batch, rng)})
    assert pooled >= 20 and overlapping >= 5 and vector >= 3, (pooled, overlapping, vector)


def test_routed_parameter_gradients_match_dense_oracle_on_random_graphs():
    rng = np.random.default_rng(1218)
    pooled = 0
    for _ in range(60):
        case = random_graph_case(rng)
        graph = case.graph
        pooled += any(n.kind == "maxpool1d" for n in graph.nodes.values())
        inputs = {"x": batch_of(graph.nodes["x"].output_shape, 5, rng)}
        trace = forward(graph, inputs)
        out = graph.outputs[0]
        compare_params(graph, inputs, {out: rng.normal(size=trace[out].shape)})
    assert pooled >= 15


# ---------------------------------------------------------------------------
# Hand-built graphs that graphgen never makes


def conv_front(b, rng, length=13, channels=3, n_filt=4, width=3, stride=1):
    x = b.input("x", (length, channels))
    return b.conv1d("conv", x, rng.normal(size=(n_filt, width, channels)),
                    rng.normal(size=n_filt) * 0.3, stride=stride)


def second_consumer(rng, kind):
    """conv -> act, read by a pool and by a dense layer: act's buffer
    takes a routed and a dense write, so the sweep merges them densely."""
    b = GraphBuilder()
    conv = conv_front(b, rng)
    act = b.relu("act", conv) if kind == "relu" else b.prelu("act", conv,
                                                            rng.uniform(0.1, 0.6, 4))
    pool = b.maxpool1d("pool", act, 4, 3)
    left = b.affine("left", pool, rng.normal(size=(3, 12)) / 3, rng.normal(size=3))
    right = b.affine("right", act, rng.normal(size=(3, 44)) / 6, rng.normal(size=3))
    return b.build(outputs=[left, right])


def pool_of_pool(rng):
    b = GraphBuilder()
    act = b.relu("act", conv_front(b, rng, length=16))
    inner = b.maxpool1d("inner", act, 2, 1)  # (13, 4)
    outer = b.maxpool1d("outer", inner, 3, 2)  # (6, 4)
    b.affine("out", outer, rng.normal(size=(2, 24)) / 5, rng.normal(size=2))
    return b.build(outputs=["out"])


def shared_slope(rng):
    b = GraphBuilder()
    act = b.prelu("act", conv_front(b, rng), [0.3])
    pool = b.maxpool1d("pool", act, 3, 3)
    b.affine("out", pool, rng.normal(size=(2, 12)) / 4, rng.normal(size=2))
    return b.build(outputs=["out"])


def trailing_rows(rng):
    """Conv output of 11 rows pooled by 4-wide, 4-stride windows: the last
    3 rows are read by no window (the paper CNN reads 150 of 186)."""
    b = GraphBuilder()
    act = b.prelu("act", conv_front(b, rng, length=14, stride=1, width=4),
                  rng.uniform(0.1, 0.6, 4))
    pool = b.maxpool1d("pool", act, 4, 4)
    b.affine("out", pool, rng.normal(size=(2, 8)) / 3, rng.normal(size=2))
    return b.build(outputs=["out"])


def strided_conv(rng):
    b = GraphBuilder()
    act = b.tanh("act", conv_front(b, rng, length=17, stride=2, width=4))  # (7, 4)
    pool = b.maxpool1d("pool", act, 3, 2)  # (3, 4)
    b.affine("out", pool, rng.normal(size=(2, 12)) / 3, rng.normal(size=2))
    return b.build(outputs=["out"])


def vector_prelu(rng):
    """A per-unit prelu on a (units,) vector under overlapping windows:
    an entry's slope is read at its flat index, not a channel axis."""
    b = GraphBuilder()
    x = b.input("x", (5,))
    hid = b.affine("hid", x, rng.normal(size=(9, 5)) / 2, rng.normal(size=9))
    act = b.prelu("act", hid, rng.uniform(0.1, 0.6, 9))
    pool = b.maxpool1d("pool", act, 3, 2)
    b.affine("out", pool, rng.normal(size=(2, 4)), rng.normal(size=2))
    return b.build(outputs=["out"])


HAND_BUILT = {
    "second-consumer-relu": lambda rng: second_consumer(rng, "relu"),
    "second-consumer-prelu": lambda rng: second_consumer(rng, "prelu"),
    "pool-of-pool": pool_of_pool,
    "shared-slope": shared_slope,
    "trailing-rows": trailing_rows,
    "strided-conv": strided_conv,
    "vector-prelu": vector_prelu,
}


def lrp_applies(graph):
    return all(n.kind in ("input", "affine", "conv1d", "maxpool1d", "relu")
               for n in graph.nodes.values())


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
@pytest.mark.parametrize("batch", BATCHES)
def test_routed_sweep_matches_dense_oracle_on_hand_built_graphs(name, batch):
    rng = np.random.default_rng(77)
    graph = HAND_BUILT[name](rng)
    shape = graph.nodes["x"].output_shape
    inputs = {"x": batch_of(shape, batch, rng)}
    trace = forward(graph, inputs)
    # every output seeded at once: the second-consumer graphs reach their
    # shared node from both
    seeds = {out: rng.normal(size=trace[out].shape) for out in graph.outputs}
    compare_sweeps("gradient", graph, inputs, seeds)
    compare_sweeps("deeplift", graph, inputs, seeds, {"x": rng.normal(size=shape)})
    if lrp_applies(graph):
        compare_sweeps("lrp", graph, inputs, seeds)
    compare_params(graph, inputs, seeds)


@pytest.mark.parametrize("batch", BATCHES)
def test_deeplift_reroute_below_a_routed_rescale(batch):
    # relu -> pool with the reference equal to the input on the first
    # rows: those windows' argmax has no delta and reroutes, and the
    # rerouted entries then pass the relu's Rescale rule routed
    b = GraphBuilder()
    x = b.input("x", (12, 2))
    act = b.relu("act", x)
    pool = b.maxpool1d("pool", act, 4, 2)
    b.affine("out", pool, np.arange(10.0).reshape(1, 10) - 4.5, [0.2])
    graph = b.build(outputs=["out"])
    rng = np.random.default_rng(5)
    shape = (12, 2) if batch is None else (batch, 12, 2)
    xs = rng.integers(0, 4, size=shape).astype(float)
    ref = rng.integers(0, 4, size=shape).astype(float)
    ref[..., :6, :] = xs[..., :6, :]
    # window rows 4-7: the max sits at its reference while another member moved
    xs[..., 4:8, 0], ref[..., 4:8, 0] = [5, 1, 2, 0], [5, 1, 7, 0]
    trace = forward(graph, {"x": xs})
    reference = compute_reference(graph, {"x": ref})
    dx = trace["act"] - reference["act"]
    chosen = _pool_argmax(trace["act"], 4, 2, 0 if batch is None else 1)
    assert (np.abs(dx.ravel()[chosen]) <= EPS_STABLE).any()
    seeds = target_seeds(graph, ("out", 0), trace.batch)
    mult = compare_sweeps("deeplift", graph, {"x": xs}, seeds, {"x": ref})
    # conservation through the rerouted windows
    delta_out = trace["out"] - reference["out"]
    got = (mult["x"] * (xs - ref)).reshape(-1 if batch is None else batch, 24).sum(axis=-1)
    assert_close(got, delta_out[..., 0].reshape(got.shape), "conservation")


# ---------------------------------------------------------------------------
# The paper CNN


def one_hot(rng, shape):
    return (rng.integers(0, 4, size=shape)[..., None] == np.arange(4)).astype(float)


def relu_twin(graph):
    """The graph with every prelu a relu, so that LRP applies."""
    return Graph([NodeSpec(n.id, "relu", n.inputs, n.output_shape) if n.kind == "prelu"
                  else n for n in graph.nodes.values()], graph.outputs)


@pytest.mark.parametrize("method", ["gradient", "deeplift", "lrp"])
@pytest.mark.parametrize("batch", [None, 1, 8])
def test_paper_cnn_routed_sweep_matches_dense_oracle(method, batch):
    rng = np.random.default_rng(19)
    graph = build_genomics_cnn(seed=3)
    if method == "lrp":
        graph = relu_twin(graph)
    inputs = {"seq": one_hot(rng, (200,) if batch is None else (batch, 200))}
    trace = forward(graph, inputs)
    seeds = target_seeds(graph, ("logit", 0), trace.batch)
    compare_sweeps(method, graph, inputs, seeds, {"seq": np.full((200, 4), 0.25)})


def test_paper_cnn_train_step_matches_summed_dense_per_sample_sweeps():
    rng = np.random.default_rng(23)
    graph = build_genomics_cnn(seed=3)
    seqs = one_hot(rng, (6, 200))
    labels = [1, 0, 0, 1, 1, 0]
    config = TrainConfig(learning_rate=0.05, momentum=0.9, weight_decay=5e-4)
    updated, _, _ = train_step(graph, list(zip(seqs, labels)), config, None)

    # one dense sweep per sample, seeded with d loss / d logit = p - y
    summed = {}
    for seq, label in zip(seqs, labels):
        trace = forward(graph, {"seq": seq})
        seed = trace["prob"] - label
        _, grads = vjp_sweep(graph, trace, {"logit": seed}, want_param_grads=True,
                             rules=DENSE_GRADIENT)
        for nid, arrays in grads.items():
            for key, value in arrays.items():
                summed.setdefault(nid, {})[key] = summed.get(nid, {}).get(key, 0.0) + value
    assert set(summed) == {"conv", "conv_act", "fc1", "fc1_act", "fc2", "fc2_act", "logit"}
    for nid, arrays in summed.items():
        for key, grad in arrays.items():
            old = graph.nodes[nid].params[key]
            g = grad / len(seqs)
            if key in ("weights", "filters"):
                g = g + config.weight_decay * old
            # from zero velocity the step is -learning_rate * g
            assert_close(updated.nodes[nid].params[key] - old, -config.learning_rate * g,
                         (nid, key))


# ---------------------------------------------------------------------------
# Routes recorded by the forward pass


def first_max_oracle(x, width, stride, lead):
    """Flat index of each window's first maximum, by a loop over windows."""
    n_out = (x.shape[lead] - width) // stride + 1
    out_shape = x.shape[:lead] + (n_out,) + x.shape[lead + 1:]
    flat = np.empty(out_shape, dtype=np.intp)
    for out_index in np.ndindex(*out_shape):
        j = out_index[lead]
        members = [out_index[:lead] + (j * stride + k,) + out_index[lead + 1:]
                   for k in range(width)]
        best = max(range(width), key=lambda k: (x[members[k]], -k))
        flat[out_index] = np.ravel_multi_index(members[best], x.shape)
    return flat


@pytest.mark.parametrize("batch", [None, 1, 5, 32])
@pytest.mark.parametrize("shape, width, stride", [
    ((13, 3), 4, 4), ((13, 3), 4, 2), ((13, 3), 5, 1), ((11,), 3, 1), ((11,), 4, 2),
], ids=["disjoint", "overlapping", "stride-1", "vector-stride-1", "vector-overlapping"])
@pytest.mark.parametrize("ties", [False, True], ids=["distinct", "ties"])
def test_forward_route_is_the_pool_argmax_and_its_output_the_window_max(
        batch, shape, width, stride, ties):
    rng = np.random.default_rng(31)
    b = GraphBuilder()
    b.maxpool1d("pool", b.input("x", shape), width, stride)
    graph = b.build(outputs=["pool"])
    full = shape if batch is None else (batch,) + shape
    # small integers tie within most windows; the route takes the first
    x = (rng.integers(0, 3, size=full) if ties else rng.normal(size=full)).astype(float)
    trace = forward(graph, {"x": x})
    lead = 0 if batch is None else 1
    route = trace.routes["pool"]
    assert trace.route("pool") is route
    assert not route.flags.writeable
    np.testing.assert_array_equal(route, _pool_argmax(x, width, stride, lead))
    np.testing.assert_array_equal(route, first_max_oracle(x, width, stride, lead))
    # the window-max forward the route replaced
    window_max = conv1d_windows(x, width, stride, lead).max(axis=lead + 1)
    assert np.array_equal(trace["pool"], window_max)
    assert trace["pool"].tobytes() == window_max.tobytes()


def pooled_relu_graph(rng):
    """conv -> relu -> overlapping pool -> affine: every method applies."""
    b = GraphBuilder()
    act = b.relu("act", conv_front(b, rng))
    pool = b.maxpool1d("pool", act, 4, 2)
    size = int(np.prod(b.shape_of(pool)))
    b.affine("out", pool, rng.normal(size=(2, size)), rng.normal(size=2))
    return b.build(outputs=["out"])


@pytest.fixture
def argmax_calls(monkeypatch):
    """The number of window scans since the fixture was made (or reset)."""
    calls = [0]
    scan = deltalift.graph._pool_argmax

    def counted(*args, **kwargs):
        calls[0] += 1
        return scan(*args, **kwargs)

    monkeypatch.setattr(deltalift.graph, "_pool_argmax", counted)
    return calls


@pytest.mark.parametrize("batch", BATCHES)
def test_sweeps_over_a_forward_trace_never_scan_the_windows(argmax_calls, batch):
    rng = np.random.default_rng(37)
    graph = pooled_relu_graph(rng)
    inputs = {"x": batch_of((13, 3), batch, rng)}
    reference = compute_reference(graph, {"x": rng.normal(size=(13, 3))})
    trace = forward(graph, inputs)
    assert argmax_calls[0] == 2  # the reference's forward and this one
    argmax_calls[0] = 0
    backward(graph, trace, ("out", 1))
    propagate_multipliers(graph, trace, reference, ("out", 1))
    seeds = target_seeds(graph, ("out", 1), trace.batch)
    vjp_sweep(graph, trace, seeds, rules=_lrp_rules(LRP_EPSILON, DenseOnRead()))
    vjp_sweep(graph, trace, seeds, want_param_grads=True)
    assert argmax_calls[0] == 0
    # a whole call scans each pool once, in its own forward pass
    deeplift(graph, inputs, reference=reference, target=("out", 1))
    assert argmax_calls[0] == 1
    lrp_epsilon(graph, inputs, target=("out", 1))
    assert argmax_calls[0] == 2


def test_train_step_scans_each_pool_once(argmax_calls):
    graph = build_genomics_cnn(length=60, pool_width=10, pool_stride=10,
                               dense_units=12, seed=2)
    seqs = one_hot(np.random.default_rng(41), (5, 60))
    train_step(graph, list(zip(seqs, [1, 0, 1, 1, 0])), TrainConfig(), None)
    assert argmax_calls[0] == 1


def hand_built(trace):
    """``trace`` as a caller builds one: the activations alone, no routes."""
    return ForwardTrace(dict(trace.activations), trace.graph, trace.batch)


def assert_identical(got, want, what):
    assert type(got) is type(want), what
    if isinstance(want, dict):
        assert set(got) == set(want), what
        for key in want:
            assert_identical(got[key], want[key], (what, key))
    else:
        got, want = np.asarray(got), np.asarray(want)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), what


def test_a_hand_built_trace_finds_the_same_routes_and_results():
    rng = np.random.default_rng(43)
    cases = []
    while len(cases) < 30:
        case = random_graph_case(rng, piecewise_linear_only=len(cases) % 2 == 0)
        if any(n.kind == "maxpool1d" for n in case.graph.nodes.values()):
            cases.append(case)
    for i, case in enumerate(cases):
        graph = case.graph
        reference = compute_reference(graph, case.reference)
        for batch in BATCHES:
            inputs = {"x": batch_of(graph.nodes["x"].output_shape, batch, rng)}
            recorded = forward(graph, inputs)
            built = hand_built(recorded)
            assert built.routes == {}
            seeds = target_seeds(graph, case.target, recorded.batch)
            out = graph.outputs[0]
            results = []
            for trace in (recorded, built):
                got = {
                    "gradient": vjp_sweep(graph, trace, seeds)[0],
                    "deeplift": propagate_multipliers(graph, trace, reference, case.target),
                    "params": vjp_sweep(graph, trace, {out: np.ones(trace[out].shape)},
                                        want_param_grads=True)[1],
                }
                if i % 2 == 0:  # piecewise linear, so LRP applies
                    got["lrp bias"] = DenseOnRead()
                    got["lrp"] = vjp_sweep(graph, trace, seeds,
                                           rules=_lrp_rules(LRP_EPSILON, got["lrp bias"]))[0]
                results.append(got)
            assert_identical(results[1], results[0], i)
            assert_identical(built.routes, recorded.routes, (i, "routes"))


def test_rerouting_deeplift_leaves_the_trace_route_unchanged():
    rng = np.random.default_rng(47)
    b = GraphBuilder()
    pool = b.maxpool1d("pool", b.relu("act", b.input("x", (12, 2))), 4, 2)
    b.affine("out", pool, rng.normal(size=(1, 10)), [0.2])
    graph = b.build(outputs=["out"])
    xs = rng.integers(0, 4, size=(3, 12, 2)).astype(float)
    ref = xs.copy()
    ref[:, 6:] = rng.integers(0, 4, size=(3, 6, 2))
    # rows 4-7 of channel 0: the max sits at its reference while another
    # member moved, so that window reroutes
    xs[:, 4:8, 0], ref[:, 4:8, 0] = [5, 1, 2, 0], [5, 1, 7, 0]
    trace = forward(graph, {"x": xs})
    reference = compute_reference(graph, {"x": ref})
    route = trace.route("pool")
    before = route.copy()
    mult = propagate_multipliers(graph, trace, reference, ("out", 0))
    assert trace.route("pool") is route and not route.flags.writeable
    np.testing.assert_array_equal(route, before)
    # the rule did reroute: a window sends its multiplier off its route
    off_route = np.ones(xs.size, dtype=bool)
    off_route[route.ravel()] = False
    assert mult["act"].ravel()[off_route].any()


def test_compute_reference_keeps_its_input_and_the_routes():
    rng = np.random.default_rng(53)
    graph = pooled_relu_graph(rng)
    ref_input = rng.normal(size=(13, 3))
    reference = compute_reference(graph, {"x": ref_input})
    assert set(reference.reference_input) == {"x"}
    np.testing.assert_array_equal(reference.reference_input["x"], ref_input)
    assert set(reference.routes) == {"pool"}
    np.testing.assert_array_equal(reference.routes["pool"],
                                  _pool_argmax(reference["act"], 4, 2))


# ---------------------------------------------------------------------------
# The routed conv1d transpose and DeepLIFT's max-pool rule, kernel by kernel


def per_entry_transpose(node, buf, x_shape, lead):
    """The transpose of a conv1d node over a ``Routed`` buffer of its
    output, one entry at a time: the entry at flat index i sits on output
    row i // F and belongs to filter i % F; its value times that filter's
    (K, C) taps is added into the K input rows the row reads."""
    filters = node.params["filters"]
    n_filt, width, channels = filters.shape
    stride = int(node.params["stride"])
    n_out, length = buf.shape[lead], x_shape[lead]
    expected = np.zeros(int(np.prod(x_shape)))
    for i, value in zip(buf.index.ravel(), buf.values.ravel()):
        row, f = divmod(int(i), n_filt)
        sample, pos = divmod(row, n_out)
        start = (sample * length + pos * stride) * channels
        np.add.at(expected, start + np.arange(width * channels), value * filters[f].ravel())
    return expected.reshape(x_shape)


def assert_entry_filters(buf, n_filt):
    """An entry's filter is its position on the values' last axis."""
    assert buf.values.shape == buf.index.shape
    np.testing.assert_array_equal(buf.index % n_filt,
                                  np.broadcast_to(np.arange(n_filt), buf.index.shape))


# (length, filters, width, pool width, pool stride): "zoo" is the zoo's
# conv member relu_conv_sigmoid_32, whose 352 entries per sample share at
# most 44 rows at stride 1; "overlapping" windows route one row twice
TRANSPOSE_GEOMETRY = {
    "disjoint": (30, 6, 4, 3, 3),
    "overlapping": (30, 6, 4, 4, 2),
    "zoo": (48, 32, 5, 4, 4),
}


@pytest.mark.parametrize("geometry", sorted(TRANSPOSE_GEOMETRY))
@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("batch", [None, 1, 8])
def test_routed_conv_transpose_matches_per_entry_add_at_oracle(geometry, stride, batch):
    length, n_filt, width, pool_width, pool_stride = TRANSPOSE_GEOMETRY[geometry]
    rng = np.random.default_rng(59)
    b = GraphBuilder()
    conv = b.conv1d("conv", b.input("x", (length, 4)), rng.normal(size=(n_filt, width, 4)),
                    rng.normal(size=n_filt), stride=stride)
    b.maxpool1d("pool", b.relu("act", conv), pool_width, pool_stride)
    graph = b.build(outputs=["pool"])
    lead = 0 if batch is None else 1
    trace = forward(graph, {"x": batch_of((length, 4), batch, rng)})
    route = trace.route("pool")
    buf = Routed(route, rng.normal(size=route.shape), trace["conv"].shape)
    assert_entry_filters(buf, n_filt)
    rows = np.unique(route // n_filt)
    if geometry == "zoo" and stride == 1:
        assert route.shape[lead:] == (11, 32) and rows.size <= 44 * (batch or 1)
    if geometry == "overlapping":  # some row holds two entries of one filter
        assert np.unique(route).size < route.size
    node = graph.nodes["conv"]
    x = trace["x"]
    got = _conv1d_input_grad(node, buf, x, trace, lead)
    assert got.shape == x.shape
    assert_close(got, per_entry_transpose(node, buf, x.shape, lead), (geometry, stride))
    # the dense transpose of the same buffer agrees too
    assert_close(got, _conv1d_input_grad(node, buf.dense(), x, trace, lead), "dense")


@pytest.mark.parametrize("batch", [None, 1, 8])
def test_routed_conv_transpose_of_a_deeplift_reroute(batch):
    # conv -> pool, with each sample's reference equal to its input on the
    # input rows that one window's argmax reads: that member's delta is 0
    # while its neighbours' are not, so the window reroutes off its route
    rng = np.random.default_rng(61)
    b = GraphBuilder()
    conv = b.conv1d("conv", b.input("x", (24, 4)), rng.normal(size=(5, 3, 4)),
                    rng.normal(size=5), stride=2)  # (11, 5)
    b.maxpool1d("pool", conv, 4, 2)  # (4, 5)
    graph = b.build(outputs=["pool"])
    lead = 0 if batch is None else 1
    xs = batch_of((24, 4), batch, rng)
    trace = forward(graph, {"x": xs})
    route = trace.route("pool").reshape(-1, 4, 5)
    ref = xs + rng.normal(size=xs.shape)
    refs = ref.reshape(-1, 24, 4)
    for sample in range(len(refs)):
        row = route[sample, 1, sample % 5] // 5 - sample * 11 * lead
        refs[sample, 2 * row:2 * row + 3] = xs.reshape(-1, 24, 4)[sample, 2 * row:2 * row + 3]
    reference = compute_reference(graph, {"x": ref})
    mult = {}
    m_out = rng.normal(size=trace["pool"].shape)
    _deeplift_rules(reference)["maxpool1d"](graph.nodes["pool"], m_out, trace, mult, None)
    buf = mult["conv"]
    assert type(buf) is Routed
    assert_entry_filters(buf, 5)
    moved = buf.index != trace.route("pool")
    assert moved.sum() >= len(refs)
    x = trace["x"]
    got = _conv1d_input_grad(graph.nodes["conv"], buf, x, trace, lead)
    assert_close(got, per_entry_transpose(graph.nodes["conv"], buf, x.shape, lead), "reroute")


def where_form(trace, reference, pool_id, src, m_out):
    """DeepLIFT's max-pool values on the trace's route, written with the
    ``np.where`` guards of the rerouting rule."""
    route = trace.route(pool_id)
    x, ref = trace[src], np.broadcast_to(reference[src], trace[src].shape)
    chosen_dx = x.take(route) - ref.take(route)
    ok = np.abs(chosen_dx) > EPS_STABLE
    values = np.where(ok, (trace[pool_id] - reference[pool_id]) * m_out, 0.0)
    return ok, values / np.where(ok, chosen_dx, 1.0)


@pytest.fixture
def reroutes(monkeypatch):
    """The number of DeepLIFT max-pool calls that took the reroute branch,
    the only one that reads the window members."""
    calls = [0]
    members = deltalift.engine._window_members

    def counted(*args, **kwargs):
        calls[0] += 1
        return members(*args, **kwargs)

    monkeypatch.setattr(deltalift.engine, "_window_members", counted)
    return calls


@pytest.mark.parametrize("batch", [None, 1, 8])
def test_deeplift_max_pool_without_a_reroute_is_bitwise_the_where_form(reroutes, batch):
    rng = np.random.default_rng(67)
    graph = build_genomics_cnn(seed=3)
    inputs = {"seq": one_hot(rng, (200,) if batch is None else (batch, 200))}
    trace = forward(graph, inputs)
    reference = compute_reference(graph, {"seq": np.full((200, 4), 0.25)})
    m_out = rng.normal(size=trace["pool"].shape)
    mult = {}
    _deeplift_rules(reference)["maxpool1d"](graph.nodes["pool"], m_out, trace, mult, None)
    ok, want = where_form(trace, reference, "pool", "conv_act", m_out)
    assert ok.all() and reroutes[0] == 0
    buf = mult["conv_act"]
    assert buf.index is trace.route("pool")
    assert buf.values.tobytes() == want.tobytes()


def test_deeplift_max_pool_reroute_branch_still_runs(reroutes):
    # rows 4-7 of channel 0: the window's max sits at its reference while
    # another member moved, so the rule reroutes it (and the windows that
    # share that max) off the route; every other window keeps its
    # where-form value bit for bit
    rng = np.random.default_rng(71)
    b = GraphBuilder()
    pool = b.maxpool1d("pool", b.relu("act", b.input("x", (12, 2))), 4, 2)
    b.affine("out", pool, rng.normal(size=(1, 10)), [0.2])
    graph = b.build(outputs=["out"])
    xs = rng.integers(0, 4, size=(12, 2)).astype(float)
    ref = xs + 0.5
    xs[4:8, 0], ref[4:8, 0] = [5, 1, 2, 0], [5, 1, 7, 0]
    trace = forward(graph, {"x": xs})
    reference = compute_reference(graph, {"x": ref})
    m_out = rng.normal(size=trace["pool"].shape)
    mult = {}
    _deeplift_rules(reference)["maxpool1d"](graph.nodes["pool"], m_out, trace, mult, None)
    assert reroutes[0] == 1
    ok, want = where_form(trace, reference, "pool", "act", m_out)
    buf = mult["act"]
    assert not ok.all()
    moved = buf.index != trace.route("pool")
    assert moved.any() and np.array_equal(moved, ~ok)
    assert buf.values[~moved].tobytes() == want[~moved].tobytes()
    assert buf.values[moved].any()
