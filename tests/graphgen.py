"""Random small graphs for property tests.

Structures are sampled to touch every node kind across an ensemble:
an optional conv/pool front end on a (length, channels) input, a stack
of dense blocks with assorted nonlinearities or maxout units, an
optional elementwise-product merge, and an optional sigmoid or softmax
head.  Weight scales keep activations O(1) so tolerances are meaningful.
"""

import math
from dataclasses import dataclass

import numpy as np

from deltalift.graph import Graph, GraphBuilder, Tensor


@dataclass
class GraphCase:
    graph: Graph
    inputs: dict[str, Tensor]
    reference: dict[str, Tensor]
    target: tuple[str, int]
    kinds: set


def _weights(rng, out_dim, in_dim):
    return rng.normal(size=(out_dim, in_dim)) / np.sqrt(in_dim)


def random_graph_case(rng: np.random.Generator, piecewise_linear_only=False,
                      zero_bias=False, with_head=True) -> GraphCase:
    b = GraphBuilder()
    n = 0

    def name(prefix):
        nonlocal n
        n += 1
        return f"{prefix}{n}"

    def bias(dim):
        return np.zeros(dim) if zero_bias else rng.normal(size=dim) * 0.3

    if piecewise_linear_only:
        nonlin_kinds = ["relu"]
        block_kinds = ["dense"]
    else:
        nonlin_kinds = ["relu", "prelu", "sigmoid", "tanh"]
        block_kinds = ["dense", "dense", "maxout"]

    use_conv = rng.random() < 0.5
    if use_conv:
        length = int(rng.integers(6, 12))
        channels = int(rng.integers(1, 4))
        cur = b.input("x", (length, channels))
        n_filt = int(rng.integers(2, 5))
        width = int(rng.integers(2, min(5, length) + 1))
        stride = int(rng.integers(1, 3))
        cur = b.conv1d(
            name("conv"), cur,
            rng.normal(size=(n_filt, width, channels)) / np.sqrt(width * channels),
            bias(n_filt), stride=stride,
        )
        if rng.random() < 0.7:
            kind = rng.choice(nonlin_kinds)
            cur = _nonlin(b, name(kind), cur, kind, rng)
        out_len = b.shape_of(cur)[0]
        if out_len >= 2 and rng.random() < 0.8:
            pw = int(rng.integers(2, out_len + 1))
            ps = int(rng.integers(1, pw + 1))
            cur = b.maxpool1d(name("pool"), cur, pw, ps)
        dim = int(np.prod(b.shape_of(cur)))
    else:
        dim = int(rng.integers(2, 6))
        cur = b.input("x", (dim,))
        if rng.random() < 0.3:  # vector pooling exercises maxpool on (L,)
            if dim >= 2:
                pw = int(rng.integers(2, dim + 1))
                cur = b.maxpool1d(name("pool"), cur, pw, 1)
                dim = b.shape_of(cur)[0]

    for _ in range(int(rng.integers(1, 3))):
        block = rng.choice(block_kinds)
        out_dim = int(rng.integers(2, 6))
        if block == "maxout":
            pieces = int(rng.integers(1, 5))
            w = rng.normal(size=(pieces, out_dim, dim)) / np.sqrt(dim)
            bs = np.zeros((pieces, out_dim)) if zero_bias \
                else rng.normal(size=(pieces, out_dim)) * 0.3
            cur = b.maxout(name("mo"), cur, w, bs)
        else:
            cur = b.affine(name("fc"), cur, _weights(rng, out_dim, dim), bias(out_dim))
            kind = rng.choice(nonlin_kinds)
            cur = _nonlin(b, name(kind), cur, kind, rng)
        dim = out_dim

    if not piecewise_linear_only and rng.random() < 0.35:
        # two branches off the trunk merged by an elementwise product
        left = b.affine(name("fc"), cur, _weights(rng, dim, dim), bias(dim))
        left = _nonlin(b, name("tanh"), left, "tanh", rng)
        right = b.affine(name("fc"), cur, _weights(rng, dim, dim), bias(dim))
        right = _nonlin(b, name("sigmoid"), right, "sigmoid", rng)
        cur = b.product(name("prod"), left, right)

    head_kind = None
    if with_head and not piecewise_linear_only:
        head_kind = rng.choice([None, "sigmoid", "softmax"])
    if head_kind == "softmax":
        k = int(rng.integers(2, 5))
        pre = b.affine("pre_head", cur, _weights(rng, k, dim), bias(k))
        b.softmax("head", pre)
        target = ("pre_head", int(rng.integers(0, k)))
    elif head_kind == "sigmoid":
        pre = b.affine("pre_head", cur, _weights(rng, 1, dim), bias(1))
        b.sigmoid("head", pre)
        target = ("pre_head", 0)
    else:
        pre = b.affine("pre_head", cur, _weights(rng, max(1, dim // 2), dim), bias(max(1, dim // 2)))
        target = ("pre_head", int(rng.integers(0, max(1, dim // 2))))

    outputs = ["head"] if head_kind else ["pre_head"]
    graph = b.build(outputs=outputs)
    in_shape = graph.nodes["x"].output_shape
    case = GraphCase(
        graph=graph,
        inputs={"x": rng.normal(size=in_shape)},
        reference={"x": rng.normal(size=in_shape)},
        target=target,
        kinds={node.kind for node in graph.nodes.values()},
    )
    return case


def _nonlin(b: GraphBuilder, node_id, src, kind, rng):
    if kind == "relu":
        return b.relu(node_id, src)
    if kind == "prelu":
        channels = b.shape_of(src)[-1]
        return b.prelu(node_id, src, rng.uniform(0.05, 0.6, size=channels))
    if kind == "sigmoid":
        return b.sigmoid(node_id, src)
    if kind == "tanh":
        return b.tanh(node_id, src)
    raise ValueError(kind)


def ancestors(graph: Graph, node_id: str) -> set:
    """``node_id`` and every node with a path to it."""
    seen, stack = set(), [node_id]
    while stack:
        nid = stack.pop()
        if nid not in seen:
            seen.add(nid)
            stack.extend(graph.nodes[nid].inputs)
    return seen


def routes_sparsely(graph: Graph, pool_id: str) -> bool:
    """Whether max pool ``pool_id`` writes its input a ``Routed`` buffer
    (``autodiff.write_pool_input``): fewer entries, its outputs, than its
    input has rows, at any batch size."""
    pool = graph.nodes[pool_id]
    return math.prod(pool.output_shape) < graph.nodes[pool.inputs[0]].output_shape[0]
