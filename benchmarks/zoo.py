"""Seed-generated family of small graphs covering every multiplier rule.

The family's structure is a fixed plan: which nonlinearity each member
uses, its head, its width (16 to 128) and whether it has a conv/pool
front end.  The seed draws every weight, probe input and reference, so
two seeds give the same amount of work on different numbers and the
workload's timings stay comparable across seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from deltalift import Graph, GraphBuilder

# name, hidden block kind, head (None = plain affine output), width, conv front end
PLAN = (
    ("relu_sigmoid_128", "relu", "sigmoid", 128, False),
    ("relu_softmax_64", "relu", "softmax", 64, False),
    ("relu_conv_sigmoid_32", "relu", "sigmoid", 32, True),
    ("relu_affine_16", "relu", None, 16, False),
    ("relu_sigmoid_32", "relu", "sigmoid", 32, False),
    ("prelu_affine_128", "prelu", None, 128, False),
    ("prelu_sigmoid_64", "prelu", "sigmoid", 64, False),
    ("sigmoid_softmax_32", "sigmoid", "softmax", 32, False),
    ("sigmoid_sigmoid_16", "sigmoid", "sigmoid", 16, False),
    ("tanh_softmax_64", "tanh", "softmax", 64, False),
    ("tanh_sigmoid_128", "tanh", "sigmoid", 128, False),
    ("maxout_sigmoid_32", "maxout", "sigmoid", 32, False),
    ("maxout_softmax_16", "maxout", "softmax", 16, False),
    ("product_sigmoid_64", "product", "sigmoid", 64, False),
    ("prelu_conv_softmax_16", "prelu", "softmax", 16, True),
)
PROBES_PER_MEMBER = 16
SEQ_LENGTH = 48
SEQ_CHANNELS = 4
N_CLASSES = 4
MAXOUT_PIECES = 3


@dataclass
class Member:
    name: str
    graph: Graph
    probes: list[dict]
    reference_input: dict
    target: tuple[str, int] | None  # None: let the head pick the target
    relu_only: bool  # every nonlinearity is a relu, so LRP applies


def build_member(rng: np.random.Generator, name, block, head, width, conv) -> Member:
    b = GraphBuilder()

    def dense(node_id, src, out_dim):
        in_dim = int(np.prod(b.shape_of(src)))
        return b.affine(node_id, src, rng.normal(size=(out_dim, in_dim)) / np.sqrt(in_dim),
                        rng.normal(size=out_dim) * 0.3)

    def nonlin(node_id, src, kind):
        if kind == "prelu":
            return b.prelu(node_id, src, rng.uniform(0.05, 0.6, size=b.shape_of(src)[-1]))
        return getattr(b, kind)(node_id, src)

    if conv:
        cur = b.input("x", (SEQ_LENGTH, SEQ_CHANNELS))
        cur = b.conv1d("conv", cur, rng.normal(size=(width, 5, SEQ_CHANNELS)) / np.sqrt(5 * SEQ_CHANNELS),
                       rng.normal(size=width) * 0.3)
        cur = nonlin("conv_act", cur, block)
        cur = b.maxpool1d("pool", cur, 4, 4)
    else:
        cur = b.input("x", (width,))

    for layer in range(2):
        if block == "maxout":
            in_dim = int(np.prod(b.shape_of(cur)))
            cur = b.maxout(f"mo{layer}", cur,
                           rng.normal(size=(MAXOUT_PIECES, width, in_dim)) / np.sqrt(in_dim),
                           rng.normal(size=(MAXOUT_PIECES, width)) * 0.3)
        elif block == "product":
            trunk = nonlin(f"act{layer}", dense(f"fc{layer}", cur, width), "relu")
            left = nonlin(f"left{layer}", dense(f"lfc{layer}", trunk, width), "tanh")
            right = nonlin(f"right{layer}", dense(f"rfc{layer}", trunk, width), "sigmoid")
            cur = b.product(f"prod{layer}", left, right)
        else:
            cur = nonlin(f"act{layer}", dense(f"fc{layer}", cur, width), block)

    target = None
    if head == "sigmoid":
        b.sigmoid("head", dense("pre_head", cur, 1))
    elif head == "softmax":
        b.softmax("head", dense("pre_head", cur, N_CLASSES))
    else:
        dense("pre_head", cur, N_CLASSES)
        target = ("pre_head", 0)
    graph = b.build(outputs=["head" if head else "pre_head"])

    shape = graph.nodes["x"].output_shape
    probes = [{"x": rng.normal(size=shape)} for _ in range(PROBES_PER_MEMBER)]
    reference_input = {"x": rng.normal(size=shape) * 0.5}
    relu_only = block == "relu"
    return Member(name, graph, probes, reference_input, target, relu_only)


def build_zoo(seed: int, plan=PLAN) -> list[Member]:
    rng = np.random.default_rng([seed, 7])
    return [build_member(rng, *entry) for entry in plan]
