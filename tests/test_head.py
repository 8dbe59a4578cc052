"""Every module reads a model's head from its plan (``Plan.head``).

Training, the automatic attribution target, the method comparison and
softmax normalization must accept or refuse a graph exactly as its
``plan().head`` says, on one table of graphs.
"""

import numpy as np
import pytest

from deltalift.engine import (
    AttributionError,
    attribute,
    deeplift,
    zeros_reference,
)
from deltalift.genomics import DatasetSpec, compare_methods, encode_batch, generate_dataset
from deltalift.graph import GraphBuilder, forward
from deltalift.normalize import NormalizationError, attribution_model, \
    mean_normalize_softmax_weights
from deltalift.train import TrainConfig, TrainingError, train_step

LENGTH = 60


def head_graph(kind):
    """A relu layer on (LENGTH, 4) one-hot sequences, topped by ``kind``."""
    rng = np.random.default_rng(7)
    b = GraphBuilder()
    x = b.input("seq", (LENGTH, 4))
    h = b.relu("h", b.affine("fc", x, rng.normal(size=(4, 4 * LENGTH)) * 0.1,
                             rng.normal(size=4)))

    def dense(node_id, units):
        return b.affine(node_id, h, rng.normal(size=(units, 4)), rng.normal(size=units))

    outputs = ["out"]
    if kind == "sigmoid":
        b.sigmoid("out", dense("pre", 1))
    elif kind == "sigmoid3":
        b.sigmoid("out", dense("pre", 3))
    elif kind == "softmax":
        b.softmax("out", dense("pre", 3))
    elif kind == "softmax-product":
        b.softmax("out", b.product("p", dense("a", 3), dense("c", 3)))
    elif kind == "two-outputs":
        b.sigmoid("out", dense("pre", 1))
        outputs.append(dense("aux", 2))
    else:  # a bare affine output
        outputs = [dense("pre", 1)]
    return b.build(outputs=outputs)


# graph kind and the head its plan names: (head id, pre-activation id)
HEADS = [
    ("sigmoid", ("out", "pre")),
    ("sigmoid3", None),
    ("softmax", ("out", "pre")),
    ("softmax-product", ("out", "p")),
    ("two-outputs", None),
    ("affine", None),
]


def accepts(call, error):
    try:
        call()
    except error:
        return False
    return True


@pytest.fixture(scope="module")
def examples():
    return generate_dataset(DatasetSpec(n_train=2, n_val=2, n_test=8, length=LENGTH,
                                        seed=4)).test


@pytest.mark.parametrize("kind, head", HEADS, ids=[k for k, _ in HEADS])
def test_every_module_reads_the_plans_head(kind, head, examples):
    graph = head_graph(kind)
    assert graph.plan().head == head
    head_kind = head and graph.nodes[head[0]].kind
    x = encode_batch(examples[:2])

    batch = [(xi, 1) for xi in x]
    assert accepts(lambda: train_step(graph, batch, TrainConfig(), None),
                   TrainingError) == (head is not None)
    assert accepts(lambda: attribute(graph, {"seq": x}), AttributionError) \
        == (head is not None)
    assert accepts(lambda: compare_methods(graph, examples), AttributionError) \
        == (head_kind == "sigmoid")
    normalizes = head_kind == "softmax" and graph.nodes[head[1]].kind == "affine"
    assert accepts(lambda: mean_normalize_softmax_weights(graph),
                   NormalizationError) == normalizes
    assert (attribution_model(graph) is not graph) == normalizes
    if head is not None:
        report = deeplift(graph, {"seq": x})
        assert report.target[0] == head[1]


def test_a_softmax_over_a_product_is_explained_at_its_raw_pre_activation(examples):
    graph = head_graph("softmax-product")
    x = encode_batch(examples[:3])
    report = deeplift(graph, {"seq": x})
    p = forward(graph, {"seq": x})["p"]
    p0 = forward(graph, zeros_reference(graph))["p"]
    classes = np.argmax(p, axis=1)
    assert report.target[0] == "p"
    assert np.array_equal(report.target[1], classes)
    rows = np.arange(len(x))
    assert np.array_equal(report.delta_target, p[rows, classes] - p0[classes])
    assert np.all(report.residual < 1e-10)
