"""One SHA-256 over every attribution output, to check a change bit for bit.

    PYTHONPATH=src python tests/report_digest.py

prints the digest.  A change that should leave every output bit the same
must print the same digest as its parent.  The digest covers every field
of the reports of deeplift, grad*input and epsilon-LRP, LRP's bias shares,
target activation and relevance at every ancestor of the target, and
``compare_methods``' rows, tracks and summary; epsilon-LRP runs at the
default epsilon and at 0.
Every field is hashed with its type, shape and raw bytes, and mappings in
their own order.  The calls run on a fixed ensemble of random graphs
(``graphgen.random_graph_case``) and on the seeded paper CNN, both one
sample at a time and in batches of ``ATTRIBUTE_CHUNK``.  It also covers
training: the parameter gradients of one ``vjp_sweep`` per graph, from
random output seeds, for one sample and for a batch whose conv1d rows
span three im2col blocks; and the weights and loss history after two
seeded ``train_loop`` epochs of the paper CNN with the acceptance config.

``weights_digest(graph)`` is the hash a trained model is quoted by.
"""

from __future__ import annotations

import dataclasses
import hashlib
import struct
from collections.abc import Mapping

import numpy as np

from deltalift.autodiff import vjp_sweep
from deltalift.baselines import lrp_as_contribution_report, lrp_epsilon
from deltalift.engine import (
    ATTRIBUTE_CHUNK,
    LRP_EPSILON,
    attribute,
    compute_reference,
    zeros_reference,
)
from deltalift.genomics import (
    DatasetSpec,
    build_genomics_cnn,
    compare_methods,
    encode_dataset,
    generate_dataset,
)
from deltalift.graph import IM2COL_BLOCK_ROWS, forward
from deltalift.normalize import attribution_model
from deltalift.train import train_loop

from graphgen import random_graph_case
from test_acceptance import GENOMICS_TRAIN

ENSEMBLE_SEED = 2718
ENSEMBLE_SIZE = 24
CNN_SEED = 4242
CNN_SEQUENCES = 32
GRADIENT_SEED = 314
# the acceptance config for two epochs, on a training set whose last
# mini-batch is partial
TRAIN_CONFIG = dataclasses.replace(GENOMICS_TRAIN, epochs=2)
TRAIN_SPEC = DatasetSpec(n_train=250, n_val=64, n_test=0, seed=CNN_SEED)


def feed(h, value) -> None:
    """Add ``value`` to the hash ``h``: arrays by dtype, shape and bytes,
    floats by their bits, containers and dataclasses field by field.
    Raises TypeError on any other type, so nothing is skipped unseen."""
    if isinstance(value, np.ndarray):
        h.update(f"array {value.dtype.str} {value.shape}\n".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, Mapping):
        h.update(f"map {len(value)}\n".encode())
        for key, item in value.items():
            feed(h, key)
            feed(h, item)
    elif dataclasses.is_dataclass(value):
        h.update(f"{type(value).__name__}\n".encode())
        for f in dataclasses.fields(value):
            feed(h, f.name)
            feed(h, getattr(value, f.name))
    elif isinstance(value, (list, tuple)):
        h.update(f"{type(value).__name__} {len(value)}\n".encode())
        for item in value:
            feed(h, item)
    elif isinstance(value, (float, np.floating)):
        h.update(f"{type(value).__name__} ".encode() + struct.pack("<d", value))
    elif value is None or isinstance(value, (bool, int, str, np.integer, np.bool_)):
        h.update(f"{type(value).__name__} {value!r}\n".encode())
    else:
        raise TypeError(f"cannot digest a {type(value).__name__}")


def weights_digest(graph) -> str:
    """SHA-256 over the raw bytes of a graph's parameter arrays, in
    sorted node and key order; a node's integer geometry is left out."""
    h = hashlib.sha256()
    for node_id in sorted(graph.nodes):
        params = graph.nodes[node_id].params
        for key in sorted(params):
            if isinstance(params[key], np.ndarray):
                h.update(params[key].tobytes())
    return h.hexdigest()


def lrp_outputs(graph, inputs, target=None, epsilon=LRP_EPSILON):
    """epsilon-LRP's report, bias shares, target activation, and relevance
    at the inputs and at every ancestor of the target, in plan order."""
    rel = lrp_epsilon(graph, inputs, target=target, epsilon=epsilon)
    report = lrp_as_contribution_report(graph, inputs, rel)
    plan = rel.trace.graph.plan()
    ancestors = [nid for nid, _ in plan.inputs]
    ancestors += [nid for nid, _, _ in plan.steps_upto(rel.target[0])]
    return report, {"bias_relevance": rel.bias_relevance,
                    "target_activation": rel.target_activation,
                    "relevances": {nid: rel[nid] for nid in ancestors}}


def lrp_records(label, graph, inputs, target=None):
    """(label, output) of ``attribute(..., "lrp")`` and ``lrp_outputs``,
    at the default epsilon and at 0."""
    yield f"{label} lrp", attribute(graph, inputs, "lrp", target=target)
    yield f"{label} lrp_epsilon", lrp_outputs(graph, inputs, target)
    yield (f"{label} lrp epsilon=0",
           attribute(graph, inputs, "lrp", target=target, lrp_epsilon=0.0))
    yield f"{label} lrp_epsilon epsilon=0", lrp_outputs(graph, inputs, target, 0.0)


def ensemble():
    """(index, piecewise linear, case, batch of inputs) of each graph of
    the random-graph ensemble: every second graph is piecewise linear."""
    rng = np.random.default_rng(ENSEMBLE_SEED)
    for i in range(ENSEMBLE_SIZE):
        linear = i % 2 == 0
        case = random_graph_case(rng, piecewise_linear_only=linear)
        shape = case.graph.nodes["x"].output_shape
        yield i, linear, case, {"x": rng.normal(size=(ATTRIBUTE_CHUNK,) + shape)}


def ensemble_records():
    """(label, output) of every method on the random-graph ensemble;
    epsilon-LRP runs on the piecewise linear graphs."""
    for i, linear, case, batch in ensemble():
        graph = case.graph
        state = compute_reference(graph, case.reference)
        targets = [case.target] + ([None] if graph.plan().head else [])
        for inputs in (case.inputs, batch):
            for target in targets:
                for method in ("deeplift", "grad_input"):
                    for reference in (None, case.reference, state):
                        yield (f"ensemble {i} {method}",
                               attribute(graph, inputs, method, reference, target))
                if linear:
                    yield from lrp_records(f"ensemble {i}", graph, inputs, target)


def paper_cnn():
    """The seeded paper CNN with its logit bias set so half of the test
    sequences score above 0.5, and those sequences."""
    examples = generate_dataset(DatasetSpec(n_train=0, n_val=0, n_test=CNN_SEQUENCES,
                                            seed=CNN_SEED)).test
    xs = np.stack([x for x, _ in encode_dataset(examples)])
    cnn = build_genomics_cnn(seed=CNN_SEED)
    logits = forward(cnn, {"seq": xs})["logit"][:, 0]
    cnn = cnn.replace_params({"logit": {"bias": np.array([-np.median(logits)])}})
    return cnn, examples, xs


def cnn_records():
    """(label, output) of every method on the paper CNN, one sequence at a
    time and in ``ATTRIBUTE_CHUNK`` batches, and of ``compare_methods``,
    twice: the second call reads the memoized model and reference."""
    cnn, examples, xs = paper_cnn()
    model = attribution_model(cnn)
    states = (compute_reference(cnn, zeros_reference(cnn)),
              compute_reference(model, zeros_reference(model)))
    batches = [xs[i:i + ATTRIBUTE_CHUNK] for i in range(0, len(xs), ATTRIBUTE_CHUNK)]
    for inputs in [{"seq": x} for x in xs] + [{"seq": b} for b in batches]:
        for method in ("deeplift", "grad_input"):
            yield f"cnn {method}", attribute(cnn, inputs, method)
        for state in states:
            yield "cnn deeplift state", attribute(cnn, inputs, "deeplift", state)
        yield from lrp_records("cnn", cnn, inputs)
    for _ in range(2):
        yield "cnn compare_methods", compare_methods(cnn, examples)


def param_grads(graph, inputs, rng):
    """One training sweep's parameter gradients on ``inputs``, seeded at
    each graph output with standard normal values."""
    trace = forward(graph, inputs)
    seeds = {out: rng.normal(size=trace[out].shape) for out in graph.outputs}
    return vjp_sweep(graph, trace, seeds, want_param_grads=True)[1]


def gradient_records():
    """(label, parameter gradients) on every ensemble graph and on the
    paper CNN, for one sample and for a batch of two full im2col blocks
    of its conv1d rows and one partial block."""
    rng = np.random.default_rng(GRADIENT_SEED)
    graphs = [(f"ensemble {i}", case.graph) for i, _, case, _ in ensemble()]
    for label, graph in graphs + [("cnn", paper_cnn()[0])]:
        shape = graph.nodes[graph.input_ids()[0]].output_shape
        rows = [node.output_shape[0] for node in graph.nodes.values()
                if node.kind == "conv1d"]
        batch = 2 * max(1, IM2COL_BLOCK_ROWS // max(rows, default=IM2COL_BLOCK_ROWS)) + 1
        for size in ((), (batch,)):
            inputs = {graph.input_ids()[0]: rng.normal(size=size + shape)}
            yield f"{label} param_grads", param_grads(graph, inputs, rng)


def training_records():
    """(label, weights digest and loss history) of the paper CNN after
    ``TRAIN_CONFIG``'s epochs on ``TRAIN_SPEC``'s sequences."""
    data = generate_dataset(TRAIN_SPEC)
    graph, history = train_loop(build_genomics_cnn(seed=TRAIN_CONFIG.seed),
                                encode_dataset(data.train), encode_dataset(data.val),
                                TRAIN_CONFIG)
    yield "cnn train_loop", {"weights": weights_digest(graph), "history": history}


def records():
    yield from ensemble_records()
    yield from cnn_records()
    yield from gradient_records()
    yield from training_records()


def digest(outputs=None) -> str:
    """The SHA-256 of ``outputs``, by default every record above."""
    h = hashlib.sha256()
    for label, output in records() if outputs is None else outputs:
        feed(h, label)
        feed(h, output)
    return h.hexdigest()


if __name__ == "__main__":
    print(digest())
