"""One SHA-256 over every attribution output, to check a change bit for bit.

    PYTHONPATH=src python tests/report_digest.py

prints the digest.  A change that should leave every output bit the same
must print the same digest as its parent.  The digest covers every field
of the reports of deeplift, grad*input and epsilon-LRP, LRP's bias shares
and target activation, and ``compare_methods``' rows, tracks and summary.
Every field is hashed with its type, shape and raw bytes, and mappings in
their own order.  The calls run on a fixed ensemble of random graphs
(``graphgen.random_graph_case``) and on the seeded paper CNN, both one
sample at a time and in batches of ``ATTRIBUTE_CHUNK``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import struct
from collections.abc import Mapping

import numpy as np

from deltalift.baselines import lrp_as_contribution_report, lrp_epsilon
from deltalift.engine import (
    ATTRIBUTE_CHUNK,
    METHODS,
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
from deltalift.graph import forward
from deltalift.normalize import attribution_model

from graphgen import random_graph_case

ENSEMBLE_SEED = 2718
ENSEMBLE_SIZE = 24
CNN_SEED = 4242
CNN_SEQUENCES = 32


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


def lrp_outputs(graph, inputs, target=None):
    """epsilon-LRP's report, bias shares and target activation."""
    rel = lrp_epsilon(graph, inputs, target=target)
    report = lrp_as_contribution_report(graph, inputs, rel)
    return report, {"bias_relevance": rel.bias_relevance,
                    "target_activation": rel.target_activation}


def ensemble_records():
    """(label, output) of every method on the random-graph ensemble: every
    second graph is piecewise linear, so epsilon-LRP runs on it."""
    rng = np.random.default_rng(ENSEMBLE_SEED)
    for i in range(ENSEMBLE_SIZE):
        linear = i % 2 == 0
        case = random_graph_case(rng, piecewise_linear_only=linear)
        graph = case.graph
        shape = graph.nodes["x"].output_shape
        batch = {"x": rng.normal(size=(ATTRIBUTE_CHUNK,) + shape)}
        state = compute_reference(graph, case.reference)
        targets = [case.target] + ([None] if graph.plan().head else [])
        for inputs in (case.inputs, batch):
            for target in targets:
                for method in ("deeplift", "grad_input"):
                    for reference in (None, case.reference, state):
                        yield (f"ensemble {i} {method}",
                               attribute(graph, inputs, method, reference, target))
                if linear:
                    yield f"ensemble {i} lrp", attribute(graph, inputs, "lrp", target=target)
                    yield f"ensemble {i} lrp_epsilon", lrp_outputs(graph, inputs, target)


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
        for method in METHODS:
            yield f"cnn {method}", attribute(cnn, inputs, method)
        for state in states:
            yield "cnn deeplift state", attribute(cnn, inputs, "deeplift", state)
        yield "cnn lrp_epsilon", lrp_outputs(cnn, inputs)
    for _ in range(2):
        yield "cnn compare_methods", compare_methods(cnn, examples)


def records():
    yield from ensemble_records()
    yield from cnn_records()


def digest(outputs=None) -> str:
    """The SHA-256 of ``outputs``, by default every record above."""
    h = hashlib.sha256()
    for label, output in records() if outputs is None else outputs:
        feed(h, label)
        feed(h, output)
    return h.hexdigest()


if __name__ == "__main__":
    print(digest())
