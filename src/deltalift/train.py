"""Mini-batch SGD with momentum on cross-entropy, seeded and deterministic.

The trainer accepts graphs ending in a 1-unit sigmoid head or a softmax
head, the head that ``graph.Plan.head`` names.  Loss gradients are seeded
at the pre-head node (sigmoid(z) - y, or softmax(z) - onehot), which is
exact and avoids saturating logs.
Each mini-batch is stacked into one batched forward pass and one
parameter-gradient sweep.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass

import numpy as np

from .autodiff import vjp_sweep
from .genomics import auroc
from .graph import Graph, GraphError, forward


# Samples per batched forward pass in ``evaluate``, the default mini-batch
# size: it bounds the memory of one pass whatever the dataset size.
EVAL_CHUNK = 32


class TrainingError(Exception):
    """Training aborted: bad head, non-finite loss, degenerate data."""


@dataclass
class TrainConfig:
    seed: int = 0
    epochs: int = 10
    batch_size: int = 32
    learning_rate: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 0.0  # L2 on weight matrices and filters only

    def check(self) -> "TrainConfig":
        """Raise ValueError naming the first field out of range: seed must be
        an integer >= 0, epochs and batch_size >= 1, the rates finite and >= 0."""
        for name, least in (("seed", 0), ("epochs", 1), ("batch_size", 1)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) \
                    or value < least:
                raise ValueError(f"training config: {name} must be an integer "
                                 f">= {least}, got {value!r}")
        for name in ("learning_rate", "momentum", "weight_decay"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real) \
                    or not math.isfinite(value) or value < 0:
                raise ValueError(f"training config: {name} must be a finite number "
                                 f">= 0, got {value!r}")
        return self

    @classmethod
    def from_file(cls, path) -> "TrainConfig":
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict):
            raise ValueError("training config must be a JSON object, got "
                             f"{type(payload).__name__}")
        known = {f for f in cls.__dataclass_fields__}
        extra = set(payload) - known
        if extra:
            raise ValueError(f"unknown training config fields: {sorted(extra)}")
        return cls(**payload).check()

    def to_file(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(asdict(self), fh, indent=1)
            fh.write("\n")


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float
    val_auroc: float


def _resolve_head(graph: Graph) -> tuple[str, str]:
    """Return the graph's (head id, pre-activation id), its ``Plan.head``;
    raise TrainingError when it has none."""
    head = graph.plan().head
    if head is None:
        if len(graph.outputs) != 1:
            raise TrainingError("training expects a single-output graph")
        raise TrainingError(f"graph head {graph.describe_outputs()} is not a 1-unit "
                            "sigmoid or a softmax")
    return head


def _stack_batch(graph: Graph, samples):
    """Stack (inputs, label) pairs into batched inputs and a label array.

    A sample is a dict of input id -> array, or, on a single-input graph,
    the bare array.  Each input's samples are copied into one float64
    array made for the batch.
    """
    ids = graph.input_ids()
    xs = [x for x, _ in samples]
    if len(ids) != 1 and not all(isinstance(x, dict) for x in xs):
        raise TrainingError("bare-array samples need a single-input graph")
    batched = {}
    for input_id in ids:
        try:
            arrays = [x[input_id] if isinstance(x, dict) else x for x in xs]
        except KeyError:
            raise GraphError(f"missing tensor for input node '{input_id}'") from None
        shape = np.shape(arrays[0])
        out = np.empty((len(arrays),) + shape)
        for i, a in enumerate(arrays):
            if np.shape(a) != shape:
                raise GraphError(f"input '{input_id}': samples differ in shape")
            out[i] = a
        batched[input_id] = out
    return batched, np.array([label for _, label in samples])


def _loss_and_seed(graph: Graph, trace, head_id: str, pre_id: str, labels):
    """Per-sample cross-entropy losses of a batched trace, and their
    gradient w.r.t. the pre-head activation."""
    head = graph.nodes[head_id]
    z = trace[pre_id]
    if head.kind == "sigmoid":
        y = labels.astype(np.float64)
        bad = (y != 0.0) & (y != 1.0)
        if bad.any():
            raise TrainingError(f"label {labels[bad][0]} outside sigmoid labels {{0, 1}}")
        losses = np.logaddexp(0.0, z[:, 0]) - y * z[:, 0]
        seed = trace[head_id] - y[:, None]
    else:
        y = labels.astype(np.float64)
        whole = np.isfinite(y) & (y == np.round(y))
        if not whole.all():
            raise TrainingError(f"softmax label {labels[~whole][0]} is not an integer")
        k = y.astype(int)
        bad = (k < 0) | (k >= z.shape[1])
        if bad.any():
            raise TrainingError(
                f"label {k[bad][0]} outside softmax range {z.shape[1]}"
            )
        rows = np.arange(len(k))
        losses = np.logaddexp.reduce(z, axis=1) - z[rows, k]
        seed = trace[head_id].copy()
        seed[rows, k] -= 1.0
    return losses, {pre_id: seed}


def _trainable_params(graph: Graph) -> dict[str, dict[str, np.ndarray]]:
    params: dict[str, dict[str, np.ndarray]] = {}
    for node in graph.nodes.values():
        arrays = {
            key: value
            for key, value in node.params.items()
            if isinstance(value, np.ndarray)
        }
        if arrays:
            params[node.id] = arrays
    return params


def train_step(graph: Graph, batch, config: TrainConfig, velocity):
    """One SGD-with-momentum update over a mini-batch.

    ``batch`` is a sequence of (inputs, label) pairs.  The samples go
    through one batched forward pass and one parameter-gradient sweep;
    gradients are averaged over the batch, so the update is
    deterministic.  Returns (updated graph, updated velocity, mean loss).
    """
    head_id, pre_id = _resolve_head(graph)
    params = _trainable_params(graph)
    inputs, labels = _stack_batch(graph, batch)
    trace = forward(graph, inputs)
    losses, seeds = _loss_and_seed(graph, trace, head_id, pre_id, labels)
    bad = ~np.isfinite(losses)
    if bad.any():
        raise TrainingError(f"non-finite loss {float(losses[bad][0])!r}; aborting")
    _, grand = vjp_sweep(trace, seeds, want_param_grads=True)

    scale = 1.0 / len(batch)
    if velocity is None:
        velocity = {
            nid: {k: np.zeros_like(v) for k, v in arrs.items()}
            for nid, arrs in params.items()
        }
    updates: dict[str, dict[str, np.ndarray]] = {}
    for nid, arrs in params.items():
        new_arrs = {}
        for key, value in arrs.items():
            g = grand.get(nid, {}).get(key, 0.0) * scale
            if config.weight_decay and key in ("weights", "filters"):
                g = g + config.weight_decay * value
            v = velocity[nid][key]
            v *= config.momentum
            v -= config.learning_rate * g
            new_arrs[key] = value + v
        updates[nid] = new_arrs
    return graph.replace_params(updates), velocity, float(losses.sum()) * scale


def evaluate(graph: Graph, dataset) -> tuple[float, float]:
    """Mean loss and auROC of the positive-class score over a dataset.

    Samples are scored in batched forward passes of at most
    ``EVAL_CHUNK``.  The auROC is nan on a set with no positive (label 1)
    or no negative (label 0), or with any other label, as it is with no
    validation set.  An empty dataset raises TrainingError.
    """
    head_id, pre_id = _resolve_head(graph)
    dataset = list(dataset)
    if not dataset:
        raise TrainingError("empty dataset: nothing to evaluate")
    losses = []
    scores = []
    for start in range(0, len(dataset), EVAL_CHUNK):
        inputs, labels = _stack_batch(graph, dataset[start:start + EVAL_CHUNK])
        trace = forward(graph, inputs)
        chunk_losses, _ = _loss_and_seed(graph, trace, head_id, pre_id, labels)
        losses.append(chunk_losses)
        scores.append(trace[head_id][:, -1])
    loss = float(np.concatenate(losses).mean())
    labels = [int(label) for _, label in dataset]
    if set(labels) != {0, 1}:
        return loss, float("nan")
    return loss, auroc(np.concatenate(scores), labels)


def train_loop(graph: Graph, train_set, val_set=None,
               config: TrainConfig | None = None, verbose: bool = False):
    """Train for ``config.epochs`` epochs; returns (graph, [EpochStats]).

    Shuffling, batching and updates all derive from ``config.seed``, so
    two runs with the same seed produce identical final weights.
    """
    config = (config or TrainConfig()).check()
    _resolve_head(graph)
    if not train_set:
        raise TrainingError("empty training set")
    rng = np.random.default_rng(config.seed)
    velocity = None
    history: list[EpochStats] = []
    n = len(train_set)
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, n, config.batch_size):
            batch = [train_set[i] for i in order[start:start + config.batch_size]]
            graph, velocity, loss = train_step(graph, batch, config, velocity)
            epoch_loss += loss
            n_batches += 1
        train_loss = epoch_loss / n_batches
        if val_set:
            val_loss, val_roc = evaluate(graph, val_set)
        else:
            val_loss, val_roc = float("nan"), float("nan")
        history.append(EpochStats(epoch, train_loss, val_loss, val_roc))
        if verbose:
            print(
                f"epoch {epoch}: train_loss={train_loss:.4f} "
                f"val_loss={val_loss:.4f} val_auroc={val_roc:.4f}"
            )
    return graph, history


def write_loss_curve(path, history: list[EpochStats]) -> None:
    """Loss curve TSV: epoch, train_loss, val_loss, val_auroc."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch\ttrain_loss\tval_loss\tval_auroc\n")
        for row in history:
            fh.write(
                f"{row.epoch}\t{row.train_loss:.8g}\t{row.val_loss:.8g}\t"
                f"{row.val_auroc:.8g}\n"
            )
