"""Reverse-mode differentiation over forward traces.

``backward`` computes the gradient of one scalar activation (the target)
with respect to every node activation in the graph; training additionally
collects parameter gradients through the same sweep.  The finite
difference checker is the numerical oracle for all of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import (
    ForwardTrace,
    Graph,
    GraphError,
    Tensor,
    conv1d_tap,
    conv1d_windows,
    forward,
    maxout_pieces,
    topo_order,
)


@dataclass
class GradientTrace:
    """Per-node d(target)/d(activation) arrays for one backward pass."""

    gradients: dict[str, Tensor]
    target: tuple[str, int]

    def __getitem__(self, node_id: str) -> Tensor:
        return self.gradients[node_id]


def resolve_target(graph: Graph, target, batch: int | None = None):
    """Normalize a target reference to ``(node_id, flat_index)``.

    For a batch of ``batch`` samples the index becomes one flat index per
    sample, shape (batch,): a single index is repeated, a per-sample
    index array is checked.
    """
    if isinstance(target, str):
        node_id, index = target, 0
    else:
        node_id, index = target
    if node_id not in graph.nodes:
        raise GraphError(f"target node '{node_id}' does not exist")
    size = int(np.prod(graph.nodes[node_id].output_shape))
    if batch is None:
        if np.ndim(index) != 0:
            raise GraphError("per-sample target indices need a batch of inputs")
        index = int(index)
        in_range = 0 <= index < size
    else:
        index = np.asarray(index).astype(np.intp)
        if index.shape not in ((), (batch,)):
            raise GraphError(
                f"a batch of {batch} needs one target index or {batch}, "
                f"got shape {index.shape}"
            )
        index = np.broadcast_to(index, (batch,))
        in_range = index.size == 0 or (index.min() >= 0 and index.max() < size)
    if not in_range:
        raise GraphError(
            f"target index {index} out of range for node '{node_id}' "
            f"with {size} elements"
        )
    return node_id, index


def target_seed(shape, index) -> Tensor:
    """1 at the target's flat index of each sample, 0 elsewhere.

    Shaped ``shape`` for one index, (batch, *shape) for one per sample.
    """
    if np.ndim(index) == 0:
        seed = np.zeros(shape)
        seed.flat[index] = 1.0
        return seed
    seed = np.zeros((len(index), int(np.prod(shape))))
    seed[np.arange(len(index)), index] = 1.0
    return seed.reshape((len(index),) + tuple(shape))


def target_value(values: Tensor, index):
    """Entry of ``values`` at the target's flat index: a float for one
    sample, an array with one entry per sample for a batch."""
    if np.ndim(index) == 0:
        return float(values.flat[index])
    return values.reshape(len(index), -1)[np.arange(len(index)), index]


def _pool_argmax_rows(x: Tensor, width: int, stride: int, axis: int = 0) -> Tensor:
    """Input row index of each window's max (first index on ties).

    Windows run along ``axis``; the result is shaped like the pooled
    output: (n_windows,) for vector input, (n_windows, channels)
    otherwise, behind any leading batch axis.
    """
    win = conv1d_windows(x, width, stride, axis)
    am = win.argmax(axis=axis + 1)
    offsets = stride * np.arange(win.shape[axis])
    return am + offsets.reshape((-1,) + (1,) * (am.ndim - axis - 1))


def _pool_index(rows: Tensor, axis: int = 0) -> tuple:
    """Index of the input entries that ``rows`` (shaped like a pooled
    output, length axis ``axis``) select, for reads and ``np.add.at``."""
    index = list(np.ix_(*(np.arange(n) for n in rows.shape)))
    index[axis] = rows
    return tuple(index)


def vjp_node(node, grad_out: Tensor, trace: ForwardTrace, grads: dict,
             param_grads: dict | None = None) -> None:
    """Accumulate input (and optionally parameter) gradients for one node.

    A batched trace's activations and gradients carry a leading batch
    axis, and its parameter gradients are summed over it.  Input
    gradients are formed only for sources that have an entry in
    ``grads``.
    """
    kind = node.kind
    if kind == "input":
        return
    lead = 0 if trace.batch is None else 1
    src = node.inputs[0]
    x = trace[src]
    gin = grads.get(src)

    if kind == "affine":
        w = node.params["weights"]
        if gin is not None:
            gin += (grad_out @ w).reshape(x.shape)
        if param_grads is not None:
            rows = grad_out.reshape(-1, w.shape[0])
            param_grads[node.id] = {
                "weights": rows.T @ x.reshape(len(rows), -1),
                "bias": rows.sum(axis=0),
            }
    elif kind == "conv1d":
        filters = node.params["filters"]
        stride = int(node.params["stride"])
        n_filt, width, channels = filters.shape
        n_out = grad_out.shape[lead]
        rows = grad_out.reshape(-1, n_filt)  # (B*P, F)
        if gin is not None:
            # one (B*P, F) @ (F, C) product per filter tap, added in place:
            # cheaper than scattering a (B*P, K*C) product back (col2im)
            tap_shape = grad_out.shape[:-1] + (channels,)
            for k in range(width):
                conv1d_tap(gin, k, stride, n_out, lead)[...] += (
                    rows @ filters[:, k, :]
                ).reshape(tap_shape)
        if param_grads is not None:
            # im2col: one (F, B*P) @ (B*P, K*C) product
            cols = conv1d_windows(x, width, stride, lead).reshape(len(rows), -1)
            dw = (rows.T @ cols).reshape(filters.shape)
            param_grads[node.id] = {"filters": dw, "bias": rows.sum(axis=0)}
    elif kind == "maxpool1d":
        if gin is not None:
            width, stride = int(node.params["width"]), int(node.params["stride"])
            rows = _pool_argmax_rows(x, width, stride, lead)
            np.add.at(gin, _pool_index(rows, lead), grad_out)
    elif kind == "relu":
        if gin is not None:
            gin += grad_out * (x > 0)
    elif kind == "prelu":
        slopes = node.params["slopes"]
        if gin is not None:
            gin += grad_out * ((x > 0) + (x <= 0) * slopes)
        if param_grads is not None:
            gs = grad_out * np.minimum(x, 0.0)
            param_grads[node.id] = {"slopes": gs.reshape(-1, slopes.size).sum(axis=0)}
    elif kind == "sigmoid":
        if gin is not None:
            y = trace[node.id]
            gin += grad_out * y * (1.0 - y)
    elif kind == "tanh":
        if gin is not None:
            y = trace[node.id]
            gin += grad_out * (1.0 - y * y)
    elif kind == "maxout":
        w = node.params["weights"]
        _, out_dim, in_dim = w.shape
        # active piece per unit, lowest index on ties
        active = maxout_pieces(node, x, lead).argmax(axis=-2)
        units = np.arange(out_dim)
        if gin is not None:
            gin += (grad_out[..., None, :] @ w[active, units]).reshape(x.shape)
        if param_grads is not None:
            active = active.reshape(-1, out_dim)
            rows = grad_out.reshape(-1, out_dim)
            flat = x.reshape(len(rows), in_dim)
            dw = np.zeros_like(w)
            db = np.zeros_like(node.params["biases"])
            np.add.at(dw, (active, units), rows[:, :, None] * flat[:, None, :])
            np.add.at(db, (active, units), rows)
            param_grads[node.id] = {"weights": dw, "biases": db}
    elif kind == "product":
        a, b = node.inputs
        if a in grads:
            grads[a] += grad_out * trace[b]
        if b in grads:
            grads[b] += grad_out * trace[a]
    elif kind == "softmax":
        if gin is not None:
            y = trace[node.id]
            gin += y * (grad_out - (grad_out * y).sum(axis=-1, keepdims=True))
    else:
        raise GraphError(f"no gradient rule for node kind '{kind}'")


def vjp_sweep(graph: Graph, trace: ForwardTrace, seeds: dict[str, Tensor],
              want_param_grads: bool = False):
    """Reverse sweep from seed gradients; returns (grads, param_grads).

    Single-sample and batched traces run the same rules; seeds and node
    gradients are shaped like the trace's activations, and parameter
    gradients are summed over the batch.  Without ``want_param_grads``
    the result is (gradients of every node, None).  With it the sweep
    serves training and returns (None, parameter gradients): each node's
    gradient is dropped once propagated, and gradients into input nodes
    are never formed.
    """
    grads = {
        nid: np.zeros(trace[nid].shape)
        for nid, node in graph.nodes.items()
        if not (want_param_grads and node.kind == "input")
    }
    for node_id, seed in seeds.items():
        grads[node_id] += seed
    param_grads: dict | None = {} if want_param_grads else None
    for node_id in reversed(topo_order(graph)):
        node = graph.nodes[node_id]
        if node.kind == "input":
            continue
        grad_out = grads.pop(node_id) if want_param_grads else grads[node_id]
        if not grad_out.any():
            continue
        vjp_node(node, grad_out, trace, grads, param_grads)
    return (None, param_grads) if want_param_grads else (grads, None)


def backward(graph: Graph, trace: ForwardTrace, target) -> GradientTrace:
    """Gradient of the target activation w.r.t. every node activation.

    ``target`` is a ``(node_id, flat_index)`` pair (or a bare node id,
    meaning index 0); a batched trace takes one index or one per sample.
    ReLU passes gradient only where active, maxpool routes to the first
    argmax of each window, maxout differentiates the active piece.
    """
    graph.require_valid()
    node_id, index = resolve_target(graph, target, trace.batch)
    seed = target_seed(graph.nodes[node_id].output_shape, index)
    grads, _ = vjp_sweep(graph, trace, {node_id: seed})
    return GradientTrace(grads, (node_id, index))


# ---------------------------------------------------------------------------
# Finite-difference oracle


@dataclass
class FiniteDifferenceReport:
    max_rel_deviation: float
    tolerance: float
    passed: bool
    notes: list[str] = field(default_factory=list)
    perturbed: bool = False


def _kink_distance(graph: Graph, trace: ForwardTrace) -> float:
    """Smallest margin to a non-differentiable point across the trace.

    Measures |pre-activation| for relu/prelu, the gap between the top two
    window entries for maxpool, and the gap between the top two pieces
    for maxout.
    """
    margin = np.inf
    for node in graph.nodes.values():
        if node.kind in ("relu", "prelu"):
            x = trace[node.inputs[0]]
            if x.size:
                margin = min(margin, float(np.min(np.abs(x))))
        elif node.kind == "maxpool1d":
            x = trace[node.inputs[0]]
            win = conv1d_windows(x, int(node.params["width"]), int(node.params["stride"]))
            if win.shape[1] > 1:
                top2 = np.sort(win, axis=1)[:, -2:]
                margin = min(margin, float(np.min(top2[:, 1] - top2[:, 0])))
        elif node.kind == "maxout":
            z = maxout_pieces(node, trace[node.inputs[0]])
            if z.shape[0] > 1:
                top2 = np.sort(z, axis=0)[-2:, :]
                margin = min(margin, float(np.min(top2[1] - top2[0])))
    return margin


def finite_difference_check(
    graph: Graph,
    inputs: dict[str, Tensor],
    target,
    h: float = 1e-5,
    tolerance: float = 1e-6,
    rng: np.random.Generator | None = None,
) -> FiniteDifferenceReport:
    """Compare analytic gradients against central differences.

    Deviations are measured as |analytic - numeric| relative to the
    larger of the two magnitudes, floored at 1 so near-zero gradients
    are compared absolutely.  Inputs sitting within ``10 h`` of a kink
    (relu zero, tied window max, tied maxout pieces) are nudged with a
    small deterministic perturbation first, and the report says so.
    """
    graph.require_valid()
    target = resolve_target(graph, target)
    rng = np.random.default_rng(0) if rng is None else rng
    notes: list[str] = []
    perturbed = False
    work = {k: np.asarray(v, dtype=np.float64).copy() for k, v in inputs.items()}

    margin_floor = 10.0 * h
    for _ in range(8):
        trace = forward(graph, work)
        if _kink_distance(graph, trace) >= margin_floor:
            break
        perturbed = True
        for key in work:
            work[key] = work[key] + rng.uniform(-50 * h, 50 * h, size=work[key].shape)
    else:
        notes.append("could not move input off a kink; deviations may be large")
    if perturbed:
        notes.append("input within 10h of a kink: applied a small perturbation")

    trace = forward(graph, work)
    analytic = backward(graph, trace, target)
    t_node, t_index = target

    max_dev = 0.0
    for input_id in graph.input_ids():
        base = work[input_id]
        grad = analytic[input_id]
        flat = base.ravel()
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            f_plus = forward(graph, work)[t_node].flat[t_index]
            flat[i] = keep - h
            f_minus = forward(graph, work)[t_node].flat[t_index]
            flat[i] = keep
            numeric = (f_plus - f_minus) / (2.0 * h)
            a = grad.flat[i]
            dev = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
            max_dev = max(max_dev, dev)

    return FiniteDifferenceReport(
        max_rel_deviation=max_dev,
        tolerance=tolerance,
        passed=max_dev <= tolerance,
        notes=notes,
        perturbed=perturbed,
    )
