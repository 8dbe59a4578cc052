"""Reverse-mode differentiation over forward traces.

``vjp_sweep`` is the package's one reverse sweep: ``backward`` and
training run it with the gradient rules (``GRADIENT_RULES``, one per
node kind), and DeepLIFT and epsilon-LRP with tables (``engine``) that
extend it, replacing some of its rules.  The sweep walks the plan
(``Graph.plan``) of the trace's own graph (``ForwardTrace.graph``), so
no caller can pair a trace with another graph, and reaches each rule by
one table lookup.  The finite difference checker is the numerical
oracle for the gradients.

Max-pooling sends each window's value to one input unit, its route:
the window's first argmax, which ``forward`` records in the trace as it
evaluates the pool (``ForwardTrace.route``), so no sweep scans the
windows again.  Below a pool a sweep buffer is then mostly zeros, and
where the route is sparse, with fewer entries than the pool's input has
rows, the pool rules write it as a ``Routed`` buffer instead: (flat
index, value) entries of the dense array (``write_pool_input``).  A
denser route is written dense, since conv1d's routed transpose costs an
entry what its dense one costs a row.  The elementwise rules and conv1d
take a routed buffer and work on its entries only; the sweep makes a
buffer dense on a second write and before any other rule.  What it
returns (``SweepValues``) makes a routed buffer dense, and an unreached
node's zeros, only when a caller reads that node.

The conv1d rules take their window starts and im2col blocks from
``graph``, which owns window geometry.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .graph import (
    ELEMENTWISE_KINDS,
    DenseOnRead,
    ForwardTrace,
    Graph,
    GraphError,
    Tensor,
    _window_starts,
    conv1d_windows,
    forward,
    im2col_blocks,
    maxout_pieces,
)


def resolve_target(graph: Graph, target, batch: int | None = None):
    """Normalize a target reference to ``(node_id, flat_index)``.

    For a batch of ``batch`` samples the index becomes one flat index per
    sample, shape (batch,): a single index is repeated, a per-sample
    index array is checked.  A bool, float or str index, or an array of
    them, raises GraphError rather than being truncated or parsed.
    """
    if isinstance(target, str):
        node_id, index = target, 0
    else:
        node_id, index = target
    node = graph.nodes.get(node_id)
    if node is None:
        raise GraphError(f"target node '{node_id}' does not exist")
    size = math.prod(node.output_shape)
    if type(index) is not int:  # a Python int, the common case, is final
        array = np.asarray(index)
        if array.dtype.kind not in "iu":
            raise GraphError(f"target index {index!r} for node '{node_id}' "
                             "is not an integer")
        if batch is None and array.ndim != 0:
            raise GraphError("per-sample target indices need a batch of inputs")
        index = int(array) if batch is None else array
    if batch is None:
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
        if batch is not None:  # name the first bad row, not the whole array
            row = int(np.flatnonzero((index < 0) | (index >= size))[0])
            index = f"{index[row]} (sample {row} of the batch)"
        raise GraphError(
            f"target index {index} out of range for node '{node_id}' "
            f"with {size} elements"
        )
    return node_id, index


def one_per_call(value) -> bool:
    """Whether ``value`` (a target index, or a target's value) holds one
    entry for the call rather than one per sample.  A Python int or float,
    what a single sample gives, skips ``np.ndim``, which takes
    microseconds on one."""
    return type(value) is int or type(value) is float or np.ndim(value) == 0


def target_seed(shape, index) -> Tensor:
    """1 at the target's flat index of each sample, 0 elsewhere.

    Shaped ``shape`` for one index, (batch, *shape) for one per sample.
    """
    if one_per_call(index):
        seed = np.zeros(shape)
        seed.flat[index] = 1.0
        return seed
    seed = np.zeros((len(index), math.prod(shape)))
    seed[np.arange(len(index)), index] = 1.0
    return seed.reshape((len(index),) + tuple(shape))


def target_value(values: Tensor, index):
    """Entry of ``values`` at the target's flat index: a float for one
    sample, an array with one entry per sample for a batch."""
    if one_per_call(index):
        return float(values.flat[index])
    return values.reshape(len(index), -1)[np.arange(len(index)), index]


def take_at(arr: Tensor, index, size: int) -> Tensor:
    """``arr`` at the flat indices ``index`` of an array of ``size``
    entries, which ``arr`` fills or broadcasts against from the right (a
    single-sample reference against a batch, per-channel parameters)."""
    return arr.take(index if arr.size == size else index % arr.size)


class Routed:
    """A sweep buffer that holds only the entries max-pooling routed to.

    ``values`` sit at the flat indices ``index`` (C order) of a dense
    array of ``shape``; where windows overlap an index repeats, and the
    dense array sums its values.  Both keep the pooled output's shape, so
    they lead with a batched trace's batch axis, and where the dense array
    is (..., length, channels) their last axis is its channel axis.
    """

    __slots__ = ("index", "values", "shape", "size", "_dense")

    def __init__(self, index: Tensor, values: Tensor, shape):
        self.index, self.values, self.shape = index, values, tuple(shape)
        self.size = math.prod(self.shape)
        self._dense = None

    def at(self, arr: Tensor) -> Tensor:
        """``arr``, shaped like the dense array or broadcasting against
        it, read at the entries."""
        return take_at(arr, self.index, self.size)

    def like(self, values: Tensor) -> "Routed":
        """``values``, read at these entries, as a buffer routed alike."""
        return Routed(self.index, values, self.shape)

    def any(self) -> bool:
        return bool(self.values.any())

    def dense(self) -> Tensor:
        """The dense array, formed once: for a route too dense to keep
        (``write_pool_input``), for a second write, for a rule outside
        ``ROUTED_KINDS``, or when a caller reads the node in the sweep's
        result."""
        if self._dense is None:
            self._dense = np.bincount(self.index.ravel(), self.values.ravel(),
                                      self.size).reshape(self.shape)
        return self._dense


def whole(arr: Tensor) -> Tensor:
    """The reader ``aligned`` gives for a dense buffer: arrays as they are."""
    return arr


def aligned(out):
    """``out``'s values, a reader ``at`` of arrays aligned with them, and
    ``like``, which lays values read that way out as ``out`` is.

    For a dense ``out`` both are the identity, so arrays broadcast as they
    are; for a ``Routed`` one ``at`` reads its entries.  An elementwise
    rule written over these serves both.
    """
    if type(out) is Routed:
        return out.values, out.at, out.like
    return out, whole, whole


def accumulate(grads: dict, node_id: str, value) -> None:
    """Add ``value`` into ``node_id``'s buffer; the first write keeps
    ``value`` itself, so it must be a fresh array of the node's shape or a
    ``Routed`` buffer.  A second write makes the buffer dense."""
    buf = grads.get(node_id)
    if buf is None:
        grads[node_id] = value
        return
    if type(buf) is Routed:
        buf = grads[node_id] = buf.dense()
    buf += value.dense() if type(value) is Routed else value


def _forms(src: str, trace: ForwardTrace, grads: dict, param_grads) -> bool:
    """Whether to form ``src``'s gradient: training (``param_grads``)
    needs none for an input node unless the caller holds its buffer."""
    return (param_grads is None or src in grads
            or trace.graph.nodes[src].kind != "input")


def _one_input(input_grad, param_grad=None):
    """The gradient rule of a one-input kind.

    Given ``param_grads`` it stores ``param_grad(node, grad_out, x,
    lead)``, the node's parameter gradients; its input then accumulates
    ``input_grad(node, grad_out, x, trace, lead)``.  ``x`` is the input's
    activation and ``lead`` the number of batch axes.
    """

    def rule(node, grad_out, trace, grads, param_grads=None):
        src = node.inputs[0]
        x = trace[src]
        lead = 0 if trace.batch is None else 1
        if param_grads is not None and param_grad is not None:
            param_grads[node.id] = param_grad(node, grad_out, x, lead)
        if _forms(src, trace, grads, param_grads):
            accumulate(grads, src, input_grad(node, grad_out, x, trace, lead))

    return rule


def _affine_input_grad(node, grad_out, x, trace, lead):
    return (grad_out @ node.params["weights"]).reshape(x.shape)


def _conv1d_input_grad(node, grad_out, x, trace, lead):
    filters = node.params["filters"]
    if type(grad_out) is Routed:
        # each entry's value times its filter's K*C taps, one broadcast
        # product (einsum forms it faster than ``*``), then one scatter
        # into the window its output row reads.  An entry's filter is its
        # position on the values' last axis, the output's channel axis
        # (see ``Routed``).
        n_filt = len(filters)
        assert grad_out.values.shape[-1] == n_filt, grad_out.values.shape
        taps = np.einsum("...f,fk->...fk", grad_out.values, filters.reshape(n_filt, -1))
        starts = _read_starts(node, x, lead)[grad_out.index // n_filt]
        reads = _index_windows(x.size, taps.shape[-1])[starts]
        return np.bincount(reads.ravel(), taps.ravel(), x.size).reshape(x.shape)
    # col2im: each tap's (B*P, F) @ (F, C) product added in place, in tap
    # order, into the input rows that tap reads
    n_filt, width, _ = filters.shape
    stride = node.params["stride"]
    n_out = grad_out.shape[lead]
    rows = grad_out.reshape(-1, n_filt)  # (B*P, F)
    gx = np.zeros(x.shape)
    gxs = gx.reshape((-1,) + x.shape[lead:])  # (B, L, C) view
    for k in range(width):
        view = gxs[:, k::stride][:, :n_out]
        np.add(view, (rows @ filters[:, k]).reshape(view.shape), out=view)
    return gx


def _elementwise_input_grad(node, grad_out, x, trace, lead):
    g, at, like = aligned(grad_out)
    return like(elementwise_grad(node, g, trace, at))


def _maxout_input_grad(node, grad_out, x, trace, lead):
    w = node.params["weights"]
    # active piece per unit, lowest index on ties
    active = maxout_pieces(node, x, lead).argmax(axis=-2)
    return (grad_out[..., None, :] @ w[active, np.arange(w.shape[1])]).reshape(x.shape)


def _softmax_input_grad(node, grad_out, x, trace, lead):
    y = trace[node.id]
    return y * (grad_out - (grad_out * y).sum(axis=-1, keepdims=True))


def _product_rule(node, grad_out, trace, grads, param_grads=None):
    for src, other in zip(node.inputs, reversed(node.inputs)):
        if _forms(src, trace, grads, param_grads):
            accumulate(grads, src, grad_out * trace[other])


def write_pool_input(grads: dict, pool, index: Tensor, values: Tensor, shape) -> None:
    """Accumulate into max pool ``pool``'s input the buffer of ``values``
    at the flat ``index`` (its route, or DeepLIFT's reroute) of a dense
    array of ``shape``.

    The buffer stays ``Routed`` only where the route is sparse: fewer
    entries than the pool's input has rows (entries * channels < size).
    Otherwise it is written dense, and the rules below the pool run their
    dense kernels: conv1d's routed transpose costs an entry what its
    dense one costs a row.  The paper CNN's pool routes 60 entries on
    186 rows per sample and stays routed; a width-4, stride-4 pool over
    44 rows of C >= 4 channels routes 11 * C >= 44 entries, and goes
    dense.  The choice reads the buffer's own counts, so batching does
    not change it.
    """
    buf = Routed(index, values, shape)
    sample = pool.output_shape
    channels = sample[-1] if len(sample) == 2 else 1
    accumulate(grads, pool.inputs[0],
               buf if values.size * channels < buf.size else buf.dense())


def _maxpool_rule(node, grad_out, trace, grads, param_grads=None):
    # the source's shape comes from its spec: reading its activation would
    # form one that a batched forward deferred (``Plan.deferred``)
    src = node.inputs[0]
    if _forms(src, trace, grads, param_grads):
        shape = trace.graph.nodes[src].output_shape
        if trace.batch is not None:
            shape = (trace.batch,) + shape
        write_pool_input(grads, node, trace.route(node.id), grad_out, shape)


def _input_rule(node, grad_out, trace, grads, param_grads=None):
    """An input node passes nothing on."""


def _relu_derivative(node, g, trace, at):
    return g * (at(trace[node.inputs[0]]) > 0)


def _prelu_derivative(node, g, trace, at):
    x = at(trace[node.inputs[0]])
    return g * ((x > 0) + (x <= 0) * at(node.sample_slopes))


def _sigmoid_derivative(node, g, trace, at):
    y = at(trace[node.id])
    return g * y * (1.0 - y)


def _tanh_derivative(node, g, trace, at):
    y = at(trace[node.id])
    return g * (1.0 - y * y)


_DERIVATIVES = {"relu": _relu_derivative, "prelu": _prelu_derivative,
                "sigmoid": _sigmoid_derivative, "tanh": _tanh_derivative}


def elementwise_grad(node, g, trace: ForwardTrace, at) -> Tensor:
    """``g`` times the derivative of a relu, prelu, sigmoid or tanh node at
    ``trace``'s activations, read by ``at`` (see ``aligned``); g = 1.0
    gives the derivative itself."""
    return _DERIVATIVES[node.kind](node, g, trace, at)


def _read_starts(node, x: Tensor, lead: int) -> Tensor:
    """Flat index into ``x``, a conv1d node's input, of the first entry
    that each output row (sample * n_out + position) reads: the
    first-channel window starts (``graph._window_starts``)."""
    starts, channels = _window_starts(x.shape, node.params["filters"].shape[1],
                                      node.params["stride"], lead)
    return starts.reshape(-1)[::channels]


@functools.lru_cache(maxsize=64)
def _index_windows(n: int, size: int) -> Tensor:
    """``conv1d_windows`` of ``arange(n)``: row i holds the flat indices
    i to i + size - 1.  Cached per argument tuple; read-only."""
    return conv1d_windows(np.arange(n), size, 1)


def _channel_sums(rows: Tensor) -> Tensor:
    """Column sums of a tall (rows, channels) array as one matrix-vector
    product; ``rows.sum(axis=0)`` runs a loop over only ``channels``
    entries per row."""
    return np.ones(len(rows)) @ rows


# Parameter gradients of a node with input ``x``, summed over the batch
# axis (the first ``lead`` axes): ``param_grad(node, grad_out, x, lead)``.


def _affine_param_grads(node, grad_out, x, lead):
    rows = grad_out.reshape(-1, node.params["weights"].shape[0])
    return {"weights": rows.T @ x.reshape(len(rows), -1), "bias": rows.sum(axis=0)}


def _conv1d_param_grads(node, grad_out, x, lead):
    filters = node.params["filters"]
    if type(grad_out) is Routed:
        # each entry's value times the window its filter read; the entries
        # end with the channel axis, whose position is the filter
        n_filt = len(filters)
        values = grad_out.values.reshape(-1, n_filt).T  # (F, entries per filter)
        rows = grad_out.index.reshape(-1, n_filt).T // n_filt
        starts = _read_starts(node, x, lead)[rows]
        windows = conv1d_windows(x.reshape(-1), filters[0].size, 1)[starts]
        dw = np.matmul(values[:, None, :], windows)
        return {"filters": dw.reshape(filters.shape), "bias": _channel_sums(values.T)}
    # im2col products summed over the forward's blocks
    n_filt, width, _ = filters.shape
    rows = grad_out.reshape(-1, n_filt)  # (B*P, F)
    dw = np.zeros((n_filt, filters[0].size))
    for block, win in im2col_blocks(x, width, node.params["stride"], lead):
        dw += rows[block].T @ win.reshape(-1, dw.shape[1])
    return {"filters": dw.reshape(filters.shape), "bias": _channel_sums(rows)}


def _prelu_param_grads(node, grad_out, x, lead):
    g, at, _ = aligned(grad_out)
    gs = np.minimum(at(x), 0.0)
    gs *= g
    n = node.params["slopes"].size
    if type(grad_out) is Routed:  # the entry at flat index i has channel i % n
        return {"slopes": np.bincount(grad_out.index.ravel() % n, gs.ravel(), n)}
    return {"slopes": _channel_sums(gs.reshape(-1, n))}


def _maxout_param_grads(node, grad_out, x, lead):
    w = node.params["weights"]  # each unit's active piece
    _, out_dim, in_dim = w.shape
    active = maxout_pieces(node, x, lead).argmax(axis=-2).reshape(-1, out_dim)
    units = np.arange(out_dim)
    rows = grad_out.reshape(-1, out_dim)
    dw = np.zeros_like(w)
    db = np.zeros_like(node.params["biases"])
    np.add.at(dw, (active, units), rows[:, :, None] * x.reshape(len(rows), 1, in_dim))
    np.add.at(db, (active, units), rows)
    return {"weights": dw, "biases": db}


_elementwise_rule = _one_input(_elementwise_input_grad)

# The gradient rule of every kind, ``rule(node, grad_out, trace, grads,
# param_grads=None)``: the sweep's default table, which DeepLIFT's and
# epsilon-LRP's extend.  Max-pooling writes its input a ``Routed`` buffer
# at the trace's route where that route is sparse (``write_pool_input``),
# and the rules of ``ROUTED_KINDS`` take one and keep it routed.
GRADIENT_RULES = {
    "input": _input_rule,
    "affine": _one_input(_affine_input_grad, _affine_param_grads),
    "conv1d": _one_input(_conv1d_input_grad, _conv1d_param_grads),
    "maxpool1d": _maxpool_rule,
    "relu": _elementwise_rule,
    "prelu": _one_input(_elementwise_input_grad, _prelu_param_grads),
    "sigmoid": _elementwise_rule,
    "tanh": _elementwise_rule,
    "maxout": _one_input(_maxout_input_grad, _maxout_param_grads),
    "product": _product_rule,
    "softmax": _one_input(_softmax_input_grad),
}

# kinds whose rules, in every rule table, keep a ``Routed`` buffer routed
ROUTED_KINDS = ELEMENTWISE_KINDS | {"conv1d"}


def vjp_node(node, grad_out, trace: ForwardTrace, grads: dict,
             param_grads: dict | None = None) -> None:
    """The gradient rule of one node (``GRADIENT_RULES`` of its kind).

    Accumulates input gradients into ``grads`` and, given
    ``param_grads``, stores the node's parameter gradients, summed over a
    batched trace's batch axis; input gradients carry it.
    """
    GRADIENT_RULES[node.kind](node, grad_out, trace, grads, param_grads)


class SweepValues(DenseOnRead):
    """A sweep's result: a dense array for every node id of the graph.

    The sweep leaves a routed node's ``Routed`` buffer, and for a node it
    never reached only the shape of its zeros; each becomes its dense
    array when first read, and is kept.  A caller that reads only the
    inputs and the target, as the reports do, so never forms the others.
    Indexing, ``get``, ``pop``, ``values``, ``items``, ``dict(...)`` and
    ``**`` unpacking all see the dense arrays.
    """

    @staticmethod
    def _dense(value):
        if type(value) is Routed:
            return value.dense()
        if type(value) is tuple:
            return np.zeros(value)
        return None


def vjp_sweep(trace: ForwardTrace, seeds: dict[str, Tensor],
              want_param_grads: bool = False, rules: dict | None = None):
    """The one reverse sweep over the trace's graph; returns (values,
    param_grads).

    From copies of ``seeds`` (node id -> array shaped like its
    activations), nodes run in reverse topological order under
    ``rules[kind]``, a table with a rule for every kind (default
    ``GRADIENT_RULES``, which other tables extend).  A rule ``rule(node,
    out, trace, values, param_grads)`` writes into its sources with
    ``accumulate``, so a node gets a buffer only once a consumer writes
    into it; nodes without one are skipped, and a rule whose outcome
    depends on an all-zero ``out`` (one that raises) checks for it.  The
    trace needs the activations of the nodes the sweep reaches only, so
    a forward pass up to the seeded node (``forward(..., upto=...)``)
    serves.

    A max-pool rule writes its input a ``Routed`` buffer where the route
    is sparse (``write_pool_input``): only the window maxima's entries,
    not a dense array that is zero elsewhere (on the paper CNN, 60 of
    3,720 entries per sample).  Rules for
    ``ROUTED_KINDS`` take it and pass routed values on (see ``aligned``),
    so the elementwise rules and conv1d below a pool touch only those
    entries.  A buffer becomes dense on a second write (``accumulate``)
    and before a rule of any other kind.

    Without ``want_param_grads`` the result is (a ``SweepValues`` with an
    entry for every node, None): a routed node's dense array, and an
    unreached node's zeros, are formed when a caller reads them.  With it
    the sweep serves training and returns (None, parameter gradients):
    each node's gradient is dropped once propagated.
    """
    grads = {nid: np.array(seed, dtype=np.float64) for nid, seed in seeds.items()}
    param_grads: dict | None = {} if want_param_grads else None
    take = grads.pop if want_param_grads else grads.get
    rules = rules or GRADIENT_RULES
    nodes = trace.graph.nodes
    for node_id in reversed(trace.graph.plan().order):
        out = take(node_id, None)
        if out is None:
            continue
        node = nodes[node_id]
        if type(out) is Routed and node.kind not in ROUTED_KINDS:
            out = out.dense()
        rules[node.kind](node, out, trace, grads, param_grads)
    if want_param_grads:
        return None, param_grads
    values = SweepValues(grads)
    if not grads.keys() >= nodes.keys():  # some node was not reached
        lead = () if trace.batch is None else (trace.batch,)
        for node_id, node in nodes.items():
            if node_id not in grads:
                dict.__setitem__(values, node_id, lead + node.output_shape)
    return values, None


def backward(trace: ForwardTrace, target) -> dict[str, Tensor]:
    """Gradient of the target activation w.r.t. every node activation of
    the trace's graph, keyed by node id (a ``SweepValues``).

    ``target`` is a ``(node_id, flat_index)`` pair (or a bare node id,
    meaning index 0); a batched trace takes one index or one per sample.
    ReLU passes gradient only where active, maxpool routes to the first
    argmax of each window, maxout differentiates the active piece.
    """
    return _target_sweep(trace, resolve_target(trace.graph, target, trace.batch))


def _target_sweep(trace: ForwardTrace, target, rules: dict | None = None) -> "SweepValues":
    """The values of one ``vjp_sweep`` under ``rules``, seeded with 1 at
    the resolved ``target``: gradients, or an attribution method's
    multipliers."""
    t_node, t_index = target
    seed = target_seed(trace.graph.nodes[t_node].output_shape, t_index)
    return vjp_sweep(trace, {t_node: seed}, rules=rules)[0]


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
            win = conv1d_windows(x, node.params["width"], node.params["stride"])
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
    analytic = backward(trace, target)
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
