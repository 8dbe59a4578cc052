"""Feedforward computation graphs over dense float64 tensors.

A :class:`Graph` is an immutable DAG of typed nodes (input, affine, conv1d,
maxpool1d, relu, prelu, sigmoid, tanh, maxout, product, softmax).  Forward
evaluation returns a :class:`ForwardTrace` holding the activation of every
node (or, given ``upto``, of one node's ancestors) and the route of every
max pool; gradient and attribution passes consume that trace.  On a batch,
a rectifier that only max pools read is formed when first read.  Each graph
keeps a :class:`Plan` of its structure, made once: the topological order,
the inputs, each node's forward rule (``FORWARD_RULES``, one per kind) and
the model's head, which every other module reads from it.

Conventions:
  * all tensors are C-contiguous float64 arrays; vectors have shape (n,),
    sequence tensors have shape (length, channels)
  * ``forward`` takes one sample or a batch: a batch stacks samples along a
    leading axis, and every activation of its trace carries that axis
  * affine and maxout layers flatten their input row-major
  * conv1d is a strided cross-correlation (no kernel flip)
  * prelu slopes apply per channel, i.e. along the last axis
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass, field, replace

import numpy as np

Tensor = np.ndarray

KNOWN_KINDS = frozenset(
    [
        "input",
        "affine",
        "conv1d",
        "maxpool1d",
        "relu",
        "prelu",
        "sigmoid",
        "tanh",
        "maxout",
        "product",
        "softmax",
    ]
)

# Node kinds that apply one elementwise nonlinearity to a single input.
ELEMENTWISE_KINDS = frozenset(["relu", "prelu", "sigmoid", "tanh"])


class GraphError(Exception):
    """Structural problem in a graph: cycle, bad shape, dangling reference."""


def as_tensor(values, name="tensor") -> Tensor:
    """Coerce ``values`` to a finite, C-contiguous float64 array.

    Raises ValueError if any element is NaN or infinite.
    """
    arr = np.ascontiguousarray(values, dtype=np.float64)
    if np.count_nonzero(np.isfinite(arr)) < arr.size:
        raise ValueError(f"{name}: non-finite values are not allowed")
    return arr


def _integer(value):
    """``value`` as a Python int if it is an integer other than a bool;
    anything else unchanged, for ``infer_output_shape`` to refuse where
    an integer belongs."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    return value


def _frozen(arr: Tensor) -> Tensor:
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class NodeSpec:
    """One typed node of a computation graph.

    ``params`` holds the kind-specific payload: weight/bias arrays for
    affine, conv1d and maxout nodes, slope array for prelu, window
    geometry for conv1d and maxpool1d.  Arrays are stored read-only.
    """

    id: str
    kind: str
    inputs: tuple[str, ...]
    output_shape: tuple[int, ...]
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KNOWN_KINDS:
            raise GraphError(f"node '{self.id}': unknown kind '{self.kind}'")
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(
            self, "output_shape", tuple(int(s) for s in self.output_shape)
        )
        clean = {}
        for key, value in self.params.items():
            if key == "shape":
                clean[key] = tuple(map(_integer, value if np.ndim(value) else [value]))
            elif isinstance(value, (int, float, np.number)):
                clean[key] = _integer(value)
            else:
                clean[key] = _frozen(as_tensor(value, name=f"{self.id}.{key}"))
        object.__setattr__(self, "params", clean)

    @functools.cached_property
    def sample_slopes(self) -> Tensor:
        """A prelu node's slopes broadcast to one sample's output shape.

        A product with an array of the sample's shape runs numpy's inner
        loop over the whole sample; with the per-channel vector it runs
        over only the channels, ~1.6x slower at (32, 186, 20).
        """
        return _frozen(np.broadcast_to(self.params["slopes"], self.output_shape))

    @functools.cached_property
    def sample_bias(self) -> Tensor:
        """A conv1d node's bias broadcast to one sample's output shape, for
        the reason ``sample_slopes`` gives: the forward's bias add then
        runs its inner loop over the whole sample."""
        return _frozen(np.broadcast_to(self.params["bias"], self.output_shape))

    @functools.cached_property
    def filter_matrix(self) -> Tensor:
        """A conv1d node's filters as one C-ordered (width*channels, n)
        matrix, the right-hand side of the forward's im2col products.

        The transposed view ``filters.reshape(n, -1).T`` holds the same
        values, but OpenBLAS multiplies by it ~1.6x more slowly, and with
        other bits.
        """
        filters = self.params["filters"]
        return _frozen(filters.reshape(len(filters), -1).T)

    @functools.cached_property
    def piece_coefficients(self) -> Tensor:
        """A maxout node's weights as one (units*pieces, in) matrix, the
        pieces of each unit in consecutive rows.

        DeepLIFT's maxout rule reads it on every call; a node is
        immutable, so the transposed copy is made once.
        """
        weights = self.params["weights"]
        return _frozen(weights.transpose(1, 0, 2).reshape(-1, weights.shape[2]))

    def with_params(self, **updates) -> "NodeSpec":
        params = dict(self.params)
        params.update(updates)
        return NodeSpec(self.id, self.kind, self.inputs, self.output_shape, params)


@dataclass(frozen=True)
class ConstraintGroup:
    """A set of input features declared to sum to the constant ``total``."""

    input_id: str
    indices: tuple[int, ...]
    total: float

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(int(i) for i in self.indices))
        object.__setattr__(self, "total", float(self.total))


@dataclass
class ValidationReport:
    violations: list[str]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok


class Graph:
    """Immutable DAG of :class:`NodeSpec` objects.

    Construction only checks that node ids are unique; call
    :func:`validate_graph` for the full structural report.  Evaluation
    entry points validate lazily and raise :class:`GraphError` if the
    graph is malformed, so a graph that validates never fails shape
    checks during forward.
    """

    def __init__(self, nodes, outputs, constraint_groups=()):
        node_map: dict[str, NodeSpec] = {}
        for node in nodes:
            if node.id in node_map:
                raise GraphError(f"duplicate node id '{node.id}'")
            node_map[node.id] = node
        self.nodes = node_map
        self.outputs = tuple(outputs)
        self.constraint_groups = tuple(
            g if isinstance(g, ConstraintGroup) else ConstraintGroup(*g)
            for g in constraint_groups
        )
        self._report: ValidationReport | None = None
        self._plan: Plan | None = None
        # objects other modules derive from this graph and keep with it;
        # the graph is immutable, so they never go stale
        self._memo: dict = {}

    def input_ids(self) -> list[str]:
        return [n.id for n in self.nodes.values() if n.kind == "input"]

    def consumers(self, node_id: str) -> list[str]:
        return [n.id for n in self.nodes.values() if node_id in n.inputs]

    def describe_outputs(self) -> str:
        """The outputs as error messages name them: id, kind and shape."""
        return ", ".join(f"'{o}' ({self.nodes[o].kind}, shape "
                         f"{self.nodes[o].output_shape})" for o in self.outputs)

    def require_valid(self) -> None:
        if self._report is None:
            self._report = validate_graph(self)
        if not self._report.ok:
            raise GraphError("; ".join(self._report.violations))

    def plan(self) -> "Plan":
        """This graph's :class:`Plan`, made on first use; raises GraphError
        if the graph is malformed."""
        if self._plan is None:
            self.require_valid()
            self._plan = Plan.of(self)
        return self._plan

    def replace_params(self, updates: dict) -> "Graph":
        """Return a new graph with parameter arrays swapped per node.

        ``updates`` maps node id to a dict of param-name -> array.  Every
        swapped array must keep the shape of the array it replaces, else
        GraphError.  Structure and shapes are then unchanged, so the new
        graph inherits this one's validation report and plan instead of
        working them out again.
        """
        nodes = []
        for node in self.nodes.values():
            if node.id in updates:
                for key, value in updates[node.id].items():
                    old = node.params.get(key)
                    if not isinstance(old, np.ndarray):
                        raise GraphError(
                            f"node '{node.id}' has no parameter array '{key}'"
                        )
                    if np.shape(value) != old.shape:
                        raise GraphError(
                            f"node '{node.id}': '{key}' must keep shape "
                            f"{old.shape}, got {np.shape(value)}"
                        )
                node = node.with_params(**updates[node.id])
            nodes.append(node)
        graph = Graph(nodes, self.outputs, self.constraint_groups)
        graph._report = self._report
        graph._plan = self._plan
        return graph


# How many inputs a node of each kind reads.
_ARITY = {**dict.fromkeys(KNOWN_KINDS, 1), "input": 0, "product": 2}

# The parameters of each kind: an array's rank, or _INTEGER for an
# integer >= 1 (window geometry; an input's shape holds one per axis).
_INTEGER = "integer"
_PARAMS = {
    "input": {"shape": _INTEGER},
    "affine": {"weights": 2, "bias": 1},
    "conv1d": {"filters": 3, "bias": 1, "stride": _INTEGER},
    "maxpool1d": {"width": _INTEGER, "stride": _INTEGER},
    "prelu": {"slopes": 1},
    "maxout": {"weights": 3, "biases": 2},
}


def _check_params(kind, params):
    """Raise GraphError unless ``params`` holds each parameter ``_PARAMS``
    lists for ``kind``, of its rank or an integer >= 1, and no other."""
    expected = _PARAMS.get(kind, {})
    for key in params:
        if key not in expected:
            raise GraphError(f"{kind} node takes no parameter '{key}'")
    for key, rank in expected.items():
        if key not in params:
            raise GraphError(f"{kind} node needs parameter '{key}'")
        value = params[key]
        if rank == _INTEGER:
            entries = value if key == "shape" else (value,)
            if not all(type(v) is int and v >= 1 for v in entries):
                raise GraphError(f"{kind} '{key}' must hold integers >= 1, got {value!r}")
        elif not (isinstance(value, np.ndarray) and value.ndim == rank):
            raise GraphError(f"{kind} '{key}' must be a {rank}-d array, got "
                             f"{getattr(value, 'shape', value)!r}")


def infer_output_shape(kind, params, input_shapes):
    """Shape of a node's output given its kind, params and input shapes.

    Raises GraphError when the combination is inconsistent; this is the
    single source of truth for every per-node rule, used both by the
    builder and the validator: the number of inputs (``_ARITY``), each
    parameter's presence and type (``_PARAMS``) and the shapes.
    """
    arity = _ARITY.get(kind)
    if arity is None:
        raise GraphError(f"unknown kind '{kind}'")
    if len(input_shapes) != arity:
        raise GraphError(f"{kind} node reads {arity} input{'' if arity == 1 else 's'}, "
                         f"not {len(input_shapes)}")
    _check_params(kind, params)
    if kind == "input":
        return params["shape"]

    if kind == "affine":
        (in_shape,) = input_shapes
        w, b = params["weights"], params["bias"]
        out_dim, in_dim = w.shape
        if in_dim != int(np.prod(in_shape)):
            raise GraphError(
                f"affine weights expect input of size {in_dim}, "
                f"got shape {tuple(in_shape)}"
            )
        if b.shape != (out_dim,):
            raise GraphError("affine bias length must match weight rows")
        return (out_dim,)

    if kind == "conv1d":
        (in_shape,) = input_shapes
        filters, bias, stride = params["filters"], params["bias"], params["stride"]
        n_filt, width, channels = filters.shape
        if len(in_shape) != 2 or in_shape[1] != channels:
            raise GraphError(
                f"conv1d expects input (length, {channels}), got {tuple(in_shape)}"
            )
        if bias.shape != (n_filt,):
            raise GraphError("conv1d bias length must match filter count")
        if width < 1:
            raise GraphError("conv1d filter width must be positive")
        length = in_shape[0]
        if length < width:
            raise GraphError("conv1d input shorter than filter width")
        return ((length - width) // stride + 1, n_filt)

    if kind == "maxpool1d":
        (in_shape,) = input_shapes
        width, stride = params["width"], params["stride"]
        if len(in_shape) not in (1, 2):
            raise GraphError("maxpool1d input must be (length,) or (length, channels)")
        length = in_shape[0]
        if length < width:
            raise GraphError("maxpool1d input shorter than window")
        out_len = (length - width) // stride + 1
        return (out_len,) if len(in_shape) == 1 else (out_len, in_shape[1])

    if kind in ELEMENTWISE_KINDS:
        (in_shape,) = input_shapes
        if kind == "prelu":
            slopes = params["slopes"]
            if slopes.shape not in ((1,), (in_shape[-1],)):
                raise GraphError(
                    f"prelu slopes shape {slopes.shape} does not broadcast over "
                    f"channels of {tuple(in_shape)}"
                )
        return tuple(in_shape)

    if kind == "maxout":
        (in_shape,) = input_shapes
        w, b = params["weights"], params["biases"]
        pieces, out_dim, in_dim = w.shape
        if pieces < 1:
            raise GraphError("maxout needs at least one piece")
        if in_dim != int(np.prod(in_shape)):
            raise GraphError(
                f"maxout pieces expect input of size {in_dim}, got {tuple(in_shape)}"
            )
        if b.shape != (pieces, out_dim):
            raise GraphError("maxout biases must have shape (pieces, out)")
        return (out_dim,)

    if kind == "product":
        a, b = input_shapes
        if tuple(a) != tuple(b):
            raise GraphError(f"product inputs must share a shape, got {a} and {b}")
        return tuple(a)

    # softmax
    (in_shape,) = input_shapes
    if len(in_shape) != 1:
        raise GraphError("softmax input must be a vector")
    return tuple(in_shape)


def validate_graph(graph: Graph) -> ValidationReport:
    """Full structural check: dangling ids, cycles, every node's own rules
    (``infer_output_shape``) and declared shapes, constraint groups.

    Returns a report rather than raising so callers can inspect every
    violation at once; a node whose source failed is not checked.
    """
    violations: list[str] = []
    nodes = graph.nodes

    for node in nodes.values():
        for src in node.inputs:
            if src not in nodes:
                violations.append(
                    f"dangling: node '{node.id}' references missing node '{src}'"
                )
    for out in graph.outputs:
        if out not in nodes:
            violations.append(f"dangling: output '{out}' is not a node")

    if violations:
        return ValidationReport(violations)

    try:
        order = topo_order(graph)
    except GraphError as exc:
        return ValidationReport([f"cycle: {exc}"])

    shapes: dict[str, tuple[int, ...]] = {}
    for node_id in order:
        node = nodes[node_id]
        if not all(src in shapes for src in node.inputs):
            continue
        try:
            inferred = infer_output_shape(node.kind, node.params,
                                          [shapes[src] for src in node.inputs])
        except GraphError as exc:
            violations.append(f"shape: node '{node.id}': {exc}")
            continue
        if inferred != node.output_shape:
            violations.append(
                f"shape: node '{node.id}' declares output {node.output_shape} "
                f"but its inputs give {inferred}"
            )
        shapes[node_id] = inferred

    input_sizes = {
        n.id: math.prod(n.output_shape) for n in nodes.values() if n.kind == "input"
    }
    for i, group in enumerate(graph.constraint_groups):
        size = input_sizes.get(group.input_id)
        if size is None:
            violations.append(
                f"constraint: group {i} targets '{group.input_id}', "
                "which is not an input node"
            )
            continue
        if not group.indices:
            violations.append(f"constraint: group {i} is empty")
        elif min(group.indices) < 0 or max(group.indices) >= size:
            violations.append(f"constraint: group {i} has indices outside [0, {size})")
        elif len(set(group.indices)) < len(group.indices):
            repeat = next(j for n, j in enumerate(group.indices) if j in group.indices[:n])
            violations.append(f"constraint: group {i} repeats index {repeat}")
        if not math.isfinite(group.total):
            violations.append(f"constraint: group {i} has a non-finite total")

    return ValidationReport(violations)


def topo_order(graph: Graph) -> list[str]:
    """Topological order of node ids, deterministic across runs.

    Ready nodes are emitted in lexicographic id order (Kahn's algorithm
    with a heap), so equal graphs always order identically.  Raises
    GraphError if the graph has a cycle.  A valid graph's plan keeps its
    order (``Plan.order``).
    """
    indegree = {node_id: 0 for node_id in graph.nodes}
    consumers: dict[str, list[str]] = {node_id: [] for node_id in graph.nodes}
    for node in graph.nodes.values():
        for src in node.inputs:
            if src in indegree:
                indegree[node.id] += 1
                consumers[src].append(node.id)

    ready = [node_id for node_id, deg in indegree.items() if deg == 0]
    heapq.heapify(ready)
    order: list[str] = []
    while ready:
        node_id = heapq.heappop(ready)
        order.append(node_id)
        for succ in consumers[node_id]:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                heapq.heappush(ready, succ)
    if len(order) != len(graph.nodes):
        stuck = sorted(set(graph.nodes) - set(order))
        raise GraphError(f"nodes {stuck} form a cycle")
    return order


# ---------------------------------------------------------------------------
# Forward evaluation


def stable_sigmoid(x: Tensor) -> Tensor:
    """Numerically stable logistic function.

    With e = exp(-|x|), which never overflows, this is 1 / (1 + e) for
    x >= 0 and e / (1 + e) below: the same bits as the two-branch form.
    """
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def stable_softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis with max subtraction; each row sums to 1."""
    z = np.exp(x - x.max(axis=-1, keepdims=True))
    return z / z.sum(axis=-1, keepdims=True)


def conv1d_windows(x: Tensor, width: int, stride: int, axis: int = 0) -> Tensor:
    """Read-only view of the strided windows of ``x`` along ``axis``.

    The view is shaped (..., n_windows, width, ...rest): the axes before
    ``axis`` (batch axes), then windows, then positions within a window,
    then the axes after the length axis.  For x of shape (L, C) it is
    (n_windows, width, C); for (L,) it is (n_windows, width).  Nothing is
    copied until the view is reshaped, e.g. into im2col rows (a
    non-contiguous ``x`` is copied first).
    """
    x = np.ascontiguousarray(x)
    n_out = (x.shape[axis] - width) // stride + 1
    step = x.strides[axis]
    # the ndarray constructor over x's buffer: as_strided's Python wrapper
    # costs several times more, and an attribution call takes three views
    win = np.ndarray(
        x.shape[:axis] + (n_out, width) + x.shape[axis + 1:],
        x.dtype,
        x,
        0,
        x.strides[:axis] + (stride * step, step) + x.strides[axis + 1:],
    )
    win.setflags(write=False)
    return win


# im2col rows per product, in whole samples (at least one): the conv1d
# forward and its filter gradient copy the windows of one block at a time,
# since copying every window of a batch at once outgrows the cache
IM2COL_BLOCK_ROWS = 768


def im2col_blocks(x: Tensor, width: int, stride: int, lead: int = 0):
    """Yield (output-row slice, windows) per block of whole samples: the
    block's rows (sample * n_windows + window) and a (samples, n_windows,
    width, ...) view of their windows, whose ``reshape(-1, width *
    channels)`` is the block's im2col rows."""
    win = conv1d_windows(x, width, stride, lead)
    samples = win.reshape((-1,) + win.shape[lead:])  # (B, P, K, C) view
    n_out = samples.shape[1]
    per_block = max(1, IM2COL_BLOCK_ROWS // n_out)
    for i in range(0, len(samples), per_block):
        yield slice(i * n_out, (i + per_block) * n_out), samples[i:i + per_block]


@functools.lru_cache(maxsize=64)
def _window_starts(shape: tuple, width: int, stride: int, lead: int = 0):
    """Flat index, in a C-ordered array of ``shape``, of each window's
    first member, one window per position and channel, shaped like a max
    pool's output; and the flat distance between consecutive members of
    one window.  A conv1d output row reads every channel's window from
    its first channel's start on.

    Windows run along axis ``lead``, behind any leading batch axes.  The
    result is cached per argument tuple, so the array is read-only.
    """
    step = math.prod(shape[lead + 1:])
    n_out = (shape[lead] - width) // stride + 1
    starts = (stride * step * np.arange(n_out))[:, None] + np.arange(step)
    if lead:
        samples = np.arange(math.prod(shape[:lead]))
        starts = (shape[lead] * step * samples)[:, None, None] + starts
    starts = starts.reshape(shape[:lead] + (n_out,) + shape[lead + 1:])
    starts.setflags(write=False)
    return starts, step


def _pool_argmax(x: Tensor, width: int, stride: int, lead: int = 0) -> Tensor:
    """Flat index into ``x`` (C order) of each window's max, first index
    on ties, shaped like the pooled output."""
    am = conv1d_windows(x, width, stride, lead).argmax(axis=lead + 1)
    starts, step = _window_starts(x.shape, width, stride, lead)
    am *= step
    am += starts
    return am


def _window_members(pool: NodeSpec, shape: tuple, windows) -> Tensor:
    """Flat indices (len(windows), width), into max pool ``pool``'s input
    of ``shape`` (C order, any batch axes first), of the members of the
    windows at flat indices ``windows`` of its output."""
    width = pool.params["width"]
    starts, step = _window_starts(shape, width, pool.params["stride"],
                                  len(shape) - len(pool.output_shape))
    return starts.take(windows)[:, None] + step * np.arange(width)


def maxout_pieces(node: NodeSpec, x: Tensor, lead: int = 0) -> Tensor:
    """Pre-activations (..., pieces, out) of every maxout piece.

    The first ``lead`` axes of ``x`` are batch axes; the rest is one
    input, flattened row-major.
    """
    w, b = node.params["weights"], node.params["biases"]
    pieces, out_dim, in_dim = w.shape
    z = x.reshape(x.shape[:lead] + (in_dim,)) @ w.reshape(pieces * out_dim, in_dim).T
    return z.reshape(z.shape[:lead] + (pieces, out_dim)) + b


def _eval_affine(node, acts, lead):
    x = acts[node.inputs[0]]
    w, b = node.params["weights"], node.params["bias"]
    return x.reshape(x.shape[:lead] + (-1,)) @ w.T + b


def _eval_conv1d(node, acts, lead):
    # one (rows, K*C) @ (K*C, F) product per im2col block, into its rows,
    # against the node's cached C-ordered ``filter_matrix``.  A block is
    # copied into contiguous rows first: one sample's rows reshape to an
    # overlapping view, which matmul would copy itself, more slowly.  The
    # bits of a product depend on the matrix's layout and on the kernel
    # OpenBLAS picks for its row count.
    x = acts[node.inputs[0]]
    w = node.filter_matrix
    out = np.empty(x.shape[:lead] + node.output_shape)
    rows = out.reshape(-1, w.shape[1])
    width = node.params["filters"].shape[1]
    for block, win in im2col_blocks(x, width, node.params["stride"], lead):
        np.matmul(np.ascontiguousarray(win.reshape(-1, len(w))), w, out=rows[block])
    out += node.sample_bias
    return out


def _prelu(x, slopes):
    # max(x, 0) + slopes * min(x, 0), formed in place: equal to
    # where(x > 0, x, slopes * x), which is several times slower on
    # large batches
    out = np.minimum(x, 0.0)
    out *= slopes
    out += np.maximum(x, 0.0)
    return out


# The forward rule of each kind: ``rule(node, acts, lead)`` returns the
# node's activation, reading its inputs' from ``acts`` (node id -> array),
# whose first ``lead`` axes are batch axes.  Max-pooling has none, since
# ``forward`` reads it off the trace's route.
FORWARD_RULES = {
    "affine": _eval_affine,
    "conv1d": _eval_conv1d,
    "relu": lambda node, acts, lead: np.maximum(acts[node.inputs[0]], 0.0),
    "prelu": lambda node, acts, lead: _prelu(acts[node.inputs[0]], node.sample_slopes),
    "sigmoid": lambda node, acts, lead: stable_sigmoid(acts[node.inputs[0]]),
    "tanh": lambda node, acts, lead: np.tanh(acts[node.inputs[0]]),
    "maxout": lambda node, acts, lead:
        maxout_pieces(node, acts[node.inputs[0]], lead).max(axis=-2),
    "product": lambda node, acts, lead: acts[node.inputs[0]] * acts[node.inputs[1]],
    "softmax": lambda node, acts, lead: stable_softmax(acts[node.inputs[0]]),
}

# The activation of a relu or prelu node at flat indices ``index`` (C
# order) of its input's activation ``x``: its forward rule on those
# entries alone, so each value has the bits of the dense array's entry.
_RECTIFIED_AT = {
    "relu": lambda node, x, index: np.maximum(x.take(index), 0.0),
    "prelu": lambda node, x, index: _prelu(
        x.take(index), node.params["slopes"].take(index % node.params["slopes"].size)),
}


def _pool_rectified(pool: NodeSpec, act: NodeSpec, x: Tensor, lead: int):
    """Route and output of max pool ``pool`` over the relu or prelu node
    ``act``, from ``x``, ``act``'s input activation, without forming
    ``act``'s own.  Both are bitwise what the pool takes from that
    activation.

    Where a window's largest ``x`` is positive (and, for prelu, its
    members' slopes are >= 0) the rectifier's forward rule returns that
    value unchanged and maps every other member below it, so the window's
    route and output are ``x``'s first argmax and max.  In every other
    window the rule is evaluated on the window's members, and the first
    argmax taken: rounding of a*x can tie two different inputs.
    """
    width, stride = pool.params["width"], pool.params["stride"]
    route = _pool_argmax(x, width, stride, lead)
    out = x.take(route)
    sure = out > 0
    slopes = act.params.get("slopes")
    if slopes is not None and slopes.min() < 0:
        # a window runs along one channel, so its members share a slope,
        # unless they are the positions of a vector with a slope each
        if len(act.output_shape) == 1 and slopes.size > 1:
            sure[...] = False
        else:
            sure &= slopes.take(route % slopes.size) >= 0
    if np.count_nonzero(sure) < sure.size:
        redo = np.flatnonzero(~sure)
        members = _window_members(pool, x.shape, redo)
        values = _RECTIFIED_AT[act.kind](act, x, members)
        pick = (np.arange(len(redo)), values.argmax(axis=1))
        route.put(redo, members[pick])
        out.put(redo, values[pick])
    route.setflags(write=False)
    return route, out


@dataclass(eq=False)
class Plan:
    """What evaluation needs of a valid graph's structure, worked out once.

    ``order`` holds every node id in topological order, ``inputs`` each
    input node's id and declared shape, and ``steps`` every other node in
    that order as (id, forward rule, source ids): the rule of its kind
    from ``FORWARD_RULES``, or None for a max pool, which ``forward``
    reads off its route.  ``deferred`` holds the relu and prelu nodes
    that only max pools read and that are not graph outputs, whose
    activations a batched ``forward`` forms only when read.  ``head`` is
    (head id, pre-activation id) when the graph has exactly one output
    and it is a one-unit sigmoid or a softmax, else None: the one
    definition of a model's head that training, attribution targets,
    normalization and the method comparison read.  A plan holds ids but
    no node specs or parameters, so a graph that only swaps parameters
    (``Graph.replace_params``) keeps its plan.
    """

    order: tuple[str, ...]
    inputs: tuple[tuple[str, tuple[int, ...]], ...]
    steps: tuple[tuple, ...]
    deferred: frozenset = frozenset()
    head: tuple[str, str] | None = None
    _upto: dict = field(default_factory=dict, repr=False)

    @classmethod
    def of(cls, graph: Graph) -> "Plan":
        order = tuple(topo_order(graph))
        nodes = graph.nodes
        readers: dict[str, set] = {nid: set() for nid in nodes}
        head = None
        if len(graph.outputs) == 1:
            out = nodes[graph.outputs[0]]
            if out.kind == "softmax" or (out.kind == "sigmoid" and out.output_shape == (1,)):
                head = out.id, out.inputs[0]
        for node in nodes.values():
            for src in node.inputs:
                readers[src].add(node.kind)
        return cls(
            order,
            tuple((n.id, n.output_shape) for n in nodes.values() if n.kind == "input"),
            tuple((nid, FORWARD_RULES.get(nodes[nid].kind), nodes[nid].inputs)
                  for nid in order if nodes[nid].kind != "input"),
            frozenset(nid for nid, node in nodes.items()
                      if node.kind in _RECTIFIED_AT and readers[nid] == {"maxpool1d"}
                      and nid not in graph.outputs),
            head,
        )

    def steps_upto(self, node_id: str) -> tuple:
        """The steps that ``node_id``'s activation depends on: its own and
        its ancestors', in order."""
        steps = self._upto.get(node_id)
        if steps is None:
            if node_id not in self.order:
                raise GraphError(f"node '{node_id}' does not exist")
            needed = {node_id}
            for nid, _, srcs in reversed(self.steps):
                if nid in needed:
                    needed.update(srcs)
            steps = self._upto[node_id] = tuple(s for s in self.steps if s[0] in needed)
        return steps


class DenseOnRead(dict):
    """A dict whose entries may wait in a cheaper form, each made its
    array when first read and then kept.

    ``_dense(value)`` returns the array of a waiting entry, and None for
    an entry that is one already.  Here a waiting entry is a
    ``functools.partial`` call that returns it: a batched trace's
    deferred activation (see ``forward``).  Indexing, ``get``, ``pop``,
    ``values``, ``items``, ``dict(...)`` and ``**`` unpacking all see the
    arrays.
    """

    @staticmethod
    def _dense(value):
        return value() if type(value) is functools.partial else None

    def __getitem__(self, key):
        value = dict.__getitem__(self, key)
        dense = self._dense(value)
        if dense is None:
            return value
        dict.__setitem__(self, key, dense)
        return dense

    def get(self, key, default=None):
        return self[key] if key in self else default

    def __iter__(self):
        # not dict's own iterator: dict(mapping), {**mapping} and update()
        # then read through __getitem__
        return dict.__iter__(self)

    def values(self):
        return [self[key] for key in self]

    def items(self):
        return [(key, self[key]) for key in self]

    def copy(self):
        return dict(self)

    def pop(self, key, *default):
        if key not in self:
            return dict.pop(self, key, *default)
        value = self[key]
        dict.__delitem__(self, key)
        return value

    def __repr__(self):
        return repr(self.copy())


@dataclass
class ForwardTrace:
    """Per-node activations from one forward pass.

    ``batch`` is the leading batch size of every activation, or None when
    the trace holds a single sample.  ``routes`` maps each max-pool node
    to its route (see ``route``): ``forward`` records it while it
    evaluates the pool, and a trace built by hand finds it on first read.
    A batched ``forward`` leaves ``activations`` a ``DenseOnRead`` whose
    deferred entries are formed when first read.
    """

    activations: dict[str, Tensor]
    graph: Graph
    batch: int | None = None
    routes: dict[str, Tensor] = field(default_factory=dict)

    def __getitem__(self, node_id: str) -> Tensor:
        return self.activations[node_id]

    def route(self, node_id: str) -> Tensor:
        """Flat index into the pool input (C order) of each window's max,
        first index on ties, shaped like the pool's output; read-only.

        The gradient, DeepLIFT and LRP all send a window to this member.
        """
        route = self.routes.get(node_id)
        if route is None:
            node = self.graph.nodes[node_id]
            width, stride = node.params["width"], node.params["stride"]
            route = _pool_argmax(self.activations[node.inputs[0]], width, stride,
                                 0 if self.batch is None else 1)
            route.setflags(write=False)
            self.routes[node_id] = route
        return route


def forward(graph: Graph, inputs: dict[str, Tensor], upto: str | None = None) -> ForwardTrace:
    """Evaluate the graph on one sample or on a batch of samples.

    ``inputs`` maps every input-node id to a tensor of the declared
    shape, or to a batch of them stacked along a new leading axis; all
    inputs must then share the batch size.  Both run the same per-kind
    rules, which treat any leading batch axis as extra rows.  A max-pool
    node is one argmax over its windows: its route goes into the trace's
    ``routes`` and its output is the input read there, the window maxima.
    Returns a trace with an entry for every node, or, given ``upto``, for
    the inputs, that node and its ancestors alone (every input is still
    checked); evaluation is deterministic, so identical graph and inputs
    give bitwise-identical traces.

    On a batch, the relu and prelu nodes that only max pools read
    (``Plan.deferred``) are not evaluated: each pool takes its route and
    output from the rectifier's input (``_pool_rectified``), and the
    rectifier's activation is formed by its forward rule when a caller
    first reads it.  Training, ``evaluate``, gradient*input and LRP
    never do; DeepLIFT does.
    """
    plan = graph.plan()
    activations: dict[str, Tensor] = {}
    sizes = set()
    for node_id, shape in plan.inputs:
        if node_id not in inputs:
            raise GraphError(f"missing tensor for input node '{node_id}'")
        x = np.ascontiguousarray(inputs[node_id], dtype=np.float64)
        # count_nonzero tests for all-true without ndarray.all's Python wrapper
        if np.count_nonzero(np.isfinite(x)) < x.size:
            raise ValueError(f"input '{node_id}': non-finite values are not allowed")
        if x.shape == shape:
            sizes.add(None)
        elif x.shape[1:] == shape:
            sizes.add(x.shape[0])
        else:
            raise GraphError(
                f"input '{node_id}' expects shape {shape} or (batch, *{shape}), "
                f"got {x.shape}"
            )
        activations[node_id] = x
    if len(sizes) > 1:
        raise GraphError(
            "inputs disagree on the batch size: "
            + ", ".join(sorted("single sample" if s is None else str(s) for s in sizes))
        )
    batch = sizes.pop() if sizes else None
    if batch == 0:
        raise GraphError("a batch of inputs needs at least one sample")
    lead = 0 if batch is None else 1
    # Only a batch defers.  On one sample the deferred pool's ~10 extra
    # numpy calls cost more than the small rectifier they skip, and the
    # small conv graphs' per-call time rose.  So the two paths split on
    # what the code sees, a batched trace: training and batched
    # attribution defer, the per-sample calls evaluate every node.
    deferred = plan.deferred if lead else frozenset()
    if deferred:
        activations = DenseOnRead(activations)
    trace = ForwardTrace(activations, graph, batch)
    nodes = graph.nodes
    for node_id, rule, srcs in plan.steps if upto is None else plan.steps_upto(upto):
        if rule is None:  # max pool
            src = srcs[0]
            if src in deferred:
                act = nodes[src]
                route, activations[node_id] = _pool_rectified(
                    nodes[node_id], act, activations[act.inputs[0]], lead)
                trace.routes[node_id] = route
            else:
                activations[node_id] = activations[src].take(trace.route(node_id))
        elif node_id in deferred:
            # the call reads its input from a dict of its own: one that
            # held ``activations`` would make a reference cycle, which
            # keeps the trace's arrays alive until the cyclic collector runs
            activations[node_id] = functools.partial(
                rule, nodes[node_id], {srcs[0]: activations[srcs[0]]}, lead)
        else:
            activations[node_id] = rule(nodes[node_id], activations, lead)
    return trace


def n_parameters(graph: Graph) -> int:
    """Total count of trainable scalars (weights, biases, slopes)."""
    total = 0
    for node in graph.nodes.values():
        for value in node.params.values():
            if isinstance(value, np.ndarray):
                total += value.size
    return total


# ---------------------------------------------------------------------------
# Builder


class GraphBuilder:
    """Incremental construction with shape inference.

    Each method adds one node, infers and records its output shape, and
    returns the node id so chains read naturally::

        b = GraphBuilder()
        x = b.input("x", (2,))
        h = b.affine("h", x, [[1.0, 2.0]], [2.0])
        y = b.relu("y", h)
        g = b.build(outputs=[y])
    """

    def __init__(self):
        self._nodes: list[NodeSpec] = []
        self._shapes: dict[str, tuple[int, ...]] = {}

    def _add(self, node_id, kind, inputs, params):
        in_shapes = []
        for src in inputs:
            if src not in self._shapes:
                raise GraphError(f"node '{node_id}': unknown input '{src}'")
            in_shapes.append(self._shapes[src])
        node = NodeSpec(node_id, kind, inputs, (), params)
        shape = infer_output_shape(kind, node.params, in_shapes)
        self._nodes.append(replace(node, output_shape=shape))
        self._shapes[node_id] = shape
        return node_id

    def input(self, node_id: str, shape) -> str:
        return self._add(node_id, "input", (), {"shape": shape})

    def affine(self, node_id: str, src: str, weights, bias) -> str:
        return self._add(node_id, "affine", (src,), {"weights": weights, "bias": bias})

    def conv1d(self, node_id: str, src: str, filters, bias, stride: int = 1) -> str:
        return self._add(node_id, "conv1d", (src,),
                         {"filters": filters, "bias": bias, "stride": stride})

    def maxpool1d(self, node_id: str, src: str, width: int, stride: int) -> str:
        return self._add(node_id, "maxpool1d", (src,), {"width": width, "stride": stride})

    def relu(self, node_id: str, src: str) -> str:
        return self._add(node_id, "relu", (src,), {})

    def prelu(self, node_id: str, src: str, slopes) -> str:
        return self._add(node_id, "prelu", (src,), {"slopes": slopes})

    def sigmoid(self, node_id: str, src: str) -> str:
        return self._add(node_id, "sigmoid", (src,), {})

    def tanh(self, node_id: str, src: str) -> str:
        return self._add(node_id, "tanh", (src,), {})

    def maxout(self, node_id: str, src: str, weights, biases) -> str:
        return self._add(node_id, "maxout", (src,), {"weights": weights, "biases": biases})

    def product(self, node_id: str, a: str, b: str) -> str:
        return self._add(node_id, "product", (a, b), {})

    def softmax(self, node_id: str, src: str) -> str:
        return self._add(node_id, "softmax", (src,), {})

    def shape_of(self, node_id: str) -> tuple[int, ...]:
        return self._shapes[node_id]

    def build(self, outputs, constraint_groups=()) -> Graph:
        graph = Graph(self._nodes, outputs, constraint_groups)
        graph.require_valid()
        return graph
