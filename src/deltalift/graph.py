"""Feedforward computation graphs over dense float64 tensors.

A :class:`Graph` is an immutable DAG of typed nodes (input, affine, conv1d,
maxpool1d, relu, prelu, sigmoid, tanh, maxout, product, softmax).  Forward
evaluation returns a :class:`ForwardTrace` holding the activation of every
node; gradient and attribution passes consume that trace.

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

import heapq
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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


def as_tensor(values, shape=None, name="tensor") -> Tensor:
    """Coerce ``values`` to a finite float64 array, optionally reshaped.

    Raises ValueError if any element is NaN or infinite, or if ``shape``
    disagrees with the number of elements.
    """
    arr = np.asarray(values, dtype=np.float64)
    if shape is not None:
        shape = tuple(int(s) for s in shape)
        if arr.size != int(np.prod(shape)):
            raise ValueError(
                f"{name}: {arr.size} values cannot fill shape {shape}"
            )
        arr = arr.reshape(shape)
    arr = np.ascontiguousarray(arr)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name}: non-finite values are not allowed")
    return arr


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
                clean[key] = tuple(int(s) for s in np.atleast_1d(value))
            elif isinstance(value, (int, np.integer)):
                clean[key] = int(value)
            elif isinstance(value, (float, np.floating)):
                clean[key] = float(value)
            else:
                clean[key] = _frozen(as_tensor(value, name=f"{self.id}.{key}"))
        object.__setattr__(self, "params", clean)

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
        self._order: tuple[str, ...] | None = None
        # objects other modules derive from this graph and keep with it;
        # the graph is immutable, so they never go stale
        self._memo: dict = {}

    def input_ids(self) -> list[str]:
        return [n.id for n in self.nodes.values() if n.kind == "input"]

    def consumers(self, node_id: str) -> list[str]:
        return [n.id for n in self.nodes.values() if node_id in n.inputs]

    def require_valid(self) -> None:
        if self._report is None:
            self._report = validate_graph(self)
        if not self._report.ok:
            raise GraphError("; ".join(self._report.violations))

    def replace_params(self, updates: dict) -> "Graph":
        """Return a new graph with parameter arrays swapped per node.

        ``updates`` maps node id to a dict of param-name -> array.  Every
        swapped array must keep the shape of the array it replaces, else
        GraphError.  Structure and shapes are then unchanged, so the new
        graph inherits this one's validation report and topological order
        instead of validating again.
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
        graph._order = self._order
        return graph


def infer_output_shape(kind, params, input_shapes):
    """Shape of a node's output given its kind, params and input shapes.

    Raises GraphError when the combination is inconsistent; this is the
    single source of truth used both by the builder and the validator.
    """
    if kind == "input":
        if input_shapes:
            raise GraphError("input nodes take no inputs")
        shape = params.get("shape")
        if shape is None:
            raise GraphError("input node needs a declared shape")
        return tuple(int(s) for s in shape)
    if not input_shapes:
        raise GraphError(f"{kind} node needs at least one input")

    if kind == "affine":
        (in_shape,) = input_shapes
        w, b = params["weights"], params["bias"]
        if w.ndim != 2:
            raise GraphError("affine weights must be a 2-d matrix")
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
        filters, bias = params["filters"], params["bias"]
        stride = int(params["stride"])
        if filters.ndim != 3:
            raise GraphError("conv1d filters must have shape (n, width, channels)")
        n_filt, width, channels = filters.shape
        if len(in_shape) != 2 or in_shape[1] != channels:
            raise GraphError(
                f"conv1d expects input (length, {channels}), got {tuple(in_shape)}"
            )
        if bias.shape != (n_filt,):
            raise GraphError("conv1d bias length must match filter count")
        if stride < 1 or width < 1:
            raise GraphError("conv1d width and stride must be positive")
        length = in_shape[0]
        if length < width:
            raise GraphError("conv1d input shorter than filter width")
        return ((length - width) // stride + 1, n_filt)

    if kind == "maxpool1d":
        (in_shape,) = input_shapes
        width, stride = int(params["width"]), int(params["stride"])
        if stride < 1 or width < 1:
            raise GraphError("maxpool1d width and stride must be positive")
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
        if w.ndim != 3:
            raise GraphError("maxout weights must have shape (pieces, out, in)")
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
        if len(input_shapes) != 2:
            raise GraphError("product takes exactly two inputs")
        a, b = input_shapes
        if tuple(a) != tuple(b):
            raise GraphError(f"product inputs must share a shape, got {a} and {b}")
        return tuple(a)

    if kind == "softmax":
        (in_shape,) = input_shapes
        if len(in_shape) != 1:
            raise GraphError("softmax input must be a vector")
        return tuple(in_shape)

    raise GraphError(f"unknown kind '{kind}'")


def validate_graph(graph: Graph) -> ValidationReport:
    """Full structural check: dangling ids, arity, cycles, shapes.

    Returns a report rather than raising so callers can inspect every
    violation at once.
    """
    violations: list[str] = []
    nodes = graph.nodes

    for node in nodes.values():
        for src in node.inputs:
            if src not in nodes:
                violations.append(
                    f"dangling: node '{node.id}' references missing node '{src}'"
                )
        if node.kind == "input" and node.inputs:
            violations.append(f"arity: input node '{node.id}' must not have inputs")
        if node.kind != "input" and not node.inputs:
            violations.append(f"arity: node '{node.id}' ({node.kind}) has no inputs")
        if node.kind != "product" and node.kind != "input" and len(node.inputs) != 1:
            violations.append(
                f"arity: node '{node.id}' ({node.kind}) takes exactly one input"
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
        try:
            in_shapes = [shapes[src] for src in node.inputs]
            inferred = infer_output_shape(node.kind, node.params, in_shapes)
        except GraphError as exc:
            violations.append(f"shape: node '{node.id}': {exc}")
            continue
        if inferred != node.output_shape:
            violations.append(
                f"shape: node '{node.id}' declares output {node.output_shape} "
                f"but its inputs give {inferred}"
            )
        shapes[node_id] = inferred

    for i, group in enumerate(graph.constraint_groups):
        if group.input_id not in nodes or nodes[group.input_id].kind != "input":
            violations.append(
                f"constraint: group {i} targets '{group.input_id}', "
                "which is not an input node"
            )
            continue
        size = int(np.prod(nodes[group.input_id].output_shape))
        if not group.indices:
            violations.append(f"constraint: group {i} is empty")
        if any(ix < 0 or ix >= size for ix in group.indices):
            violations.append(f"constraint: group {i} has indices outside [0, {size})")
        if not np.isfinite(group.total):
            violations.append(f"constraint: group {i} has a non-finite total")

    return ValidationReport(violations)


def topo_order(graph: Graph) -> list[str]:
    """Topological order of node ids, deterministic across runs.

    Ready nodes are emitted in lexicographic id order (Kahn's algorithm
    with a heap), so equal graphs always order identically.  Raises
    GraphError if the graph has a cycle.
    """
    if graph._order is not None:
        return list(graph._order)
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
    graph._order = tuple(order)
    return order


# ---------------------------------------------------------------------------
# Forward evaluation


def stable_sigmoid(x: Tensor) -> Tensor:
    """Numerically stable logistic function."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def stable_softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis with max subtraction; each row sums to 1."""
    z = np.exp(x - x.max(axis=-1, keepdims=True))
    return z / z.sum(axis=-1, keepdims=True)


def conv1d_windows(x: Tensor, width: int, stride: int, axis: int = 0) -> Tensor:
    """Strided sliding windows of ``x`` along ``axis`` (the length axis).

    For x of shape (L, C) returns (n_windows, C, width); for (L,)
    returns (n_windows, width).  With ``axis=1`` the same holds per
    sample of a batch (B, L, ...).
    """
    win = sliding_window_view(x, width, axis=axis)
    return win[(slice(None),) * axis + (slice(None, None, stride),)]


def conv1d_tap(x: Tensor, tap: int, stride: int, n_out: int, axis: int = 0) -> Tensor:
    """View of the rows filter tap ``tap`` reads in each of ``n_out``
    windows, taken along ``axis`` (the length axis) of ``x``."""
    rows = slice(tap, tap + stride * (n_out - 1) + 1, stride)
    return x[(slice(None),) * axis + (rows,)]


def maxout_pieces(node: NodeSpec, x: Tensor, lead: int = 0) -> Tensor:
    """Pre-activations (..., pieces, out) of every maxout piece.

    The first ``lead`` axes of ``x`` are batch axes; the rest is one
    input, flattened row-major.
    """
    w, b = node.params["weights"], node.params["biases"]
    pieces, out_dim, in_dim = w.shape
    z = x.reshape(x.shape[:lead] + (in_dim,)) @ w.reshape(pieces * out_dim, in_dim).T
    return z.reshape(z.shape[:lead] + (pieces, out_dim)) + b


def eval_node(node: NodeSpec, args: list[Tensor], lead: int = 0) -> Tensor:
    """Evaluate one node on the activations of its inputs.

    The first ``lead`` axes of every argument, and of the result, are
    batch axes: 0 for one sample, 1 for a batch.
    """
    kind = node.kind
    x = args[0]
    if kind == "affine":
        w, b = node.params["weights"], node.params["bias"]
        return x.reshape(x.shape[:lead] + (-1,)) @ w.T + b
    if kind == "conv1d":
        # one (B*P, C) @ (C, F) product per filter tap: no window copies
        filters, bias = node.params["filters"], node.params["bias"]
        stride = int(node.params["stride"])
        n_filt, width, channels = filters.shape
        n_out = (x.shape[lead] - width) // stride + 1
        taps = np.ascontiguousarray(filters.transpose(1, 2, 0))  # (K, C, F)
        out = conv1d_tap(x, 0, stride, n_out, lead).reshape(-1, channels) @ taps[0]
        for k in range(1, width):
            out += conv1d_tap(x, k, stride, n_out, lead).reshape(-1, channels) @ taps[k]
        out += bias
        return out.reshape(x.shape[:lead] + (n_out, n_filt))
    if kind == "maxpool1d":
        width, stride = int(node.params["width"]), int(node.params["stride"])
        return conv1d_windows(x, width, stride, lead).max(axis=-1)
    if kind == "relu":
        return np.maximum(x, 0.0)
    if kind == "prelu":
        # exactly where(x > 0, x, slopes * x); np.where is several times
        # slower on large batches
        return np.maximum(x, 0.0) + node.params["slopes"] * np.minimum(x, 0.0)
    if kind == "sigmoid":
        return stable_sigmoid(x)
    if kind == "tanh":
        return np.tanh(x)
    if kind == "maxout":
        return maxout_pieces(node, x, lead).max(axis=-2)
    if kind == "product":
        return x * args[1]
    if kind == "softmax":
        return stable_softmax(x)
    raise GraphError(f"cannot evaluate node kind '{kind}'")


@dataclass
class ForwardTrace:
    """Per-node activations from one forward pass.

    ``batch`` is the leading batch size of every activation, or None when
    the trace holds a single sample.
    """

    activations: dict[str, Tensor]
    graph: Graph
    batch: int | None = None

    def __getitem__(self, node_id: str) -> Tensor:
        return self.activations[node_id]


def forward(graph: Graph, inputs: dict[str, Tensor]) -> ForwardTrace:
    """Evaluate the graph on one sample or on a batch of samples.

    ``inputs`` maps every input-node id to a tensor of the declared
    shape, or to a batch of them stacked along a new leading axis; all
    inputs must then share the batch size.  Both run the same per-kind
    rules, which treat any leading batch axis as extra rows.  Returns
    a trace with an entry for every node; evaluation is deterministic, so
    identical graph and inputs give bitwise-identical traces.
    """
    graph.require_valid()
    activations: dict[str, Tensor] = {}
    sizes = set()
    for node_id in graph.input_ids():
        shape = graph.nodes[node_id].output_shape
        if node_id not in inputs:
            raise GraphError(f"missing tensor for input node '{node_id}'")
        x = as_tensor(inputs[node_id], name=f"input '{node_id}'")
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
    lead = 0 if batch is None else 1
    for node_id in topo_order(graph):
        node = graph.nodes[node_id]
        if node.kind != "input":
            args = [activations[src] for src in node.inputs]
            activations[node_id] = eval_node(node, args, lead)
    return ForwardTrace(activations, graph, batch)


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
        shape = infer_output_shape(kind, params, in_shapes)
        node = NodeSpec(node_id, kind, tuple(inputs), shape, params)
        self._nodes.append(node)
        self._shapes[node_id] = shape
        return node_id

    def input(self, node_id: str, shape) -> str:
        return self._add(node_id, "input", (), {"shape": tuple(shape)})

    def affine(self, node_id: str, src: str, weights, bias) -> str:
        return self._add(
            node_id,
            "affine",
            (src,),
            {"weights": as_tensor(weights), "bias": as_tensor(bias)},
        )

    def conv1d(self, node_id: str, src: str, filters, bias, stride: int = 1) -> str:
        return self._add(
            node_id,
            "conv1d",
            (src,),
            {
                "filters": as_tensor(filters),
                "bias": as_tensor(bias),
                "stride": int(stride),
            },
        )

    def maxpool1d(self, node_id: str, src: str, width: int, stride: int) -> str:
        return self._add(
            node_id, "maxpool1d", (src,), {"width": int(width), "stride": int(stride)}
        )

    def relu(self, node_id: str, src: str) -> str:
        return self._add(node_id, "relu", (src,), {})

    def prelu(self, node_id: str, src: str, slopes) -> str:
        return self._add(node_id, "prelu", (src,), {"slopes": as_tensor(slopes)})

    def sigmoid(self, node_id: str, src: str) -> str:
        return self._add(node_id, "sigmoid", (src,), {})

    def tanh(self, node_id: str, src: str) -> str:
        return self._add(node_id, "tanh", (src,), {})

    def maxout(self, node_id: str, src: str, weights, biases) -> str:
        return self._add(
            node_id,
            "maxout",
            (src,),
            {"weights": as_tensor(weights), "biases": as_tensor(biases)},
        )

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
