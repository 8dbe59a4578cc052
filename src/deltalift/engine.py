"""Reference-based contribution scores via multiplier backpropagation.

Every neuron's activation is compared against its activation under a
caller-chosen reference input.  Contributions C = m * delta are assigned
so that, summed over a layer's inputs, they reproduce the target's
difference-from-reference (the conservation property tested throughout
this package).  Multipliers m chain like gradients:

    m[x -> t] = sum over consumers y of  m[x -> y] * m[y -> t]

with per-kind local rules:

  * affine / conv1d: multipliers equal the weights
  * maxpool1d:       each window's delta routes to the current argmax
  * relu / prelu / sigmoid / tanh: m = delta_out / delta_in, falling back
    to the derivative at the reference when delta_in is tiny
  * maxout:          piecewise-linear decomposition along the straight
    path from reference to input, length-weighted piece coefficients
  * product:         m1 = ref2 + delta2/2, m2 = ref1 + delta1/2

Softmax heads are handled by targeting the mean-normalized pre-softmax
affine layer instead of the softmax output; sigmoid heads default to the
pre-sigmoid node (see ``select_attribution_target``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import (
    ForwardTrace,
    Graph,
    GraphError,
    Tensor,
    conv1d_windows,
    forward,
    topo_order,
)
from .autodiff import _pool_argmax_rows, resolve_target

EPS_STABLE = 1e-7
CROSSING_TOL = 1e-12


class AttributionError(Exception):
    """Attribution cannot proceed: bad target, unsupported node, etc."""


# ---------------------------------------------------------------------------
# Reference and delta state


@dataclass
class ReferenceState:
    """Per-node activations under the reference input."""

    activations: dict[str, Tensor]
    reference_input: dict[str, Tensor]
    graph: Graph
    # the same reference input evaluated on another graph, kept by deeplift
    _twin: "ReferenceState | None" = field(default=None, init=False, repr=False,
                                           compare=False)

    def __getitem__(self, node_id: str) -> Tensor:
        return self.activations[node_id]


@dataclass
class DeltaState:
    """Per-node differences from reference, delta = A - A0."""

    deltas: dict[str, Tensor]

    def __getitem__(self, node_id: str) -> Tensor:
        return self.deltas[node_id]


def zeros_reference(graph: Graph) -> dict[str, Tensor]:
    """The all-zeros reference input, one array per input node."""
    return {
        nid: np.zeros(graph.nodes[nid].output_shape) for nid in graph.input_ids()
    }


def compute_reference(graph: Graph, reference_input: dict[str, Tensor]) -> ReferenceState:
    """Forward-evaluate the reference input into a full per-node state."""
    trace = forward(graph, reference_input)
    return ReferenceState(trace.activations, dict(reference_input), graph)


def compute_deltas(trace: ForwardTrace, reference: ReferenceState) -> DeltaState:
    if trace.graph is not reference.graph:
        raise AttributionError("trace and reference come from different graphs")
    deltas = {
        nid: trace[nid] - reference[nid] for nid in trace.activations
    }
    return DeltaState(deltas)


# ---------------------------------------------------------------------------
# Local rules


def local_multipliers_affine(node, input_shape=None) -> Tensor:
    """Dense multiplier matrix (out_size, in_size) of an affine or conv1d node.

    Multipliers of a purely linear node are its weights; for conv1d the
    filter taps are scattered into the equivalent dense matrix sized for
    ``input_shape`` (defaults to the minimal covered length).  Used by
    tests and small-scale callers; propagation routes through the
    structured form instead.
    """
    if node.kind == "affine":
        return node.params["weights"].copy()
    if node.kind == "conv1d":
        filters = node.params["filters"]
        stride = int(node.params["stride"])
        n_filt, width, channels = filters.shape
        out_len = node.output_shape[0]
        if input_shape is None:
            in_len = (out_len - 1) * stride + width
        else:
            in_len = int(input_shape[0])
        dense = np.zeros((out_len * n_filt, in_len * channels))
        for p in range(out_len):
            for f in range(n_filt):
                row = p * n_filt + f
                for k in range(width):
                    for c in range(channels):
                        dense[row, (p * stride + k) * channels + c] = filters[f, k, c]
        return dense
    raise AttributionError(f"node '{node.id}' ({node.kind}) is not linear")


def local_multipliers_rescale(node, trace: ForwardTrace, reference: ReferenceState,
                              eps_stable: float = EPS_STABLE) -> Tensor:
    """Elementwise multipliers delta_out/delta_in for a 1-input nonlinearity.

    Where |delta_in| <= eps_stable the ratio is replaced by the analytic
    derivative of the nonlinearity at the reference pre-activation (the
    limit value), which keeps multipliers continuous across the switch.
    """
    if node.kind not in ("relu", "prelu", "sigmoid", "tanh"):
        raise AttributionError(f"node '{node.id}' ({node.kind}) is not a rescale kind")
    src = node.inputs[0]
    dx = trace[src] - reference[src]
    dy = trace[node.id] - reference[node.id]
    x0 = reference[src]
    if node.kind == "relu":
        deriv = (x0 > 0).astype(np.float64)
    elif node.kind == "prelu":
        slopes = node.params["slopes"]
        deriv = np.where(x0 > 0, 1.0, slopes)
    elif node.kind == "sigmoid":
        y0 = reference[node.id]
        deriv = y0 * (1.0 - y0)
    else:  # tanh
        y0 = reference[node.id]
        deriv = 1.0 - y0 * y0
    ratio_ok = np.abs(dx) > eps_stable
    safe_dx = np.where(ratio_ok, dx, 1.0)
    return np.where(ratio_ok, dy / safe_dx, deriv)


def local_multipliers_product(node, trace: ForwardTrace,
                              reference: ReferenceState) -> tuple[Tensor, Tensor]:
    """Multipliers (m1, m2) of an elementwise product y = x1 * x2.

    m1 = ref(x2) + delta(x2)/2 and m2 = ref(x1) + delta(x1)/2, which
    satisfy m1*d1 + m2*d2 = delta(y) as an algebraic identity.
    """
    if node.kind != "product":
        raise AttributionError(f"node '{node.id}' is not a product node")
    a, b = node.inputs
    da = trace[a] - reference[a]
    db = trace[b] - reference[b]
    m1 = reference[b] + 0.5 * db
    m2 = reference[a] + 0.5 * da
    return m1, m2


def local_multipliers_max(node, trace: ForwardTrace, reference: ReferenceState,
                          eps_stable: float = EPS_STABLE) -> tuple[Tensor, Tensor]:
    """Per-input multipliers and contributions of a max pooling node.

    Each window's difference-from-reference routes entirely to the
    window's current argmax (lowest index on exact ties):
    C = delta_out at the argmax position, 0 elsewhere.  The multiplier
    form C/delta_in is reported only where |delta_in| > eps_stable; at
    singular positions the multiplier is left 0 while the contribution
    is still recorded, so conservation holds per window by construction.

    Returns (multipliers, contributions), both shaped like the input.
    """
    if node.kind != "maxpool1d":
        raise AttributionError(f"node '{node.id}' is not a maxpool node")
    src = node.inputs[0]
    x = trace[src]
    width, stride = int(node.params["width"]), int(node.params["stride"])
    rows = _pool_argmax_rows(x, width, stride)
    dy = trace[node.id] - reference[node.id]
    dx = x - reference[src]

    contrib = np.zeros_like(x)
    mult = np.zeros_like(x)
    if x.ndim == 1:
        np.add.at(contrib, rows, dy)
    else:
        cols = np.arange(x.shape[1])[None, :]
        np.add.at(contrib, (rows, cols), dy)
    ratio_ok = np.abs(dx) > eps_stable
    mult[ratio_ok] = contrib[ratio_ok] / dx[ratio_ok]
    return mult, contrib


# ---------------------------------------------------------------------------
# Maxout: piecewise-linear decomposition along the reference-to-input path


@dataclass(frozen=True)
class Segment:
    """One linearly-dominated stretch of the reference-to-input path."""

    piece: int
    t_start: float
    t_end: float
    coeffs: Tensor  # input coefficients of the dominating piece

    @property
    def fraction(self) -> float:
        return self.t_end - self.t_start


@dataclass
class SegmentDecomposition:
    """Upper envelope of a maxout unit restricted to the straight path."""

    segments: tuple[Segment, ...]
    unit: int

    @property
    def fractions(self) -> np.ndarray:
        return np.array([s.fraction for s in self.segments])


def _envelope_segments(values0: Tensor, slopes: Tensor) -> list[tuple[int, float, float]]:
    """Upper envelope of lines value0_i + slope_i * t over t in [0, 1].

    Candidate boundaries are the exact pairwise crossing roots; crossings
    closer than CROSSING_TOL merge.  The dominating piece of each
    interval is read off at its midpoint, with exact-value ties broken by
    larger slope and then by lowest index, so degenerate ties at an
    interval start resolve to the piece that dominates just after it.
    Returns (piece, t_start, t_end) triples with increasing boundaries.
    """
    n = len(values0)
    cuts = set()
    for i in range(n):
        for j in range(i + 1, n):
            dslope = slopes[j] - slopes[i]
            if dslope == 0.0:
                continue
            cross = (values0[i] - values0[j]) / dslope
            if CROSSING_TOL < cross < 1.0 - CROSSING_TOL:
                cuts.add(float(cross))

    bounds = [0.0]
    for cross in sorted(cuts):
        if cross - bounds[-1] > CROSSING_TOL:
            bounds.append(cross)
    bounds.append(1.0)

    segments: list[tuple[int, float, float]] = []
    for t0, t1 in zip(bounds[:-1], bounds[1:]):
        mid = 0.5 * (t0 + t1)
        vals = values0 + slopes * mid
        tied = np.flatnonzero(vals == vals.max())
        piece = int(tied[np.argmax(slopes[tied])])
        if segments and segments[-1][0] == piece:
            prev_piece, prev_t0, _ = segments[-1]
            segments[-1] = (prev_piece, prev_t0, t1)
        else:
            segments.append((piece, t0, t1))
    return segments


def maxout_segments(node, reference_input: Tensor, input_vector: Tensor,
                    unit: int = 0) -> SegmentDecomposition:
    """Decompose one maxout unit along the straight reference-to-input path.

    The path is A(t) = ref + t*(input - ref), t in [0, 1]; each piece's
    value is linear in t, so segment boundaries are exact roots of linear
    equations.  A degenerate path (input == reference) yields a single
    segment of the piece dominating at the reference.
    """
    if node.kind != "maxout":
        raise AttributionError(f"node '{node.id}' is not a maxout node")
    w = node.params["weights"][:, unit, :]  # (pieces, in)
    b = node.params["biases"][:, unit]
    x0 = np.asarray(reference_input, dtype=np.float64).ravel()
    x1 = np.asarray(input_vector, dtype=np.float64).ravel()
    values0 = w @ x0 + b
    slopes = w @ (x1 - x0)
    triples = _envelope_segments(values0, slopes)
    segments = tuple(
        Segment(piece, t0, t1, w[piece].copy()) for piece, t0, t1 in triples
    )
    return SegmentDecomposition(segments, unit)


def local_multipliers_maxout(node, decomposition: SegmentDecomposition) -> Tensor:
    """Length-weighted piece coefficients: m = sum_s fraction(s) * coeffs(s)."""
    in_dim = node.params["weights"].shape[2]
    m = np.zeros(in_dim)
    for seg in decomposition.segments:
        m += seg.fraction * seg.coeffs
    return m


def _maxout_effective_weights(node, x0: Tensor, x1: Tensor) -> Tensor:
    """Per-unit path-averaged coefficients, stacked to (out, in)."""
    out_dim = node.params["weights"].shape[1]
    rows = []
    for unit in range(out_dim):
        decomp = maxout_segments(node, x0, x1, unit=unit)
        rows.append(local_multipliers_maxout(node, decomp))
    return np.vstack(rows)


# ---------------------------------------------------------------------------
# Propagation


@dataclass
class MultiplierMap:
    """Per-node multipliers to one scalar target."""

    target: tuple[str, int]
    multipliers: dict[str, Tensor]
    graph: Graph

    def __getitem__(self, node_id: str) -> Tensor:
        return self.multipliers[node_id]


def propagate_multipliers(graph: Graph, trace: ForwardTrace,
                          reference: ReferenceState, target,
                          eps_stable: float = EPS_STABLE) -> MultiplierMap:
    """Backpropagate multipliers from the target to every node.

    Reverse topological sweep accumulating, for each node x,
    m[x -> t] = sum over consumers y of m[x -> y] * m[y -> t], seeded
    with m[t -> t] = 1.  Nodes with no path to the target keep zero
    multipliers.  Raises AttributionError if the sweep would have to
    cross a softmax node (target its pre-activations instead).
    """
    graph.require_valid()
    t_node, t_index = resolve_target(graph, target)
    mult = {nid: np.zeros(graph.nodes[nid].output_shape) for nid in graph.nodes}
    mult[t_node].flat[t_index] = 1.0

    for node_id in reversed(topo_order(graph)):
        node = graph.nodes[node_id]
        if node.kind == "input":
            continue
        m_out = mult[node_id]
        if not m_out.any():
            continue
        src = node.inputs[0]
        if node.kind == "affine":
            w = node.params["weights"]
            mult[src] += (w.T @ m_out).reshape(graph.nodes[src].output_shape)
        elif node.kind == "conv1d":
            filters = node.params["filters"]
            stride = int(node.params["stride"])
            width = filters.shape[1]
            contrib = np.einsum("pf,fkc->pkc", m_out, filters)
            rows = stride * np.arange(m_out.shape[0])
            acc = mult[src]
            for k in range(width):
                acc[rows + k, :] += contrib[:, k, :]
        elif node.kind in ("relu", "prelu", "sigmoid", "tanh"):
            mult[src] += m_out * local_multipliers_rescale(
                node, trace, reference, eps_stable
            )
        elif node.kind == "maxpool1d":
            _max_multiplier_backprop(node, m_out, trace, reference, mult, eps_stable)
        elif node.kind == "maxout":
            x0 = reference[src].ravel()
            x1 = trace[src].ravel()
            w_eff = _maxout_effective_weights(node, x0, x1)
            mult[src] += (w_eff.T @ m_out).reshape(graph.nodes[src].output_shape)
        elif node.kind == "product":
            a, b = node.inputs
            m1, m2 = local_multipliers_product(node, trace, reference)
            mult[a] += m_out * m1
            mult[b] += m_out * m2
        elif node.kind == "softmax":
            raise AttributionError(
                f"multipliers cannot cross softmax node '{node.id}'; target the "
                "pre-softmax activations (mean-normalized) instead"
            )
        else:
            raise AttributionError(
                f"no multiplier rule for node '{node.id}' of kind '{node.kind}'"
            )
    return MultiplierMap((t_node, t_index), mult, graph)


def _max_multiplier_backprop(node, m_out, trace, reference, mult, eps_stable):
    """Route each window's contribution to its argmax input.

    The quantity to deliver through window p is delta_out[p] * m_out[p];
    it converts to a multiplier by dividing by the argmax input's delta.
    When the current argmax sits exactly at its reference value (the
    window's delta comes from a different member, typically the old max
    dropping), no finite multiplier at the argmax can carry the
    contribution; it is rerouted to the window member with the largest
    |delta| instead, which keeps conservation exact.  The max operation
    is 1-Lipschitz in the sup norm, so a window with nonzero output
    delta always has such a member (up to eps_stable, below which the
    routed quantity is itself negligible).
    """
    src = node.inputs[0]
    x = trace[src]
    width, stride = int(node.params["width"]), int(node.params["stride"])
    rows = _pool_argmax_rows(x, width, stride)
    dy = trace[node.id] - reference[node.id]
    dx = x - reference[src]
    route = dy * m_out

    win_dx = conv1d_windows(dx, width, stride)
    offsets = stride * np.arange(win_dx.shape[0])
    mover = win_dx.__abs__().argmax(axis=-1)
    if x.ndim == 1:
        mover_rows = offsets + mover
        dx_star = dx[rows]
        chosen = np.where(np.abs(dx_star) > eps_stable, rows, mover_rows)
        chosen_dx = dx[chosen]
        ok = np.abs(chosen_dx) > eps_stable
        np.add.at(mult[src], chosen[ok], route[ok] / chosen_dx[ok])
    else:
        cols = np.arange(x.shape[1])[None, :]
        mover_rows = offsets[:, None] + mover
        dx_star = dx[rows, cols]
        chosen = np.where(np.abs(dx_star) > eps_stable, rows, mover_rows)
        chosen_dx = dx[chosen, cols]
        ok = np.abs(chosen_dx) > eps_stable
        np.add.at(mult[src], (chosen[ok], np.broadcast_to(cols, chosen.shape)[ok]),
                  route[ok] / chosen_dx[ok])


# ---------------------------------------------------------------------------
# Reports and the high-level entry points


@dataclass
class ContributionReport:
    """Per-input-feature contributions to one scalar target."""

    target: tuple[str, int]
    method: str
    contributions: dict[str, Tensor]
    multipliers: dict[str, Tensor]
    deltas: dict[str, Tensor]
    delta_target: float
    residual: float

    def total(self) -> float:
        return float(sum(c.sum() for c in self.contributions.values()))


def contributions(mmap: MultiplierMap, deltas: DeltaState) -> ContributionReport:
    """Contributions C = m * delta per input feature, plus the conservation
    residual |sum(C) - delta(target)|."""
    graph = mmap.graph
    t_node, t_index = mmap.target
    per_input = {}
    input_mult = {}
    input_delta = {}
    for input_id in graph.input_ids():
        m = mmap[input_id]
        d = deltas[input_id]
        per_input[input_id] = m * d
        input_mult[input_id] = m
        input_delta[input_id] = d
    delta_t = float(deltas[t_node].flat[t_index])
    total = float(sum(c.sum() for c in per_input.values()))
    return ContributionReport(
        target=mmap.target,
        method="deeplift",
        contributions=per_input,
        multipliers=input_mult,
        deltas=input_delta,
        delta_target=delta_t,
        residual=abs(total - delta_t),
    )


def select_attribution_target(graph: Graph, requested=None, class_index=None,
                              trace: ForwardTrace | None = None) -> tuple[str, int]:
    """Resolve the attribution target to a concrete (node id, index).

    Explicit requests pass through unchanged.  Automatic selection finds
    the network head: a sigmoid head targets the pre-sigmoid node, a
    softmax head targets the pre-softmax node at ``class_index`` (or the
    predicted class when a trace is supplied).  Anything else raises and
    asks for an explicit choice.
    """
    if requested is not None:
        return resolve_target(graph, requested)
    graph.require_valid()
    if len(graph.outputs) != 1:
        raise AttributionError(
            "automatic target selection needs a single-output graph; "
            "pass an explicit (node_id, index) target"
        )
    head = graph.nodes[graph.outputs[0]]
    if head.kind == "sigmoid":
        return resolve_target(graph, (head.inputs[0], class_index or 0))
    if head.kind == "softmax":
        if class_index is None:
            if trace is None:
                raise AttributionError(
                    "softmax head: pass class_index (or a forward trace to "
                    "target the predicted class)"
                )
            class_index = int(np.argmax(trace[head.id]))
        return resolve_target(graph, (head.inputs[0], class_index))
    raise AttributionError(
        f"graph head '{head.id}' ({head.kind}) is not a sigmoid or softmax; "
        "pass an explicit (node_id, index) target"
    )


def deeplift(graph: Graph, inputs: dict[str, Tensor],
             reference_input: dict[str, Tensor] | None = None,
             target=None, class_index=None, eps_stable: float = EPS_STABLE,
             reference: ReferenceState | None = None) -> ContributionReport:
    """Contribution scores of every input feature to the target.

    ``reference_input`` defaults to all zeros.  When the graph ends in
    an affine + softmax head, the head weights are mean-normalized first
    (this never changes model outputs but removes the arbitrary shared
    component of per-class multipliers); the normalized graph is built
    once per graph.  Pass a precomputed ``reference`` state to amortize
    it across samples; it takes precedence over ``reference_input``.
    """
    graph.require_valid()
    normalized = _normalize_softmax_head_if_any(graph)
    if reference is None:
        if reference_input is None:
            reference_input = zeros_reference(normalized)
        ref = compute_reference(normalized, reference_input)
    elif reference.graph is normalized:
        ref = reference
    else:
        # a reference computed on another graph object, such as the
        # caller's graph before head normalization, is stale (pre-softmax
        # activations shift); it is evaluated on this one once and kept
        ref = reference._twin
        if ref is None or ref.graph is not normalized:
            ref = reference._twin = compute_reference(
                normalized, reference.reference_input
            )
    trace = forward(normalized, inputs)
    resolved = select_attribution_target(normalized, target, class_index, trace)
    mmap = propagate_multipliers(normalized, trace, ref, resolved, eps_stable)
    deltas = compute_deltas(trace, ref)
    return contributions(mmap, deltas)


def _normalize_softmax_head_if_any(graph: Graph) -> Graph:
    if len(graph.outputs) != 1:
        return graph
    head = graph.nodes[graph.outputs[0]]
    if head.kind != "softmax":
        return graph
    pre = graph.nodes[head.inputs[0]]
    if pre.kind != "affine":
        return graph
    if "softmax_head" not in graph._memo:
        from .normalize import mean_normalize_softmax_weights

        graph._memo["softmax_head"] = mean_normalize_softmax_weights(graph)
    return graph._memo["softmax_head"]


@dataclass
class AttributionRequest:
    """One attribution job: sample, reference, target choice and method."""

    graph: Graph
    inputs: dict[str, Tensor]
    reference_input: dict[str, Tensor] | None = None
    target: tuple[str, int] | str | None = None
    class_index: int | None = None
    method: str = "deeplift"
    eps_stable: float = EPS_STABLE
    lrp_epsilon: float = 1e-9


def attribute(request: AttributionRequest) -> ContributionReport:
    """Dispatch an AttributionRequest to deeplift, grad_input or lrp."""
    if request.method == "deeplift":
        return deeplift(
            request.graph,
            request.inputs,
            request.reference_input,
            target=request.target,
            class_index=request.class_index,
            eps_stable=request.eps_stable,
        )
    if request.method == "grad_input":
        from .baselines import gradient_times_input

        return gradient_times_input(
            request.graph,
            request.inputs,
            target=request.target,
            class_index=request.class_index,
            reference_input=request.reference_input,
        )
    if request.method == "lrp":
        from .baselines import lrp_epsilon, lrp_as_contribution_report

        trace = lrp_epsilon(
            request.graph,
            request.inputs,
            target=request.target,
            epsilon=request.lrp_epsilon,
            class_index=request.class_index,
        )
        return lrp_as_contribution_report(request.graph, request.inputs, trace)
    raise AttributionError(
        f"unknown method '{request.method}'; expected deeplift, grad_input or lrp"
    )
