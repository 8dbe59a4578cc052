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
    path from reference to input, length-weighted piece coefficients;
    one vectorized envelope pass covers every (sample, unit)
  * product:         m1 = ref2 + delta2/2, m2 = ref1 + delta1/2

Softmax heads are handled by targeting the mean-normalized pre-softmax
affine layer instead of the softmax output; sigmoid heads default to the
pre-sigmoid node (see ``select_attribution_target``).

Like ``forward``, the entry points take one sample or a batch stacked
along a leading axis; each rule is written once for both, and the linear
kinds share the gradient sweep's ``vjp_node``.  A reference computed
from a batch of the same size pairs row-wise with the inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import (
    ELEMENTWISE_KINDS,
    ForwardTrace,
    Graph,
    Tensor,
    forward,
    topo_order,
)
from .autodiff import (
    _pool_argmax_rows,
    _pool_index,
    resolve_target,
    target_seed,
    target_value,
    vjp_node,
)

EPS_STABLE = 1e-7
CROSSING_TOL = 1e-12
# samples per attribution call when scoring a whole file; larger batches
# buy little speed and raise peak memory
ATTRIBUTE_CHUNK = 8


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


def _reference_on(graph: Graph, reference: ReferenceState | None = None,
                  reference_input: dict[str, Tensor] | None = None) -> ReferenceState:
    """The reference state to attribute against on ``graph``.

    A passed ``reference`` wins over ``reference_input``; without either
    the all-zeros reference is used, evaluated once per graph.
    """
    if reference is None:
        if reference_input is not None:
            return compute_reference(graph, reference_input)
        if "zeros_reference" not in graph._memo:
            graph._memo["zeros_reference"] = compute_reference(
                graph, zeros_reference(graph)
            )
        return graph._memo["zeros_reference"]
    if reference.graph is graph:
        return reference
    # a reference computed on another graph object, such as the caller's
    # graph before head normalization, is stale (pre-softmax activations
    # shift); it is evaluated on this one once and kept
    twin = reference._twin
    if twin is None or twin.graph is not graph:
        twin = reference._twin = compute_reference(graph, reference.reference_input)
    return twin


def compute_deltas(trace: ForwardTrace, reference: ReferenceState,
                   node_ids=None) -> DeltaState:
    """Differences from reference of ``node_ids`` (default: every node)."""
    if trace.graph is not reference.graph:
        raise AttributionError("trace and reference come from different graphs")
    if node_ids is None:
        node_ids = trace.activations
    return DeltaState({nid: trace[nid] - reference[nid] for nid in node_ids})


# ---------------------------------------------------------------------------
# Local rules


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
    # dx and dy are fresh arrays, so the ratio is formed in dy's memory
    dx[~ratio_ok] = 1.0
    np.divide(dy, dx, out=dy)
    np.copyto(dy, deriv, where=~ratio_ok)
    return dy


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


def path_envelope(values0: Tensor, slopes: Tensor) -> tuple[Tensor, np.ndarray]:
    """Upper envelopes of the lines value0_i + slope_i * t over t in [0, 1].

    ``values0`` and ``slopes`` are shaped (..., pieces) and broadcast
    against each other; each leading position is one envelope.  Candidate
    boundaries are the exact pairwise crossing roots; crossings closer
    than CROSSING_TOL merge.  The dominating piece of each interval is
    read off at its midpoint, with exact-value ties broken by larger
    slope and then by lowest index, so degenerate ties at an interval
    start resolve to the piece that dominates just after it; neighbouring
    intervals of one piece join.

    Returns ``(bounds, pieces)`` shaped (..., K + 1) and (..., K), with
    K = pieces*(pieces-1)/2 + 1: segment k spans [bounds[k], bounds[k+1]]
    under piece pieces[k].  Past a row's last segment the pieces read -1
    and the bounds 1.0, so the padding has length exactly 0.
    """
    index = np.arange(values0.shape[-1])
    i, j = np.nonzero(index[:, None] < index)  # every piece pair i < j
    gap = values0[..., i] - values0[..., j]
    dslope = slopes[..., j] - slopes[..., i]
    cuts = np.zeros(np.broadcast_shapes(gap.shape, dslope.shape))
    np.divide(gap, dslope, out=cuts, where=dslope != 0.0)
    # parallel pairs and crossings outside (tol, 1 - tol) read 0, which
    # sorts first and never passes the merge test
    inside = (CROSSING_TOL < cuts) & (cuts < 1.0 - CROSSING_TOL)
    np.copyto(cuts, 0.0, where=~inside)
    cuts.sort(axis=-1)
    last = np.zeros(cuts.shape[:-1])
    for k in range(cuts.shape[-1]):  # ascending: each cut against the last kept
        cut = cuts[..., k]
        keep = cut - last > CROSSING_TOL
        np.copyto(last, cut, where=keep)
        np.copyto(cut, 1.0, where=~keep)  # a dropped cut sorts to the end as 1.0
    cuts.sort(axis=-1)

    t0 = np.zeros(cuts.shape[:-1] + (cuts.shape[-1] + 1,))
    t0[..., 1:] = cuts
    t1 = np.ones(t0.shape)
    t1[..., :-1] = cuts
    mid = 0.5 * (t0 + t1)
    vals = values0[..., None, :] + slopes[..., None, :] * mid[..., None]
    top = vals == vals.max(axis=-1, keepdims=True)
    piece = np.where(top, slopes[..., None, :], -np.inf).argmax(axis=-1)

    # a segment starts at every real interval (t0 < 1) whose piece differs
    # from the one before; sorting by start moves the starts to the front
    start = t0 < 1.0
    start[..., 1:] &= piece[..., 1:] != piece[..., :-1]
    key = np.where(start, t0, 1.0).reshape(-1, t0.shape[-1])
    order = key.argsort(axis=-1)
    rows = np.arange(len(key))[:, None]
    bounds = np.ones(t0.shape[:-1] + (t0.shape[-1] + 1,))
    bounds[..., :-1] = key[rows, order].reshape(t0.shape)
    pieces = np.where(start, piece, -1).reshape(key.shape)[rows, order]
    return bounds, pieces.reshape(t0.shape)


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
    bounds, pieces = path_envelope(w @ x0 + b, w @ (x1 - x0))
    segments = tuple(
        Segment(int(piece), float(t0), float(t1), w[piece].copy())
        for piece, t0, t1 in zip(pieces, bounds[:-1], bounds[1:]) if piece >= 0
    )
    return SegmentDecomposition(segments, unit)


def local_multipliers_maxout(node, decomposition: SegmentDecomposition) -> Tensor:
    """Length-weighted piece coefficients: m = sum_s fraction(s) * coeffs(s)."""
    in_dim = node.params["weights"].shape[2]
    m = np.zeros(in_dim)
    for seg in decomposition.segments:
        m += seg.fraction * seg.coeffs
    return m


# ---------------------------------------------------------------------------
# Propagation


@dataclass
class MultiplierMap:
    """Per-node multipliers to one scalar target.

    For a batched trace every array carries the batch axis and the
    target index holds one entry per sample.
    """

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
    multipliers.  A batched trace propagates every sample at once
    against the one reference, or row i against row i of a batched
    reference.  Raises AttributionError if the sweep would have to
    cross a softmax node (target its pre-activations instead).
    """
    graph.require_valid()
    t_node, t_index = resolve_target(graph, target, trace.batch)
    lead = 0 if trace.batch is None else 1
    mult = {nid: np.zeros(trace[nid].shape) for nid in graph.nodes}
    mult[t_node] = target_seed(graph.nodes[t_node].output_shape, t_index)

    for node_id in reversed(topo_order(graph)):
        node = graph.nodes[node_id]
        if node.kind == "input":
            continue
        m_out = mult[node_id]
        if not m_out.any():
            continue
        src = node.inputs[0]
        if node.kind in ("affine", "conv1d"):
            # linear: multipliers are the weights, as for gradients
            vjp_node(node, m_out, trace, mult)
        elif node.kind in ELEMENTWISE_KINDS:
            local = local_multipliers_rescale(node, trace, reference, eps_stable)
            local *= m_out
            mult[src] += local
        elif node.kind == "maxpool1d":
            _max_multiplier_backprop(node, m_out, trace, reference, mult[src],
                                     eps_stable, lead)
        elif node.kind == "maxout":
            _maxout_multiplier_backprop(node, m_out, trace, reference, mult[src])
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


def _max_multiplier_backprop(node, m_out, trace, reference, acc, eps_stable, lead):
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
    routed quantity is itself negligible).  Multipliers accumulate into
    ``acc``; the window axis is ``lead``.
    """
    src = node.inputs[0]
    x = trace[src]
    width, stride = int(node.params["width"]), int(node.params["stride"])
    dx = x - reference[src]
    route = (trace[node.id] - reference[node.id]) * m_out
    argmax = _pool_argmax_rows(x, width, stride, lead)
    mover = _pool_argmax_rows(np.abs(dx), width, stride, lead)
    chosen = np.where(np.abs(dx[_pool_index(argmax, lead)]) > eps_stable,
                      argmax, mover)
    index = _pool_index(chosen, lead)
    chosen_dx = dx[index]
    ok = np.abs(chosen_dx) > eps_stable
    np.add.at(acc, index, np.where(ok, route, 0.0) / np.where(ok, chosen_dx, 1.0))


def _maxout_multiplier_backprop(node, m_out, trace, reference, acc):
    """Path-averaged piece coefficients of every (sample, unit) at once.

    Unit u of row r passes m_out[r, u] * sum_p frac[r, u, p] * w[p, u],
    where frac is the share of the reference-to-input path on which
    piece p dominates (``path_envelope``); summed over units and pieces
    this is one (rows, units*pieces) @ (units*pieces, in) product.  A
    batched reference pairs its rows with the trace's.  Multipliers
    accumulate into ``acc``.
    """
    n_pieces, out_dim, in_dim = node.params["weights"].shape
    src = node.inputs[0]
    coeffs = node.params["weights"].transpose(1, 0, 2).reshape(-1, in_dim)
    x0 = reference[src].reshape(-1, in_dim)
    x1 = trace[src].reshape(-1, in_dim)
    values0 = (x0 @ coeffs.T).reshape(-1, out_dim, n_pieces) + node.params["biases"].T
    slopes = ((x1 - x0) @ coeffs.T).reshape(-1, out_dim, n_pieces)
    bounds, pieces = path_envelope(values0, slopes)
    owned = pieces[..., None] == np.arange(n_pieces)  # (rows, out, K, pieces)
    frac = (np.diff(bounds, axis=-1)[..., None] * owned).sum(axis=-2)
    frac *= m_out.reshape(-1, out_dim, 1)
    acc += (frac.reshape(-1, out_dim * n_pieces) @ coeffs).reshape(acc.shape)


# ---------------------------------------------------------------------------
# Reports and the high-level entry points


@dataclass
class ContributionReport:
    """Per-input-feature contributions to one scalar target.

    A report on a batch stacks its samples along a leading axis of every
    array; the target index, ``delta_target`` and ``residual`` then hold
    one entry per sample, and ``sample(i)`` is sample i's own report.
    """

    target: tuple[str, int]
    method: str
    contributions: dict[str, Tensor]
    multipliers: dict[str, Tensor]
    deltas: dict[str, Tensor]
    delta_target: float
    residual: float

    @property
    def batch(self) -> int | None:
        return None if np.ndim(self.delta_target) == 0 else len(self.delta_target)

    def total(self):
        """Sum of all contributions: a float, or one per sample of a batch."""
        if self.batch is None:
            return float(sum(c.sum() for c in self.contributions.values()))
        return sum(c.reshape(self.batch, -1).sum(axis=1)
                   for c in self.contributions.values())

    def sample(self, i: int) -> "ContributionReport":
        """Sample ``i`` of a batched report."""
        t_node, t_index = self.target
        return ContributionReport(
            target=(t_node, int(t_index[i])),
            method=self.method,
            contributions={k: v[i] for k, v in self.contributions.items()},
            multipliers={k: v[i] for k, v in self.multipliers.items()},
            deltas={k: v[i] for k, v in self.deltas.items()},
            delta_target=float(self.delta_target[i]),
            residual=float(self.residual[i]),
        )


def contribution_report(target, method: str, scores: dict[str, Tensor],
                        multipliers: dict[str, Tensor], deltas: dict[str, Tensor],
                        delta_target) -> ContributionReport:
    """A report whose residual is |sum(scores) - delta_target|, per sample."""
    report = ContributionReport(target, method, scores, multipliers, deltas,
                                delta_target, residual=0.0)
    report.residual = abs(report.total() - delta_target)
    return report


def contributions(mmap: MultiplierMap, deltas: DeltaState) -> ContributionReport:
    """Contributions C = m * delta per input feature, plus the conservation
    residual |sum(C) - delta(target)|."""
    input_ids = mmap.graph.input_ids()
    t_node, t_index = mmap.target
    return contribution_report(
        mmap.target,
        "deeplift",
        {nid: mmap[nid] * deltas[nid] for nid in input_ids},
        {nid: mmap[nid] for nid in input_ids},
        {nid: deltas[nid] for nid in input_ids},
        target_value(deltas[t_node], t_index),
    )


def select_attribution_target(graph: Graph, requested=None, class_index=None,
                              trace: ForwardTrace | None = None) -> tuple[str, int]:
    """Resolve the attribution target to a concrete (node id, index).

    Explicit requests pass through unchanged.  Automatic selection finds
    the network head: a sigmoid head targets the pre-sigmoid node, a
    softmax head targets the pre-softmax node at ``class_index`` (or the
    predicted class when a trace is supplied).  Anything else raises and
    asks for an explicit choice.  With a batched trace the index holds
    one entry per sample, and each sample's predicted class may differ.
    """
    batch = None if trace is None else trace.batch
    if requested is not None:
        return resolve_target(graph, requested, batch)
    graph.require_valid()
    if len(graph.outputs) != 1:
        raise AttributionError(
            "automatic target selection needs a single-output graph; "
            "pass an explicit (node_id, index) target"
        )
    head = graph.nodes[graph.outputs[0]]
    if head.kind == "sigmoid":
        return resolve_target(graph, (head.inputs[0], class_index or 0), batch)
    if head.kind == "softmax":
        if class_index is None:
            if trace is None:
                raise AttributionError(
                    "softmax head: pass class_index (or a forward trace to "
                    "target the predicted class)"
                )
            class_index = np.argmax(trace[head.id], axis=-1)
        return resolve_target(graph, (head.inputs[0], class_index), batch)
    raise AttributionError(
        f"graph head '{head.id}' ({head.kind}) is not a sigmoid or softmax; "
        "pass an explicit (node_id, index) target"
    )


def deeplift(graph: Graph, inputs: dict[str, Tensor],
             reference_input: dict[str, Tensor] | None = None,
             target=None, class_index=None, eps_stable: float = EPS_STABLE,
             reference: ReferenceState | None = None) -> ContributionReport:
    """Contribution scores of every input feature to the target.

    ``inputs`` holds one sample, or a batch stacked along a leading axis
    (see ``forward``), which gives a batched report.  ``reference_input``
    defaults to all zeros, evaluated once per graph.  When the graph ends
    in an affine + softmax head, the head weights are mean-normalized
    first (this never changes model outputs but removes the arbitrary
    shared component of per-class multipliers); the normalized graph is
    built once per graph.  Pass a precomputed ``reference`` state to
    amortize it across samples; it takes precedence over
    ``reference_input``.  A reference computed from a batch of reference
    inputs pairs row-wise with a batch of ``inputs`` of the same size:
    row i is attributed against reference row i, as the single call with
    that pair would be (nothing is averaged over references).
    """
    graph.require_valid()
    normalized = _normalize_softmax_head_if_any(graph)
    ref = _reference_on(normalized, reference, reference_input)
    trace = forward(normalized, inputs)
    resolved = select_attribution_target(normalized, target, class_index, trace)
    mmap = propagate_multipliers(normalized, trace, ref, resolved, eps_stable)
    # the report reads only the inputs' and the target's deltas
    deltas = compute_deltas(trace, ref, normalized.input_ids() + [resolved[0]])
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


METHODS = ("deeplift", "grad_input", "lrp")


def attribute(graph: Graph, inputs: dict[str, Tensor], method: str = "deeplift",
              reference: ReferenceState | None = None, target=None,
              class_index=None, eps_stable: float = EPS_STABLE,
              lrp_epsilon: float = 1e-9) -> ContributionReport:
    """Score one sample or a batch with deeplift, grad_input or lrp.

    ``reference`` is the state deeplift propagates against and grad_input
    measures input differences from (default all zeros); lrp has none.
    """
    if method == "deeplift":
        return deeplift(graph, inputs, target=target, class_index=class_index,
                        eps_stable=eps_stable, reference=reference)
    from .baselines import gradient_times_input, lrp_as_contribution_report
    from .baselines import lrp_epsilon as lrp

    if method == "grad_input":
        return gradient_times_input(graph, inputs, target=target,
                                    class_index=class_index, reference=reference)
    if method == "lrp":
        relevance = lrp(graph, inputs, target=target, epsilon=lrp_epsilon,
                        class_index=class_index)
        return lrp_as_contribution_report(graph, inputs, relevance)
    raise AttributionError(
        f"unknown method '{method}'; expected one of {', '.join(METHODS)}"
    )
