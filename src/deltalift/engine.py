"""Reference-based contribution scores via multiplier backpropagation.

Every neuron's activation is compared against its activation under a
caller-chosen reference input.  Contributions C = m * delta are assigned
so that, summed over a layer's inputs, they reproduce the target's
difference-from-reference (the conservation property tested throughout
this package).  Multipliers m chain like gradients:

    m[x -> t] = sum over consumers y of  m[x -> y] * m[y -> t]

so DeepLIFT is a modified gradient (Ancona et al., ICLR 2018): one
``autodiff.vjp_sweep`` with these per-kind local rules:

  * affine / conv1d: multipliers equal the weights
  * maxpool1d:       each window's delta routes to the current argmax,
    the route ``forward`` recorded in the trace (rerouted where that
    member's delta is at most EPS_STABLE), written as a routed buffer
    (``autodiff.Routed``): the rules below the pool form deltas and
    multipliers only at the routed units
  * relu / prelu / sigmoid / tanh: m = delta_out / delta_in, falling back
    to the derivative at the reference where |delta_in| <= EPS_STABLE
  * maxout:          piece coefficients weighted by each piece's share
    of the straight path from reference to input (``maxout_segments``:
    the intervals between sorted crossing points, summed per piece over
    every (sample, unit) at once)
  * product:         m1 = ref2 + delta2/2, m2 = ref1 + delta1/2

Like ``forward``, the entry points take one sample or a batch stacked
along a leading axis; each rule is written once for both.  DeepLIFT's
rule table extends the gradient table (``autodiff.GRADIENT_RULES``), so
the linear kinds keep the gradient rule.  A reference computed from a
batch of the same size pairs row-wise with the inputs.
``propagate_multipliers`` returns the sweep's per-node mapping
(``autodiff.SweepValues``), and ``contributions`` turns any such
multipliers (DeepLIFT's, gradients, or epsilon-LRP's) into a report of
C = m * delta.

DeepLIFT, gradient*input and epsilon-LRP (``baselines``) run through one
core (``_attribute``) and differ only in the rule table and the deltas:
from a reference, or for LRP the activations (a reference whose every
activation is 0); epsilon-LRP's table (``_lrp_rules``) sits beside
DeepLIFT's.  The core takes the graph's attribution model
(``normalize.attribution_model``), fixes the target's node before any
forward (``fixed_target_node``: by default the pre-activation of the
head that ``graph.Plan.head`` names), runs the forward pass over that
node's ancestors, resolves the target (``select_attribution_target``),
sweeps and builds the report, so all three explain the same target of
the model ``deltalift attribute`` explains.  Its calls are report-only:
they read only the inputs' and the target's arrays; a softmax head's
predicted class is read from its pre-activations.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .graph import (
    ELEMENTWISE_KINDS,
    KNOWN_KINDS,
    DenseOnRead,
    ForwardTrace,
    Graph,
    Tensor,
    _window_members,
    forward,
    stable_softmax,
)
from .autodiff import (
    GRADIENT_RULES,
    Routed,
    _target_sweep,
    accumulate,
    aligned,
    elementwise_grad,
    one_per_call,
    resolve_target,
    take_at,
    target_value,
    vjp_node,
    whole,
)
from .normalize import attribution_model

# DeepLIFT divides by an input delta only where |delta| exceeds this
EPS_STABLE = 1e-7
# epsilon-LRP's stabilizer (``baselines.lrp_epsilon``)
LRP_EPSILON = 1e-9
# maxout path crossings closer than this to either end of the path are
# dropped, so rounding at a shared endpoint makes no sliver interval
CROSSING_TOL = 1e-12
# samples per attribution call when scoring a whole file; larger batches
# buy little speed and raise peak memory
ATTRIBUTE_CHUNK = 8


class AttributionError(Exception):
    """Attribution cannot proceed: bad target, unsupported node, etc."""


def check_stabilizer(value) -> float:
    """Return epsilon-LRP's stabilizer ``value`` (DeepLIFT's is the constant
    ``EPS_STABLE``); raise ValueError unless it is a finite number >= 0."""
    number = type(value) is float or (isinstance(value, numbers.Real)
                                      and not isinstance(value, bool))
    if not (number and math.isfinite(value) and value >= 0):
        raise ValueError(f"epsilon must be a finite number >= 0, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# Reference state


@dataclass
class ReferenceState(ForwardTrace):
    """The forward trace of the reference input, which it also keeps."""

    reference_input: dict[str, Tensor] = field(default_factory=dict)
    # the same reference input evaluated on another graph, kept by deeplift
    _twin: "ReferenceState | None" = field(default=None, init=False, repr=False,
                                           compare=False)
    # DeepLIFT's rule table against this state (``_deeplift_rules``)
    _rules: dict | None = field(default=None, init=False, repr=False, compare=False)


def zeros_reference(graph: Graph) -> dict[str, Tensor]:
    """The all-zeros reference input, one array per input node."""
    return {
        nid: np.zeros(graph.nodes[nid].output_shape) for nid in graph.input_ids()
    }


def compute_reference(graph: Graph, reference_input: dict[str, Tensor]) -> ReferenceState:
    """Forward-evaluate the reference input into a full per-node state."""
    trace = forward(graph, reference_input)
    return ReferenceState(trace.activations, graph, trace.batch, trace.routes,
                          reference_input=dict(reference_input))


def _reference_on(graph: Graph, reference=None) -> ReferenceState:
    """The reference state to attribute against on ``graph``.

    ``reference`` is a ``ReferenceState`` or a dict of reference input
    arrays, which is evaluated as ``compute_reference`` would; without
    one the all-zeros reference is used, evaluated once per graph.
    Raises AttributionError for anything else.
    """
    if reference is None:
        # the memo keeps the state's fields and rule table but not the
        # graph: a state in its own graph's memo would make a cycle that
        # outlives the graph's last use until the cyclic collector runs
        kept = graph._memo.get("zeros_reference")
        if kept is None:
            state = compute_reference(graph, zeros_reference(graph))
            kept = graph._memo["zeros_reference"] = (
                state.activations, state.batch, state.routes, state.reference_input,
                _deeplift_rules(state))
        activations, batch, routes, reference_input, rules = kept
        state = ReferenceState(activations, graph, batch, routes,
                               reference_input=reference_input)
        state._rules = rules
        return state
    if isinstance(reference, dict):
        return compute_reference(graph, reference)
    if not isinstance(reference, ReferenceState):
        raise AttributionError(
            "reference must be a ReferenceState or a dict of reference input "
            f"arrays, got {type(reference).__name__}")
    if reference.graph is graph:
        return reference
    # a reference computed on another graph object, such as the caller's
    # graph before ``attribution_model``, is stale (normalized layers'
    # activations shift); it is evaluated on this one once and kept
    twin = reference._twin
    if twin is None or twin.graph is not graph:
        twin = reference._twin = compute_reference(graph, reference.reference_input)
    return twin


def compute_deltas(trace: ForwardTrace, reference: ReferenceState | None,
                   node_ids=None) -> dict[str, Tensor]:
    """Differences from reference of ``node_ids`` (default: every node);
    with no ``reference`` (LRP's convention) the activations themselves."""
    if node_ids is None:
        node_ids = trace.activations
    if reference is None:
        return {nid: trace[nid] for nid in node_ids}
    if trace.graph is not reference.graph:
        raise AttributionError("trace and reference come from different graphs")
    return {nid: trace[nid] - reference[nid] for nid in node_ids}


# ---------------------------------------------------------------------------
# Local rules


def local_multipliers_rescale(node, trace: ForwardTrace, reference: ReferenceState,
                              at=whole) -> Tensor:
    """Elementwise multipliers delta_out/delta_in for a 1-input nonlinearity.

    Where |delta_in| <= EPS_STABLE the ratio is replaced by the analytic
    derivative of the nonlinearity at the reference pre-activation (the
    limit value), which keeps multipliers continuous across the switch.
    ``at`` reads the activations at a routed buffer's entries (see
    ``autodiff.aligned``); by default the multipliers cover every unit.
    """
    if node.kind not in ELEMENTWISE_KINDS:
        raise AttributionError(f"node '{node.id}' ({node.kind}) is not a rescale kind")
    src = node.inputs[0]
    dx = at(trace[src]) - at(reference[src])
    dy = at(trace[node.id]) - at(reference[node.id])
    # dx and dy are fresh arrays, so the ratio is formed in dy's memory;
    # count_nonzero tests for all-true without ndarray.all's Python wrapper
    ratio_ok = np.abs(dx) > EPS_STABLE
    if np.count_nonzero(ratio_ok) == ratio_ok.size:
        return np.divide(dy, dx, out=dy)
    dx[~ratio_ok] = 1.0
    np.divide(dy, dx, out=dy)
    # the gradient rule on the reference: the derivative there
    np.copyto(dy, elementwise_grad(node, 1.0, reference, at), where=~ratio_ok)
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


@functools.lru_cache(maxsize=16)
def _piece_pairs(n_pieces: int) -> tuple[Tensor, Tensor]:
    """Indices (i, j) of every piece pair i < j, as ``np.triu_indices``
    gives them; cached per piece count, so the arrays are read-only."""
    pairs = np.triu_indices(n_pieces, 1)
    for index in pairs:
        index.setflags(write=False)
    return pairs


def maxout_segments(node, reference_input: Tensor, input_values: Tensor) -> Tensor:
    """Share of the straight reference-to-input path on which each piece
    of each maxout unit dominates, shaped (rows, units, pieces).

    ``reference_input`` and ``input_values`` are the node's input
    activations, one sample or a batch; a single reference row pairs
    with every input row.  The path is A(t) = ref + t*(input - ref), t in
    [0, 1], and each piece's value is linear in t.  The exact pairwise
    crossing roots inside (CROSSING_TOL, 1 - CROSSING_TOL), sorted, cut
    the path into intervals; each interval goes to the piece on top at
    its midpoint, an exact tie to the larger slope and then the lowest
    index, so a tie at an interval start resolves to the piece that
    dominates just after it.  A piece's share is the summed length of
    its intervals.  A degenerate path (input == reference) gives its
    whole share to the piece dominating at the reference.  Each unit's
    shares sum to 1.
    """
    if node.kind != "maxout":
        raise AttributionError(f"node '{node.id}' is not a maxout node")
    n_pieces, out_dim, in_dim = node.params["weights"].shape
    coeffs = node.piece_coefficients
    x0 = reference_input.reshape(-1, in_dim)
    x1 = input_values.reshape(-1, in_dim)
    values0 = (x0 @ coeffs.T).reshape(-1, out_dim, n_pieces) + node.params["biases"].T
    slopes = ((x1 - x0) @ coeffs.T).reshape(-1, out_dim, n_pieces)
    i, j = _piece_pairs(n_pieces)
    gap = values0[..., i] - values0[..., j]
    dslope = slopes[..., j] - slopes[..., i]
    # interval bounds: 0, the sorted crossings, 1; parallel pairs and
    # crossings outside (tol, 1 - tol) read 0, an empty interval at 0
    bounds = np.zeros(dslope.shape[:-1] + (len(i) + 2,))
    cuts = bounds[..., 1:-1]
    np.divide(gap, dslope, out=cuts, where=dslope != 0.0)
    np.copyto(cuts, 0.0, where=~((CROSSING_TOL < cuts) & (cuts < 1.0 - CROSSING_TOL)))
    cuts.sort(axis=-1)
    bounds[..., -1] = 1.0
    mid = 0.5 * (bounds[..., :-1] + bounds[..., 1:])
    vals = values0[..., None, :] + slopes[..., None, :] * mid[..., None]
    top = vals == vals.max(axis=-1, keepdims=True)
    owner = np.where(top, slopes[..., None, :], -np.inf).argmax(axis=-1)
    # each interval's length added to its owner's share, in path order
    owner = owner.reshape(-1, owner.shape[-1])
    owner += n_pieces * np.arange(len(owner))[:, None]
    share = np.bincount(owner.ravel(), (bounds[..., 1:] - bounds[..., :-1]).ravel(),
                        len(owner) * n_pieces)
    return share.reshape(-1, out_dim, n_pieces)


# ---------------------------------------------------------------------------
# Propagation


def propagate_multipliers(graph: Graph, trace: ForwardTrace,
                          reference: ReferenceState, target) -> dict[str, Tensor]:
    """Multipliers m[x -> target] of every node x, keyed by node id.

    One ``vjp_sweep`` under DeepLIFT's rule table accumulates, for each
    node x, m[x -> t] = sum over consumers y of m[x -> y] * m[y -> t],
    seeded with m[t -> t] = 1.  Nodes with no path to the target keep
    zero multipliers.  A batched trace propagates every sample at once
    (every array then carries the batch axis) against the one reference,
    or row i against row i of a batched reference.  Raises
    AttributionError if the sweep would have to cross a softmax node
    (target its pre-activations instead).
    """
    graph.require_valid()
    return _target_sweep(graph, trace, resolve_target(graph, target, trace.batch),
                         _deeplift_rules(reference))


def _deeplift_rules(reference: ReferenceState) -> dict:
    """DeepLIFT's rule table for ``vjp_sweep`` against ``reference``,
    built once per state and kept on it (``_rule_table``)."""
    rules = reference._rules
    if rules is None:
        rules = reference._rules = _rule_table(reference.activations)
    return rules


def _rule_table(reference: dict[str, Tensor]) -> dict:
    """DeepLIFT's rules against the reference activations ``reference``:
    the gradient table with its nonlinear kinds replaced; affine and
    conv1d keep the gradient rule, since their multipliers are the
    weights.  The rules read the activations, not their state, so a
    state that keeps its table makes no reference cycle."""

    def rescale(node, m_out, trace, mult, _):
        m, at, like = aligned(m_out)
        local = local_multipliers_rescale(node, trace, reference, at)
        local *= m
        accumulate(mult, node.inputs[0], like(local))

    def product(node, m_out, trace, mult, _):
        for src, m in zip(node.inputs, local_multipliers_product(node, trace, reference)):
            accumulate(mult, src, m_out * m)

    def maxpool(node, m_out, trace, mult, _):
        _max_multiplier_backprop(node, m_out, trace, reference, mult)

    def maxout(node, m_out, trace, mult, _):
        _maxout_multiplier_backprop(node, m_out, trace, reference, mult)

    def softmax(node, m_out, trace, mult, _):
        if m_out.any():
            raise AttributionError(
                f"multipliers cannot cross softmax node '{node.id}'; target the "
                "pre-softmax activations (mean-normalized) instead"
            )

    return {**GRADIENT_RULES, **dict.fromkeys(ELEMENTWISE_KINDS, rescale),
            "product": product, "maxpool1d": maxpool, "maxout": maxout,
            "softmax": softmax}


def _max_multiplier_backprop(node, m_out, trace, reference, mult):
    """Route each window's contribution to its argmax input, the route
    ``forward`` recorded in the trace.

    The quantity to deliver through window p is delta_out[p] * m_out[p];
    it converts to a multiplier by dividing by the argmax input's delta.
    When the current argmax sits exactly at its reference value (the
    window's delta comes from a different member, typically the old max
    dropping), no finite multiplier at the argmax can carry the
    contribution; it is rerouted to the window member with the largest
    |delta| instead, which keeps conservation exact.  The max operation
    is 1-Lipschitz in the sup norm, so a window with nonzero output
    delta always has such a member (up to EPS_STABLE, below which the
    routed quantity is itself negligible).  Input deltas are formed only
    at the chosen members, and at every member of a rerouting window.
    The multipliers go into the source's buffer in ``mult`` as a
    ``Routed`` buffer.
    """
    src = node.inputs[0]
    x = trace[src]

    def delta_at(index):
        return take_at(x, index, x.size) - take_at(reference[src], index, x.size)

    route = (trace[node.id] - reference[node.id]) * m_out
    chosen = trace.route(node.id)
    chosen_dx = delta_at(chosen)
    ok = np.abs(chosen_dx) > EPS_STABLE
    # no window reroutes: bitwise the where-form below (count_nonzero
    # tests for all-true without ndarray.all's Python wrapper)
    if np.count_nonzero(ok) == ok.size:
        values = route / chosen_dx
    else:
        # the |delta| argmax, taken only over the windows that reroute; the
        # trace's route stays as it is
        weak = np.flatnonzero(~ok)
        members = _window_members(node, x.shape, weak)
        members_dx = delta_at(members)
        pick = (np.arange(len(weak)), np.abs(members_dx).argmax(axis=1))
        chosen = chosen.copy()
        chosen.put(weak, members[pick])
        chosen_dx.put(weak, members_dx[pick])
        ok = np.abs(chosen_dx) > EPS_STABLE
        values = np.where(ok, route, 0.0) / np.where(ok, chosen_dx, 1.0)
    accumulate(mult, src, Routed(chosen, values, x.shape))


def _maxout_multiplier_backprop(node, m_out, trace, reference, mult):
    """Path-averaged piece coefficients of every (sample, unit) at once.

    Unit u of row r passes m_out[r, u] * sum_p share[r, u, p] * w[p, u],
    with the path shares of ``maxout_segments``; summed over units and
    pieces this is one (rows, units*pieces) @ (units*pieces, in)
    product.  A batched reference pairs its rows with the trace's.
    Multipliers accumulate into the source's buffer in ``mult``.
    """
    n_pieces, out_dim = node.params["weights"].shape[:2]
    src = node.inputs[0]
    share = maxout_segments(node, reference[src], trace[src])
    share *= m_out.reshape(-1, out_dim, 1)
    accumulate(mult, src, (share.reshape(-1, out_dim * n_pieces)
                           @ node.piece_coefficients).reshape(trace[src].shape))


# ---------------------------------------------------------------------------
# epsilon-LRP's rules


# prelu, like relu, is positively homogeneous (f(x) = f'(x) x), so its
# gradient rule passes relevance through unchanged
LRP_KINDS = frozenset(["input", "affine", "conv1d", "maxpool1d", "relu", "prelu"])


def _lrp_rules(epsilon: float, bias_rel: DenseOnRead) -> dict:
    """epsilon-LRP's rules for ``vjp_sweep``, which then carries
    multipliers m (relevance = activation * m): affine and conv1d pass
    m * a / (a + eps sign a) to the gradient rule, and record in
    ``bias_rel`` their bias share, to be formed when read
    (``_bias_share``); every kind outside ``LRP_KINDS`` raises once
    multipliers reach it; the rest keep the gradient rule.  At
    ``epsilon`` 0 a unit with a = 0 holds no relevance and passes none."""

    def filtering(node, m_out, trace, mult, _):
        # a node's relevance is a * m; zero relevance adds no share
        # (count_nonzero tests for it without ndarray.any's Python wrapper)
        m, at, like = aligned(m_out)
        a = at(trace[node.id])
        r = m * a
        if not np.count_nonzero(r):
            return
        stabilizer = np.where(a >= 0, epsilon, -epsilon)
        # only epsilon 0 leaves a zero denominator; r is 0 there, as is r / 1
        d = a + stabilizer
        d[d == 0] = 1.0
        share = r / d
        vjp_node(node, like(share), trace, mult)
        bias_rel[node.id] = functools.partial(
            _bias_share, node.params["bias"], at, stabilizer, share, trace.batch)

    return {**_LRP_BASE, "affine": filtering, "conv1d": filtering}


def _bias_share(bias: Tensor, at, stabilizer: Tensor, share: Tensor, batch: int | None):
    """The relevance a filtering node's bias and stabilizer absorb: a
    float, or one per sample of a batch."""
    absorbed = (at(bias) + stabilizer) * share
    return (float(absorbed.sum()) if batch is None
            else absorbed.reshape(batch, -1).sum(axis=1))


def _reject(node, m_out, trace, mult, _):
    if m_out.any():
        raise AttributionError(
            f"lrp does not support node '{node.id}' of kind '{node.kind}'; "
            f"it supports {', '.join(sorted(LRP_KINDS - {'input'}))}"
        )


# epsilon-LRP's table but for the filtering rule, which ``_lrp_rules`` adds
_LRP_BASE = {**GRADIENT_RULES, **dict.fromkeys(KNOWN_KINDS - LRP_KINDS, _reject)}


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
        return None if one_per_call(self.delta_target) else len(self.delta_target)

    def total(self):
        """Sum of all contributions: a float, or one per sample of a batch."""
        return _total(self.contributions, self.batch)

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


def _total(scores: dict[str, Tensor], batch: int | None):
    """``ContributionReport.total`` of ``scores``: ``np.add.reduce`` is
    the sum ``ndarray.sum`` takes, without its Python wrapper."""
    total = 0
    for c in scores.values():
        total = total + (np.add.reduce(c, None) if batch is None
                         else np.add.reduce(c.reshape(batch, -1), 1))
    return float(total) if batch is None else total


def contributions(trace: ForwardTrace, reference: ReferenceState | None, target,
                  multipliers: dict[str, Tensor],
                  method: str = "deeplift") -> ContributionReport:
    """Contributions C = m * delta per input feature of the trace's graph,
    with deltas from ``reference``, plus the conservation residual
    |sum(C) - delta(target)|; ``target`` is resolved.  With no
    ``reference`` the deltas are the activations, as ``compute_deltas``
    forms them."""
    if reference is not None and trace.graph is not reference.graph:
        raise AttributionError("trace and reference come from different graphs")
    scores, mults, deltas = {}, {}, {}
    for nid, _ in trace.graph.plan().inputs:
        delta = deltas[nid] = trace[nid] if reference is None else trace[nid] - reference[nid]
        m = mults[nid] = multipliers[nid]
        scores[nid] = m * delta
    t_node, t_index = target
    t_delta = trace[t_node] if reference is None else trace[t_node] - reference[t_node]
    delta_target = target_value(t_delta, t_index)
    batch = None if one_per_call(delta_target) else len(delta_target)
    return ContributionReport(target, method, scores, mults, deltas, delta_target,
                              abs(_total(scores, batch) - delta_target))


def select_attribution_target(graph: Graph, requested=None,
                              trace: ForwardTrace | None = None) -> tuple[str, int]:
    """Resolve the attribution target to a concrete (node id, index).

    Explicit requests pass through unchanged; softmax class k is the
    explicit target (pre-softmax node, k).  Automatic selection targets
    the pre-activation of the graph's head (``Plan.head``): of a one-unit
    sigmoid at 0, or of a softmax at the class ``trace`` predicts, one
    per sample of a batch: the argmax of the head's own forward rule on
    the pre-activations, so a trace that stops there serves.  A graph
    without a head, or a softmax head without a trace, raises
    AttributionError and asks for an explicit choice.
    """
    if requested is None:
        pre = fixed_target_node(graph)
        if graph.nodes[graph.plan().head[0]].kind == "sigmoid":
            requested = pre, 0
        elif trace is None:
            raise AttributionError(
                "softmax head: pass a forward trace to target the predicted class, "
                f"or an explicit ('{pre}', class) target")
        else:
            requested = pre, np.argmax(stable_softmax(trace[pre]), axis=-1)
    return resolve_target(graph, requested, None if trace is None else trace.batch)


def fixed_target_node(graph: Graph, requested=None) -> str:
    """The node ``select_attribution_target`` resolves ``requested`` to,
    known before the forward pass: an explicit target's node, or the
    head's pre-activation (``Plan.head``); raises, as resolving would,
    when the graph has no such node (GraphError) or no head
    (AttributionError).  A report-only call evaluates just this node and
    its ancestors (``forward(..., upto=...)``), so never the head itself."""
    if requested is None:
        head = graph.plan().head
        if head is None:
            raise AttributionError(
                "automatic target selection needs one output that is a one-unit "
                f"sigmoid or a softmax, got {graph.describe_outputs()}; pass an "
                "explicit (node_id, index) target")
        return head[1]
    node_id = requested if isinstance(requested, str) else requested[0]
    return resolve_target(graph, (node_id, 0))[0]


def _traced_target(graph: Graph, inputs: dict[str, Tensor], target=None):
    """(trace, resolved target) on ``graph``'s attribution model
    (``normalize.attribution_model``); the trace holds only the inputs,
    the target node (``fixed_target_node``) and its ancestors.  Raises
    GraphError if the graph is malformed."""
    graph = attribution_model(graph)
    trace = forward(graph, inputs, upto=fixed_target_node(graph, target))
    return trace, select_attribution_target(graph, target, trace)


def _method_report(trace: ForwardTrace, reference: ReferenceState | None, target,
                   method: str, lrp_epsilon: float = LRP_EPSILON) -> ContributionReport:
    """``method``'s sweep over ``trace`` to the resolved ``target`` and
    its report; LRP's ``reference`` is None."""
    if method == "deeplift":
        rules = _deeplift_rules(reference)
    elif method == "lrp":
        rules = _lrp_rules(lrp_epsilon, {})
    else:
        rules = GRADIENT_RULES
    mult = _target_sweep(trace.graph, trace, target, rules)
    return contributions(trace, reference, target, mult, method)


def _attribute(graph: Graph, inputs: dict[str, Tensor], method: str, target=None,
               reference=None, lrp_epsilon: float = LRP_EPSILON) -> ContributionReport:
    """The report-only path of ``deeplift``, ``gradient_times_input`` and
    ``attribute``; it checks the LRP epsilon first."""
    check_stabilizer(lrp_epsilon)
    trace, resolved = _traced_target(graph, inputs, target)
    ref = None if method == "lrp" else _reference_on(trace.graph, reference)
    return _method_report(trace, ref, resolved, method, lrp_epsilon)


def deeplift(graph: Graph, inputs: dict[str, Tensor],
             reference: ReferenceState | dict | None = None,
             target=None) -> ContributionReport:
    """Contribution scores of every input feature to the target.

    ``inputs`` holds one sample, or a batch stacked along a leading axis
    (see ``forward``), which gives a batched report.  ``reference`` is a
    dict of reference input arrays or the state ``compute_reference``
    makes from one, which amortizes it across calls; by default all
    zeros, evaluated once per graph.  A reference computed from a batch
    pairs row-wise with a batch of ``inputs`` of the same size (nothing
    is averaged over references).  ``target`` is an explicit (node id,
    index); by default the head's pre-activation, at a softmax head each
    sample's predicted class (class k is the target (pre-softmax id, k)).
    The model explained is the graph's attribution model
    (``normalize.attribution_model``, once per graph): normalized over its
    declared constraint groups, then over a softmax head that reads an
    affine node (a softmax over any other kind is explained as given).
    Neither pass changes outputs on valid inputs; the softmax pass
    removes the arbitrary shared component of per-class multipliers.
    Only the target node's ancestors are evaluated.
    """
    return _attribute(graph, inputs, "deeplift", target, reference)


METHODS = ("deeplift", "grad_input", "lrp")


def attribute(graph: Graph, inputs: dict[str, Tensor], method: str = "deeplift",
              reference: ReferenceState | dict | None = None, target=None,
              lrp_epsilon: float = LRP_EPSILON) -> ContributionReport:
    """Score one sample or a batch with deeplift, grad_input or lrp.

    ``reference``, reference inputs or their state (as ``deeplift``
    takes), is what deeplift propagates against and grad_input measures
    input differences from (default all zeros); lrp has none and ignores
    it.  ``target`` resolves as ``deeplift``'s does.  Raises ValueError
    unless ``lrp_epsilon`` is a finite number >= 0, whichever method
    runs.
    """
    if method not in METHODS:
        raise AttributionError(
            f"unknown method '{method}'; expected one of {', '.join(METHODS)}"
        )
    return _attribute(graph, inputs, method, target, reference, lrp_epsilon)
