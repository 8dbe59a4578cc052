"""Comparison attribution methods: gradient*input and epsilon-LRP.

Gradient*input is the first-order Taylor score around zero.  The LRP
filtering rule redistributes relevance proportionally to weighted
activations with an epsilon-stabilized denominator; on piecewise-linear
networks (affine, conv1d, maxpool1d, relu, prelu) with biases included
in the denominators it converges to gradient*input as epsilon goes to
zero, which ``equivalence_report`` demonstrates over a random ensemble.

Both are modified gradients (Ancona et al., ICLR 2018), so they run
through ``engine``'s one attribution core: gradient*input with the
gradient table (``autodiff.GRADIENT_RULES``) and deltas from a
reference, epsilon-LRP with a table that replaces only the filtering
rule at affine and conv1d, and deltas that are the activations (the
sweep then carries multipliers m; a node's relevance is its activation
times m).  ``gradient_times_input`` and ``attribute(..., "lrp")`` are
report-only; ``lrp_epsilon`` evaluates every node, since the
``RelevanceTrace`` it returns exposes the whole trace.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .autodiff import GRADIENT_RULES, _target_sweep, aligned, target_value, vjp_node
from .engine import (
    LRP_EPSILON,
    AttributionError,
    ContributionReport,
    ReferenceState,
    _attribute,
    _traced_target,
    check_stabilizer,
    contributions,
)
from .graph import (
    KNOWN_KINDS,
    DenseOnRead,
    ForwardTrace,
    Graph,
    GraphBuilder,
    Tensor,
    forward,
)
from .normalize import attribution_model


def gradient_times_input(graph: Graph, inputs: dict[str, Tensor], target=None,
                         reference: ReferenceState | dict | None = None
                         ) -> ContributionReport:
    """Per-feature scores gradient * input for one sample or a batch.

    Like every method it explains the graph's attribution model
    (``normalize.attribution_model``); the target resolves as
    ``deeplift``'s does.  With a ``reference`` given (reference inputs or
    their computed state, as ``deeplift`` takes) scores become
    gradient * (input - reference); the default reference is zero,
    evaluated once per graph.  The report's residual records how far the
    scores are from the difference-from-reference of the target
    (gradients conserve nothing, so this is diagnostic, not small).  Only
    the target node's ancestors are evaluated.
    """
    return _attribute(graph, inputs, "grad_input", target, reference)


# ---------------------------------------------------------------------------
# epsilon-LRP


# prelu, like relu, is positively homogeneous (f(x) = f'(x) x), so its
# gradient rule passes relevance through unchanged
LRP_KINDS = frozenset(["input", "affine", "conv1d", "maxpool1d", "relu", "prelu"])


@dataclass
class RelevanceTrace:
    """Per-node relevances from one LRP backward pass.

    The sweep carries LRP's modified gradient: ``multipliers`` m, with a
    node's relevance its activation times m, read as ``rt[node_id]``.
    ``bias_relevance`` records, per filtering node, the share absorbed by
    the bias and stabilizer terms; adding it back restores the layer-sum
    telescoping at every epsilon; each share is formed when first read
    (a ``graph.DenseOnRead``).  ``target_activation`` is the seeded
    relevance.  On a batch every entry holds one value per sample.
    """

    trace: ForwardTrace
    multipliers: dict[str, Tensor]
    bias_relevance: dict[str, float]
    epsilon: float
    target: tuple[str, int]
    target_activation: float

    def __getitem__(self, node_id: str) -> Tensor:
        return self.trace[node_id] * self.multipliers[node_id]

    @property
    def relevances(self) -> dict[str, Tensor]:
        return {nid: self[nid] for nid in self.multipliers}


def lrp_epsilon(graph: Graph, inputs: dict[str, Tensor], target=None,
                epsilon: float = LRP_EPSILON) -> RelevanceTrace:
    """Relevance propagation with the epsilon-stabilized filtering rule.

    Supports piecewise-linear graphs: affine and conv1d filter layers
    (bias included in the denominator); max-pooling and the rectifiers
    (relu, prelu) keep the gradient rule, so relevance passes through a
    rectifier and goes to each window's argmax.  The target resolves as
    ``deeplift``'s does, on the same attribution model
    (``normalize.attribution_model``), and its relevance is its own
    activation.  ``inputs`` holds one sample or a batch.  Raises
    AttributionError when relevance reaches any other node kind, and
    ValueError unless ``epsilon`` is a finite number >= 0.  The forward
    trace covers every node, since ``RelevanceTrace`` exposes it.
    """
    check_stabilizer(epsilon)
    trace, resolved = _traced_target(graph, inputs, target, every_node=True)
    bias_rel = DenseOnRead()
    mult = _target_sweep(trace.graph, trace, resolved, _lrp_rules(epsilon, bias_rel))
    return RelevanceTrace(trace, mult, bias_rel, epsilon, resolved,
                          target_value(trace[resolved[0]], resolved[1]))


def _lrp_rules(epsilon: float, bias_rel: DenseOnRead) -> dict:
    """epsilon-LRP's rules for ``vjp_sweep``, which then carries
    multipliers m (relevance = activation * m): affine and conv1d pass
    m * a / (a + eps sign a) to the gradient rule, and record in
    ``bias_rel`` their bias share, to be formed when read
    (``_bias_share``); every kind outside ``LRP_KINDS`` raises once
    multipliers reach it; the rest keep the gradient rule."""

    def filtering(node, m_out, trace, mult, _):
        # a node's relevance is a * m; zero relevance adds no share
        # (count_nonzero tests for it without ndarray.any's Python wrapper)
        m, at, like = aligned(m_out)
        a = at(trace[node.id])
        r = m * a
        if not np.count_nonzero(r):
            return
        stabilizer = np.where(a >= 0, epsilon, -epsilon)
        share = r / (a + stabilizer)
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


def lrp_as_contribution_report(graph: Graph, inputs: dict[str, Tensor],
                               trace: RelevanceTrace) -> ContributionReport:
    """Input-layer relevances of ``lrp_epsilon(graph, inputs, ...)`` in
    the common report shape: deltas are the inputs, and ``delta_target``
    the target's activation.  Raises AttributionError unless ``trace``
    ran on ``graph`` (on its attribution model, ``normalize.attribution_model``)
    and on ``inputs``."""
    traced = trace.trace
    if graph is not traced.graph and attribution_model(graph) is not traced.graph:
        raise AttributionError("the relevance trace was computed on another graph")
    for node_id, _ in traced.graph.plan().inputs:
        # the same array object, as lrp_epsilon's caller passes, is not compared
        x = inputs.get(node_id)
        if x is not traced[node_id] and not np.array_equal(x, traced[node_id]):
            raise AttributionError(
                f"input '{node_id}' is not the input the relevance trace ran on")
    return contributions(traced, None, trace.target, trace.multipliers, "lrp")


# ---------------------------------------------------------------------------
# Equivalence of epsilon-LRP and gradient*input on piecewise-linear nets


@dataclass
class EnsembleSpec:
    """Random ReLU multi-layer perceptron ensemble for the equivalence check.

    Nets are resampled until every affine output entry has magnitude at
    least ``preactivation_floor``: those values are the LRP denominators,
    and near-zero denominators inflate finite-epsilon error without
    saying anything about the epsilon -> 0 limit.
    """

    n_nets: int = 100
    depth_range: tuple[int, int] = (2, 4)
    width_range: tuple[int, int] = (4, 12)
    input_dim_range: tuple[int, int] = (3, 8)
    seed: int = 0
    preactivation_floor: float = 1e-6


@dataclass
class EquivalenceRow:
    net_id: int
    epsilon: float
    max_rel_dev: float
    mean_rel_dev: float


def random_relu_mlp(rng: np.random.Generator, spec: EnsembleSpec):
    """One random ReLU MLP with nonzero biases, plus an admissible input."""
    for _ in range(1000):
        depth = int(rng.integers(spec.depth_range[0], spec.depth_range[1] + 1))
        in_dim = int(rng.integers(spec.input_dim_range[0], spec.input_dim_range[1] + 1))
        b = GraphBuilder()
        prev = b.input("x", (in_dim,))
        dim = in_dim
        for layer in range(depth - 1):
            width = int(rng.integers(spec.width_range[0], spec.width_range[1] + 1))
            w = rng.normal(size=(width, dim)) / np.sqrt(dim)
            bias = rng.normal(size=width) * 0.5
            prev = b.affine(f"fc{layer}", prev, w, bias)
            prev = b.relu(f"act{layer}", prev)
            dim = width
        w = rng.normal(size=(1, dim)) / np.sqrt(dim)
        bias = rng.normal(size=1) * 0.5
        out = b.affine("head", prev, w, bias)
        graph = b.build(outputs=[out])
        x = rng.normal(size=in_dim)

        trace = forward(graph, {"x": x})
        floors = [
            float(np.min(np.abs(trace[n.id])))
            for n in graph.nodes.values()
            if n.kind == "affine"
        ]
        if min(floors) >= spec.preactivation_floor:
            return graph, {"x": x}
    raise RuntimeError("could not sample an admissible net; floor too high?")


def _relative_deviation(lrp_scores: Tensor, gi_scores: Tensor) -> Tensor:
    return np.abs(lrp_scores - gi_scores) / (np.abs(gi_scores) + 1e-12)


def equivalence_report(spec: EnsembleSpec, epsilons) -> list[EquivalenceRow]:
    """Deviation between epsilon-LRP and gradient*input per net and epsilon.

    For each sampled net the target is the final affine unit; deviations
    are elementwise |lrp - g*x| / (|g*x| + 1e-12) over input features.
    As epsilon shrinks the deviation goes to zero.
    """
    rng = np.random.default_rng(spec.seed)
    epsilons = [float(e) for e in epsilons]
    rows: list[EquivalenceRow] = []
    for net_id in range(spec.n_nets):
        graph, inputs = random_relu_mlp(rng, spec)
        gi = gradient_times_input(graph, inputs, target=("head", 0))
        gi_scores = gi.contributions["x"]
        for eps in epsilons:
            rel = lrp_epsilon(graph, inputs, target=("head", 0), epsilon=eps)
            dev = _relative_deviation(rel["x"], gi_scores)
            rows.append(
                EquivalenceRow(net_id, eps, float(dev.max()), float(dev.mean()))
            )
    return rows


def write_equivalence_tsv(path, rows: list[EquivalenceRow]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("net_id\tepsilon\tmax_rel_dev\tmean_rel_dev\n")
        for row in rows:
            fh.write(
                f"{row.net_id}\t{row.epsilon:g}\t{row.max_rel_dev:.12g}\t"
                f"{row.mean_rel_dev:.12g}\n"
            )
