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
times m), both tables in ``engine``.  Every call evaluates only the
target node's ancestors, which the ``RelevanceTrace`` of ``lrp_epsilon``
holds; it reads zero relevance at every other node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import _target_sweep, target_value
from .engine import (
    LRP_EPSILON,
    LRP_KINDS,
    AttributionError,
    ContributionReport,
    ReferenceState,
    _attribute,
    _lrp_rules,
    _traced_target,
    check_stabilizer,
    contributions,
)
from .graph import DenseOnRead, ForwardTrace, Graph, GraphBuilder, Tensor, forward
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
    ``trace`` holds the inputs, the target and its ancestors; the sweep
    reaches no other node, so another node's relevance reads zero.
    """

    trace: ForwardTrace
    multipliers: dict[str, Tensor]
    bias_relevance: dict[str, float]
    epsilon: float
    target: tuple[str, int]
    target_activation: float

    def __getitem__(self, node_id: str) -> Tensor:
        m = self.multipliers[node_id]
        activations = self.trace.activations
        return activations[node_id] * m if node_id in activations else m.copy()

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
    ValueError unless ``epsilon`` is a finite number >= 0; at epsilon 0 a
    filtering unit whose pre-activation is 0 passes no relevance.  Like
    every method it evaluates only the target node's ancestors.
    """
    check_stabilizer(epsilon)
    trace, resolved = _traced_target(graph, inputs, target)
    bias_rel = DenseOnRead()
    mult = _target_sweep(trace.graph, trace, resolved, _lrp_rules(epsilon, bias_rel))
    return RelevanceTrace(trace, mult, bias_rel, epsilon, resolved,
                          target_value(trace[resolved[0]], resolved[1]))


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


# the inclusive ranges an ensemble net draws its affine layers, hidden
# widths and input width from, and its smallest |affine output|
ENSEMBLE_DEPTHS, ENSEMBLE_WIDTHS, ENSEMBLE_INPUT_DIMS = (2, 4), (4, 12), (3, 8)
PREACTIVATION_FLOOR = 1e-6


@dataclass
class EnsembleSpec:
    """Random ReLU multi-layer perceptron ensemble for the equivalence check.

    Nets are resampled until every affine output entry has magnitude at
    least ``PREACTIVATION_FLOOR``: those values are the LRP denominators,
    and near-zero denominators inflate finite-epsilon error without
    saying anything about the epsilon -> 0 limit.
    """

    n_nets: int = 100
    seed: int = 0


@dataclass
class EquivalenceRow:
    net_id: int
    epsilon: float
    max_rel_dev: float
    mean_rel_dev: float


def random_relu_mlp(rng: np.random.Generator):
    """One random ReLU MLP with nonzero biases, plus an admissible input."""
    for _ in range(1000):
        depth = int(rng.integers(ENSEMBLE_DEPTHS[0], ENSEMBLE_DEPTHS[1] + 1))
        in_dim = int(rng.integers(ENSEMBLE_INPUT_DIMS[0], ENSEMBLE_INPUT_DIMS[1] + 1))
        b = GraphBuilder()
        prev = b.input("x", (in_dim,))
        dim = in_dim
        for layer in range(depth - 1):
            width = int(rng.integers(ENSEMBLE_WIDTHS[0], ENSEMBLE_WIDTHS[1] + 1))
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
        if min(floors) >= PREACTIVATION_FLOOR:
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
        graph, inputs = random_relu_mlp(rng)
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
