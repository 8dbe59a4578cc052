"""Weight-normalization passes that preserve model outputs.

Two transformations used before attribution:

  * softmax heads: subtract each input's mean weight across classes, so
    a feature feeding all classes equally gets exactly zero multiplier
    to every class pre-activation (softmax outputs are unchanged because
    the shift is class-uniform)
  * constrained inputs: for a feature group that always sums to a
    constant c (one-hot rows, for instance), shift the consuming weights
    by their group mean and compensate the bias by c * mean, which keeps
    the output identical on every constraint-satisfying input

``attribution_model`` alone decides, once per graph, which of them make
the model that every attribution entry point explains; callers pass the
raw graph.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph


class NormalizationError(Exception):
    """The requested pass does not apply to this graph."""


def softmax_over_affine(graph: Graph) -> bool:
    """Whether the graph's head (``Plan.head``) is a softmax that reads an
    affine node: the graphs ``mean_normalize_softmax_weights`` applies to."""
    head = graph.plan().head
    return (head is not None and graph.nodes[head[0]].kind == "softmax"
            and graph.nodes[head[1]].kind == "affine")


def mean_normalize_softmax_weights(graph: Graph) -> Graph:
    """Mean-center the final affine layer's weights across softmax classes.

    Requires the graph's head to be a softmax that reads an affine node
    (``softmax_over_affine``).  Each input column of the weight matrix is
    shifted by its mean over classes; the bias is untouched.  Softmax
    outputs are identical before and after on every input.
    """
    if not softmax_over_affine(graph):
        raise NormalizationError(
            "softmax normalization needs one softmax output that reads an affine "
            f"node; got {graph.describe_outputs()}")
    pre = graph.nodes[graph.plan().head[1]]
    w = pre.params["weights"]
    centered = w - w.mean(axis=0, keepdims=True)
    return graph.replace_params({pre.id: {"weights": centered}})


def normalize_constrained_weights(graph: Graph) -> Graph:
    """Mean-center weights over each declared constant-sum input group.

    For every constraint group (sum of input features equals ``total``),
    the weights of each consuming affine or conv1d node are shifted by
    the group mean and the bias absorbs ``total * mean``.  Outputs are
    unchanged on all inputs satisfying the constraints.  Raises if a
    grouped input feeds a node without weights.  The result still
    declares its groups, so ``attribution_model`` applies the pass to it
    once more; the attribution methods want the raw graph.
    """
    graph.require_valid()
    if not graph.constraint_groups:
        raise NormalizationError("graph declares no constraint groups")

    by_input: dict[str, list] = {}
    for group in graph.constraint_groups:
        by_input.setdefault(group.input_id, []).append(group)

    # affine and conv1d read one input, so each consumer is visited once
    updates: dict[str, dict] = {}
    for input_id, groups in by_input.items():
        for consumer_id in graph.consumers(input_id):
            node = graph.nodes[consumer_id]
            if node.kind == "affine":
                w, b = node.params["weights"].copy(), node.params["bias"].copy()
                for group in groups:
                    idx = list(group.indices)
                    mu = w[:, idx].mean(axis=1)
                    w[:, idx] -= mu[:, None]
                    b += group.total * mu
                updates[consumer_id] = {"weights": w, "bias": b}
            elif node.kind == "conv1d":
                updates[consumer_id] = _normalize_conv(graph, node, groups)
            else:
                raise NormalizationError(
                    f"constraint group on '{input_id}' reaches node "
                    f"'{consumer_id}' ({node.kind}), which has no weights "
                    "adjacent to the input"
                )
    return graph.replace_params(updates)


def _normalize_conv(graph: Graph, node, groups) -> dict:
    """Column-wise filter normalization for a conv layer on grouped rows.

    Every input row a filter window can see must be declared as one
    group spanning exactly that row's channels, all with the same total;
    then each filter column is shifted by its own mean and the bias
    absorbs total * (sum of column means).
    """
    input_id = node.inputs[0]
    in_shape = graph.nodes[input_id].output_shape
    length, channels = in_shape
    stride = int(node.params["stride"])
    filters, bias = node.params["filters"].copy(), node.params["bias"].copy()
    n_filt, width, _ = filters.shape

    row_total: dict[int, float] = {}
    for group in groups:
        rows = {ix // channels for ix in group.indices}
        expected = None
        if len(rows) == 1:
            row = rows.pop()
            expected = tuple(range(row * channels, (row + 1) * channels))
        if expected is None or tuple(sorted(group.indices)) != expected:
            raise NormalizationError(
                f"conv1d '{node.id}': constraint groups must each cover one "
                "full input row (all channels at one position)"
            )
        row_total[row] = group.total

    covered = (node.output_shape[0] - 1) * stride + width
    missing = [r for r in range(covered) if r not in row_total]
    if missing:
        raise NormalizationError(
            f"conv1d '{node.id}': rows {missing[:5]} seen by filter windows "
            "carry no constraint group"
        )
    totals = {row_total[r] for r in range(covered)}
    if len(totals) != 1:
        raise NormalizationError(
            f"conv1d '{node.id}': all row groups must share one total, "
            f"got {sorted(totals)}"
        )
    total = totals.pop()

    mu = filters.mean(axis=2)  # (n_filt, width)
    filters -= mu[:, :, None]
    bias += total * mu.sum(axis=1)
    return {"filters": filters, "bias": bias}


def attribution_model(graph: Graph) -> Graph:
    """The model every attribution method explains for ``graph``: the
    graph after ``normalize_constrained_weights`` if it declares
    constraint groups, then after ``mean_normalize_softmax_weights`` if
    ``softmax_over_affine`` holds.  It is made once per graph and is its
    own attribution model.  Raises NormalizationError if a constraint
    group cannot be applied, GraphError if the graph is malformed."""
    model = graph._memo.get("attribution_model")
    if model is None:
        model = graph
        if graph.constraint_groups:
            model = normalize_constrained_weights(model)
        if softmax_over_affine(graph):
            model = mean_normalize_softmax_weights(model)
        # a flag, not the model itself: no graph refers to itself
        model._memo["attribution_model"] = True
        if model is not graph:
            graph._memo["attribution_model"] = model
    return graph if model is True else model
