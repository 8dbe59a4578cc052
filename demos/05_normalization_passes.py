"""Output-preserving weight normalization before attribution.

Softmax heads: a feature feeding all classes with the same weight has no
effect on class probabilities, but its raw multipliers are nonzero.
Mean-centering the head weights across classes zeroes those multipliers
without changing any output.  Constant-sum input groups (one-hot rows):
mean-centering consuming weights with a compensating bias keeps outputs
identical on constraint-satisfying inputs while removing an arbitrary
per-group offset from the contributions.

``deeplift``, ``gradient_times_input`` and ``lrp_epsilon`` apply both
passes themselves (``normalize.attribution_model``), so pass them the raw
graph: one normalized by hand is normalized once more.  This demo calls
the passes by hand only to show each one; ``propagate_multipliers``
takes the graph as given.

Run:  python3 demos/05_normalization_passes.py
"""

import numpy as np

from deltalift import (
    ConstraintGroup,
    GraphBuilder,
    compute_reference,
    forward,
    mean_normalize_softmax_weights,
    normalize_constrained_weights,
    propagate_multipliers,
)

rng = np.random.default_rng(1)

# --- softmax head -----------------------------------------------------
w = rng.normal(size=(3, 4))
w[:, 2] = 1.7  # feature 2 feeds every class identically
b = GraphBuilder()
x = b.input("x", (4,))
pre = b.affine("pre", x, w, rng.normal(size=3))
b.softmax("out", pre)
head = b.build(outputs=["out"])

normalized = mean_normalize_softmax_weights(head)
probe = rng.normal(size=4)
print("softmax before:", forward(head, {"x": probe})["out"])
print("softmax after: ", forward(normalized, {"x": probe})["out"])

trace = forward(normalized, {"x": probe})
ref = compute_reference(normalized, {"x": np.zeros(4)})
mults = [propagate_multipliers(normalized, trace, ref, ("pre", k))["x"][2]
         for k in range(3)]
print("multipliers of the class-uniform feature to each class:", mults)

# --- constant-sum groups ----------------------------------------------
b = GraphBuilder()
x = b.input("x", (4,))
b.affine("y", x, [[1.0, 2.0, 3.0, 4.0]], [0.0])
g = b.build(outputs=["y"],
            constraint_groups=[ConstraintGroup("x", (0, 1, 2, 3), 1.0)])
gn = normalize_constrained_weights(g)
print("weights before:", g.nodes["y"].params["weights"][0])
print("weights after: ", gn.nodes["y"].params["weights"][0],
      "bias:", gn.nodes["y"].params["bias"][0])
for hot in range(4):
    onehot = np.zeros(4)
    onehot[hot] = 1.0
    before = forward(g, {"x": onehot})["y"][0]
    after = forward(gn, {"x": onehot})["y"][0]
    print(f"  one-hot {hot}: {before:.6f} -> {after:.6f}")
