"""Attribution through maxout units and elementwise products.

A maxout output is the upper envelope of several affine pieces.  Along
the straight path from the reference input to the actual input each
piece's value is linear, so the envelope decomposes into segments with
exact crossing points; multipliers are the piece coefficients weighted
by each piece's share of the path.  Elementwise products split their
output delta between the two operands symmetrically around the
references.

Run:  python3 demos/04_maxout_and_products.py
"""

import numpy as np

from deltalift import (
    GraphBuilder,
    compute_reference,
    deeplift,
    forward,
    maxout_segments,
    propagate_multipliers,
)

# Two pieces over one input: f1(x) = x, f2(x) = 2x - 1.  They cross at
# x = 1, halfway along the path from reference 0 to input 2.
b = GraphBuilder()
x = b.input("x", (1,))
m = b.maxout("m", x, [[[1.0]], [[2.0]]], [[0.0], [-1.0]])
graph = b.build(outputs=[m])
node = graph.nodes["m"]

share = maxout_segments(node, np.zeros(1), np.array([2.0]))
print("path shares of the pieces (rows, units, pieces):", share.tolist())
trace = forward(graph, {"x": np.array([2.0])})
reference = compute_reference(graph, {"x": np.zeros(1)})
mult = propagate_multipliers(graph, trace, reference, ("m", 0))["x"]
print("multiplier:", mult, "(0.5 * 1 + 0.5 * 2)")
# the third argument is the reference: input arrays, or a computed state
report = deeplift(graph, {"x": np.array([2.0])}, {"x": np.zeros(1)},
                  target=("m", 0))
print("contribution:", report.contributions["x"],
      "= output delta", report.delta_target)

# A random five-piece maxout still conserves the output delta exactly.
rng = np.random.default_rng(3)
b = GraphBuilder()
x = b.input("x", (4,))
m = b.maxout("m", x, rng.normal(size=(5, 2, 4)), rng.normal(size=(5, 2)))
graph = b.build(outputs=[m])
ref, probe = rng.normal(size=4), rng.normal(size=4)
for unit in range(2):
    report = deeplift(graph, {"x": probe}, {"x": ref}, target=("m", unit))
    print(f"unit {unit}: residual {report.residual:.2e}")

# Elementwise product: multipliers are the opposite operand's reference
# plus half its delta, an exact algebraic split.
b = GraphBuilder()
u = b.input("u", (1,))
v = b.input("v", (1,))
p = b.product("p", u, v)
graph = b.build(outputs=[p])
report = deeplift(
    graph,
    {"u": np.array([3.0]), "v": np.array([4.0])},
    {"u": np.array([1.0]), "v": np.array([1.0])},
    target=("p", 0),
)
print("product contributions:", report.contributions,
      "sum", report.total(), "= delta", report.delta_target)
