"""Build small computation graphs, validate them, run forward passes,
and round-trip a model through its file format.

Run:  python3 demos/01_graphs_and_forward.py
"""

import tempfile

import numpy as np

from deltalift import (
    GraphBuilder,
    forward,
    load_model,
    n_parameters,
    save_model,
    topo_order,
    validate_graph,
)

# A tiny two-layer network: affine -> relu -> affine -> sigmoid.
b = GraphBuilder()
x = b.input("x", (3,))
hidden = b.affine("hidden", x, [[1.0, -0.5, 0.2], [0.3, 0.8, -1.0]], [0.1, -0.2])
act = b.relu("act", hidden)
logit = b.affine("logit", act, [[0.7, -0.4]], [0.05])
prob = b.sigmoid("prob", logit)
graph = b.build(outputs=[prob])

print("validation:", "ok" if validate_graph(graph).ok else "BROKEN")
print("topological order:", topo_order(graph))
print("parameters:", n_parameters(graph))

trace = forward(graph, {"x": np.array([1.0, 2.0, -0.5])})
for node_id in topo_order(graph):
    print(f"  {node_id:>6} -> {trace[node_id]}")

# The file format is JSON with each weight array stored as its shape plus
# the base64 of its row-major float64 bytes; loading reproduces the graph
# bit-exactly.
with tempfile.NamedTemporaryFile(suffix=".json", mode="w", delete=False) as fh:
    path = fh.name
save_model(graph, path)
reloaded = load_model(path)
again = forward(reloaded, {"x": np.array([1.0, 2.0, -0.5])})
print("round-trip output identical:",
      np.array_equal(trace["prob"], again["prob"]))

# Shape, arity and parameter problems are caught up front, not at
# evaluation time.
from deltalift import Graph, NodeSpec

bad = Graph(
    [
        NodeSpec("x", "input", (), (5,), {"shape": (5,)}),
        NodeSpec("h", "affine", ("x",), (3,),
                 {"weights": np.ones((3, 4)), "bias": np.zeros(3)}),
        NodeSpec("r", "relu", ("x", "x"), (5,)),
        NodeSpec("p", "maxpool1d", ("x",), (2,), {"width": 2.5, "stride": 2}),
    ],
    outputs=["h", "r", "p"],
)
report = validate_graph(bad)
print("deliberately broken graph reports:")
for violation in report.violations:
    print("  -", violation)
