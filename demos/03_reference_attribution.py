"""Why reference-based contributions see what gradients cannot.

A relu that is active at the reference but shut off at the probed input
has zero gradient there, yet the output clearly moved relative to the
reference.  Contributions C = m * delta recover exactly that movement
and split it across input features, conserving the target's
difference-from-reference.

Run:  python3 demos/03_reference_attribution.py
"""

import numpy as np

from deltalift import GraphBuilder, backward, deeplift, forward

# out = 0.1 + 0.2 * relu(x1 + 2*x2 + 2); reference input (0, 0)
b = GraphBuilder()
x = b.input("x", (2,))
pre = b.affine("pre", x, [[1.0, 2.0]], [2.0])
y = b.relu("y", pre)
out = b.affine("out", y, [[0.2]], [0.1])
graph = b.build(outputs=[out])

reference = {"x": np.zeros(2)}
probe = {"x": np.array([-1.0, -1.0])}

print("reference output:", forward(graph, reference)["out"][0])   # 0.5
print("probe output:    ", forward(graph, probe)["out"][0])       # 0.1

grads = backward(forward(graph, probe), ("out", 0))
print("gradient at probe:", grads["x"], "(relu is off: nothing flows)")

# ``reference`` takes the reference input arrays, as here, or the state
# ``compute_reference`` makes from them, which serves many calls
report = deeplift(graph, probe, reference, target=("out", 0))
print("contributions:    ", report.contributions["x"])
print("their sum:        ", report.contributions["x"].sum(),
      "= target delta", report.delta_target)
print("conservation residual:", report.residual)

# Redundant features behind a squashing head: contributions to the
# sigmoid output shrink as more redundant features activate, because the
# sigmoid's delta is bounded.  Targeting the pre-sigmoid node (the
# default) keeps feature scores at full scale.  A softmax head's default
# is each sample's predicted class; class k is the explicit target
# (pre-softmax node, k).
b = GraphBuilder()
x = b.input("x", (2,))
s = b.affine("s", x, [[1.0, 1.0]], [0.0])
t = b.sigmoid("t", s)
head = b.build(outputs=[t])

for point in ([100.0, 0.0], [100.0, 100.0]):
    to_output = deeplift(head, {"x": np.array(point)}, target=("t", 0))
    auto = deeplift(head, {"x": np.array(point)})  # auto: pre-sigmoid
    print(f"input {point}: C to sigmoid output = "
          f"{np.round(to_output.contributions['x'], 4)}, "
          f"C to pre-activation = {auto.contributions['x']}")
