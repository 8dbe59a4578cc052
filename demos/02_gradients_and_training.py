"""Reverse-mode gradients, the finite-difference oracle, and a small
training run on linearly separable data.

Run:  python3 demos/02_gradients_and_training.py
"""

import numpy as np

from deltalift import GraphBuilder, backward, finite_difference_check, forward
from deltalift.train import TrainConfig, evaluate, train_loop

rng = np.random.default_rng(0)

# Gradients flow through every layer kind; here a conv/pool front end.
b = GraphBuilder()
x = b.input("x", (10, 2))
conv = b.conv1d("conv", x, rng.normal(size=(3, 4, 2)) * 0.4, np.zeros(3))
act = b.prelu("act", conv, [0.2, 0.3, 0.1])
pool = b.maxpool1d("pool", act, 3, 3)
out = b.affine("out", pool, rng.normal(size=(1, 6)) * 0.4, [0.0])
graph = b.build(outputs=[out])

inputs = {"x": rng.normal(size=(10, 2))}
trace = forward(graph, inputs)
grads = backward(trace, ("out", 0))
print("gradient w.r.t. the input (first rows):")
print(grads["x"][:3])

report = finite_difference_check(graph, inputs, ("out", 0), h=1e-5,
                                 tolerance=1e-6)
print(f"finite differences: max deviation {report.max_rel_deviation:.2e} "
      f"(pass={report.passed})")

# Training: SGD with momentum on cross-entropy, deterministic per seed.
def toy_set(n, seed):
    gen = np.random.default_rng(seed)
    data = []
    for _ in range(n):
        label = int(gen.random() < 0.5)
        center = np.array([1.5, 1.5]) if label else np.array([-1.5, -1.5])
        data.append(({"x": center + gen.normal(size=2) * 0.4}, label))
    return data


b = GraphBuilder()
x = b.input("x", (2,))
h = b.tanh("t", b.affine("fc", x, rng.normal(size=(8, 2)) * 0.5, np.zeros(8)))
logit = b.affine("logit", h, rng.normal(size=(1, 8)) * 0.5, np.zeros(1))
b.sigmoid("prob", logit)
net = b.build(outputs=["prob"])

train = toy_set(120, seed=1)
val = toy_set(60, seed=2)
config = TrainConfig(seed=0, epochs=60, batch_size=16, learning_rate=0.2)
trained, history = train_loop(net, train, val, config)
print("epoch  train_loss  val_loss  val_auroc")
for h in history[::10] + [history[-1]]:
    print(f"{h.epoch:>5}  {h.train_loss:>10.4f}  {h.val_loss:>8.4f}  "
          f"{h.val_auroc:>9.4f}")
loss, roc = evaluate(trained, val)
print(f"final validation: loss={loss:.4f} auroc={roc:.4f}")
