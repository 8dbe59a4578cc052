"""Epsilon-LRP collapses to gradient*input on piecewise-linear nets.

The LRP filtering rule divides weighted activations by the consuming
unit's activation (bias included) plus an epsilon stabilizer.  Across
stacked layers the intermediate denominators cancel, leaving exactly
input times gradient as epsilon goes to zero; the table below shows the
deviation melting away over a random ensemble.

Run:  python3 demos/06_lrp_equivalence.py
"""

import numpy as np

from deltalift import EnsembleSpec, equivalence_report, lrp_epsilon
from deltalift.baselines import gradient_times_input, random_relu_mlp

# One concrete net first.
rng = np.random.default_rng(7)
graph, inputs = random_relu_mlp(rng)
gi = gradient_times_input(graph, inputs, target=("head", 0))
print("gradient*input:", np.round(gi.contributions["x"], 6))
for eps in (1e-2, 1e-5, 1e-9):
    rel = lrp_epsilon(graph, inputs, target=("head", 0), epsilon=eps)
    print(f"lrp eps={eps:<6g}:", np.round(rel["x"], 6))

# Now the ensemble view.
rows = equivalence_report(EnsembleSpec(n_nets=30, seed=0),
                          [1e-2, 1e-5, 1e-9])
print("\nepsilon   worst max_rel_dev   mean max_rel_dev")
for eps in (1e-2, 1e-5, 1e-9):
    devs = [r.max_rel_dev for r in rows if r.epsilon == eps]
    print(f"{eps:<8g}  {max(devs):<17.3e}  {np.mean(devs):.3e}")

decreasing = 0
nets = {r.net_id for r in rows}
for net in nets:
    devs = [r.max_rel_dev for r in sorted(
        (r for r in rows if r.net_id == net), key=lambda r: -r.epsilon)]
    decreasing += devs[0] > devs[1] > devs[2]
print(f"strictly decreasing deviation on {decreasing}/{len(nets)} nets")
