"""End-to-end miniature of the DNA motif benchmark.

Generates a small dataset (positives carry GATA and CAGATG, negatives
one of the two), trains the CNN briefly, then scores how much positive
attribution mass each method places inside the true motif spans.  The
full-scale run lives in the acceptance suite and the CLI; this demo
uses a reduced dataset so it finishes in about a minute.

Run:  python3 demos/07_genomics_benchmark.py
"""

import numpy as np

from deltalift.genomics import (
    DatasetSpec,
    build_genomics_cnn,
    compare_methods,
    encode_dataset,
    generate_dataset,
    motif_recovery_score,
    one_hot_encode,
    per_position_scores,
)
from deltalift.engine import deeplift
from deltalift.graph import forward
from deltalift.train import TrainConfig, evaluate, train_loop

spec = DatasetSpec(n_train=600, n_val=200, n_test=200, seed=0)
data = generate_dataset(spec)
example = data.train[0]
print(f"{example.sid}: label={example.label} spans="
      f"{[(s.start, s.end, s.name) for s in example.motif_spans]}")
print(example.sequence)

graph = build_genomics_cnn(seed=0)
config = TrainConfig(seed=0, epochs=12, batch_size=32, learning_rate=0.05,
                     weight_decay=5e-4)
graph, history = train_loop(graph, encode_dataset(data.train),
                            encode_dataset(data.val), config, verbose=True)
loss, roc = evaluate(graph, encode_dataset(data.test))
print(f"test: loss={loss:.4f} auroc={roc:.4f} (small-scale demo; the "
      "acceptance run trains on 4000 sequences)")

# Attribution on one correctly predicted positive.  deeplift explains the
# model normalized over the CNN's one-hot constraint groups, as
# compare_methods and ``deltalift attribute`` do, against the all-zeros
# reference; both are worked out once per graph.
for ex in data.test:
    if ex.label != 1:
        continue
    x = one_hot_encode(ex.sequence)
    if forward(graph, {"seq": x})["prob"][0] <= 0.5:
        continue
    report = deeplift(graph, {"seq": x})
    scores = per_position_scores(report, ex)
    print(f"\n{ex.sid}: recovery="
          f"{motif_recovery_score(report, ex):.3f} residual={report.residual:.2e}")
    for span in ex.motif_spans:
        inside = scores[span.start:span.end].sum()
        print(f"  {span.name:>6} at [{span.start},{span.end}): "
              f"score mass {inside:+.4f}")
    break

comparison = compare_methods(graph, data.test)
print(f"\nmethod comparison over {comparison.n_correct_positives} correctly "
      f"classified positives:")
print(f"  mean recovery: deeplift={comparison.mean_deeplift:.3f} "
      f"grad*input={comparison.mean_grad_input:.3f}")
print(f"  win rate (deeplift >= grad*input): {comparison.win_rate:.2f}")
print(f"  per-motif gap: GATA={comparison.gata_gap:+.3f} "
      f"CAGATG={comparison.cagatg_gap:+.3f}")
