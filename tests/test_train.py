"""Trainer behavior: convergence, determinism, abort diagnostics."""

import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from deltalift import cli
from deltalift.genomics import DatasetSpec, auroc, generate_dataset, write_fasta
from deltalift.graph import GraphBuilder, forward
from deltalift.train import (
    TrainConfig,
    TrainingError,
    evaluate,
    train_loop,
    train_step,
    write_loss_curve,
)


def small_mlp(seed=0, softmax=False):
    rng = np.random.default_rng(seed)
    b = GraphBuilder()
    x = b.input("x", (2,))
    h = b.tanh("t", b.affine("fc1", x, rng.normal(size=(8, 2)) * 0.5,
                             np.zeros(8)))
    if softmax:
        pre = b.affine("logit", h, rng.normal(size=(2, 8)) * 0.5, np.zeros(2))
        b.softmax("prob", pre)
    else:
        pre = b.affine("logit", h, rng.normal(size=(1, 8)) * 0.5, np.zeros(1))
        b.sigmoid("prob", pre)
    return b.build(outputs=["prob"])


def separable_toy_set(n=80, seed=1):
    rng = np.random.default_rng(seed)
    data = []
    for _ in range(n):
        label = int(rng.random() < 0.5)
        center = np.array([2.0, 2.0]) if label else np.array([-2.0, -2.0])
        data.append(({"x": center + rng.normal(size=2) * 0.4}, label))
    return data


def accuracy(graph, data):
    hits = 0
    for x, label in data:
        p = forward(graph, x)["prob"]
        pred = int(p[0] > 0.5) if p.size == 1 else int(np.argmax(p))
        hits += pred == label
    return hits / len(data)


class TestTraining:
    def test_separable_toy_reaches_full_accuracy(self):
        data = separable_toy_set()
        graph = small_mlp()
        config = TrainConfig(seed=0, epochs=200, batch_size=16,
                             learning_rate=0.2)
        trained, history = train_loop(graph, data, data, config)
        assert accuracy(trained, data) == 1.0
        assert len(history) == 200

    def test_loss_trends_down_on_separable_set(self):
        data = separable_toy_set()
        trained, history = train_loop(
            small_mlp(), data, None,
            TrainConfig(seed=0, epochs=40, batch_size=16, learning_rate=0.2),
        )
        losses = [h.train_loss for h in history]
        assert losses[-1] < 0.1 * losses[0]
        # allow small bounces but no sustained increase
        assert losses[-1] == min(losses[-5:]) or losses[-1] < 0.05

    def test_same_seed_identical_weights(self):
        data = separable_toy_set()
        config = TrainConfig(seed=7, epochs=5, batch_size=8, learning_rate=0.1)
        g1, _ = train_loop(small_mlp(), data, None, config)
        g2, _ = train_loop(small_mlp(), data, None, config)
        for nid in g1.nodes:
            for key, value in g1.nodes[nid].params.items():
                if isinstance(value, np.ndarray):
                    assert np.array_equal(value, g2.nodes[nid].params[key])

    def test_softmax_head_trains(self):
        data = separable_toy_set()
        config = TrainConfig(seed=0, epochs=100, batch_size=16,
                             learning_rate=0.2)
        trained, _ = train_loop(small_mlp(softmax=True), data, None, config)
        assert accuracy(trained, data) >= 0.95

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts_with_diagnostic(self):
        # unbounded relu activations blow up under an absurd step size
        rng = np.random.default_rng(0)
        b = GraphBuilder()
        x = b.input("x", (2,))
        h = b.relu("r", b.affine("fc1", x, rng.normal(size=(8, 2)), np.zeros(8)))
        pre = b.affine("logit", h, rng.normal(size=(1, 8)), np.zeros(1))
        b.sigmoid("prob", pre)
        g = b.build(outputs=["prob"])
        data = separable_toy_set()
        config = TrainConfig(seed=0, epochs=50, batch_size=4,
                             learning_rate=1e12)
        with pytest.raises(TrainingError, match="non-finite"):
            train_loop(g, data, None, config)

    def test_wrong_head_rejected(self, rng):
        b = GraphBuilder()
        x = b.input("x", (2,))
        b.affine("y", x, rng.normal(size=(1, 2)), np.zeros(1))
        g = b.build(outputs=["y"])
        with pytest.raises(TrainingError, match="head"):
            train_loop(g, separable_toy_set(), None, TrainConfig(epochs=1))


def test_one_epoch_validates_at_most_once(monkeypatch):
    import deltalift.graph as graph_module

    calls = []
    real = graph_module.validate_graph

    def counting(graph):
        calls.append(graph)
        return real(graph)

    monkeypatch.setattr(graph_module, "validate_graph", counting)
    data = separable_toy_set()
    graph = small_mlp()
    calls.clear()
    train_loop(graph, data, data, TrainConfig(seed=0, epochs=1, batch_size=8))
    assert len(calls) <= 1


def test_evaluate_reports_loss_and_auroc():
    data = separable_toy_set()
    trained, _ = train_loop(
        small_mlp(), data, None,
        TrainConfig(seed=0, epochs=120, batch_size=16, learning_rate=0.2),
    )
    loss, roc = evaluate(trained, data)
    assert loss < 0.2
    assert roc == 1.0


def test_one_class_validation_set_gives_nan_auroc(tmp_path, capsys):
    # auROC needs both classes: a validation set of positives alone
    # reports nan each epoch, as training with no validation set does
    data = separable_toy_set()
    positives = [example for example in data if example[1] == 1][:2]
    _, history = train_loop(small_mlp(), data[:16], positives,
                            TrainConfig(seed=0, epochs=2, batch_size=8))
    assert len(history) == 2
    assert all(np.isfinite(h.val_loss) and math.isnan(h.val_auroc) for h in history)
    loss, roc = evaluate(small_mlp(), positives)
    assert np.isfinite(loss) and math.isnan(roc)
    with pytest.raises(ValueError, match="at least one positive and one negative"):
        auroc([0.2, 0.7], [1, 1])

    generated = generate_dataset(DatasetSpec(n_train=16, n_val=8, n_test=2, seed=5))
    write_fasta(tmp_path / "train.fa", generated.train)
    write_fasta(tmp_path / "val.fa", [ex for ex in generated.val if ex.label == 1][:2])
    out = tmp_path / "m.json"
    assert cli.main(["train", "--data", str(tmp_path), "--out", str(out),
                     "--epochs", "2", "--batch-size", "8", "--quiet"]) == 0
    assert "val_auroc=nan" in capsys.readouterr().out
    assert out.exists()
    rows = (tmp_path / "m.json.losses.tsv").read_text().splitlines()[1:]
    assert [row.split("\t")[3] for row in rows] == ["nan", "nan"]
    assert all(np.isfinite(float(row.split("\t")[2])) for row in rows)


def three_class_mlp():
    rng = np.random.default_rng(2)
    b = GraphBuilder()
    x = b.input("x", (2,))
    h = b.tanh("t", b.affine("fc1", x, rng.normal(size=(8, 2)) * 0.5, np.zeros(8)))
    b.softmax("prob", b.affine("logit", h, rng.normal(size=(3, 8)) * 0.5, np.zeros(3)))
    return b.build(outputs=["prob"])


def test_validation_set_with_a_third_class_gives_nan_auroc():
    # the auROC of the last class's score against label 1 is undefined
    # once a label is neither 0 nor 1; it read 0.778 with class 2 ranked
    # among the negatives
    rng = np.random.default_rng(3)
    data = [({"x": rng.normal(size=2) + label}, label) for label in [0, 1, 2] * 6]
    loss, roc = evaluate(three_class_mlp(), data)
    assert np.isfinite(loss) and math.isnan(roc)
    _, history = train_loop(three_class_mlp(), data, data,
                            TrainConfig(seed=0, epochs=2, batch_size=6))
    assert len(history) == 2
    assert all(np.isfinite(h.val_loss) and math.isnan(h.val_auroc) for h in history)
    # two classes on the same head still get an auROC
    loss, roc = evaluate(three_class_mlp(), [d for d in data if d[1] < 2])
    assert np.isfinite(loss) and 0.0 <= roc <= 1.0


@pytest.mark.parametrize("labels, bad", [([1.7, 0, 2, 1], "1.7"), ([0, 1, 0.2, 2], "0.2"),
                                         ([0, float("nan"), 1, 2], "nan")])
def test_softmax_head_rejects_non_integer_labels(labels, bad):
    # 1.7 and 0.2 once trained as classes 1 and 0
    rng = np.random.default_rng(4)
    data = [({"x": rng.normal(size=2)}, label) for label in labels]
    with pytest.raises(TrainingError, match=f"softmax label {bad} is not an integer"):
        train_step(three_class_mlp(), data, TrainConfig(), None)
    with pytest.raises(TrainingError, match=f"softmax label {bad} is not an integer"):
        evaluate(three_class_mlp(), data)


def test_softmax_head_accepts_integral_float_labels():
    rng = np.random.default_rng(4)
    xs = [{"x": rng.normal(size=2)} for _ in range(4)]
    as_int = [(x, label) for x, label in zip(xs, [0, 1, 2, 1])]
    as_float = [(x, float(label)) for x, label in as_int]
    assert evaluate(three_class_mlp(), as_float)[0] == evaluate(three_class_mlp(), as_int)[0]
    _, _, loss = train_step(three_class_mlp(), as_float, TrainConfig(), None)
    assert loss == train_step(three_class_mlp(), as_int, TrainConfig(), None)[2]


def test_loss_curve_tsv_format(tmp_path):
    data = separable_toy_set(n=20)
    _, history = train_loop(small_mlp(), data, data,
                            TrainConfig(seed=0, epochs=3, batch_size=10))
    path = tmp_path / "losses.tsv"
    write_loss_curve(path, history)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "epoch\ttrain_loss\tval_loss\tval_auroc"
    assert len(lines) == 4
    for i, line in enumerate(lines[1:]):
        fields = line.split("\t")
        assert int(fields[0]) == i
        assert all(np.isfinite(float(f)) for f in fields[1:])


def test_config_file_round_trip(tmp_path):
    config = TrainConfig(seed=3, epochs=9, batch_size=17, learning_rate=0.01,
                         momentum=0.8)
    path = tmp_path / "cfg.json"
    config.to_file(path)
    assert TrainConfig.from_file(path) == config


def test_config_rejects_unknown_fields(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"seed": 1, "dropout": 0.5}')
    with pytest.raises(ValueError, match=r"^unknown training config fields: \['dropout'\]$"):
        TrainConfig.from_file(path)


@pytest.mark.parametrize("payload", ["5", "[]", '"seed"', "null"])
def test_config_file_must_be_an_object(tmp_path, payload):
    path = tmp_path / "cfg.json"
    path.write_text(payload)
    with pytest.raises(ValueError, match="training config must be a JSON object"):
        TrainConfig.from_file(path)


@pytest.mark.parametrize("field, value", [
    ("epochs", 0), ("epochs", -2), ("epochs", 1.5), ("batch_size", 0),
    ("batch_size", -4), ("batch_size", True), ("learning_rate", -0.1),
    ("learning_rate", float("nan")), ("momentum", float("inf")), ("momentum", -0.5),
    ("weight_decay", -1e-4), ("weight_decay", "0.1"), ("seed", -1), ("seed", 1.5),
    ("seed", True), ("seed", "x"), ("seed", None),
])
def test_out_of_range_config_rejected_naming_the_field(tmp_path, field, value):
    config = TrainConfig(**{field: value})
    with pytest.raises(ValueError, match=f"training config: {field} must be"):
        train_loop(small_mlp(), separable_toy_set(n=8), None, config)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({field: value}))
    with pytest.raises(ValueError, match=f"training config: {field} must be"):
        TrainConfig.from_file(path)


def test_edge_of_range_config_trains():
    config = TrainConfig(epochs=1, batch_size=1, learning_rate=0.0, momentum=0.0,
                         weight_decay=0)
    assert config.check() is config
    _, history = train_loop(small_mlp(), separable_toy_set(n=4), None, config)
    assert len(history) == 1


@pytest.mark.parametrize("labels", [[2, 0, 3, 1], [0, 1, -1, 1], [0, 0.5, 1, 1]])
def test_sigmoid_head_rejects_labels_outside_zero_one(labels):
    data = [(x, label) for (x, _), label in zip(separable_toy_set(n=4), labels)]
    bad = "|".join(str(label) for label in labels if label not in (0, 1))
    with pytest.raises(TrainingError, match=f"label ({bad}) outside sigmoid labels"):
        train_loop(small_mlp(), data, None, TrainConfig(epochs=1, batch_size=4))
    with pytest.raises(TrainingError, match=f"label ({bad}) outside sigmoid labels"):
        evaluate(small_mlp(), data)
