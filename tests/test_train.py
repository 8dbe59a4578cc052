"""Trainer behavior: convergence, determinism, abort diagnostics."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from deltalift.graph import GraphBuilder, forward
from deltalift.train import (
    TrainConfig,
    TrainingError,
    evaluate,
    train_loop,
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
    with pytest.raises(TrainingError, match="dropout"):
        TrainConfig.from_file(path)
