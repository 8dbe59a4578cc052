"""gradient*input, epsilon-LRP, and their convergence to each other."""

import functools

import numpy as np
import pytest
from numpy.testing import assert_allclose

import deltalift.baselines as baselines
import deltalift.engine as engine
from deltalift.autodiff import _target_sweep, aligned, vjp_node
from deltalift.baselines import (
    EnsembleSpec,
    equivalence_report,
    gradient_times_input,
    lrp_as_contribution_report,
    lrp_epsilon,
    random_relu_mlp,
)
from deltalift.engine import AttributionError, _lrp_rules, attribute
from deltalift.genomics import build_genomics_cnn
from deltalift.graph import DenseOnRead, GraphBuilder, forward

from graphgen import random_graph_case


class TestGradientTimesInput:
    def test_linear_model_is_weight_times_input(self, rng):
        w = rng.normal(size=(1, 5))
        b = GraphBuilder()
        x = b.input("x", (5,))
        b.affine("y", x, w, rng.normal(size=1))
        g = b.build(outputs=["y"])
        v = rng.normal(size=5)
        report = gradient_times_input(g, {"x": v}, target=("y", 0))
        assert_allclose(report.contributions["x"], w[0] * v)

    def test_shutoff_relu_gives_all_zero_scores(self):
        b = GraphBuilder()
        x = b.input("x", (2,))
        pre = b.affine("pre", x, [[1.0, 2.0]], [2.0])
        y = b.relu("y", pre)
        b.affine("out", y, [[0.2]], [0.1])
        g = b.build(outputs=["out"])
        report = gradient_times_input(g, {"x": np.array([-1.0, -1.0])},
                                      target=("out", 0))
        assert_allclose(report.contributions["x"], [0.0, 0.0])

    def test_one_hot_input_picks_present_letter_gradient(self, rng):
        # on one-hot rows the score equals the gradient at the active entry
        b = GraphBuilder()
        x = b.input("x", (3, 2))
        b.affine("y", x, rng.normal(size=(1, 6)), np.zeros(1))
        g = b.build(outputs=["y"])
        v = np.zeros((3, 2))
        hot = [(0, 1), (1, 0), (2, 1)]
        for r, c in hot:
            v[r, c] = 1.0
        report = gradient_times_input(g, {"x": v}, target=("y", 0))
        scores = report.contributions["x"]
        grads = report.multipliers["x"]
        for r in range(3):
            for c in range(2):
                expected = grads[r, c] if (r, c) in hot else 0.0
                assert scores[r, c] == expected


class TestLrp:
    def test_single_affine_layer_denominator_cancels(self, rng):
        w = rng.normal(size=(3, 4))
        bias = rng.normal(size=3)
        b = GraphBuilder()
        x = b.input("x", (4,))
        b.affine("y", x, w, bias)
        g = b.build(outputs=["y"])
        v = rng.normal(size=4)
        rel = lrp_epsilon(g, {"x": v}, target=("y", 1), epsilon=0.0)
        # seeding with the unit's own activation makes R_i = x_i * w_i
        assert_allclose(rel["x"], v * w[1], atol=1e-12)

    def test_two_stacked_affine_layers_compose(self, rng):
        w1 = rng.normal(size=(4, 3))
        w2 = rng.normal(size=(1, 4))
        b = GraphBuilder()
        x = b.input("x", (3,))
        h = b.affine("h", x, w1, rng.normal(size=4))
        b.affine("o", h, w2, rng.normal(size=1))
        g = b.build(outputs=["o"])
        v = rng.normal(size=3)
        rel = lrp_epsilon(g, {"x": v}, target=("o", 0), epsilon=0.0)
        assert_allclose(rel["x"], v * (w2 @ w1)[0], atol=1e-10)

    def test_inactive_relu_unit_gets_zero_relevance(self):
        b = GraphBuilder()
        x = b.input("x", (2,))
        h = b.affine("h", x, [[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0])
        r = b.relu("r", h)
        b.affine("o", r, [[1.0, 1.0]], [0.5])
        g = b.build(outputs=["o"])
        rel = lrp_epsilon(g, {"x": np.array([2.0, -3.0])}, target=("o", 0),
                          epsilon=1e-9)
        assert rel["r"][1] == 0.0
        assert rel["x"][1] == 0.0

    def test_target_relevance_seeded_with_activation(self, rng):
        g, inputs = random_relu_mlp(np.random.default_rng(5))
        rel = lrp_epsilon(g, inputs, target=("head", 0))
        out = forward(g, inputs)["head"][0]
        assert rel["head"][0] == out

    def test_conservation_with_bias_share_telescopes(self):
        # input relevance plus bias-absorbed relevance equals the seed
        rng = np.random.default_rng(17)
        for _ in range(20):
            g, inputs = random_relu_mlp(rng)
            rel = lrp_epsilon(g, inputs, target=("head", 0), epsilon=0.0)
            seed = forward(g, inputs)["head"][0]
            total = rel["x"].sum() + sum(rel.bias_relevance.values())
            assert abs(total - seed) <= 1e-9 * max(1.0, abs(seed))

    def test_bias_free_net_conserves_input_sum_exactly(self, rng):
        w1 = rng.normal(size=(4, 3))
        w2 = rng.normal(size=(1, 4))
        b = GraphBuilder()
        x = b.input("x", (3,))
        h = b.relu("r", b.affine("h", x, w1, np.zeros(4)))
        b.affine("o", h, w2, np.zeros(1))
        g = b.build(outputs=["o"])
        v = rng.normal(size=3)
        rel = lrp_epsilon(g, {"x": v}, target=("o", 0), epsilon=0.0)
        seed = forward(g, {"x": v})["o"][0]
        assert_allclose(rel["x"].sum(), seed, atol=1e-10)
        assert_allclose(sum(rel.bias_relevance.values()), 0.0, atol=1e-12)

    @pytest.mark.parametrize("batch", [None, 4])
    def test_runs_and_telescopes_on_the_paper_cnn(self, batch):
        cnn = build_genomics_cnn(seed=5)
        assert "prelu" in {node.kind for node in cnn.nodes.values()}
        rng = np.random.default_rng(8)
        seqs = np.eye(4)[rng.integers(0, 4, size=(batch or 1, 200))]
        inputs = {"seq": seqs if batch else seqs[0]}
        for epsilon in (1e-9, 1e-2, 1.0):
            rel = lrp_epsilon(cnn, inputs, epsilon=epsilon)
            assert rel.target[0] == "logit"  # the pre-sigmoid node
            terms = [rel["seq"].reshape(batch or 1, -1).sum(axis=1)]
            terms += [np.reshape(v, -1) for v in rel.bias_relevance.values()]
            scale = np.abs(rel.target_activation) + sum(np.abs(t) for t in terms)
            assert np.all(np.abs(sum(terms) - rel.target_activation) <= 1e-12 * scale)

    def test_unsupported_interior_kind_rejected(self, rng):
        b = GraphBuilder()
        x = b.input("x", (2,))
        s = b.sigmoid("s", x)
        b.affine("o", s, rng.normal(size=(1, 2)), np.zeros(1))
        g = b.build(outputs=["o"])
        with pytest.raises(AttributionError, match="sigmoid"):
            lrp_epsilon(g, {"x": np.ones(2)}, target=("o", 0))

    def test_maxpool_relevance_winner_take_all(self, rng):
        b = GraphBuilder()
        x = b.input("x", (4,))
        p = b.maxpool1d("p", x, 2, 2)
        b.affine("o", p, [[1.0, 1.0]], [0.2])
        g = b.build(outputs=["o"])
        v = np.array([3.0, 1.0, 2.0, 5.0])
        rel = lrp_epsilon(g, {"x": v}, target=("o", 0), epsilon=1e-9)
        assert rel["x"][1] == 0.0 and rel["x"][2] == 0.0
        assert rel["x"][0] != 0.0 and rel["x"][3] != 0.0

    def test_report_rejects_another_graph_or_other_inputs(self):
        rng = np.random.default_rng(47)
        g, inputs = random_relu_mlp(rng)
        other, _ = random_relu_mlp(rng)
        rel = lrp_epsilon(g, inputs, target=("head", 0))
        report = lrp_as_contribution_report(g, inputs, rel)
        equal = lrp_as_contribution_report(g, {"x": inputs["x"].copy()}, rel)
        assert np.array_equal(equal.contributions["x"], report.contributions["x"])
        with pytest.raises(AttributionError, match="another graph"):
            lrp_as_contribution_report(other, inputs, rel)
        for changed in ({"x": inputs["x"] + 1.0}, {"x": inputs["x"][None]}, {}):
            with pytest.raises(AttributionError, match="input 'x' is not the input"):
                lrp_as_contribution_report(g, changed, rel)

    def test_report_accepts_the_graph_before_head_normalization(self, rng):
        b = GraphBuilder()
        h = b.relu("h", b.affine("fc", b.input("x", (4,)), rng.normal(size=(5, 4)),
                                 rng.normal(size=5)))
        b.softmax("head", b.affine("pre", h, rng.normal(size=(3, 5)), rng.normal(size=3)))
        g = b.build(outputs=["head"])
        inputs = {"x": rng.normal(size=4)}
        rel = lrp_epsilon(g, inputs, target=("pre", 1))
        assert rel.trace.graph is not g  # traced on the mean-normalized head
        report = lrp_as_contribution_report(g, inputs, rel)
        assert np.array_equal(report.contributions["x"], rel["x"])


def zero_preactivation_net():
    """x -> h = [[1, -1], [1, 1]] x -> relu -> o = [1, 1] r, bias-free:
    on x = [1, 1], h's first unit is exactly 0."""
    b = GraphBuilder()
    h = b.affine("h", b.input("x", (2,)), [[1.0, -1.0], [1.0, 1.0]], np.zeros(2))
    b.affine("o", b.relu("r", h), [[1.0, 1.0]], np.zeros(1))
    return b.build(outputs=["o"])


class TestZeroEpsilon:
    """At epsilon 0 a filtering unit with a zero pre-activation holds no
    relevance and passes none on (once 0/0: nan scores)."""

    @pytest.mark.parametrize("batch", [None, 3])
    def test_a_zero_preactivation_passes_no_relevance(self, batch):
        g = zero_preactivation_net()
        # h = [0, 2], [0, 4] and [2, 4]: bias-free, so scores are grad * x
        xs = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 1.0]])
        want = np.array([[1.0, 1.0], [2.0, 2.0], [6.0, 0.0]])
        want_h = np.array([[0.0, 2.0], [0.0, 4.0], [2.0, 4.0]])
        if batch is None:
            xs, want, want_h = xs[0], want[0], want_h[0]
        report = attribute(g, {"x": xs}, "lrp", target=("o", 0), lrp_epsilon=0.0)
        assert np.array_equal(report.contributions["x"], want)
        assert np.array_equal(report.residual, np.zeros_like(report.residual))
        rel = lrp_epsilon(g, {"x": xs}, target=("o", 0), epsilon=0.0)
        assert np.array_equal(rel["x"], want)
        assert np.array_equal(rel["h"], want_h)
        for nid in ("h", "o"):
            absorbed = rel.bias_relevance[nid]
            assert np.array_equal(absorbed, np.zeros_like(absorbed)), nid
        from_trace = lrp_as_contribution_report(g, {"x": xs}, rel)
        assert np.array_equal(from_trace.contributions["x"], want)


def eager_lrp_rules(epsilon, bias_rel):
    """epsilon-LRP's table with a filtering rule that sums each node's
    bias share as it sweeps, into the plain dict ``bias_rel``."""

    def filtering(node, m_out, trace, mult, _):
        m, at, like = aligned(m_out)
        a = at(trace[node.id])
        r = m * a
        if not r.any():
            return
        stabilizer = np.where(a >= 0, epsilon, -epsilon)
        share = r / (a + stabilizer)
        vjp_node(node, like(share), trace, mult)
        absorbed = (at(node.params["bias"]) + stabilizer) * share
        bias_rel[node.id] = (float(absorbed.sum()) if trace.batch is None
                             else absorbed.reshape(trace.batch, -1).sum(axis=1))

    return {**_lrp_rules(epsilon, DenseOnRead()), "affine": filtering, "conv1d": filtering}


class TestBiasShareOnRead:
    """``lrp_epsilon`` forms each bias share when it is first read; read
    after the sweep, it has the bits of the share summed during it."""

    @pytest.mark.parametrize("batch", [None, 5])
    @pytest.mark.parametrize("epsilon", [1e-9, 0.5])
    def test_read_after_the_sweep_equals_the_eager_sums(self, batch, epsilon):
        rng = np.random.default_rng(59)
        cnn = build_genomics_cnn(length=60, pool_width=10, pool_stride=10,
                                 dense_units=12, seed=4)
        graphs = [(cnn, "seq", None, np.eye(4)[rng.integers(0, 4, size=(batch or 1, 60))])]
        for _ in range(6):
            g, inputs = random_relu_mlp(rng)
            xs = rng.normal(size=(batch or 1,) + inputs["x"].shape)
            graphs.append((g, "x", ("head", 0), xs))
        for graph, input_id, target, xs in graphs:
            inputs = {input_id: xs if batch else xs[0]}
            rel = lrp_epsilon(graph, inputs, target=target, epsilon=epsilon)
            waiting = dict(dict.items(rel.bias_relevance))
            assert waiting and all(type(v) is functools.partial for v in waiting.values())
            eager = {}
            mult = _target_sweep(rel.trace, rel.target,
                                 eager_lrp_rules(epsilon, eager))
            assert list(rel.bias_relevance) == list(eager)
            for nid, share in eager.items():
                got = rel.bias_relevance[nid]
                assert type(got) is type(share), nid
                assert np.asarray(got).tobytes() == np.asarray(share).tobytes(), nid
                assert rel.bias_relevance[nid] is got  # formed once, then kept
            for nid in graph.nodes:
                assert mult[nid].tobytes() == rel.multipliers[nid].tobytes(), nid


@pytest.mark.parametrize("batch", [None, 5])
def test_attribute_lrp_reuses_one_table_per_epsilon_and_records_no_share(
        batch, monkeypatch):
    # a report reads no bias share, so attribute(..., "lrp") sweeps under
    # one kept table per epsilon that records none; its reports keep the
    # bits of lrp_epsilon's, which records them for RelevanceTrace
    rng = np.random.default_rng(63)
    built = []
    real = engine._lrp_rules

    def recording(epsilon, bias_rel):
        built.append((epsilon, bias_rel))
        return real(epsilon, bias_rel)

    monkeypatch.setattr(engine, "_lrp_rules", recording)
    engine._report_lrp_rules.cache_clear()
    cnn = build_genomics_cnn(length=60, pool_width=10, pool_stride=10,
                             dense_units=12, seed=4)
    cases = [(cnn, {"seq": np.eye(4)[rng.integers(0, 4, size=(batch or 1, 60))]}, None)]
    for _ in range(3):
        g, inputs = random_relu_mlp(rng)
        cases.append((g, {"x": rng.normal(size=(batch or 1,) + inputs["x"].shape)},
                      ("head", 0)))
    epsilons = [1e-9, 0.0, 0.5]
    for _ in range(2):
        for graph, inputs, target in cases:
            inputs = {k: v if batch else v[0] for k, v in inputs.items()}
            for epsilon in epsilons:
                got = attribute(graph, inputs, "lrp", target=target, lrp_epsilon=epsilon)
                rel = lrp_epsilon(graph, inputs, target=target, epsilon=epsilon)
                assert rel.bias_relevance
                want = lrp_as_contribution_report(graph, inputs, rel)
                for field in ("contributions", "multipliers", "deltas"):
                    for k, v in getattr(want, field).items():
                        assert getattr(got, field)[k].tobytes() == v.tobytes(), field
                assert np.asarray(got.residual).tobytes() == np.asarray(want.residual).tobytes()
    assert built == [(epsilon, None) for epsilon in epsilons]
    engine._report_lrp_rules.cache_clear()


class TestEquivalence:
    def test_bias_free_net_zero_input_both_methods_zero(self):
        b = GraphBuilder()
        x = b.input("x", (3,))
        h = b.relu("r", b.affine("h", x, np.ones((2, 3)), np.zeros(2)))
        b.affine("o", h, np.ones((1, 2)), np.zeros(1))
        g = b.build(outputs=["o"])
        v = {"x": np.zeros(3)}
        gi = gradient_times_input(g, v, target=("o", 0))
        assert_allclose(gi.contributions["x"], 0.0)
        rel = lrp_epsilon(g, v, target=("o", 0), epsilon=1e-9)
        assert_allclose(rel["x"], 0.0)

    def test_deviation_shrinks_with_epsilon(self):
        rows = equivalence_report(EnsembleSpec(n_nets=10, seed=2),
                                  [1e-2, 1e-9])
        by_net = {}
        for row in rows:
            by_net.setdefault(row.net_id, {})[row.epsilon] = row.max_rel_dev
        for net_id, devs in by_net.items():
            assert devs[1e-9] < devs[1e-2], net_id

    def test_small_ensemble_tight_at_tiny_epsilon(self):
        rows = equivalence_report(EnsembleSpec(n_nets=20, seed=4), [1e-9])
        assert max(r.max_rel_dev for r in rows) < 1e-4

    def test_resampling_respects_preactivation_floor(self, monkeypatch):
        # a floor high enough that some draws are resampled
        monkeypatch.setattr(baselines, "PREACTIVATION_FLOOR", 1e-3)
        rng = np.random.default_rng(9)
        for _ in range(10):
            g, inputs = random_relu_mlp(rng)
            tr = forward(g, inputs)
            for node in g.nodes.values():
                if node.kind == "affine":
                    assert np.min(np.abs(tr[node.id])) >= 1e-3


class TestForwardsPerCall:
    """After the first call on a graph, each method forwards only the
    sample: the zeros reference stays with the graph, and the LRP report
    reads the target activation from the relevance trace."""

    def _count_forwards(self, monkeypatch):
        import deltalift.baselines as baselines_module
        import deltalift.engine as engine_module

        calls = []
        for module in (baselines_module, engine_module):
            monkeypatch.setattr(
                module, "forward",
                lambda *a, _real=forward, **k: calls.append(1) or _real(*a, **k),
            )
        return calls

    def test_grad_input(self, monkeypatch):
        g, inputs = random_relu_mlp(np.random.default_rng(21))
        first = gradient_times_input(g, inputs, target=("head", 0))
        calls = self._count_forwards(monkeypatch)
        for _ in range(3):
            report = gradient_times_input(g, inputs, target=("head", 0))
        assert len(calls) == 3
        assert np.array_equal(report.contributions["x"], first.contributions["x"])
        assert report.delta_target == first.delta_target

    def test_lrp(self, monkeypatch):
        g, inputs = random_relu_mlp(np.random.default_rng(22))
        calls = self._count_forwards(monkeypatch)
        for _ in range(3):
            rel = lrp_epsilon(g, inputs, target=("head", 0))
            report = lrp_as_contribution_report(g, inputs, rel)
        assert len(calls) == 3
        assert report.delta_target == forward(g, inputs)["head"][0]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1e-9])
def test_lrp_rejects_an_invalid_epsilon(rng, value):
    g, inputs = random_relu_mlp(rng)
    with pytest.raises(ValueError, match="epsilon must be a finite number >= 0"):
        lrp_epsilon(g, inputs, target=("head", 0), epsilon=value)
