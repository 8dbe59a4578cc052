"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s`.

The genomics benchmark trains the full 4000-sequence CNN and takes a few
minutes; its tests are marked ``slow`` (``pytest -m "not slow"`` skips
them).  Everything else finishes in seconds.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from deltalift.autodiff import backward, finite_difference_check
from deltalift.baselines import EnsembleSpec, equivalence_report, gradient_times_input
from deltalift.engine import (
    compute_reference,
    deeplift,
    maxout_segments,
    propagate_multipliers,
)
from deltalift.genomics import (
    DatasetSpec,
    build_genomics_cnn,
    compare_methods,
    encode_dataset,
    generate_dataset,
    one_hot_encode,
)
from deltalift.graph import GraphBuilder, forward
from deltalift.normalize import (
    mean_normalize_softmax_weights,
    normalize_constrained_weights,
)
from deltalift.train import TrainConfig, evaluate, train_loop

from graphgen import random_graph_case

GENOMICS_SPEC = DatasetSpec(n_train=4000, n_val=500, n_test=500, seed=0)
GENOMICS_TRAIN = TrainConfig(seed=0, epochs=60, batch_size=32,
                             learning_rate=0.05, momentum=0.9,
                             weight_decay=5e-4)


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'} - {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_saturated_relu_fixture_contributions_and_zero_gradient():
    # out = 0.1 + 0.2*relu(x1 + 2*x2 + 2), reference (0,0), probe (-1,-1):
    # contributions split (out_delta)*(1/3, 2/3) while the gradient is 0
    b = GraphBuilder()
    x = b.input("x", (2,))
    pre = b.affine("pre", x, [[1.0, 2.0]], [2.0])
    y = b.relu("y", pre)
    b.affine("out", y, [[0.2]], [0.1])
    g = b.build(outputs=["out"])
    probe = {"x": np.array([-1.0, -1.0])}
    report = deeplift(g, probe, {"x": np.zeros(2)}, target=("out", 0))
    expected = np.array([(0.1 - 0.5) / 3.0, 2.0 * (0.1 - 0.5) / 3.0])
    c_ok = np.abs(report.contributions["x"] - expected).max() <= 1e-9
    grads = backward(forward(g, probe), ("out", 0))
    g_ok = grads["x"][0] == 0.0 and grads["x"][1] == 0.0
    _verdict(
        "saturated-relu fixture: contributions -0.1333/-0.2667, gradient 0",
        c_ok and g_ok,
        f"C={report.contributions['x']}, grad={grads['x']}",
    )


def test_threshold_relu_fixture_deeplift_half_grad_input_ten_and_a_half():
    # y = relu(x - 10) at x = 10.5 against the zeros reference (Shrikumar,
    # Greenside & Kundaje 2017): the output moved by 0.5, which DeepLIFT
    # assigns to x, while the gradient is 1 and gradient*input reads 10.5
    b = GraphBuilder()
    b.relu("y", b.affine("pre", b.input("x", (1,)), [[1.0]], [-10.0]))
    g = b.build(outputs=["y"])
    probe = {"x": np.array([10.5])}
    dl = deeplift(g, probe, {"x": np.zeros(1)}, target=("y", 0)).contributions["x"][0]
    gi = gradient_times_input(g, probe, target=("y", 0)).contributions["x"][0]
    _verdict(
        "threshold-relu fixture: DeepLIFT 0.5, gradient*input 10.5",
        abs(dl - 0.5) <= 1e-9 and abs(gi - 10.5) <= 1e-9,
        f"DeepLIFT={dl}, gradient*input={gi}",
    )


def test_summation_to_delta_across_random_graphs():
    rng = np.random.default_rng(123)
    kinds_seen = set()
    worst = 0.0
    for _ in range(220):
        case = random_graph_case(rng)
        kinds_seen |= case.kinds
        report = deeplift(case.graph, case.inputs, case.reference,
                          target=case.target)
        bound = max(1e-9, 1e-6 * abs(report.delta_target))
        worst = max(worst, report.residual / bound)
        if report.residual > bound:
            _verdict("summation-to-delta over 220 random graphs", False,
                     f"residual {report.residual} > {bound} on {case.kinds}")
    required = {"input", "affine", "conv1d", "maxpool1d", "relu", "prelu",
                "sigmoid", "tanh", "maxout", "product", "softmax"}
    _verdict(
        "summation-to-delta over 220 random graphs covering every node kind",
        required <= kinds_seen,
        f"worst residual ratio {worst:.3g}; kinds {sorted(kinds_seen)}",
    )


def test_redundant_features_sigmoid_head_numbers():
    b = GraphBuilder()
    x = b.input("x", (2,))
    s = b.affine("s", x, [[1.0, 1.0]], [0.0])
    b.sigmoid("t", s)
    g = b.build(outputs=["t"])

    r1 = deeplift(g, {"x": np.array([100.0, 0.0])}, target=("t", 0))
    r2 = deeplift(g, {"x": np.array([100.0, 100.0])}, target=("t", 0))
    r3 = deeplift(g, {"x": np.array([100.0, 0.0])})
    r4 = deeplift(g, {"x": np.array([100.0, 100.0])})
    checks = [
        abs(r1.contributions["x"][0] - 0.5) <= 1e-9,
        abs(r1.contributions["x"][1]) <= 1e-9,
        abs(r2.contributions["x"][0] - 0.25) <= 1e-9,
        abs(r2.contributions["x"][1] - 0.25) <= 1e-9,
        r3.target == ("s", 0) and abs(r3.contributions["x"][0] - 100.0) <= 1e-9,
        r4.target == ("s", 0) and abs(r4.contributions["x"][0] - 100.0) <= 1e-9,
    ]
    _verdict("redundant-features head: 0.5 / 0.25+0.25 / 100 via pre-activation",
             all(checks))


def test_normalization_passes_preserve_outputs_and_zero_uniform_features():
    rng = np.random.default_rng(5)
    # softmax head with one class-uniform feature
    w = rng.normal(size=(6, 5))
    w[:, 3] = 0.9
    b = GraphBuilder()
    x = b.input("x", (5,))
    pre = b.affine("pre", x, w, rng.normal(size=6))
    b.softmax("out", pre)
    head = b.build(outputs=["out"])
    normalized = mean_normalize_softmax_weights(head)
    worst = 0.0
    for _ in range(100):
        probe = rng.normal(size=5) * 3
        worst = max(worst, np.abs(
            forward(head, {"x": probe})["out"]
            - forward(normalized, {"x": probe})["out"]
        ).max())
    softmax_ok = worst < 1e-12

    trace = forward(normalized, {"x": rng.normal(size=5)})
    ref = compute_reference(normalized, {"x": np.zeros(5)})
    mult_ok = all(
        propagate_multipliers(trace, ref, ("pre", k))["x"][3] == 0.0
        for k in range(6)
    )

    # constrained one-hot rows through the genomics conv front end
    cnn = build_genomics_cnn(length=60, pool_width=10, pool_stride=10,
                             dense_units=16, seed=2)
    cnn_norm = normalize_constrained_weights(cnn)
    worst_cnn = 0.0
    for _ in range(100):
        seq = "".join(rng.choice(list("ACGT"), size=60))
        xin = one_hot_encode(seq)
        worst_cnn = max(worst_cnn, np.abs(
            forward(cnn, {"seq": xin})["prob"]
            - forward(cnn_norm, {"seq": xin})["prob"]
        ).max())
    constrained_ok = worst_cnn < 1e-12
    _verdict(
        "normalization passes: outputs preserved <1e-12, uniform feature zeroed",
        softmax_ok and mult_ok and constrained_ok,
        f"softmax drift {worst:.2e}, conv drift {worst_cnn:.2e}",
    )


def test_lrp_matches_gradient_times_input_as_epsilon_shrinks():
    rows = equivalence_report(EnsembleSpec(n_nets=100, seed=42),
                              [1e-2, 1e-5, 1e-9])
    tiny = [r.max_rel_dev for r in rows if r.epsilon == 1e-9]
    tight_ok = max(tiny) < 1e-4
    by_net: dict[int, list[float]] = {}
    for row in sorted(rows, key=lambda r: -r.epsilon):
        by_net.setdefault(row.net_id, []).append(row.max_rel_dev)
    monotone = sum(d[0] > d[1] > d[2] for d in by_net.values())
    monotone_ok = monotone >= 95
    _verdict(
        "epsilon-LRP equals gradient*input (max dev <1e-4 at 1e-9, monotone)",
        tight_ok and monotone_ok,
        f"worst dev {max(tiny):.3g}, monotone on {monotone}/100 nets",
    )


def test_maxout_against_dense_sampling_oracle():
    rng = np.random.default_rng(77)
    worst_residual = 0.0
    for _ in range(100):
        pieces = int(rng.integers(2, 7))
        in_dim = int(rng.integers(1, 6))
        w = rng.normal(size=(pieces, 1, in_dim))
        bias = rng.normal(size=(pieces, 1))
        b = GraphBuilder()
        x = b.input("x", (in_dim,))
        b.maxout("m", x, w, bias)
        g = b.build(outputs=["m"])
        node = g.nodes["m"]
        x0, x1 = rng.normal(size=in_dim), rng.normal(size=in_dim)

        share = maxout_segments(node, x0, x1)[0, 0]
        n_points = 10000
        ts = np.linspace(0.0, 1.0, n_points)
        path = x0[None, :] + ts[:, None] * (x1 - x0)[None, :]
        vals = path @ w[:, 0, :].T + bias[:, 0][None, :]
        top2 = np.sort(vals, axis=1)[:, -2:]
        clear = (top2[:, 1] - top2[:, 0]) > 1e-9
        sampled = np.bincount(vals[clear].argmax(axis=1), minlength=pieces) / n_points
        # each of at most pieces*(pieces-1)/2 crossings, each unclear point
        # and the grid's two ends move a sampled fraction by one point
        slack = (pieces * (pieces - 1) // 2 + 2 + int((~clear).sum())) / (n_points - 1)
        if abs(share.sum() - 1.0) > 1e-12 or np.abs(share - sampled).max() > slack:
            _verdict("maxout decomposition vs 10^4-point sampling oracle", False,
                     f"shares {share} against sampled fractions {sampled}")

        report = deeplift(g, {"x": x1}, {"x": x0}, target=("m", 0))
        worst_residual = max(worst_residual, report.residual)
    _verdict(
        "maxout decomposition vs 10^4-point sampling oracle on 100 nodes",
        worst_residual < 1e-9,
        f"worst residual {worst_residual:.2e}",
    )


def test_gradients_match_finite_differences_all_kinds():
    rng = np.random.default_rng(321)
    kinds_seen = set()
    worst = 0.0
    for _ in range(40):
        case = random_graph_case(rng)
        kinds_seen |= case.kinds
        report = finite_difference_check(case.graph, case.inputs, case.target,
                                         h=1e-5, tolerance=1e-6)
        worst = max(worst, report.max_rel_deviation)
        if not report.passed:
            _verdict("analytic gradients vs central differences", False,
                     f"deviation {report.max_rel_deviation:.2e} on {case.kinds}")
    required = {"affine", "conv1d", "maxpool1d", "relu", "prelu", "sigmoid",
                "tanh", "maxout", "product"}
    _verdict(
        "analytic gradients vs central differences (h=1e-5) on all layer kinds",
        required <= kinds_seen,
        f"worst deviation {worst:.2e}",
    )


@pytest.fixture(scope="module")
def trained_genomics():
    data = generate_dataset(GENOMICS_SPEC)
    graph = build_genomics_cnn(seed=GENOMICS_TRAIN.seed)
    graph, history = train_loop(graph, encode_dataset(data.train),
                                encode_dataset(data.val), GENOMICS_TRAIN)
    return data, graph, history


@pytest.mark.slow
def test_genomics_benchmark_auroc_gate(trained_genomics):
    data, graph, history = trained_genomics
    _, test_auroc = evaluate(graph, encode_dataset(data.test))
    _verdict(
        "genomics benchmark: test auROC >= 0.85 on the 4000/500/500 split",
        test_auroc >= 0.85,
        f"test auROC {test_auroc:.4f}, final val {history[-1].val_auroc:.4f}",
    )


@pytest.mark.slow
def test_genomics_benchmark_attribution_directional(trained_genomics):
    data, graph, _ = trained_genomics
    comparison = compare_methods(graph, data.test)
    mean_ok = comparison.mean_deeplift > comparison.mean_grad_input
    win_ok = comparison.win_rate >= 0.70
    gap_ok = comparison.gata_gap > comparison.cagatg_gap
    _verdict(
        "genomics attribution: reference scores beat grad*input, GATA gap larger",
        mean_ok and win_ok and gap_ok,
        f"means {comparison.mean_deeplift:.4f} vs "
        f"{comparison.mean_grad_input:.4f}, win {comparison.win_rate:.3f}, "
        f"gaps GATA {comparison.gata_gap:+.4f} / CAGATG "
        f"{comparison.cagatg_gap:+.4f} over {comparison.n_correct_positives} "
        "positives",
    )
