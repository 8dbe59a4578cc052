"""End-to-end runs of every subcommand through the console entry point."""

import argparse
import contextlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from numpy.testing import assert_allclose

from deltalift import cli
from deltalift.engine import ATTRIBUTE_CHUNK, METHODS, attribute
from deltalift.genomics import (
    build_genomics_cnn,
    encode_batch,
    one_hot_encode,
    onehot_constraint_groups,
    read_fasta,
    write_fasta,
)
from deltalift.graph import Graph, GraphBuilder, NodeSpec, forward
from deltalift.normalize import attribution_model
from deltalift.serialize import load_model, save_model

from tsv_oracle import attribute_tsv


ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")


def run_cli(*argv, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "deltalift", *argv],
        capture_output=True, text=True, cwd=cwd, env=env,
    )


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Tiny dataset plus a briefly trained model shared by the tests."""
    root = tmp_path_factory.mktemp("cli")
    data_dir = root / "data"
    gen = run_cli(
        "gen-data", "--out", str(data_dir), "--n-train", "24", "--n-val", "8",
        "--n-test", "8", "--length", "60", "--seed", "11", "--sub-rate", "0",
    )
    assert gen.returncode == 0, gen.stderr
    model_path = root / "model.json"
    graph = build_genomics_cnn(length=60, pool_width=10, pool_stride=10,
                               dense_units=12, seed=2)
    save_model(graph, model_path)
    trained_path = root / "trained.json"
    train = run_cli(
        "train", "--data", str(data_dir), "--out", str(trained_path),
        "--model", str(model_path), "--epochs", "2", "--batch-size", "8",
        "--seed", "1", "--quiet",
    )
    assert train.returncode == 0, train.stderr
    return {"root": root, "data": data_dir, "model": model_path,
            "trained": trained_path}


def save_plain_model(path, bias=0.0):
    """Save conv -> relu -> pool -> affine -> sigmoid on (60, 4) one-hot
    sequences, with no constraint groups declared; return ``path``."""
    rng = np.random.default_rng(5)
    b = GraphBuilder()
    x = b.input("seq", (60, 4))
    h = b.conv1d("conv", x, rng.normal(size=(3, 5, 4)) * 0.3, np.zeros(3))
    h = b.maxpool1d("pool", b.relu("act", h), 8, 8)
    logit = b.affine("logit", h, rng.normal(size=(1, 21)) * 0.3, np.array([bias]))
    b.sigmoid("prob", logit)
    save_model(b.build(outputs=["prob"]), path)
    return path


def shift_conv_length(payload):
    """The payload with its conv node declaring one output row too few."""
    conv = next(n for n in payload["nodes"] if n["kind"] == "conv1d")
    conv["output_shape"][0] -= 1
    return payload


class TestGenData:
    def test_same_seed_byte_identical(self, tmp_path):
        args = ["--n-train", "12", "--n-val", "4", "--n-test", "4",
                "--length", "50", "--seed", "7"]
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        assert run_cli("gen-data", "--out", str(a_dir), *args).returncode == 0
        assert run_cli("gen-data", "--out", str(b_dir), *args).returncode == 0
        for split in ("train.fa", "val.fa", "test.fa"):
            assert (a_dir / split).read_bytes() == (b_dir / split).read_bytes()

    @pytest.mark.parametrize("flags, detail", [
        (["--n-train", "-4"], "n_train must be an even integer >= 0, got -4"),
        (["--n-test", "3"], "n_test must be an even integer >= 0, got 3"),
        (["--sub-rate", "1.5"], "substitution_rate must be a finite number in [0, 1], got 1.5"),
        (["--sub-rate", "nan"], "substitution_rate must be a finite number in [0, 1], got nan"),
    ], ids=["negative-size", "odd-size", "rate-above-one", "nan-rate"])
    def test_bad_sizes_and_rates_write_nothing(self, tmp_path, flags, detail):
        res = run_cli("gen-data", "--out", str(tmp_path / "data"), "--n-train", "4",
                      "--n-val", "2", "--n-test", "2", "--length", "30", *flags)
        assert res.returncode == 4
        assert res.stderr.splitlines() == [f"error code=invalid-input detail={detail}"]
        assert sorted(p.name for p in tmp_path.iterdir()) == []

    @pytest.mark.parametrize("length", ["-5", "0"])
    def test_a_bad_length_writes_nothing(self, tmp_path, length):
        res = run_cli("gen-data", "--out", str(tmp_path / "data"), "--n-train", "2",
                      "--n-val", "0", "--n-test", "0", "--length", length)
        assert res.returncode == 4
        assert res.stderr.splitlines() == [
            f"error code=invalid-input detail=length must be an integer >= 1, got {length}"]
        assert sorted(p.name for p in tmp_path.iterdir()) == []

    def test_manifest_written(self, workspace):
        manifest = json.loads(
            (workspace["data"] / "dataset.manifest").read_text()
        )
        assert manifest["seed"] == 11
        assert manifest["n_train"] == 24
        assert "package_version" in manifest


class TestTrain:
    def test_loss_curve_emitted(self, workspace):
        lines = (
            workspace["root"] / "trained.json.losses.tsv"
        ).read_text().strip().splitlines()
        assert lines[0] == "epoch\ttrain_loss\tval_loss\tval_auroc"
        assert len(lines) == 3

    def test_weight_decay_flag_reaches_config_and_manifest(self, workspace, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"epochs": 1, "weight_decay": 0.0}')
        out = tmp_path / "decayed.json"
        res = run_cli(
            "train", "--data", str(workspace["data"]), "--out", str(out),
            "--model", str(workspace["model"]), "--config", str(cfg),
            "--weight-decay", "5e-4", "--quiet",
        )
        assert res.returncode == 0, res.stderr
        manifest = json.loads(out.with_name(out.name + ".manifest").read_text())
        assert manifest["weight_decay"] == 5e-4
        assert manifest["train_config"]["weight_decay"] == 5e-4
        assert manifest["train_config"]["epochs"] == 1

    def test_model_loads_and_runs(self, workspace):
        graph = load_model(workspace["trained"])
        examples = read_fasta(workspace["data"] / "test.fa")
        out = forward(graph, {"seq": one_hot_encode(examples[0].sequence)})
        assert 0.0 < out["prob"][0] < 1.0


class TestAttribute:
    @pytest.mark.parametrize("method", ["deeplift", "grad_input"])
    def test_scores_tsv(self, workspace, method, tmp_path):
        out = tmp_path / f"{method}.tsv"
        res = run_cli(
            "attribute", "--model", str(workspace["trained"]), "--data",
            str(workspace["data"] / "test.fa"), "--out", str(out),
            "--method", method,
        )
        assert res.returncode == 0, res.stderr
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("sample_id\tfeature_index")
        sample_headers = [l for l in lines if l.startswith("# sample=")]
        assert len(sample_headers) == 8
        assert all("residual=" in h and "target=" in h for h in sample_headers)
        manifest = json.loads(out.with_name(out.name + ".manifest").read_text())
        assert manifest["reference_normalized"] is True

    def test_deeplift_residuals_small(self, workspace, tmp_path):
        out = tmp_path / "scores.tsv"
        res = run_cli(
            "attribute", "--model", str(workspace["trained"]), "--data",
            str(workspace["data"] / "test.fa"), "--out", str(out),
            "--method", "deeplift",
        )
        assert res.returncode == 0, res.stderr
        for line in out.read_text().splitlines():
            if line.startswith("# sample="):
                residual = float(line.rsplit("residual=", 1)[1])
                assert residual < 1e-6

    def test_model_without_constraint_groups(self, workspace, tmp_path):
        # nothing to normalize over: the model is scored as given
        model = save_plain_model(tmp_path / "plain.json")
        out = tmp_path / "plain.tsv"
        res = run_cli(
            "attribute", "--model", str(model), "--data",
            str(workspace["data"] / "test.fa"), "--out", str(out),
        )
        assert res.returncode == 0, res.stderr
        lines = out.read_text().splitlines()
        assert sum(l.startswith("# sample=") for l in lines) == 8
        assert len(lines) == 1 + 8 + 8 * 60 * 4
        manifest = json.loads((tmp_path / "plain.tsv.manifest").read_text())
        # attribute takes no --reference: the manifest echoes no such option
        assert "reference" not in manifest
        assert manifest["reference_normalized"] is False

    def test_groupless_softmax_over_affine_reads_normalized(self, workspace, tmp_path):
        # no groups, but the softmax pass applies: the manifest reads the
        # decision attribution_model makes
        b = GraphBuilder()
        x = b.input("seq", (60, 4))
        b.softmax("out", b.affine("pre", x, np.eye(3, 240), np.zeros(3)))
        model, out = tmp_path / "m.json", tmp_path / "s.tsv"
        save_model(b.build(outputs=["out"]), model)
        res = run_cli("attribute", "--model", str(model), "--data",
                      str(workspace["data"] / "test.fa"), "--out", str(out))
        assert res.returncode == 0, res.stderr
        manifest = json.loads((tmp_path / "s.tsv.manifest").read_text())
        assert manifest["reference_normalized"] is True

    def test_output_independent_of_run_and_chunking(self, workspace, tmp_path):
        """Two runs write the same bytes, and where the file's sequences
        fall in attribution chunks changes no value beyond the printed
        precision (batched sums agree to 1e-12 relative, see
        test_batched; ten printed digits can still round apart)."""
        def attribute(data, name):
            path = tmp_path / name
            res = run_cli("attribute", "--model", str(workspace["trained"]),
                          "--data", str(data), "--out", str(path))
            assert res.returncode == 0, res.stderr
            return path.read_text()

        whole = workspace["data"] / "test.fa"
        examples = read_fasta(whole)
        assert len(examples) == 8
        first = attribute(whole, "a.tsv")
        assert attribute(whole, "b.tsv") == first

        halves = []
        for k in range(2):
            part = tmp_path / f"half{k}.fa"
            write_fasta(part, examples[4 * k:4 * k + 4])
            halves.append(attribute(part, f"half{k}.tsv").splitlines())
        split_rows = halves[0] + halves[1][1:]  # one header line
        rows = first.splitlines()
        assert len(rows) == len(split_rows) == 1 + 8 + 8 * 60 * 4
        assert rows[0] == split_rows[0]
        whole_values, split_values = [], []
        for row, split_row in zip(rows[1:], split_rows[1:]):
            if row.startswith("# sample="):
                keep, _, residual = row.rpartition(" residual=")
                split_keep, _, split_residual = split_row.rpartition(" residual=")
                assert keep == split_keep
                assert abs(float(residual) - float(split_residual)) < 1e-12
                continue
            fields, split_fields = row.split("\t"), split_row.split("\t")
            assert fields[:3] == split_fields[:3]
            whole_values.append([float(v) for v in fields[3:]])
            split_values.append([float(v) for v in split_fields[3:]])
        whole_values, split_values = np.array(whole_values), np.array(split_values)
        assert_allclose(split_values, whole_values, rtol=1e-9,
                        atol=1e-12 * np.abs(whole_values).max())

    @pytest.mark.parametrize("method", METHODS)
    def test_output_equals_a_per_value_writer(self, workspace, tmp_path, method):
        """In process: every cell is the one "%.10g" gives the value in
        ``attribute``'s report, scored in the command's chunks."""
        graph = load_model(workspace["trained"])
        if method == "lrp":  # LRP takes the same net with relu units
            graph = Graph([NodeSpec(n.id, "relu", n.inputs, n.output_shape)
                           if n.kind == "prelu" else n for n in graph.nodes.values()],
                          graph.outputs, graph.constraint_groups)
        model, out = tmp_path / "model.json", tmp_path / "scores.tsv"
        save_model(graph, model)
        examples = read_fasta(workspace["data"] / "train.fa")
        assert len(examples) > ATTRIBUTE_CHUNK
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["attribute", "--model", str(model), "--data",
                             str(workspace["data"] / "train.fa"), "--out", str(out),
                             "--method", method])
        assert code == 0
        loaded = load_model(model)
        reports = [attribute(loaded, {"seq": encode_batch(examples[k:k + ATTRIBUTE_CHUNK])},
                             method)
                   for k in range(0, len(examples), ATTRIBUTE_CHUNK)]
        text = out.read_text(encoding="utf-8")
        assert text == attribute_tsv(examples, reports, "seq")
        literal = sum(cell in ("0", "-0", "1") for line in text.splitlines()
                      if not line.startswith(("#", "sample_id"))
                      for cell in line.split("\t")[3:])
        assert literal > 0

    @pytest.mark.parametrize("method", METHODS)
    def test_library_explains_the_model_the_command_explains(self, workspace, tmp_path,
                                                              method):
        """``attribute`` on the loaded grouped model, normalized by nothing
        but the library, gives every cell the command writes."""
        graph = load_model(workspace["trained"])
        assert graph.constraint_groups
        if method == "lrp":  # LRP takes the same net with relu units
            graph = Graph([NodeSpec(n.id, "relu", n.inputs, n.output_shape)
                           if n.kind == "prelu" else n for n in graph.nodes.values()],
                          graph.outputs, graph.constraint_groups)
        model, out = tmp_path / "model.json", tmp_path / "scores.tsv"
        save_model(graph, model)
        data = workspace["data"] / "test.fa"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["attribute", "--model", str(model), "--data", str(data),
                             "--out", str(out), "--method", method])
        assert code == 0
        examples = read_fasta(data)
        assert len(examples) == ATTRIBUTE_CHUNK
        report = attribute(load_model(model), {"seq": encode_batch(examples)}, method)
        assert out.read_text(encoding="utf-8") == attribute_tsv(examples, [report], "seq")

    def test_reference_is_not_an_option(self, workspace, tmp_path):
        res = run_cli("attribute", "--model", str(workspace["trained"]), "--data",
                      str(workspace["data"] / "test.fa"), "--out",
                      str(tmp_path / "o.tsv"), "--reference", "zeros")
        assert res.returncode == 2
        assert res.stderr.splitlines()[-1] == (
            "deltalift: error: unrecognized arguments: --reference zeros")
        assert sorted(p.name for p in tmp_path.iterdir()) == []

    def test_multi_unit_sigmoid_head_needs_an_explicit_target(self, workspace, tmp_path):
        # a 3-unit sigmoid is no head: the automatic target is refused, an
        # explicit one is scored
        b = GraphBuilder()
        x = b.input("seq", (60, 4))
        b.sigmoid("out", b.affine("pre", x, np.full((3, 240), 0.01), np.zeros(3)))
        model = tmp_path / "m.json"
        save_model(b.build(outputs=["out"]), model)
        data = str(workspace["data"] / "test.fa")
        res = run_cli("attribute", "--model", str(model), "--data", data,
                      "--out", str(tmp_path / "o.tsv"))
        assert res.returncode == 5
        assert res.stderr.startswith("error code=runtime detail=automatic target "
                                     "selection needs one output that is a one-unit "
                                     "sigmoid or a softmax")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.json"]
        res = run_cli("attribute", "--model", str(model), "--data", data,
                      "--out", str(tmp_path / "o.tsv"), "--target", "pre:2")
        assert res.returncode == 0, res.stderr

    @pytest.mark.parametrize("target", ["logit:1.5", "logit:", "logit:0:1"])
    def test_non_integer_target_index_is_invalid_input(self, workspace, tmp_path, target):
        res = run_cli(
            "attribute", "--model", str(workspace["trained"]), "--data",
            str(workspace["data"] / "test.fa"), "--out", str(tmp_path / "o.tsv"),
            "--target", target,
        )
        assert res.returncode == 4
        assert res.stderr == (
            "error code=invalid-input detail=--target must be 'auto' or "
            f"node_id[:index] with an integer index, got '{target}'\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == []

    def test_missing_target_node_is_invalid_input(self, workspace, tmp_path):
        res = run_cli(
            "attribute", "--model", str(workspace["trained"]), "--data",
            str(workspace["data"] / "test.fa"), "--out", str(tmp_path / "o.tsv"),
            "--target", "nope:0",
        )
        assert res.returncode == 4
        assert res.stderr == (
            "error code=invalid-input detail=target node 'nope' does not exist\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags", [["--method", "lrp", "--lrp-epsilon", "nan"],
                                       ["--target", "nope:0"], ["--target", "logit:5"]],
                             ids=["nan-lrp-epsilon", "missing-target-node",
                                  "target-index-out-of-range"])
    def test_options_are_checked_on_an_empty_file(self, workspace, tmp_path, flags):
        """An empty FASTA is refused the options a non-empty one is, with
        the same message, before any output opens."""
        empty = tmp_path / "empty.fa"
        empty.write_text("")
        stderr = []
        for data in (workspace["data"] / "test.fa", empty):
            res = run_cli("attribute", "--model", str(workspace["trained"]), "--data",
                          str(data), "--out", str(tmp_path / "o.tsv"), *flags)
            assert res.returncode == 4
            stderr.append(res.stderr)
        assert stderr[0] == stderr[1]
        assert stderr[1].startswith("error code=invalid-input detail=")
        assert len(stderr[1].splitlines()) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["empty.fa"]

    def test_out_of_range_target_index_is_refused_before_any_output(self, workspace,
                                                                     tmp_path):
        res = run_cli(
            "attribute", "--model", str(workspace["trained"]), "--data",
            str(workspace["data"] / "test.fa"), "--out", str(tmp_path / "o.tsv"),
            "--target", "logit:5",
        )
        assert res.returncode == 4
        assert res.stderr == (
            "error code=invalid-input detail=target index 5 "
            "out of range for node 'logit' with 1 elements\n"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == []


class TestCompare:
    def test_comparison_table(self, workspace, tmp_path):
        out = tmp_path / "cmp.tsv"
        tracks = tmp_path / "tracks.tsv"
        res = run_cli(
            "compare", "--model", str(workspace["trained"]), "--data",
            str(workspace["data"] / "test.fa"), "--out", str(out),
            "--tracks-out", str(tracks),
        )
        assert res.returncode == 0, res.stderr
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# n_correct_positives=")
        assert lines[1].startswith("sample_id\t")
        track_lines = tracks.read_text().splitlines()
        assert track_lines[0] == "sample_id\tposition\tbase\tdeeplift\tgrad_input"

    def test_model_without_constraint_groups(self, workspace, tmp_path):
        # nothing to normalize over: the model is compared as given, as
        # attribute scores it; a logit bias makes every positive correct
        model = save_plain_model(tmp_path / "plain.json", bias=50.0)
        data = workspace["data"] / "test.fa"
        out = tmp_path / "cmp.tsv"
        res = run_cli("compare", "--model", str(model), "--data", str(data),
                      "--out", str(out))
        assert res.returncode == 0, res.stderr
        n_positives = sum(ex.label == 1 for ex in read_fasta(data))
        assert out.read_text().startswith(f"# n_correct_positives={n_positives} ")
        assert n_positives > 0 and (tmp_path / "cmp.tsv.manifest").exists()


    def test_tracks_of_repeated_ids_keep_their_own_bases(self, tmp_path, rng):
        # a logit bias that makes every sequence a predicted positive
        graph = build_genomics_cnn(length=60, pool_width=10, pool_stride=10,
                                   dense_units=12, seed=2)
        graph = graph.replace_params({"logit": {"bias": np.array([50.0])}})
        model = tmp_path / "model.json"
        save_model(graph, model)
        first, second = ("".join(rng.choice(list("ACGT"), size=60)) for _ in range(2))
        data = tmp_path / "dup.fa"
        data.write_text(f">same label=1\n{first}\n>same label=1\n{second}\n")
        tracks = tmp_path / "tracks.tsv"
        res = run_cli("compare", "--model", str(model), "--data", str(data),
                      "--out", str(tmp_path / "cmp.tsv"), "--tracks-out", str(tracks))
        assert res.returncode == 0, res.stderr
        rows = [line.split("\t") for line in tracks.read_text().splitlines()[1:]]
        assert len(rows) == 120
        assert {r[0] for r in rows} == {"same"}
        assert "".join(r[2] for r in rows[:60]) == first
        assert "".join(r[2] for r in rows[60:]) == second


class TestCheckLrp:
    def test_equivalence_tsv_and_decreasing_deviation(self, tmp_path):
        out = tmp_path / "lrp.tsv"
        res = run_cli(
            "check-lrp", "--out", str(out), "--n-nets", "6",
            "--epsilons", "1e-2,1e-5,1e-9", "--seed", "3",
        )
        assert res.returncode == 0, res.stderr
        rows = [l.split("\t") for l in out.read_text().strip().splitlines()[1:]]
        by_net = {}
        for net_id, eps, max_dev, _ in rows:
            by_net.setdefault(net_id, []).append((float(eps), float(max_dev)))
        for net_id, pairs in by_net.items():
            pairs.sort(reverse=True)
            devs = [d for _, d in pairs]
            assert devs[0] > devs[1] > devs[2], (net_id, devs)

    def test_no_nets_is_refused_before_any_work(self, tmp_path):
        res = run_cli("check-lrp", "--out", str(tmp_path / "l.tsv"), "--n-nets", "0")
        assert res.returncode == 4
        assert res.stderr.splitlines() == [
            "error code=invalid-input detail=--n-nets must be at least 1, got 0"]
        assert sorted(p.name for p in tmp_path.iterdir()) == []

    @pytest.mark.parametrize("epsilons, detail", [
        ("nan", "epsilon must be a finite number >= 0, got nan"),
        ("-1", "epsilon must be a finite number >= 0, got -1.0"),
        ("1e-3,1e-3", "--epsilons repeats a value: 1e-3,1e-3"),
        ("1e-3,0.001", "--epsilons repeats a value: 1e-3,0.001"),
    ], ids=["nan", "negative", "repeated", "repeated-value"])
    def test_epsilons_are_checked_before_any_net(self, tmp_path, monkeypatch, capsys,
                                                 epsilons, detail):
        import deltalift.baselines as baselines_module

        def no_net(*args):
            raise AssertionError("a net was built")

        monkeypatch.setattr(baselines_module, "random_relu_mlp", no_net)
        code = cli.main(["check-lrp", "--out", str(tmp_path / "l.tsv"), "--n-nets", "2",
                         f"--epsilons={epsilons}"])
        assert code == 4
        assert capsys.readouterr().err.splitlines() == [
            f"error code=invalid-input detail={detail}"]
        assert sorted(p.name for p in tmp_path.iterdir()) == []

    def test_failed_write_leaves_no_files(self, tmp_path):
        res = run_cli("check-lrp", "--out", str(tmp_path / "nodir" / "l.tsv"),
                      "--n-nets", "2")
        assert res.returncode == 3
        assert sorted(p.name for p in tmp_path.iterdir()) == []


class TestNormalize:
    def test_attribution_model_predictions_unchanged(self, workspace):
        before = load_model(workspace["trained"])
        after = attribution_model(before)
        assert after is not before
        examples = read_fasta(workspace["data"] / "test.fa")
        for ex in examples:
            x = one_hot_encode(ex.sequence)
            a = forward(before, {"seq": x})["prob"][0]
            b = forward(after, {"seq": x})["prob"][0]
            assert abs(a - b) < 1e-12

    @pytest.mark.parametrize("command", ["attribute", "compare"])
    def test_a_declared_group_that_cannot_be_applied_fails(self, workspace, tmp_path,
                                                           command):
        # the group's input feeds a relu, which has no weights to shift; the
        # softmax pass alone would apply to attribute's model, but the run
        # must not skip the group (compare needs a one-unit sigmoid head)
        b = GraphBuilder()
        x = b.input("x", (4,))
        units = 3 if command == "attribute" else 1
        pre = b.affine("pre", b.relu("r", x), np.eye(units, 4), np.zeros(units))
        getattr(b, "softmax" if command == "attribute" else "sigmoid")("out", pre)
        model = tmp_path / "m.json"
        save_model(b.build(outputs=["out"], constraint_groups=[("x", (0, 1, 2, 3), 1.0)]),
                   model)
        res = run_cli(command, "--model", str(model), "--data",
                      str(workspace["data"] / "test.fa"), "--out", str(tmp_path / "o.tsv"))
        assert res.returncode == 4
        assert res.stderr.splitlines() == [
            "error code=invalid-input detail=constraint group on 'x' reaches node 'r' "
            "(relu), which has no weights adjacent to the input"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.json"]

    def test_normalize_is_not_a_command(self, workspace, tmp_path):
        # attribute and compare normalize the model they load; no command
        # writes the normalized model
        res = run_cli("normalize", "--model", str(workspace["trained"]),
                      "--out", str(tmp_path / "n.json"))
        assert res.returncode == 2
        assert res.stderr.splitlines()[-1].startswith(
            "deltalift: error: argument command: invalid choice: 'normalize'")
        assert sorted(p.name for p in tmp_path.iterdir()) == []


class TestErrors:
    def test_missing_file_exit_code(self, tmp_path):
        res = run_cli(
            "attribute", "--model", str(tmp_path / "nope.json"), "--data",
            str(tmp_path / "nope.fa"), "--out", str(tmp_path / "o.tsv"),
        )
        assert res.returncode == 3
        assert res.stderr.startswith("error code=missing-file")

    def test_invalid_model_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        res = run_cli(
            "attribute", "--model", str(bad), "--data", str(bad),
            "--out", str(tmp_path / "o.tsv"),
        )
        assert res.returncode == 4
        assert res.stderr.startswith("error code=invalid-input")

    def test_malformed_weight_payload_exit_code(self, workspace, tmp_path):
        payload = json.loads(workspace["model"].read_text())
        conv = next(n for n in payload["nodes"] if n["kind"] == "conv1d")
        conv["params"]["filters"]["float64_le"] = "not*base64"
        bad = tmp_path / "bad_payload.json"
        bad.write_text(json.dumps(payload))
        res = run_cli(
            "attribute", "--model", str(bad), "--data",
            str(workspace["data"] / "test.fa"), "--out", str(tmp_path / "o.tsv"),
        )
        assert res.returncode == 4
        assert res.stderr.startswith("error code=invalid-input")
        assert f"node '{conv['id']}': param 'filters'" in res.stderr

    @pytest.mark.parametrize(
        "edit, detail",
        [
            (lambda payload: json.dumps(payload).replace('"total": 1.0', '"total": NaN', 1),
             "NaN is not a JSON number"),
            (lambda payload: json.dumps(shift_conv_length(payload)), "shape: node 'conv'"),
        ],
        ids=["nan-token", "conv-shape"],
    )
    def test_model_that_fails_validation_exit_code(self, workspace, tmp_path, edit,
                                                    detail):
        text = workspace["model"].read_text()
        bad = tmp_path / "invalid.json"
        bad.write_text(edit(json.loads(text)))
        res = run_cli(
            "attribute", "--model", str(bad), "--data",
            str(workspace["data"] / "test.fa"), "--out", str(tmp_path / "o.tsv"),
        )
        assert res.returncode == 4
        assert res.stderr.startswith("error code=invalid-input")
        assert detail in res.stderr

    @pytest.mark.parametrize("edit, field", [
        (lambda payload: {**payload, "nodes": 5}, "field 'nodes'"),
        (lambda payload: {**payload, "outputs": 5}, "field 'outputs'"),
    ], ids=["nodes-number", "outputs-number"])
    def test_model_of_wrong_json_structure_exit_code(self, workspace, tmp_path, edit,
                                                     field):
        bad = tmp_path / "wrong.json"
        bad.write_text(json.dumps(edit(json.loads(workspace["model"].read_text()))))
        res = run_cli(
            "attribute", "--model", str(bad), "--data",
            str(workspace["data"] / "test.fa"), "--out", str(tmp_path / "o.tsv"),
        )
        assert res.returncode == 4
        lines = res.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error code=invalid-input")
        assert field in lines[0]

    def test_model_without_sequence_input_exit_code(self, workspace, tmp_path):
        # the model's input is not a (length, 4) one-hot sequence
        b = GraphBuilder()
        b.sigmoid("prob", b.affine("logit", b.input("x", (6,)), np.ones((1, 6)), [0.0]))
        model = tmp_path / "flat.json"
        save_model(b.build(outputs=["prob"]), model)
        res = run_cli(
            "attribute", "--model", str(model), "--data",
            str(workspace["data"] / "test.fa"), "--out", str(tmp_path / "o.tsv"),
        )
        assert res.returncode == 4
        lines = res.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error code=invalid-input")

    def test_unknown_flag_exit_code(self):
        res = run_cli("gen-data", "--frobnicate")
        assert res.returncode == 2

    def test_fasta_header_without_sequence_exit_code(self, workspace, tmp_path):
        bad = tmp_path / "orphan.fa"
        bad.write_text(">a\n>b\nACGT\n>c\n")
        res = run_cli(
            "attribute", "--model", str(workspace["trained"]), "--data", str(bad),
            "--out", str(tmp_path / "o.tsv"),
        )
        assert res.returncode == 4
        lines = res.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0] == (f"error code=invalid-input detail={bad}:1: "
                            "header 'a' has no sequence line")
        assert not (tmp_path / "o.tsv").exists()

    @pytest.mark.parametrize("header, detail", [
        (">a label=x", "2: malformed header token 'label=x'"),
        (">a label=1 spans=3:GATA", "2: malformed header token 'spans=3:GATA'"),
        (">a label=1 spans=2-9:GATA",
         "2: header token 'spans=2-9:GATA' has a span outside the 4-base sequence"),
    ], ids=["label", "span-syntax", "span-range"])
    def test_malformed_fasta_header_exit_code(self, workspace, tmp_path, header, detail):
        bad = tmp_path / "bad.fa"
        bad.write_text(f"\n{header}\nACGT\n")
        res = run_cli(
            "compare", "--model", str(workspace["trained"]), "--data", str(bad),
            "--out", str(tmp_path / "o.tsv"),
        )
        assert res.returncode == 4
        assert res.stderr.splitlines() == [f"error code=invalid-input detail={bad}:{detail}"]
        assert not (tmp_path / "o.tsv").exists()

    def test_compare_on_a_softmax_head_exit_code(self, workspace, tmp_path):
        # a softmax head's column 0 is P(class 0), not P(positive)
        rng = np.random.default_rng(3)
        b = GraphBuilder()
        x = b.input("seq", (60, 4))
        h = b.maxpool1d("pool", b.relu("act", b.conv1d(
            "conv", x, rng.normal(size=(3, 5, 4)) * 0.3, np.zeros(3))), 8, 8)
        b.softmax("prob", b.affine("logits", h, rng.normal(size=(2, 21)) * 0.3, np.zeros(2)))
        model = tmp_path / "softmax.json"
        save_model(b.build(outputs=["prob"], constraint_groups=onehot_constraint_groups(x, 60)),
                   model)
        res = run_cli(
            "compare", "--model", str(model), "--data", str(workspace["data"] / "test.fa"),
            "--out", str(tmp_path / "cmp.tsv"),
        )
        assert res.returncode == 5
        lines = res.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error code=runtime detail=method comparison reads "
                                   "P(positive) from a one-unit sigmoid head")
        assert not (tmp_path / "cmp.tsv").exists()

    @pytest.mark.parametrize("flags, field", [
        (["--batch-size", "-4"], "batch_size"),
        (["--batch-size", "0"], "batch_size"),
        (["--epochs", "0"], "epochs"),
        (["--learning-rate", "nan"], "learning_rate"),
        (["--momentum", "-0.5"], "momentum"),
        (["--weight-decay", "inf"], "weight_decay"),
        (["--seed=-1"], "seed"),
    ], ids=["negative-batch", "zero-batch", "zero-epochs", "nan-rate", "negative-momentum",
            "infinite-decay", "negative-seed"])
    def test_out_of_range_training_config_exit_code(self, workspace, tmp_path, flags,
                                                    field):
        out = tmp_path / "m.json"
        res = run_cli(
            "train", "--data", str(workspace["data"]), "--out", str(out),
            "--model", str(workspace["model"]), "--quiet", *flags,
        )
        assert res.returncode == 4
        lines = res.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error code=invalid-input detail=training config: "
                                   f"{field} must be")
        assert not out.exists()

    def test_out_of_range_config_file_exit_code(self, workspace, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"seed": 1, "epochs": 0}')
        res = run_cli(
            "train", "--data", str(workspace["data"]), "--out",
            str(tmp_path / "m.json"), "--config", str(cfg), "--quiet",
        )
        assert res.returncode == 4
        assert res.stderr.startswith("error code=invalid-input detail=training config: "
                                     "epochs must be")

    @pytest.mark.parametrize("payload, detail", [
        ("5", "training config must be a JSON object, got int"),
        ('["seed"]', "training config must be a JSON object, got list"),
        ('{"dropout": 1}', "unknown training config fields: ['dropout']"),
        ('{"seed": "x"}', "training config: seed must be an integer >= 0, got 'x'"),
        ('{"seed": 1.5}', "training config: seed must be an integer >= 0, got 1.5"),
        ('{"seed": true}', "training config: seed must be an integer >= 0, got True"),
        ('{"seed": -1}', "training config: seed must be an integer >= 0, got -1"),
    ], ids=["number", "list", "unknown-field", "text-seed", "fractional-seed", "bool-seed",
            "negative-seed"])
    def test_malformed_config_file_is_one_error_line(self, workspace, tmp_path, payload,
                                                     detail):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(payload)
        res = run_cli(
            "train", "--data", str(workspace["data"]), "--out",
            str(tmp_path / "m.json"), "--config", str(cfg), "--quiet",
        )
        assert res.returncode == 4
        assert res.stderr.splitlines() == [f"error code=invalid-input detail={detail}"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize("flags, code, error", [
        # DeepLIFT's stabilizer is the constant EPS_STABLE: no command
        # takes --eps-stable, whatever its value or method
        (["attribute", "--eps-stable", "nan"], 2,
         "deltalift: error: unrecognized arguments: --eps-stable nan"),
        (["attribute", "--eps-stable=-1e-7"], 2,
         "deltalift: error: unrecognized arguments: --eps-stable=-1e-7"),
        (["attribute", "--method", "lrp", "--lrp-epsilon", "nan"], 4, "epsilon"),
        (["attribute", "--method", "lrp", "--lrp-epsilon=-1e-9"], 4, "epsilon"),
        (["compare", "--eps-stable", "inf"], 2,
         "deltalift: error: unrecognized arguments: --eps-stable inf"),
        (["attribute", "--method", "grad_input", "--eps-stable", "nan"], 2,
         "deltalift: error: unrecognized arguments: --eps-stable nan"),
        # every method checks the LRP epsilon, whichever one runs
        (["attribute", "--method", "deeplift", "--lrp-epsilon", "nan"], 4, "epsilon"),
    ], ids=["nan-eps-stable", "negative-eps-stable", "nan-lrp-epsilon",
            "negative-lrp-epsilon", "infinite-compare-eps-stable",
            "grad-input-nan-eps-stable", "deeplift-nan-lrp-epsilon"])
    def test_invalid_stabilizer_exit_code(self, workspace, tmp_path, flags, code, error):
        command, *rest = flags
        res = run_cli(
            command, "--model", str(workspace["trained"]), "--data",
            str(workspace["data"] / "test.fa"), "--out", str(tmp_path / "o.tsv"), *rest,
        )
        assert res.returncode == code
        lines = res.stderr.splitlines()
        if code == 2:  # argparse's usage error
            assert lines[-1] == error
        else:
            assert len(lines) == 1
            assert lines[0].startswith(f"error code=invalid-input detail={error} must be "
                                       "a finite number >= 0")
        assert sorted(p.name for p in tmp_path.iterdir()) == []

    def test_failed_attribute_leaves_no_output_and_no_manifest(self, workspace, tmp_path):
        out = tmp_path / "o.tsv"
        res = run_cli(
            "attribute", "--model", str(workspace["trained"]), "--data",
            str(workspace["data"] / "test.fa"), "--out", str(out), "--lrp-epsilon", "nan",
        )
        assert res.returncode == 4
        assert sorted(p.name for p in tmp_path.iterdir()) == []
        # a run that fails after its first chunk was written leaves the
        # files of an earlier run as they were
        out.write_text("earlier\n")
        examples = read_fasta(workspace["data"] / "train.fa")
        assert len(examples) > ATTRIBUTE_CHUNK
        short = tmp_path / "short.fa"
        with open(short, "w", encoding="utf-8") as fh:
            for i, ex in enumerate(examples):
                sequence = ex.sequence[:-1] if i == ATTRIBUTE_CHUNK else ex.sequence
                fh.write(f">{ex.sid} label={ex.label}\n{sequence}\n")
        res = run_cli(
            "attribute", "--model", str(workspace["trained"]), "--data", str(short),
            "--out", str(out),
        )
        assert res.returncode == 4
        assert res.stderr.startswith("error code=invalid-input detail=sequences differ in "
                                     "length")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["o.tsv", "short.fa"]
        assert out.read_text() == "earlier\n"

    def test_failed_compare_leaves_no_output_and_no_manifest(self, workspace, tmp_path):
        # the tracks file cannot be written: the table, written first,
        # must not be left behind either
        res = run_cli(
            "compare", "--model", str(workspace["trained"]), "--data",
            str(workspace["data"] / "test.fa"), "--out", str(tmp_path / "cmp.tsv"),
            "--tracks-out", str(tmp_path / "nodir" / "t.tsv"),
        )
        assert res.returncode == 3
        assert res.stderr.startswith("error code=missing-file detail=")
        assert sorted(p.name for p in tmp_path.iterdir()) == []

    def test_train_on_an_empty_file_exit_code(self, workspace, tmp_path):
        data = tmp_path / "data"
        data.mkdir()
        (data / "train.fa").write_text("")
        out = tmp_path / "m.json"
        res = run_cli(
            "train", "--data", str(data), "--out", str(out), "--quiet",
        )
        assert res.returncode == 4
        assert res.stderr.splitlines() == [
            f"error code=invalid-input detail={data / 'train.fa'}: no sequences to train on"]
        assert not out.exists()

    def test_sigmoid_label_outside_zero_one_exit_code(self, workspace, tmp_path):
        data = tmp_path / "data"
        data.mkdir()
        examples = read_fasta(workspace["data"] / "train.fa")[:4]
        with open(data / "train.fa", "w", encoding="utf-8") as fh:
            for ex, label in zip(examples, [2, 0, 3, 1]):
                fh.write(f">{ex.sid} label={label}\n{ex.sequence}\n")
        out = tmp_path / "m.json"
        res = run_cli(
            "train", "--data", str(data), "--out", str(out),
            "--model", str(workspace["model"]), "--epochs", "1", "--quiet",
        )
        assert res.returncode == 5
        lines = res.stderr.splitlines()
        assert len(lines) == 1
        # the first out-of-range label of the first shuffled batch
        assert lines[0] in [f"error code=runtime detail=label {k} outside sigmoid labels "
                            "{0, 1}" for k in (2, 3)]
        assert not out.exists()

    def test_invalid_config_exit_code(self, workspace, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"seed": 1, "optimizer": "adam"}')
        res = run_cli(
            "train", "--data", str(workspace["data"]), "--out",
            str(tmp_path / "m.json"), "--config", str(cfg), "--quiet",
        )
        assert res.returncode == 4
        assert res.stderr == ("error code=invalid-input detail=unknown training config "
                              "fields: ['optimizer']\n")


class TestDocs:
    def test_the_docs_name_the_parser_s_subcommands(self):
        """The ``Subcommands:`` line of ``cli``'s docstring lists exactly the
        parser's subcommands, and README.md runs no ``deltalift <command>``
        the parser lacks."""
        commands = list(next(action for action in cli.build_parser()._actions
                             if isinstance(action, argparse._SubParsersAction)).choices)
        line = next(line for line in cli.__doc__.splitlines()
                    if line.startswith("Subcommands:"))
        assert line.removeprefix("Subcommands:").strip(" .").split(", ") == commands
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        named = set(re.findall(r"(?:^\s*|`)deltalift ([a-z][\w-]*)", readme, re.M))
        assert named and not named - set(commands), sorted(named - set(commands))
