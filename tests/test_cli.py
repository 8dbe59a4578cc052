"""End-to-end runs of every subcommand through the console entry point."""

import json
import subprocess
import sys

import numpy as np
import pytest

from deltalift.genomics import build_genomics_cnn, one_hot_encode, read_fasta
from deltalift.graph import GraphBuilder, forward
from deltalift.serialize import load_model, save_model


def run_cli(*argv, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "deltalift", *argv],
        capture_output=True, text=True, cwd=cwd,
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


class TestGenData:
    def test_same_seed_byte_identical(self, tmp_path):
        args = ["--n-train", "12", "--n-val", "4", "--n-test", "4",
                "--length", "50", "--seed", "7"]
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        assert run_cli("gen-data", "--out", str(a_dir), *args).returncode == 0
        assert run_cli("gen-data", "--out", str(b_dir), *args).returncode == 0
        for split in ("train.fa", "val.fa", "test.fa"):
            assert (a_dir / split).read_bytes() == (b_dir / split).read_bytes()

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
            "--method", "deeplift", "--threads", "2",
        )
        assert res.returncode == 0, res.stderr
        for line in out.read_text().splitlines():
            if line.startswith("# sample="):
                residual = float(line.rsplit("residual=", 1)[1])
                assert residual < 1e-6

    def test_model_without_constraint_groups(self, workspace, tmp_path):
        # conv -> relu -> pool -> affine -> sigmoid, no constraint groups:
        # the default zeros-normalized reference has nothing to normalize
        rng = np.random.default_rng(5)
        b = GraphBuilder()
        x = b.input("seq", (60, 4))
        h = b.conv1d("conv", x, rng.normal(size=(3, 5, 4)) * 0.3, np.zeros(3))
        h = b.maxpool1d("pool", b.relu("act", h), 8, 8)
        logit = b.affine("logit", h, rng.normal(size=(1, 21)) * 0.3, np.zeros(1))
        b.sigmoid("prob", logit)
        model = tmp_path / "plain.json"
        save_model(b.build(outputs=["prob"]), model)
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
        assert manifest["reference"] == "zeros-normalized"
        assert manifest["reference_normalized"] is False

    def test_thread_count_does_not_change_output(self, workspace, tmp_path):
        outs = []
        for threads in ("1", "3"):
            path = tmp_path / f"t{threads}.tsv"
            res = run_cli(
                "attribute", "--model", str(workspace["trained"]), "--data",
                str(workspace["data"] / "test.fa"), "--out", str(path),
                "--threads", threads,
            )
            assert res.returncode == 0, res.stderr
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]


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


class TestNormalize:
    def test_normalize_then_predictions_unchanged(self, workspace, tmp_path):
        out = tmp_path / "normalized.json"
        res = run_cli(
            "normalize", "--model", str(workspace["trained"]),
            "--out", str(out),
        )
        assert res.returncode == 0, res.stderr
        before = load_model(workspace["trained"])
        after = load_model(out)
        examples = read_fasta(workspace["data"] / "test.fa")
        for ex in examples:
            x = one_hot_encode(ex.sequence)
            a = forward(before, {"seq": x})["prob"][0]
            b = forward(after, {"seq": x})["prob"][0]
            assert abs(a - b) < 1e-12


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

    def test_unknown_flag_exit_code(self):
        res = run_cli("gen-data", "--frobnicate")
        assert res.returncode == 2

    def test_invalid_config_exit_code(self, workspace, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"seed": 1, "optimizer": "adam"}')
        res = run_cli(
            "train", "--data", str(workspace["data"]), "--out",
            str(tmp_path / "m.json"), "--config", str(cfg), "--quiet",
        )
        assert res.returncode == 5
        assert res.stderr.startswith("error code=runtime")
