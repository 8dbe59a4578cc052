"""Dataset generation, encoding, metrics and the method comparison."""

import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from deltalift.baselines import gradient_times_input
from deltalift.engine import ATTRIBUTE_CHUNK, AttributionError, ContributionReport, deeplift
from deltalift.genomics import (
    Dataset,
    DatasetSpec,
    MotifSpan,
    SequenceExample,
    auroc,
    build_genomics_cnn,
    compare_methods,
    decode_one_hot,
    encode_batch,
    generate_dataset,
    motif_recovery_score,
    one_hot_encode,
    onehot_constraint_groups,
    per_position_scores,
    read_fasta,
    write_fasta,
    write_score_tracks,
)
from deltalift.graph import Graph, GraphBuilder, forward, n_parameters, validate_graph

from tsv_oracle import per_value_row


class TestGeneration:
    def test_consensus_motifs_when_no_substitution(self):
        data = generate_dataset(
            DatasetSpec(n_train=40, n_val=2, n_test=2, substitution_rate=0.0)
        )
        for ex in data.train:
            names = {s.name for s in ex.motif_spans}
            if ex.label == 1:
                assert names == {"GATA", "CAGATG"}
            else:
                assert len(names) == 1
            for span in ex.motif_spans:
                assert ex.sequence[span.start:span.end] == span.name

    def test_spans_within_bounds_and_disjoint(self):
        data = generate_dataset(DatasetSpec(n_train=100, n_val=2, n_test=2))
        for ex in data.train:
            spans = sorted(ex.motif_spans, key=lambda s: s.start)
            for span in spans:
                assert 0 <= span.start < span.end <= len(ex.sequence)
            for a, b in zip(spans, spans[1:]):
                assert a.end <= b.start

    def test_class_balance_exact(self):
        data = generate_dataset(DatasetSpec(n_train=50, n_val=10, n_test=10))
        labels = [ex.label for ex in data.train]
        assert sum(labels) == 25

    def test_odd_counts_rejected(self):
        with pytest.raises(ValueError, match=r"^n_train must be an even integer >= 0, got 3$"):
            generate_dataset(DatasetSpec(n_train=3, n_val=2, n_test=2))

    @pytest.mark.parametrize("field, value", [
        ("n_train", -4), ("n_val", -2), ("n_test", 5), ("n_test", 2.0), ("n_val", True),
        ("n_train", "4"), ("substitution_rate", 1.5), ("substitution_rate", -0.1),
        ("substitution_rate", float("nan")), ("substitution_rate", float("inf")),
        ("substitution_rate", True), ("substitution_rate", "0.1"),
    ])
    def test_bad_sizes_and_rates_are_refused_naming_the_field(self, field, value):
        spec = DatasetSpec(n_train=2, n_val=2, n_test=2)
        setattr(spec, field, value)
        with pytest.raises(ValueError, match=rf"^{field} must be "):
            generate_dataset(spec)

    @pytest.mark.parametrize("length", [-5, 0, True, 30.0, "30", None])
    def test_a_bad_length_is_refused_naming_the_field(self, length):
        spec = DatasetSpec(n_train=2, n_val=0, n_test=0, length=length)
        with pytest.raises(ValueError, match=rf"^length must be an integer >= 1, "
                                             rf"got {re.escape(repr(length))}$"):
            generate_dataset(spec)

    def test_lengths_too_short_for_a_motif_name_it(self):
        for length in (1, 5, np.int64(5)):
            with pytest.raises(ValueError, match=rf"^sequence length {length} cannot hold "
                                                 r"(GATA|CAGATG)$"):
                generate_dataset(DatasetSpec(n_train=2, n_val=0, n_test=0, length=length))
        data = generate_dataset(DatasetSpec(n_train=0, n_val=0, n_test=2,
                                            length=np.int64(24)))
        assert [len(ex.sequence) for ex in data.test] == [24, 24]

    def test_empty_splits_and_edge_rates_are_valid(self):
        for rate in (0, 1, 1.0, np.float64(0.5)):
            data = generate_dataset(DatasetSpec(n_train=0, n_val=np.int64(0), n_test=2,
                                                length=30, substitution_rate=rate))
            assert (len(data.train), len(data.val), len(data.test)) == (0, 0, 2)

    def test_background_composition_near_uniform(self):
        # over ~10^5 background bases each letter should sit near 25%;
        # bound is 4 sigma for a binomial proportion
        data = generate_dataset(DatasetSpec(n_train=600, n_val=2, n_test=2))
        counts = np.zeros(4)
        total = 0
        for ex in data.train:
            inside = np.zeros(len(ex.sequence), dtype=bool)
            for span in ex.motif_spans:
                inside[span.start:span.end] = True
            for pos, base in enumerate(ex.sequence):
                if not inside[pos]:
                    counts["ACGT".index(base)] += 1
                    total += 1
        assert total > 90000
        sigma = np.sqrt(0.25 * 0.75 / total)
        assert np.abs(counts / total - 0.25).max() < 4 * sigma

    def test_same_seed_identical_datasets(self):
        a = generate_dataset(DatasetSpec(n_train=20, n_val=10, n_test=10, seed=5))
        b = generate_dataset(DatasetSpec(n_train=20, n_val=10, n_test=10, seed=5))
        for split in ("train", "val", "test"):
            for ex_a, ex_b in zip(getattr(a, split), getattr(b, split)):
                assert ex_a == ex_b

    def test_splits_differ(self):
        data = generate_dataset(DatasetSpec(n_train=10, n_val=10, n_test=10))
        assert data.train[0].sequence != data.val[0].sequence


class TestEncoding:
    def test_acgt_identity_pattern(self):
        assert_allclose(one_hot_encode("ACGT"), np.eye(4))

    def test_rows_sum_to_one(self):
        arr = one_hot_encode("GATTACA")
        assert_allclose(arr.sum(axis=1), 1.0)

    def test_round_trip(self):
        seq = "CAGATGGATAACGT"
        assert decode_one_hot(one_hot_encode(seq)) == seq

    def test_invalid_character_rejected(self):
        with pytest.raises(ValueError, match="position 2"):
            one_hot_encode("ACNT")

    def test_batch_equals_stacked_single_encodings(self):
        data = generate_dataset(DatasetSpec(n_train=10, n_val=2, n_test=2, length=37))
        stacked = np.stack([one_hot_encode(ex.sequence) for ex in data.train])
        batch = encode_batch(data.train)
        assert batch.shape == (10, 37, 4)
        assert batch.tobytes() == stacked.tobytes()

    @pytest.mark.parametrize("bad, message", [
        ("ACNT", "invalid base 'N' at position 2"),
        ("ACG\u00e9", "invalid base '\u00e9' at position 3"),
    ])
    def test_batch_names_the_invalid_base(self, bad, message):
        examples = [SequenceExample(f"s{i}", seq, 0) for i, seq in
                    enumerate(["ACGT", bad, "TTNA"])]
        with pytest.raises(ValueError, match=message):
            encode_batch(examples)

    def test_batch_rejects_unequal_lengths(self):
        examples = [SequenceExample("a", "ACGT", 0), SequenceExample("b", "ACG", 0)]
        with pytest.raises(ValueError, match=r"sequences differ in length: \[3, 4\]"):
            encode_batch(examples)


class TestModel:
    def test_parameter_count_matches_hand_arithmetic(self):
        graph = build_genomics_cnn()
        conv = 20 * 15 * 4 + 20
        prelu0 = 20
        pool_len = (200 - 15 + 1 - 50) // 50 + 1
        fc1 = 200 * (pool_len * 20) + 200
        prelu1 = 200
        fc2 = 200 * 200 + 200
        prelu2 = 200
        head = 1 * 200 + 1
        assert n_parameters(graph) == conv + prelu0 + fc1 + prelu1 + fc2 + prelu2 + head

    def test_validates_and_declares_row_groups(self):
        graph = build_genomics_cnn()
        assert validate_graph(graph).ok
        assert len(graph.constraint_groups) == 200
        assert all(g.total == 1.0 for g in graph.constraint_groups)

    def test_forward_gives_probability(self, rng):
        graph = build_genomics_cnn(length=60, pool_width=10, pool_stride=10,
                                   dense_units=16, seed=1)
        seq = "".join(rng.choice(list("ACGT"), size=60))
        out = forward(graph, {"seq": one_hot_encode(seq)})["prob"]
        assert out.shape == (1,)
        assert 0.0 < out[0] < 1.0


class TestAuroc:
    def test_perfect_separation(self):
        assert auroc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_constant_scores_half(self):
        assert auroc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5

    def test_hand_case_matches_pair_counting(self):
        scores = [0.9, 0.8, 0.4, 0.1]
        labels = [1, 0, 1, 0]
        # oracle: fraction of (positive, negative) pairs ranked correctly
        wins = 0.0
        pairs = 0
        for s_p, l_p in zip(scores, labels):
            if l_p != 1:
                continue
            for s_n, l_n in zip(scores, labels):
                if l_n != 0:
                    continue
                pairs += 1
                wins += 1.0 if s_p > s_n else (0.5 if s_p == s_n else 0.0)
        assert wins / pairs == 0.75
        assert auroc(scores, labels) == 0.75

    def test_ties_match_pair_counting(self, rng):
        """On scores with many ties every auROC is the fraction of
        (positive, negative) pairs ranked correctly, a tie counting half,
        to the last bit."""
        for _ in range(50):
            n = int(rng.integers(2, 80))
            scores = rng.integers(0, int(rng.integers(1, 6)), size=n) * 0.1
            labels = rng.permutation(np.arange(n) % 2)
            pos, neg = scores[labels == 1], scores[labels == 0]
            wins = ((pos[:, None] > neg).sum() + 0.5 * (pos[:, None] == neg).sum())
            assert auroc(scores, labels) == wins / (len(pos) * len(neg))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_score_rejected_naming_it(self, bad):
        with pytest.raises(ValueError, match=f"auroc needs finite scores, got {bad!r}"):
            auroc([0.1, bad, 0.3], [1, 0, 1])

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            auroc([0.1, 0.2], [1, 1])

    @pytest.mark.parametrize("labels, first", [([0, 2, 1], "2"), ([1, -1, 3, 0], "-1"),
                                               ([0.0, 0.5, 1.0], "0.5")])
    def test_label_outside_0_1_rejected(self, labels, first):
        # label 2 read as neither class gave auroc 2.0 here
        with pytest.raises(ValueError, match=f"labels 0 or 1, got {first}$"):
            auroc([0.1, 0.2, 0.3, 0.4][:len(labels)], labels)


def report_from_contributions(contrib):
    return ContributionReport(
        target=("logit", 0), method="deeplift",
        contributions={"seq": contrib}, multipliers={"seq": contrib},
        deltas={"seq": np.ones_like(contrib)}, delta_target=0.0, residual=0.0,
    )


class TestMotifRecovery:
    def _example(self):
        seq = "A" * 20
        return SequenceExample("s", seq, 1, (MotifSpan(5, 9, "GATA"),))

    def test_all_mass_inside_spans(self):
        contrib = np.zeros((20, 4))
        contrib[5:9, 0] = 1.0
        assert motif_recovery_score(report_from_contributions(contrib),
                                    self._example()) == 1.0

    def test_uniform_scores_give_coverage_fraction(self):
        contrib = np.zeros((20, 4))
        contrib[:, 0] = 1.0  # the present base everywhere
        score = motif_recovery_score(report_from_contributions(contrib),
                                     self._example())
        assert_allclose(score, 4 / 20)

    def test_no_positive_mass_is_zero(self):
        contrib = np.full((20, 4), -1.0)
        assert motif_recovery_score(report_from_contributions(contrib),
                                    self._example()) == 0.0

    def test_restriction_to_motif_name(self):
        seq = "A" * 20
        ex = SequenceExample(
            "s", seq, 1,
            (MotifSpan(0, 4, "GATA"), MotifSpan(10, 16, "CAGATG")),
        )
        contrib = np.zeros((20, 4))
        contrib[0:4, 0] = 1.0
        contrib[10:16, 0] = 3.0
        report = report_from_contributions(contrib)
        assert_allclose(motif_recovery_score(report, ex, "GATA"), 4 / 22)
        assert_allclose(motif_recovery_score(report, ex, "CAGATG"), 18 / 22)


    def test_scores_of_present_bases(self):
        contrib = np.arange(16.0).reshape(4, 4)
        ex = SequenceExample("s", "TGCA", 1)
        scores = per_position_scores(report_from_contributions(contrib), ex)
        assert scores.tolist() == [3.0, 6.0, 9.0, 12.0]

    def test_invalid_base_in_scored_sequence_rejected(self):
        ex = SequenceExample("s", "ACNT", 1)
        with pytest.raises(ValueError, match="invalid base 'N' at position 2"):
            per_position_scores(report_from_contributions(np.zeros((4, 4))), ex)


class TestCompareMethods:
    def test_untrained_model_recovery_near_coverage(self):
        # null model: random weights know nothing about the spans, so both
        # methods should hover near the span coverage fraction
        data = generate_dataset(
            DatasetSpec(n_train=2, n_val=2, n_test=160, seed=3,
                        substitution_rate=0.0)
        )
        graph = build_genomics_cnn(seed=9)
        # shift the head bias so the random-weight model rates everything
        # positive; attributions stay untrained noise
        graph = graph.replace_params({"logit": {"bias": np.array([8.0])}})
        comparison = compare_methods(graph, data.test)
        assert comparison.n_correct_positives > 20
        coverages = []
        for ex in data.test:
            if ex.label != 1:
                continue
            covered = sum(s.end - s.start for s in ex.motif_spans)
            coverages.append(covered / len(ex.sequence))
        coverage = float(np.mean(coverages))
        for mean in (comparison.mean_deeplift, comparison.mean_grad_input):
            assert abs(mean - coverage) < 0.06


    def test_rows_keep_the_tracks_of_per_sample_calls(self):
        data = generate_dataset(DatasetSpec(n_train=2, n_val=2, n_test=24, seed=3))
        graph = build_genomics_cnn(seed=9)
        graph = graph.replace_params({"logit": {"bias": np.array([8.0])}})
        comparison = compare_methods(graph, data.test)
        assert comparison.n_correct_positives > ATTRIBUTE_CHUNK  # two chunks
        by_sid = {ex.sid: ex for ex in data.test}
        for row in comparison.rows:
            ex = by_sid[row.sid]
            x = {"seq": one_hot_encode(ex.sequence)}
            for track, report in ((row.deeplift_track, deeplift(graph, x)),
                                  (row.grad_input_track,
                                   gradient_times_input(graph, x))):
                expected = per_position_scores(report, ex)
                assert_allclose(track, expected, rtol=0,
                                atol=1e-12 * np.abs(expected).max())

    def test_each_scored_positive_is_forwarded_once(self, monkeypatch):
        import deltalift.baselines as baselines_module
        import deltalift.engine as engine_module
        import deltalift.genomics as genomics_module

        data = generate_dataset(DatasetSpec(n_train=2, n_val=2, n_test=24, seed=3))
        graph = build_genomics_cnn(seed=9)
        graph = graph.replace_params({"logit": {"bias": np.array([8.0])}})
        rows = []  # samples per forward pass
        for module in (baselines_module, engine_module, genomics_module):
            monkeypatch.setattr(
                module, "forward",
                lambda g, inputs, *a, _real=forward, **k: rows.append(
                    len(inputs["seq"]) if inputs["seq"].ndim == 3 else 1)
                or _real(g, inputs, *a, **k),
            )
        comparison = compare_methods(graph, data.test)
        n_positives = sum(ex.label == 1 for ex in data.test)
        assert comparison.n_correct_positives > ATTRIBUTE_CHUNK  # two chunks
        # the reference, every positive to select, each scored positive once
        assert sum(rows) == 1 + n_positives + comparison.n_correct_positives
        # both methods' sweeps share the chunk's trace, and their scores are
        # those of the batched calls over the same chunks, byte for byte
        for start in range(0, len(comparison.rows), ATTRIBUTE_CHUNK):
            chunk = comparison.rows[start:start + ATTRIBUTE_CHUNK]
            batch = {"seq": encode_batch([row.example for row in chunk])}
            reports = deeplift(graph, batch), gradient_times_input(graph, batch)
            for i, row in enumerate(chunk):
                for track, report in zip((row.deeplift_track, row.grad_input_track),
                                         reports):
                    expected = per_position_scores(report.sample(i), row.example)
                    assert track.tobytes() == expected.tobytes()

    def test_node_ids_come_from_the_graph(self):
        # conv -> relu -> pool -> affine -> sigmoid, no node named seq/prob
        rng = np.random.default_rng(5)
        b = GraphBuilder()
        x = b.input("dna", (60, 4))
        h = b.conv1d("scan", x, rng.normal(size=(3, 5, 4)) * 0.3, np.zeros(3))
        h = b.maxpool1d("best", b.relu("rect", h), 8, 8)
        score = b.affine("score", h, rng.normal(size=(1, 21)) * 0.3, np.array([1.0]))
        b.sigmoid("bound", score)
        graph = b.build(outputs=["bound"],
                        constraint_groups=onehot_constraint_groups(x, 60))
        data = generate_dataset(DatasetSpec(n_train=2, n_val=2, n_test=12,
                                            length=60, seed=4))
        positives = [
            ex for ex in data.test if ex.label == 1
            and forward(graph, {"dna": one_hot_encode(ex.sequence)})["bound"][0] > 0.5
        ]
        comparison = compare_methods(graph, data.test)
        assert comparison.n_correct_positives == len(positives) > 0
        for row, ex in zip(comparison.rows, positives):
            report = deeplift(graph, {"dna": one_hot_encode(ex.sequence)})
            assert row.sid == ex.sid
            assert row.deeplift_recovery == pytest.approx(
                motif_recovery_score(report, ex, input_id="dna"), abs=1e-12)

    def test_model_without_constraint_groups_is_scored_as_given(self):
        # with no groups declared there is nothing to normalize over: both
        # methods score the model itself, as attribute does
        grouped = build_genomics_cnn(length=60, pool_width=10, pool_stride=10,
                                     dense_units=12, seed=9)
        graph = Graph(grouped.replace_params({"logit": {"bias": np.array([8.0])}})
                      .nodes.values(), grouped.outputs)
        assert graph.constraint_groups == ()
        data = generate_dataset(DatasetSpec(n_train=2, n_val=2, n_test=12,
                                            length=60, seed=4))
        comparison = compare_methods(graph, data.test)
        assert comparison.n_correct_positives == sum(ex.label == 1 for ex in data.test) > 0
        for row in comparison.rows:
            x = {"seq": one_hot_encode(row.example.sequence)}
            for track, report in ((row.deeplift_track, deeplift(graph, x)),
                                  (row.grad_input_track, gradient_times_input(graph, x))):
                expected = per_position_scores(report, row.example)
                assert_allclose(track, expected, rtol=0, atol=1e-12 * np.abs(expected).max())

    @pytest.mark.parametrize("head, units", [("softmax", 2), ("sigmoid", 2)])
    def test_head_other_than_one_sigmoid_unit_rejected(self, head, units):
        # column 0 of a softmax head is P(class 0), not P(positive): every
        # sequence would be scored against the wrong class
        graph = one_hot_head_graph(head, units)
        data = generate_dataset(DatasetSpec(n_train=2, n_val=2, n_test=12,
                                            length=60, seed=4))
        with pytest.raises(AttributionError, match="one-unit sigmoid head"):
            compare_methods(graph, data.test)

    def test_a_graph_with_two_inputs_is_rejected(self):
        b = GraphBuilder()
        prod = b.product("p", b.input("x", (2,)), b.input("z", (2,)))
        b.sigmoid("prob", b.affine("logit", prod, [[1.0, -1.0]], [0.0]))
        graph = b.build(outputs=["prob"])
        data = generate_dataset(DatasetSpec(n_train=2, n_val=2, n_test=4,
                                            length=60, seed=4))
        with pytest.raises(AttributionError,
                           match=re.escape("method comparison needs one input, got ['x', 'z']")):
            compare_methods(graph, data.test)


def one_hot_head_graph(head, units, seed=5):
    """conv -> relu -> pool -> affine(units) -> ``head`` on (60, 4) one-hot
    sequences, with the one-hot constraint groups declared."""
    rng = np.random.default_rng(seed)
    b = GraphBuilder()
    x = b.input("seq", (60, 4))
    h = b.conv1d("conv", x, rng.normal(size=(3, 5, 4)) * 0.3, np.zeros(3))
    h = b.maxpool1d("pool", b.relu("act", h), 8, 8)
    logits = b.affine("logits", h, rng.normal(size=(units, 21)) * 0.3, np.zeros(units))
    getattr(b, head)("prob", logits)
    return b.build(outputs=["prob"], constraint_groups=onehot_constraint_groups(x, 60))


class TestSequenceFiles:
    def test_round_trip(self, tmp_path):
        data = generate_dataset(DatasetSpec(n_train=10, n_val=2, n_test=2))
        path = tmp_path / "train.fa"
        write_fasta(path, data.train)
        loaded = read_fasta(path)
        assert loaded == data.train

    def test_header_format(self, tmp_path):
        ex = SequenceExample("seq-1", "GATAAC", 1, (MotifSpan(0, 4, "GATA"),))
        path = tmp_path / "one.fa"
        write_fasta(path, [ex])
        text = path.read_text()
        assert text.splitlines()[0] == ">seq-1 label=1 spans=0-4:GATA"
        assert text.splitlines()[1] == "GATAAC"

    def test_score_tracks_match_per_value_formatting(self, tmp_path, rng):
        def per_value_writer(path, entries):
            # one row per position, one "%.10g" per numpy scalar
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("sample_id\tposition\tbase\tdeeplift\tgrad_input\n")
                for ex, dl, gi in entries:
                    for pos, base in enumerate(ex.sequence):
                        fh.write(per_value_row(ex.sid, pos, base, dl[pos], gi[pos]))

        special = np.array([0.0, -0.0, 5e-324, -5e-324, 1e16, -1e16, 1.0 / 3,
                            1e-300, 123456789012.5, np.inf, -np.inf, np.nan])
        entries = [
            (SequenceExample("plain", "ACGTACGTACGT", 1), special, special[::-1].copy()),
            (SequenceExample("100%-sure", "GATTACA", 1), rng.normal(size=7),
             rng.normal(size=7) * 1e-8),
            (SequenceExample("plain", "TTTT", 1), rng.normal(size=4), rng.normal(size=4)),
            (SequenceExample("empty", "", 1), np.zeros(0), np.zeros(0)),
        ]
        write_score_tracks(tmp_path / "new.tsv", entries)
        per_value_writer(tmp_path / "old.tsv", entries)
        assert (tmp_path / "new.tsv").read_bytes() == (tmp_path / "old.tsv").read_bytes()

    def test_sequence_before_header_rejected(self, tmp_path):
        path = tmp_path / "bad.fa"
        path.write_text("ACGT\n")
        with pytest.raises(ValueError, match="header"):
            read_fasta(path)

    @pytest.mark.parametrize("text, line, sid", [
        (">a\n>b\nACGT\n>c\n", 1, "a"),
        (">a label=1\nACGT\n>b\n", 3, "b"),
        (">a\nACGT\n\n>b\n\n", 4, "b"),
    ], ids=["before-next-header", "last-line", "blank-lines"])
    def test_header_without_sequence_rejected(self, tmp_path, text, line, sid):
        path = tmp_path / "orphan.fa"
        path.write_text(text)
        with pytest.raises(ValueError) as err:
            read_fasta(path)
        assert str(err.value) == f"{path}:{line}: header '{sid}' has no sequence line"

    @pytest.mark.parametrize("header, token", [
        (">a label=x", "label=x"),
        (">a label=1 spans=3:GATA", "spans=3:GATA"),
        (">a label=1 spans=0-4:GATA:x", "spans=0-4:GATA:x"),
        (">a label=1 spans=a-4:GATA", "spans=a-4:GATA"),
    ], ids=["label-not-int", "span-without-end", "span-two-names", "span-start-not-int"])
    def test_malformed_header_token_rejected(self, tmp_path, header, token):
        path = tmp_path / "bad.fa"
        path.write_text(f">ok label=0\nACGT\n{header}\nACGT\n")
        with pytest.raises(ValueError) as err:
            read_fasta(path)
        assert str(err.value) == f"{path}:3: malformed header token '{token}'"

    @pytest.mark.parametrize("spans", ["2-9:GATA", "0-4:GATA,3-3:GATA", "4-5:A"],
                             ids=["past-the-end", "empty", "start-at-the-end"])
    def test_span_outside_its_sequence_rejected(self, tmp_path, spans):
        path = tmp_path / "bad.fa"
        path.write_text(f">a label=1 spans={spans}\nACGT\n")
        with pytest.raises(ValueError) as err:
            read_fasta(path)
        assert str(err.value) == (f"{path}:1: header token 'spans={spans}' has a span "
                                  "outside the 4-base sequence")

    def test_spans_covering_the_whole_sequence_accepted(self, tmp_path):
        path = tmp_path / "edge.fa"
        path.write_text(">a label=1 spans=0-2:GA,2-4:TA\nGATA\n")
        assert read_fasta(path)[0].motif_spans == (MotifSpan(0, 2, "GA"), MotifSpan(2, 4, "TA"))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
@pytest.mark.parametrize("bias", [8.0, -50.0], ids=["positives", "no-positives"])
def test_compare_methods_rejects_an_invalid_eps_stable(value, bias):
    # DeepLIFT's stabilizer is the constant EPS_STABLE, with or without
    # positives to score
    data = generate_dataset(DatasetSpec(n_train=2, n_val=2, n_test=8, length=60, seed=3))
    graph = build_genomics_cnn(length=60, pool_width=10, pool_stride=10,
                               dense_units=12, seed=9)
    graph = graph.replace_params({"logit": {"bias": np.array([bias])}})
    with pytest.raises(TypeError, match="eps_stable"):
        compare_methods(graph, data.test, eps_stable=value)
