"""The four workloads.  Constructing one is its set-up; ``unit`` runs one
step of the closed loop and checks every result it times; ``finish``
makes the checks that need the whole run.

Public functions are called through their modules (``engine.deeplift``)
so that a traced run, which swaps module attributes, sees these calls.
"""

from __future__ import annotations

import contextlib
import io
import math
from pathlib import Path

import numpy as np

from deltalift import baselines, cli, engine, genomics, serialize, train
from deltalift.graph import Graph, NodeSpec, forward
from deltalift.normalize import normalize_constrained_weights

import zoo

SEQ_LENGTH = 200
LRP_EPSILON = 1e-9
# ε-LRP divides by a + ε·sign(a) at each affine/conv unit where grad*input
# divides by nothing, so the two differ by about ε/|a| at the unit with the
# smallest |a|.  The check allows round-off plus LRP_EPS_SLACK times that.
LRP_ROUNDOFF = 1e-6
LRP_EPS_SLACK = 100.0


def conserves(report) -> bool:
    """The acceptance suite's summation-to-delta bound."""
    return report.residual <= max(1e-9, 1e-6 * abs(report.delta_target))


def finite_scores(report) -> bool:
    return all(np.all(np.isfinite(c)) for c in report.contributions.values())


def lrp_agrees(graph, inputs, lrp_report, gi_report) -> bool:
    """ε-LRP matches grad*input up to round-off and the ε-effect."""
    trace = forward(graph, inputs)
    smallest = min(np.min(np.abs(trace[n.id])) for n in graph.nodes.values()
                   if n.kind in ("affine", "conv1d"))
    worst = max(np.max(np.abs(lrp_report.contributions[k] - gi_report.contributions[k]))
                for k in gi_report.contributions)
    scale = max(np.max(np.abs(c)) for c in gi_report.contributions.values())
    allowed = LRP_ROUNDOFF + LRP_EPS_SLACK * LRP_EPSILON / max(smallest, LRP_EPSILON)
    return worst <= allowed * scale


def lrp(graph, inputs, target=None):
    """One epsilon-LRP attribution as a caller makes it: relevances, then the report."""
    trace = baselines.lrp_epsilon(graph, inputs, target=target, epsilon=LRP_EPSILON)
    return baselines.lrp_as_contribution_report(graph, inputs, trace)


def relu_twin(graph: Graph) -> Graph:
    """The same graph with every PReLU replaced by a ReLU.

    LRP supports only ReLU nonlinearities and raises on the paper CNN's
    PReLUs; the twin keeps every shape and weight so its cost matches.
    """
    nodes = [NodeSpec(n.id, "relu", n.inputs, n.output_shape) if n.kind == "prelu" else n
             for n in graph.nodes.values()]
    twin = Graph(nodes, graph.outputs, graph.constraint_groups)
    twin.require_valid()
    return twin


def calibrated_cnn(seed: int, xs) -> Graph:
    """The seeded paper CNN, its logit bias set so half of ``xs`` score
    above 0.5; ``compare_methods`` then has positives to score."""
    cnn = genomics.build_genomics_cnn(length=SEQ_LENGTH, seed=seed)
    logits = [forward(cnn, {"seq": x})["logit"][0] for x in xs]
    return cnn.replace_params({"logit": {"bias": np.array([-np.median(logits)])}})


def count_selected(graph: Graph, examples) -> int:
    """Positives ``compare_methods`` will score: predicted above 0.5."""
    return sum(
        1 for ex in examples
        if ex.label == 1
        and forward(graph, {"seq": genomics.one_hot_encode(ex.sequence)})["prob"][0] > 0.5
    )


def dataset(seed: int, n_train=0, n_val=0, n_test=0):
    return genomics.generate_dataset(genomics.DatasetSpec(
        n_train=n_train, n_val=n_val, n_test=n_test, length=SEQ_LENGTH, seed=seed))


class Train:
    """``train_loop`` on the paper CNN with the acceptance config; one unit
    is one epoch over the training split plus the validation pass.  The
    splits keep the acceptance suite's 8:1 train:val ratio (4000:500), so
    ``evaluate`` takes about its real share of an epoch."""

    trace_units = 8

    def __init__(self, seed, workdir: Path, tiny: bool, rec):
        data = dataset(seed, n_train=32 if tiny else 128, n_val=4 if tiny else 16)
        self.train_set = genomics.encode_dataset(data.train)
        self.val_set = genomics.encode_dataset(data.val)
        self.graph = genomics.build_genomics_cnn(length=SEQ_LENGTH, seed=seed)
        self.seed = seed
        self.losses: list[float] = []
        warm = self.config(-1)
        train.train_step(self.graph, self.train_set[:warm.batch_size], warm, None)

    def config(self, epoch: int) -> train.TrainConfig:
        return train.TrainConfig(seed=self.seed * 100_003 + epoch + 1, epochs=1, batch_size=32,
                                 learning_rate=0.05, momentum=0.9, weight_decay=5e-4)

    def unit(self, i, rec):
        out = rec.call("train", len(self.train_set), train.train_loop, self.graph,
                       self.train_set, self.val_set, self.config(i))
        if out is None:
            return
        graph, history = out
        stats = history[-1]
        rec.check(all(math.isfinite(v) for v in (stats.train_loss, stats.val_loss, stats.val_auroc)),
                  f"epoch {i}: non-finite loss {stats}")
        self.graph = graph
        self.losses.append(stats.train_loss)

    def finish(self, rec):
        if len(self.losses) >= 2:
            rec.check(self.losses[-1] < self.losses[0],
                      f"training loss rose: first {self.losses[0]}, last {self.losses[-1]}")


class Attribute:
    """One call per test sequence to each method on the paper CNN (LRP on
    its ReLU twin), and ``compare_methods`` after each pass."""

    def __init__(self, seed, workdir: Path, tiny: bool, rec):
        self.examples = dataset(seed, n_test=8 if tiny else 64).test
        self.xs = [x for x, _ in genomics.encode_dataset(self.examples)]
        self.cnn = calibrated_cnn(seed, self.xs)
        self.paper = normalize_constrained_weights(self.cnn)
        self.twin = normalize_constrained_weights(relu_twin(self.cnn))
        self.reference = engine.compute_reference(self.paper, engine.zeros_reference(self.paper))
        self.selected = count_selected(self.paper, self.examples)
        self._expected: dict[int, tuple] = {}
        x = {"seq": self.xs[0]}
        engine.deeplift(self.paper, x, reference=self.reference)
        baselines.gradient_times_input(self.paper, x)
        lrp(self.twin, x)

    @property
    def trace_units(self):
        return 4 * len(self.xs)

    def expected(self, k, rec):
        """Oracle values for sequence ``k``: the target's difference from
        reference, and grad*input on the twin."""
        if k not in self._expected:
            x = {"seq": self.xs[k]}
            with rec.oracle():
                delta = forward(self.paper, x)["logit"][0] - self.reference["logit"][0]
                self._expected[k] = (delta, baselines.gradient_times_input(self.twin, x))
        return self._expected[k]

    def unit(self, i, rec):
        k = i % len(self.xs)
        x = {"seq": self.xs[k]}
        delta, twin_gi = self.expected(k, rec)
        tol = 1e-9 * max(1.0, abs(delta))

        dl = rec.call("deeplift", 1, engine.deeplift, self.paper, x, reference=self.reference)
        if dl is not None:
            rec.check(conserves(dl) and abs(dl.delta_target - delta) <= tol,
                      f"deeplift seq {k}: residual {dl.residual}, delta {dl.delta_target} vs {delta}")
        gi = rec.call("grad_input", 1, baselines.gradient_times_input, self.paper, x)
        if gi is not None:
            rec.check(finite_scores(gi) and gi.target == ("logit", 0)
                      and abs(gi.delta_target - delta) <= tol,
                      f"grad_input seq {k}: target {gi.target}, delta {gi.delta_target} vs {delta}")
        rel = rec.call("lrp", 1, lrp, self.twin, x)
        if rel is not None:
            with rec.oracle():
                agrees = lrp_agrees(self.twin, x, rel, twin_gi)
            rec.check(agrees, f"lrp seq {k} disagrees with grad*input")

        if k == len(self.xs) - 1:
            cmp = rec.call("compare", lambda c: 2 * c.n_correct_positives,
                           genomics.compare_methods, self.cnn, self.examples, latency=False)
            if cmp is not None:
                scores = [v for r in cmp.rows for v in (r.deeplift_recovery, r.grad_input_recovery)]
                rec.check(cmp.n_correct_positives == self.selected
                          and all(0.0 <= v <= 1.0 for v in scores),
                          f"compare scored {cmp.n_correct_positives} positives, "
                          f"expected {self.selected}")

    def finish(self, rec):
        pass


class Zoo:
    """A round-robin stream over a seed-generated family of small graphs;
    one unit is one call per method to every member."""

    trace_units = 40

    def __init__(self, seed, workdir: Path, tiny: bool, rec):
        plan = [e for e in zoo.PLAN if e[3] == 16] if tiny else zoo.PLAN
        self.members = zoo.build_zoo(seed, plan)
        for m in self.members:
            path = workdir / f"{m.name}.json"
            serialize.save_model(m.graph, path)
            loaded = serialize.load_model(path)
            rec.check(all(np.array_equal(forward(m.graph, x)[n], forward(loaded, x)[n])
                          for x in m.probes for n in m.graph.outputs),
                      f"zoo member {m.name}: outputs changed over save/load")
            m.graph = loaded
        # callers precompute the reference once per model, as deeplift's docs say
        self.references = [engine.compute_reference(m.graph, m.reference_input)
                           for m in self.members]
        for m, ref in zip(self.members, self.references):
            engine.deeplift(m.graph, m.probes[0], target=m.target, reference=ref)
            baselines.gradient_times_input(m.graph, m.probes[0], target=m.target)

    def unit(self, i, rec):
        p = i % zoo.PROBES_PER_MEMBER
        for m, ref in zip(self.members, self.references):
            x = m.probes[p]
            dl = rec.call("deeplift", 1, engine.deeplift, m.graph, x, target=m.target,
                          reference=ref)
            if dl is not None:
                rec.check(conserves(dl), f"{m.name} probe {p}: residual {dl.residual} "
                                         f"for delta {dl.delta_target}")
            gi = rec.call("grad_input", 1, baselines.gradient_times_input, m.graph, x,
                          target=m.target)
            if gi is not None:
                rec.check(finite_scores(gi), f"{m.name} probe {p}: non-finite grad*input")
            if m.relu_only:
                rel = rec.call("lrp", 1, lrp, m.graph, x, m.target)
                if rel is not None:
                    with rec.oracle():
                        agrees = gi is not None and lrp_agrees(m.graph, x, rel, gi)
                    rec.check(agrees, f"{m.name} probe {p}: lrp disagrees with grad*input")

    def finish(self, rec):
        pass


class Cli:
    """In-process ``deltalift`` runs: ``attribute`` once per method and
    ``compare --tracks-out``, each on a 64-sequence FASTA file; one unit
    is one command.  At 64 sequences the per-command model load,
    normalization and reference take under a fifth of a command."""

    COMMANDS = ("deeplift", "grad_input", "lrp", "compare")
    trace_units = 8

    def __init__(self, seed, workdir: Path, tiny: bool, rec):
        self.chunk = 4 if tiny else 64
        n_chunks = 1 if tiny else 2
        examples = dataset(seed, n_test=self.chunk * n_chunks).test
        cnn = calibrated_cnn(seed, [x for x, _ in genomics.encode_dataset(examples)])
        self.dir = workdir
        self.model = workdir / "model.json"
        self.twin = workdir / "twin.json"
        serialize.save_model(cnn, self.model)
        serialize.save_model(relu_twin(cnn), self.twin)
        normalized = normalize_constrained_weights(cnn)
        self.fasta = []
        self.selected = []
        for c in range(n_chunks):
            part = examples[c * self.chunk:(c + 1) * self.chunk]
            path = workdir / f"chunk{c}.fa"
            genomics.write_fasta(path, part)
            self.fasta.append(path)
            self.selected.append(count_selected(normalized, part))
        for i in range(len(self.COMMANDS)):
            self._main(self.argv(i))

    def argv(self, i):
        command = self.COMMANDS[i % len(self.COMMANDS)]
        fasta = self.fasta[(i // len(self.COMMANDS)) % len(self.fasta)]
        out = self.dir / f"{command}.tsv"
        if command == "compare":
            return ["compare", "--model", str(self.model), "--data", str(fasta),
                    "--out", str(out), "--tracks-out", str(self.dir / "tracks.tsv")]
        model = self.twin if command == "lrp" else self.model
        return ["attribute", "--model", str(model), "--data", str(fasta),
                "--method", command, "--out", str(out)]

    @staticmethod
    def _main(argv):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def unit(self, i, rec):
        command = self.COMMANDS[i % len(self.COMMANDS)]
        chunk = (i // len(self.COMMANDS)) % len(self.fasta)
        code = rec.call(command, self.chunk, self._main, self.argv(i))
        if code is None:
            return
        if command == "compare":
            problem = self.check_compare(self.selected[chunk])
        else:
            problem = self.check_attribute(self.dir / f"{command}.tsv", command)
        rec.check(code == 0 and problem is None,
                  f"{command} on chunk {chunk}: exit {code}, {problem}")

    def check_attribute(self, path, method):
        samples, rows = [], 0
        with open(path, encoding="utf-8") as fh:
            next(fh)
            for line in fh:
                if line.startswith("#"):
                    samples.append([float(line.rsplit("residual=", 1)[1]), 0.0])
                else:
                    value = float(line.rsplit("\t", 1)[1])
                    if not math.isfinite(value):
                        return f"non-finite contribution {line.strip()}"
                    samples[-1][1] += value
                    rows += 1
        if len(samples) != self.chunk or rows != self.chunk * SEQ_LENGTH * 4:
            return f"{len(samples)} samples and {rows} rows"
        if method == "deeplift":
            for residual, total in samples:
                if residual > max(1e-9, 1e-6 * abs(total)):
                    return f"residual {residual} for total {total}"
        return None

    def check_compare(self, selected):
        with open(self.dir / "compare.tsv", encoding="utf-8") as fh:
            rows = sum(1 for line in fh if not line.startswith("#")) - 1
        with open(self.dir / "tracks.tsv", encoding="utf-8") as fh:
            track_rows = sum(1 for _ in fh) - 1
        if rows != selected or track_rows != selected * SEQ_LENGTH:
            return f"{rows} rows and {track_rows} track rows for {selected} positives"
        return None

    def finish(self, rec):
        pass


WORKLOADS = {"train": Train, "attribute": Attribute, "zoo": Zoo, "cli": Cli}
