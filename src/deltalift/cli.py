"""Command-line entry points for reproducible runs.

Subcommands: gen-data, train, attribute, compare, check-lrp, normalize.
Every run writes ``<output>.manifest`` echoing the resolved configuration,
and failures print one machine-parsable line to stderr:

    error code=<category> detail=<message>

Exit codes: 0 success, 2 usage (argparse), 3 missing file, 4 invalid
input or config, 5 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__
from .baselines import (
    EnsembleSpec,
    equivalence_report,
    gradient_times_input,
    lrp_as_contribution_report,
    lrp_epsilon,
    write_equivalence_tsv,
)
from .engine import (
    AttributionError,
    compute_reference,
    deeplift,
    zeros_reference,
)
from .genomics import (
    DatasetSpec,
    compare_methods,
    encode_dataset,
    generate_dataset,
    one_hot_encode,
    per_position_scores,
    read_fasta,
    write_comparison_tsv,
    write_fasta,
    write_score_tracks,
)
from .graph import GraphError, forward
from .normalize import NormalizationError, mean_normalize_softmax_weights, \
    normalize_constrained_weights
from .serialize import ModelFormatError, load_model, save_model
from .train import TrainConfig, TrainingError, train_loop, write_loss_curve

EXIT_OK = 0
EXIT_MISSING_FILE = 3
EXIT_INVALID = 4
EXIT_RUNTIME = 5


def _write_manifest(out_path, args: argparse.Namespace, **facts) -> None:
    """Write the resolved arguments, plus ``facts`` the run established."""
    resolved = {k: v for k, v in sorted(vars(args).items()) if not callable(v)}
    resolved.update(facts)
    resolved["package_version"] = __version__
    with open(f"{out_path}.manifest", "w", encoding="utf-8") as fh:
        json.dump(resolved, fh, indent=1, default=str)
        fh.write("\n")


def _parse_target(text):
    if text is None or text == "auto":
        return None
    node, sep, index = text.partition(":")
    return (node, int(index)) if sep else (node, 0)


def cmd_gen_data(args) -> int:
    spec = DatasetSpec(
        n_train=args.n_train,
        n_val=args.n_val,
        n_test=args.n_test,
        length=args.length,
        seed=args.seed,
        substitution_rate=args.sub_rate,
    )
    data = generate_dataset(spec)
    import os

    os.makedirs(args.out, exist_ok=True)
    for split in ("train", "val", "test"):
        write_fasta(os.path.join(args.out, f"{split}.fa"), getattr(data, split))
    _write_manifest(os.path.join(args.out, "dataset"), args)
    print(f"wrote {args.out}/train.fa val.fa test.fa")
    return EXIT_OK


def cmd_train(args) -> int:
    import os

    from .genomics import build_genomics_cnn

    if args.config:
        config = TrainConfig.from_file(args.config)
    else:
        config = TrainConfig()
    for key in ("seed", "epochs", "batch_size", "learning_rate", "momentum"):
        value = getattr(args, key)
        if value is not None:
            setattr(config, key, value)

    train_ex = read_fasta(os.path.join(args.data, "train.fa"))
    val_path = os.path.join(args.data, "val.fa")
    val_ex = read_fasta(val_path) if os.path.exists(val_path) else []
    length = len(train_ex[0].sequence)

    if args.model:
        graph = load_model(args.model)
    else:
        graph = build_genomics_cnn(length=length, seed=config.seed)

    train_set = encode_dataset(train_ex)
    val_set = encode_dataset(val_ex)
    graph, history = train_loop(graph, train_set, val_set, config,
                                verbose=not args.quiet)
    save_model(graph, args.out)
    losses_path = args.losses_out or f"{args.out}.losses.tsv"
    write_loss_curve(losses_path, history)
    _write_manifest(args.out, args)
    final = history[-1]
    print(
        f"trained {config.epochs} epochs: val_loss={final.val_loss:.4f} "
        f"val_auroc={final.val_auroc:.4f}; model at {args.out}"
    )
    return EXIT_OK


def _attribution_reference(graph, mode):
    """(graph to attribute, reference input, whether weights were normalized).

    ``zeros-normalized`` applies the constrained-input pass when the graph
    declares constraint groups; without groups there is nothing to
    normalize and the graph is used as it is.
    """
    if mode == "zeros":
        return graph, zeros_reference(graph), False
    if mode == "zeros-normalized":
        if not graph.constraint_groups:
            return graph, zeros_reference(graph), False
        normalized = normalize_constrained_weights(graph)
        return normalized, zeros_reference(normalized), True
    raise ValueError(f"unknown reference mode '{mode}'")


def cmd_attribute(args) -> int:
    graph = load_model(args.model)
    examples = read_fasta(args.data)
    target = _parse_target(args.target)
    graph, ref_input, normalized = _attribution_reference(graph, args.reference)
    reference = compute_reference(graph, ref_input)
    input_id = graph.input_ids()[0]

    def run(ex):
        x = one_hot_encode(ex.sequence)
        if args.method == "deeplift":
            return deeplift(graph, {input_id: x}, target=target,
                            eps_stable=args.eps_stable, reference=reference)
        if args.method == "grad_input":
            return gradient_times_input(graph, {input_id: x}, target=target)
        if args.method == "lrp":
            rel = lrp_epsilon(graph, {input_id: x}, target=target,
                              epsilon=args.lrp_epsilon)
            return lrp_as_contribution_report(graph, {input_id: x}, rel)
        raise ValueError(f"unknown method '{args.method}'")

    if args.threads > 1:
        with ThreadPoolExecutor(max_workers=args.threads) as pool:
            reports = list(pool.map(run, examples))
    else:
        reports = [run(ex) for ex in examples]

    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(
            "sample_id\tfeature_index\tfeature_label\tdelta\tmultiplier\t"
            "contribution\n"
        )
        for ex, report in zip(examples, reports):
            t_node, t_index = report.target
            fh.write(
                f"# sample={ex.sid} method={report.method} "
                f"target={t_node}:{t_index} residual={report.residual:.6g}\n"
            )
            contrib = report.contributions[input_id].ravel()
            mult = report.multipliers[input_id].ravel()
            delta = report.deltas[input_id].ravel()
            for i in range(contrib.size):
                pos, base = divmod(i, 4)
                label = f"{pos}:{'ACGT'[base]}"
                fh.write(
                    f"{ex.sid}\t{i}\t{label}\t{delta[i]:.10g}\t"
                    f"{mult[i]:.10g}\t{contrib[i]:.10g}\n"
                )
    _write_manifest(args.out, args, reference_normalized=normalized)
    print(f"attributed {len(examples)} sequences with {args.method} -> {args.out}")
    return EXIT_OK


def cmd_compare(args) -> int:
    graph = load_model(args.model)
    examples = read_fasta(args.data)
    comparison = compare_methods(graph, examples, eps_stable=args.eps_stable,
                                 threads=args.threads)
    write_comparison_tsv(args.out, comparison)
    if args.tracks_out:
        normalized = normalize_constrained_weights(graph)
        reference = compute_reference(normalized, zeros_reference(normalized))
        by_sid = {ex.sid: ex for ex in examples}
        entries = []
        for row in comparison.rows:
            ex = by_sid[row.sid]
            x = one_hot_encode(ex.sequence)
            dl = deeplift(normalized, {"seq": x}, reference=reference,
                          eps_stable=args.eps_stable)
            gi = gradient_times_input(normalized, {"seq": x})
            entries.append(
                (ex, per_position_scores(dl, ex), per_position_scores(gi, ex))
            )
        write_score_tracks(args.tracks_out, entries)
    _write_manifest(args.out, args)
    print(
        f"compared methods on {comparison.n_correct_positives} correctly "
        f"classified positives: deeplift={comparison.mean_deeplift:.4f} "
        f"grad_input={comparison.mean_grad_input:.4f} "
        f"win_rate={comparison.win_rate:.3f}"
    )
    return EXIT_OK


def cmd_check_lrp(args) -> int:
    epsilons = [float(tok) for tok in args.epsilons.split(",") if tok]
    if not epsilons:
        raise ValueError("no epsilons given")
    spec = EnsembleSpec(n_nets=args.n_nets, seed=args.seed)
    rows = equivalence_report(spec, epsilons)
    write_equivalence_tsv(args.out, rows)
    _write_manifest(args.out, args)
    worst = {eps: max(r.max_rel_dev for r in rows if r.epsilon == eps)
             for eps in epsilons}
    summary = " ".join(f"eps={eps:g}:max_dev={dev:.3g}" for eps, dev in worst.items())
    print(f"checked {args.n_nets} nets: {summary}")
    return EXIT_OK


def cmd_normalize(args) -> int:
    graph = load_model(args.model)
    applied = []
    if args.passes in ("auto", "constrained"):
        try:
            graph = normalize_constrained_weights(graph)
            applied.append("constrained")
        except NormalizationError:
            if args.passes == "constrained":
                raise
    if args.passes in ("auto", "softmax"):
        try:
            graph = mean_normalize_softmax_weights(graph)
            applied.append("softmax")
        except NormalizationError:
            if args.passes == "softmax":
                raise
    if not applied:
        raise NormalizationError(
            "no normalization pass applies: the graph declares no constraint "
            "groups and has no affine+softmax head"
        )
    save_model(graph, args.out)
    _write_manifest(args.out, args)
    print(f"applied {'+'.join(applied)} normalization -> {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deltalift",
        description="Reference-based attribution over small feedforward nets",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate the synthetic DNA dataset")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--n-train", type=int, default=4000)
    p.add_argument("--n-val", type=int, default=500)
    p.add_argument("--n-test", type=int, default=500)
    p.add_argument("--length", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sub-rate", type=float, default=0.0,
                   help="per-base motif substitution probability")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train the benchmark CNN")
    p.add_argument("--data", required=True, help="directory with train.fa/val.fa")
    p.add_argument("--out", required=True, help="output model file")
    p.add_argument("--model", help="warm-start model file instead of a fresh CNN")
    p.add_argument("--config", help="JSON training config file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--learning-rate", type=float, default=None)
    p.add_argument("--momentum", type=float, default=None)
    p.add_argument("--losses-out", help="loss curve TSV (default <out>.losses.tsv)")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("attribute", help="score features for each sequence")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True, help="FASTA-like sequence file")
    p.add_argument("--out", required=True, help="output TSV")
    p.add_argument("--method", choices=["deeplift", "grad_input", "lrp"],
                   default="deeplift")
    p.add_argument("--reference", choices=["zeros", "zeros-normalized"],
                   default="zeros-normalized",
                   help="reference input mode for deeplift")
    p.add_argument("--target", default="auto",
                   help="'auto' or node_id[:index]")
    p.add_argument("--eps-stable", type=float, default=1e-7)
    p.add_argument("--lrp-epsilon", type=float, default=1e-9)
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(func=cmd_attribute)

    p = sub.add_parser("compare", help="motif recovery of deeplift vs grad*input")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--tracks-out", help="optional per-position score TSV")
    p.add_argument("--eps-stable", type=float, default=1e-7)
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("check-lrp", help="epsilon-LRP vs gradient*input deviations")
    p.add_argument("--out", required=True)
    p.add_argument("--n-nets", type=int, default=100)
    p.add_argument("--epsilons", default="1e-2,1e-5,1e-9")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_check_lrp)

    p = sub.add_parser("normalize", help="apply output-preserving weight passes")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--passes", choices=["auto", "softmax", "constrained"],
                   default="auto")
    p.set_defaults(func=cmd_normalize)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error code=missing-file detail={exc}", file=sys.stderr)
        return EXIT_MISSING_FILE
    except (ModelFormatError, NormalizationError, GraphError, ValueError) as exc:
        print(f"error code=invalid-input detail={exc}", file=sys.stderr)
        return EXIT_INVALID
    except (TrainingError, AttributionError) as exc:
        print(f"error code=runtime detail={exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
