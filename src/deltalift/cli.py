"""Command-line entry points for reproducible runs.

Subcommands: gen-data, train, attribute, compare, check-lrp.
``attribute`` and ``compare`` score a model's attribution model
(``normalize.attribution_model``), as the library does.
Every run writes ``<output>.manifest`` echoing the resolved configuration,
and failures print one machine-parsable line to stderr:

    error code=<category> detail=<message>

Exit codes: 0 success, 2 usage (argparse), 3 missing file, 4 invalid
input or config, 5 runtime failure.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .autodiff import resolve_target
from .baselines import LRP_EPSILON, EnsembleSpec, equivalence_report, write_equivalence_tsv
from .engine import (
    ATTRIBUTE_CHUNK,
    METHODS,
    AttributionError,
    attribute,
    check_stabilizer,
    fixed_target_node,
)
from .genomics import (
    BASES,
    DatasetSpec,
    compare_methods,
    encode_batch,
    encode_dataset,
    generate_dataset,
    read_fasta,
    write_comparison_tsv,
    write_fasta,
    write_score_tracks,
)
from .graph import GraphError
from .normalize import NormalizationError, attribution_model
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


@contextlib.contextmanager
def _written_whole(*paths):
    """Yield a ``<path>.partial`` name per path to write; they become
    ``paths`` only once the block succeeds, and a failed block removes
    them, so a failed run leaves none of its outputs."""
    partials = [f"{path}.partial" for path in paths]
    try:
        yield partials
    except BaseException:
        for partial in partials:
            with contextlib.suppress(FileNotFoundError):
                os.remove(partial)
        raise
    for partial, path in zip(partials, paths):
        os.replace(partial, path)


def _parse_target(text):
    if text is None or text == "auto":
        return None
    node, sep, index = text.partition(":")
    try:
        return node, int(index) if sep else 0
    except ValueError:
        raise ValueError("--target must be 'auto' or node_id[:index] with an integer "
                         f"index, got {text!r}") from None


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
    os.makedirs(args.out, exist_ok=True)
    for split in ("train", "val", "test"):
        write_fasta(os.path.join(args.out, f"{split}.fa"), getattr(data, split))
    _write_manifest(os.path.join(args.out, "dataset"), args)
    print(f"wrote {args.out}/train.fa val.fa test.fa")
    return EXIT_OK


def cmd_train(args) -> int:
    from .genomics import build_genomics_cnn

    if args.config:
        config = TrainConfig.from_file(args.config)
    else:
        config = TrainConfig()
    for key in ("seed", "epochs", "batch_size", "learning_rate", "momentum",
                "weight_decay"):
        value = getattr(args, key)
        if value is not None:
            setattr(config, key, value)
    config.check()  # before the data is read or a model built

    train_path = os.path.join(args.data, "train.fa")
    train_ex = read_fasta(train_path)
    if not train_ex:
        raise ValueError(f"{train_path}: no sequences to train on")
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
    _write_manifest(args.out, args, train_config=asdict(config))
    final = history[-1]
    print(
        f"trained {config.epochs} epochs: val_loss={final.val_loss:.4f} "
        f"val_auroc={final.val_auroc:.4f}; model at {args.out}"
    )
    return EXIT_OK


# each attribute row ends in its delta, multiplier and contribution cells;
# a cell that is exactly 0, -0 or 1 (on one-hot input, most deltas and
# contributions, and the multipliers of features no routed window reads)
# is written as the text "%.10g" gives it, and only the rest is formatted.
# One ending per combination of the three cells' kinds, indexed by
# 16 * kind(delta) + 4 * kind(multiplier) + kind(contribution)
_CELL_KINDS = ("0", "-0", "1", "%.10g")
_ROW_ENDINGS = np.array(
    ["\t".join(cells) + "\n" for cells in itertools.product(_CELL_KINDS, repeat=3)],
    dtype=object,
)
_KIND_WEIGHTS = np.array([16, 4, 1])


def _feature_prefixes(n_features: int) -> list[str]:
    """The text between a row's sample id and its value cells: the
    feature's index and its position:base label."""
    return [f"\t{i}\t{i // 4}:{BASES[i % 4]}\t" for i in range(n_features)]


def _attribute_rows(sids, values, prefixes) -> list[str]:
    """Each sample's TSV rows as one string: row j of sample i is
    ``sids[i] + prefixes[j]`` and the cells ``values[i, j]`` (delta,
    multiplier, contribution) as ``"%.10g"`` writes them."""
    kind = np.where(values == 0, np.signbit(values), 3)
    kind[values == 1] = 2
    formatted = kind == 3
    endings = _ROW_ENDINGS[kind @ _KIND_WEIGHTS].tolist()
    numbers = values[formatted].tolist()
    stops = np.cumsum(formatted.reshape(len(sids), -1).sum(axis=1)).tolist()
    parts = [""] * (3 * len(prefixes))
    parts[1::3] = prefixes
    rows, start = [], 0
    for sid, sample_endings, stop in zip(sids, endings, stops):
        parts[0::3] = [sid.replace("%", "%%")] * len(prefixes)
        parts[2::3] = sample_endings
        rows.append("".join(parts) % tuple(numbers[start:stop]))
        start = stop
    return rows


def cmd_attribute(args) -> int:
    graph = load_model(args.model)
    examples = read_fasta(args.data)
    target = _parse_target(args.target)
    # every method scores the attribution model against the all-zeros reference;
    # a model, target or epsilon it refuses fails here, before any output opens
    model = attribution_model(graph)
    check_stabilizer(args.lrp_epsilon)
    fixed_target_node(model, target)
    if target is not None:  # the index too, which attribution checks per chunk
        resolve_target(model, target)
    input_id = graph.input_ids()[0]
    prefixes = _feature_prefixes(int(np.prod(graph.nodes[input_id].output_shape)))

    # rows stream to <out>.partial, which becomes --out only once every
    # chunk is attributed: a failed run leaves no output and no manifest
    with _written_whole(args.out) as (partial,), \
            open(partial, "w", encoding="utf-8") as fh:
        fh.write(
            "sample_id\tfeature_index\tfeature_label\tdelta\tmultiplier\t"
            "contribution\n"
        )
        for start in range(0, len(examples), ATTRIBUTE_CHUNK):
            chunk = examples[start:start + ATTRIBUTE_CHUNK]
            report = attribute(model, {input_id: encode_batch(chunk)}, args.method,
                               target=target, lrp_epsilon=args.lrp_epsilon)
            t_node, t_index = report.target
            # per sample and feature: delta, multiplier, contribution
            values = np.stack(
                [report.deltas[input_id], report.multipliers[input_id],
                 report.contributions[input_id]],
                axis=-1,
            ).reshape(len(chunk), len(prefixes), 3)
            rows = _attribute_rows([ex.sid for ex in chunk], values, prefixes)
            for i, ex in enumerate(chunk):
                fh.write(
                    f"# sample={ex.sid} method={report.method} "
                    f"target={t_node}:{t_index[i]} "
                    f"residual={report.residual[i]:.6g}\n"
                )
                fh.write(rows[i])
    _write_manifest(args.out, args, reference_normalized=model is not graph)
    print(f"attributed {len(examples)} sequences with {args.method} -> {args.out}")
    return EXIT_OK


def cmd_compare(args) -> int:
    graph = load_model(args.model)
    examples = read_fasta(args.data)
    comparison = compare_methods(graph, examples)
    outputs = [args.out] + ([args.tracks_out] if args.tracks_out else [])
    with _written_whole(*outputs) as partials:
        write_comparison_tsv(partials[0], comparison)
        if args.tracks_out:
            write_score_tracks(partials[1], [
                (row.example, row.deeplift_track, row.grad_input_track)
                for row in comparison.rows
            ])
    _write_manifest(args.out, args)
    print(
        f"compared methods on {comparison.n_correct_positives} correctly "
        f"classified positives: deeplift={comparison.mean_deeplift:.4f} "
        f"grad_input={comparison.mean_grad_input:.4f} "
        f"win_rate={comparison.win_rate:.3f}"
    )
    return EXIT_OK


def cmd_check_lrp(args) -> int:
    if args.n_nets < 1:
        raise ValueError(f"--n-nets must be at least 1, got {args.n_nets}")
    epsilons = [check_stabilizer(float(tok)) for tok in args.epsilons.split(",") if tok]
    if not epsilons:
        raise ValueError("no epsilons given")
    if len(set(epsilons)) < len(epsilons):
        raise ValueError(f"--epsilons repeats a value: {args.epsilons}")
    spec = EnsembleSpec(n_nets=args.n_nets, seed=args.seed)
    rows = equivalence_report(spec, epsilons)
    worst = {eps: max(r.max_rel_dev for r in rows if r.epsilon == eps)
             for eps in epsilons}
    summary = " ".join(f"eps={eps:g}:max_dev={dev:.3g}" for eps, dev in worst.items())
    with _written_whole(args.out) as (partial,):
        write_equivalence_tsv(partial, rows)
    _write_manifest(args.out, args)
    print(f"checked {args.n_nets} nets: {summary}")
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
    p.add_argument("--weight-decay", type=float, default=None,
                   help="L2 penalty on weight matrices and filters")
    p.add_argument("--losses-out", help="loss curve TSV (default <out>.losses.tsv)")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("attribute", help="score features for each sequence")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True, help="FASTA-like sequence file")
    p.add_argument("--out", required=True, help="output TSV")
    p.add_argument("--method", choices=METHODS, default="deeplift")
    p.add_argument("--target", default="auto",
                   help="'auto' or node_id[:index]")
    p.add_argument("--lrp-epsilon", type=float, default=LRP_EPSILON)
    p.set_defaults(func=cmd_attribute)

    p = sub.add_parser("compare", help="motif recovery of deeplift vs grad*input")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--tracks-out", help="optional per-position score TSV")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("check-lrp", help="epsilon-LRP vs gradient*input deviations")
    p.add_argument("--out", required=True)
    p.add_argument("--n-nets", type=int, default=100)
    p.add_argument("--epsilons", default="1e-2,1e-5,1e-9")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_check_lrp)
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
