"""Synthetic DNA motif benchmark for attribution quality.

Positive sequences carry both the GATA and CAGATG patterns; negatives
carry one or two instances of exactly one pattern.  Everything outside
the planted motifs is uniform random background, so spurious matches do
arise and cap achievable accuracy.  A small CNN is trained to separate
the classes; attribution quality is then scored as the fraction of
positive attribution mass falling inside the known motif spans.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .engine import (
    ATTRIBUTE_CHUNK,
    AttributionError,
    ContributionReport,
    _method_report,
    _reference_on,
    _traced_target,
)
from .graph import ConstraintGroup, Graph, GraphBuilder, Tensor, forward
from .normalize import attribution_model

BASES = "ACGT"
BASE_INDEX = {base: i for i, base in enumerate(BASES)}
# base index of every byte value, -1 for bytes that are not a base
_BASE_CODES = np.full(256, -1, dtype=np.intp)
_BASE_CODES[[ord(base) for base in BASES]] = np.arange(len(BASES))
MOTIFS = {"GATA": "GATA", "CAGATG": "CAGATG"}


@dataclass(frozen=True)
class MotifSpan:
    start: int
    end: int  # exclusive
    name: str


@dataclass
class SequenceExample:
    """One labeled sequence with ground-truth motif placements."""

    sid: str
    sequence: str
    label: int
    motif_spans: tuple[MotifSpan, ...] = ()


@dataclass
class DatasetSpec:
    """Generation parameters; counts must be even for exact class balance.

    A nonzero ``substitution_rate`` degrades planted motifs per base.
    The default plants consensus strings: spurious background matches
    already cap the achievable auROC near 0.92, and measurable extra
    noise pushes the task below what any classifier can recover.
    """

    n_train: int = 4000
    n_val: int = 500
    n_test: int = 500
    length: int = 200
    seed: int = 0
    substitution_rate: float = 0.0


@dataclass
class Dataset:
    train: list[SequenceExample] = field(default_factory=list)
    val: list[SequenceExample] = field(default_factory=list)
    test: list[SequenceExample] = field(default_factory=list)


def _place_spans(rng: np.random.Generator, length: int, motif_names) -> list[MotifSpan]:
    """Uniform non-overlapping placements, rejection sampled."""
    for _ in range(10000):
        spans: list[MotifSpan] = []
        taken: list[tuple[int, int]] = []
        ok = True
        for name in motif_names:
            width = len(MOTIFS[name])
            if length < width:
                raise ValueError(f"sequence length {length} cannot hold {name}")
            start = int(rng.integers(0, length - width + 1))
            if any(start < e and start + width > s for s, e in taken):
                ok = False
                break
            taken.append((start, start + width))
            spans.append(MotifSpan(start, start + width, name))
        if ok:
            return sorted(spans, key=lambda s: s.start)
    raise ValueError("could not place motifs without overlap")


def _make_example(rng: np.random.Generator, sid: str, length: int, label: int,
                  substitution_rate: float) -> SequenceExample:
    # positives carry two spans of each pattern so that the classifier's
    # receptive field (valid conv + pool drops the sequence tail) almost
    # always sees both; negatives follow the once-or-twice single-pattern
    # construction
    seq = rng.integers(0, 4, size=length)
    if label == 1:
        names = ["GATA", "GATA", "CAGATG", "CAGATG"]
    else:
        kind = rng.choice(["GATA", "CAGATG"])
        names = [str(kind)] * int(rng.integers(1, 3))
    # shuffle placement order so neither motif systematically claims space first
    names = [names[i] for i in rng.permutation(len(names))]
    spans = _place_spans(rng, length, names)
    for span in spans:
        motif = MOTIFS[span.name]
        for offset, base in enumerate(motif):
            code = BASE_INDEX[base]
            if rng.random() < substitution_rate:
                code = (code + 1 + int(rng.integers(0, 3))) % 4  # a different base
            seq[span.start + offset] = code
    sequence = "".join(BASES[c] for c in seq)
    return SequenceExample(sid, sequence, label, tuple(spans))


def _make_split(rng: np.random.Generator, prefix: str, n: int, length: int,
                substitution_rate: float) -> list[SequenceExample]:
    examples = []
    for i in range(n):
        label = 1 if i % 2 == 0 else 0
        examples.append(
            _make_example(rng, f"{prefix}-{i:05d}", length, label, substitution_rate)
        )
    return examples


def generate_dataset(spec: DatasetSpec) -> Dataset:
    """Seed-deterministic train/val/test splits with disjoint generators;
    raises ValueError, naming the field, unless each split size is an even
    integer >= 0, ``length`` an integer >= 1 and ``substitution_rate`` a
    finite number in [0, 1]."""
    for name in ("n_train", "n_val", "n_test"):
        n = getattr(spec, name)
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 0 or n % 2:
            raise ValueError(f"{name} must be an even integer >= 0, got {n!r}")
    length = spec.length  # a length below a motif's fails when it is placed
    if isinstance(length, bool) or not isinstance(length, numbers.Integral) or length < 1:
        raise ValueError(f"length must be an integer >= 1, got {length!r}")
    rate = spec.substitution_rate  # nan fails the range check
    if isinstance(rate, bool) or not isinstance(rate, numbers.Real) or not 0 <= rate <= 1:
        raise ValueError(f"substitution_rate must be a finite number in [0, 1], got {rate!r}")
    splits = {}
    for k, (name, n) in enumerate(
        [("train", spec.n_train), ("val", spec.n_val), ("test", spec.n_test)]
    ):
        rng = np.random.default_rng([spec.seed, k])
        splits[name] = _make_split(rng, name, n, spec.length, spec.substitution_rate)
    return Dataset(**splits)


# ---------------------------------------------------------------------------
# Encoding


def _lookup(text: str) -> np.ndarray:
    """Base index of every byte of ``text``, -1 where it is not a base."""
    return _BASE_CODES[np.frombuffer(text.encode(), dtype=np.uint8)]


def _sequence_codes(sequence: str) -> np.ndarray:
    """Base index (0-3, order A, C, G, T) of every position.

    Raises ValueError naming the first character that is not a base.
    """
    codes = _lookup(sequence)
    if len(codes) != len(sequence) or (codes < 0).any():
        i, base = next((i, b) for i, b in enumerate(sequence) if b not in BASE_INDEX)
        raise ValueError(f"invalid base {base!r} at position {i}")
    return codes


def _one_hot(codes: np.ndarray) -> Tensor:
    arr = np.zeros((len(codes), 4))
    arr[np.arange(len(codes)), codes] = 1.0
    return arr


def one_hot_encode(sequence: str) -> Tensor:
    """(length, 4) one-hot matrix, column order A, C, G, T."""
    return _one_hot(_sequence_codes(sequence))


def encode_batch(examples) -> Tensor:
    """One-hot encodings of equal-length sequences, stacked to (n, length, 4).

    One lookup covers the whole batch; on an invalid base the error names
    it as ``one_hot_encode`` of its sequence would.
    """
    sequences = [ex.sequence for ex in examples]
    lengths = sorted({len(seq) for seq in sequences})
    if len(lengths) > 1:
        raise ValueError(f"sequences differ in length: {lengths}")
    length = lengths[0] if lengths else 0
    codes = _lookup("".join(sequences))
    if len(codes) != len(sequences) * length or (codes < 0).any():
        for seq in sequences:
            _sequence_codes(seq)  # raises at the first sequence holding a non-base
    return _one_hot(codes).reshape(len(sequences), length, 4)


def decode_one_hot(arr: Tensor) -> str:
    return "".join(BASES[i] for i in np.asarray(arr).argmax(axis=1))


def onehot_constraint_groups(input_id: str, length: int) -> list[ConstraintGroup]:
    """Per-position groups declaring that each one-hot row sums to 1."""
    return [
        ConstraintGroup(input_id, tuple(range(p * 4, (p + 1) * 4)), 1.0)
        for p in range(length)
    ]


# ---------------------------------------------------------------------------
# Model


def build_genomics_cnn(length: int = 200, n_filters: int = 20,
                       filter_width: int = 15, pool_width: int = 50,
                       pool_stride: int = 50, dense_units: int = 200,
                       seed: int = 0) -> Graph:
    """Conv -> PReLU -> maxpool -> two dense PReLU blocks -> sigmoid unit.

    Weights use uniform fan-in scaling from the seed; PReLU slopes start
    at 0.25.  One-hot row constraint groups are attached to the input so
    the constrained-weight normalization pass applies to the conv layer.
    """
    rng = np.random.default_rng(seed)

    def uniform(shape, fan_in):
        bound = np.sqrt(6.0 / fan_in)
        return rng.uniform(-bound, bound, size=shape)

    b = GraphBuilder()
    x = b.input("seq", (length, 4))
    conv = b.conv1d(
        "conv",
        x,
        uniform((n_filters, filter_width, 4), filter_width * 4),
        np.zeros(n_filters),
        stride=1,
    )
    act0 = b.prelu("conv_act", conv, np.full(n_filters, 0.25))
    pool = b.maxpool1d("pool", act0, pool_width, pool_stride)
    flat_dim = int(np.prod(b.shape_of(pool)))
    fc1 = b.affine("fc1", pool, uniform((dense_units, flat_dim), flat_dim),
                   np.zeros(dense_units))
    act1 = b.prelu("fc1_act", fc1, np.full(dense_units, 0.25))
    fc2 = b.affine("fc2", act1, uniform((dense_units, dense_units), dense_units),
                   np.zeros(dense_units))
    act2 = b.prelu("fc2_act", fc2, np.full(dense_units, 0.25))
    logit = b.affine("logit", act2, uniform((1, dense_units), dense_units),
                     np.zeros(1))
    prob = b.sigmoid("prob", logit)
    return b.build(outputs=[prob],
                   constraint_groups=onehot_constraint_groups(x, length))


def encode_dataset(examples) -> list[tuple[Tensor, int]]:
    return [(one_hot_encode(ex.sequence), ex.label) for ex in examples]


# ---------------------------------------------------------------------------
# Metrics


def auroc(scores, labels) -> float:
    """Area under the ROC curve via the rank-sum statistic, ties counted half.

    Labels are 1 (positive) or 0 (negative); raises ValueError naming the
    first other label or non-finite score, and unless both classes occur.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    other = (labels != 0) & (labels != 1)
    if other.any():
        raise ValueError(f"auroc needs labels 0 or 1, got {labels[other][0].item()!r}")
    finite = np.isfinite(scores)
    if not finite.all():
        raise ValueError(f"auroc needs finite scores, got {scores[~finite][0].item()!r}")
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("auroc needs at least one positive and one negative")
    # 1-based ascending ranks; a tie group of `count` scores from 0-based
    # position `first` shares the mean rank first + (count + 1) / 2
    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    first = np.cumsum(counts) - counts
    ranks = (first + (counts + 1) / 2.0)[group]
    rank_sum = ranks[labels == 1].sum()
    u = rank_sum - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def per_position_scores(report: ContributionReport, example: SequenceExample,
                        input_id: str = "seq") -> Tensor:
    """Score of each position: the contribution of the base actually present."""
    contrib = report.contributions[input_id]
    return contrib[np.arange(len(example.sequence)), _sequence_codes(example.sequence)]


def motif_recovery_score(report: ContributionReport, example: SequenceExample,
                         motif_name: str | None = None,
                         input_id: str = "seq") -> float:
    """Fraction of positive per-position score mass inside motif spans.

    Restricting to ``motif_name`` counts only that motif's spans in the
    numerator (the denominator stays the total positive mass).  Returns
    0 when no positive scores exist anywhere.
    """
    return _recovery(per_position_scores(report, example, input_id), example,
                     motif_name)


def _recovery(scores: Tensor, example: SequenceExample, motif_name=None) -> float:
    positive = np.clip(scores, 0.0, None)
    total = positive.sum()
    if total <= 0.0:
        return 0.0
    inside = 0.0
    for span in example.motif_spans:
        if motif_name is not None and span.name != motif_name:
            continue
        inside += positive[span.start:span.end].sum()
    return float(inside / total)


# ---------------------------------------------------------------------------
# Method comparison


@dataclass
class ComparisonRow:
    sid: str
    prediction: float
    deeplift_recovery: float
    grad_input_recovery: float
    deeplift_gata: float
    grad_input_gata: float
    deeplift_cagatg: float
    grad_input_cagatg: float
    # per-position scores of both methods (see per_position_scores)
    deeplift_track: Tensor | None = field(default=None, repr=False, compare=False)
    grad_input_track: Tensor | None = field(default=None, repr=False, compare=False)
    # the scored sequence itself: ids need not be unique
    example: SequenceExample | None = field(default=None, repr=False, compare=False)


@dataclass
class MethodComparison:
    rows: list[ComparisonRow]
    mean_deeplift: float
    mean_grad_input: float
    win_rate: float
    gata_gap: float
    cagatg_gap: float
    n_correct_positives: int


def compare_methods(graph: Graph, test_set) -> MethodComparison:
    """Motif recovery of reference-based scores versus gradient*input.

    The graph takes one sequence input and its head (``Plan.head``) is a
    one-unit sigmoid, read as P(positive); any other graph raises
    AttributionError.  Both methods explain its attribution model
    (``normalize.attribution_model``) against the all-zeros reference, as
    ``deltalift attribute`` does.  Only
    correctly classified positives are scored: a full forward of each
    chunk of ``ATTRIBUTE_CHUNK`` positives selects those with P > 0.5,
    and both methods' sweeps share one forward of each chunk of those,
    up to the logit.  Each row keeps both methods' per-position scores.
    """
    input_ids = graph.input_ids()
    if len(input_ids) != 1:
        raise AttributionError(f"method comparison needs one input, got {input_ids}")
    head = graph.plan().head
    if head is None or graph.nodes[head[0]].kind != "sigmoid":
        raise AttributionError(
            "method comparison reads P(positive) from a one-unit sigmoid head; "
            f"the graph outputs {graph.describe_outputs()}")
    input_id, head_id = input_ids[0], head[0]
    model = attribution_model(graph)
    reference = _reference_on(model)

    positives = [ex for ex in test_set if ex.label == 1]
    selected = []  # (example, encoding, predicted probability)
    for start in range(0, len(positives), ATTRIBUTE_CHUNK):
        chunk = positives[start:start + ATTRIBUTE_CHUNK]
        xs = encode_batch(chunk)
        probs = forward(model, {input_id: xs})[head_id][:, 0]
        selected += [(ex, x, float(p)) for ex, x, p in zip(chunk, xs, probs) if p > 0.5]

    rows = []
    for start in range(0, len(selected), ATTRIBUTE_CHUNK):
        chunk = selected[start:start + ATTRIBUTE_CHUNK]
        trace, target = _traced_target(model,
                                       {input_id: np.stack([x for _, x, _ in chunk])})
        dl = _method_report(trace, reference, target, "deeplift")
        gi = _method_report(trace, reference, target, "grad_input")
        for i, (ex, _, prob) in enumerate(chunk):
            dl_track = per_position_scores(dl.sample(i), ex, input_id)
            gi_track = per_position_scores(gi.sample(i), ex, input_id)
            rows.append(ComparisonRow(
                sid=ex.sid,
                prediction=prob,
                deeplift_recovery=_recovery(dl_track, ex),
                grad_input_recovery=_recovery(gi_track, ex),
                deeplift_gata=_recovery(dl_track, ex, "GATA"),
                grad_input_gata=_recovery(gi_track, ex, "GATA"),
                deeplift_cagatg=_recovery(dl_track, ex, "CAGATG"),
                grad_input_cagatg=_recovery(gi_track, ex, "CAGATG"),
                deeplift_track=dl_track,
                grad_input_track=gi_track,
                example=ex,
            ))

    if rows:
        dl = np.array([r.deeplift_recovery for r in rows])
        gi = np.array([r.grad_input_recovery for r in rows])
        gata_gap = float(
            np.mean([r.deeplift_gata - r.grad_input_gata for r in rows])
        )
        cagatg_gap = float(
            np.mean([r.deeplift_cagatg - r.grad_input_cagatg for r in rows])
        )
        summary = MethodComparison(
            rows=rows,
            mean_deeplift=float(dl.mean()),
            mean_grad_input=float(gi.mean()),
            win_rate=float(np.mean(dl >= gi)),
            gata_gap=gata_gap,
            cagatg_gap=cagatg_gap,
            n_correct_positives=len(rows),
        )
    else:
        summary = MethodComparison(rows, 0.0, 0.0, 0.0, 0.0, 0.0, 0)
    return summary


# ---------------------------------------------------------------------------
# File formats


def _format_spans(spans) -> str:
    return ",".join(f"{s.start}-{s.end}:{s.name}" for s in spans)


def _parse_spans(text: str):
    spans = []
    for part in text.split(","):
        if not part:
            continue
        rng, name = part.split(":")
        start, end = rng.split("-")
        spans.append(MotifSpan(int(start), int(end), name))
    return tuple(spans)


def write_fasta(path, examples) -> None:
    """FASTA-like text: '>id label=L spans=a-b:NAME,...' then the sequence."""
    with open(path, "w", encoding="utf-8") as fh:
        for ex in examples:
            header = f">{ex.sid} label={ex.label}"
            if ex.motif_spans:
                header += f" spans={_format_spans(ex.motif_spans)}"
            fh.write(header + "\n")
            fh.write(ex.sequence + "\n")


def read_fasta(path) -> list[SequenceExample]:
    """Records of a FASTA file: each header line followed by one sequence
    line.  A header without its sequence line, a sequence without a
    header, an empty header, a malformed ``label=`` or ``spans=`` token and
    a span outside its sequence raise ValueError naming ``path:line``."""
    examples = []
    with open(path, "r", encoding="utf-8") as fh:
        sid = None
        label = 0
        spans: tuple[MotifSpan, ...] = ()
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith(">"):
                if sid is not None:
                    raise _orphan_header(path, header_no, sid)
                fields = line[1:].split()
                if not fields:
                    raise ValueError(f"{path}:{line_no}: empty header")
                sid, header_no = fields[0], line_no
                label = 0
                spans = ()
                for token in fields[1:]:
                    key, _, value = token.partition("=")
                    try:
                        if key == "label":
                            label = int(value)
                        elif key == "spans":
                            spans, spans_token = _parse_spans(value), token
                    except ValueError:
                        raise ValueError(
                            f"{path}:{line_no}: malformed header token '{token}'"
                        ) from None
            else:
                if sid is None:
                    raise ValueError(f"{path}:{line_no}: sequence before header")
                if any(not 0 <= s.start < s.end <= len(line) for s in spans):
                    raise ValueError(
                        f"{path}:{header_no}: header token '{spans_token}' has a span "
                        f"outside the {len(line)}-base sequence"
                    )
                examples.append(SequenceExample(sid, line, label, spans))
                sid = None
    if sid is not None:
        raise _orphan_header(path, header_no, sid)
    return examples


def _orphan_header(path, line_no: int, sid: str) -> ValueError:
    return ValueError(f"{path}:{line_no}: header '{sid}' has no sequence line")


def write_score_tracks(path, entries) -> None:
    """Plottable per-position scores.

    ``entries`` holds (example, deeplift_scores, grad_input_scores)
    triples with per-position score arrays; the sequences hold only
    bases, as they do once ``per_position_scores`` has scored them.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("sample_id\tposition\tbase\tdeeplift\tgrad_input\n")
        for ex, dl, gi in entries:
            # one % over the sequence's rows, with Python floats: formatting
            # numpy scalars one by one costs several times more
            sid = ex.sid.replace("%", "%%")
            template = "".join(f"{sid}\t{pos}\t{base}\t%.10g\t%.10g\n"
                               for pos, base in enumerate(ex.sequence))
            fh.write(template % tuple(np.stack([dl, gi], axis=-1).ravel().tolist()))


def write_comparison_tsv(path, comparison: MethodComparison) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            "# n_correct_positives=%d mean_deeplift=%.6g mean_grad_input=%.6g "
            "win_rate=%.6g gata_gap=%.6g cagatg_gap=%.6g\n"
            % (
                comparison.n_correct_positives,
                comparison.mean_deeplift,
                comparison.mean_grad_input,
                comparison.win_rate,
                comparison.gata_gap,
                comparison.cagatg_gap,
            )
        )
        fh.write(
            "sample_id\tprediction\tdeeplift_recovery\tgrad_input_recovery\t"
            "deeplift_gata\tgrad_input_gata\tdeeplift_cagatg\tgrad_input_cagatg\n"
        )
        for r in comparison.rows:
            fh.write(
                f"{r.sid}\t{r.prediction:.6g}\t{r.deeplift_recovery:.6g}\t"
                f"{r.grad_input_recovery:.6g}\t{r.deeplift_gata:.6g}\t"
                f"{r.grad_input_gata:.6g}\t{r.deeplift_cagatg:.6g}\t"
                f"{r.grad_input_cagatg:.6g}\n"
            )
