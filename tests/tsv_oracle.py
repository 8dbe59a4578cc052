"""Per-value writers of the package's TSV files: each float cell goes
through ``"%.10g"`` on its own, the plainest way to write the text the
package's writers must give byte for byte."""

from deltalift.genomics import BASES


def per_value_row(*cells) -> str:
    """One TSV row: float cells (numpy floats too) as ``"%.10g"`` writes
    them, every other cell as ``str`` writes it."""
    return "\t".join("%.10g" % c if isinstance(c, float) else str(c)
                     for c in cells) + "\n"


def attribute_rows(sid, values) -> str:
    """The feature rows ``deltalift attribute`` writes for one sample,
    given its (n_features, 3) deltas, multipliers and contributions."""
    return "".join(per_value_row(sid, i, f"{i // 4}:{BASES[i % 4]}", *map(float, cells))
                   for i, cells in enumerate(values))


def attribute_tsv(examples, reports, input_id: str) -> str:
    """The whole ``deltalift attribute`` file for ``examples``, scored in
    the consecutive chunks whose ``attribute`` reports are ``reports``."""
    text = ["sample_id\tfeature_index\tfeature_label\tdelta\tmultiplier\tcontribution\n"]
    examples = iter(examples)
    for report in reports:
        t_node, t_index = report.target
        deltas = report.deltas[input_id]
        values = zip(deltas.reshape(len(deltas), -1),
                     report.multipliers[input_id].reshape(len(deltas), -1),
                     report.contributions[input_id].reshape(len(deltas), -1))
        for i, (d, m, c) in enumerate(values):
            ex = next(examples)
            text.append(f"# sample={ex.sid} method={report.method} "
                        f"target={t_node}:{t_index[i]} residual={report.residual[i]:.6g}\n")
            text.append(attribute_rows(ex.sid, zip(d, m, c)))
    return "".join(text)
