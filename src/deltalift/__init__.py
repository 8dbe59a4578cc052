"""Reference-based feature attribution on small feedforward networks.

The package splits into a graph engine (``graph``, ``serialize``),
reverse-mode gradients and training (``autodiff``, ``train``), the
multiplier-propagation attribution core (``engine``, ``normalize``),
baseline methods (``baselines``), and a synthetic genomics benchmark
(``genomics``).  ``cli`` ties them into reproducible runs.
"""

__version__ = "0.1.0"

from .graph import (
    ConstraintGroup,
    ForwardTrace,
    Graph,
    GraphBuilder,
    GraphError,
    NodeSpec,
    ValidationReport,
    as_tensor,
    forward,
    n_parameters,
    topo_order,
    validate_graph,
)
from .serialize import ModelFormatError, load_model, save_model
from .autodiff import (
    FiniteDifferenceReport,
    GradientTrace,
    backward,
    finite_difference_check,
)
from .engine import (
    AttributionError,
    ContributionReport,
    DeltaState,
    MultiplierMap,
    ReferenceState,
    SegmentDecomposition,
    attribute,
    compute_deltas,
    compute_reference,
    contributions,
    deeplift,
    local_multipliers_maxout,
    local_multipliers_product,
    local_multipliers_rescale,
    maxout_segments,
    propagate_multipliers,
    select_attribution_target,
    zeros_reference,
)
from .normalize import (
    NormalizationError,
    mean_normalize_softmax_weights,
    normalize_constrained_weights,
)
from .baselines import (
    EnsembleSpec,
    RelevanceTrace,
    equivalence_report,
    gradient_times_input,
    lrp_epsilon,
)
from .train import TrainConfig, TrainingError, train_loop, train_step
from .genomics import (
    Dataset,
    DatasetSpec,
    SequenceExample,
    auroc,
    build_genomics_cnn,
    compare_methods,
    generate_dataset,
    motif_recovery_score,
    one_hot_encode,
)
