"""Fairness-discrepancy metrics for generative models.

Scores measure how far a generated-data attribute distribution sits from
the uniform (fair) reference, normalized so 0 = fair and 1 = absolutely
biased, and a benchmark harness quantifies how classifier noise distorts
those scores.
"""

from .attrspace import (
    AttributeSpace,
    CategoricalDistribution,
    load_distribution,
    load_space,
    sweep,
)
from .bench import (
    BenchmarkReport,
    ep_var,
    mem,
    mepe_ab,
    mepe_fair,
    report_to_csv,
    report_to_markdown,
    run_benchmark,
    run_ep_analysis,
    run_sweep,
)
from .classifier import (
    EXPECTATION,
    ConfusionModel,
    EstimationMode,
    Expectation,
    Predictions,
    Sampled,
    derive_seed,
    estimate,
    from_accuracies,
    from_spec,
    ingest_predictions,
    load_confusion,
    load_predictions,
    per_class_accuracy,
    perfect,
    preset,
    uniform_noise,
)
from .errors import ValidationError
from .metrics import (
    DEFAULT_ALPHA,
    Metric,
    delta_specificity,
    fd_score,
    info_specificity,
    l1,
    l2,
    n_factor,
    parse_metrics,
    raw_score,
    score_parts,
    specificity,
    wd,
)
from .transport import CostMatrix, TransportPlan, default_cost, solve

__version__ = "0.1.0"

__all__ = [
    "AttributeSpace",
    "BenchmarkReport",
    "CategoricalDistribution",
    "ConfusionModel",
    "CostMatrix",
    "DEFAULT_ALPHA",
    "EXPECTATION",
    "EstimationMode",
    "Expectation",
    "Metric",
    "Predictions",
    "Sampled",
    "TransportPlan",
    "ValidationError",
    "default_cost",
    "delta_specificity",
    "derive_seed",
    "ep_var",
    "estimate",
    "fd_score",
    "from_accuracies",
    "from_spec",
    "info_specificity",
    "ingest_predictions",
    "l1",
    "l2",
    "load_confusion",
    "load_distribution",
    "load_predictions",
    "load_space",
    "mem",
    "mepe_ab",
    "mepe_fair",
    "n_factor",
    "parse_metrics",
    "per_class_accuracy",
    "perfect",
    "preset",
    "raw_score",
    "report_to_csv",
    "report_to_markdown",
    "run_benchmark",
    "run_ep_analysis",
    "run_sweep",
    "score_parts",
    "solve",
    "specificity",
    "sweep",
    "uniform_noise",
    "wd",
]
