"""Offline detection of multiple change points in multivariate signals.

The pieces compose freely: fit a cost to a signal, hand it to a search
method (with a fixed change count or a penalty), and compare the resulting
segmentations with the metrics.  See the README for the CLI.
"""

from .costs import (
    COST_KINDS,
    ARCost,
    CostModel,
    Covariates,
    EcdfCost,
    KernelCost,
    KernelSpec,
    L2Cost,
    LinearCost,
    LinearL1Cost,
    MahalanobisCost,
    PoissonCost,
    RankCost,
    SigmaCost,
    fit,
    sum_of_costs,
)
from .metrics import (
    MetricReport,
    annotation_error,
    compute_metric_report,
    hausdorff,
    precision_recall_f1,
    rand_index,
)
from .penalties import (
    Penalty,
    default_bic_dim,
    detect,
    detect_with_penalty,
    estimate_noise_std,
    parse_penalty,
    pen_value,
)
from .report import DetectionReport
from .search import (
    SearchOptions,
    StoppingRule,
    binseg_segment,
    binseg_trace,
    botup_segment,
    opt_segment,
    pelt_segment,
    win_score_curve,
    win_segment,
)
from .signals import (
    GeneratorSpec,
    Segmentation,
    Signal,
    generate_pw_constant,
    generate_pw_scale,
    load_csv,
    make_segmentation,
)

__version__ = "0.1.0"

__all__ = [
    "ARCost",
    "COST_KINDS",
    "CostModel",
    "Covariates",
    "DetectionReport",
    "EcdfCost",
    "GeneratorSpec",
    "KernelCost",
    "KernelSpec",
    "L2Cost",
    "LinearCost",
    "LinearL1Cost",
    "MahalanobisCost",
    "MetricReport",
    "Penalty",
    "PoissonCost",
    "RankCost",
    "SearchOptions",
    "Segmentation",
    "SigmaCost",
    "Signal",
    "StoppingRule",
    "annotation_error",
    "binseg_segment",
    "binseg_trace",
    "botup_segment",
    "compute_metric_report",
    "default_bic_dim",
    "detect",
    "detect_with_penalty",
    "estimate_noise_std",
    "fit",
    "generate_pw_constant",
    "generate_pw_scale",
    "hausdorff",
    "load_csv",
    "make_segmentation",
    "opt_segment",
    "parse_penalty",
    "pelt_segment",
    "pen_value",
    "precision_recall_f1",
    "rand_index",
    "sum_of_costs",
    "win_score_curve",
    "win_segment",
]
