"""Prune unused vocabulary rows from embedding matrices.

Scan a tokenized dataset for the ids it actually uses, gather just those
rows into a reduced embedding matrix, rewrite the dataset through the
matching dense-id remap, and scatter learned rows back afterwards. The
metrics module accounts for what the pruning saves.
"""

from .analysis import (
    GrowthCurve,
    HeapsFit,
    coverage_ratio,
    find_unused_tokens,
    fit_heaps,
    growth_curve,
)
from .embeddings import (
    EmbeddingMatrix,
    prune_embeddings,
    restore_embeddings,
)
from .errors import (
    BadMagic,
    DegenerateFit,
    DepError,
    FormatError,
    InconsistentInputs,
    InsufficientPoints,
    InvalidCounts,
    KeepTokenOutOfRange,
    MissingInput,
    OutOfRangeToken,
    OutputExists,
    RemapInconsistent,
    ShapeMismatch,
    UnmappedToken,
    UnsupportedVersion,
    UnwritableOutput,
    VocabTooLarge,
)
from .metrics import (
    ModelConfig,
    ParamCount,
    PruneReport,
    count_params,
    param_breakdown,
    pr_all,
    pr_emb,
    report_from_counts,
)
from .vocab import (
    FrequencyTable,
    RemapOrdering,
    RemapTable,
    TokenizedDataset,
    apply_remap,
    build_remap,
    invert_remap,
    scan_dataset,
    scan_dataset_parallel,
)

__version__ = "0.1.0"

__all__ = [
    "BadMagic",
    "DegenerateFit",
    "DepError",
    "EmbeddingMatrix",
    "FormatError",
    "FrequencyTable",
    "GrowthCurve",
    "HeapsFit",
    "InconsistentInputs",
    "InsufficientPoints",
    "InvalidCounts",
    "KeepTokenOutOfRange",
    "MissingInput",
    "ModelConfig",
    "OutOfRangeToken",
    "OutputExists",
    "ParamCount",
    "PruneReport",
    "RemapInconsistent",
    "RemapOrdering",
    "RemapTable",
    "ShapeMismatch",
    "TokenizedDataset",
    "UnmappedToken",
    "UnsupportedVersion",
    "UnwritableOutput",
    "VocabTooLarge",
    "apply_remap",
    "build_remap",
    "count_params",
    "coverage_ratio",
    "find_unused_tokens",
    "fit_heaps",
    "growth_curve",
    "invert_remap",
    "param_breakdown",
    "pr_all",
    "pr_emb",
    "prune_embeddings",
    "report_from_counts",
    "restore_embeddings",
    "scan_dataset",
    "scan_dataset_parallel",
]
