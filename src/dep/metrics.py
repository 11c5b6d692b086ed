"""Parameter accounting and savings metrics for encoder transformers.

Pruning removes embedding rows only, so the quantities of interest are:

* ``pr_emb``: fraction of embedding rows removed, ``1 - reduced/original``.
* ``poep``: proportion of model parameters living in the token embedding
  matrix; the upper bound of what row pruning can ever save.
* ``pr_all``: fraction of total parameters removed, ``pr_emb * poep``.

Percentages are kept in full precision everywhere and rounded to one
decimal only for presentation copies.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from datetime import datetime, timezone

from .errors import FormatError, InvalidCounts


@dataclass(frozen=True)
class ModelConfig:
    """Encoder dimensions needed to count parameters.

    ``ffn_dim`` defaults to ``4 * d_model``. ``max_positions`` and
    ``type_vocab`` default to the common 512/2 encoder layout; set 514/1
    for byte-BPE style checkpoints. ``vocab_size`` is always explicit:
    published vocabulary figures are often rounded, so named presets would
    silently miscount.
    """

    vocab_size: int
    d_model: int
    num_layers: int
    num_heads: int
    ffn_dim: int | None = None
    max_positions: int = 512
    type_vocab: int = 2
    has_pooler: bool = True
    name: str = ""

    def __post_init__(self) -> None:
        if self.ffn_dim is None:
            object.__setattr__(self, "ffn_dim", 4 * self.d_model)
        if self.vocab_size < 1 or self.d_model < 1 or self.num_heads < 1 or self.ffn_dim < 1:
            raise ValueError("vocab_size, d_model, num_heads, and ffn_dim must be positive")
        if self.num_layers < 0 or self.max_positions < 0 or self.type_vocab < 0:
            raise ValueError("num_layers, max_positions, and type_vocab must be non-negative")
        if self.d_model % self.num_heads != 0:
            raise ValueError(f"d_model {self.d_model} not divisible by num_heads {self.num_heads}")


@dataclass(frozen=True)
class ParamCount:
    """Total parameters, embedding parameters, and the embedding share."""

    n_total: int
    n_emb: int
    poep: float


def param_breakdown(config: ModelConfig) -> dict[str, int]:
    """Parameter count per named tensor group.

    Embedding block: token, position, and segment tables plus one layer
    norm (weight and bias). Each transformer layer: query/key/value and
    attention output projections with biases, the two feed-forward
    projections with biases, and two layer norms. The optional pooler is
    a single dense layer. Per-layer entries are totals across all
    ``num_layers`` layers, so discrepancies against a checkpoint can be
    traced to one group.
    """
    d, ffn, layers = config.d_model, config.ffn_dim, config.num_layers
    return {
        "token_embeddings": config.vocab_size * d,
        "position_embeddings": config.max_positions * d,
        "type_embeddings": config.type_vocab * d,
        "embeddings_layer_norm": 2 * d,
        "attention_qkv": layers * 3 * (d * d + d),
        "attention_output": layers * (d * d + d),
        "attention_layer_norm": layers * 2 * d,
        "ffn_up": layers * (d * ffn + ffn),
        "ffn_down": layers * (ffn * d + d),
        "ffn_layer_norm": layers * 2 * d,
        "pooler": (d * d + d) if config.has_pooler else 0,
    }


def count_params(config: ModelConfig) -> ParamCount:
    """Exact parameter totals for the configured encoder."""
    breakdown = param_breakdown(config)
    n_total = sum(breakdown.values())
    n_emb = breakdown["token_embeddings"]
    return ParamCount(n_total=n_total, n_emb=n_emb, poep=n_emb / n_total)


def pr_emb(original_vocab: int, reduced_vocab: int) -> float:
    """Fraction of embedding rows removed, ``1 - reduced/original``."""
    if original_vocab < 1 or reduced_vocab < 0 or reduced_vocab > original_vocab:
        raise InvalidCounts(original_vocab, reduced_vocab)
    return 1.0 - reduced_vocab / original_vocab


def pr_all(pr_emb_value: float, param_count: ParamCount) -> float:
    """Fraction of total parameters removed when only embeddings shrink.

    Equals ``pr_emb * poep``: removing ``pr_emb`` of ``n_emb`` rows takes
    ``pr_emb * n_emb`` parameters out of ``n_total``.
    """
    return pr_emb_value * param_count.poep


def resolve_timestamp(explicit: str | None = None) -> str:
    """UTC timestamp string, honoring SOURCE_DATE_EPOCH for reproducible runs; a value that is not ASCII digits
    alone, or is past the platform's range, is :class:`FormatError`."""
    if explicit is not None:
        return explicit
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is None:
        moment = datetime.now(timezone.utc)
    else:
        try:
            if not (epoch.isascii() and epoch.isdigit()):  # int() would also take "1_7", " 17 ", "+17" and "-5"
                raise ValueError
            moment = datetime.fromtimestamp(int(epoch), tz=timezone.utc)
        except (ValueError, OverflowError, OSError):  # OverflowError: past the platform's time_t
            raise FormatError(f"SOURCE_DATE_EPOCH {epoch!r} is not a timestamp in whole seconds") from None
    return moment.strftime("%Y-%m-%dT%H:%M:%SZ")


@dataclass(frozen=True)
class PruneReport:
    """Savings summary and provenance for one prune run."""

    original_vocab: int
    reduced_vocab: int
    pr_emb: float
    pr_all: float
    poep: float
    bytes_saved: int
    config_name: str
    timestamp: str

    def to_json_dict(self) -> dict:
        """Full-precision fields plus presentation copies rounded to 0.1."""
        return {
            "original_vocab": self.original_vocab,
            "reduced_vocab": self.reduced_vocab,
            "pr_emb": self.pr_emb,
            "pr_all": self.pr_all,
            "poep": self.poep,
            "pr_emb_pct": round(100.0 * self.pr_emb, 1),
            "pr_all_pct": round(100.0 * self.pr_all, 1),
            "poep_pct": round(100.0 * self.poep, 1),
            "bytes_saved": self.bytes_saved,
            "config_name": self.config_name,
            "timestamp": self.timestamp,
        }


def report_from_counts(
    original_vocab: int,
    reduced_vocab: int,
    config: ModelConfig,
    timestamp: str | None = None,
) -> PruneReport:
    """Build a report from vocabulary counts and a model configuration."""
    params = count_params(config)
    emb_reduction = pr_emb(original_vocab, reduced_vocab)
    return PruneReport(
        original_vocab=original_vocab,
        reduced_vocab=reduced_vocab,
        pr_emb=emb_reduction,
        pr_all=pr_all(emb_reduction, params),
        poep=params.poep,
        bytes_saved=(original_vocab - reduced_vocab) * config.d_model * 4,
        config_name=config.name,
        timestamp=resolve_timestamp(timestamp),
    )

