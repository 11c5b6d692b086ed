"""Shared hypothesis strategies for dataset/remap/matrix instances."""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from dep import (
    EmbeddingMatrix,
    RemapOrdering,
    TokenizedDataset,
    build_remap,
    scan_dataset,
)


@st.composite
def token_datasets(draw, min_vocab=1, max_vocab=48, max_sequences=10, max_len=16):
    vocab = draw(st.integers(min_vocab, max_vocab))
    n_seq = draw(st.integers(0, max_sequences))
    seqs = [
        draw(st.lists(st.integers(0, vocab - 1), max_size=max_len))
        for _ in range(n_seq)
    ]
    return TokenizedDataset(tuple(seqs), vocab)


orderings = st.sampled_from(list(RemapOrdering))


@st.composite
def datasets_with_remaps(draw, **dataset_kwargs):
    dataset = draw(token_datasets(**dataset_kwargs))
    keep = draw(st.frozensets(st.integers(0, dataset.vocab_size - 1), max_size=4))
    ordering = draw(orderings)
    remap = build_remap(scan_dataset(dataset), ordering, keep)
    return dataset, remap


@st.composite
def prune_instances(draw, max_vocab=24, max_dim=6):
    dataset, remap = draw(datasets_with_remaps(max_vocab=max_vocab))
    dim = draw(st.integers(1, max_dim))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    matrix = EmbeddingMatrix(
        rng.standard_normal((dataset.vocab_size, dim)).astype(np.float32)
    )
    return dataset, remap, matrix


_FLOAT_BITS = st.sampled_from([0x80000000, 0x7FC00001, 0xFFBFFFFF, 0x7F800001]) | st.integers(0, 2**32 - 1)


def float32_matrices(rows: int, dim: int):
    """``rows x dim`` matrices drawn as raw bits: NaN payloads, signaling NaNs and ``-0.0`` included."""
    bits = st.lists(_FLOAT_BITS, min_size=rows * dim, max_size=rows * dim)
    return bits.map(lambda words: EmbeddingMatrix(np.array(words, dtype="<u4").view("<f4").reshape(rows, dim)))
