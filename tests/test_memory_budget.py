"""Peak allocation of each subcommand against a budget written in README's terms.

Each budget is built from the sizes README's memory paragraphs name: ``4N``
bytes for ``N`` token ids, ``S`` sequences, ``V`` vocabulary ids and
``R x d`` kept rows of 32-bit reals, plus a fixed allowance for the
temporaries of one block. The block is scaled down to 16 Ki units (ids,
ids and sequences, or text bytes), as in ``test_reader_holds_the_ids_once``,
so that a per-token term is not hidden under a full-size block; a second
test checks that a larger block adds only a few blocks' worth to a peak.
``tracemalloc`` sees numpy's buffers but not the interpreter and its
imports, which are already loaded when a run starts.
"""

import contextlib
import io
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from dep import EmbeddingMatrix, RemapOrdering, RemapTable, TokenizedDataset, formats, vocab
from dep.cli import main

_MIB = 2**20
_CHUNK = 1 << 14

# Peak bytes allowed, with the peak measured at the time in brackets:
#   analyze: the ids once with the length words behind them, offsets turned in place from the
#            length-word walk, counts, seen mask, each used id's first position, one block's
#            temporaries; offsets made beside the walk's positions, with 1 Mi-word chunks scaled
#            down alike, peaked at 10.3 MiB, and a bincount copy of each block with separate
#            first-position keys at 8.8 MiB                                                       (8.7 MiB)
#   prune:   the ids once or the kept rows, never both, with offsets, counts and the
#            dense-id table; holding the ids and a remapped copy peaked at 16.2 MiB         (8.6 MiB)
#   prune of a .txt dataset: the text reader reads the file in blocks twice and holds only the ids,
#            offsets and one block's temporaries; holding the file's T = 10.8 MiB of bytes
#            peaked at 18.8 MiB, and a per-line parse into int64 arrays at 34.7 MiB                (8.8 MiB)
#   analyze of a .txt dataset: the same passes over the text reader's ids and offsets, which keeps
#            no length words; the bincount copies and separate keys peaked at 8.7 MiB              (8.5 MiB)
#   analyze --checkpoints all: per token one curve point (two int64s) with the temporaries of checking
#            it and of the Heaps fit, about 81 bytes, once the ids are let go; with the 4N ids still
#            held under the fit it peaked at 162.8 MiB, and a Python tuple per point took ~300       (154.9 MiB)
#   restore: one piece of learned rows, at most one block of values, plus the remap's ids, a few int64
#            words per kept row while remap.json is read; reading the learned rows whole peaked at
#            5.34 MiB, and the remap's pairs as Python objects (json.loads) at 2.66 MiB               (0.34 MiB)
_BUDGETS = {
    "analyze": lambda c: 4 * c.N + 16 * c.S + 17 * c.V + 0.2 * _MIB,
    "prune": lambda c: max(4 * c.N, 4 * c.R * c.d) + 16 * c.S + 24 * c.V + 0.25 * _MIB,
    "prune-text": lambda c: 4 * c.N + 16 * c.S + 24 * c.V + 0.5 * _MIB,
    "analyze-text": lambda c: 4 * c.N + 12 * c.S + 17 * c.V + 0.2 * _MIB,
    "analyze-all": lambda c: 81 * c.N + 32 * c.S + 32 * c.V + 1.5 * _MIB,
    "restore": lambda c: 16 * _CHUNK + 32 * c.R + 0.25 * _MIB,
}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """2.0 M tokens in 30 000 sequences over V = 30 522 with 40% of ids used (11.3 MB as text),
    a d = 64 matrix, and one pruned run."""
    work = tmp_path_factory.mktemp("budget")
    rng = np.random.default_rng(7)
    sizes = SimpleNamespace(N=2_000_000, S=30_000, V=30_522, d=64)
    used = np.sort(rng.choice(sizes.V, size=int(0.4 * sizes.V), replace=False))
    sizes.R = used.size
    lengths = rng.multinomial(sizes.N - sizes.S, np.full(sizes.S, 1 / sizes.S)) + 1
    offsets = np.zeros(sizes.S + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    tokens = used[rng.integers(0, used.size, size=sizes.N)].astype(np.uint32)
    tokens[:used.size] = used  # every id of the used set occurs
    dataset = TokenizedDataset.from_flat(tokens, offsets, sizes.V)
    formats.write_dataset(dataset, work / "dataset.dept")
    formats.write_dataset(dataset, work / "dataset.txt")
    matrix = EmbeddingMatrix(rng.standard_normal((sizes.V, sizes.d)).astype(np.float32))
    formats.write_embeddings(matrix, work / "embeddings.depe")
    argv = {
        "analyze": ["analyze", "--dataset", work / "dataset.dept"],
        "prune": ["prune", "--dataset", work / "dataset.dept", "--embeddings", work / "embeddings.depe"],
        "prune-text": ["prune", "--dataset", work / "dataset.txt", "--embeddings", work / "embeddings.depe"],
        "analyze-text": ["analyze", "--dataset", work / "dataset.txt"],
        "analyze-all": ["analyze", "--dataset", work / "dataset.dept", "--checkpoints", "all"],
        "restore": ["restore", "--embeddings", work / "embeddings.depe",
                    "--learned", work / "pruned" / "pruned_embeddings.depe", "--remap", work / "pruned" / "remap.json"],
    }
    assert _run(*argv["prune"], "--out", work / "pruned") == 0
    return work, sizes, argv


def _run(*argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return main([str(a) for a in argv])


def _peak(corpus, monkeypatch, name: str, block: int) -> int:
    """The ``tracemalloc`` peak of one run with blocks of ``block`` units."""
    work, _, argv = corpus
    monkeypatch.setattr(vocab, "_BLOCK", block)
    tracemalloc.start()
    try:
        code = _run(*argv[name], "--out", work / f"{name}-{block}", "--force")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    return peak


@pytest.mark.parametrize("name", list(_BUDGETS))
def test_peak_allocation_within_budget(corpus, monkeypatch, name):
    peak, budget = _peak(corpus, monkeypatch, name, _CHUNK), _BUDGETS[name](corpus[1])
    assert peak <= budget, f"{name} peaked at {peak / _MIB:.2f} MiB, budget {budget / _MIB:.2f} MiB"


# Bytes one unit of a block may add to a peak: four int64 words. The most any pass holds per unit is the text
# writer's, about 30 bytes per id of a chunk (the digit grid, the compacted byte places, the digits left to
# write); with each id's byte offset held through the digit loop it was about 38. From 16 Ki to 64 Ki units the
# peaks grew by 0.46 (analyze), 0.37 (prune), 1.39 (prune of a .txt), 0.47 (analyze of a .txt) and 0.10 MiB
# (restore: its piece of learned rows and a block of remap.json's text).
_PER_BLOCK_UNIT = 32


@pytest.mark.parametrize("name", ["analyze", "prune", "prune-text", "analyze-text", "restore"])
def test_peak_grows_by_a_few_blocks(corpus, monkeypatch, name):
    """Four times the block adds only what that many more units of one block hold: no pass keeps a temporary
    per token, or more than one block's."""
    small, large = (_peak(corpus, monkeypatch, name, block) for block in (_CHUNK, 4 * _CHUNK))
    assert large - small <= _PER_BLOCK_UNIT * 3 * _CHUNK, (
        f"{name} peaked at {small / _MIB:.2f} MiB with blocks of {_CHUNK} and {large / _MIB:.2f} MiB with {4 * _CHUNK}")


def _remap_read_peak(path) -> int:
    tracemalloc.start()
    try:
        formats.read_remap(path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_remap_read_holds_a_few_words_per_pair(tmp_path):
    """Reading ``remap.json`` holds each pair as int64 words, never as Python objects: from 25 000 to 250 000 pairs
    the peak grows by at most 32 bytes per added pair. ``json.loads`` of the pairs took about 225."""
    peaks = []
    for size in (25_000, 250_000):
        path = tmp_path / f"remap-{size}.json"
        inverse = np.random.default_rng(size).permutation(size)
        formats.write_remap(RemapTable(size, inverse, RemapOrdering.FREQUENCY_DESCENDING, (0, 1)), path)
        peaks.append(_remap_read_peak(path))
    assert peaks[1] - peaks[0] <= 32 * 225_000, f"{peaks[0] / _MIB:.2f} MiB, then {peaks[1] / _MIB:.2f} MiB"
