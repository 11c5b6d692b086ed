"""Peak allocation of each subcommand against a budget written in README's terms.

Each budget is built from the sizes README's memory paragraphs name: ``4N``
bytes for ``N`` token ids, ``S`` sequences, ``V`` vocabulary ids, ``T``
bytes of a text dataset and ``R x d`` kept rows of 32-bit reals, plus a
fixed allowance for bounded chunk temporaries. The chunks are scaled down
to 16 Ki words (or text bytes), as in ``test_reader_holds_the_ids_once``,
so that a per-token term is not hidden under a 1 Mi-word chunk.
``tracemalloc`` sees numpy's buffers but not the interpreter and its
imports, which are already loaded when a run starts.
"""

import contextlib
import io
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from dep import EmbeddingMatrix, TokenizedDataset, formats, vocab
from dep.cli import main

_MIB = 2**20
_CHUNK = 1 << 14

# Peak bytes allowed, with the peak measured at the time in brackets:
#   analyze: the ids once, offsets and the length-word walk, counts, seen mask, unused ids   (10.5 MiB)
#   prune:   the ids once or the kept rows, never both, with offsets, counts and the
#            dense-id table; holding the ids and a remapped copy peaked at 16.2 MiB         (9.0 MiB)
#   prune of a .txt dataset: the text reader holds the file's T bytes and the ids once, with
#            offsets and one chunk's temporaries; a per-line parse into int64 arrays, joined
#            and then cast, peaked at 34.7 MiB                                                  (18.8 MiB)
#   analyze of a .txt dataset: the same reader, which sets its peak too                        (18.8 MiB)
#   analyze --checkpoints all: the ids, and per token one curve point (two int64s) with the temporaries
#            of checking it and of the Heaps fit, about 81 bytes; a Python tuple per point took ~300   (162.8 MiB)
#   restore: the learned rows, plus the remap's JSON pairs as Python objects                  (5.3 MiB)
_BUDGETS = {
    "analyze": lambda c: 4 * c.N + 32 * c.S + 32 * c.V + 1.5 * _MIB,
    "prune": lambda c: max(4 * c.N, 4 * c.R * c.d) + 24 * c.S + 24 * c.V + 0.5 * _MIB,
    "prune-text": lambda c: c.T + 4 * c.N + 16 * c.S + 0.75 * _MIB,
    "analyze-text": lambda c: c.T + 4 * c.N + 16 * c.S + 0.75 * _MIB,
    "analyze-all": lambda c: 4 * c.N + 84 * c.N + 32 * c.S + 32 * c.V + 1.5 * _MIB,
    "restore": lambda c: 4 * c.R * c.d + 128 * c.R + 1.25 * _MIB,
}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """2.0 M tokens in 30 000 sequences over V = 30 522 with 40% of ids used (T = 11.3 MB as text),
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
    sizes.T = (work / "dataset.txt").stat().st_size
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


@pytest.mark.parametrize("name", list(_BUDGETS))
def test_peak_allocation_within_budget(corpus, monkeypatch, name):
    work, sizes, argv = corpus
    monkeypatch.setattr(formats, "_CHUNK_WORDS", _CHUNK)
    monkeypatch.setattr(vocab, "_COUNT_CHUNK", _CHUNK)
    tracemalloc.start()
    try:
        code = _run(*argv[name], "--out", work / name)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    budget = _BUDGETS[name](sizes)
    assert peak <= budget, f"{name} peaked at {peak / _MIB:.2f} MiB, budget {budget / _MIB:.2f} MiB"
