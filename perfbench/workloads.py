"""Seeded synthetic corpora and embedding matrices for the benchmark.

Inputs are written with numpy straight into the ``DEPT``/``DEPE`` byte
layouts (or the ``.txt`` dataset form), never through ``dep.formats``, so a
change to the program's writers cannot change what the program is fed.

Token ids are a Zipf-like draw: a seeded random subset of the vocabulary
(``coverage`` of it, one id per equal stratum) is ranked in id order, and
ranks follow a discretised power law with exponent ``ZIPF_EXPONENT``
(inverse-CDF sampling of a continuous Pareto law, one ``pow`` per token).
Sequence lengths are Poisson.
"""

from __future__ import annotations

import hashlib
import struct
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ZIPF_EXPONENT = 1.1
DATASET_HEADER = struct.Struct("<4sIQQ")
EMBEDDINGS_HEADER = struct.Struct("<4sIBQQ")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sequences: int
    mean_length: float
    vocab_size: int
    dim: int
    coverage: float
    text: bool
    ordering: str
    keep: tuple[int, ...]
    model_config: str  # relative to the checkout root

    @property
    def dataset_name(self) -> str:
        return "dataset.txt" if self.text else "dataset.dept"

    @property
    def pruned_dataset_name(self) -> str:
        return "pruned_dataset.txt" if self.text else "pruned_dataset.dept"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="glue_short",
            why="GLUE-scale binary corpus: 200k short sequences make per-sequence Python work "
            "in read, validate, apply_remap and write dominate; the 94 MB matrix is cheap",
            sequences=200_000, mean_length=67.5, vocab_size=30522, dim=768, coverage=0.40,
            text=False, ordering="ascending_id", keep=(0,), model_config="configs/bert_base.json",
        ),
        Workload(
            name="multilingual_long",
            why="same token count in 2k long sequences on a 105879-row multilingual matrix at "
            "12% coverage: matrix I/O, gather and scatter dominate; per-sequence work is ~100x less",
            sequences=2_000, mean_length=6750.0, vocab_size=105879, dim=768, coverage=0.12,
            text=False, ordering="ascending_id", keep=(0,),
            model_config="configs/mbert_base_uncased.json",
        ),
        Workload(
            name="glue_text",
            why="20k sequences as a .txt dataset with frequency ordering and five keep ids: text "
            "reader/writer and the frequency-sort branch of build_remap; binary I/O never runs",
            sequences=20_000, mean_length=67.5, vocab_size=30522, dim=768, coverage=0.40,
            text=True, ordering="frequency_descending", keep=(0, 100, 101, 102, 103),
            model_config="configs/bert_base.json",
        ),
    )
}


@dataclass
class Corpus:
    """What the generator drew, kept to check the program's outputs."""

    lengths: np.ndarray  # int64 per sequence
    tokens: np.ndarray  # uint32 token stream, sequence-major
    counts: np.ndarray  # occurrences of each id
    embeddings_sha256: str
    input_bytes: int
    input_digests: dict[str, str]

    @property
    def drawn_ids(self) -> np.ndarray:
        return np.flatnonzero(self.counts)


def _rng(seed: int, workload: Workload) -> np.random.Generator:
    tag = int.from_bytes(hashlib.sha256(workload.name.encode()).digest()[:4], "little")
    return np.random.default_rng([seed, tag])


def draw_tokens(rng: np.random.Generator, workload: Workload) -> tuple[np.ndarray, np.ndarray]:
    lengths = rng.poisson(workload.mean_length, workload.sequences).astype(np.int64)
    n_ids = max(1, round(workload.coverage * workload.vocab_size))
    # One id from each of n_ids equal strata of the vocabulary, so the subset holds the same
    # number of small ids on every seed. Rank r gets the r-th smallest id, as in a
    # frequency-ordered vocabulary. Small ids are cheap to parse and cached as Python ints;
    # a plain random subset (or a random rank-to-id map) lets their share of the tokens
    # swing by ~2% from seed to seed, and with it the text workload's time and peak memory.
    edges = np.arange(n_ids + 1, dtype=np.int64) * workload.vocab_size // n_ids
    widths = np.diff(edges)
    subset = (edges[:-1] + (rng.random(n_ids) * widths).astype(np.int64)).astype(np.uint32)
    a = 1.0 - ZIPF_EXPONENT
    x = rng.random(int(lengths.sum()))
    x *= (n_ids + 1.0) ** a - 1.0
    x += 1.0
    np.power(x, 1.0 / a, out=x)
    ranks = x.astype(np.int64)
    ranks -= 1
    np.minimum(ranks, n_ids - 1, out=ranks)  # guards the float rounding at the top edge
    return lengths, subset[ranks]


def dataset_binary_bytes(lengths: np.ndarray, tokens: np.ndarray, vocab_size: int) -> list:
    """Header plus the interleaved ``u32 length, ids...`` body, as two buffers."""
    body = np.empty(tokens.size + lengths.size, dtype="<u4")
    length_pos = np.cumsum(lengths) - lengths + np.arange(lengths.size)
    is_token = np.ones(body.size, dtype=bool)
    is_token[length_pos] = False
    body[length_pos] = lengths
    body[is_token] = tokens
    header = DATASET_HEADER.pack(b"DEPT", 1, vocab_size, lengths.size)
    return [header, body]


def dataset_text_bytes(lengths: np.ndarray, tokens: np.ndarray) -> bytes:
    words = np.array([str(i) for i in range(int(tokens.max(initial=0)) + 1)], dtype=object)
    pieces = words[tokens].tolist()
    ends = np.cumsum(lengths).tolist()
    starts = [0] + ends[:-1]
    return "".join(" ".join(pieces[a:b]) + "\n" for a, b in zip(starts, ends)).encode()


def embeddings_bytes(rng: np.random.Generator, workload: Workload) -> list:
    matrix = rng.random((workload.vocab_size, workload.dim), dtype=np.float32)
    matrix -= 0.5
    header = EMBEDDINGS_HEADER.pack(b"DEPE", 1, 1, workload.vocab_size, workload.dim)
    return [header, matrix.astype("<f4", copy=False)]


def _write(path: Path, buffers) -> tuple[int, str]:
    digest = hashlib.sha256()
    size = 0
    with open(path, "wb") as handle:
        for buf in buffers:
            view = memoryview(buf).cast("B")
            handle.write(view)
            digest.update(view)
            size += view.nbytes
    return size, digest.hexdigest()


def write_inputs(workload: Workload, seed: int, inputs_dir: Path) -> Corpus:
    """Generate one workload's inputs from ``seed`` into ``inputs_dir``."""
    inputs_dir.mkdir(parents=True, exist_ok=True)
    rng = _rng(seed, workload)
    lengths, tokens = draw_tokens(rng, workload)
    if workload.text:
        data = [dataset_text_bytes(lengths, tokens)]
    else:
        data = dataset_binary_bytes(lengths, tokens, workload.vocab_size)
    data_size, data_sha = _write(inputs_dir / workload.dataset_name, data)
    del data
    emb_size, emb_sha = _write(inputs_dir / "embeddings.depe", embeddings_bytes(rng, workload))
    counts = np.bincount(tokens, minlength=workload.vocab_size)
    return Corpus(
        lengths=lengths,
        tokens=tokens,
        counts=counts,
        embeddings_sha256=emb_sha,
        input_bytes=data_size + emb_size,
        input_digests={workload.dataset_name: data_sha, "embeddings.depe": emb_sha},
    )


def timed_setup(workload: Workload, seed: int, inputs_dir: Path, repeats: int) -> tuple[Corpus, list[float]]:
    """Generate the inputs ``repeats`` times; returns the last corpus and each wall time."""
    times = []
    corpus = None
    for _ in range(repeats):
        corpus = None  # free the previous draw before timing the next
        start = time.perf_counter()
        corpus = write_inputs(workload, seed, inputs_dir)
        times.append(time.perf_counter() - start)
    return corpus, times
