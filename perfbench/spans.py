"""In-process traced run: spans around the public functions that ``dep.cli`` calls.

The wrappers are installed from here by replacing names in ``dep.cli``,
``dep.formats`` and ``dep.vocab``; nothing in the program changes. Each
span records its name, start, end, parent and counters, and stays in
memory until the run ends. A span's ``s`` is its wall time, ``self_s`` that
minus its child spans, so the self times of one subcommand add up to its
``cli.main`` span. Time the wrappers spend on their own bookkeeping (stack,
counters, tracemalloc) is taken out of every enclosing span; what remains
shows up as ``trace.overhead_s``, the traced minus the untraced ``cli.main``
wall time.
"""

from __future__ import annotations

import os
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    parent: int | None  # id() of the enclosing span while the run is in memory
    start: float = 0.0
    end: float = 0.0
    excluded: float = 0.0  # wrapper bookkeeping inside [start, end]
    counters: dict = field(default_factory=dict)
    peak_alloc_mib: float | None = None

    @property
    def wall(self) -> float:
        return self.end - self.start - self.excluded


def _tokens(dataset) -> int:
    return sum(seq.size for seq in dataset.sequences)


def _size(path) -> int:
    return os.path.getsize(path)


# (module label, function, owner key, counters(result, args), tracemalloc peak)
TARGETS = (
    ("formats", "read_dataset", "formats", lambda r, a: {"bytes": _size(a[0]), "tokens": _tokens(r)}, True),
    ("formats", "write_dataset", "formats", lambda r, a: {"bytes": _size(a[1])}, False),
    ("formats", "read_embeddings", "formats", lambda r, a: {"bytes": _size(a[0])}, True),
    ("formats", "write_embeddings", "formats", lambda r, a: {"bytes": _size(a[1])}, True),
    ("formats", "read_remap", "formats", lambda r, a: {"pairs": r.reduced_size}, False),
    ("formats", "write_remap", "formats", None, False),
    ("formats", "write_json", "formats", lambda r, a: {"bytes": _size(a[1])}, False),
    ("formats", "write_growth_csv", "formats", None, False),
    ("formats", "read_model_config", "formats", None, False),
    ("formats", "write_report", "formats", None, False),
    ("vocab", "scan_dataset_parallel", "cli", lambda r, a: {"tokens": int(r.counts.sum())}, False),
    ("vocab", "build_remap", "cli", lambda r, a: {"rows": r.reduced_size}, False),
    ("vocab", "apply_remap", "cli", lambda r, a: {"tokens": _tokens(r)}, True),
    ("analysis", "growth_curve", "cli", lambda r, a: {"tokens": r.points[-1][0] if r.points else 0}, True),
    ("analysis", "fit_heaps", "cli", None, False),
    ("analysis", "find_unused_tokens", "cli", None, False),
    ("embeddings", "prune_embeddings", "cli", lambda r, a: {"rows": r.rows}, False),
    ("embeddings", "restore_embeddings", "cli", lambda r, a: {"rows": a[1].rows}, True),
    ("metrics", "report_from_counts", "cli", None, False),
)


class Tracer:
    """Collects spans; ``install`` wraps the targets, ``uninstall`` puts the originals back."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.track_alloc = False
        self._stack: list[Span] = []
        self._originals: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, args, kwargs, counters=None, alloc: bool = False):
        entered = time.perf_counter()
        span = Span(name, id(self._stack[-1]) if self._stack else None)
        self._stack.append(span)
        tracing = alloc and self.track_alloc and not tracemalloc.is_tracing()
        if tracing:
            tracemalloc.start()
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            if tracing:
                span.peak_alloc_mib = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
            self._stack.pop()
        if counters is not None:
            span.counters = counters(result, args)
        self.spans.append(span)
        bookkeeping = (span.start - entered) + (time.perf_counter() - span.end)
        for outer in self._stack:
            outer.excluded += bookkeeping
        return result

    def wrap(self, name: str, fn, counters=None, alloc: bool = False):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counters, alloc)

        return wrapper

    def install(self, cli, formats, vocab) -> None:
        owners = {"cli": cli, "formats": formats}
        for module, fn, owner_key, counters, alloc in TARGETS:
            owner = owners[owner_key]
            original = getattr(owner, fn)
            self._originals.append((owner, fn, original))
            setattr(owner, fn, self.wrap(f"{module}.{fn}", original, counters, alloc))
        cls = vocab.TokenizedDataset  # construction is where datasets are validated
        self._originals.append((cls, "__init__", cls.__init__))
        cls.__init__ = self.wrap("vocab.TokenizedDataset", cls.__init__)

    def uninstall(self) -> None:
        while self._originals:
            owner, name, original = self._originals.pop()
            setattr(owner, name, original)


def aggregate(spans: list[Span], subcommand: str) -> dict[str, float]:
    """Per-name sums of ``s``, ``self_s`` and counters (max of peaks) for one subcommand's spans."""
    child_wall: dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            child_wall[span.parent] = child_wall.get(span.parent, 0.0) + span.wall
    out: dict[str, float] = {}
    for span in spans:
        prefix = f"{subcommand}.{span.name}"
        values = {"s": span.wall, "self_s": span.wall - child_wall.get(id(span), 0.0), **span.counters}
        for measure, value in values.items():
            out[f"{prefix}.{measure}"] = out.get(f"{prefix}.{measure}", 0) + value
        if span.peak_alloc_mib is not None:
            key = f"{prefix}.peak_alloc_mib"
            out[key] = max(out.get(key, 0.0), span.peak_alloc_mib)
    return out


def medians(samples: list[dict[str, float]]) -> dict[str, float]:
    keys = sorted({k for sample in samples for k in sample})
    return {k: statistics.median(s[k] for s in samples if k in s) for k in keys}


def to_json(spans: list[Span]) -> list[dict]:
    """Spans with ``parent`` as an index into the same list."""
    index = {id(span): i for i, span in enumerate(spans)}
    return [
        {"name": s.name, "start": s.start, "end": s.end, "wall": s.wall, "parent": index.get(s.parent),
         "counters": s.counters, "peak_alloc_mib": s.peak_alloc_mib}
        for s in spans
    ]
