"""Run the four CLI subcommands as child processes and check what they wrote.

Each child is reaped with ``os.wait4`` (in ``spawner.py``) so its peak RSS
is its own, not the running maximum over every child reaped so far that
``RUSAGE_CHILDREN`` gives. The children run in the work directory with
relative input paths (``stats.json`` records the dataset path) and a pinned
``SOURCE_DATE_EPOCH`` (``report.json`` records a timestamp), so the outputs
of one seed are byte-identical from run to run and their sha256 digests can
be compared.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from workloads import DATASET_HEADER, EMBEDDINGS_HEADER, Corpus, Workload

SUBCOMMANDS = ("analyze", "prune", "restore", "report")
OUT_DIRS = {"analyze": "out/analysis", "prune": "out/pruned", "restore": "out/restored", "report": "out/report"}
SOURCE_DATE_EPOCH = "1700000000"


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["SOURCE_DATE_EPOCH"] = SOURCE_DATE_EPOCH
    env.pop("DEP_LOG", None)
    return env


def subcommand_argv(workload: Workload, root: Path, partitions: int) -> dict[str, list[str]]:
    """Arguments after ``python -m dep``; every path is relative to the work directory."""
    dataset = f"inputs/{workload.dataset_name}"
    vocab = ["--vocab-size", str(workload.vocab_size)] if workload.text else []
    parts = ["--partitions", str(partitions)]
    return {
        "analyze": ["analyze", "--dataset", dataset, *vocab, *parts, "--out", OUT_DIRS["analyze"]],
        "prune": [
            "prune", "--dataset", dataset, "--embeddings", "inputs/embeddings.depe", *vocab,
            "--ordering", workload.ordering, "--keep", ",".join(map(str, workload.keep)),
            *parts, "--out", OUT_DIRS["prune"],
        ],
        "restore": [
            "restore", "--embeddings", "inputs/embeddings.depe",
            "--learned", "out/pruned/pruned_embeddings.depe",
            "--remap", "out/pruned/remap.json", "--out", OUT_DIRS["restore"],
        ],
        "report": [
            "report", "--remap", "out/pruned/remap.json",
            "--model-config", str(root / workload.model_config), "--out", OUT_DIRS["report"],
        ],
    }


@dataclass
class ChildResult:
    wall_s: float
    peak_rss_mib: float
    exit_code: int


class Spawner:
    """Client of ``spawner.py``; start it before the corpus is generated, close it at the end."""

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("spawner.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv: list[str], cwd: Path, env: dict[str, str], log: Path) -> ChildResult:
        """Run ``argv`` to completion; its wall time is from spawn to exit."""
        request = {"argv": argv, "cwd": str(cwd), "log": str(log), "env": env}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError("the child launcher exited early")
        result = json.loads(reply)
        return ChildResult(result["wall_s"], result["peak_rss_kib"] / 1024.0, result["exit_code"])

    def close(self) -> None:
        """Let an idle launcher exit; one still running a child (after an error here) is terminated."""
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self._proc.terminate()
            self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def clear_outputs(workdir: Path) -> None:
    shutil.rmtree(workdir / "out", ignore_errors=True)
    (workdir / "logs").mkdir(parents=True, exist_ok=True)


def run_pipeline(spawner: Spawner, argvs: dict[str, list[str]], workdir: Path,
                 env: dict[str, str]) -> tuple[dict[str, ChildResult], float]:
    """analyze, prune, restore and report back to back; returns each child and the total wall."""
    clear_outputs(workdir)
    results = {}
    start = time.perf_counter()
    for sub in SUBCOMMANDS:
        argv = [sys.executable, "-m", "dep", *argvs[sub]]
        results[sub] = spawner.run(argv, workdir, env, workdir / "logs" / f"{sub}.log")
    return results, time.perf_counter() - start


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while chunk := handle.read(1 << 22):
            digest.update(chunk)
    return digest.hexdigest()


def output_digests(workdir: Path) -> dict[str, str]:
    """sha256 of every file under ``out/``, keyed by its path relative to the work directory."""
    out = workdir / "out"
    return {
        path.relative_to(workdir).as_posix(): sha256_file(path)
        for path in sorted(out.rglob("*")) if path.is_file()
    }


def subcommand_of(output: str) -> str:
    for sub, out_dir in OUT_DIRS.items():
        if output.startswith(out_dir + "/"):
            return sub
    raise ValueError(f"output {output} belongs to no subcommand")


def compare_digests(actual: dict[str, str], expected: dict[str, str], label: str) -> dict[str, list[str]]:
    """Failures per subcommand for every output missing, extra or different from ``expected``."""
    failures: dict[str, list[str]] = {}
    for name in sorted(set(actual) | set(expected)):
        if actual.get(name) != expected.get(name):
            failures.setdefault(subcommand_of(name), []).append(f"{name} differs from the {label}")
    return failures


# ---------------------------------------------------------------------------
# Output checks that do not depend on digests. Each returns a list of problems.


def _load_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _first_seen_positions(tokens: np.ndarray, vocab_size: int) -> np.ndarray:
    """Stream position of each drawn id's first occurrence, ascending, in O(n + V)."""
    first = np.full(vocab_size, tokens.size, dtype=np.int64)
    # With repeated indices the last write wins, so writing in reverse keeps the earliest.
    first[tokens[::-1]] = np.arange(tokens.size - 1, -1, -1, dtype=np.int64)
    return np.sort(first[first < tokens.size])


def check_analyze(workdir: Path, workload: Workload, corpus: Corpus) -> list[str]:
    problems = []
    stats = _load_json(workdir / OUT_DIRS["analyze"] / "stats.json")
    drawn = corpus.drawn_ids
    expected = {
        "dataset": f"inputs/{workload.dataset_name}",
        "vocab_size": workload.vocab_size,
        "num_sequences": int(corpus.lengths.size),
        "total_tokens": int(corpus.tokens.size),
        "used_tokens": int(drawn.size),
        "unused_token_count": workload.vocab_size - int(drawn.size),
    }
    for key, value in expected.items():
        if stats.get(key) != value:
            problems.append(f"stats.json {key} is {stats.get(key)!r}, expected {value!r}")
    if stats.get("unused_tokens") != np.flatnonzero(corpus.counts == 0).tolist():
        problems.append("stats.json unused_tokens is not the set of ids never drawn")
    lines = (workdir / OUT_DIRS["analyze"] / "growth.csv").read_text(encoding="utf-8").splitlines()
    first = _first_seen_positions(corpus.tokens, workload.vocab_size)
    try:
        points = [tuple(int(v) for v in line.split(",")) for line in lines[1:]]
    except ValueError:
        points = []
    positions = np.array([n for n, _ in points], dtype=np.int64)
    expected_unique = np.searchsorted(first, positions, side="left").tolist()
    if lines[:1] != ["tokens,unique"] or not points or points[-1][0] != corpus.tokens.size or [
        u for _, u in points
    ] != expected_unique:
        problems.append("growth.csv does not match the distinct-id counts of the drawn stream")
    return problems


def _pruned_stream(path: Path, workload: Workload, lengths: np.ndarray, kept: int) -> tuple[np.ndarray, np.ndarray] | None:
    """(sequence lengths, token stream) of a pruned dataset, or None when it cannot be parsed."""
    if workload.text:
        lines = path.read_bytes().split(b"\n")
        if lines.pop() != b"":
            return None
        try:
            ids = np.array([int(t) for line in lines for t in line.split()], dtype=np.int64)
        except ValueError:
            return None
        return np.array([len(line.split()) for line in lines], dtype=np.int64), ids
    raw = path.read_bytes()
    body = np.frombuffer(raw, dtype="<u4", offset=DATASET_HEADER.size)
    if DATASET_HEADER.unpack_from(raw) != (b"DEPT", 1, kept, lengths.size) or body.size != lengths.size + lengths.sum():
        return None
    length_pos = np.cumsum(lengths) - lengths + np.arange(lengths.size)
    is_token = np.ones(body.size, dtype=bool)
    is_token[length_pos] = False
    return body[length_pos].astype(np.int64), body[is_token].astype(np.int64)


def check_prune(workdir: Path, workload: Workload, corpus: Corpus) -> list[str]:
    problems = []
    out = workdir / OUT_DIRS["prune"]
    remap = _load_json(out / "remap.json")
    kept = np.union1d(corpus.drawn_ids, np.array(workload.keep, dtype=np.int64))
    pairs = np.array(remap.get("pairs", []), dtype=np.int64).reshape(-1, 2)
    inverse = pairs[:, 0]
    if (
        remap.get("original_vocab_size") != workload.vocab_size
        or remap.get("ordering") != workload.ordering
        or remap.get("keep_tokens") != sorted(workload.keep)
        or not np.array_equal(pairs[:, 1], np.arange(len(pairs)))
        or not np.array_equal(np.sort(inverse), kept)
    ):
        return ["remap.json does not map the drawn ids plus the keep ids onto 0..n-1"]
    if workload.ordering == "ascending_id":
        ordered = np.array_equal(inverse, kept)
    else:
        counts = corpus.counts[inverse]
        ordered = bool(np.all((counts[:-1] > counts[1:]) | ((counts[:-1] == counts[1:]) & (inverse[:-1] < inverse[1:]))))
    if not ordered:
        problems.append(f"remap.json dense ids are not in {workload.ordering} order")

    raw = (out / "pruned_embeddings.depe").read_bytes()
    original = np.fromfile(workdir / "inputs" / "embeddings.depe", dtype="<f4", offset=EMBEDDINGS_HEADER.size)
    rows = original.reshape(workload.vocab_size, workload.dim)[inverse]
    header = EMBEDDINGS_HEADER.pack(b"DEPE", 1, 1, len(inverse), workload.dim)
    if raw[:EMBEDDINGS_HEADER.size] != header or raw[EMBEDDINGS_HEADER.size:] != rows.tobytes():
        problems.append("pruned_embeddings.depe is not the original rows gathered in remap order")

    parsed = _pruned_stream(out / workload.pruned_dataset_name, workload, corpus.lengths, len(inverse))
    if parsed is None:
        problems.append(f"{workload.pruned_dataset_name} cannot be parsed")
    else:
        lengths, dense = parsed
        if (
            not np.array_equal(lengths, corpus.lengths)
            or dense.size != corpus.tokens.size
            or (dense.size and (dense.min() < 0 or dense.max() >= len(inverse)))
            or not np.array_equal(inverse[dense], corpus.tokens)
        ):
            problems.append(f"{workload.pruned_dataset_name} mapped back through remap.json is not the drawn stream")
    return problems


def check_restore(workdir: Path, workload: Workload, corpus: Corpus) -> list[str]:
    if sha256_file(workdir / OUT_DIRS["restore"] / "restored_embeddings.depe") != corpus.embeddings_sha256:
        return ["identity restore of the untouched pruned matrix differs from the original .depe"]
    return []


def check_report(workdir: Path, workload: Workload, corpus: Corpus) -> list[str]:
    report = _load_json(workdir / OUT_DIRS["report"] / "report.json")
    kept = np.union1d(corpus.drawn_ids, np.array(workload.keep, dtype=np.int64)).size
    expected = 1.0 - kept / workload.vocab_size
    problems = []
    if not isinstance(report.get("pr_emb"), float) or abs(report["pr_emb"] - expected) > 1e-12:
        problems.append(f"report.json pr_emb is {report.get('pr_emb')!r}, expected 1 - {kept}/{workload.vocab_size}")
    if report.get("original_vocab") != workload.vocab_size or report.get("reduced_vocab") != kept:
        problems.append("report.json vocabulary sizes do not match the drawn corpus")
    return problems


CHECKS = {"analyze": check_analyze, "prune": check_prune, "restore": check_restore, "report": check_report}


def check_outputs(workdir: Path, workload: Workload, corpus: Corpus, subs=SUBCOMMANDS) -> dict[str, list[str]]:
    """Digest-independent checks of each subcommand's outputs; failures per subcommand."""
    failures = {}
    for sub in subs:
        try:
            problems = CHECKS[sub](workdir, workload, corpus)
        except (OSError, ValueError, TypeError, KeyError, IndexError, AttributeError) as err:
            problems = [f"{OUT_DIRS[sub]} unreadable: {type(err).__name__}: {err}"]
        if problems:
            failures[sub] = problems
    return failures
