"""Every kill point of an output set: a subcommand killed outright at any call of an OS boundary of its write path
leaves ``--out`` with its previous set or its new one, and a ``--force`` rerun then writes the new set.

Each run is a child interpreter, not a fork: numpy's threads make a fork of this process unsafe. The child wraps
every boundary to count its calls, and SIGKILLs itself at the k-th call of one, for every k up to the number of
calls a whole run makes. So every kill point is exact, without sleeps.
"""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dep import EmbeddingMatrix, TokenizedDataset, formats
from dep.cli import main

ROOT = Path(__file__).resolve().parents[1]

# argv: the boundary to kill at, its call number (0: none), then the subcommand's argv. The child prints the
# calls of every boundary so far as JSON, when it kills itself or when the run ends.
_CHILD = """
import json, os, shutil, signal, sys, tempfile
from dep import cli, formats

target, k = sys.argv[1], int(sys.argv[2])
calls = {}

def patch(owner, name):
    original = getattr(owner, name)

    def boundary(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        if name == target and calls[name] == k:
            print(json.dumps(calls), flush=True)
            os.kill(os.getpid(), signal.SIGKILL)
        return original(*args, **kwargs)

    setattr(owner, name, boundary)

for owner, name in [(tempfile, "mkdtemp"), (formats, "_write"), (os, "sendfile"), (os, "pwrite"), (os, "link"),
                    (os, "replace"), (shutil, "rmtree")]:
    patch(owner, name)
status = cli.main(sys.argv[3:])
print(json.dumps(calls), flush=True)
sys.exit(status)
"""


def _child(target: str, k: int, argv: list) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", _CHILD, target, str(k), *map(str, argv)],
                          env=env, capture_output=True, text=True, timeout=60)


def _state(out: Path) -> tuple[dict[str, bytes], list[Path]]:
    """The output files under ``out`` with their bytes, and its ``.dep-*`` staging directories."""
    entries = list(out.iterdir()) if out.exists() else []
    stages = [entry for entry in entries if entry.name.startswith(".dep-")]
    return {entry.name: entry.read_bytes() for entry in entries if entry not in stages}, stages


def _set_up(out: Path, previous: dict[str, bytes]) -> None:
    """``out`` holding the ``previous`` set; with none, no ``out`` at all."""
    if previous:
        out.mkdir()
    for name, data in previous.items():
        (out / name).write_bytes(data)


@pytest.fixture()
def runs(tmp_path, monkeypatch):
    """For each subcommand, the argv of a previous run and of a new run, each missing its ``--out``."""
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")  # the same report bytes in this process and a child
    rng = np.random.default_rng(7)
    for name, rows in [("old.txt", ([1, 3], [5, 1], [3])), ("new.txt", ([2], [4, 4, 2], [], [7, 0]))]:
        formats.write_dataset_text(TokenizedDataset(rows, 8), tmp_path / name)
    matrix = tmp_path / "embeddings.depe"
    formats.write_embeddings(EmbeddingMatrix(rng.standard_normal((8, 2)).astype(np.float32)), matrix)
    prunes = [["prune", "--dataset", tmp_path / name, "--embeddings", matrix] for name in ("old.txt", "new.txt")]
    remaps = []
    for argv, name in zip(prunes, ("pruned", "pruned-new")):
        assert main([*map(str, argv), "--out", str(tmp_path / name)]) == 0
        remaps.append(tmp_path / name / "remap.json")
    for name in ("old.depe", "new.depe"):  # the 3 learned rows land at ids 1, 3 and 5: three runs
        formats.write_embeddings(EmbeddingMatrix(rng.standard_normal((3, 2)).astype(np.float32)), tmp_path / name)
    config = tmp_path / "model.json"
    config.write_text(json.dumps({"vocab_size": 8, "d_model": 2, "num_layers": 1, "num_heads": 1}))
    return {
        "analyze": [["analyze", "--dataset", tmp_path / name] for name in ("old.txt", "new.txt")],
        "restore": [["restore", "--embeddings", matrix, "--remap", remaps[0], "--learned", tmp_path / name]
                    for name in ("old.depe", "new.depe")],
        "prune": prunes,
        "report": [["report", "--remap", remap, "--model-config", config] for remap in remaps],
    }


@pytest.mark.parametrize("had_previous", [True, False], ids=["previous-set", "no-previous-set"])
@pytest.mark.parametrize("subcommand", ["analyze", "restore", "prune", "report"])
def test_every_kill_point_leaves_the_previous_or_the_new_set(tmp_path, runs, subcommand, had_previous):
    """A set mixing previous and new files is allowed only for a kill after the first rename and before the
    last."""
    old_argv, new_argv = runs[subcommand]
    sets = []
    for argv, name in [(old_argv, "old-set"), (new_argv, "new-set")]:
        assert main([*map(str, argv), "--out", str(tmp_path / name)]) == 0
        sets.append(_state(tmp_path / name)[0])
    previous, new = sets if had_previous else ({}, sets[1])

    out = tmp_path / "whole"
    _set_up(out, previous)
    whole = _child("", 0, [*new_argv, "--out", out, "--force"])
    assert whole.returncode == 0, whole.stderr
    assert _state(out) == (new, [])
    totals = json.loads(whole.stdout.splitlines()[-1])
    assert totals["replace"] == len(new) and totals["mkdtemp"] == 1

    for target, total in totals.items():
        for k in range(1, total + 1):
            out = tmp_path / f"{target}-{k}"
            _set_up(out, previous)
            argv = [*new_argv, "--out", out, "--force"]
            killed = _child(target, k, argv)
            assert killed.returncode == -signal.SIGKILL, (target, k, killed.stderr)
            calls = json.loads(killed.stdout.splitlines()[-1])
            replaced = calls.get("replace", 0) - (target == "replace")
            files, stages = _state(out)
            assert len(stages) <= 1 and all(stage.is_dir() for stage in stages), (target, k)
            if 0 < replaced < totals["replace"]:
                assert set(files) <= set(new), (target, k)
                assert all(data in (previous.get(name), new[name]) for name, data in files.items()), (target, k)
            else:
                assert files in (previous, new), (target, k)
            assert main([*map(str, argv)]) == 0
            assert _state(out)[0] == new, (target, k)
