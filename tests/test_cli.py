"""End-to-end subcommand behavior: artifacts, determinism, exit codes."""

import contextlib
import errno
import io
import json
import logging
import os
import re
import resource
import struct
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dep import (
    EmbeddingMatrix,
    RemapOrdering,
    RemapTable,
    TokenizedDataset,
    apply_remap,
    build_remap,
    errors,
    formats,
    prune_embeddings,
    restore_embeddings,
    scan_dataset,
)
from dep import cli, vocab
from dep.cli import main

from _strategies import float32_matrices, token_datasets

DATA = Path(__file__).parent / "data"


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def workspace(tmp_path):
    """Vocab-8 fixture: dataset uses ids {1, 3, 5}, embeddings are 8 x 2."""
    rng = np.random.default_rng(41)
    dataset = TokenizedDataset(([1, 3], [5, 1], [3],), 8)
    matrix = EmbeddingMatrix(rng.standard_normal((8, 2)).astype(np.float32))
    dataset_path = tmp_path / "dataset.dept"
    matrix_path = tmp_path / "embeddings.depe"
    formats.write_dataset_binary(dataset, dataset_path)
    formats.write_embeddings(matrix, matrix_path)
    config_path = tmp_path / "toy_config.json"
    config_path.write_text(json.dumps({
        "name": "toy", "vocab_size": 8, "d_model": 2, "num_layers": 1,
        "num_heads": 1, "max_positions": 4, "type_vocab": 1,
    }))
    return tmp_path, dataset, matrix, dataset_path, matrix_path, config_path


class TestAnalyze:
    def test_bundled_fixture(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run("analyze", "--dataset", DATA / "tiny_dataset.txt",
                   "--vocab-size", 6, "--checkpoints", "all", "--out", out)
        assert code == 0
        stats = json.loads((out / "stats.json").read_text())
        assert stats["coverage_ratio"] == 0.5
        assert stats["used_tokens"] == 3
        assert stats["top_tokens"] == [[2, 2], [1, 1], [4, 1]]
        assert stats["unused_tokens"] == [0, 3, 5]
        assert (out / "growth.csv").read_bytes() == b"tokens,unique\n1,1\n2,2\n3,2\n4,3\n"

    def test_empty_dataset(self, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        out = tmp_path / "out"
        assert run("analyze", "--dataset", empty, "--out", out) == 0
        stats = json.loads((out / "stats.json").read_text())
        assert stats["coverage_ratio"] == 0.0
        assert stats["heaps_fit"] is None
        assert (out / "growth.csv").read_text() == "tokens,unique\n"

    def test_corrupt_magic_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.dept"
        bad.write_bytes(b"JUNKJUNKJUNKJUNKJUNKJUNK")
        code = run("analyze", "--dataset", bad, "--out", tmp_path / "out")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("BAD_MAGIC: ")
        assert len(err.strip().splitlines()) == 1

    def test_deterministic_across_partitions(self, tmp_path):
        rng = np.random.default_rng(43)
        dataset = TokenizedDataset(
            tuple(rng.integers(0, 64, size=9).tolist() for _ in range(37)), 64
        )
        path = tmp_path / "data.dept"
        formats.write_dataset_binary(dataset, path)
        outputs = []
        for partitions in (1, 2, 8):
            out = tmp_path / f"out{partitions}"
            assert run("analyze", "--dataset", path, "--partitions", partitions, "--out", out) == 0
            outputs.append((out / "stats.json").read_bytes() + (out / "growth.csv").read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_heaps_fit_reported(self, tmp_path):
        rng = np.random.default_rng(44)
        stream = rng.zipf(1.5, size=4000) % 500
        dataset = TokenizedDataset((stream.tolist(),), 500)
        path = tmp_path / "data.dept"
        formats.write_dataset_binary(dataset, path)
        out = tmp_path / "out"
        assert run("analyze", "--dataset", path, "--out", out) == 0
        fit = json.loads((out / "stats.json").read_text())["heaps_fit"]
        assert fit is not None and fit["k"] > 0 and 0 <= fit["beta"] <= 1


def _dept(vocab_size, num_sequences, body):
    return struct.pack("<4sIQQ", b"DEPT", 1, vocab_size, num_sequences) + body


class TestHostileHeaders:
    """Sizes a header declares are checked before anything that large is allocated."""

    @pytest.mark.parametrize("blob", [
        pytest.param(_dept(2**40, 1, struct.pack("<II", 1, 0)), id="vocab-size-2^40"),
        pytest.param(_dept(8, 2**40, struct.pack("<II", 1, 0)), id="num-sequences-2^40"),
        pytest.param(_dept(8, 1, struct.pack("<III", 2**32 - 1, 1, 2)), id="length-2^32-1"),
    ])
    def test_dataset_header_exits_2(self, tmp_path, capsys, blob):
        path = tmp_path / "hostile.dept"
        path.write_bytes(blob)
        assert run("analyze", "--dataset", path, "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("BAD_FORMAT: ") and len(err.strip()) > len("BAD_FORMAT:")

    def test_embeddings_rows_2_40_exits_2(self, workspace, capsys):
        tmp_path, _, _, _, matrix_path, _ = workspace
        hostile = tmp_path / "hostile.depe"
        hostile.write_bytes(struct.pack("<4sIBQQ", b"DEPE", 1, 1, 2**40, 2) + bytes(16))
        code = run("restore", "--embeddings", matrix_path, "--learned", hostile,
                   "--remap", tmp_path / "unused.json", "--out", tmp_path / "out")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("BAD_FORMAT: ") and len(err.strip()) > len("BAD_FORMAT:")

    @pytest.mark.parametrize("cols", [2**32 + 1, 2**62, 2**64 - 1])
    @pytest.mark.parametrize("command", ["prune", "restore"])
    def test_embeddings_zero_rows_huge_dim_exits_2(self, workspace, capsys, command, cols):
        # With 0 rows an empty body matches any dim.
        tmp_path, _, _, dataset_path, matrix_path, _ = workspace
        hostile = tmp_path / "hostile.depe"
        hostile.write_bytes(struct.pack("<4sIBQQ", b"DEPE", 1, 1, 0, cols))
        argv = {"prune": ["--dataset", dataset_path, "--embeddings", hostile],
                "restore": ["--embeddings", hostile, "--learned", matrix_path, "--remap", tmp_path / "unused.json"]}
        assert run(command, *argv[command], "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert _ERROR_LINE.fullmatch(err) and err.startswith("BAD_FORMAT: embedding dim ")


def _limited_child(argv, limit_bytes):
    """Run ``python argv`` with ``dep`` importable, under an address-space limit that binds only the child."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (limit_bytes, limit_bytes))

    return subprocess.run([sys.executable, *argv], env=env, preexec_fn=limit, capture_output=True, text=True,
                          timeout=60)


_VOCAB_ARRAYS = """
import numpy as np
from dep import RemapTable, VocabTooLarge
from dep.analysis import _first_positions
for name, make in [("dense-id table", lambda: RemapTable(2**32, [0])._forward_lut),
                   ("seen mask", lambda: _first_positions(np.zeros(1, dtype=np.uint32), 2**32))]:
    try:
        make()
    except VocabTooLarge as err:
        print(name, err.code, err.exit_status)
"""


class TestVocabTooLarge:
    """A vocabulary whose per-id arrays cannot be allocated exits 2 with ``VOCAB_TOO_LARGE``, not 1."""

    _LIMIT = 2 * 2**30  # well below the 32 GiB of counts for 2**32 ids

    @pytest.mark.parametrize("command", ["analyze", "prune"])
    def test_cli_exits_2(self, tmp_path, command):
        dataset = tmp_path / "huge.dept"
        dataset.write_bytes(_dept(2**32, 1, struct.pack("<II", 1, 7)))
        argv = ["-m", "dep", command, "--dataset", str(dataset), "--out", str(tmp_path / "out")]
        if command == "prune":  # a sparse 2**32 x 1 matrix: prune only checks its header and size up front
            matrix = tmp_path / "huge.depe"
            matrix.write_bytes(struct.pack("<4sIBQQ", b"DEPE", 1, 1, 2**32, 1))
            os.truncate(matrix, matrix.stat().st_size + 4 * 2**32)
            argv += ["--embeddings", str(matrix)]
        result = _limited_child(argv, self._LIMIT)
        assert result.returncode == 2, result.stderr
        assert result.stderr == ("VOCAB_TOO_LARGE: vocabulary of 4294967296 ids needs more memory "
                                 "than this process can allocate\n")
        assert not (tmp_path / "out").exists()

    def test_dense_id_table_and_seen_mask(self):
        result = _limited_child(["-c", _VOCAB_ARRAYS], self._LIMIT)
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout == "dense-id table VOCAB_TOO_LARGE 2\nseen mask VOCAB_TOO_LARGE 2\n"


class TestBadFlags:
    @pytest.mark.parametrize("command", ["analyze", "prune"])
    @pytest.mark.parametrize("flag", [("--partitions", 0), ("--partitions", -3), ("--vocab-size", -1)],
                             ids=["partitions-0", "partitions-minus-3", "vocab-size-minus-1"])
    def test_rejected_with_exit_2(self, workspace, capsys, command, flag):
        tmp_path, _, _, _, matrix_path, _ = workspace
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        argv = [command, "--dataset", empty, *flag, "--out", tmp_path / "out"]
        if command == "prune":
            argv += ["--embeddings", matrix_path]
        with pytest.raises(SystemExit) as exit_info:
            run(*argv)
        assert exit_info.value.code == 2
        assert f"argument {flag[0]}: expected an integer" in capsys.readouterr().err

    def test_keep_with_non_integer_ids_exits_2(self, workspace, capsys):
        tmp_path, _, _, dataset_path, matrix_path, _ = workspace
        with pytest.raises(SystemExit) as exit_info:
            run("prune", "--dataset", dataset_path, "--embeddings", matrix_path, "--keep", "a,b",
                "--out", tmp_path / "out")
        assert exit_info.value.code == 2
        assert "argument --keep: --keep expects comma-separated integer ids" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value, level", [
    ("info", logging.INFO), ("bogus", logging.WARNING), ("basic_format", logging.WARNING),
], ids=["info", "unknown-name", "logging-attribute-that-is-not-a-level"])
def test_dep_log_level(monkeypatch, value, level):
    monkeypatch.setenv("DEP_LOG", value)
    with mock.patch("logging.basicConfig") as configure:
        cli._configure_logging()
    assert configure.call_args.kwargs["level"] == level


class TestPrune:
    def test_fixture_with_keep_token(self, workspace):
        tmp_path, dataset, matrix, dataset_path, matrix_path, _ = workspace
        out = tmp_path / "out"
        code = run("prune", "--dataset", dataset_path, "--embeddings", matrix_path,
                   "--keep", "0", "--out", out)
        assert code == 0
        pruned = formats.read_embeddings(out / "pruned_embeddings.depe")
        assert pruned.rows == 4  # used {1,3,5} plus keep {0}
        remap = formats.read_remap(out / "remap.json")
        assert remap.inverse.tolist() == [0, 1, 3, 5]
        assert remap.keep_tokens == (0,)
        remapped = formats.read_dataset_binary(out / "pruned_dataset.dept")
        assert remapped.vocab_size == 4
        assert remapped.to_lists() == [[1, 2], [3, 1], [2]]

    def test_identity_case_writes_identical_file(self, tmp_path):
        rng = np.random.default_rng(47)
        matrix = EmbeddingMatrix(rng.standard_normal((5, 3)).astype(np.float32))
        dataset = TokenizedDataset((list(range(5)),), 5)
        dataset_path, matrix_path = tmp_path / "d.dept", tmp_path / "e.depe"
        formats.write_dataset_binary(dataset, dataset_path)
        formats.write_embeddings(matrix, matrix_path)
        out = tmp_path / "out"
        assert run("prune", "--dataset", dataset_path, "--embeddings", matrix_path, "--out", out) == 0
        assert (out / "pruned_embeddings.depe").read_bytes() == matrix_path.read_bytes()

    def test_text_dataset_stays_text(self, workspace):
        tmp_path, dataset, matrix, _, matrix_path, _ = workspace
        text_path = tmp_path / "dataset.txt"
        formats.write_dataset_text(dataset, text_path)
        out = tmp_path / "out_text"
        assert run("prune", "--dataset", text_path, "--embeddings", matrix_path, "--out", out) == 0
        assert (out / "pruned_dataset.txt").exists()

    def test_vocab_disagreement_exits_3(self, workspace, capsys):
        tmp_path, dataset, matrix, dataset_path, _, _ = workspace
        small = tmp_path / "small.depe"
        formats.write_embeddings(EmbeddingMatrix(np.zeros((4, 2), dtype=np.float32)), small)
        code = run("prune", "--dataset", dataset_path, "--embeddings", small,
                   "--out", tmp_path / "out")
        assert code == 3
        assert capsys.readouterr().err.startswith("SHAPE_MISMATCH: ")

    def test_overwrite_protection(self, workspace, capsys):
        tmp_path, _, _, dataset_path, matrix_path, _ = workspace
        out = tmp_path / "out"
        assert run("prune", "--dataset", dataset_path, "--embeddings", matrix_path, "--out", out) == 0
        code = run("prune", "--dataset", dataset_path, "--embeddings", matrix_path, "--out", out)
        assert code == 4
        assert capsys.readouterr().err.startswith("OUTPUT_EXISTS: ")
        assert run("prune", "--dataset", dataset_path, "--embeddings", matrix_path,
                   "--out", out, "--force") == 0

    def test_deterministic_across_partitions(self, workspace):
        tmp_path, _, _, dataset_path, matrix_path, _ = workspace
        blobs = []
        for partitions in (1, 8):
            out = tmp_path / f"o{partitions}"
            assert run("prune", "--dataset", dataset_path, "--embeddings", matrix_path,
                       "--partitions", partitions, "--ordering", "frequency_descending",
                       "--out", out) == 0
            blobs.append(b"".join(
                (out / name).read_bytes()
                for name in ("pruned_embeddings.depe", "remap.json", "pruned_dataset.dept")
            ))
        assert blobs[0] == blobs[1]


class TestRestore:
    def prune_first(self, workspace):
        tmp_path, dataset, matrix, dataset_path, matrix_path, config = workspace
        out = tmp_path / "pruned"
        assert run("prune", "--dataset", dataset_path, "--embeddings", matrix_path, "--out", out) == 0
        return tmp_path, matrix_path, out

    def test_file_level_roundtrip(self, workspace):
        tmp_path, matrix_path, pruned = self.prune_first(workspace)
        out = tmp_path / "restored"
        code = run("restore", "--embeddings", matrix_path,
                   "--learned", pruned / "pruned_embeddings.depe",
                   "--remap", pruned / "remap.json", "--out", out)
        assert code == 0
        assert (out / "restored_embeddings.depe").read_bytes() == matrix_path.read_bytes()

    def test_learned_rows_land_at_original_ids(self, workspace):
        tmp_path, matrix_path, pruned = self.prune_first(workspace)
        learned = formats.read_embeddings(pruned / "pruned_embeddings.depe")
        data = learned.data.copy()
        data[0] = [123.0, -123.0]
        tuned = tmp_path / "tuned.depe"
        formats.write_embeddings(EmbeddingMatrix(data), tuned)
        out = tmp_path / "restored"
        assert run("restore", "--embeddings", matrix_path, "--learned", tuned,
                   "--remap", pruned / "remap.json", "--out", out) == 0
        restored = formats.read_embeddings(out / "restored_embeddings.depe")
        original = formats.read_embeddings(matrix_path)
        assert restored.data[1].tolist() == [123.0, -123.0]  # dense 0 maps back to id 1
        mask = np.ones(8, dtype=bool)
        mask[1] = False
        assert restored.data[mask].tobytes() == original.data[mask].tobytes()

    def test_shape_mismatch_exits_3(self, workspace, capsys):
        tmp_path, matrix_path, pruned = self.prune_first(workspace)
        wrong = tmp_path / "wrong.depe"
        formats.write_embeddings(EmbeddingMatrix(np.zeros((7, 2), dtype=np.float32)), wrong)
        code = run("restore", "--embeddings", matrix_path, "--learned", wrong,
                   "--remap", pruned / "remap.json", "--out", tmp_path / "r")
        assert code == 3
        assert capsys.readouterr().err.startswith("SHAPE_MISMATCH: ")

    def test_remap_inconsistent_exits_3(self, workspace, capsys):
        tmp_path, matrix_path, pruned = self.prune_first(workspace)
        short = tmp_path / "short.depe"
        formats.write_embeddings(EmbeddingMatrix(np.zeros((6, 2), dtype=np.float32)), short)
        code = run("restore", "--embeddings", short,
                   "--learned", pruned / "pruned_embeddings.depe",
                   "--remap", pruned / "remap.json", "--out", tmp_path / "r")
        assert code == 3
        assert capsys.readouterr().err.startswith("REMAP_INCONSISTENT: ")


def _run_quiet(*argv, stdout=None) -> tuple[int, str]:
    """Exit code and stderr of one run (``capsys`` is function-scoped, so Hypothesis tests cannot use it)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(stdout or io.StringIO()):
        code = run(*argv)
    return code, err.getvalue()


def _damage(data, blob: bytes) -> bytes:
    """``blob`` with up to four bytes replaced and an optional truncation, drawn by Hypothesis."""
    damaged = bytearray(blob)
    byte = st.integers(0, 255) | st.sampled_from(b"0123456789-.e[]")
    for index, value in data.draw(st.lists(st.tuples(st.integers(0, len(blob) - 1), byte), max_size=4)):
        damaged[index] = value
    return bytes(damaged[:data.draw(st.just(len(blob)) | st.integers(0, len(blob)))])


def _restore_and_report(matrix_path, pruned, config_path, remap_path, out):
    """Exit code and stderr of ``restore`` and of ``report`` given one remap file."""
    return [
        _run_quiet("restore", "--embeddings", matrix_path, "--learned", pruned / "pruned_embeddings.depe",
                   "--remap", remap_path, "--out", out / "restored", "--force"),
        _run_quiet("report", "--remap", remap_path, "--model-config", config_path,
                   "--out", out / "report", "--force"),
    ]


_ERROR_LINE = re.compile(r"[A-Z_]+: \S.*\n")


@pytest.fixture(scope="module")
def pruned_run(tmp_path_factory):
    """A finished prune of the vocab-8 fixture: (matrix, prune output dir, config, remap bytes)."""
    tmp_path = tmp_path_factory.mktemp("pruned_run")
    dataset_path, matrix_path = tmp_path / "dataset.dept", tmp_path / "embeddings.depe"
    formats.write_dataset_binary(TokenizedDataset(([1, 3], [5, 1], [3]), 8), dataset_path)
    formats.write_embeddings(EmbeddingMatrix(np.ones((8, 2), dtype=np.float32)), matrix_path)
    config_path = tmp_path / "toy_config.json"
    config_path.write_text(json.dumps({"vocab_size": 8, "d_model": 2, "num_layers": 1, "num_heads": 1}))
    pruned = tmp_path / "pruned"
    assert run("prune", "--dataset", dataset_path, "--embeddings", matrix_path, "--out", pruned) == 0
    return matrix_path, pruned, config_path, (pruned / "remap.json").read_bytes()


class TestMalformedRemap:
    """A remap file ``restore`` and ``report`` cannot use exits 2 or 3, never 1."""

    @pytest.mark.parametrize("change", [
        pytest.param(lambda obj: 5, id="top-level-scalar"),
        pytest.param(lambda obj: {**obj, "original_vocab_size": -1}, id="vocab-size-negative"),
        pytest.param(lambda obj: {**obj, "original_vocab_size": "abc"}, id="vocab-size-string"),
        pytest.param(lambda obj: {**obj, "original_vocab_size": 2**40}, id="vocab-size-2^40"),
        pytest.param(lambda obj: {**obj, "pairs": 5}, id="pairs-scalar"),
        pytest.param(lambda obj: {**obj, "pairs": [[1, 0], [3]]}, id="pairs-ragged"),
        pytest.param(lambda obj: {**obj, "pairs": [[1, 0, 0], [3, 1, 1]]}, id="pairs-triples"),
        pytest.param(lambda obj: {**obj, "pairs": [[1.0, 0.0], [3.0, 1.0]]}, id="pairs-floats"),
        pytest.param(lambda obj: {**obj, "pairs": [[2**70, 0]]}, id="pairs-2^70"),
        pytest.param(lambda obj: {**obj, "pairs": [["a", 0]]}, id="pairs-string-id"),
        pytest.param(lambda obj: {**obj, "keep_tokens": ["x"]}, id="keep-tokens-string"),
        pytest.param(lambda obj: {**obj, "original_vocab_size": True}, id="vocab-size-boolean"),
        pytest.param(lambda obj: {**obj, "keep_tokens": [True]}, id="keep-tokens-boolean"),
        pytest.param(lambda obj: {**obj, "pairs": [[True, 0], *obj["pairs"][1:]]}, id="pairs-boolean-id"),
        pytest.param(lambda obj: {**obj, "keep_tokens": [-5]}, id="keep-tokens-negative"),
        pytest.param(lambda obj: {**obj, "keep_tokens": [999999]}, id="keep-tokens-past-vocab"),
        pytest.param(lambda obj: {**obj, "keep_tokens": [7]}, id="keep-tokens-unmapped"),
    ])
    def test_exits_2_or_3(self, pruned_run, tmp_path, change):
        matrix_path, pruned, config_path, blob = pruned_run
        remap_path = tmp_path / "remap.json"
        remap_path.write_text(json.dumps(change(json.loads(blob))))
        for code, err in _restore_and_report(matrix_path, pruned, config_path, remap_path, tmp_path):
            assert code in (2, 3)
            assert _ERROR_LINE.fullmatch(err)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_damaged_file_never_exits_1(self, pruned_run, tmp_path_factory, data):
        matrix_path, pruned, config_path, blob = pruned_run
        out = tmp_path_factory.mktemp("damaged")
        remap_path = out / "remap.json"
        remap_path.write_bytes(_damage(data, blob))
        for code, err in _restore_and_report(matrix_path, pruned, config_path, remap_path, out):
            assert code in (0, 2, 3), err
            assert code == 0 or _ERROR_LINE.fullmatch(err)


@pytest.fixture(scope="module")
def clean_inputs(pruned_run):
    """Every input file of the pruned vocab-8 fixture by name, plus the dataset as text."""
    matrix_path, pruned, config_path, _ = pruned_run
    text_path = matrix_path.parent / "dataset.txt"
    formats.write_dataset_text(formats.read_dataset_binary(matrix_path.parent / "dataset.dept"), text_path)
    return {
        "dataset.dept": matrix_path.parent / "dataset.dept",
        "dataset.txt": text_path,
        "embeddings.depe": matrix_path,
        "learned.depe": pruned / "pruned_embeddings.depe",
        "remap.json": pruned / "remap.json",
        "config.json": config_path,
    }


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


class TestDamagedInputs:
    """Byte damage to any input file exits 0, 2, 3 or 5 with one ``CODE: message`` line, never 1.

    A binary dataset never goes through ``analyze`` and a text one only with ``--vocab-size``:
    a damaged but legal vocabulary size up to 2^32 makes ``analyze`` allocate one counter per id.
    """

    @pytest.mark.parametrize("target, argv", [
        pytest.param("dataset.dept", ["prune", "--dataset", "dataset.dept", "--embeddings", "embeddings.depe"],
                     id="dept-prune"),
        pytest.param("embeddings.depe", ["restore", "--embeddings", "embeddings.depe",
                                         "--learned", "learned.depe", "--remap", "remap.json"],
                     id="depe-restore-embeddings"),
        pytest.param("learned.depe", ["restore", "--embeddings", "embeddings.depe",
                                      "--learned", "learned.depe", "--remap", "remap.json"],
                     id="depe-restore-learned"),
        pytest.param("dataset.txt", ["analyze", "--dataset", "dataset.txt", "--vocab-size", "8"],
                     id="txt-analyze"),
        pytest.param("dataset.txt", ["prune", "--dataset", "dataset.txt", "--embeddings", "embeddings.depe"],
                     id="txt-prune"),
        pytest.param("config.json", ["count-params", "--model-config", "config.json"], id="config-count-params"),
        pytest.param("config.json", ["report", "--remap", "remap.json", "--model-config", "config.json"],
                     id="config-report"),
    ])
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_never_exits_1(self, clean_inputs, tmp_path_factory, target, argv, data):
        out = tmp_path_factory.mktemp("damaged")
        damaged = out / clean_inputs[target].name
        damaged.write_bytes(_damage(data, clean_inputs[target].read_bytes()))
        paths = {**clean_inputs, target: damaged}
        argv = [paths.get(arg, arg) for arg in argv]
        if argv[0] != "count-params":
            argv += ["--out", out / "out"]
        stdout = io.StringIO()
        code, err = _run_quiet(*argv, stdout=stdout)
        assert code in (0, 2, 3, 5), err
        assert code == 0 or _ERROR_LINE.fullmatch(err)
        if code == 0 and argv[0] == "count-params":
            json.loads(stdout.getvalue(), parse_constant=_reject_constant)


class TestInputBoundary:
    @pytest.mark.parametrize("command", ["analyze", "prune"])
    def test_non_utf8_text_dataset_exits_2(self, workspace, capsys, command):
        tmp_path, _, _, _, matrix_path, _ = workspace
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"1 3\n\xff\n")
        argv = [command, "--dataset", bad, "--out", tmp_path / "out"]
        if command == "prune":
            argv += ["--embeddings", matrix_path]
        assert run(*argv) == 2
        assert _ERROR_LINE.fullmatch(err := capsys.readouterr().err) and err.startswith("BAD_FORMAT: ")

    @pytest.mark.parametrize("argv", [
        pytest.param(["analyze", "--dataset", "dir"], id="analyze-dataset"),
        pytest.param(["analyze", "--dataset", "dir.txt"], id="analyze-text-dataset"),
        pytest.param(["prune", "--dataset", "dir", "--embeddings", "embeddings"], id="prune-dataset"),
        pytest.param(["prune", "--dataset", "dataset", "--embeddings", "dir"], id="prune-embeddings"),
        pytest.param(["count-params", "--model-config", "dir"], id="count-params-config"),
    ])
    def test_directory_input_exits_5(self, workspace, capsys, argv):
        tmp_path, _, _, dataset_path, matrix_path, _ = workspace
        paths = {"dataset": dataset_path, "embeddings": matrix_path}
        for name in ("dir", "dir.txt"):
            paths[name] = tmp_path / name
            paths[name].mkdir()
        argv = [paths.get(arg, arg) for arg in argv]
        if argv[0] != "count-params":
            argv += ["--out", tmp_path / "out"]
        assert run(*argv) == 5
        assert _ERROR_LINE.fullmatch(err := capsys.readouterr().err) and err.startswith("MISSING_INPUT: ")

    @pytest.mark.parametrize("argv", [
        pytest.param(["analyze", "--dataset", "bad"], id="analyze-dataset"),
        pytest.param(["analyze", "--dataset", "bad.txt"], id="analyze-text-dataset"),
        pytest.param(["prune", "--dataset", "bad", "--embeddings", "embeddings"], id="prune-dataset"),
        pytest.param(["prune", "--dataset", "dataset", "--embeddings", "bad"], id="prune-embeddings"),
        pytest.param(["restore", "--embeddings", "bad", "--learned", "learned", "--remap", "remap"],
                     id="restore-embeddings"),
        pytest.param(["restore", "--embeddings", "embeddings", "--learned", "bad", "--remap", "remap"],
                     id="restore-learned"),
        pytest.param(["restore", "--embeddings", "embeddings", "--learned", "learned", "--remap", "bad"],
                     id="restore-remap"),
        pytest.param(["report", "--remap", "bad", "--model-config", "config"], id="report-remap"),
        pytest.param(["report", "--remap", "remap", "--model-config", "bad"], id="report-config"),
        pytest.param(["count-params", "--model-config", "bad"], id="count-params-config"),
    ])
    @pytest.mark.parametrize("kind", ["symlink-loop", "long-name"])
    def test_unopenable_input_exits_5(self, pruned_run, tmp_path, capsys, argv, kind):
        matrix_path, pruned, config_path, _ = pruned_run
        paths = {"dataset": matrix_path.parent / "dataset.dept", "embeddings": matrix_path,
                 "learned": pruned / "pruned_embeddings.depe", "remap": pruned / "remap.json",
                 "config": config_path}
        for name in ("bad", "bad.txt"):
            if kind == "symlink-loop":
                paths[name] = tmp_path / name
                paths[name].symlink_to(paths[name])
            else:  # one path component past the usual 255-byte limit
                paths[name] = tmp_path / name.rjust(300, "x")
        argv = [paths.get(arg, arg) for arg in argv]
        if argv[0] != "count-params":
            argv += ["--out", tmp_path / "out"]
        assert run(*argv) == 5
        assert _ERROR_LINE.fullmatch(err := capsys.readouterr().err) and err.startswith("MISSING_INPUT: ")

    @pytest.mark.skipif(not Path("/proc/self/mem").exists(), reason="needs /proc/self/mem")
    def test_read_error_exits_5(self, tmp_path, capsys):
        # Opens fine, but reading offset 0 of the process's own memory fails.
        assert run("analyze", "--dataset", "/proc/self/mem", "--out", tmp_path / "out") == 5
        assert _ERROR_LINE.fullmatch(err := capsys.readouterr().err) and err.startswith("MISSING_INPUT: ")

    def test_fifo_input_exits_5(self, pruned_run, tmp_path):
        # In a child process, so a blocking open fails the test by timing out instead of hanging it.
        _, _, config_path, _ = pruned_run
        fifo = tmp_path / "remap.json"
        os.mkfifo(fifo)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run(
            [sys.executable, "-m", "dep", "report", "--remap", str(fifo), "--model-config", str(config_path),
             "--out", str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=30,
        )
        assert result.returncode == 5
        assert result.stderr == f"MISSING_INPUT: cannot read input file: {fifo} (not a regular file)\n"

    @pytest.mark.skipif(not Path("/dev/null").exists(), reason="needs /dev/null")
    def test_device_input_exits_5(self, capsys):
        assert run("count-params", "--model-config", "/dev/null") == 5
        assert capsys.readouterr().err == "MISSING_INPUT: cannot read input file: /dev/null (not a regular file)\n"

    @pytest.mark.parametrize("text, vocab, expected", [
        pytest.param("1 2\n\n9 99999999999999999999\n", [], "BAD_FORMAT: line 3: ", id="past-int64"),
        pytest.param("1 2\n\n9 99999999999999999999\n", ["--vocab-size", 20], "BAD_FORMAT: line 3: ",
                     id="past-int64-with-vocab-size"),
        pytest.param("1 2\n\n9 4294967296\n", [], "OUT_OF_RANGE_TOKEN: token id 4294967296 at sequence 2, "
                     "position 1 is out of range for vocab_size 4294967296", id="past-u32"),
        *[pytest.param(f"1 2\n{field}\n", [], "BAD_FORMAT: line 2: ", id=name) for field, name in [
            ("9" * 5000, "past-int-max-str-digits"), ("0" * 5000 + "7", "zeros-past-int-max-str-digits"),
            ("-" + "0" * 5000 + "1", "negative-zeros-past-int-max-str-digits")]],
    ])
    def test_huge_text_id_exits_2_with_location(self, tmp_path, capsys, text, vocab, expected):
        path = tmp_path / "x.txt"
        path.write_text(text)
        assert run("analyze", "--dataset", path, *vocab, "--out", tmp_path / "out") == 2
        assert _ERROR_LINE.fullmatch(err := capsys.readouterr().err) and err.startswith(expected)

    def test_internal_error_without_message_names_its_type(self, monkeypatch, capsys):
        def exhausted(path):
            raise MemoryError()

        monkeypatch.setattr(formats, "read_model_config", exhausted)
        assert run("count-params", "--model-config", "cfg.json") == 1
        assert capsys.readouterr().err.endswith("INTERNAL_ERROR: MemoryError\n")

    def test_out_with_long_name_exits_4(self, workspace, capsys):
        tmp_path, _, _, dataset_path, _, _ = workspace
        assert run("analyze", "--dataset", dataset_path, "--out", tmp_path / "out".rjust(300, "x")) == 4
        assert _ERROR_LINE.fullmatch(err := capsys.readouterr().err) and err.startswith("UNWRITABLE_OUTPUT: ")

    def test_non_decimal_text_id_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "x.txt"
        bad.write_text("1_0 +3 \uff13\n", encoding="utf-8")
        assert run("analyze", "--dataset", bad, "--vocab-size", 20, "--out", tmp_path / "out") == 2
        assert _ERROR_LINE.fullmatch(err := capsys.readouterr().err) and err.startswith("BAD_FORMAT: line 1: ")


def test_readme_lists_every_error_code_under_its_exit_status():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    rows = dict(re.findall(r"^\| (\d) \| (.*) \|$", readme, re.M))  # the exit-code table
    error_types = [obj for obj in vars(errors).values()
                   if isinstance(obj, type) and issubclass(obj, errors.DepError) and obj is not errors.DepError]
    assert error_types
    for error_type in error_types:
        assert 2 <= error_type.exit_status <= 5, error_type
        assert f"`{error_type.code}`" in rows[str(error_type.exit_status)], error_type


def _listing(out: Path) -> dict[str, bytes | None]:
    """Every entry under ``out`` with its bytes (``None`` for a directory)."""
    return {path.name: None if path.is_dir() else path.read_bytes() for path in out.iterdir()}


def _fail_second_replace(monkeypatch) -> None:
    """Make the second ``os.replace`` call raise ``OSError``; every other call renames."""
    replace, calls = os.replace, []

    def second_fails(source, target):
        calls.append(target)
        if len(calls) == 2:
            raise OSError("rename refused")
        replace(source, target)

    monkeypatch.setattr(os, "replace", second_fails)


class TestOutputSet:
    """A subcommand replaces its whole output set or none of it."""

    @pytest.fixture()
    def previous(self, workspace):
        """``--out`` holding a finished prune with ``--keep 0``, and the argv of a prune that differs from it."""
        tmp_path, _, _, dataset_path, matrix_path, _ = workspace
        out = tmp_path / "out"
        argv = ["prune", "--dataset", dataset_path, "--embeddings", matrix_path, "--out", out]
        assert run(*argv, "--keep", "0") == 0
        return out, [*argv, "--force"]

    def test_directory_at_output_name_keeps_previous_set(self, previous, capsys):
        out, argv = previous
        (out / "pruned_dataset.dept").unlink()
        (out / "pruned_dataset.dept").mkdir()
        before = _listing(out)
        assert run(*argv) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"UNWRITABLE_OUTPUT: cannot write output: {out / 'pruned_dataset.dept'}")
        assert _listing(out) == before

    def test_failing_writer_keeps_previous_set(self, previous, capsys, monkeypatch):
        out, argv = previous
        before = _listing(out)

        def fail(dataset, path):
            Path(path).write_bytes(b"partial")
            raise OSError("disk full")

        monkeypatch.setattr(formats, "write_dataset", fail)
        assert run(*argv) == 4
        err = capsys.readouterr().err
        assert err == f"UNWRITABLE_OUTPUT: cannot write output: {out / 'pruned_dataset.dept'} (disk full)\n"
        assert _listing(out) == before  # also: no .dep-* staging directory is left

    def test_failing_rename_keeps_previous_set(self, previous, capsys, monkeypatch):
        out, argv = previous
        before = _listing(out)

        def refuse(source, target):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", refuse)
        assert run(*argv) == 4
        err = capsys.readouterr().err
        assert err == f"UNWRITABLE_OUTPUT: cannot write output: {out / 'pruned_dataset.dept'} (rename refused)\n"
        assert _listing(out) == before

    @pytest.mark.parametrize("had_previous", [True, False], ids=["previous-set", "no-previous-set"])
    def test_failing_later_rename_puts_back_earlier_ones(self, previous, capsys, monkeypatch, had_previous):
        """The second rename fails: the first is undone, to the previous file or to no file at all."""
        out, argv = previous
        if not had_previous:
            for entry in out.iterdir():
                entry.unlink()
        before = _listing(out)
        _fail_second_replace(monkeypatch)
        assert run(*argv) == 4
        err = capsys.readouterr().err
        assert err == f"UNWRITABLE_OUTPUT: cannot write output: {out / 'remap.json'} (rename refused)\n"
        assert _listing(out) == before

    def test_refused_link_leaves_that_file_new(self, previous, monkeypatch):
        """Where the filesystem refuses the link, a file renamed before a failure stays the new run's."""
        out, argv = previous
        before = _listing(out)
        monkeypatch.setattr(os, "link", mock.Mock(side_effect=OSError(errno.EPERM, "links refused")))
        _fail_second_replace(monkeypatch)
        assert run(*argv) == 4
        after = _listing(out)
        assert after["pruned_dataset.dept"] != before["pruned_dataset.dept"]
        assert {name: after[name] for name in ("remap.json", "pruned_embeddings.depe")} == \
            {name: before[name] for name in ("remap.json", "pruned_embeddings.depe")}

    @pytest.mark.parametrize("target", ["missing.csv", "growth.csv", "../d"], ids=["dangling", "loop", "to-directory"])
    def test_symlink_at_output_name_is_an_existing_output(self, workspace, capsys, target):
        """A link whose target is missing, a link to itself or a link to a directory is kept without --force and
        replaced with it; the directory it named is left alone."""
        tmp_path, _, _, dataset_path, _, _ = workspace
        out = tmp_path / "out"
        out.mkdir()
        (tmp_path / "d").mkdir()
        link = out / "growth.csv"
        link.symlink_to(target)
        argv = ["analyze", "--dataset", dataset_path, "--out", out]
        assert run(*argv) == 4
        assert capsys.readouterr().err == f"OUTPUT_EXISTS: output already exists (use --force to overwrite): {link}\n"
        assert [entry.name for entry in out.iterdir()] == ["growth.csv"]
        assert os.readlink(link) == target
        assert run(*argv, "--force") == 0
        assert not link.is_symlink()
        assert link.read_bytes().startswith(b"tokens,unique\n")
        assert list((tmp_path / "d").iterdir()) == []

    def test_interrupted_writer_keeps_previous_set(self, previous, monkeypatch):
        out, argv = previous
        before = _listing(out)

        def interrupt(dataset, path):
            Path(path).write_bytes(b"partial")
            raise KeyboardInterrupt

        monkeypatch.setattr(formats, "write_dataset", interrupt)
        with pytest.raises(KeyboardInterrupt):
            run(*argv)
        assert _listing(out) == before

    @pytest.mark.parametrize("subcommand", ["analyze", "prune"])
    def test_text_dataset_growing_between_its_two_reads_keeps_previous_set(self, workspace, capsys, monkeypatch,
                                                                           subcommand):
        """The text reader counts in its first read; a line appended before the second exits 2, and nothing is
        written past the ids the first read allocated."""
        tmp_path, dataset, _, _, matrix_path, _ = workspace
        text_path, out = tmp_path / "dataset.txt", tmp_path / "out"
        formats.write_dataset_text(dataset, text_path)
        argv = [subcommand, "--dataset", text_path, "--out", out, "--force"]
        if subcommand == "prune":
            argv += ["--embeddings", matrix_path]
        assert run(*argv) == 0
        before = _listing(out)
        capsys.readouterr()
        blocks, reads = formats._line_blocks, []

        def grow_before_second_read(handle):
            reads.append(handle)
            if len(reads) == 2:
                with open(text_path, "ab") as growing:
                    growing.write(b"1 3 5\n")
            return blocks(handle)

        monkeypatch.setattr(formats, "_line_blocks", grow_before_second_read)
        assert run(*argv) == 2
        assert capsys.readouterr().err == f"BAD_FORMAT: text dataset {text_path} changed while it was read\n"
        assert _listing(out) == before

    def test_successful_runs_write_exactly_the_documented_files(self, workspace):
        tmp_path, dataset, _, dataset_path, matrix_path, config_path = workspace
        text_path = tmp_path / "dataset.txt"
        formats.write_dataset_text(dataset, text_path)
        p, t = tmp_path / "p", tmp_path / "t"
        runs = {
            ("analyze", "--dataset", dataset_path, "--out", tmp_path / "a"): ["growth.csv", "stats.json"],
            ("prune", "--dataset", dataset_path, "--embeddings", matrix_path, "--out", p):
                ["pruned_dataset.dept", "pruned_embeddings.depe", "remap.json"],
            ("prune", "--dataset", text_path, "--embeddings", matrix_path, "--out", t):
                ["pruned_dataset.txt", "pruned_embeddings.depe", "remap.json"],
            ("restore", "--embeddings", matrix_path, "--learned", p / "pruned_embeddings.depe",
             "--remap", p / "remap.json", "--out", tmp_path / "r"): ["restored_embeddings.depe"],
            ("report", "--remap", p / "remap.json", "--model-config", config_path, "--out", tmp_path / "rep"):
                ["report.json"],
        }
        for argv, names in runs.items():
            assert run(*argv) == 0
            assert sorted(path.name for path in argv[-1].iterdir()) == names


# Ways the 8 x 2 fixture matrix can change after open_embeddings validated it, with the exit that follows.
_CHANGES_AFTER_VALIDATION = [
    pytest.param(lambda path: path.write_bytes(path.read_bytes()[:-1]), 2, "BAD_FORMAT", id="truncated"),
    pytest.param(lambda path: path.write_bytes(path.read_bytes()[:-4]), 2, "BAD_FORMAT", id="one-value-short"),
    pytest.param(lambda path: formats.write_embeddings(EmbeddingMatrix(np.zeros((4, 4), dtype=np.float32)), path),
                 2, "BAD_FORMAT", id="same-size-other-shape"),
    pytest.param(lambda path: formats.write_embeddings(EmbeddingMatrix(np.ones((16, 2), dtype=np.float32)), path),
                 2, "BAD_FORMAT", id="more-rows-same-dim"),
    pytest.param(Path.unlink, 5, "MISSING_INPUT", id="deleted"),
]


def _change_after_validation(monkeypatch, change) -> None:
    """Make ``formats.open_embeddings`` apply ``change`` to the file right after validating it."""
    validate = formats.open_embeddings

    def validate_then_change(path):
        base = validate(path)
        change(Path(path))
        return base

    monkeypatch.setattr(formats, "open_embeddings", validate_then_change)


@st.composite
def _restore_inputs(draw):
    """(original, learned, remap): remaps are empty, identity, ascending, or any permutation of any subset."""
    rows, dim = draw(st.integers(0, 40)), draw(st.integers(1, 5))
    subset = draw(st.lists(st.integers(0, rows - 1), unique=True)) if rows else []
    inverse = draw(st.sampled_from([[], list(range(rows)), sorted(subset), subset]))
    remap = RemapTable(rows, inverse)
    return draw(float32_matrices(rows, dim)), draw(float32_matrices(len(inverse), dim)), remap


class TestStreamedRestore:
    """``restore`` copies the original file and writes only the learned rows, with the in-memory result's bytes."""

    @settings(max_examples=150, deadline=None)
    @given(inputs=_restore_inputs())
    def test_matches_in_memory_restore(self, tmp_path_factory, inputs):
        original, learned, remap = inputs
        work = tmp_path_factory.mktemp("streamed")
        formats.write_embeddings(original, work / "original.depe")
        formats.write_embeddings(learned, work / "learned.depe")
        formats.write_remap(remap, work / "remap.json")
        formats.write_embeddings(restore_embeddings(original, learned, remap), work / "expected.depe")
        expected = (work / "expected.depe").read_bytes()
        rest = ["--learned", work / "learned.depe", "--remap", work / "remap.json", "--out", work / "out"]
        code, err = _run_quiet("restore", "--embeddings", work / "original.depe", *rest)
        assert (code, err) == (0, "")
        target = work / "out" / "restored_embeddings.depe"
        assert target.read_bytes() == expected
        # The original may be the very file that --force replaces.
        target.write_bytes((work / "original.depe").read_bytes())
        assert _run_quiet("restore", "--embeddings", target, *rest, "--force") == (0, "")
        assert target.read_bytes() == expected

    @pytest.mark.parametrize("change, code, error", _CHANGES_AFTER_VALIDATION)
    def test_original_changed_after_validation_keeps_previous_set(self, workspace, capsys, monkeypatch,
                                                                  change, code, error):
        tmp_path, _, _, dataset_path, matrix_path, _ = workspace
        pruned, out = tmp_path / "pruned", tmp_path / "restored"
        assert run("prune", "--dataset", dataset_path, "--embeddings", matrix_path, "--out", pruned) == 0
        argv = ["restore", "--embeddings", matrix_path, "--learned", pruned / "pruned_embeddings.depe",
                "--remap", pruned / "remap.json", "--out", out, "--force"]
        assert run(*argv) == 0
        before = _listing(out)
        capsys.readouterr()
        _change_after_validation(monkeypatch, change)
        assert run(*argv) == code
        err = capsys.readouterr().err
        assert _ERROR_LINE.fullmatch(err) and err.startswith(f"{error}: ")
        assert _listing(out) == before

    def test_failed_write_of_the_copy_is_the_output_error(self, workspace, capsys, monkeypatch):
        """The original is read while the copy is written; a write error there still names the output, exit 4."""
        tmp_path, _, _, dataset_path, matrix_path, _ = workspace
        pruned, out = tmp_path / "pruned", tmp_path / "restored"
        assert run("prune", "--dataset", dataset_path, "--embeddings", matrix_path, "--out", pruned) == 0
        argv = ["restore", "--embeddings", matrix_path, "--learned", pruned / "pruned_embeddings.depe",
                "--remap", pruned / "remap.json", "--out", out]

        def disk_full(*args):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(os, "sendfile", disk_full)
        assert run(*argv) == 4
        err = capsys.readouterr().err
        assert _ERROR_LINE.fullmatch(err) and err.startswith("UNWRITABLE_OUTPUT: ") and str(out) in err
        assert _listing(out) == {}

    @pytest.mark.parametrize("piece_rows", [1, 2, 3, 7, None], ids=["1", "2", "3", "7", "whole"])
    @settings(max_examples=40, deadline=None)
    @given(inputs=_restore_inputs())
    def test_learned_rows_in_pieces_match_in_memory_restore(self, tmp_path_factory, piece_rows, inputs):
        """With a block of ``dim * k`` values, ``restore`` reads the learned file in pieces of ``k`` rows, the last
        shorter, and writes the in-memory result's bytes; the library writes the same from either side as a file."""
        original, learned, remap = inputs
        k = piece_rows or max(1, learned.rows)  # None: the whole matrix is one piece
        work = tmp_path_factory.mktemp("pieces")
        paths = {name: work / f"{name}.depe" for name in ("original", "learned", "expected", "copy", "from_matrix")}
        formats.write_embeddings(original, paths["original"])
        formats.write_embeddings(learned, paths["learned"])
        formats.write_remap(remap, work / "remap.json")
        formats.write_embeddings(restore_embeddings(original, learned, remap), paths["expected"])
        pieces = []

        def read_piece(path, rows=None, _read=formats.read_embeddings):
            pieces.append(len(rows))
            return _read(path, rows=rows)

        with mock.patch.object(vocab, "_BLOCK", learned.dim * k), \
                mock.patch.object(formats, "read_embeddings", side_effect=read_piece):
            code, err = _run_quiet("restore", "--embeddings", paths["original"], "--learned", paths["learned"],
                                   "--remap", work / "remap.json", "--out", work / "out")
            learned_file = formats.open_embeddings(paths["learned"])
            formats.write_embeddings(restore_embeddings(original, learned_file, remap), paths["from_matrix"])
        assert (code, err) == (0, "")
        assert pieces == ([k] * (learned.rows // k) + [learned.rows % k] * bool(learned.rows % k)) * 2  # CLI, library
        expected = paths["expected"].read_bytes()
        assert (work / "out" / "restored_embeddings.depe").read_bytes() == expected
        assert paths["from_matrix"].read_bytes() == expected
        formats.write_embeddings(formats.open_embeddings(paths["original"]), paths["copy"])
        assert paths["copy"].read_bytes() == paths["original"].read_bytes()

    @pytest.fixture()
    def learned_run(self, workspace):
        """A finished restore of 8 x 2 learned rows through a permuted remap of all 8 ids: (argv, learned, out)."""
        tmp_path = workspace[0]
        rng = np.random.default_rng(43)
        learned_path, remap_path, out = tmp_path / "learned.depe", tmp_path / "remap.json", tmp_path / "restored"
        formats.write_embeddings(EmbeddingMatrix(rng.standard_normal((8, 2)).astype(np.float32)), learned_path)
        formats.write_remap(RemapTable(8, rng.permutation(8)), remap_path)
        argv = ["restore", "--embeddings", workspace[4], "--learned", learned_path, "--remap", remap_path,
                "--out", out, "--force"]
        assert run(*argv) == 0
        return argv, learned_path, out

    @pytest.mark.parametrize("change, code, error", _CHANGES_AFTER_VALIDATION)
    def test_learned_changed_after_validation_keeps_previous_set(self, learned_run, capsys, monkeypatch,
                                                                 change, code, error):
        argv, learned, out = learned_run
        before = _listing(out)
        capsys.readouterr()

        def change_learned(path):
            if path == learned:
                change(path)

        _change_after_validation(monkeypatch, change_learned)
        assert run(*argv) == code
        err = capsys.readouterr().err
        assert _ERROR_LINE.fullmatch(err) and err.startswith(f"{error}: ")
        assert _listing(out) == before

    def test_failed_write_of_a_learned_piece_is_the_output_error(self, learned_run, capsys, monkeypatch):
        argv, _, out = learned_run
        before = _listing(out)
        capsys.readouterr()

        def disk_full(*args):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(os, "pwrite", disk_full)
        assert run(*argv) == 4
        err = capsys.readouterr().err
        assert _ERROR_LINE.fullmatch(err) and err.startswith("UNWRITABLE_OUTPUT: ") and str(out) in err
        assert _listing(out) == before


@st.composite
def _prune_inputs(draw):
    """(dataset, matrix, ordering, keep ids) with a raw-bit matrix of the dataset's vocabulary size."""
    dataset = draw(token_datasets(max_vocab=40))
    keep = draw(st.lists(st.integers(0, dataset.vocab_size - 1), unique=True, max_size=4))
    matrix = draw(float32_matrices(dataset.vocab_size, draw(st.integers(1, 4))))
    return dataset, matrix, draw(st.sampled_from(list(RemapOrdering))), keep


class TestStreamedPrune:
    """``prune`` validates the matrix first and reads only the kept rows, last, with the in-memory result's bytes."""

    @settings(max_examples=100, deadline=None)
    @given(inputs=_prune_inputs())
    def test_matches_in_memory_prune(self, tmp_path_factory, inputs):
        dataset, matrix, ordering, keep = inputs
        work = tmp_path_factory.mktemp("streamed")
        formats.write_dataset(dataset, work / "dataset.dept")
        formats.write_embeddings(matrix, work / "embeddings.depe")
        remap = build_remap(scan_dataset(dataset), ordering, keep)
        expected = work / "expected"
        expected.mkdir()
        formats.write_embeddings(prune_embeddings(formats.read_embeddings(work / "embeddings.depe"), remap),
                                 expected / "pruned_embeddings.depe")
        formats.write_remap(remap, expected / "remap.json")
        formats.write_dataset(apply_remap(dataset, remap), expected / "pruned_dataset.dept")
        code, err = _run_quiet("prune", "--dataset", work / "dataset.dept", "--embeddings", work / "embeddings.depe",
                               "--ordering", ordering.value, "--keep", ",".join(map(str, keep)), "--out", work / "out")
        assert (code, err) == (0, "")
        assert _listing(work / "out") == _listing(expected)

    @pytest.mark.parametrize("change, code, error", _CHANGES_AFTER_VALIDATION)
    def test_matrix_changed_after_validation_keeps_previous_set(self, workspace, capsys, monkeypatch,
                                                                change, code, error):
        tmp_path, _, _, dataset_path, matrix_path, _ = workspace
        out = tmp_path / "pruned"
        argv = ["prune", "--dataset", dataset_path, "--embeddings", matrix_path, "--out", out, "--force"]
        assert run(*argv) == 0
        before = _listing(out)
        capsys.readouterr()
        _change_after_validation(monkeypatch, change)
        assert run(*argv) == code
        err = capsys.readouterr().err
        assert _ERROR_LINE.fullmatch(err) and err.startswith(f"{error}: ")
        assert _listing(out) == before

    def test_row_read_failing_after_the_dataset_was_written_keeps_previous_set(self, workspace, capsys,
                                                                                monkeypatch):
        """The dataset is written before the kept rows are read; a row read that then fails keeps its own exit."""
        tmp_path, _, _, dataset_path, matrix_path, _ = workspace
        out = tmp_path / "pruned"
        argv = ["prune", "--dataset", dataset_path, "--embeddings", matrix_path, "--out", out, "--force"]
        assert run(*argv) == 0
        before = _listing(out)
        capsys.readouterr()
        calls = []
        for name in ("write_dataset", "read_embeddings"):
            def record(*args, _name=name, _original=getattr(formats, name), **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(formats, name, record)
        change, code, error = _CHANGES_AFTER_VALIDATION[-1].values  # the matrix is deleted: exit 5
        _change_after_validation(monkeypatch, change)
        assert run(*argv) == code
        err = capsys.readouterr().err
        assert _ERROR_LINE.fullmatch(err) and err.startswith(f"{error}: ")
        assert calls == ["write_dataset", "read_embeddings"]
        assert _listing(out) == before and not list(out.glob(".dep-*"))

    def test_peak_allocation_is_below_the_matrix(self, tmp_path):
        """With 1% of ids used, prune allocates far less than the matrix payload: it never holds the whole matrix."""
        rows, dim = 50_000, 64
        rng = np.random.default_rng(11)
        used = rng.choice(rows, size=rows // 100, replace=False)
        dataset_path, matrix_path = tmp_path / "d.dept", tmp_path / "e.depe"
        formats.write_dataset(TokenizedDataset((used.tolist(),), rows), dataset_path)
        formats.write_embeddings(EmbeddingMatrix(rng.standard_normal((rows, dim)).astype(np.float32)), matrix_path)
        tracemalloc.start()
        try:
            code, err = _run_quiet("prune", "--dataset", dataset_path, "--embeddings", matrix_path,
                                   "--out", tmp_path / "out")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, err) == (0, "")
        assert peak < rows * dim * 4


class TestReport:
    def test_published_wnli_scale_cell(self, tmp_path):
        remap_obj = {
            "original_vocab_size": 30522,
            "ordering": "ascending_id",
            "keep_tokens": [],
            "pairs": [[i, i] for i in range(1736)],
        }
        remap_path = tmp_path / "remap.json"
        remap_path.write_text(json.dumps(remap_obj))
        config_path = Path(__file__).resolve().parents[1] / "configs" / "bert_base.json"
        out = tmp_path / "out"
        assert run("report", "--remap", remap_path, "--model-config", config_path, "--out", out) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["pr_emb_pct"] == 94.3
        assert abs(report["pr_emb"] - (1 - 1736 / 30522)) < 1e-12
        assert report["pr_all_pct"] == pytest.approx(20.2, abs=0.2)

    def test_identity_remap_all_zero(self, workspace):
        tmp_path, _, _, dataset_path, matrix_path, config_path = workspace
        pruned = tmp_path / "pruned"
        # All ids used: remap is the identity.
        full = TokenizedDataset((list(range(8)),), 8)
        full_path = tmp_path / "full.dept"
        formats.write_dataset_binary(full, full_path)
        assert run("prune", "--dataset", full_path, "--embeddings", matrix_path, "--out", pruned) == 0
        out = tmp_path / "report"
        assert run("report", "--remap", pruned / "remap.json",
                   "--model-config", config_path, "--out", out) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["pr_emb"] == 0.0
        assert report["pr_all"] == 0.0
        assert report["bytes_saved"] == 0

    def test_report_validates_against_schema(self, workspace):
        jsonschema = pytest.importorskip("jsonschema")
        from importlib import resources

        tmp_path, _, _, dataset_path, matrix_path, config_path = workspace
        pruned = tmp_path / "pruned"
        assert run("prune", "--dataset", dataset_path, "--embeddings", matrix_path, "--out", pruned) == 0
        out = tmp_path / "report"
        assert run("report", "--remap", pruned / "remap.json",
                   "--model-config", config_path, "--out", out) == 0
        schema = json.loads(resources.files("dep").joinpath("report_schema.json").read_text())
        jsonschema.validate(json.loads((out / "report.json").read_text()), schema)

    def test_missing_input_exits_5(self, tmp_path, capsys):
        code = run("report", "--remap", tmp_path / "nope.json",
                   "--model-config", tmp_path / "nope2.json", "--out", tmp_path / "out")
        assert code == 5
        assert capsys.readouterr().err.startswith("MISSING_INPUT: ")

    def test_config_vocab_mismatch_exits_3(self, workspace, capsys):
        tmp_path, _, _, dataset_path, matrix_path, _ = workspace
        pruned = tmp_path / "pruned"
        assert run("prune", "--dataset", dataset_path, "--embeddings", matrix_path, "--out", pruned) == 0
        config_path = tmp_path / "othercfg.json"
        config_path.write_text(json.dumps({
            "vocab_size": 999, "d_model": 2, "num_layers": 1, "num_heads": 1,
        }))
        code = run("report", "--remap", pruned / "remap.json",
                   "--model-config", config_path, "--out", tmp_path / "out")
        assert code == 3
        assert capsys.readouterr().err.startswith("INCONSISTENT_INPUTS: ")

    def test_byte_identical_with_source_date_epoch(self, workspace, monkeypatch):
        tmp_path, _, _, dataset_path, matrix_path, config_path = workspace
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        pruned = tmp_path / "pruned"
        assert run("prune", "--dataset", dataset_path, "--embeddings", matrix_path, "--out", pruned) == 0
        blobs = []
        for attempt in range(2):
            out = tmp_path / f"report{attempt}"
            assert run("report", "--remap", pruned / "remap.json",
                       "--model-config", config_path, "--out", out) == 0
            blobs.append((out / "report.json").read_bytes())
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("epoch", ["abc", "1e3", "", "99999999999999999999", "1_7", " 17 ", "+17", "-5",
                                       "\u0661\u0667"],
                             ids=["word", "float", "empty", "past-time_t", "underscore", "spaces", "plus", "negative",
                                  "arabic-indic-digits"])
    def test_malformed_source_date_epoch_is_bad_format(self, workspace, monkeypatch, capsys, epoch):
        tmp_path, _, _, dataset_path, matrix_path, config_path = workspace
        pruned = tmp_path / "pruned"
        assert run("prune", "--dataset", dataset_path, "--embeddings", matrix_path, "--out", pruned) == 0
        capsys.readouterr()
        monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
        out = tmp_path / "report"
        assert run("report", "--remap", pruned / "remap.json", "--model-config", config_path, "--out", out) == 2
        assert capsys.readouterr().err == f"BAD_FORMAT: SOURCE_DATE_EPOCH {epoch!r} is not a timestamp in whole seconds\n"
        assert not out.exists()


class TestCountParams:
    def test_prints_accounting(self, capsys):
        config_path = Path(__file__).resolve().parents[1] / "configs" / "bert_base.json"
        assert run("count-params", "--model-config", config_path) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_total"] == 109_482_240
        assert payload["n_emb"] == 23_440_896
        assert payload["poep_pct"] == 21.4
        assert sum(payload["breakdown"].values()) == payload["n_total"]


_TOY_CONFIG = {"vocab_size": "8", "d_model": "2", "num_layers": "1", "num_heads": "1"}  # JSON literals


class TestModelConfigTypes:
    """A config field of the wrong JSON type, or an integer out of range, exits 2 before any count is printed."""

    @pytest.mark.parametrize("key, literal", [
        ("vocab_size", "1e400"), ("vocab_size", "8.5"), ("vocab_size", "true"), ("d_model", "2.0"),
        ("num_layers", '"1"'), ("num_heads", "false"), ("ffn_dim", "8.0"), ("max_positions", '"4"'),
        ("type_vocab", "null"), ("has_pooler", '"no"'), ("has_pooler", "0"), ("name", "5"), ("num_layers", "-1"),
    ])
    def test_wrong_type_exits_2(self, tmp_path, capsys, key, literal):
        path = tmp_path / "cfg.json"
        fields = {**_TOY_CONFIG, key: literal}
        path.write_text("{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}")
        assert run("count-params", "--model-config", path) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert _ERROR_LINE.fullmatch(captured.err) and captured.err.startswith("BAD_FORMAT: ")


class TestPipeline:
    def test_full_pipeline_under_five_seconds(self, workspace):
        tmp_path, _, _, dataset_path, matrix_path, config_path = workspace
        start = time.monotonic()
        assert run("analyze", "--dataset", dataset_path, "--out", tmp_path / "a") == 0
        assert run("prune", "--dataset", dataset_path, "--embeddings", matrix_path,
                   "--out", tmp_path / "p") == 0
        assert run("restore", "--embeddings", matrix_path,
                   "--learned", tmp_path / "p" / "pruned_embeddings.depe",
                   "--remap", tmp_path / "p" / "remap.json", "--out", tmp_path / "r") == 0
        assert run("report", "--remap", tmp_path / "p" / "remap.json",
                   "--model-config", config_path, "--out", tmp_path / "rep") == 0
        assert time.monotonic() - start < 5.0


def test_prune_does_not_import_numpy_ma(workspace):
    """``np.union1d`` imports ``numpy.ma`` on first use, about 1.5 MiB of RSS; ``prune`` builds its remap without it."""
    tmp_path, _, _, dataset_path, matrix_path, _ = workspace
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    loaded = "print('numpy.ma' in sys.modules, file=sys.stderr)"
    numpy_alone = subprocess.run([sys.executable, "-c", f"import sys, numpy; {loaded}"], env=env,
                                 capture_output=True, text=True, timeout=60)
    if numpy_alone.stderr == "True\n":
        pytest.skip("importing numpy alone loads numpy.ma")
    argv = ["prune", "--dataset", dataset_path, "--embeddings", matrix_path, "--keep", "0,7", "--out", tmp_path / "out"]
    result = subprocess.run([sys.executable, "-c", f"import sys; from dep.cli import main; code = main(); {loaded}; "
                             "sys.exit(code)", *map(str, argv)], env=env, capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stderr) == (0, "False\n")
