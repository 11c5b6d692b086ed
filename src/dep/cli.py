"""Command line pipeline: analyze, prune, restore, report, count-params.

Every subcommand is deterministic: identical input bytes and flags produce
identical output bytes, including across different ``--partitions`` values
(report timestamps honor SOURCE_DATE_EPOCH). Errors print a single
``CODE: message`` line on stderr; exit codes are a stable contract:

    0  success
    1  internal error
    2  input parse or validation failure
    3  shape or consistency mismatch
    4  output exists (no --force) or is unwritable
    5  missing or unreadable input

Set ``DEP_LOG=debug|info|warning|error`` to control log verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import re
import shutil
import sys
import tempfile
from functools import partial
from pathlib import Path

from . import formats
from .analysis import coverage_ratio, find_unused_tokens, fit_heaps, growth_curve
from .embeddings import prune_embeddings, restore_embeddings
from .errors import (
    DegenerateFit,
    DepError,
    InconsistentInputs,
    InsufficientPoints,
    OutputExists,
    RemapInconsistent,
    ShapeMismatch,
    UnwritableOutput,
)
from .metrics import count_params, param_breakdown, report_from_counts
from .vocab import RemapOrdering, apply_remap, build_remap, scan_dataset_parallel

log = logging.getLogger("dep")

EXIT_OK = 0
EXIT_INTERNAL = 1


def _write_outputs(args: argparse.Namespace, outputs: dict) -> None:
    """Commit a subcommand's whole output set ``{name: (writer, payload)}`` or none of it.

    Every name is checked before anything is written. Each file is written
    under its own name into one staging directory inside ``--out`` and
    renamed into place only once all of them are written, so a failed run
    leaves the previous set untouched. Before each rename the previous file,
    if any, is hard-linked into the stage; if a later rename fails, the
    earlier ones are undone from those links. A file whose link the
    filesystem refuses stays the new run's.

    A payload may be a producer, called with no arguments just before its
    write. The files are written in ``outputs`` order, and each entry is
    taken out of ``outputs`` and let go once its file is written, so a
    large payload is freed before the next one is made. Only an ``OSError``
    of a writer is an output error; a producer's errors are its own.
    """
    paths = [args.out / name for name in outputs]
    try:
        for path in paths:
            if os.path.lexists(path) and not args.force:
                raise OutputExists(path)
            if path.is_dir() and not path.is_symlink():  # a link is replaced, not its target
                raise UnwritableOutput(path, "is a directory")
        args.out.mkdir(parents=True, exist_ok=True)
        stage = Path(tempfile.mkdtemp(prefix=".dep-", dir=args.out))
    except OSError as err:
        raise UnwritableOutput(args.out, str(err)) from None
    try:
        for path in paths:
            writer, payload = outputs.pop(path.name)
            if callable(payload):
                payload = payload()
            try:
                writer(payload, stage / path.name)
            except OSError as err:
                raise UnwritableOutput(path, str(err)) from None
            del writer, payload
        renamed = []  # (path, its previous file linked into the stage, or None if it had none)
        for path in paths:
            previous, undoable = stage / f"{path.name}.previous", True
            try:
                os.link(path, previous, follow_symlinks=False)
            except FileNotFoundError:
                previous = None
            except OSError:  # the filesystem refuses the link: this rename cannot be undone
                undoable = False
            try:
                os.replace(stage / path.name, path)
            except OSError as err:
                _put_back(renamed)
                raise UnwritableOutput(path, str(err)) from None
            if undoable:
                renamed.append((path, previous))
            log.info("wrote %s", path)
    finally:
        shutil.rmtree(stage, ignore_errors=True)


def _put_back(renamed: list) -> None:
    """Undo renames that went through: each previous file goes back, and a new file that had none is removed."""
    for path, previous in reversed(renamed):
        try:
            if previous is None:
                os.unlink(path)
            else:
                os.replace(previous, path)
        except OSError as err:
            log.warning("could not put back %s: %s", path, err)


def cmd_analyze(args: argparse.Namespace) -> int:
    dataset = formats.read_dataset(args.dataset, args.vocab_size)
    freqs = scan_dataset_parallel(dataset, args.partitions)
    coverage = coverage_ratio(freqs) if freqs.vocab_size >= 1 else 0.0
    curve = growth_curve(dataset, args.checkpoints)
    num_sequences = dataset.num_sequences
    del dataset  # the fit and the writers never stack on the ids
    try:
        fit = fit_heaps(curve)
        heaps = {"k": fit.k, "beta": fit.beta, "rmse_log": fit.rmse_log}
    except (InsufficientPoints, DegenerateFit):
        heaps = None
    unused = find_unused_tokens(freqs)
    used = freqs.used_ids
    used_counts = freqs.counts[used]
    top_order = (-used_counts).argsort(kind="stable")[:10]  # ties stay id-ascending
    stats = {
        "dataset": str(args.dataset),
        "vocab_size": freqs.vocab_size,
        "num_sequences": num_sequences,
        "total_tokens": freqs.total_tokens,
        "used_tokens": freqs.used_count,
        "coverage_ratio": coverage,
        "top_tokens": [[int(used[i]), int(used_counts[i])] for i in top_order],
        "heaps_fit": heaps,
        "unused_token_count": int(unused.size),
        "unused_tokens": unused,
    }
    _write_outputs(args, {"stats.json": (formats.write_json, stats),
                          "growth.csv": (formats.write_growth_csv, curve)})
    print(
        f"analyzed {num_sequences} sequences, {freqs.total_tokens} tokens: "
        f"{freqs.used_count}/{freqs.vocab_size} ids used (coverage {coverage:.4f})"
    )
    return EXIT_OK


def cmd_prune(args: argparse.Namespace) -> int:
    original = formats.open_embeddings(args.embeddings)  # a file: only the kept rows are read, last
    vocab = args.vocab_size
    if vocab is None and formats.is_text_dataset(args.dataset):
        vocab = original.rows
    dataset = formats.read_dataset(args.dataset, vocab)
    if dataset.vocab_size != original.rows:
        raise ShapeMismatch(
            f"dataset vocab_size {dataset.vocab_size} does not match "
            f"embedding matrix rows {original.rows}"
        )
    freqs = scan_dataset_parallel(dataset, args.partitions)
    remap = build_remap(freqs, args.ordering, args.keep)
    dataset_name = "pruned_dataset.txt" if formats.is_text_dataset(args.dataset) else "pruned_dataset.dept"
    # The ids are remapped in place and written first; _write_outputs then drops the only reference to them,
    # so the kept rows, read last, are never held together with the ids.
    outputs = {dataset_name: (formats.write_dataset, partial(apply_remap, dataset, remap, in_place=True)),
               "remap.json": (formats.write_remap, remap),
               "pruned_embeddings.depe": (formats.write_embeddings, partial(prune_embeddings, original, remap))}
    del dataset
    _write_outputs(args, outputs)
    print(
        f"pruned embeddings {remap.original_vocab_size} -> {remap.reduced_size} rows "
        f"(kept {remap.reduced_size}, ordering {remap.ordering.value})"
    )
    return EXIT_OK


def cmd_restore(args: argparse.Namespace) -> int:
    original = formats.open_embeddings(args.embeddings)  # files: one piece of learned rows is held at a time
    learned = formats.open_embeddings(args.learned)
    remap = formats.read_remap(args.remap)
    if remap.original_vocab_size != original.rows:
        raise RemapInconsistent(
            f"remap covers vocab_size {remap.original_vocab_size} but the original "
            f"matrix has {original.rows} rows"
        )
    restored = restore_embeddings(original, learned, remap)
    _write_outputs(args, {"restored_embeddings.depe": (formats.write_patch, restored)})
    print(f"restored {learned.rows} learned rows into {original.rows}-row matrix")
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    remap = formats.read_remap(args.remap)
    config = formats.read_model_config(args.model_config)
    if config.vocab_size != remap.original_vocab_size:
        raise InconsistentInputs(
            "model config vocab_size", config.vocab_size,
            "remap original_vocab_size", remap.original_vocab_size,
        )
    report = report_from_counts(remap.original_vocab_size, remap.reduced_size, config)
    _write_outputs(args, {"report.json": (formats.write_report, report)})
    print(
        f"{report.config_name}: pr_emb {100 * report.pr_emb:.1f}%, "
        f"pr_all {100 * report.pr_all:.1f}%, {report.bytes_saved} bytes saved"
    )
    return EXIT_OK


def cmd_count_params(args: argparse.Namespace) -> int:
    config = formats.read_model_config(args.model_config)
    params = count_params(config)
    payload = {
        "name": config.name,
        "n_total": params.n_total,
        "n_emb": params.n_emb,
        "poep": params.poep,
        "poep_pct": round(100.0 * params.poep, 1),
        "breakdown": param_breakdown(config),
    }
    print(json.dumps(payload, indent=2))
    return EXIT_OK


# int()'s base-10 grammar once stripped; \d is any Unicode decimal digit, as int() reads them.
_DECIMAL = re.compile(r"([+-]?)(\d+(?:_\d+)*)")


def _flag_int(text: str) -> int:
    """``int(text)`` of a flag value, where a value outside int64 by ``formats._fits_int64``'s fixed rule is
    :class:`ValueError` whatever ``int()``'s digit limit (``PYTHONINTMAXSTRDIGITS``) says."""
    match = _DECIMAL.fullmatch(text.strip())
    if not match:
        raise ValueError(f"invalid integer {text!r}")
    sign, digits = match[1], match[2].replace("_", "")
    digits = digits.translate({ord(c): str(int(c)) for c in set(digits)})  # any script's digits as ASCII
    if not formats._fits_int64(sign.replace("+", "").encode() + digits.encode()):
        raise ValueError(f"integer {text!r} is outside int64")
    value = int(digits.lstrip("0") or "0")  # at most 19 digits: within any digit limit
    return -value if sign == "-" else value


def _parse_keep(text: str | None) -> tuple[int, ...]:
    if not text:
        return ()
    try:
        return tuple(_flag_int(field) for field in text.split(",") if field.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError("--keep expects comma-separated integer ids") from None


def _int_at_least(minimum: int):
    def integer(text: str) -> int:  # argparse names the type "integer" when it raises ValueError
        value = _flag_int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"expected an integer >= {minimum}, got {value}")
        return value

    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dep",
        description="Prune unused vocabulary rows from embedding matrices and report the savings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(p):
        p.add_argument("--out", required=True, type=Path, help="output directory")
        p.add_argument("--force", action="store_true", help="overwrite existing outputs")

    p_analyze = sub.add_parser("analyze", help="vocabulary usage statistics and growth curve")
    p_analyze.set_defaults(handler=cmd_analyze)
    p_analyze.add_argument("--dataset", required=True, type=Path)
    p_analyze.add_argument("--vocab-size", type=_int_at_least(0), default=None,
                           help="vocabulary size for text datasets (default: max id + 1)")
    p_analyze.add_argument("--partitions", type=_int_at_least(1), default=None,
                           help="any N >= 1; counting runs on one thread, so outputs never depend on N")
    p_analyze.add_argument("--checkpoints", choices=("pow2", "all"), default="pow2",
                           help="growth points at powers of two, or at every token (about 100 bytes each)")
    add_out(p_analyze)

    p_prune = sub.add_parser("prune", help="write reduced embeddings, remap, and remapped dataset")
    p_prune.set_defaults(handler=cmd_prune)
    p_prune.add_argument("--dataset", required=True, type=Path)
    p_prune.add_argument("--embeddings", required=True, type=Path)
    p_prune.add_argument("--vocab-size", type=_int_at_least(0), default=None,
                         help="vocabulary size for text datasets (default: embedding rows)")
    p_prune.add_argument("--ordering", choices=[o.value for o in RemapOrdering],
                         default=RemapOrdering.ASCENDING_ID.value)
    p_prune.add_argument("--keep", type=_parse_keep, default=(),
                         help="comma-separated ids to keep even if unused (e.g. padding)")
    p_prune.add_argument("--partitions", type=_int_at_least(1), default=None,
                         help="any N >= 1; counting runs on one thread, so outputs never depend on N")
    add_out(p_prune)

    p_restore = sub.add_parser("restore", help="scatter learned rows back into the full matrix")
    p_restore.set_defaults(handler=cmd_restore)
    p_restore.add_argument("--embeddings", required=True, type=Path, help="original full matrix")
    p_restore.add_argument("--learned", required=True, type=Path, help="fine-tuned reduced matrix")
    p_restore.add_argument("--remap", required=True, type=Path)
    add_out(p_restore)

    p_report = sub.add_parser("report", help="savings report from a remap and a model config")
    p_report.set_defaults(handler=cmd_report)
    p_report.add_argument("--remap", required=True, type=Path)
    p_report.add_argument("--model-config", required=True, type=Path)
    add_out(p_report)

    p_count = sub.add_parser("count-params", help="parameter accounting for a model config")
    p_count.set_defaults(handler=cmd_count_params)
    p_count.add_argument("--model-config", required=True, type=Path)

    return parser


def _configure_logging() -> None:
    level_name = os.environ.get("DEP_LOG", "warning").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except DepError as err:
        print(f"{err.code}: {err}", file=sys.stderr)
        return err.exit_status
    except Exception as err:  # pragma: no cover - defensive catch-all
        log.exception("internal error")
        print(f"INTERNAL_ERROR: {str(err) or type(err).__name__}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
