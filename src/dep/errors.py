"""Exception types shared across the toolkit.

Every error carries a stable machine-readable ``code`` and the CLI exit
status it maps to. The CLI prints errors as ``CODE: message`` on stderr
and exits with ``exit_status``.
"""

from __future__ import annotations


class DepError(Exception):
    """Base class for all toolkit errors."""

    code = "ERROR"
    exit_status = 1


class OutOfRangeToken(DepError):
    """A token id is not smaller than the declared vocabulary size."""

    code = "OUT_OF_RANGE_TOKEN"
    exit_status = 2

    def __init__(self, sequence_index: int, position: int, token_id: int, vocab_size: int):
        self.sequence_index = sequence_index
        self.position = position
        self.token_id = token_id
        self.vocab_size = vocab_size
        super().__init__(
            f"token id {token_id} at sequence {sequence_index}, position {position} "
            f"is out of range for vocab_size {vocab_size}"
        )


class UnmappedToken(DepError):
    """A token id has no entry in the remap (remap built from another corpus)."""

    code = "UNMAPPED_TOKEN"
    exit_status = 2

    def __init__(self, sequence_index: int, position: int, token_id: int):
        self.sequence_index = sequence_index
        self.position = position
        self.token_id = token_id
        super().__init__(
            f"token id {token_id} at sequence {sequence_index}, position {position} "
            f"is not in the remap domain"
        )


class KeepTokenOutOfRange(DepError):
    """A requested keep token lies outside the vocabulary."""

    code = "KEEP_TOKEN_OUT_OF_RANGE"
    exit_status = 2

    def __init__(self, token_id: int, vocab_size: int):
        self.token_id = token_id
        self.vocab_size = vocab_size
        super().__init__(f"keep token {token_id} is out of range for vocab_size {vocab_size}")


class VocabTooLarge(DepError):
    """The arrays with one entry per vocabulary id cannot be allocated."""

    code = "VOCAB_TOO_LARGE"
    exit_status = 2

    def __init__(self, vocab_size: int):
        self.vocab_size = vocab_size
        super().__init__(f"vocabulary of {vocab_size} ids needs more memory than this process can allocate")


class ShapeMismatch(DepError):
    """Matrix and remap (or matrices) disagree on a dimension."""

    code = "SHAPE_MISMATCH"
    exit_status = 3


class InsufficientPoints(DepError):
    """Too few usable points to fit a power law."""

    code = "INSUFFICIENT_POINTS"
    exit_status = 2

    def __init__(self, usable: int):
        self.usable = usable
        super().__init__(f"need at least 2 points with positive coordinates, got {usable}")


class DegenerateFit(DepError):
    """Zero variance in token counts makes the power-law slope undefined."""

    code = "DEGENERATE_FIT"
    exit_status = 2


class InvalidCounts(DepError):
    """Vocabulary counts violate 0 <= reduced <= original, original >= 1."""

    code = "INVALID_COUNTS"
    exit_status = 2

    def __init__(self, original_vocab: int, reduced_vocab: int):
        self.original_vocab = original_vocab
        self.reduced_vocab = reduced_vocab
        super().__init__(f"invalid vocabulary counts: original {original_vocab}, reduced {reduced_vocab}")


class InconsistentInputs(DepError):
    """Two report inputs disagree on a shared quantity."""

    code = "INCONSISTENT_INPUTS"
    exit_status = 3

    def __init__(self, name_a: str, value_a, name_b: str, value_b):
        self.name_a, self.value_a = name_a, value_a
        self.name_b, self.value_b = name_b, value_b
        super().__init__(f"{name_a} ({value_a}) does not match {name_b} ({value_b})")


class RemapInconsistent(DepError):
    """A remap file is malformed or references ids outside its vocabulary."""

    code = "REMAP_INCONSISTENT"
    exit_status = 3


class BadMagic(DepError):
    """A binary file does not start with the expected magic bytes."""

    code = "BAD_MAGIC"
    exit_status = 2

    def __init__(self, expected: bytes, found: bytes):
        self.expected = expected
        self.found = found
        super().__init__(f"expected magic {expected!r}, found {found!r}")


class UnsupportedVersion(DepError):
    """A binary file declares a format version this build cannot read."""

    code = "UNSUPPORTED_VERSION"
    exit_status = 2

    def __init__(self, found: int, supported: int):
        self.found = found
        self.supported = supported
        super().__init__(f"unsupported format version {found} (supported: {supported})")


class FormatError(DepError):
    """A file is structurally invalid (truncated, non-numeric, wrong field)."""

    code = "BAD_FORMAT"
    exit_status = 2


class MissingInput(DepError):
    """An input cannot be opened or read (missing, a bad path, a read error), or is not a regular file."""

    code = "MISSING_INPUT"
    exit_status = 5

    def __init__(self, path, reason: str):
        self.path = path
        super().__init__(f"cannot read input file: {path} ({reason})")


class OutputExists(DepError):
    """Refusing to overwrite an existing output without --force."""

    code = "OUTPUT_EXISTS"
    exit_status = 4

    def __init__(self, path):
        self.path = path
        super().__init__(f"output already exists (use --force to overwrite): {path}")


class UnwritableOutput(DepError):
    """An output path could not be written."""

    code = "UNWRITABLE_OUTPUT"
    exit_status = 4

    def __init__(self, path, reason: str = ""):
        self.path = path
        msg = f"cannot write output: {path}"
        if reason:
            msg += f" ({reason})"
        super().__init__(msg)
