"""Exception hierarchy shared by all pipeline stages.

The split into configuration / data / model branches mirrors the process
exit codes of the command line tool (1, 2 and 3 respectively).
"""

from __future__ import annotations

import sys
from pathlib import Path


class SlavpipeError(Exception):
    """Base class for every error raised by this package."""


class ConfigurationError(SlavpipeError):
    """Invalid or inconsistent pipeline configuration (exit code 1)."""


class DataError(SlavpipeError):
    """Malformed or unusable input data (exit code 2)."""


def read_text(source: str | Path) -> str:
    """Read a UTF-8 text file, or standard input for ``-``.

    A missing, unreadable or undecodable input is a :class:`DataError`.
    """
    try:
        if source == "-":
            return sys.stdin.read()
        return Path(source).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        name = "standard input" if source == "-" else source
        raise DataError(f"cannot read {name}: {exc}") from exc


class ConlluParseError(DataError):
    """Input violates the accepted CoNLL-U grammar."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class LexiconError(DataError):
    """Unreadable inflectional lexicon file."""


class RecipeError(DataError):
    """Invalid training-data recipe or refused recipe build."""


class EvaluationError(DataError):
    """Gold/system pair cannot be scored as requested."""


class StageError(DataError):
    """A pipeline stage received input that misses required annotations."""

    def __init__(self, stage: str, message: str):
        self.stage = stage
        super().__init__(f"{stage}: {message}")


class ModelError(SlavpipeError):
    """Missing, corrupt or mismatched model file (exit code 3)."""


class TrainingError(ModelError):
    """Training data insufficient or inconsistent for the requested stage."""
