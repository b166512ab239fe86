"""Exception hierarchy shared by all pipeline stages, and the one reader of
user text (:func:`read_blocks`), whose failures are all :class:`DataError`.

The split into configuration / data / model branches mirrors the process
exit codes of the command line tool (1, 2 and 3 respectively).
"""

from __future__ import annotations

import codecs
import contextlib
import io
import sys
from collections.abc import Iterator
from pathlib import Path
from typing import BinaryIO


class SlavpipeError(Exception):
    """Base class for every error raised by this package."""


class ConfigurationError(SlavpipeError):
    """Invalid or inconsistent pipeline configuration (exit code 1)."""


class DataError(SlavpipeError):
    """Malformed or unusable input data (exit code 2)."""


TEXT_BLOCK = 4 * 1024  # bytes of user text read at a time: about 650 tokens of news text


class _StreamDecodeError(UnicodeDecodeError):
    """The error of one decoded piece of a stream, with the positions (and
    the message) of decoding the whole stream, but without a copy of the
    bytes before the piece: ``object`` holds the piece from ``offset`` on."""

    def __init__(self, exc: UnicodeDecodeError, offset: int):
        super().__init__(exc.encoding, exc.object, offset + exc.start, offset + exc.end,
                         exc.reason)
        self.offset = offset

    def __str__(self) -> str:
        if self.end == self.start + 1:
            byte = self.object[self.start - self.offset]
            return (f"'{self.encoding}' codec can't decode byte 0x{byte:02x} "
                    f"in position {self.start}: {self.reason}")
        return (f"'{self.encoding}' codec can't decode bytes "
                f"in position {self.start}-{self.end - 1}: {self.reason}")


def utf8_blocks(stream: BinaryIO, size: int) -> Iterator[str]:
    """The text of a UTF-8 byte stream, decoded ``size`` bytes at a time,
    without a leading byte order mark.  An undecodable byte raises a
    :class:`UnicodeDecodeError` whose message is that of decoding the whole
    stream, positions included."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    head = stream.read(len(codecs.BOM_UTF8))
    read = len(head)  # bytes read so far
    if head != codecs.BOM_UTF8:
        decoder.setstate((head, 0))  # decoded with the first block
    while True:
        block = stream.read(size)
        start = read - len(decoder.getstate()[0])  # stream offset of the bytes decoded now
        read += len(block)
        try:
            text = decoder.decode(block, final=not block)
        except UnicodeDecodeError as exc:
            raise _StreamDecodeError(exc, start) from None
        yield text
        if not block:
            return


def read_blocks(source: str | Path) -> Iterator[str]:
    """The text of a UTF-8 file, or of standard input for ``-``, decoded
    :data:`TEXT_BLOCK` bytes at a time, without a leading byte order mark;
    CRLF and CR line ends are read as LF.

    A missing, unreadable or undecodable input is a :class:`DataError`, and
    so is a closed standard input, which the interpreter sets to None.
    """
    name = "standard input" if source == "-" else source
    try:
        if source == "-":
            if sys.stdin is None:
                raise DataError("cannot read standard input: it is closed")
            # its bytes: strict, also where the UTF-8 mode reads stdin with surrogateescape
            stream = contextlib.nullcontext(sys.stdin.buffer)
        else:
            stream = open(source, "rb")
        newlines = io.IncrementalNewlineDecoder(None, translate=True)
        with stream as raw:
            for text in utf8_blocks(raw, TEXT_BLOCK):
                if text := newlines.decode(text):
                    yield text
        if text := newlines.decode("", final=True):
            yield text
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {name}: {exc}") from exc


def read_text(source: str | Path) -> str:
    """The whole text :func:`read_blocks` reads from ``source``."""
    return "".join(read_blocks(source))


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
