"""Single-file model archives shared by the trainable stages.

Layout (all integers big-endian):

========  =====================================================
bytes     content
========  =====================================================
0-3       magic ``SLPM``
4-5       format version (``u16``, currently 1)
6-7       section count (``u16``)
...       sections, each: name length (``u16``), name (UTF-8),
          payload length (``u64``), payload (UTF-8 JSON)
========  =====================================================

The sections run to the end of the file, and no two share a name.  A writer
may hand over a section's payload already encoded, as a non-empty list of
``bytes`` blocks (never a JSON value): their summed length is written, then
each block as it is.  :func:`item_blocks` encodes a long run of items
:data:`BLOCK_KEYS` at a time, and :func:`mapping_blocks` a mapping's keys
so, into blocks that join to their JSON: the tagger's ``form_probs`` and
``suffix_counts`` sections and the rows of the lemmatizer's embedded lexicon
are written in such blocks, so the encoding of a whole section is never
held.  Every section, blocks or not, is encoded by the one :func:`_dumps`.
A section that a reader asks for
``raw`` comes back undecoded, as a view of the file's bytes, which keeps
those bytes alive while it is held.

Every archive starts with a ``meta`` section recording the model kind
(``tagger``, ``lemmatizer`` or ``parser``), the language/variety it was
trained for and training statistics.  Readers reject wrong magic, unknown
format versions, mismatched kinds, bytes after the last section, a
repeated section name and a number that is not finite (``NaN``,
``Infinity``; no writer can write one) with
:class:`~slavpipe.errors.ModelError`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import stat
import struct
from collections.abc import Callable, Iterable, Iterator
from itertools import islice
from pathlib import Path

from .errors import ModelError

MAGIC = b"SLPM"
FORMAT_VERSION = 1
# items encoded at a time by item_blocks; encoding a block of lexicon rows
# holds about 500 bytes a row until the encoder joins the pieces of its text
BLOCK_KEYS = 256
# json.dumps with these settings; without the circular check, runs of tuples
# encode fastest.  NaN and infinities are refused: they are not JSON.
_encode = json.JSONEncoder(ensure_ascii=False, sort_keys=True, separators=(",", ":"),
                           check_circular=False, allow_nan=False).encode


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not a finite number")


# json.loads, but NaN, Infinity and -Infinity, which json.loads reads, are refused
_decode = json.JSONDecoder(parse_constant=_refuse_constant).decode


def _dumps(obj: object) -> bytes:
    return _encode(obj).encode("utf-8")


def item_blocks(items: Iterable, run: type = list) -> Iterator[bytes]:
    """Blocks that join to ``_dumps(run(items))`` without its outer brackets
    (``run``: ``list``, or ``dict`` of key-value pairs): ``_dumps`` of
    :data:`BLOCK_KEYS` items at a time, brackets dropped, joined by commas."""
    items = iter(items)
    separator = b""
    while block := run(islice(items, BLOCK_KEYS)):
        yield separator + _dumps(block)[1:-1]
        separator = b","


def mapping_blocks(mapping: dict, value: Callable[[object], object]) -> list[bytes]:
    """``_dumps`` of ``mapping`` with each value replaced by ``value(v)``, as
    the blocks of a section: braces around :func:`item_blocks` of its sorted keys."""
    pairs = ((k, value(mapping[k])) for k in sorted(mapping))
    return [b"{", *item_blocks(pairs, dict), b"}"]


def write_archive(
    path: str | Path,
    kind: str,
    meta: dict[str, object],
    sections: dict[str, object],
) -> None:
    """Serialize ``sections`` into a model archive: a non-empty list of
    ``bytes`` blocks is written as the section's payload, joined, any other
    value as its JSON.

    The archive is written atomically (see :func:`write_atomic`).
    """
    write_atomic(path, _archive_chunks({"kind": kind, **meta}, sections))


def _archive_chunks(meta: dict[str, object], sections: dict[str, object]):
    yield MAGIC + struct.pack(">HH", FORMAT_VERSION, 1 + len(sections))
    for name, value in (("meta", meta), *sections.items()):
        encoded = name.encode("utf-8")
        blocks = value if _is_blocks(value) else [_dumps(value)]
        yield struct.pack(">H", len(encoded)) + encoded + struct.pack(">Q", sum(map(len, blocks)))
        yield from blocks


def _is_blocks(value: object) -> bool:
    """Whether a section value is an encoded payload, not a JSON value."""
    return type(value) is list and bool(value) and all(type(b) is bytes for b in value)


def write_atomic(path: str | Path, chunks: Iterable[bytes]) -> None:
    """Write ``chunks`` to ``path`` through a temporary file beside it.

    The temporary file replaces the target only after the last chunk is
    written, so a failure midway leaves a previous file as it was; the
    temporary file is removed.  A symlink is followed, so the file it points
    at is replaced and the link stays; a replaced file keeps its permission
    bits.  A target that exists and is not a regular file (a device such as
    ``/dev/null``, a FIFO, ``/dev/stdout``) is written in place instead.
    """
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "wb") as out:
            for chunk in chunks:
                out.write(chunk)
        return
    target = Path(os.path.realpath(path))
    tmp = target.with_name(f".{target.name}.{os.urandom(4).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "wb") as out:
            if mode is not None:
                os.chmod(out.fileno(), stat.S_IMODE(mode))
            for chunk in chunks:
                out.write(chunk)
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def read_metadata(cls: type, meta: dict):
    """A ``cls`` metadata dataclass from the meta keys that name its fields;
    a ``language`` or ``variety`` that is not a string raises TypeError."""
    values = {f.name: meta[f.name] for f in dataclasses.fields(cls) if f.name in meta}
    for name in ("language", "variety"):
        if type(values.get(name, "")) is not str:
            raise TypeError(f"{name} {values[name]!r} is not a string")
    return cls(**values)


def check_language(kind: str, trained: str, configured: str | None) -> None:
    """Refuse a model trained for another language; an unnamed one passes."""
    if configured is not None and trained not in ("", configured):
        raise ModelError(
            f"{kind} model was trained for language {trained!r}, "
            f"pipeline is configured for {configured!r}"
        )


def read_archive(path: str | Path, kind: str, raw: tuple[str, ...] = ()) -> tuple[dict, dict]:
    """Read an archive, returning ``(meta, sections)``.

    ``kind`` must match the kind recorded in the archive's meta section.  A
    section named in ``raw`` is returned undecoded, as a view of the file's bytes.
    """
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise ModelError(f"cannot read model file {path}: {exc}") from exc

    view = memoryview(blob)
    if len(view) < 8 or view[:4] != MAGIC:
        raise ModelError(f"{path}: not a model archive (bad magic)")
    version, count = struct.unpack(">HH", view[4:8])
    if version != FORMAT_VERSION:
        raise ModelError(
            f"{path}: unsupported model format version {version} "
            f"(this build reads version {FORMAT_VERSION})"
        )

    sections: dict[str, object] = {}
    offset = 8
    try:
        for _ in range(count):
            (name_len,) = struct.unpack_from(">H", view, offset)
            offset += 2
            name = str(view[offset : offset + name_len], "utf-8")
            offset += name_len
            if name in sections:
                raise ModelError(f"{path}: repeated section {name!r}")
            (payload_len,) = struct.unpack_from(">Q", view, offset)
            offset += 8
            payload = view[offset : offset + payload_len]
            if len(payload) != payload_len:
                raise ModelError(f"{path}: truncated section {name!r}")
            offset += payload_len
            sections[name] = payload if name in raw else decode_payload(path, payload)
    except (struct.error, UnicodeDecodeError) as exc:
        raise ModelError(f"{path}: corrupt model archive: {exc}") from exc
    if offset != len(view):
        raise ModelError(f"{path}: extra bytes after the last section: {len(view) - offset}")

    meta = sections.pop("meta", None)
    if not isinstance(meta, dict):
        raise ModelError(f"{path}: model archive has no meta section")
    if meta.get("kind") != kind:
        raise ModelError(
            f"{path}: archive holds a {meta.get('kind')!r} model, expected {kind!r}"
        )
    return meta, sections


def decode_payload(path: str | Path, payload: bytes | memoryview) -> object:
    """The value of a section payload of the archive at ``path``; bytes that
    are not UTF-8 JSON, and NaN or an infinity in it, are a :class:`ModelError`."""
    try:
        return _decode(str(payload, "utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError among them
        raise ModelError(f"{path}: corrupt model archive: {exc}") from exc
