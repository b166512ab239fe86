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
each block as it is.  :func:`mapping_blocks` encodes a mapping a run of
keys at a time into blocks that join to its JSON: the tagger's
``form_probs`` and ``suffix_counts`` sections are written in such blocks,
so the encoding of a whole section is never held.  A section that a reader asks for
``raw`` comes back undecoded, as a view of the file's bytes, which keeps
those bytes alive while it is held.

Every archive starts with a ``meta`` section recording the model kind
(``tagger``, ``lemmatizer`` or ``parser``), the language/variety it was
trained for and training statistics.  Readers reject wrong magic, unknown
format versions, mismatched kinds, bytes after the last section and a
repeated section name with :class:`~slavpipe.errors.ModelError`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import stat
import struct
from collections.abc import Callable, Iterable
from pathlib import Path

from .errors import ModelError

MAGIC = b"SLPM"
FORMAT_VERSION = 1
# keys of a mapping encoded at a time by mapping_blocks
BLOCK_KEYS = 1024


def _dumps(obj: object) -> bytes:
    return json.dumps(obj, ensure_ascii=False, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )


def mapping_blocks(mapping: dict, value: Callable[[object], object]) -> list[bytes]:
    """``_dumps`` of ``mapping`` with each value replaced by ``value(v)``, as
    the blocks of a section: ``_dumps`` of :data:`BLOCK_KEYS` sorted keys at a
    time without its outer braces, the runs joined by commas and braced."""
    keys = sorted(mapping)
    blocks = [b"{"]
    for start in range(0, len(keys), BLOCK_KEYS):
        run = _dumps({k: value(mapping[k]) for k in keys[start : start + BLOCK_KEYS]})
        blocks.append((b"," if start else b"") + run[1:-1])
    blocks.append(b"}")
    return blocks


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
    """The value of a section payload of the archive at ``path``."""
    try:
        return json.loads(str(payload, "utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ModelError(f"{path}: corrupt model archive: {exc}") from exc
