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

Every archive starts with a ``meta`` section recording the model kind
(``tagger``, ``lemmatizer`` or ``parser``), the language/variety it was
trained for and training statistics.  Readers reject wrong magic, unknown
format versions and mismatched kinds with :class:`~slavpipe.errors.ModelError`.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

from .errors import ModelError

MAGIC = b"SLPM"
FORMAT_VERSION = 1


def _dumps(obj: object) -> bytes:
    return json.dumps(obj, ensure_ascii=False, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )


def write_archive(
    path: str | Path,
    kind: str,
    meta: dict[str, object],
    sections: dict[str, object],
) -> None:
    """Serialize ``sections`` (JSON-encodable values) into a model archive."""
    meta = {"kind": kind, **meta}
    ordered: list[tuple[str, bytes]] = [("meta", _dumps(meta))]
    ordered.extend((name, _dumps(value)) for name, value in sections.items())

    out = bytearray()
    out += MAGIC
    out += struct.pack(">HH", FORMAT_VERSION, len(ordered))
    for name, payload in ordered:
        encoded = name.encode("utf-8")
        out += struct.pack(">H", len(encoded))
        out += encoded
        out += struct.pack(">Q", len(payload))
        out += payload
    Path(path).write_bytes(bytes(out))


def check_language(kind: str, trained: str, configured: str | None) -> None:
    """Refuse a model trained for another language; an unnamed one passes."""
    if configured is not None and trained not in ("", configured):
        raise ModelError(
            f"{kind} model was trained for language {trained!r}, "
            f"pipeline is configured for {configured!r}"
        )


def read_archive(path: str | Path, kind: str) -> tuple[dict, dict[str, object]]:
    """Read an archive, returning ``(meta, sections)``.

    ``kind`` must match the kind recorded in the archive's meta section.
    """
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise ModelError(f"cannot read model file {path}: {exc}") from exc

    view = memoryview(blob)
    if len(view) < 8 or bytes(view[:4]) != MAGIC:
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
            name = bytes(view[offset : offset + name_len]).decode("utf-8")
            offset += name_len
            (payload_len,) = struct.unpack_from(">Q", view, offset)
            offset += 8
            payload = bytes(view[offset : offset + payload_len])
            if len(payload) != payload_len:
                raise ModelError(f"{path}: truncated section {name!r}")
            offset += payload_len
            sections[name] = json.loads(payload.decode("utf-8"))
    except (struct.error, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ModelError(f"{path}: corrupt model archive: {exc}") from exc

    meta = sections.pop("meta", None)
    if not isinstance(meta, dict):
        raise ModelError(f"{path}: model archive has no meta section")
    if meta.get("kind") != kind:
        raise ModelError(
            f"{path}: archive holds a {meta.get('kind')!r} model, expected {kind!r}"
        )
    return meta, sections
