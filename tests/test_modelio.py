import json
import math
import shutil
import stat
import struct
from dataclasses import asdict

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from slavpipe import modelio
from slavpipe.depparse import load_parser
from slavpipe.errors import ModelError
from slavpipe.lemmatizer import load_lemmatizer
from slavpipe.lexicon import Lexicon
from slavpipe.modelio import (
    BLOCK_KEYS, FORMAT_VERSION, MAGIC, mapping_blocks, read_archive, write_archive, write_atomic,
)
from slavpipe.pipeline import model_filename
from slavpipe.tagger import load_tagger

from support import with_section, write_non_finite


LOADERS = {"tagger": load_tagger, "lemmatizer": load_lemmatizer, "parser": load_parser}


@pytest.fixture
def archive(tmp_path):
    path = tmp_path / "m.slm"
    write_archive(
        path,
        "tagger",
        {"language": "sl", "variety": "standard"},
        {"weights": {"a": 1.5}, "tags": ["Ncfsn", "Vmpr3s"]},
    )
    return path


def test_roundtrip(archive):
    meta, sections = read_archive(archive, "tagger")
    assert meta["kind"] == "tagger"
    assert meta["language"] == "sl"
    assert sections == {"weights": {"a": 1.5}, "tags": ["Ncfsn", "Vmpr3s"]}


def test_unicode_payload_survives(tmp_path):
    path = tmp_path / "m.slm"
    write_archive(path, "lemmatizer", {}, {"rules": {"čšž": "ćđ"}})
    _, sections = read_archive(path, "lemmatizer")
    assert sections["rules"] == {"čšž": "ćđ"}


def test_a_section_given_as_blocks_is_their_joined_bytes(tmp_path):
    path = tmp_path / "m.slm"
    blocks = [b'{"rows":[', "[\"č\",1]".encode("utf-8"), b"]}"]
    write_archive(path, "lemmatizer", {}, {"lexicon": blocks, "empty": [], "lists": [[1], []]})
    meta, sections = read_archive(path, "lemmatizer", raw=("lexicon",))
    assert bytes(sections.pop("lexicon")) == b"".join(blocks)
    assert sections == {"empty": [], "lists": [[1], []]}  # JSON values, not blocks


# keys that JSON escapes, others it writes as they are, and non-BMP ones,
# which sort after U+FFFF by code point (but before it in UTF-16)
KEYS = st.text(st.characters(exclude_categories=("Cs",)), max_size=4) | st.sampled_from(
    ['"', "\\", "\x00", "\x1f", "\x7f", "\u2028", "\ufeff", "\uffff", "\U0001f600", "a\U00010000"]
)
ROWS = st.lists(
    st.tuples(
        KEYS, st.none() | KEYS, st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    ),
    max_size=3,
)


def _as_rows(value):
    return [list(row) for row in value]


@st.composite
def tables(draw):
    """A mapping of 0, 1 or about one or two blocks of keys: drawn keys, then
    generated ones up to the drawn count."""
    n = draw(st.sampled_from(
        [0, 1, BLOCK_KEYS - 1, BLOCK_KEYS, BLOCK_KEYS + 1, 2 * BLOCK_KEYS + 1]
    ))
    table = draw(st.dictionaries(KEYS, ROWS, max_size=min(n, 8)))
    i = 0
    while len(table) < n:
        i += 1
        table[f"k{i}"] = [("NOUN", f"Nc{i % 5}", i * 0.25)]
    return table


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(tables())
@example({})
@example({k: [(k, None, 1)] for k in ['"', "\\", "\x00", "\uffff", "\U0001f600", "é"]})
def test_mapping_blocks_join_to_the_json_of_the_whole_mapping(table):
    blocks = mapping_blocks(table, _as_rows)
    assert all(type(block) is bytes for block in blocks)
    assert len(blocks) == 2 + -(-len(table) // BLOCK_KEYS)  # braces and one block per run
    assert b"".join(blocks) == modelio._dumps({k: _as_rows(v) for k, v in table.items()})


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(tables())
def test_dumps_is_the_json_module_with_sorted_keys_and_no_spaces(table):
    """The tagger's tables, tuple rows and list rows alike, against a
    reference that does not go through the shared encoder."""
    for value in (table, {k: _as_rows(v) for k, v in table.items()}):
        reference = json.dumps(value, ensure_ascii=False, sort_keys=True, separators=(",", ":"))
        assert modelio._dumps(value) == reference.encode("utf-8")


@pytest.mark.parametrize("number", [math.nan, math.inf, -math.inf])
def test_dumps_refuses_a_number_that_is_not_finite(number):
    with pytest.raises(ValueError, match="not JSON compliant"):
        modelio._dumps({"form": [["NOUN", "Ncmsn", None, number]]})
    with pytest.raises(ValueError, match="not JSON compliant"):
        mapping_blocks({"form": [("NOUN", "Ncmsn", None, number)]}, _as_rows)


# a number of each archive kind: a tagger probability, a frequency of the
# lemmatizer's embedded lexicon, a parser weight
NUMBER_SECTIONS = {"tagger": "form_probs", "lemmatizer": "lexicon", "parser": "weights"}


@pytest.mark.parametrize("kind", sorted(LOADERS))
@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_a_number_that_is_not_finite_is_refused_at_load(tmp_path, model_dir, kind, constant):
    target = tmp_path / "non-finite.slm"
    shutil.copy(model_dir / model_filename("sl", "standard", kind), target)
    write_non_finite(target, kind, NUMBER_SECTIONS[kind], constant)
    with pytest.raises(ModelError) as caught:
        LOADERS[kind](target)
    assert str(caught.value) == f"{target}: corrupt model archive: {constant} is not a finite number"


def test_kind_mismatch(archive):
    with pytest.raises(ModelError, match="expected 'parser'"):
        read_archive(archive, "parser")


def test_bad_magic(tmp_path):
    path = tmp_path / "m.slm"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ModelError, match="bad magic"):
        read_archive(path, "tagger")


def test_too_short(tmp_path):
    path = tmp_path / "m.slm"
    path.write_bytes(MAGIC[:3])
    with pytest.raises(ModelError, match="bad magic"):
        read_archive(path, "tagger")


def test_unknown_version(tmp_path, archive):
    blob = bytearray(archive.read_bytes())
    blob[4:6] = struct.pack(">H", FORMAT_VERSION + 1)
    bad = tmp_path / "v2.slm"
    bad.write_bytes(bytes(blob))
    with pytest.raises(ModelError, match="unsupported model format version"):
        read_archive(bad, "tagger")


def test_truncated_payload(tmp_path, archive):
    blob = archive.read_bytes()
    bad = tmp_path / "cut.slm"
    bad.write_bytes(blob[: len(blob) - 5])
    with pytest.raises(ModelError):
        read_archive(bad, "tagger")
    # a section header cut short, and a section name that is not UTF-8
    head = MAGIC + struct.pack(">HH", FORMAT_VERSION, 1)
    for blob in (head + b"\x00", head + struct.pack(">H", 2) + b"\xff\xfe" + struct.pack(">Q", 0)):
        bad.write_bytes(blob)
        with pytest.raises(ModelError, match=f"{bad}: corrupt model archive: "):
            read_archive(bad, "tagger")


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_bytes_after_the_last_section_are_refused(tmp_path, model_dir, kind):
    bad = tmp_path / "long.slm"
    bad.write_bytes((model_dir / model_filename("sl", "standard", kind)).read_bytes() + b"garbage")
    with pytest.raises(ModelError) as caught:
        LOADERS[kind](bad)
    assert str(caught.value) == f"{bad}: extra bytes after the last section: 7"


@pytest.mark.parametrize("kind", sorted(LOADERS))
@pytest.mark.parametrize("repeated", ["meta", "last"])
def test_a_repeated_section_is_refused(tmp_path, model_dir, kind, repeated):
    """A second meta would replace the language the first one records."""
    path = model_dir / model_filename("sl", "standard", kind)
    _, sections = read_archive(path, kind)
    name, value = {
        "meta": ("meta", {"kind": kind, "language": "hr"}),
        "last": (list(sections)[-1], list(sections.values())[-1]),
    }[repeated]
    bad = tmp_path / "twice.slm"
    bad.write_bytes(with_section(path.read_bytes(), name, modelio._dumps(value)))
    with pytest.raises(ModelError) as caught:
        LOADERS[kind](bad)
    assert str(caught.value) == f"{bad}: repeated section {name!r}"


def test_corrupt_json(tmp_path):
    payload = b"{not json"
    name = b"meta"
    blob = (
        MAGIC
        + struct.pack(">HH", FORMAT_VERSION, 1)
        + struct.pack(">H", len(name))
        + name
        + struct.pack(">Q", len(payload))
        + payload
    )
    bad = tmp_path / "j.slm"
    bad.write_bytes(blob)
    with pytest.raises(ModelError, match="corrupt"):
        read_archive(bad, "tagger")


def test_missing_meta(tmp_path):
    payload = b"{}"
    name = b"weights"
    blob = (
        MAGIC
        + struct.pack(">HH", FORMAT_VERSION, 1)
        + struct.pack(">H", len(name))
        + name
        + struct.pack(">Q", len(payload))
        + payload
    )
    bad = tmp_path / "nometa.slm"
    bad.write_bytes(blob)
    with pytest.raises(ModelError, match="no meta section"):
        read_archive(bad, "tagger")


def test_missing_file(tmp_path):
    with pytest.raises(ModelError, match="cannot read"):
        read_archive(tmp_path / "absent.slm", "tagger")


def test_archive_write_failing_midway_keeps_the_previous_file(archive):
    before = archive.read_bytes()
    # the second section cannot be encoded, after the header and the
    # first sections have gone out
    with pytest.raises(TypeError):
        write_archive(archive, "tagger", {}, {"tags": ["Ncfsn"], "weights": {"a": object()}})
    assert archive.read_bytes() == before
    assert [p.name for p in archive.parent.iterdir()] == [archive.name]


def test_atomic_write_failing_midway_leaves_no_temporary_file(tmp_path):
    target = tmp_path / "out.txt"
    target.write_bytes(b"old")

    def chunks():
        yield b"new first half"
        raise OSError(28, "No space left on device")

    with pytest.raises(OSError, match="No space left"):
        write_atomic(target, chunks())
    assert target.read_bytes() == b"old"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
    write_atomic(target, [b"new ", b"bytes"])
    assert target.read_bytes() == b"new bytes"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_atomic_write_keeps_the_mode_of_a_replaced_file(tmp_path):
    target = tmp_path / "model.slm"
    target.write_bytes(b"old")
    target.chmod(0o600)
    write_atomic(target, [b"new"])
    assert target.read_bytes() == b"new"
    assert stat.S_IMODE(target.stat().st_mode) == 0o600


def test_atomic_write_through_a_symlink_replaces_its_target(tmp_path):
    real = tmp_path / "models" / "model.slm"
    real.parent.mkdir()
    real.write_bytes(b"old")
    link = tmp_path / "model.slm"
    link.symlink_to(real)
    write_atomic(link, [b"new"])
    assert link.is_symlink() and real.read_bytes() == b"new"
    assert [p.name for p in real.parent.iterdir()] == ["model.slm"]


JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


def _replaced(node, path, value):
    """``node`` with the node at ``path`` replaced; only the path is copied."""
    if not path:
        return value
    copy = list(node) if isinstance(node, list) else dict(node)
    copy[path[0]] = _replaced(node[path[0]], path[1:], value)
    return copy


def _mutated_archive(data, tree: dict, target) -> dict:
    """Write ``tree`` with one drawn node replaced to ``target``; return the
    sections written.  The new value is drawn JSON or a sibling of the node,
    which duplicates a row or a field of one."""
    path = [data.draw(st.sampled_from(sorted(tree)))]
    parent, node = tree, tree[path[0]]
    # walk down until the draw stops (one step in four) or a leaf is reached
    while isinstance(node, (dict, list)) and node and data.draw(st.integers(0, 3)):
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        key = data.draw(st.sampled_from(keys))
        path.append(key)
        parent, node = node, node[key]
    siblings = list(parent.values() if isinstance(parent, dict) else parent)
    mutated = _replaced(tree, path, data.draw(JSON | st.sampled_from(siblings)))
    write_atomic(target, modelio._archive_chunks(mutated.pop("meta"), mutated))
    return mutated


@pytest.mark.parametrize("kind", sorted(LOADERS))
@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_mutated_archive_node_is_a_model_error(tmp_path, model_dir, kind, data):
    meta, sections = read_archive(model_dir / model_filename("sl", "standard", kind), kind)
    target = tmp_path / "mutated.slm"
    _mutated_archive(data, {"meta": meta, **sections}, target)
    try:
        LOADERS[kind](target)
    except ModelError:
        pass


def _loaded(path, lexicon):
    try:
        return load_lemmatizer(path, lexicon=lexicon)
    except ModelError:
        return None


@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_mutated_lemmatizer_archive_loads_alike_with_the_lexicon_it_embedded(
    tmp_path, model_dir, data
):
    meta, sections = read_archive(model_dir / model_filename("sl", "standard", "lemmatizer"),
                                  "lemmatizer")
    embedded = sections["lexicon"]["rows"], sections["lexicon"]["prefixes"]
    configured = Lexicon.from_rows(*embedded)
    target = tmp_path / "mutated.slm"
    mutated = _mutated_archive(data, {"meta": meta, **sections}, target)
    own, with_configured = _loaded(target, None), _loaded(target, configured)
    assert (own is None) == (with_configured is None)
    if own is not None:
        assert own.lexicon.to_rows() == with_configured.lexicon.to_rows()
        assert own.lexicon.prefix_table == with_configured.lexicon.prefix_table
        section = mutated["lexicon"]
        written = modelio._dumps([section["rows"], section["prefixes"]])
        # JSON text tells 1, 1.0 and true apart
        assert (with_configured.lexicon is configured) == (written == modelio._dumps(embedded))


@pytest.mark.parametrize("kind", sorted(LOADERS))
@pytest.mark.parametrize("field", ["language", "variety"])
def test_metadata_that_is_not_a_string_is_refused_at_load(tmp_path, model_dir, kind, field):
    meta, sections = read_archive(model_dir / model_filename("sl", "standard", kind), kind)
    target = tmp_path / "bad.slm"
    write_archive(target, kind, {**meta, field: ["sl"]}, sections)
    with pytest.raises(ModelError, match=f"malformed {kind} model: {field} "):
        LOADERS[kind](target)


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_metadata_reads_back_from_its_fields(model_dir, kind):
    path = model_dir / model_filename("sl", "standard", kind)
    meta, _ = read_archive(path, kind)
    loaded = LOADERS[kind](path).metadata
    assert {"kind": kind, **asdict(loaded)} == {k: v for k, v in meta.items() if k != "schema"}
