import codecs
import gzip
import math
import os
import tempfile
import threading
import tracemalloc
import zlib
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from slavpipe import lexicon
from slavpipe.errors import DataError, LexiconError
from slavpipe.lexicon import Lexicon, LexiconEntry, load_lexicon

from support import GZIP_DAMAGE, damaged_gzip, paradigm_rows


def loaded(tsv: str) -> Lexicon:
    """``tsv`` written to a file and read back by :func:`load_lexicon`."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "lex.tsv"
        path.write_bytes(tsv.encode("utf-8"))
        return load_lexicon(path)


def build(entries):
    lex = Lexicon()
    for form, lemma, xpos, freq in entries:
        lex.add(form, lemma, xpos, freq)
    return lex


def test_allowed_tags_and_lookup_agree():
    lex = build([("vode", "voda", "Ncfsg", 10), ("vode", "voda", "Ncfpn", 3)])
    assert lex.allowed_tags("vode") == {"Ncfsg", "Ncfpn"}
    assert lex.lookup_lemma("vode", "Ncfsg") == "voda"
    assert lex.lookup_lemma("vode", "Vmpr3s") is None


def test_lookup_prefers_frequency_then_alphabet():
    lex = build([
        ("peci", "peka", "Ncfsd", 2),
        ("peci", "peč", "Ncfsd", 9),
        ("curi", "curek", "Ncmpn", 5),
        ("curi", "cura", "Ncmpn", 5),
    ])
    assert lex.lookup_lemma("peci", "Ncfsd") == "peč"
    # tie on frequency: lexicographically smallest lemma
    assert lex.lookup_lemma("curi", "Ncmpn") == "cura"


def test_case_fallback_to_lowercase():
    lex = build([("voda", "voda", "Ncfsn", 4)])
    assert lex.allowed_tags("Voda") == {"Ncfsn"}
    assert lex.lookup_lemma("Voda", "Ncfsn") == "voda"
    # exact-case entries win over the lowercased fallback
    lex.add("Voda", "Voda", "Npfsn", 1)
    assert lex.allowed_tags("Voda") == {"Npfsn"}


def test_absent_iff_not_allowed():
    lex = build([("a", "a", "X", 1)])
    for form in ("a", "b", "A"):
        for xpos in ("X", "Y"):
            assert (lex.lookup_lemma(form, xpos) is None) == (
                xpos not in lex.allowed_tags(form)
            )


def test_duplicate_entries_accumulate():
    lex = build([("x", "y", "Ncfsn", 2), ("x", "y", "Ncfsn", 3)])
    assert lex.entries("x") == [type(lex.entries("x")[0])("Ncfsn", "y", 5)]


def test_a_frequency_is_stored_as_a_sum_from_zero():
    rows = build([("pes", "pes", "Ncmsn", True), ("psa", "pes", "Ncmsg", -0.0)]).to_rows()
    assert rows == [["pes", "pes", "Ncmsn", 1], ["psa", "pes", "Ncmsg", 0.0]]
    assert type(rows[0][3]) is int and math.copysign(1, rows[1][3]) == 1


_rows_in_any_order = st.lists(
    st.tuples(st.sampled_from(["a", "A", "b"]), st.sampled_from(["x", "y", "z"]),
              st.sampled_from(["N", "Nc", "V"]), st.integers(1, 3)),
    max_size=16,
)


def _lemma_by_entries(lex, form, xpos):
    """lookup_lemma as a loop over entries: the first of the highest frequency."""
    best = None
    for entry in lex.entries(form):
        if entry.xpos == xpos and (best is None or entry.frequency > best.frequency):
            best = entry
    return None if best is None else best.lemma


@given(rows=_rows_in_any_order)
def test_queries_agree_with_a_table_of_summed_frequencies(rows):
    table: dict[tuple[str, str, str], int] = {}
    for form, lemma, xpos, freq in rows:
        table[form, xpos, lemma] = table.get((form, xpos, lemma), 0) + freq
    tsv = "".join(f"{f}\t{lemma}\t{x}\t{n}\n" for f, lemma, x, n in rows)
    for lex in (build(rows), loaded(tsv)):
        assert lex.to_rows() == [[f, lemma, x, n] for (f, x, lemma), n in sorted(table.items())]
        assert len(lex) == len(table)
        for form in ("a", "A", "b", "c"):
            listed = [k for k in table if k[0] == form] or [k for k in table if k[0] == form.lower()]
            assert lex.allowed_tags(form) == {x for _, x, _ in listed}
            assert lex.entries(form) == [LexiconEntry(x, lemma, table[f, x, lemma])
                                         for f, x, lemma in sorted(listed)]
            ranked_tags = sorted((-table[k], k[1]) for k in listed)
            assert lex.most_frequent_tag(form) == (ranked_tags[0][1] if listed else None)
            for xpos in ("N", "Nc", "V", "Q"):
                ranked = sorted((-table[k], k[2]) for k in listed if k[1] == xpos)
                assert lex.lookup_lemma(form, xpos) == (ranked[0][1] if ranked else None)
                assert lex.lookup_lemma(form, xpos) == _lemma_by_entries(lex, form, xpos)


def test_closed_class_membership_by_prefix():
    lex = build([
        ("na", "na", "Sl", 50),
        ("in", "in", "Cc", 80),
        ("da", "da", "Cs", 60),
        ("voda", "voda", "Ncfsn", 5),
    ])
    assert lex.in_closed_class("adposition", "na")
    assert lex.in_closed_class("coordinating-conjunction", "in")
    assert lex.in_closed_class("subordinating-conjunction", "da")
    assert not lex.in_closed_class("adposition", "voda")
    assert not lex.in_closed_class("particle", "na")
    assert lex.closed_class_forms("adposition") == {"na"}


def test_most_frequent_tag():
    lex = build([("vode", "voda", "Ncfsg", 10), ("vode", "voda", "Ncfpn", 3)])
    assert lex.most_frequent_tag("vode") == "Ncfsg"
    assert lex.most_frequent_tag("zzz") is None


def test_load_lexicon_three_and_four_columns():
    lex = loaded("voda\tvoda\tNcfsn\t7\nvode\tvoda\tNcfsg\n")
    assert lex.entries("voda")[0].frequency == 7
    assert lex.entries("vode")[0].frequency == 1


def test_load_lexicon_errors_name_lines():
    with pytest.raises(LexiconError, match="line 2"):
        loaded("a\tb\tX\nbad line\n")
    with pytest.raises(LexiconError, match="line 1"):
        loaded("a\tb\tX\tmany\n")
    with pytest.raises(LexiconError, match="line 1"):
        loaded("a\tb\tX\t1\textra\n")


def test_load_lexicon_plain_and_gzip(tmp_path):
    body = "voda\tvoda\tNcfsn\t7\n"
    plain = tmp_path / "lex.tsv"
    plain.write_text(body, encoding="utf-8")
    packed = tmp_path / "lex.tsv.gz"
    packed.write_bytes(gzip.compress(body.encode("utf-8")))
    assert load_lexicon(plain).allowed_tags("voda") == {"Ncfsn"}
    assert load_lexicon(packed).allowed_tags("voda") == {"Ncfsn"}


@pytest.mark.parametrize("damage, cause", zip(GZIP_DAMAGE, (EOFError, EOFError, zlib.error)))
def test_damaged_gzip_is_a_lexicon_error(tmp_path, damage, cause):
    path = tmp_path / "lex.tsv.gz"
    path.write_bytes(damaged_gzip(damage))
    with pytest.raises(LexiconError, match="bad gzip data") as info:
        load_lexicon(path)
    assert isinstance(info.value.__cause__, cause)


_cell = st.text(alphabet="ab\t1x\u00b2 \r", max_size=6)
_rows = st.lists(_cell, max_size=6).map(lambda cells: "\n".join(cells).encode("utf-8"))


def _damage(blob, cut, flip):
    packed = bytearray(gzip.compress(blob, mtime=0)[:cut])
    if packed and flip is not None:
        packed[flip % len(packed)] ^= 0xFF
    return bytes(packed)


_gzipped = st.builds(_damage, _rows, st.integers(0, 80), st.none() | st.integers(2, 80))


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])  # one file, rewritten
@given(st.one_of(st.binary(), st.binary().map(lambda b: b"\x1f\x8b" + b), _rows, _gzipped))
def test_load_lexicon_raises_only_data_errors(tmp_path, blob):
    path = tmp_path / "lexicon"
    path.write_bytes(blob)
    try:
        load_lexicon(path)
    except DataError:
        pass


def test_load_lexicon_missing_file():
    with pytest.raises(LexiconError, match="cannot read"):
        load_lexicon("/nonexistent/lex.tsv")


def test_rows_roundtrip():
    lex = build([("na", "na", "Sl", 50), ("voda", "voda", "Ncfsn", 5)])
    again = Lexicon.from_rows(lex.to_rows())
    assert again.allowed_tags("na") == {"Sl"}
    assert again.in_closed_class("adposition", "na")
    assert again.entries("voda") == lex.entries("voda")


def test_crlf_lexicon_loads_like_lf(tmp_path):
    body = "voda\tvoda\tNcfsn\t7\n\nvode\tvoda\tNcfsg\nna\tna\tSl\t3\n"
    want = loaded(body).to_rows()
    assert want == [
        ["na", "na", "Sl", 3], ["voda", "voda", "Ncfsn", 7], ["vode", "voda", "Ncfsg", 1]
    ]
    crlf = body.replace("\n", "\r\n").encode("utf-8")
    plain = tmp_path / "lex.tsv"
    plain.write_bytes(crlf)
    packed = tmp_path / "lex.tsv.gz"
    packed.write_bytes(gzip.compress(crlf))
    assert load_lexicon(plain).to_rows() == want
    assert load_lexicon(packed).to_rows() == want


# fields hold characters at which str.splitlines would also end a line
LF_ONLY = (
    "pa\x0bs\tpes\tNc\x1cmsn\t3\r\n"
    "p\x85sa\tpes\tNcmsg\r\n"
    "\r\n"
    "ps\u2028u\tp\u2028es\tNcmsd\t2\n"
    "pa\x0bs\tpes\tNc\x1cmsn\t4\r\n"
    "ps\ru\tpes\tNcmsl"  # a bare CR stays in its field; the last line has no LF
)


LF_ONLY_ROWS = [
    ["pa\x0bs", "pes", "Nc\x1cmsn", 7],
    ["ps\ru", "pes", "Ncmsl", 1],
    ["ps\u2028u", "p\u2028es", "Ncmsd", 2],
    ["p\x85sa", "pes", "Ncmsg", 1],
]


def test_tsv_lines_end_at_lf_only(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_bytes(LF_ONLY.encode("utf-8"))
    assert load_lexicon(path).to_rows() == LF_ONLY_ROWS
    packed = tmp_path / "lex.tsv.gz"
    packed.write_bytes(gzip.compress(LF_ONLY.encode("utf-8")))
    assert load_lexicon(packed).to_rows() == LF_ONLY_ROWS
    with pytest.raises(LexiconError, match="line 7: expected at least 3"):
        loaded(LF_ONLY + "\nbad")
    # a bare CR at the end of a last line without LF stays in the tag, which
    # annotation would write into a column
    with pytest.raises(LexiconError, match=r"lex.tsv: form 'psu': .* 'Ncmsl\\r' holds"):
        loaded(LF_ONLY + "\npsu\tpes\tNcmsl\r")


@pytest.mark.parametrize("lemma, xpos", [("pe\ts", "Ncmsn"), ("pes", "Nc\nmsn"), ("pes", "\r")])
def test_add_refuses_a_lemma_or_tag_that_breaks_a_column(lemma, xpos):
    lex = build([("pes", "pes", "Ncmsn", 3)])
    version = lex._version
    with pytest.raises(ValueError, match="holds a tab or a line break"):
        lex.add("psa", lemma, xpos)
    assert lex.to_rows() == [["pes", "pes", "Ncmsn", 3]] and lex._version == version
    with pytest.raises(ValueError, match="holds a tab or a line break"):
        Lexicon.from_rows([["psa", lemma, xpos, 1]])


@pytest.mark.parametrize("row", [
    (5, "pet", "Mlc", 1), ("pet", None, "Mlc", 1), ("pet", "pet", b"Mlc", 1),
    ("pet", "pet", "Mlc", Fraction(1, 2)), ("pet", "pet", "Mlc", "2"),
])
def test_add_refuses_a_row_that_is_not_strings_and_a_number(row):
    """What add stores, a model archive must be able to write and read back."""
    lex = build([("pes", "pes", "Ncmsn", True)])
    version = lex._version
    with pytest.raises(TypeError, match="is not \\[form, lemma, xpos, frequency\\]"):
        lex.add(*row)
    assert lex.to_rows() == [["pes", "pes", "Ncmsn", 1]] and lex._version == version


@pytest.mark.parametrize("frequency", [math.nan, math.inf, -math.inf])
def test_add_refuses_a_frequency_that_is_not_finite(frequency):
    """No archive can hold NaN or an infinity, so no lexicon holds one."""
    lex = build([("pes", "pes", "Ncmsn", 3)])
    version = lex._version
    with pytest.raises(ValueError, match=f"frequency {frequency!r} is not finite"):
        lex.add("pes", "pes", "Ncmsn", frequency)
    assert lex.to_rows() == [["pes", "pes", "Ncmsn", 3]] and lex._version == version
    lex.add("pes", "pes", "Ncmsn", 10**400)  # a large int is finite, and JSON writes it
    assert lex.to_rows() == [["pes", "pes", "Ncmsn", 3 + 10**400]]


# --- the TSV read in blocks -------------------------------------------------

# CRLF and multi-byte characters (2, 3 and 4 bytes in UTF-8) at every offset
# of a block of 1 to 7 bytes
SPLIT = "žaba\tžaba\tNcfsn\t2\r\nђак\tђак\tNcmsn\r\n\r\n\U0001f600x\tx\tY\t1\r\nč\tč\tQ\n"
SPLIT_ROWS = [
    ["č", "č", "Q", 1], ["žaba", "žaba", "Ncfsn", 2], ["ђак", "ђак", "Ncmsn", 1],
    ["\U0001f600x", "x", "Y", 1],
]


@pytest.mark.parametrize("size", range(1, 8))
def test_any_block_size_reads_the_same_rows(tmp_path, monkeypatch, size):
    monkeypatch.setattr(lexicon, "READ_BLOCK", size)
    for name, text, want in (("split", SPLIT, SPLIT_ROWS), ("lf-only", LF_ONLY, LF_ONLY_ROWS)):
        blob = text.encode("utf-8")
        (tmp_path / name).write_bytes(blob)
        (tmp_path / f"{name}.gz").write_bytes(gzip.compress(blob))
        assert load_lexicon(tmp_path / name).to_rows() == want
        assert load_lexicon(tmp_path / f"{name}.gz").to_rows() == want


@pytest.mark.parametrize("size", [1, 3, 7, 64 * 1024])
def test_errors_in_later_blocks_are_those_of_a_whole_read(tmp_path, monkeypatch, size):
    monkeypatch.setattr(lexicon, "READ_BLOCK", size)
    good = SPLIT * 4  # 20 lines
    path = tmp_path / "lex.tsv"
    for bad, message in (
        ("bad line\n", "line 21: expected at least 3 tab-separated columns, found 1"),
        ("a\tb\tX\t1\textra\r\n", "line 21: expected at most 4 columns, found 5"),
        ("a\tb\tX\tmany\n", "line 21: frequency 'many' is not an integer"),
        ("a\tb\r\tX\n", "form 'a': lemma 'b\\r' or tag 'X' holds a tab or a line break"),
        ("a\tb\tX\rY\t2\n", "form 'a': lemma 'b' or tag 'X\\rY' holds a tab or a line break"),
    ):
        path.write_bytes((good + bad + SPLIT).encode("utf-8"))
        with pytest.raises(LexiconError) as caught:
            load_lexicon(path)
        assert str(caught.value) == f"{path}: {message}"
    for blob in (good.encode() + b"\xc5x" + b"\n" * 9, good.encode() + b"ab\xe2\x82"):
        path.write_bytes(blob)
        with pytest.raises(UnicodeDecodeError) as whole:
            blob.decode("utf-8")
        with pytest.raises(LexiconError) as caught:
            load_lexicon(path)
        assert str(caught.value) == f"{path}: not valid UTF-8: {whole.value}"
        cause = caught.value.__cause__
        assert isinstance(cause, UnicodeDecodeError)
        assert (cause.start, cause.end, cause.reason) == (
            whole.value.start, whole.value.end, whole.value.reason
        )


@pytest.mark.parametrize("size", [1, 2, 3, 4, 64 * 1024])
def test_a_leading_byte_order_mark_is_dropped_at_any_block_size(tmp_path, monkeypatch, size):
    monkeypatch.setattr(lexicon, "READ_BLOCK", size)
    # a mark after the first character is a character of the form
    later = [SPLIT_ROWS[0], SPLIT_ROWS[2], ["\ufeffžaba", "žaba", "Ncfsn", 2], SPLIT_ROWS[3]]
    for text, want in (
        ("\ufeff" + SPLIT, SPLIT_ROWS), ("\n\ufeff" + SPLIT, later),
        ("\ufeff", []), ("", []), ("\n", []), ("\n\n", []),
    ):
        blob = text.encode("utf-8")
        for name, data in (("lex.tsv", blob), ("lex.tsv.gz", gzip.compress(blob))):
            (tmp_path / name).write_bytes(data)
            assert load_lexicon(tmp_path / name).to_rows() == want
    # the positions of a decoding error are those of a whole read, mark included
    path = tmp_path / "lex.tsv"
    path.write_bytes(b"a\tb")  # a file no longer than a mark is read too
    with pytest.raises(LexiconError, match="line 1: expected at least 3 tab-separated"):
        load_lexicon(path)
    for blob in (codecs.BOM_UTF8 + b"a\tb\tX\n\xc5x", codecs.BOM_UTF8[:2] + b"a\tb\tX\n"):
        path.write_bytes(blob)
        with pytest.raises(UnicodeDecodeError) as whole:
            blob.decode("utf-8")
        with pytest.raises(LexiconError) as caught:
            load_lexicon(path)
        assert str(caught.value) == f"{path}: not valid UTF-8: {whole.value}"


@pytest.mark.parametrize("packed", [False, True], ids=["plain", "gzip"])
def test_a_lexicon_is_read_from_a_pipe(tmp_path, packed):
    """A FIFO cannot seek: the gzip magic is peeked at, not read and put back."""
    blob = SPLIT.encode("utf-8")
    fifo = tmp_path / "lex.fifo"
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "wb") as out:
            out.write(gzip.compress(blob) if packed else blob)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        rows = load_lexicon(fifo).to_rows()
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert rows == SPLIT_ROWS


def _paradigm_file(tmp_path) -> tuple[Path, int]:
    """Paradigms of 2,000 random stems, 24,000 rows, with Zipf-like
    frequencies as in a corpus-derived lexicon, as a TSV file; and its row count."""
    lines = [f"{form}\t{lemma}\t{xpos}\t{freq}\n" for form, lemma, xpos, freq in paradigm_rows()]
    path = tmp_path / "lex.tsv"
    path.write_text("".join(sorted(lines)), encoding="utf-8")
    return path, len(lines)


def _traced_load(path) -> tuple[Lexicon, int, int]:
    """The lexicon at ``path``, and the bytes its load retains and peaks at."""
    tracemalloc.start()
    try:
        lex = load_lexicon(path)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return lex, retained, peak


def test_a_loaded_lexicon_holds_at_most_160_bytes_a_row(tmp_path):
    path, rows = _paradigm_file(tmp_path)
    lex, retained, _ = _traced_load(path)
    assert rows == 24000 and lex.form_count > 15000
    assert retained / rows <= 160


# between the 0.6 MB that reading the 0.6 MB file in 64 KiB blocks peaks at
# over what the lexicon holds and the 3.7 MB of reading it whole
LOAD_OVERHEAD_BOUND = 1_000_000


def test_loading_a_lexicon_peaks_little_above_what_it_holds(tmp_path):
    path, _ = _paradigm_file(tmp_path)
    _, retained, peak = _traced_load(path)
    assert peak - retained < LOAD_OVERHEAD_BOUND, (peak, retained)


def test_closed_class_checks_the_form_and_its_lowercase_separately():
    lex = build([("Ta", "Ta", "Ncmsn", 1), ("ta", "ta", "Pd-msn", 9)])
    assert lex.allowed_tags("Ta") == {"Ncmsn"}
    assert lex.in_closed_class("pronoun", "Ta")
    assert lex.closed_class_allows("Ta", "Pd-msn")
    assert lex.closed_class_forms("pronoun") == {"ta"}
    assert not lex.in_closed_class("no-such-class", "ta")
    assert lex.closed_class_forms("no-such-class") == set()


OVERLAPPING_PREFIXES = {"pronoun": "P", "personal-pronoun": "Pp", "conjunction": "C"}
_forms = st.text(alphabet="aAbB", min_size=1, max_size=3)
# tags with no closed prefix, one-character and two-character prefixes
TAGS = ["Ncfsn", "Vmpr3s", "Sl", "Q", "Pp1", "Pd", "P", "Cc", "Cs", "Cx", "D"]
_lexicon_rows = st.lists(
    st.tuples(_forms, st.sampled_from(["x", "y"]), st.sampled_from(TAGS), st.integers(1, 3)),
    max_size=12,
)


@given(rows=_lexicon_rows, table=st.sampled_from([None, OVERLAPPING_PREFIXES]))
def test_closed_classes_follow_the_listed_tags(rows, table):
    lex = Lexicon(table)
    for row in rows:
        lex.add(*row)
    prefixes = lex.prefix_table
    listed: dict[str, set[str]] = {}
    for form, _, xpos, _ in rows:
        listed.setdefault(form, set()).add(xpos)

    def member(category, form):
        prefix = prefixes[category]
        return any(x.startswith(prefix) for f in (form, form.lower()) for x in listed.get(f, ()))

    queried = sorted({f for f, *_ in rows} | {f.upper() for f, *_ in rows} | {"zz"})
    tsv = "".join(f"{f}\t{lemma}\t{x}\t{n}\n" for f, lemma, x, n in rows)
    built = Lexicon.from_rows(lex.to_rows(), table)
    read = Lexicon.from_rows(loaded(tsv).to_rows(), table)
    for got in (lex, built, read):
        assert got.to_rows() == lex.to_rows()
        for category, prefix in prefixes.items():
            assert got.closed_class_forms(category) == {
                f for f, tags in listed.items() if any(x.startswith(prefix) for x in tags)
            }
            for form in queried:
                assert got.in_closed_class(category, form) == member(category, form)
        for form in queried:
            for xpos in TAGS:
                assert got.closed_class_allows(form, xpos) == all(
                    member(c, form) for c, p in prefixes.items() if xpos.startswith(p)
                )
