import dataclasses
import functools
import re
import sys
import time
import unicodedata

import pytest
from hypothesis import given, settings, strategies as st

from slavpipe.cli import main
from slavpipe.conllu import (
    Token,
    parse_document,
    sentence_text,
    serialize_document,
    text_layout,
    validate_document,
)
from slavpipe.errors import ConfigurationError, DataError
from slavpipe.tokenizer import (
    BLANK_LINE,
    KNOWN_LANGUAGES,
    _EMAIL_RE,
    _HASHTAG_RE,
    _MENTION_RE,
    _SPECIAL_TRIM,
    _URL_RE,
    TERMINAL_CHARS,
    ClosedClassEntry,
    TokenizerMode,
    _is_punct_or_sym,
    _is_terminal_form,
    _may_hold_special,
    _Specials,
    _split_chunk,
    default_rules,
    is_closed_class_fixed,
    paragraph_blocks,
    parse_rules,
    tokenize,
)

from support import FUZZ_PIECES, renumbered, without_blank_lines


@functools.cache
def _shipped_rules(language):
    return default_rules(language)


@pytest.fixture(scope="module")
def sl_rules():
    return default_rules("sl")


@pytest.fixture(scope="module")
def hr_rules():
    return default_rules("hr")


def forms(doc):
    return [[t.form for t in s.tokens] for s in doc.sentences]


def test_basic_sentence_split(sl_rules):
    doc = tokenize("Pes teče. Mačka spi.", TokenizerMode.STANDARD, sl_rules)
    assert forms(doc) == [["Pes", "teče", "."], ["Mačka", "spi", "."]]
    assert doc.sentences[0].text == "Pes teče."
    assert validate_document(doc) == []


def test_standard_keeps_sentence_open_before_lowercase(sl_rules):
    # a period followed by a lowercase word does not end the sentence
    doc = tokenize("Vzorec št. 5 je tu.", TokenizerMode.STANDARD, sl_rules)
    assert len(doc.sentences) == 1


def test_nonstandard_breaks_after_every_terminal(sl_rules):
    doc = tokenize("Pes teče. mačka spi.", TokenizerMode.NONSTANDARD, sl_rules)
    assert len(doc.sentences) == 2
    doc = tokenize("Res?! ja", TokenizerMode.NONSTANDARD, sl_rules)
    assert len(doc.sentences) == 2


def test_abbreviation_keeps_period(sl_rules):
    doc = tokenize("Dr. Novak je npr. tu.", TokenizerMode.STANDARD, sl_rules)
    sent = doc.sentences[0]
    assert "Dr." in [t.form for t in sent.tokens]
    assert "npr." in [t.form for t in sent.tokens]


def test_ordinal_number_keeps_period(sl_rules):
    doc = tokenize("Prišel je 3. maja.", TokenizerMode.STANDARD, sl_rules)
    assert "3." in [t.form for t in doc.sentences[0].tokens]


def test_final_period_splits_off(sl_rules):
    doc = tokenize("Pes teče.", TokenizerMode.STANDARD, sl_rules)
    assert forms(doc) == [["Pes", "teče", "."]]
    assert doc.sentences[0].tokens[1].space_after is False


def test_url_and_mention_stay_whole(sl_rules):
    doc = tokenize(
        "Glej https://example.com/x?q=1 in piši @nekdo #tema :)",
        TokenizerMode.NONSTANDARD,
        sl_rules,
    )
    flat = [t.form for s in doc.sentences for t in s.tokens]
    assert "https://example.com/x?q=1" in flat
    assert "@nekdo" in flat
    assert "#tema" in flat
    assert ":)" in flat


def test_emoticon_not_shredded_before_quote(sl_rules):
    doc = tokenize("super :)“ je rekel", TokenizerMode.NONSTANDARD, sl_rules)
    flat = [t.form for s in doc.sentences for t in s.tokens]
    assert ":)" in flat
    assert "“" in flat


def test_reported_speech_mode_contrast(reported_speech_text, hr_rules):
    standard = tokenize(reported_speech_text, TokenizerMode.STANDARD, hr_rules)
    nonstandard = tokenize(reported_speech_text, TokenizerMode.NONSTANDARD, hr_rules)
    assert len(standard.sentences) == 1
    assert len(nonstandard.sentences) == 2
    assert [t.form for t in nonstandard.sentences[1].tokens] == ["“"]
    # both modes reconstruct the same raw text
    assert text_layout(standard)[0] == text_layout(nonstandard)[0]


def test_space_after_marks_follow_input(sl_rules):
    doc = tokenize("a,b c", TokenizerMode.STANDARD, sl_rules)
    sent = doc.sentences[0]
    by_form = {t.form: t.space_after for t in sent.tokens}
    assert by_form["a"] is False
    assert by_form[","] is False
    assert by_form["b"] is True


def test_closed_class_punctuation_tagged(sl_rules):
    doc = tokenize("Pes teče.", TokenizerMode.STANDARD, sl_rules)
    dot = doc.sentences[0].tokens[-1]
    assert dot.upos == "PUNCT"
    assert dot.xpos == "Z"
    assert dot.lemma == "."
    assert is_closed_class_fixed(dot)


def test_closed_class_mark_follows_space_after(sl_rules):
    doc = tokenize("(Danes) dežuje.", TokenizerMode.STANDARD, sl_rules)
    misc = [t.misc for t in doc.sentences[0].tokens]
    assert misc == [
        "SpaceAfter=No|ClosedClass=Yes", "SpaceAfter=No", "ClosedClass=Yes",
        "SpaceAfter=No", "ClosedClass=Yes",
    ]


def test_closed_class_symbol_tagged(sl_rules):
    doc = tokenize("Cena je 10 €.", TokenizerMode.STANDARD, sl_rules)
    flat = {t.form: t for s in doc.sentences for t in s.tokens}
    assert flat["€"].upos == "SYM"
    assert is_closed_class_fixed(flat["€"])


def test_closed_class_fix_marks_the_token_in_place():
    tok = Token(id=3, form=".", feats="X=Y", head=2, deprel="punct", misc="SpaceAfter=No")
    entry = ClosedClassEntry("PUNCT", "Z", ".")
    entry.fix(tok)
    want = Token(
        id=3, form=".", lemma=".", upos="PUNCT", xpos="Z", feats="X=Y", head=2,
        deprel="punct", misc="SpaceAfter=No|ClosedClass=Yes",
    )
    assert tok == want
    entry.fix(tok)
    assert tok == want


def test_empty_input_gives_empty_document(sl_rules):
    assert tokenize("", TokenizerMode.STANDARD, sl_rules).sentences == []
    assert tokenize("  \n \t ", TokenizerMode.STANDARD, sl_rules).sentences == []


def test_unknown_language_refused():
    with pytest.raises(ConfigurationError, match="language"):
        default_rules("xx")


def test_rules_parser_rejects_bad_section():
    with pytest.raises(DataError, match="line 1"):
        parse_rules("[WHAT]\n")
    with pytest.raises(DataError, match="line 2: entry before any section header"):
        parse_rules("# comment\ndr.\n[ABBREV]\n")


def test_rules_parser_sections():
    rules = parse_rules(
        "# comment\n[ABBREV]\ndr.\n[EMOTICON]\n:)\n[CLOSED_PUNCT]\n.\n[CLOSED_SYM]\n€\n"
    )
    assert "dr." in rules.abbreviations
    assert ":)" in rules.emoticons
    assert "." in rules.closed_class.entries
    assert rules.closed_class.entries["€"].upos == "SYM"


def test_every_shipped_language_has_rules():
    for lang in ("sl", "hr", "sr", "bg", "mk"):
        rules = default_rules(lang)
        assert rules.abbreviations
        assert "." in rules.closed_class.entries


# --- fast rejects -----------------------------------------------------------

_SL_EMOTICONS = default_rules("sl").peelable_emoticons
_CHUNK_PIECES = [
    *"HTPWſKhtpwsk", *"aeiouxzAZčš", *"0123456789", *",;.:/@#()-_+", "http", "HtTp",
    "www.", "WwW.", "://", *_SL_EMOTICONS,
]


def _first_special_end(chunk, pos):
    # the first pattern that matches at pos and keeps a nonempty trimmed token
    for pattern in (_URL_RE, _EMAIL_RE, _MENTION_RE, _HASHTAG_RE):
        m = pattern.match(chunk, pos)
        if m:
            token = m.group(0).rstrip("".join(_SPECIAL_TRIM))
            if token:
                return pos + len(token)
    return -1


@given(st.lists(st.sampled_from(_CHUNK_PIECES), min_size=1, max_size=12).map("".join))
def test_special_prefilter_passes_every_chunk_a_pattern_matches(chunk):
    # asked at increasing positions, as the chunk splitter asks
    specials = _Specials(chunk)
    ends = [specials.end(pos) for pos in range(len(chunk))]
    assert ends == [_first_special_end(chunk, pos) for pos in range(len(chunk))]
    if any(end != -1 for end in ends):
        assert _may_hold_special(chunk)


@given(st.text(alphabet=[*sorted(TERMINAL_CHARS), "a", ",", ":"]))
def test_terminal_form_is_all_terminal_chars(form):
    assert _is_terminal_form(form) == (bool(form) and all(ch in TERMINAL_CHARS for ch in form))


# Expected forms were produced by the tokenizer before the fast rejects.
@pytest.mark.parametrize(
    "text, standard, nonstandard",
    [
        (":Dobro", [[":", "Dobro"]], [[":", "Dobro"]]),
        ("super:-):)", [["super", ":", "-", ")", ":", ")"]], [["super", ":-)", ":)"]]),
        ("HTTP://X.SI/a,", [["HTTP://X.SI/a", ","]], [["HTTP://X.SI/a", ","]]),
        ("WwW.primer.si)", [["WwW.primer.si", ")"]], [["WwW.primer.si", ")"]]),
        ("ana@b.si.", [["ana@b.si", "."]], [["ana@b.si", "."]]),
        ("@ana!!", [["@", "ana", "!!"]], [["@ana", "!!"]]),
        ("#novo…", [["#", "novo", "…"]], [["#novo", "…"]]),
        ("3,14", [["3,14"]], [["3,14"]]),
        ("a,b;c", [["a", ",", "b", ";", "c"]], [["a", ",", "b", ";", "c"]]),
        ("?!…", [["?!…"]], [["?!…"]]),
    ],
)
def test_chunk_splits_in_both_modes(sl_rules, text, standard, nonstandard):
    assert forms(tokenize(text, TokenizerMode.STANDARD, sl_rules)) == standard
    assert forms(tokenize(text, TokenizerMode.NONSTANDARD, sl_rules)) == nonstandard


# --- long chunks ------------------------------------------------------------
# Separator lines, emoticon runs and spam without spaces are one chunk each;
# splitting one must not grow the stack with its length.

LONG_CHUNKS = [
    "-=" * 5000,
    "-)" * 5000,
    ":)" * 5000,
    "(:)" * 3400,
    "@a.b" + ".," * 5000,
]


@pytest.mark.parametrize("mode", list(TokenizerMode))
@pytest.mark.parametrize("chunk", LONG_CHUNKS, ids=lambda c: c[:4])
def test_long_chunks_split_without_recursion(sl_rules, mode, chunk):
    doc = tokenize(chunk, mode, sl_rules)
    assert "".join(form for sent in forms(doc) for form in sent) == chunk
    assert validate_document(doc) == []


@pytest.mark.parametrize("mode", list(TokenizerMode))
def test_a_long_chunk_splits_in_linear_time(sl_rules, mode):
    # under a second when linear; slicing the rest of the chunk for each
    # piece made the nonstandard split take over half a minute (2 shared CPUs)
    chunk = "-=" * 200_000
    start = time.perf_counter()
    pieces = _split_chunk(chunk, mode, sl_rules)
    assert time.perf_counter() - start < 10
    assert pieces == list(chunk)


def test_cli_tokenizes_a_long_chunk(tmp_path, capsys):
    src = tmp_path / "in.txt"
    src.write_text("Danes " + "-=" * 5000 + " jutri.", encoding="utf-8")
    code = main(["annotate", "--lang", "sl", "--type", "web", "--tasks", "tokenize",
                 "--in", str(src)])
    assert code == 0
    doc = parse_document(capsys.readouterr().out)
    assert validate_document(doc) == []
    assert "-=" * 5000 in "".join(t.form for s in doc.sentences for t in s.tokens)


_CHUNK_ALPHABET = [*_SL_EMOTICONS, *"@#(),;.:-=!?", *"abXč"]


@given(
    unit=st.lists(st.sampled_from(_CHUNK_ALPHABET), min_size=1, max_size=6).map("".join),
    repeats=st.integers(min_value=1, max_value=600),
    tail=st.lists(st.sampled_from(_CHUNK_ALPHABET), max_size=30).map("".join),
)
def test_any_chunk_splits_back_into_itself(sl_rules, unit, repeats, tail):
    chunk = unit * repeats + tail
    for mode in TokenizerMode:
        doc = tokenize(chunk, mode, sl_rules)
        assert "".join(form for sent in forms(doc) for form in sent) == chunk


# --- whitespace chunks ------------------------------------------------------


def test_str_split_chunks_are_the_non_whitespace_runs():
    # every code point, each between two letters: str.split() and \S+ agree
    # on which of them separate chunks
    text = "x".join(map(chr, range(sys.maxunicode + 1)))
    assert text.split() == re.findall(r"\S+", text)


def test_lowercasing_keeps_the_fast_rejects_exact():
    # _split_chunk compares lengths before lowercasing a piece, and
    # _may_hold_special looks for "http" and "www." in a lowercased chunk
    chars = list(map(chr, range(sys.maxunicode + 1)))
    assert all(ch.lower() for ch in chars)
    assert {ch for ch in chars if ch.lower() in ("h", "t", "p", "w", ".")} == set("hHtTpPwW.")


_TEXT_ALPHABET = [
    " ", "\n", "\x1c", "\x85", "\u2028", "\u3000",  # whitespace to str.isspace
    "\u200b",  # not whitespace
    *".!?…", *"\"”»)", *"AČ1", *"ažx", *":-,@#",
]


@given(st.text(alphabet=_TEXT_ALPHABET, max_size=40))
def test_tokens_are_the_split_whitespace_chunks(sl_rules, text):
    for mode in TokenizerMode:
        chunks = [_split_chunk(chunk, mode, sl_rules) for chunk in text.split()]
        doc = tokenize(text, mode, sl_rules)
        tokens = [tok for sent in doc.sentences for tok in sent.tokens]
        assert [tok.form for tok in tokens] == [form for pieces in chunks for form in pieces]
        # SpaceAfter=No marks exactly the pieces that end inside a chunk
        last_in_chunk = [i == len(pieces) - 1 for pieces in chunks for i in range(len(pieces))]
        assert [tok.space_after for tok in tokens] == last_in_chunk
        for sent in doc.sentences:
            assert sent.text == sentence_text(sent)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from(FUZZ_PIECES), max_size=16).map("".join))
def test_tokenizer_output_passes_the_validator(sl_rules, text):
    for mode in TokenizerMode:
        assert validate_document(tokenize(text, mode, sl_rules)) == []


# --- blank lines ------------------------------------------------------------


_PARAGRAPH_PIECES = st.sampled_from([*FUZZ_PIECES, "\n ", " \n", "\r\n\t"])
_PARAGRAPHS = st.lists(_PARAGRAPH_PIECES, max_size=12).map("".join).map(without_blank_lines)
_BLANK_LINES = ["\n\n", "\r\n\r\n", "\n \t\n", "\n\n\n\n", "\r\r", "\r\n\r", "\n\r\n", "\r \r"]


@settings(max_examples=200, deadline=None)
@given(
    paragraphs=st.lists(_PARAGRAPHS, min_size=1, max_size=5),
    blanks=st.lists(st.sampled_from(_BLANK_LINES), min_size=4, max_size=4),
)
def test_a_blank_line_ends_a_sentence(sl_rules, paragraphs, blanks):
    text = paragraphs[0] + "".join(map(str.__add__, blanks, paragraphs[1:]))
    for mode in TokenizerMode:
        joined = tokenize(text, mode, sl_rules)
        apart = renumbered(*(tokenize(p, mode, sl_rules) for p in paragraphs))
        assert serialize_document(joined) == serialize_document(apart)


@pytest.mark.parametrize("mode", list(TokenizerMode))
@pytest.mark.parametrize("blank", _BLANK_LINES)
def test_a_heading_is_a_sentence_of_its_own(sl_rules, mode, blank):
    doc = tokenize(f"Naslov članka{blank}Danes dežuje.", mode, sl_rules)
    assert [(s.sent_id, s.text) for s in doc.sentences] == [
        ("1", "Naslov članka"), ("2", "Danes dežuje."),
    ]


_BLOCK_PIECES = st.sampled_from(
    ["Pes", "teče", "Danes", ".", "!", " ", "\t", "\n", "\r", "\r\n", *_BLANK_LINES]
)


@settings(max_examples=300, deadline=None)
@given(pieces=st.lists(_BLOCK_PIECES, max_size=20), cuts=st.lists(st.integers(0, 60), max_size=6))
def test_paragraph_blocks_cut_only_at_blank_lines(sl_rules, pieces, cuts):
    # the cuts fall anywhere: inside a CRLF, inside a blank line, between
    # two of them, and make empty blocks
    text = "".join(pieces)
    bounds = [0, *sorted(min(cut, len(text)) for cut in cuts), len(text)]
    out = list(paragraph_blocks(text[i:j] for i, j in zip(bounds, bounds[1:])))
    assert "".join(out) == text
    # each piece but the last ends where a blank line of the text ends (which
    # may open on the line end that closed the one before), never in a CRLF
    end = 0
    for piece in out[:-1]:
        end += len(piece)
        assert re.search(f"(?:{BLANK_LINE.pattern})\\Z", text[:end])
        assert text[end - 1 : end + 1] != "\r\n"
    for mode in TokenizerMode:
        apart = renumbered(*(tokenize(piece, mode, sl_rules) for piece in out))
        assert serialize_document(apart) == serialize_document(tokenize(text, mode, sl_rules))


@pytest.mark.parametrize("mode", list(TokenizerMode))
@pytest.mark.parametrize("line_end", ["\n", "\r", "\r\n", "\r\n \t"])
def test_one_line_end_is_no_blank_line(sl_rules, mode, line_end):
    # a CRLF is one line end, never a CR and then an LF
    doc = tokenize(f"Naslov članka{line_end}danes dežuje", mode, sl_rules)
    assert len(doc.sentences) == 1


@pytest.mark.parametrize("mode", list(TokenizerMode))
def test_whitespace_between_line_feeds_is_no_blank_line(sl_rules, mode):
    # a line feed, another line break (U+2028, U+0085) and no second line feed
    doc = tokenize("Naslov članka\n \x85danes dežuje.", mode, sl_rules)
    assert len(doc.sentences) == 1


def test_no_letter_or_digit_is_punctuation_or_a_symbol():
    # _split_chunk cuts only at punctuation and symbols, so tokenize takes a
    # chunk that str.isalnum accepts whole, without asking _split_chunk; and
    # _is_punct_or_sym answers False for such a character without the lookup
    chars = map(chr, range(sys.maxunicode + 1))
    assert not [ch for ch in chars if ch.isalnum() and unicodedata.category(ch)[0] in "PS"]


@pytest.mark.parametrize("ch", ["a", "Ž", "5", "٣", "(", "€", "…", " ", "\x00", "\u0301"])
def test_is_punct_or_sym_is_the_unicode_category(ch):
    assert _is_punct_or_sym(ch) is (unicodedata.category(ch)[0] in "PS")


FIELDS = [f.name for f in dataclasses.fields(Token)]
# words around a closed-class form that make no abbreviation, ordinal,
# emoticon or special with it, so the form is a token of its own
_WORDS = ["pes", "Mačka", "teče", "ДА", "ok"]


@pytest.mark.parametrize("language", KNOWN_LANGUAGES)
@pytest.mark.parametrize("mode", list(TokenizerMode))
@settings(max_examples=20, deadline=None)
@given(
    before=st.sampled_from(["", *_WORDS]),
    after=st.sampled_from(["", *_WORDS]),
    glued=st.sampled_from(["before", "after", "neither"]),
)
def test_a_closed_class_token_is_the_token_fix_marks(language, mode, before, after, glued):
    """Every closed-class form of the shipped rules, followed by a space, by
    the end of the text or by a word: the token tokenize builds is a plain
    token marked by :meth:`ClosedClassEntry.fix`, with its fields in order."""
    rules = _shipped_rules(language)
    for form, entry in rules.closed_class.entries.items():
        left = before + ("" if glued == "before" else " ") if before else ""
        right = ("" if glued == "after" else " ") + after if after else ""
        tok = tokenize(left + form + right, mode, rules).sentences[0].tokens[1 if before else 0]
        spaced = not (after and glued == "after")
        want = Token(tok.id, form, misc=None if spaced else "SpaceAfter=No")
        entry.fix(want)
        assert tok == want
        assert list(vars(tok)) == FIELDS


@given(st.text(alphabet=st.characters(categories=("L", "N")), min_size=1))
def test_a_chunk_of_letters_and_digits_is_one_form(sl_rules, chunk):
    assert chunk.isalnum()
    for mode in TokenizerMode:
        assert _split_chunk(chunk, mode, sl_rules) == [chunk]
