"""Rule-based tokenizer and sentence splitter.

Two modes share one mechanism.  *Standard* mode is conservative: it keeps
known abbreviations and ordinal-number periods attached, requires whitespace
plus an upper-case letter or digit before opening a new sentence, and pulls
closing quotes that hug a terminal punctuation mark into the sentence they
close.  *Nonstandard* mode is aimed at user-generated text: it additionally
recognizes URLs, e-mail addresses, @-mentions, #-hashtags and emoticons as
single tokens, and opens a new sentence after every terminal punctuation
token.  In both modes a blank line ends a sentence: a line end, then any
whitespace other than CR and LF, then a line end (:data:`BLANK_LINE`).  A
line end is an LF, a CRLF or a lone CR (:data:`LINE_END`), as Python's text
files read them; a CRLF is one line end, never two.  No sentence crosses a
blank line, so a text tokenizes to the sentences of its paragraphs, one
after another.

Abbreviation lists, emoticon inventories and the closed-class table for
punctuation and symbols live in per-language rule files (see
:func:`load_rules` for the format); the files shipped with the package are
available through :func:`default_rules`.

:func:`tokenize` makes one pass over the text.  ``_scan`` reads the chunks
of each paragraph, the runs ``str.split()`` yields, into one list of forms
and records where each paragraph ends (a text without CR and LF is one
paragraph and is not searched for blank lines); ``_segment`` returns the end
index of each sentence of one paragraph.  ``tokenize`` builds each token
once from them as :func:`~slavpipe.conllu.copy_document` builds a copy, with
no call per token, and writes a closed-class form's tags, lemma and misc as
:meth:`ClosedClassEntry.fix` would.  Its misc is
then one of the two strings of :data:`TOKENIZER_FIXED`, so a later stage
tells it is fixed by set membership, without parsing misc.
:func:`paragraph_blocks` cuts a text that arrives in blocks into pieces that
end at blank lines.
"""

from __future__ import annotations

import enum
import re
import unicodedata
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .conllu import Document, Sentence, Token, misc_set, misc_value
from .errors import ConfigurationError, DataError, read_text
from .memo import memo_table, remember

KNOWN_LANGUAGES = ("sl", "hr", "sr", "bg", "mk")

TERMINAL_CHARS = frozenset(".!?…")

# Characters that may close a quotation or bracket once a sentence has ended.
CLOSING_CHARS = frozenset("\"'”“»«’)]}")

CLOSED_CLASS_MISC = "ClosedClass"


class TokenizerMode(enum.Enum):
    STANDARD = "standard"
    NONSTANDARD = "nonstandard"


@dataclass(frozen=True)
class ClosedClassEntry:
    upos: str
    xpos: str
    lemma: str

    def fix(self, token: Token) -> None:
        """Give ``token`` this entry's tags and lemma and mark it fixed in misc,
        so later stages know not to overwrite them."""
        token.upos = self.upos
        token.xpos = self.xpos
        token.lemma = self.lemma
        token.misc = misc_set(token.misc, CLOSED_CLASS_MISC, "Yes")


class ClosedClassTable:
    """Exact surface forms with fixed tag and lemma assignments."""

    def __init__(self, entries: dict[str, ClosedClassEntry] | None = None):
        self.entries = dict(entries or {})

    def __contains__(self, form: str) -> bool:
        return form in self.entries

    def add_punctuation(self, form: str) -> None:
        self.entries[form] = ClosedClassEntry("PUNCT", "Z", form)

    def add_symbol(self, form: str) -> None:
        self.entries[form] = ClosedClassEntry("SYM", "X", form)


@dataclass
class TokenizerRules:
    """The inventories the tokenizer reads.

    Abbreviations and emoticons are frozen at construction: chunk splits
    are memoised on the rules object, so what decides them must not change.
    """

    abbreviations: frozenset[str] = frozenset()
    emoticons: frozenset[str] = frozenset()
    closed_class: ClosedClassTable = field(default_factory=ClosedClassTable)

    def __post_init__(self) -> None:
        self.abbreviations = frozenset(self.abbreviations)
        self.emoticons = frozenset(self.emoticons)
        # Only emoticons that start with punctuation or a symbol are peeled
        # off chunk ends, longest first.  Letter-only ones (xD and friends)
        # match whole chunks only; peeling them would cut into ordinary words.
        peel = [emo for emo in self.emoticons if _is_punct_or_sym(emo[0])]
        self.peelable_emoticons = tuple(sorted(peel, key=lambda emo: (-len(emo), emo)))
        # longer pieces of a chunk are not looked up in the inventories
        self.longest_emoticon = max(map(len, self.emoticons), default=0)
        self.longest_abbreviation = max(map(len, self.abbreviations), default=0)


_SECTIONS = ("ABBREV", "EMOTICON", "CLOSED_PUNCT", "CLOSED_SYM")


def load_rules(source: str | Path) -> TokenizerRules:
    """Read a tokenizer rule file.

    The format is plain text split into ``[ABBREV]``, ``[EMOTICON]``,
    ``[CLOSED_PUNCT]`` and ``[CLOSED_SYM]`` sections with one entry per line.
    Lines starting with ``# `` are comments.
    """
    return parse_rules(read_text(source), name=str(source))


def parse_rules(text: str, name: str = "<rules>") -> TokenizerRules:
    abbreviations: set[str] = set()
    emoticons: set[str] = set()
    closed_class = ClosedClassTable()
    section: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("# "):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1]
            if section not in _SECTIONS:
                raise DataError(f"{name}: line {lineno}: unknown section {section!r}")
            continue
        if section is None:
            raise DataError(f"{name}: line {lineno}: entry before any section header")
        if section == "ABBREV":
            abbreviations.add(line.lower())
        elif section == "EMOTICON":
            emoticons.add(line)
        elif section == "CLOSED_PUNCT":
            closed_class.add_punctuation(line)
        else:
            closed_class.add_symbol(line)
    return TokenizerRules(abbreviations, emoticons, closed_class)


def default_rules(language: str) -> TokenizerRules:
    """Load the rule file shipped with the package for ``language``."""
    if language not in KNOWN_LANGUAGES:
        raise ConfigurationError(
            f"no tokenizer rules for language {language!r} "
            f"(known: {', '.join(KNOWN_LANGUAGES)})"
        )
    text = (
        resources.files("slavpipe")
        .joinpath(f"data/rules/{language}.rules")
        .read_text(encoding="utf-8")
    )
    return parse_rules(text, name=f"{language}.rules")


def is_closed_class_fixed(token: Token) -> bool:
    return misc_value(token.misc, CLOSED_CLASS_MISC) == "Yes"


# --- chunk splitting -------------------------------------------------------
# A chunk is split by index, each scan starting where the last one stopped,
# so a whitespace-free line of any length splits in time linear in its
# length.

_URL_RE = re.compile(r"(?:https?://|www\.)\S+", re.IGNORECASE)
_EMAIL_LOCAL_CLASS = "[A-Za-z0-9_.+-]"
_EMAIL_RE = re.compile(_EMAIL_LOCAL_CLASS + r"+@[A-Za-z0-9-]+\.[A-Za-z0-9.-]*[A-Za-z0-9]")
_EMAIL_LOCAL = frozenset(ch for ch in map(chr, range(128)) if re.fullmatch(_EMAIL_LOCAL_CLASS, ch))
_MENTION_RE = re.compile(r"@\w+")
_HASHTAG_RE = re.compile(r"#\w+")
_SEPARATOR_RE = re.compile("[,;]")

# Trailing characters a URL match should not swallow.
_SPECIAL_TRIM = frozenset(".,;:!?…\"'”“„»«’)]}")

_ORDINAL_RE = re.compile(r"\d+\.")


def _is_punct_or_sym(ch: str) -> bool:
    # no letter or digit is in a P or S category, so these skip the lookup
    return not ch.isalnum() and unicodedata.category(ch)[0] in "PS"


def _is_terminal_form(form: str) -> bool:
    return bool(form) and not form.strip(".!?…")  # ".!?…" is TERMINAL_CHARS


def _may_hold_special(chunk: str) -> bool:
    """A cheap test that passes every chunk :class:`_Specials` can find one in."""
    if "@" in chunk or "#" in chunk:
        return True
    # str.lower maps only H, T, P and W onto h, t, p and w, and keeps "."
    low = chunk.lower()
    return "http" in low or "www." in low


class _Specials:
    """The URL, e-mail, mention or hashtag starting at each head position of
    one chunk, asked for at increasing positions.

    The next ``@`` is found once, and the e-mail through it is matched once:
    its local part must run unbroken from the start up to the ``@``, so every
    start inside that run gives the same end.
    """

    def __init__(self, chunk: str) -> None:
        self.chunk = chunk
        self.at = -1  # the next "@" at or after the last position, or len(chunk)
        self.email = (0, -1)  # (first start, end) of the e-mail through self.at
        self.punct_tail: int | None = None

    def end(self, pos: int) -> int:
        """The end of the trimmed special starting at ``pos``, or -1."""
        chunk = self.chunk
        # A URL needs "http" or "www." in any case: under IGNORECASE only the
        # ASCII pair of each letter matches h, t, p or w.  An e-mail needs an
        # "@" ahead, a mention one here and a hashtag a "#" here.
        if chunk[pos:pos + 4].lower() in ("http", "www."):
            m = _URL_RE.match(chunk, pos)
            if m:  # it starts with letters, so trimming leaves it non-empty
                end = m.end()
                while chunk[end - 1] in _SPECIAL_TRIM:
                    end -= 1
                return end
        if pos > self.at:
            self._find_at(pos)
        if pos < self.at < len(chunk):
            start, end = self.email
            if start <= pos and end != -1:
                return end  # ends in a letter or digit, so trimming keeps it
        first = chunk[pos]
        if first == "@" or first == "#":
            m = (_MENTION_RE if first == "@" else _HASHTAG_RE).match(chunk, pos)
            if m:
                return m.end()  # \w holds no trimmed character
        return -1

    def _find_at(self, pos: int) -> None:
        chunk = self.chunk
        at = chunk.find("@", pos)
        if at == -1:
            self.at = len(chunk)
            return
        self.at = at
        start = at
        while start > 0 and chunk[start - 1] in _EMAIL_LOCAL:
            start -= 1
        m = _EMAIL_RE.match(chunk, start) if start < at else None
        self.email = (start, m.end() if m else -1)

    def only_punct_from(self, pos: int) -> bool:
        """Whether ``chunk[pos:]`` holds only punctuation and symbols."""
        if self.punct_tail is None:
            chunk = self.chunk
            i = len(chunk)
            while i > 0 and _is_punct_or_sym(chunk[i - 1]):
                i -= 1
            self.punct_tail = i
        return pos >= self.punct_tail


def _leading_run_end(chunk: str, pos: int) -> int:
    first = chunk[pos]
    i = pos + 1
    n = len(chunk)
    if first in TERMINAL_CHARS:
        while i < n and chunk[i] in TERMINAL_CHARS:
            i += 1
    else:
        while i < n and chunk[i] == first:
            i += 1
    return i


def _trailing_run_start(chunk: str, pos: int, end: int) -> int:
    last = chunk[end - 1]
    i = end - 1
    if last in TERMINAL_CHARS:
        while i > pos and chunk[i - 1] in TERMINAL_CHARS:
            i -= 1
    else:
        while i > pos and chunk[i - 1] == last:
            i -= 1
    return i


def _emoticon_suffix(chunk: str, pos: int, end: int, rules: TokenizerRules) -> str | None:
    if not chunk.endswith(rules.peelable_emoticons, pos, end):
        return None
    for emo in rules.peelable_emoticons:
        if chunk.endswith(emo, pos, end):
            return emo
    return None


def _emoticon_prefix(chunk: str, pos: int, rules: TokenizerRules) -> str | None:
    if not chunk.startswith(rules.peelable_emoticons, pos):
        return None
    for emo in rules.peelable_emoticons:
        if chunk.startswith(emo, pos):
            after = pos + len(emo)
            if after == len(chunk) or not chunk[after].isalnum():
                return emo
    return None


def _split_chunk(chunk: str, mode: TokenizerMode, rules: TokenizerRules) -> list[str]:
    nonstandard = mode is TokenizerMode.NONSTANDARD
    out: list[str] = []
    n = len(chunk)
    pos = 0
    specials = _Specials(chunk) if nonstandard and _may_hold_special(chunk) else None
    # head pieces of chunk[pos:], in order: a whole emoticon, an emoticon
    # prefix, a special followed only by punctuation, a leading punctuation run
    while pos < n:
        if nonstandard:
            if n - pos <= rules.longest_emoticon and chunk[pos:] in rules.emoticons:
                out.append(chunk[pos:])
                return out
            emo = _emoticon_prefix(chunk, pos, rules)
            if emo is not None:
                out.append(emo)
                pos += len(emo)
                continue
            end = specials.end(pos) if specials is not None else -1
            if end != -1 and specials.only_punct_from(end):
                out.append(chunk[pos:end])
                pos = end
                continue
        if not _is_punct_or_sym(chunk[pos]):
            break
        end = _leading_run_end(chunk, pos)
        out.append(chunk[pos:end])
        pos = end

    # tail pieces, peeled off the end of the core chunk[pos:end]
    tail: list[str] = []
    end = n
    ordinal_end = None  # where "\d+\." matched from pos ends, -1 if it did not
    while pos < end:
        if nonstandard:
            emo = _emoticon_suffix(chunk, pos, end, rules)
            if emo is not None:
                tail.append(emo)
                end -= len(emo)
                continue
        if not _is_punct_or_sym(chunk[end - 1]):
            break
        if not nonstandard and chunk[end - 1] == "." and end - pos >= 2:
            # the core keeps its final period as an ordinal or abbreviation
            if ordinal_end is None:
                m = _ORDINAL_RE.match(chunk, pos)
                ordinal_end = m.end() if m else -1
            if end == ordinal_end:
                break
            # str.lower never shortens a string, so a longer core is no entry
            if (
                end - pos <= rules.longest_abbreviation
                and chunk[pos:end].lower() in rules.abbreviations
            ):
                break
        start = _trailing_run_start(chunk, pos, end)
        tail.append(chunk[start:end])
        end = start
    if pos < end:
        out.extend(_split_internal(chunk[pos:end]))
    out.extend(reversed(tail))
    return out


def _split_internal(core: str) -> list[str]:
    """Split at commas and semicolons inside a chunk.

    Digit-flanked separators stay put so decimal numbers survive whole.
    """
    if "," not in core and ";" not in core:
        return [core]
    out: list[str] = []
    start = 0
    last = len(core) - 1
    for m in _SEPARATOR_RE.finditer(core):
        i = m.start()
        if 0 < i < last and core[i - 1].isdigit() and core[i + 1].isdigit():
            continue
        if start < i:
            out.append(core[start:i])
        out.append(core[i])
        start = i + 1
    if start <= last:
        out.append(core[start:])
    return out


# --- tokenization ----------------------------------------------------------

_SPACE_AFTER_NO = "SpaceAfter=No"
# the misc of a closed-class token as ClosedClassEntry.fix marks it, after a
# space and without one
_CLOSED_SPACED = f"{CLOSED_CLASS_MISC}=Yes"
_CLOSED_UNSPACED = f"{_SPACE_AFTER_NO}|{CLOSED_CLASS_MISC}=Yes"
# the two misc values of a token that tokenize fixed: later stages read the
# mark by membership, without parsing misc
TOKENIZER_FIXED = frozenset((_CLOSED_SPACED, _CLOSED_UNSPACED))


# LF, CRLF or a lone CR; a CR before an LF is never a line end of its own
LINE_END = r"(?:\r?\n|\r(?!\n))"
BLANK_LINE = re.compile(LINE_END + r"[^\S\r\n]*" + LINE_END)


def _scan(
    text: str, splits: dict, mode: TokenizerMode, rules: TokenizerRules
) -> tuple[list[str], list[bool], list[int]]:
    """The forms of ``text``, for each whether whitespace (or the end of its
    paragraph) follows it, and the number of forms up to the end of each
    paragraph that holds one.  A chunk of letters and digits only is one
    form; the split of any other is memoised in ``splits``."""
    forms: list[str] = []
    spaced: list[bool] = []
    ends: list[int] = []
    for paragraph in BLANK_LINE.split(text) if "\n" in text or "\r" in text else (text,):
        for chunk in paragraph.split():
            if chunk.isalnum():  # one form: _split_chunk cuts only at punctuation and symbols
                forms.append(chunk)
                spaced.append(True)
                continue
            pieces = splits.get(chunk)
            if pieces is None:
                pieces = remember(splits, chunk, tuple(_split_chunk(chunk, mode, rules)))
            forms += pieces
            if len(pieces) > 1:
                spaced += [False] * (len(pieces) - 1)
            spaced.append(True)
        if len(forms) > (ends[-1] if ends else 0):
            ends.append(len(forms))
    return forms, spaced, ends


def _segment(
    forms: list[str], spaced: list[bool], mode: TokenizerMode, start: int, stop: int
) -> list[int]:
    """The end index of each sentence of the paragraph ``forms[start:stop]``,
    in order: after a terminal mark as the mode has it, and at its end."""
    # a terminal form is made of terminal characters only, so a form whose
    # first is none is passed over without the full test
    if mode is TokenizerMode.NONSTANDARD:
        ends = [
            j + 1 for j in range(start, stop)
            if forms[j][0] in TERMINAL_CHARS and _is_terminal_form(forms[j])
        ]
    else:
        ends = []
        for j in range(start, stop):
            form = forms[j]
            if form[0] not in TERMINAL_CHARS or not _is_terminal_form(form):
                continue
            # closing quotes and brackets that hug the mark close the sentence
            # too; no terminal form is a closing one, so none is passed over
            while (
                j + 1 < stop
                and not spaced[j]
                and all(ch in CLOSING_CHARS for ch in forms[j + 1])
            ):
                j += 1
            # a new sentence needs whitespace and then a capital or a digit
            if j + 1 < stop and spaced[j]:
                first = forms[j + 1][0]
                if first.isupper() or first.isdigit():
                    ends.append(j + 1)
    if not ends or ends[-1] != stop:
        ends.append(stop)
    return ends


def tokenize(text: str, mode: TokenizerMode, rules: TokenizerRules) -> Document:
    """Tokenize and sentence-split raw text into a CoNLL-U document.

    A sentence ends after a terminal mark, as the mode has it, and at a
    blank line.  Sentences receive ``sent_id`` (numbered from 1 across
    paragraphs) and ``text`` comments; tokens that were not
    followed by whitespace in the source carry ``SpaceAfter=No``.  Forms
    listed in the closed-class table come out already tagged and marked
    ``ClosedClass=Yes`` (after ``SpaceAfter=No`` when both apply), as
    :meth:`ClosedClassEntry.fix` marks them: their misc is one of
    :data:`TOKENIZER_FIXED`.  Empty or whitespace-only input yields a
    document with zero sentences.
    """
    splits = memo_table(rules, (mode,))
    closed = rules.closed_class.entries
    new = object.__new__
    doc = Document()
    sentences = doc.sentences
    forms, spaced, paragraph_ends = _scan(text, splits, mode, rules)
    start = 0
    for stop in paragraph_ends:
        for end in _segment(forms, spaced, mode, start, stop):
            tokens = []
            surface = []  # each form with the space after it: the sentence_text
            for i in range(start, end):
                form = forms[i]
                space = spaced[i]
                surface.append(form + " " if space else form)
                # stores in field order, as the constructor makes them (the
                # targets of a chained assignment are stored left to right)
                tok = new(Token)
                tok.id = i - start + 1
                tok.form = form
                entry = closed.get(form)
                if entry is None:
                    tok.lemma = tok.upos = tok.xpos = None
                    misc = None if space else _SPACE_AFTER_NO
                else:
                    tok.lemma = entry.lemma
                    tok.upos = entry.upos
                    tok.xpos = entry.xpos
                    misc = _CLOSED_SPACED if space else _CLOSED_UNSPACED
                tok.feats = tok.head = tok.deprel = tok.deps = None
                tok.misc = misc
                tokens.append(tok)
            text_line = "".join(surface)
            if spaced[end - 1]:
                text_line = text_line[:-1]
            si = len(sentences) + 1
            sentences.append(Sentence([f"# sent_id = {si}", f"# text = {text_line}"], tokens))
            start = end
    return doc


# a line end and then whitespace only, up to the end: a blank line may go on
_OPEN_LINE = re.compile(LINE_END + r"[^\S\r\n]*\Z")


def paragraph_blocks(blocks: Iterable[str]) -> Iterator[str]:
    """The text of ``blocks`` in pieces that each end at a blank line, but
    the last: each block's complete paragraphs with the unfinished one
    before them.  Only the unfinished paragraph is kept between blocks, and
    each block is searched once, so a long paragraph is not searched again.
    A CR that ends a block waits for the next one, so a CRLF split between
    blocks is still one line end."""
    pending: list[str] = []  # the unfinished paragraph
    open_line = False  # whether pending ends as _OPEN_LINE matches
    held = ""  # the CR that ended the last block
    for block in blocks:
        block = held + block
        held = "\r" if block.endswith("\r") else ""
        block = block[: len(block) - len(held)]
        # a blank line that pending opened is found as one that starts at a
        # line feed put before the block
        probe = "\n" + block if open_line else block
        cut = None  # the end in ``block`` of its last blank line
        for match in BLANK_LINE.finditer(probe):
            cut = match.end() - (len(probe) - len(block))
        open_line = _OPEN_LINE.search(probe) is not None
        if cut is None:
            pending.append(block)
            continue
        pending.append(block[:cut])
        text = "".join(pending)
        pending = [block[cut:]]  # before the yield: the pieces are not kept beside the text
        yield text
    yield "".join(pending) + held
