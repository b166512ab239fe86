"""Rule-based tokenizer and sentence splitter.

Two modes share one mechanism.  *Standard* mode is conservative: it keeps
known abbreviations and ordinal-number periods attached, requires whitespace
plus an upper-case letter or digit before opening a new sentence, and pulls
closing quotes that hug a terminal punctuation mark into the sentence they
close.  *Nonstandard* mode is aimed at user-generated text: it additionally
recognizes URLs, e-mail addresses, @-mentions, #-hashtags and emoticons as
single tokens, and opens a new sentence after every terminal punctuation
token.

Abbreviation lists, emoticon inventories and the closed-class table for
punctuation and symbols live in per-language rule files (see
:func:`load_rules` for the format); the files shipped with the package are
available through :func:`default_rules`.
"""

from __future__ import annotations

import enum
import re
import unicodedata
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path

from .conllu import Document, Sentence, Token, misc_set, misc_value, sentence_text
from .errors import ConfigurationError, DataError, read_text

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
    category: str  # "punctuation" or "symbol"


class ClosedClassTable:
    """Exact surface forms with fixed tag and lemma assignments."""

    def __init__(self, entries: dict[str, ClosedClassEntry] | None = None):
        self.entries = dict(entries or {})

    def __contains__(self, form: str) -> bool:
        return form in self.entries

    def get(self, form: str) -> ClosedClassEntry | None:
        return self.entries.get(form)

    def add_punctuation(self, form: str) -> None:
        self.entries[form] = ClosedClassEntry("PUNCT", "Z", form, "punctuation")

    def add_symbol(self, form: str) -> None:
        self.entries[form] = ClosedClassEntry("SYM", "X", form, "symbol")


@dataclass
class TokenizerRules:
    abbreviations: set[str] = field(default_factory=set)
    emoticons: frozenset[str] = frozenset()
    closed_class: ClosedClassTable = field(default_factory=ClosedClassTable)

    def __post_init__(self) -> None:
        # Only emoticons that start with punctuation or a symbol are peeled
        # off chunk ends, longest first.  Letter-only ones (xD and friends)
        # match whole chunks only; peeling them would cut into ordinary words.
        peel = [emo for emo in self.emoticons if _is_punct_or_sym(emo[0])]
        self.peelable_emoticons = tuple(sorted(peel, key=lambda emo: (-len(emo), emo)))


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
    return TokenizerRules(abbreviations, frozenset(emoticons), closed_class)


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


def closed_class_assign(token: Token, table: ClosedClassTable) -> Token:
    """Fix tag and lemma of a token listed in the closed-class table.

    Fixed tokens are marked in misc so later stages know not to overwrite
    them; tokens without a table entry come back unchanged.
    """
    entry = table.get(token.form)
    if entry is None:
        return token
    return replace(
        token,
        upos=entry.upos,
        xpos=entry.xpos,
        lemma=entry.lemma,
        misc=misc_set(token.misc, CLOSED_CLASS_MISC, "Yes"),
    )


def is_closed_class_fixed(token: Token) -> bool:
    return misc_value(token.misc, CLOSED_CLASS_MISC) == "Yes"


# --- chunk splitting -------------------------------------------------------

_URL_RE = re.compile(r"(?:https?://|www\.)\S+", re.IGNORECASE)
_EMAIL_RE = re.compile(r"[A-Za-z0-9_.+-]+@[A-Za-z0-9-]+\.[A-Za-z0-9.-]*[A-Za-z0-9]")
_MENTION_RE = re.compile(r"@\w+")
_HASHTAG_RE = re.compile(r"#\w+")
_SPECIAL_RES = (_URL_RE, _EMAIL_RE, _MENTION_RE, _HASHTAG_RE)

# Trailing characters a URL match should not swallow.
_SPECIAL_TRIM = frozenset(".,;:!?…\"'”“„»«’)]}")

_ORDINAL_RE = re.compile(r"\d+\.")


def _is_punct_or_sym(ch: str) -> bool:
    return unicodedata.category(ch)[0] in "PS"


def _is_terminal_form(form: str) -> bool:
    return bool(form) and all(ch in TERMINAL_CHARS for ch in form)


def _match_special(chunk: str) -> str | None:
    for pattern in _SPECIAL_RES:
        m = pattern.match(chunk)
        if m:
            token = m.group(0)
            while token and token[-1] in _SPECIAL_TRIM:
                token = token[:-1]
            if token:
                return token
    return None


def _take_leading_run(chunk: str) -> tuple[str, str]:
    first = chunk[0]
    i = 1
    if first in TERMINAL_CHARS:
        while i < len(chunk) and chunk[i] in TERMINAL_CHARS:
            i += 1
    else:
        while i < len(chunk) and chunk[i] == first:
            i += 1
    return chunk[:i], chunk[i:]


def _take_trailing_run(chunk: str) -> tuple[str, str]:
    last = chunk[-1]
    i = len(chunk) - 1
    if last in TERMINAL_CHARS:
        while i > 0 and chunk[i - 1] in TERMINAL_CHARS:
            i -= 1
    else:
        while i > 0 and chunk[i - 1] == last:
            i -= 1
    return chunk[:i], chunk[i:]


def _emoticon_suffix(chunk: str, rules: TokenizerRules) -> str | None:
    for emo in rules.peelable_emoticons:
        if chunk.endswith(emo):
            return emo
    return None


def _emoticon_prefix(chunk: str, rules: TokenizerRules) -> str | None:
    for emo in rules.peelable_emoticons:
        if chunk.startswith(emo):
            rest = chunk[len(emo):]
            if not rest or not rest[0].isalnum():
                return emo
    return None


def _keeps_final_period(core: str, rules: TokenizerRules) -> bool:
    if not core.endswith(".") or len(core) < 2:
        return False
    if _ORDINAL_RE.fullmatch(core):
        return True
    return core.lower() in rules.abbreviations


def _split_chunk(chunk: str, mode: TokenizerMode, rules: TokenizerRules) -> list[str]:
    if not chunk:
        return []
    nonstandard = mode is TokenizerMode.NONSTANDARD

    if nonstandard:
        if chunk in rules.emoticons:
            return [chunk]
        emo = _emoticon_prefix(chunk, rules)
        if emo is not None:
            return [emo] + _split_chunk(chunk[len(emo):], mode, rules)
        special = _match_special(chunk)
        if special is not None:
            rest = chunk[len(special):]
            if all(_is_punct_or_sym(ch) for ch in rest):
                return [special] + _split_chunk(rest, mode, rules)

    if _is_punct_or_sym(chunk[0]):
        head, rest = _take_leading_run(chunk)
        return [head] + _split_chunk(rest, mode, rules)

    tail: list[str] = []
    core = chunk
    while core:
        if nonstandard:
            emo = _emoticon_suffix(core, rules)
            if emo is not None:
                tail.append(emo)
                core = core[: len(core) - len(emo)]
                continue
        if not _is_punct_or_sym(core[-1]):
            break
        if mode is TokenizerMode.STANDARD and _keeps_final_period(core, rules):
            break
        core, run = _take_trailing_run(core)
        tail.append(run)
    out = _split_internal(core) if core else []
    out.extend(reversed(tail))
    return out


def _split_internal(core: str) -> list[str]:
    """Split at commas and semicolons inside a chunk.

    Digit-flanked separators stay put so decimal numbers survive whole.
    """
    out: list[str] = []
    current = ""
    for i, ch in enumerate(core):
        if ch in ",;" and not (
            0 < i < len(core) - 1 and core[i - 1].isdigit() and core[i + 1].isdigit()
        ):
            if current:
                out.append(current)
                current = ""
            out.append(ch)
        else:
            current += ch
    if current:
        out.append(current)
    return out


# --- tokenization ----------------------------------------------------------


@dataclass
class _RawToken:
    form: str
    space_after: bool


def _scan(text: str, mode: TokenizerMode, rules: TokenizerRules) -> list[_RawToken]:
    raw: list[_RawToken] = []
    for m in re.finditer(r"\S+", text):
        forms = _split_chunk(m.group(0), mode, rules)
        followed_by_space = m.end() < len(text)
        for i, form in enumerate(forms):
            last_in_chunk = i == len(forms) - 1
            raw.append(_RawToken(form, followed_by_space if last_in_chunk else False))
    if raw:
        raw[-1].space_after = True  # nothing follows the document
    return raw


def _segment(raw: list[_RawToken], mode: TokenizerMode) -> list[list[_RawToken]]:
    sentences: list[list[_RawToken]] = []
    current: list[_RawToken] = []
    i = 0
    while i < len(raw):
        current.append(raw[i])
        if _is_terminal_form(raw[i].form):
            if mode is TokenizerMode.NONSTANDARD:
                sentences.append(current)
                current = []
            else:
                j = i
                while (
                    j + 1 < len(raw)
                    and not raw[j].space_after
                    and all(ch in CLOSING_CHARS for ch in raw[j + 1].form)
                ):
                    j += 1
                    current.append(raw[j])
                nxt = raw[j + 1] if j + 1 < len(raw) else None
                if (
                    nxt is not None
                    and raw[j].space_after
                    and (nxt.form[0].isupper() or nxt.form[0].isdigit())
                ):
                    sentences.append(current)
                    current = []
                i = j
        i += 1
    if current:
        sentences.append(current)
    return sentences


def tokenize(text: str, mode: TokenizerMode, rules: TokenizerRules) -> Document:
    """Tokenize and sentence-split raw text into a CoNLL-U document.

    Sentences receive ``sent_id`` and ``text`` comments; tokens that were not
    followed by whitespace in the source carry ``SpaceAfter=No``.  Forms
    listed in the closed-class table come out already tagged and marked as
    fixed.  Empty or whitespace-only input yields a document with zero
    sentences.
    """
    raw = _scan(text, mode, rules)
    doc = Document()
    for si, sent_tokens in enumerate(_segment(raw, mode), start=1):
        tokens = []
        for ti, rt in enumerate(sent_tokens, start=1):
            misc = None if rt.space_after else "SpaceAfter=No"
            tok = Token(id=ti, form=rt.form, misc=misc)
            tokens.append(closed_class_assign(tok, rules.closed_class))
        sentence = Sentence(tokens=tokens)
        sentence.comments = [
            f"# sent_id = {si}",
            f"# text = {sentence_text(sentence)}",
        ]
        doc.sentences.append(sentence)
    if doc.sentences:
        last = doc.sentences[-1].tokens[-1]
        # the document never ends in a space, so the final token stays unmarked
        assert last.space_after
    return doc
