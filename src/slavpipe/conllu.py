"""CoNLL-U document model: parsing, validation, transformation, serialization.

The parser accepts a deliberately strict dialect so that ``serialize(parse(x))``
reproduces ``x`` byte for byte:

* UTF-8 text with LF line endings, ending in a newline,
* every sentence is a run of ``#``-comment lines followed by token lines,
  terminated by exactly one blank line (including the last sentence),
* token lines carry exactly ten tab-separated columns,
* single-token ids are contiguous from 1, multiword range tokens ``a-b``
  appear immediately before token ``a`` and never overlap.

Everything else (unsorted feature keys, dangling heads, inconsistent text
comments) is accepted by the parser and reported by :func:`validate_document`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from functools import lru_cache

from .errors import ConlluParseError

N_COLUMNS = 10

_SENT_ID_RE = re.compile(r"^# sent_id = (.+)$")
_TEXT_RE = re.compile(r"^# text = (.*)$")


def _parse_misc_parts(misc: str | None) -> list[str]:
    return misc.split("|") if misc else []


def misc_value(misc: str | None, key: str) -> str | None:
    """Return the value of ``key`` inside a raw misc string, if present."""
    for part in _parse_misc_parts(misc):
        k, sep, v = part.partition("=")
        if k == key:
            return v if sep else ""
    return None


def misc_set(misc: str | None, key: str, value: str) -> str:
    """Return a misc string with ``key=value`` added or replaced in place."""
    parts = _parse_misc_parts(misc)
    entry = f"{key}={value}"
    for i, part in enumerate(parts):
        if part.partition("=")[0] == key:
            parts[i] = entry
            break
    else:
        parts.append(entry)
    return "|".join(parts)


def misc_keep_keys(misc: str | None, keys: set[str]) -> str | None:
    """Return a misc string reduced to the entries whose key is in ``keys``."""
    kept = [p for p in _parse_misc_parts(misc) if p.partition("=")[0] in keys]
    return "|".join(kept) if kept else None


def format_feats(feats: dict[str, str]) -> str | None:
    """Render a feature mapping in canonical (case-insensitive sorted) order."""
    if not feats:
        return None
    return "|".join(f"{k}={feats[k]}" for k in sorted(feats, key=str.lower))


def parse_feats(feats: str | None) -> dict[str, str]:
    """Best-effort view of a raw feats string as a mapping."""
    out: dict[str, str] = {}
    for part in _parse_misc_parts(feats):
        k, _, v = part.partition("=")
        out[k] = v
    return out


@lru_cache(maxsize=4096)
def canonical_feats(feats: str | None) -> str | None:
    """A raw feats string in canonical order; None when it holds no feature."""
    return format_feats(parse_feats(feats))


@dataclass
class Token:
    """One CoNLL-U token line.

    ``id`` is an ``int`` for single tokens and an ``(a, b)`` pair for
    multiword range tokens.  Unset columns are ``None`` and serialize as
    ``_``.  ``feats``, ``deps`` and ``misc`` are kept as raw strings so that
    serialization is lossless; use the module helpers to inspect them.
    """

    id: int | tuple[int, int]
    form: str
    lemma: str | None = None
    upos: str | None = None
    xpos: str | None = None
    feats: str | None = None
    head: int | None = None
    deprel: str | None = None
    deps: str | None = None
    misc: str | None = None

    @property
    def is_range(self) -> bool:
        return isinstance(self.id, tuple)

    @property
    def space_after(self) -> bool:
        return misc_value(self.misc, "SpaceAfter") != "No"

    def id_str(self) -> str:
        if self.is_range:
            return f"{self.id[0]}-{self.id[1]}"
        return str(self.id)


@dataclass
class Sentence:
    comments: list[str] = field(default_factory=list)
    tokens: list[Token] = field(default_factory=list)

    @property
    def sent_id(self) -> str | None:
        for c in self.comments:
            m = _SENT_ID_RE.match(c)
            if m:
                return m.group(1)
        return None

    @property
    def text(self) -> str | None:
        for c in self.comments:
            m = _TEXT_RE.match(c)
            if m:
                return m.group(1)
        return None

    def single_tokens(self) -> list[Token]:
        return [t for t in self.tokens if not t.is_range]


@dataclass
class Document:
    sentences: list[Sentence] = field(default_factory=list)

    def single_tokens(self) -> list[Token]:
        return [t for s in self.sentences for t in s.single_tokens()]

    def token_count(self) -> int:
        return len(self.single_tokens())


def surface_tokens(sentence: Sentence) -> list[Token]:
    """Tokens as they appear in the raw text: ranges replace their words."""
    out: list[Token] = []
    i = 0
    while i < len(sentence.tokens):
        tok = sentence.tokens[i]
        out.append(tok)
        i += 1
        if tok.is_range:
            end = tok.id[1]
            while i < len(sentence.tokens):
                nxt = sentence.tokens[i]
                if nxt.is_range or nxt.id > end:
                    break
                i += 1
    return out


def sentence_text(sentence: Sentence) -> str:
    """Reconstruct the sentence surface from forms and SpaceAfter marks."""
    parts: list[str] = []
    surface = surface_tokens(sentence)
    for i, tok in enumerate(surface):
        parts.append(tok.form)
        if i + 1 < len(surface) and tok.space_after:
            parts.append(" ")
    return "".join(parts)


def document_text(doc: Document) -> str:
    """Reconstruct the raw text of the whole document.

    Consecutive sentences are joined with one space unless the last surface
    token of the earlier sentence carries ``SpaceAfter=No``.
    """
    parts: list[str] = []
    for i, sent in enumerate(doc.sentences):
        parts.append(sentence_text(sent))
        surface = surface_tokens(sent)
        if i + 1 < len(doc.sentences) and (not surface or surface[-1].space_after):
            parts.append(" ")
    return "".join(parts)


def set_text_comment(sentence: Sentence, text: str) -> None:
    """Replace (or append) the ``# text = ...`` comment of a sentence."""
    line = f"# text = {text}"
    for i, c in enumerate(sentence.comments):
        if _TEXT_RE.match(c):
            sentence.comments[i] = line
            return
    sentence.comments.append(line)


# --- parsing ---------------------------------------------------------------


def _parse_id(raw: str, lineno: int) -> int | tuple[int, int]:
    if "-" in raw:
        a, _, b = raw.partition("-")
        if not (a.isdigit() and b.isdigit()):
            raise ConlluParseError(f"malformed token id {raw!r}", lineno)
        lo, hi = int(a), int(b)
        if lo >= hi:
            raise ConlluParseError(f"empty token range {raw!r}", lineno)
        return (lo, hi)
    if not raw.isdigit() or raw == "0" or raw.startswith("0"):
        raise ConlluParseError(f"malformed token id {raw!r}", lineno)
    return int(raw)


def _parse_token_line(line: str, lineno: int) -> Token:
    cols = line.split("\t")
    if len(cols) != N_COLUMNS:
        raise ConlluParseError(
            f"expected {N_COLUMNS} tab-separated columns, found {len(cols)}", lineno
        )
    tid = _parse_id(cols[0], lineno)
    unset = lambda v: None if v == "_" else v
    head_raw = cols[6]
    if head_raw == "_":
        head = None
    elif head_raw.isdigit():
        head = int(head_raw)
    else:
        raise ConlluParseError(f"malformed head value {head_raw!r}", lineno)
    return Token(
        id=tid,
        form=cols[1],
        lemma=unset(cols[2]),
        upos=unset(cols[3]),
        xpos=unset(cols[4]),
        feats=unset(cols[5]),
        head=head,
        deprel=unset(cols[7]),
        deps=unset(cols[8]),
        misc=unset(cols[9]),
    )


class _SentenceBuilder:
    def __init__(self) -> None:
        self.comments: list[str] = []
        self.tokens: list[Token] = []
        self.next_single = 1
        self.open_range: tuple[int, int] | None = None
        self.open_range_line = 0

    @property
    def started(self) -> bool:
        return bool(self.comments or self.tokens)

    def add(self, tok: Token, lineno: int) -> None:
        if tok.is_range:
            lo, hi = tok.id
            if lo != self.next_single:
                raise ConlluParseError(
                    f"range token {tok.id_str()} does not start at the next "
                    f"single token id {self.next_single}",
                    lineno,
                )
            if self.open_range is not None:
                raise ConlluParseError(
                    f"range token {tok.id_str()} overlaps range "
                    f"{self.open_range[0]}-{self.open_range[1]}",
                    lineno,
                )
            self.open_range = (lo, hi)
            self.open_range_line = lineno
        else:
            if tok.id != self.next_single:
                raise ConlluParseError(
                    f"non-contiguous token id {tok.id} (expected {self.next_single})",
                    lineno,
                )
            self.next_single += 1
            if self.open_range is not None and tok.id >= self.open_range[1]:
                self.open_range = None
        self.tokens.append(tok)

    def finish(self, lineno: int) -> Sentence:
        if not self.tokens:
            raise ConlluParseError("sentence has no token lines", lineno)
        if self.open_range is not None:
            raise ConlluParseError(
                f"range token {self.open_range[0]}-{self.open_range[1]} covers "
                "tokens missing from the sentence",
                self.open_range_line,
            )
        return Sentence(comments=self.comments, tokens=self.tokens)


def parse_document(text: str) -> Document:
    """Parse a CoNLL-U string into a :class:`Document`.

    Raises :class:`ConlluParseError` (with a 1-based line number) on any
    departure from the accepted grammar described in the module docstring.
    """
    if "\r" in text:
        raise ConlluParseError(
            "carriage returns are not accepted (LF line endings only)",
            text[: text.index("\r")].count("\n") + 1,
        )
    lines = text.split("\n")
    if lines[-1] != "":
        raise ConlluParseError("input does not end with a newline", len(lines))
    lines.pop()

    sentences: list[Sentence] = []
    builder = _SentenceBuilder()
    for lineno, line in enumerate(lines, start=1):
        if line == "":
            if not builder.started:
                raise ConlluParseError("unexpected blank line", lineno)
            sentences.append(builder.finish(lineno))
            builder = _SentenceBuilder()
        elif line.startswith("#"):
            if builder.tokens:
                raise ConlluParseError("comment line after token lines", lineno)
            builder.comments.append(line)
        else:
            builder.add(_parse_token_line(line, lineno), lineno)
    if builder.started:
        raise ConlluParseError("missing blank line after the last sentence", len(lines))
    if not sentences:
        raise ConlluParseError("input contains no sentences", 1)
    return Document(sentences=sentences)


# --- serialization ---------------------------------------------------------


def _format_token_line(tok: Token) -> str:
    cols = [
        tok.id_str(),
        tok.form,
        tok.lemma,
        tok.upos,
        tok.xpos,
        tok.feats,
        None if tok.head is None else str(tok.head),
        tok.deprel,
        tok.deps,
        tok.misc,
    ]
    return "\t".join("_" if c is None else c for c in cols)


def serialize_document(doc: Document) -> str:
    """Render a document back to CoNLL-U text (inverse of the parser)."""
    lines: list[str] = []
    for sent in doc.sentences:
        lines.extend(sent.comments)
        lines.extend(_format_token_line(t) for t in sent.tokens)
        lines.append("")
    return "\n".join(lines) + "\n" if lines else ""


# --- transformation --------------------------------------------------------


def strip_annotations(doc: Document) -> Document:
    """Drop every annotation layer, keeping tokenization and segmentation.

    Comments survive unchanged; of the misc column only ``SpaceAfter``
    entries are retained, so the raw text stays reconstructable.
    """
    sentences = []
    for sent in doc.sentences:
        tokens = [
            Token(
                id=t.id,
                form=t.form,
                misc=misc_keep_keys(t.misc, {"SpaceAfter"}),
            )
            for t in sent.tokens
        ]
        sentences.append(Sentence(comments=list(sent.comments), tokens=tokens))
    return Document(sentences=sentences)


def copy_document(doc: Document) -> Document:
    return Document(
        sentences=[
            Sentence(comments=list(s.comments), tokens=[replace(t) for t in s.tokens])
            for s in doc.sentences
        ]
    )


# --- validation ------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    sentence_index: int
    sentence_id: str | None
    token_id: str | None
    rule: str
    message: str

    def __str__(self) -> str:
        where = self.sentence_id or f"sentence {self.sentence_index + 1}"
        if self.token_id is not None:
            where += f", token {self.token_id}"
        return f"[{self.rule}] {where}: {self.message}"


def _check_feats(feats: str) -> list[tuple[str, str]]:
    problems = []
    keys: list[str] = []
    for part in feats.split("|"):
        k, sep, _ = part.partition("=")
        if not sep or not k:
            problems.append(("feats-format", f"entry {part!r} is not key=value"))
            continue
        keys.append(k)
    if len(keys) != len(set(keys)):
        problems.append(("feats-unique", "duplicate feature keys"))
    lowered = [k.lower() for k in keys]
    if lowered != sorted(lowered):
        problems.append(
            ("feats-order", "feature keys are not in case-insensitive alphabetical order")
        )
    return problems


def validate_document(doc: Document) -> list[Violation]:
    """Check structural invariants; an empty result means the document is valid.

    Reported rules: empty sentences, id contiguity, range placement/coverage/
    overlap, annotations on range tokens, feats well-formedness and ordering,
    head targets, and text-comment consistency.
    """
    violations: list[Violation] = []

    def add(si: int, sid: str | None, tid: str | None, rule: str, msg: str) -> None:
        violations.append(Violation(si, sid, tid, rule, msg))

    for si, sent in enumerate(doc.sentences):
        sid = sent.sent_id
        if not sent.tokens:
            add(si, sid, None, "empty-sentence", "sentence has no tokens")
            continue

        singles = sent.single_tokens()
        ids = [t.id for t in singles]
        if ids != list(range(1, len(ids) + 1)):
            add(si, sid, None, "id-contiguity", f"single token ids are {ids}")
            continue
        n = len(ids)

        prev_end = 0
        for pos, tok in enumerate(sent.tokens):
            if not tok.is_range:
                continue
            lo, hi = tok.id
            tid = tok.id_str()
            if lo <= prev_end:
                add(si, sid, tid, "range-overlap", "range overlaps an earlier range")
            if hi > n:
                add(si, sid, tid, "range-coverage", f"range end {hi} exceeds last token id {n}")
            nxt = sent.tokens[pos + 1] if pos + 1 < len(sent.tokens) else None
            if nxt is None or nxt.is_range or nxt.id != lo:
                add(si, sid, tid, "range-position",
                    f"range token is not immediately followed by token {lo}")
            if any(v is not None for v in
                   (tok.lemma, tok.upos, tok.xpos, tok.feats, tok.deprel, tok.deps)) \
                    or tok.head is not None:
                add(si, sid, tid, "range-annotations",
                    "range tokens may carry only form and misc")
            prev_end = max(prev_end, hi)

        for tok in singles:
            if tok.feats is not None:
                for rule, msg in _check_feats(tok.feats):
                    add(si, sid, tok.id_str(), rule, msg)
            if tok.head is not None and not (0 <= tok.head <= n):
                add(si, sid, tok.id_str(), "head-target",
                    f"head {tok.head} is not 0 or a token id in this sentence")

        stated = sent.text
        if stated is not None:
            actual = sentence_text(sent)
            if actual != stated:
                add(si, sid, None, "text-mismatch",
                    f"text comment {stated!r} != reconstructed {actual!r}")

    return violations
