"""CoNLL-U document model: parsing, validation, transformation, serialization.

The parser accepts a deliberately strict dialect so that ``serialize(parse(x))``
reproduces ``x`` byte for byte:

* UTF-8 text with LF line endings, ending in a newline,
* every sentence is a run of ``#``-comment lines followed by token lines,
  terminated by exactly one blank line (including the last sentence),
* token lines carry exactly ten tab-separated columns,
* single-token ids are contiguous from 1; a multiword range token ``a-b``
  has ``a < b``, appears immediately before token ``a``, never overlaps
  another range and is followed by all of its words.

:func:`validate_document` reports these id and range rules too, from the
same definition, a comment that would not serialize to one comment line, a
column that would not serialize to one column (:func:`breaks_column`), and
everything else (unsorted feature keys, dangling heads, inconsistent text
comments), which the parser accepts.

Comments of the form ``# key = value`` are read with :meth:`Sentence.comment`
and written with :func:`set_comment`; feats strings are read by
:func:`_read_feats` alone.

Equal column values of one :func:`parse_document` call (``id`` and ``head``
aside) are one string object, so a parsed corpus holds each distinct lemma,
tag, feats or misc value once.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import lru_cache

from .errors import ConlluParseError

N_COLUMNS = 10


def breaks_column(value: str) -> bool:
    """Whether ``value`` holds a tab, LF or CR, so that a token line with it
    in a column does not read back (:func:`parse_document`)."""
    return "\t" in value or "\n" in value or "\r" in value


def misc_value(misc: str | None, key: str) -> str | None:
    """Return the value of ``key`` inside a raw misc string, if present."""
    # a key that is not a substring of misc cannot be the key of any entry
    if not misc or key not in misc:
        return None
    for part in misc.split("|"):
        k, sep, v = part.partition("=")
        if k == key:
            return v if sep else ""
    return None


def misc_set(misc: str | None, key: str, value: str) -> str:
    """Return a misc string with ``key=value`` added or replaced in place."""
    entry = f"{key}={value}"
    if not misc:
        return entry
    if key not in misc:
        return f"{misc}|{entry}"
    parts = misc.split("|")
    for i, part in enumerate(parts):
        if part.partition("=")[0] == key:
            parts[i] = entry
            break
    else:
        parts.append(entry)
    return "|".join(parts)


def misc_keep_keys(misc: str | None, keys: set[str]) -> str | None:
    """Return a misc string reduced to the entries whose key is in ``keys``."""
    kept = [p for p in misc.split("|") if p.partition("=")[0] in keys] if misc else []
    return "|".join(kept) if kept else None


@lru_cache(maxsize=4096)
def _read_feats(feats: str) -> tuple[str | None, tuple[tuple[str, str], ...]]:
    """The canonical form of a raw feats string, and its breaches of the feats
    rules as ``(rule, message)`` pairs.

    The rules: every ``|``-separated entry is ``key=value`` with a non-empty
    key, no key repeats, and keys are in case-insensitive alphabetical order.
    The canonical form keeps each key's last value (an entry without ``=``
    has the empty value), drops entries with an empty key and sorts the keys
    that way; so it passes the rules, and a string that passes them is its
    own canonical form.
    """
    values: dict[str, str] = {}
    keys: list[str] = []
    problems = []
    for part in feats.split("|"):
        k, sep, v = part.partition("=")
        if sep and k:
            keys.append(k)
        else:
            problems.append(("feats-format", f"entry {part!r} is not key=value"))
        if k:
            values[k] = v
    if len(keys) != len(set(keys)):
        problems.append(("feats-unique", "duplicate feature keys"))
    lowered = [k.lower() for k in keys]
    if lowered != sorted(lowered):
        problems.append(
            ("feats-order", "feature keys are not in case-insensitive alphabetical order")
        )
    canonical = "|".join(f"{k}={values[k]}" for k in sorted(values, key=str.lower))
    return canonical or None, tuple(problems)


def canonical_feats(feats: str | None) -> str | None:
    """A raw feats string in canonical form; None when it holds no feature."""
    return _read_feats(feats)[0] if feats else None


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
        misc = self.misc
        # misc without the key's text cannot hold SpaceAfter=No
        return not misc or "SpaceAfter" not in misc or misc_value(misc, "SpaceAfter") != "No"

    def id_str(self) -> str:
        if self.is_range:
            return f"{self.id[0]}-{self.id[1]}"
        return str(self.id)


@dataclass
class Sentence:
    comments: list[str] = field(default_factory=list)
    tokens: list[Token] = field(default_factory=list)

    def comment(self, key: str) -> str | None:
        """The value of the first ``# key = value`` comment; None without one."""
        prefix = f"# {key} = "
        for c in self.comments:
            if c.startswith(prefix):
                return c[len(prefix):]
        return None

    @property
    def sent_id(self) -> str | None:
        return self.comment("sent_id") or None

    @property
    def text(self) -> str | None:
        return self.comment("text")

    def single_tokens(self) -> list[Token]:
        return [t for t in self.tokens if not isinstance(t.id, tuple)]


@dataclass
class Document:
    sentences: list[Sentence] = field(default_factory=list)

    def single_tokens(self) -> list[Token]:
        return [t for s in self.sentences for t in s.single_tokens()]


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


def _surface_parts(sentence: Sentence) -> list[str]:
    """Each surface form, then one space unless it has ``SpaceAfter=No``."""
    tokens = sentence.tokens
    if any(isinstance(tok.id, tuple) for tok in tokens):
        tokens = surface_tokens(sentence)
    parts: list[str] = []
    for tok in tokens:
        parts += (tok.form, " " if tok.space_after else "")
    return parts


def sentence_text(sentence: Sentence) -> str:
    """Reconstruct the sentence surface from forms and SpaceAfter marks."""
    return "".join(_surface_parts(sentence)[:-1])


def text_layout(doc: Document) -> tuple[str, list[tuple[int, int]], list[tuple[int, int]]]:
    """The raw text of ``doc`` and the character spans of its surface tokens
    and sentences.  The space after a sentence's last surface token also
    separates it from the next sentence; a sentence without tokens is one space.
    """
    parts: list[str] = []
    token_spans: list[tuple[int, int]] = []
    sentence_spans: list[tuple[int, int]] = []
    pos = 0
    for sent in doc.sentences:
        surface = _surface_parts(sent)
        if not surface:
            parts.append(" ")
            pos += 1
            continue
        start = pos
        for i in range(0, len(surface), 2):
            end = pos + len(surface[i])
            token_spans.append((pos, end))
            pos = end + len(surface[i + 1])
        sentence_spans.append((start, end))
        parts += surface
    return "".join(parts[:-1]), token_spans, sentence_spans


def set_comment(sentence: Sentence, key: str, value: str) -> None:
    """Replace the first ``# key = value`` comment of ``sentence``, or append one."""
    prefix = f"# {key} = "
    for i, c in enumerate(sentence.comments):
        if c.startswith(prefix):
            sentence.comments[i] = prefix + value
            return
    sentence.comments.append(prefix + value)


# --- parsing ---------------------------------------------------------------


def _decimal(raw: str) -> int | None:
    """The value of an ASCII decimal without sign or leading zero, else None.

    ``str.isdigit`` alone also passes ``²``, which ``int`` refuses, and a
    leading zero would not serialize back to the same bytes.
    """
    if raw.isascii() and raw.isdigit() and (raw == "0" or raw[0] != "0"):
        return int(raw)
    return None


def _parse_id(raw: str, lineno: int) -> int | tuple[int, int]:
    if "-" in raw:
        a, _, b = raw.partition("-")
        lo, hi = _decimal(a), _decimal(b)
        if lo is None or hi is None:
            raise ConlluParseError(f"malformed token id {raw!r}", lineno)
        return (lo, hi)
    tid = _decimal(raw)
    if not tid:  # None or 0
        raise ConlluParseError(f"malformed token id {raw!r}", lineno)
    return tid


def _parse_token_line(line: str, lineno: int, one) -> Token:
    """The token of one line; ``one`` is the ``setdefault`` of the parse's
    shared values, which maps ``_`` to None and gives each other column value
    its first copy (a form ``_`` stays ``"_"``)."""
    cols = line.split("\t")
    if len(cols) != N_COLUMNS:
        raise ConlluParseError(
            f"expected {N_COLUMNS} tab-separated columns, found {len(cols)}", lineno
        )
    id_raw, form, lemma, upos, xpos, feats, head_raw, deprel, deps, misc = cols
    tid = _parse_id(id_raw, lineno)
    head = None if head_raw == "_" else _decimal(head_raw)
    if head is None and head_raw != "_":
        raise ConlluParseError(f"malformed head value {head_raw!r}", lineno)
    return Token(
        tid, one(form, form) or form, one(lemma, lemma), one(upos, upos), one(xpos, xpos),
        one(feats, feats), head, one(deprel, deprel), one(deps, deps), one(misc, misc),
    )


def _structure_problems(tokens: list[Token]) -> list[tuple[int, str, str]]:
    """The sentence's breaches of the id and range rules (module docstring)
    in token order, as ``(position in tokens, rule, message)``."""
    expected = 1
    for tok in tokens:
        if tok.id != expected:  # a range never equals an int
            break
        expected += 1
    else:
        return [] if tokens else [(0, "empty-sentence", "sentence has no token lines")]
    problems = []
    open_range = None  # (position, lo, hi) of the range whose words are not all seen
    for pos in range(expected - 1, len(tokens)):
        tid = tokens[pos].id
        if isinstance(tid, tuple):
            lo, hi = tid
            if lo >= hi:
                problems.append((pos, "range-empty", f"empty token range '{lo}-{hi}'"))
            if lo != expected:
                problems.append((pos, "range-position", f"range token {lo}-{hi} does not "
                                 f"start at the next single token id {expected}"))
            if open_range is not None:
                problems.append((pos, "range-overlap", f"range token {lo}-{hi} overlaps "
                                 f"range {open_range[1]}-{open_range[2]}"))
            open_range = (pos, lo, hi) if lo < hi else open_range  # an empty one opens none
        else:
            if tid != expected:
                problems.append((pos, "id-contiguity",
                                 f"non-contiguous token id {tid} (expected {expected})"))
            expected = tid + 1
            if open_range is not None and tid >= open_range[2]:
                open_range = None
    if open_range is not None:
        pos, lo, hi = open_range
        problems.append((pos, "range-coverage",
                         f"range token {lo}-{hi} covers tokens missing from the sentence"))
        problems.sort(key=lambda problem: problem[0])
    return problems


def parse_document(text: str) -> Document:
    """Parse a CoNLL-U string into a :class:`Document`.

    Raises :class:`ConlluParseError` (with a 1-based line number) on any
    departure from the accepted grammar described in the module docstring.
    Equal column values of one parse (``id`` and ``head`` aside) are one
    string object.
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
    comments: list[str] = []
    tokens: list[Token] = []
    one = {"_": None}.setdefault
    for lineno, line in enumerate(lines, start=1):
        if line == "":
            if not (comments or tokens):
                raise ConlluParseError("unexpected blank line", lineno)
            problems = _structure_problems(tokens)
            if problems:
                # token lines run up to the blank line; no token: the blank line
                pos, _, message = problems[0]
                raise ConlluParseError(message, lineno - len(tokens) + pos)
            sentences.append(Sentence(comments=comments, tokens=tokens))
            comments, tokens = [], []
        elif line.startswith("#"):
            if tokens:
                raise ConlluParseError("comment line after token lines", lineno)
            comments.append(line)
        else:
            tokens.append(_parse_token_line(line, lineno, one))
    if comments or tokens:
        raise ConlluParseError("missing blank line after the last sentence", len(lines))
    if not sentences:
        raise ConlluParseError("input contains no sentences", 1)
    return Document(sentences=sentences)


# --- serialization ---------------------------------------------------------


def _format_token_line(tok: Token) -> str:
    return "\t".join((
        tok.id_str() if isinstance(tok.id, tuple) else str(tok.id),
        tok.form,
        "_" if tok.lemma is None else tok.lemma,
        "_" if tok.upos is None else tok.upos,
        "_" if tok.xpos is None else tok.xpos,
        "_" if tok.feats is None else tok.feats,
        "_" if tok.head is None else str(tok.head),
        "_" if tok.deprel is None else tok.deprel,
        "_" if tok.deps is None else tok.deps,
        "_" if tok.misc is None else tok.misc,
    ))


def serialize_sentence(sent: Sentence) -> str:
    """The CoNLL-U text of ``sent``, its blank line included."""
    return "\n".join([*sent.comments, *map(_format_token_line, sent.tokens), "\n"])


def serialize_sentences(doc: Document) -> Iterator[str]:
    """The CoNLL-U text of each sentence of ``doc``, its blank line included."""
    return map(serialize_sentence, doc.sentences)


def serialize_document(doc: Document) -> str:
    """Render a document back to CoNLL-U text (inverse of the parser)."""
    return "".join(serialize_sentences(doc))


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
    """A copy of ``doc`` whose sentences, comment lists and tokens are new
    objects; the column values, being immutable, are shared.

    Each token is made by ``object.__new__`` and one store per field of
    :class:`Token`, in field order, with no call per token: faster than
    calling the constructor (several times faster than
    ``dataclasses.replace``), and the copy reads and writes its attributes
    as fast as a constructed token, which an instance whose ``__dict__``
    was assigned does not.
    """
    new = object.__new__
    sentences = []
    for sent in doc.sentences:
        tokens = []
        for t in sent.tokens:
            c = new(Token)
            c.id = t.id
            c.form = t.form
            c.lemma = t.lemma
            c.upos = t.upos
            c.xpos = t.xpos
            c.feats = t.feats
            c.head = t.head
            c.deprel = t.deprel
            c.deps = t.deps
            c.misc = t.misc
            tokens.append(c)
        sentences.append(Sentence(list(sent.comments), tokens))
    return Document(sentences)


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


# the token columns that hold strings, in line order
_STRING_COLUMNS = ("form", "lemma", "upos", "xpos", "feats", "deprel", "deps", "misc")


def validate_document(doc: Document) -> list[Violation]:
    """Check structural invariants; an empty result means the document is valid.

    Reported rules: comments that are not one line starting with ``#``,
    string columns that hold a tab, LF or CR (:func:`breaks_column`), the
    parser's id and range rules, then, on a sentence whose ids and ranges are
    sound, annotations on range tokens, the feats rules (:func:`_read_feats`),
    head targets, and text-comment consistency.
    """
    violations: list[Violation] = []

    def add(si: int, tid: str | None, rule: str, msg: str) -> None:
        # sent_id is a scan of the comments: looked up only when reported
        violations.append(Violation(si, doc.sentences[si].sent_id, tid, rule, msg))

    for si, sent in enumerate(doc.sentences):
        for c in sent.comments:
            # anything else serializes to lines that do not read back as this comment
            if not c.startswith("#") or "\n" in c or "\r" in c:
                add(si, None, "comment-format",
                    f"comment {c!r} is not one line starting with '#'")
        tokens = sent.tokens
        # one scan of the sentence's string columns (None reads "None"); a
        # sentence with a hit is looked at column by column
        if breaks_column("".join([
            f"{t.form}{t.lemma}{t.upos}{t.xpos}{t.feats}{t.deprel}{t.deps}{t.misc}" for t in tokens
        ])):
            for tok in tokens:
                for name in _STRING_COLUMNS:
                    value = getattr(tok, name)
                    if value is not None and breaks_column(value):
                        add(si, tok.id_str(), "column-format",
                            f"{name} {value!r} holds a tab or a line break")
        problems = _structure_problems(tokens)
        if problems:
            # a range problem names its range; a wrong single id names no token
            for pos, rule, msg in problems:
                add(si, tokens[pos].id_str() if rule.startswith("range-") else None, rule, msg)
            continue

        # sound ids end with token n, which is the last token unless there are ranges
        n = tokens[-1].id
        singles = tokens
        if n < len(tokens):
            singles = sent.single_tokens()
            for tok in tokens:
                if tok.is_range and (tok.lemma, tok.upos, tok.xpos, tok.feats, tok.head,
                                     tok.deprel, tok.deps) != (None,) * 7:
                    add(si, tok.id_str(), "range-annotations",
                        "range tokens may carry only form and misc")

        for tok in singles:
            if tok.feats is not None:
                for rule, msg in _read_feats(tok.feats)[1]:
                    add(si, tok.id_str(), rule, msg)
            if tok.head is not None and not (0 <= tok.head <= n):
                add(si, tok.id_str(), "head-target",
                    f"head {tok.head} is not 0 or a token id in this sentence")

        stated = sent.text
        if stated is not None:
            actual = sentence_text(sent)
            if actual != stated:
                add(si, None, "text-mismatch",
                    f"text comment {stated!r} != reconstructed {actual!r}")

    return violations
