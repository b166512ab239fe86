"""Inflectional lexicon: surface forms mapped to tag/lemma/frequency triples.

The lexicon answers three questions for the annotation stages: which
morphosyntactic tags a form may take (:meth:`Lexicon.allowed_tags`), which
lemma belongs to a (form, tag) pair (:meth:`Lexicon.lookup_lemma`), and
whether a form is a listed member of a closed word class
(:meth:`Lexicon.in_closed_class`, and :meth:`Lexicon.closed_class_allows` for
a candidate tag).  Closed classes are recognized through a
per-language table of tag prefixes following the MULTEXT-East convention of
encoding the coarse part of speech in the first characters of the tag: a
form belongs to a closed class when one of its listed tags, or one of its
lowercase form's, starts with the class prefix.  A TSV lexicon is read
:data:`READ_BLOCK` bytes at a time; a line ends at LF, or at CRLF, which is
read as LF.

The index maps a form to a flat tuple ``(xpos, lemma, frequency, xpos, ...)``
ascending by (xpos, lemma); equal xpos and lemma strings added together are
one object (66,281 rows take about 100 bytes each, form strings included).
No other module reads it: a model archive takes the lexicon's rows from
:meth:`Lexicon.rows`, and :mod:`slavpipe.modelio` encodes them in blocks.
"""

from __future__ import annotations

import gzip
import math
import zlib
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

from .conllu import breaks_column
from .errors import LexiconError, utf8_blocks

READ_BLOCK = 64 * 1024  # bytes of a TSV lexicon read (and decompressed) at a time

# First-character (or two-character, for conjunction subtypes) tag prefixes
# of the closed classes.  Languages with diverging tagsets can pass their own
# table to the Lexicon constructor.
DEFAULT_CLOSED_CLASS_PREFIXES: dict[str, str] = {
    "pronoun": "P",
    "determiner": "D",
    "adposition": "S",
    "particle": "Q",
    "coordinating-conjunction": "Cc",
    "subordinating-conjunction": "Cs",
}


@dataclass(frozen=True)
class LexiconEntry:
    xpos: str
    lemma: str
    frequency: int


class Lexicon:
    """Forms and their entries; every row enters through :meth:`_fill`, which checks it."""

    def __init__(self, prefix_table: dict[str, str] | None = None):
        self._index: dict[str, tuple] = {}
        self.prefix_table = dict(
            DEFAULT_CLOSED_CLASS_PREFIXES if prefix_table is None else prefix_table
        )
        self._version = 0  # bumped by every add; see slavpipe.memo

    def __len__(self) -> int:
        return sum(map(len, self._index.values())) // 3

    @property
    def form_count(self) -> int:
        return len(self._index)

    def add(self, form: str, lemma: str, xpos: str, frequency: int | float = 1) -> None:
        """Insert a triple (see :meth:`_fill`); duplicate triples accumulate their
        frequencies.  A form, lemma or tag that is not a ``str`` and a frequency
        that is not an int, float or bool raise TypeError; a frequency that is
        NaN or infinite, which no archive can hold, raises ValueError."""
        row = _checked_row((form, lemma, xpos, frequency), (int, float, bool))
        if type(frequency) is float and not math.isfinite(frequency):
            raise ValueError(f"lexicon row {row!r}: frequency {frequency!r} is not finite")
        self._fill([row])
        self._version += 1

    def _fill(self, rows) -> None:
        """Add (form, lemma, xpos, frequency) rows without a version bump; a
        lemma or tag that breaks a column (:func:`breaks_column`) raises ValueError."""
        index = self._index
        shared: dict[str, str] = {}  # one object for equal xpos and lemma strings
        for form, lemma, xpos, frequency in rows:
            # annotation writes these two; once both are shared, both have passed
            if (lemma not in shared or xpos not in shared) and breaks_column(lemma + xpos):
                raise ValueError(
                    f"form {form!r}: lemma {lemma!r} or tag {xpos!r} holds a tab or a line break"
                )
            # 0 + frequency, as in a sum: a bool becomes an int, -0.0 becomes 0.0
            entry = (shared.setdefault(xpos, xpos), shared.setdefault(lemma, lemma), 0 + frequency)
            slot = index.setdefault(form, entry)
            if slot is not entry:
                index[form] = slot + entry if slot[-3:-1] < entry[:2] else _inserted(slot, entry)

    def _slot(self, form: str) -> tuple:
        return self._index.get(form) or self._index.get(form.lower(), ())

    def entries(self, form: str) -> list[LexiconEntry]:
        """Entries for a form, exact match preferred over lowercased."""
        slot = self._slot(form)
        return [LexiconEntry(*slot[i : i + 3]) for i in range(0, len(slot), 3)]

    def allowed_tags(self, form: str) -> set[str]:
        return set(self._slot(form)[::3])

    def lookup_lemma(self, form: str, xpos: str) -> str | None:
        """Lemma for (form, xpos): highest frequency wins, ties go to the
        lexicographically smallest lemma.  Absent exactly when
        :meth:`allowed_tags` does not contain ``xpos``.

        It reads the index itself, as :meth:`_slot` would, and answers a
        form with one entry (about half of a lexicon's forms) at once."""
        index = self._index
        slot = index.get(form) or index.get(form.lower(), ())
        if len(slot) == 3:
            return slot[1] if slot[0] == xpos else None
        best = None  # lemmas ascend within a tag: the first of equal frequencies wins
        for i in range(0, len(slot), 3):
            if slot[i] == xpos and (best is None or slot[i + 2] > slot[best + 2]):
                best = i
        return None if best is None else slot[best + 1]

    def most_frequent_tag(self, form: str) -> str | None:
        """The tag of the highest frequency, the smallest one on a tie."""
        slot = self._slot(form)
        freqs = slot[2::3]
        return slot[3 * freqs.index(max(freqs))] if freqs else None

    def _tagged(self, prefix: str, *forms: str) -> bool:
        """Whether a tag listed for one of ``forms`` starts with ``prefix``."""
        for form in forms:
            for xpos in self._index.get(form, ())[::3]:
                if xpos.startswith(prefix):
                    return True
        return False

    def in_closed_class(self, category: str, form: str) -> bool:
        prefix = self.prefix_table.get(category)
        return prefix is not None and self._tagged(prefix, form, form.lower())

    def closed_class_forms(self, category: str) -> set[str]:
        """Forms whose own listed tags put them in ``category``."""
        prefix = self.prefix_table.get(category)
        return set() if prefix is None else {f for f in self._index if self._tagged(prefix, f)}

    def closed_class_allows(self, form: str, xpos: str) -> bool:
        """False when ``xpos`` starts with the prefix of a closed class that
        ``form`` is not in (see :meth:`in_closed_class`)."""
        if not xpos.startswith(tuple(self.prefix_table.values())):
            return True
        for prefix in self.prefix_table.values():
            if xpos.startswith(prefix) and not self._tagged(prefix, form, form.lower()):
                return False
        return True

    # serialization into model archives

    def rows(self) -> Iterator[tuple[str, str, str, int | float]]:
        """(form, lemma, xpos, frequency) rows, ascending by (form, xpos, lemma)."""
        index = self._index
        for form in sorted(index):
            slot = index[form]
            for i in range(0, len(slot), 3):
                yield form, slot[i + 1], slot[i], slot[i + 2]

    def to_rows(self) -> list[list]:
        """:meth:`rows` as [form, lemma, xpos, frequency] lists."""
        return [list(row) for row in self.rows()]

    @classmethod
    def from_rows(
        cls, rows: list[list], prefix_table: dict[str, str] | None = None
    ) -> Lexicon:
        """The inverse of :meth:`to_rows`.

        Rows that are not [form, lemma, xpos, frequency] or break a column, and
        a prefix table not mapping strings to strings, raise TypeError or ValueError.
        """
        if prefix_table is not None and not (
            isinstance(prefix_table, dict)
            and all(type(k) is type(v) is str for k, v in prefix_table.items())
        ):
            raise TypeError(f"prefix table {prefix_table!r} does not map strings to strings")
        lex = cls(prefix_table)
        lex._fill(map(_checked_row, rows))
        return lex


def _inserted(slot: tuple, entry: tuple) -> tuple:
    """``slot`` with ``entry``, which sorts at or before its last entry, added
    in (xpos, lemma) order; the frequency of an equal pair is added instead."""
    i = 0
    while slot[i : i + 2] < entry[:2]:
        i += 3
    if slot[i : i + 2] == entry[:2]:
        return slot[: i + 2] + (slot[i + 2] + entry[2],) + slot[i + 3 :]
    return slot[:i] + entry + slot[i:]


def _checked_row(row, numbers=(int, float)) -> tuple[str, str, str, int | float]:
    form, lemma, xpos, freq = row
    if not (type(form) is type(lemma) is type(xpos) is str and type(freq) in numbers):
        raise TypeError(f"lexicon row {row!r} is not [form, lemma, xpos, frequency]")
    return form, lemma, xpos, freq


def load_lexicon(source: str | Path) -> Lexicon:
    """Load a lexicon from a TSV file (``form<TAB>lemma<TAB>xpos[<TAB>freq]``).

    Gzip-compressed files are detected by their magic bytes, without a seek,
    so a pipe serves as well as a file.  A truncated or corrupt gzip file, a
    row of fewer than three columns or an unreadable frequency (named by its
    line) and a lemma or tag holding a CR (named by its form) raise
    :class:`~slavpipe.errors.LexiconError`; the lexicon gets the default
    closed-class prefixes.
    """
    path = Path(source)
    lex = Lexicon()
    try:
        with open(path, "rb") as raw:
            stream = gzip.GzipFile(fileobj=raw) if raw.peek(2)[:2] == b"\x1f\x8b" else raw
            lex._fill(_tsv_rows(_lines(stream, str(path)), str(path)))
    except (gzip.BadGzipFile, EOFError, zlib.error) as exc:  # bad header, truncated, corrupt
        raise LexiconError(f"{path}: bad gzip data: {exc}") from exc
    except OSError as exc:
        raise LexiconError(f"cannot read lexicon {path}: {exc}") from exc
    except ValueError as exc:  # a lemma or tag that breaks a column
        raise LexiconError(f"{path}: {exc}") from exc
    return lex


def _lines(stream, name: str) -> Iterator[str]:
    """The lines of a UTF-8 byte stream, read :data:`READ_BLOCK` bytes at a
    time.  Lines end at LF only (``str.splitlines`` would also end them at
    U+0085 and other characters a field may hold); CRLF is read as LF, and a
    bare CR stays, also at the end of a last line without LF.  A leading byte
    order mark is dropped."""
    pieces: list[str] = []  # the text after the last LF so far
    try:
        for text in utf8_blocks(stream, READ_BLOCK):
            if "\n" in text:
                lines = "".join([*pieces, text]).replace("\r\n", "\n").split("\n")
                pieces = [lines.pop()]
                yield from lines
            else:  # a line longer than a block is joined once, when it ends
                pieces.append(text)
    except UnicodeDecodeError as exc:
        raise LexiconError(f"{name}: not valid UTF-8: {exc}") from exc
    if last := "".join(pieces):
        yield last


def _tsv_rows(lines, name: str):
    """The (form, lemma, xpos, frequency) rows of the lines of a TSV lexicon."""
    for lineno, line in enumerate(lines, start=1):
        if not line:
            continue
        cols = line.split("\t")
        if len(cols) < 3:
            raise LexiconError(
                f"{name}: line {lineno}: expected at least 3 tab-separated "
                f"columns, found {len(cols)}"
            )
        if len(cols) > 4:
            raise LexiconError(
                f"{name}: line {lineno}: expected at most 4 columns, found {len(cols)}"
            )
        frequency = 1
        if len(cols) == 4:
            try:
                frequency = int(cols[3])
            except ValueError:
                raise LexiconError(
                    f"{name}: line {lineno}: frequency {cols[3]!r} is not an integer"
                ) from None
        yield cols[0], cols[1], cols[2], frequency
