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
lowercase form's, starts with the class prefix.  TSV lexicons may use LF
or CRLF line ends.
"""

from __future__ import annotations

import gzip
import io
import zlib
from dataclasses import dataclass
from pathlib import Path

from .errors import LexiconError

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
    def __init__(self, prefix_table: dict[str, str] | None = None):
        self._index: dict[str, dict[tuple[str, str], int]] = {}
        self.prefix_table = dict(
            DEFAULT_CLOSED_CLASS_PREFIXES if prefix_table is None else prefix_table
        )
        self._version = 0  # bumped by every add; see slavpipe.memo

    def __len__(self) -> int:
        return sum(len(v) for v in self._index.values())

    @property
    def form_count(self) -> int:
        return len(self._index)

    def add(self, form: str, lemma: str, xpos: str, frequency: int = 1) -> None:
        """Insert a triple; duplicate triples accumulate their frequencies."""
        self._version += 1
        self._fill([(form, lemma, xpos, frequency)])

    def _fill(self, rows) -> None:
        """Add (form, lemma, xpos, frequency) rows without a version bump."""
        index = self._index
        for form, lemma, xpos, frequency in rows:
            slot = index.setdefault(form, {})
            key = (xpos, lemma)
            slot[key] = slot.get(key, 0) + frequency

    def _slot(self, form: str) -> dict[tuple[str, str], int]:
        if form in self._index:
            return self._index[form]
        return self._index.get(form.lower(), {})

    def entries(self, form: str) -> list[LexiconEntry]:
        """Entries for a form, exact match preferred over lowercased."""
        return [
            LexiconEntry(xpos, lemma, freq)
            for (xpos, lemma), freq in sorted(self._slot(form).items())
        ]

    def allowed_tags(self, form: str) -> set[str]:
        return {xpos for xpos, _ in self._slot(form)}

    def lookup_lemma(self, form: str, xpos: str) -> str | None:
        """Lemma for (form, xpos): highest frequency wins, ties go to the
        lexicographically smallest lemma.  Absent exactly when
        :meth:`allowed_tags` does not contain ``xpos``."""
        best_freq = best = None
        for (tag, lemma), freq in self._slot(form).items():
            if tag == xpos and (
                best is None or freq > best_freq or (freq == best_freq and lemma < best)
            ):
                best_freq, best = freq, lemma
        return best

    def most_frequent_tag(self, form: str) -> str | None:
        tags = [(freq, xpos) for (xpos, _), freq in self._slot(form).items()]
        if not tags:
            return None
        best_freq = max(f for f, _ in tags)
        return min(x for f, x in tags if f == best_freq)

    def _tagged(self, prefix: str, *forms: str) -> bool:
        """Whether a tag listed for one of ``forms`` starts with ``prefix``."""
        for form in forms:
            for xpos, _ in self._index.get(form, ()):
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

    def to_rows(self) -> list[list]:
        return [
            [form, lemma, xpos, freq]
            for form, slot in sorted(self._index.items())
            for (xpos, lemma), freq in sorted(slot.items())
        ]

    @classmethod
    def from_rows(
        cls, rows: list[list], prefix_table: dict[str, str] | None = None
    ) -> Lexicon:
        """The inverse of :meth:`to_rows`.

        Rows that are not [form, lemma, xpos, frequency] and a prefix table
        that does not map strings to strings raise TypeError or ValueError.
        """
        if prefix_table is not None and not _maps_strings(prefix_table):
            raise TypeError(f"prefix table {prefix_table!r} does not map strings to strings")
        lex = cls(prefix_table)
        lex._fill(map(_checked_row, rows))
        return lex

    def matches_rows(self, rows, prefix_table) -> bool:
        """Whether ``rows`` and ``prefix_table`` are exactly this lexicon's
        :meth:`to_rows` and :attr:`prefix_table`, so that :meth:`from_rows`
        would build an equal lexicon without raising.

        One pass, no sort: rows must be lists of three strings and a number
        of the type and value stored, in strictly ascending (form, xpos,
        lemma) order, one per entry.  Anything else is False, never an error.
        """
        if not (
            type(rows) is list
            and len(rows) == len(self)
            and _maps_strings(prefix_table)
            and prefix_table == self.prefix_table
        ):
            return False
        index = self._index
        last = ()  # below every key
        for row in rows:
            if type(row) is not list or len(row) != 4:
                return False
            form, lemma, xpos, freq = row
            if not (type(form) is type(lemma) is type(xpos) is str and type(freq) in (int, float)):
                return False
            key = (form, xpos, lemma)
            if key <= last:
                return False
            last = key
            stored = index.get(form, _NO_SLOT).get((xpos, lemma))
            if type(stored) is not type(freq) or stored != freq:
                return False
        return True


_NO_SLOT: dict = {}


def _maps_strings(table) -> bool:
    return isinstance(table, dict) and all(type(k) is type(v) is str for k, v in table.items())


def _checked_row(row) -> tuple[str, str, str, int | float]:
    form, lemma, xpos, freq = row
    if not (type(form) is type(lemma) is type(xpos) is str and type(freq) in (int, float)):
        raise TypeError(f"lexicon row {row!r} is not [form, lemma, xpos, frequency]")
    return form, lemma, xpos, freq


def load_lexicon(source: str | Path) -> Lexicon:
    """Load a lexicon from a TSV file (``form<TAB>lemma<TAB>xpos[<TAB>freq]``).

    Gzip-compressed files are detected by their magic bytes.  A truncated or
    corrupt gzip file, rows with fewer than three columns and an unreadable
    frequency raise :class:`~slavpipe.errors.LexiconError`; a bad row is
    named by its line.  The lexicon gets the default closed-class prefixes;
    :func:`read_lexicon` takes another table.
    """
    path = Path(source)
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise LexiconError(f"cannot read lexicon {path}: {exc}") from exc
    if blob[:2] == b"\x1f\x8b":
        try:
            blob = gzip.decompress(blob)
        except (OSError, EOFError, zlib.error) as exc:  # bad header, truncated, corrupt
            raise LexiconError(f"{path}: bad gzip data: {exc}") from exc
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise LexiconError(f"{path}: not valid UTF-8: {exc}") from exc
    return read_lexicon(io.StringIO(text), name=str(path))


def read_lexicon(
    stream: io.TextIOBase,
    name: str = "<lexicon>",
    prefix_table: dict[str, str] | None = None,
) -> Lexicon:
    lex = Lexicon(prefix_table)
    lex._fill(_tsv_rows(stream, name))
    return lex


def _tsv_rows(stream: io.TextIOBase, name: str):
    """The (form, lemma, xpos, frequency) rows of a TSV lexicon; a CRLF line
    end is read as LF."""
    for lineno, raw in enumerate(stream, start=1):
        line = raw[:-2] if raw.endswith("\r\n") else raw.rstrip("\n")
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
