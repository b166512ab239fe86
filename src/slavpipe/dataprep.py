"""Training-data preparation: oversampling, dediacritization, recipes.

A *recipe* combines corpora into one training set.  Each component names a
corpus and says how often to repeat it (fractional repetitions take a
sentence prefix), how many of those repetitions to strip of diacritics,
which fraction of the corpus to sample, and an optional include/exclude
filter on the per-sentence ``# source = ...`` comment.  Building a recipe
yields the combined document plus a report with token counts, the achieved
group ratio and the dediacritized-token fraction stated both against the
combined set and against the oversampled portion alone.

Diacritic removal never touches the sole surviving copy of a sentence: a
component may only dediacritize up to ``repetitions - 1`` repetitions, so at
least one full copy keeps its original spelling.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from decimal import Decimal, InvalidOperation, ROUND_HALF_UP
from pathlib import Path

from .conllu import Document, Sentence, Token, sentence_text, set_text_comment
from .errors import ConfigurationError, DataError, RecipeError, read_text

_SOURCE_PREFIX = "# source = "


def round_half_up(value: Decimal, digits: int = 0) -> Decimal:
    quantum = Decimal(1).scaleb(-digits)
    return value.quantize(quantum, rounding=ROUND_HALF_UP)


def compute_repetition_ratio(target_tokens: int, source_tokens: int) -> Decimal:
    """Oversampling ratio ``target/source`` rounded half-up to one digit."""
    if source_tokens <= 0:
        raise RecipeError("cannot derive a repetition ratio from an empty corpus")
    return round_half_up(Decimal(target_tokens) / Decimal(source_tokens), 1)


def _as_repetitions(value, what: str, minimum: str) -> Decimal:
    try:
        dec = Decimal(str(value))
    except InvalidOperation:
        raise RecipeError(f"{what} {value!r} is not a decimal number") from None
    if -dec.as_tuple().exponent > 1:
        raise RecipeError(f"{what} {value} has more than one fractional digit")
    if dec < Decimal(minimum):
        raise RecipeError(f"{what} {value} is below the minimum of {minimum}")
    return dec


# --- dediacritization ------------------------------------------------------


def load_diacritic_map(source: str | Path) -> dict[str, str]:
    """Read a two-column (``char<TAB>replacement``) mapping file."""
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(read_text(source).splitlines(), start=1):
        if not raw.strip():
            continue
        cols = raw.split("\t")
        if len(cols) != 2 or len(cols[0]) != 1:
            raise DataError(
                f"{source}: line {lineno}: expected single character, TAB, replacement"
            )
        mapping[cols[0]] = cols[1]
    return mapping


def default_diacritic_map(language: str) -> dict[str, str]:
    from importlib import resources

    if language not in ("sl", "hr", "sr"):
        raise ConfigurationError(
            f"no diacritic replacement map is defined for language {language!r}"
        )
    mapping: dict[str, str] = {}
    text = (
        resources.files("slavpipe")
        .joinpath(f"data/diacritics/{language}.map")
        .read_text(encoding="utf-8")
    )
    for raw in text.splitlines():
        if raw:
            char, repl = raw.split("\t")
            mapping[char] = repl
    return mapping


def dediacritize_text(text: str, mapping: dict[str, str]) -> str:
    return text.translate({ord(k): v for k, v in mapping.items()})


def dediacritize_document(doc: Document, mapping: dict[str, str]) -> Document:
    """Replace mapped characters in all forms; text comments follow suit."""
    table = {ord(k): v for k, v in mapping.items()}
    out = Document()
    for sent in doc.sentences:
        new = Sentence(
            comments=list(sent.comments),
            tokens=[replace(t, form=t.form.translate(table)) for t in sent.tokens],
        )
        if new.text is not None:
            set_text_comment(new, sentence_text(new))
        out.sentences.append(new)
    return out


# --- oversampling ----------------------------------------------------------


def _copy_sentence(sent: Sentence) -> Sentence:
    return Sentence(comments=list(sent.comments), tokens=[replace(t) for t in sent.tokens])


def _suffix_sent_id(sent: Sentence, copy_index: int) -> None:
    for i, comment in enumerate(sent.comments):
        if comment.startswith("# sent_id = "):
            sent.comments[i] = f"{comment}-r{copy_index}"
            return


def _copy_plan(n_sentences: int, repetitions: Decimal) -> list[int]:
    """Sentence count of each emitted copy (full copies, then the prefix)."""
    full = int(repetitions)
    frac = repetitions - full
    plan = [n_sentences] * full
    if frac:
        plan.append(int(round_half_up(frac * n_sentences)))
    return [c for c in plan if c > 0] if plan else []


def oversample_document(doc: Document, repetitions) -> Document:
    """Repeat a document ``repetitions`` times (one fractional digit).

    Fractional parts take the first ``round(frac * n)`` sentences.  Every
    copy gets its ``sent_id`` comments suffixed with ``-r<copy>`` so ids stay
    unique in the combined output.
    """
    reps = _as_repetitions(repetitions, "repetitions", "0.1")
    out = Document()
    for copy_index, count in enumerate(_copy_plan(len(doc.sentences), reps), start=1):
        for sent in doc.sentences[:count]:
            copy = _copy_sentence(sent)
            _suffix_sent_id(copy, copy_index)
            out.sentences.append(copy)
    return out


# --- tokenization-variant conversions --------------------------------------


def merge_spaced_forms(doc: Document) -> Document:
    """Remove internal spaces from token forms (n:1 tokenization variant)."""
    out = Document()
    for sent in doc.sentences:
        new = Sentence(
            comments=list(sent.comments),
            tokens=[replace(t, form=t.form.replace(" ", "")) for t in sent.tokens],
        )
        if new.text is not None:
            set_text_comment(new, sentence_text(new))
        out.sentences.append(new)
    return out


def flatten_ranges(doc: Document) -> Document:
    """Drop multiword range tokens, keeping their syntactic words (1:n).

    The words inherit contiguous ids (renumbered if necessary, heads
    remapped) and the last word of each range inherits the range's
    ``SpaceAfter`` information; text comments are regenerated.
    """
    out = Document()
    for sent in doc.sentences:
        singles = sent.single_tokens()
        id_map = {t.id: i + 1 for i, t in enumerate(singles)}
        range_misc: dict[int, str | None] = {}
        for tok in sent.tokens:
            if tok.is_range:
                range_misc[tok.id[1]] = tok.misc
        tokens = []
        for tok in singles:
            misc = range_misc.get(tok.id, tok.misc)
            head = tok.head
            if head is not None and head != 0:
                head = id_map.get(head, head)
            tokens.append(replace(tok, id=id_map[tok.id], head=head, misc=misc))
        new = Sentence(comments=list(sent.comments), tokens=tokens)
        if new.text is not None:
            set_text_comment(new, sentence_text(new))
        out.sentences.append(new)
    return out


def split_document(doc: Document, fractions: list, shuffle_seed: int | None = None) -> list[Document]:
    """Split into parts of the given fractions (which must sum to 1)."""
    fracs = [Decimal(str(f)) for f in fractions]
    if sum(fracs) != 1:
        raise DataError(f"split fractions {fractions} do not sum to 1")
    sentences = list(doc.sentences)
    if shuffle_seed is not None:
        random.Random(shuffle_seed).shuffle(sentences)
    n = len(sentences)
    parts: list[Document] = []
    start = 0
    for i, frac in enumerate(fracs):
        end = n if i == len(fracs) - 1 else start + int(round_half_up(frac * n))
        parts.append(Document(sentences=[_copy_sentence(s) for s in sentences[start:end]]))
        start = end
    return parts


# --- recipes ---------------------------------------------------------------


@dataclass(frozen=True)
class RecipeComponent:
    corpus_id: str
    repetitions: Decimal
    dediacritize_repetitions: Decimal = Decimal(0)
    sample_fraction: Decimal = Decimal(1)
    sample_filter: tuple[str, str] | None = None
    group: str = ""

    def __post_init__(self):
        object.__setattr__(
            self, "repetitions", _as_repetitions(self.repetitions, "repetitions", "0.1")
        )
        object.__setattr__(
            self,
            "dediacritize_repetitions",
            _as_repetitions(self.dediacritize_repetitions, "dediacritize repetitions", "0"),
        )
        if self.dediacritize_repetitions > self.repetitions:
            raise RecipeError(
                f"component {self.corpus_id}: cannot dediacritize "
                f"{self.dediacritize_repetitions} of {self.repetitions} repetitions"
            )
        frac = Decimal(str(self.sample_fraction))
        if not (0 < frac <= 1):
            raise RecipeError(
                f"component {self.corpus_id}: sample fraction {frac} "
                "is outside (0, 1]"
            )
        object.__setattr__(self, "sample_fraction", frac)
        if self.sample_filter is not None and self.sample_filter[0] not in ("include", "exclude"):
            raise RecipeError(
                f"component {self.corpus_id}: unknown filter mode {self.sample_filter[0]!r}"
            )


@dataclass(frozen=True)
class Recipe:
    components: tuple[RecipeComponent, ...]
    target_ratio: tuple[str, str] | None = None

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        if not self.components:
            raise RecipeError("recipe has no components")


@dataclass
class ComponentReport:
    corpus_id: str
    group: str
    repetitions: Decimal
    dediacritize_repetitions: Decimal
    source_sentences: int
    source_tokens: int
    sentences_emitted: int
    tokens_emitted: int
    dediacritized_tokens: int


@dataclass
class RecipeReport:
    components: list[ComponentReport] = field(default_factory=list)
    total_tokens: int = 0
    total_dediacritized_tokens: int = 0
    ratio_groups: tuple[str, str] | None = None
    ratio_tokens: tuple[int, int] | None = None

    @property
    def achieved_ratio(self) -> float | None:
        if self.ratio_tokens is None or self.ratio_tokens[1] == 0:
            return None
        return self.ratio_tokens[0] / self.ratio_tokens[1]

    @property
    def dediacritized_fraction_combined(self) -> float:
        if self.total_tokens == 0:
            return 0.0
        return self.total_dediacritized_tokens / self.total_tokens

    @property
    def dediacritized_fraction_oversampled(self) -> float | None:
        pool = sum(
            c.tokens_emitted for c in self.components if c.dediacritize_repetitions > 0
        )
        if pool == 0:
            return None
        return self.total_dediacritized_tokens / pool

    def format(self) -> str:
        lines = ["training-data recipe report"]
        for c in self.components:
            bits = [
                f"component {c.corpus_id}",
                f"group={c.group or '-'}",
                f"reps={c.repetitions}",
            ]
            if c.dediacritize_repetitions:
                bits.append(f"dedia={c.dediacritize_repetitions}")
            bits.append(f"sentences={c.sentences_emitted}")
            bits.append(f"tokens={c.tokens_emitted}")
            if c.dediacritized_tokens:
                bits.append(f"dediacritized={c.dediacritized_tokens}")
            lines.append("  " + " ".join(bits))
        lines.append(f"total tokens: {self.total_tokens}")
        if self.ratio_groups is not None and self.ratio_tokens is not None:
            a, b = self.ratio_groups
            ta, tb = self.ratio_tokens
            ratio = "n/a" if self.achieved_ratio is None else f"{self.achieved_ratio:.3f}"
            lines.append(f"token ratio {a}:{b} = {ta}:{tb} = {ratio}")
        lines.append(
            "dediacritized fraction of the combined set: "
            f"{self.dediacritized_fraction_combined:.3f}"
        )
        oversampled = self.dediacritized_fraction_oversampled
        if oversampled is not None:
            lines.append(
                "dediacritized fraction of the oversampled portion: "
                f"{oversampled:.3f}"
            )
        return "\n".join(lines)


def _sentence_source(sent: Sentence) -> str | None:
    for comment in sent.comments:
        if comment.startswith(_SOURCE_PREFIX):
            return comment[len(_SOURCE_PREFIX):]
    return None


def _select_sentences(
    component: RecipeComponent, corpus: Document, rng: random.Random | None
) -> list[Sentence]:
    sentences = list(corpus.sentences)
    if component.sample_filter is not None:
        mode, tag = component.sample_filter
        if mode == "include":
            sentences = [s for s in sentences if _sentence_source(s) == tag]
        else:
            sentences = [s for s in sentences if _sentence_source(s) != tag]
    if rng is not None:
        rng.shuffle(sentences)
    if component.sample_fraction != 1:
        keep = int(round_half_up(component.sample_fraction * len(sentences)))
        sentences = sentences[:keep]
    return sentences


def build_recipe_dataset(
    recipe: Recipe,
    corpora: dict[str, Document],
    diacritic_map: dict[str, str] | None = None,
    shuffle_seed: int | None = None,
) -> tuple[Document, RecipeReport]:
    """Assemble the combined dataset described by ``recipe``.

    ``corpora`` maps corpus ids to documents.  A component that dediacritizes
    must leave at least one full repetition untouched and needs a
    ``diacritic_map``; violations are refused with :class:`RecipeError`.
    """
    report = RecipeReport()
    out = Document()
    group_tokens: dict[str, int] = {}

    for component in recipe.components:
        if component.corpus_id not in corpora:
            raise RecipeError(f"recipe names unknown corpus {component.corpus_id!r}")
        reps = component.repetitions
        dedia = component.dediacritize_repetitions
        if dedia > 0:
            if dedia > reps - 1:
                raise RecipeError(
                    f"component {component.corpus_id}: dediacritizing {dedia} of "
                    f"{reps} repetitions would leave some sentences without a "
                    "diacritic-preserving copy; keep at least one repetition intact"
                )
            if diacritic_map is None:
                raise RecipeError(
                    f"component {component.corpus_id} dediacritizes but no "
                    "diacritic map was provided"
                )

        rng = random.Random(shuffle_seed) if shuffle_seed is not None else None
        sentences = _select_sentences(component, corpora[component.corpus_id], rng)
        n = len(sentences)
        source_tokens = sum(len(s.single_tokens()) for s in sentences)

        # which copies lose their diacritics: whole copies starting at the
        # second one, then a sentence prefix of the next copy
        full_dedia = int(dedia)
        frac_dedia = dedia - full_dedia
        dedia_prefix = int(round_half_up(frac_dedia * n)) if frac_dedia else 0

        table = (
            {ord(k): v for k, v in diacritic_map.items()} if diacritic_map else {}
        )
        emitted = tokens_emitted = dedia_tokens = 0
        for copy_index, count in enumerate(_copy_plan(n, reps), start=1):
            for si, sent in enumerate(sentences[:count]):
                copy = _copy_sentence(sent)
                _suffix_sent_id(copy, copy_index)
                dediacritize_this = 2 <= copy_index <= 1 + full_dedia or (
                    copy_index == 2 + full_dedia and si < dedia_prefix
                )
                if dediacritize_this:
                    for tok in copy.tokens:
                        tok.form = tok.form.translate(table)
                    if copy.text is not None:
                        set_text_comment(copy, sentence_text(copy))
                    dedia_tokens += len(copy.single_tokens())
                tokens_emitted += len(copy.single_tokens())
                emitted += 1
                out.sentences.append(copy)

        report.components.append(
            ComponentReport(
                corpus_id=component.corpus_id,
                group=component.group,
                repetitions=reps,
                dediacritize_repetitions=dedia,
                source_sentences=n,
                source_tokens=source_tokens,
                sentences_emitted=emitted,
                tokens_emitted=tokens_emitted,
                dediacritized_tokens=dedia_tokens,
            )
        )
        report.total_tokens += tokens_emitted
        report.total_dediacritized_tokens += dedia_tokens
        if component.group:
            group_tokens[component.group] = (
                group_tokens.get(component.group, 0) + tokens_emitted
            )

    ratio_groups = recipe.target_ratio
    if ratio_groups is None:
        if len(group_tokens) == 2:
            ratio_groups = tuple(group_tokens)  # first-appearance order
        elif len(report.components) == 2 and not group_tokens:
            report.ratio_groups = (
                report.components[0].corpus_id,
                report.components[1].corpus_id,
            )
            report.ratio_tokens = (
                report.components[0].tokens_emitted,
                report.components[1].tokens_emitted,
            )
    if ratio_groups is not None:
        report.ratio_groups = ratio_groups
        report.ratio_tokens = (
            group_tokens.get(ratio_groups[0], 0),
            group_tokens.get(ratio_groups[1], 0),
        )
    return out, report


# --- recipe files ----------------------------------------------------------


def parse_recipe(text: str, name: str = "<recipe>") -> Recipe:
    """Parse the recipe file grammar.

    Lines: ``ratio <groupA>:<groupB>`` or ``component id=<corpus> reps=<r>
    [dedia=<d>] [fraction=<f>] [filter=<include|exclude>:<tag>]
    [group=<name>]``.  Blank lines and ``#`` lines are comments.
    """
    components: list[RecipeComponent] = []
    target_ratio: tuple[str, str] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if fields[0] == "ratio":
            if len(fields) != 2 or ":" not in fields[1]:
                raise RecipeError(f"{name}: line {lineno}: expected 'ratio a:b'")
            a, _, b = fields[1].partition(":")
            target_ratio = (a, b)
            continue
        if fields[0] != "component":
            raise RecipeError(
                f"{name}: line {lineno}: expected 'component' or 'ratio', "
                f"got {fields[0]!r}"
            )
        kv: dict[str, str] = {}
        for item in fields[1:]:
            key, sep, value = item.partition("=")
            if not sep:
                raise RecipeError(f"{name}: line {lineno}: {item!r} is not key=value")
            kv[key] = value
        if "id" not in kv or "reps" not in kv:
            raise RecipeError(f"{name}: line {lineno}: component needs id= and reps=")
        sample_filter = None
        if "filter" in kv:
            mode, sep, tag = kv["filter"].partition(":")
            if not sep:
                raise RecipeError(
                    f"{name}: line {lineno}: filter must be include:<tag> or exclude:<tag>"
                )
            sample_filter = (mode, tag)
        known = {"id", "reps", "dedia", "fraction", "filter", "group"}
        unknown = set(kv) - known
        if unknown:
            raise RecipeError(
                f"{name}: line {lineno}: unknown component keys {sorted(unknown)}"
            )
        components.append(
            RecipeComponent(
                corpus_id=kv["id"],
                repetitions=kv["reps"],
                dediacritize_repetitions=kv.get("dedia", "0"),
                sample_fraction=Decimal(kv.get("fraction", "1")),
                sample_filter=sample_filter,
                group=kv.get("group", ""),
            )
        )
    return Recipe(components=tuple(components), target_ratio=target_ratio)


def load_recipe(path: str | Path) -> Recipe:
    return parse_recipe(read_text(path), name=str(path))
