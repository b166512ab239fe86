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
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation, ROUND_HALF_UP
from pathlib import Path

from .conllu import Document, Sentence, copy_document, sentence_text, set_comment
from .errors import ConfigurationError, DataError, RecipeError, read_text


def round_half_up(value: Decimal, digits: int = 0) -> Decimal:
    quantum = Decimal(1).scaleb(-digits)
    return value.quantize(quantum, rounding=ROUND_HALF_UP)


def compute_repetition_ratio(target_tokens: int, source_tokens: int) -> Decimal:
    """Oversampling ratio ``target/source`` rounded half-up to one digit."""
    if source_tokens <= 0:
        raise RecipeError("cannot derive a repetition ratio from an empty corpus")
    return round_half_up(Decimal(target_tokens) / Decimal(source_tokens), 1)


def _recipe_number(value, what: str) -> Decimal:
    """``value`` as a finite Decimal; anything else is a RecipeError."""
    try:
        dec = Decimal(str(value))
    except InvalidOperation:
        dec = None
    if dec is None or not dec.is_finite():
        raise RecipeError(f"{what} {value!r} is not a decimal number")
    return dec


def _as_repetitions(value, what: str, minimum: str) -> Decimal:
    dec = _recipe_number(value, what)
    if -dec.as_tuple().exponent > 1:
        raise RecipeError(f"{what} {value} has more than one fractional digit")
    if dec < Decimal(minimum):
        raise RecipeError(f"{what} {value} is below the minimum of {minimum}")
    return dec


# --- dediacritization ------------------------------------------------------


def load_diacritic_map(source: str | Path) -> dict[str, str]:
    """Read a two-column (``char<TAB>replacement``) mapping file."""
    return parse_diacritic_map(read_text(source), name=str(source))


def parse_diacritic_map(text: str, name: str) -> dict[str, str]:
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        cols = raw.split("\t")
        if len(cols) != 2 or len(cols[0]) != 1:
            raise DataError(
                f"{name}: line {lineno}: expected single character, TAB, replacement"
            )
        mapping[cols[0]] = cols[1]
    return mapping


def default_diacritic_map(language: str) -> dict[str, str]:
    from importlib import resources

    if language not in ("sl", "hr", "sr"):
        raise ConfigurationError(
            f"no diacritic replacement map is defined for language {language!r}"
        )
    text = (
        resources.files("slavpipe")
        .joinpath(f"data/diacritics/{language}.map")
        .read_text(encoding="utf-8")
    )
    return parse_diacritic_map(text, name=f"{language}.map")


def dediacritize_text(text: str, mapping: dict[str, str]) -> str:
    return text.translate({ord(k): v for k, v in mapping.items()})


# --- copies and splits -----------------------------------------------------


def _copy_plan(n_sentences: int, repetitions: Decimal) -> list[int]:
    """Sentence count of each emitted copy (full copies, then the prefix)."""
    full = int(repetitions)
    frac = repetitions - full
    plan = [n_sentences] * full
    if frac:
        plan.append(int(round_half_up(frac * n_sentences)))
    return [c for c in plan if c > 0]


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
        parts.append(copy_document(Document(sentences=sentences[start:end])))
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
        named = f"component {self.corpus_id}"
        object.__setattr__(
            self, "repetitions", _as_repetitions(self.repetitions, f"{named}: repetitions", "0.1")
        )
        dedia = _as_repetitions(
            self.dediacritize_repetitions, f"{named}: dediacritize repetitions", "0"
        )
        object.__setattr__(self, "dediacritize_repetitions", dedia)
        if dedia > 0 and dedia > self.repetitions - 1:
            raise RecipeError(
                f"{named}: dediacritizing {dedia} of "
                f"{self.repetitions} repetitions would leave some sentences without a "
                "diacritic-preserving copy; keep at least one repetition intact"
            )
        frac = _recipe_number(self.sample_fraction, f"{named}: sample fraction")
        if not (0 < frac <= 1):
            raise RecipeError(f"{named}: sample fraction {frac} is outside (0, 1]")
        object.__setattr__(self, "sample_fraction", frac)
        if self.sample_filter is not None and self.sample_filter[0] not in ("include", "exclude"):
            raise RecipeError(f"{named}: unknown filter mode {self.sample_filter[0]!r}")


@dataclass(frozen=True)
class Recipe:
    components: tuple[RecipeComponent, ...]
    target_ratio: tuple[str, str] | None = None

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        if not self.components:
            raise RecipeError("recipe has no components")
        groups = {c.group for c in self.components} - {""}
        for group in self.target_ratio or ():
            if group not in groups:
                ratio = ":".join(self.target_ratio)
                raise RecipeError(f"ratio {ratio} names group {group!r}, which no component has")


@dataclass
class ComponentReport:
    corpus_id: str
    group: str
    repetitions: Decimal
    dediacritize_repetitions: Decimal
    source_sentences: int
    sentences_emitted: int = 0
    tokens_emitted: int = 0
    dediacritized_tokens: int = 0


@dataclass
class RecipeReport:
    components: list[ComponentReport] = field(default_factory=list)
    ratio_groups: tuple[str, str] | None = None
    ratio_tokens: tuple[int, int] | None = None

    @property
    def total_tokens(self) -> int:
        return sum(c.tokens_emitted for c in self.components)

    @property
    def total_dediacritized_tokens(self) -> int:
        return sum(c.dediacritized_tokens for c in self.components)

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


def _select_sentences(
    component: RecipeComponent, corpus: Document, rng: random.Random | None
) -> list[Sentence]:
    sentences = list(corpus.sentences)
    if component.sample_filter is not None:
        mode, tag = component.sample_filter
        include = mode == "include"
        sentences = [s for s in sentences if (s.comment("source") == tag) == include]
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
    needs a ``diacritic_map``; without one it is refused with
    :class:`RecipeError`.
    The ``k``-th copy of a ``sent_id`` value in the whole recipe gets the suffix
    ``-r<k>``; a dediacritized copy has its ``# text =`` comment regenerated.
    """
    report = RecipeReport()
    out = Document()
    table = {ord(k): v for k, v in diacritic_map.items()} if diacritic_map else {}
    copies_of: dict[str, int] = {}  # sent_id -> copies emitted so far
    for component in recipe.components:
        if component.corpus_id not in corpora:
            raise RecipeError(f"recipe names unknown corpus {component.corpus_id!r}")
        if component.dediacritize_repetitions > 0 and diacritic_map is None:
            raise RecipeError(
                f"component {component.corpus_id} dediacritizes but no "
                "diacritic map was provided"
            )
        rng = random.Random(shuffle_seed) if shuffle_seed is not None else None
        sentences = _select_sentences(component, corpora[component.corpus_id], rng)
        stats = ComponentReport(component.corpus_id, component.group, component.repetitions,
                                component.dediacritize_repetitions, len(sentences))
        report.components.append(stats)
        # copy k + 1 (k >= 1) loses the diacritics of its first plain[k - 1]
        # sentences: whole copies from the second one on, then a prefix
        plain = _copy_plan(len(sentences), component.dediacritize_repetitions)
        for k, count in enumerate(_copy_plan(len(sentences), component.repetitions)):
            dedia = plain[k - 1] if 1 <= k <= len(plain) else 0
            copies = copy_document(Document(sentences=sentences[:count])).sentences
            for si, copy in enumerate(copies):
                sent_id = copy.comment("sent_id")
                if sent_id is not None:
                    copies_of[sent_id] = copies_of.get(sent_id, 0) + 1
                    set_comment(copy, "sent_id", f"{sent_id}-r{copies_of[sent_id]}")
                tokens = len(copy.single_tokens())
                if si < dedia:
                    for tok in copy.tokens:
                        tok.form = tok.form.translate(table)
                    if copy.text is not None:
                        set_comment(copy, "text", sentence_text(copy))
                    stats.dediacritized_tokens += tokens
                stats.sentences_emitted += 1
                stats.tokens_emitted += tokens
                out.sentences.append(copy)

    # the ratio's sides: the recipe's or the only two groups, else two ungrouped components
    groups: dict[str, int] = {}
    for c in report.components:
        if c.group:
            groups[c.group] = groups.get(c.group, 0) + c.tokens_emitted
    sides = (
        [(name, groups[name]) for name in recipe.target_ratio or groups] if groups
        else [(c.corpus_id, c.tokens_emitted) for c in report.components]
    )
    if len(sides) == 2:
        report.ratio_groups, report.ratio_tokens = (tuple(side) for side in zip(*sides))
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
    ratio_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if fields[0] == "ratio":
            if len(fields) != 2 or ":" not in fields[1]:
                raise RecipeError(f"{name}: line {lineno}: expected 'ratio a:b'")
            a, _, b = fields[1].partition(":")
            target_ratio, ratio_line = (a, b), lineno
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
        try:
            component = RecipeComponent(
                corpus_id=kv["id"],
                repetitions=kv["reps"],
                dediacritize_repetitions=kv.get("dedia", "0"),
                sample_fraction=kv.get("fraction", "1"),
                sample_filter=sample_filter,
                group=kv.get("group", ""),
            )
        except RecipeError as exc:
            raise RecipeError(f"{name}: line {lineno}: {exc}") from exc
        components.append(component)
    try:
        return Recipe(components=tuple(components), target_ratio=target_ratio)
    except RecipeError as exc:
        at = f"line {ratio_line}: " if components else ""  # with components, only the ratio fails
        raise RecipeError(f"{name}: {at}{exc}") from exc


def load_recipe(path: str | Path) -> Recipe:
    return parse_recipe(read_text(path), name=str(path))
