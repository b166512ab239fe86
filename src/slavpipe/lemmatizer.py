"""Lemmatizer: training-data lookup, lexicon lookup, suffix rules, identity.

Every token is resolved through a fixed fallback chain and the tier that
fired is recorded in the misc column (``Lemmatizer=train|lexicon|rule|
identity|closed``):

1. *closed* - the token was fixed by the tokenizer's closed-class table and
   already carries its lemma;
2. *train* - majority lemma for the exact (form, xpos) pair in the training
   data;
3. *lexicon* - lookup in the inflectional lexicon embedded in the model;
4. *rule* - longest matching suffix rule whose tag prefix agrees with the
   token's xpos, learned from form/lemma pairs in the training data;
5. *identity* - the form itself.

Suffix rules come from the longest-common-prefix split of each training
pair, widened by up to three characters of context, so ``tece -> teci``
contributes ``-e/-i``, ``-ce/-ci``, ``-ece/-eci`` and the whole-word pair.

The archive embeds the lexicon as its prefix table and :meth:`Lexicon.rows`,
the rows encoded in blocks by :func:`slavpipe.modelio.item_blocks`; a load
given the same lexicon compares the section with those blocks and shares it.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import asdict, dataclass, field

from . import modelio
from .conllu import Document, breaks_column, copy_document, misc_set
from .errors import ModelError, StageError, TrainingError
from .lexicon import Lexicon
from .tokenizer import CLOSED_CLASS_MISC, TOKENIZER_FIXED, is_closed_class_fixed

TIER_MISC = "Lemmatizer"
# the misc entry of each tier, as misc_set writes it
_TIER_ENTRIES = {
    tier: f"{TIER_MISC}={tier}" for tier in ("closed", "train", "lexicon", "rule", "identity")
}
RULE_CONTEXT = 3


@dataclass(frozen=True)
class SuffixRule:
    form_suffix: str
    tag_prefix: str
    replacement: str
    frequency: int


@dataclass
class LemmatizerMetadata:
    language: str = ""
    variety: str = "standard"
    token_count: int = 0


@dataclass
class LemmatizerModel:
    lookup: dict[tuple[str, str], str] = field(default_factory=dict)
    rules: list[SuffixRule] = field(default_factory=list)
    lexicon: Lexicon | None = None
    metadata: LemmatizerMetadata = field(default_factory=LemmatizerMetadata)

    def __post_init__(self) -> None:
        self._build_rule_index()

    def _build_rule_index(self) -> None:
        # best rule per (tag prefix, suffix); list order already encodes
        # frequency-descending within a key
        self._rule_index: dict[tuple[str, str], SuffixRule] = {}
        lengths: dict[str, set[int]] = {}
        for rule in self.rules:
            key = (rule.tag_prefix, rule.form_suffix)
            self._rule_index.setdefault(key, rule)
            lengths.setdefault(rule.tag_prefix, set()).add(len(rule.form_suffix))
        # the suffix lengths some rule of each tag prefix has, longest first
        self._suffix_lengths = {p: tuple(sorted(n, reverse=True)) for p, n in lengths.items()}

    def apply_rules(self, form: str, xpos: str) -> str | None:
        """``form`` with the suffix of the longest-suffix rule for the tag
        prefix ``xpos[:1]`` that matches it replaced; None when none does.

        Only the suffix lengths that some rule of that prefix has are tried,
        longest first, the empty suffix last: the first rule found is the
        one a scan of every length from the longest down to 0 finds.
        """
        prefix = xpos[:1]
        n = len(form)
        for length in self._suffix_lengths.get(prefix, ()):
            if length <= n:
                rule = self._rule_index.get((prefix, form[n - length :]))
                if rule is not None:
                    return form[: n - length] + rule.replacement
        return None


def _common_prefix_len(a: str, b: str) -> int:
    n = min(len(a), len(b))
    i = 0
    while i < n and a[i] == b[i]:
        i += 1
    return i


def _pair_rules(form: str, xpos: str, lemma: str) -> list[tuple[str, str, str]]:
    lcp = _common_prefix_len(form, lemma)
    out = []
    for extra in range(RULE_CONTEXT + 1):
        cut = lcp - extra
        if cut < 0:
            break
        out.append((form[cut:], xpos[:1], lemma[cut:]))
    return out


def train_lemmatizer(
    train: Document,
    lexicon: Lexicon | None = None,
    language: str = "",
    variety: str = "standard",
) -> LemmatizerModel:
    """Build the lookup table and suffix rules; embed ``lexicon`` if given.

    Raises :class:`TrainingError` when no token carries form, xpos and lemma.
    """
    lookup_counts: dict[tuple[str, str], dict[str, int]] = {}
    rule_counts: dict[tuple[str, str, str], int] = {}
    n_tokens = 0
    for tok in train.single_tokens():
        if tok.xpos is None or tok.lemma is None:
            continue
        n_tokens += 1
        slot = lookup_counts.setdefault((tok.form, tok.xpos), {})
        slot[tok.lemma] = slot.get(tok.lemma, 0) + 1
        for key in _pair_rules(tok.form, tok.xpos, tok.lemma):
            rule_counts[key] = rule_counts.get(key, 0) + 1

    if n_tokens == 0:
        raise TrainingError("lemmatizer training data contains no lemmatized tokens")

    lookup = {}
    for pair, slot in lookup_counts.items():
        best = max(slot.values())
        lookup[pair] = min(l for l, c in slot.items() if c == best)

    rules = [
        SuffixRule(fs, tp, rs, freq)
        for (fs, tp, rs), freq in rule_counts.items()
    ]
    rules.sort(key=lambda r: (-len(r.form_suffix), -r.frequency, r.form_suffix,
                              r.tag_prefix, r.replacement))

    return LemmatizerModel(
        lookup=lookup,
        rules=rules,
        lexicon=lexicon,
        metadata=LemmatizerMetadata(language, variety, n_tokens),
    )


def lemmatize_in_place(doc: Document, model: LemmatizerModel) -> None:
    """Assign a lemma to every single token of ``doc`` itself.

    A single token without xpos is a stage error naming the token; running
    the lemmatizer on its own output changes nothing.
    """
    lookup = model.lookup.get
    lexicon = model.lexicon
    for si, sent in enumerate(doc.sentences):
        for tok in sent.tokens:
            if isinstance(tok.id, tuple):  # a range
                continue
            misc = tok.misc
            # the tokenizer's two marks are known whole; misc without the
            # key's text cannot mark the token fixed
            if tok.lemma is not None and misc and (
                misc in TOKENIZER_FIXED
                or CLOSED_CLASS_MISC in misc and is_closed_class_fixed(tok)
            ):
                tier = "closed"
            else:
                form, xpos = tok.form, tok.xpos
                if xpos is None:
                    where = sent.sent_id or f"sentence {si + 1}"
                    raise StageError(
                        "lemmatizer",
                        f"token {tok.id} ({form!r}) in {where} has no xpos",
                    )
                lemma = lookup((form, xpos))
                tier = "train"
                if lemma is None and lexicon is not None:
                    lemma = lexicon.lookup_lemma(form, xpos)
                    tier = "lexicon"
                if lemma is None:
                    lemma = model.apply_rules(form, xpos)
                    tier = "rule"
                if lemma is None:
                    lemma = form
                    tier = "identity"
                tok.lemma = lemma
            if not misc:
                tok.misc = _TIER_ENTRIES[tier]
            elif TIER_MISC not in misc:
                tok.misc = f"{misc}|{_TIER_ENTRIES[tier]}"
            else:
                tok.misc = misc_set(misc, TIER_MISC, tier)


def lemmatize_document(
    doc: Document,
    model: LemmatizerModel,
    language: str | None = None,
) -> Document:
    """A lemmatized copy of ``doc``; see :func:`lemmatize_in_place`."""
    modelio.check_language("lemmatizer", model.metadata.language, language)
    out = copy_document(doc)
    lemmatize_in_place(out, model)
    return out


# --- model persistence -----------------------------------------------------


def save_lemmatizer(model: LemmatizerModel, path) -> None:
    sections: dict[str, object] = {
        "lookup": [[f, x, l] for (f, x), l in sorted(model.lookup.items())],
        "rules": [
            [r.form_suffix, r.tag_prefix, r.replacement, r.frequency]
            for r in model.rules
        ],
    }
    if model.lexicon is not None:
        sections["lexicon"] = list(_lexicon_blocks(model.lexicon))
    modelio.write_archive(path, "lemmatizer", asdict(model.metadata), sections)


def _lexicon_blocks(lexicon: Lexicon) -> Iterator[bytes]:
    """The lexicon section of an archive, ``_dumps({"prefixes": ..., "rows": ...})``
    of the prefix table and :meth:`Lexicon.rows`, its rows encoded in blocks
    (:func:`modelio.item_blocks`): the joined blocks are its bytes."""
    yield b'{"prefixes":' + modelio._dumps(lexicon.prefix_table) + b',"rows":['
    yield from modelio.item_blocks(lexicon.rows())
    yield b"]}"


def _embedded(payload: bytes | memoryview, lexicon: Lexicon) -> bool:
    """Whether ``payload`` is the section :func:`save_lemmatizer` writes for
    ``lexicon``, compared with each block as it is encoded."""
    view = memoryview(payload)
    at = 0
    try:
        for block in _lexicon_blocks(lexicon):
            # a bytes copy of the slice compares far faster than the view itself
            if bytes(view[at : at + len(block)]) != block:
                return False
            at += len(block)
    except (TypeError, ValueError):  # not encodable, so never written
        return False
    return at == len(view)


def _lookup_entry(row) -> tuple[tuple[str, str], str]:
    """An archived [form, xpos, lemma] row as a lookup entry; the lemma, which
    annotation writes, holds no tab or line break."""
    if type(row) is list and len(row) == 3:
        form, xpos, lemma = row
        if type(form) is type(xpos) is type(lemma) is str:
            if breaks_column(lemma):
                raise ValueError(f"lookup lemma {lemma!r} holds a tab or a line break")
            return (form, xpos), lemma
    raise TypeError(f"lookup row {row!r} is not [form, xpos, lemma] strings")


def _rule(row) -> SuffixRule:
    """An archived [form suffix, tag prefix, replacement, frequency] row; the
    replacement, which annotation writes, holds no tab or line break."""
    if type(row) is list and len(row) == 4:
        form_suffix, tag_prefix, replacement, frequency = row
        strings = type(form_suffix) is type(tag_prefix) is type(replacement) is str
        if strings and type(frequency) in (int, float):
            if breaks_column(replacement):
                raise ValueError(f"rule replacement {replacement!r} holds a tab or a line break")
            return SuffixRule(form_suffix, tag_prefix, replacement, frequency)
    raise TypeError(f"rule row {row!r} is not [suffix, prefix, replacement, frequency]")


def load_lemmatizer(path, lexicon: Lexicon | None = None) -> LemmatizerModel:
    """Read a lemmatizer archive; a malformed one, a lookup lemma or rule
    replacement that would break a CoNLL-U column (:func:`breaks_column`)
    included, is a :class:`ModelError`.

    ``lexicon`` serves a model whose archive embeds none, and is the model's
    lexicon, kept instead of an equal copy, when the embedded section's bytes
    are those :func:`save_lemmatizer` writes for it; that section is then
    never decoded.  Any other embedded lexicon is decoded and built from its rows.
    """
    meta, sections = modelio.read_archive(path, "lemmatizer", raw=("lexicon",))
    payload = sections.get("lexicon")
    try:
        if payload is not None and (lexicon is None or not _embedded(payload, lexicon)):
            embedded = modelio.decode_payload(path, payload)
            lexicon = Lexicon.from_rows(embedded["rows"], embedded["prefixes"])
        model = LemmatizerModel(
            lookup=dict(map(_lookup_entry, sections["lookup"])),
            rules=[_rule(row) for row in sections["rules"]],
            lexicon=lexicon,
            metadata=modelio.read_metadata(LemmatizerMetadata, meta),
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ModelError(f"{path}: malformed lemmatizer model: {exc}") from exc
    return model
