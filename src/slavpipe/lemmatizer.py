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
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import modelio
from .conllu import Document, copy_document, misc_set
from .errors import ModelError, StageError, TrainingError
from .lexicon import Lexicon
from .tokenizer import is_closed_class_fixed

TIER_MISC = "Lemmatizer"
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
        self._max_suffix = 0
        for rule in self.rules:
            key = (rule.tag_prefix, rule.form_suffix)
            self._rule_index.setdefault(key, rule)
            self._max_suffix = max(self._max_suffix, len(rule.form_suffix))

    def apply_rules(self, form: str, xpos: str) -> str | None:
        prefix = xpos[:1]
        for length in range(min(self._max_suffix, len(form)), -1, -1):
            suffix = form[len(form) - length :] if length else ""
            rule = self._rule_index.get((prefix, suffix))
            if rule is not None:
                return form[: len(form) - length] + rule.replacement
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


def lemmatize_in_place(
    doc: Document,
    model: LemmatizerModel,
    record_tier: bool = True,
    language: str | None = None,
) -> None:
    """Assign a lemma to every single token of ``doc`` itself.

    A single token without xpos is a stage error naming the token; running
    the lemmatizer on its own output changes nothing.
    """
    modelio.check_language("lemmatizer", model.metadata.language, language)
    for si, sent in enumerate(doc.sentences):
        where = sent.sent_id or f"sentence {si + 1}"
        for tok in sent.tokens:
            if tok.is_range:
                continue
            if is_closed_class_fixed(tok) and tok.lemma is not None:
                tier = "closed"
            else:
                if tok.xpos is None:
                    raise StageError(
                        "lemmatizer",
                        f"token {tok.id} ({tok.form!r}) in {where} has no xpos",
                    )
                lemma = model.lookup.get((tok.form, tok.xpos))
                tier = "train"
                if lemma is None and model.lexicon is not None:
                    lemma = model.lexicon.lookup_lemma(tok.form, tok.xpos)
                    tier = "lexicon"
                if lemma is None:
                    lemma = model.apply_rules(tok.form, tok.xpos)
                    tier = "rule"
                if lemma is None:
                    lemma = tok.form
                    tier = "identity"
                tok.lemma = lemma
            if record_tier:
                tok.misc = misc_set(tok.misc, TIER_MISC, tier)


def lemmatize_document(
    doc: Document,
    model: LemmatizerModel,
    record_tier: bool = True,
    language: str | None = None,
) -> Document:
    """A lemmatized copy of ``doc``; see :func:`lemmatize_in_place`."""
    out = copy_document(doc)
    lemmatize_in_place(out, model, record_tier, language)
    return out


# --- model persistence -----------------------------------------------------


def save_lemmatizer(model: LemmatizerModel, path) -> None:
    meta = {
        "language": model.metadata.language,
        "variety": model.metadata.variety,
        "token_count": model.metadata.token_count,
    }
    sections: dict[str, object] = {
        "lookup": [[f, x, l] for (f, x), l in sorted(model.lookup.items())],
        "rules": [
            [r.form_suffix, r.tag_prefix, r.replacement, r.frequency]
            for r in model.rules
        ],
    }
    if model.lexicon is not None:
        sections["lexicon"] = {
            "rows": model.lexicon.to_rows(),
            "prefixes": model.lexicon.prefix_table,
        }
    modelio.write_archive(path, "lemmatizer", meta, sections)


def load_lemmatizer(path) -> LemmatizerModel:
    meta, sections = modelio.read_archive(path, "lemmatizer")
    try:
        lexicon = None
        if "lexicon" in sections:
            lexicon = Lexicon.from_rows(
                sections["lexicon"]["rows"], sections["lexicon"]["prefixes"]
            )
        model = LemmatizerModel(
            lookup={(f, x): l for f, x, l in sections["lookup"]},
            rules=[SuffixRule(fs, tp, rs, fr) for fs, tp, rs, fr in sections["rules"]],
            lexicon=lexicon,
            metadata=LemmatizerMetadata(
                language=meta.get("language", ""),
                variety=meta.get("variety", "standard"),
                token_count=meta.get("token_count", 0),
            ),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelError(f"{path}: malformed lemmatizer model: {exc}") from exc
    return model
