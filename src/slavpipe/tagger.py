"""Frequency-based morphosyntactic tagger with suffix backoff.

The model predicts the (upos, xpos, feats) triple jointly, which keeps the
three layers consistent with each other.  Seen forms are tagged from their
training distribution; unseen forms back off to the longest known suffix
(lengths 5 down to 1, add-one smoothed); forms with no known suffix receive
the most frequent training triple.

Two soundness constraints can be layered on top.  An inflectional lexicon
restricts predictions for listed forms to the tags the lexicon allows, and
its closed-class prefix table keeps closed-class tags away from unlisted
forms.  A closed-class table (the tokenizer's punctuation/symbol inventory)
pins listed forms to their fixed tags and prevents PUNCT/SYM assignments to
anything else.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import modelio
from .conllu import Document, Token, canonical_feats, copy_document, strip_annotations
from .errors import ModelError, TrainingError
from .evaluate import dev_accuracy
from .lexicon import Lexicon
from .tokenizer import ClosedClassTable, closed_class_assign, is_closed_class_fixed

Triple = tuple[str, str, str | None]

MAX_SUFFIX = 5

# Fallback mapping from the leading tag character to a universal POS, used
# when a lexicon-supplied tag never occurred in the training data.
_TAG_PREFIX_UPOS = {
    "N": "NOUN",
    "V": "VERB",
    "A": "ADJ",
    "R": "ADV",
    "P": "PRON",
    "D": "DET",
    "S": "ADP",
    "C": "CCONJ",
    "M": "NUM",
    "Q": "PART",
    "I": "INTJ",
    "Y": "X",
    "X": "X",
    "Z": "PUNCT",
}


def _triple_key(triple: Triple) -> tuple[str, str, str]:
    upos, xpos, feats = triple
    return (upos, xpos, feats or "")


@dataclass
class TaggerMetadata:
    language: str = ""
    variety: str = "standard"
    token_count: int = 0
    dev_accuracy: float | None = None


@dataclass
class TaggerModel:
    form_probs: dict[str, dict[Triple, float]] = field(default_factory=dict)
    suffix_counts: dict[str, dict[Triple, int]] = field(default_factory=dict)
    xpos_best: dict[str, tuple[str, str | None]] = field(default_factory=dict)
    triples: list[Triple] = field(default_factory=list)
    default_triple: Triple = ("X", "X", None)
    metadata: TaggerMetadata = field(default_factory=TaggerMetadata)

    def form_distribution(self, form: str) -> dict[Triple, float]:
        return dict(self.form_probs.get(form, {}))

    def suffix_distribution(self, suffix: str) -> dict[Triple, float]:
        """Add-one smoothed distribution over all training triples."""
        counts = self.suffix_counts.get(suffix)
        if counts is None:
            return {}
        total = sum(counts.values()) + len(self.triples)
        return {t: (counts.get(t, 0) + 1) / total for t in self.triples}


def train_tagger(
    train: Document,
    dev: Document,
    language: str = "",
    variety: str = "standard",
) -> TaggerModel:
    """Count-based training; dev accuracy is recorded in the model metadata.

    Raises :class:`TrainingError` when the training document contains no
    tokens annotated with both upos and xpos.
    """
    form_counts: dict[str, dict[Triple, int]] = {}
    suffix_counts: dict[str, dict[Triple, int]] = {}
    triple_totals: dict[Triple, int] = {}
    xpos_counts: dict[str, dict[tuple[str, str | None], int]] = {}

    n_tokens = 0
    for tok in train.single_tokens():
        if tok.upos is None or tok.xpos is None:
            continue
        n_tokens += 1
        triple: Triple = (tok.upos, tok.xpos, canonical_feats(tok.feats))
        form_slot = form_counts.setdefault(tok.form, {})
        form_slot[triple] = form_slot.get(triple, 0) + 1
        triple_totals[triple] = triple_totals.get(triple, 0) + 1
        pair_slot = xpos_counts.setdefault(tok.xpos, {})
        pair = (tok.upos, triple[2])
        pair_slot[pair] = pair_slot.get(pair, 0) + 1
        for length in range(1, min(MAX_SUFFIX, len(tok.form)) + 1):
            sfx = tok.form[-length:]
            slot = suffix_counts.setdefault(sfx, {})
            slot[triple] = slot.get(triple, 0) + 1

    if n_tokens == 0:
        raise TrainingError("tagger training data contains no annotated tokens")

    form_probs = {
        form: {t: c / sum(slot.values()) for t, c in slot.items()}
        for form, slot in form_counts.items()
    }
    xpos_best = {
        xpos: min(
            (pair for pair, c in slot.items() if c == max(slot.values())),
            key=lambda p: (p[0], p[1] or ""),
        )
        for xpos, slot in xpos_counts.items()
    }
    best_count = max(triple_totals.values())
    default_triple = min(
        (t for t, c in triple_totals.items() if c == best_count), key=_triple_key
    )

    model = TaggerModel(
        form_probs=form_probs,
        suffix_counts=suffix_counts,
        xpos_best=xpos_best,
        triples=sorted(triple_totals, key=_triple_key),
        default_triple=default_triple,
        metadata=TaggerMetadata(language=language, variety=variety, token_count=n_tokens),
    )
    tagged = strip_annotations(dev)
    tag_in_place(tagged, model)
    model.metadata.dev_accuracy = dev_accuracy(dev, tagged, _tagging)
    return model


def _tagging(tok: Token) -> Triple | None:
    """What dev accuracy compares; gold without upos or xpos is not scored."""
    if tok.upos is None or tok.xpos is None:
        return None
    return (tok.upos, tok.xpos, canonical_feats(tok.feats))


def _ranked_candidates(model: TaggerModel, form: str) -> list[Triple]:
    probs = model.form_probs.get(form)
    if probs:
        return sorted(probs, key=lambda t: (-probs[t], _triple_key(t)))
    for length in range(min(MAX_SUFFIX, len(form)), 0, -1):
        counts = model.suffix_counts.get(form[-length:])
        if counts:
            return sorted(counts, key=lambda t: (-counts[t], _triple_key(t)))
    return [model.default_triple]


def _closed_ok(
    triple: Triple,
    form: str,
    lexicon: Lexicon | None,
    closed_table: ClosedClassTable | None,
) -> bool:
    upos, xpos, _ = triple
    if closed_table is not None and upos in ("PUNCT", "SYM") and form not in closed_table:
        return False
    if lexicon is not None:
        for category, prefix in lexicon.prefix_table.items():
            if xpos.startswith(prefix) and not lexicon.in_closed_class(category, form):
                return False
    return True


def _triple_for_xpos(model: TaggerModel, xpos: str) -> Triple:
    known = model.xpos_best.get(xpos)
    if known is not None:
        return (known[0], xpos, known[1])
    if xpos.startswith("Cs"):
        return ("SCONJ", xpos, None)
    upos = _TAG_PREFIX_UPOS.get(xpos[:1], "X")
    return (upos, xpos, None)


def tag_in_place(
    doc: Document,
    model: TaggerModel,
    lexicon: Lexicon | None = None,
    closed_table: ClosedClassTable | None = None,
    language: str | None = None,
) -> None:
    """Assign upos/xpos/feats to every single token of ``doc`` itself.

    Closed-class-fixed tokens keep their tags.  When ``language`` is given it
    must match the language recorded in the model metadata.
    """
    modelio.check_language("tagger", model.metadata.language, language)
    for sent in doc.sentences:
        for i, tok in enumerate(sent.tokens):
            if tok.is_range or is_closed_class_fixed(tok):
                continue
            if closed_table is not None and tok.form in closed_table:
                sent.tokens[i] = closed_class_assign(tok, closed_table)
                continue

            candidates = _ranked_candidates(model, tok.form)
            sound = [
                c for c in candidates if _closed_ok(c, tok.form, lexicon, closed_table)
            ]
            chosen: Triple | None = None
            allowed = lexicon.allowed_tags(tok.form) if lexicon is not None else set()
            if allowed:
                constrained = [c for c in sound if c[1] in allowed]
                if constrained:
                    chosen = constrained[0]
                else:
                    # no model mass on the allowed set: trust the lexicon
                    fallback_tag = lexicon.most_frequent_tag(tok.form)
                    assert fallback_tag is not None
                    candidate = _triple_for_xpos(model, fallback_tag)
                    if _closed_ok(candidate, tok.form, lexicon, closed_table):
                        chosen = candidate
            if chosen is None:
                if sound:
                    chosen = sound[0]
                elif _closed_ok(model.default_triple, tok.form, lexicon, closed_table):
                    chosen = model.default_triple
                else:
                    chosen = ("X", "X", None)
            tok.upos, tok.xpos, tok.feats = chosen


def tag_document(
    doc: Document,
    model: TaggerModel,
    lexicon: Lexicon | None = None,
    closed_table: ClosedClassTable | None = None,
    language: str | None = None,
) -> Document:
    """A tagged copy of ``doc``; see :func:`tag_in_place`."""
    out = copy_document(doc)
    tag_in_place(out, model, lexicon, closed_table, language)
    return out


# --- model persistence -----------------------------------------------------


def save_tagger(model: TaggerModel, path) -> None:
    meta = {
        "language": model.metadata.language,
        "variety": model.metadata.variety,
        "token_count": model.metadata.token_count,
        "dev_accuracy": model.metadata.dev_accuracy,
    }
    sections = {
        "form_probs": {
            form: [[*t, p] for t, p in sorted(slot.items(), key=lambda kv: _triple_key(kv[0]))]
            for form, slot in model.form_probs.items()
        },
        "suffix_counts": {
            sfx: [[*t, c] for t, c in sorted(slot.items(), key=lambda kv: _triple_key(kv[0]))]
            for sfx, slot in model.suffix_counts.items()
        },
        "xpos_best": {x: [u, f] for x, (u, f) in model.xpos_best.items()},
        "triples": [list(t) for t in model.triples],
        "default_triple": list(model.default_triple),
    }
    modelio.write_archive(path, "tagger", meta, sections)


def load_tagger(path) -> TaggerModel:
    meta, sections = modelio.read_archive(path, "tagger")
    try:
        model = TaggerModel(
            form_probs={
                form: {(u, x, f): p for u, x, f, p in rows}
                for form, rows in sections["form_probs"].items()
            },
            suffix_counts={
                sfx: {(u, x, f): c for u, x, f, c in rows}
                for sfx, rows in sections["suffix_counts"].items()
            },
            xpos_best={x: (u, f) for x, (u, f) in sections["xpos_best"].items()},
            triples=[(u, x, f) for u, x, f in sections["triples"]],
            default_triple=tuple(sections["default_triple"]),
            metadata=TaggerMetadata(
                language=meta.get("language", ""),
                variety=meta.get("variety", "standard"),
                token_count=meta.get("token_count", 0),
                dev_accuracy=meta.get("dev_accuracy"),
            ),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelError(f"{path}: malformed tagger model: {exc}") from exc
    return model
