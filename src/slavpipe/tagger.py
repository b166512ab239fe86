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

:func:`save_tagger` writes the large ``form_probs`` and ``suffix_counts``
sections in blocks of keys (:func:`slavpipe.modelio.mapping_blocks`), never
encoding a section whole, and :func:`load_tagger` decodes one section at a
time.  A model trained from a parsed corpus keys its tables by strings that
the parse holds once (:func:`slavpipe.conllu.parse_document`).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import asdict, dataclass, field
from itertools import repeat

from . import modelio
from .conllu import Document, Token, breaks_column, canonical_feats, copy_document, strip_annotations
from .errors import ModelError, TrainingError
from .evaluate import dev_accuracy
from .lexicon import Lexicon
from .memo import memo_table, remember
from .tokenizer import CLOSED_CLASS_MISC, TOKENIZER_FIXED, ClosedClassTable, is_closed_class_fixed

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
    tag_dev(model, dev)
    return model


def tag_dev(
    model: TaggerModel,
    dev: Document,
    lexicon: Lexicon | None = None,
    closed_table: ClosedClassTable | None = None,
) -> Document:
    """Tag a stripped copy of ``dev`` and return it; its accuracy is stored as
    the model's ``metadata.dev_accuracy`` (None when no token is scored)."""
    tagged = strip_annotations(dev)
    tag_in_place(tagged, model, lexicon=lexicon, closed_table=closed_table)
    model.metadata.dev_accuracy = dev_accuracy(dev, tagged, tagging)
    return tagged


def tagging(tok: Token) -> Triple | None:
    """What dev accuracy compares; gold without upos or xpos is not scored."""
    if tok.upos is None or tok.xpos is None:
        return None
    return (tok.upos, tok.xpos, canonical_feats(tok.feats))


def _ranked_candidates(model: TaggerModel, form: str) -> Sequence[Triple]:
    """The triples of ``form``, or of its longest known suffix, most frequent
    first; the default triple alone when neither is known.

    A suffix's ranking is kept on the model (``_suffix_ranks``, made at the
    first backoff) and shared by every form that backs off to it; it holds
    at most one tuple per entry of ``suffix_counts``.
    """
    probs = model.form_probs.get(form)
    if probs:
        return sorted(probs, key=lambda t: (-probs[t], _triple_key(t)))
    ranks = model.__dict__.get("_suffix_ranks")
    if ranks is None:
        ranks = model.__dict__["_suffix_ranks"] = {}
    for length in range(min(MAX_SUFFIX, len(form)), 0, -1):
        suffix = form[-length:]
        ranked = ranks.get(suffix)
        if ranked is not None:
            return ranked
        counts = model.suffix_counts.get(suffix)
        if counts:
            ranked = ranks[suffix] = tuple(
                sorted(counts, key=lambda t: (-counts[t], _triple_key(t)))
            )
            return ranked
    return (model.default_triple,)


def _closed_ok(
    triple: Triple,
    form: str,
    lexicon: Lexicon | None,
    closed_table: ClosedClassTable | None,
) -> bool:
    upos, xpos, _ = triple
    # tag_in_place fixes every form the table lists before it decides one, so
    # a decided form is never listed and a table alone refuses PUNCT and SYM
    if closed_table is not None and upos in ("PUNCT", "SYM"):
        return False
    return lexicon is None or lexicon.closed_class_allows(form, xpos)


def _triple_for_xpos(model: TaggerModel, xpos: str) -> Triple:
    known = model.xpos_best.get(xpos)
    if known is not None:
        return (known[0], xpos, known[1])
    if xpos.startswith("Cs"):
        return ("SCONJ", xpos, None)
    upos = _TAG_PREFIX_UPOS.get(xpos[:1], "X")
    return (upos, xpos, None)


def _decide(
    model: TaggerModel,
    form: str,
    lexicon: Lexicon | None,
    closed_table: ClosedClassTable | None,
) -> Triple:
    """The triple for a form that the closed table does not fix.

    That is the first sound ranked candidate, among the lexicon's tags when
    it lists the form; failing that, the lexicon's own tag, then the first
    sound candidate of any tag, the default triple and X.
    """
    candidates = _ranked_candidates(model, form)
    allowed = lexicon.allowed_tags(form) if lexicon is not None else None
    if allowed:
        for c in candidates:
            if c[1] in allowed and _closed_ok(c, form, lexicon, closed_table):
                return c
        # no model mass on the allowed set: trust the lexicon
        fallback_tag = lexicon.most_frequent_tag(form)
        assert fallback_tag is not None
        candidate = _triple_for_xpos(model, fallback_tag)
        if _closed_ok(candidate, form, lexicon, closed_table):
            return candidate
    for c in candidates:
        if _closed_ok(c, form, lexicon, closed_table):
            return c
    if _closed_ok(model.default_triple, form, lexicon, closed_table):
        return model.default_triple
    return ("X", "X", None)


def tag_in_place(
    doc: Document,
    model: TaggerModel,
    lexicon: Lexicon | None = None,
    closed_table: ClosedClassTable | None = None,
) -> None:
    """Assign upos/xpos/feats to every single token of ``doc`` itself.

    Closed-class-fixed tokens keep their tags.  A token whose form the
    closed table lists is fixed by :meth:`ClosedClassEntry.fix`, on the token
    the document holds.  The triple of each other form is memoised on the
    model per lexicon and closed table; since listed forms never reach the
    memo, a form added to the table takes effect at once and drops no memo.
    """
    decided = memo_table(model, (lexicon, closed_table))
    closed = closed_table.entries if closed_table is not None else {}
    for sent in doc.sentences:
        for tok in sent.tokens:
            if isinstance(tok.id, tuple):  # a range
                continue
            misc = tok.misc
            # the tokenizer's two marks are known whole; misc without the
            # key's text cannot mark the token fixed
            if misc and (
                misc in TOKENIZER_FIXED
                or CLOSED_CLASS_MISC in misc and is_closed_class_fixed(tok)
            ):
                continue
            form = tok.form
            entry = closed.get(form)
            if entry is not None:
                entry.fix(tok)
                continue
            triple = decided.get(form)
            if triple is None:
                triple = remember(
                    decided, form, _decide(model, form, lexicon, closed_table)
                )
            tok.upos, tok.xpos, tok.feats = triple


def tag_document(
    doc: Document,
    model: TaggerModel,
    lexicon: Lexicon | None = None,
    closed_table: ClosedClassTable | None = None,
    language: str | None = None,
) -> Document:
    """A tagged copy of ``doc``; see :func:`tag_in_place`."""
    modelio.check_language("tagger", model.metadata.language, language)
    out = copy_document(doc)
    tag_in_place(out, model, lexicon, closed_table)
    return out


# --- model persistence -----------------------------------------------------


def save_tagger(model: TaggerModel, path) -> None:
    """Write ``model`` as a tagger archive; ``form_probs`` and
    ``suffix_counts`` are encoded in blocks (:func:`modelio.mapping_blocks`)."""
    sections = {
        "form_probs": modelio.mapping_blocks(model.form_probs, _rows),
        "suffix_counts": modelio.mapping_blocks(model.suffix_counts, _rows),
        "xpos_best": {x: [u, f] for x, (u, f) in model.xpos_best.items()},
        "triples": [list(t) for t in model.triples],
        "default_triple": list(model.default_triple),
    }
    modelio.write_archive(path, "tagger", asdict(model.metadata), sections)


def _rows(slot: dict[Triple, float]) -> list[list]:
    """The archived [upos, xpos, feats, number] rows of a form or suffix."""
    return [[*t, n] for t, n in sorted(slot.items(), key=lambda kv: _triple_key(kv[0]))]


def _triple(row) -> Triple:
    """An archived [upos, xpos, feats] row; feats is null or canonical, and no
    string holds a tab or a line break."""
    if type(row) is list and len(row) == 3:
        upos, xpos, feats = row
        if type(upos) is str and type(xpos) is str and (feats is None or type(feats) is str):
            if feats is not None and canonical_feats(feats) != feats:
                raise ValueError(f"feats {feats!r} is not in canonical form")
            if breaks_column(upos) or breaks_column(xpos) or feats and breaks_column(feats):
                raise ValueError(f"{row!r} holds a tab or a line break")
            return (upos, xpos, feats)
    raise TypeError(f"{row!r} is not an [upos, xpos, feats] triple of strings")


def _weighted(row, shared: dict[tuple, tuple]) -> tuple[Triple, float]:
    """An archived [upos, xpos, feats, number] row.  A triple equal to one in
    ``shared`` is taken from there; any other is checked by :func:`_triple`
    and added, so each distinct triple is checked once."""
    if type(row) is list and len(row) == 4 and type(row[3]) in (int, float):
        try:
            return shared[tuple(row[:3])], row[3]
        except (KeyError, TypeError):  # new, or unhashable and so malformed
            triple = _triple(row[:3])
            return shared.setdefault(triple, triple), row[3]
    raise TypeError(f"{row!r} is not an [upos, xpos, feats, number] row")


def _upos_feats(xpos: str, pair) -> tuple[str, str | None]:
    """An archived [upos, feats] pair of ``xpos``."""
    if type(pair) is not list or len(pair) != 2:
        raise TypeError(f"{pair!r} is not an [upos, feats] pair")
    upos, _, feats = _triple([pair[0], xpos, pair[1]])
    return (upos, feats)


_SECTIONS = ("form_probs", "suffix_counts", "xpos_best", "triples", "default_triple")


def load_tagger(path) -> TaggerModel:
    """Read a tagger archive; a malformed one, feats that are not their own
    :func:`canonical_feats` and a string that would break a CoNLL-U column
    (:func:`breaks_column`) included, is a :class:`ModelError`.

    Equal triples, and equal ``xpos_best`` pairs, are one object each.  The
    sections are decoded one at a time, each as its part of the model is
    built, so no two decoded sections are held at once."""
    meta, sections = modelio.read_archive(path, "tagger", raw=_SECTIONS)
    shared: dict[tuple, tuple] = {}

    def one(value: tuple) -> tuple:
        return shared.setdefault(value, value)

    def decoded(name: str):
        return modelio.decode_payload(path, sections.pop(name))

    try:
        model = TaggerModel(
            form_probs={
                form: dict(map(_weighted, rows, repeat(shared)))
                for form, rows in decoded("form_probs").items()
            },
            suffix_counts={
                sfx: dict(map(_weighted, rows, repeat(shared)))
                for sfx, rows in decoded("suffix_counts").items()
            },
            xpos_best={x: one(_upos_feats(x, p)) for x, p in decoded("xpos_best").items()},
            triples=[one(_triple(row)) for row in decoded("triples")],
            default_triple=one(_triple(decoded("default_triple"))),
            metadata=modelio.read_metadata(TaggerMetadata, meta),
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ModelError(f"{path}: malformed tagger model: {exc}") from exc
    return model
