"""Scoring of annotated documents against gold references.

Token-level metrics (micro F1 per field, pooled and strict morphosyntax,
labeled attachment, per-label accuracy) require identical tokenization:
they pair the single (non-range) tokens of the two documents by their place
in the document, so the two may split the tokens into sentences differently.
Only labeled attachment, whose heads count within a sentence, also needs the
same sentences on both sides.  When tokenization itself is under evaluation,
:func:`span_f1` matches surface tokens or sentences by exact character
offsets in the reconstructed raw text.

With identical tokenization every micro F1 degenerates to accuracy: the
gold and predicted instance counts coincide, so 2c/(g+p) equals c/g.  The
counts behind each score are kept in the report so this is checkable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal, ROUND_HALF_UP
from typing import Callable

from .conllu import Document, Token, canonical_feats, misc_value, text_layout
from .errors import ConfigurationError, EvaluationError

FIELDS = ("lemma", "upos", "xpos", "feats", "morph-pooled", "morph-strict", "srl")

_MISMATCH_MESSAGE = (
    "the two documents are tokenized differently; token-level metrics need "
    "identical tokenization, use span_f1 to compare segmentations"
)


@dataclass(frozen=True)
class MetricCounts:
    gold: int
    pred: int
    correct: int

    @property
    def f1(self) -> float:
        if self.gold + self.pred == 0:
            return 1.0
        return 2 * self.correct / (self.gold + self.pred)

    @property
    def accuracy(self) -> float:
        if self.gold == 0:
            return 1.0
        return self.correct / self.gold


@dataclass
class EvalReport:
    scores: dict[str, float] = field(default_factory=dict)
    per_label: dict[tuple[str, str], float | None] = field(default_factory=dict)
    counts: dict[str, MetricCounts] = field(default_factory=dict)


Pairs = list[tuple[Token, Token]]


def _pairs(gold: Document, pred: Document) -> Pairs:
    """Pair the single tokens of the two documents by their place in the
    document, refusing mismatched tokenization.  The two may split the same
    tokens into sentences differently."""
    gtoks, ptoks = gold.single_tokens(), pred.single_tokens()
    if len(gtoks) != len(ptoks) or any(g.form != p.form for g, p in zip(gtoks, ptoks)):
        raise EvaluationError(_MISMATCH_MESSAGE)
    return list(zip(gtoks, ptoks))


def _same_sentences(gold: Document, pred: Document) -> bool:
    """Whether the two documents split their single tokens into sentences alike."""
    return [len(s.single_tokens()) for s in gold.sentences] == [
        len(s.single_tokens()) for s in pred.sentences
    ]


_SCALAR_VALUES = {
    "lemma": lambda tok: tok.lemma or "_",
    "upos": lambda tok: tok.upos or "_",
    "xpos": lambda tok: tok.xpos or "_",
    "feats": lambda tok: canonical_feats(tok.feats) or "_",
    "morph-strict": lambda tok: "\t".join(
        (tok.upos or "_", tok.xpos or "_", canonical_feats(tok.feats) or "_")
    ),
    "srl": lambda tok: misc_value(tok.misc, "SRL") or "_",
}


def _counts(pairs: Pairs, value: Callable[[Token], object]) -> MetricCounts:
    """Count the gold tokens of ``pairs`` (see :func:`_pairs`) whose ``value``
    is not None, and the matched ones."""
    total = correct = 0
    for gtok, ptok in pairs:
        expected = value(gtok)
        if expected is not None:
            total += 1
            correct += value(ptok) == expected
    return MetricCounts(total, total, correct)


def _check_field(fieldname: str) -> None:
    if fieldname != "morph-pooled" and fieldname not in _SCALAR_VALUES:
        raise ConfigurationError(f"unknown evaluation field {fieldname!r}")


def _field_counts(pairs: Pairs, fieldname: str) -> MetricCounts:
    """The counts of a field that :func:`_check_field` passed, over ``pairs``."""
    if fieldname == "morph-pooled":
        parts = [_field_counts(pairs, name) for name in ("upos", "xpos", "feats")]
        total = sum(c.gold for c in parts)
        return MetricCounts(total, total, sum(c.correct for c in parts))
    return _counts(pairs, _SCALAR_VALUES[fieldname])


def micro_counts(gold: Document, pred: Document, fieldname: str) -> MetricCounts:
    _check_field(fieldname)
    return _field_counts(_pairs(gold, pred), fieldname)


def dev_accuracy(
    gold: Document, pred: Document, value: Callable[[Token], object]
) -> float | None:
    """Share of the annotated gold tokens whose ``value`` the prediction matches.

    Gold tokens whose ``value`` is None are not scored; with none scored the
    result is None.  Needs identical tokenization.
    """
    counts = _counts(_pairs(gold, pred), value)
    return counts.accuracy if counts.gold else None


def micro_f1(gold: Document, pred: Document, fieldname: str) -> float:
    """Micro F1 over one annotation field; needs identical tokenization.

    ``morph-pooled`` pools three instances per token (its upos, xpos and
    canonical feats each scored independently); ``morph-strict`` instead
    requires all three to match at once.  ``srl`` compares the opaque role
    strings stored under the ``SRL`` misc key, with absence matching
    absence.
    """
    return micro_counts(gold, pred, fieldname).f1


# --- segmentation ----------------------------------------------------------


def span_counts(gold: Document, pred: Document, unit: str) -> MetricCounts:
    if unit not in ("token", "sentence"):
        raise ConfigurationError(f"unknown span unit {unit!r}")
    which = 2 if unit == "sentence" else 1
    glayout, playout = text_layout(gold), text_layout(pred)
    gspans, pspans = glayout[which], playout[which]
    if gold.sentences and pred.sentences and glayout[0] != playout[0]:
        raise EvaluationError(
            "documents reconstruct different raw texts; span comparison needs "
            "the same underlying text"
        )
    # an empty document has no span, so it matches none of the other's
    matched = len(set(gspans) & set(pspans))
    return MetricCounts(len(gspans), len(pspans), matched)


def span_f1(gold: Document, pred: Document, unit: str = "token") -> float:
    """F1 of surface token or sentence spans matched by character offsets.

    Both documents must reconstruct the same raw text (checked), except that
    an empty document scores 0 against any non-empty one and 1 against
    another empty one.
    """
    return span_counts(gold, pred, unit).f1


# --- attachment ------------------------------------------------------------


def arc(tok: Token) -> tuple[int, str] | None:
    """A token's attachment, ``(head, deprel)``, or None without both."""
    if tok.head is None or tok.deprel is None:
        return None
    return (tok.head, tok.deprel)


def las_counts(gold: Document, pred: Document) -> MetricCounts:
    """Count the tokens whose head and label the prediction matches, after
    checking, in order, that the documents are tokenized alike, that they
    have the same sentences (a head counts within its sentence) and that
    every token on both sides has an arc."""
    pairs = _pairs(gold, pred)
    if not _same_sentences(gold, pred):
        raise EvaluationError(
            "attachment scores need the same sentence boundaries in both documents"
        )
    for si, (gsent, psent) in enumerate(zip(gold.sentences, pred.sentences)):
        for gtok, ptok in zip(gsent.single_tokens(), psent.single_tokens()):
            for tok, which in ((gtok, "gold"), (ptok, "predicted")):
                if arc(tok) is None:
                    where = gsent.sent_id or f"sentence {si + 1}"
                    raise EvaluationError(
                        f"token {tok.id_str()} ({tok.form!r}) in {where} of the {which} "
                        "document has no head or dependency label"
                    )
    return _counts(pairs, arc)


def las_score(gold: Document, pred: Document) -> float:
    """Fraction of tokens with both head and dependency label correct."""
    return las_counts(gold, pred).accuracy


def per_label_accuracy(
    gold: Document, pred: Document, fieldname: str
) -> dict[str, float | None]:
    """Accuracy per gold label value of ``upos`` or ``deprel``.

    A label that occurs only in the predictions has no gold occurrences to
    divide by and is reported as None (printed as ``n/a``), not as zero.
    """
    if fieldname not in ("upos", "deprel"):
        raise ConfigurationError(f"per-label accuracy supports upos or deprel, not {fieldname!r}")
    return _label_accuracy(_pairs(gold, pred), fieldname)


def _label_accuracy(pairs: Pairs, fieldname: str) -> dict[str, float | None]:
    totals: dict[str, int] = {}
    correct: dict[str, int] = {}
    predicted: set[str] = set()
    for gtok, ptok in pairs:
        gval = getattr(gtok, fieldname)
        pval = getattr(ptok, fieldname)
        if pval is not None:
            predicted.add(pval)
        if gval is None:
            continue
        totals[gval] = totals.get(gval, 0) + 1
        if pval == gval:
            correct[gval] = correct.get(gval, 0) + 1
    out: dict[str, float | None] = {
        label: correct.get(label, 0) / totals[label] for label in totals
    }
    for label in predicted - set(totals):
        out[label] = None
    return out


# --- comparison across systems ---------------------------------------------


def relative_error_reduction(old_score: float, new_score: float) -> float:
    """Share of the remaining error removed: (new - old) / (1 - old)."""
    if old_score == 1:
        raise EvaluationError(
            "relative error reduction is undefined when the old score is "
            "already perfect"
        )
    return (new_score - old_score) / (1 - old_score)


def as_percent(value: float) -> int:
    """Round a fraction to a whole percentage, halves away from zero."""
    return int(Decimal(str(value * 100)).quantize(Decimal(1), rounding=ROUND_HALF_UP))


# --- reports ---------------------------------------------------------------


def _detected_fields(gold: Document) -> list[str]:
    tokens = gold.single_tokens()
    have = {
        "lemma": any(t.lemma is not None for t in tokens),
        "upos": any(t.upos is not None for t in tokens),
        "xpos": any(t.xpos is not None for t in tokens),
        "feats": any(t.feats is not None for t in tokens),
        "srl": any(misc_value(t.misc, "SRL") is not None for t in tokens),
    }
    fields = [f for f in ("lemma", "upos", "xpos", "feats") if have[f]]
    if have["upos"] and have["xpos"]:
        fields += ["morph-pooled", "morph-strict"]
    if have["srl"]:
        fields.append("srl")
    return fields


def _fully_parsed(doc: Document) -> bool:
    tokens = doc.single_tokens()
    return bool(tokens) and all(arc(t) is not None for t in tokens)


def evaluate_documents(
    gold: Document, pred: Document, fields: list[str] | None = None
) -> EvalReport:
    """Score every applicable metric; fields default to what gold carries.

    Attachment scores and the deprel accuracy table are included when both
    documents are fully parsed into the same sentences; the upos accuracy
    table whenever upos is evaluated.

    The documents are paired once, at the first metric that needs it, and
    every metric counts over those pairs; an unknown field is refused before
    the documents are paired for it.
    """
    report = EvalReport()
    chosen = _detected_fields(gold) if fields is None else list(fields)
    pairs = None
    for fieldname in chosen:
        _check_field(fieldname)
        if pairs is None:
            pairs = _pairs(gold, pred)
        counts = _field_counts(pairs, fieldname)
        report.counts[fieldname] = counts
        report.scores[fieldname] = counts.f1
    if "upos" in chosen:
        for label, acc in _label_accuracy(pairs, "upos").items():
            report.per_label[("upos", label)] = acc
    if (
        fields is None and _fully_parsed(gold) and _fully_parsed(pred)
        and _same_sentences(gold, pred)
    ):
        if pairs is None:
            pairs = _pairs(gold, pred)
        # every token on both sides has an arc: las_counts would find no fault
        counts = _counts(pairs, arc)
        report.counts["las"] = counts
        report.scores["las"] = counts.accuracy
        for label, acc in _label_accuracy(pairs, "deprel").items():
            report.per_label[("deprel", label)] = acc
    return report


def evaluate_spans(gold: Document, pred: Document) -> EvalReport:
    """Segmentation-only report for differently tokenized documents."""
    report = EvalReport()
    for unit, name in (("token", "tokens"), ("sentence", "sentences")):
        counts = span_counts(gold, pred, unit)
        report.counts[name] = counts
        report.scores[name] = counts.f1
    return report


def format_report(report: EvalReport, style: str = "table") -> str:
    if style == "kv":
        lines = [f"{name} = {report.scores[name]:.6f}" for name in report.scores]
        for (fieldname, label), acc in sorted(report.per_label.items()):
            value = "n/a" if acc is None else f"{acc:.6f}"
            lines.append(f"{fieldname}:{label} = {value}")
        return "\n".join(lines)
    if style != "table":
        raise ConfigurationError(f"unknown report style {style!r}")
    width = max((len(n) for n in report.scores), default=6)
    lines = [f"{'metric'.ljust(width)}  score   gold  pred  correct"]
    for name, score in report.scores.items():
        c = report.counts.get(name)
        tail = f"{c.gold:>5} {c.pred:>5} {c.correct:>8}" if c else ""
        lines.append(f"{name.ljust(width)}  {score:.4f}  {tail}".rstrip())
    if report.per_label:
        lines.append("")
        lines.append("per-label accuracy")
        for (fieldname, label), acc in sorted(report.per_label.items()):
            value = "n/a" if acc is None else f"{acc:.4f}"
            lines.append(f"  {fieldname}:{label.ljust(12)} {value}")
    return "\n".join(lines)
