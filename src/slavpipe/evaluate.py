"""Scoring of annotated documents against gold references.

Token-level metrics (micro F1 per field, pooled and strict morphosyntax,
labeled attachment, per-label accuracy) require identical tokenization and
compare single (non-range) tokens position by position.  When tokenization
itself is under evaluation, :func:`span_f1` matches surface tokens or
sentences by exact character offsets in the reconstructed raw text.

With identical tokenization every micro F1 degenerates to accuracy: the
gold and predicted instance counts coincide, so 2c/(g+p) equals c/g.  The
counts behind each score are kept in the report so this is checkable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal, ROUND_HALF_UP
from typing import Callable

from .conllu import (
    Document,
    Sentence,
    Token,
    canonical_feats,
    document_text,
    misc_value,
    surface_tokens,
)
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


def _aligned(gold: Document, pred: Document):
    """Yield per-sentence single-token lists, refusing mismatched tokenization."""
    if len(gold.sentences) != len(pred.sentences):
        raise EvaluationError(_MISMATCH_MESSAGE)
    for si, (gsent, psent) in enumerate(zip(gold.sentences, pred.sentences)):
        gtoks = gsent.single_tokens()
        ptoks = psent.single_tokens()
        if len(gtoks) != len(ptoks) or any(
            g.form != p.form for g, p in zip(gtoks, ptoks)
        ):
            raise EvaluationError(_MISMATCH_MESSAGE)
        yield si, gsent, gtoks, ptoks


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


def micro_counts(gold: Document, pred: Document, fieldname: str) -> MetricCounts:
    total = correct = 0
    if fieldname == "morph-pooled":
        for _, _, gtoks, ptoks in _aligned(gold, pred):
            total += 3 * len(gtoks)
            for gtok, ptok in zip(gtoks, ptoks):
                correct += (gtok.upos or "_") == (ptok.upos or "_")
                correct += (gtok.xpos or "_") == (ptok.xpos or "_")
                correct += canonical_feats(gtok.feats) == canonical_feats(ptok.feats)
        return MetricCounts(total, total, correct)
    extract = _SCALAR_VALUES.get(fieldname)
    if extract is None:
        raise ConfigurationError(f"unknown evaluation field {fieldname!r}")
    for _, _, gtoks, ptoks in _aligned(gold, pred):
        total += len(gtoks)
        for gtok, ptok in zip(gtoks, ptoks):
            correct += extract(gtok) == extract(ptok)
    return MetricCounts(total, total, correct)


def dev_accuracy(
    gold: Document, pred: Document, value: Callable[[Token], object]
) -> float | None:
    """Share of the annotated gold tokens whose ``value`` the prediction matches.

    Gold tokens whose ``value`` is None are not scored; with none scored the
    result is None.  Needs identical tokenization.
    """
    total = correct = 0
    for _, _, gtoks, ptoks in _aligned(gold, pred):
        for gtok, ptok in zip(gtoks, ptoks):
            expected = value(gtok)
            if expected is not None:
                total += 1
                correct += value(ptok) == expected
    return correct / total if total else None


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


def _char_spans(doc: Document) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Character offsets of surface tokens and sentences, per document_text."""
    token_spans: list[tuple[int, int]] = []
    sentence_spans: list[tuple[int, int]] = []
    pos = 0
    for i, sent in enumerate(doc.sentences):
        surface = surface_tokens(sent)
        sent_start = pos
        for ti, tok in enumerate(surface):
            start = pos
            pos += len(tok.form)
            token_spans.append((start, pos))
            if ti + 1 < len(surface) and tok.space_after:
                pos += 1
        if surface:
            sentence_spans.append((sent_start, pos))
        if i + 1 < len(doc.sentences) and (not surface or surface[-1].space_after):
            pos += 1
    return token_spans, sentence_spans


def span_counts(gold: Document, pred: Document, unit: str) -> MetricCounts:
    if unit not in ("token", "sentence"):
        raise ConfigurationError(f"unknown span unit {unit!r}")
    gold_empty = not gold.sentences
    pred_empty = not pred.sentences
    if gold_empty and pred_empty:
        return MetricCounts(0, 0, 0)
    if gold_empty or pred_empty:
        nonempty = pred if gold_empty else gold
        spans = _char_spans(nonempty)[unit == "sentence"]
        n = len(spans)
        return MetricCounts(0 if gold_empty else n, n if gold_empty else 0, 0)
    gtext = document_text(gold)
    ptext = document_text(pred)
    if gtext != ptext:
        raise EvaluationError(
            "documents reconstruct different raw texts; span comparison needs "
            "the same underlying text"
        )
    gspans = _char_spans(gold)[unit == "sentence"]
    pspans = _char_spans(pred)[unit == "sentence"]
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


def _require_arc(tok: Token, sent: Sentence, si: int, which: str) -> None:
    if tok.head is None or tok.deprel is None:
        where = sent.sent_id or f"sentence {si + 1}"
        raise EvaluationError(
            f"token {tok.id_str()} ({tok.form!r}) in {where} of the {which} "
            "document has no head or dependency label"
        )


def _arc_counts(gold: Document, pred: Document, labeled: bool) -> MetricCounts:
    total = correct = 0
    for si, gsent, gtoks, ptoks in _aligned(gold, pred):
        for gtok, ptok in zip(gtoks, ptoks):
            _require_arc(gtok, gsent, si, "gold")
            _require_arc(ptok, gsent, si, "predicted")
            total += 1
            correct += gtok.head == ptok.head and (
                not labeled or gtok.deprel == ptok.deprel
            )
    return MetricCounts(total, total, correct)


def las_counts(gold: Document, pred: Document) -> MetricCounts:
    return _arc_counts(gold, pred, labeled=True)


def las_score(gold: Document, pred: Document) -> float:
    """Fraction of tokens with both head and dependency label correct."""
    return las_counts(gold, pred).accuracy


def uas_score(gold: Document, pred: Document) -> float:
    """Fraction of tokens with the head correct, label disregarded."""
    return _arc_counts(gold, pred, labeled=False).accuracy


def per_label_accuracy(
    gold: Document, pred: Document, fieldname: str
) -> dict[str, float | None]:
    """Accuracy per gold label value of ``upos`` or ``deprel``.

    A label that occurs only in the predictions has no gold occurrences to
    divide by and is reported as None (printed as ``n/a``), not as zero.
    """
    if fieldname not in ("upos", "deprel"):
        raise ConfigurationError(f"per-label accuracy supports upos or deprel, not {fieldname!r}")
    totals: dict[str, int] = {}
    correct: dict[str, int] = {}
    predicted: set[str] = set()
    for _, _, gtoks, ptoks in _aligned(gold, pred):
        for gtok, ptok in zip(gtoks, ptoks):
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
    return bool(tokens) and all(
        t.head is not None and t.deprel is not None for t in tokens
    )


def evaluate_documents(
    gold: Document, pred: Document, fields: list[str] | None = None
) -> EvalReport:
    """Score every applicable metric; fields default to what gold carries.

    Attachment scores and the deprel accuracy table are included when both
    documents are fully parsed; the upos accuracy table whenever upos is
    evaluated.
    """
    report = EvalReport()
    chosen = _detected_fields(gold) if fields is None else list(fields)
    for fieldname in chosen:
        counts = micro_counts(gold, pred, fieldname)
        report.counts[fieldname] = counts
        report.scores[fieldname] = counts.f1
    if "upos" in chosen:
        for label, acc in per_label_accuracy(gold, pred, "upos").items():
            report.per_label[("upos", label)] = acc
    if fields is None and _fully_parsed(gold) and _fully_parsed(pred):
        counts = las_counts(gold, pred)
        report.counts["las"] = counts
        report.scores["las"] = counts.accuracy
        for label, acc in per_label_accuracy(gold, pred, "deprel").items():
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
