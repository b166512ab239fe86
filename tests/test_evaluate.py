import random
from fractions import Fraction

import pytest

from slavpipe.conllu import Document, Sentence, Token, copy_document, parse_document
from slavpipe.errors import ConfigurationError, EvaluationError
from slavpipe.evaluate import (
    FIELDS,
    MetricCounts,
    as_percent,
    dev_accuracy,
    evaluate_documents,
    evaluate_spans,
    format_report,
    las_score,
    micro_counts,
    micro_f1,
    per_label_accuracy,
    relative_error_reduction,
    span_f1,
    uas_score,
)

from support import (
    oracle_las,
    oracle_micro_f1,
    oracle_per_label,
    oracle_span_f1,
    random_aligned_pair,
    random_segmentation_pair,
)


def doc_of(*sentences):
    return Document(sentences=list(sentences))


def sent(*forms, **per_token):
    tokens = []
    for i, form in enumerate(forms, 1):
        kwargs = {k: v[i - 1] for k, v in per_token.items()}
        tokens.append(Token(id=i, form=form, **kwargs))
    return Sentence(comments=[], tokens=tokens)


# --- counts arithmetic ------------------------------------------------------


def test_metric_counts_degenerate_cases():
    assert MetricCounts(0, 0, 0).f1 == 1.0
    assert MetricCounts(0, 0, 0).accuracy == 1.0
    assert MetricCounts(4, 0, 0).f1 == 0.0
    assert MetricCounts(0, 4, 0).f1 == 0.0
    assert MetricCounts(3, 3, 2).f1 == pytest.approx(2 / 3)
    assert MetricCounts(4, 4, 3).accuracy == 0.75


def test_micro_f1_is_accuracy_for_identical_tokenization():
    gold = doc_of(sent("a", "b", upos=["NOUN", "VERB"]))
    pred = doc_of(sent("a", "b", upos=["NOUN", "NOUN"]))
    counts = micro_counts(gold, pred, "upos")
    assert counts.gold == counts.pred == 2
    assert micro_f1(gold, pred, "upos") == counts.accuracy == 0.5


def test_dev_accuracy_scores_only_annotated_gold():
    lemma = lambda tok: tok.lemma
    gold = doc_of(sent("a", "b", "c", "d", lemma=["a", None, "c", None]))
    pred = doc_of(sent("a", "b", "c", "d", lemma=["a", "b", "x", None]))
    assert dev_accuracy(gold, pred, lemma) == 0.5
    bare = doc_of(sent("a", "b", "c", "d"))
    assert dev_accuracy(bare, pred, lemma) is None
    assert dev_accuracy(doc_of(), doc_of(), lemma) is None


def test_feats_compared_canonically():
    gold = doc_of(sent("a", feats=["Case=Nom|Gender=Fem"]))
    pred = doc_of(sent("a", feats=["Gender=Fem|Case=Nom"]))
    assert micro_f1(gold, pred, "feats") == 1.0


def test_morph_pooled_counts_three_per_token():
    gold = doc_of(sent("a", upos=["NOUN"], xpos=["Ncfsn"], feats=["Case=Nom"]))
    pred = doc_of(sent("a", upos=["NOUN"], xpos=["Ncfsa"], feats=["Case=Nom"]))
    counts = micro_counts(gold, pred, "morph-pooled")
    assert (counts.gold, counts.pred, counts.correct) == (3, 3, 2)
    strict = micro_counts(gold, pred, "morph-strict")
    assert (strict.gold, strict.pred, strict.correct) == (1, 1, 0)


def test_srl_reads_misc_and_absence_matches_absence():
    gold = doc_of(sent("a", "b", misc=["SRL=Agent", None]))
    pred = doc_of(sent("a", "b", misc=["SRL=Agent|SpaceAfter=No", None]))
    counts = micro_counts(gold, pred, "srl")
    assert (counts.gold, counts.pred, counts.correct) == (2, 2, 2)


def test_unknown_field_rejected():
    gold = doc_of(sent("a"))
    with pytest.raises(ConfigurationError, match="unknown evaluation field"):
        micro_f1(gold, gold, "ner")


def test_tokenization_mismatch_points_to_span_f1():
    gold = doc_of(sent("ab"))
    pred = doc_of(sent("a", "b"))
    with pytest.raises(EvaluationError, match="use span_f1"):
        micro_f1(gold, pred, "upos")


def test_field_oracle_equivalence_on_random_pairs():
    rng = random.Random(2024)
    for _ in range(40):
        gold, pred = random_aligned_pair(rng, max_tokens=120)
        for fieldname in FIELDS:
            counts = micro_counts(gold, pred, fieldname)
            expected = oracle_micro_f1(gold, pred, fieldname)
            got = Fraction(2 * counts.correct, counts.gold + counts.pred) \
                if counts.gold + counts.pred else Fraction(1)
            assert got == expected, fieldname
            assert counts.f1 == pytest.approx(float(expected))


# --- spans ------------------------------------------------------------------


def test_span_f1_perfect_on_identical_documents(nonstandard_doc):
    assert span_f1(nonstandard_doc, nonstandard_doc, "token") == 1.0
    assert span_f1(nonstandard_doc, nonstandard_doc, "sentence") == 1.0


def test_span_f1_counts_boundary_disagreements():
    text = (
        "# text = abc\n"
        "1\tabc\t_\t_\t_\t_\t_\t_\t_\t_\n"
        "\n"
    )
    split = (
        "# text = abc\n"
        "1\tab\t_\t_\t_\t_\t_\t_\t_\tSpaceAfter=No\n"
        "2\tc\t_\t_\t_\t_\t_\t_\t_\t_\n"
        "\n"
    )
    gold = parse_document(text)
    pred = parse_document(split)
    assert span_f1(gold, pred, "token") == 0.0
    assert span_f1(gold, pred, "sentence") == 1.0


def test_span_f1_empty_document_rules():
    empty = Document()
    nonempty = doc_of(sent("a"))
    assert span_f1(empty, empty, "token") == 1.0
    assert span_f1(empty, nonempty, "token") == 0.0
    assert span_f1(nonempty, empty, "token") == 0.0


def test_span_f1_requires_same_text():
    gold = doc_of(sent("abc"))
    pred = doc_of(sent("abd"))
    with pytest.raises(EvaluationError, match="different raw texts"):
        span_f1(gold, pred, "token")


def test_span_unit_validated():
    gold = doc_of(sent("a"))
    with pytest.raises(ConfigurationError, match="unknown span unit"):
        span_f1(gold, gold, "paragraph")


def test_span_f1_symmetric():
    rng = random.Random(7)
    for _ in range(20):
        a, b = random_segmentation_pair(rng)
        for unit in ("token", "sentence"):
            assert span_f1(a, b, unit) == pytest.approx(span_f1(b, a, unit))


def test_span_oracle_equivalence_on_random_segmentations():
    rng = random.Random(31)
    for _ in range(40):
        gold, pred = random_segmentation_pair(rng)
        for unit in ("token", "sentence"):
            expected = oracle_span_f1(gold, pred, unit)
            assert span_f1(gold, pred, unit) == pytest.approx(float(expected))


# --- attachment -------------------------------------------------------------


def test_las_and_uas_distinguish_labels():
    gold = doc_of(sent("a", "b", head=[2, 0], deprel=["nsubj", "root"]))
    pred = doc_of(sent("a", "b", head=[2, 0], deprel=["obj", "root"]))
    assert las_score(gold, pred) == 0.5
    assert uas_score(gold, pred) == 1.0


def test_las_requires_arcs_and_names_the_culprit():
    gold = doc_of(sent("a", head=[0], deprel=["root"]))
    gold.sentences[0].comments = ["# sent_id = x9"]
    bare = doc_of(sent("a"))
    with pytest.raises(EvaluationError, match=r"token 1 \('a'\) in x9 of the predicted"):
        las_score(gold, bare)
    with pytest.raises(EvaluationError, match="of the gold"):
        las_score(bare, gold)


def test_las_oracle_equivalence():
    rng = random.Random(404)
    for _ in range(30):
        gold, pred = random_aligned_pair(rng, max_tokens=80)
        for doc in (gold, pred):
            for s in doc.sentences:
                for i, t in enumerate(s.single_tokens()):
                    if t.head is None:
                        t.head = 0 if i == 0 else 1
                    if t.deprel is None:
                        t.deprel = "dep"
        assert las_score(gold, pred) == pytest.approx(float(oracle_las(gold, pred)))


# --- per-label accuracy -----------------------------------------------------


def test_per_label_gold_only_and_pred_only():
    gold = doc_of(sent("a", "b", "c", upos=["NOUN", "NOUN", "VERB"]))
    pred = doc_of(sent("a", "b", "c", upos=["NOUN", "VERB", "ADJ"]))
    table = per_label_accuracy(gold, pred, "upos")
    assert table["NOUN"] == 0.5
    assert table["VERB"] == 0.0
    assert table["ADJ"] is None  # predicted only, not zero


def test_per_label_skips_unannotated_gold():
    gold = doc_of(sent("a", "b", upos=["NOUN", None]))
    pred = doc_of(sent("a", "b", upos=["NOUN", "VERB"]))
    table = per_label_accuracy(gold, pred, "upos")
    assert table["NOUN"] == 1.0
    assert table["VERB"] is None


def test_per_label_field_restricted():
    gold = doc_of(sent("a"))
    with pytest.raises(ConfigurationError, match="upos or deprel"):
        per_label_accuracy(gold, gold, "xpos")


def test_per_label_oracle_equivalence():
    rng = random.Random(77)
    for _ in range(30):
        gold, pred = random_aligned_pair(rng, max_tokens=100)
        table = per_label_accuracy(gold, pred, "upos")
        expected = oracle_per_label(gold, pred, "upos")
        assert set(table) == set(expected)
        for label, value in expected.items():
            if value is None:
                assert table[label] is None
            else:
                assert table[label] == pytest.approx(float(value))


# --- cross-system comparison ------------------------------------------------


def test_relative_error_reduction_rows():
    cases = [
        (0.819, 0.997, 98),
        (0.998, 0.999, 50),
        (0.974, 0.992, 69),
        (0.951, 0.983, 65),
        (0.865, 0.911, 34),
    ]
    for old, new, expected in cases:
        assert as_percent(relative_error_reduction(old, new)) == expected


def test_relative_error_reduction_sign_and_domain():
    assert relative_error_reduction(0.5, 0.25) == pytest.approx(-0.5)
    with pytest.raises(EvaluationError, match="already perfect"):
        relative_error_reduction(1.0, 1.0)


def test_as_percent_rounds_half_up():
    assert as_percent(0.005) == 1
    assert as_percent(0.004999) == 0
    assert as_percent(0.985) == 99
    assert as_percent(1.0) == 100


# --- reports ----------------------------------------------------------------


def test_evaluate_documents_detects_fields():
    gold = doc_of(
        sent("a", "b", upos=["NOUN", "VERB"], xpos=["N", "V"], lemma=["a", "b"])
    )
    report = evaluate_documents(gold, copy_document(gold))
    assert set(report.scores) == {"lemma", "upos", "xpos", "morph-pooled", "morph-strict"}
    assert all(v == 1.0 for v in report.scores.values())
    assert ("upos", "NOUN") in report.per_label


def test_evaluate_documents_adds_las_when_parsed():
    gold = doc_of(
        sent(
            "a", "b",
            upos=["NOUN", "VERB"], head=[2, 0], deprel=["nsubj", "root"],
        )
    )
    report = evaluate_documents(gold, copy_document(gold))
    assert report.scores["las"] == 1.0
    assert ("deprel", "root") in report.per_label
    explicit = evaluate_documents(gold, copy_document(gold), fields=["upos"])
    assert "las" not in explicit.scores


def test_evaluate_spans_report():
    gold = doc_of(sent("ab"))
    pred = doc_of(sent("ab"))
    report = evaluate_spans(gold, pred)
    assert report.scores == {"tokens": 1.0, "sentences": 1.0}


def test_format_report_styles():
    gold = doc_of(sent("a", upos=["NOUN"]))
    pred = doc_of(sent("a", upos=["VERB"]))
    report = evaluate_documents(gold, pred, fields=["upos"])
    table = format_report(report)
    assert "upos" in table
    assert "per-label accuracy" in table
    assert "n/a" in table  # VERB was predicted only
    kv = format_report(report, style="kv")
    assert "upos = 0.000000" in kv
    assert "upos:VERB = n/a" in kv
    with pytest.raises(ConfigurationError, match="unknown report style"):
        format_report(report, style="json")
