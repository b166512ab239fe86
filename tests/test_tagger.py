import dataclasses
import hashlib
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from slavpipe.conllu import (
    Document, Sentence, Token, parse_document, strip_annotations, validate_document,
)
from slavpipe.errors import ModelError, TrainingError
from slavpipe.lexicon import Lexicon
from slavpipe.tagger import (
    TaggerModel,
    _decide,
    load_tagger,
    save_tagger,
    tag_document,
    tag_in_place,
    train_tagger,
)
from slavpipe.tokenizer import ClosedClassTable, default_rules

from support import large_corpus_text, make_corpus, trap_entries, traced


@pytest.fixture(scope="module")
def model(train_doc, dev_doc):
    return train_tagger(train_doc, dev_doc, language="sl")


def one_token_doc(form, **kwargs):
    tok = Token(id=1, form=form, **kwargs)
    return Document(sentences=[Sentence(comments=[], tokens=[tok])])


def test_seen_forms_tagged_from_training(train_doc, model):
    tagged = tag_document(strip_annotations(train_doc), model)
    total = correct = 0
    for sg, sp in zip(train_doc.sentences, tagged.sentences):
        for g, p in zip(sg.single_tokens(), sp.single_tokens()):
            total += 1
            correct += (g.upos, g.xpos) == (p.upos, p.xpos)
    # every surface form is unambiguous in the synthetic vocabulary
    assert correct == total


def test_dev_accuracy_recorded(model):
    assert model.metadata.dev_accuracy is not None
    assert model.metadata.dev_accuracy > 0.95
    assert model.metadata.language == "sl"
    assert model.metadata.token_count > 0


def test_suffix_backoff_unseen_adjective(model):
    assert "qqina" not in model.form_probs
    tagged = tag_document(one_token_doc("qqina"), model)
    tok = tagged.sentences[0].tokens[0]
    assert (tok.upos, tok.xpos) == ("ADJ", "Agpfsn")


def test_suffix_backoff_prefers_longest_suffix(model):
    # "el" (verb past) must win over the shorter "l" even if other tags
    # share the one-letter suffix
    tagged = tag_document(one_token_doc("qqqel"), model)
    assert tagged.sentences[0].tokens[0].xpos == "Vmpp-sm"


def test_no_suffix_match_uses_default_triple(model):
    tagged = tag_document(one_token_doc("ŋŋŋ"), model)
    tok = tagged.sentences[0].tokens[0]
    assert (tok.upos, tok.xpos, tok.feats) == model.default_triple


def test_lexicon_constraint_redirects_trap_form(model, vocab):
    rng = random.Random(55)
    taken = set(vocab.nouns + vocab.verbs + vocab.adjs)
    form, lemma, xpos = trap_entries(rng, 1, taken)[0]
    lex = Lexicon()
    lex.add(form, lemma, xpos, 5)

    free = tag_document(one_token_doc(form), model)
    assert free.sentences[0].tokens[0].xpos.startswith("N")

    constrained = tag_document(one_token_doc(form), model, lexicon=lex)
    tok = constrained.sentences[0].tokens[0]
    assert tok.xpos == "Vmpr3s"
    assert tok.upos == "VERB"


def test_constraint_keeps_model_choice_when_allowed(model, synthetic_lexicon, train_doc):
    tagged = tag_document(
        strip_annotations(train_doc), model, lexicon=synthetic_lexicon
    )
    for sg, sp in zip(train_doc.sentences, tagged.sentences):
        for g, p in zip(sg.single_tokens(), sp.single_tokens()):
            assert p.xpos == g.xpos


def test_closed_class_soundness_sieve(model, synthetic_lexicon):
    # suffix backoff alone would give "birnaj" the particle tag of "naj";
    # the lexicon's closed-class inventory forbids that for unlisted forms
    tagged = tag_document(one_token_doc("birnaj"), model, lexicon=synthetic_lexicon)
    tok = tagged.sentences[0].tokens[0]
    assert not tok.xpos.startswith("Q")

    bare = tag_document(one_token_doc("birnaj"), model)
    assert bare.sentences[0].tokens[0].xpos.startswith("Q")


def test_closed_table_pins_punctuation(model):
    table = ClosedClassTable()
    table.add_punctuation(".")
    tagged = tag_document(one_token_doc("."), model, closed_table=table)
    tok = tagged.sentences[0].tokens[0]
    assert (tok.upos, tok.xpos, tok.lemma) == ("PUNCT", "Z", ".")


def test_tag_in_place_fixes_the_tokens_the_document_holds(model):
    table = ClosedClassTable()
    table.add_punctuation(".")
    doc = Document(sentences=[Sentence(
        comments=[], tokens=[Token(id=1, form="ŋŋŋ", misc="SpaceAfter=No"), Token(id=2, form=".")]
    )])
    held = doc.single_tokens()
    tag_in_place(doc, model, closed_table=table)
    assert all(mine is its for mine, its in zip(held, doc.single_tokens(), strict=True))
    word, dot = held
    assert word.upos not in (None, "PUNCT", "SYM")
    assert (dot.upos, dot.xpos, dot.lemma, dot.misc) == ("PUNCT", "Z", ".", "ClosedClass=Yes")


def test_closed_table_blocks_punct_for_words(model):
    table = ClosedClassTable()
    table.add_punctuation(".")
    doc = one_token_doc("ŋŋŋ")
    tagged = tag_document(doc, model, closed_table=table)
    # the default triple is PUNCT-tagged in this corpus, so the sieve must
    # steer the unknown form elsewhere
    assert tagged.sentences[0].tokens[0].upos not in ("PUNCT", "SYM")


@pytest.mark.parametrize("misc, fixed", [
    ("ClosedClass=Yes", True),  # the tokenizer's marks, known whole
    ("SpaceAfter=No|ClosedClass=Yes", True),
    ("X=1|ClosedClass=Yes", True),  # any other misc is parsed
    ("ClosedClass=Yes|SpaceAfter=No", True),
    ("ClosedClass=No", False),
    ("SpaceAfter=No|ClosedClass=No", False),
    ("XClosedClass=Yes", False),
])
def test_a_token_is_fixed_by_its_closed_class_mark_alone(model, misc, fixed):
    doc = one_token_doc("ŋŋŋ", upos="SYM", xpos="Y", misc=misc)
    tag_in_place(doc, model)
    tok = doc.sentences[0].tokens[0]
    assert ((tok.upos, tok.xpos) == ("SYM", "Y")) is fixed
    assert tok.misc == misc


def test_fixed_tokens_keep_their_tags(model):
    doc = one_token_doc(
        ".", upos="PUNCT", xpos="Z", lemma=".", misc="ClosedClass=Yes"
    )
    tagged = tag_document(doc, model)
    tok = tagged.sentences[0].tokens[0]
    assert (tok.upos, tok.xpos) == ("PUNCT", "Z")


def test_input_document_not_mutated(model, dev_doc):
    bare = strip_annotations(dev_doc)
    tag_document(bare, model)
    assert all(t.upos is None for s in bare.sentences for t in s.tokens)


def test_language_mismatch_rejected(model, dev_doc):
    with pytest.raises(ModelError, match="trained for language 'sl'"):
        tag_document(strip_annotations(dev_doc), model, language="hr")


def test_training_needs_annotations():
    doc = one_token_doc("beseda")
    with pytest.raises(TrainingError, match="no annotated tokens"):
        train_tagger(doc, Document())


def test_feats_ending_in_a_bar_train_a_model_that_loads_and_validates(tmp_path):
    doc = one_token_doc("pes", upos="NOUN", xpos="Ncmsn", feats="Case=Nom|")
    model = train_tagger(doc, doc)
    assert model.triples == [("NOUN", "Ncmsn", "Case=Nom")]
    assert model.metadata.dev_accuracy == 1.0
    path = tmp_path / "tagger.slm"
    save_tagger(model, path)
    tagged = tag_document(one_token_doc("pes"), load_tagger(path))
    assert tagged.sentences[0].tokens[0].feats == "Case=Nom"
    assert validate_document(tagged) == []


def test_single_class_training_degenerates():
    doc = Document()
    for i in range(3):
        tok = Token(id=1, form=f"w{i}", upos="NOUN", xpos="Ncfsn")
        doc.sentences.append(Sentence(comments=[], tokens=[tok]))
    model = train_tagger(doc, Document())
    assert model.metadata.dev_accuracy is None
    tagged = tag_document(one_token_doc("anything"), model)
    assert tagged.sentences[0].tokens[0].xpos == "Ncfsn"


def test_save_load_tags_identically(tmp_path, model, dev_doc):
    path = tmp_path / "tagger.slm"
    save_tagger(model, path)
    again = load_tagger(path)
    assert again.metadata.dev_accuracy == model.metadata.dev_accuracy
    bare = strip_annotations(dev_doc)
    a = tag_document(bare, model)
    b = tag_document(bare, again)
    for sa, sb in zip(a.sentences, b.sentences):
        for ta, tb in zip(sa.tokens, sb.tokens):
            assert (ta.upos, ta.xpos, ta.feats) == (tb.upos, tb.xpos, tb.feats)


# sha256 of the archive of the conftest tagger (train_doc, scored on dev_doc)
ARCHIVE_SHA256 = "133ade8bfb40f5a136108ddb6b31cf6d5c74a893b6f3b697099f366f25c3a80d"


def test_golden_archive(tmp_path, model):
    path = tmp_path / "tagger.slm"
    save_tagger(model, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == ARCHIVE_SHA256


def test_a_loaded_tagger_holds_each_distinct_triple_once(tmp_path, model):
    # a second tag with the (upos, feats) pair of Z
    saved = dataclasses.replace(model, xpos_best={**model.xpos_best, "Zq": model.xpos_best["Z"]})
    path = tmp_path / "tagger.slm"
    save_tagger(saved, path)
    again = load_tagger(path)
    triples = [
        *(t for table in (again.form_probs, again.suffix_counts) for slot in table.values()
          for t in slot),
        *again.triples,
        again.default_triple,
    ]
    pairs = list(again.xpos_best.values())
    assert len(set(triples)) < len(triples) and len(set(pairs)) < len(pairs)
    for values in (triples, pairs):
        assert len(set(map(id, values))) == len(set(values))
    assert again.form_probs == saved.form_probs and again.xpos_best == saved.xpos_best


def test_load_rejects_other_kind(tmp_path, model):
    from slavpipe.modelio import write_archive

    path = tmp_path / "x.slm"
    write_archive(path, "parser", {}, {})
    with pytest.raises(ModelError, match="expected 'tagger'"):
        load_tagger(path)


def test_ranked_candidates_rank_preserving(model, vocab):
    # the highest-probability triple for a seen form is chosen
    form = vocab.noun(vocab.nouns[0], "nom")[0]
    probs = model.form_probs[form]
    best = max(probs.items(), key=lambda kv: kv[1])[0]
    tagged = tag_document(one_token_doc(form), model)
    tok = tagged.sentences[0].tokens[0]
    assert (tok.upos, tok.xpos, tok.feats) == best


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_decide_with_warm_suffix_ranks_is_the_decision_of_a_cold_model(
    model, synthetic_lexicon, data
):
    suffixes = st.sampled_from(sorted(model.suffix_counts))
    forms = data.draw(st.lists(
        st.tuples(st.text("aeikmnorsvz", max_size=4), st.one_of(st.just(""), suffixes))
        .map("".join), min_size=1, max_size=8))
    closed = default_rules("sl").closed_class
    for lexicon, table in ((None, None), (synthetic_lexicon, closed)):
        for form in forms:
            cold = dataclasses.replace(model)  # no suffix ranking yet
            assert "_suffix_ranks" not in vars(cold)
            assert _decide(model, form, lexicon, table) == _decide(cold, form, lexicon, table)
    ranks = vars(model).get("_suffix_ranks", {})
    assert set(ranks) <= set(model.suffix_counts)
    assert all(type(r) is tuple and len(r) == len(set(r)) == len(model.suffix_counts[k])
               and set(r) == set(model.suffix_counts[k]) for k, r in ranks.items())


MINIMAL_SECTIONS = {
    "form_probs": {"hiša": [["NOUN", "Ncfsn", "Case=Nom", 1.0]]},
    "suffix_counts": {"a": [["NOUN", "Ncfsn", "Case=Nom", 1]]},
    "xpos_best": {"Ncfsn": ["NOUN", "Case=Nom"]},
    "triples": [["NOUN", "Ncfsn", "Case=Nom"]],
    "default_triple": ["NOUN", "Ncfsn", None],
}


@pytest.mark.parametrize(
    "section, value",
    [
        pytest.param("default_triple", ["X"], id="default-short"),
        pytest.param("default_triple", "NAX", id="default-string"),
        pytest.param("default_triple", ["X", 1, None], id="default-number"),
        pytest.param("form_probs", {"hiša": [["NOUN", "Ncfsn", None, "high"]]}, id="prob-string"),
        pytest.param("form_probs", {"hiša": [["NOUN", "Ncfsn", None, True]]}, id="prob-bool"),
        pytest.param("form_probs", {"hiša": [["NOUN", "Ncfsn", 1.0]]}, id="row-short"),
        pytest.param("form_probs", {"hiša": [[None, "Ncfsn", None, 1.0]]}, id="upos-null"),
        pytest.param("form_probs", {"hiša": [["NOUN", "Ncfsn", 7, 1.0]]}, id="feats-number"),
        pytest.param("form_probs", [["hiša", []]], id="probs-list"),
        pytest.param("suffix_counts", {"a": [["NOUN", "Ncfsn", None, None]]}, id="count-null"),
        pytest.param("suffix_counts", {"a": "NOUN"}, id="rows-string"),
        pytest.param("xpos_best", {"Ncfsn": ["NOUN"]}, id="best-short"),
        pytest.param("xpos_best", {"Ncfsn": [1, None]}, id="best-number"),
        pytest.param("triples", [["NOUN", "Ncfsn"]], id="triple-short"),
        pytest.param("form_probs", {"hiša": [["NOUN", "Ncfsn", ["Case=Nom"], 1.0]]},
                     id="feats-list"),
        # feats that are not their own canonical_feats
        pytest.param("form_probs", {"hiša": [["NOUN", "Ncfsn", "Case=Nom|", 1.0]]},
                     id="feats-trailing-bar"),
        pytest.param("suffix_counts", {"a": [["NOUN", "Ncfsn", "Number=Sing|Case=Nom", 1]]},
                     id="feats-unsorted"),
        pytest.param("xpos_best", {"Ncfsn": ["NOUN", "=x|Case=Nom"]}, id="best-feats-empty-key"),
        pytest.param("triples", [["NOUN", "Ncfsn", "Case=Nom|Case=Acc"]], id="triple-feats-repeated"),
        pytest.param("default_triple", ["NOUN", "Ncfsn", ""], id="default-feats-empty"),
        # strings that would break a CoNLL-U column
        pytest.param("form_probs", {"hiša": [["NOUN", "N\tcfsn", "Case=Nom", 1.0]]},
                     id="xpos-tab"),
        pytest.param("suffix_counts", {"a": [["NO\nUN", "Ncfsn", None, 1]]}, id="upos-lf"),
        pytest.param("xpos_best", {"Ncfsn\r": ["NOUN", None]}, id="best-xpos-cr"),
        pytest.param("triples", [["NOUN", "Ncfsn", "Case=N\tom"]], id="triple-canonical-feats-tab"),
        pytest.param("default_triple", ["NOUN", "Ncfsn\n", None], id="default-xpos-lf"),
    ],
)
def test_malformed_archive_refused_at_load(tmp_path, section, value):
    from slavpipe.modelio import write_archive

    path = tmp_path / "tagger.slm"
    write_archive(path, "tagger", {}, MINIMAL_SECTIONS)
    assert load_tagger(path).default_triple == ("NOUN", "Ncfsn", None)
    write_archive(path, "tagger", {}, {**MINIMAL_SECTIONS, section: value})
    with pytest.raises(ModelError, match="malformed tagger model"):
        load_tagger(path)


# --- the decision for one form ---------------------------------------------

NOUN = ("NOUN", "Ncmsn", "Case=Nom")
ADJ = ("ADJ", "Agpmsn", None)
VERB = ("VERB", "Vmr3s", None)
PRON = ("PRON", "Pq-msn", None)
PUNCT = ("PUNCT", "Z", None)


def tiny_tagger(ranked, default_triple=NOUN):
    """A model that ranks ``ranked`` in order for the form "kaj"."""
    n = len(ranked)
    return TaggerModel(
        form_probs={"kaj": {t: (n - i) / n for i, t in enumerate(ranked)}},
        xpos_best={"Ncmsn": ("NOUN", "Case=Nom")},
        triples=sorted({*ranked, default_triple}, key=lambda t: (*t[:2], t[2] or "")),
        default_triple=default_triple,
    )


def listing(*xpos):
    """A lexicon listing "kaj" under ``xpos``, the first tag the most frequent."""
    lex = Lexicon()
    for rank, tag in enumerate(xpos):
        lex.add("kaj", "kaj", tag, len(xpos) - rank)
    return lex


# Expected triples were produced by the eager decision (every candidate
# checked before choosing) that the first-passing search replaced.
@pytest.mark.parametrize(
    "ranked, default_triple, xpos, expected",
    [
        # "kaj" is not listed as a pronoun, so the closed class vetoes the top
        pytest.param([PRON, ADJ, VERB], NOUN, [], ADJ, id="top-vetoed-unlisted"),
        # the closed table vetoes PUNCT for a word, although the lexicon allows Z
        pytest.param([PUNCT, ADJ, VERB], NOUN, ["Z", "Agpmsn"], ADJ, id="top-vetoed-listed"),
        pytest.param([ADJ, PUNCT, VERB], NOUN, ["Vmr3s"], VERB, id="lower-ranked-allowed"),
        pytest.param([ADJ, VERB], NOUN, ["Ncmsn", "Vmr3s"], VERB, id="allowed-by-rank"),
        pytest.param([ADJ, VERB], NOUN, ["Ncmsn"], NOUN, id="lexicon-tag"),
        pytest.param([ADJ, VERB], NOUN, ["Rgp"], ("ADV", "Rgp", None), id="lexicon-tag-unseen"),
        pytest.param([ADJ, VERB], NOUN, ["Css"], ("SCONJ", "Css", None), id="lexicon-tag-cs"),
        pytest.param([PUNCT, ADJ, VERB], NOUN, ["Z"], ADJ, id="lexicon-tag-vetoed"),
        pytest.param([PUNCT, PRON], NOUN, ["Z"], NOUN, id="all-vetoed-default"),
        pytest.param([PUNCT, PRON], PUNCT, ["Z"], ("X", "X", None), id="all-vetoed-x"),
        pytest.param([PUNCT], PRON, [], ("X", "X", None), id="unlisted-all-vetoed-x"),
    ],
)
def test_decide_takes_the_first_sound_candidate(ranked, default_triple, xpos, expected):
    table = ClosedClassTable()
    table.add_punctuation(".")
    model = tiny_tagger(ranked, default_triple)
    assert _decide(model, "kaj", listing(*xpos), table) == expected


def test_save_tagger_peaks_under_three_times_the_archive(tmp_path):
    # encoding each section whole peaked at 6.6-11 times the archive on 3.10-3.13
    model = train_tagger(parse_document(large_corpus_text()), Document())
    path = tmp_path / "tagger.slm"
    _, _, peak = traced(lambda: save_tagger(model, path))
    size = path.stat().st_size
    assert size > 500_000
    assert peak < 3 * size
    assert load_tagger(path) == model
