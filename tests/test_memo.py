"""The per-form decisions memoised on models and tokenizer rules.

A memo may change speed only: output is the same on a second call, on a
fresh pipeline, after a mutation of the lexicon or closed table it depends
on, and with the memo capped at a few entries.
"""

import dataclasses
import gc
import platform
import random
import weakref

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from slavpipe import memo
from slavpipe.conllu import Document, Sentence, Token, misc_value, serialize_document
from slavpipe.errors import DataError
from slavpipe.lemmatizer import (
    lemmatize_document,
    load_lemmatizer,
    save_lemmatizer,
    train_lemmatizer,
)
from slavpipe.lexicon import Lexicon
from slavpipe.pipeline import Pipeline, PipelineConfig, model_filename
from slavpipe.tagger import tag_document, train_tagger
from slavpipe.tokenizer import ClosedClassTable, TokenizerMode, default_rules, tokenize

from support import trap_entries

KINDS = ("tagger", "lemmatizer", "parser")
TASKS = ("tokenize", "morph", "lemma")
PARSE_TASKS = TASKS + ("depparse",)


@pytest.fixture(scope="module")
def lexicon_path(tmp_path_factory, vocab):
    path = tmp_path_factory.mktemp("lexicon") / "lexicon.tsv"
    lines = [f"{form}\t{lemma}\t{xpos}\t3" for form, lemma, xpos in vocab.all_entries()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _config(model_dir, lexicon_path, processing_type, tasks=TASKS):
    return PipelineConfig(
        language="sl",
        processing_type=processing_type,
        tasks=tasks,
        model_paths={k: model_dir / model_filename("sl", "standard", k) for k in KINDS},
        lexicon_path=lexicon_path,
    )


@pytest.fixture(scope="module")
def warm_pipelines(model_dir, lexicon_path):
    """One pipeline per tokenizer mode, reused (and so warmed) across examples."""
    return {
        ptype: Pipeline(_config(model_dir, lexicon_path, ptype))
        for ptype in ("standard", "nonstandard")
    }


def _annotated(pipe: Pipeline, text: str) -> str:
    try:
        return serialize_document(pipe.annotate(text))
    except DataError as exc:
        return f"data error: {exc}"


PIECES = (
    ":)", ":-D", ";(", "<3", "xD", "^^", "@ana", "#novo", "@", "#",
    "http://", "https://www.", "example.com/a?b=1", "www.", ".", ",", "!!",
    "?", "…", "\"", "»", "(", ")", "dr.", "1.", "3,5",
)
WORDS = st.text(
    alphabet="abcdeijklmnoprstuvzčšžćđAČŠŽ.,;:!?-'\"()/@#", min_size=1, max_size=8
)
TEXTS = st.lists(
    st.one_of(st.sampled_from(PIECES), WORDS, st.sampled_from((" ", "  ", "\n", "\t"))),
    max_size=30,
).map("".join)


@pytest.mark.parametrize("processing_type", ["standard", "nonstandard"])
@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(text=TEXTS)
def test_memoised_output_is_stable(
    warm_pipelines, model_dir, lexicon_path, processing_type, text
):
    warm = warm_pipelines[processing_type]
    first = _annotated(warm, text)
    assert _annotated(warm, text) == first
    fresh = Pipeline(_config(model_dir, lexicon_path, processing_type))
    assert _annotated(fresh, text) == first


@settings(max_examples=100, deadline=None)
@given(text=TEXTS)
def test_rules_shared_by_both_modes_split_as_fresh_rules(text):
    shared = default_rules("sl")
    for mode in (TokenizerMode.STANDARD, TokenizerMode.NONSTANDARD):
        got = serialize_document(tokenize(text, mode, shared))
        assert got == serialize_document(tokenize(text, mode, default_rules("sl")))


def _one_token(form: str) -> Document:
    return Document(sentences=[Sentence(comments=[], tokens=[Token(id=1, form=form)])])


def _tags(doc: Document) -> tuple:
    tok = doc.sentences[0].tokens[0]
    return (tok.upos, tok.xpos, tok.feats)


@pytest.fixture(scope="module")
def tagger_model(train_doc, dev_doc):
    return train_tagger(train_doc, dev_doc, language="sl")


def test_lexicon_add_drops_the_tagger_memo(tagger_model, vocab):
    taken = set(vocab.nouns + vocab.verbs + vocab.adjs)
    form, lemma, xpos = trap_entries(random.Random(56), 1, taken)[0]
    lex = Lexicon()
    before = tag_document(_one_token(form), tagger_model, lexicon=lex)
    assert _tags(before)[1].startswith("N")
    lex.add(form, lemma, xpos, 5)
    after = tag_document(_one_token(form), tagger_model, lexicon=lex)
    assert _tags(after)[:2] == ("VERB", "Vmpr3s")


def test_lexicon_add_admits_a_closed_class_tag(tagger_model):
    lex = Lexicon()
    before = tag_document(_one_token("na"), tagger_model, lexicon=lex)
    assert _tags(before)[1] != "Sl"  # the form is not listed as an adposition
    lex.add("na", "na", "Sl")
    after = tag_document(_one_token("na"), tagger_model, lexicon=lex)
    assert _tags(after)[:2] == ("ADP", "Sl")


def test_closed_table_add_takes_effect_at_once(tagger_model):
    table = ClosedClassTable()
    table.add_punctuation(".")
    before = tag_document(_one_token("ŋŋŋ"), tagger_model, closed_table=table)
    assert _tags(before)[0] not in ("PUNCT", "SYM")
    table.add_punctuation("ŋŋŋ")
    after = tag_document(_one_token("ŋŋŋ"), tagger_model, closed_table=table)
    assert _tags(after)[:2] == ("PUNCT", "Z")


# forms the training corpus tags as words, the one it tags PUNCT, and unseen
# forms whose suffix backoff or default triple (PUNCT here) decides them
CLOSED_CANDIDATES = ("na", "in", "naj", "tusesae", ".", ",", "€", "%", "-", "ŋŋŋ", "xyz")


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    sentences=st.lists(
        st.lists(st.sampled_from(CLOSED_CANDIDATES), min_size=1, max_size=8),
        min_size=1, max_size=3,
    ),
    listed=st.sets(st.sampled_from(CLOSED_CANDIDATES)),
    added=st.lists(st.tuples(st.sampled_from(CLOSED_CANDIDATES), st.booleans()), min_size=1),
    with_lexicon=st.booleans(),
)
def test_growing_a_closed_table_tags_as_a_cold_model_does(
    tagger_model, synthetic_lexicon, sentences, listed, added, with_lexicon
):
    doc = Document(sentences=[
        Sentence(comments=[], tokens=[Token(id=i, form=f) for i, f in enumerate(forms, 1)])
        for forms in sentences
    ])
    lexicon = synthetic_lexicon if with_lexicon else None
    table = ClosedClassTable()
    for form in sorted(listed):
        table.add_punctuation(form)
    tag_document(doc, tagger_model, lexicon=lexicon, closed_table=table)  # warm
    for form, symbol in added:  # forms decided above too
        (table.add_symbol if symbol else table.add_punctuation)(form)
    warm = tag_document(doc, tagger_model, lexicon=lexicon, closed_table=table)
    cold_model = dataclasses.replace(tagger_model)  # the same sections, no memo
    assert "_memo" not in vars(cold_model)
    cold = tag_document(doc, cold_model, lexicon=lexicon, closed_table=table)
    assert serialize_document(warm) == serialize_document(cold)


def test_tagger_memo_is_kept_per_closed_table(tagger_model):
    table = ClosedClassTable()
    table.add_punctuation(".")
    sieved = tag_document(_one_token("ŋŋŋ"), tagger_model, closed_table=table)
    assert _tags(sieved)[0] != "PUNCT"
    # without a table the default triple, PUNCT in this corpus, is allowed
    unsieved = tag_document(_one_token("ŋŋŋ"), tagger_model)
    assert _tags(unsieved)[0] == "PUNCT"


def test_a_replaced_lexicon_is_not_kept_by_the_memo(tagger_model):
    old = Lexicon()
    old.add("ŋŋŋ", "ŋŋŋ", "Ncmsn", 3)
    tag_document(_one_token("ŋŋŋ"), tagger_model, lexicon=old)
    gone = weakref.ref(old)
    del old
    tag_document(_one_token("ŋŋŋ"), tagger_model, lexicon=Lexicon())
    gc.collect()
    assert gone() is None


def test_attaching_a_lexicon_changes_the_lemma_tier(
    tmp_path, train_doc, synthetic_lexicon, vocab
):
    seen = {(t.form, t.xpos) for t in train_doc.single_tokens()}
    form, lemma, xpos = next(
        (f, l, x) for f, l, x in vocab.all_entries() if (f, x) not in seen
    )
    path = tmp_path / "bare.slm"
    save_lemmatizer(train_lemmatizer(train_doc), path)
    model = load_lemmatizer(path)
    doc = Document(
        sentences=[Sentence(comments=[], tokens=[Token(id=1, form=form, xpos=xpos)])]
    )

    def lemma_and_tier() -> tuple:
        tok = lemmatize_document(doc, model).sentences[0].tokens[0]
        return tok.lemma, misc_value(tok.misc, "Lemmatizer")

    assert lemma_and_tier()[1] in ("rule", "identity")
    model.lexicon = synthetic_lexicon
    assert lemma_and_tier() == (lemma, "lexicon")


def test_an_empty_scope_keeps_one_memo_and_replaces_a_scoped_one():
    class Owner:
        pass

    owner, lexicon = Owner(), Lexicon()
    scoped = memo.memo_table(owner, (lexicon,))
    empty = memo.memo_table(owner, ())
    assert empty is not scoped and memo.memo_table(owner, ()) is empty
    assert memo.memo_table(owner, (lexicon,)) is not empty


def test_the_same_scope_keeps_the_memo_and_any_change_replaces_it():
    class Owner:
        pass

    owner, lexicon, table = Owner(), Lexicon(), ClosedClassTable()
    held = memo.memo_table(owner, (lexicon, table))
    held["form"] = ("NOUN", "Ncmsn", None)
    assert memo.memo_table(owner, (lexicon, table)) is held  # a new tuple of the same objects
    lexicon.add("pes", "pes", "Ncmsn")  # bumps the version
    bumped = memo.memo_table(owner, (lexicon, table))
    assert bumped is not held and bumped == {}
    assert memo.memo_table(owner, (lexicon, table)) is bumped
    other_lexicon = Lexicon()  # equal to the first before its add, but another object
    other = memo.memo_table(owner, (other_lexicon, table))
    assert other is not bumped
    shorter = memo.memo_table(owner, (other_lexicon,))
    assert shorter is not other
    longer = memo.memo_table(owner, (other_lexicon, table))
    assert longer is not shorter
    assert memo.memo_table(owner, (other_lexicon, table)) is longer
    swapped = memo.memo_table(owner, (table, other_lexicon))  # the same objects, reordered
    assert swapped is not longer


def _memo_sizes(*owners) -> list[int]:
    return [len(vars(owner)["_memo"][2]) for owner in owners if "_memo" in vars(owner)]


def test_capped_memo_gives_the_same_output(
    monkeypatch, model_dir, lexicon_path, dev_doc, nonstandard_doc
):
    texts = [
        " ".join(t.form for t in sent.tokens)
        for sent in dev_doc.sentences + nonstandard_doc.sentences
    ]
    config = _config(model_dir, lexicon_path, "nonstandard", PARSE_TASKS)
    uncapped = Pipeline(config)
    expected = [_annotated(uncapped, t) for t in texts]
    assert max(_memo_sizes(uncapped.tagger, uncapped.lemmatizer, uncapped.rules)) > 4
    assert _memo_sizes(uncapped.parser)[0] > 4

    monkeypatch.setattr(memo, "CAP", 4)
    capped = Pipeline(config)
    for text, want in zip(texts, expected):
        assert _annotated(capped, text) == want
        sizes = _memo_sizes(capped.tagger, capped.lemmatizer, capped.rules, capped.parser)
        assert sizes and max(sizes) <= 4


@pytest.mark.skipif(
    platform.python_implementation() != "CPython",
    reason="untracking of atomic tuples is a CPython collector detail",
)
def test_parser_memo_entries_are_not_tracked_by_the_collector(
    model_dir, lexicon_path, dev_doc
):
    pipe = Pipeline(_config(model_dir, lexicon_path, "standard", PARSE_TASKS))
    for sent in dev_doc.sentences:
        pipe.annotate(" ".join(t.form for t in sent.tokens))
    # a pass stops tracking a tuple whose items are untracked when the pass
    # starts, so each pass untracks one more level of an entry's nesting
    for _ in range(4):
        gc.collect()
    entries = vars(pipe.parser)["_memo"][2].values()
    assert len(entries) > 20
    assert not [entry for entry in entries if gc.is_tracked(entry)]
