import hashlib
import shutil

import pytest

from slavpipe.conllu import (
    Document,
    copy_document,
    document_text,
    serialize_document,
    strip_annotations,
)
from slavpipe.errors import ConfigurationError, ModelError
from slavpipe.pipeline import (
    LANGUAGES,
    PIPELINE_TASKS,
    PROCESSING_TYPES,
    Pipeline,
    PipelineConfig,
    available_tasks,
    model_filename,
    resolve_components,
    stage_variants,
    task_available,
    train_stage_lemmatizer,
    train_stage_parser,
    train_stage_tagger,
)

# Availability of the six tasks per language and variety, restated row by
# row so a regression in the module table cannot hide.
MATRIX = {
    ("sl", "standard"): {"tokenize", "morph", "lemma", "depparse", "ner", "srl"},
    ("sl", "nonstandard"): {"tokenize", "morph", "lemma", "ner"},
    ("hr", "standard"): {"tokenize", "morph", "lemma", "depparse", "ner"},
    ("hr", "nonstandard"): {"tokenize", "morph", "lemma", "ner"},
    ("sr", "standard"): {"tokenize", "morph", "lemma", "depparse", "ner"},
    ("sr", "nonstandard"): {"tokenize", "morph", "lemma", "ner"},
    ("bg", "standard"): {"tokenize", "morph", "lemma", "depparse", "ner"},
    ("bg", "nonstandard"): set(),
    ("mk", "standard"): {"tokenize", "morph", "lemma"},
    ("mk", "nonstandard"): set(),
}

ALL_TASKS = ("tokenize", "morph", "lemma", "depparse", "ner", "srl")


def test_availability_matrix_cell_by_cell():
    assert set(LANGUAGES) == {"bg", "hr", "mk", "sl", "sr"}
    for (language, variety), expected in MATRIX.items():
        for task in ALL_TASKS:
            assert task_available(language, variety, task) == (task in expected), (
                language, variety, task,
            )


def test_matrix_lookup_validates_arguments():
    with pytest.raises(ConfigurationError, match="unknown task 'parse'"):
        task_available("sl", "standard", "parse")
    with pytest.raises(ConfigurationError, match="unknown variety 'spoken'"):
        task_available("sl", "spoken", "morph")
    with pytest.raises(ConfigurationError, match="unknown language 'cs'"):
        task_available("cs", "standard", "morph")


def test_stage_routing_per_processing_type():
    assert stage_variants("standard") == {
        "tokenize": "standard", "morph": "standard",
        "lemma": "standard", "depparse": "standard",
    }
    assert stage_variants("nonstandard") == {
        "tokenize": "nonstandard", "morph": "nonstandard",
        "lemma": "nonstandard", "depparse": "standard",
    }
    assert stage_variants("web") == {
        "tokenize": "standard", "morph": "nonstandard",
        "lemma": "nonstandard", "depparse": "standard",
    }
    with pytest.raises(ConfigurationError, match="unknown processing type"):
        stage_variants("formal")


def test_available_tasks_follow_routing():
    assert available_tasks("sl", "standard") == PIPELINE_TASKS
    # parsing is still offered for the nonstandard type because it routes to
    # the standard parser
    assert available_tasks("sl", "nonstandard") == PIPELINE_TASKS
    assert available_tasks("hr", "web") == PIPELINE_TASKS
    assert available_tasks("mk", "standard") == ("tokenize", "morph", "lemma")


def test_languages_without_nonstandard_models_refuse_those_types():
    for language in ("bg", "mk"):
        for ptype in ("nonstandard", "web"):
            with pytest.raises(ConfigurationError, match="no nonstandard processing"):
                available_tasks(language, ptype)
            with pytest.raises(ConfigurationError, match="no nonstandard processing"):
                resolve_components(PipelineConfig(language=language, processing_type=ptype))


def test_resolve_components_maps_tasks_to_varieties():
    config = PipelineConfig(language="sl", processing_type="web")
    assert resolve_components(config) == {
        "tokenize": "standard",
        "morph": "nonstandard",
        "lemma": "nonstandard",
        "depparse": "standard",
    }


def test_resolve_components_refuses_tasks_without_models():
    for task in ("ner", "srl"):
        config = PipelineConfig(language="sl", tasks=(task,))
        with pytest.raises(ConfigurationError, match="provides no models"):
            resolve_components(config)


def test_resolve_components_refuses_unavailable_cells():
    config = PipelineConfig(language="mk", tasks=("depparse",))
    with pytest.raises(
        ConfigurationError,
        match="task 'depparse' is not available for language 'mk' in the 'standard'",
    ):
        resolve_components(config)


def test_resolved_tasks_normalization():
    config = PipelineConfig(language="sl", tasks=("lemma", "tokenize", "lemma"))
    assert config.resolved_tasks() == ("tokenize", "lemma")
    with pytest.raises(ConfigurationError, match="unknown task"):
        PipelineConfig(language="sl", tasks=("tag",)).resolved_tasks()
    with pytest.raises(ConfigurationError, match="task list is empty"):
        PipelineConfig(language="sl", tasks=()).resolved_tasks()


def test_every_language_type_combination_resolves_or_refuses():
    for language in LANGUAGES:
        for ptype in PROCESSING_TYPES:
            config = PipelineConfig(language=language, processing_type=ptype)
            try:
                components = resolve_components(config)
            except ConfigurationError:
                assert (language, ptype) in {
                    ("bg", "nonstandard"), ("bg", "web"),
                    ("mk", "nonstandard"), ("mk", "web"),
                }
            else:
                assert set(components) == set(available_tasks(language, ptype))


# --- running the pipeline ---------------------------------------------------


@pytest.fixture
def lexicon_file(tmp_path, vocab):
    path = tmp_path / "lexicon.tsv"
    lines = [f"{form}\t{lemma}\t{xpos}\t3" for form, lemma, xpos in vocab.all_entries()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def full_config(model_dir, lexicon_file):
    return PipelineConfig(
        language="sl", model_dir=model_dir, lexicon_path=lexicon_file
    )


def test_annotate_raw_text_end_to_end(full_config, vocab):
    pipe = Pipeline(full_config)
    noun = vocab.noun(vocab.nouns[0], "nom")
    verb = vocab.verb(vocab.verbs[0], "pres")
    obj = vocab.noun(vocab.nouns[1], "acc")
    text = f"{noun[0]} {verb[0]} {obj[0]}."
    doc = pipe.annotate(text)
    assert len(doc.sentences) == 1
    tokens = doc.sentences[0].single_tokens()
    assert [t.form for t in tokens] == [noun[0], verb[0], obj[0], "."]
    for tok in tokens:
        assert tok.upos is not None
        assert tok.lemma is not None
        assert tok.head is not None and tok.deprel is not None
    assert tokens[0].lemma == noun[3]
    assert tokens[1].upos == "VERB"
    assert tokens[3].upos == "PUNCT"


def test_annotate_document_keeps_segmentation(full_config, dev_doc):
    pipe = Pipeline(full_config)
    bare = strip_annotations(dev_doc)
    out = pipe.annotate(bare)
    assert [t.form for s in out.sentences for t in s.tokens] == [
        t.form for s in bare.sentences for t in s.tokens
    ]
    assert all(t.head is not None for s in out.sentences for t in s.single_tokens())
    # the input document is left untouched
    assert all(t.upos is None for s in bare.sentences for t in s.tokens)


def test_annotate_without_parser(model_dir, lexicon_file, vocab):
    config = PipelineConfig(
        language="sl",
        tasks=("tokenize", "morph", "lemma"),
        model_dir=model_dir,
        lexicon_path=lexicon_file,
    )
    pipe = Pipeline(config)
    form = vocab.noun(vocab.nouns[2], "nom")[0]
    doc = pipe.annotate(f"{form}.")
    tok = doc.sentences[0].tokens[0]
    assert tok.upos == "NOUN"
    assert tok.head is None


def test_raw_text_needs_tokenize_task(model_dir):
    config = PipelineConfig(language="sl", tasks=("morph",), model_dir=model_dir)
    pipe = Pipeline(config)
    with pytest.raises(ConfigurationError, match="needs the tokenize task"):
        pipe.annotate("nekaj besedila.")


def test_tokenize_only_pipeline_needs_no_models(vocab):
    config = PipelineConfig(language="sl", tasks=("tokenize",))
    pipe = Pipeline(config)
    doc = pipe.annotate("Ena beseda.")
    assert [t.form for t in doc.sentences[0].tokens] == ["Ena", "beseda", "."]


def test_missing_model_file(model_dir):
    config = PipelineConfig(
        language="sl", processing_type="nonstandard", model_dir=model_dir,
        tasks=("morph",),
    )
    with pytest.raises(ModelError, match="sl_nonstandard_tagger.slm does not exist"):
        Pipeline(config)


def test_model_dir_required_without_explicit_paths():
    config = PipelineConfig(language="sl", tasks=("morph",))
    with pytest.raises(ConfigurationError, match="needs a tagger model"):
        Pipeline(config)


def test_model_path_override(tmp_path, model_dir, vocab):
    moved = tmp_path / "renamed-tagger.bin"
    shutil.copy(model_dir / model_filename("sl", "standard", "tagger"), moved)
    config = PipelineConfig(
        language="sl", tasks=("tokenize", "morph"), model_paths={"tagger": moved}
    )
    pipe = Pipeline(config)
    form = vocab.verb(vocab.verbs[1], "pres")[0]
    doc = pipe.annotate(f"{form}.")
    assert doc.sentences[0].tokens[0].upos == "VERB"


def test_constraint_flag_requires_lexicon(model_dir):
    config = PipelineConfig(
        language="sl",
        tasks=("tokenize", "morph"),
        model_dir=model_dir,
        tagger_lexicon_constraint=True,
    )
    with pytest.raises(ConfigurationError, match="no lexicon configured"):
        Pipeline(config)


def test_constraint_defaults_to_lexicon_presence(model_dir, lexicon_file):
    with_lex = Pipeline(
        PipelineConfig(
            language="sl", tasks=("tokenize", "morph"),
            model_dir=model_dir, lexicon_path=lexicon_file,
        )
    )
    assert with_lex._tagger_lexicon is not None
    without = Pipeline(
        PipelineConfig(language="sl", tasks=("tokenize", "morph"), model_dir=model_dir)
    )
    assert without._tagger_lexicon is None
    off = Pipeline(
        PipelineConfig(
            language="sl", tasks=("tokenize", "morph"),
            model_dir=model_dir, lexicon_path=lexicon_file,
            tagger_lexicon_constraint=False,
        )
    )
    assert off._tagger_lexicon is None
    assert off.lexicon is not None


def test_pipeline_lexicon_backfills_lemmatizer(tmp_path, train_doc, lexicon_file, model_dir):
    from slavpipe.lemmatizer import save_lemmatizer, train_lemmatizer

    bare_dir = tmp_path / "models"
    bare_dir.mkdir()
    model = train_lemmatizer(train_doc, language="sl")  # nothing embedded
    save_lemmatizer(model, bare_dir / model_filename("sl", "standard", "lemmatizer"))
    shutil.copy(
        model_dir / model_filename("sl", "standard", "tagger"),
        bare_dir / model_filename("sl", "standard", "tagger"),
    )
    pipe = Pipeline(
        PipelineConfig(
            language="sl", tasks=("tokenize", "morph", "lemma"),
            model_dir=bare_dir, lexicon_path=lexicon_file,
        )
    )
    assert pipe.lemmatizer.lexicon is not None


def test_language_mismatch_surfaces_at_annotate(model_dir, vocab):
    config = PipelineConfig(
        language="hr",
        tasks=("tokenize", "morph"),
        model_paths={"tagger": model_dir / model_filename("sl", "standard", "tagger")},
    )
    pipe = Pipeline(config)
    with pytest.raises(ModelError, match="trained for language 'sl'"):
        pipe.annotate("nešto.")


# --- training workflows -----------------------------------------------------


def test_train_stage_tagger(train_doc, dev_doc, synthetic_lexicon):
    model, filled, accuracy = train_stage_tagger(
        train_doc, dev_doc, language="sl", lexicon=synthetic_lexicon
    )
    assert accuracy == model.metadata.dev_accuracy
    assert accuracy > 0.95
    assert all(t.upos is not None for s in filled.sentences for t in s.single_tokens())


def test_train_stage_lemmatizer(train_doc, dev_doc, synthetic_lexicon):
    _, filled, accuracy = train_stage_lemmatizer(
        train_doc, dev_doc, language="sl", lexicon=synthetic_lexicon
    )
    assert accuracy is not None and accuracy > 0.95
    assert all(t.lemma is not None for s in filled.sentences for t in s.single_tokens())


def test_train_stage_lemmatizer_without_gold_lemmas(train_doc, dev_doc):
    stripped = copy_document(dev_doc)
    for tok in stripped.single_tokens():
        tok.lemma = None
    _, filled, accuracy = train_stage_lemmatizer(train_doc, stripped, language="sl")
    assert accuracy is None
    assert all(t.lemma is not None for s in filled.sentences for t in s.single_tokens())


def test_train_stage_parser(train_doc, dev_doc):
    model, filled, las = train_stage_parser(
        train_doc, dev_doc, language="sl", epochs=5
    )
    assert las is not None and las > 0.9
    assert all(
        t.head is not None and t.deprel is not None
        for s in filled.sentences
        for t in s.single_tokens()
    )
    # gold arcs in dev were not consulted while filling
    assert model.metadata.epochs == 5


# --- golden output ------------------------------------------------------------
#
# sha256 of the serialized annotation, computed before the stages learned to
# annotate in place; any change of a boundary, tag, lemma, arc or misc entry
# moves them.

GOLDEN_TEXT_SHA256 = {
    "standard": "bc61535db130681661f84ea5151443aa653975f55185ea6858cc5bf395473fdd",
    "nonstandard": "bfd075141dbc7080ef93f63bfca7c4048492f035530e16af5a7cac06dca31b5c",
    # web tokenizes like standard, and the models here are the same
    "web": "bc61535db130681661f84ea5151443aa653975f55185ea6858cc5bf395473fdd",
}
GOLDEN_DOCUMENT_SHA256 = "77aae43543a91081ad9afdfdcbf99a4d790a20c71c1bb1b5fcb8df13357fafe9"


def _golden_pipeline(model_dir, lexicon_file, processing_type):
    kinds = ("tagger", "lemmatizer", "parser")
    return Pipeline(
        PipelineConfig(
            language="sl",
            processing_type=processing_type,
            model_paths={
                kind: model_dir / model_filename("sl", "standard", kind) for kind in kinds
            },
            lexicon_path=lexicon_file,
        )
    )


def _sha256(doc) -> str:
    return hashlib.sha256(serialize_document(doc).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("processing_type", PROCESSING_TYPES)
def test_golden_annotate_text(
    processing_type, model_dir, lexicon_file, dev_doc, nonstandard_doc,
    reported_speech_text,
):
    text = " ".join((
        document_text(dev_doc),
        reported_speech_text.strip(),
        document_text(nonstandard_doc),
        "Super :) hvala:-D www.example.com/a, <3 @ana #novo!!",
    ))
    pipe = _golden_pipeline(model_dir, lexicon_file, processing_type)
    assert _sha256(pipe.annotate(text)) == GOLDEN_TEXT_SHA256[processing_type]


def test_golden_annotate_document(model_dir, lexicon_file, dev_doc):
    pipe = _golden_pipeline(model_dir, lexicon_file, "standard")
    assert _sha256(pipe.annotate(strip_annotations(dev_doc))) == GOLDEN_DOCUMENT_SHA256


def test_in_place_stages_match_their_copying_wrappers(model_dir, dev_doc):
    from slavpipe.depparse import load_parser, parse_dependency, parse_in_place
    from slavpipe.lemmatizer import lemmatize_document, lemmatize_in_place, load_lemmatizer
    from slavpipe.tagger import load_tagger, tag_document, tag_in_place

    def model(kind, load):
        return load(model_dir / model_filename("sl", "standard", kind))

    doc = strip_annotations(dev_doc)
    stages = (
        (tag_document, tag_in_place, model("tagger", load_tagger)),
        (lemmatize_document, lemmatize_in_place, model("lemmatizer", load_lemmatizer)),
        (parse_dependency, parse_in_place, model("parser", load_parser)),
    )
    for copying, in_place, stage_model in stages:
        expected = serialize_document(copying(doc, stage_model, language="sl"))
        assert in_place(doc, stage_model, language="sl") is None
        assert serialize_document(doc) == expected


def _half_cleared(doc, *fields):
    """A copy of ``doc`` with ``fields`` removed from every other token."""
    gold = copy_document(doc)
    for tok in gold.single_tokens()[::2]:
        for name in fields:
            setattr(tok, name, None)
    return gold


def test_dev_scores_skip_unannotated_gold(train_doc, dev_doc):
    lemma_gold = _half_cleared(dev_doc, "lemma")
    arc_gold = _half_cleared(dev_doc, "head", "deprel")
    # a small training set leaves errors for the scores to count
    small = Document(sentences=train_doc.sentences[:2])
    _, _, lemma_acc = train_stage_lemmatizer(small, lemma_gold, language="sl")
    _, _, las = train_stage_parser(small, arc_gold, language="sl", epochs=2)
    # 65 of the 130 dev tokens keep their gold lemma, 65 their gold arc
    assert (lemma_acc, las) == (64 / 65, 45 / 65)
