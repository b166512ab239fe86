import dataclasses
import hashlib
import shutil

import pytest
from hypothesis import given, settings, strategies as st

from slavpipe import pipeline
from slavpipe.conllu import (
    Document,
    copy_document,
    misc_value,
    parse_document,
    serialize_document,
    serialize_sentence,
    strip_annotations,
    text_layout,
    validate_document,
)
from slavpipe.depparse import validate_tree
from slavpipe.errors import ConfigurationError, DataError, ModelError, StageError
from slavpipe.evaluate import arc, las_counts, micro_counts
from slavpipe.lexicon import Lexicon
from slavpipe.pipeline import (
    _AVAILABLE,
    LANGUAGES,
    PIPELINE_TASKS,
    PROCESSING_TYPES,
    Pipeline,
    PipelineConfig,
    model_filename,
    resolve_components,
    stage_variants,
    task_available,
    train_stage_lemmatizer,
    train_stage_parser,
    train_stage_tagger,
)

from support import FUZZ_PIECES, lexicon_tsv, renumbered, without_blank_lines

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


def available(language, ptype):
    return tuple(resolve_components(PipelineConfig(language=language, processing_type=ptype)))


def test_available_tasks_follow_routing():
    assert available("sl", "standard") == PIPELINE_TASKS
    # parsing is still offered for the nonstandard type because it routes to
    # the standard parser
    assert available("sl", "nonstandard") == PIPELINE_TASKS
    assert available("hr", "web") == PIPELINE_TASKS
    assert available("mk", "standard") == ("tokenize", "morph", "lemma")


def test_every_language_and_type_has_a_default_task_list():
    # why resolve_components needs no "no tasks are available" error: every
    # non-empty row holds tokenize, and every language has a non-empty
    # standard row, which serves tokenize for the standard and web types
    for (language, variety), row in _AVAILABLE.items():
        assert not row or "tokenize" in row, (language, variety)
    for language in LANGUAGES:
        assert _AVAILABLE[(language, "standard")]
    for language in LANGUAGES:
        for ptype in PROCESSING_TYPES:
            try:
                tasks = available(language, ptype)
            except ConfigurationError as exc:
                assert "no nonstandard processing" in str(exc)
            else:
                assert tasks[0] == "tokenize"


def test_languages_without_nonstandard_models_refuse_those_types():
    for language in ("bg", "mk"):
        for ptype in ("nonstandard", "web"):
            with pytest.raises(ConfigurationError, match="no nonstandard processing"):
                available(language, ptype)
            with pytest.raises(ConfigurationError, match="no nonstandard processing"):
                resolve_components(
                    PipelineConfig(language=language, processing_type=ptype, tasks=("tokenize",))
                )


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
    assert tuple(resolve_components(config)) == ("tokenize", "lemma")
    with pytest.raises(ConfigurationError, match="unknown task"):
        resolve_components(PipelineConfig(language="sl", tasks=("tag",)))
    with pytest.raises(ConfigurationError, match="task list is empty"):
        resolve_components(PipelineConfig(language="sl", tasks=()))


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
                assert set(components) == {
                    task for task in PIPELINE_TASKS
                    if task_available(language, stage_variants(ptype)[task], task)
                }


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


RANGE_SENTENCE = (
    "1-2\tdela\t_\t_\t_\t_\t_\t_\t_\t_\n"
    "1\tdel\t_\t_\t_\t_\t_\t_\t_\t_\n"
    "2\ta\t_\t_\t_\t_\t_\t_\t_\tSpaceAfter=No\n"
    "3\t.\t_\t_\t_\t_\t_\t_\t_\t_\n"
    "\n"
)


@pytest.fixture
def document_pipeline(model_dir, lexicon_file):
    return Pipeline(PipelineConfig(
        language="sl", tasks=("morph", "lemma", "depparse"),
        model_dir=model_dir, lexicon_path=lexicon_file,
    ))


def test_annotate_document_with_a_multiword_range(document_pipeline):
    out = serialize_document(document_pipeline.annotate(parse_document(RANGE_SENTENCE)))
    assert out.split("\n")[0] == RANGE_SENTENCE.split("\n")[0]
    words = parse_document(out).sentences[0].single_tokens()
    assert [t.form for t in words] == ["del", "a", "."]
    for tok in words:
        assert None not in (tok.upos, tok.xpos, tok.lemma, tok.head, tok.deprel)


def test_annotate_refuses_an_empty_range(document_pipeline):
    doc = parse_document(RANGE_SENTENCE)
    tokens = doc.sentences[0].tokens
    # 1 del / 2-2 a / 2 a / 3 .: the range comes right before its only word
    tokens[:] = [tokens[1], dataclasses.replace(tokens[0], id=(2, 2), form="a"), *tokens[2:]]
    with pytest.raises(StageError, match=r"\[range-empty\] sentence 1, token 2-2"):
        document_pipeline.annotate(doc)


def _fails(doc):
    raise AssertionError("validate_document called")


def test_raw_text_skips_the_document_check(document_pipeline, full_config, monkeypatch):
    doc = parse_document(RANGE_SENTENCE)
    monkeypatch.setattr(pipeline, "validate_document", _fails)
    assert Pipeline(full_config).annotate("Pes laja.").sentences
    with pytest.raises(AssertionError, match="validate_document called"):
        document_pipeline.annotate(doc)


@pytest.mark.parametrize(
    "tasks, token",
    [
        # the lemmatizer rewrites no feats
        pytest.param(("lemma",), "1\tpes\t_\tNOUN\tNcmsn\tNumber=Sing|Case=Nom\t_\t_\t_\t_",
                     id="lemma-only"),
        # the tagger and the lemmatizer keep a closed-class token as it is
        pytest.param(("morph", "lemma"),
                     "1\t.\t.\tPUNCT\tZ\tb=1|A=2\t_\t_\t_\tClosedClass=Yes",
                     id="closed-class"),
    ],
)
def test_a_document_input_is_validated_after_the_stages(model_dir, tasks, token):
    pipe = Pipeline(PipelineConfig(language="sl", tasks=tasks, model_dir=model_dir))
    doc = parse_document(token + "\n\n")
    with pytest.raises(StageError, match=r"\[feats-order\] sentence 1, token 1"):
        pipe.annotate(doc)


def test_a_document_form_holding_a_tab_is_refused(document_pipeline):
    doc = parse_document(RANGE_SENTENCE)
    doc.sentences[0].tokens[1].form = "d\tel"
    with pytest.raises(StageError, match=r"\[column-format\] sentence 1, token 1: form"):
        document_pipeline.annotate(doc)
    # unrefused, it would serialize to a line that does not read back
    with pytest.raises(DataError, match="expected 10 tab-separated columns"):
        parse_document(serialize_document(doc))


FUZZ_TASKS = [
    ("tokenize",),
    ("tokenize", "morph"),
    ("tokenize", "morph", "lemma"),
    ("tokenize", "morph", "lemma", "depparse"),
    ("tokenize", "lemma"),  # no xpos for the lemmatizer but on closed-class tokens
    ("tokenize", "depparse"),
]


@pytest.fixture(scope="module")
def fuzz_pipelines(model_dir, synthetic_lexicon, tmp_path_factory):
    """One pipeline per processing type and task set, built when first asked
    for; every type is served by the standard models."""
    lexicon = tmp_path_factory.mktemp("fuzz") / "lexicon.tsv"
    lexicon.write_text(lexicon_tsv(synthetic_lexicon), encoding="utf-8")
    built = {}

    def get(processing_type, tasks):
        if (processing_type, tasks) not in built:
            built[processing_type, tasks] = Pipeline(PipelineConfig(
                language="sl", processing_type=processing_type, tasks=tasks,
                model_paths={
                    kind: model_dir / model_filename("sl", "standard", kind)
                    for kind in ("tagger", "lemmatizer", "parser")
                },
                lexicon_path=lexicon,
            ))
        return built[processing_type, tasks]

    return get


@settings(max_examples=300, deadline=None)
@given(
    pieces=st.lists(st.sampled_from(FUZZ_PIECES) | st.integers(0, 99), max_size=16),
    processing_type=st.sampled_from(PROCESSING_TYPES),
    tasks=st.sampled_from(FUZZ_TASKS),
)
def test_raw_text_output_is_valid_without_the_document_check(
    fuzz_pipelines, vocab, pieces, processing_type, tasks
):
    # an integer piece is a word of the training vocabulary
    words = [form for form, _, _ in vocab.all_entries()[::4]]
    text = "".join(p if isinstance(p, str) else words[p % len(words)] for p in pieces)
    pipe = fuzz_pipelines(processing_type, tasks)
    try:
        doc = pipe.annotate(text)
    except DataError:  # StageError included
        # only a stage whose input misses the tags it needs may refuse
        assert "morph" not in tasks and len(tasks) > 1
        return
    assert validate_document(doc) == []
    if "depparse" in tasks:
        for sent in doc.sentences:
            assert validate_tree(sent, pipe.parser.schema) == []
    out = serialize_document(doc)
    if doc.sentences:  # without one, the output is empty and parses to nothing
        assert serialize_document(parse_document(out)) == out


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
    assert pipe.lemmatizer.lexicon is pipe.lexicon


@pytest.fixture
def embedded_lexicon_file(tmp_path, synthetic_lexicon):
    """A TSV lexicon with the rows ``model_dir``'s lemmatizer embeds."""
    path = tmp_path / "embedded.tsv"
    path.write_text(lexicon_tsv(synthetic_lexicon), encoding="utf-8")
    return path


@pytest.mark.parametrize("constrain", [None, False])
def test_pipeline_keeps_one_lexicon_when_the_lemmatizer_embeds_it(
    model_dir, embedded_lexicon_file, dev_doc, constrain
):
    config = PipelineConfig(
        language="sl", model_dir=model_dir, lexicon_path=embedded_lexicon_file,
        tagger_lexicon_constraint=constrain,
    )
    pipe = Pipeline(config)
    assert pipe.lexicon is pipe.lemmatizer.lexicon
    bare = strip_annotations(dev_doc)
    shared = serialize_document(pipe.annotate(bare))
    pipe.lemmatizer.lexicon = Lexicon.from_rows(
        pipe.lexicon.to_rows(), pipe.lexicon.prefix_table
    )
    assert serialize_document(pipe.annotate(bare)) == shared


def test_the_sharing_decision_never_decodes_the_embedded_lexicon(
    model_dir, embedded_lexicon_file, monkeypatch
):
    from slavpipe import modelio

    built, decoded = [], []
    from_rows, decode_payload = Lexicon.from_rows.__func__, modelio.decode_payload
    monkeypatch.setattr(
        Lexicon, "from_rows", classmethod(lambda cls, *a: built.append(a) or from_rows(cls, *a))
    )
    monkeypatch.setattr(
        modelio, "decode_payload", lambda path, b: decoded.append(b) or decode_payload(path, b)
    )
    config = PipelineConfig(
        language="sl", tasks=("tokenize", "morph", "lemma"),
        model_dir=model_dir, lexicon_path=embedded_lexicon_file,
    )
    pipe = Pipeline(config)
    assert built == []
    assert pipe.lexicon is pipe.lemmatizer.lexicon
    section = {"rows": pipe.lexicon.to_rows(), "prefixes": pipe.lexicon.prefix_table}
    assert modelio._dumps(section) not in decoded
    # without a configured lexicon the same archive's section is decoded and built
    Pipeline(PipelineConfig(language="sl", tasks=config.tasks, model_dir=model_dir))
    assert len(built) == 1
    assert modelio._dumps(section) in decoded


def test_every_model_archive_is_read_through_read_archive(
    model_dir, embedded_lexicon_file, monkeypatch
):
    from slavpipe import modelio

    calls = []
    read_archive = modelio.read_archive

    def recorded(path, kind, raw=()):
        calls.append((kind, raw))
        return read_archive(path, kind, raw)

    monkeypatch.setattr(modelio, "read_archive", recorded)
    pipe = Pipeline(PipelineConfig(
        language="sl", tasks=("tokenize", "morph", "lemma", "depparse"),
        model_dir=model_dir, lexicon_path=embedded_lexicon_file,
    ))
    assert pipe.lexicon is pipe.lemmatizer.lexicon
    tagger_sections = ("form_probs", "suffix_counts", "xpos_best", "triples", "default_triple")
    assert sorted(calls) == [
        ("lemmatizer", ("lexicon",)), ("parser", ()), ("tagger", tagger_sections)
    ]


def test_one_add_to_a_shared_lexicon_reaches_tagger_and_lemmatizer(
    model_dir, embedded_lexicon_file
):
    pipe = Pipeline(
        PipelineConfig(
            language="sl", tasks=("tokenize", "morph", "lemma"),
            model_dir=model_dir, lexicon_path=embedded_lexicon_file,
        )
    )
    [before] = pipe.annotate("zzqx").sentences[0].tokens
    pipe.lexicon.add("zzqx", "zzqlema", "Ncfsn")
    [after] = pipe.annotate("zzqx").sentences[0].tokens
    assert (before.xpos, before.lemma) != ("Ncfsn", "zzqlema")
    assert (after.xpos, after.lemma) == ("Ncfsn", "zzqlema")
    assert misc_value(after.misc, "Lemmatizer") == "lexicon"


def test_language_mismatch_is_refused_at_load(model_dir):
    for task, kind in (("morph", "tagger"), ("lemma", "lemmatizer"), ("depparse", "parser")):
        config = PipelineConfig(
            language="hr",
            tasks=(task,),
            model_paths={kind: model_dir / model_filename("sl", "standard", kind)},
        )
        with pytest.raises(ModelError, match=f"{kind} model was trained for language 'sl'"):
            Pipeline(config)


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
        text_layout(dev_doc)[0],
        reported_speech_text.strip(),
        text_layout(nonstandard_doc)[0],
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
        assert in_place(doc, stage_model) is None
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
    _, _, tag_acc = train_stage_tagger(small, _half_cleared(dev_doc, "upos", "xpos"), "sl")
    assert tag_acc == 52 / 65  # 65 keep their gold tags


def test_a_stage_dev_score_is_the_evaluate_count(train_doc, dev_doc):
    # every dev token carries a lemma and an arc, so all are scored
    assert all(t.lemma is not None and arc(t) is not None for t in dev_doc.single_tokens())
    small = Document(sentences=train_doc.sentences[:2])
    _, lemmatized, lemma_acc = train_stage_lemmatizer(small, dev_doc, language="sl")
    _, parsed, las = train_stage_parser(small, dev_doc, language="sl", epochs=2)
    assert lemma_acc == micro_counts(dev_doc, lemmatized, "lemma").accuracy
    assert las == las_counts(dev_doc, parsed).accuracy
    assert lemma_acc < 1 and las < 1  # a small training set leaves errors to count


# --- paragraphs and streams -------------------------------------------------

_EVERY_TASK = ("tokenize", "morph", "lemma", "depparse")


def _raw_text(vocab, pieces):
    # an integer piece is a word of the training vocabulary
    words = [form for form, _, _ in vocab.all_entries()[::4]]
    return "".join(p if isinstance(p, str) else words[p % len(words)] for p in pieces)


_TEXT_PIECES = st.lists(
    st.sampled_from([*FUZZ_PIECES, "\n ", " \n", "\r\n\t", "\n\n", ".\r\n\r\n", "\r\r", ".\r \r"])
    | st.integers(0, 99),
    max_size=16,
)


@settings(max_examples=100, deadline=None)
@given(a=_TEXT_PIECES, b=_TEXT_PIECES, processing_type=st.sampled_from(PROCESSING_TYPES))
def test_annotate_ends_a_sentence_at_a_blank_line(fuzz_pipelines, vocab, a, b, processing_type):
    pipe = fuzz_pipelines(processing_type, _EVERY_TASK)
    a, b = without_blank_lines(_raw_text(vocab, a)), without_blank_lines(_raw_text(vocab, b))
    joined = pipe.annotate(a + "\n\n" + b)
    assert serialize_document(joined) == serialize_document(
        renumbered(pipe.annotate(a), pipe.annotate(b))
    )


def _streamed(pipe, blocks):
    return "".join(map(serialize_sentence, pipe.annotate_stream(blocks)))


@settings(max_examples=100, deadline=None)
@given(
    pieces=_TEXT_PIECES,
    cuts=st.lists(st.integers(0, 400), max_size=6),
    processing_type=st.sampled_from(PROCESSING_TYPES),
)
def test_any_split_into_blocks_streams_the_bytes_of_the_whole(
    fuzz_pipelines, vocab, pieces, cuts, processing_type
):
    pipe = fuzz_pipelines(processing_type, _EVERY_TASK)
    text = _raw_text(vocab, pieces)
    bounds = [0, *sorted(min(cut, len(text)) for cut in cuts), len(text)]
    blocks = [text[i:j] for i, j in zip(bounds, bounds[1:])]
    assert _streamed(pipe, blocks) == serialize_document(pipe.annotate(text))


@pytest.mark.parametrize("text", [
    "Pes teče.\r\n\r\nmačka spi\r\n \r\n\r\nSPI",
    "a\n\n\nb\n \n\n c\n\n",
    "\n\n x \r\n\t\ny\n\n",
    "spi\n\npes\nteče \n mačka",
    "Naslov\r\rDanes\r\ndežuje\r \n\r\nx\ry\r",
])
def test_every_two_cuts_stream_the_bytes_of_the_whole(text):
    # cuts inside a CRLF, inside a blank line, between two of them, next to a
    # line feed that ends no paragraph and after a lone CR
    pipe = Pipeline(PipelineConfig(language="sl", tasks=("tokenize",)))
    whole = serialize_document(pipe.annotate(text))
    assert whole.count("# sent_id") >= 2
    for i in range(len(text) + 1):
        for j in range(i, len(text) + 1):
            assert _streamed(pipe, [text[:i], text[i:j], text[j:]]) == whole


def test_annotate_stream_yields_a_paragraph_before_reading_on():
    pipe = Pipeline(PipelineConfig(language="sl", tasks=("tokenize",)))
    read = []

    def blocks():
        # the first blank line spans three blocks
        for block in ["Naslov članka\n", " \t", "\nDanes ", "dežuje.", "\n\nJutri ne bo."]:
            read.append(block)
            yield block

    stream = pipe.annotate_stream(blocks())
    first = next(stream)
    assert (first.sent_id, first.text, len(read)) == ("1", "Naslov članka", 3)
    assert [(s.sent_id, s.text) for s in stream] == [("2", "Danes dežuje."), ("3", "Jutri ne bo.")]
    assert len(read) == 5


def test_annotate_stream_needs_the_tokenize_task(model_dir):
    pipe = Pipeline(PipelineConfig(language="sl", tasks=("morph",), model_dir=model_dir))
    with pytest.raises(ConfigurationError, match="raw text input needs the tokenize task"):
        list(pipe.annotate_stream([]))
