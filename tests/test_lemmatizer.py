import hashlib
import json
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from slavpipe import modelio
from slavpipe.conllu import Document, Sentence, Token, copy_document, misc_set, misc_value
from slavpipe.errors import ModelError, StageError, TrainingError
from slavpipe.lemmatizer import (
    TIER_MISC,
    LemmatizerModel,
    SuffixRule,
    _embedded,
    _lexicon_blocks,
    lemmatize_document,
    lemmatize_in_place,
    load_lemmatizer,
    save_lemmatizer,
    train_lemmatizer,
)
from slavpipe.lexicon import Lexicon
from slavpipe.modelio import BLOCK_KEYS

from support import paradigm_rows


@pytest.fixture(scope="module")
def model(train_doc, synthetic_lexicon):
    return train_lemmatizer(train_doc, lexicon=synthetic_lexicon, language="sl")


def tagged_doc(*rows):
    """rows of (form, xpos [, misc])."""
    tokens = []
    for i, row in enumerate(rows, 1):
        form, xpos = row[0], row[1]
        misc = row[2] if len(row) > 2 else None
        lemma = row[3] if len(row) > 3 else None
        tokens.append(Token(id=i, form=form, xpos=xpos, misc=misc, lemma=lemma))
    return Document(sentences=[Sentence(comments=[], tokens=tokens)])


def tiers(doc):
    return [
        misc_value(t.misc, "Lemmatizer")
        for s in doc.sentences
        for t in s.tokens
    ]


def test_train_lookup_tier(model, vocab):
    form, _, xpos, lemma, _ = vocab.noun(vocab.nouns[0], "acc")
    out = lemmatize_document(tagged_doc((form, xpos)), model)
    tok = out.sentences[0].tokens[0]
    assert tok.lemma == lemma
    assert tiers(out) == ["train"]


def test_lexicon_tier_for_unseen_pair(model, train_doc, synthetic_lexicon, vocab):
    seen = {(t.form, t.xpos) for t in train_doc.single_tokens()}
    target = None
    for form, lemma, xpos in vocab.all_entries():
        if (form, xpos) not in seen:
            target = (form, xpos, lemma)
            break
    assert target is not None, "corpus should not exhaust the vocabulary"
    form, xpos, lemma = target
    out = lemmatize_document(tagged_doc((form, xpos)), model)
    assert out.sentences[0].tokens[0].lemma == lemma
    assert tiers(out) == ["lexicon"]


def test_rule_tier_for_novel_stem(model):
    # unseen noun with the regular -o accusative; rules learned from the
    # training pairs rewrite it to the -a lemma
    out = lemmatize_document(tagged_doc(("glavno", "Ncfsa")), model)
    tok = out.sentences[0].tokens[0]
    assert tok.lemma == "glavna"
    assert tiers(out) == ["rule"]


def test_identity_tier_when_nothing_applies(train_doc):
    bare = train_lemmatizer(train_doc)  # no lexicon embedded
    out = lemmatize_document(tagged_doc(("žžž", "Žunknown")), bare)
    tok = out.sentences[0].tokens[0]
    assert tok.lemma == "žžž"
    assert tiers(out) == ["identity"]


def test_closed_tier_keeps_lemma(model):
    doc = tagged_doc((".", "Z", "ClosedClass=Yes", "."))
    out = lemmatize_document(doc, model)
    tok = out.sentences[0].tokens[0]
    assert tok.lemma == "."
    assert tiers(out) == ["closed"]


@pytest.mark.parametrize("misc, tier", [
    ("ClosedClass=Yes", "closed"),  # the tokenizer's marks, known whole
    ("SpaceAfter=No|ClosedClass=Yes", "closed"),
    ("X=1|ClosedClass=Yes", "closed"),  # any other misc is parsed
    ("ClosedClass=No", "identity"),
    ("SpaceAfter=No|ClosedClass=No", "identity"),
])
def test_a_lemma_is_kept_for_the_closed_class_mark_alone(train_doc, misc, tier):
    bare = train_lemmatizer(train_doc)  # no lexicon embedded
    doc = tagged_doc(("žžž", "Žunknown", misc, "kept"))
    lemmatize_in_place(doc, bare)
    tok = doc.sentences[0].tokens[0]
    assert tok.lemma == ("kept" if tier == "closed" else "žžž")
    assert tok.misc == f"{misc}|Lemmatizer={tier}"


def test_rerun_is_idempotent(model, vocab):
    form, _, xpos, _, _ = vocab.verb(vocab.verbs[0], "pres")
    once = lemmatize_document(tagged_doc((form, xpos)), model)
    twice = lemmatize_document(once, model)
    assert once.sentences[0].tokens[0].lemma == twice.sentences[0].tokens[0].lemma
    assert tiers(once) == tiers(twice)


def test_missing_xpos_is_stage_error(model):
    doc = Document(
        sentences=[
            Sentence(
                comments=["# sent_id = s77"],
                tokens=[Token(id=1, form="beseda")],
            )
        ]
    )
    with pytest.raises(StageError, match=r"token 1 \('beseda'\) in s77"):
        lemmatize_document(doc, model)


def test_input_not_mutated(model, vocab):
    form, _, xpos, _, _ = vocab.noun(vocab.nouns[1], "loc")
    doc = tagged_doc((form, xpos))
    lemmatize_document(doc, model)
    assert doc.sentences[0].tokens[0].lemma is None
    assert doc.sentences[0].tokens[0].misc is None


def test_majority_lemma_wins_with_tie_break():
    doc = Document()
    for lemma, reps in (("aaa", 2), ("bbb", 2), ("ccc", 1)):
        for _ in range(reps):
            doc.sentences.append(
                Sentence(
                    comments=[],
                    tokens=[Token(id=1, form="x", xpos="Ncfsn", lemma=lemma)],
                )
            )
    model = train_lemmatizer(doc)
    assert model.lookup[("x", "Ncfsn")] == "aaa"


def test_rule_context_widening():
    doc = tagged_doc(("tece", "Vmpr3s", None, "teci"))
    model = train_lemmatizer(doc)
    suffixes = {r.form_suffix for r in model.rules}
    assert suffixes == {"e", "ce", "ece", "tece"}
    assert all(r.tag_prefix == "V" for r in model.rules)


def test_rules_do_not_cross_tag_prefixes():
    train = tagged_doc(("pisala", "Vmpp-sf", None, "pisati"))
    model = train_lemmatizer(train)
    # a noun should not pick up the verb rewrite; nothing applies
    out = lemmatize_document(tagged_doc(("miza", "Ncfsn")), model)
    assert out.sentences[0].tokens[0].lemma == "miza"
    assert tiers(out) == ["identity"]


_RULE_TEXT = st.text("ab", max_size=4)


def _rule_scan(rules, form, xpos):
    """The rule apply_rules must find: for each suffix length from the whole
    form down to 0, the first rule in list order of that suffix and tag prefix."""
    for length in range(len(form), -1, -1):
        suffix = form[len(form) - length:]
        for rule in rules:
            if rule.tag_prefix == xpos[:1] and rule.form_suffix == suffix:
                return form[: len(form) - length] + rule.replacement
    return None


@settings(max_examples=300, deadline=None)
@given(
    rules=st.lists(st.builds(SuffixRule, _RULE_TEXT, st.sampled_from(["", "N", "V", "Nc"]),
                             _RULE_TEXT, st.integers(1, 3)), max_size=12),
    queries=st.lists(st.tuples(st.text("ab", max_size=6),
                               st.sampled_from(["", "N", "Ncmsn", "V", "X"])), max_size=8),
)
def test_apply_rules_finds_what_a_scan_of_every_suffix_length_finds(rules, queries):
    model = LemmatizerModel(rules=rules)
    for form, xpos in queries:
        assert model.apply_rules(form, xpos) == _rule_scan(rules, form, xpos)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from([None, "", "SpaceAfter=No", "Lemmatizer=old",
                                 "A=1|Lemmatizer=x|B=2", "Lemmatizerx=1", "ClosedClass=Yes"]),
                min_size=1, max_size=6))
def test_each_tier_is_written_as_misc_set_writes_it(miscs):
    model = LemmatizerModel(lookup={("pes", "N"): "pes"},
                            rules=[SuffixRule("a", "V", "ati", 1)])
    rows = [(("pes", "N"), ("delala", "V"), ("xyz", "Q"))[i % 3] for i in range(len(miscs))]
    doc = tagged_doc(*[(f, x, m) for (f, x), m in zip(rows, miscs)])
    lemmatize_in_place(doc, model)
    for i, (tok, misc) in enumerate(zip(doc.sentences[0].tokens, miscs)):
        assert tok.misc == misc_set(misc, TIER_MISC, ("train", "rule", "identity")[i % 3])


def test_training_needs_lemmas():
    with pytest.raises(TrainingError, match="no lemmatized tokens"):
        train_lemmatizer(tagged_doc(("x", "Ncfsn")))


def test_language_mismatch_rejected(model):
    with pytest.raises(ModelError, match="trained for language 'sl'"):
        lemmatize_document(tagged_doc(("x", "Ncfsn")), model, language="mk")


def test_save_load_roundtrip(tmp_path, model, dev_doc):
    path = tmp_path / "lemmatizer.slm"
    save_lemmatizer(model, path)
    again = load_lemmatizer(path)
    assert again.lexicon is not None
    assert again.lexicon.allowed_tags("naj") == model.lexicon.allowed_tags("naj")

    bare = copy_document(dev_doc)
    for tok in bare.single_tokens():
        tok.lemma = None
    a = lemmatize_document(bare, model)
    b = lemmatize_document(bare, again)
    for sa, sb in zip(a.sentences, b.sentences):
        for ta, tb in zip(sa.tokens, sb.tokens):
            assert ta.lemma == tb.lemma
            assert ta.misc == tb.misc


def test_save_without_lexicon(tmp_path, train_doc):
    model = train_lemmatizer(train_doc)
    path = tmp_path / "bare.slm"
    save_lemmatizer(model, path)
    assert load_lemmatizer(path).lexicon is None


def test_lexicon_can_be_attached_after_load(tmp_path, train_doc, synthetic_lexicon):
    model = train_lemmatizer(train_doc)
    path = tmp_path / "bare.slm"
    save_lemmatizer(model, path)
    again = load_lemmatizer(path)
    again.lexicon = synthetic_lexicon
    assert isinstance(again, LemmatizerModel)
    out = lemmatize_document(tagged_doc(("naj", "Q")), again)
    assert tiers(out)[0] in ("train", "lexicon")


def test_empty_lexicon_embeds_cleanly(tmp_path, train_doc):
    model = train_lemmatizer(train_doc, lexicon=Lexicon())
    path = tmp_path / "empty-lex.slm"
    save_lemmatizer(model, path)
    again = load_lemmatizer(path)
    assert again.lexicon is not None
    assert again.lexicon.allowed_tags("karkoli") == set()


MINIMAL_SECTIONS = {
    "lookup": [["hiše", "Ncfsg", "hiša"]],
    "rules": [["e", "N", "a", 3]],
    "lexicon": {"rows": [["hiši", "hiša", "Ncfsd", 2]], "prefixes": {"pronoun": "P"}},
}


@pytest.mark.parametrize(
    "section, value",
    [
        pytest.param("lookup", [["hiše", "Ncfsg"]], id="lookup-short"),
        pytest.param("lookup", [["hiše", "Ncfsg", None]], id="lemma-null"),
        pytest.param("lookup", ["abc"], id="lookup-string"),
        pytest.param("rules", [["e", "N", "a"]], id="rule-short"),
        pytest.param("rules", [["e", "N", "a", "3"]], id="frequency-string"),
        pytest.param("rules", [["e", "N", "a", False]], id="frequency-bool"),
        pytest.param("rules", [["e", 1, "a", 3]], id="prefix-number"),
        pytest.param("lexicon", {"rows": [["hiši", "hiša", 5, 2]], "prefixes": {}},
                     id="lexicon-xpos-number"),
        pytest.param("lexicon", {"rows": [["hiši", "hiša", "Ncfsd"]], "prefixes": {}},
                     id="lexicon-row-short"),
        pytest.param("lexicon", {"rows": [["hiši", "hiša", "Ncfsd", "2"]], "prefixes": {}},
                     id="lexicon-frequency-string"),
        pytest.param("lexicon", {"rows": [], "prefixes": [["pronoun", "P"]]},
                     id="prefixes-list"),
        pytest.param("lexicon", {"rows": [], "prefixes": {"pronoun": 1}},
                     id="prefix-number"),
        pytest.param("lexicon", [], id="lexicon-list"),
        # strings that annotation writes and that would break a CoNLL-U column
        pytest.param("lookup", [["hiše", "Ncfsg", "hi\tša"]], id="lookup-lemma-tab"),
        pytest.param("lookup", [["hiše", "Ncfsg", "hiša\n"]], id="lookup-lemma-lf"),
        pytest.param("rules", [["e", "N", "\ra", 3]], id="replacement-cr"),
        pytest.param("lexicon", {"rows": [["hiši", "hi\tša", "Ncfsd", 2]], "prefixes": {}},
                     id="lexicon-lemma-tab"),
        pytest.param("lexicon", {"rows": [["hiši", "hiša", "Ncfsd\n", 2]], "prefixes": {}},
                     id="lexicon-xpos-lf"),
        pytest.param("lexicon", {"rows": [["hiši", "\rhiša", "Ncfsd", 2]], "prefixes": {}},
                     id="lexicon-lemma-cr"),
    ],
)
def test_malformed_archive_refused_at_load(tmp_path, section, value):
    from slavpipe.modelio import write_archive

    path = tmp_path / "lemmatizer.slm"
    write_archive(path, "lemmatizer", {}, MINIMAL_SECTIONS)
    assert load_lemmatizer(path).lookup == {("hiše", "Ncfsg"): "hiša"}
    write_archive(path, "lemmatizer", {}, {**MINIMAL_SECTIONS, section: value})
    with pytest.raises(ModelError, match="malformed lemmatizer model"):
        load_lemmatizer(path)


# --- a configured lexicon shared with the archive's -------------------------


@pytest.fixture
def embedded(tmp_path, model):
    """The archive of ``model`` and an equal copy of the lexicon it embeds."""
    path = tmp_path / "lemmatizer.slm"
    save_lemmatizer(model, path)
    return path, Lexicon.from_rows(model.lexicon.to_rows(), model.lexicon.prefix_table)


def lemmas(model, doc):
    bare = copy_document(doc)
    for tok in bare.single_tokens():
        tok.lemma = None
    out = lemmatize_document(bare, model)
    return [(t.lemma, t.misc) for s in out.sentences for t in s.tokens]


def test_configured_lexicon_is_shared_when_the_archive_embeds_it(embedded, dev_doc):
    path, configured = embedded
    shared = load_lemmatizer(path, lexicon=configured)
    assert shared.lexicon is configured
    assert lemmas(shared, dev_doc) == lemmas(load_lemmatizer(path), dev_doc)


def test_configured_lexicon_serves_an_archive_without_one(tmp_path, train_doc, embedded):
    path = tmp_path / "bare.slm"
    save_lemmatizer(train_lemmatizer(train_doc), path)
    configured = embedded[1]
    assert load_lemmatizer(path, lexicon=configured).lexicon is configured


def _float_frequency(rows, prefixes):
    rows[0][3] = float(rows[0][3])
    return rows, prefixes


def _swapped(rows, prefixes):
    rows[0], rows[1] = rows[1], rows[0]
    return rows, prefixes


@pytest.mark.parametrize(
    "change",
    [
        pytest.param(lambda rows, prefixes: (rows[1:], prefixes), id="row-removed"),
        pytest.param(_float_frequency, id="frequency-float"),
        pytest.param(lambda rows, prefixes: (rows[:1] + rows, prefixes), id="row-duplicated"),
        pytest.param(_swapped, id="rows-swapped"),
        pytest.param(lambda rows, prefixes: (rows, {"pronoun": "P"}), id="other-prefix-table"),
    ],
)
def test_lexicon_not_shared_unless_the_archive_describes_it_exactly(
    tmp_path, embedded, dev_doc, change
):
    from slavpipe.modelio import read_archive, write_archive

    path, configured = embedded
    meta, sections = read_archive(path, "lemmatizer")
    rows, prefixes = change(sections["lexicon"]["rows"], sections["lexicon"]["prefixes"])
    changed = tmp_path / "changed.slm"
    lexicon = {"rows": rows, "prefixes": prefixes}
    write_archive(changed, "lemmatizer", meta, {**sections, "lexicon": lexicon})
    with_configured, own = load_lemmatizer(changed, lexicon=configured), load_lemmatizer(changed)
    assert with_configured.lexicon is not configured
    assert with_configured.lexicon.to_rows() == own.lexicon.to_rows()
    assert with_configured.lexicon.prefix_table == own.lexicon.prefix_table == prefixes
    assert lemmas(with_configured, dev_doc) == lemmas(own, dev_doc)


def test_boolean_frequency_is_refused_with_or_without_a_configured_lexicon(tmp_path, embedded):
    from slavpipe.modelio import read_archive, write_archive

    path, configured = embedded
    meta, sections = read_archive(path, "lemmatizer")
    sections["lexicon"]["rows"][0][3] = True
    write_archive(path, "lemmatizer", meta, sections)
    for lexicon in (None, configured):
        with pytest.raises(ModelError, match="malformed lemmatizer model"):
            load_lemmatizer(path, lexicon=lexicon)


@pytest.mark.parametrize(
    "damage",
    [
        pytest.param(lambda blob: blob[:-1] + b"!", id="bad-json"),
        pytest.param(lambda blob: blob[:-1] + b"\xff", id="bad-utf8"),
    ],
)
def test_a_corrupt_lexicon_section_is_one_error_with_or_without_a_configured_lexicon(
    embedded, damage
):
    path, configured = embedded
    blob = path.read_bytes()
    assert blob.endswith(b"]}")  # the lexicon section is written last
    path.write_bytes(damage(blob))
    messages = []
    for lexicon in (None, configured):
        with pytest.raises(ModelError, match=": corrupt model archive: ") as info:
            load_lemmatizer(path, lexicon=lexicon)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


def test_a_configured_lexicon_that_cannot_be_encoded_is_not_shared(embedded, dev_doc):
    path, configured = embedded
    configured.add("\ud800", "x", "Ncmsn")  # a lone surrogate has no UTF-8 encoding
    loaded = load_lemmatizer(path, lexicon=configured)
    assert loaded.lexicon is not configured
    assert lemmas(loaded, dev_doc) == lemmas(load_lemmatizer(path), dev_doc)


# --- archive digests ----------------------------------------------------------

# sha256 of the archives save_lemmatizer writes for a model trained on the
# synthetic corpus, with the lexicon below embedded and without a lexicon
EMBEDDED_ARCHIVE_SHA256 = "19719fb4ae53943e11933e427ae974c3e87c95f666c1cdc7382beb3b9d5722a7"
BARE_ARCHIVE_SHA256 = "c0e9967fdc9d571622e7662a3d6adc1a4dd35acbf3eb6b17abdcb33192979c64"


def _pinned_lexicon() -> Lexicon:
    """Hand-written rows whose forms hold a quote, a backslash, a control
    character and non-ASCII letters, then 2,400 generated paradigm rows;
    a prefix table of its own."""
    lex = Lexicon({"pronoun": "P", "particle": "Q", "adposition": "S"})
    for form, lemma, xpos, freq in [
        ("že", "že", "Q", 40), ("ђак", "ђак", "Ncmsn", 3), ("ђака", "ђак", "Ncmsg", 2),
        ('"', '"', "Z", 9), ("\\", "\\", "Z", 1), ("a\tb", "ab", "X", 1),
        ("čez", "čez", "Sa", 12), ("jaz", "jaz", "Pp1-sn", 7), ("Jaz", "jaz", "Pp1-sn", 2.5),
    ]:
        lex.add(form, lemma, xpos, freq)
    endings = {"sn": "a", "sg": "e", "sd": "i", "sa": "o", "si": "ou",
               "pn": "e", "pg": "", "pd": "am", "pl": "ah", "pi": "ami"}
    n = 0
    for c1 in "bčdđgkls":
        for v in "aeiou":
            for c2 in "vžrnmt":
                stem = c1 + v + c2
                for tag, ending in endings.items():
                    n += 1
                    lex.add(stem + ending, stem + "a", "Ncf" + tag, n * 7919 % 97 + 1)
    return lex


@pytest.mark.parametrize(
    "with_lexicon, archive_sha",
    [(True, EMBEDDED_ARCHIVE_SHA256), (False, BARE_ARCHIVE_SHA256)],
    ids=["embedded", "bare"],
)
def test_golden_archive(tmp_path, train_doc, with_lexicon, archive_sha):
    lexicon = _pinned_lexicon() if with_lexicon else None
    model = train_lemmatizer(train_doc, lexicon=lexicon, language="sl")
    path = tmp_path / "lemmatizer.slm"
    save_lemmatizer(model, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == archive_sha


# --- the lexicon section, encoded and compared in blocks ---------------------

TEXT = st.text(
    st.one_of(st.sampled_from('"\\\x00\x1f\x7f\n\tžђ'), st.characters(exclude_categories=("Cs",))),
    max_size=6,
)
# a lemma or tag, which a lexicon refuses when it holds a tab or a line break
COLUMN_TEXT = st.text(
    st.one_of(
        st.sampled_from('"\\\x00\x1f\x7fžђ'),
        st.characters(exclude_categories=("Cs",), exclude_characters="\t\n\r"),
    ),
    max_size=6,
)
FREQUENCY = st.one_of(
    st.integers(), st.floats(allow_nan=False, allow_infinity=False), st.just(True), st.just(-0.0)
)


@st.composite
def lexicons(draw):
    """A lexicon of 0, 1 or about one or two blocks of rows: drawn rows, then
    generated ones up to the drawn count; with a drawn prefix table or the default."""
    n = draw(st.sampled_from(
        [0, 1, BLOCK_KEYS - 1, BLOCK_KEYS, BLOCK_KEYS + 1, 2 * BLOCK_KEYS + 1]
    ))
    prefixes = draw(st.none() | st.dictionaries(TEXT, TEXT, max_size=3))
    lex = Lexicon(prefixes)
    rows = st.tuples(TEXT, COLUMN_TEXT, COLUMN_TEXT, FREQUENCY)
    for form, lemma, xpos, freq in draw(st.lists(rows, max_size=min(n, 8))):
        lex.add(form, lemma, xpos, freq)
    i = 0
    while len(lex) < n:
        i += 1
        lex.add(f"f{i}", f"l{i % 7}", ("Ncf", "Vmp", "Q")[i % 3], (i, 0.5 * i, True, -0.0)[i % 4])
    return lex


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(lexicons(), st.data())
def test_the_lexicon_blocks_are_the_section_and_only_it_is_shared(lex, data):
    blocks = list(_lexicon_blocks(lex))
    payload = b"".join(blocks)
    assert payload == modelio._dumps({"rows": lex.to_rows(), "prefixes": lex.prefix_table})
    assert _embedded(payload, lex)
    last = len(payload) - 1
    in_head, in_last_block = len(blocks[0]) - 1, last - len(blocks[-1])
    anywhere = data.draw(st.integers(0, last))
    for at in (in_head, in_last_block, last, anywhere):
        changed = bytearray(payload)
        changed[at] ^= 0x01
        assert not _embedded(bytes(changed), lex)
    assert not _embedded(payload[: data.draw(st.integers(0, last))], lex)
    assert not _embedded(payload + data.draw(st.binary(min_size=1, max_size=1)), lex)
    lex.add("\ud800", "x", "Ncmsn")  # a lone surrogate has no UTF-8 encoding
    assert not _embedded(payload, lex)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(lexicons())
def test_the_lexicon_section_is_the_json_module_encoding_of_its_rows(lex):
    """Against a reference that does not go through the shared encoder."""
    section = {"rows": list(lex.rows()), "prefixes": lex.prefix_table}
    reference = json.dumps(section, ensure_ascii=False, sort_keys=True, separators=(",", ":"))
    assert modelio._dumps(section) == reference.encode("utf-8")
    assert b"".join(_lexicon_blocks(lex)) == reference.encode("utf-8")


# a bound between the 1.6 MB that encoding in blocks peaks at and the 7.0 MB
# (save) and 7.8 MB (shared load) that encoding the section whole peaks at
PEAK_BOUND = 3_000_000
# between the 1.2 MB that a save of the 0.8 MB archive peaks at when it writes
# the section's blocks one after another and the 1.6 MB of joining them first
SAVE_PEAK_BOUND = 1_400_000


def test_the_lexicon_section_is_never_encoded_whole(tmp_path):
    """Paradigms of 2,000 random stems, 24,000 rows: writing the lemmatizer
    and loading it with the lexicon it embeds each peak below PEAK_BOUND, and
    writing it below SAVE_PEAK_BOUND."""
    lex = Lexicon()
    for form, lemma, xpos, freq in paradigm_rows():
        lex.add(form, lemma, xpos, freq)
    model = train_lemmatizer(tagged_doc(("hiše", "Ncfsg", None, "hiša")), lexicon=lex)
    path = tmp_path / "lemmatizer.slm"
    peaks = []
    for step in (lambda: save_lemmatizer(model, path),
                 lambda: load_lemmatizer(path, lexicon=lex)):
        tracemalloc.start()
        try:
            loaded = step()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert len(lex) > 23000 and loaded.lexicon is lex
    assert max(peaks) < PEAK_BOUND, peaks
    assert peaks[0] < SAVE_PEAK_BOUND, peaks
