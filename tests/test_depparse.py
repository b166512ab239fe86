import hashlib
import random

import pytest

from slavpipe import modelio
from slavpipe.conllu import Document, Sentence, Token, copy_document, serialize_document
from slavpipe.depparse import (
    ParserModel,
    TreeSchema,
    load_parser,
    parse_dependency,
    parse_sentence,
    save_parser,
    train_parser,
    validate_tree,
)
from slavpipe.errors import ModelError, StageError, TrainingError

from support import make_corpus


def sentence(arcs, forms=None):
    """arcs as list of (head, deprel); annotations filled in."""
    tokens = []
    for i, (head, deprel) in enumerate(arcs, 1):
        form = forms[i - 1] if forms else f"w{i}"
        tokens.append(
            Token(
                id=i, form=form, lemma=form, upos="X", xpos="X",
                head=head, deprel=deprel,
            )
        )
    return Sentence(comments=[], tokens=tokens)


# --- validation -------------------------------------------------------------


def test_single_root_fixture_valid_under_ud(single_root_doc):
    for sent in single_root_doc.sentences:
        assert validate_tree(sent, TreeSchema.UD) == []


def test_multi_root_fixture_rejected_under_ud(multi_root_doc):
    problems = validate_tree(multi_root_doc.sentences[0], TreeSchema.UD)
    assert len(problems) == 1
    assert "exactly one root" in problems[0]
    assert "found 2" in problems[0]


def test_multi_root_fixture_valid_under_jos(multi_root_doc):
    assert validate_tree(multi_root_doc.sentences[0], TreeSchema.JOS) == []


def test_missing_arcs_reported():
    sent = Sentence(comments=[], tokens=[Token(id=1, form="a")])
    problems = validate_tree(sent, TreeSchema.UD)
    assert problems == ["token 1 ('a') has no head/deprel"]


def test_nonexistent_head():
    sent = sentence([(9, "dep")])
    assert "nonexistent head 9" in validate_tree(sent, TreeSchema.UD)[0]


def test_self_head():
    sent = sentence([(1, "dep")])
    assert "its own head" in validate_tree(sent, TreeSchema.UD)[0]


def test_cycle_detected():
    sent = sentence([(2, "a"), (3, "b"), (1, "c"), (0, "root")])
    problems = validate_tree(sent, TreeSchema.UD)
    assert any("cycle" in p for p in problems)


def test_cycle_message_names_the_first_failing_walk():
    # 1 and 2 reach the root before the walk from 3 runs into the 4-5-6 cycle
    sent = sentence([(0, "root"), (1, "a"), (4, "b"), (5, "c"), (6, "d"), (4, "e")])
    assert validate_tree(sent, TreeSchema.UD) == ["head cycle through tokens [3, 4, 5, 6]"]
    # a JOS tree: the walk from 1 already fails and collects only the cycle
    sent = sentence([(2, "a"), (1, "b"), (0, "Root"), (1, "c")])
    assert validate_tree(sent, TreeSchema.JOS) == ["head cycle through tokens [1, 2]"]


def test_long_chain_validates():
    n = 3000
    chain = sentence([(i + 1, "dep") for i in range(1, n)] + [(0, "root")])
    assert validate_tree(chain, TreeSchema.UD) == []


def test_rootless_rejected_in_both_schemas():
    sent = sentence([(2, "a"), (0, "root"), (2, "b")])
    sent.tokens[1].head = 3  # now 1->2->3->1... actually 2->3, 3->2 cycle
    sent.tokens[1].deprel = "x"
    for schema in TreeSchema:
        assert validate_tree(sent, schema) != []


def test_jos_requires_at_least_one_root():
    sent = sentence([(2, "a"), (0, "Root")])
    assert validate_tree(sent, TreeSchema.JOS) == []
    lone = sentence([(2, "a"), (0, "Root")])
    lone.tokens[1].head = 1
    assert validate_tree(lone, TreeSchema.JOS) != []


def test_range_tokens_ignored(nonstandard_doc):
    # fixture has no arcs at all, so every single token is flagged, but the
    # range line itself must not be
    problems = validate_tree(nonstandard_doc.sentences[0], TreeSchema.UD)
    assert len(problems) == 26
    assert not any("tastare" in p for p in problems)


# --- training and parsing ---------------------------------------------------


@pytest.fixture(scope="module")
def trained(train_doc):
    return train_parser(train_doc, TreeSchema.UD, language="sl", seed=13, epochs=6)


def test_training_learns_the_templates(trained, dev_doc):
    total = correct = 0
    for sent in dev_doc.sentences:
        parsed = parse_sentence(trained, sent)
        for tok in sent.single_tokens():
            total += 1
            correct += parsed[tok.id] == (tok.head, tok.deprel)
    assert total > 0
    assert correct / total > 0.9


def test_parse_output_validates(trained, dev_doc):
    bare = copy_document(dev_doc)
    for tok in bare.single_tokens():
        tok.head = tok.deprel = None
    parsed = parse_dependency(bare, trained)
    for sent in parsed.sentences:
        assert validate_tree(sent, TreeSchema.UD) == []


def test_parse_always_yields_valid_trees_on_random_input(trained):
    rng = random.Random(99)
    alphabet = "abcdefghijklmnop"
    doc = Document()
    for _ in range(60):
        tokens = []
        for i in range(1, rng.randint(2, 12) + 1):
            form = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 7)))
            tokens.append(Token(id=i, form=form, lemma=form, upos="X", xpos="X"))
        doc.sentences.append(Sentence(comments=[], tokens=tokens))
    parsed = parse_dependency(doc, trained)
    for sent in parsed.sentences:
        assert validate_tree(sent, trained.schema) == []


def test_single_token_sentence(trained):
    doc = Document(
        sentences=[
            Sentence(
                comments=[],
                tokens=[Token(id=1, form="da", lemma="da", upos="X", xpos="X")],
            )
        ]
    )
    parsed = parse_dependency(doc, trained)
    tok = parsed.sentences[0].tokens[0]
    assert tok.head == 0
    assert tok.deprel in trained.root_labels


def test_jos_training_on_multi_root_trees(multi_root_doc):
    train = Document(
        sentences=[copy_document(multi_root_doc).sentences[0] for _ in range(20)]
    )
    model = train_parser(train, TreeSchema.JOS, seed=3, epochs=6)
    parsed = parse_sentence(model, train.sentences[0])
    gold = {t.id: (t.head, t.deprel) for t in train.sentences[0].single_tokens()}
    assert parsed == gold


def test_ud_training_rejects_multi_root_gold(multi_root_doc):
    with pytest.raises(TrainingError, match="violates the ud schema"):
        train_parser(multi_root_doc, TreeSchema.UD)


def test_training_rejects_empty():
    with pytest.raises(TrainingError, match="no sentences"):
        train_parser(Document(), TreeSchema.UD)


def test_training_is_deterministic(train_doc, trained):
    other = train_parser(train_doc, TreeSchema.UD, language="sl", seed=13, epochs=6)
    assert other.weights == trained.weights


def test_seed_changes_model(train_doc, trained):
    other = train_parser(train_doc, TreeSchema.UD, language="sl", seed=14, epochs=6)
    assert other.weights != trained.weights


def test_nonprojective_gold_still_trains():
    # crossing arcs 1->3 and 2->4 cannot be built by arc-standard shifts
    sent = sentence([(3, "a"), (4, "b"), (0, "root"), (3, "c")])
    doc = Document(sentences=[sent])
    model = train_parser(doc, TreeSchema.UD, epochs=2)
    parsed = parse_sentence(model, sent)
    assert validate_tree_mapping(parsed)


def validate_tree_mapping(parsed):
    sent = Sentence(
        comments=[],
        tokens=[
            Token(id=i, form="x", head=h, deprel=d) for i, (h, d) in sorted(parsed.items())
        ],
    )
    return validate_tree(sent, TreeSchema.UD) == []


def test_missing_upstream_annotation_is_stage_error(trained):
    doc = Document(
        sentences=[
            Sentence(
                comments=["# sent_id = s9"],
                tokens=[Token(id=1, form="x", upos="X", xpos="X")],  # no lemma
            )
        ]
    )
    with pytest.raises(StageError, match=r"token 1 \('x'\) in s9"):
        parse_dependency(doc, trained)


def test_language_mismatch_rejected(trained, dev_doc):
    with pytest.raises(ModelError, match="trained for language 'sl'"):
        parse_dependency(dev_doc, trained, language="bg")


def test_input_not_mutated(trained, dev_doc):
    bare = copy_document(dev_doc)
    for tok in bare.single_tokens():
        tok.head = tok.deprel = None
    parse_dependency(bare, trained)
    assert all(t.head is None for t in bare.single_tokens())


def test_save_load_parses_identically(tmp_path, trained, dev_doc):
    path = tmp_path / "parser.slm"
    save_parser(trained, path)
    again = load_parser(path)
    assert again.schema is TreeSchema.UD
    assert again.metadata.seed == 13
    for sent in dev_doc.sentences[:10]:
        assert parse_sentence(again, sent) == parse_sentence(trained, sent)


MINIMAL_SECTIONS = {
    "weights": {"bias": {"shift": 1.0, "left=a": -0.5}},
    "dep_labels": ["a"],
    "root_labels": ["root"],
}


@pytest.mark.parametrize(
    "section, value",
    [
        pytest.param("weights", [["bias", {"shift": 1.0}]], id="weights-list"),
        pytest.param("weights", {"bias": [["shift", 1.0]]}, id="row-list"),
        pytest.param("weights", {"bias": 1.0}, id="row-number"),
        pytest.param("weights", {"bias": {"shift": "1.0"}}, id="weight-string"),
        pytest.param("weights", {"bias": {"shift": None}}, id="weight-null"),
        pytest.param("weights", {"bias": {"shift": True}}, id="weight-bool"),
        pytest.param("weights", {"bias": {"left=b": 1.0}}, id="unknown-label"),
        pytest.param("weights", {"bias": {"reduce": 1.0}}, id="unknown-action"),
        pytest.param("dep_labels", "a", id="labels-string"),
        pytest.param("root_labels", ["root", 1], id="label-number"),
    ],
)
def test_malformed_archive_refused_at_load(tmp_path, section, value):
    path = tmp_path / "parser.slm"
    modelio.write_archive(path, "parser", {"schema": "ud"}, MINIMAL_SECTIONS)
    assert load_parser(path).weights == MINIMAL_SECTIONS["weights"]
    modelio.write_archive(path, "parser", {"schema": "ud"}, {**MINIMAL_SECTIONS, section: value})
    with pytest.raises(ModelError, match="malformed parser model"):
        load_parser(path)


def test_schema_preserved_through_archive(tmp_path, multi_root_doc):
    train = Document(
        sentences=[copy_document(multi_root_doc).sentences[0] for _ in range(5)]
    )
    model = train_parser(train, TreeSchema.JOS, epochs=2)
    path = tmp_path / "jos.slm"
    save_parser(model, path)
    assert load_parser(path).schema is TreeSchema.JOS


# --- golden pins ------------------------------------------------------------
# Digests of the archive bytes and of the parsed output.  They pin the exact
# float arithmetic of training and decoding: any change to feature order,
# update order, averaging or tie-breaking changes them.

UD_ARCHIVE_SHA256 = "04a67f903bc07a4b08077f5b4e5cadcf6c5a7c5a30639a298ccc7bad9511c30d"
UD_PARSE_SHA256 = "29f1d14729a07a33c018aa6c482889a669a30ef6115a218a30c8e9fefa704bc8"
JOS_ARCHIVE_SHA256 = "b8246a8b3bbf15de82f7acd8cf33983f2f8408c13d518e6be9cb77f138b2443a"
JOS_PARSE_SHA256 = "5d89605af13d436148dbf8a3019e820bc84c8ff5d72aea9e5f9492600e418033"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize(
    "schema, archive_sha, parse_sha",
    [
        (TreeSchema.UD, UD_ARCHIVE_SHA256, UD_PARSE_SHA256),
        (TreeSchema.JOS, JOS_ARCHIVE_SHA256, JOS_PARSE_SHA256),
    ],
    ids=["ud", "jos"],
)
def test_golden_archive_and_parse(
    tmp_path, train_doc, dev_doc, multi_root_doc, schema, archive_sha, parse_sha
):
    if schema is TreeSchema.UD:
        train = train_doc
    else:
        train = Document(sentences=train_doc.sentences[:60] + multi_root_doc.sentences * 10)
    model = train_parser(train, schema, language="sl", seed=13, epochs=6)
    path = tmp_path / "parser.slm"
    save_parser(model, path)
    assert _sha256(path.read_bytes()) == archive_sha
    dev = Document(sentences=dev_doc.sentences + multi_root_doc.sentences)
    for parser in (model, load_parser(path)):
        out = serialize_document(parse_dependency(dev, parser))
        assert _sha256(out.encode("utf-8")) == parse_sha


@pytest.mark.parametrize(
    "schema, expected",
    [
        # UD: left=Z < left=a < right=Z < right=a < shift; the last token
        # takes right=Z < right=root onto the root
        (TreeSchema.UD, {1: (2, "Z"), 2: (3, "Z"), 3: (0, "Z")}),
        # JOS: right=Z onto the root already beats shift on a two-item stack
        (TreeSchema.JOS, {1: (0, "Z"), 2: (0, "Z"), 3: (0, "Z")}),
    ],
    ids=["ud", "jos"],
)
def test_ties_resolve_to_the_smallest_action_name(schema, expected):
    # no weights, so every action scores 0.0; labels are listed out of sorted
    # order and "Z" is both a dependent and a root label
    model = ParserModel(dep_labels=["a", "Z"], root_labels=["root", "Z"], schema=schema)
    assert parse_sentence(model, sentence([(None, None)] * 3)) == expected
