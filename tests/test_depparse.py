import dataclasses
import hashlib
import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from slavpipe import depparse, memo, modelio
from slavpipe.conllu import Document, Sentence, Token, copy_document, serialize_document
from slavpipe.depparse import (
    ParserModel,
    TreeSchema,
    _AveragedPerceptron,
    load_parser,
    parse_dependency,
    save_parser,
    train_parser,
    validate_tree,
)
from slavpipe.errors import ConfigurationError, ModelError, StageError, TrainingError

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


def parsed_arcs(model, sent):
    """``{token id: (head, deprel)}`` read off a parsed copy of ``sent``."""
    parsed = parse_dependency(Document(sentences=[sent]), model).sentences[0]
    return {tok.id: (tok.head, tok.deprel) for tok in parsed.single_tokens()}


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
        parsed = parsed_arcs(trained, sent)
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


@pytest.fixture(scope="module")
def jos_trained(multi_root_doc):
    train = Document(
        sentences=[copy_document(multi_root_doc).sentences[0] for _ in range(20)]
    )
    return train_parser(train, TreeSchema.JOS, seed=3, epochs=6)


# annotate does not check parses: the decoder builds a tree of either schema,
# also with scrambled weights, which choose among its valid moves at random
@pytest.mark.parametrize("schema", list(TreeSchema))
def test_parse_always_yields_valid_trees_on_random_input(request, schema):
    fixture = {TreeSchema.UD: "trained", TreeSchema.JOS: "jos_trained"}[schema]
    trained = request.getfixturevalue(fixture)
    assert trained.schema is schema
    rng = random.Random(99)
    scrambled = ParserModel(
        weights={f: {a: rng.uniform(-1, 1) for a in row} for f, row in trained.weights.items()},
        dep_labels=trained.dep_labels, root_labels=trained.root_labels, schema=schema,
    )
    # "X" and the tags of the JOS training sentence, on which that model
    # attaches tokens to the root before the buffer is empty
    tags = [("X", "X"), ("NOUN", "Ncfsn"), ("VERB", "Vmpr3s"), ("ADP", "Sl"), ("PUNCT", "Z")]
    alphabet = "abcdefghijklmnop"
    doc = Document()
    for _ in range(60):
        tokens = []
        for i in range(1, rng.randint(2, 12) + 1):
            form = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 7)))
            upos, xpos = rng.choice(tags)
            tokens.append(Token(id=i, form=form, lemma=form, upos=upos, xpos=xpos))
        doc.sentences.append(Sentence(comments=[], tokens=tokens))
    for model in (trained, scrambled):
        roots = []
        for sent in parse_dependency(doc, model).sentences:
            assert validate_tree(sent, schema) == []
            roots.append(sum(tok.head == 0 for tok in sent.single_tokens()))
        assert (max(roots) > 1) == schema.allows_multiple_roots


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


def test_jos_training_on_multi_root_trees(jos_trained, multi_root_doc):
    sent = multi_root_doc.sentences[0]
    gold = {t.id: (t.head, t.deprel) for t in sent.single_tokens()}
    assert parsed_arcs(jos_trained, sent) == gold


def test_ud_training_rejects_multi_root_gold(multi_root_doc):
    with pytest.raises(TrainingError, match="violates the ud schema"):
        train_parser(multi_root_doc, TreeSchema.UD)


def test_training_rejects_empty():
    with pytest.raises(TrainingError, match="no sentences"):
        train_parser(Document(), TreeSchema.UD)


@pytest.mark.parametrize("schema", list(TreeSchema))
def test_training_rejects_data_without_an_arc_between_tokens(schema):
    # one-token sentences give root labels only; such a model had no move
    # left on a two-token stack with an empty buffer
    one_token = Document(sentences=[sentence([(0, "root")]) for _ in range(3)])
    with pytest.raises(TrainingError, match="an arc between two tokens"):
        train_parser(one_token, schema, epochs=1)


@pytest.mark.parametrize("epochs", [0, -3])
def test_training_refuses_fewer_than_one_epoch(train_doc, epochs):
    message = f"^parser training needs at least one epoch, got {epochs}$"
    with pytest.raises(ConfigurationError, match=message):
        train_parser(train_doc, TreeSchema.UD, epochs=epochs)


def test_training_refuses_a_run_too_long_for_the_weight_fields(monkeypatch):
    # arc-standard takes 2n transitions for n tokens, so an epoch over three
    # five-token sentences is 30; b-bit fields hold runs with steps² < 2**(b - 1)
    arcs = [(2, "a"), (0, "root"), (2, "b"), (5, "a"), (3, "b")]
    doc = Document(sentences=[sentence(arcs) for _ in range(3)])
    wide = train_parser(doc, TreeSchema.UD, epochs=6)
    monkeypatch.setattr(depparse, "_FIELD_BITS", 16)
    fits = math.isqrt((1 << 15) - 1) // 30
    assert fits == 6
    assert train_parser(doc, TreeSchema.UD, epochs=fits).weights == wide.weights
    message = "^7 epochs of 30 transitions overflow the parser's 16-bit weight fields$"
    with pytest.raises(TrainingError, match=message):
        train_parser(doc, TreeSchema.UD, epochs=fits + 1)


class FloatPerceptron:
    """The reference for the packed perceptron: one float per (feature,
    action), averaged lazily through a running total and the step of the
    entry's last change."""

    def __init__(self):
        self.weights = {}
        self.totals = {}
        self.stamps = {}
        self.step = 0

    def bump(self, feat, action, delta):
        row = self.weights.setdefault(feat, {})
        key = (feat, action)
        current = row.get(action, 0.0)
        self.totals[key] = self.totals.get(key, 0.0) + current * (
            self.step - self.stamps.get(key, 0)
        )
        self.stamps[key] = self.step
        row[action] = current + delta

    def predict(self, feats, valid, actions):
        scores = [0.0] * actions
        for feat in feats:
            for action, weight in self.weights.get(feat, {}).items():
                scores[action] += weight
        return max(valid, key=scores.__getitem__)

    def update(self, feats, gold, predicted):
        self.step += 1
        if gold != predicted:
            for feat in feats:
                self.bump(feat, gold, 1.0)
                self.bump(feat, predicted, -1.0)

    def averaged(self, features, names):
        out = {}
        for feat, row in self.weights.items():
            for action, weight in row.items():
                key = (feat, action)
                total = self.totals.get(key, 0.0) + weight * (
                    self.step - self.stamps.get(key, 0)
                )
                if total:
                    out.setdefault(features[feat], {})[names[action]] = total / self.step
        return out


@st.composite
def update_runs(draw):
    """A perceptron size and a run of (feats, valid, gold, predicted) updates."""
    features = draw(st.integers(1, 8))
    actions = draw(st.integers(1, 6))
    action = st.integers(0, actions - 1)
    step = st.tuples(
        st.lists(st.integers(0, features - 1), min_size=1, max_size=5, unique=True),
        st.lists(action, min_size=1, max_size=actions, unique=True).map(sorted),
        action,
        action,
    )
    return features, actions, draw(st.lists(step, min_size=1, max_size=40))


@settings(max_examples=300, deadline=None)
@given(update_runs())
def test_packed_perceptron_matches_the_float_reference(run):
    features, actions, steps = run
    packed, reference = _AveragedPerceptron(features, actions), FloatPerceptron()
    for feats, valid, gold, predicted in steps:
        assert packed.predict(feats, valid) == reference.predict(feats, valid, actions)
        packed.update(feats, gold, predicted)
        reference.update(feats, gold, predicted)
    feature_names = [f"f{i}" for i in range(features)]
    action_names = [f"a{i}" for i in range(actions)]
    assert packed.averaged(feature_names, action_names) == reference.averaged(
        feature_names, action_names
    )


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
    parsed = parsed_arcs(model, sent)
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
        assert parsed_arcs(again, sent) == parsed_arcs(trained, sent)


# Its weights name no labelled action, so emptying either label list leaves
# them valid, and only the empty list itself can refuse the archive.
MINIMAL_SECTIONS = {
    "weights": {"bias": {"shift": 1.0}},
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
        pytest.param("dep_labels", [], id="no-dep-labels"),
        pytest.param("root_labels", [], id="no-root-labels"),
        # labels that would break a CoNLL-U column
        pytest.param("dep_labels", ["a", "b\tc"], id="dep-label-tab"),
        pytest.param("root_labels", ["root\n"], id="root-label-lf"),
        pytest.param("root_labels", ["ro\rot"], id="root-label-cr"),
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
# the archives of the same runs at other epoch counts
UD_ARCHIVE_SHA256_BY_EPOCHS = {
    1: "0bc170bc41acb2adce94c4eb2032221f00a68a355f00796129131322e0b81c88",
    8: "c8fa9c2dedd1a8d6c6f0c16ee7df09cf5e335da1dc3232aade990377aa322689",
}
JOS_ARCHIVE_SHA256_BY_EPOCHS = {
    1: "b719b145c5bfb775aa76d5a358588288d06273b523df7dbb6ef8925ce99dc12e",
    8: "2bf51ee2082fcbb031830214ad8c2d8273ccc9d2acf8146567dcd8f8e44e5ac3",
}


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
    "schema, epochs, archive_sha",
    [
        *((TreeSchema.UD, e, sha) for e, sha in UD_ARCHIVE_SHA256_BY_EPOCHS.items()),
        *((TreeSchema.JOS, e, sha) for e, sha in JOS_ARCHIVE_SHA256_BY_EPOCHS.items()),
    ],
    ids=["ud-1", "ud-8", "jos-1", "jos-8"],
)
def test_golden_archive_at_other_epoch_counts(
    tmp_path, train_doc, multi_root_doc, schema, epochs, archive_sha
):
    if schema is TreeSchema.UD:
        train = train_doc
    else:
        train = Document(sentences=train_doc.sentences[:60] + multi_root_doc.sentences * 10)
    model = train_parser(train, schema, language="sl", seed=13, epochs=epochs)
    path = tmp_path / "parser.slm"
    save_parser(model, path)
    assert _sha256(path.read_bytes()) == archive_sha


@pytest.mark.parametrize("cap", [memo.CAP, 4], ids=["cap", "cap4"])
def test_golden_parse_on_a_warm_model(
    monkeypatch, train_doc, dev_doc, multi_root_doc, vocab, cap
):
    monkeypatch.setattr(memo, "CAP", cap)
    model = train_parser(train_doc, TreeSchema.UD, language="sl", seed=13, epochs=6)
    parse_dependency(make_corpus(103, 30, vocab, id_prefix="warm"), model)
    assert 0 < len(vars(model)["_memo"][2]) <= cap
    dev = Document(sentences=dev_doc.sentences + multi_root_doc.sentences)
    out = serialize_document(parse_dependency(dev, model))
    assert _sha256(out.encode("utf-8")) == UD_PARSE_SHA256


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
    assert parsed_arcs(model, sentence([(None, None)] * 3)) == expected


# --- decoding by value --------------------------------------------------------
# The decoder finds pair rows by their two values, without formatting a
# feature string; a reference that sums ``model.weights`` rows by string must
# give the same parses, also for values that hold the bar the pair features
# join their values with.

BARRED = ["a", "b", "|", "a|b", "a||b", "|b", "a|"]
DECODE_LABELS = ["Z", "a", "root"]


def reference_decode(model, tokens):
    """Greedy decoding by feature strings: each score is 0.0 plus the rows of
    ``model.weights``, one += per (feature, action), in feature order."""
    ctx = depparse._Context(tokens)
    actions = model._actions
    stack, pos, heads, labels = [depparse.ROOT], 0, {}, {}
    while len(stack) > 1 or pos < ctx.n:
        valid = actions.valid(stack, pos < ctx.n)
        move = valid[0]
        if len(valid) > 1:
            s0, s1 = stack[-1], stack[-2]
            feats = [*depparse._BIAS]
            for kind, at in enumerate((s0, s1, pos + 1, pos + 2)):
                feats += depparse._unary(ctx.values[at])[kind]
            scores = [0.0] * len(actions.names)
            for feat in (*feats, *ctx.pairs(s0, s1, pos)):
                for action, weight in model.weights.get(feat, {}).items():
                    scores[actions.index[action]] += weight
            move = max(valid, key=scores.__getitem__)
        pos += depparse._apply(actions.moves[move], stack, pos, heads, labels)
    return [(heads[p], labels[p]) for p in range(1, ctx.n + 1)]


# -1e16 + 1.0 + 1e16 is 0.0 but -1e16 + 1e16 + 1.0 is 1.0: such weights tell
# orders of addition apart
DECODE_WEIGHTS = [1.0, -1.0, 0.5, 0.1, 1e16, -1e16]


@st.composite
def barred_models(draw):
    """A hand-built ``ParserModel`` and sentences whose values hold bars."""
    # few tags, so that tokens of other forms share a memo entry
    form, tag = st.sampled_from(BARRED), st.sampled_from(BARRED[2:5])
    sentences = [
        [Token(id=i, form=f, upos=u, xpos=x) for i, (f, u, x) in enumerate(values, 1)]
        for values in draw(st.lists(
            st.lists(st.tuples(form, tag, tag), max_size=8), min_size=1, max_size=3
        ))
    ]
    dep_labels = draw(st.lists(st.sampled_from(DECODE_LABELS), min_size=1, unique=True))
    root_labels = draw(st.lists(st.sampled_from(DECODE_LABELS), min_size=1, unique=True))
    schema = draw(st.sampled_from(TreeSchema))
    names = depparse._Actions(dep_labels, root_labels, schema).names
    # every feature string the sentences can be scored with, and strings
    # that look like pair features but lack the "=" or the bar
    feats = set(depparse._BIAS)
    for tokens in sentences:
        ctx = depparse._Context(tokens)
        for values in ctx.values:
            feats.update(f for u in depparse._unary(values) for f in u)
        at = range(ctx.n + 1)
        feats.update(f for s0 in at for s1 in at for pos in at for f in ctx.pairs(s0, s1, pos))
    near_misses = [
        f"{name}{sep}{v}"
        for name in depparse._PAIR_TEMPLATES
        for sep in ("=", "", "|")
        for v in BARRED
    ]
    feats.update(draw(st.lists(st.sampled_from(near_misses), max_size=6)))
    rnd = draw(st.randoms(use_true_random=True))
    weights = {
        feat: {
            action: rnd.choice(DECODE_WEIGHTS) if rnd.random() < 0.9 else rnd.uniform(-5, 5)
            for action in rnd.sample(names, rnd.randint(1, min(3, len(names))))
        }
        for feat in sorted(feats)
        if rnd.random() < 0.5
    }
    model = ParserModel(
        weights=weights, dep_labels=dep_labels, root_labels=root_labels, schema=schema
    )
    return model, sentences


@settings(max_examples=300, deadline=None)
@given(barred_models())
def test_decode_by_value_matches_the_string_keyed_reference(drawn):
    model, sentences = drawn
    expected = [reference_decode(model, tokens) for tokens in sentences]
    assert [depparse._decode(model, tokens) for tokens in sentences] == expected  # cold
    assert [depparse._decode(model, tokens) for tokens in sentences] == expected  # warm
    capped = dataclasses.replace(model)
    with mock.patch.object(memo, "CAP", 2):
        assert [depparse._decode(capped, tokens) for tokens in sentences] == expected
        assert len(vars(capped)["_memo"][2]) <= 2
