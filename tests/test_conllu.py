import dataclasses
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from slavpipe.conllu import (
    Document,
    Sentence,
    Token,
    Violation,
    canonical_feats,
    copy_document,
    misc_keep_keys,
    misc_set,
    misc_value,
    parse_document,
    sentence_text,
    serialize_document,
    serialize_sentences,
    set_comment,
    strip_annotations,
    surface_tokens,
    text_layout,
    validate_document,
)
from slavpipe.errors import ConlluParseError, DataError

from support import large_corpus_text, random_document, traced

SIMPLE = (
    "# sent_id = 1\n"
    "# text = Pes teče.\n"
    "1\tPes\tpes\tNOUN\tNcmsn\tCase=Nom\t2\tnsubj\t_\t_\n"
    "2\tteče\tteči\tVERB\tVmpr3s\t_\t0\troot\t_\tSpaceAfter=No\n"
    "3\t.\t.\tPUNCT\tZ\t_\t2\tpunct\t_\t_\n"
    "\n"
)


def test_parse_simple_sentence():
    doc = parse_document(SIMPLE)
    assert len(doc.sentences) == 1
    sent = doc.sentences[0]
    assert sent.sent_id == "1"
    assert sent.text == "Pes teče."
    assert [t.form for t in sent.tokens] == ["Pes", "teče", "."]
    assert sent.tokens[0].head == 2
    assert sent.tokens[1].space_after is False


def test_roundtrip_is_byte_identical():
    assert serialize_document(parse_document(SIMPLE)) == SIMPLE


def test_roundtrip_random_documents():
    rng = random.Random(5)
    for _ in range(50):
        doc = random_document(rng)
        text = serialize_document(doc)
        assert serialize_document(parse_document(text)) == text


def test_the_sentence_chunks_are_the_document_text_sentence_by_sentence():
    rng = random.Random(11)
    for _ in range(50):
        doc = random_document(rng)
        chunks = list(serialize_sentences(doc))
        assert "".join(chunks) == serialize_document(doc)
        assert len(chunks) == len(doc.sentences)
        for chunk, sent in zip(chunks, doc.sentences):
            assert parse_document(chunk).sentences == [sent]
    assert list(serialize_sentences(Document())) == [] and serialize_document(Document()) == ""


def test_empty_input_rejected():
    with pytest.raises(ConlluParseError, match="no sentences"):
        parse_document("")


def test_missing_trailing_blank_line_rejected():
    with pytest.raises(ConlluParseError):
        parse_document(SIMPLE.rstrip("\n") + "\n")


def test_carriage_returns_rejected():
    with pytest.raises(ConlluParseError, match="carriage"):
        parse_document(SIMPLE.replace("\n", "\r\n"))


def test_wrong_column_count_names_line():
    broken = SIMPLE.replace("2\tteče\tteči\tVERB\tVmpr3s\t_\t0\troot\t_\tSpaceAfter=No", "2\tteče")
    with pytest.raises(ConlluParseError, match="line 4"):
        parse_document(broken)


def test_noncontiguous_ids_rejected():
    with pytest.raises(ConlluParseError, match="expected 2"):
        parse_document("1\ta\t_\t_\t_\t_\t_\t_\t_\t_\n3\tb\t_\t_\t_\t_\t_\t_\t_\t_\n\n")


def test_comment_after_token_rejected():
    bad = (
        "1\ta\t_\t_\t_\t_\t_\t_\t_\t_\n"
        "# text = a\n"
        "2\tb\t_\t_\t_\t_\t_\t_\t_\t_\n\n"
    )
    with pytest.raises(ConlluParseError, match="comment"):
        parse_document(bad)


def test_range_token_must_cover_following_words():
    ok = (
        "1-2\tdela\t_\t_\t_\t_\t_\t_\t_\t_\n"
        "1\tdel\t_\t_\t_\t_\t_\t_\t_\t_\n"
        "2\ta\t_\t_\t_\t_\t_\t_\t_\t_\n\n"
    )
    doc = parse_document(ok)
    assert doc.sentences[0].tokens[0].is_range
    assert [t.form for t in surface_tokens(doc.sentences[0])] == ["dela"]

    truncated = (
        "1-2\tdela\t_\t_\t_\t_\t_\t_\t_\t_\n"
        "1\tdel\t_\t_\t_\t_\t_\t_\t_\t_\n\n"
    )
    with pytest.raises(ConlluParseError, match="range"):
        parse_document(truncated)


def _token(tid: str) -> Token:
    lo, sep, hi = tid.partition("-")
    return Token(id=(int(lo), int(hi)) if sep else int(lo), form="w")


# (token ids of one sentence after a comment line, rule, parser message, its line)
STRUCTURE_CASES = [
    ([], "empty-sentence", "sentence has no token lines", 2),
    (["1", "3"], "id-contiguity", "non-contiguous token id 3 (expected 2)", 3),
    (["1", "2-2", "2"], "range-empty", "empty token range '2-2'", 3),
    (["1", "1-2", "2"], "range-position",
     "range token 1-2 does not start at the next single token id 2", 3),
    (["1-3", "1", "2-3", "2", "3"], "range-overlap", "range token 2-3 overlaps range 1-3", 4),
    (["1-2", "1"], "range-coverage",
     "range token 1-2 covers tokens missing from the sentence", 2),
]


@pytest.mark.parametrize("ids, rule, message, line", STRUCTURE_CASES,
                         ids=[case[1] for case in STRUCTURE_CASES])
def test_each_structure_rule_refused_by_the_parser_at_its_line(ids, rule, message, line):
    sent = Sentence(comments=["# sent_id = s"], tokens=[_token(t) for t in ids])
    with pytest.raises(ConlluParseError) as caught:
        parse_document(serialize_document(Document(sentences=[sent])))
    assert str(caught.value) == f"line {line}: {message}"


@pytest.mark.parametrize("ids, rule, message, line", STRUCTURE_CASES,
                         ids=[case[1] for case in STRUCTURE_CASES])
def test_each_structure_rule_reported_by_the_validator(ids, rule, message, line):
    sent = Sentence(comments=["# sent_id = s"], tokens=[_token(t) for t in ids])
    assert [(v.rule, v.message) for v in validate_document(Document(sentences=[sent]))] == [
        (rule, message)
    ]


def test_a_sentence_reports_every_structure_problem_in_token_order():
    # 1-3 is never covered, 2-2 is empty and inside it, and token 2 comes twice
    sent = Sentence(tokens=[_token(t) for t in ["1-3", "1", "2-2", "2", "2"]])
    assert [(v.token_id, v.rule) for v in validate_document(Document(sentences=[sent]))] == [
        ("1-3", "range-coverage"), ("2-2", "range-empty"), ("2-2", "range-overlap"),
        (None, "id-contiguity"),
    ]
    with pytest.raises(ConlluParseError, match="line 1: range token 1-3 covers"):
        parse_document(serialize_document(Document(sentences=[sent])))


_STRUCTURE_RULES = {"empty-sentence", "id-contiguity", "range-empty", "range-position",
                    "range-overlap", "range-coverage"}


@st.composite
def near_valid_sentences(draw):
    """Single ids 1..n, sometimes one of them changed, with up to two ranges
    anywhere whose bounds lie around the ids; or a sentence of comments only."""
    comments = draw(st.lists(
        st.text(st.characters(exclude_characters="\t\n\r"), max_size=4).map("#".__add__),
        max_size=2,
    ))
    if comments and draw(st.integers(0, 4)) == 0:
        return Sentence(comments=comments)
    n = draw(st.integers(0, 5))
    ids: list = list(range(1, n + 1))
    if n and draw(st.booleans()):
        ids[draw(st.integers(0, n - 1))] = draw(st.integers(0, n + 2))
    for _ in range(draw(st.integers(0, 2))):
        lo = draw(st.integers(0, n + 1))
        ids.insert(draw(st.integers(0, len(ids))), (lo, draw(st.integers(lo - 1, n + 2))))
    forms = st.text(st.characters(exclude_characters="\t\n\r"), max_size=3)
    return Sentence(comments=comments, tokens=[Token(id=i, form=draw(forms)) for i in ids])


@settings(max_examples=400)
@given(st.lists(near_valid_sentences(), min_size=1, max_size=3).map(
    lambda sentences: Document(sentences=sentences)))
def test_the_parser_refuses_exactly_what_the_validator_reports_as_structure(doc):
    structural = any(v.rule in _STRUCTURE_RULES for v in validate_document(doc))
    try:
        parse_document(serialize_document(doc))
    except ConlluParseError:
        assert structural
    else:
        assert not structural


def test_range_annotations_flagged_by_validator():
    text = (
        "1-2\tdela\t_\tNOUN\t_\t_\t_\t_\t_\t_\n"
        "1\tdel\t_\t_\t_\t_\t_\t_\t_\t_\n"
        "2\ta\t_\t_\t_\t_\t_\t_\t_\t_\n\n"
    )
    doc = parse_document(text)
    assert any(v.rule == "range-annotations" for v in validate_document(doc))


def test_validator_flags_head_out_of_range():
    doc = parse_document("1\ta\t_\t_\t_\t_\t5\tdep\t_\t_\n\n")
    assert any(v.rule == "head-target" for v in validate_document(doc))


def test_validator_flags_text_mismatch():
    doc = parse_document("# text = b\n1\ta\t_\t_\t_\t_\t_\t_\t_\t_\n\n")
    rules = {v.rule for v in validate_document(doc)}
    assert "text-mismatch" in rules


def test_validator_flags_unsorted_feats():
    doc = parse_document("1\ta\t_\t_\t_\tGender=Fem|Case=Nom\t_\t_\t_\t_\n\n")
    assert any(v.rule == "feats-order" for v in validate_document(doc))


def test_validator_reports_each_fixture_in_order():
    bad_feats = parse_document("1\ta\t_\t_\t_\tGender=Fem|Case=Nom\t_\t_\t_\t_\n\n")
    bad_text = parse_document("# text = b\n1\ta\t_\t_\t_\t_\t_\t_\t_\t_\n\n")
    bad_head = parse_document("1\ta\t_\t_\t_\t_\t5\tdep\t_\t_\n\n")
    order = "feature keys are not in case-insensitive alphabetical order"
    assert validate_document(bad_feats) == [Violation(0, None, "1", "feats-order", order)]
    assert validate_document(bad_text) == [
        Violation(0, None, None, "text-mismatch", "text comment 'b' != reconstructed 'a'")
    ]
    assert validate_document(bad_head) == [
        Violation(0, None, "1", "head-target", "head 5 is not 0 or a token id in this sentence")
    ]


def test_validator_reports_many_violations_in_document_order():
    doc = parse_document(
        "# sent_id = s1\n# text = x\n"
        "1-2\tdela\t_\tNOUN\t_\t_\t_\t_\t_\t_\n"
        "1\tdel\t_\t_\t_\tB=1|B=2|A=3|junk\t9\t_\t_\t_\n"
        "2\ta\t_\t_\t_\tCase=Nom\t0\t_\t_\t_\n\n"
        "1\tb\t_\t_\t_\t_\t3\t_\t_\t_\n\n"
    )
    doc.sentences[1].tokens[0].id = 2
    assert [(v.sentence_index, v.sentence_id, v.token_id, v.rule)
            for v in validate_document(doc)] == [
        (0, "s1", "1-2", "range-annotations"),
        (0, "s1", "1", "feats-format"),
        (0, "s1", "1", "feats-unique"),
        (0, "s1", "1", "feats-order"),
        (0, "s1", "1", "head-target"),
        (0, "s1", None, "text-mismatch"),
        (1, None, None, "id-contiguity"),
    ]


def test_validator_accepts_clean_fixture(nonstandard_doc):
    assert validate_document(nonstandard_doc) == []


def test_text_reconstruction_with_ranges(nonstandard_doc):
    sent = nonstandard_doc.sentences[0]
    assert sentence_text(sent) == sent.text
    assert text_layout(nonstandard_doc)[0].startswith("mislm sej mam")


def surface_definition(sent):
    """The reference definition: the forms of surface_tokens joined by their spaces."""
    surface = surface_tokens(sent)
    return "".join(
        tok.form + (" " if i + 1 < len(surface) and tok.space_after else "")
        for i, tok in enumerate(surface)
    )


def test_sentence_text_follows_the_surface_tokens(nonstandard_doc):
    sentences = list(nonstandard_doc.sentences)
    rng = random.Random(11)
    for _ in range(100):
        sentences.extend(random_document(rng).sentences)
    # a range without a space after it, over words whose own marks do not count
    sentences.append(parse_document(
        "1\tNe\t_\t_\t_\t_\t_\t_\t_\t_\n"
        "2-3\tdela\t_\t_\t_\t_\t_\t_\t_\tSpaceAfter=No\n"
        "2\tdel\t_\t_\t_\t_\t_\t_\t_\tSpaceAfter=No\n"
        "3\ta\t_\t_\t_\t_\t_\t_\t_\t_\n"
        "4\t!\t_\t_\t_\t_\t_\t_\t_\tSpaceAfter=No\n\n"
    ).sentences[0])
    assert any(t.is_range and not t.space_after for s in sentences for t in s.tokens)
    for sent in sentences:
        assert sentence_text(sent) == surface_definition(sent)
    assert sentence_text(sentences[-1]) == "Ne dela!"


def test_form_with_internal_space_survives(nonstandard_doc):
    forms = [t.form for t in nonstandard_doc.sentences[1].tokens]
    assert "parla ment" in forms
    text = serialize_document(nonstandard_doc)
    assert serialize_document(parse_document(text)) == text


def test_strip_annotations_keeps_shape_and_space_after():
    doc = parse_document(SIMPLE)
    stripped = strip_annotations(doc)
    sent = stripped.sentences[0]
    assert [t.form for t in sent.tokens] == ["Pes", "teče", "."]
    assert all(t.lemma is None and t.upos is None and t.head is None for t in sent.tokens)
    assert sent.tokens[1].space_after is False
    assert sent.text == "Pes teče."
    # gold document is untouched
    assert doc.sentences[0].tokens[0].lemma == "pes"


def test_copy_document_is_deep():
    doc = parse_document(SIMPLE)
    dup = copy_document(doc)
    dup.sentences[0].tokens[0].form = "X"
    assert doc.sentences[0].tokens[0].form == "Pes"


_FIELD_VALUES = st.one_of(st.none(), st.text(max_size=3), st.integers(-2, 9),
                          st.tuples(st.integers(1, 9), st.integers(1, 9)))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.lists(_FIELD_VALUES, min_size=len(dataclasses.fields(Token)),
                                  max_size=len(dataclasses.fields(Token))), max_size=4),
                max_size=3))
def test_copy_document_copies_every_field_and_shares_no_token(rows):
    doc = Document(sentences=[
        Sentence(comments=[f"# sent_id = {i}"], tokens=[Token(*values) for values in sent])
        for i, sent in enumerate(rows)
    ])
    dup = copy_document(doc)
    assert dup == doc
    originals = {id(t) for s in doc.sentences for t in s.tokens}
    for sent, copied in zip(doc.sentences, dup.sentences):
        assert copied is not sent and copied.comments is not sent.comments
        assert copied.tokens is not sent.tokens
        for tok, new in zip(sent.tokens, copied.tokens):
            assert id(new) not in originals and type(new) is Token
            assert all(getattr(new, f.name) is getattr(tok, f.name)
                       for f in dataclasses.fields(Token))
            assert vars(new) == vars(tok) and list(vars(new)) == list(vars(tok))


def test_every_token_field_survives_serialization():
    token = Token(id=1, form="form", lemma="lemma", upos="UPOS", xpos="Xpos",
                  feats="Case=Nom", head=0, deprel="root", deps="0:root", misc="M=1")
    values = [getattr(token, f.name) for f in dataclasses.fields(Token)]
    assert None not in values and len(set(map(repr, values))) == len(values)
    doc = Document(sentences=[Sentence(comments=["# sent_id = 1"], tokens=[token])])
    assert parse_document(serialize_document(doc)).sentences[0].tokens == [token]


def test_empty_optional_column_serializes_as_empty():
    token = Token(id=1, form="a", lemma="", misc="")
    text = serialize_document(Document(sentences=[Sentence(tokens=[token])]))
    assert text == "1\ta\t\t_\t_\t_\t_\t_\t_\t\n\n"
    assert parse_document(text).sentences[0].tokens == [token]


_cell = st.text(alphabet="0123456789-_=|#aZ \u00b2\u0661", max_size=5)
_line = st.one_of(
    st.just(""),
    st.text(max_size=10).map(lambda t: "# " + t),
    st.lists(_cell, min_size=9, max_size=11).map("\t".join),
)


@given(st.one_of(st.text(), st.lists(_line, max_size=10).map(lambda ls: "\n".join(ls) + "\n")))
@example("1\ta\t_\t_\t_\t_\t\u00b2\t_\t_\t_\n\n")  # isdigit, yet not int()-able
@example("\u00b2\ta\t_\t_\t_\t_\t_\t_\t_\t_\n\n")
def test_parse_document_raises_only_data_errors(text):
    try:
        doc = parse_document(text)
    except DataError:
        return
    assert serialize_document(doc) == text


def ref_misc_value(misc, key):
    for part in misc.split("|") if misc else []:
        k, sep, v = part.partition("=")
        if k == key:
            return v if sep else ""
    return None


def ref_misc_set(misc, key, value):
    parts = misc.split("|") if misc else []
    entry = f"{key}={value}"
    for i, part in enumerate(parts):
        if part.partition("=")[0] == key:
            parts[i] = entry
            return "|".join(parts)
    return "|".join(parts + [entry])


_misc_key = st.sampled_from(["SpaceAfter", "XSpaceAfter", "SpaceAfterX", "Space", "Foo", "A", ""])
_misc_value = st.sampled_from(["No", "Yes", "SpaceAfter", "Foo", "", "a=b"])
_misc_entry = st.one_of(
    _misc_key,
    st.builds(lambda k, v: f"{k}={v}", _misc_key, _misc_value),
    st.sampled_from(["", "=", "=SpaceAfter", "Foo=SpaceAfter"]),
)
_misc = st.one_of(st.none(), st.lists(_misc_entry, max_size=5).map("|".join))


@given(_misc, _misc_key, _misc_value)
def test_misc_helpers_match_a_split_reference(misc, key, value):
    assert misc_value(misc, key) == ref_misc_value(misc, key)
    assert misc_set(misc, key, value) == ref_misc_set(misc, key, value)


_key = st.text(st.characters(whitelist_categories=("Lu", "Ll")), min_size=1, max_size=8)
_value = st.text(st.characters(whitelist_categories=("Lu", "Ll", "Nd")), min_size=1, max_size=8)


@given(st.dictionaries(_key, _value, min_size=1, max_size=5), st.randoms())
def test_feats_roundtrip_canonical(mapping, rnd):
    entries = [f"{k}={v}" for k, v in mapping.items()]
    rnd.shuffle(entries)
    rendered = canonical_feats("|".join(entries))
    assert dict(p.split("=") for p in rendered.split("|")) == mapping
    keys = [p.split("=")[0] for p in rendered.split("|")]
    assert keys == sorted(keys, key=str.lower)
    assert canonical_feats(rendered) == rendered


def _feats_problems(feats):
    doc = Document(sentences=[Sentence(tokens=[Token(id=1, form="a", feats=feats)])])
    return [v for v in validate_document(doc) if v.rule.startswith("feats-")]


@given(st.text(alphabet="=|aAbB_\t", max_size=12))
@example("Case=Nom|")
@example("|Case=Nom")
@example("=|Case=Nom")
@example("Case")
@example("Case=Nom|Case=Acc")
@example("b=1|A=2")
@example("")
def test_canonical_feats_passes_the_feats_rules_and_keeps_what_they_accept(feats):
    canonical = canonical_feats(feats)
    assert canonical is None or _feats_problems(canonical) == []
    if _feats_problems(feats) == []:
        assert canonical == feats


@pytest.mark.parametrize(
    "feats, canonical",
    [
        ("Case=Nom|", "Case=Nom"),  # the trailing "|" leaves an entry with an empty key
        ("=x|Number=Sing|Case=Nom", "Case=Nom|Number=Sing"),
        ("Case", "Case="),
        ("Case=Nom|Case=Acc", "Case=Acc"),
        ("|", None),
        ("", None),
        (None, None),
    ],
)
def test_canonical_feats_examples(feats, canonical):
    assert canonical_feats(feats) == canonical


@given(_key, _value)
def test_misc_set_then_get(key, value):
    misc = misc_set("SpaceAfter=No", key, value)
    assert misc_value(misc, key) == value
    assert misc_value(misc, "SpaceAfter") == ("No" if key != "SpaceAfter" else value)


def test_misc_set_replaces_existing():
    misc = misc_set("A=1|B=2", "A", "3")
    assert misc == "A=3|B=2"


def test_misc_keep_keys():
    assert misc_keep_keys("SpaceAfter=No|NER=B-LOC", {"SpaceAfter"}) == "SpaceAfter=No"
    assert misc_keep_keys("NER=B-LOC", {"SpaceAfter"}) is None


def test_document_token_count(nonstandard_doc):
    # ranges do not count, their covered words do
    assert len(nonstandard_doc.single_tokens()) == 26 + 8


def test_document_text_joins_sentences():
    doc = Document(
        sentences=[
            Sentence(comments=[], tokens=[Token(id=1, form="A")]),
            Sentence(comments=[], tokens=[Token(id=1, form="B")]),
        ]
    )
    assert text_layout(doc)[0] == "A B"
    doc.sentences[0].tokens[0].misc = "SpaceAfter=No"
    assert text_layout(doc)[0] == "AB"
    # a sentence without tokens is one space, and no span
    doc.sentences[0].tokens[0].misc = None
    doc.sentences.insert(1, Sentence(comments=[], tokens=[]))
    assert text_layout(doc) == ("A  B", [(0, 1), (3, 4)], [(0, 1), (3, 4)])


# --- comments ----------------------------------------------------------------


def test_comment_reads_the_first_key_value_comment():
    sent = Sentence(comments=["# note", "# sent_id = a = b", "# text = ", "# sent_id = c"])
    assert sent.comment("sent_id") == sent.sent_id == "a = b"
    assert sent.comment("text") == sent.text == ""
    assert sent.comment("note") is None and sent.comment("source") is None


def test_an_empty_sent_id_is_none():
    sent = Sentence(comments=["# sent_id = ", "# sent_id = later"])
    assert sent.comment("sent_id") == ""
    assert sent.sent_id is None


def test_set_comment_replaces_the_first_or_appends():
    sent = Sentence(comments=["# sent_id = 1", "# text = a", "# text = b"])
    set_comment(sent, "text", "c")
    set_comment(sent, "source", "web")
    assert sent.comments == ["# sent_id = 1", "# text = c", "# text = b", "# source = web"]


@pytest.mark.parametrize("comment", ["", "x", " # x", "#a\nb", "#a\n#b", "#a\rb", "#a\n"])
def test_validator_flags_a_comment_that_is_not_one_comment_line(comment):
    doc = parse_document(SIMPLE)
    doc.sentences[0].comments.insert(1, comment)
    assert validate_document(doc) == [
        Violation(0, "1", None, "comment-format",
                  f"comment {comment!r} is not one line starting with '#'")
    ]


def _round_trips(doc):
    try:
        return parse_document(serialize_document(doc)) == doc
    except DataError:
        return False


@given(st.lists(st.text(alphabet="#a1 \t\n\r", max_size=6), max_size=3))
@example(["#a\n#b"])  # two comment lines that read back as two comments
@example(["#a\n1\ta\t_\t_\t_\t_\t_\t_\t_\t_"])  # a token line that reads back
def test_comments_pass_the_validator_exactly_when_they_round_trip(comments):
    doc = parse_document(SIMPLE)
    doc.sentences[0].comments = comments
    reported = {v.rule for v in validate_document(doc)}
    assert reported <= {"comment-format"}
    assert (not reported) == _round_trips(doc)


@pytest.mark.parametrize("column", ["form", "lemma", "upos", "xpos", "feats", "deprel",
                                    "deps", "misc"])
@pytest.mark.parametrize("value", ["a\tb", "a\n", "\rb"])
def test_validator_flags_a_column_holding_a_tab_or_a_line_break(column, value):
    doc = parse_document(SIMPLE)
    tok = doc.sentences[0].tokens[0]
    setattr(tok, column, value)
    assert Violation(0, "1", "1", "column-format",
                     f"{column} {value!r} holds a tab or a line break") in validate_document(doc)


@given(st.sampled_from(["form", "lemma", "upos", "xpos", "deprel", "deps", "misc"]),
       st.text(alphabet="a1 =\t\n\r", max_size=6))
def test_a_column_passes_the_column_rule_exactly_when_it_round_trips(column, value):
    doc = parse_document(SIMPLE)
    setattr(doc.sentences[0].tokens[-1], column, value)
    reported = {v.rule for v in validate_document(doc)}
    assert ("column-format" not in reported) == _round_trips(doc)


# --- shared column values ---------------------------------------------------


def test_equal_column_values_of_one_parse_are_one_object():
    text = (
        "1\t_\t_\t_\tNcfsn\tCase=Nom\t0\troot\t_\tSpaceAfter=No\n"
        "2\tpsa\tpes\tNOUN\tNcmsg\tCase=Gen\t1\tnmod\t_\tSpaceAfter=No\n\n"
        "1\tpes\tpes\tNOUN\tNcfsn\tCase=Gen\t0\troot\t0:root\t_\n\n"
    )
    doc = parse_document(text)
    a, b, c = (*doc.sentences[0].tokens, *doc.sentences[1].tokens)
    assert (a.form, a.lemma, a.upos, a.deps) == ("_", None, None, None)
    assert b.lemma is c.form is c.lemma
    assert b.upos is c.upos and a.xpos is c.xpos and b.feats is c.feats
    assert a.misc is b.misc and a.deprel is c.deprel
    assert serialize_document(doc) == text


def test_a_parsed_corpus_retains_under_400_bytes_a_token():
    # a fresh string per column kept 485-587 bytes a token on Python 3.10-3.13
    text = large_corpus_text()
    doc, retained, _ = traced(lambda: parse_document(text))
    tokens = sum(len(s.tokens) for s in doc.sentences)
    assert tokens > 17000
    assert retained / tokens < 400
