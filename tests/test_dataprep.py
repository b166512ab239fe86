import hashlib
import random
from decimal import Decimal

import pytest
from hypothesis import given, strategies as st

from slavpipe.conllu import (
    Document,
    Sentence,
    Token,
    copy_document,
    sentence_text,
    serialize_document,
    set_comment,
)
from slavpipe.dataprep import (
    Recipe,
    RecipeComponent,
    RecipeReport,
    _copy_plan,
    build_recipe_dataset,
    compute_repetition_ratio,
    dediacritize_text,
    default_diacritic_map,
    load_diacritic_map,
    load_recipe,
    parse_recipe,
    round_half_up,
    split_document,
)
from slavpipe.errors import ConfigurationError, DataError, RecipeError

from support import make_corpus


def small_doc(n_sentences, tokens_per_sentence=5, prefix="d", source=None):
    doc = Document()
    for i in range(n_sentences):
        comments = [f"# sent_id = {prefix}.{i + 1}"]
        if source is not None:
            comments.append(f"# source = {source}")
        toks = [
            Token(id=j, form=f"šola{i}x{j}", misc="SpaceAfter=No" if j == tokens_per_sentence else None)
            for j in range(1, tokens_per_sentence + 1)
        ]
        comments.append("# text = " + " ".join(t.form for t in toks))
        doc.sentences.append(Sentence(comments=comments, tokens=toks))
    return doc


# --- arithmetic -------------------------------------------------------------


def test_round_half_up_breaks_ties_upward():
    assert round_half_up(Decimal("0.5")) == 1
    assert round_half_up(Decimal("1.5")) == 2
    assert round_half_up(Decimal("2.5")) == 3
    assert round_half_up(Decimal("-0.5")) == -1
    assert round_half_up(Decimal("0.25"), 1) == Decimal("0.3")
    assert round_half_up(Decimal("0.24"), 1) == Decimal("0.2")


def test_repetition_ratio_values():
    assert compute_repetition_ratio(47, 10) == Decimal("4.7")
    assert compute_repetition_ratio(1025639, 222132) == Decimal("4.6")
    assert compute_repetition_ratio(499635, 89855) == Decimal("5.6")
    assert compute_repetition_ratio(499635, 97673) == Decimal("5.1")
    assert compute_repetition_ratio(1, 10) == Decimal("0.1")


def test_repetition_ratio_needs_tokens():
    with pytest.raises(RecipeError, match="empty corpus"):
        compute_repetition_ratio(100, 0)


# --- diacritics -------------------------------------------------------------


def test_default_maps_cover_the_usual_characters():
    sl = default_diacritic_map("sl")
    assert dediacritize_text("hoče šel človek", sl) == "hoce sel clovek"
    assert dediacritize_text("Čas Žar Šum", sl) == "Cas Zar Sum"
    hr = default_diacritic_map("hr")
    assert dediacritize_text("ćup đak Đuro", hr) == "cup djak Djuro"
    sr = default_diacritic_map("sr")
    assert dediacritize_text("đavo", sr) == "djavo"


def test_default_map_unknown_language():
    with pytest.raises(ConfigurationError, match="no diacritic replacement map"):
        default_diacritic_map("mk")


def test_load_diacritic_map(tmp_path):
    path = tmp_path / "x.map"
    path.write_text("č\tc\nđ\tdj\n\n", encoding="utf-8")
    assert load_diacritic_map(path) == {"č": "c", "đ": "dj"}


def test_load_diacritic_map_rejects_bad_lines(tmp_path):
    path = tmp_path / "bad.map"
    path.write_text("ok\tc\n", encoding="utf-8")
    with pytest.raises(DataError, match="line 1"):
        load_diacritic_map(path)


def _recipe_copies(doc, reps, dedia="0"):
    recipe = Recipe(components=(RecipeComponent("c", reps, dediacritize_repetitions=dedia),))
    dataset, _ = build_recipe_dataset(recipe, {"c": doc}, default_diacritic_map("sl"))
    return dataset.sentences


def test_dediacritize_document_updates_text_comments():
    doc = small_doc(2)
    out = _recipe_copies(doc, "2", dedia="1")
    # the first copy keeps its diacritics, the second loses them everywhere
    assert [s.text for s in out[:2]] == [s.text for s in doc.sentences]
    assert all("š" in s.tokens[0].form for s in out[:2])
    for sent in out[2:]:
        assert all("š" not in t.form for t in sent.tokens)
        assert sent.text == sentence_text(sent)
        assert "š" not in sent.text
    # input untouched
    assert "š" in doc.sentences[0].tokens[0].form
    assert "š" in doc.sentences[0].text


# --- oversampling -----------------------------------------------------------


def test_oversample_whole_and_fractional():
    out = _recipe_copies(small_doc(10), "2.3")
    assert len(out) == 23
    ids = [s.sent_id for s in out]
    assert ids[0] == "d.1-r1"
    assert ids[10] == "d.1-r2"
    assert ids[20] == "d.1-r3"
    assert ids[22] == "d.3-r3"
    assert len(set(ids)) == 23


def test_oversample_validates_repetitions():
    with pytest.raises(RecipeError, match="more than one fractional digit"):
        parse_recipe("component id=c reps=1.25\n")
    with pytest.raises(RecipeError, match="below the minimum"):
        parse_recipe("component id=c reps=0\n")
    with pytest.raises(RecipeError, match="not a decimal"):
        parse_recipe("component id=c reps=lots\n")


@pytest.mark.parametrize("key", ["reps", "dedia", "fraction"])
@pytest.mark.parametrize("value", ["nan", "inf", "Infinity", "snan", "-inf", "abc", "0.5.5"])
def test_recipe_numbers_must_be_finite_decimals(key, value):
    fields = {"id": "c", "reps": "2", key: value}
    line = " ".join(["component", *(f"{k}={v}" for k, v in fields.items())])
    with pytest.raises(RecipeError, match=f"{value!r} is not a decimal number"):
        parse_recipe(line + "\n")


def test_oversample_copies_are_independent():
    doc = small_doc(1)
    out = _recipe_copies(doc, "2")
    out[0].tokens[0].form = "changed"
    out[0].comments.append("# note = changed")
    assert out[1].tokens[0].form != "changed"
    assert doc.sentences[0].tokens[0].form != "changed"
    assert "# note = changed" not in out[1].comments + doc.sentences[0].comments


@given(
    n=st.integers(min_value=1, max_value=200),
    tenths=st.integers(min_value=1, max_value=60),
)
def test_oversample_count_matches_the_ratio(n, tenths):
    reps = Decimal(tenths) / 10
    doc = Document(
        sentences=[
            Sentence(comments=[f"# sent_id = s{i}"], tokens=[Token(id=1, form="x")])
            for i in range(n)
        ]
    )
    recipe = Recipe(components=(RecipeComponent("c", reps),))
    out, report = build_recipe_dataset(recipe, {"c": doc})
    full = tenths // 10
    frac = Decimal(tenths % 10) / 10
    expected = full * n + int(round_half_up(frac * n))
    assert report.components[0].sentences_emitted == len(out.sentences) == expected
    ids = [s.sent_id for s in out.sentences]
    assert len(set(ids)) == len(ids)
    # once a tenth of the corpus is at least one sentence, the emitted count
    # re-derived as a ratio rounds back to (nearly) the request
    if expected and n >= 10:
        assert abs(compute_repetition_ratio(expected, n) - reps) <= Decimal("0.1")


@given(
    n=st.integers(min_value=0, max_value=40),
    tenths=st.integers(min_value=1, max_value=60),
    data=st.data(),
)
def test_the_copy_plan_decides_which_copies_lose_their_diacritics(n, tenths, data):
    reps = Decimal(tenths) / 10
    dedia = Decimal(data.draw(st.integers(min_value=0, max_value=max(tenths - 10, 0)))) / 10
    doc = Document()
    for i in range(n):
        sent = Sentence(comments=[f"# sent_id = s{i}"], tokens=[Token(1, f"š{i}"), Token(2, "č")])
        set_comment(sent, "text", sentence_text(sent))
        doc.sentences.append(sent)
    recipe = Recipe(components=(RecipeComponent("c", reps, dediacritize_repetitions=dedia),))
    out, report = build_recipe_dataset(recipe, {"c": doc}, default_diacritic_map("sl"))

    plan = _copy_plan(n, reps)
    assert [int(s.sent_id.rpartition("-r")[2]) for s in out.sentences] == [
        copy for copy, count in enumerate(plan, start=1) for _ in range(count)
    ]
    # copies 2 .. 1 + whole(dedia) in full, then a prefix of the next copy
    whole = int(dedia)
    prefix = int(round_half_up((dedia - whole) * n))
    dediacritized = 0
    for sent in out.sentences:
        copy = int(sent.sent_id.rpartition("-r")[2])
        position = int(sent.sent_id[1:].partition("-")[0])
        expected = 2 <= copy <= 1 + whole or (copy == 2 + whole and position < prefix)
        assert [t.form for t in sent.tokens] == (
            [f"s{position}", "c"] if expected else [f"š{position}", "č"]
        )
        assert sent.text == sentence_text(sent)
        dediacritized += 2 * expected
    assert report.components[0].dediacritized_tokens == dediacritized


# --- splits -----------------------------------------------------------------


def test_split_document_fractions():
    doc = small_doc(10)
    a, b = split_document(doc, ["0.8", "0.2"])
    assert len(a.sentences) == 8
    assert len(b.sentences) == 2
    assert a.sentences[0].sent_id == "d.1"


def test_split_document_shuffled_is_a_partition():
    doc = small_doc(9)
    a, b, c = split_document(doc, ["0.5", "0.3", "0.2"], shuffle_seed=4)
    ids = [s.sent_id for part in (a, b, c) for s in part.sentences]
    assert sorted(ids) == sorted(s.sent_id for s in doc.sentences)
    again = split_document(doc, ["0.5", "0.3", "0.2"], shuffle_seed=4)
    assert [s.sent_id for s in again[0].sentences] == [s.sent_id for s in a.sentences]


def test_split_document_fractions_must_sum_to_one():
    with pytest.raises(DataError, match="do not sum to 1"):
        split_document(small_doc(4), ["0.5", "0.4"])


# --- recipe components ------------------------------------------------------


def test_component_validation():
    with pytest.raises(RecipeError, match="more than one fractional digit"):
        RecipeComponent("c", "1.25")
    with pytest.raises(RecipeError, match="below the minimum"):
        RecipeComponent("c", "0")
    with pytest.raises(RecipeError, match="not a decimal"):
        RecipeComponent("c", "lots")
    with pytest.raises(RecipeError, match="keep at least one repetition intact"):
        RecipeComponent("c", Decimal("2"), dediacritize_repetitions=Decimal("3"))
    with pytest.raises(RecipeError, match="outside"):
        RecipeComponent("c", Decimal("1"), sample_fraction=Decimal("0"))
    with pytest.raises(RecipeError, match="unknown filter mode"):
        RecipeComponent("c", Decimal("1"), sample_filter=("only", "web"))
    with pytest.raises(RecipeError, match="no components"):
        Recipe(components=())


def test_dediacritization_must_keep_one_intact_copy():
    corpora = {"c": small_doc(4)}
    mapping = default_diacritic_map("sl")
    with pytest.raises(RecipeError, match="keep at least one repetition intact"):
        RecipeComponent("c", Decimal("2"), dediacritize_repetitions=Decimal("1.5"))
    # d == r - 1 is the boundary case and passes
    allowed = Recipe(
        components=(
            RecipeComponent("c", Decimal("2"), dediacritize_repetitions=Decimal("1")),
        )
    )
    build_recipe_dataset(allowed, corpora, mapping)


def test_dediacritization_needs_a_map():
    recipe = Recipe(
        components=(
            RecipeComponent("c", Decimal("2"), dediacritize_repetitions=Decimal("1")),
        )
    )
    with pytest.raises(RecipeError, match="no diacritic map"):
        build_recipe_dataset(recipe, {"c": small_doc(2)})


def test_unknown_corpus_refused():
    recipe = Recipe(components=(RecipeComponent("ghost", Decimal("1")),))
    with pytest.raises(RecipeError, match="unknown corpus 'ghost'"):
        build_recipe_dataset(recipe, {"real": small_doc(1)})


def test_recipe_counts_and_dediacritized_copies():
    corpora = {
        "std": small_doc(20, prefix="s"),
        "web": small_doc(10, prefix="w"),
    }
    recipe = Recipe(
        components=(
            RecipeComponent("std", Decimal("1"), group="standard"),
            RecipeComponent(
                "web",
                Decimal("3"),
                dediacritize_repetitions=Decimal("1.5"),
                group="nonstandard",
            ),
        )
    )
    dataset, report = build_recipe_dataset(recipe, corpora, default_diacritic_map("sl"))

    std, web = report.components
    assert (std.sentences_emitted, std.tokens_emitted) == (20, 100)
    assert (web.sentences_emitted, web.tokens_emitted) == (30, 150)
    # copy 2 in full (50 tokens) plus the first half of copy 3 (25)
    assert web.dediacritized_tokens == 75
    assert report.total_tokens == 250
    assert report.ratio_groups == ("standard", "nonstandard")
    assert report.ratio_tokens == (100, 150)
    assert report.achieved_ratio == pytest.approx(100 / 150)
    assert report.dediacritized_fraction_combined == pytest.approx(75 / 250)
    assert report.dediacritized_fraction_oversampled == pytest.approx(75 / 150)

    by_copy = {}
    for sent in dataset.sentences:
        sid = sent.sent_id
        if sid.startswith("w."):
            base, _, copy = sid.rpartition("-")
            by_copy.setdefault(copy, []).append(sent)
    assert {k: len(v) for k, v in by_copy.items()} == {"r1": 10, "r2": 10, "r3": 10}
    assert all("š" in s.tokens[0].form for s in by_copy["r1"])
    assert all("š" not in s.tokens[0].form for s in by_copy["r2"])
    flags = ["š" not in s.tokens[0].form for s in by_copy["r3"]]
    assert flags == [True] * 5 + [False] * 5


def test_sent_ids_stay_unique_when_a_corpus_is_named_twice():
    doc = small_doc(2, prefix="c")
    doc.sentences.append(copy_document(Document(sentences=doc.sentences[:1])).sentences[0])
    recipe = parse_recipe(
        "component id=c reps=1\ncomponent id=c reps=2.5 dedia=1 group=x\n"
    )
    dataset, report = build_recipe_dataset(recipe, {"c": doc}, default_diacritic_map("sl"))
    ids = [s.sent_id for s in dataset.sentences]
    # the k-th copy of a sent_id value in the whole recipe, also of one the corpus repeats
    assert ids == [
        "c.1-r1", "c.2-r1", "c.1-r2",  # the first component
        "c.1-r3", "c.2-r2", "c.1-r4",
        "c.1-r5", "c.2-r3", "c.1-r6",
        "c.1-r7", "c.2-r4",  # half of 3 sentences, rounded half up
    ]
    # which copies lose their diacritics stays per component: the second
    # component's own copy 2
    plain = ["š" in s.tokens[0].form for s in dataset.sentences]
    assert plain == [True] * 6 + [False] * 3 + [True] * 2
    assert [c.dediacritized_tokens for c in report.components] == [0, 15]


@pytest.mark.parametrize("ratio, group", [("std:web", "web"), ("std:", ""), (":std", "")])
def test_a_ratio_must_name_groups_the_recipe_has(ratio, group):
    text = f"component id=a reps=1 group=std\ncomponent id=b reps=1\nratio {ratio}\n"
    message = f"mix.recipe: line 3: ratio {ratio} names group {group!r}, which no component has"
    with pytest.raises(RecipeError) as refused:
        parse_recipe(text, name="mix.recipe")
    assert str(refused.value) == message
    with pytest.raises(RecipeError, match="which no component has"):
        Recipe(components=(RecipeComponent("a", Decimal(1), group="std"),),
               target_ratio=tuple(ratio.split(":")))


def test_recipe_filters_and_fractions():
    doc = Document()
    for i, source in enumerate(["tweets", "forums"] * 5, 1):
        doc.sentences.append(
            Sentence(
                comments=[f"# sent_id = m.{i}", f"# source = {source}"],
                tokens=[Token(id=1, form="x")],
            )
        )
    recipe = Recipe(
        components=(
            RecipeComponent("m", Decimal("1"), sample_filter=("include", "tweets")),
        )
    )
    _, report = build_recipe_dataset(recipe, {"m": doc})
    assert report.components[0].source_sentences == 5

    recipe = Recipe(
        components=(
            RecipeComponent("m", Decimal("1"), sample_filter=("exclude", "tweets"),
                            sample_fraction=Decimal("0.4")),
        )
    )
    _, report = build_recipe_dataset(recipe, {"m": doc})
    assert report.components[0].source_sentences == 2


def test_ratio_fallback_for_two_plain_components():
    corpora = {"a": small_doc(3, prefix="a"), "b": small_doc(6, prefix="b")}
    recipe = Recipe(
        components=(RecipeComponent("a", Decimal("1")), RecipeComponent("b", Decimal("1")))
    )
    _, report = build_recipe_dataset(recipe, corpora)
    assert report.ratio_groups == ("a", "b")
    assert report.ratio_tokens == (15, 30)
    # no tokens in the second group give no ratio; none at all, no dediacritized share
    assert RecipeReport(ratio_tokens=(15, 0)).achieved_ratio is None
    empty = RecipeReport()
    assert (empty.achieved_ratio, empty.dediacritized_fraction_combined) == (None, 0.0)


def test_report_format_mentions_both_fractions():
    corpora = {"c": small_doc(4)}
    recipe = Recipe(
        components=(
            RecipeComponent("c", Decimal("2"), dediacritize_repetitions=Decimal("1")),
        )
    )
    _, report = build_recipe_dataset(recipe, corpora, default_diacritic_map("sl"))
    text = report.format()
    assert "dediacritized fraction of the combined set: 0.500" in text
    assert "dediacritized fraction of the oversampled portion: 0.500" in text
    assert "total tokens: 40" in text


def test_shuffle_seed_subsamples_differently():
    doc = small_doc(10)
    recipe = Recipe(
        components=(RecipeComponent("c", Decimal("1"), sample_fraction=Decimal("0.5")),)
    )
    plain, _ = build_recipe_dataset(recipe, {"c": doc})
    shuffled, _ = build_recipe_dataset(recipe, {"c": doc}, shuffle_seed=21)
    assert len(plain.sentences) == len(shuffled.sentences) == 5
    assert [s.sent_id for s in plain.sentences] != [s.sent_id for s in shuffled.sentences]


# --- recipe files -----------------------------------------------------------


def test_parse_recipe_full_grammar():
    recipe = parse_recipe(
        "# training mix\n"
        "ratio std:web\n"
        "component id=news reps=1 group=std\n"
        "component id=tweets reps=4.7 dedia=1.5 fraction=0.9 "
        "filter=exclude:retweets group=web\n"
    )
    assert recipe.target_ratio == ("std", "web")
    news, tweets = recipe.components
    assert (news.corpus_id, news.repetitions) == ("news", Decimal("1"))
    assert tweets.repetitions == Decimal("4.7")
    assert tweets.dediacritize_repetitions == Decimal("1.5")
    assert tweets.sample_fraction == Decimal("0.9")
    assert tweets.sample_filter == ("exclude", "retweets")


def test_parse_recipe_errors_carry_line_numbers():
    with pytest.raises(RecipeError, match="line 1.*'ratio a:b'"):
        parse_recipe("ratio nonsense\n")
    with pytest.raises(RecipeError, match="line 2.*expected 'component' or 'ratio'"):
        parse_recipe("component id=a reps=1\nmixture id=b\n")
    with pytest.raises(RecipeError, match="not key=value"):
        parse_recipe("component id=a reps\n")
    with pytest.raises(RecipeError, match="needs id= and reps="):
        parse_recipe("component id=a\n")
    with pytest.raises(RecipeError, match="unknown component keys \\['colour'\\]"):
        parse_recipe("component id=a reps=1 colour=blue\n")
    with pytest.raises(RecipeError, match="filter must be"):
        parse_recipe("component id=a reps=1 filter=web\n")


def test_load_recipe_names_the_file(tmp_path):
    path = tmp_path / "mix.recipe"
    path.write_text("component id=a reps=1\n", encoding="utf-8")
    assert load_recipe(path).components[0].corpus_id == "a"
    path.write_text("nonsense\n", encoding="utf-8")
    with pytest.raises(RecipeError, match="mix.recipe"):
        load_recipe(path)


def test_recipe_roundtrip_on_generated_corpus():
    std = make_corpus(301, 25, id_prefix="gen", source="news")
    recipe = parse_recipe("component id=gen reps=2.4\n")
    dataset, report = build_recipe_dataset(recipe, {"gen": std})
    assert report.components[0].sentences_emitted == 25 * 2 + 10
    assert report.total_tokens == sum(len(s.single_tokens()) for s in dataset.sentences)


# --- golden pin -------------------------------------------------------------
# Digest of the combined dataset and the report of one recipe build.  It pins
# the copy plan, the sent_id suffixes, which copies lose their diacritics, the
# regenerated text comments, filtering, subsampling and the shuffle.

RECIPE_PIN_SHA256 = "59a466be808d931f43f936fa8e5e02c0bcda44ba71b5a5ad2ab709a487372e4a"


def _pin_corpus(seed: int, prefix: str) -> Document:
    """Sentences with diacritics, source and text comments, and range tokens."""
    rng = random.Random(seed)
    letters = "abdeijklmnoprstuvzčšžćđČŠĐ"
    doc = Document()
    for i in range(1, 31):
        words = ["".join(rng.choice(letters) for _ in range(rng.randint(1, 6)))
                 for _ in range(rng.randint(2, 6))]
        tokens = [Token(j, form) for j, form in enumerate(words, 1)]
        tokens[-1].misc = "SpaceAfter=No"
        tokens.append(Token(len(tokens) + 1, "."))
        if i % 4 == 0:  # the first two words also written as one range token
            tokens.insert(0, Token((1, 2), words[0] + words[1], misc="SpaceAfter=No"))
        sent = Sentence(
            comments=[f"# sent_id = {prefix}.{i}",
                      f"# source = {rng.choice(['tweets', 'forums', 'news'])}"],
            tokens=tokens,
        )
        set_comment(sent, "text", sentence_text(sent))
        doc.sentences.append(sent)
    return doc


def test_golden_recipe_build():
    recipe = parse_recipe(
        "ratio web:std\n"
        "component id=web reps=2.7 dedia=1.4 fraction=0.8 "
        "filter=exclude:forums group=web\n"
        "component id=std reps=1.5 dedia=0.3 group=std\n"
    )
    corpora = {"web": _pin_corpus(3, "w"), "std": _pin_corpus(4, "s")}
    before = serialize_document(corpora["web"]) + serialize_document(corpora["std"])
    dataset, report = build_recipe_dataset(
        recipe, corpora, default_diacritic_map("hr"), shuffle_seed=5
    )
    out = serialize_document(dataset) + report.format()
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == RECIPE_PIN_SHA256
    # building reads the corpora and leaves them as they were
    assert serialize_document(corpora["web"]) + serialize_document(corpora["std"]) == before
