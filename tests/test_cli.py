import io
import sys

import pytest

from slavpipe.cli import main
from slavpipe.conllu import parse_document, serialize_document
from slavpipe.pipeline import model_filename


@pytest.fixture
def lexicon_file(tmp_path, vocab):
    path = tmp_path / "lexicon.tsv"
    lines = [f"{form}\t{lemma}\t{xpos}\t3" for form, lemma, xpos in vocab.all_entries()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


# --- tokenize ---------------------------------------------------------------


def test_tokenize_file_to_file(tmp_path):
    src = write(tmp_path, "in.txt", "Prva poved. Druga poved.")
    out = tmp_path / "out.conllu"
    assert main(["tokenize", "--lang", "sl", "--in", str(src), "--out", str(out)]) == 0
    doc = parse_document(out.read_text(encoding="utf-8"))
    assert len(doc.sentences) == 2
    assert [t.form for t in doc.sentences[0].tokens] == ["Prva", "poved", "."]


def test_tokenize_to_stdout(tmp_path, capsys):
    src = write(tmp_path, "in.txt", "Ena.")
    assert main(["tokenize", "--lang", "sl", "--in", str(src)]) == 0
    doc = parse_document(capsys.readouterr().out)
    assert [t.form for t in doc.sentences[0].tokens] == ["Ena", "."]


def test_tokenize_requires_lang(tmp_path, capsys):
    src = write(tmp_path, "in.txt", "x")
    assert main(["tokenize", "--in", str(src)]) == 1
    assert "configuration error: --lang is required" in capsys.readouterr().err


def test_tokenize_refuses_unsupported_type(tmp_path, capsys):
    src = write(tmp_path, "in.txt", "x")
    code = main(["tokenize", "--lang", "bg", "--type", "nonstandard", "--in", str(src)])
    assert code == 1
    assert "no nonstandard processing" in capsys.readouterr().err


def test_tokenize_missing_input_is_data_error(tmp_path, capsys):
    code = main(["tokenize", "--lang", "sl", "--in", str(tmp_path / "absent.txt")])
    assert code == 2
    assert capsys.readouterr().err.startswith("data error:")


def _unreadable_input_command(tmp_path, which, bad):
    text = write(tmp_path, "in.txt", "Ena.")
    corpus = write(tmp_path, "c.conllu", "1\tšum\t_\t_\t_\t_\t_\t_\t_\t_\n\n")
    recipe = write(tmp_path, "mix.recipe", "component id=c reps=1\n")
    out = str(tmp_path / "out")
    tokenize = ["tokenize", "--lang", "sl", "--out", out]
    prep = ["prep", "--corpus", f"c={corpus}", "--out", out]
    return {
        "in": tokenize + ["--in", bad],
        "config": tokenize + ["--in", str(text), "--config", bad],
        "rules": tokenize + ["--in", str(text), "--rules", bad],
        "recipe": prep + [bad],
        "diacritics": prep + [str(recipe), "--diacritics", bad],
    }[which]


@pytest.mark.parametrize("problem", ["not-utf8", "missing"])
@pytest.mark.parametrize("which", ["in", "config", "rules", "recipe", "diacritics"])
def test_unreadable_input_file_is_one_line_data_error(tmp_path, capsys, which, problem):
    bad = tmp_path / "bad"
    if problem == "not-utf8":
        bad.write_bytes(b"[ABBREV]\n\xff\n")
    assert main(_unreadable_input_command(tmp_path, which, str(bad))) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: cannot read {bad}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_non_utf8_standard_input_is_data_error(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"\xff\n"), "utf-8"))
    assert main(["tokenize", "--lang", "sl", "--in", "-"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: cannot read standard input: ")
    assert err.count("\n") == 1


# --- annotate ---------------------------------------------------------------


def test_annotate_raw_text(tmp_path, model_dir, lexicon_file, vocab):
    noun = vocab.noun(vocab.nouns[0], "nom")
    src = write(tmp_path, "in.txt", f"{noun[0]}.")
    out = tmp_path / "out.conllu"
    code = main([
        "annotate", "--lang", "sl",
        "--model-dir", str(model_dir), "--lexicon", str(lexicon_file),
        "--in", str(src), "--out", str(out),
    ])
    assert code == 0
    doc = parse_document(out.read_text(encoding="utf-8"))
    tok = doc.sentences[0].tokens[0]
    assert tok.lemma == noun[3]
    assert tok.head is not None


def test_annotate_pretokenized_subset(tmp_path, model_dir, dev_doc):
    from slavpipe.conllu import strip_annotations

    src = write(tmp_path, "in.conllu", serialize_document(strip_annotations(dev_doc)))
    out = tmp_path / "out.conllu"
    code = main([
        "annotate", "--lang", "sl", "--tasks", "morph,lemma",
        "--model-dir", str(model_dir),
        "--in", str(src), "--out", str(out),
    ])
    assert code == 0
    doc = parse_document(out.read_text(encoding="utf-8"))
    assert all(t.upos is not None for s in doc.sentences for t in s.single_tokens())
    assert all(t.head is None for s in doc.sentences for t in s.single_tokens())


def test_annotate_missing_model_is_exit_3(tmp_path, capsys):
    src = write(tmp_path, "in.txt", "besedilo.")
    code = main([
        "annotate", "--lang", "sl", "--model-dir", str(tmp_path), "--in", str(src),
    ])
    assert code == 3
    assert capsys.readouterr().err.startswith("model error:")


def test_annotate_rejects_malformed_conllu(tmp_path, model_dir, capsys):
    src = write(tmp_path, "in.conllu", "1\tonly-three\tcols\n\n")
    code = main([
        "annotate", "--lang", "sl", "--tasks", "morph",
        "--model-dir", str(model_dir), "--in", str(src),
    ])
    assert code == 2
    assert capsys.readouterr().err.startswith("data error:")


def test_annotate_config_file_fills_flags(tmp_path, model_dir, lexicon_file, vocab):
    noun = vocab.noun(vocab.nouns[1], "nom")
    src = write(tmp_path, "in.txt", f"{noun[0]}.")
    config = write(
        tmp_path,
        "pipe.conf",
        "# pipeline defaults\n"
        "lang = sl\n"
        f"model-dir = {model_dir}\n"
        f"lexicon = {lexicon_file}\n"
        "tasks = tokenize,morph,lemma\n",
    )
    out = tmp_path / "out.conllu"
    code = main(["annotate", "--config", str(config), "--in", str(src), "--out", str(out)])
    assert code == 0
    doc = parse_document(out.read_text(encoding="utf-8"))
    assert doc.sentences[0].tokens[0].lemma == noun[3]


def test_config_flags_lose_to_command_line(tmp_path, capsys):
    config = write(tmp_path, "pipe.conf", "lang = sl\n")
    src = write(tmp_path, "in.txt", "Ena.")
    # --lang beats the config value; an unknown language fails loudly
    code = main([
        "tokenize", "--config", str(config), "--lang", "xx", "--in", str(src),
    ])
    assert code == 1
    assert "unknown language" in capsys.readouterr().err


def test_config_unknown_key(tmp_path, capsys):
    config = write(tmp_path, "pipe.conf", "colour = green\n")
    src = write(tmp_path, "in.txt", "x")
    code = main(["tokenize", "--config", str(config), "--in", str(src)])
    assert code == 1
    assert "unknown setting 'colour'" in capsys.readouterr().err


# --- train ------------------------------------------------------------------


def test_train_tagger_writes_model_and_dev(tmp_path, train_doc, dev_doc, capsys):
    train_f = write(tmp_path, "train.conllu", serialize_document(train_doc))
    dev_f = write(tmp_path, "dev.conllu", serialize_document(dev_doc))
    model_dir = tmp_path / "models"
    code = main([
        "train", "tagger", "--lang", "sl",
        "--train", str(train_f), "--dev", str(dev_f),
        "--model-dir", str(model_dir),
    ])
    assert code == 0
    model_path = model_dir / model_filename("sl", "standard", "tagger")
    assert model_path.exists()
    filled = parse_document(
        (model_dir / f"{model_filename('sl', 'standard', 'tagger')}.dev.conllu")
        .read_text(encoding="utf-8")
    )
    assert all(t.upos is not None for s in filled.sentences for t in s.single_tokens())
    assert "dev accuracy:" in capsys.readouterr().err


def test_train_parser_with_options(tmp_path, train_doc, capsys):
    train_f = write(tmp_path, "train.conllu", serialize_document(train_doc))
    out = tmp_path / "parser.slm"
    code = main([
        "train", "parser", "--lang", "sl",
        "--train", str(train_f), "--model-out", str(out),
        "--schema", "ud", "--seed", "5", "--epochs", "2",
    ])
    assert code == 0
    assert out.exists()
    err = capsys.readouterr().err
    assert "dev las: n/a" in err  # no dev split given

    from slavpipe.depparse import load_parser

    model = load_parser(out)
    assert model.metadata.seed == 5
    assert model.metadata.epochs == 2


def test_train_needs_output_location(tmp_path, train_doc, capsys):
    train_f = write(tmp_path, "train.conllu", serialize_document(train_doc))
    code = main(["train", "tagger", "--lang", "sl", "--train", str(train_f)])
    assert code == 1
    assert "--model-out or --model-dir" in capsys.readouterr().err


def test_train_empty_data_is_model_error(tmp_path, capsys):
    train_f = write(
        tmp_path, "train.conllu", "1\tx\t_\t_\t_\t_\t_\t_\t_\t_\n\n"
    )
    code = main([
        "train", "tagger", "--lang", "sl", "--train", str(train_f),
        "--model-out", str(tmp_path / "m.slm"),
    ])
    assert code == 3
    assert "no annotated tokens" in capsys.readouterr().err


# --- evaluate ---------------------------------------------------------------


def test_evaluate_kv_report(tmp_path, dev_doc, capsys):
    gold_f = write(tmp_path, "gold.conllu", serialize_document(dev_doc))
    code = main([
        "evaluate", "--gold", str(gold_f), "--in", str(gold_f), "--report", "kv",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "tokens = 1.000000" in out
    assert "sentences = 1.000000" in out
    assert "upos = 1.000000" in out
    assert "las = 1.000000" in out


def test_evaluate_field_subset(tmp_path, dev_doc, capsys):
    gold_f = write(tmp_path, "gold.conllu", serialize_document(dev_doc))
    code = main([
        "evaluate", "--gold", str(gold_f), "--in", str(gold_f),
        "--fields", "lemma,upos", "--report", "kv",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "lemma = " in out
    assert "xpos" not in out


def test_evaluate_segmentation_mismatch_still_reports_spans(tmp_path, capsys):
    gold_f = write(
        tmp_path, "gold.conllu",
        "1\tab\t_\tNOUN\t_\t_\t_\t_\t_\tSpaceAfter=No\n2\tc\t_\tX\t_\t_\t_\t_\t_\t_\n\n",
    )
    pred_f = write(
        tmp_path, "pred.conllu",
        "1\tabc\t_\tNOUN\t_\t_\t_\t_\t_\t_\n\n",
    )
    code = main([
        "evaluate", "--gold", str(gold_f), "--in", str(pred_f), "--report", "kv",
    ])
    assert code == 0
    captured = capsys.readouterr()
    assert "token-level metrics skipped" in captured.err
    assert "tokens = 0.000000" in captured.out
    assert "sentences = 1.000000" in captured.out


# --- prep -------------------------------------------------------------------


def test_prep_builds_dataset_and_reports(tmp_path, train_doc, capsys):
    corpus_f = write(tmp_path, "corpus.conllu", serialize_document(train_doc))
    recipe_f = write(tmp_path, "mix.recipe", "component id=main reps=2\n")
    out = tmp_path / "combined.conllu"
    code = main([
        "prep", str(recipe_f), "--corpus", f"main={corpus_f}", "--out", str(out),
    ])
    assert code == 0
    combined = parse_document(out.read_text(encoding="utf-8"))
    assert len(combined.sentences) == 2 * len(train_doc.sentences)
    assert "training-data recipe report" in capsys.readouterr().err


def test_prep_uses_default_diacritics_for_lang(tmp_path, capsys):
    corpus = (
        "# sent_id = c.1\n"
        "# text = šum\n"
        "1\tšum\t_\t_\t_\t_\t_\t_\t_\t_\n"
        "\n"
    )
    corpus_f = write(tmp_path, "c.conllu", corpus)
    recipe_f = write(tmp_path, "mix.recipe", "component id=c reps=2 dedia=1\n")
    out = tmp_path / "combined.conllu"
    code = main([
        "prep", str(recipe_f), "--lang", "sl",
        "--corpus", f"c={corpus_f}", "--out", str(out),
    ])
    assert code == 0
    doc = parse_document(out.read_text(encoding="utf-8"))
    assert [s.tokens[0].form for s in doc.sentences] == ["šum", "sum"]


def test_prep_dedia_without_lang_or_map(tmp_path, capsys):
    corpus_f = write(
        tmp_path, "c.conllu", "1\tšum\t_\t_\t_\t_\t_\t_\t_\t_\n\n"
    )
    recipe_f = write(tmp_path, "mix.recipe", "component id=c reps=2 dedia=1\n")
    code = main(["prep", str(recipe_f), "--corpus", f"c={corpus_f}"])
    assert code == 1
    assert "--lang is required" in capsys.readouterr().err


def test_prep_bad_corpus_argument(tmp_path, capsys):
    recipe_f = write(tmp_path, "mix.recipe", "component id=c reps=1\n")
    code = main(["prep", str(recipe_f), "--corpus", "no-equals-sign"])
    assert code == 1
    assert "--corpus expects ID=PATH" in capsys.readouterr().err


def test_prep_refused_recipe_is_data_error(tmp_path, capsys):
    corpus_f = write(
        tmp_path, "c.conllu", "1\tšum\t_\t_\t_\t_\t_\t_\t_\t_\n\n"
    )
    recipe_f = write(tmp_path, "mix.recipe", "component id=c reps=1 dedia=1\n")
    code = main([
        "prep", str(recipe_f), "--lang", "sl", "--corpus", f"c={corpus_f}",
    ])
    assert code == 2
    assert "keep at least one repetition intact" in capsys.readouterr().err


# --- lexicon ----------------------------------------------------------------


def test_lexicon_load_summary(lexicon_file, capsys):
    assert main(["lexicon", "load", "--lexicon", str(lexicon_file)]) == 0
    out = capsys.readouterr().out
    assert "forms:" in out
    assert "entries:" in out
    assert "closed class particle:" in out


def test_lexicon_query_form(lexicon_file, capsys):
    assert main([
        "lexicon", "query", "--lexicon", str(lexicon_file), "--form", "naj",
    ]) == 0
    out = capsys.readouterr().out
    assert "Q\tnaj\t3" in out
    assert "closed classes: particle" in out


def test_lexicon_query_with_xpos(lexicon_file, vocab, capsys):
    form, _, xpos, lemma, _ = vocab.noun(vocab.nouns[0], "acc")
    assert main([
        "lexicon", "query", "--lexicon", str(lexicon_file),
        "--form", form, "--xpos", xpos,
    ]) == 0
    assert capsys.readouterr().out.strip() == lemma


def test_lexicon_query_unknown_form(lexicon_file, capsys):
    assert main([
        "lexicon", "query", "--lexicon", str(lexicon_file), "--form", "žžž",
    ]) == 0
    assert "(no entry)" in capsys.readouterr().out


# --- argument handling ------------------------------------------------------


def test_unknown_command_is_configuration_error(capsys):
    assert main(["frobnicate"]) == 1
    assert capsys.readouterr().err.startswith("configuration error:")


def test_unknown_flag_is_configuration_error(capsys):
    assert main(["tokenize", "--volume", "11"]) == 1
    assert capsys.readouterr().err.startswith("configuration error:")
