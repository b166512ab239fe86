import argparse
import codecs
import gzip
import io
import json
import os
import shutil
import stat
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import slavpipe
from slavpipe.cli import EXIT_BROKEN_PIPE, build_parser, main
from slavpipe.conllu import (
    Document, parse_document, serialize_document, text_layout, validate_document,
)
from slavpipe.errors import TEXT_BLOCK, DataError, read_blocks, read_text, utf8_blocks
from slavpipe.pipeline import Pipeline, PipelineConfig, model_filename

from support import GZIP_DAMAGE, damaged_gzip, lexicon_tsv, with_section, write_non_finite


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


@pytest.mark.parametrize("command", ["tokenize", "annotate", "train"])
def test_empty_rules_flag_means_the_bundled_rules(
    tmp_path, model_dir, train_doc, dev_doc, command
):
    src = write(tmp_path, "in.txt", "Pes teče. Mačka spi!")
    train = write(tmp_path, "train.conllu", serialize_document(train_doc))
    dev = write(tmp_path, "dev.conllu", serialize_document(dev_doc))
    written = []
    for extra in ([], ["--rules="]):
        out = tmp_path / f"out{len(written)}"
        argv = {
            "tokenize": ["tokenize", "--lang", "sl", "--in", str(src), "--out", str(out)],
            "annotate": ["annotate", "--lang", "sl", "--model-dir", str(model_dir),
                         "--in", str(src), "--out", str(out)],
            "train": ["train", "tagger", "--lang", "sl", "--train", str(train),
                      "--dev", str(dev), "--model-out", str(out)],
        }[command]
        assert main(argv + extra) == 0
        written.append(out.read_bytes())
    assert written[0] == written[1]


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
    # as the interpreter opens it in the C or POSIX locale
    lenient = io.TextIOWrapper(io.BytesIO(b"\xff\n"), "utf-8", errors="surrogateescape")
    monkeypatch.setattr(sys, "stdin", lenient)
    assert main(["tokenize", "--lang", "sl", "--in", "-"]) == 2
    assert capsys.readouterr().err.startswith("data error: cannot read standard input: ")


_BOM_TEXT = "Danes dežuje. Jutri ne bo.\n"
_BOM_LEXICON = "pes\tpes\tNcmsn\t3\npsa\tpes\tNcmsg\t2\n"
_BOM_GOLD = (
    "# text = Pes.\n1\tPes\tpes\tNOUN\tNcmsn\t_\t0\troot\t_\tSpaceAfter=No\n"
    "2\t.\t.\tPUNCT\tZ\t_\t1\tpunct\t_\t_\n\n"
)


@pytest.mark.parametrize(
    "case", ["tokenize", "tokenize-stdin", "lexicon", "lexicon-gzip", "evaluate"]
)
def test_a_leading_byte_order_mark_is_dropped(tmp_path, capsys, monkeypatch, case):
    text = {"lexicon": _BOM_LEXICON, "lexicon-gzip": _BOM_LEXICON, "evaluate": _BOM_GOLD}.get(
        case, _BOM_TEXT
    )
    path, plain = tmp_path / "input", write(tmp_path, "plain", text)
    query = ["lexicon", "query", "--lexicon", str(path), "--form", "pes"]
    argv = {
        "tokenize": ["tokenize", "--lang", "sl", "--in", str(path)],
        "tokenize-stdin": ["tokenize", "--lang", "sl", "--in", "-"],
        "lexicon": query,
        "lexicon-gzip": query,
        "evaluate": ["evaluate", "--gold", str(path), "--in", str(plain), "--report", "kv"],
    }[case]
    outputs = []
    for prefix in ("", "\ufeff"):
        blob = (prefix + text).encode("utf-8")
        path.write_bytes(gzip.compress(blob) if case == "lexicon-gzip" else blob)
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(blob), "utf-8"))
        assert main(argv) == 0
        outputs.append(capsys.readouterr())
    assert outputs[1] == outputs[0]
    assert "\ufeff" not in outputs[0].out and "(no entry)" not in outputs[0].out


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


def test_annotate_writes_the_library_text_with_a_plain_or_gzipped_crlf_lexicon(
    tmp_path, model_dir, lexicon_file, dev_doc, capsys
):
    text = text_layout(dev_doc)[0]
    crlf = tmp_path / "lexicon-crlf.tsv.gz"
    crlf.write_bytes(gzip.compress(lexicon_file.read_bytes().replace(b"\n", b"\r\n")))
    src = write(tmp_path, "in.txt", text)
    out = tmp_path / "out.conllu"
    args = ["annotate", "--lang", "sl", "--model-dir", str(model_dir), "--in", str(src)]
    outputs = []
    for lexicon in (lexicon_file, crlf):
        assert main([*args, "--lexicon", str(lexicon), "--out", str(out)]) == 0
        outputs.append(out.read_text(encoding="utf-8"))
        assert main([*args, "--lexicon", str(lexicon)]) == 0
        outputs.append(capsys.readouterr().out)
    pipe = Pipeline(PipelineConfig(language="sl", model_dir=model_dir, lexicon_path=lexicon_file))
    assert outputs == [serialize_document(pipe.annotate(text))] * 4


def _paragraphs(vocab, count):
    """Raw text of ``count`` paragraphs of vocabulary words, some without a final
    mark, separated by blank lines of LF, CRLF and whitespace."""
    words = [form for form, _, _ in vocab.all_entries()]
    blanks = ["\n\n", "\r\n\r\n", "\n \t\n", "\n\n\n"]
    paragraphs = []
    for i in range(count):
        sentence = " ".join(words[(i * 7 + k) % len(words)] for k in range(i % 9 + 2))
        paragraphs.append(sentence.capitalize() + ("." if i % 3 else "") + blanks[i % 4])
    return "".join(paragraphs)


@pytest.mark.parametrize("target", ["file", "stdout"])
@pytest.mark.parametrize("source", ["file", "stdin"])
def test_annotate_streams_an_input_of_several_blocks(
    tmp_path, model_dir, lexicon_file, vocab, capsys, monkeypatch, source, target
):
    text = "Čaša žganja.\n\n" + _paragraphs(vocab, 900)
    blob = text.encode("utf-8")
    assert len(blob) > 4 * TEXT_BLOCK
    src = tmp_path / "in.txt"
    src.write_bytes(blob)
    out = tmp_path / "out.conllu"
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(blob), "utf-8"))
    argv = ["annotate", "--lang", "sl", "--model-dir", str(model_dir),
            "--lexicon", str(lexicon_file), "--in", str(src) if source == "file" else "-",
            "--out", str(out) if target == "file" else "-"]
    assert main(argv) == 0
    written = out.read_text(encoding="utf-8") if target == "file" else capsys.readouterr().out
    pipe = Pipeline(PipelineConfig(language="sl", model_dir=model_dir, lexicon_path=lexicon_file))
    assert written == serialize_document(pipe.annotate(text))
    assert written.count("# sent_id") == 901


def test_an_undecodable_byte_after_the_first_block_leaves_the_output_as_it_was(
    tmp_path, vocab, capsys
):
    blob = _paragraphs(vocab, 900).encode("utf-8")
    position = 3 * TEXT_BLOCK + 5
    src = tmp_path / "in.txt"
    src.write_bytes(blob[:position] + b"\xff" + blob[position:])
    out = write(tmp_path, "out.conllu", "earlier output\n")
    assert main(["tokenize", "--lang", "sl", "--in", str(src), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"data error: cannot read {src}: 'utf-8' codec can't decode byte 0xff "
        f"in position {position}: invalid start byte\n"
    )
    assert out.read_text(encoding="utf-8") == "earlier output\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.txt", "out.conllu"]


@given(
    blob=st.lists(
        st.sampled_from([b"a", b" ", b"\n", "č".encode(), "€".encode(), "🙂".encode(),
                         codecs.BOM_UTF8, b"\xff", b"\xe2\x82", b"\xc4", b"\x80"]),
        max_size=30,
    ).map(b"".join),
    size=st.integers(1, 7),
)
def test_utf8_blocks_decode_as_the_whole_stream(blob, size):
    try:
        whole = blob.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        with pytest.raises(UnicodeDecodeError) as raised:
            list(utf8_blocks(io.BytesIO(blob), size))
        assert str(raised.value) == str(exc)
        assert (raised.value.start, raised.value.end) == (exc.start, exc.end)
    else:
        assert "".join(utf8_blocks(io.BytesIO(blob), size)) == whole


def test_an_undecodable_byte_late_in_a_stream_costs_no_copy_of_what_came_before(tmp_path):
    path = tmp_path / "in.txt"
    path.write_bytes(b"a " * 500_000 + b"\xff")
    tracemalloc.start()
    try:
        with pytest.raises(DataError, match="in position 1000000: invalid start byte"):
            for _ in read_blocks(path):  # each block dropped as the next is read
                pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * 1024


def test_crlf_and_cr_line_ends_are_read_as_lf_across_blocks(tmp_path):
    path = tmp_path / "in.txt"
    # the CR of a CRLF falls on each side of the first block's end in turn
    for pad in range(TEXT_BLOCK - 2, TEXT_BLOCK + 6):
        path.write_bytes(b"x" * pad + b"\r\nb\rc\r")
        assert read_text(path) == "x" * pad + "\nb\nc\n"
    path.write_bytes(_BOM_GOLD.replace("\n", "\r\n").encode("utf-8"))
    assert read_text(path) == _BOM_GOLD


def test_tokenize_ends_a_sentence_at_a_blank_line(tmp_path, capsys):
    src = write(tmp_path, "in.txt", "Naslov članka\r\n\r\nDanes dežuje")
    assert main(["tokenize", "--lang", "sl", "--in", str(src)]) == 0
    doc = parse_document(capsys.readouterr().out)
    assert [(s.sent_id, s.text) for s in doc.sentences] == [
        ("1", "Naslov članka"), ("2", "Danes dežuje"),
    ]


@pytest.mark.parametrize("text", [
    "Naslov\r\rDanes dezuje.",
    "Naslov\r\nDanes\r \r\ndezuje\n\r\rJutri ne bo.\r",
])
def test_tokenize_splits_cr_line_ends_as_the_library_does(tmp_path, capsys, text):
    # the command line reads CR and CRLF as LF; the library takes them as they are
    src = tmp_path / "in.txt"
    src.write_bytes(text.encode("utf-8"))
    assert main(["tokenize", "--lang", "sl", "--in", str(src)]) == 0
    written = capsys.readouterr().out
    pipe = Pipeline(PipelineConfig(language="sl", tasks=("tokenize",)))
    assert written == serialize_document(pipe.annotate(text))
    assert written.count("# sent_id") >= 2


_RANGE_LINE = "1-2\tPesa\t_\t_\t_\t_\t_\t_\t_\t_"


def test_annotate_pretokenized_subset(tmp_path, model_dir, dev_doc):
    from slavpipe.conllu import strip_annotations

    # a multiword range line comes out unchanged
    ranged = (f"{_RANGE_LINE}\n1\tPes\t_\t_\t_\t_\t_\t_\t_\t_\n"
              "2\ta\t_\t_\t_\t_\t_\t_\t_\tSpaceAfter=No\n3\t.\t_\t_\t_\t_\t_\t_\t_\t_\n\n")
    src = write(tmp_path, "in.conllu",
                serialize_document(strip_annotations(dev_doc)) + ranged)
    out = tmp_path / "out.conllu"
    code = main([
        "annotate", "--lang", "sl", "--tasks", "morph,lemma",
        "--model-dir", str(model_dir),
        "--in", str(src), "--out", str(out),
    ])
    assert code == 0
    written = out.read_text(encoding="utf-8")
    doc = parse_document(written)
    assert all(t.upos is not None for s in doc.sentences for t in s.single_tokens())
    assert all(t.head is None for s in doc.sentences for t in s.single_tokens())
    assert _RANGE_LINE in written.splitlines()


def test_annotate_missing_model_is_exit_3(tmp_path, capsys):
    src = write(tmp_path, "in.txt", "besedilo.")
    code = main([
        "annotate", "--lang", "sl", "--model-dir", str(tmp_path), "--in", str(src),
    ])
    assert code == 3
    assert capsys.readouterr().err.startswith("model error:")


def test_annotate_refuses_a_foreign_model_before_reading_input(tmp_path, model_dir, capsys):
    models = tmp_path / "models"
    models.mkdir()
    shutil.copy(
        model_dir / model_filename("sl", "standard", "tagger"),
        models / model_filename("hr", "standard", "tagger"),
    )
    code = main([
        "annotate", "--lang", "hr", "--tasks", "tokenize,morph",
        "--model-dir", str(models), "--in", str(tmp_path / "absent.txt"),
    ])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("model error:") and "trained for language 'sl'" in err


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


def test_config_is_no_key_of_a_config_file(tmp_path, capsys):
    """A nested file would be lost: every command's own --config wins on the reparse."""
    config = write(tmp_path, "c.cfg", f"lang = sl\nconfig = {tmp_path / 'absent.cfg'}\n")
    src = write(tmp_path, "t.txt", "Ena.")
    out = tmp_path / "out.conllu"
    assert main(["tokenize", "--config", str(config), "--in", str(src), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"configuration error: {config}: line 2: unknown setting 'config'\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("line", ["tasks = tokenize,morph", "model-dir = m"])
def test_tokenize_config_refuses_annotate_only_settings(tmp_path, capsys, line):
    config = write(tmp_path, "pipe.conf", f"lang = sl\n{line}\n")
    src = write(tmp_path, "in.txt", "Ena.")
    assert main(["tokenize", "--config", str(config), "--in", str(src)]) == 1
    assert "unknown setting" in capsys.readouterr().err


def _config_case(tmp_path, case, model_dir, train_doc):
    """Command line, config line and expected (status, stderr start) for one case."""
    text = write(tmp_path, "in.txt", "Ena.")
    corpus = write(tmp_path, "c.conllu", "1\tšum\t_\t_\t_\t_\t_\t_\t_\t_\n\n")
    recipe = write(tmp_path, "mix.recipe", "component id=c reps=1\n")
    train = write(tmp_path, "train.conllu", serialize_document(train_doc))
    out = str(tmp_path / "out")
    bad_value = (1, "configuration error: {config}: argument --")
    unknown = (1, "configuration error: {config}: line 1: unknown setting ")
    malformed = (1, "configuration error: {config}: line 1: expected 'key = value'\n")
    return {
        "schema": (["train", "parser", "--lang", "sl", "--train", str(train),
                    "--model-out", out], "schema = xyz", bad_value),
        "lexicon-constraint": (["annotate", "--lang", "sl", "--model-dir", str(model_dir),
                                "--in", str(text), "--out", out],
                               "lexicon-constraint = maybe", bad_value),
        "variety": (["train", "tagger", "--lang", "sl", "--train", str(train),
                     "--model-dir", out], "variety = bogus", bad_value),
        "in": (["tokenize", "--lang", "sl", "--out", out], f"in = {text}", (0, "")),
        "corpus": (["prep", str(recipe), "--out", out], f"corpus = c={corpus}", (0, "")),
        "func": (["tokenize", "--lang", "sl", "--in", str(text)], "func = x", unknown),
        "stage": (["train", "tagger", "--lang", "sl", "--train", str(train),
                   "--model-out", out], "stage = x", unknown),
        "infile": (["tokenize", "--lang", "sl", "--out", out], f"infile = {text}", unknown),
        "spaced-prep": (["prep", str(recipe), "--out", out], "colour = dark red", unknown),
        "spaced-train": (["train", "tagger", "--lang", "sl", "--train", str(train),
                          "--model-out", out], "colour = dark red", unknown),
        "other-command": (["prep", str(recipe), "--corpus", f"c={corpus}", "--out", out],
                          "model-dir = /data/my models", unknown),
        "prefix": (["tokenize", "--in", str(text), "--out", out], "la = sl", unknown),
        "no-equals": (["tokenize", "--in", str(text), "--out", out], "lang sl", malformed),
        "spaced-key": (["tokenize", "--in", str(text), "--out", out], "model dir = x", malformed),
        "no-key": (["tokenize", "--in", str(text), "--out", out], "= sl", malformed),
        "key-only": (["tokenize", "--in", str(text), "--out", out], "lang", malformed),
    }[case]


@pytest.mark.parametrize(
    "case",
    ["schema", "lexicon-constraint", "variety", "in", "corpus", "func", "stage", "infile",
     "spaced-prep", "spaced-train", "other-command", "prefix", "no-equals", "spaced-key",
     "no-key", "key-only"],
)
def test_config_values_are_parsed_as_flags(tmp_path, capsys, model_dir, train_doc, case):
    argv, line, (status, err_start) = _config_case(tmp_path, case, model_dir, train_doc)
    config = write(tmp_path, "pipe.conf", line + "\n")
    assert main([*argv, "--config", str(config)]) == status
    err = capsys.readouterr().err
    assert err.startswith(err_start.format(config=config))
    if status:
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()
    else:
        assert (tmp_path / "out").exists()


def test_config_schema_is_a_setting_of_the_parser_stage_only(tmp_path, capsys, train_doc):
    from slavpipe.modelio import read_archive

    train = write(tmp_path, "train.conllu", serialize_document(train_doc))
    config = write(tmp_path, "pipe.conf", "schema = jos\n")
    out = tmp_path / "model.slm"
    common = ["--lang", "sl", "--train", str(train), "--model-out", str(out),
              "--config", str(config)]
    assert main(["train", "tagger", *common]) == 1
    assert "line 1: unknown setting 'schema'" in capsys.readouterr().err
    assert not out.exists()
    assert main(["train", "parser", *common, "--epochs", "1"]) == 0
    meta, _ = read_archive(out, "parser")
    assert meta["schema"] == "jos"


def test_config_form_is_a_setting_of_lexicon_query(tmp_path, capsys):
    lexicon = write(tmp_path, "lexicon.tsv", "pes\tpes\tNcmsn\t3\npsa\tpes\tNcmsg\t2\n")
    config = write(tmp_path, "pipe.conf", "form = pes\n")
    assert main(["lexicon", "query", "--lexicon", str(lexicon), "--config", str(config)]) == 0
    assert capsys.readouterr().out == "Ncmsn\tpes\t3\n"


def test_config_corpus_entries_come_before_command_line_ones(tmp_path):
    first = write(tmp_path, "a.conllu", "1\tprvi\t_\t_\t_\t_\t_\t_\t_\t_\n\n")
    second = write(tmp_path, "b.conllu", "1\tdrugi\t_\t_\t_\t_\t_\t_\t_\t_\n\n")
    recipe = write(tmp_path, "mix.recipe", "component id=a reps=1\ncomponent id=b reps=1\n")
    config = write(tmp_path, "pipe.conf", f"corpus = a={first}\ncorpus = b={first}\n")
    out = tmp_path / "out.conllu"
    code = main([
        "prep", str(recipe), "--config", str(config),
        "--corpus", f"b={second}", "--out", str(out),
    ])
    assert code == 0
    doc = parse_document(out.read_text(encoding="utf-8"))
    assert [s.tokens[0].form for s in doc.sentences] == ["prvi", "drugi"]


_FLAG_KEYS = [
    "config", "in", "out", "lang", "type", "rules", "tasks", "model-dir", "model_dir",
    "lexicon", "lexicon-constraint", "train", "dev", "variety", "model-out", "dev-out",
    "schema", "seed", "epochs", "gold", "fields", "report", "corpus", "diacritics",
    "form", "xpos",
]
_PATH_KEYS = {
    "config", "in", "out", "rules", "model-dir", "model_dir", "lexicon", "train", "dev",
    "model-out", "dev-out", "gold", "diacritics",
}
_GOOD_VALUES = {
    "lang": ["sl", "hr"], "type": ["standard", "nonstandard"], "report": ["table", "kv"],
    "fields": ["upos", "lemma,upos"], "seed": ["7", "-3"],
}
_LINE_TEXT = st.text(
    st.characters(exclude_categories=("Cs", "Cc", "Zl", "Zp")), max_size=12
)
_VALUES = st.one_of(
    _LINE_TEXT,
    _LINE_TEXT.map(lambda v: "-" + v),
    st.tuples(_LINE_TEXT, _LINE_TEXT).map("=".join),
    st.tuples(_LINE_TEXT, _LINE_TEXT).map(lambda p: f"{p[0]}x y{p[1]}"),
)


@st.composite
def _config_lines(draw, paths):
    kind = draw(st.sampled_from(["flag"] * 3 + ["near", "random", "blank", "comment"]))
    if kind == "blank":
        return draw(st.sampled_from(["", "   "]))
    if kind == "comment":
        return "#" + draw(_LINE_TEXT)
    if kind != "flag":
        # A prefix of a flag, a positional's name, `help`, or any text.
        near = ["la", "mod", "colour", "help", "stage", "action", "recipe"]
        key = draw(st.sampled_from(near) if kind == "near" else _LINE_TEXT)
        return f"{key} = {draw(_VALUES)}"
    key = draw(st.sampled_from(_FLAG_KEYS))
    if key in _PATH_KEYS:
        value = draw(st.sampled_from(paths))
    elif key == "corpus":
        value = "c=" + draw(st.sampled_from(paths))
    else:
        value = draw(st.one_of(st.sampled_from(_GOOD_VALUES.get(key, ["x"])), _VALUES))
    return f"{key} = {value}"


@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_config_file_ends_in_a_documented_status(tmp_path, capsys, data):
    text = write(tmp_path, "in.txt", "Ena poved.")
    conllu = write(tmp_path, "c.conllu", "1\tšum\t_\t_\t_\t_\t_\t_\t_\t_\n\n")
    recipe = write(tmp_path, "mix.recipe", "component id=c reps=2 dedia=1\n")
    paths = [str(text), str(conllu), str(tmp_path / "absent"), str(tmp_path)]
    out = ["--out", str(tmp_path / "out")]
    command = data.draw(st.sampled_from([
        ["tokenize", "--in", str(text), *out],
        ["tokenize", "--lang", "sl", "--in", str(text), *out],
        ["evaluate", "--in", str(conllu), *out],
        ["evaluate", "--gold", str(conllu), "--in", str(conllu), *out],
        ["prep", str(recipe), *out],
        ["prep", str(recipe), "--corpus", f"c={conllu}", *out],
        ["train", "tagger"],
        ["train", "lemmatizer"],
        ["train", "parser"],
        ["lexicon", "load"],
        ["lexicon", "query"],
    ]))
    lines = data.draw(st.lists(_config_lines(paths), max_size=4))
    config = write(tmp_path, "pipe.conf", "\n".join(lines) + "\n")
    capsys.readouterr()
    code = main([*command, "--config", str(config)])
    err = capsys.readouterr().err
    assert code in (0, 1, 2), err
    if code:
        assert err.count("\n") == 1, err


def _malformed_sections(path, kind):
    from slavpipe.modelio import write_archive

    write_archive(path, kind, {"schema": "ud"}, {
        "tagger": {"form_probs": {}, "suffix_counts": {}, "xpos_best": {},
                   "triples": [], "default_triple": ["X"]},
        "lemmatizer": {"lookup": [], "rules": [["a", "N", "e", "high"]]},
        "parser": {"weights": {}, "dep_labels": ["a"], "root_labels": []},
    }[kind])


def _non_canonical_feats(path, kind):
    """One archived feats with a trailing "|", which canonical_feats drops."""
    from slavpipe.modelio import read_archive, write_archive

    meta, sections = read_archive(path, kind)
    row = next(row for rows in sections["form_probs"].values() for row in rows if row[2])
    row[2] += "|"
    write_archive(path, kind, meta, sections)


def _column_break(section, char="\t"):
    """A damage that puts ``char`` into the first archived string of
    ``section`` that annotation writes: a tagger xpos, a lemmatizer lookup
    lemma, rule replacement or embedded lexicon lemma, a parser label."""
    from slavpipe.modelio import read_archive, write_archive

    def damage(path, kind):
        meta, sections = read_archive(path, kind)
        rows = sections[section]
        if section == "form_probs":
            row = next(iter(rows.values()))[0]
            row[1] = row[1][:1] + char + row[1][1:]
        elif section in ("lookup", "rules"):
            rows[0][2] += char
        elif section == "lexicon":
            rows["rows"][0][1] += char
        else:
            rows[0] += char
        write_archive(path, kind, meta, sections)

    return damage


def _non_finite(section, constant="NaN"):
    """A damage that writes the first number of ``section`` as ``constant``."""
    def damage(path, kind):
        write_non_finite(path, kind, section, constant)

    return damage


def _extra_byte(path, kind):
    path.write_bytes(path.read_bytes() + b"x")


def _second_meta(path, kind):
    """A second meta section, which would record another language."""
    meta = json.dumps({"kind": kind, "language": "hr"}).encode()
    path.write_bytes(with_section(path.read_bytes(), "meta", meta))


@pytest.mark.parametrize(
    "kind, tasks, damage, message",
    [
        pytest.param("tagger", "morph", _malformed_sections, "malformed tagger model",
                     id="tagger-morph"),
        pytest.param("lemmatizer", "morph,lemma", _malformed_sections,
                     "malformed lemmatizer model", id="lemmatizer-morph,lemma"),
        pytest.param("parser", "morph,lemma,depparse", _malformed_sections,
                     "malformed parser model", id="parser-morph,lemma,depparse"),
        pytest.param("tagger", "morph", _second_meta, "repeated section 'meta'",
                     id="tagger-repeated-meta"),
        pytest.param("tagger", "morph", _extra_byte, "extra bytes after the last section: 1",
                     id="tagger-extra-byte"),
        pytest.param("tagger", "morph", _non_canonical_feats, "is not in canonical form",
                     id="tagger-non-canonical-feats"),
        pytest.param("tagger", "morph", _column_break("form_probs"),
                     "holds a tab or a line break", id="tagger-xpos-tab"),
        pytest.param("lemmatizer", "morph,lemma", _column_break("lookup"),
                     "holds a tab or a line break", id="lemmatizer-lookup-tab"),
        pytest.param("lemmatizer", "morph,lemma", _column_break("rules"),
                     "holds a tab or a line break", id="lemmatizer-rule-tab"),
        pytest.param("parser", "morph,lemma,depparse", _column_break("dep_labels"),
                     "holds a tab or a line break", id="parser-label-tab"),
        pytest.param("lemmatizer", "morph,lemma", _column_break("lexicon", "\t"),
                     "holds a tab or a line break", id="lemmatizer-lexicon-lemma-tab"),
        pytest.param("lemmatizer", "morph,lemma", _column_break("lexicon", "\n"),
                     "holds a tab or a line break", id="lemmatizer-lexicon-lemma-lf"),
        pytest.param("lemmatizer", "morph,lemma", _column_break("lexicon", "\r"),
                     "holds a tab or a line break", id="lemmatizer-lexicon-lemma-cr"),
        pytest.param("tagger", "morph", _non_finite("form_probs"),
                     "NaN is not a finite number", id="tagger-nan-probability"),
        pytest.param("lemmatizer", "morph,lemma", _non_finite("lexicon", "Infinity"),
                     "Infinity is not a finite number", id="lemmatizer-infinite-frequency"),
        pytest.param("parser", "morph,lemma,depparse", _non_finite("weights", "-Infinity"),
                     "-Infinity is not a finite number", id="parser-infinite-weight"),
    ],
)
def test_malformed_model_is_one_line_model_error(
    tmp_path, model_dir, capsys, kind, tasks, damage, message
):
    models = tmp_path / "models"
    shutil.copytree(model_dir, models)
    damage(models / model_filename("sl", "standard", kind), kind)
    src = write(tmp_path, "in.txt", "besedilo.")
    code = main([
        "annotate", "--lang", "sl", "--tasks", f"tokenize,{tasks}",
        "--model-dir", str(models), "--in", str(src),
    ])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"model error: {models}")
    assert message in captured.err
    assert captured.err.count("\n") == 1


def test_malformed_lemmatizer_with_the_configured_lexicon_is_model_error(
    tmp_path, model_dir, synthetic_lexicon, capsys
):
    from slavpipe.modelio import read_archive, write_archive

    models = tmp_path / "models"
    shutil.copytree(model_dir, models)
    path = models / model_filename("sl", "standard", "lemmatizer")
    meta, sections = read_archive(path, "lemmatizer")
    sections["lexicon"]["rows"][-1][3] = "2"
    write_archive(path, "lemmatizer", meta, sections)
    lexicon = write(tmp_path, "lexicon.tsv", lexicon_tsv(synthetic_lexicon))
    src = write(tmp_path, "in.txt", "besedilo.")
    code = main([
        "annotate", "--lang", "sl", "--tasks", "tokenize,morph,lemma",
        "--model-dir", str(models), "--lexicon", str(lexicon), "--in", str(src),
    ])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith(f"model error: {path}: malformed lemmatizer model")
    assert err.count("\n") == 1


@pytest.mark.parametrize("failure", ["replace", "directory"])
def test_failed_output_write_leaves_the_target_alone(tmp_path, capsys, monkeypatch, failure):
    src = write(tmp_path, "in.txt", "Prva poved.")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    if failure == "replace":
        target = write(out_dir, "out.conllu", "previous bytes\n")

        def refuse(*args):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr("slavpipe.modelio.os.replace", refuse)
    else:
        target = out_dir / "taken"
        target.mkdir()
    code = main(["tokenize", "--lang", "sl", "--in", str(src), "--out", str(target)])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"data error: cannot write {target}")
    if failure == "replace":
        assert target.read_text(encoding="utf-8") == "previous bytes\n"
    assert sorted(p.name for p in out_dir.iterdir()) == [target.name]


def test_output_into_a_missing_directory_names_the_target_and_the_reason(tmp_path, capsys):
    src = write(tmp_path, "in.txt", "Prva poved.")
    target = tmp_path / "missing" / "x.conllu"
    errors = []
    for _ in range(2):
        code = main(["annotate", "--lang", "sl", "--tasks", "tokenize",
                     "--in", str(src), "--out", str(target)])
        assert code == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == f"data error: cannot write {target}: No such file or directory\n"
    assert errors[1] == errors[0]


def test_output_through_a_symlink_writes_where_it_points(tmp_path):
    src = write(tmp_path, "in.txt", "Prva poved.")
    (tmp_path / "real").mkdir()
    real = write(tmp_path / "real", "out.conllu", "previous bytes\n")
    link = tmp_path / "link.conllu"
    link.symlink_to(real)
    assert main(["tokenize", "--lang", "sl", "--in", str(src), "--out", str(link)]) == 0
    assert link.is_symlink() and link.resolve() == real.resolve()
    assert parse_document(real.read_text(encoding="utf-8")).sentences[0].text == "Prva poved."
    assert sorted(p.name for p in real.parent.iterdir()) == ["out.conllu"]


def test_output_to_a_device_is_written_in_place(tmp_path, capsys, monkeypatch):
    def refuse(*args):
        # run as root, a rename would replace the device node itself
        pytest.fail(f"renamed over a device: {args}")

    monkeypatch.setattr("slavpipe.modelio.os.replace", refuse)
    src = write(tmp_path, "in.txt", "Prva poved.")
    assert main(["tokenize", "--lang", "sl", "--in", str(src), "--out", os.devnull]) == 0
    assert capsys.readouterr().err == ""


def test_output_to_a_fifo_reaches_its_reader(tmp_path):
    src = write(tmp_path, "in.txt", "Prva poved.")
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(
        target=lambda: received.append(fifo.read_text(encoding="utf-8")), daemon=True
    )
    reader.start()
    try:
        code = main(["tokenize", "--lang", "sl", "--in", str(src), "--out", str(fifo)])
    finally:
        reader.join(timeout=30)
    assert code == 0 and not reader.is_alive()
    assert parse_document(received[0]).sentences[0].text == "Prva poved."
    assert stat.S_ISFIFO(fifo.stat().st_mode)


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
    # the closed class of a --rules file fixes the dev tokens it lists
    first = filled.sentences[0].single_tokens()[0].form
    rules = write(tmp_path, "own.rules", f"[CLOSED_SYM]\n{first}\n")
    dev_out = tmp_path / "own.dev.conllu"
    assert main([
        "train", "tagger", "--lang", "sl", "--train", str(train_f), "--dev", str(dev_f),
        "--model-out", str(tmp_path / "own.slm"), "--rules", str(rules), "--dev-out", str(dev_out),
    ]) == 0
    tok = parse_document(dev_out.read_text(encoding="utf-8")).sentences[0].single_tokens()[0]
    assert (tok.upos, tok.xpos, tok.lemma) == ("SYM", "X", first)


def test_feats_ending_in_a_bar_train_a_tagger_that_annotates(tmp_path, capsys):
    train_f = write(tmp_path, "train.conllu",
                    "1\tPes\tpes\tNOUN\tNcmsn\tCase=Nom|\t_\t_\t_\t_\n\n")
    models = tmp_path / "models"
    assert main(["train", "tagger", "--lang", "sl", "--train", str(train_f),
                 "--model-dir", str(models)]) == 0
    src = write(tmp_path, "in.txt", "Pes\n")
    capsys.readouterr()
    code = main(["annotate", "--lang", "sl", "--tasks", "tokenize,morph",
                 "--model-dir", str(models), "--in", str(src)])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    [token] = parse_document(captured.out).sentences[0].tokens
    assert (token.upos, token.xpos, token.feats) == ("NOUN", "Ncmsn", "Case=Nom")


def test_a_form_missing_from_training_takes_its_lemma_from_the_trained_lexicon(
    tmp_path, capsys
):
    lexicon = write(tmp_path, "lexicon.tsv", "pes\tpes\tNcmsn\t3\npsa\tpes\tNcmsg\t2\n")
    train_f = write(
        tmp_path, "train.conllu",
        "1\tPes\tpes\tNOUN\tNcmsn\t_\t2\tnsubj\t_\t_\n"
        "2\tlaja\tlajati\tVERB\tVmpr3s\t_\t0\troot\t_\tSpaceAfter=No\n"
        "3\t.\t.\tPUNCT\tZ\t_\t2\tpunct\t_\t_\n\n"
        "1\tVidim\tvideti\tVERB\tVmpr1s\t_\t0\troot\t_\t_\n"
        "2\tmačko\tmačka\tNOUN\tNcfsa\t_\t1\tobj\t_\tSpaceAfter=No\n"
        "3\t.\t.\tPUNCT\tZ\t_\t1\tpunct\t_\t_\n\n",
    )
    models = tmp_path / "models"
    for stage in ("tagger", "lemmatizer"):
        assert main(["train", stage, "--lang", "sl", "--lexicon", str(lexicon),
                     "--train", str(train_f), "--model-dir", str(models)]) == 0
    src = write(tmp_path, "in.txt", "Vidim psa.\n")
    capsys.readouterr()
    code = main(["annotate", "--lang", "sl", "--tasks", "tokenize,morph,lemma",
                 "--lexicon", str(lexicon), "--model-dir", str(models), "--in", str(src)])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    line = "2\tpsa\tpes\tNOUN\tNcmsg\t_\t_\t_\t_\tSpaceAfter=No|Lemmatizer=lexicon"
    assert line in captured.out.splitlines()


def test_unwritable_model_path_is_data_error(tmp_path, train_doc, capsys):
    train_f = write(tmp_path, "train.conllu", serialize_document(train_doc))
    taken = tmp_path / "taken"
    taken.mkdir()
    code = main([
        "train", "tagger", "--lang", "sl", "--train", str(train_f),
        "--model-out", str(taken),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: cannot write {taken}")
    assert err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken", "train.conllu"]


@pytest.mark.parametrize("where", ["file", "file/sub"])
def test_a_model_dir_that_cannot_be_made_is_data_error(tmp_path, train_doc, capsys, where):
    train_f = write(tmp_path, "train.conllu", serialize_document(train_doc))
    write(tmp_path, "file", "not a directory\n")
    target = tmp_path / where
    code = main([
        "train", "tagger", "--lang", "sl", "--train", str(train_f), "--model-dir", str(target),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: cannot write {target}: ")
    assert err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file", "train.conllu"]
    assert (tmp_path / "file").read_text(encoding="utf-8") == "not a directory\n"


@pytest.mark.parametrize(
    "flags, target",
    [
        (["--model-out", "file/x.slm"], "file/x.slm"),
        (["--model-out", "file/sub/x.slm"], "file/sub/x.slm"),
        (["--model-dir", "file"], "file"),
        (["--model-dir", "file/sub"], "file/sub"),
        (["--model-dir", "new", "--dev", "train.conllu", "--dev-out", "file/dev.conllu"],
         "file/dev.conllu"),
    ],
    ids=["model-out", "model-out-deeper", "model-dir", "model-dir-under", "dev-out"],
)
def test_an_unwritable_target_is_refused_before_training(
    tmp_path, train_doc, capsys, monkeypatch, flags, target
):
    def never(*args, **kwargs):
        raise AssertionError("the tagger was trained")

    monkeypatch.setattr("slavpipe.cli.train_stage_tagger", never)
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "train.conllu", serialize_document(train_doc))
    write(tmp_path, "file", "not a directory\n")
    code = main(["train", "tagger", "--lang", "sl", "--train", "train.conllu", *flags])
    assert code == 2
    assert capsys.readouterr().err == f"data error: cannot write {target}: Not a directory\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file", "train.conllu"]


def _never_trained(*args, **kwargs):
    raise AssertionError("the tagger was trained")


def test_dev_out_to_a_closed_standard_output_is_refused_before_training(
    tmp_path, train_doc, capsys, monkeypatch
):
    monkeypatch.setattr("slavpipe.cli.train_stage_tagger", _never_trained)
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "train.conllu", serialize_document(train_doc))
    monkeypatch.setattr(sys, "stdout", None)  # the interpreter's value for a closed descriptor
    code = main(["train", "tagger", "--lang", "sl", "--train", "train.conllu",
                 "--dev", "train.conllu", "--dev-out", "-", "--model-out", "m.slm"])
    assert code == 2
    assert capsys.readouterr().err == "data error: cannot write standard output: it is closed\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["train.conllu"]


@pytest.mark.parametrize(
    "flags, model",
    [
        (["--model-out", "m.slm", "--dev-out", "m.slm"], "m.slm"),
        (["--model-out", "m.slm", "--dev-out", "./m.slm"], "m.slm"),
        (["--model-out", "m.slm", "--dev-out", "link.slm"], "m.slm"),
        (["--model-dir", "models", "--dev-out", "models/sl_standard_tagger.slm"],
         "models/sl_standard_tagger.slm"),
    ],
    ids=["model-out", "model-out-dot", "model-out-symlink", "model-dir"],
)
def test_dev_out_naming_the_model_is_refused_before_training(
    tmp_path, train_doc, capsys, monkeypatch, flags, model
):
    monkeypatch.setattr("slavpipe.cli.train_stage_tagger", _never_trained)
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "train.conllu", serialize_document(train_doc))
    (tmp_path / "link.slm").symlink_to("m.slm")
    code = main(["train", "tagger", "--lang", "sl", "--train", "train.conllu",
                 "--dev", "train.conllu", *flags])
    assert code == 1
    assert capsys.readouterr().err == (
        f"configuration error: --dev-out names the model's own file {model}\n"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.slm", "train.conllu"]


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--model-out", "train.conllu"], "--model-out names the --train file train.conllu"),
        (["--model-out", "./dev.conllu", "--dev", "dev.conllu"],
         "--model-out names the --dev file dev.conllu"),
        (["--model-out", "lexicon.tsv", "--lexicon", "lexicon.tsv"],
         "--model-out names the --lexicon file lexicon.tsv"),
        (["--model-out", "rules.txt", "--rules", "link.txt"],
         "--model-out names the --rules file link.txt"),
        (["--model-dir", ".", "--train", "sl_standard_tagger.slm"],
         "--model-dir names the --train file sl_standard_tagger.slm"),
        (["--model-out", "m.slm", "--dev", "dev.conllu", "--dev-out", "train.conllu"],
         "--dev-out names the --train file train.conllu"),
        (["--model-out", "m.slm", "--dev", "m.slm.dev.conllu"],
         "the default --dev-out names the --dev file m.slm.dev.conllu"),
    ],
    ids=["model-train", "model-dev", "model-lexicon", "model-rules-symlink", "model-dir-train",
         "dev-out-train", "default-dev-out-dev"],
)
def test_an_output_that_is_an_input_is_refused_before_reading(
    tmp_path, train_doc, capsys, monkeypatch, flags, message
):
    monkeypatch.setattr("slavpipe.cli.train_stage_tagger", _never_trained)
    monkeypatch.chdir(tmp_path)
    corpus = serialize_document(train_doc)
    inputs = {name: corpus for name in ("train.conllu", "dev.conllu", "m.slm.dev.conllu",
                                         "sl_standard_tagger.slm")}
    inputs.update({"lexicon.tsv": "pes\tpes\tNcmsn\t3\n", "rules.txt": "[ABBREV]\nnpr.\n"})
    for name, text in inputs.items():
        write(tmp_path, name, text)
    (tmp_path / "link.txt").symlink_to("rules.txt")
    if "--train" not in flags:
        flags = ["--train", "train.conllu", *flags]
    assert main(["train", "tagger", "--lang", "sl", *flags]) == 1
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    for name, text in inputs.items():
        assert (tmp_path / name).read_text(encoding="utf-8") == text
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([*inputs, "link.txt"])


def test_model_out_into_a_missing_directory_names_the_target_and_the_reason(
    tmp_path, train_doc, capsys
):
    train_f = write(tmp_path, "train.conllu", serialize_document(train_doc))
    target = tmp_path / "missing" / "lemmatizer.slm"
    errors = []
    for _ in range(2):
        code = main(["train", "lemmatizer", "--lang", "sl", "--train", str(train_f),
                     "--model-out", str(target)])
        assert code == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == f"data error: cannot write {target}: No such file or directory\n"
    assert errors[1] == errors[0]


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


def test_train_parser_without_an_arc_between_tokens_is_model_error(tmp_path, dev_doc, capsys):
    train_f = write(tmp_path, "train.conllu", "1\tx\tx\tX\tX\t_\t0\troot\t_\t_\n\n" * 3)
    dev_f = write(tmp_path, "dev.conllu", serialize_document(dev_doc))
    code = main([
        "train", "parser", "--lang", "sl", "--train", str(train_f), "--dev", str(dev_f),
        "--model-out", str(tmp_path / "m.slm"),
    ])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("model error: parser training data needs both an arc between")
    assert err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dev.conllu", "train.conllu"]


@pytest.mark.parametrize("epochs", ["0", "-3"])
def test_train_parser_refuses_fewer_than_one_epoch(tmp_path, train_doc, capsys, epochs):
    train_f = write(tmp_path, "train.conllu", serialize_document(train_doc))
    code = main([
        "train", "parser", "--lang", "sl", "--train", str(train_f),
        "--model-out", str(tmp_path / "m.slm"), "--epochs", epochs,
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"configuration error: parser training needs at least one epoch, got {epochs}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["train.conllu"]


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


@pytest.mark.parametrize("where", ["command line", "config file"])
def test_prep_refuses_a_corpus_id_given_twice_before_reading_a_corpus(tmp_path, capsys, where):
    """The first path does not exist: reading it would be a data error."""
    recipe_f = write(tmp_path, "mix.recipe", "component id=c reps=1\n")
    corpus_f = write(tmp_path, "b.conllu", "1\tšum\t_\t_\t_\t_\t_\t_\t_\t_\n\n")
    entries = [f"c={tmp_path / 'absent.conllu'}", f"c={corpus_f}"]
    out = tmp_path / "out.conllu"
    argv = ["prep", str(recipe_f), "--out", str(out)]
    if where == "command line":
        argv += ["--corpus", entries[0], "--corpus", entries[1]]
        prefix = "--"
    else:
        config = write(tmp_path, "c.cfg", "".join(f"corpus = {e}\n" for e in entries))
        argv += ["--config", str(config)]
        prefix = f"{config}: "
    assert main(argv) == 1
    assert capsys.readouterr().err == f"configuration error: {prefix}corpus id 'c' is given twice\n"
    assert not out.exists()


def test_prep_never_opens_a_corpus_the_recipe_does_not_name(tmp_path, capsys):
    corpus_f = write(tmp_path, "c.conllu", "# sent_id = c.1\n1\tšum\t_\t_\t_\t_\t_\t_\t_\t_\n\n")
    recipe_f = write(tmp_path, "mix.recipe", "component id=c reps=2\n")
    runs = []
    for extra in ([], ["--corpus", "unused=/nonexistent"]):
        out = tmp_path / f"out{len(runs)}.conllu"
        code = main(["prep", str(recipe_f), "--corpus", f"c={corpus_f}", *extra,
                     "--out", str(out)])
        runs.append((code, out.read_bytes(), capsys.readouterr()))
    assert runs[0][0] == runs[1][0] == 0
    assert runs[0][1] == runs[1][1] and runs[0][2] == runs[1][2]


def test_prep_refused_recipe_is_data_error(tmp_path, capsys):
    corpus_f = write(
        tmp_path, "c.conllu", "1\tšum\t_\t_\t_\t_\t_\t_\t_\t_\n\n"
    )
    for line, message in [("reps=1 dedia=1", "keep at least one repetition intact"),
                          ("reps=nan", "'nan' is not a decimal number"),
                          ("reps=1 group=std\nratio std:web", "line 2: ratio std:web names "
                           "group 'web', which no component has"),
                          ("reps=1 group=std\nratio :std", "line 2: ratio :std names "
                           "group '', which no component has")]:
        recipe_f = write(tmp_path, "mix.recipe", f"component id=c {line}\n")
        code = main([
            "prep", str(recipe_f), "--lang", "sl", "--corpus", f"c={corpus_f}",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and message in err
        assert err.count("\n") == 1


@pytest.mark.parametrize(
    "line, message",
    [
        ("reps=nan", "component c: repetitions 'nan' is not a decimal number"),
        ("reps=1 dedia=1", "component c: dediacritizing 1 of 1 repetitions"),
        ("fraction=0 reps=1", "component c: sample fraction 0 is outside (0, 1]"),
    ],
    ids=["nan", "dedia", "fraction"],
)
def test_prep_refused_component_names_file_line_and_id(tmp_path, capsys, line, message):
    corpus_f = write(tmp_path, "c.conllu", "1\tšum\t_\t_\t_\t_\t_\t_\t_\t_\n\n")
    recipe = f"# a mix\ncomponent id=c reps=1\ncomponent id=c {line}\n"
    recipe_f = write(tmp_path, "mix.recipe", recipe)
    code = main(["prep", str(recipe_f), "--lang", "sl", "--corpus", f"c={corpus_f}"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {recipe_f}: line 3: {message}")
    assert err.count("\n") == 1


# --- lexicon ----------------------------------------------------------------


def test_lexicon_load_summary(lexicon_file, vocab, capsys):
    assert main(["lexicon", "load", "--lexicon", str(lexicon_file)]) == 0
    out = capsys.readouterr().out
    entries = vocab.all_entries()
    forms = {form for form, _, _ in entries}
    assert out.startswith(f"forms: {len(forms)}\nentries: {len(entries)}\n")
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


@pytest.mark.parametrize("damage", GZIP_DAMAGE)
def test_damaged_gzip_lexicon_is_one_line_data_error(tmp_path, capsys, damage):
    blob = tmp_path / "lexicon.tsv.gz"
    blob.write_bytes(damaged_gzip(damage))
    assert main(["lexicon", "load", "--lexicon", str(blob)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {blob}: bad gzip data: ")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("line", ["psa\tpe\rs\tNcmsg\t2\n", "psa\tpes\tNcmsg\r"])
def test_a_lexicon_lemma_or_tag_holding_a_cr_is_one_line_data_error(
    tmp_path, model_dir, capsys, line
):
    lexicon = write(tmp_path, "lexicon.tsv", "pes\tpes\tNcmsn\t3\n" + line)
    src = write(tmp_path, "in.txt", "Vidim psa.")
    for args in (["annotate", "--lang", "sl", "--tasks", "tokenize,morph,lemma",
                  "--model-dir", str(model_dir), "--in", str(src)], ["lexicon", "load"]):
        assert main([*args, "--lexicon", str(lexicon)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"data error: {lexicon}: form 'psa': ")
        assert "holds a tab or a line break" in captured.err
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


# --- argument handling ------------------------------------------------------


def test_unknown_command_is_configuration_error(capsys):
    assert main(["frobnicate"]) == 1
    assert capsys.readouterr().err.startswith("configuration error:")


def test_unknown_flag_is_configuration_error(capsys):
    assert main(["tokenize", "--volume", "11"]) == 1
    assert capsys.readouterr().err.startswith("configuration error:")


def test_abbreviated_flag_is_configuration_error(tmp_path, capsys):
    src = write(tmp_path, "in.txt", "Ena.")
    assert main(["tokenize", "--la", "sl", "--in", str(src)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "--la" in err


def _command_lines(tmp_path, train_doc, dev_doc, model_dir, lexicon_file):
    """Working command lines that together give every flag of every command."""
    text = write(tmp_path, "in.txt", "Ena poved.")
    train = write(tmp_path, "train.conllu", serialize_document(train_doc))
    dev = write(tmp_path, "dev.conllu", serialize_document(dev_doc))
    recipe = write(tmp_path, "mix.recipe", "component id=c reps=2 dedia=1\n")
    out = str(tmp_path / "out")
    lexicon = ["--lexicon", str(lexicon_file)]
    trained = ["--lang", "sl", "--train", str(train), "--dev", str(dev),
               "--model-dir", str(tmp_path / "models")]
    return [
        ["tokenize", "--lang", "sl", "--in", str(text), "--out", out],
        ["annotate", "--lang", "sl", "--model-dir", str(model_dir), *lexicon,
         "--in", str(text), "--out", out],
        ["train", "tagger", *trained, *lexicon],
        ["train", "lemmatizer", *trained, *lexicon],
        ["train", "parser", *trained, "--epochs", "1"],
        ["evaluate", "--gold", str(dev), "--in", str(dev), "--out", out],
        ["prep", str(recipe), "--lang", "sl", "--corpus", f"c={dev}", "--out", out],
        ["lexicon", "load", *lexicon],
        ["lexicon", "query", *lexicon, "--form", "naj"],
    ]


def _command_line(lines, command: str) -> list[str]:
    """The first of ``lines`` that starts with the words of ``command``."""
    words = command.split()
    return next(line for line in lines if line[: len(words)] == words)


def _given(tmp_path, flag: str, value: str, given: str) -> list[str]:
    """``--flag value`` as a flag, or as a config file holding ``flag = value``."""
    if given == "flag":
        return [f"--{flag}", value]
    return ["--config", str(write(tmp_path, "pipe.conf", f"{flag} = {value}\n"))]


def _assert_refused_writing_nothing(tmp_path, capsys, argv) -> None:
    before = sorted(tmp_path.rglob("*"))
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1
    assert sorted(tmp_path.rglob("*")) == before


# What each command's handler does not read: every one is an unknown flag
# and an unknown config key of that command (a command without its stage or
# action word means the first of _command_lines: train tagger, lexicon load).
_UNREAD_FLAGS = [
    ("prep", "in"), ("prep", "type"), ("prep", "rules"),
    ("train", "in"), ("train", "out"), ("train", "type"),
    ("lexicon", "in"), ("lexicon", "out"),
    ("train tagger", "schema"), ("train tagger", "seed"), ("train tagger", "epochs"),
    ("train lemmatizer", "rules"), ("train lemmatizer", "schema"),
    ("train lemmatizer", "seed"), ("train lemmatizer", "epochs"),
    ("train parser", "rules"), ("train parser", "lexicon"),
    ("lexicon load", "form"), ("lexicon load", "xpos"),
]


@pytest.mark.parametrize("given", ["flag", "config"])
@pytest.mark.parametrize("command, flag", _UNREAD_FLAGS)
def test_a_flag_the_command_does_not_read_is_refused(
    tmp_path, capsys, train_doc, dev_doc, model_dir, lexicon_file, command, flag, given
):
    lines = _command_lines(tmp_path, train_doc, dev_doc, model_dir, lexicon_file)
    argv = _command_line(lines, command)
    value = {"type": "web", "schema": "jos", "seed": "5", "epochs": "1"}.get(
        flag, str(tmp_path / "given")
    )
    extra = _given(tmp_path, flag, value, given)
    _assert_refused_writing_nothing(tmp_path, capsys, [*argv, *extra])
    assert main(argv) == 0


@pytest.mark.parametrize("given", ["flag", "config"])
@pytest.mark.parametrize("pair", ["model-out with model-dir", "dev-out without dev"])
@pytest.mark.parametrize("stage", ["tagger", "lemmatizer", "parser"])
def test_a_train_flag_that_another_flag_leaves_unread_is_refused(
    tmp_path, capsys, train_doc, dev_doc, model_dir, lexicon_file, stage, pair, given
):
    lines = _command_lines(tmp_path, train_doc, dev_doc, model_dir, lexicon_file)
    argv = _command_line(lines, f"train {stage}")
    if pair == "dev-out without dev":
        at = argv.index("--dev")
        argv = argv[:at] + argv[at + 2:]
    flag = pair.split()[0]
    _assert_refused_writing_nothing(
        tmp_path, capsys, [*argv, *_given(tmp_path, flag, str(tmp_path / "given"), given)]
    )
    assert main(argv) == 0


@pytest.mark.parametrize("flag", ["lang", "config"])
def test_a_flag_before_the_stage_word_is_refused(
    tmp_path, capsys, train_doc, dev_doc, model_dir, lexicon_file, flag
):
    lines = _command_lines(tmp_path, train_doc, dev_doc, model_dir, lexicon_file)
    config = write(tmp_path, "pipe.conf", "lang = sl\n")
    value = "sl" if flag == "lang" else str(config)
    argv = _command_line(lines, "train tagger")
    _assert_refused_writing_nothing(tmp_path, capsys, ["train", f"--{flag}", value, *argv[1:]])


class _ReadRecorder(argparse.Namespace):
    """A namespace that records the names of the attributes read from it."""

    def __init__(self):
        super().__init__()
        self._reads = set()

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_reads").add(name)
        return object.__getattribute__(self, name)


def test_every_flag_of_every_command_is_read_by_its_handler(
    tmp_path, capsys, train_doc, dev_doc, model_dir, lexicon_file
):
    parser = build_parser()
    reads = {words: set() for words in parser.commands}
    for argv in _command_lines(tmp_path, train_doc, dev_doc, model_dir, lexicon_file):
        args = parser.parse_args(argv, namespace=_ReadRecorder())
        args._reads.clear()  # parsing reads too
        assert args.func(args) == 0, argv
        reads[next(words for words in reads if tuple(argv[: len(words)]) == words)] |= args._reads
    for words, command in parser.commands.items():
        flags = {a.dest for a in command._actions if a.option_strings} - {"help", "config"}
        assert flags - reads[words] == set(), words


# --- damaged input files ----------------------------------------------------

_CELL_DAMAGE = ["_", "", "0", "-1", "1-2", "2-1", "1.1", "\x00", "\ufeff", "Case=Nom|"]
_LINE_DAMAGE = ["cell", "head", "delete", "duplicate", "swap", "truncate", "comment", "blank"]


@st.composite
def _damaged(draw, lines):
    """The text of ``lines`` after one to three damages: a cell replaced, a
    random head, a line deleted, duplicated, swapped or truncated, a comment
    or a blank line inserted."""
    lines = list(lines)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(lines) - 1))
        line = lines[at]
        damage = draw(st.sampled_from(_LINE_DAMAGE))
        if damage in ("cell", "head"):
            cells = line.split("\t")
            if damage == "head" and len(cells) == 10:
                cells[6] = str(draw(st.integers(0, 12)))
            else:
                cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(_CELL_DAMAGE))
            lines[at] = "\t".join(cells)
        elif damage == "delete" and len(lines) > 1:
            del lines[at]
        elif damage == "duplicate":
            lines.insert(at, line)
        elif damage == "swap":
            other = draw(st.integers(0, len(lines) - 1))
            lines[at], lines[other] = lines[other], line
        elif damage == "truncate":
            lines[at] = line[: draw(st.integers(0, len(line)))]
        elif damage in ("comment", "blank"):
            comment = st.sampled_from(["#", "# x = y", "# text = x", "# sent_id = 1"])
            lines.insert(at, draw(comment) if damage == "comment" else "")
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_damaged_input_ends_in_valid_output_or_one_error_line(
    tmp_path, capsys, model_dir, dev_doc, synthetic_lexicon, data
):
    clean = serialize_document(Document(sentences=dev_doc.sentences[:4]))
    corpus = str(write(tmp_path, "corpus.conllu", data.draw(_damaged(clean.splitlines()))))
    rows = lexicon_tsv(synthetic_lexicon).splitlines()[::5]
    lexicon = str(write(tmp_path, "lexicon.tsv", data.draw(_damaged(rows))))
    gold = str(write(tmp_path, "gold.conllu", clean))
    recipe = str(write(tmp_path, "mix.recipe", "component id=c reps=2 dedia=1\n"))
    out = tmp_path / "out"
    out.unlink(missing_ok=True)
    train = ["--lang", "sl", "--train", corpus, "--model-out", str(tmp_path / "model.slm")]
    argv = data.draw(st.sampled_from([
        ["train", "tagger", *train, "--lexicon", lexicon],
        ["train", "lemmatizer", *train, "--lexicon", lexicon],
        ["train", "parser", *train, "--epochs", "1"],
        ["train", "parser", *train, "--epochs", "1", "--schema", "jos"],
        ["evaluate", "--gold", gold, "--in", corpus, "--out", str(out)],
        ["evaluate", "--gold", corpus, "--in", gold, "--out", str(out)],
        ["annotate", "--lang", "sl", "--tasks", "morph,lemma,depparse", "--model-dir",
         str(model_dir), "--lexicon", lexicon, "--in", corpus, "--out", str(out)],
        ["prep", recipe, "--lang", "sl", "--corpus", f"c={corpus}", "--out", str(out)],
        ["lexicon", "load", "--lexicon", lexicon],
    ]))
    capsys.readouterr()
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3), err
    if code:
        assert err.count("\n") == 1, err
    elif argv[0] == "annotate":
        assert validate_document(parse_document(out.read_text(encoding="utf-8"))) == []


# --- last resort and closed streams -----------------------------------------


def test_unexpected_exception_is_one_line_internal_error(tmp_path, capsys, monkeypatch):
    def boom(*args):
        raise RuntimeError("first line\nsecond line")

    monkeypatch.setattr("slavpipe.pipeline.tokenize", boom)
    src = write(tmp_path, "in.txt", "Ena.")
    assert main(["tokenize", "--lang", "sl", "--in", str(src)]) == 4
    captured = capsys.readouterr()
    assert captured.err == "internal error: RuntimeError: first line second line\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [["tokenize", "--lang", "sl"], ["evaluate", "--gold", "gold.conllu"],
     ["train", "parser", "--lang", "sl", "--train", "-", "--model-out", "p.slm"]],
    ids=["tokenize", "evaluate", "train"],
)
def test_a_closed_standard_input_is_data_error(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "gold.conllu", "1\tEna\t_\t_\t_\t_\t_\t_\t_\t_\n\n")
    monkeypatch.setattr(sys, "stdin", None)  # the interpreter's value for a closed descriptor
    assert main(argv) == 2
    assert capsys.readouterr().err == "data error: cannot read standard input: it is closed\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["gold.conllu"]


@pytest.mark.parametrize(
    "argv",
    [["tokenize", "--lang", "sl", "--in", "in.txt"],
     ["tokenize", "--lang", "sl", "--in", "in.txt", "--out", "-"],
     ["evaluate", "--gold", "gold.conllu", "--in", "gold.conllu"],
     ["prep", "mix.recipe", "--corpus", "c=gold.conllu"],
     ["lexicon", "load", "--lexicon", "lex.tsv"],
     ["lexicon", "query", "--lexicon", "lex.tsv", "--form", "pes"]],
    ids=["tokenize", "tokenize-dash", "evaluate", "prep", "lexicon-load", "lexicon-query"],
)
def test_results_for_a_closed_standard_output_are_data_error(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "in.txt", "Ena.")
    write(tmp_path, "gold.conllu", "1\tEna\t_\t_\t_\t_\t_\t_\t_\t_\n\n")
    write(tmp_path, "mix.recipe", "component id=c reps=1\n")
    write(tmp_path, "lex.tsv", "pes\tpes\tNcmsn\t10\n")
    monkeypatch.setattr(sys, "stdout", None)  # the interpreter's value for a closed descriptor
    assert main(argv) == 2
    assert capsys.readouterr().err.endswith(
        "data error: cannot write standard output: it is closed\n"
    )


def test_a_command_writing_only_files_ignores_a_closed_standard_output(
    tmp_path, capsys, monkeypatch
):
    src = write(tmp_path, "in.txt", "Ena.")
    out = tmp_path / "out.conllu"
    monkeypatch.setattr(sys, "stdout", None)
    assert main(["tokenize", "--lang", "sl", "--in", str(src), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    doc = parse_document(out.read_text(encoding="utf-8"))
    assert [t.form for t in doc.single_tokens()] == ["Ena", "."]


def test_a_really_closed_standard_input_is_data_error(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(slavpipe.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "slavpipe.cli", "tokenize", "--lang", "sl"],
        preexec_fn=lambda: os.close(0), capture_output=True, env=env, timeout=120,
    )
    assert done.stderr == b"data error: cannot read standard input: it is closed\n"
    assert (done.returncode, done.stdout) == (2, b"")


@pytest.mark.parametrize("sentences", [1, 5000])  # flushed at the end / while writing
def test_closed_stdout_pipe_ends_quietly(tmp_path, sentences):
    src = write(tmp_path, "in.txt", "Prva poved. " * sentences)
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first write
    env = dict(os.environ, PYTHONPATH=str(Path(slavpipe.__file__).parents[1]))
    try:
        done = subprocess.run(
            [sys.executable, "-m", "slavpipe.cli", "tokenize", "--lang", "sl", "--in", str(src)],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert done.stderr == b""
    assert done.returncode == EXIT_BROKEN_PIPE == 141
