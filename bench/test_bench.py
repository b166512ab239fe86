"""Tests of the benchmark's own code: generator, shims and span accounting."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import spans
import synth
from slavpipe import conllu, depparse, lemmatizer, pipeline, tagger
from slavpipe.evaluate import evaluate_spans
from slavpipe.lexicon import Lexicon
from slavpipe.tokenizer import TokenizerMode, default_rules, tokenize

BENCH = Path(__file__).resolve().parent


def _docs(seed: int, style: str, n: int):
    vocab = synth.Vocabulary(seed)
    gen = synth.Generator(vocab, seed, f"{style}-test", 1.05 if style == "news" else 0.8)
    stream = synth.documents(gen, style)
    return [next(stream) for _ in range(n)]


def test_generator_is_deterministic_for_a_seed():
    assert _docs(3, "news", 20) == _docs(3, "news", 20)
    assert _docs(3, "web", 50) == _docs(3, "web", 50)
    assert synth.Vocabulary(3).lexicon_rows(3) == synth.Vocabulary(3).lexicon_rows(3)
    assert _docs(3, "news", 5) != _docs(4, "news", 5)


@pytest.mark.parametrize("style,mode", [("news", TokenizerMode.STANDARD),
                                        ("web", TokenizerMode.NONSTANDARD)])
@pytest.mark.parametrize("seed", [1, 2])
def test_tokenizer_reproduces_gold_segmentation(style, mode, seed):
    rules = default_rules(synth.LANG)
    for i, (text, sentences) in enumerate(_docs(seed, style, 60 if style == "news" else 300)):
        gold = synth.gold_document(sentences, f"t{i}")
        assert not conllu.validate_document(gold)
        for sent in gold.sentences:
            assert not depparse.validate_tree(sent, depparse.TreeSchema.UD)
        pred = tokenize(text, mode, rules)
        report = evaluate_spans(gold, pred)
        assert report.scores["tokens"] == 1.0, text
        assert len(pred.sentences) == len(gold.sentences), text


@pytest.fixture(scope="module")
def tiny_pipeline(tmp_path_factory):
    """A pipeline over models trained on a small generated corpus."""
    out = tmp_path_factory.mktemp("models")
    vocab = synth.Vocabulary(5)
    train = synth.news_corpus(synth.Generator(vocab, 5, "tiny"), 80, "tiny")
    lex = Lexicon()
    for form, lemma, xpos, freq in vocab.lexicon_rows(5):
        lex.add(form, lemma, xpos, freq)
    names = {kind: pipeline.model_filename(synth.LANG, "standard", kind)
             for kind in ("tagger", "lemmatizer", "parser")}
    tagger.save_tagger(tagger.train_tagger(train, conllu.Document(), synth.LANG), out / names["tagger"])
    lemmatizer.save_lemmatizer(lemmatizer.train_lemmatizer(train, lex, synth.LANG),
                               out / names["lemmatizer"])
    depparse.save_parser(depparse.train_parser(train, depparse.TreeSchema.UD, synth.LANG, epochs=1),
                         out / names["parser"])
    config = pipeline.PipelineConfig(language=synth.LANG, model_dir=out)
    return config, [text for text, _ in _docs(6, "news", 4)]


def _bound() -> list:
    """What each shim target's name is bound to right now."""
    return [vars(spans._resolve(path))[attr] for path, attr, *_ in spans.TARGETS]


def test_shims_restore_the_original_functions(tiny_pipeline):
    config, texts = tiny_pipeline
    original = _bound()
    tag_document = pipeline.tag_document
    tracer = spans.Tracer()
    with tracer.installed():
        assert pipeline.tag_document is not tag_document
        pipeline.Pipeline(config).annotate(texts[0])
    assert all(now is then for now, then in zip(_bound(), original))
    assert tracer.spans and all(span[2] is not None for span in tracer.spans)
    # an exception inside the traced block still restores everything
    with pytest.raises(RuntimeError):
        with tracer.installed():
            raise RuntimeError("boom")
    assert all(now is then for now, then in zip(_bound(), original))


def test_layer_self_times_account_for_the_traced_time(tiny_pipeline):
    config, texts = tiny_pipeline
    pipe = pipeline.Pipeline(config)
    tracer = spans.Tracer()
    with tracer.installed():
        for i, text in enumerate(texts):
            with tracer.span("doc", f"doc{i}"):
                conllu.serialize_document(pipe.annotate(text))
    summary = spans.Summary(tracer.spans)
    layers = {name.split(".", 1)[0] for name in summary.self_time}
    assert {"tokenizer", "tagger", "lemmatizer", "depparse", "conllu", "pipeline"} <= layers
    attributed = sum(summary.layer_self(layer) for layer in layers)
    assert attributed + summary.root_self == pytest.approx(summary.root_total, rel=1e-9)
    assert summary.root_self / summary.root_total < 0.2
    assert summary.count["tokenizer.tokenize"] == summary.count["depparse.parse_dependency"] > 0


def test_run_refuses_a_checkout_without_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    for name in ("run.py", "spans.py", "synth.py"):
        shutil.copy(BENCH / name, tmp_path / "bench" / name)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "news-bulk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert f"no slavpipe sources in {tmp_path / 'src'}" in proc.stderr
