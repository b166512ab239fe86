#!/usr/bin/env python3
"""slavpipe benchmark: one workload, one seed, one closed-loop run.

    python3 bench/run.py --workload news-bulk --seed 1 --seconds 10 --trace 0

The run generates its inputs (see ``synth.py``), builds the models it needs
from generated gold CoNLL-U, and then drives the public
slavpipe API from outside, one document or training job at a time, for at
least ``--seconds`` seconds.  It checks every output, prints a ``report``
line (seed, corpus sizes, timing distributions, output hashes, checks) and
ends with one JSON line: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` even-numbered operations run under the timing shims of
``spans.py`` and the metrics are per layer.

The sources are taken from ``src/`` next to this directory and nothing else;
without them the run exits with status 2 before measuring anything.  All
files it writes stay under ``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import itertools
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

if __name__ == "__main__":
    if not (SRC / "slavpipe" / "__init__.py").is_file():
        print(f"bench: no slavpipe sources in {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))

import slavpipe  # noqa: E402
from slavpipe import conllu, dataprep, depparse, evaluate, lemmatizer, lexicon  # noqa: E402
from slavpipe import pipeline, tagger, tokenizer  # noqa: E402
from slavpipe.errors import EvaluationError  # noqa: E402

import spans  # noqa: E402
import synth  # noqa: E402

LANG = synth.LANG
SETUP_REPEATS = 7
BUILD_REPEATS = 3
REF_SECONDS = 0.004  # nominal time of the reference task: the unit of normalized timings
REF_EVERY = 0.2  # seconds between reference samples during a loop
PARSER_SEED = 13
# The vocabulary, lexicon, training corpora, recipe shuffle and the scored
# documents come from CORPUS_SEED, not from --seed: models and quality figures
# are the same for every seed, so any change of a token boundary, tag, lemma
# or arc moves the quality medians.  --seed draws the documents annotated
# after the scored prefix.
CORPUS_SEED = 0
PARSER_EPOCHS = 4
RECIPE = (
    "# standard corpus once, web corpus three times with one copy dediacritized\n"
    "ratio std:web\n"
    "component id=std reps=1 group=std\n"
    "component id=web reps=3 dedia=1 group=web\n"
)
WEB_EXPONENT = 0.8  # flatter Zipf vocabulary of web text: more distinct and unseen forms
SIZES = {  # generated training data, in sentences (std) or documents (web, dev)
    "std_sentences": 450,
    "web_docs": 450,
    "dev_docs": 300,
}


@dataclass(frozen=True)
class Workload:
    why: str
    style: str  # text style of the measured documents
    processing_type: str
    tasks: tuple[str, ...]
    build: str  # "standard" or "recipe" models
    prefix: int  # operations scored, hashed and traced: the same for every seed
    min_ops: int  # latency samples needed for p99 with ten samples above it
    cli_docs: int  # documents in the CLI parity and peak-memory input
    exponent: float  # Zipf exponent of the document vocabulary


WORKLOADS = {
    "news-bulk": Workload(
        why="article-sized standard text, all four tasks: parser decode and "
            "validate_tree dominate, frequent forms repeat",
        style="news", processing_type="standard",
        tasks=("tokenize", "morph", "lemma", "depparse"), build="standard",
        prefix=150, min_ops=1200, cli_docs=50, exponent=1.05,
    ),
    "web-short": Workload(
        why="tweet-sized noisy text without the parser: nonstandard tokenizer, "
            "suffix backoff and per-call overhead dominate",
        style="web", processing_type="nonstandard",
        tasks=("tokenize", "morph", "lemma"), build="recipe",
        prefix=2000, min_ops=1000, cli_docs=500, exponent=WEB_EXPONENT,
    ),
    "train-recipe": Workload(
        why="model building from CoNLL-U: recipe prep, tagger, lemmatizer and "
            "parser training, archive writes and dev evaluation",
        style="web", processing_type="nonstandard",
        tasks=("tokenize", "morph", "lemma", "depparse"), build="recipe",
        prefix=2, min_ops=5, cli_docs=SIZES["dev_docs"], exponent=WEB_EXPONENT,
    ),
}

END_TO_END = {  # name: unit
    "annotate_ktok_s": "ktok/s", "doc_p50_ms": "ms", "doc_p99_ms": "ms",
    "setup_s": "s", "train_s": "s", "peak_rss_mb": "MB", "tok_f1": "F1",
    "upos_acc": "accuracy", "lemma_acc": "accuracy", "las": "score",
}
TIERS = ("train", "lexicon", "rule", "identity", "closed")


# --- inputs -----------------------------------------------------------------


@dataclass
class Inputs:
    """Generated files and documents of one run; all derived from CORPUS_SEED."""

    dir: Path
    vocab: synth.Vocabulary
    lexicon: Path
    std: Path
    web: Path
    dev: Path
    recipe: Path
    dev_docs: list[tuple[str, conllu.Document]]
    dev_gold: conllu.Document
    sizes: dict[str, dict[str, int]]  # tokens and sentences of each gold corpus


def make_inputs(dir: Path) -> Inputs:
    seed = CORPUS_SEED
    vocab = synth.Vocabulary(seed)
    lex_path = dir / "lexicon.tsv"
    lex_path.write_text(
        "".join(f"{f}\t{l}\t{x}\t{c}\n" for f, l, x, c in vocab.lexicon_rows(seed)),
        encoding="utf-8",
    )
    std = synth.news_corpus(synth.Generator(vocab, seed, "std-train"),
                            SIZES["std_sentences"], "std")
    web_gen = synth.Generator(vocab, seed, "web-train", WEB_EXPONENT)
    web = synth.web_corpus(web_gen, SIZES["web_docs"], "web")
    dev_gen = synth.Generator(vocab, seed, "web-dev", WEB_EXPONENT)
    dev_docs = []
    for i in range(SIZES["dev_docs"]):
        text, sentences = dev_gen.web_document()
        dev_docs.append((text, synth.gold_document(sentences, f"dev{i}")))
    dev_gold = conllu.Document(sentences=[s for _, d in dev_docs for s in d.sentences])
    paths, sizes = {}, {}
    for name, doc in (("std", std), ("web", web), ("dev", dev_gold)):
        paths[name] = dir / f"{name}.conllu"
        paths[name].write_text(conllu.serialize_document(doc), encoding="utf-8")
        sizes[name] = {"tokens": n_tokens(doc), "sentences": len(doc.sentences)}
    recipe = dir / "recipe.txt"
    recipe.write_text(RECIPE, encoding="utf-8")
    return Inputs(dir, vocab, lex_path, paths["std"], paths["web"], paths["dev"],
                  recipe, dev_docs, dev_gold, sizes)


def read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


# --- measurement helpers ----------------------------------------------------


def distribution(values: list[float]) -> dict:
    """Median, the highest percentile with ten samples above it, and n."""
    xs = sorted(values)
    n = len(xs)
    out = {"n": n, "median": statistics.median(xs) if xs else None}
    if n > 10:
        pct = min(99.0, 100.0 * (n - 10) / n)
        rank = math.ceil(pct / 100 * n)
        out["top_percentile"] = round(pct, 2)
        out["top"] = xs[rank - 1]
    return out


class SpeedRef:
    """Samples of a fixed reference task, taken next to the measured work.

    The task is the benchmark's own generator writing four news documents
    from a fixed vocabulary and seed: pure Python with string building, dict
    lookups and small allocations, like the annotation stages, and
    independent of slavpipe.

    The CPU of a shared machine changes speed by a third or more for seconds
    to minutes at a time.  A timing is normalized by the reference samples
    around it: ``raw * REF_SECONDS / reference``, which is the time the
    work would take on a machine where the reference task takes REF_SECONDS.
    Work in slavpipe changes the raw time and not the reference, so a real
    speed-up or slow-down shows in full.
    """

    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []
        self._vocab = synth.Vocabulary(0)

    def _task(self) -> float:
        """Seconds for the reference task, with the collector off so that a
        collection of the program's heap does not land in the sample."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            gen = synth.Generator(self._vocab, 0, "reference")
            for _ in range(4):
                gen.news_document()
            return perf_counter() - start
        finally:
            if enabled:
                gc.enable()

    def sample(self) -> None:
        self.at.append(perf_counter())
        self.took.append(self._task())

    def scale(self, start: float, seconds: float) -> float:
        """Normalize the interval ``[start, start + seconds]`` by the median of
        the samples in it and the two nearest on either side, so that one
        disturbed sample cannot move it."""
        lo = bisect.bisect_left(self.at, start)
        hi = bisect.bisect_right(self.at, start + seconds)
        near = self.took[max(0, lo - 2): hi + 2]
        return seconds * REF_SECONDS / statistics.median(near)

    def normalize(self, at: list[float], raw: list[float]) -> list[float]:
        return [self.scale(start, seconds) for start, seconds in zip(at, raw)]


class Watch:
    """Times one long operation as the parts between reference samples.

    ``lap`` ends a part and, unless the operation is traced, takes a
    reference sample that is not counted in the operation's time.  Each part
    is then normalized by the samples right around it.
    """

    def __init__(self, ref: SpeedRef, sample: bool) -> None:
        self.ref = ref
        self.sample = sample
        self.parts: list[tuple[float, float]] = []
        self.start = perf_counter()

    def lap(self) -> None:
        now = perf_counter()
        self.parts.append((self.start, now - self.start))
        if self.sample:
            self.ref.sample()
        self.start = perf_counter()

    def stop(self) -> list[tuple[float, float]]:
        self.parts.append((self.start, perf_counter() - self.start))
        return self.parts


def p99(values: list[float]) -> float:
    xs = sorted(values)
    return xs[math.ceil(0.99 * len(xs)) - 1]


@dataclass
class Counts:
    """Summed gold/pred/correct counts of one quality metric."""

    gold: int = 0
    pred: int = 0
    correct: int = 0

    def add(self, c) -> None:
        self.gold += c.gold
        self.pred += c.pred
        self.correct += c.correct

    def miss(self, gold: int, pred: int) -> None:
        self.gold += gold
        self.pred += pred

    @property
    def f1(self) -> float:
        return 2 * self.correct / (self.gold + self.pred) if self.gold + self.pred else 0.0

    @property
    def accuracy(self) -> float:
        return self.correct / self.gold if self.gold else 0.0


def n_tokens(doc: conllu.Document) -> int:
    return sum(len(s.single_tokens()) for s in doc.sentences)


@dataclass
class Run:
    """Everything one run measures and checks."""

    workload: str
    spec: Workload
    seed: int
    seconds: float
    trace: bool
    tracer: spans.Tracer | None
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    ref: SpeedRef = field(default_factory=SpeedRef)
    # raw timings in seconds, each with its start time for normalization
    doc_lat: list[float] = field(default_factory=list)
    doc_at: list[float] = field(default_factory=list)
    doc_tokens: list[int] = field(default_factory=list)
    traced: list[bool] = field(default_factory=list)
    setup: list[float] = field(default_factory=list)
    setup_at: list[float] = field(default_factory=list)
    train: list[list[tuple[float, float]]] = field(default_factory=list)  # timed parts
    train_traced: list[bool] = field(default_factory=list)
    quality: dict[str, Counts] = field(
        default_factory=lambda: {k: Counts() for k in ("tok", "sent", "upos", "lemma", "las")})
    prefix_outputs: list[conllu.Document] = field(default_factory=list)
    traced_sentences: int = 0
    gold_sentences: int = 0
    digest: "hashlib._Hash" = field(default_factory=hashlib.sha256)
    facts: dict = field(default_factory=dict)
    span_mark: int | None = None

    def fail(self, what: str, exc: BaseException) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{what}: {type(exc).__name__}: {exc}")

    def check(self, ok: bool, message: str) -> None:
        if not ok and message not in self.problems:
            self.problems.append(message)

    def tracing(self, op_index: int) -> bool:
        return self.trace and op_index % 2 == 0


@contextlib.contextmanager
def traced(run: Run, name: str, op: str, on: bool = True):
    """Install the shims and open a root span, or do nothing."""
    if run.tracer is None or not on:
        yield
        return
    with run.tracer.installed(), run.tracer.span(name, op):
        yield


# --- models -------------------------------------------------------------------


def model_names(build: str) -> dict[str, str]:
    variety = "standard" if build == "standard" else "nonstandard"
    return {
        "tagger": pipeline.model_filename(LANG, variety, "tagger"),
        "lemmatizer": pipeline.model_filename(LANG, variety, "lemmatizer"),
        "parser": pipeline.model_filename(LANG, "standard", "parser"),
    }


def train_models(build: str, inputs: Inputs, out: Path, lap) -> dict:
    """Prepare data, train the three stages and save their archives.

    ``standard`` trains everything on a split of the standard corpus;
    ``recipe`` trains tagger and lemmatizer on the recipe mix of standard and
    web text and the parser on the standard corpus.  ``lap`` is called
    between stages.
    """
    std = conllu.parse_document(read(inputs.std))
    combined = None
    if build == "standard":
        train, dev = dataprep.split_document(std, ["0.9", "0.1"], shuffle_seed=CORPUS_SEED)
        variety, morph_train, parser_train = "standard", train, train
    else:
        web = conllu.parse_document(read(inputs.web))
        dev = conllu.parse_document(read(inputs.dev))
        recipe = dataprep.parse_recipe(read(inputs.recipe), name=str(inputs.recipe))
        combined, _ = dataprep.build_recipe_dataset(
            recipe, {"std": std, "web": web},
            diacritic_map=dataprep.default_diacritic_map(LANG), shuffle_seed=CORPUS_SEED,
        )
        variety, morph_train, parser_train = "nonstandard", combined, std
    lex = lexicon.load_lexicon(inputs.lexicon)
    closed = tokenizer.default_rules(LANG).closed_class
    lap()
    tagger_model, _, _ = pipeline.train_stage_tagger(
        morph_train, dev, LANG, variety, lexicon=lex, closed_table=closed)
    lemma_model, _, _ = pipeline.train_stage_lemmatizer(
        morph_train, dev, LANG, variety, lexicon=lex)
    lap()
    parser_model, _, _ = pipeline.train_stage_parser(
        parser_train, dev, LANG, "standard", seed=PARSER_SEED, epochs=PARSER_EPOCHS)
    lap()
    out.mkdir(parents=True, exist_ok=True)
    names = model_names(build)
    tagger.save_tagger(tagger_model, out / names["tagger"])
    lemmatizer.save_lemmatizer(lemma_model, out / names["lemmatizer"])
    depparse.save_parser(parser_model, out / names["parser"])
    return {"parser": parser_model, "combined": combined, "dir": out}


def pipeline_config(spec: Workload, model_dir: Path, inputs: Inputs) -> pipeline.PipelineConfig:
    return pipeline.PipelineConfig(
        language=LANG, processing_type=spec.processing_type, tasks=spec.tasks,
        model_dir=model_dir, lexicon_path=inputs.lexicon,
    )


def time_setup(run: Run, config: pipeline.PipelineConfig) -> pipeline.Pipeline:
    run.ref.sample()
    with traced(run, "setup", "setup"):
        start = perf_counter()
        pipe = pipeline.Pipeline(config)
        run.setup.append(perf_counter() - start)
    run.setup_at.append(start)
    run.ref.sample()
    return pipe


def time_build(run: Run, inputs: Inputs, out: Path) -> dict:
    """One untraced build: its layers are traced on train-recipe only."""
    run.ref.sample()
    watch = Watch(run.ref, sample=True)
    built = train_models(run.spec.build, inputs, out, watch.lap)
    run.train.append(watch.stop())
    run.ref.sample()
    return built


def archives(dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(dir.iterdir())}


# --- scoring and checks -------------------------------------------------------


def check_output(run: Run, doc: conllu.Document, schema=None) -> None:
    problems = conllu.validate_document(doc)
    run.check(not problems, f"output fails validate_document: {problems[:1]}")
    if schema is not None:
        for sent in doc.sentences:
            tree = depparse.validate_tree(sent, schema)
            run.check(not tree, f"output fails validate_tree: {tree[:1]}")


def score(run: Run, gold: conllu.Document, pred: conllu.Document, parsed: conllu.Document | None) -> None:
    """Add one document's segmentation, tag, lemma and arc counts."""
    q = run.quality
    q["tok"].add(evaluate.span_counts(gold, pred, "token"))
    q["sent"].add(evaluate.span_counts(gold, pred, "sentence"))
    try:
        q["upos"].add(evaluate.micro_counts(gold, pred, "upos"))
        q["lemma"].add(evaluate.micro_counts(gold, pred, "lemma"))
        if parsed is not None:
            q["las"].add(evaluate.las_counts(gold, parsed))
    except EvaluationError:
        # different segmentation: every gold token of the document counts as wrong
        g, p = n_tokens(gold), n_tokens(pred)
        for key in ("upos", "lemma", "las"):
            q[key].miss(g, p)


def output_facts(outputs: list[conllu.Document], tagger_model) -> dict:
    """Input and decision properties of a fixed set of outputs."""
    tokens = [t for d in outputs for s in d.sentences for t in s.single_tokens()]
    forms = [t.form for t in tokens]
    tagged = [t for t in tokens if conllu.misc_value(t.misc, tokenizer.CLOSED_CLASS_MISC) != "Yes"]
    tiers = {tier: 0 for tier in TIERS}
    for t in tokens:
        tier = conllu.misc_value(t.misc, lemmatizer.TIER_MISC)
        if tier in tiers:
            tiers[tier] += 1
    n = len(tokens) or 1
    return {
        "tokens": len(tokens),
        "sentences": sum(len(d.sentences) for d in outputs),
        "distinct_forms": len(set(forms)),
        "max_sent_len": max((len(s.single_tokens()) for d in outputs for s in d.sentences), default=0),
        "form_repeat_share": 1 - len(set(forms)) / n,
        "oov_share": sum(t.form not in tagger_model.form_probs for t in tagged) / (len(tagged) or 1),
        "tiers": {tier: c / n for tier, c in tiers.items()},
    }


def cli_child(commands: list[list[str]]) -> tuple[int, str, float]:
    """Run CLI commands in one fresh process; returns status, stderr, peak MB.

    The peak is the child's own ``VmHWM``: its ``ru_maxrss`` would also count
    the parent's resident set, which the child inherits until it execs.
    """
    code = (
        "import json, sys\n"
        "from slavpipe.cli import main\n"
        "status = 0\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    status = main(argv)\n"
        "    if status:\n"
        "        break\n"
        "with open('/proc/self/status') as f:\n"
        "    print(next(line.split()[1] for line in f if line.startswith('VmHWM:')))\n"
        "sys.exit(status)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(commands)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=150,
    )
    peak_kb = int(proc.stdout.split()[-1]) if proc.stdout.strip() else 0
    return proc.returncode, proc.stderr.strip(), peak_kb / 1024


# --- workloads ----------------------------------------------------------------


def run_annotate(run: Run, inputs: Inputs, work: Path) -> None:
    """news-bulk and web-short: build, set up, then annotate documents."""
    spec = run.spec
    built = time_build(run, inputs, work / "models")
    config = pipeline_config(spec, built["dir"], inputs)
    pipe = time_setup(run, config)
    # set-ups are spread over the loop so that a burst of machine speed
    # cannot move all of them; the traced run keeps them out of the loop
    setup_every = run.seconds / SETUP_REPEATS
    while run.trace and len(run.setup) < SETUP_REPEATS:
        time_setup(run, config)
    parser_model = pipe.parser or built["parser"]
    schema = parser_model.schema
    parses = "depparse" in spec.tasks

    scored = synth.Generator(inputs.vocab, CORPUS_SEED, f"{run.workload}-scored", spec.exponent)
    gen = synth.Generator(inputs.vocab, run.seed, f"{run.workload}-docs", spec.exponent)
    stream = itertools.chain(itertools.islice(synth.documents(scored, spec.style), spec.prefix),
                             synth.documents(gen, spec.style))
    cli_texts = []
    loop_start = last_setup = perf_counter()
    i = 0
    while i < spec.prefix or i < spec.min_ops or perf_counter() - loop_start < run.seconds:
        if i == spec.prefix and run.tracer is not None:
            run.span_mark = len(run.tracer.spans)
        if perf_counter() - run.ref.at[-1] >= REF_EVERY:
            run.ref.sample()
        if len(run.setup) < SETUP_REPEATS and perf_counter() - last_setup >= setup_every:
            time_setup(run, config)
            last_setup = perf_counter()
        text, gold_rows = next(stream)
        if i < spec.cli_docs:
            cli_texts.append(text)
        on = run.tracing(i)
        run.attempted += 1
        try:
            with traced(run, "doc", f"doc{i}", on):
                start = perf_counter()
                doc = pipe.annotate(text)
                out = conllu.serialize_document(doc)
                elapsed = perf_counter() - start
        except Exception as exc:  # a failed document is counted, the run goes on
            run.fail(f"document {i}", exc)
            i += 1
            continue
        run.doc_lat.append(elapsed)
        run.doc_at.append(start)
        run.doc_tokens.append(n_tokens(doc))
        run.traced.append(on)
        check_output(run, doc, schema if parses else None)
        if i < spec.prefix:
            gold = synth.gold_document(gold_rows, f"d{i}")
            run.gold_sentences += len(gold.sentences)
            parsed = doc if parses else depparse.parse_dependency(doc, parser_model, LANG)
            score(run, gold, doc, parsed)
            if not parses:
                check_output(run, parsed, schema)
            run.digest.update(out.encode("utf-8"))
            run.prefix_outputs.append(doc)
            if on:
                run.traced_sentences += len(doc.sentences)
        i += 1

    run.ref.sample()
    while len(run.setup) < SETUP_REPEATS:
        time_setup(run, config)
    # more builds after the loop: train_s is a median, and builds are deterministic
    first = archives(built["dir"])
    for k in range(1, BUILD_REPEATS):
        again = time_build(run, inputs, work / f"models{k}")
        run.check(archives(again["dir"]) == first, "repeated builds gave different archives")
        shutil.rmtree(again["dir"])

    run.facts.update(output_facts(run.prefix_outputs, pipe.tagger))
    run.facts["weight_entries"] = sum(len(r) for r in parser_model.weights.values())
    run.facts["archive_bytes"] = sum(len(b) for b in first.values())

    # CLI parity and peak memory: the CLI annotates one file in a fresh process
    joined = "\n\n".join(cli_texts)
    cli_in, cli_out = work / "cli_in.txt", work / "cli_out.conllu"
    cli_in.write_text(joined, encoding="utf-8")
    status, err, run.facts["peak_rss_mb"] = cli_child([[
        "annotate", "--lang", LANG, "--type", spec.processing_type,
        "--tasks", ",".join(spec.tasks), "--model-dir", str(built["dir"]),
        "--lexicon", str(inputs.lexicon), "--in", str(cli_in), "--out", str(cli_out),
    ]])
    library = conllu.serialize_document(pipe.annotate(joined))
    run.check(status == 0, f"CLI annotate exited {status}: {err[-300:]}")
    run.check(status == 0 and cli_out.read_bytes() == library.encode("utf-8"),
              "CLI annotate output differs from the library output")


def run_train_recipe(run: Run, inputs: Inputs, work: Path) -> None:
    """train-recipe: repeat the whole model-building job."""
    spec = run.spec
    archive_hashes = set()
    first = None
    last_dir = None
    loop_start = perf_counter()
    i = 0
    while i < spec.prefix or i < spec.min_ops or perf_counter() - loop_start < run.seconds:
        if i == spec.prefix and run.tracer is not None:
            run.span_mark = len(run.tracer.spans)
        on = run.tracing(i)
        run.attempted += 1
        job_dir = work / f"job{i}"
        run.ref.sample()
        try:
            with traced(run, "job", f"job{i}", on):
                watch = Watch(run.ref, sample=not on)
                built = train_models("recipe", inputs, job_dir, watch.lap)
                watch.lap()
                setup_start = perf_counter()
                pipe = pipeline.Pipeline(pipeline_config(spec, job_dir, inputs))
                setup = perf_counter() - setup_start
                watch.lap()
                lat, ats, toks, preds, outs = [], [], [], [], []
                for k, (text, _) in enumerate(inputs.dev_docs):
                    if k and k % 50 == 0:
                        watch.lap()
                    t = perf_counter()
                    doc = pipe.annotate(text)
                    outs.append(conllu.serialize_document(doc))
                    lat.append(perf_counter() - t)
                    ats.append(t)
                    toks.append(n_tokens(doc))
                    preds.append(doc)
                pred = conllu.Document(sentences=[s for d in preds for s in d.sentences])
                span_report = evaluate.evaluate_spans(inputs.dev_gold, pred)
                report = evaluate.evaluate_documents(inputs.dev_gold, pred)
                parts = watch.stop()
        except Exception as exc:  # a failed job is counted, the run goes on
            run.fail(f"job {i}", exc)
            i += 1
            continue
        run.ref.sample()
        run.train.append(parts)
        run.train_traced.append(on)
        run.setup.append(setup)
        run.setup_at.append(setup_start)
        run.doc_lat.extend(lat)
        run.doc_at.extend(ats)
        run.doc_tokens.extend(toks)
        run.traced.extend([on] * len(lat))
        for doc in preds:
            check_output(run, doc, pipe.parser.schema)
        digest = hashlib.sha256()
        for data in archives(job_dir).values():
            digest.update(data)
        digest.update("".join(outs).encode("utf-8"))
        archive_hashes.add(digest.hexdigest())
        if first is None:
            first = {"spans": span_report, "report": report, "built": built, "pipe": pipe,
                     "digest": digest.hexdigest()}
            run.facts.update(output_facts(preds, pipe.tagger))
            run.facts["weight_entries"] = sum(len(r) for r in built["parser"].weights.values())
            run.facts["archive_bytes"] = sum(p.stat().st_size for p in job_dir.iterdir())
        if on and i < spec.prefix:
            run.traced_sentences += sum(len(d.sentences) for d in preds)
        if last_dir is not None and last_dir != first["built"]["dir"]:
            shutil.rmtree(last_dir, ignore_errors=True)
        last_dir = job_dir
        i += 1
    if first is None:
        return
    run.check(len(archive_hashes) == 1, "repeated training jobs gave different archives or outputs")
    run.digest.update(first["digest"].encode("ascii"))
    scores = first["report"].scores
    q = run.quality
    for key, name in (("upos", "upos"), ("lemma", "lemma"), ("las", "las")):
        c = first["report"].counts.get(name)
        if c is not None:
            q[key].add(c)
    q["tok"].add(first["spans"].counts["tokens"])
    q["sent"].add(first["spans"].counts["sentences"])
    run.gold_sentences = len(inputs.dev_gold.sentences)
    run.check("las" in scores, "dev output was not fully parsed")

    # CLI parity and peak memory: the same job through the command line
    cli = work / "cli"
    cli.mkdir()
    names = model_names("recipe")
    dev_text = "\n\n".join(text for text, _ in inputs.dev_docs[: spec.cli_docs])
    cli_in, cli_out = work / "cli_in.txt", work / "cli_out.conllu"
    cli_in.write_text(dev_text, encoding="utf-8")
    common = ["--lang", LANG, "--lexicon", str(inputs.lexicon)]
    status, err, run.facts["peak_rss_mb"] = cli_child([
        ["prep", str(inputs.recipe), "--corpus", f"std={inputs.std}", "--corpus", f"web={inputs.web}",
         "--lang", LANG, "--seed", str(CORPUS_SEED), "--out", str(cli / "combined.conllu")],
        ["train", "tagger", *common, "--variety", "nonstandard", "--train", str(cli / "combined.conllu"),
         "--dev", str(inputs.dev), "--model-out", str(cli / names["tagger"])],
        ["train", "lemmatizer", *common, "--variety", "nonstandard", "--train", str(cli / "combined.conllu"),
         "--dev", str(inputs.dev), "--model-out", str(cli / names["lemmatizer"])],
        ["train", "parser", "--lang", LANG, "--variety", "standard", "--schema", "ud",
         "--seed", str(PARSER_SEED), "--epochs", str(PARSER_EPOCHS), "--train", str(inputs.std),
         "--dev", str(inputs.dev), "--model-out", str(cli / names["parser"])],
        ["annotate", *common, "--type", spec.processing_type, "--model-dir", str(cli),
         "--in", str(cli_in), "--out", str(cli_out)],
    ])
    run.check(status == 0, f"CLI job exited {status}: {err[-300:]}")
    if status == 0:
        lib_dir = first["built"]["dir"]
        run.check((cli / "combined.conllu").read_text(encoding="utf-8")
                  == conllu.serialize_document(first["built"]["combined"]),
                  "CLI prep output differs from build_recipe_dataset")
        for name in names.values():
            run.check((cli / name).read_bytes() == (lib_dir / name).read_bytes(),
                      f"CLI-trained {name} differs from the library archive")
        library = conllu.serialize_document(first["pipe"].annotate(dev_text))
        run.check(cli_out.read_bytes() == library.encode("utf-8"),
                  "CLI annotate output differs from the library output")


# --- metrics ------------------------------------------------------------------


def end_to_end(run: Run) -> dict[str, tuple[float, str]]:
    q = run.quality
    lat = run.ref.normalize(run.doc_at, run.doc_lat)
    values = {
        "annotate_ktok_s": sum(run.doc_tokens) / sum(lat) / 1000,
        "doc_p50_ms": statistics.median(lat) * 1000,
        "doc_p99_ms": p99(lat) * 1000,
        "setup_s": statistics.median(run.ref.normalize(run.setup_at, run.setup)),
        "train_s": statistics.median(train_seconds(run, normalized=True)),
        "peak_rss_mb": run.facts["peak_rss_mb"],
        "tok_f1": q["tok"].f1,
        "upos_acc": q["upos"].accuracy,
        "lemma_acc": q["lemma"].accuracy,
        "las": q["las"].accuracy,
    }
    return {name: (value, END_TO_END[name]) for name, value in values.items()}


def train_seconds(run: Run, normalized: bool) -> list[float]:
    """Each build's or job's time: the sum of its timed parts."""
    if normalized:
        return [sum(run.ref.scale(*part) for part in parts) for parts in run.train]
    return [sum(seconds for _, seconds in parts) for parts in run.train]


def _overhead(run: Run) -> float:
    """Traced against untraced cost of the same kind of operation."""
    if run.workload == "train-recipe":
        jobs = train_seconds(run, normalized=False)
        on = [t for t, tr in zip(jobs, run.train_traced) if tr]
        off = [t for t, tr in zip(jobs, run.train_traced) if not tr]
        return statistics.median(on) / statistics.median(off) - 1
    per_token = {}
    for flag in (True, False):
        lat = sum(t for t, tr in zip(run.doc_lat, run.traced) if tr is flag)
        toks = sum(n for n, tr in zip(run.doc_tokens, run.traced) if tr is flag)
        per_token[flag] = lat / toks
    return per_token[True] / per_token[False] - 1


def per_layer(run: Run) -> tuple[dict[str, tuple[float, str]], dict[str, float]]:
    """Per-layer metrics, and self time by layer, from the fixed traced work."""
    s = spans.Summary(run.tracer.spans[: run.span_mark])
    total, own, count, calls = s.total, s.self_time, s.count, s.calls
    f = run.facts
    parse_self = own.get("depparse.parse_dependency", 0.0)
    transitions = 2 * count.get("depparse.parse_dependency", 0)
    tok_time = total.get("tokenizer.tokenize", 0.0)
    metrics = {
        "depparse.self_s": (parse_self, "s"),
        "depparse.us_per_transition": (parse_self / transitions * 1e6 if transitions else 0.0, "us"),
        "depparse.validate_s": (total.get("depparse.validate_tree", 0.0), "s"),
        "depparse.max_sent_len": (f["max_sent_len"], "tokens"),
        "depparse.train_s": (total.get("depparse.train_parser", 0.0), "s"),
        "depparse.weight_entries": (f["weight_entries"], "count"),
        "tokenizer.self_s": (own.get("tokenizer.tokenize", 0.0), "s"),
        "tokenizer.ktok_s": (count.get("tokenizer.tokenize", 0) / tok_time / 1000 if tok_time else 0.0, "ktok/s"),
        "tokenizer.sentences": (run.traced_sentences, "count"),
        "tagger.self_s": (own.get("tagger.tag_document", 0.0), "s"),
        "tagger.oov_share": (f["oov_share"], "share"),
        "tagger.form_repeat_share": (f["form_repeat_share"], "share"),
        "tagger.train_s": (total.get("tagger.train_tagger", 0.0), "s"),
        "lemmatizer.self_s": (own.get("lemmatizer.lemmatize_document", 0.0), "s"),
        **{f"lemmatizer.tier.{t}_share": (f["tiers"][t], "share") for t in TIERS},
        "lemmatizer.train_s": (total.get("lemmatizer.train_lemmatizer", 0.0), "s"),
        "conllu.copy_s": (total.get("conllu.copy_document", 0.0), "s"),
        "conllu.copy_calls": (calls.get("conllu.copy_document", 0), "count"),
        "conllu.serialize_s": (total.get("conllu.serialize_document", 0.0), "s"),
        "conllu.validate_s": (total.get("conllu.validate_document", 0.0), "s"),
        "conllu.parse_s": (total.get("conllu.parse_document", 0.0), "s"),
        "pipeline.self_s": (own.get("pipeline.annotate", 0.0), "s"),
        "lexicon.load_s": (total.get("lexicon.load_lexicon", 0.0), "s"),
        "modelio.read_s": (total.get("modelio.read_archive", 0.0), "s"),
        "modelio.archive_bytes": (f["archive_bytes"], "bytes"),
        "modelio.write_s": (total.get("modelio.write_archive", 0.0), "s"),
        "dataprep.self_s": (s.layer_self("dataprep"), "s"),
        "evaluate.self_s": (s.layer_self("evaluate"), "s"),
        "trace.overhead_share": (_overhead(run), "share"),
        "trace.unattributed_share": (s.root_self / s.root_total, "share"),
    }
    breakdown = {layer: s.layer_self(layer) for layer in sorted({n.split(".", 1)[0] for n in own})}
    breakdown["unattributed"] = s.root_self
    breakdown["traced_total"] = s.root_total
    return metrics, breakdown


def report(run: Run, inputs: Inputs) -> dict:
    f = run.facts
    return {
        "workload": run.workload,
        "why": run.spec.why,
        "seed": run.seed,
        "seconds": run.seconds,
        "trace": int(run.trace),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "loop": "closed, one client, one operation in flight",
        "input": {
            "operations": run.attempted,
            "tokens": sum(run.doc_tokens),
            "scored": {"tokens": f.get("tokens"), "sentences": f.get("sentences"),
                       "gold_sentences": run.gold_sentences,
                       "distinct_forms": f.get("distinct_forms")},
            "training": inputs.sizes,
            "lexicon_forms": len({r[0] for r in inputs.vocab.lexicon_rows(CORPUS_SEED)}),
        },
        "timings_s": {
            "raw": {"doc": distribution(run.doc_lat), "setup": distribution(run.setup),
                    "train": distribution(train_seconds(run, normalized=False))},
            "normalized": {
                "doc": distribution(run.ref.normalize(run.doc_at, run.doc_lat)),
                "setup": distribution(run.ref.normalize(run.setup_at, run.setup)),
                "train": distribution(train_seconds(run, normalized=True)),
            },
            "reference": {"nominal": REF_SECONDS, **distribution(run.ref.took)},
        },
        "sentence_f1": run.quality["sent"].f1,
        "failed_share": run.failed / run.attempted if run.attempted else 0.0,
        "output_sha256": run.digest.hexdigest(),
        "errors": run.errors,
        "problems": run.problems,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not Path(slavpipe.__file__).resolve().is_relative_to(SRC):
        print(f"bench: slavpipe imported from {slavpipe.__file__}, not {SRC}", file=sys.stderr)
        return 2

    spec = WORKLOADS[args.workload]
    run = Run(args.workload, spec, args.seed, args.seconds, bool(args.trace),
              spans.Tracer() if args.trace else None)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inputs = make_inputs(work)
        if args.workload == "train-recipe":
            run_train_recipe(run, inputs, work)
        else:
            run_annotate(run, inputs, work)
        if run.failed == run.attempted:
            print(f"bench: every operation failed: {run.errors}", file=sys.stderr)
            return 1
        info = report(run, inputs)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if run.trace:
        values, info["layers_self_s"] = per_layer(run)
        run.tracer.write(results / f"trace-{args.workload}-seed{args.seed}.jsonl")
    else:
        values = end_to_end(run)
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
    info["metrics"] = metrics
    (results / f"{args.workload}-seed{args.seed}-trace{int(run.trace)}.json").write_text(
        json.dumps(info, indent=1) + "\n", encoding="utf-8")
    print("report " + json.dumps(info))
    for name, m in metrics.items():
        print(f"{name:32} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
