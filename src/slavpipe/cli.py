"""Command-line interface.

Commands: ``tokenize``, ``annotate``, ``train <tagger|lemmatizer|parser>``,
``evaluate``, ``prep <recipe>``, ``lexicon <load|query>``.  ``tokenize``,
``annotate`` and ``evaluate`` read ``--in``, these three and ``prep`` write
``--out`` (a path, or ``-``: standard stream, the default).  A command, train
stage or lexicon action takes only the flags it reads, after its words.

Exit codes: 0 success, 1 configuration error, 2 data error, 3 model error,
4 internal error (any other exception, reported on one line).  When the
reader of standard output goes away (``slavpipe annotate ... | head -1``)
the command stops quietly with status 141, as a tool killed by SIGPIPE does.

``--config FILE`` takes ``key = value`` lines: a key is a long flag name of
the command other than ``config``, in full, without ``--`` (``in``,
``model-dir`` or ``model_dir``; any other key is an unknown setting, exit 1),
and its value is checked as the flag's (choices, integers; a bad one is exit
1).  Flags on the command line win; a repeatable one (``--corpus``) adds to
the file's entries, and replaces the file's entry of its corpus id.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Iterable
from pathlib import Path

from .conllu import Document, parse_document, serialize_sentence, serialize_sentences
from .dataprep import (
    build_recipe_dataset,
    default_diacritic_map,
    load_diacritic_map,
    load_recipe,
)
from .depparse import TreeSchema, save_parser
from .errors import (
    ConfigurationError,
    DataError,
    EvaluationError,
    ModelError,
    read_blocks,
    read_text,
)
from .evaluate import evaluate_documents, evaluate_spans, format_report
from .lemmatizer import save_lemmatizer
from .lexicon import load_lexicon
from .modelio import write_atomic
from .pipeline import (
    Pipeline,
    PipelineConfig,
    model_filename,
    train_stage_lemmatizer,
    train_stage_parser,
    train_stage_tagger,
)
from .tagger import save_tagger
from .tokenizer import KNOWN_LANGUAGES, default_rules, load_rules


EXIT_BROKEN_PIPE = 128 + 13  # what a shell reports for a process killed by SIGPIPE


class _Parser(argparse.ArgumentParser):
    """A parser that takes flags by their full names only, like config keys."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):  # noqa: A003 - argparse hook
        raise ConfigurationError(message)


def _write_text(target: str, chunks: Iterable[str]) -> None:
    """Write ``chunks`` of text to ``target`` (``-``: standard output) as
    they come, so that a document's text is never held whole."""
    if target == "-":
        _stdout().writelines(chunks)
        return
    try:
        write_atomic(target, (chunk.encode("utf-8") for chunk in chunks))
    except OSError as exc:
        raise _write_error(target, exc) from exc


def _stdout():
    if sys.stdout is None:  # what the interpreter sets for a closed descriptor
        raise DataError("cannot write standard output: it is closed")
    return sys.stdout


def _check_directory(target: str, directory: str | Path, made: bool = False) -> None:
    """Refuse ``target`` before any work when ``directory``, which is to hold
    it, is a file or under one, or is missing and not ``made`` on writing."""
    try:
        os.stat(os.path.join(directory, ""))  # the trailing separator: ENOTDIR for a file
    except OSError as exc:
        if not (made and isinstance(exc, FileNotFoundError)):
            raise _write_error(target, exc) from exc


def _write_error(target: str, exc: OSError) -> DataError:
    """The error of a failed write, naming ``target`` and the reason only: the
    exception itself may name the temporary file that was written instead."""
    return DataError(f"cannot write {target}: {exc.strerror}")


def _read_document(source: str):
    return parse_document(read_text(source))


def _require(args: argparse.Namespace, attr: str, flag: str) -> str:
    value = getattr(args, attr)
    if value is None:
        raise ConfigurationError(f"{flag} is required (flag or config file)")
    return value


def _config_args(path: str, command: argparse.ArgumentParser) -> list[str]:
    """Each ``key = value`` line of a config file as one ``--key=value`` argument.

    Keys must be exact long flags of ``command`` other than ``--config``:
    argparse reads an unknown ``--key=value`` that holds a space as a
    positional, and the command line's ``--config`` would win over a nested one.
    """
    args = []
    for lineno, raw in enumerate(read_text(path).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep or key.split() != [key]:
            raise ConfigurationError(f"{path}: line {lineno}: expected 'key = value'")
        flag = f"--{key.replace('_', '-')}"
        if flag == "--config" or flag not in command._option_string_actions:
            raise ConfigurationError(f"{path}: line {lineno}: unknown setting {key!r}")
        args.append(f"{flag}={value.strip()}")
    return args


def _parse_args(parser: _Parser, argv: list[str]) -> argparse.Namespace:
    """Parse the command line, then again with the config file's settings after
    the command's words, which lead ``argv``: no parser above a command takes a flag."""
    args = parser.parse_args(argv)
    path = args.config
    if path is None:
        return args
    words = next(words for words in parser.commands if tuple(argv[: len(words)]) == words)
    settings = _config_args(path, parser.commands[words])
    try:
        merged = parser.parse_args([*argv[: len(words)], *settings, *argv[len(words):]])
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from None
    if "corpus" in merged:  # the file's entries lead the command line's
        merged.file_corpus = merged.corpus[: len(merged.corpus) - len(args.corpus)]
        merged.corpus = args.corpus
    return merged


def _split_tasks(tasks: str | None) -> tuple[str, ...] | None:
    if tasks is None:
        return None
    return tuple(t.strip() for t in tasks.split(",") if t.strip())


def _pipeline_config(args: argparse.Namespace) -> PipelineConfig:
    return PipelineConfig(
        language=_require(args, "lang", "--lang"),
        processing_type=args.type,
        tasks=_split_tasks(args.tasks),
        model_dir=args.model_dir,
        rules_path=args.rules or None,  # an empty --rules= means the bundled rules
        lexicon_path=args.lexicon,
        tagger_lexicon_constraint={"on": True, "off": False}.get(args.lexicon_constraint),
    )


# --- commands ---------------------------------------------------------------


def _cmd_annotate(args: argparse.Namespace) -> int:
    pipe = Pipeline(_pipeline_config(args))
    if "tokenize" in pipe.tasks:
        sentences = pipe.annotate_stream(read_blocks(args.infile))
    else:
        sentences = pipe.annotate(_read_document(args.infile)).sentences
    _write_text(args.outfile, map(serialize_sentence, sentences))
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    lang = _require(args, "lang", "--lang")
    if (args.model_out is None) == (args.model_dir is None):
        raise ConfigurationError("exactly one of --model-out or --model-dir is required")
    if args.dev_out and not args.dev:
        raise ConfigurationError("--dev-out needs --dev")
    model_out = args.model_out
    if model_out is None:
        model_out = str(Path(args.model_dir) / model_filename(lang, args.variety, args.stage))
    _check_outputs(args, model_out)
    # settle where the model and the dev split go before reading or training
    if args.model_out is None:
        _check_directory(args.model_dir, args.model_dir, made=True)
    else:
        _check_directory(args.model_out, Path(args.model_out).parent)
    if args.dev_out == "-":
        _stdout()
    elif args.dev_out:
        _check_directory(args.dev_out, Path(args.dev_out).parent)
    train_doc = _read_document(_require(args, "train", "--train"))
    dev_doc = _read_document(args.dev) if args.dev else Document()
    (model, filled, score), save, score_name = args.trainer(args, train_doc, dev_doc)
    target = args.model_dir
    try:
        if target is not None:
            Path(target).mkdir(parents=True, exist_ok=True)
        target = model_out
        save(model, model_out)
    except OSError as exc:
        raise _write_error(target, exc) from exc
    if args.dev:
        _write_text(args.dev_out or f"{model_out}.dev.conllu", serialize_sentences(filled))
    shown = "n/a" if score is None else f"{score:.4f}"
    print(f"{score_name}: {shown}", file=sys.stderr)
    return 0


def _check_outputs(args: argparse.Namespace, model_out: str) -> None:
    """Refuse a ``train`` whose model or dev split would overwrite the other
    or one of its inputs; paths are compared after ``os.path.realpath``."""
    real = os.path.realpath
    if args.dev_out and real(args.dev_out) == real(model_out):
        raise ConfigurationError(f"--dev-out names the model's own file {model_out}")
    outputs = [("--model-out" if args.model_out else "--model-dir", model_out)]
    if args.dev:
        outputs.append(("--dev-out", args.dev_out) if args.dev_out
                       else ("the default --dev-out", f"{model_out}.dev.conllu"))
    for name, target in outputs:
        if target == "-":
            continue
        for flag in ("train", "dev", "lexicon", "rules"):
            source = getattr(args, flag, None)  # a stage has only the flags it reads
            if source and source != "-" and real(source) == real(target):
                raise ConfigurationError(f"{name} names the --{flag} file {source}")


def _train_tagger(args: argparse.Namespace, train_doc: Document, dev_doc: Document):
    lexicon = load_lexicon(args.lexicon) if args.lexicon else None
    closed = None
    if args.rules:
        closed = load_rules(args.rules).closed_class
    elif args.lang in KNOWN_LANGUAGES:
        closed = default_rules(args.lang).closed_class
    trained = train_stage_tagger(train_doc, dev_doc, args.lang, args.variety, lexicon=lexicon,
                                 closed_table=closed)
    return trained, save_tagger, "dev accuracy"


def _train_lemmatizer(args: argparse.Namespace, train_doc: Document, dev_doc: Document):
    lexicon = load_lexicon(args.lexicon) if args.lexicon else None
    trained = train_stage_lemmatizer(train_doc, dev_doc, args.lang, args.variety, lexicon=lexicon)
    return trained, save_lemmatizer, "dev accuracy"


def _train_parser(args: argparse.Namespace, train_doc: Document, dev_doc: Document):
    trained = train_stage_parser(train_doc, dev_doc, args.lang, args.variety, seed=args.seed,
                                 epochs=args.epochs, schema=TreeSchema(args.schema))
    return trained, save_parser, "dev las"


def _cmd_evaluate(args: argparse.Namespace) -> int:
    gold = _read_document(_require(args, "gold", "--gold"))
    pred = _read_document(args.infile)
    report = evaluate_spans(gold, pred)
    fields = list(_split_tasks(args.fields)) if args.fields else None
    try:
        full = evaluate_documents(gold, pred, fields)
        report.scores.update(full.scores)
        report.counts.update(full.counts)
        report.per_label.update(full.per_label)
    except EvaluationError as exc:
        print(f"token-level metrics skipped: {exc}", file=sys.stderr)
    _write_text(args.outfile, [format_report(report, style=args.report), "\n"])
    return 0


def _corpus_paths(entries: list[str], where: str) -> dict[str, str]:
    """The path of each ``ID=PATH`` entry by its id; an id given twice is
    refused.  ``where`` leads an error: ``--`` or the config file's name."""
    paths = {}
    for item in entries:
        cid, sep, path = item.partition("=")
        if not sep:
            raise ConfigurationError(f"{where}corpus expects ID=PATH, got {item!r}")
        if cid in paths:
            raise ConfigurationError(f"{where}corpus id {cid!r} is given twice")
        paths[cid] = path
    return paths


def _cmd_prep(args: argparse.Namespace) -> int:
    recipe = load_recipe(args.recipe)
    # a command-line entry replaces the config file's entry of its id
    paths = {**_corpus_paths(args.file_corpus, f"{args.config}: "),
             **_corpus_paths(args.corpus, "--")}
    named = {c.corpus_id for c in recipe.components}  # no other entry is opened
    corpora = {cid: _read_document(path) for cid, path in paths.items() if cid in named}
    mapping = None
    if args.diacritics:
        mapping = load_diacritic_map(args.diacritics)
    elif any(c.dediacritize_repetitions > 0 for c in recipe.components):
        mapping = default_diacritic_map(_require(args, "lang", "--lang"))
    combined, report = build_recipe_dataset(
        recipe, corpora, diacritic_map=mapping, shuffle_seed=args.seed
    )
    _write_text(args.outfile, serialize_sentences(combined))
    print(report.format(), file=sys.stderr)
    return 0


def _cmd_lexicon_load(args: argparse.Namespace) -> int:
    lex = load_lexicon(_require(args, "lexicon", "--lexicon"))
    lines = [f"forms: {lex.form_count}", f"entries: {len(lex)}"]
    lines += [f"closed class {category}: {len(lex.closed_class_forms(category))}"
              for category in sorted(lex.prefix_table)]
    _write_text("-", (f"{line}\n" for line in lines))
    return 0


def _cmd_lexicon_query(args: argparse.Namespace) -> int:
    lex = load_lexicon(_require(args, "lexicon", "--lexicon"))
    form = _require(args, "form", "--form")
    if args.xpos:
        lemma = lex.lookup_lemma(form, args.xpos)
        lines = [lemma if lemma is not None else "(no entry)"]
    else:
        entries = sorted(lex.entries(form), key=lambda e: (-e.frequency, e.xpos, e.lemma))
        lines = [f"{e.xpos}\t{e.lemma}\t{e.frequency}" for e in entries] or ["(no entry)"]
        categories = [c for c in sorted(lex.prefix_table) if lex.in_closed_class(c, form)]
        if entries and categories:
            lines.append("closed classes: " + ", ".join(categories))
    _write_text("-", (f"{line}\n" for line in lines))
    return 0


# --- parser wiring ----------------------------------------------------------


# The flags several commands share; each command takes only those its handler reads.
_SHARED_FLAGS = {
    "config": dict(help="key = value file filling unset flags"),
    "in": dict(dest="infile", default="-", help="input path or -"),
    "out": dict(dest="outfile", default="-", help="output path or -"),
    "lang": dict(default=None),
    "type": dict(choices=["standard", "nonstandard", "web"], default="standard"),
    "rules": dict(default=None, help="tokenizer rules file"),
    "lexicon": dict(default=None, help="inflectional lexicon (TSV)"),
    "model-dir": dict(default=None),
    "train": dict(default=None, help="training data (CoNLL-U)"),
    "dev": dict(default=None, help="dev data (CoNLL-U)"),
    "variety": dict(choices=["standard", "nonstandard"], default="standard"),
    "model-out": dict(default=None),
    "dev-out": dict(default=None, help="where to write the filled dev split"),
}
_TRAIN_FLAGS = "lang train dev variety model-dir model-out dev-out"  # of every train stage


def _add_command(parser: _Parser, sub, words: str, shared: str, summary=None, **defaults):
    """Command ``words`` with ``--config``, the shared flags in ``shared`` and ``defaults``."""
    p = sub.add_parser(words.split()[-1], help=summary)
    for flag in ("config", *shared.split()):
        p.add_argument(f"--{flag}", **_SHARED_FLAGS[flag])
    p.set_defaults(**defaults)
    parser.commands[tuple(words.split())] = p
    return p


def build_parser() -> _Parser:
    parser = _Parser(prog="slavpipe", description=__doc__.splitlines()[0])
    parser.commands = {}  # each command's parser by its words, such as ("train", "parser")
    sub = parser.add_subparsers(dest="command", required=True)

    # tokenize is annotate with the tokenize task alone: annotate's other
    # settings are fixed here, and are no flags or config keys of tokenize
    _add_command(parser, sub, "tokenize", "in out lang type rules",
                 "split raw text into sentences and tokens", func=_cmd_annotate,
                 tasks="tokenize", model_dir=None, lexicon=None, lexicon_constraint=None)

    p = _add_command(parser, sub, "annotate", "in out lang type rules lexicon model-dir",
                     "run the annotation pipeline", func=_cmd_annotate)
    p.add_argument("--tasks", default=None, help="comma-separated task subset")
    p.add_argument("--lexicon-constraint", choices=["on", "off"], default=None)

    train = sub.add_parser("train", help="train one stage and fill the dev split")
    stages = train.add_subparsers(dest="stage", required=True)
    for stage, shared, trainer in (("tagger", "rules lexicon", _train_tagger),
                                   ("lemmatizer", "lexicon", _train_lemmatizer),
                                   ("parser", "", _train_parser)):
        p = _add_command(parser, stages, f"train {stage}", f"{_TRAIN_FLAGS} {shared}",
                         func=_cmd_train, trainer=trainer)
    p.add_argument("--schema", choices=["ud", "jos"], default="ud")  # p: the parser stage
    p.add_argument("--seed", type=int, default=13)
    p.add_argument("--epochs", type=int, default=8)

    p = _add_command(parser, sub, "evaluate", "in out", "score a system output against gold",
                     func=_cmd_evaluate)
    p.add_argument("--gold", default=None, help="gold data (CoNLL-U)")
    p.add_argument("--fields", default=None, help="comma-separated metric fields")
    p.add_argument("--report", choices=["table", "kv"], default="table")

    p = _add_command(parser, sub, "prep", "lang out", "build a training set from a recipe",
                     func=_cmd_prep, file_corpus=[])  # file_corpus: the config file's --corpus
    p.add_argument("recipe", help="recipe file")
    p.add_argument("--corpus", action="append", default=[], metavar="ID=PATH")
    p.add_argument("--diacritics", default=None, help="diacritic replacement map")
    p.add_argument("--seed", type=int, default=None, help="shuffle seed for sampling")

    lexicon = sub.add_parser("lexicon", help="inspect an inflectional lexicon")
    actions = lexicon.add_subparsers(dest="action", required=True)
    _add_command(parser, actions, "lexicon load", "lexicon", func=_cmd_lexicon_load)
    p = _add_command(parser, actions, "lexicon query", "lexicon", func=_cmd_lexicon_query)
    p.add_argument("--form", default=None)
    p.add_argument("--xpos", default=None)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = _parse_args(parser, sys.argv[1:] if argv is None else argv)
        status = args.func(args)
        if sys.stdout is not None:  # None: closed, and only files were written
            sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return status
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except ModelError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # The reader of stdout has gone: point stdout at devnull so that the
        # flush at interpreter exit does not fail again (the recipe of the
        # Python signal module docs), and exit as SIGPIPE would have.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except Exception as exc:  # noqa: BLE001 - the last resort: one line, own code
        message = f"{type(exc).__name__}: {exc}".replace("\n", " ")
        print(f"internal error: {message}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
