"""Command-line interface.

Commands: ``tokenize``, ``annotate``, ``train <stage>``, ``evaluate``,
``prep <recipe>``, ``lexicon <load|query>``.  Input and output default to
the standard streams; ``--in``/``--out`` accept file paths or ``-``.

Exit codes: 0 success, 1 configuration error, 2 data error, 3 model error.

A plain-text config file of ``key = value`` lines (keys named after the
long flags) can fill in any flag the command line leaves unset; explicit
flags always win.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .conllu import Document, parse_document, serialize_document
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
    read_text,
)
from .evaluate import evaluate_documents, evaluate_spans, format_report
from .lemmatizer import save_lemmatizer
from .lexicon import load_lexicon
from .pipeline import (
    Pipeline,
    PipelineConfig,
    model_filename,
    resolve_components,
    train_stage_lemmatizer,
    train_stage_parser,
    train_stage_tagger,
)
from .tagger import save_tagger
from .tokenizer import (
    KNOWN_LANGUAGES,
    TokenizerMode,
    default_rules,
    load_rules,
    tokenize,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse hook
        raise ConfigurationError(message)


def _write_text(target: str, text: str) -> None:
    if target == "-":
        sys.stdout.write(text)
        return
    try:
        Path(target).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot write {target}: {exc}") from exc


def _read_document(source: str):
    return parse_document(read_text(source))


def _require(args: argparse.Namespace, attr: str, flag: str) -> str:
    value = getattr(args, attr)
    if value is None:
        raise ConfigurationError(f"{flag} is required (flag or config file)")
    return value


def _apply_config(args: argparse.Namespace) -> None:
    """Fill unset flags from the key = value config file."""
    text = read_text(args.config)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigurationError(
                f"{args.config}: line {lineno}: expected 'key = value'"
            )
        dest = key.strip().replace("-", "_")
        value = value.strip()
        if not hasattr(args, dest):
            raise ConfigurationError(
                f"{args.config}: line {lineno}: unknown setting {key.strip()!r}"
            )
        if getattr(args, dest) is None:
            if dest in ("seed", "epochs"):
                try:
                    setattr(args, dest, int(value))
                except ValueError:
                    raise ConfigurationError(
                        f"{args.config}: line {lineno}: {key.strip()} needs an integer"
                    ) from None
            else:
                setattr(args, dest, value)


def _split_tasks(tasks: str | None) -> tuple[str, ...] | None:
    if tasks is None:
        return None
    return tuple(t.strip() for t in tasks.split(",") if t.strip())


def _pipeline_config(args: argparse.Namespace) -> PipelineConfig:
    constraint = None
    if getattr(args, "lexicon_constraint", None) is not None:
        constraint = args.lexicon_constraint == "on"
    return PipelineConfig(
        language=_require(args, "lang", "--lang"),
        processing_type=args.type or "standard",
        tasks=_split_tasks(args.tasks),
        model_dir=args.model_dir,
        rules_path=args.rules,
        lexicon_path=args.lexicon,
        tagger_lexicon_constraint=constraint,
    )


# --- commands ---------------------------------------------------------------


def _cmd_tokenize(args: argparse.Namespace) -> int:
    lang = _require(args, "lang", "--lang")
    ptype = args.type or "standard"
    config = PipelineConfig(language=lang, processing_type=ptype, tasks=("tokenize",))
    variety = resolve_components(config)["tokenize"]
    rules = load_rules(args.rules) if args.rules else default_rules(lang)
    doc = tokenize(read_text(args.infile), TokenizerMode(variety), rules)
    _write_text(args.outfile, serialize_document(doc))
    return 0


def _cmd_annotate(args: argparse.Namespace) -> int:
    pipe = Pipeline(_pipeline_config(args))
    raw = read_text(args.infile)
    source = raw if "tokenize" in pipe.tasks else parse_document(raw)
    _write_text(args.outfile, serialize_document(pipe.annotate(source)))
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    lang = _require(args, "lang", "--lang")
    variety = args.variety or "standard"
    train_doc = _read_document(_require(args, "train", "--train"))
    dev_doc = _read_document(args.dev) if args.dev else None
    dev_for_stage = dev_doc if dev_doc is not None else Document()
    lexicon = load_lexicon(args.lexicon) if args.lexicon else None

    if args.stage == "tagger":
        closed = None
        if args.rules:
            closed = load_rules(args.rules).closed_class
        elif lang in KNOWN_LANGUAGES:
            closed = default_rules(lang).closed_class
        model, filled, score = train_stage_tagger(
            train_doc, dev_for_stage, lang, variety, lexicon=lexicon, closed_table=closed
        )
        save = save_tagger
        score_name = "dev accuracy"
    elif args.stage == "lemmatizer":
        model, filled, score = train_stage_lemmatizer(
            train_doc, dev_for_stage, lang, variety, lexicon=lexicon
        )
        save = save_lemmatizer
        score_name = "dev accuracy"
    else:
        model, filled, score = train_stage_parser(
            train_doc,
            dev_for_stage,
            lang,
            variety,
            schema=TreeSchema(args.schema or "ud"),
            seed=args.seed if args.seed is not None else 13,
            epochs=args.epochs if args.epochs is not None else 8,
        )
        save = save_parser
        score_name = "dev las"

    model_out = args.model_out
    if model_out is None:
        if args.model_dir is None:
            raise ConfigurationError("--model-out or --model-dir is required")
        Path(args.model_dir).mkdir(parents=True, exist_ok=True)
        model_out = str(
            Path(args.model_dir) / model_filename(lang, variety, args.stage)
        )
    save(model, model_out)
    if dev_doc is not None:
        dev_out = args.dev_out or f"{model_out}.dev.conllu"
        _write_text(dev_out, serialize_document(filled))
    shown = "n/a" if score is None else f"{score:.4f}"
    print(f"{score_name}: {shown}", file=sys.stderr)
    return 0


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
    _write_text(args.outfile, format_report(report, style=args.report or "table") + "\n")
    return 0


def _cmd_prep(args: argparse.Namespace) -> int:
    recipe = load_recipe(args.recipe)
    corpora = {}
    for item in args.corpus or []:
        cid, sep, path = item.partition("=")
        if not sep:
            raise ConfigurationError(
                f"--corpus expects ID=PATH, got {item!r}"
            )
        corpora[cid] = _read_document(path)
    mapping = None
    if args.diacritics:
        mapping = load_diacritic_map(args.diacritics)
    elif any(c.dediacritize_repetitions > 0 for c in recipe.components):
        mapping = default_diacritic_map(_require(args, "lang", "--lang"))
    combined, report = build_recipe_dataset(
        recipe, corpora, diacritic_map=mapping, shuffle_seed=args.seed
    )
    _write_text(args.outfile, serialize_document(combined))
    print(report.format(), file=sys.stderr)
    return 0


def _cmd_lexicon(args: argparse.Namespace) -> int:
    lex = load_lexicon(_require(args, "lexicon", "--lexicon"))
    if args.action == "load":
        print(f"forms: {lex.form_count}")
        print(f"entries: {len(lex)}")
        for category in sorted(lex.prefix_table):
            print(f"closed class {category}: {len(lex.closed_class_forms(category))}")
        return 0
    form = _require(args, "form", "--form")
    if args.xpos:
        lemma = lex.lookup_lemma(form, args.xpos)
        print(lemma if lemma is not None else "(no entry)")
        return 0
    entries = lex.entries(form)
    if not entries:
        print("(no entry)")
        return 0
    for entry in sorted(entries, key=lambda e: (-e.frequency, e.xpos, e.lemma)):
        print(f"{entry.xpos}\t{entry.lemma}\t{entry.frequency}")
    categories = [c for c in sorted(lex.prefix_table) if lex.in_closed_class(c, form)]
    if categories:
        print("closed classes: " + ", ".join(categories))
    return 0


# --- parser wiring ----------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="slavpipe", description=__doc__.splitlines()[0])

    common = _Parser(add_help=False)
    common.add_argument("--config", help="key = value file filling unset flags")
    common.add_argument("--in", dest="infile", default=None, help="input path or -")
    common.add_argument("--out", dest="outfile", default=None, help="output path or -")

    lang_opts = _Parser(add_help=False)
    lang_opts.add_argument("--lang", default=None)
    lang_opts.add_argument("--type", choices=["standard", "nonstandard", "web"], default=None)
    lang_opts.add_argument("--rules", default=None, help="tokenizer rules file")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tokenize", parents=[common, lang_opts],
                       help="split raw text into sentences and tokens")
    p.set_defaults(func=_cmd_tokenize)

    p = sub.add_parser("annotate", parents=[common, lang_opts],
                       help="run the annotation pipeline")
    p.add_argument("--tasks", default=None, help="comma-separated task subset")
    p.add_argument("--model-dir", default=None)
    p.add_argument("--lexicon", default=None)
    p.add_argument("--lexicon-constraint", choices=["on", "off"], default=None)
    p.set_defaults(func=_cmd_annotate)

    p = sub.add_parser("train", parents=[common, lang_opts],
                       help="train one stage and fill the dev split")
    p.add_argument("stage", choices=["tagger", "lemmatizer", "parser"])
    p.add_argument("--train", default=None, help="training data (CoNLL-U)")
    p.add_argument("--dev", default=None, help="dev data (CoNLL-U)")
    p.add_argument("--variety", choices=["standard", "nonstandard"], default=None)
    p.add_argument("--lexicon", default=None)
    p.add_argument("--model-dir", default=None)
    p.add_argument("--model-out", default=None)
    p.add_argument("--dev-out", default=None, help="where to write the filled dev split")
    p.add_argument("--schema", choices=["ud", "jos"], default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", parents=[common],
                       help="score a system output against gold")
    p.add_argument("--gold", default=None, help="gold data (CoNLL-U)")
    p.add_argument("--fields", default=None, help="comma-separated metric fields")
    p.add_argument("--report", choices=["table", "kv"], default=None)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("prep", parents=[common, lang_opts],
                       help="build a training set from a recipe")
    p.add_argument("recipe", help="recipe file")
    p.add_argument("--corpus", action="append", default=None, metavar="ID=PATH")
    p.add_argument("--diacritics", default=None, help="diacritic replacement map")
    p.add_argument("--seed", type=int, default=None, help="shuffle seed for sampling")
    p.set_defaults(func=_cmd_prep)

    p = sub.add_parser("lexicon", parents=[common],
                       help="inspect an inflectional lexicon")
    p.add_argument("action", choices=["load", "query"])
    p.add_argument("--lexicon", default=None)
    p.add_argument("--form", default=None)
    p.add_argument("--xpos", default=None)
    p.set_defaults(func=_cmd_lexicon)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            _apply_config(args)
        if getattr(args, "infile", None) is None:
            args.infile = "-"
        if getattr(args, "outfile", None) is None:
            args.outfile = "-"
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except ModelError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
