"""End-to-end annotation: task gating, variant routing, stage orchestration.

Each supported language comes in up to two varieties (standard and
nonstandard) and not every task is available for every combination; the
availability matrix below is the authority.  A *processing type* picks which
variety of model serves each stage: the web type, for instance, tokenizes
with the standard rules but tags and lemmatizes with nonstandard models.
Dependency parsing always uses the standard model because no nonstandard
parsing models exist.

Stages always run in pipeline order and each one reads only the previous
stage's output, so later stages can never peek at gold annotations.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path

from . import modelio
from .conllu import Document, Sentence, copy_document, set_comment, validate_document
from .conllu import strip_annotations  # noqa: F401 (bench/spans.py times it under this name)
from .depparse import (
    TreeSchema,
    load_parser,
    parse_dependency,
    parse_in_place,
    train_parser,
)
from .depparse import validate_tree  # noqa: F401 (bench/spans.py times it under this name)
from .errors import ConfigurationError, ModelError, StageError
from .evaluate import arc, dev_accuracy
from .lemmatizer import (
    lemmatize_document,
    lemmatize_in_place,
    load_lemmatizer,
    train_lemmatizer,
)
from .lexicon import Lexicon, load_lexicon
from .tagger import load_tagger, tag_dev, tag_document, train_tagger
from .tokenizer import (
    ClosedClassTable,
    TokenizerMode,
    TokenizerRules,
    default_rules,
    load_rules,
    paragraph_blocks,
    tokenize,
)

TASKS = ("tokenize", "morph", "lemma", "depparse", "ner", "srl")
PIPELINE_TASKS = ("tokenize", "morph", "lemma", "depparse")
PROCESSING_TYPES = ("standard", "nonstandard", "web")
VARIETIES = ("standard", "nonstandard")

# Which tasks each language and variety supports.  ner and srl appear here
# because the matrix is complete, but this build ships no models for them
# and refuses them at configuration time.
_AVAILABLE: dict[tuple[str, str], frozenset[str]] = {
    ("sl", "standard"): frozenset(TASKS),
    ("sl", "nonstandard"): frozenset({"tokenize", "morph", "lemma", "ner"}),
    ("hr", "standard"): frozenset({"tokenize", "morph", "lemma", "depparse", "ner"}),
    ("hr", "nonstandard"): frozenset({"tokenize", "morph", "lemma", "ner"}),
    ("sr", "standard"): frozenset({"tokenize", "morph", "lemma", "depparse", "ner"}),
    ("sr", "nonstandard"): frozenset({"tokenize", "morph", "lemma", "ner"}),
    ("bg", "standard"): frozenset({"tokenize", "morph", "lemma", "depparse", "ner"}),
    ("bg", "nonstandard"): frozenset(),
    ("mk", "standard"): frozenset({"tokenize", "morph", "lemma"}),
    ("mk", "nonstandard"): frozenset(),
}

LANGUAGES = tuple(sorted({lang for lang, _ in _AVAILABLE}))

# Which model variety serves each stage under each processing type.
_STAGE_VARIANTS: dict[str, dict[str, str]] = {
    "standard": {
        "tokenize": "standard",
        "morph": "standard",
        "lemma": "standard",
        "depparse": "standard",
    },
    "nonstandard": {
        "tokenize": "nonstandard",
        "morph": "nonstandard",
        "lemma": "nonstandard",
        "depparse": "standard",
    },
    "web": {
        "tokenize": "standard",
        "morph": "nonstandard",
        "lemma": "nonstandard",
        "depparse": "standard",
    },
}

_MODEL_KINDS = {"morph": "tagger", "lemma": "lemmatizer", "depparse": "parser"}

def task_available(language: str, variety: str, task: str) -> bool:
    """Look up one cell of the language/variety/task availability matrix."""
    if task not in TASKS:
        raise ConfigurationError(f"unknown task {task!r}; tasks are {', '.join(TASKS)}")
    if variety not in VARIETIES:
        raise ConfigurationError(
            f"unknown variety {variety!r}; varieties are {', '.join(VARIETIES)}"
        )
    if (language, variety) not in _AVAILABLE:
        raise ConfigurationError(
            f"unknown language {language!r}; languages are {', '.join(LANGUAGES)}"
        )
    return task in _AVAILABLE[(language, variety)]


def stage_variants(processing_type: str) -> dict[str, str]:
    """The variety used for each stage under a processing type."""
    if processing_type not in _STAGE_VARIANTS:
        raise ConfigurationError(
            f"unknown processing type {processing_type!r}; "
            f"types are {', '.join(PROCESSING_TYPES)}"
        )
    return dict(_STAGE_VARIANTS[processing_type])


def model_filename(language: str, variety: str, kind: str) -> str:
    return f"{language}_{variety}_{kind}.slm"


@dataclass(frozen=True)
class PipelineConfig:
    """What to run and where to find the pieces.

    ``tasks`` defaults to everything available for the language and
    processing type.  ``tagger_lexicon_constraint`` defaults to on exactly
    when a lexicon is configured; switching it off keeps the lexicon for
    the lemmatizer only.
    """

    language: str
    processing_type: str = "standard"
    tasks: tuple[str, ...] | None = None
    model_dir: str | Path | None = None
    model_paths: dict[str, str | Path] = field(default_factory=dict)
    rules_path: str | Path | None = None
    lexicon_path: str | Path | None = None
    tagger_lexicon_constraint: bool | None = None


def resolve_components(config: PipelineConfig) -> dict[str, str]:
    """Map each task the run does, in ``TASKS`` order, to the model variety
    that serves it; ``tasks=None`` asks for every available pipeline task.

    Availability is checked against the matrix cell of the variety actually
    routed to, so a nonstandard configuration may include parsing (served by
    the standard model) even though no nonstandard parser exists.
    """
    language, requested = config.language, config.tasks
    if requested is not None:
        for task in requested:
            if task not in TASKS:
                raise ConfigurationError(
                    f"unknown task {task!r}; tasks are {', '.join(TASKS)}"
                )
        if not requested:
            raise ConfigurationError("the task list is empty")
    variants = stage_variants(config.processing_type)
    # the nonstandard and web types need nonstandard models to exist
    if config.processing_type != "standard" and (language, "nonstandard") in _AVAILABLE:
        if not _AVAILABLE[(language, "nonstandard")]:
            raise ConfigurationError(
                f"language {language!r} has no nonstandard processing; only the "
                "standard type is available"
            )
    if requested is None:
        # never empty: tokenize is served by the standard variety, or by the
        # nonstandard one when its row is not empty, and every non-empty row
        # holds tokenize
        requested = [t for t in PIPELINE_TASKS if task_available(language, variants[t], t)]
    components: dict[str, str] = {}
    for task in TASKS:
        if task not in requested:
            continue
        if task in ("ner", "srl"):
            raise ConfigurationError(
                f"task {task!r} is listed in the availability matrix but this "
                "build provides no models for it"
            )
        variety = variants[task]
        if not task_available(language, variety, task):
            raise ConfigurationError(
                f"task {task!r} is not available for language "
                f"{language!r} in the {variety!r} variety"
            )
        components[task] = variety
    return components


class Pipeline:
    """Loaded models and rules for one configuration, ready to annotate."""

    def __init__(self, config: PipelineConfig) -> None:
        self.config = config
        self.components = resolve_components(config)
        self.tasks = tuple(self.components)
        self._mode = (
            TokenizerMode(self.components["tokenize"]) if "tokenize" in self.components else None
        )
        self.rules: TokenizerRules | None = None
        if "tokenize" in self.tasks or "morph" in self.tasks:
            if config.rules_path is not None:
                self.rules = load_rules(config.rules_path)
            else:
                self.rules = default_rules(config.language)
        self.lexicon: Lexicon | None = None
        if config.lexicon_path is not None:
            self.lexicon = load_lexicon(config.lexicon_path)
        constrain = config.tagger_lexicon_constraint
        if constrain is None:
            constrain = self.lexicon is not None
        elif constrain and self.lexicon is None:
            raise ConfigurationError(
                "tagger lexicon constraint requested but no lexicon configured"
            )
        self._tagger_lexicon = self.lexicon if constrain else None
        self.tagger = self._load("morph", load_tagger)
        self.lemmatizer = self._load("lemma", load_lemmatizer, lexicon=self.lexicon)
        self.parser = self._load("depparse", load_parser)

    def _load(self, task: str, loader, **kwargs):
        """The model serving ``task``, or None when the task does not run.

        A model trained for another language than the configured one is a
        :class:`ModelError` here, before any input is read.
        """
        if task not in self.components:
            return None
        kind = _MODEL_KINDS[task]
        override = self.config.model_paths.get(kind)
        if override is not None:
            path = Path(override)
        else:
            if self.config.model_dir is None:
                raise ConfigurationError(
                    f"task {task!r} needs a {kind} model; set a model "
                    "directory or an explicit model path"
                )
            path = Path(self.config.model_dir) / model_filename(
                self.config.language, self.components[task], kind
            )
        if not path.exists():
            raise ModelError(f"{kind} model file {path} does not exist")
        model = loader(path, **kwargs)
        modelio.check_language(kind, model.metadata.language, self.config.language)
        return model

    def annotate(self, source: str | Document) -> Document:
        """Run the configured stages over raw text or a parsed document.

        Raw text requires the tokenize task; a document input skips
        tokenization and keeps its segmentation.

        The result is valid CoNLL-U, each parsed sentence a tree of the
        parser's schema.  That of raw text is so by construction and is not
        checked: the tokenizer's output is valid, the stages write no id,
        form, comment or ``SpaceAfter``, every string they write was checked
        where it entered (a model or a lexicon), and the parser builds only
        trees.  A document input may break any rule, so its result is
        validated after the stages; a breach raises :class:`StageError`.
        """
        if isinstance(source, str):
            if "tokenize" not in self.tasks:
                raise ConfigurationError(
                    "raw text input needs the tokenize task; configure it or "
                    "pass an already tokenized document"
                )
            doc = tokenize(source, self._mode, self.rules)
        else:
            doc = copy_document(source)
        if "morph" in self.tasks:
            doc = tag_document(
                doc,
                self.tagger,
                lexicon=self._tagger_lexicon,
                closed_table=self.rules.closed_class,
            )
        if "lemma" in self.tasks:
            doc = lemmatize_document(doc, self.lemmatizer)
        if "depparse" in self.tasks:
            doc = parse_dependency(doc, self.parser)
        if not isinstance(source, str):
            problems = validate_document(doc)
            if problems:
                raise StageError("pipeline", f"output failed validation: {problems[0]}")
        return doc

    def annotate_stream(self, blocks: Iterable[str]) -> Iterator[Sentence]:
        """Annotate raw text given as any iterable of string ``blocks`` and
        yield its sentences, each as soon as its paragraph is complete.

        They serialize to the bytes of ``annotate("".join(blocks))``: no
        sentence crosses a blank line, so the complete paragraphs of each
        block go through one :meth:`annotate` call, whose ``sent_id``
        numbering is made to run on.  Memory is bounded by the longest
        paragraph, so a text without a blank line is held whole.
        """
        number = 0  # sentences yielded so far
        for text in paragraph_blocks(blocks):
            for sent in self.annotate(text).sentences:
                number += 1
                set_comment(sent, "sent_id", str(number))
                yield sent


# --- training workflows -----------------------------------------------------
#
# Dev splits are filled with the freshly trained model's own predictions so
# the next stage trains and evaluates on realistic upstream input rather
# than gold annotations.


def _cleared(doc: Document, *fields: str) -> Document:
    out = copy_document(doc)
    for tok in out.single_tokens():
        for name in fields:
            setattr(tok, name, None)
    return out


def train_stage_tagger(
    train: Document,
    dev: Document,
    language: str,
    variety: str = "standard",
    lexicon: Lexicon | None = None,
    closed_table: ClosedClassTable | None = None,
) -> tuple[object, Document, float | None]:
    """Train the tagger, tag a stripped copy of the dev split and score it."""
    model = train_tagger(train, Document(), language=language, variety=variety)
    filled = tag_dev(model, dev, lexicon, closed_table)
    return model, filled, model.metadata.dev_accuracy


def train_stage_lemmatizer(
    train: Document,
    dev: Document,
    language: str,
    variety: str = "standard",
    lexicon: Lexicon | None = None,
) -> tuple[object, Document, float | None]:
    """Train the lemmatizer and lemmatize the (tagged) dev split.

    Gold lemmas in the dev input are cleared before filling and used only
    for the returned accuracy; the dev split must already carry xpos.
    """
    model = train_lemmatizer(train, lexicon=lexicon, language=language, variety=variety)
    filled = _cleared(dev, "lemma")
    lemmatize_in_place(filled, model)
    return model, filled, dev_accuracy(dev, filled, attrgetter("lemma"))


def train_stage_parser(
    train: Document,
    dev: Document,
    language: str,
    variety: str = "standard",
    schema: TreeSchema = TreeSchema.UD,
    seed: int = 13,
    epochs: int = 8,
) -> tuple[object, Document, float | None]:
    """Train the parser and parse the (tagged and lemmatized) dev split.

    Gold arcs in the dev input are cleared before filling and used only for
    the returned labeled attachment score.
    """
    model = train_parser(
        train, schema, language=language, variety=variety, seed=seed, epochs=epochs
    )
    filled = _cleared(dev, "head", "deprel")
    parse_in_place(filled, model)
    return model, filled, dev_accuracy(dev, filled, arc)
