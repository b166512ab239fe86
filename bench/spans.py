"""Timing shims around the calls into each slavpipe module.

The traced run replaces the names that ``slavpipe.pipeline`` and the stage
modules import (``pipeline.tag_document``, ``tagger.copy_document``, ...) and
the module attributes the benchmark calls through with wrappers that record
one span per call: name, start, end, parent span and operation id.  Nothing
under ``src/`` changes; :meth:`Tracer.uninstall` puts every original back.

A layer's self time is the duration of its spans minus the time covered by
their child spans.  The program is single-threaded, so children nest inside
their parent and never overlap.
"""

from __future__ import annotations

import contextlib
import importlib
import json
from time import perf_counter


def _tokens(doc) -> int:
    return sum(len(s.single_tokens()) for s in doc.sentences)


def _sentences(doc) -> int:
    return len(doc.sentences)


# (module, attribute, span name, work counter applied to the result).
# The span name is "<layer>.<function>"; the layer is the module that owns
# the function, whichever namespace the call goes through.
TARGETS = [
    ("pipeline", "tokenize", "tokenizer.tokenize", _tokens),
    ("pipeline", "default_rules", "tokenizer.default_rules", None),
    ("pipeline", "load_rules", "tokenizer.load_rules", None),
    ("pipeline", "tag_document", "tagger.tag_document", _tokens),
    ("pipeline", "train_tagger", "tagger.train_tagger", None),
    ("pipeline", "load_tagger", "tagger.load_tagger", None),
    ("pipeline", "lemmatize_document", "lemmatizer.lemmatize_document", _tokens),
    ("pipeline", "train_lemmatizer", "lemmatizer.train_lemmatizer", None),
    ("pipeline", "load_lemmatizer", "lemmatizer.load_lemmatizer", None),
    ("pipeline", "parse_dependency", "depparse.parse_dependency", _tokens),
    ("pipeline", "train_parser", "depparse.train_parser", None),
    ("pipeline", "load_parser", "depparse.load_parser", None),
    ("pipeline", "validate_tree", "depparse.validate_tree", None),
    ("pipeline", "validate_document", "conllu.validate_document", None),
    ("pipeline", "copy_document", "conllu.copy_document", None),
    ("pipeline", "strip_annotations", "conllu.strip_annotations", None),
    ("pipeline", "load_lexicon", "lexicon.load_lexicon", None),
    ("pipeline", "train_stage_tagger", "pipeline.train_stage_tagger", None),
    ("pipeline", "train_stage_lemmatizer", "pipeline.train_stage_lemmatizer", None),
    ("pipeline", "train_stage_parser", "pipeline.train_stage_parser", None),
    ("pipeline.Pipeline", "__init__", "pipeline.setup", None),
    ("pipeline.Pipeline", "annotate", "pipeline.annotate", None),
    ("tagger", "copy_document", "conllu.copy_document", None),
    ("tagger", "save_tagger", "tagger.save_tagger", None),
    ("lemmatizer", "copy_document", "conllu.copy_document", None),
    ("lemmatizer", "save_lemmatizer", "lemmatizer.save_lemmatizer", None),
    ("depparse", "parse_dependency", "depparse.parse_dependency", _tokens),
    ("depparse", "copy_document", "conllu.copy_document", None),
    ("depparse", "validate_tree", "depparse.validate_tree", None),
    ("depparse", "save_parser", "depparse.save_parser", None),
    ("modelio", "read_archive", "modelio.read_archive", None),
    ("modelio", "write_archive", "modelio.write_archive", None),
    ("conllu", "parse_document", "conllu.parse_document", _sentences),
    ("conllu", "serialize_document", "conllu.serialize_document", None),
    ("lexicon", "load_lexicon", "lexicon.load_lexicon", None),
    ("tokenizer", "default_rules", "tokenizer.default_rules", None),
    ("dataprep", "split_document", "dataprep.split_document", None),
    ("dataprep", "parse_recipe", "dataprep.parse_recipe", None),
    ("dataprep", "default_diacritic_map", "dataprep.default_diacritic_map", None),
    ("dataprep", "build_recipe_dataset", "dataprep.build_recipe_dataset", None),
    ("evaluate", "evaluate_documents", "evaluate.evaluate_documents", None),
    ("evaluate", "evaluate_spans", "evaluate.evaluate_spans", None),
    ("evaluate", "micro_counts", "evaluate.micro_counts", None),
    ("evaluate", "las_counts", "evaluate.las_counts", None),
    ("evaluate", "span_counts", "evaluate.span_counts", None),
]


def _resolve(path: str):
    module, _, cls = path.partition(".")
    obj = importlib.import_module(f"slavpipe.{module}")
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Spans kept in memory: ``[name, start, end, parent, op, count]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op: str | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent, self.op, 0])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, op: str):
        """A root span opened by the benchmark itself around one operation."""
        self.op = op
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _shim(self, name: str, fn, counter):
        def shim(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    self.spans[idx][5] = counter(result)
                return result
            finally:
                self._close(idx)

        shim.__wrapped__ = fn
        return shim

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer shims are already installed")
        for path, attr, name, counter in TARGETS:
            owner = _resolve(path)
            original = vars(owner)[attr]  # the function itself, not a bound method
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._shim(name, original, counter))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent, op, count in self.spans:
                out.write(json.dumps({"name": name, "start": start, "end": end,
                                      "parent": parent, "op": op, "count": count}) + "\n")


class Summary:
    """Per-name totals over a list of closed spans."""

    def __init__(self, spans: list[list]):
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent is not None:
                child_time[parent] += end - start
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.count: dict[str, int] = {}
        self.root_total = 0.0
        self.root_self = 0.0
        for i, (name, start, end, parent, _, count) in enumerate(spans):
            dur = end - start
            own = dur - child_time[i]
            if parent is None:
                self.root_total += dur
                self.root_self += own
                continue
            self.total[name] = self.total.get(name, 0.0) + dur
            self.self_time[name] = self.self_time.get(name, 0.0) + own
            self.calls[name] = self.calls.get(name, 0) + 1
            self.count[name] = self.count.get(name, 0) + count

    def layer_self(self, layer: str) -> float:
        """Self time of every span of ``layer``."""
        return sum(t for name, t in self.self_time.items() if name.split(".", 1)[0] == layer)
