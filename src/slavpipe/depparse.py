"""Dependency-tree validation and a greedy arc-standard transition parser.

Two tree schemas are supported.  ``UD`` requires exactly one token attached
to the artificial root 0; ``JOS`` allows several.  The same transition
system serves both: attaching to the root is a right-arc with the root at
the second stack position, which a UD model only permits as the final
transition while a JOS model may take it repeatedly.

Scoring is an averaged perceptron over sparse indicator features of the
stack/buffer context.  Training is deterministic for a fixed seed.  Actions
are numbered in lexicographic order of their names (``left=<label>``,
``right=<label>``, ``shift``), and the decoder resolves equal scores to the
smallest index, i.e. the smallest name, so parsing is reproducible as well.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field

from . import modelio
from .conllu import Document, Sentence, copy_document
from .errors import ModelError, StageError, TrainingError

ROOT = 0
_NONE = "<none>"
_BIAS = ("bias",)


class TreeSchema(enum.Enum):
    UD = "ud"
    JOS = "jos"

    @property
    def allows_multiple_roots(self) -> bool:
        return self is TreeSchema.JOS


def validate_tree(sentence: Sentence, schema: TreeSchema) -> list[str]:
    """Check that heads and labels form a tree of the requested schema.

    Returns human-readable violations; an empty list means the sentence is a
    single connected acyclic structure hanging off node 0 with a root count
    matching the schema.
    """
    problems: list[str] = []
    singles = sentence.single_tokens()
    ids = {t.id for t in singles}
    heads: dict[int, int] = {}
    for tok in singles:
        if tok.head is None or tok.deprel is None:
            problems.append(f"token {tok.id} ({tok.form!r}) has no head/deprel")
            continue
        if tok.head != ROOT and tok.head not in ids:
            problems.append(
                f"token {tok.id} ({tok.form!r}) points at nonexistent head {tok.head}"
            )
            continue
        if tok.head == tok.id:
            problems.append(f"token {tok.id} ({tok.form!r}) is its own head")
            continue
        heads[tok.id] = tok.head
    if problems:
        return problems

    roots = [i for i, h in heads.items() if h == ROOT]
    if schema.allows_multiple_roots:
        if not roots:
            problems.append("no token attaches to the root")
    elif len(roots) != 1:
        problems.append(f"expected exactly one root attachment, found {len(roots)}")

    # a walk stops at the first node already known to reach the root, so
    # every node is walked once; a walk that ends in a cycle never meets
    # such a node and collects the same ``seen`` set as a full walk would
    rooted = {ROOT}
    for start in heads:
        seen = set()
        node = start
        while node not in rooted:
            if node in seen:
                cycle = sorted(seen)
                problems.append(f"head cycle through tokens {cycle}")
                return problems
            seen.add(node)
            node = heads[node]
        rooted |= seen
    return problems


# --- model -----------------------------------------------------------------


@dataclass
class ParserMetadata:
    language: str = ""
    variety: str = "standard"
    sentence_count: int = 0
    seed: int = 0
    epochs: int = 0


@dataclass
class ParserModel:
    weights: dict[str, dict[str, float]] = field(default_factory=dict)
    dep_labels: list[str] = field(default_factory=list)
    root_labels: list[str] = field(default_factory=list)
    schema: TreeSchema = TreeSchema.UD
    metadata: ParserMetadata = field(default_factory=ParserMetadata)

    def __post_init__(self) -> None:
        self._build_rows()

    def _build_rows(self) -> None:
        # the decoder's form of ``weights``: each feature's row as
        # (action index, weight) pairs; a malformed archive fails here, at
        # load, with TypeError or ValueError
        for labels in (self.dep_labels, self.root_labels):
            if not isinstance(labels, list) or not all(isinstance(lab, str) for lab in labels):
                raise TypeError("labels must be a list of strings")
        self._actions = _Actions(self.dep_labels, self.root_labels, self.schema)
        if not isinstance(self.weights, dict):
            raise TypeError("weights must map features to rows")
        index = self._actions.index
        self._rows: dict[str, tuple[tuple[int, float], ...]] = {}
        for feat, row in self.weights.items():
            if not isinstance(row, dict):
                raise TypeError(f"weight row {feat!r} is not a mapping of actions")
            pairs = []
            for action, weight in row.items():
                if action not in index:
                    raise ValueError(f"weight row {feat!r} names unknown action {action!r}")
                if type(weight) not in (int, float):
                    raise TypeError(f"weight {feat!r}/{action!r} is not a number")
                pairs.append((index[action], weight))
            self._rows[feat] = tuple(pairs)
        self._bias_scores = [0.0] * len(self._actions.names)
        _add_rows(self._bias_scores, _found(self._rows, _BIAS))


class _Actions:
    """The transitions of one label set, indexed in lexicographic name order.

    Action names are ``shift``, ``left=<label>`` and ``right=<label>``.
    ``moves[i]`` gives the stack slot action ``i`` pops its dependent from
    (``None`` for a shift) and the label it attaches it with.
    """

    def __init__(self, dep_labels: list[str], root_labels: list[str], schema: TreeSchema):
        self.names = sorted(
            {"shift"}
            | {f"left={label}" for label in dep_labels}
            | {f"right={label}" for label in (*dep_labels, *root_labels)}
        )
        self.index = {name: i for i, name in enumerate(self.names)}
        self.moves: list[tuple[int | None, str]] = []
        for name in self.names:
            kind, _, label = name.partition("=")
            self.moves.append(({"left": -2, "right": -1}.get(kind), label))
        self.shift = self.index["shift"]
        self.left = {label: self.index[f"left={label}"] for label in dep_labels}
        self.right = {
            label: self.index[f"right={label}"] for label in (*dep_labels, *root_labels)
        }
        shift = [self.shift]
        dep_arcs = sorted({*self.left.values(), *map(self.right.get, dep_labels)})
        root_arcs = sorted(set(map(self.right.get, root_labels)))
        # _valid[buffer not empty][arcs]; arcs: 0 none (fewer than two stack
        # items), 1 between two tokens, 2 onto the root, which a UD tree only
        # takes once the buffer is empty
        self._valid = (
            ([], dep_arcs, root_arcs),
            (
                shift,
                sorted(shift + dep_arcs),
                sorted(shift + root_arcs) if schema.allows_multiple_roots else shift,
            ),
        )

    def valid(self, stack: list[int], buffered: bool) -> list[int]:
        """Indices of the actions allowed in this configuration, ascending."""
        if len(stack) < 2:
            arcs = 0
        elif stack[-2] != ROOT:
            arcs = 1
        else:
            arcs = 2
        return self._valid[buffered][arcs]


class _Context:
    """The feature strings of one sentence, by stack/buffer position.

    Position 0 is the root and 1..n are the sentence's single tokens; n + 1
    and n + 2 stand for an empty stack slot or buffer slot (``<none>``).
    The features of a configuration, in scoring order, are
    ``_BIAS + s0[s0] + s1[s1] + buffer[pos] + pairs(s0, s1, pos)``.
    """

    def __init__(self, sentence: Sentence):
        self.tokens = sentence.single_tokens()
        n = self.n = len(self.tokens)
        self.none = n + 1
        self.values = (
            [("<root>", "<root>", "<root>")]
            + [(t.form, t.upos or _NONE, t.xpos or _NONE) for t in self.tokens]
            + [(_NONE, _NONE, _NONE)] * 2
        )
        v = self.values
        self.s0 = [("s0f=" + f, "s0u=" + u, "s0x=" + x) for f, u, x in v[: n + 1]]
        self.s1 = [("s1f=" + f, "s1u=" + u, "s1x=" + x) for f, u, x in v[: n + 2]]
        self.buffer = [
            ("b0f=" + v[p][0], "b0u=" + v[p][1], "b1u=" + v[p + 1][1]) for p in range(1, n + 2)
        ]

    def pairs(self, s0: int, s1: int, pos: int) -> tuple[str, ...]:
        s0f, s0u, s0x = self.values[s0]
        s1f, s1u, s1x = self.values[s1]
        b0u = self.values[pos + 1][1]
        return (
            f"s0u|s1u={s0u}|{s1u}",
            f"s0x|s1x={s0x}|{s1x}",
            f"s0u|b0u={s0u}|{b0u}",
            f"s1u|b0u={s1u}|{b0u}",
            f"s0f|s1u={s0f}|{s1u}",
            f"s0u|s1f={s0u}|{s1f}",
        )


def _found(rows: dict, feats) -> list:
    return [row for row in map(rows.get, feats) if row]


def _add_rows(scores: list[float], rows) -> None:
    # one += per (feature, action) in feature order, so every score is the
    # same sequence of float additions on every Python version; builtin
    # sum() of floats is compensated from 3.12 on and would change results
    for row in rows:
        for action, weight in row:
            scores[action] += weight


def _apply(
    move: tuple[int | None, str], stack: list[int], pos: int, heads: dict, labels: dict
) -> int:
    """Apply a move; returns 1 when it shifted the buffer token at ``pos``."""
    slot, label = move
    if slot is None:
        stack.append(pos + 1)
        return 1
    dep = stack.pop(slot)
    heads[dep] = stack[-1]
    labels[dep] = label
    return 0


class _AveragedPerceptron:
    def __init__(self) -> None:
        self.weights: dict[str, dict[int, float]] = {}
        self._totals: dict[tuple[str, int], float] = {}
        self._stamps: dict[tuple[str, int], int] = {}
        self.step = 0

    def _bump(self, feat: str, action: int, delta: float) -> None:
        row = self.weights.setdefault(feat, {})
        key = (feat, action)
        current = row.get(action, 0.0)
        self._totals[key] = self._totals.get(key, 0.0) + current * (
            self.step - self._stamps.get(key, 0)
        )
        self._stamps[key] = self.step
        row[action] = current + delta

    def update(self, feats: tuple[str, ...], gold: int, predicted: int) -> None:
        self.step += 1
        if gold == predicted:
            return
        for feat in feats:
            self._bump(feat, gold, 1.0)
            self._bump(feat, predicted, -1.0)

    def averaged(self, names: list[str]) -> dict[str, dict[str, float]]:
        """Averaged weights, with action indices mapped back to ``names``."""
        if self.step == 0:
            return {}
        out: dict[str, dict[str, float]] = {}
        for feat, row in self.weights.items():
            for action, weight in row.items():
                key = (feat, action)
                total = self._totals.get(key, 0.0) + weight * (
                    self.step - self._stamps.get(key, 0)
                )
                avg = total / self.step
                if avg:
                    out.setdefault(feat, {})[names[action]] = avg
        return out


def train_parser(
    train: Document,
    schema: TreeSchema,
    language: str = "",
    variety: str = "standard",
    seed: int = 13,
    epochs: int = 8,
) -> ParserModel:
    """Train an averaged perceptron with a static oracle over gold trees.

    Every training sentence must validate under ``schema``; the first one
    that does not aborts training with an error naming the sentence.
    """
    sentences = [s for s in train.sentences if s.single_tokens()]
    if not sentences:
        raise TrainingError("parser training data contains no sentences")
    for i, sent in enumerate(sentences):
        problems = validate_tree(sent, schema)
        if problems:
            name = sent.sent_id or f"sentence {i + 1}"
            raise TrainingError(
                f"gold tree for {name} violates the {schema.value} schema: "
                + "; ".join(problems)
            )

    root_labels = sorted(
        {t.deprel for s in sentences for t in s.single_tokens() if t.head == ROOT}
    )
    dep_labels = sorted(
        {t.deprel for s in sentences for t in s.single_tokens() if t.head != ROOT}
    )
    actions = _Actions(dep_labels, root_labels, schema)

    perceptron = _AveragedPerceptron()
    rng = random.Random(seed)
    indices = list(range(len(sentences)))
    for _ in range(epochs):
        rng.shuffle(indices)
        for idx in indices:
            _train_sentence(perceptron, sentences[idx], actions, dep_labels, root_labels)

    return ParserModel(
        weights=perceptron.averaged(actions.names),
        dep_labels=dep_labels,
        root_labels=root_labels,
        schema=schema,
        metadata=ParserMetadata(
            language=language,
            variety=variety,
            sentence_count=len(sentences),
            seed=seed,
            epochs=epochs,
        ),
    )


def _train_sentence(
    perceptron: _AveragedPerceptron,
    sentence: Sentence,
    actions: _Actions,
    dep_labels: list[str],
    root_labels: list[str],
) -> None:
    ctx = _Context(sentence)
    n = ctx.n
    position = {t.id: p for p, t in enumerate(ctx.tokens, 1)}
    position[ROOT] = ROOT
    gold_head = [None] + [position[t.head] for t in ctx.tokens]
    gold_label = [None] + [t.deprel for t in ctx.tokens]
    pending = [0] * (n + 1)
    for head in gold_head[1:]:
        pending[head] += 1

    weights = perceptron.weights
    stack = [ROOT]
    pos = 0
    heads: dict[int, int] = {}
    labels: dict[int, str] = {}
    while len(stack) > 1 or pos < n:
        gold = _oracle(
            stack, pos, n, gold_head, gold_label, pending, actions, dep_labels, root_labels
        )
        s0 = stack[-1]
        s1 = stack[-2] if len(stack) > 1 else ctx.none
        feats = _BIAS + ctx.s0[s0] + ctx.s1[s1] + ctx.buffer[pos] + ctx.pairs(s0, s1, pos)
        valid = actions.valid(stack, pos < n)
        predicted = valid[0]
        if len(valid) > 1:  # a forced move needs no scores
            scores = [0.0] * len(actions.names)
            _add_rows(scores, map(dict.items, _found(weights, feats)))
            predicted = max(valid, key=scores.__getitem__)
        perceptron.update(feats, gold, predicted)
        pos += _apply(actions.moves[gold], stack, pos, heads, labels)


def _oracle(
    stack: list[int],
    pos: int,
    n: int,
    gold_head: list[int | None],
    gold_label: list[str | None],
    pending: list[int],
    actions: _Actions,
    dep_labels: list[str],
    root_labels: list[str],
) -> int:
    if len(stack) >= 2:
        s1, s2 = stack[-1], stack[-2]
        if s2 != ROOT and gold_head[s2] == s1 and pending[s2] == 0:
            pending[s1] -= 1
            return actions.left[gold_label[s2]]
        if gold_head[s1] == s2 and pending[s1] == 0:
            pending[s2] -= 1
            return actions.right[gold_label[s1]]
    if pos < n:
        return actions.shift
    # gold tree is not reachable (non-projective); force a right-arc so the
    # transition sequence still terminates
    s1, s2 = stack[-1], stack[-2]
    label = gold_label[s1]
    if s2 == ROOT:
        if label not in root_labels:
            label = root_labels[0]
    elif label not in dep_labels:
        label = dep_labels[0]
    pending[s2] -= 1
    return actions.right[label]


def parse_sentence(model: ParserModel, sentence: Sentence) -> dict[int, tuple[int, str]]:
    """Greedy decode; returns ``{token id: (head, deprel)}``."""
    ctx = _Context(sentence)
    n = ctx.n
    actions = model._actions
    rows = model._rows
    # per-sentence caches: the scores after bias and the three s0 features,
    # which depend on s0 alone, and each position's other unary-feature rows
    prefix = []
    for feats in ctx.s0:
        scores = model._bias_scores[:]
        _add_rows(scores, _found(rows, feats))
        prefix.append(scores)
    s1_rows = [_found(rows, feats) for feats in ctx.s1]
    buffer_rows = [_found(rows, feats) for feats in ctx.buffer]

    stack = [ROOT]
    pos = 0
    heads: dict[int, int] = {}
    labels: dict[int, str] = {}
    while len(stack) > 1 or pos < n:
        valid = actions.valid(stack, pos < n)
        move = valid[0]
        if len(valid) > 1:  # a forced move needs no scores
            s0 = stack[-1]
            s1 = stack[-2] if len(stack) > 1 else ctx.none
            scores = prefix[s0][:]
            pairs = _found(rows, ctx.pairs(s0, s1, pos))
            _add_rows(scores, [*s1_rows[s1], *buffer_rows[pos], *pairs])
            move = max(valid, key=scores.__getitem__)
        pos += _apply(actions.moves[move], stack, pos, heads, labels)
    ids = [ROOT] + [t.id for t in ctx.tokens]
    return {ids[p]: (ids[heads[p]], labels[p]) for p in range(1, n + 1)}


def parse_in_place(doc: Document, model: ParserModel, language: str | None = None) -> None:
    """Attach heads and labels to every sentence of ``doc`` itself.

    Requires upos, xpos and lemma on all single tokens (upstream stages must
    have run); the output of every sentence validates under the model schema.
    """
    modelio.check_language("parser", model.metadata.language, language)
    if not model.root_labels:
        raise ModelError("parser model has no root labels; cannot attach trees")

    for si, sent in enumerate(doc.sentences):
        where = sent.sent_id or f"sentence {si + 1}"
        for tok in sent.single_tokens():
            if tok.upos is None or tok.xpos is None or tok.lemma is None:
                raise StageError(
                    "depparse",
                    f"token {tok.id} ({tok.form!r}) in {where} misses "
                    "upos/xpos/lemma required for parsing",
                )
        if not sent.single_tokens():
            continue
        parsed = parse_sentence(model, sent)
        for tok in sent.tokens:
            if not tok.is_range:
                tok.head, tok.deprel = parsed[tok.id]


def parse_dependency(
    doc: Document, model: ParserModel, language: str | None = None
) -> Document:
    """A parsed copy of ``doc``; see :func:`parse_in_place`."""
    out = copy_document(doc)
    parse_in_place(out, model, language)
    return out


# --- model persistence -----------------------------------------------------


def save_parser(model: ParserModel, path) -> None:
    meta = {
        "language": model.metadata.language,
        "variety": model.metadata.variety,
        "schema": model.schema.value,
        "sentence_count": model.metadata.sentence_count,
        "seed": model.metadata.seed,
        "epochs": model.metadata.epochs,
    }
    sections = {
        "weights": model.weights,
        "dep_labels": model.dep_labels,
        "root_labels": model.root_labels,
    }
    modelio.write_archive(path, "parser", meta, sections)


def load_parser(path) -> ParserModel:
    meta, sections = modelio.read_archive(path, "parser")
    try:
        model = ParserModel(
            weights=sections["weights"],
            dep_labels=sections["dep_labels"],
            root_labels=sections["root_labels"],
            schema=TreeSchema(meta["schema"]),
            metadata=ParserMetadata(
                language=meta.get("language", ""),
                variety=meta.get("variety", "standard"),
                sentence_count=meta.get("sentence_count", 0),
                seed=meta.get("seed", 0),
                epochs=meta.get("epochs", 0),
            ),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelError(f"{path}: malformed parser model: {exc}") from exc
    return model
