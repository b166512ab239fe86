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

The decoder memoises, per model (:mod:`slavpipe.memo`), what one token's
(form, upos, xpos) fixes: the scores after the bias and its s0 features, and
its rows as s1, as first buffer token and as second, each kind as one flat
tuple of (action, weight) pairs.  Tokens whose form no unary feature names
share the entry of their (upos, xpos).  The decoder joins the buffer rows
once per buffer position and finds the six pair features by their two
values, formatting no string.  At load each pair feature ``T=R`` is entered
once for every bar in ``R``, under the text before that bar and the text
after it.  That is exact: ``f"{T}={a}|{b}"`` is ``T=R`` exactly when
``a + "|" + b == R``, that is when ``(a, b)`` is one of those splits, so
values that hold bars find the rows their strings would, and no two
features share a split.  Each score is still the same sequence of float
additions in feature order, so a warm, cold or capped memo gives the same
parses.

Training builds each sentence's static-oracle transcript once and replays it
every epoch: per configuration 16 interned feature ids, the kind of its valid
action list and its gold action, 18 unsigned 32-bit items or 72 bytes.  Every
training weight is a sum of ±1, so every score and lazy-averaging total
(``w·T − Σ δ·t``) is a whole number, exact in any order of addition: each
feature's row is one int with a 64-bit field per action, and a configuration's
scores are one sum of ints.  Averaged weights are not whole numbers, so
decoding keeps floats and their fixed order of additions.
"""

from __future__ import annotations

import enum
import random
import struct
from dataclasses import asdict, dataclass, field

from . import modelio
from .conllu import Document, Sentence, Token, breaks_column, copy_document
from .errors import ConfigurationError, ModelError, StageError, TrainingError
from .memo import memo_table, remember

ROOT = 0
_NONE = "<none>"
_BIAS = ("bias",)
_FORM_FEATURES = ("s0f=", "s1f=", "b0f=")  # the unary features of a form (see _unary)
_FEATURES = 16  # per configuration: bias, s0 ×3, s1 ×3, b0 ×2, b1u, 6 pairs
_CONFIGURATION = struct.Struct(f"{_FEATURES + 2}I")  # then its valid kind and gold action
# the width of a packed training weight; the codes of those wide enough for a score
_FIELD_BITS = 64
_FIELD_CODES = {16: "H", 32: "I", 64: "Q"}
# the names of the six pair features, in scoring order: ``s0u|s1f`` is
# f"s0u|s1f={upos of s0}|{form of s1}", b0 being the first buffer token;
# ``_Context.pairs`` formats them and ``_decode`` looks them up by value
_PAIR_TEMPLATES = ("s0u|s1u", "s0x|s1x", "s0u|b0u", "s1u|b0u", "s0f|s1u", "s0u|s1f")


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
            for label in labels:
                if breaks_column(label):
                    raise ValueError(f"label {label!r} holds a tab or a line break")
            if not labels:
                # without both kinds of arc the decoder can be left with no move
                raise ValueError("dep_labels and root_labels must not be empty")
        self._actions = _Actions(self.dep_labels, self.root_labels, self.schema)
        if not isinstance(self.weights, dict):
            raise TypeError("weights must map features to rows")
        index = self._actions.index
        # a pair feature goes only into ``_pair_rows``, every other one only
        # into ``_rows``: a unary feature's name (before its first "=") is
        # never a pair template's, as none holds a bar
        self._rows: dict[str, tuple[tuple[int, float], ...]] = {}
        pair_rows: dict[str, dict] = {name: {} for name in _PAIR_TEMPLATES}
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
            pairs = tuple(pairs)
            name, sep, joined = feat.partition("=")
            by_left = pair_rows.get(name) if sep else None
            if by_left is None:
                self._rows[feat] = pairs
                continue
            # under every split at a bar: (a, b) then finds this row exactly
            # when ``_Context.pairs`` formats ``feat`` (see the module doc)
            at = joined.find("|")
            while at >= 0:
                by_left.setdefault(joined[:at], {})[joined[at + 1 :]] = pairs
                at = joined.find("|", at + 1)
        self._pair_rows = tuple(pair_rows.values())
        # the forms some unary row names; any other form leaves a memo entry
        # to its upos and xpos alone
        self._named_forms = {feat[4:] for feat in self._rows if feat[:4] in _FORM_FEATURES}
        self._bias_scores = [0.0] * len(self._actions.names)
        _add_rows(self._bias_scores, _flat(self._rows, _BIAS))


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


def _unary(values: tuple[str, str, str]) -> tuple[tuple[str, ...], ...]:
    """The unary feature strings of one position's (form, upos, xpos).

    In scoring order: its three features as s0, its three as s1, its two as
    the first buffer token (``b0f``, ``b0u``) and its one as the second
    (``b1u``).
    """
    f, u, x = values
    return (
        ("s0f=" + f, "s0u=" + u, "s0x=" + x),
        ("s1f=" + f, "s1u=" + u, "s1x=" + x),
        ("b0f=" + f, "b0u=" + u),
        ("b1u=" + u,),
    )


class _Context:
    """The (form, upos, xpos) values of one sentence, by stack/buffer position.

    Position 0 is the root and 1..n are the sentence's single tokens; n + 1
    and n + 2 stand for an empty stack slot or buffer slot (``<none>``).
    The features of a configuration, in scoring order, are ``_BIAS``, the
    s0 features of ``s0``, the s1 features of ``s1``, the b0 features of
    ``pos + 1`` and the b1u feature of ``pos + 2`` (see :func:`_unary`), then
    ``pairs(s0, s1, pos)``.
    """

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.n = len(tokens)
        self.none = self.n + 1
        self.values = [
            ("<root>", "<root>", "<root>"),
            *((t.form, t.upos or _NONE, t.xpos or _NONE) for t in tokens),
            *[(_NONE, _NONE, _NONE)] * 2,
        ]

    def pairs(self, s0: int, s1: int, pos: int) -> tuple[str, ...]:
        uu, xx, ub, sb, fu, uf = _PAIR_TEMPLATES
        s0f, s0u, s0x = self.values[s0]
        s1f, s1u, s1x = self.values[s1]
        b0u = self.values[pos + 1][1]
        return (
            f"{uu}={s0u}|{s1u}",
            f"{xx}={s0x}|{s1x}",
            f"{ub}={s0u}|{b0u}",
            f"{sb}={s1u}|{b0u}",
            f"{fu}={s0f}|{s1u}",
            f"{uf}={s0u}|{s1f}",
        )


def _flat(rows: dict, feats) -> tuple[tuple[int, float], ...]:
    """The rows of ``feats`` found in ``rows``, joined in feature order."""
    return tuple(pair for row in map(rows.get, feats) if row for pair in row)


def _add_rows(scores: list[float], pairs) -> None:
    # one += per (feature, action) in feature order, so every score is the
    # same sequence of float additions on every Python version; builtin
    # sum() of floats is compensated from 3.12 on and would change results
    for action, weight in pairs:
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
    """Training weights by feature id, each row one int holding a
    ``_FIELD_BITS``-bit field per action (a negative one borrows from the
    next); ``sums`` packs each field's Σ δ·step.  ``_base`` holds half the field range in every
    field, so the bytes of ``row + _base`` hold each field plus that half."""

    def __init__(self, features: int, actions: int) -> None:
        self.rows = [0] * features
        self.sums = [0] * features
        self.step = 0
        self._unit = [1 << (a * _FIELD_BITS) for a in range(actions)]
        self._half = 1 << (_FIELD_BITS - 1)
        self._base = self._half * sum(self._unit)
        self._fields = struct.Struct(f"<{actions}{_FIELD_CODES[_FIELD_BITS]}")

    def _unpack(self, packed: int) -> tuple[int, ...]:
        return self._fields.unpack((packed + self._base).to_bytes(self._fields.size, "little"))

    def predict(self, feats, valid: list[int]) -> int:
        """The best-scoring action of ``valid`` (ascending), the first on a tie."""
        if len(valid) == 1:  # a forced move needs no scores
            return valid[0]
        scores = self._unpack(sum(map(self.rows.__getitem__, feats)))
        return max(valid, key=scores.__getitem__)

    def update(self, feats, gold: int, predicted: int) -> None:
        self.step += 1
        if gold != predicted:
            delta = self._unit[gold] - self._unit[predicted]
            timed = delta * self.step
            for feat in feats:
                self.rows[feat] += delta
                self.sums[feat] += timed

    def averaged(self, features: list[str], names: list[str]) -> dict[str, dict[str, float]]:
        """Averaged weights of ``features`` (by id), actions mapped back to ``names``."""
        step, half = self.step, self._half
        out: dict[str, dict[str, float]] = {}
        for feat, row, timed in zip(features, self.rows, self.sums):
            if row or timed:
                totals = self._unpack(row * step - timed)
                avg = {names[a]: (t - half) / step for a, t in enumerate(totals) if t != half}
                if avg:
                    out[feat] = avg
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
    that does not aborts training with an error naming the sentence.  Data
    without an arc between two tokens, or without one onto the root, is
    refused too: a model without either label set cannot parse every sentence.
    So is a run of fewer than one epoch, or one too long for the weight fields.
    """
    if epochs < 1:
        raise ConfigurationError(f"parser training needs at least one epoch, got {epochs}")
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
    if not dep_labels or not root_labels:
        raise TrainingError(
            "parser training data needs both an arc between two tokens and an arc "
            "onto the root"
        )
    actions = _Actions(dep_labels, root_labels, schema)
    transcripts, features, valid_sets = _transcripts(sentences, actions, dep_labels, root_labels)
    stride = _FEATURES + 2
    transitions = sum(map(len, transcripts)) // stride
    # every field stays below half its range: a Σ δ·step below steps², a score below 16·steps
    if (epochs * transitions) ** 2 >= 1 << (_FIELD_BITS - 1):
        raise TrainingError(
            f"{epochs} epochs of {transitions} transitions overflow the parser's "
            f"{_FIELD_BITS}-bit weight fields"
        )

    perceptron = _AveragedPerceptron(len(features), len(actions.names))
    rng = random.Random(seed)
    indices = list(range(len(sentences)))
    for _ in range(epochs):
        rng.shuffle(indices)
        for idx in indices:
            transcript = transcripts[idx]
            for at in range(0, len(transcript), stride):
                feats = transcript[at : at + _FEATURES]
                kind, gold = transcript[at + _FEATURES : at + stride]
                perceptron.update(feats, gold, perceptron.predict(feats, valid_sets[kind]))

    return ParserModel(
        weights=perceptron.averaged(features, actions.names),
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


def _transcripts(
    sentences: list[Sentence], actions: _Actions, dep_labels: list[str], root_labels: list[str]
) -> tuple[list[memoryview], list[str], list[list[int]]]:
    """Each sentence's static-oracle configurations as ``_CONFIGURATION`` items
    (feature ids in scoring order, the kind of the valid action list, the gold
    action), the feature strings by id and the valid action lists by kind."""
    ids: dict[str, int] = {}
    valid_sets = [valid for row in actions._valid for valid in row]
    kinds = {id(valid): kind for kind, valid in enumerate(valid_sets)}

    def intern(feats) -> list[int]:
        return [ids.setdefault(feat, len(ids)) for feat in feats]

    transcripts = []
    for sentence in sentences:
        ctx = _Context(sentence.single_tokens())
        n = ctx.n
        unary = [_unary(values) for values in ctx.values]
        s0_feats = [intern(_BIAS + u[0]) for u in unary]
        s1_feats = [intern(u[1]) for u in unary]
        buffer_feats = [intern(u[2] + after[3]) for u, after in zip(unary[1:], unary[2:])]
        position = {t.id: p for p, t in enumerate(ctx.tokens, 1)}
        position[ROOT] = ROOT
        gold_head = [None] + [position[t.head] for t in ctx.tokens]
        gold_label = [None] + [t.deprel for t in ctx.tokens]
        pending = [0] * (n + 1)
        for head in gold_head[1:]:
            pending[head] += 1

        out = bytearray()
        stack = [ROOT]
        pos = 0
        while len(stack) > 1 or pos < n:
            s0 = stack[-1]
            s1 = stack[-2] if len(stack) > 1 else ctx.none
            # the oracle pops a dependent once it has all of its own dependents
            if len(stack) > 1 and s1 != ROOT and gold_head[s1] == s0 and not pending[s1]:
                gold = actions.left[gold_label[s1]]
                pending[s0] -= 1
            elif len(stack) > 1 and gold_head[s0] == s1 and not pending[s0]:
                gold = actions.right[gold_label[s0]]
                pending[s1] -= 1
            elif pos < n:
                gold = actions.shift
            else:
                # the gold tree is not reachable (non-projective); force a
                # right-arc so the transition sequence still terminates
                known = root_labels if s1 == ROOT else dep_labels
                gold = actions.right[gold_label[s0] if gold_label[s0] in known else known[0]]
                pending[s1] -= 1
            out += _CONFIGURATION.pack(
                *s0_feats[s0], *s1_feats[s1], *buffer_feats[pos], *intern(ctx.pairs(s0, s1, pos)),
                kinds[id(actions.valid(stack, pos < n))], gold,
            )
            pos += _apply(actions.moves[gold], stack, pos, {}, {})  # the arcs are gold
        transcripts.append(memoryview(out).cast("I"))
    return transcripts, list(ids), valid_sets


def _entry(model: ParserModel, values: tuple[str, str, str]) -> tuple:
    """The parser memo's entry for one position's values.

    It holds the scores after the bias and the s0 features, then the
    position's s1 rows, b0 rows and b1u row, each kind joined into one flat
    tuple of (action, weight) pairs in feature order.  Only tuples, which
    the collector stops tracking, so a full memo does not lengthen its
    full passes.
    """
    rows = model._rows
    s0, s1, b0, (b1u,) = _unary(values)
    prefix = model._bias_scores[:]
    _add_rows(prefix, _flat(rows, s0))
    return tuple(prefix), _flat(rows, s1), _flat(rows, b0), rows.get(b1u, ())


def _decode(model: ParserModel, tokens: list[Token]) -> list[tuple[int, str]]:
    """Greedy decode of one sentence's single tokens; each one's (head, deprel).

    One loop over buffer positions with the transition system inlined (see
    :meth:`_Actions.valid` and :func:`_apply`).  Each score is summed as
    :func:`_add_rows` does, in the feature order of :class:`_Context`.
    """
    ctx = _Context(tokens)
    n = ctx.n
    values = ctx.values
    memo = memo_table(model, ())
    named = model._named_forms
    entries = []
    for at in values:
        key = at if at[0] in named else (None, at[1], at[2])
        entry = memo.get(key)
        if entry is None:
            entry = remember(memo, key, _entry(model, at))
        entries.append(entry)
    valid_sets = model._actions._valid
    moves = model._actions.moves
    uu, xx, ub, sb, fu, uf = model._pair_rows
    nowhere: dict = {}

    stack = [ROOT]
    heads = [ROOT] * (n + 1)
    labels = [""] * (n + 1)
    for pos in range(n + 1):
        valid = valid_sets[pos < n]
        b0u = values[pos + 1][1]
        buffer_rows = entries[pos + 1][2] + entries[pos + 2][3]
        while len(stack) > 1:
            s0 = stack[-1]
            s1 = stack[-2]
            choices = valid[1] if s1 != ROOT else valid[2]
            move = choices[0]
            if len(choices) > 1:  # a forced move needs no scores
                scores = [*entries[s0][0]]
                for action, weight in entries[s1][1]:
                    scores[action] += weight
                for action, weight in buffer_rows:
                    scores[action] += weight
                # the pair rows by value, as ``_Context.pairs`` formats them
                s0f, s0u, s0x = values[s0]
                s1f, s1u, s1x = values[s1]
                for row in (
                    uu.get(s0u, nowhere).get(s1u, ()),
                    xx.get(s0x, nowhere).get(s1x, ()),
                    ub.get(s0u, nowhere).get(b0u, ()),
                    sb.get(s1u, nowhere).get(b0u, ()),
                    fu.get(s0f, nowhere).get(s1u, ()),
                    uf.get(s0u, nowhere).get(s1f, ()),
                ):
                    for action, weight in row:
                        scores[action] += weight
                move = max(choices, key=scores.__getitem__)
            slot, label = moves[move]
            if slot is None:
                break
            dep = stack.pop(slot)
            heads[dep] = stack[-1]
            labels[dep] = label
        # a shift, the only move of a one-item stack, ends the loop; so
        # does the end of the buffer, after which the pushed slot is unread
        stack.append(pos + 1)
    ids = [ROOT, *(t.id for t in tokens)]
    return [(ids[heads[p]], labels[p]) for p in range(1, n + 1)]


def parse_in_place(doc: Document, model: ParserModel) -> None:
    """Attach heads and labels to every sentence of ``doc`` itself.

    Requires upos, xpos and lemma on all single tokens (upstream stages must
    have run).  Each sentence becomes a tree of the model's schema by
    construction (:meth:`_Actions.valid`), so it is not checked.
    """
    for si, sent in enumerate(doc.sentences):
        tokens = sent.single_tokens()
        for tok in tokens:
            if tok.upos is None or tok.xpos is None or tok.lemma is None:
                where = sent.sent_id or f"sentence {si + 1}"
                raise StageError(
                    "depparse",
                    f"token {tok.id} ({tok.form!r}) in {where} misses "
                    "upos/xpos/lemma required for parsing",
                )
        for tok, (head, deprel) in zip(tokens, _decode(model, tokens)):
            tok.head, tok.deprel = head, deprel


def parse_dependency(
    doc: Document, model: ParserModel, language: str | None = None
) -> Document:
    """A parsed copy of ``doc``; see :func:`parse_in_place`."""
    modelio.check_language("parser", model.metadata.language, language)
    out = copy_document(doc)
    parse_in_place(out, model)
    return out


# --- model persistence -----------------------------------------------------


def save_parser(model: ParserModel, path) -> None:
    meta = {**asdict(model.metadata), "schema": model.schema.value}
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
            metadata=modelio.read_metadata(ParserMetadata, meta),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelError(f"{path}: malformed parser model: {exc}") from exc
    return model
