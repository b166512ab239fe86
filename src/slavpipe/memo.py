"""Bounded memo tables for the stages' per-form decisions.

A stage's decision for one form (the tokenizer's split of a chunk, the
tagger's triple, the parser's scoring rows of a token's (form, upos, xpos),
kept under its upos and xpos alone when no single-token feature names
the form)
depends only on a few objects: the model or rules, and the lexicon or closed
table it consults.  The tagger also keeps the ranking of each backoff suffix
on its model (``_suffix_ranks``, not a memo of this module): it depends on
the model alone and holds at most one tuple per ``suffix_counts`` entry, so
it needs no scope and no :data:`CAP`.
The memo lives on the model or rules as a private attribute, so it is freed
with them.  An owner keeps one memo, filled under one *scope*: the tuple of
the other objects the decision reads.  A scope object whose changes alter
memoised decisions (a lexicon) carries a ``_version`` counter its mutators
bump.  A closed table has none: the tagger fixes its listed forms before it
looks at the memo, and decides every other form the same whatever the
table lists, so adding to a table drops no memo.  A call with other scope
objects, or after a version has moved, replaces the memo with an empty one,
so an owner never holds more than one memo and never keeps a replaced
lexicon alive.  The stages ask for their memo once per document, so a call
with an unchanged scope is answered by a plain loop that builds nothing.
A memo that reaches :data:`CAP` entries is cleared, which bounds its
memory: a few megabytes for the tokenizer and the tagger, about 34 MB for
the parser (about 1.0 KB an entry).  Values should be tuples of
atoms and tuples, which the collector stops tracking: a full memo of lists
makes every full collection walk each of them.
"""

from __future__ import annotations

CAP = 1 << 15


def memo_table(owner: object, scope: tuple) -> dict:
    """The memo on ``owner`` for decisions fixed by ``owner`` and ``scope``.

    A call with the scope the memo was filled under (the same objects, each
    at the same ``_version``) returns it at once; a plain loop checks that,
    with no tuple or list built, since the stages call this per document."""
    slot = owner.__dict__.get("_memo")
    if slot is not None:
        held, versions, memo = slot
        if len(held) == len(scope):
            i = 0
            for obj in scope:
                if obj is not held[i] or getattr(obj, "_version", None) != versions[i]:
                    break
                i += 1
            else:
                return memo
    versions = tuple([getattr(obj, "_version", None) for obj in scope])
    slot = owner.__dict__["_memo"] = (scope, versions, {})
    return slot[2]


def remember(memo: dict, key, value):
    """Store ``value`` under ``key``, first clearing a full memo; return it."""
    if len(memo) >= CAP:
        memo.clear()
    memo[key] = value
    return value
