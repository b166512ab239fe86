"""Shared helpers for the test suite.

Two kinds of machinery live here: generators for synthetic documents and
corpora (deterministic given a seed), and deliberately naive re-implementations
of the evaluation metrics used as oracles.  The oracles favour clarity over
speed: plain loops, exact Fraction arithmetic, and no shared code with the
package under test.
"""

from __future__ import annotations

import copy
import gzip
import json
import random
import struct
import tracemalloc
from fractions import Fraction

from slavpipe import modelio
from slavpipe.conllu import Document, Sentence, Token, serialize_document, set_comment
from slavpipe.lexicon import Lexicon
from slavpipe.tokenizer import BLANK_LINE

# Pieces of raw text to fuzz the tokenizer and the pipeline with: URLs,
# emoticons, control and separator characters, zero-width and combining
# marks, and lines that look like CoNLL-U.
FUZZ_PIECES = [
    "Pes", "teče", "mačka", "SPI", "3,14", " ", "  ", "\n", "\r", "\r\n", "\t", "\x0b",
    "\x1c", "\x00", "\x85", "\u2028", "\u200b", "\u200d", "\u0301", "\ufeff",
    *".!?…,;:\"”»()", "?!", "...", ":)", ":-(", ";)", "<3", "@ana", "#novo", "ana@b.si",
    "http://x.si/a?b=1", "WwW.primer.si", "# text = x", "# sent_id = 1",
    "1\tPes\t_\t_\t_\t_\t_\t_\t_\t_", "1-2\tdela", "_", "=", "|",
]


def without_blank_lines(text: str) -> str:
    """``text`` with each blank line made one line feed, until none is left."""
    while BLANK_LINE.search(text):
        text = BLANK_LINE.sub("\n", text)
    return text


def renumbered(*docs: Document) -> Document:
    """Copies of the sentences of ``docs`` in one document, ``sent_id``
    running on from 1."""
    out = Document()
    for doc in docs:
        for sent in doc.sentences:
            sent = copy.deepcopy(sent)
            set_comment(sent, "sent_id", str(len(out.sentences) + 1))
            out.sentences.append(sent)
    return out

# --- damaged files ----------------------------------------------------------

GZIP_DAMAGE = ("magic-only", "truncated", "flipped-byte")


def damaged_gzip(damage: str) -> bytes:
    """A gzip lexicon broken in one of three ways.

    ``gzip.decompress`` fails on the first two with ``EOFError`` and on the
    last with ``zlib.error``, neither of them an ``OSError``.
    """
    packed = gzip.compress(
        "".join(f"pes{i}\tpes\tNcmsn\t3\n" for i in range(200)).encode(), mtime=0
    )
    return {
        "magic-only": b"\x1f\x8b",
        "truncated": packed[:-6],
        "flipped-byte": packed[:12] + bytes([packed[12] ^ 0xFF]) + packed[13:],
    }[damage]


def with_section(blob: bytes, name: str, payload: bytes) -> bytes:
    """A model archive ``blob`` with one more section, counted in its header."""
    (count,) = struct.unpack_from(">H", blob, 6)
    encoded = name.encode("utf-8")
    return (
        blob[:6] + struct.pack(">H", count + 1) + blob[8:]
        + struct.pack(">H", len(encoded)) + encoded + struct.pack(">Q", len(payload)) + payload
    )


def _first_number_replaced(node, value):
    """``node`` with its first number (in key order; a bool is none) replaced
    by ``value``, and whether it held one."""
    if type(node) in (int, float):
        return value, True
    if isinstance(node, (dict, list)):
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        for key in keys:
            new, found = _first_number_replaced(node[key], value)
            if found:
                copied = copy.copy(node)
                copied[key] = new
                return copied, True
    return node, False


def write_non_finite(path, kind: str, section: str, constant: str) -> None:
    """Rewrite the archive at ``path`` with the first number of ``section``
    written as ``constant`` (``NaN``, ``Infinity`` or ``-Infinity``), which
    json.dumps writes and the archive writer refuses to."""
    meta, sections = modelio.read_archive(path, kind)
    value, found = _first_number_replaced(sections[section], float(constant))
    assert found, f"{section} holds no number"
    sections[section] = [json.dumps(value).encode("utf-8")]
    modelio.write_atomic(path, modelio._archive_chunks(meta, sections))


# --- tiny synthetic language ------------------------------------------------

_ONSETS = ["b", "d", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z"]
_VOWELS = ["a", "e", "i", "o", "u"]

_PARTICLES = [("naj", "Q"), ("le", "Q"), ("ze", "Q")]
_CONJUNCTIONS = [("in", "Cc"), ("ali", "Cc")]
_ADPOSITIONS = [("na", "Sl"), ("ob", "Sl")]


def _stems(rng: random.Random, count: int, taken: set[str]) -> list[str]:
    out = []
    while len(out) < count:
        stem = "".join(
            rng.choice(_ONSETS) + rng.choice(_VOWELS)
            for _ in range(rng.randint(2, 3))
        )
        if stem not in taken:
            taken.add(stem)
            out.append(stem)
    return out


class Vocabulary:
    """Lexemes with disjoint surface suffixes, so every form is unambiguous.

    Nouns inflect as stem+a / stem+o / stem+u (nominative, accusative,
    locative), verbs as stem+e / stem+el (present, past), adjectives are
    stem+ina.  Stems are unique, so no two lexemes share a surface form.
    """

    def __init__(self, rng: random.Random, nouns: int = 30, verbs: int = 20, adjs: int = 10):
        taken: set[str] = set()
        self.nouns = _stems(rng, nouns, taken)
        self.verbs = _stems(rng, verbs, taken)
        self.adjs = _stems(rng, adjs, taken)

    def noun(self, stem: str, case: str) -> tuple[str, str, str, str, str]:
        suffix, code, feat = {
            "nom": ("a", "Ncfsn", "Case=Nom"),
            "acc": ("o", "Ncfsa", "Case=Acc"),
            "loc": ("u", "Ncfsl", "Case=Loc"),
        }[case]
        return (stem + suffix, "NOUN", code, stem + "a", feat)

    def verb(self, stem: str, tense: str) -> tuple[str, str, str, str, str]:
        suffix, code, feat = {
            "pres": ("e", "Vmpr3s", "Person=3"),
            "past": ("el", "Vmpp-sm", "Tense=Past"),
        }[tense]
        return (stem + suffix, "VERB", code, stem + "ti", feat)

    def adj(self, stem: str) -> tuple[str, str, str, str, str]:
        return (stem + "ina", "ADJ", "Agpfsn", stem + "ina", "Degree=Pos")

    def all_entries(self) -> list[tuple[str, str, str]]:
        """(form, lemma, xpos) for every inflected form."""
        rows = []
        for stem in self.nouns:
            for case in ("nom", "acc", "loc"):
                form, _, xpos, lemma, _ = self.noun(stem, case)
                rows.append((form, lemma, xpos))
        for stem in self.verbs:
            for tense in ("pres", "past"):
                form, _, xpos, lemma, _ = self.verb(stem, tense)
                rows.append((form, lemma, xpos))
        for stem in self.adjs:
            form, _, xpos, lemma, _ = self.adj(stem)
            rows.append((form, lemma, xpos))
        for form, xpos in _PARTICLES + _CONJUNCTIONS + _ADPOSITIONS:
            rows.append((form, form, xpos))
        return rows


def _sentence_patterns(rng: random.Random, vocab: Vocabulary):
    """One sentence as (form, upos, xpos, lemma, feats, head, deprel) rows."""
    noun = lambda case: vocab.noun(rng.choice(vocab.nouns), case)
    verb = lambda tense: vocab.verb(rng.choice(vocab.verbs), tense)
    adj = lambda: vocab.adj(rng.choice(vocab.adjs))
    dot = (".", "PUNCT", "Z", ".", None)
    choice = rng.randrange(5)
    if choice == 0:
        rows = [noun("nom"), verb("pres"), noun("acc"), dot]
        arcs = [(2, "nsubj"), (0, "root"), (2, "obj"), (2, "punct")]
    elif choice == 1:
        rows = [adj(), noun("nom"), verb("pres"), dot]
        arcs = [(2, "amod"), (3, "nsubj"), (0, "root"), (3, "punct")]
    elif choice == 2:
        adp = rng.choice(_ADPOSITIONS)
        rows = [noun("nom"), verb("pres"), (adp[0], "ADP", adp[1], adp[0], None), noun("loc"), dot]
        arcs = [(2, "nsubj"), (0, "root"), (4, "case"), (2, "obl"), (2, "punct")]
    elif choice == 3:
        prt = rng.choice(_PARTICLES)
        rows = [(prt[0], "PART", prt[1], prt[0], None), verb("pres"), noun("acc"), dot]
        arcs = [(2, "advmod"), (0, "root"), (2, "obj"), (2, "punct")]
    else:
        conj = rng.choice(_CONJUNCTIONS)
        rows = [noun("nom"), verb("past"), (conj[0], "CCONJ", conj[1], conj[0], None), verb("past"), dot]
        arcs = [(2, "nsubj"), (0, "root"), (4, "cc"), (2, "conj"), (2, "punct")]
    return [r + a for r, a in zip(rows, arcs)]


def make_corpus(
    seed: int,
    n_sentences: int,
    vocab: Vocabulary | None = None,
    id_prefix: str = "syn",
    source: str | None = None,
) -> Document:
    """A fully annotated corpus of template sentences."""
    rng = random.Random(seed)
    if vocab is None:
        vocab = Vocabulary(rng)
    doc = Document()
    for i in range(n_sentences):
        rows = _sentence_patterns(rng, vocab)
        comments = [f"# sent_id = {id_prefix}.{i + 1}"]
        if source is not None:
            comments.append(f"# source = {source}")
        text = " ".join(r[0] for r in rows[:-1]) + rows[-1][0]
        comments.append(f"# text = {text}")
        tokens = []
        for j, (form, upos, xpos, lemma, feats, head, deprel) in enumerate(rows, 1):
            misc = None
            if j == len(rows) - 1:
                misc = "SpaceAfter=No"
            tokens.append(
                Token(
                    id=j, form=form, lemma=lemma, upos=upos, xpos=xpos,
                    feats=feats, head=head, deprel=deprel, misc=misc,
                )
            )
        doc.sentences.append(Sentence(comments=comments, tokens=tokens))
    return doc


def large_corpus_text() -> str:
    """The CoNLL-U text of 4,000 template sentences (17,619 tokens) over
    6,000 stems, for the memory guards: about as many tokens as the
    benchmark's recipe corpus, and a tagger archive of 0.6 MB."""
    vocab = Vocabulary(random.Random(5), nouns=3000, verbs=2000, adjs=1000)
    return serialize_document(make_corpus(3, 4000, vocab))


def traced(fn):
    """``fn()``, and the bytes that tracemalloc counts it retaining and
    peaking at."""
    tracemalloc.start()
    try:
        result = fn()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, retained, peak


def make_lexicon(vocab: Vocabulary, rng: random.Random | None = None) -> Lexicon:
    lex = Lexicon()
    rng = rng or random.Random(7)
    for form, lemma, xpos in vocab.all_entries():
        lex.add(form, lemma, xpos, rng.randint(1, 40))
    return lex


# one feminine noun paradigm: 12 tags, 8 distinct endings
PARADIGM = {"sn": "a", "sg": "e", "sd": "i", "sa": "o", "sl": "i", "si": "o",
            "pn": "e", "pg": "", "pd": "am", "pa": "e", "pl": "ah", "pi": "ami"}


def paradigm_rows(stems: int = 2000, seed: int = 7):
    """(form, lemma, xpos, frequency) rows: the paradigms of ``stems`` random
    stems, with Zipf-like frequencies as in a corpus-derived lexicon."""
    rng = random.Random(seed)
    for rank in range(1, stems + 1):
        stem = "".join(rng.choices("abcčdefghijklmnoprsštuvzž", k=rng.randint(3, 8)))
        for tag, ending in PARADIGM.items():
            yield f"{stem}{ending}", f"{stem}a", f"Ncf{tag}", max(1, 5000 // rank) + rng.randint(0, 9)


def lexicon_tsv(lex: Lexicon) -> str:
    """The TSV text that :func:`slavpipe.lexicon.load_lexicon` reads back as ``lex``."""
    return "".join(f"{form}\t{lemma}\t{xpos}\t{freq}\n" for form, lemma, xpos, freq in lex.to_rows())


def trap_entries(rng: random.Random, count: int, taken: set[str]) -> list[tuple[str, str, str]]:
    """Noun-looking forms that the lexicon lists only as verbs.

    A suffix-based tagger guesses a noun tag for these, so an enforced
    lexicon constraint visibly changes the outcome.
    """
    rows = []
    for stem in _stems(rng, count, taken):
        rows.append((stem + "a", stem + "ti", "Vmpr3s"))
    return rows


# --- random documents for round-trip and span tests -------------------------


def random_document(rng: random.Random, max_sentences: int = 6) -> Document:
    """A structurally valid document with ranges, comments and misc noise."""
    doc = Document()
    for si in range(rng.randint(1, max_sentences)):
        comments = [f"# sent_id = r{si + 1}"]
        if rng.random() < 0.4:
            comments.append(f"# note = generated {rng.randint(0, 999)}")
        tokens: list[Token] = []
        n = rng.randint(1, 12)
        next_id = 1
        while next_id <= n:
            if rng.random() < 0.15 and next_id + 1 <= n:
                span = min(n, next_id + rng.randint(1, 2))
                tokens.append(
                    Token(
                        id=(next_id, span),
                        form=_random_form(rng),
                        misc="SpaceAfter=No" if rng.random() < 0.3 else None,
                    )
                )
                for k in range(next_id, span + 1):
                    tokens.append(Token(id=k, form=_random_form(rng)))
                next_id = span + 1
            else:
                tokens.append(
                    Token(
                        id=next_id,
                        form=_random_form(rng),
                        lemma=_random_form(rng) if rng.random() < 0.5 else None,
                        upos=rng.choice(["NOUN", "VERB", "X", None]),
                        xpos=rng.choice(["Ncfsn", "Vmpr3s", None]),
                        feats="Case=Nom|Gender=Fem" if rng.random() < 0.3 else None,
                        head=rng.randint(0, n) if rng.random() < 0.5 else None,
                        deprel=rng.choice(["dep", "root"]) if rng.random() < 0.5 else None,
                        misc="SpaceAfter=No" if rng.random() < 0.2 else None,
                    )
                )
                next_id += 1
        doc.sentences.append(Sentence(comments=comments, tokens=tokens))
    return doc


def _random_form(rng: random.Random) -> str:
    return "".join(rng.choice("abcdefgmprstuvz") for _ in range(rng.randint(1, 7)))


def random_aligned_pair(rng: random.Random, max_tokens: int = 500) -> tuple[Document, Document]:
    """Identically tokenized gold and prediction with random disagreements."""
    upos_pool = ["NOUN", "VERB", "ADJ", "PART", "X"]
    xpos_pool = ["Ncfsn", "Vmpr3s", "Agpfsn", "Q", "X"]
    feats_pool = [None, "Case=Nom", "Case=Acc|Gender=Fem", "Person=3"]
    deprel_pool = ["nsubj", "obj", "amod", "punct", "dep"]
    lemma_pool = [_random_form(rng) for _ in range(20)]
    gold = Document()
    pred = Document()
    budget = rng.randint(1, max_tokens)
    si = 0
    while budget > 0:
        si += 1
        n = min(budget, rng.randint(1, 15))
        budget -= n
        gtoks, ptoks = [], []
        for j in range(1, n + 1):
            form = _random_form(rng)
            head = rng.randint(0, n)
            if head == j:
                head = 0
            gold_tok = Token(
                id=j, form=form,
                lemma=rng.choice(lemma_pool),
                upos=rng.choice(upos_pool),
                xpos=rng.choice(xpos_pool),
                feats=rng.choice(feats_pool),
                head=head,
                deprel=rng.choice(deprel_pool),
                misc="SRL=Agent" if rng.random() < 0.2 else None,
            )

            def maybe(value, pool):
                return value if rng.random() < 0.7 else rng.choice(pool)

            phead = gold_tok.head if rng.random() < 0.7 else rng.randint(0, n)
            if phead == j:
                phead = 0
            pred_tok = Token(
                id=j, form=form,
                lemma=maybe(gold_tok.lemma, lemma_pool),
                upos=maybe(gold_tok.upos, upos_pool),
                xpos=maybe(gold_tok.xpos, xpos_pool),
                feats=maybe(gold_tok.feats, feats_pool),
                head=phead,
                deprel=maybe(gold_tok.deprel, deprel_pool),
                misc=gold_tok.misc if rng.random() < 0.7
                else ("SRL=Patient" if rng.random() < 0.5 else None),
            )
            gtoks.append(gold_tok)
            ptoks.append(pred_tok)
        gold.sentences.append(Sentence(comments=[f"# sent_id = g{si}"], tokens=gtoks))
        pred.sentences.append(Sentence(comments=[f"# sent_id = g{si}"], tokens=ptoks))
    return gold, pred


def random_segmentation_pair(rng: random.Random) -> tuple[Document, Document]:
    """Two tokenizations of the same text, differing in splits and merges."""
    words = [_random_form(rng) for _ in range(rng.randint(2, 40))]
    text = " ".join(words)
    return _random_segmentation(rng, text), _random_segmentation(rng, text)


def _random_segmentation(rng: random.Random, text: str) -> Document:
    """Cut a text into tokens (never mid-space) and sentences at random."""
    pieces: list[str] = []
    i = 0
    while i < len(text):
        j = min(len(text), i + rng.randint(1, 8))
        while j < len(text) and text[j - 1] == " ":
            j += 1
        piece = text[i:j]
        if piece.strip():
            pieces.append(piece)
        else:
            pieces[-1] = pieces[-1] + piece
        i = j
    # trailing spaces stay glued to the previous piece; strip them into
    # SpaceAfter marks instead
    doc = Document()
    tokens: list[Token] = []
    tid = 0
    for k, piece in enumerate(pieces):
        tid += 1
        space_after = piece.endswith(" ")
        form = piece.rstrip(" ")
        tokens.append(
            Token(id=tid, form=form, misc=None if space_after else "SpaceAfter=No")
        )
        last = k == len(pieces) - 1
        if last or (space_after and rng.random() < 0.25):
            if not last:
                tokens[-1].misc = None
            doc.sentences.append(
                Sentence(comments=[f"# sent_id = s{len(doc.sentences) + 1}"], tokens=tokens)
            )
            tokens = []
            tid = 0
    return doc


# --- oracle metric implementations ------------------------------------------


def _canon_feats(feats: str | None) -> str:
    if feats is None or feats == "_":
        return "_"
    parts = feats.split("|")
    parts.sort(key=lambda p: p.split("=", 1)[0].lower())
    return "|".join(parts)


def _single(sentence: Sentence) -> list[Token]:
    return [t for t in sentence.tokens if isinstance(t.id, int)]


def _oracle_values(tok: Token, field: str) -> list[str]:
    if field == "lemma":
        return [tok.lemma if tok.lemma is not None else "_"]
    if field == "upos":
        return [tok.upos if tok.upos is not None else "_"]
    if field == "xpos":
        return [tok.xpos if tok.xpos is not None else "_"]
    if field == "feats":
        return [_canon_feats(tok.feats)]
    if field == "morph-pooled":
        return (
            _oracle_values(tok, "upos")
            + _oracle_values(tok, "xpos")
            + _oracle_values(tok, "feats")
        )
    if field == "morph-strict":
        return ["\t".join(_oracle_values(tok, "morph-pooled"))]
    if field == "srl":
        value = "_"
        for part in (tok.misc or "").split("|"):
            if part.startswith("SRL="):
                value = part[len("SRL="):]
        return [value]
    raise ValueError(field)


def oracle_micro_f1(gold: Document, pred: Document, field: str) -> Fraction:
    g = p = c = 0
    for gs, ps in zip(gold.sentences, pred.sentences):
        for gt, pt in zip(_single(gs), _single(ps)):
            gv = _oracle_values(gt, field)
            pv = _oracle_values(pt, field)
            g += len(gv)
            p += len(pv)
            for a, b in zip(gv, pv):
                if a == b:
                    c += 1
    if g + p == 0:
        return Fraction(1)
    return Fraction(2 * c, g + p)


def _oracle_spans(doc: Document, unit: str) -> set[tuple[int, int]]:
    """Token or sentence character spans, built from string pieces."""
    sent_strings: list[str] = []
    sent_token_offsets: list[list[tuple[int, int]]] = []
    for sent in doc.sentences:
        surface: list[Token] = []
        covered: set[int] = set()
        for tok in sent.tokens:
            if isinstance(tok.id, tuple):
                surface.append(tok)
                covered.update(range(tok.id[0], tok.id[1] + 1))
            elif tok.id not in covered:
                surface.append(tok)
        text = ""
        offsets = []
        for i, tok in enumerate(surface):
            start = len(text)
            text += tok.form
            offsets.append((start, len(text)))
            has_space = "SpaceAfter=No" not in (tok.misc or "").split("|")
            if i + 1 < len(surface) and has_space:
                text += " "
        sent_strings.append(text)
        sent_token_offsets.append(offsets)
    spans: set[tuple[int, int]] = set()
    base = 0
    for k, sent in enumerate(doc.sentences):
        text = sent_strings[k]
        if unit == "sentence":
            if text:
                spans.add((base, base + len(text)))
        else:
            for start, end in sent_token_offsets[k]:
                spans.add((base + start, base + end))
        base += len(text)
        surface_last = None
        covered: set[int] = set()
        for tok in sent.tokens:
            if isinstance(tok.id, tuple):
                surface_last = tok
                covered.update(range(tok.id[0], tok.id[1] + 1))
            elif tok.id not in covered:
                surface_last = tok
        if k + 1 < len(doc.sentences):
            if surface_last is None or "SpaceAfter=No" not in (surface_last.misc or "").split("|"):
                base += 1
    return spans


def oracle_span_f1(gold: Document, pred: Document, unit: str) -> Fraction:
    if not gold.sentences and not pred.sentences:
        return Fraction(1)
    if not gold.sentences or not pred.sentences:
        return Fraction(0)
    gs = _oracle_spans(gold, unit)
    ps = _oracle_spans(pred, unit)
    if len(gs) + len(ps) == 0:
        return Fraction(1)
    return Fraction(2 * len(gs & ps), len(gs) + len(ps))


def oracle_las(gold: Document, pred: Document) -> Fraction:
    total = correct = 0
    for gs, ps in zip(gold.sentences, pred.sentences):
        for gt, pt in zip(_single(gs), _single(ps)):
            total += 1
            if gt.head == pt.head and gt.deprel == pt.deprel:
                correct += 1
    if total == 0:
        return Fraction(1)
    return Fraction(correct, total)


def oracle_per_label(gold: Document, pred: Document, field: str) -> dict[str, Fraction | None]:
    totals: dict[str, int] = {}
    hits: dict[str, int] = {}
    seen_pred: set[str] = set()
    for gs, ps in zip(gold.sentences, pred.sentences):
        for gt, pt in zip(_single(gs), _single(ps)):
            gv = getattr(gt, field)
            pv = getattr(pt, field)
            if pv is not None:
                seen_pred.add(pv)
            if gv is None:
                continue
            totals[gv] = totals.get(gv, 0) + 1
            if gv == pv:
                hits[gv] = hits.get(gv, 0) + 1
    out: dict[str, Fraction | None] = {}
    for label, total in totals.items():
        out[label] = Fraction(hits.get(label, 0), total)
    for label in seen_pred:
        if label not in totals:
            out[label] = None
    return out
