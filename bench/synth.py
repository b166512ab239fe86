"""Seeded synthetic Slovenian-like corpora with gold annotation.

Everything here is a pure function of the seed: the vocabulary, the lexicon,
the gold training corpora and the raw-text documents the benchmark feeds to
slavpipe.  The library only ever sees the generated text and files.

Two text styles are produced:

* *news*: capitalized, punctuated sentences composed of one to four clauses,
  grouped into paragraphs, over a Zipf-distributed vocabulary.  The standard
  tokenizer reproduces the gold segmentation exactly, because every sentence
  starts with an upper-case letter, no form collides with an abbreviation of
  the shipped rules, and no number stands before a sentence-final period.
* *web*: tweet-sized documents with @mentions, #hashtags, URLs, emoticons,
  missing spaces after commas, lower-case starts and stripped diacritics.
  The nonstandard tokenizer reproduces the gold segmentation: terminal
  punctuation only ever ends a sentence, and emoticons never follow it.

Gold rows are ``[form, lemma, upos, xpos, feats, head, deprel, space_after]``
with 1-based heads (0 is the root).
"""

from __future__ import annotations

import bisect
import itertools
import random

from slavpipe.conllu import Document, Sentence, Token, sentence_text

LANG = "sl"

# Forms that would end in a kept period before a sentence end: the shipped
# sl abbreviation list without its periods.
ABBREVIATIONS = frozenset(
    "dr g ga ipd itd itn l mag npr oz prof str sv t.i tj ur št".split()
)
DIACRITICS = str.maketrans({"č": "c", "š": "s", "ž": "z", "Č": "C", "Š": "S", "Ž": "Z"})

_ONSETS = (
    "b c č d g k l m n p r s š t v z ž br dr gr kr pr st tr sl pl sk zn".split()
)
_VOWELS = "a e i o u".split()
_CODAS = ["", "", "", "n", "r", "l", "s", "k", "t", "j"]

_CASES = {"n": "Nom", "g": "Gen", "d": "Dat", "a": "Acc", "l": "Loc", "i": "Ins"}
_GENDERS = {"m": "Masc", "f": "Fem", "n": "Neut"}
_NUMBERS = {"s": "Sing", "p": "Plur"}

# noun endings by gender, then (number, case)
_NOUN_ENDINGS = {
    "f": dict(sn="a", sg="e", sd="i", sa="o", sl="i", si="o",
              pn="e", pg="", pd="am", pa="e", pl="ah", pi="ami"),
    "m": dict(sn="", sg="a", sd="u", sa="", sl="u", si="om",
              pn="i", pg="ov", pd="om", pa="e", pl="ih", pi="i"),
    "n": dict(sn="o", sg="a", sd="u", sa="o", sl="u", si="om",
              pn="a", pg="", pd="om", pa="a", pl="ih", pi="i"),
}
# adjective endings after stem+"n"; the masculine nominative/accusative
# singular is stem+"en", which is also the lemma
_ADJ_ENDINGS = {
    "m": dict(sn="", sg="ega", sd="emu", sa="", sl="em", si="im",
              pn="i", pg="ih", pd="im", pa="e", pl="ih", pi="imi"),
    "f": dict(sn="a", sg="e", sd="i", sa="o", sl="i", si="o",
              pn="e", pg="ih", pd="im", pa="e", pl="ih", pi="imi"),
    "n": dict(sn="o", sg="ega", sd="emu", sa="o", sl="em", si="im",
              pn="a", pg="ih", pd="im", pa="a", pl="ih", pi="imi"),
}

_ADPOSITIONS = [
    ("v", "l"), ("v", "a"), ("na", "l"), ("na", "a"), ("z", "i"), ("s", "i"),
    ("pri", "l"), ("po", "l"), ("od", "g"), ("do", "g"), ("iz", "g"),
    ("za", "a"), ("brez", "g"), ("pred", "i"), ("med", "i"), ("o", "l"),
]
_COORD = ["in", "ali", "pa", "ter"]
_SUBORD = [("da", "ccomp"), ("ker", "advcl"), ("ko", "advcl"), ("če", "advcl")]
_PARTICLES = ["tudi", "še", "že", "samo", "le", "ne"]
_PRONOUNS = [  # form, lemma, xpos, gender, number
    ("on", "on", "Pp3msn", "m", "s"), ("ona", "on", "Pp3fsn", "f", "s"),
    ("oni", "on", "Pp3mpn", "m", "p"), ("to", "ta", "Pd-nsn", "n", "s"),
    ("ta", "ta", "Pd-msn", "m", "s"),
]
_OBJ_PRONOUNS = [("jo", "on", "Pp3fsa--y"), ("jih", "on", "Pp3mpa--y")]

_NEWS_TERMINALS = ["."] * 18 + ["!", "?"]
_WEB_TERMINALS = [".", ".", "!", "?", "...", "!!", "?!", "…"]
_EMOTICONS = [":)", ":(", ":D", ":P", ";)", ":-)", "<3", "xD", "^^", ":/"]
_LETTER_EMOTICONS = frozenset({"xD"})  # must stand alone, never glued to a word


def _feats(**pairs: str) -> str:
    return "|".join(f"{k}={v}" for k, v in sorted(pairs.items(), key=lambda kv: kv[0].lower()))


class Lexeme:
    __slots__ = ("pos", "stem", "lemma", "gender", "vclass")

    def __init__(self, pos: str, stem: str, lemma: str, gender: str = "", vclass: str = ""):
        self.pos = pos
        self.stem = stem
        self.lemma = lemma
        self.gender = gender
        self.vclass = vclass


class Vocabulary:
    """Open-class lexemes in frequency-rank order plus fixed closed classes."""

    SIZES = {"NOUN": 2640, "VERB": 1055, "ADJ": 790, "ADV": 265, "PROPN": 350}

    def __init__(self, seed: int):
        rng = random.Random(f"vocab-{seed}")
        taken: set[str] = set()
        self.lexemes: dict[str, list[Lexeme]] = {}
        for pos, count in self.SIZES.items():
            out: list[Lexeme] = []
            while len(out) < count:
                stem = "".join(
                    rng.choice(_ONSETS) + rng.choice(_VOWELS)
                    for _ in range(rng.randint(1, 2))
                ) + rng.choice(_CODAS)
                if len(stem) < 3 or stem in taken:
                    continue
                lex = _make_lexeme(pos, stem, rng)
                if any(f.lower() in ABBREVIATIONS for f, *_ in paradigm(lex)):
                    continue
                taken.add(stem)
                out.append(lex)
            self.lexemes[pos] = out
        # lexemes outside the lexicon: the tagger and lemmatizer must back off
        self.unlisted = {
            id(lex) for pos, lexes in self.lexemes.items() for lex in lexes
            if rng.random() < 0.12
        }

    def lexicon_rows(self, seed: int) -> list[tuple[str, str, str, int]]:
        """(form, lemma, xpos, frequency) for listed lexemes and closed words."""
        rng = random.Random(f"lexicon-{seed}")
        rows = []
        for pos, lexes in self.lexemes.items():
            for rank, lex in enumerate(lexes, start=1):
                if id(lex) in self.unlisted:
                    continue
                base = max(1, 5000 // rank)
                for form, lemma, _, xpos, _ in paradigm(lex):
                    rows.append((form, lemma, xpos, base + rng.randint(0, 9)))
        for form, case in _ADPOSITIONS:
            rows.append((form, form, "S" + case, 5000))
        for form in _COORD:
            rows.append((form, form, "Cc", 5000))
        for form, _ in _SUBORD:
            rows.append((form, form, "Cs", 5000))
        for form in _PARTICLES:
            rows.append((form, form, "Q", 5000))
        for form, lemma, xpos, _, _ in _PRONOUNS:
            rows.append((form, lemma, xpos, 3000))
        for form, lemma, xpos in _OBJ_PRONOUNS:
            rows.append((form, lemma, xpos, 3000))
        rows.append(("je", "biti", "Va-r3s-n", 9000))
        rows.append(("so", "biti", "Va-r3p-n", 9000))
        return sorted(set(rows))


def _make_lexeme(pos: str, stem: str, rng: random.Random) -> Lexeme:
    if pos in ("NOUN", "PROPN"):
        gender = rng.choice("mmffn") if pos == "NOUN" else rng.choice("mf")
        if pos == "PROPN":
            stem = stem.capitalize()
        lemma = stem + _NOUN_ENDINGS[gender]["sn"]
        return Lexeme(pos, stem, lemma, gender=gender)
    if pos == "VERB":
        vclass = rng.choice("ai")
        return Lexeme(pos, stem, stem + vclass + "ti", vclass=vclass)
    if pos == "ADJ":
        return Lexeme(pos, stem, stem + "en")
    return Lexeme(pos, stem, stem + "o")


def noun_row(lex: Lexeme, number: str, case: str) -> list:
    form = lex.stem + _NOUN_ENDINGS[lex.gender][number + case]
    tag = "Np" if lex.pos == "PROPN" else "Nc"
    return [form, lex.lemma, lex.pos, f"{tag}{lex.gender}{number}{case}",
            _feats(Case=_CASES[case], Gender=_GENDERS[lex.gender], Number=_NUMBERS[number]),
            None, None, True]


def adj_row(lex: Lexeme, gender: str, number: str, case: str) -> list:
    if gender == "m" and number == "s" and case in "na":
        form = lex.stem + "en"
    else:
        form = lex.stem + "n" + _ADJ_ENDINGS[gender][number + case]
    return [form, lex.lemma, "ADJ", f"Agp{gender}{number}{case}",
            _feats(Case=_CASES[case], Degree="Pos", Gender=_GENDERS[gender],
                   Number=_NUMBERS[number]),
            None, None, True]


def verb_row(lex: Lexeme, person: str, number: str) -> list:
    v = lex.vclass
    ending = {("1", "s"): "m", ("3", "s"): "", ("1", "p"): "mo", ("3", "p"): "jo"}[(person, number)]
    return [lex.stem + v + ending, lex.lemma, "VERB", f"Vmpr{person}{number}",
            _feats(Mood="Ind", Number=_NUMBERS[number], Person=person, Tense="Pres",
                   VerbForm="Fin"),
            None, None, True]


def participle_row(lex: Lexeme, gender: str, number: str) -> list:
    ending = {"ms": "l", "fs": "la", "ns": "lo", "mp": "li", "fp": "le", "np": "la"}[gender + number]
    return [lex.stem + lex.vclass + ending, lex.lemma, "VERB", f"Vmpp-{number}{gender}",
            _feats(Gender=_GENDERS[gender], Number=_NUMBERS[number], VerbForm="Part"),
            None, None, True]


def paradigm(lex: Lexeme):
    """Every (form, lemma, upos, xpos, feats) a lexeme can take."""
    rows = []
    if lex.pos in ("NOUN", "PROPN"):
        rows = [noun_row(lex, k[0], k[1]) for k in _NOUN_ENDINGS[lex.gender]]
    elif lex.pos == "ADJ":
        rows = [adj_row(lex, g, k[0], k[1]) for g in "mfn" for k in _ADJ_ENDINGS[g]]
    elif lex.pos == "VERB":
        rows = [verb_row(lex, p, n) for p in "13" for n in "sp"]
        rows += [participle_row(lex, g, n) for g in "mfn" for n in "sp"]
    else:
        rows = [[lex.lemma, lex.lemma, "ADV", "Rgp", "Degree=Pos", None, None, True]]
    return [tuple(r[:5]) for r in rows]


def _closed(form: str, upos: str, xpos: str, lemma: str | None = None, feats: str | None = None) -> list:
    return [form, lemma or form, upos, xpos, feats, None, None, True]


def _punct(form: str) -> list:
    return [form, form, "PUNCT", "Z", None, None, None, True]


class Generator:
    """Draws clauses, sentences and documents for one seed.

    ``stream`` names an independent random stream, so the training corpora
    and each document sequence never share draws.  Lexemes are drawn with
    Zipf weights ``1 / rank ** exponent``; a flatter distribution gives more
    distinct and unseen forms per token.
    """

    def __init__(self, vocab: Vocabulary, seed: int, stream: str, exponent: float = 1.05):
        self.vocab = vocab
        self.rng = random.Random(f"{stream}-{seed}")
        self._cum = {
            pos: list(itertools.accumulate(1.0 / (r ** exponent) for r in range(1, len(lexes) + 1)))
            for pos, lexes in vocab.lexemes.items()
        }

    def _pick(self, pos: str) -> Lexeme:
        cum = self._cum[pos]
        i = bisect.bisect(cum, self.rng.random() * cum[-1])
        return self.vocab.lexemes[pos][min(i, len(cum) - 1)]

    # --- phrases: lists of rows whose heads are local indices, None = phrase head

    def _noun_phrase(self, case: str, allow_pronoun: bool = True, depth: int = 0):
        """Rows of a noun phrase plus the phrase's gender and number."""
        rng = self.rng
        r = rng.random()
        if allow_pronoun and case == "n" and r < 0.1:
            form, lemma, xpos, gender, number = rng.choice(_PRONOUNS)
            return [_closed(form, "PRON", xpos, lemma)], gender, number
        if allow_pronoun and case == "a" and r < 0.06:
            form, lemma, xpos = rng.choice(_OBJ_PRONOUNS)
            return [_closed(form, "PRON", xpos, lemma)], "f" if form == "jo" else "m", "s"
        if r < 0.16:
            lex = self._pick("PROPN")
            return [noun_row(lex, "s", case)], lex.gender, "s"
        lex = self._pick("NOUN")
        number = "s" if rng.random() < 0.75 else "p"
        rows = []
        if number == "p" and rng.random() < 0.15:
            num = str(rng.choice([2, 3, 4, 5, 7, 10, 12, 20, 100, 2019, 2023]))
            rows.append(_closed(num, "NUM", "Mdc", feats="NumForm=Digit|NumType=Card"))
            rows[-1][6] = "nummod"
        n_adj = rng.choices((0, 1, 2), (0.55, 0.35, 0.10))[0]
        for _ in range(n_adj):
            rows.append(adj_row(self._pick("ADJ"), lex.gender, number, case))
            rows[-1][6] = "amod"
        head = len(rows)
        for row in rows:
            row[5] = head
        rows.append(noun_row(lex, number, case))
        if depth == 0 and rng.random() < 0.15:
            sub, _, _ = self._noun_phrase("g", allow_pronoun=False, depth=1)
            _attach(rows, sub, head, "nmod")
        return rows, lex.gender, number

    def _clause(self, short: bool = False):
        """Chunks of one clause as (rows, deprel) with the verb chunk's deprel None."""
        rng = self.rng
        chunks = []
        drop_subject = short and rng.random() < 0.35
        if drop_subject:
            gender = rng.choice("mf")
            number = "s" if rng.random() < 0.75 else "p"
            person = rng.choice("13")
        else:
            rows, gender, number = self._noun_phrase("n")
            person = "3"
        if not short and rng.random() < 0.12:
            chunks.append(([_closed(self._pick("ADV").lemma, "ADV", "Rgp", feats="Degree=Pos")], "advmod"))
        if not drop_subject:
            chunks.append((rows, "nsubj"))
        if rng.random() < 0.12:
            chunks.append(([_closed(rng.choice(_PARTICLES), "PART", "Q")], "advmod"))
        lex = self._pick("VERB")
        if person == "3" and rng.random() < 0.35:
            aux = "je" if number == "s" else "so"
            aux_row = _closed(aux, "AUX", "Va-r3s-n" if number == "s" else "Va-r3p-n", "biti",
                              _feats(Mood="Ind", Number=_NUMBERS[number], Person="3",
                                     Polarity="Pos", Tense="Pres", VerbForm="Fin"))
            aux_row[5], aux_row[6] = 1, "aux"
            chunks.append(([aux_row, participle_row(lex, gender, number)], None))
        else:
            chunks.append(([verb_row(lex, person, number)], None))
        if rng.random() < 0.6:
            rows, _, _ = self._noun_phrase("a")
            chunks.append((rows, "obj"))
        for _ in range(rng.choices((0, 1, 2), (0.5, 0.35, 0.15) if not short else (0.7, 0.3, 0.0))[0]):
            adp, case = rng.choice(_ADPOSITIONS)
            rows, _, _ = self._noun_phrase(case, allow_pronoun=False)
            head = next(i for i, r in enumerate(rows) if r[5] is None)
            case_row = _closed(adp, "ADP", "S" + case, feats=_feats(Case=_CASES[case]))
            case_row[5], case_row[6] = head + 1, "case"
            for r in rows:
                if r[5] is not None:
                    r[5] += 1
            chunks.append(([case_row] + rows, "obl"))
        if rng.random() < 0.2:
            chunks.append(([_closed(self._pick("ADV").lemma, "ADV", "Rgp", feats="Degree=Pos")], "advmod"))
        return chunks

    def sentence(self, short: bool = False) -> list[list]:
        """Gold rows of one sentence without terminal punctuation."""
        rng = self.rng
        n_clauses = 1 if short else rng.choices((1, 2, 3, 4), (0.5, 0.3, 0.14, 0.06))[0]
        rows: list[list] = []
        root = None
        for ci in range(n_clauses):
            chunks = self._clause(short)
            lead: list[list] = []
            relation = None
            if ci > 0:
                if rng.random() < 0.5:
                    word, relation = rng.choice(_COORD), "conj"
                    if rng.random() < 0.4:
                        lead.append(_punct(","))
                    lead.append(_closed(word, "CCONJ", "Cc"))
                    lead[-1][6] = "cc"
                else:
                    word, relation = rng.choice(_SUBORD)
                    lead.append(_punct(","))
                    lead.append(_closed(word, "SCONJ", "Cs"))
                    lead[-1][6] = "mark"
                for r in lead:
                    if r[6] is None:
                        r[6] = "punct"
            start = len(rows)
            flat: list[list] = []
            verb = None
            pending = list(lead)
            flat.extend(lead)
            for chunk_rows, deprel in chunks:
                offset = start + len(flat)
                for r in chunk_rows:
                    if r[5] is not None:
                        r[5] += offset
                if deprel is None:
                    verb = offset + next(i for i, r in enumerate(chunk_rows) if r[5] is None)
                else:
                    head_row = next(r for r in chunk_rows if r[5] is None)
                    head_row[6] = deprel
                    pending.append(head_row)
                flat.extend(chunk_rows)
            for r in pending:
                r[5] = verb
            verb_row_ = flat[verb - start]
            if root is None:
                root = verb
                verb_row_[5], verb_row_[6] = -1, "root"
            else:
                verb_row_[5], verb_row_[6] = root, relation
            rows.extend(flat)
        for r in rows:  # 0-based local heads to 1-based ids, root -> 0
            r[5] = 0 if r[5] == -1 else r[5] + 1
        return rows

    def _finish(self, rows: list[list], capitalize: bool) -> list[list]:
        if capitalize and rows[0][2] != "PROPN":
            rows[0][0] = rows[0][0][:1].upper() + rows[0][0][1:]
        for i in range(len(rows) - 1):
            if rows[i + 1][0] == ",":
                rows[i][7] = False
        return rows

    def news_sentence(self) -> list[list]:
        rows = self.sentence()
        root = next(i for i, r in enumerate(rows) if r[5] == 0) + 1
        end = _punct(self.rng.choice(_NEWS_TERMINALS))
        end[5], end[6] = root, "punct"
        rows[-1][7] = False
        rows.append(end)
        return self._finish(rows, capitalize=True)

    def news_document(self) -> tuple[str, list[list[list]]]:
        """One article: raw text and gold sentences."""
        rng = self.rng
        n = max(1, min(120, round(rng.lognormvariate(1.9, 0.55))))
        sentences = [self.news_sentence() for _ in range(n)]
        parts = []
        for i, rows in enumerate(sentences):
            if i:
                parts.append("\n\n" if rng.random() < 0.2 else " ")
            parts.append(_rows_text(rows))
        return "".join(parts), sentences

    def web_document(self) -> tuple[str, list[list[list]]]:
        """One tweet: raw text and gold sentences."""
        rng = self.rng
        n = rng.choices((1, 2, 3), (0.55, 0.35, 0.10))[0]
        sentences = []
        lower = rng.random() < 0.6
        strip = rng.random() < 0.3
        tight_commas = rng.random() < 0.5
        for si in range(n):
            rows = self.sentence(short=True)
            root = next(i for i, r in enumerate(rows) if r[5] == 0) + 1
            if si == 0 and rng.random() < 0.25:
                mention = _closed("@" + self._pick("PROPN").lemma.lower() + str(rng.randint(1, 99)), "X", "Xw")
                mention[5], mention[6] = root + 1, "vocative"
                for r in rows:
                    if r[5]:
                        r[5] += 1
                rows.insert(0, mention)
                root += 1
            last = si == n - 1
            extras = []
            if last and rng.random() < 0.2:
                extras.append(_closed("#" + self._pick("NOUN").lemma, "X", "Xw"))
                extras[-1][6] = "discourse"
            if last and rng.random() < 0.1:
                extras.append(_closed(f"https://www.{self._pick('NOUN').lemma}.si/clanek/{rng.randint(1, 9999)}",
                                      "X", "Xw"))
                extras[-1][6] = "dep"
            emoticon = last and rng.random() < 0.3
            if emoticon:
                extras.append(_closed(rng.choice(_EMOTICONS), "X", "Xe"))
                extras[-1][6] = "discourse"
            for e in extras:
                e[5] = root
            rows.extend(extras)
            if not (emoticon or (last and rng.random() < 0.3)):
                end = _punct(rng.choice(_WEB_TERMINALS))
                end[5], end[6] = root, "punct"
                rows[-1][7] = False
                rows.append(end)
            elif (emoticon and rows[-1][0] not in _LETTER_EMOTICONS
                  and rows[-2][2] != "X" and rng.random() < 0.5):
                rows[-2][7] = False  # glued to a word; a URL would swallow it
            self._finish(rows, capitalize=not lower)
            if tight_commas:
                for i in range(len(rows) - 1):
                    if rows[i][0] == ",":
                        rows[i][7] = False
            if strip:
                for r in rows:
                    r[0] = r[0].translate(DIACRITICS)
            sentences.append(rows)
        return " ".join(_rows_text(rows) for rows in sentences), sentences


def _attach(rows: list[list], sub: list[list], head: int, deprel: str) -> None:
    """Append a dependent phrase to ``rows`` under local index ``head``."""
    offset = len(rows)
    for r in sub:
        if r[5] is None:
            r[5], r[6] = head, deprel
        else:
            r[5] += offset
    rows.extend(sub)


def _rows_text(rows: list[list]) -> str:
    parts = []
    for i, r in enumerate(rows):
        parts.append(r[0])
        if i + 1 < len(rows) and r[7]:
            parts.append(" ")
    return "".join(parts)


def gold_sentence(rows: list[list], sent_id: str) -> Sentence:
    tokens = [
        Token(id=i, form=r[0], lemma=r[1], upos=r[2], xpos=r[3], feats=r[4],
              head=r[5], deprel=r[6], misc=None if r[7] else "SpaceAfter=No")
        for i, r in enumerate(rows, start=1)
    ]
    sent = Sentence(tokens=tokens)
    sent.comments = [f"# sent_id = {sent_id}", f"# text = {sentence_text(sent)}"]
    return sent


def gold_document(sentences: list[list[list]], prefix: str) -> Document:
    return Document(sentences=[
        gold_sentence(rows, f"{prefix}.{i}") for i, rows in enumerate(sentences, start=1)
    ])


def news_corpus(gen: Generator, n_sentences: int, prefix: str) -> Document:
    return gold_document([gen.news_sentence() for _ in range(n_sentences)], prefix)


def web_corpus(gen: Generator, n_docs: int, prefix: str) -> Document:
    sentences = []
    for _ in range(n_docs):
        sentences.extend(gen.web_document()[1])
    return gold_document(sentences, prefix)


def documents(gen: Generator, style: str):
    """Endless (text, gold sentences) stream in the given style."""
    make = gen.news_document if style == "news" else gen.web_document
    while True:
        yield make()
