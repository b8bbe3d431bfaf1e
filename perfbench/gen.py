"""Seeded synthetic inputs for the benchmark, standard library only.

The real CoNLL-2000 corpora are not part of the repository, so the
benchmark writes look-alikes:

* ``flat_corpus``: 3 column IOB2 chunk files shaped like CoNLL-2000, with a
  Zipfian vocabulary, NP/VP/PP/ADVP/SBAR chunks driven by the pos tags and
  a small rate of tag noise that keeps every sequence legal IOB2;
* ``nested_treebank``: nested NP bracket files with NP-PP-NP attachment,
  every sentence holding at least one NP nested three deep;
* ``prediction_table``: a gold column plus noisy copies of it, one per
  pretend system, in the prediction table format.

Every function takes a ``random.Random`` or a seed and nothing reads the
global generator or iterates a set, so one seed gives the same bytes on
every run.  Reserved values never appear: no word is ``__PAD__`` or ``_``
and no chunk type is ``O``.
"""

from __future__ import annotations

import bisect
import itertools
import random

CHUNK_TYPES = ("NP", "VP", "PP", "ADVP", "SBAR")
ZIPF_EXPONENT = 1.07
TAG_NOISE = 0.03

_CONSONANTS = "bcdfghklmnprstvz"
_VOWELS = "aeiou"


def _stems(count: int, seed: int) -> list[str]:
    """Distinct pronounceable stems, the same for every benchmark seed."""
    r = random.Random(seed)
    seen: set[str] = set()
    stems: list[str] = []
    while len(stems) < count:
        syllables = r.choice((1, 2, 2, 2, 3, 3))
        stem = "".join(r.choice(_CONSONANTS) + r.choice(_VOWELS) for _ in range(syllables))
        if r.random() < 0.5:
            stem += r.choice(_CONSONANTS)
        if stem not in seen:
            seen.add(stem)
            stems.append(stem)
    return stems


class Vocabulary:
    """Word lists per pos tag, each drawn with Zipfian rank frequencies.

    Open classes share stems, so inflected forms collide the way English
    ones do (``-s`` nouns and verbs, ``-ed`` past tense and participle) and
    some words are ambiguous between pos tags and chunk types.
    """

    def __init__(self) -> None:
        nouns = _stems(3000, 11)
        adjectives = _stems(900, 12)
        verbs = nouns[200:1000]  # shared with nouns: noun/verb ambiguity
        names = [s.capitalize() for s in _stems(1500, 13)]
        self.words: dict[str, list[str]] = {
            "DT": ["the", "a", "an", "this", "some", "that", "these", "no", "every", "any"],
            "PRP": ["it", "he", "they", "we", "she", "you", "i"],
            "NN": nouns,
            "NNS": [s + "s" for s in nouns[:2000]],
            "NNP": names,
            "CD": [str(n) for n in range(1, 200)] + ["million", "billion", "two", "three"],
            "JJ": adjectives,
            "RB": [s + "ly" for s in adjectives[:400]] + ["not", "also", "still", "only"],
            "MD": ["will", "would", "could", "may", "can", "should"],
            "VB": verbs,
            "VBD": [s + "ed" for s in verbs],
            "VBZ": [s + "s" for s in verbs],
            "VBN": [s + "ed" for s in verbs[:600]],
            "VBG": [s + "ing" for s in verbs[:500]],
            "TO": ["to"],
            # prepositions double as subordinators, as in CoNLL-2000
            "IN": ["of", "in", "for", "on", "with", "at", "by", "from", "about", "as",
                   "into", "than", "after", "over", "because", "if", "while", "that",
                   "before", "since", "under", "until", "through", "between"],
            "WDT": ["which", "that", "whatever"],
            "CC": ["and", "but", "or"],
            ",": [","],
            ".": [".", "?", "!"],
        }
        self._cum = {
            pos: list(itertools.accumulate(1.0 / (rank + 1) ** ZIPF_EXPONENT
                                           for rank in range(len(words))))
            for pos, words in self.words.items()
        }

    def word(self, r: random.Random, pos: str) -> str:
        cum = self._cum[pos]
        return self.words[pos][bisect.bisect_right(cum, r.random() * cum[-1])]


VOCAB = Vocabulary()

Chunk = tuple[str | None, list[tuple[str, str]]]  # (type or None for O, [(word, pos)])


def _tok(r: random.Random, pos: str) -> tuple[str, str]:
    return VOCAB.word(r, pos), pos


def _noun_phrase(r: random.Random) -> list[tuple[str, str]]:
    roll = r.random()
    if roll < 0.12:
        return [_tok(r, "PRP")]
    if roll < 0.27:
        return [_tok(r, "NNP") for _ in range(r.choice((1, 1, 2, 2, 3)))]
    if roll < 0.35:
        words = [_tok(r, "DT")] if r.random() < 0.4 else []
        return words + [_tok(r, "CD"), _tok(r, "NNS")]
    words = [_tok(r, "DT")] if r.random() < 0.7 else []
    for _ in range(r.choice((0, 0, 0, 1, 1, 2))):
        words.append(_tok(r, "JJ"))
    if r.random() < 0.15:
        words.append(_tok(r, "NN"))
    words.append(_tok(r, "NN" if r.random() < 0.65 else "NNS"))
    return words


def _verb_phrase(r: random.Random) -> list[tuple[str, str]]:
    roll = r.random()
    if roll < 0.15:
        return [_tok(r, "MD"), _tok(r, "VB")]
    if roll < 0.25:
        return [_tok(r, "VBZ"), _tok(r, "VBN")]
    if roll < 0.33:
        return [_tok(r, "VBD"), _tok(r, "TO"), _tok(r, "VB")]
    if roll < 0.40:
        return [_tok(r, "VBZ"), _tok(r, "VBG")]
    return [_tok(r, "VBD" if r.random() < 0.6 else "VBZ")]


def _clause(r: random.Random, depth: int) -> list[Chunk]:
    chunks: list[Chunk] = [("NP", _noun_phrase(r))]
    if r.random() < 0.08:
        chunks.append(("ADVP", [_tok(r, "RB")]))
    chunks.append(("VP", _verb_phrase(r)))
    if r.random() < 0.7:
        chunks.append(("NP", _noun_phrase(r)))
    while r.random() < 0.45:
        chunks.append(("PP", [_tok(r, "IN")]))
        chunks.append(("NP", _noun_phrase(r)))
    if r.random() < 0.12:
        chunks.append(("ADVP", [_tok(r, "RB")]))
    if depth < 2 and r.random() < 0.18:
        chunks.append(("SBAR", [_tok(r, "IN" if r.random() < 0.6 else "WDT")]))
        chunks.extend(_clause(r, depth + 1))
    elif depth < 2 and r.random() < 0.1:
        chunks.append((None, [_tok(r, ",")]))
        chunks.append((None, [_tok(r, "CC")]))
        chunks.extend(_clause(r, depth + 1))
    return chunks


def _add_noise(r: random.Random, chunks: list[Chunk]) -> list[Chunk]:
    """Annotation noise that keeps chunk structure well formed.

    A noisy chunk is relabelled, dropped to O, or split in two; splits of a
    one-token chunk fall back to a relabel.
    """
    noisy: list[Chunk] = []
    for label, words in chunks:
        if label is None or r.random() >= TAG_NOISE:
            noisy.append((label, words))
            continue
        roll = r.random()
        if roll < 0.4:
            noisy.append((r.choice([t for t in CHUNK_TYPES if t != label]), words))
        elif roll < 0.7:
            noisy.append((None, words))
        elif len(words) > 1:
            cut = r.randrange(1, len(words))
            noisy.append((label, words[:cut]))
            noisy.append((label, words[cut:]))
        else:
            noisy.append((r.choice([t for t in CHUNK_TYPES if t != label]), words))
    return noisy


def _iob2_lines(chunks: list[Chunk]) -> list[str]:
    lines = []
    for label, words in chunks:
        for i, (word, pos) in enumerate(words):
            tag = "O" if label is None else ("B-" if i == 0 else "I-") + label
            lines.append(f"{word} {pos} {tag}")
    return lines


def flat_sentence(r: random.Random) -> list[str]:
    """One sentence as ``word pos tag`` lines."""
    chunks = _clause(r, 0)
    chunks.append((None, [_tok(r, ".")]))
    return _iob2_lines(_add_noise(r, chunks))


def flat_corpus(r: random.Random, tokens: int) -> list[list[str]]:
    """Sentences until at least ``tokens`` tokens are written."""
    sentences: list[list[str]] = []
    total = 0
    while total < tokens:
        sentence = flat_sentence(r)
        sentences.append(sentence)
        total += len(sentence)
    return sentences


def render(sentences: list[list[str]]) -> str:
    """Column file text: one line per token, a blank line after each sentence."""
    return "".join("\n".join(lines) + "\n\n" for lines in sentences)


#---------------------------------------------------------------------------
# nested noun phrases

# A nested NP is its tokens and its (begin, end) NP spans, relative to it.
Nested = tuple[list[tuple[str, str]], list[tuple[int, int]]]


def _base_np(r: random.Random) -> Nested:
    words = _noun_phrase(r)
    return words, [(0, len(words))]


def _nested_np(r: random.Random, depth: int) -> Nested:
    """An NP nested ``depth`` levels deep: NP -> NP IN NP or NP CC NP."""
    if depth <= 1:
        return _base_np(r)
    left = _nested_np(r, depth - 1)
    joiner = _tok(r, "IN") if r.random() < 0.85 else _tok(r, "CC")
    right = _nested_np(r, r.randint(1, depth - 1))
    words = left[0] + [joiner] + right[0]
    offset = len(left[0]) + 1
    spans = left[1] + [(b + offset, e + offset) for b, e in right[1]] + [(0, len(words))]
    return words, spans


def nested_sentence(r: random.Random) -> tuple[list[tuple[str, str]], list[tuple[int, int]]]:
    """Subject, verb group, a three-deep object NP and an optional trailing PP."""
    parts: list[Nested] = [_nested_np(r, r.choice((1, 1, 2)))]
    parts.append((_verb_phrase(r), []))
    parts.append(_nested_np(r, 3 + (r.random() < 0.3)))
    if r.random() < 0.5:
        parts.append(([_tok(r, "IN")], []))
        parts.append(_nested_np(r, r.choice((1, 2, 2, 3))))
    parts.append(([_tok(r, ".")], []))
    words: list[tuple[str, str]] = []
    spans: list[tuple[int, int]] = []
    for part_words, part_spans in parts:
        spans.extend((b + len(words), e + len(words)) for b, e in part_spans)
        words.extend(part_words)
    return words, spans


def bracket_lines(words: list[tuple[str, str]], spans: list[tuple[int, int]]) -> list[str]:
    """``word pos bracket`` lines, outer brackets opened first."""
    openers = [0] * len(words)
    closers = [0] * len(words)
    for begin, end in spans:
        openers[begin] += 1
        closers[end - 1] += 1
    return [
        f"{word} {pos} {'(NP' * openers[i]}*{')' * closers[i]}"
        for i, (word, pos) in enumerate(words)
    ]


def nested_treebank(r: random.Random, tokens: int) -> list[list[str]]:
    """Nested sentences as bracket lines until ``tokens`` tokens are written."""
    sentences: list[list[str]] = []
    total = 0
    while total < tokens:
        words, spans = nested_sentence(r)
        sentences.append(bracket_lines(words, spans))
        total += len(words)
    return sentences


def words_of_nested(sentences: list[list[str]]) -> list[list[str]]:
    """The same sentences as 2 column ``word pos`` lines."""
    return [[line.rsplit(" ", 1)[0] for line in lines] for lines in sentences]


#---------------------------------------------------------------------------
# prediction tables

def _confuse(r: random.Random, tag: str) -> str:
    if tag == "O":
        return "B-NP" if r.random() < 0.7 else "B-ADVP"
    marker, label = tag.split("-", 1)
    roll = r.random()
    if roll < 0.35:
        return ("I-" if marker == "B" else "B-") + label
    if roll < 0.7:
        return f"{marker}-{r.choice([t for t in CHUNK_TYPES if t != label])}"
    return "O"


def prediction_table(r: random.Random, sentences: list[list[str]], error_rates) -> str:
    """A table with gold tags and one noisy copy of them per error rate."""
    systems = [f"s{i + 1}" for i in range(len(error_rates))]
    parts = [" ".join(["gold", "pos"] + systems) + "\n"]
    for lines in sentences:
        for line in lines:
            _, pos, gold = line.split(" ")
            preds = [_confuse(r, gold) if r.random() < rate else gold for rate in error_rates]
            parts.append(" ".join([gold, pos] + preds) + "\n")
        parts.append("\n")
    return "".join(parts)
