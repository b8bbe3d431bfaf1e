"""Feature vectors for token-in-context classification.

Every token is described by a fixed window of categorical slots: words and
pos tags around the focus token plus the chunk tags already assigned to its
left neighbours.  Slot values are plain strings; positions outside the
sentence get a reserved padding value.  Relevance of a slot is measured by
information gain or its split-normalised variant, the gain ratio.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from functools import cached_property
from operator import itemgetter
from sys import intern

from .corpus import PAD, Corpus, Record, Sentence
from .errors import ConfigError, TrainingError, ValidationError


class WindowConfig(Record):
    """Which context slots a feature vector contains.

    The defaults describe the chunking window: the focus word and pos tag,
    two words and pos tags to the left, one word and pos tag to the right,
    and the chunk tags of the two previous tokens.  ``complex_pairs`` adds
    conjunctions of adjacent pos slots and of the previous chunk tag with
    the focus pos tag, joined by ``|``; featurizing rejects pos tags that
    such a conjunction would join and that contain ``|`` themselves.
    """

    _fields = ("left_words", "right_words", "left_pos", "right_pos", "left_chunk_tags",
               "use_focus_word", "use_focus_pos", "complex_pairs")

    def __init__(self, left_words: int = 2, right_words: int = 1, left_pos: int = 2,
                 right_pos: int = 1, left_chunk_tags: int = 2, use_focus_word: bool = True,
                 use_focus_pos: bool = True, complex_pairs: bool = False):
        values = (left_words, right_words, left_pos, right_pos, left_chunk_tags,
                  use_focus_word, use_focus_pos, complex_pairs)
        for name, size in zip(self._fields[:5], values):
            if size < 0:
                raise ConfigError(f"{name} must be >= 0")
        if not any(values[:7]):
            raise ConfigError("window selects no slots at all")
        self._init(*values)

    @cached_property
    def _layout(self) -> tuple[int, int, tuple[tuple[int, int], ...], tuple, tuple[str, ...]]:
        """The slot layout, computed once per config.

        The padding a sentence's word and pos columns get on the left and on
        the right; per word or pos slot, its column (0 words, 1 pos tags) and
        its first position in the padded column; one ``(i, j)`` pair per
        ``complex_pairs`` slot, indexing the slots it joins; and the slot
        names.
        """

        def run(source: str, left: int, focus: bool, right: int) -> list[tuple[str, int]]:
            return [(source, off) for off in range(-left, right + 1) if off or focus]

        plain = (
            run("w", self.left_words, self.use_focus_word, self.right_words)
            + run("p", self.left_pos, self.use_focus_pos, self.right_pos)
            + run("t", self.left_chunk_tags, False, 0)
        )
        names = [f"{source}[{off:+d}]" for source, off in plain]
        pairs = []
        if self.complex_pairs:
            pos = [i for i, (source, _) in enumerate(plain) if source == "p"]
            pairs = [(i, j) for i, j in zip(pos, pos[1:]) if plain[j][1] - plain[i][1] == 1]
            if self.left_chunk_tags >= 1 and self.use_focus_pos:
                pairs.append((names.index("t[-1]"), names.index("p[+0]")))
            names += [f"{names[i]}&{names[j]}" for i, j in pairs]
        left, right = max(self.left_words, self.left_pos), max(self.right_words, self.right_pos)
        cuts = tuple(("wp".index(source), left + off) for source, off in plain if source != "t")
        return left, right, cuts, tuple(pairs), tuple(names)

    def slot_names(self) -> tuple[str, ...]:
        return self._layout[4]


FeatureVector = tuple[str, ...]


def window_vectors(
    sentence: Sentence,
    config: WindowConfig,
    tags: Sequence[str],
    start: int = 0,
    stop: int | None = None,
) -> Iterator[FeatureVector]:
    """Feature vectors of tokens ``start`` to ``stop - 1``, in order.

    Each word or pos slot of all these tokens is one slice of the word or
    pos column, padded once per call, zipped as the vectors are made.
    Token i's chunk tag slots and pairs read ``tags[:i]`` only when its
    vector is made, so a tagger may append each decision to ``tags``
    before it asks for the next vector.
    """
    left, right, cuts, pairs, _ = config._layout
    n = len(sentence.words)
    stop = n if stop is None else stop
    size = stop - start
    first, last = max(0, start - left), min(n, stop + right)
    head, tail = [PAD] * (first - start + left), [PAD] * (stop + right - last)
    padded = ([*head, *sentence.words[first:last], *tail], [*head, *sentence.pos_tags[first:last], *tail])
    rows = zip(*[padded[c][cut:cut + size] for c, cut in cuts]) if cuts else [()] * size
    k = config.left_chunk_tags
    pads = (PAD,) * k
    for i, row in zip(range(start, stop), rows):
        vector = row + (tuple(tags[i - k:i]) if i >= k else pads[i:] + tuple(tags[:i]))
        if pairs:
            # Interned: a dataset then holds one string per distinct pair.
            joined = [intern(f"{vector[a]}|{vector[b]}") for a, b in pairs]
            # One separator per joined value, unless a part holds one too:
            # then two different contexts could give the same value.
            if "".join(joined).count("|") != len(joined):
                bad = next(vector[c] for pair in pairs for c in pair if "|" in vector[c])
                raise ValidationError(f"complex_pairs cannot join {bad!r}: it contains '|'")
            vector += tuple(joined)
        yield vector


def make_features(
    sentence: Sentence,
    index: int,
    config: WindowConfig,
    predicted_tags: Sequence[str] = (),
) -> FeatureVector:
    """Feature vector for one token.

    ``predicted_tags`` must hold the chunk tags already assigned to
    positions 0..index-1; at training time these are the gold tags, at
    tagging time the model's own previous decisions.
    """
    n = len(sentence)
    if not 0 <= index < n:
        raise ValidationError(f"token index {index} outside sentence of length {n}")
    if len(predicted_tags) != index:
        raise ValidationError(f"need {index} left chunk tags, got {len(predicted_tags)}")
    return next(window_vectors(sentence, config, predicted_tags, index, index + 1))


class Dataset(Record):
    """Labelled feature vectors with shared slot names; never empty."""

    _fields = ("items", "slot_names")

    def __init__(self, items: Iterable[tuple[FeatureVector, str]], slot_names: Iterable[str]):
        items, slot_names = tuple(items), tuple(slot_names)
        if not items:
            raise TrainingError("cannot train on an empty dataset")
        for vector, _ in items:
            if len(vector) != len(slot_names):
                raise ValidationError(
                    f"vector arity {len(vector)} does not match {len(slot_names)} slots"
                )
        self._init(items, slot_names)

    @property
    def arity(self) -> int:
        return len(self.slot_names)

    def class_counts(self) -> Counter:
        return Counter(label for _, label in self.items)


def corpus_to_dataset(corpus: Corpus, config: WindowConfig) -> Dataset:
    """Window every token of a labelled corpus.

    Left chunk tag slots are filled with the gold tags, mirroring how a
    tagger sees its own previous decisions at prediction time.
    """
    items: list[tuple[FeatureVector, str]] = []
    for si, sentence in enumerate(corpus.sentences, start=1):
        tags = sentence.chunk_tags
        if any(tag is None for tag in tags):
            raise TrainingError(f"sentence {si} has untagged tokens")
        items.extend(zip(window_vectors(sentence, config, tags), tags))  # type: ignore[arg-type]
    return Dataset(tuple(items), config.slot_names())


def _entropy(counts: Iterable[int], total: int) -> float:
    h = 0.0
    for c in counts:
        if c:
            p = c / total
            h -= p * math.log2(p)
    return h


def slot_gains(dataset: Dataset, ratio: bool) -> list[float]:
    """Information gain (in bits) of each slot, or with ``ratio`` its gain ratio.

    A slot's information gain is the reduction of class entropy from
    knowing its value.  Its gain ratio is that gain normalised by the
    entropy of the slot's values: 0 for a constant slot (whose split
    entropy is 0), at most 1 otherwise.

    Classes are counted once, and each slot's (value, class) pairs once, in
    C.  Regrouped by value in order of first occurrence, those counts are
    the same ints in the same order as a per-item tally, so every sum, and
    with it every bit of the result, is that of the per-item definition.
    """
    vectors = list(map(itemgetter(0), dataset.items))
    labels = list(map(itemgetter(1), dataset.items))
    total = len(labels)
    class_entropy = _entropy(Counter(labels).values(), total)
    gains = []
    for slot in range(dataset.arity):
        by_value: dict[str, list[int]] = {}
        for (value, _), n in Counter(zip(map(itemgetter(slot), vectors), labels)).items():
            by_value.setdefault(value, []).append(n)
        conditional = 0.0
        sizes = []
        for counts in by_value.values():
            n = sum(counts)
            conditional += (n / total) * _entropy(counts, n)
            sizes.append(n)
        gain = max(0.0, class_entropy - conditional)
        if ratio:
            split = _entropy(sizes, total)
            gain = 0.0 if split == 0.0 else min(1.0, gain / split)
        gains.append(gain)
    return gains

