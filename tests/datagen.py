"""Seeded generators for test data.

All generators take a random.Random so every test controls its own
seed; nothing here touches the global RNG.
"""

import random
import zlib

from chunkvote import (
    CombinerWeights,
    Corpus,
    NestedSentence,
    Sentence,
    TagScheme,
    Token,
    extract_chunks,
    tags_from_chunks,
    with_tags,
)

CHUNK_TYPES = ("NP", "VP", "PP")
POS_TAGS = ("DT", "NN", "JJ", "VBD", "IN", "RB")


def rng(seed):
    return random.Random(seed)


def random_spans(r, length, types=CHUNK_TYPES, density=0.5):
    """Disjoint (begin, end, label) spans over [0, length), in order."""
    spans = []
    i = 0
    while i < length:
        if r.random() < density:
            end = min(length, i + r.randint(1, 3))
            spans.append((i, end, r.choice(types)))
            i = end + (0 if r.random() < 0.5 else 1)
        else:
            i += 1
    return spans


def random_tags(r, length, types=CHUNK_TYPES, scheme=TagScheme.IOB2, density=0.5):
    return tags_from_chunks(length, random_spans(r, length, types, density), scheme)


def random_raw_tags(r, length, types=CHUNK_TYPES):
    """Arbitrary tag soup, frequently ill-formed."""
    tags = []
    for _ in range(length):
        roll = r.random()
        if roll < 0.3:
            tags.append("O")
        elif roll < 0.6:
            tags.append(f"B-{r.choice(types)}")
        else:
            tags.append(f"I-{r.choice(types)}")
    return tags


def random_sentence(r, length, types=CHUNK_TYPES, scheme=TagScheme.IOB2):
    tags = random_tags(r, length, types, scheme)
    tokens = tuple(
        Token(f"w{i}", r.choice(POS_TAGS), tag) for i, tag in enumerate(tags)
    )
    return Sentence(tokens)


def random_nested_spans(r, length, types=("NP",), max_depth=3):
    """A properly nested span family with pairwise distinct ranges."""
    used = set()
    spans = []

    def fill(begin, end, depth):
        if depth <= 0:
            return
        i = begin
        while i < end:
            if r.random() < 0.6:
                j = min(end, i + r.randint(1, max(1, end - i)))
                if (i, j) not in used:
                    used.add((i, j))
                    spans.append((i, j, r.choice(types)))
                    fill(i, j, depth - 1)
                i = j
            else:
                i += 1

    fill(0, length, max_depth)
    return spans


def random_nested_sentence(r, length, types=("NP",), max_depth=3):
    tokens = tuple(Token(f"w{i}", r.choice(POS_TAGS)) for i in range(length))
    return NestedSentence(tokens, tuple(random_nested_spans(r, length, types, max_depth)))


# A miniature grammar whose chunk structure is a deterministic function
# of the part-of-speech sequence, so every learner can fit it.
def grammar_sentence(r):
    def noun_phrase():
        shape = r.randrange(3)
        if shape == 0:
            return [("the", "DT", "B-NP"), (r.choice(("dog", "cat", "mat")), "NN", "I-NP")]
        if shape == 1:
            return [
                ("a", "DT", "B-NP"),
                (r.choice(("big", "old")), "JJ", "I-NP"),
                (r.choice(("dog", "cat")), "NN", "I-NP"),
            ]
        return [(r.choice(("rice", "snow")), "NN", "B-NP")]

    words = noun_phrase()
    words.append((r.choice(("sat", "slept")), "VBD", "B-VP"))
    if r.random() < 0.6:
        words.append(("on", "IN", "B-PP"))
        words.extend(noun_phrase())
    words.append((".", ".", "O"))
    return Sentence(tuple(Token(w, p, t) for w, p, t in words))


def grammar_corpus(r, size):
    return Corpus(tuple(grammar_sentence(r) for _ in range(size)), TagScheme.IOB2)


def split_chunk_types(corpus):
    """The corpus with each chunk type split in two by the CRC-32 of the
    chunk's first word: a chunk of type T keeps T or becomes T2.  The
    5 chunk types of the benchmark corpora give 21 classes."""
    sentences = []
    for sentence in corpus.sentences:
        spans = []
        for begin, end, label in extract_chunks(sentence.chunk_tags):
            odd = zlib.crc32(sentence.words[begin].encode()) & 1
            spans.append((begin, end, label + "2" * odd))
        sentences.append(with_tags(sentence, tags_from_chunks(len(sentence), spans, corpus.scheme)))
    return Corpus(sentences, corpus.scheme)


def random_table_data(r, n_sentences, systems, tags, noise=0.2, min_len=1, max_len=8):
    """Gold tag sequences plus per-system noisy copies.

    Returns (gold, predictions) where gold is a list of (pos, tag) row
    lists and predictions maps system name to parallel tag rows.
    """
    gold = []
    predictions = {name: [] for name in systems}
    for _ in range(n_sentences):
        length = r.randint(min_len, max_len)
        rows = [(r.choice(POS_TAGS), r.choice(tags)) for _ in range(length)]
        gold.append(rows)
        for name in systems:
            predictions[name].append(
                [tag if r.random() >= noise else r.choice(tags) for _, tag in rows]
            )
    return gold, predictions


def random_weights(r, systems, tags):
    """A fully populated weight table with random but well-formed rates.

    Roughly half the tag pairs get no distribution, so the pairwise
    voting backoff is exercised too.
    """
    pair_prob = {}
    for i, a in enumerate(systems):
        for b in systems[i + 1:]:
            for tag_a in tags:
                for tag_b in tags:
                    if r.random() < 0.4:
                        continue
                    support = r.sample(tags, r.randint(1, len(tags)))
                    raw = {t: r.random() + 0.01 for t in support}
                    z = sum(raw.values())
                    pair_prob[(a, b, tag_a, tag_b)] = {t: v / z for t, v in raw.items()}
    return CombinerWeights(
        systems=tuple(systems),
        accuracy={s: r.random() for s in systems},
        tag_precision={(s, t): r.random() for s in systems for t in tags},
        tag_recall={(s, t): r.random() for s in systems for t in tags},
        pair_prob=pair_prob,
        tag_counts={t: r.randint(0, 50) for t in tags},
    )


def mutate(r, text, values):
    """One random edit of a line based file.  Half the edits replace one
    field by one of ``values``, chosen as values that readers often
    mishandle; the rest delete, double or swap a line, or delete a field
    or copy one from elsewhere."""
    lines = [line.split() for line in text.splitlines()]
    at = r.randrange(len(lines))
    line = lines[at]
    edit = r.randrange(10)
    if edit == 0:
        del lines[at]
    elif edit == 1:
        lines.insert(at, list(line))
    elif edit == 2:
        other = r.randrange(len(lines))
        lines[at], lines[other] = lines[other], line
    elif line and edit == 3:
        del line[r.randrange(len(line))]
    elif line and edit == 4:
        donor = r.choice([fields for fields in lines if fields])
        line[r.randrange(len(line))] = r.choice(donor)
    elif line:
        line[r.randrange(len(line))] = r.choice(values)
    return "\n".join(" ".join(fields) for fields in lines) + "\n"
