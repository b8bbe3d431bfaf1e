"""Bottom-up parsing of nested chunks with a flat chunker.

A flat chunker only sees one level of structure.  To recover nesting,
each round tags the current token sequence, records the chunks found,
then collapses every chunk to its head token and runs again on the
shorter sequence.  Spans found on collapsed sequences are translated
back to positions in the original sentence through a collapse map.
The same collapsing, applied to a treebank, yields one flat training
sentence per nesting level.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, Sequence

from .corpus import (
    ChunkSpan,
    Corpus,
    NestedSentence,
    Sentence,
    TagScheme,
    check_chunk_tag,
    extract_chunks,
    strip_tags,
    tags_from_chunks,
    with_tags,
)
from .errors import ConfigError, ValidationError

HEAD_CHOICES = ("last", "first")

# original-token range, one entry per token of a collapsed sentence
CollapseMap = tuple[tuple[int, int], ...]


def identity_map(length: int) -> CollapseMap:
    return tuple((i, i + 1) for i in range(length))


def original_range(mapping: CollapseMap, begin: int, end: int) -> tuple[int, int]:
    """The original tokens of collapsed positions ``begin`` to ``end - 1``:
    from the start of the first one's range to the end of the last one's.

    Applied to a span found on a collapsed sentence it gives the span's
    original offsets; applied to every range of a map over that sentence
    it composes the two maps.
    """
    if not 0 <= begin < end <= len(mapping):
        raise ValidationError(f"range ({begin}, {end}) outside collapse map")
    return mapping[begin][0], mapping[end - 1][1]


def collapse(
    sentence: Sentence,
    spans: Sequence[ChunkSpan],
    head: str = "last",
) -> tuple[Sentence, CollapseMap]:
    """Replace each chunk by its head token; other tokens pass through.

    The head keeps its word and pos, and every token loses its chunk tag.
    Spans must be disjoint.  Returns the shorter sentence and a map from
    its positions to original token ranges.
    """
    if head not in HEAD_CHOICES:
        raise ConfigError(f"head must be one of {HEAD_CHOICES}, got {head!r}")
    ordered = sorted(spans, key=attrgetter("begin"))
    for left, right in zip(ordered, ordered[1:]):
        if right.begin < left.end:
            raise ValidationError(f"cannot collapse overlapping spans {left} and {right}")
    for span in ordered:
        if span.end > len(sentence):
            raise ValidationError(f"span {span} outside sentence of length {len(sentence)}")
    mapping: list[tuple[int, int]] = []
    position = 0
    for span in ordered:
        mapping += ((i, i + 1) for i in range(position, span.begin))
        mapping.append((span.begin, span.end))
        position = span.end
    mapping += ((i, i + 1) for i in range(position, len(sentence)))
    heads = [end - 1 for _, end in mapping] if head == "last" else [begin for begin, _ in mapping]
    words = tuple(map(sentence.words.__getitem__, heads))
    pos_tags = tuple(map(sentence.pos_tags.__getitem__, heads))
    return Sentence.from_checked(words, pos_tags), tuple(mapping)


def cascade_bracket(
    sentence: Sentence,
    tagger: Callable[[Sentence], list[str]],
    max_depth: int = 5,
    head: str = "last",
) -> NestedSentence:
    """Run a flat chunker repeatedly, collapsing found chunks each round.

    ``tagger`` maps a sentence to its tag list, for a trained model
    ``functools.partial(tag_sentence, model)``.  Spans are translated to
    original token offsets and accumulated as a set.  The cascade stops
    when a round contributes no span it has not seen before, when
    everything has collapsed into a single token, or after ``max_depth``
    rounds; a chunker stuck re-deriving the same brackets therefore
    terminates after one wasted round.
    """
    if max_depth < 1:
        raise ConfigError(f"max_depth must be >= 1, got {max_depth}")
    stripped = current = strip_tags(sentence)
    mapping = identity_map(len(sentence))
    found: dict[ChunkSpan, None] = {}
    for _ in range(max_depth):
        tags = tagger(current)
        for tag in dict.fromkeys(tags):  # in token order, as with_tags checks them
            check_chunk_tag(tag)
        level_spans = extract_chunks(tags)
        if not level_spans:
            break
        translated = [ChunkSpan(*original_range(mapping, span.begin, span.end), span.label)
                      for span in level_spans]
        new = [span for span in translated if span not in found]
        for span in new:
            found[span] = None
        if not new:
            break
        current, level_map = collapse(current, level_spans, head)
        mapping = tuple([original_range(mapping, b, e) for b, e in level_map])
        if len(current) == 1:
            break
    return NestedSentence(stripped, found)


def _innermost_level(spans: Sequence[ChunkSpan]) -> list[int]:
    """Indices of the deepest spans, one per distinct range.

    ``spans`` must nest properly and be sorted by ``_span_sort_key``.  Then
    the span after a span either shares its range, lies inside it or begins
    at or after its end, so a span is taken exactly when the next one
    begins at or after its end: no other span lies strictly inside it, and
    of the spans sharing its range (a chain) it has the largest label.  The
    rest of a chain surfaces again on later levels.
    """
    return [
        i for i, span in enumerate(spans)
        if i + 1 == len(spans) or spans[i + 1].begin >= span.end
    ]


def cascade_training_corpus(
    sentences: Sequence[NestedSentence],
    head: str = "last",
) -> Corpus:
    """Flatten nested sentences into one training sentence per level.

    Level zero carries each sentence's innermost chunks; every next
    level collapses those and carries the chunks that became innermost.
    A final sentence with no chunks teaches the chunker when to stop.
    """
    flat: list[Sentence] = []
    for nested in sentences:
        current = nested.sentence
        remaining = list(nested.spans)  # sorted, and kept so: collapsing keeps span order
        mapping = identity_map(len(current))
        while remaining:
            local = local_spans(remaining, mapping)
            taken = _innermost_level(local)
            level = [local[i] for i in taken]
            tags = tags_from_chunks(len(current), level, TagScheme.IOB2)
            flat.append(with_tags(current, tags))
            drop = set(taken)
            remaining = [span for i, span in enumerate(remaining) if i not in drop]
            current, level_map = collapse(current, level, head)
            mapping = tuple([original_range(mapping, b, e) for b, e in level_map])
        flat.append(with_tags(current, ["O"] * len(current)))
    return Corpus(tuple(flat), TagScheme.IOB2)


def local_spans(spans: Sequence[ChunkSpan], mapping: CollapseMap) -> list[ChunkSpan]:
    """Express original-coordinate spans in collapsed coordinates.

    Each span's boundaries must coincide with collapsed token boundaries,
    which holds for any remaining span of a properly nested sentence.
    """
    begins = {begin: i for i, (begin, _) in enumerate(mapping)}
    ends = {end: i + 1 for i, (_, end) in enumerate(mapping)}
    local = []
    for span in spans:
        if span.begin not in begins or span.end not in ends:
            raise ValidationError(f"span {span} does not align with collapsed tokens")
        local.append(ChunkSpan(begins[span.begin], ends[span.end], span.label))
    return local
