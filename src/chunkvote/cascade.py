"""Bottom-up parsing of nested chunks with a flat chunker.

A flat chunker only sees one level of structure.  To recover nesting,
each round tags the current token sequence, records the chunks found,
then collapses every chunk to its head token and runs again on the
shorter sequence.  Each position of a collapsed sequence keeps the
range of original tokens it stands for, through which the spans found
on it are translated back to positions in the original sentence.
The same collapsing, applied to a treebank, yields one flat training
sentence per nesting level.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Callable, Sequence

from .corpus import (
    Corpus,
    NestedSentence,
    Sentence,
    Span,
    TagScheme,
    check_tag_row,
    extract_chunks,
    span_order,
    strip_tags,
    tags_from_chunks,
    with_tags,
)
from .errors import ConfigError, ValidationError

HEAD_CHOICES = ("last", "first")


def _check_max_depth(max_depth: int) -> None:
    if max_depth < 1:
        raise ConfigError(f"max_depth must be >= 1, got {max_depth}")


def _check_head(head: str) -> None:
    if head not in HEAD_CHOICES:
        raise ConfigError(f"head must be one of {HEAD_CHOICES}, got {head!r}")


def _collapse(
    original: Sentence,
    firsts: list[int],
    lasts: list[int],
    spans: Sequence[tuple[int, int, str]],
    head: str,
) -> tuple[list[int], list[int], Sentence]:
    """Replace each chunk of the current sentence by its head token.

    Position ``i`` of the current sentence covers original tokens
    ``firsts[i]`` to ``lasts[i]`` and shows the first or the last of them,
    as ``head`` says.  ``spans``, (begin, end, label) in current positions,
    must be ordered and disjoint, as ``extract_chunks`` and
    ``_innermost_level`` give them.  A span's positions become one covering
    their tokens; other positions pass through.  Returns the next
    sentence's ranges and the sentence, untagged.
    """
    next_firsts: list[int] = []
    next_lasts: list[int] = []
    position = 0
    for begin, end, _ in spans:
        next_firsts += firsts[position:begin + 1]
        next_lasts += lasts[position:begin]
        next_lasts.append(lasts[end - 1])
        position = end
    next_firsts += firsts[position:]
    next_lasts += lasts[position:]
    heads = next_firsts if head == "first" else next_lasts
    words, pos_tags = original.words, original.pos_tags  # a list's tuple is made at its size
    return next_firsts, next_lasts, Sentence.from_checked(
        tuple([words[i] for i in heads]), tuple([pos_tags[i] for i in heads]))


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
    _check_max_depth(max_depth)
    _check_head(head)
    stripped = current = strip_tags(sentence)
    firsts = lasts = list(range(len(stripped)))  # _collapse makes new lists
    found = set()  # spans as (begin, end, label)
    for _ in range(max_depth):
        tags = tagger(current)
        check_tag_row(tags, len(current))
        if None in tags:
            raise ValidationError(f"token {tags.index(None) + 1}: None is not a chunk tag")
        level = extract_chunks(tags)
        seen = len(found)
        found.update((firsts[begin], lasts[end - 1] + 1, label) for begin, end, label in level)
        if len(found) == seen:
            break
        firsts, lasts, current = _collapse(stripped, firsts, lasts, level, head)
        if len(current) == 1:
            break
    # A round's spans cover whole positions, each one token or the range of
    # an earlier span, so every span found nests and lies in the sentence.
    return NestedSentence.from_checked(stripped, tuple(sorted(map(Span._make, found), key=span_order)))


def _innermost_level(spans: Sequence[tuple[int, int, str]]) -> list[int]:
    """Indices of the deepest spans, one per distinct range.

    ``spans`` must nest properly and be sorted by ``span_order``.  Then
    the span after a span either shares its range, lies inside it or begins
    at or after its end, so a span is taken exactly when the next one
    begins at or after its end: no other span lies strictly inside it, and
    of the spans sharing its range (a chain) it has the largest label.  The
    rest of a chain surfaces again on later levels.
    """
    return [
        i for i, (_, end, _) in enumerate(spans)
        if i + 1 == len(spans) or spans[i + 1][0] >= end
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
    _check_head(head)
    flat: list[Sentence] = []
    for nested in sentences:
        current = nested.sentence
        firsts = lasts = list(range(len(current)))  # _collapse makes new lists
        remaining = list(nested.spans)  # sorted, and kept so
        while remaining:
            # The remaining spans align with the current positions, so the
            # innermost ones are found on their original offsets.
            taken = _innermost_level(remaining)
            level = []
            for i in taken:
                begin, end, label = remaining[i]
                at = bisect_left(firsts, begin)
                level.append((at, bisect_left(firsts, end, at), label))
            tags = tags_from_chunks(len(current), level, TagScheme.IOB2)
            flat.append(with_tags(current, tags))
            drop = set(taken)
            remaining = [span for i, span in enumerate(remaining) if i not in drop]
            firsts, lasts, current = _collapse(nested.sentence, firsts, lasts, level, head)
        flat.append(with_tags(current, ["O"] * len(current)))
    return Corpus(tuple(flat), TagScheme.IOB2)

