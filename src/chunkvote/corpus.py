"""Data model and column file formats for chunking and bracketing corpora.

Two newline delimited, UTF-8 file formats are supported, with a blank line
closing every sentence:

* chunk files, one token per line with columns ``word pos`` (2 columns) or
  ``word pos chunk_tag`` (3 columns), chunk tags following an IOB scheme
  such as ``B-NP``, ``I-NP`` or ``O``;
* nested bracket files, one token per line with columns ``word pos bracket``
  where the bracket field concatenates zero or more openers like ``(NP``,
  one mandatory ``*``, and zero or more ``)`` closers, e.g. ``(NP(NP*``
  or ``*))``.

Columns are split on any run of spaces or tabs when reading and joined with
a single space when writing, so reading a file and writing it back is byte
exact for single-space files.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Sequence

from .errors import ParseError, ValidationError

# Reserved word used when no real surface form is available, e.g. in corpora
# rebuilt from prediction tables.  Alignment checks accept it as a wildcard.
PLACEHOLDER_WORD = "_"

# Reserved feature value for window positions outside the sentence
# (``chunkvote.features``).  Tokens may not use it as a word or pos tag.
PAD = "__PAD__"

_TAG_RE = re.compile(r"O|[BI]-(?!O\Z)[A-Za-z0-9]+")
_FIELD_RE = re.compile(r"\S+")
_BRACKET_RE = re.compile(r"((?:\([A-Za-z0-9]+)*)\*(\)*)")


class TagScheme(str, Enum):
    """IOB tagging conventions.

    Under IOB2 every chunk opens with a B tag.  Under IOB1 a B tag is used
    only to separate two adjacent chunks of the same type; every other
    chunk opens with an I tag.
    """

    IOB1 = "iob1"
    IOB2 = "iob2"


def tag_parts(tag: str) -> tuple[str, str | None]:
    """Split an IOB tag into marker and chunk type: 'B-NP' -> ('B', 'NP')."""
    if tag == "O":
        return "O", None
    return tag[0], tag[2:]


@dataclass(frozen=True, slots=True)
class Token:
    word: str
    pos: str
    chunk_tag: str | None = None

    def __post_init__(self):
        if not self.word or not _FIELD_RE.fullmatch(self.word):
            raise ValidationError(f"bad word {self.word!r}: must be non-empty without whitespace")
        if not self.pos or not _FIELD_RE.fullmatch(self.pos):
            raise ValidationError(f"bad pos tag {self.pos!r}: must be non-empty without whitespace")
        if PAD in (self.word, self.pos):
            raise ValidationError(f"{PAD} is reserved for padding and cannot be a word or pos tag")
        if self.chunk_tag is not None:
            check_chunk_tag(self.chunk_tag)


def check_chunk_tag(tag: str) -> None:
    """Raise ValidationError unless ``tag`` is O, B-TYPE or I-TYPE with a TYPE other than O."""
    if not _TAG_RE.fullmatch(tag):
        raise ValidationError(
            f"bad chunk tag {tag!r}: expected O, B-TYPE or I-TYPE; chunk type O is reserved"
        )


@dataclass(frozen=True, slots=True)
class Sentence:
    tokens: tuple[Token, ...]

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(self.tokens))
        if not self.tokens:
            raise ValidationError("a sentence must contain at least one token")

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def words(self) -> tuple[str, ...]:
        return tuple(t.word for t in self.tokens)

    @property
    def pos_tags(self) -> tuple[str, ...]:
        return tuple(t.pos for t in self.tokens)

    @property
    def chunk_tags(self) -> tuple[str | None, ...]:
        return tuple(t.chunk_tag for t in self.tokens)


def strip_tags(sentence: Sentence) -> Sentence:
    """Return the sentence without chunk tags, reusing its untagged tokens."""
    return Sentence(tuple(t if t.chunk_tag is None else Token(t.word, t.pos) for t in sentence.tokens))


def with_tags(sentence: Sentence, tags: Sequence[str]) -> Sentence:
    """Return the sentence with its chunk tags replaced."""
    if len(tags) != len(sentence):
        raise ValidationError(f"{len(tags)} tags for {len(sentence)} tokens")
    return Sentence(tuple(Token(t.word, t.pos, tag) for t, tag in zip(sentence.tokens, tags)))


@dataclass(frozen=True, slots=True)
class Corpus:
    sentences: tuple[Sentence, ...]
    scheme: TagScheme

    def __post_init__(self):
        object.__setattr__(self, "sentences", tuple(self.sentences))

    def __len__(self) -> int:
        return len(self.sentences)


@dataclass(frozen=True, slots=True)
class ChunkSpan:
    """Half-open token span [begin, end) carrying a chunk type label."""

    begin: int
    end: int
    label: str

    def __post_init__(self):
        if self.begin < 0 or self.end <= self.begin:
            raise ValidationError(f"bad span [{self.begin}, {self.end})")
        if not self.label:
            raise ValidationError("span label must be non-empty")


def _span_sort_key(span: ChunkSpan) -> tuple[int, int, str]:
    # outermost first among spans opening at the same token
    return (span.begin, -span.end, span.label)


def properly_nested(spans: Iterable[ChunkSpan]) -> bool:
    """True when every pair of spans is disjoint or fully contained.

    One pass, outermost first, over a stack of the ends of the spans that
    enclose the current one: a span crosses another exactly when it ends
    after the innermost span still open at its begin.
    """
    ends: list[int] = []
    for span in sorted(spans, key=_span_sort_key):
        while ends and ends[-1] <= span.begin:
            ends.pop()
        if ends and span.end > ends[-1]:
            return False
        ends.append(span.end)
    return True


@dataclass(frozen=True, slots=True)
class NestedSentence:
    """A sentence with a multiset of nested (never crossing) chunk spans."""

    tokens: tuple[Token, ...]
    spans: tuple[ChunkSpan, ...]

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(self.tokens))
        object.__setattr__(self, "spans", tuple(sorted(self.spans, key=_span_sort_key)))
        if not self.tokens:
            raise ValidationError("a sentence must contain at least one token")
        for t in self.tokens:
            if t.chunk_tag is not None:
                raise ValidationError("nested sentences carry spans, not chunk tags")
        for s in self.spans:
            if s.end > len(self.tokens):
                raise ValidationError(f"span [{s.begin}, {s.end}) exceeds sentence length {len(self.tokens)}")
        if not properly_nested(self.spans):
            raise ValidationError("spans cross: every pair must be disjoint or nested")

    def __len__(self) -> int:
        return len(self.tokens)

    def to_sentence(self) -> Sentence:
        return Sentence(self.tokens)


#---------------------------------------------------------------------------
# tag sequence operations

def scheme_violation(tags: Sequence[str], scheme: TagScheme) -> int | None:
    """Index of the first tag that is illegal under the scheme, or None."""
    prev_marker, prev_label = "O", None
    for i, tag in enumerate(tags):
        marker, label = tag_parts(tag)
        inside_same = prev_marker in ("B", "I") and prev_label == label
        if scheme is TagScheme.IOB2 and marker == "I" and not inside_same:
            return i
        if scheme is TagScheme.IOB1 and marker == "B" and not inside_same:
            return i
        prev_marker, prev_label = marker, label
    return None


def validate_corpus(corpus: Corpus) -> None:
    """Raise ValidationError if any sentence is illegal under the corpus scheme."""
    for si, sentence in enumerate(corpus.sentences, start=1):
        tags = sentence.chunk_tags
        if any(tag is None for tag in tags):
            continue
        ti = scheme_violation(tags, corpus.scheme)  # type: ignore[arg-type]
        if ti is not None:
            raise ValidationError(
                f"sentence {si}, token {ti + 1}: tag {tags[ti]!r} is illegal under {corpus.scheme.value}"
            )


def extract_chunks(tags: Sequence[str]) -> list[ChunkSpan]:
    """Chunk spans encoded by a tag sequence, repairing illegal openings.

    A chunk-initial I tag (after O, after a different type, or at the
    sentence start) is treated as if it were a B tag, which matches the
    lenient behaviour expected when scoring raw system output.  The scan
    gives identical spans for IOB1 and IOB2 input.
    """
    spans: list[ChunkSpan] = []
    open_label: str | None = None
    open_begin = 0
    for i, tag in enumerate(tags):
        marker, label = tag_parts(tag)
        if open_label is not None and (marker != "I" or label != open_label):
            spans.append(ChunkSpan(open_begin, i, open_label))
            open_label = None
        if marker == "B" or (marker == "I" and open_label is None):
            open_label, open_begin = label, i
    if open_label is not None:
        spans.append(ChunkSpan(open_begin, len(tags), open_label))
    return spans


def tags_from_chunks(length: int, spans: Iterable[ChunkSpan], scheme: TagScheme) -> list[str]:
    """Encode non-overlapping spans as a tag sequence under the scheme."""
    ordered = sorted(spans, key=lambda s: s.begin)
    tags = ["O"] * length
    prev: ChunkSpan | None = None
    for span in ordered:
        if span.end > length:
            raise ValidationError(f"span [{span.begin}, {span.end}) exceeds sentence length {length}")
        if prev is not None and span.begin < prev.end:
            raise ValidationError(f"spans [{prev.begin}, {prev.end}) and [{span.begin}, {span.end}) overlap")
        adjacent_same = prev is not None and prev.end == span.begin and prev.label == span.label
        if scheme is TagScheme.IOB2 or adjacent_same:
            tags[span.begin] = f"B-{span.label}"
        else:
            tags[span.begin] = f"I-{span.label}"
        for i in range(span.begin + 1, span.end):
            tags[i] = f"I-{span.label}"
        prev = span
    return tags


def convert_scheme(tags: Sequence[str], from_scheme: TagScheme, to_scheme: TagScheme) -> list[str]:
    """Re-encode a valid tag sequence under another scheme.

    The chunk segmentation is preserved exactly; only the way chunk
    openings are marked changes.
    """
    i = scheme_violation(tags, from_scheme)
    if i is not None:
        raise ValidationError(f"token {i + 1}: tag {tags[i]!r} is illegal under {from_scheme.value}")
    if from_scheme is to_scheme:
        return list(tags)
    return tags_from_chunks(len(tags), extract_chunks(tags), to_scheme)


#---------------------------------------------------------------------------
# column files

def column_blocks(source) -> Iterator[Iterator[tuple[int, list[str]]]]:
    """Yield each sentence of a column file as its (line number, fields) pairs.

    ``source`` is a string or an iterable of lines.  Fields are split on
    any whitespace, so a line of only spaces or tabs closes a sentence like
    an empty one, and line ends need no stripping.  Equal fields within one
    call are one string object; corpora repeat words and tags heavily.
    """
    lines = source.splitlines() if isinstance(source, str) else source
    share = {}.setdefault
    block: list[list[str]] = []
    for lineno, fields in enumerate(map(str.split, lines), start=1):
        if fields:
            block.append(list(map(share, fields, fields)))
        elif block:  # a sentence's lines are consecutive, so its first is known
            yield enumerate(block, lineno - len(block))
            block = []
    if block:
        yield enumerate(block, lineno + 1 - len(block))


def parse_conll(source, scheme: TagScheme, columns: int = 3, strict: bool = True) -> Corpus:
    """Read a 2 or 3 column chunk file into a Corpus.

    ``source`` is a string or an iterable of lines.  With ``strict`` the
    tag sequences must be legal under ``scheme``; raw system output can be
    read with ``strict=False`` and repaired later by ``extract_chunks``.
    """
    if columns not in (2, 3):
        raise ValidationError(f"columns must be 2 or 3, got {columns}")
    sentences: list[Sentence] = []
    for block in column_blocks(source):
        tokens: list[Token] = []
        for lineno, fields in block:
            if len(fields) != columns:
                raise ParseError(f"line {lineno}: expected {columns} columns, got {len(fields)}")
            try:
                tokens.append(Token(*fields))
            except ValidationError as exc:
                raise ValidationError(
                    f"sentence {len(sentences) + 1}, token {len(tokens) + 1} (line {lineno}): {exc}"
                ) from None
        sentences.append(Sentence(tuple(tokens)))
    corpus = Corpus(tuple(sentences), scheme)
    if strict and columns == 3:
        validate_corpus(corpus)
    return corpus


def write_conll(corpus: Corpus) -> str:
    """Render a corpus in column format, one blank line after each sentence."""
    parts: list[str] = []
    for sentence in corpus.sentences:
        for t in sentence.tokens:
            if t.chunk_tag is None:
                parts.append(f"{t.word} {t.pos}\n")
            else:
                parts.append(f"{t.word} {t.pos} {t.chunk_tag}\n")
        parts.append("\n")
    return "".join(parts)


#---------------------------------------------------------------------------
# nested bracket files

def parse_nested(source) -> list[NestedSentence]:
    """Read a nested 3 column bracket file.

    Brackets may nest but never cross; unbalanced brackets raise a
    ParseError naming the sentence.
    """
    sentences: list[NestedSentence] = []
    for block in column_blocks(source):
        tokens: list[Token] = []
        spans: list[ChunkSpan] = []
        stack: list[tuple[str, int]] = []
        for lineno, fields in block:
            if len(fields) != 3:
                raise ParseError(f"line {lineno}: expected 3 columns, got {len(fields)}")
            word, pos, bracket = fields
            match = _BRACKET_RE.fullmatch(bracket)
            if match is None:
                raise ParseError(f"line {lineno}: bad bracket field {bracket!r}")
            openers, closers = match.groups()
            index = len(tokens)
            for label in openers.split("(")[1:]:
                stack.append((label, index))
            try:
                tokens.append(Token(word, pos))
            except ValidationError as exc:
                raise ValidationError(f"line {lineno}: {exc}") from None
            for _ in closers:
                if not stack:
                    raise ParseError(f"sentence {len(sentences) + 1} (line {lineno}): unmatched closer")
                label, begin = stack.pop()
                spans.append(ChunkSpan(begin, index + 1, label))
        if stack:
            raise ParseError(
                f"sentence {len(sentences) + 1} (line {lineno}): {len(stack)} unclosed bracket(s)"
            )
        sentences.append(NestedSentence(tuple(tokens), tuple(spans)))
    return sentences


def write_nested(sentences: Iterable[NestedSentence]) -> str:
    """Render nested sentences in the 3 column bracket format."""
    parts: list[str] = []
    for sentence in sentences:
        openers: list[list[str]] = [[] for _ in sentence.tokens]
        closers = [0] * len(sentence.tokens)
        for span in sorted(sentence.spans, key=_span_sort_key):
            openers[span.begin].append(span.label)
            closers[span.end - 1] += 1
        for i, token in enumerate(sentence.tokens):
            bracket = "".join(f"({label}" for label in openers[i]) + "*" + ")" * closers[i]
            parts.append(f"{token.word} {token.pos} {bracket}\n")
        parts.append("\n")
    return "".join(parts)
