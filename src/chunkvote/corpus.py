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
from collections import namedtuple
from collections.abc import Iterable, Iterator, Mapping, Sequence
from enum import Enum
from functools import partial
from itertools import chain, groupby
from operator import attrgetter, itemgetter

from .errors import ConfigError, ParseError, ValidationError

# Reserved word used when no real surface form is available, e.g. in corpora
# rebuilt from prediction tables.  Alignment checks accept it as a wildcard.
PLACEHOLDER_WORD = "_"

# Reserved feature value for window positions outside the sentence
# (``chunkvote.features``).  Tokens may not use it as a word or pos tag.
PAD = "__PAD__"

_TAG_RE = re.compile(r"O|[BI]-(?!O\Z)[A-Za-z0-9]+")
_FIELD_RE = re.compile(r"\S+")
_BRACKET_RE = re.compile(r"((?:\((?!O[(*])[A-Za-z0-9]+)*)\*(\)*)")  # chunk type O is reserved
_set = object.__setattr__  # records are frozen; their constructors fill them


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


class Record:
    """A frozen record: assigning or deleting an attribute raises
    AttributeError, and ``==``, ``hash`` and ``repr`` go over the fields
    ``_fields`` names, in order.  Only records of one class compare equal.

    Constructors fill their fields with ``_set`` or ``_init``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._values = attrgetter(*cls._fields)

    def _init(self, *values):
        for name, value in zip(self._fields, values):
            _set(self, name, value)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Token(Record):
    __slots__ = _fields = ("word", "pos", "chunk_tag")

    def __init__(self, word: str, pos: str, chunk_tag: str | None = None):
        _check_field(word, "word")
        check_pos_tag(pos)
        if chunk_tag is not None:
            check_chunk_tag(chunk_tag)
        self._init(word, pos, chunk_tag)


def _check_field(value: str, what: str) -> None:
    if not _FIELD_RE.fullmatch(value):
        raise ValidationError(f"bad {what} {value!r}: must be non-empty without whitespace")
    if value == PAD:
        raise ValidationError(f"{PAD} is reserved for padding and cannot be a word or pos tag")


# Token's pos tag check; prediction tables run it on their pos column.
check_pos_tag = partial(_check_field, what="pos tag")


def check_chunk_tag(tag: str) -> None:
    """Raise ValidationError unless ``tag`` is O, B-TYPE or I-TYPE with a TYPE other than O."""
    if not _TAG_RE.fullmatch(tag):
        raise ValidationError(
            f"bad chunk tag {tag!r}: expected O, B-TYPE or I-TYPE; chunk type O is reserved"
        )


def check_system_name(name: str) -> None:
    """Raise ConfigError unless ``name`` is non-empty, printable and has no whitespace."""
    if not name or not name.isprintable() or " " in name:
        raise ConfigError(f"bad system name {name!r}")


def pick_best(scores: Mapping[str, float], frequencies: Mapping[str, int] | None = None) -> str:
    """Candidate with the highest score.

    Ties prefer the candidate more frequent in ``frequencies`` (typically
    training class counts), then the alphabetically smaller one.
    """
    if not scores:
        raise ValidationError("no candidates to choose from")
    freq = frequencies or {}
    return min(scores, key=lambda c: (-scores[c], -freq.get(c, 0), c))


# The strings that passed ``_TAG_RE``, and None for no tag.  A tag's
# validity depends on the string alone, so one memo serves every read.
_VALID_TAGS: set[str | None] = {None}


def columns_pass(words: Sequence[str], pos_tags: Sequence[str], *tag_columns: Sequence[str]) -> bool:
    """True when Token's checks pass every word, pos tag and chunk tag of
    columns whose fields ``str.split`` made.  Such a field is non-empty
    and holds no whitespace, so a word or pos tag fails only by being
    ``PAD``."""
    if PAD in words or PAD in pos_tags:
        return False
    for tags in tag_columns:
        if not _VALID_TAGS.issuperset(tags):
            new = set(tags).difference(_VALID_TAGS)
            if not all(map(_TAG_RE.fullmatch, new)):
                return False
            _VALID_TAGS.update(new)
    return True


class Sentence(Record):
    """A sentence held as one tuple per token field; ``chunk_tags`` holds
    None for an untagged token.  ``tokens`` is built on first use."""

    _fields = ("words", "pos_tags", "chunk_tags")
    __slots__ = (*_fields, "_tokens")

    def __init__(self, tokens: Iterable[Token]):
        tokens = tuple(tokens)
        words, pos_tags = tuple(t.word for t in tokens), tuple(t.pos for t in tokens)
        self._fill(words, pos_tags, tuple(t.chunk_tag for t in tokens), tokens)

    @classmethod
    def from_checked(cls, words: tuple[str, ...], pos_tags: tuple[str, ...], chunk_tags=None) -> Sentence:
        """A sentence of column tuples of one length whose values pass
        Token's checks: split fields that ``columns_pass`` passed, or values
        taken from checked records; no ``chunk_tags``: untagged."""
        return object.__new__(cls)._fill(words, pos_tags, chunk_tags or (None,) * len(words), None)

    def _fill(self, words, pos_tags, chunk_tags, tokens) -> Sentence:
        if not words:
            raise ValidationError("a sentence must contain at least one token")
        _set(self, "words", words)
        _set(self, "pos_tags", pos_tags)
        _set(self, "chunk_tags", chunk_tags)
        _set(self, "_tokens", tokens)
        return self

    @property
    def tokens(self) -> tuple[Token, ...]:
        if self._tokens is None:
            _set(self, "_tokens", tuple(map(Token, self.words, self.pos_tags, self.chunk_tags)))
        return self._tokens

    def __len__(self) -> int:
        return len(self.words)


def strip_tags(sentence: Sentence) -> Sentence:
    """Return the sentence without chunk tags."""
    return Sentence.from_checked(sentence.words, sentence.pos_tags)


def check_tag_row(tags: Sequence[str | None], length: int) -> None:
    """Raise ValidationError unless ``tags`` holds ``length`` chunk tags or Nones."""
    if len(tags) != length:
        raise ValidationError(f"{len(tags)} tags for {length} tokens")
    if not _VALID_TAGS.issuperset(tags):
        for tag in dict.fromkeys(tags):  # in token order, so the first bad tag is the first bad token's
            if tag not in _VALID_TAGS:
                check_chunk_tag(tag)
                _VALID_TAGS.add(tag)


def with_tags(sentence: Sentence, tags: Sequence[str]) -> Sentence:
    """Return the sentence with its chunk tags replaced."""
    check_tag_row(tags, len(sentence))
    return Sentence.from_checked(sentence.words, sentence.pos_tags, tuple(tags))


class Corpus(Record):
    __slots__ = _fields = ("sentences", "scheme")

    def __init__(self, sentences: Iterable[Sentence], scheme: TagScheme):
        self._init(tuple(sentences), scheme)

    def __len__(self) -> int:
        return len(self.sentences)


# A chunk span is a (begin, end, label) tuple: the half-open token range
# [begin, end) and its chunk type.  A NestedSentence keeps its spans as Span
# tuples, whose fields can also be read by name; they compare and hash as
# the plain tuples.
Span = namedtuple("Span", "begin end label")


def _check_span(begin: int, end: int, label: str, length: int) -> None:
    if begin < 0 or end <= begin:
        raise ValidationError(f"bad span [{begin}, {end})")
    if not label:
        raise ValidationError("span label must be non-empty")
    if end > length:
        raise ValidationError(f"span [{begin}, {end}) exceeds sentence length {length}")


def span_order(span: tuple[int, int, str]) -> tuple[int, int, str]:
    """Sort key of nested spans: by begin, outermost first among spans
    opening at the same token."""
    begin, end, label = span
    return (begin, -end, label)


def properly_nested(spans: Iterable[tuple[int, int, str]]) -> bool:
    """True when every pair of spans is disjoint or fully contained.

    One pass in ``span_order`` order, outermost first, over a stack of
    the ends of the spans that enclose the current one: a span crosses
    another exactly when it ends after the innermost span still open at
    its begin.
    """
    ends: list[int] = []
    for begin, end, _ in sorted(spans, key=span_order):
        while ends and ends[-1] <= begin:
            ends.pop()
        if ends and end > ends[-1]:
            return False
        ends.append(end)
    return True


class NestedSentence(Record):
    """An untagged sentence with a multiset of nested (never crossing) chunk
    spans, ``Span`` tuples kept in ``span_order`` order.  Its Token records
    may stand for ``sentence``."""

    __slots__ = _fields = ("sentence", "spans")

    def __init__(self, sentence: Sentence | Iterable[Token], spans: Iterable[tuple[int, int, str]]):
        if not isinstance(sentence, Sentence):
            sentence = Sentence(sentence)
        if any(sentence.chunk_tags):
            raise ValidationError("nested sentences carry spans, not chunk tags")
        spans = tuple(sorted(map(Span._make, spans), key=span_order))
        for begin, end, label in spans:
            _check_span(begin, end, label, len(sentence))
        if not properly_nested(spans):
            raise ValidationError("spans cross: every pair must be disjoint or nested")
        self._init(sentence, spans)

    @classmethod
    def from_checked(cls, sentence: Sentence, spans: tuple[Span, ...]) -> NestedSentence:
        """An untagged ``sentence`` and Spans nested in it, in ``span_order`` order."""
        return object.__new__(cls)._init(sentence, spans)

    words = property(lambda self: self.sentence.words)
    pos_tags = property(lambda self: self.sentence.pos_tags)

    def __len__(self) -> int:
        return len(self.sentence)


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
    legal: set[tuple[str, str]] = set()  # the (previous tag, tag) pairs of legal sentences
    for si, sentence in enumerate(corpus.sentences, start=1):
        tags = sentence.chunk_tags
        # a tag's legality depends only on the tag before it, O at the start
        if None in tags or legal.issuperset(zip(("O", *tags), tags)):
            continue
        ti = scheme_violation(tags, corpus.scheme)  # type: ignore[arg-type]
        if ti is not None:
            raise ValidationError(
                f"sentence {si}, token {ti + 1}: tag {tags[ti]!r} is illegal under {corpus.scheme.value}"
            )
        legal.update(zip(("O", *tags), tags))


def extract_chunks(tags: Sequence[str]) -> list[tuple[int, int, str]]:
    """Chunk spans encoded by a tag sequence, as (begin, end, label) tuples
    in order, repairing illegal openings.

    A chunk-initial I tag (after O, after a different type, or at the
    sentence start) is treated as if it were a B tag, which matches the
    lenient behaviour expected when scoring raw system output.  The scan
    gives identical spans for IOB1 and IOB2 input.
    """
    spans: list[tuple[int, int, str]] = []
    open_label: str | None = None
    open_begin = 0
    for i, tag in enumerate(tags):
        marker, label = tag[0], tag[2:]  # tag_parts inlined; O is never opened
        if open_label is not None and (marker != "I" or label != open_label):
            spans.append((open_begin, i, open_label))
            open_label = None
        if marker == "B" or (marker == "I" and open_label is None):
            open_label, open_begin = label, i
    if open_label is not None:
        spans.append((open_begin, len(tags), open_label))
    return spans


def tags_from_chunks(length: int, spans: Iterable[tuple[int, int, str]], scheme: TagScheme) -> list[str]:
    """Encode non-overlapping (begin, end, label) spans as a tag sequence under the scheme."""
    tags = ["O"] * length
    prev_begin, prev_end, prev_label = 0, 0, None
    for begin, end, label in sorted(spans, key=itemgetter(0)):
        _check_span(begin, end, label, length)
        if begin < prev_end:
            raise ValidationError(f"spans [{prev_begin}, {prev_end}) and [{begin}, {end}) overlap")
        adjacent_same = prev_end == begin and prev_label == label
        if scheme is TagScheme.IOB2 or adjacent_same:
            tags[begin] = f"B-{label}"
        else:
            tags[begin] = f"I-{label}"
        for i in range(begin + 1, end):
            tags[i] = f"I-{label}"
        prev_begin, prev_end, prev_label = begin, end, label
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

LINE_PIECE = 1 << 16  # characters ``text_lines`` splits at a time, at least


def text_lines(text: str) -> Iterator[str]:
    """The lines of ``text`` exactly as ``text.splitlines()`` gives them,
    split one piece of about ``LINE_PIECE`` characters at a time, so that
    a reader never holds a whole file's lines.

    Each piece ends just after a ``\\n``, which ends a line whatever
    precedes it (``\\r\\n`` stays whole), or at the end of the text.
    """
    cuts = [0]
    while cuts[-1] < len(text):
        cuts.append(text.find("\n", cuts[-1] + LINE_PIECE) + 1 or len(text))
    return chain.from_iterable(map(str.splitlines, map(text.__getitem__, map(slice, cuts, cuts[1:]))))


def column_blocks(text: str) -> Iterator[tuple[int, list[list[str]]]]:
    """Yield each sentence of a column file as its first line number and
    the fields of its lines.

    Fields are split on any whitespace, so a line of only spaces or tabs
    closes a sentence like an empty one, and line ends need no stripping.
    """
    lineno = 1
    for filled, lines in groupby(map(str.split, text_lines(text)), bool):
        rows = list(lines)
        if filled:
            yield lineno, rows
        lineno += len(rows)


def pooled_columns(rows: list[list[str]], width: int, share) -> tuple[tuple[str, ...], ...]:
    """The columns of ``rows``, each field through the ``setdefault`` of a
    read's pool, ``share``, or () unless every row has ``width`` fields."""
    if set(map(len, rows)) != {width}:
        return ()
    return tuple(tuple(map(share, column, column)) for column in zip(*rows))


def parse_conll(text: str, scheme: TagScheme, columns: int = 3, strict: bool = True) -> Corpus:
    """Read the text of a 2 or 3 column chunk file into a Corpus.

    With ``strict`` the tag sequences must be legal under ``scheme``; raw
    system output can be read with ``strict=False`` and repaired later by
    ``extract_chunks``.
    """
    if columns not in (2, 3):
        raise ValidationError(f"columns must be 2 or 3, got {columns}")
    sentences: list[Sentence] = []
    share = {}.setdefault
    for first, rows in column_blocks(text):
        fields = pooled_columns(rows, columns, share)
        if not fields or not columns_pass(*fields):
            for i, line in enumerate(rows):  # the first fault, as a token by token read meets it
                if len(line) != columns:
                    raise ParseError(f"line {first + i}: expected {columns} columns, got {len(line)}")
                try:
                    Token(*line)
                except ValidationError as exc:
                    where = f"sentence {len(sentences) + 1}, token {i + 1} (line {first + i})"
                    raise ValidationError(f"{where}: {exc}") from None
        sentences.append(Sentence.from_checked(*fields))
    corpus = Corpus(tuple(sentences), scheme)
    if strict and columns == 3:
        validate_corpus(corpus)
    return corpus


def conll_text(sentence: Sentence) -> str:
    """One sentence in column format, closed by a blank line."""
    rows = zip(sentence.words, sentence.pos_tags, sentence.chunk_tags)
    if None in sentence.chunk_tags:
        rows = (row[:2] if row[2] is None else row for row in rows)
    return "\n".join(map(" ".join, rows)) + "\n\n"


def write_conll(corpus: Corpus) -> str:
    """Render a corpus in column format, one blank line after each sentence."""
    return "".join(map(conll_text, corpus.sentences))


#---------------------------------------------------------------------------
# nested bracket files

def parse_nested(text: str) -> list[NestedSentence]:
    """Read the text of a nested 3 column bracket file.

    Brackets may nest but never cross; unbalanced brackets raise a
    ParseError naming the sentence.  A fault raises the error that a token
    by token read meets first.  Equal spans within one call are one Span.
    """
    sentences: list[NestedSentence] = []
    share = {}.setdefault
    parsed: dict[str, tuple[list[str], range]] = {}  # a good bracket field's opener labels and closers
    pool: dict[tuple[int, int, str], Span] = {}  # the Span of each (begin, end, label) key
    for first, rows in column_blocks(text):
        fields = pooled_columns(rows, 3, share)
        checked = bool(fields) and columns_pass(*fields[:2])  # else each word and pos tag as read
        spans: list[Span] = []  # one per bracket, as it closes
        stack: list[tuple[str, int]] = []  # each open bracket's label and begin
        for i, line in enumerate(rows):
            if len(line) != 3:
                raise ParseError(f"line {first + i}: expected 3 columns, got {len(line)}")
            brackets = parsed.get(line[2])
            if brackets is None:
                match = _BRACKET_RE.fullmatch(line[2])
                if match is None:
                    raise ParseError(f"line {first + i}: bad bracket field {line[2]!r}")
                brackets = parsed[line[2]] = (match[1].split("(")[1:], range(len(match[2])))
            labels, closers = brackets
            for label in labels:
                stack.append((label, i))
            if not checked:
                try:
                    Token(*line[:2])
                except ValidationError as exc:
                    raise ValidationError(f"line {first + i}: {exc}") from None
            if len(closers) > len(stack):
                raise ParseError(f"sentence {len(sentences) + 1} (line {first + i}): unmatched closer")
            for _ in closers:
                label, begin = stack.pop()
                key = (begin, i + 1, label)
                spans.append(pool.get(key) or pool.setdefault(key, Span._make(key)))
        if stack:
            raise ParseError(
                f"sentence {len(sentences) + 1} (line {first + i}): {len(stack)} unclosed bracket(s)")
        spans.sort(key=span_order)
        sentences.append(NestedSentence.from_checked(Sentence.from_checked(*fields[:2]), tuple(spans)))
    return sentences


def nested_text(sentence: NestedSentence) -> str:
    """One nested sentence in the 3 column bracket format, closed by a blank line."""
    marks = ["*"] * len(sentence)
    for begin, end, label in reversed(sentence.spans):  # of the spans opening at a token, outermost first
        marks[begin] = f"({label}{marks[begin]}"
        marks[end - 1] += ")"
    return "\n".join(map(" ".join, zip(sentence.words, sentence.pos_tags, marks))) + "\n\n"


def write_nested(sentences: Iterable[NestedSentence]) -> str:
    """Render nested sentences in the 3 column bracket format."""
    return "".join(map(nested_text, sentences))
