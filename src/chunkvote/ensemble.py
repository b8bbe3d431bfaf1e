"""Combining the output of several chunkers.

The unit of exchange is the prediction table: per token, the pos tag, the
tag every system predicted and optionally the gold tag.  Tables are built
by cross validation over the training data (so the combiner weights are
estimated on predictions for unseen text) and consumed by five weighted
voting methods, by stacked classifiers and by best subset selection.
A second combination mode takes a majority vote on chunk start and end
brackets instead of whole tags.
"""

from __future__ import annotations

import itertools
from collections import Counter, defaultdict
from collections.abc import Callable, Hashable, Iterable, Mapping, Sequence
from operator import attrgetter

from .corpus import (
    PLACEHOLDER_WORD,
    Corpus,
    Record,
    Sentence,
    TagScheme,
    check_chunk_tag,
    check_pos_tag,
    column_blocks,
    columns_pass,
    extract_chunks,
    pick_best,
    pooled_columns,
    tags_from_chunks,
)
from .errors import AlignmentError, ConfigError, ParseError, ValidationError

# Weights, voting and brackets load no learner or metrics code: the
# functions that train, tag or score import what they call, and the
# annotations name those modules' classes without importing them.

VOTING_METHODS = ("majority", "tot-precision", "tag-precision", "precision-recall", "tag-pair")

# Vote value meaning "no bracket here" in start/end streams.  Chunk types
# named O are therefore not supported in bracket level combination.
NO_BRACKET = "O"

_RESERVED_COLUMNS = ("gold", "pos")


def _check_not_reserved(names: Sequence[str]) -> None:
    for name in names:
        if name in _RESERVED_COLUMNS:
            raise ValidationError(f"system name {name!r} is reserved")


# The fields of each kind of weights file line that hold chunk tags.
_TAG_FIELDS = {"tagcount": (1,), "tagprec": (2,), "tagrec": (2,), "pair": (3, 4, 5)}

_set = object.__setattr__  # records are frozen; their constructors fill them


class PredictionRow(Record):
    __slots__ = _fields = ("pos", "preds", "gold")

    def __init__(self, pos: str, preds: tuple[str, ...], gold: str | None = None):
        _set(self, "pos", pos)
        _set(self, "preds", preds)
        _set(self, "gold", gold)


def _check_table_shape(systems: tuple[str, ...], sentences: tuple) -> None:
    if not systems:
        raise ValidationError("a prediction table needs at least one system")
    if len(set(systems)) != len(systems):
        raise ValidationError("system names must be unique")
    _check_not_reserved(systems)
    if not sentences:
        raise ValidationError("a prediction table needs at least one sentence")


class PredictionTable(Record):
    """Aligned per-token predictions of several systems."""

    _fields = ("systems", "sentences")

    def __init__(self, systems: Iterable[str], sentences: Iterable[Iterable[PredictionRow]]):
        systems, sentences = tuple(systems), tuple(map(tuple, sentences))
        _check_table_shape(systems, sentences)
        golds = set()
        # Each distinct cell in first-row order (gold before predictions, as
        # in a table file), to name the first bad one.
        tags: dict[str, None] = {}
        pos_tags = {}
        width = len(systems)
        for rows in sentences:
            if not rows:
                raise ValidationError("empty sentence in prediction table")
            for row in rows:
                if len(row.preds) != width:
                    raise ValidationError(
                        f"row has {len(row.preds)} predictions for {width} systems"
                    )
                golds.add(row.gold)
                if row.gold is not None:
                    tags[row.gold] = None
                tags.update(dict.fromkeys(row.preds))
                pos_tags[row.pos] = None
        if None in golds and len(golds) > 1:
            raise ValidationError("gold tags must be present on every row or on none")
        for pos in pos_tags:
            check_pos_tag(pos)
        for tag in tags:
            check_chunk_tag(tag)
        self._init(systems, sentences)

    @classmethod
    def from_checked(cls, systems: tuple[str, ...], sentences: tuple[tuple[PredictionRow, ...], ...]):
        """A table of values that pass the constructor's checks, as a reader checked them."""
        return object.__new__(cls)._init(systems, sentences)

    @property
    def has_gold(self) -> bool:
        return self.sentences[0][0].gold is not None

    def rows(self) -> Iterable[PredictionRow]:
        for sentence in self.sentences:
            yield from sentence

    def gold_column(self) -> list[list[str]]:
        if not self.has_gold:
            raise ValidationError("prediction table has no gold tags")
        return [[row.gold for row in rows] for rows in self.sentences]  # type: ignore[misc]


def _table(
    sentences: Sequence[Sentence],
    columns: Mapping[str, Sequence[Sequence[str]]],
    gold: Sequence[Sequence[str]] | None,
) -> PredictionTable:
    """A table of the pos tags of ``sentences``, the system tags in ``columns`` and any gold tags."""
    golds = gold if gold is not None else [[None] * len(sentence) for sentence in sentences]
    table = (
        tuple(map(PredictionRow, sentence.pos_tags, zip(*system_tags), sentence_gold))
        for sentence, sentence_gold, *system_tags in zip(sentences, golds, *columns.values())
    )
    return PredictionTable(tuple(columns), tuple(table))


def _tag_column(what: str, corpus: Corpus, reference: Corpus) -> list[tuple[str, ...]]:
    """The tags of ``corpus``, checked to cover every token of ``reference``."""
    if len(corpus.sentences) != len(reference.sentences):
        raise AlignmentError(f"{what} sentence count differs from reference")
    column = [sentence.chunk_tags for sentence in corpus.sentences]
    for si, (tags, ref) in enumerate(zip(column, reference.sentences), start=1):
        if len(tags) != len(ref):
            raise AlignmentError(f"{what} sentence {si} length differs")
        if None in tags:
            raise ValidationError(f"{what} sentence {si} has untagged tokens")
    return column


def from_corpora(predictions: Mapping[str, Corpus], gold: Corpus | None = None) -> PredictionTable:
    """Assemble a table from per-system corpora over the same tokens."""
    if not predictions:
        raise ValidationError("need at least one system")
    reference = gold if gold is not None else next(iter(predictions.values()))
    columns = {name: _tag_column(f"system {name}:", corpus, reference)
               for name, corpus in predictions.items()}
    gold_tags = None if gold is None else _tag_column("gold", gold, reference)
    return _table(reference.sentences, columns, gold_tags)


#---------------------------------------------------------------------------
# table file format

def write_table(table: PredictionTable) -> str:
    """Render a table: a header naming the systems, then one token per line."""
    header = (["gold", "pos"] if table.has_gold else ["pos"]) + list(table.systems)
    parts = [" ".join(header) + "\n"]
    for rows in table.sentences:
        for row in rows:
            fields = ([row.gold] if row.gold is not None else []) + [row.pos] + list(row.preds)
            parts.append(" ".join(fields) + "\n")  # type: ignore[arg-type]
        parts.append("\n")
    return "".join(parts)


def read_table(text: str) -> PredictionTable:
    """Read the text of a table: its header is the first line of the first block."""
    blocks = column_blocks(text)
    first = next(blocks, None)
    if first is None:
        raise ParseError("empty prediction table")
    start, (header, *rest) = first
    has_gold = header[0] == "gold"
    if header[has_gold:has_gold + 1] != ["pos"]:
        raise ParseError("table header must start with 'gold pos' or 'pos'")
    if len(header) < 2 + has_gold:
        raise ParseError("table header names no systems")
    width = len(header)
    share = {}.setdefault
    sentences: list[tuple[PredictionRow, ...]] = []
    for start, block in itertools.chain([(start + 1, rest)] if rest else (), blocks):
        columns = pooled_columns(block, width, share)
        tag_columns = columns[:has_gold] + columns[1 + has_gold:]
        if not columns or not columns_pass((), columns[has_gold], *tag_columns):
            for lineno, fields in enumerate(block, start):  # the first fault in file order
                if len(fields) != width:
                    raise ParseError(f"line {lineno}: expected {width} columns, got {len(fields)}")
                try:
                    for i, field in enumerate(fields):
                        (check_pos_tag if i == has_gold else check_chunk_tag)(field)
                except ValidationError as exc:
                    raise ValidationError(f"line {lineno}: {exc}") from None
        golds = columns[0] if has_gold else itertools.repeat(None)
        sentences.append(tuple(map(PredictionRow, columns[has_gold], zip(*columns[1 + has_gold:]), golds)))
    # Every row has the header's width and passed the field checks above.
    systems, table = tuple(header[1 + has_gold:]), tuple(sentences)
    _check_table_shape(systems, table)
    return PredictionTable.from_checked(systems, table)


#---------------------------------------------------------------------------
# cross validation tuning tables

def cv_tuning_table(corpus: Corpus, specs: Sequence[LearnerSpec], folds: int = 10) -> PredictionTable:
    """Predict every training sentence with models that never saw it.

    Sentences are dealt round robin over ``folds`` partitions; each system
    is retrained once per fold on the other partitions.  The table keeps
    the original sentence order and carries the gold tags.
    """
    from .features import Dataset
    from .learners import tag_sentence

    if folds < 2:
        raise ConfigError(f"folds must be >= 2, got {folds}")
    if len(corpus.sentences) < folds:
        raise ConfigError(f"{len(corpus.sentences)} sentences cannot fill {folds} folds")
    if not specs:
        raise ConfigError("need at least one learner spec")
    names = [spec.name for spec in specs]
    if len(set(names)) != len(names):
        raise ConfigError("system names must be unique")
    _check_not_reserved(names)
    sentences = corpus.sentences
    predicted: dict[str, list[list[str] | None]] = {
        spec.name: [None] * len(sentences) for spec in specs
    }
    # Training items carry gold left tags, so a sentence's items are the same
    # in every fold: featurize the corpus once per (window, io_encoding) and
    # cut each fold's training set out of it, in sentence order, as
    # featurizing that fold's sentences would have made it.
    groups: dict[tuple, list[LearnerSpec]] = {}
    for spec in specs:
        spec.check_options()  # every spec's, before the first group trains
        groups.setdefault((spec.resolved_window(), spec.io_encoding), []).append(spec)
    bounds = [0, *itertools.accumulate(map(len, sentences))]
    for group in groups.values():
        featurized = group[0].featurize(corpus)
        for fold in range(folds):
            train = Dataset(tuple(itertools.chain.from_iterable(
                featurized.items[bounds[i]:bounds[i + 1]]
                for i in range(len(sentences)) if i % folds != fold
            )), featurized.slot_names)
            for spec in group:
                model = spec.fit(train)
                for i in range(fold, len(sentences), folds):
                    predicted[spec.name][i] = tag_sentence(model, sentences[i])
                del model  # weights, trace and index, before the next fit
            del train
        del featurized  # before the next group featurizes
    gold = [sentence.chunk_tags for sentence in sentences]
    return _table(sentences, predicted, gold)  # type: ignore[arg-type]


#---------------------------------------------------------------------------
# combiner weights

class CombinerWeights(Record):
    """Reliability estimates for every system, measured on a tuning table."""

    _fields = ("systems", "accuracy", "tag_precision", "tag_recall", "pair_prob", "tag_counts")

    def __init__(self, systems: tuple[str, ...], accuracy: Mapping[str, float],
                 tag_precision: Mapping[tuple[str, str], float],
                 tag_recall: Mapping[tuple[str, str], float],
                 pair_prob: Mapping[tuple[str, str, str, str], Mapping[str, float]],
                 tag_counts: Mapping[str, int]):
        self._init(systems, accuracy, tag_precision, tag_recall, pair_prob, tag_counts)

    def accuracy_of(self, system: str) -> float:
        return self.accuracy.get(system, 0.0)

    def tag_precision_of(self, system: str, tag: str) -> float:
        return self.tag_precision.get((system, tag), 0.0)

    def tag_recall_of(self, system: str, tag: str) -> float:
        return self.tag_recall.get((system, tag), 0.0)


def estimate_weights(table: PredictionTable) -> CombinerWeights:
    """Token level reliability of each system; undefined ratios become 0."""
    if not table.has_gold:
        raise ValidationError("weights need a tuning table with gold tags")
    systems = table.systems
    total = 0
    correct: Counter = Counter()
    pred_count: Counter = Counter()
    hit_count: Counter = Counter()
    gold_count: Counter = Counter()
    pair_counts: dict[tuple[str, str, str, str], Counter] = {}
    for (preds, gold), count in Counter((row.preds, row.gold) for row in table.rows()).items():
        total += count
        gold_count[gold] += count
        for name, tag in zip(systems, preds):
            if tag == gold:
                correct[name] += count
                hit_count[(name, tag)] += count
            pred_count[(name, tag)] += count
        for (i, a), (j, b) in itertools.combinations(enumerate(systems), 2):
            key = (a, b, preds[i], preds[j])
            pair_counts.setdefault(key, Counter())[gold] += count
    accuracy = {name: correct[name] / total for name in systems}
    tag_precision = {
        key: hit_count.get(key, 0) / n for key, n in pred_count.items()
    }
    tag_recall = {
        (name, tag): hit_count.get((name, tag), 0) / gold_count[tag]
        for name in systems
        for tag in gold_count
    }
    pair_prob = {
        key: {tag: n / sum(counts.values()) for tag, n in counts.items()}
        for key, counts in pair_counts.items()
    }
    return CombinerWeights(
        systems=systems,
        accuracy=accuracy,
        tag_precision=tag_precision,
        tag_recall=tag_recall,
        pair_prob=pair_prob,
        tag_counts=dict(gold_count),
    )


def write_weights(weights: CombinerWeights) -> str:
    lines = ["combiner-weights 1"]
    for name in weights.systems:
        lines.append(f"system {name}")
    for tag in sorted(weights.tag_counts):
        lines.append(f"tagcount {tag} {weights.tag_counts[tag]}")
    for name in weights.systems:
        lines.append(f"accuracy {name} {weights.accuracy[name]!r}")
    for name, tag in sorted(weights.tag_precision):
        lines.append(f"tagprec {name} {tag} {weights.tag_precision[(name, tag)]!r}")
    for name, tag in sorted(weights.tag_recall):
        lines.append(f"tagrec {name} {tag} {weights.tag_recall[(name, tag)]!r}")
    for key in sorted(weights.pair_prob):
        dist = weights.pair_prob[key]
        for tag in sorted(dist):
            lines.append(f"pair {' '.join(key)} {tag} {dist[tag]!r}")
    return "\n".join(lines) + "\n"


def _rate(line: str, text: str) -> float:
    """A proportion, so a finite number in [0, 1]."""
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise ParseError(f"rate outside [0, 1] in weights line {line!r}")
    return value


def read_weights(text: str) -> CombinerWeights:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines or lines[0].split() != ["combiner-weights", "1"]:
        raise ParseError("not a combiner-weights file")
    systems: dict[str, None] = {}
    accuracy: dict[str, float] = {}
    tag_precision: dict[tuple[str, str], float] = {}
    tag_recall: dict[tuple[str, str], float] = {}
    pair_prob: dict[tuple[str, str, str, str], dict[str, float]] = {}
    tag_counts: dict[str, int] = {}
    try:
        for line in lines[1:]:
            fields = line.split()
            if fields[0] == "system" and len(fields) == 2:
                target, key, value = systems, fields[1], None
            elif fields[0] == "tagcount" and len(fields) == 3:
                target, key, value = tag_counts, fields[1], int(fields[2])
                if value < 0:
                    raise ParseError(f"negative tag count in weights line {line!r}")
            elif fields[0] == "accuracy" and len(fields) == 3:
                target, key, value = accuracy, fields[1], _rate(line, fields[2])
            elif fields[0] == "tagprec" and len(fields) == 4:
                target, key, value = tag_precision, (fields[1], fields[2]), _rate(line, fields[3])
            elif fields[0] == "tagrec" and len(fields) == 4:
                target, key, value = tag_recall, (fields[1], fields[2]), _rate(line, fields[3])
            elif fields[0] == "pair" and len(fields) == 7:
                target = pair_prob.setdefault((fields[1], fields[2], fields[3], fields[4]), {})
                key, value = fields[5], _rate(line, fields[6])
            else:
                raise ParseError(f"bad weights line {line!r}")
            try:
                for i in _TAG_FIELDS.get(fields[0], ()):
                    check_chunk_tag(fields[i])
            except ValidationError as exc:
                raise ParseError(f"{exc} in weights line {line!r}") from None
            if key in target:
                raise ParseError(f"repeated key in weights line {line!r}")
            target[key] = value
    except ValueError as exc:
        raise ParseError(f"bad number in weights file: {exc}") from None
    named = {*accuracy, *(name for name, _ in tag_precision), *(name for name, _ in tag_recall),
             *(name for key in pair_prob for name in key[:2])}
    unknown = sorted(named.difference(systems))
    if unknown:
        raise ParseError(f"weights file names systems without a system line: {' '.join(unknown)}")
    missing = [name for name in systems if name not in accuracy]
    if missing:
        raise ParseError(f"weights file has no accuracy line for: {' '.join(missing)}")
    return CombinerWeights(
        systems=tuple(systems),
        accuracy=accuracy,
        tag_precision=tag_precision,
        tag_recall=tag_recall,
        pair_prob=pair_prob,
        tag_counts=tag_counts,
    )


#---------------------------------------------------------------------------
# voting

def vote(
    votes: Sequence[tuple[str, str]],
    method: str = "majority",
    weights: CombinerWeights | None = None,
) -> str:
    """Combine one row of (system, tag) votes into a single tag.

    * ``majority``: one vote per system;
    * ``tot-precision``: votes weighted by system accuracy;
    * ``tag-precision``: votes weighted by the system's precision on the
      tag it proposes;
    * ``precision-recall``: a candidate tag collects the proposing
      systems' precision on it plus, from every system proposing another
      tag, one minus that system's recall on the candidate; candidates
      are the proposed tags and every tag seen in tuning;
    * ``tag-pair``: every unordered system pair contributes the tuning
      distribution of the gold tag given the pair's two proposals, found
      whichever order the tuning table held the two systems in, backing
      off to halved tag-precision votes for unseen pairs.

    A unanimous row is returned unchanged under every method.  Remaining
    ties prefer the tag more frequent in the tuning data, then the
    alphabetically smaller tag.
    """
    if not votes:
        raise ValidationError("cannot combine an empty vote row")
    if method not in VOTING_METHODS:
        raise ConfigError(f"unknown voting method {method!r}, expected one of {VOTING_METHODS}")
    if method != "majority" and weights is None:
        raise ConfigError(f"voting method {method!r} needs combiner weights")
    tags = [tag for _, tag in votes]
    if all(tag == tags[0] for tag in tags):
        return tags[0]
    frequencies = weights.tag_counts if weights is not None else {}

    scores: dict[str, float]
    if method == "majority":
        scores = dict(Counter(tags))
    elif method == "tot-precision":
        scores = defaultdict(float)
        for system, tag in votes:
            scores[tag] += weights.accuracy_of(system)
    elif method == "tag-precision":
        scores = defaultdict(float)
        for system, tag in votes:
            scores[tag] += weights.tag_precision_of(system, tag)
    elif method == "precision-recall":
        candidates = list(dict.fromkeys(tags))
        candidates.extend(t for t in sorted(weights.tag_counts) if t not in candidates)
        scores = {}
        for candidate in candidates:
            score = 0.0
            for system, tag in votes:
                if tag == candidate:
                    score += weights.tag_precision_of(system, tag)
                else:
                    score += 1.0 - weights.tag_recall_of(system, candidate)
            scores[candidate] = score / len(votes)
    else:  # tag-pair
        scores = defaultdict(float)
        for (a, tag_a), (b, tag_b) in itertools.combinations(votes, 2):
            dist = weights.pair_prob.get((a, b, tag_a, tag_b))
            if dist is None:
                dist = weights.pair_prob.get((b, a, tag_b, tag_a))
            if dist is None:
                scores[tag_a] += weights.tag_precision_of(a, tag_a) / 2.0
                scores[tag_b] += weights.tag_precision_of(b, tag_b) / 2.0
            else:
                for tag, p in dist.items():
                    scores[tag] += p
    return pick_best(scores, frequencies)


def _decide_rows(table: PredictionTable, key: Callable[[PredictionRow], Hashable],
                 decide: Callable[[Hashable], str]) -> list[list[str]]:
    """One decided tag per table row, per sentence.  A decision reads only
    its row's ``key``, so each distinct key is decided once, in order of
    first occurrence."""
    keys = [list(map(key, rows)) for rows in table.sentences]
    decided = {k: decide(k) for k in dict.fromkeys(itertools.chain.from_iterable(keys))}
    return [list(map(decided.__getitem__, row_keys)) for row_keys in keys]


#---------------------------------------------------------------------------
# stacked classifiers

def _stacked_vector(row: PredictionRow, add_pos: bool) -> tuple[str, ...]:
    """A row's feature vector for a stacked model: its predictions, then its pos tag."""
    return row.preds + (row.pos,) if add_pos else row.preds


def stacked_train(
    table: PredictionTable, learner: str = "knn", add_pos: bool = False
) -> KnnModel | IGTreeModel:
    """Train a second stage classifier on the systems' joint output: k-NN
    with k=1 or an igtree, slots weighted by gain ratio."""
    from .features import Dataset
    from .learners import train_igtree, train_knn

    trainer = {"knn": lambda data: train_knn(data, k=1), "igtree": train_igtree}.get(learner)
    if trainer is None:
        raise ConfigError(f"stacked learner must be 'knn' or 'igtree', got {learner!r}")
    if not table.has_gold:
        raise ValidationError("stacking needs a tuning table with gold tags")
    slot_names = tuple(table.systems) + (("pos",) if add_pos else ())
    items = tuple((_stacked_vector(row, add_pos), row.gold) for row in table.rows())
    return trainer(Dataset(items, slot_names))


#---------------------------------------------------------------------------
# best subset selection

def _subset_report(table: PredictionTable, gold_spans: list, subset: Sequence[int]) -> EvalReport:
    """Chunk level score of majority voting over the systems at ``subset``."""
    from .metrics import score_chunks

    names = [table.systems[i] for i in subset]
    voted = _decide_rows(table, lambda row: tuple(map(row.preds.__getitem__, subset)),
                         lambda preds: vote(list(zip(names, preds))))
    return score_chunks(gold_spans, list(map(extract_chunks, voted)))


def evaluate_subset(table: PredictionTable, systems: Sequence[str]) -> EvalReport:
    """Chunk level score of majority voting over a subset of systems."""
    indices = [table.systems.index(name) for name in systems]
    return _subset_report(table, list(map(extract_chunks, table.gold_column())), indices)


def best_n_select(table: PredictionTable, n: int) -> tuple[str, ...]:
    """Exhaustively pick the n systems whose majority vote scores best.

    The criterion is the chunk level F rate on the tuning table after
    reconstructing chunks from the voted tags.  Ties keep the first
    subset in lexicographic order over system positions.
    """
    if not table.has_gold:
        raise ValidationError("subset selection needs a tuning table with gold tags")
    if not 1 <= n <= len(table.systems):
        raise ConfigError(f"n must be between 1 and {len(table.systems)}, got {n}")
    gold_spans = list(map(extract_chunks, table.gold_column()))
    best = max(
        itertools.combinations(range(len(table.systems)), n),
        key=lambda subset: _subset_report(table, gold_spans, subset).f_rate,
    )
    return tuple(table.systems[i] for i in best)


#---------------------------------------------------------------------------
# bracket level combination

def _vote_stream(streams: Sequence[dict[int, str]], length: int) -> dict[int, str]:
    """Each position's majority bracket, ties to the alphabetically smaller."""
    winners = {}
    for position in range(length):
        winner = pick_best(Counter(stream.get(position, NO_BRACKET) for stream in streams))
        if winner != NO_BRACKET:
            winners[position] = winner
    return winners


def combine_bracket_sentence(
    spans_per_system: Sequence[Sequence[tuple[int, int, str]]], length: int
) -> list[tuple[int, int, str]]:
    """Majority vote on chunk starts and ends separately, then rebuild chunks.

    A start of type T at position p is matched with the nearest end of
    type T at a position >= p that precedes the next start of type T;
    unmatched brackets are dropped, and so is any rebuilt chunk that
    overlaps an earlier one.  Spans are (begin, end, label) tuples.
    """
    systems = spans_per_system
    start_winners = _vote_stream([{b: label for b, _, label in system} for system in systems], length)
    end_winners = _vote_stream([{e - 1: label for _, e, label in system} for system in systems], length)

    kept: list[tuple[int, int, str]] = []
    for begin in sorted(start_winners):  # each begin once, so rebuilt chunks come in order
        label = start_winners[begin]
        next_start = min(
            (p for p in start_winners if p > begin and start_winners[p] == label),
            default=length,
        )
        end = min(
            (p for p in end_winners if begin <= p < next_start and end_winners[p] == label),
            default=None,
        )
        if end is not None and (not kept or begin >= kept[-1][1]):
            kept.append((begin, end + 1, label))
    return kept


#---------------------------------------------------------------------------
# corpus level combination

def _normalised_corpus(
    spans_per_sentence: Sequence[Sequence[tuple[int, int, str]]],
    table: PredictionTable,
    words: Corpus | None,
) -> Corpus:
    if words is not None and len(words.sentences) != len(table.sentences):
        raise AlignmentError(
            f"word corpus has {len(words.sentences)} sentences, table has {len(table.sentences)}"
        )
    # Words come from a checked corpus or are placeholders, pos tags from the
    # checked table and tags from the labels of checked tags: all pass Token's checks.
    sentences = []
    for si, (rows, spans) in enumerate(zip(table.sentences, spans_per_sentence)):
        clean = tuple(tags_from_chunks(len(rows), spans, TagScheme.IOB2))
        word_list = (PLACEHOLDER_WORD,) * len(rows) if words is None else words.sentences[si].words
        if len(word_list) != len(rows):
            raise AlignmentError(f"sentence {si + 1}: word count differs from table")
        sentences.append(Sentence.from_checked(word_list, tuple(row.pos for row in rows), clean))
    return Corpus(tuple(sentences), TagScheme.IOB2)


def combine_corpus(
    table: PredictionTable,
    method: str = "majority",
    weights: CombinerWeights | None = None,
    bracket_level: bool = False,
    words: Corpus | None = None,
) -> Corpus:
    """Combine a test table into one tagged corpus under IOB2.

    With ``bracket_level`` the systems' chunk starts and ends are voted on
    separately by majority and chunks are rebuilt from the surviving
    brackets; otherwise each token's tags are voted on directly.  Words are
    taken from ``words`` when given, else a placeholder is written.
    ``weights`` must cover every system of the table; brackets ignore them.
    """
    if weights is not None:
        missing = [name for name in table.systems if name not in weights.systems]
        if missing:
            raise ValidationError(f"weights have no estimates for systems: {' '.join(missing)}")
    if bracket_level:
        if method != "majority":
            raise ConfigError(f"bracket level combination is majority only, got {method!r}")
        spans = [
            combine_bracket_sentence(
                [extract_chunks(column) for column in zip(*(row.preds for row in rows))], len(rows)
            )
            for rows in table.sentences
        ]
    else:
        voted = _decide_rows(
            table, attrgetter("preds"), lambda preds: vote(list(zip(table.systems, preds)), method, weights)
        )
        spans = [extract_chunks(tags) for tags in voted]
    return _normalised_corpus(spans, table, words)


def stacked_corpus(
    model: KnnModel | IGTreeModel,
    table: PredictionTable,
    words: Corpus | None = None,
) -> Corpus:
    """Apply a stacked model to every row of a test table and normalise to
    IOB2.  Reads only the model's ``slot_names`` and ``predict``: the slot
    names less a trailing ``pos`` must be the table's systems, in order."""
    names = tuple(model.slot_names)
    add_pos = names[-1:] == ("pos",)
    systems = names[:-1] if add_pos else names
    if systems != table.systems:
        raise ValidationError(
            f"model columns {' '.join(systems)} differ from table systems {' '.join(table.systems)}"
        )
    tags = _decide_rows(table, lambda row: _stacked_vector(row, add_pos), model.predict)
    return _normalised_corpus([extract_chunks(t) for t in tags], table, words)
