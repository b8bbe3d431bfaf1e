"""Independent reference implementations used to check the package.

Everything here is written against the documented behaviour only, with
different algorithms where possible (two-pass repair instead of one
scan, explicit sorting instead of incremental argmax), so that a bug in
the package cannot hide in a shared helper.  Float accumulations follow
the same left-to-right order as the package on purpose: the tests
compare results exactly.
"""

import itertools
import math
import re
from collections import Counter

from chunkvote import (
    ChunkSpan,
    Corpus,
    NestedSentence,
    ParseError,
    PredictionRow,
    PredictionTable,
    Sentence,
    TagScheme,
    Token,
    ValidationError,
    extract_chunks,
    scheme_violation,
    strip_tags,
    tags_from_chunks,
    validate_corpus,
    with_tags,
)
from chunkvote.corpus import check_chunk_tag
from chunkvote.learners import MaxEntModel, MaxEntTrace, _gis_delta


def oracle_chunks(tags):
    """Spans of a tag sequence: repair to strict IOB2 first, then scan runs."""
    repaired = []
    prev_marker, prev_type = "O", None
    for tag in tags:
        if tag == "O":
            repaired.append(tag)
            prev_marker, prev_type = "O", None
            continue
        marker, chunk_type = tag.split("-", 1)
        if marker == "I" and not (prev_marker in ("B", "I") and prev_type == chunk_type):
            marker = "B"
        repaired.append(f"{marker}-{chunk_type}")
        prev_marker, prev_type = marker, chunk_type
    spans = []
    i = 0
    while i < len(repaired):
        if repaired[i] == "O":
            i += 1
            continue
        chunk_type = repaired[i].split("-", 1)[1]
        j = i + 1
        while j < len(repaired) and repaired[j] == f"I-{chunk_type}":
            j += 1
        spans.append(ChunkSpan(i, j, chunk_type))
        i = j
    return spans


def oracle_score(gold_sentences, pred_sentences):
    """Counts by greedy multiset matching, one gold span used at most once.

    Returns (overall, per_label) where each entry is a dict with found,
    gold and correct counts.
    """
    found = Counter()
    gold_count = Counter()
    correct = Counter()
    for gold, pred in zip(gold_sentences, pred_sentences):
        pool = list(gold)
        for span in gold:
            gold_count[span.label] += 1
        for span in pred:
            found[span.label] += 1
            if span in pool:
                pool.remove(span)
                correct[span.label] += 1
    labels = sorted(set(found) | set(gold_count))
    per_label = {
        label: {
            "found": found[label],
            "gold": gold_count[label],
            "correct": correct[label],
        }
        for label in labels
    }
    overall = {
        "found": sum(found.values()),
        "gold": sum(gold_count.values()),
        "correct": sum(correct.values()),
    }
    return overall, per_label


def oracle_f(precision, recall, beta=1.0):
    b2 = beta * beta
    if b2 * precision + recall == 0.0:
        return 0.0
    return (b2 + 1.0) * precision * recall / (b2 * precision + recall)


def _argmax(scores, frequencies):
    return sorted(
        scores, key=lambda c: (-scores[c], -frequencies.get(c, 0), c)
    )[0]


def oracle_vote(votes, method, weights=None):
    """Winner of one vote row; exhaustive scoring per documented method."""
    tags = [tag for _, tag in votes]
    if len(set(tags)) == 1:
        return tags[0]
    frequencies = dict(weights.tag_counts) if weights is not None else {}
    scores = {}
    if method == "majority":
        for tag in tags:
            scores[tag] = scores.get(tag, 0) + 1
    elif method == "tot-precision":
        for system, tag in votes:
            scores[tag] = scores.get(tag, 0.0) + weights.accuracy[system]
    elif method == "tag-precision":
        for system, tag in votes:
            scores[tag] = scores.get(tag, 0.0) + weights.tag_precision.get((system, tag), 0.0)
    elif method == "precision-recall":
        candidates = set(tags) | set(weights.tag_counts)
        for candidate in candidates:
            total = 0.0
            for system, tag in votes:
                if tag == candidate:
                    total += weights.tag_precision.get((system, tag), 0.0)
                else:
                    total += 1.0 - weights.tag_recall.get((system, candidate), 0.0)
            scores[candidate] = total / len(votes)
    elif method == "tag-pair":
        for i in range(len(votes)):
            for j in range(i + 1, len(votes)):
                (sys_a, tag_a), (sys_b, tag_b) = votes[i], votes[j]
                # a pair is tallied under the order its tuning table held it in
                dist = weights.pair_prob.get((sys_a, sys_b, tag_a, tag_b))
                if dist is None:
                    dist = weights.pair_prob.get((sys_b, sys_a, tag_b, tag_a))
                if dist is None:
                    half_a = weights.tag_precision.get((sys_a, tag_a), 0.0) / 2.0
                    half_b = weights.tag_precision.get((sys_b, tag_b), 0.0) / 2.0
                    scores[tag_a] = scores.get(tag_a, 0.0) + half_a
                    scores[tag_b] = scores.get(tag_b, 0.0) + half_b
                else:
                    for tag, p in dist.items():
                        scores[tag] = scores.get(tag, 0.0) + p
    else:
        raise AssertionError(f"oracle does not know method {method}")
    return _argmax(scores, frequencies)


def oracle_bracket_vote(spans_per_system, length):
    """Bracket level majority: vote on each position's start and end
    bracket (no bracket is ``O``, ties to the alphabetically smaller), pair
    each start with the first end of its type found scanning right before
    another start of that type, then keep chunks that overlap no kept one."""
    def winners(position_of):
        streams = []
        for spans in spans_per_system:
            stream = {}
            for span in spans:
                stream[position_of(span)] = span.label  # a later span replaces an earlier
            streams.append(stream)
        result = {}
        for position in range(length):
            counts = Counter(stream.get(position, "O") for stream in streams)
            best = sorted(counts, key=lambda value: (-counts[value], value))[0]
            if best != "O":
                result[position] = best
        return result

    starts = winners(lambda span: span.begin)
    ends = winners(lambda span: span.end - 1)
    rebuilt = []
    for begin in range(length):
        label = starts.get(begin)
        if label is None:
            continue
        for q in range(begin, length):
            if q > begin and starts.get(q) == label:
                break
            if ends.get(q) == label:
                rebuilt.append(ChunkSpan(begin, q + 1, label))
                break
    kept = []
    for span in sorted(rebuilt, key=lambda span: (span.begin, span.end)):
        if all(span.begin >= other.end or span.end <= other.begin for other in kept):
            kept.append(span)
    return kept


def oracle_knn(memory, weights, k, vector, class_counts):
    """Brute force: all distances, the k smallest distinct values vote."""
    distances = []
    for mem_vector, label in memory:
        d = 0.0
        for w, a, b in zip(weights, vector, mem_vector):
            if a != b:
                d += w
        distances.append((d, label))
    nearest = sorted({d for d, _ in distances})[:k]
    votes = Counter(label for d, label in distances if d in nearest)
    return _argmax(votes, class_counts)


def oracle_igtree_path(items, order, vector, global_counts):
    """Filter the training items slot by slot, answering with the modal
    class of the narrowest non-empty subset."""

    def modal(group):
        counts = Counter(label for _, label in group)
        return _argmax(counts, global_counts)

    current = list(items)
    for slot in order:
        if len({label for _, label in current}) == 1:
            return current[0][1]
        matching = [item for item in current if item[0][slot] == vector[slot]]
        if not matching:
            return modal(current)
        current = matching
    return modal(current)


def oracle_maxent_scores(model, vector):
    """Each class's score, looking up every (slot, value, class) feature in turn."""
    scores = {}
    for c in model.classes:
        total = 0.0
        active = 0
        for slot, value in enumerate(vector):
            weight = model.weights.get((slot, value, c))
            if weight is not None:
                total += weight
                active += 1
        scores[c] = total + model.correction * (model.constant - active)
    return scores


def oracle_maxent_loglik(model, items):
    """The log likelihood of ``items`` under the stored weights of ``model``."""
    total = 0.0
    for vector, label in items:
        scores = oracle_maxent_scores(model, vector)
        top = max(scores.values())
        log_z = top + math.log(sum(math.exp(s - top) for s in scores.values()))
        total += scores[label] - log_z
    return total


def oracle_maxent_counts(model, items):
    """Empirical and expected feature counts under a trained model.

    Computed from the stored weights alone, never from the training
    trace.  Returns (empirical, expected, empirical_corr, expected_corr).
    """
    empirical = {feature: 0.0 for feature in model.weights}
    expected = {feature: 0.0 for feature in model.weights}
    emp_corr = 0.0
    exp_corr = 0.0
    for vector, label in items:
        scores = {}
        active = {}
        for c in model.classes:
            total = 0.0
            features = []
            for slot, value in enumerate(vector):
                feature = (slot, value, c)
                if feature in model.weights:
                    total += model.weights[feature]
                    features.append(feature)
            pad = model.constant - len(features)
            scores[c] = total + model.correction * pad
            active[c] = (features, pad)
        top = max(scores.values())
        z = sum(math.exp(s - top) for s in scores.values())
        for c in model.classes:
            p = math.exp(scores[c] - top) / z
            features, pad = active[c]
            for feature in features:
                expected[feature] += p
            exp_corr += p * pad
            if c == label:
                for feature in features:
                    empirical[feature] += 1.0
                emp_corr += pad
    return empirical, expected, emp_corr, exp_corr


def oracle_entropy(labels):
    n = len(labels)
    if n == 0:
        return 0.0
    counts = Counter(labels)
    return -sum((c / n) * math.log2(c / n) for c in counts.values())


def oracle_information_gain(items, slot):
    labels = [label for _, label in items]
    groups = {}
    for vector, label in items:
        groups.setdefault(vector[slot], []).append(label)
    remainder = sum(
        (len(group) / len(items)) * oracle_entropy(group) for group in groups.values()
    )
    return oracle_entropy(labels) - remainder


def oracle_gain_ratio(items, slot):
    split = oracle_entropy([vector[slot] for vector, _ in items])
    if split == 0.0:
        return 0.0
    return min(1.0, max(0.0, oracle_information_gain(items, slot)) / split)


def _tally_entropy(counts, total):
    h = 0.0
    for c in counts:
        if c:
            p = c / total
            h -= p * math.log2(p)
    return h


def reference_information_gain(items, slot):
    """Information gain tallied item by item, one Counter per slot value.

    Unlike the oracles above, its sums run in exactly the order the
    package's must, so results compare with ``==``.
    """
    total = len(items)
    class_counts = Counter(label for _, label in items)
    by_value = {}
    for vector, label in items:
        by_value.setdefault(vector[slot], Counter())[label] += 1
    conditional = 0.0
    for labels in by_value.values():
        n = sum(labels.values())
        conditional += (n / total) * _tally_entropy(labels.values(), n)
    return max(0.0, _tally_entropy(class_counts.values(), total) - conditional)


def reference_gain_ratio(items, slot):
    """Gain ratio tallied item by item; see ``reference_information_gain``."""
    value_counts = Counter(vector[slot] for vector, _ in items)
    split = _tally_entropy(value_counts.values(), len(items))
    if split == 0.0:
        return 0.0
    return min(1.0, reference_information_gain(items, slot) / split)


def oracle_properly_nested(spans):
    """Every pair of spans compared: none may cross."""
    spans = list(spans)
    for i, a in enumerate(spans):
        for b in spans[i + 1:]:
            lo, hi = (a, b) if (a.begin, a.end) <= (b.begin, b.end) else (b, a)
            if lo.begin < hi.begin < lo.end < hi.end:
                return False
    return True


def oracle_features(sentence, index, slot_names, tags):
    """Each slot's value read off its name alone.

    ``w[-2]`` is the word two tokens left of ``index``, ``p[+0]`` the
    focus pos tag, ``t[-1]`` the previous entry of ``tags``; a position
    outside the sentence reads ``__PAD__``.  ``a&b`` joins the values of
    slots ``a`` and ``b`` with ``|``.
    """

    def value(name):
        if "&" in name:
            left, right = name.split("&")
            return value(left) + "|" + value(right)
        source, offset = name[0], int(name[2:-1])
        if source == "t":
            column = list(tags)
        elif source == "w":
            column = [token.word for token in sentence.tokens]
        else:
            column = [token.pos for token in sentence.tokens]
        position = index + offset
        return column[position] if 0 <= position < len(column) else "__PAD__"

    return tuple(value(name) for name in slot_names)


def _oracle_blocks(text):
    """Each sentence's (line number, fields) pairs; a line of no fields ends one."""
    block = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        fields = line.split()
        if fields:
            block.append((lineno, fields))
        elif block:
            yield block
            block = []
    if block:
        yield block


def oracle_parse_conll(text, scheme, columns=3, strict=True):
    """A chunk file read token by token: one Token per line, checked as built."""
    if columns not in (2, 3):
        raise ValidationError(f"columns must be 2 or 3, got {columns}")
    sentences = []
    for block in _oracle_blocks(text):
        tokens = []
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


_ORACLE_BRACKET = re.compile(r"((?:\((?!O[(*])[A-Za-z0-9]+)*)\*(\)*)")  # chunk type O is reserved


def oracle_parse_nested(text):
    """A bracket file read token by token, a stack of open brackets per sentence."""
    sentences = []
    for block in _oracle_blocks(text):
        tokens, spans, stack = [], [], []
        for lineno, fields in block:
            if len(fields) != 3:
                raise ParseError(f"line {lineno}: expected 3 columns, got {len(fields)}")
            word, pos, bracket = fields
            match = _ORACLE_BRACKET.fullmatch(bracket)
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


def oracle_innermost_level(remaining):
    """The deepest spans by comparing every pair, one per distinct range.

    A span qualifies when no other span lies strictly inside it; of the
    spans sharing a range the one with the largest label comes out.
    Returned in order of their begins.
    """

    def strictly_inside(inner, outer):
        return (
            outer.begin <= inner.begin
            and inner.end <= outer.end
            and (inner.begin, inner.end) != (outer.begin, outer.end)
        )

    leaves = [span for span in remaining if not any(strictly_inside(o, span) for o in remaining)]
    by_range = {}
    for span in leaves:
        key = (span.begin, span.end)
        if key not in by_range or span.label > by_range[key].label:
            by_range[key] = span
    return sorted(by_range.values(), key=lambda s: s.begin)


def oracle_write_conll(corpus):
    """A chunk file written token by token."""
    parts = []
    for sentence in corpus.sentences:
        for t in sentence.tokens:
            tag = "" if t.chunk_tag is None else f" {t.chunk_tag}"
            parts.append(f"{t.word} {t.pos}{tag}\n")
        parts.append("\n")
    return "".join(parts)


def oracle_write_nested(sentences):
    """A bracket file written token by token, openers outermost first."""
    parts = []
    for nested in sentences:
        tokens = nested.sentence.tokens
        openers = [[] for _ in tokens]
        closers = [0] * len(tokens)
        for span in sorted(nested.spans, key=lambda s: (s.begin, -s.end, s.label)):
            openers[span.begin].append(span.label)
            closers[span.end - 1] += 1
        for i, token in enumerate(tokens):
            bracket = "".join(f"({label}" for label in openers[i]) + "*" + ")" * closers[i]
            parts.append(f"{token.word} {token.pos} {bracket}\n")
        parts.append("\n")
    return "".join(parts)


# The cascade as it was written over collapse maps: a tuple of original
# (begin, end) ranges per collapsed position, rebuilt and re-checked by a
# sorting ``collapse`` every round and composed with the previous map.

def _reference_original_range(mapping, begin, end):
    if not 0 <= begin < end <= len(mapping):
        raise ValidationError(f"range ({begin}, {end}) outside collapse map")
    return mapping[begin][0], mapping[end - 1][1]


def _reference_collapse(sentence, spans, head):
    ordered = sorted(spans, key=lambda s: s.begin)
    for left, right in zip(ordered, ordered[1:]):
        if right.begin < left.end:
            raise ValidationError(f"cannot collapse overlapping spans {left} and {right}")
    for span in ordered:
        if span.end > len(sentence):
            raise ValidationError(f"span {span} outside sentence of length {len(sentence)}")
    mapping = []
    position = 0
    for span in ordered:
        mapping += ((i, i + 1) for i in range(position, span.begin))
        mapping.append((span.begin, span.end))
        position = span.end
    mapping += ((i, i + 1) for i in range(position, len(sentence)))
    heads = [end - 1 for _, end in mapping] if head == "last" else [begin for begin, _ in mapping]
    words = tuple(sentence.words[i] for i in heads)
    pos_tags = tuple(sentence.pos_tags[i] for i in heads)
    return Sentence.from_checked(words, pos_tags), tuple(mapping)


def reference_cascade_bracket(sentence, tagger, max_depth=5, head="last"):
    """``cascade_bracket`` over collapse maps."""
    stripped = current = strip_tags(sentence)
    mapping = tuple((i, i + 1) for i in range(len(sentence)))
    found = {}
    for _ in range(max_depth):
        tags = tagger(current)
        for tag in dict.fromkeys(tags):
            check_chunk_tag(tag)
        level_spans = extract_chunks(tags)
        if not level_spans:
            break
        translated = [ChunkSpan(*_reference_original_range(mapping, s.begin, s.end), s.label)
                      for s in level_spans]
        new = [s for s in translated if s not in found]
        for s in new:
            found[s] = None
        if not new:
            break
        current, level_map = _reference_collapse(current, level_spans, head)
        mapping = tuple(_reference_original_range(mapping, b, e) for b, e in level_map)
        if len(current) == 1:
            break
    return NestedSentence(stripped, tuple(found))


def reference_cascade_training_corpus(sentences, head="last"):
    """``cascade_training_corpus`` over collapse maps, each level picked by
    ``oracle_innermost_level`` on the remaining spans in collapsed offsets."""
    flat = []
    for nested in sentences:
        current = nested.sentence
        remaining = list(nested.spans)
        mapping = tuple((i, i + 1) for i in range(len(current)))
        while remaining:
            begins = {begin: i for i, (begin, _) in enumerate(mapping)}
            ends = {end: i + 1 for i, (_, end) in enumerate(mapping)}
            local = [ChunkSpan(begins[s.begin], ends[s.end], s.label) for s in remaining]
            level = oracle_innermost_level(local)
            flat.append(with_tags(current, tags_from_chunks(len(current), level, TagScheme.IOB2)))
            for s in level:
                remaining.remove(ChunkSpan(*_reference_original_range(mapping, s.begin, s.end), s.label))
            current, level_map = _reference_collapse(current, level, head)
            mapping = tuple(_reference_original_range(mapping, b, e) for b, e in level_map)
        flat.append(with_tags(current, ["O"] * len(current)))
    return Corpus(tuple(flat), TagScheme.IOB2)


# The column readers as they were written a line at a time: each line's
# fields pooled as it is split and checked by ``Token``, each sentence's
# spans sorted and checked for nesting by ``NestedSentence``, and every
# sentence's tags scanned.

def reference_column_blocks(text):
    """``column_blocks`` pooling each line's fields as it is split."""
    share = {}.setdefault
    block = []
    for lineno, fields in enumerate(map(str.split, text.splitlines()), start=1):
        if fields:
            block.append(list(map(share, fields, fields)))
        elif block:
            yield lineno - len(block), block
            block = []
    if block:
        yield lineno + 1 - len(block), block


def reference_validate_corpus(corpus):
    """``validate_corpus`` scanning every tagged sentence."""
    for si, sentence in enumerate(corpus.sentences, start=1):
        tags = sentence.chunk_tags
        if any(tag is None for tag in tags):
            continue
        ti = scheme_violation(tags, corpus.scheme)
        if ti is not None:
            raise ValidationError(
                f"sentence {si}, token {ti + 1}: tag {tags[ti]!r} is illegal under {corpus.scheme.value}"
            )


def reference_parse_conll(text, scheme, columns=3, strict=True):
    """``parse_conll`` over ``reference_column_blocks``."""
    if columns not in (2, 3):
        raise ValidationError(f"columns must be 2 or 3, got {columns}")
    sentences = []
    for first, rows in reference_column_blocks(text):
        for i, line in enumerate(rows):
            if len(line) != columns:
                raise ParseError(f"line {first + i}: expected {columns} columns, got {len(line)}")
            try:
                Token(*line)
            except ValidationError as exc:
                where = f"sentence {len(sentences) + 1}, token {i + 1} (line {first + i})"
                raise ValidationError(f"{where}: {exc}") from None
        sentences.append(Sentence.from_checked(*zip(*rows)))
    corpus = Corpus(tuple(sentences), scheme)
    if strict and columns == 3:
        reference_validate_corpus(corpus)
    return corpus


def _reference_bracket_spans(rows, first, number, parsed, pool):
    """The spans of one sentence in closing order, innermost first."""
    spans = []
    stack = []
    for i, fields in enumerate(rows):
        line = first + i
        if len(fields) != 3:
            raise ParseError(f"line {line}: expected 3 columns, got {len(fields)}")
        if fields[2] not in parsed:
            match = _ORACLE_BRACKET.fullmatch(fields[2])
            parsed[fields[2]] = match and (match[1].split("(")[1:], len(match[2]))
        if not parsed[fields[2]]:
            raise ParseError(f"line {line}: bad bracket field {fields[2]!r}")
        labels, closers = parsed[fields[2]]
        for label in labels:
            stack.append((label, i))
        try:
            Token(*fields[:2])
        except ValidationError as exc:
            raise ValidationError(f"line {line}: {exc}") from None
        if closers > len(stack):
            raise ParseError(f"sentence {number} (line {line}): unmatched closer")
        for _ in range(closers):
            label, begin = stack.pop()
            key = (begin, i + 1, label)
            if key not in pool:
                pool[key] = ChunkSpan(*key)
            spans.append(pool[key])
    if stack:
        raise ParseError(f"sentence {number} (line {line}): {len(stack)} unclosed bracket(s)")
    return spans


def reference_parse_nested(text):
    """``parse_nested`` through the checking ``NestedSentence`` constructor."""
    sentences = []
    parsed, pool = {}, {}
    for first, rows in reference_column_blocks(text):
        spans = _reference_bracket_spans(rows, first, len(sentences) + 1, parsed, pool)
        words, pos_tags, _ = zip(*rows)
        sentences.append(NestedSentence(Sentence.from_checked(words, pos_tags), spans))
    return sentences


def reference_read_table(text):
    """``read_table`` building a row per line of ``reference_column_blocks``,
    each field checked as ``Token`` checks it as it is read."""
    blocks = reference_column_blocks(text)
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
    sentences = []
    for start, block in itertools.chain([(start + 1, rest)], blocks):
        rows = []
        for lineno, fields in enumerate(block, start):
            if len(fields) != width:
                raise ParseError(f"line {lineno}: expected {width} columns, got {len(fields)}")
            for i, field in enumerate(fields):
                try:
                    Token("w", field) if i == has_gold else Token("w", "p", field)
                except ValidationError as exc:
                    raise ValidationError(f"line {lineno}: {exc}") from None
            rows.append(PredictionRow(fields[has_gold], tuple(fields[1 + has_gold:]),
                                      fields[0] if has_gold else None))
        if rows:
            sentences.append(tuple(rows))
    return PredictionTable(tuple(header[1 + has_gold:]), tuple(sentences))


def reference_train_maxent(dataset, iterations, sigma=None, cutoff=2):
    """``train_maxent`` holding one tuple of feature ids per unique vector
    and class, with features numbered in order of first occurrence over
    the unique vectors.  A pass sums each class's lambdas and adds each
    expected count in the package's float order."""
    class_counts = dataset.class_counts()
    classes = tuple(sorted(class_counts))
    class_ids = {c: ci for ci, c in enumerate(classes)}
    label_counts = {}
    for vector, label in dataset.items:
        counts = label_counts.setdefault(vector, {})
        counts[label] = counts.get(label, 0) + 1
    raw = Counter()
    for vector, counts in label_counts.items():
        for label, n in counts.items():
            for slot, value in enumerate(vector):
                raw[(slot, value, label)] += n
    features = [feat for feat, n in raw.items() if n >= cutoff]
    empirical = [float(raw[feat]) for feat in features]
    by_value = {}
    for fid, (slot, value, label) in enumerate(features):
        by_value.setdefault((slot, value), []).append((class_ids[label], fid))
    active, gold, totals = [], [], []
    for vector, counts in label_counts.items():
        per_class = [[] for _ in classes]
        for slot_value in enumerate(vector):
            for ci, fid in by_value.get(slot_value, ()):
                per_class[ci].append(fid)
        active.append(per_class)
        gold.append(sorted((class_ids[label], n) for label, n in counts.items()))
        totals.append(sum(counts.values()))
    constant = max(1, max(len(ids) for per_class in active for ids in per_class))
    emp_corr = 0.0
    for per_class, pairs in zip(active, gold):
        for ci, n in pairs:
            emp_corr += n * (constant - len(per_class[ci]))
    lambdas = [0.0] * len(features)
    corr_lambda = 0.0

    def pass_over_data(expected):
        exp_c = 0.0
        ll = 0.0
        for per_class, total, pairs in zip(active, totals, gold):
            scores = []
            for ids in per_class:
                s = corr_lambda * (constant - len(ids))
                for fid in ids:
                    s += lambdas[fid]
                scores.append(s)
            top = max(scores)
            exps = [math.exp(s - top) for s in scores]
            z = 0.0
            for e in exps:
                z += e
            log_z = top + math.log(z)
            if expected is not None:
                for ids, e in zip(per_class, exps):
                    w = total * (e / z)
                    for fid in ids:
                        expected[fid] += w
                    exp_c += w * (constant - len(ids))
            for ci, n in pairs:
                ll += n * (scores[ci] - log_z)
        return exp_c, ll

    loglik = []
    for _ in range(iterations):
        expected = [0.0] * len(features)
        exp_corr, ll = pass_over_data(expected)
        loglik.append(ll)
        for fid in range(len(features)):
            lambdas[fid] += _gis_delta(empirical[fid], expected[fid], lambdas[fid], constant, sigma)
        if emp_corr > 0.0:
            corr_lambda += _gis_delta(emp_corr, exp_corr, corr_lambda, constant, sigma)
    loglik.append(pass_over_data(None)[1])
    return MaxEntModel(
        weights=dict(zip(features, lambdas)), classes=classes, constant=constant,
        correction=corr_lambda, class_counts=dict(class_counts), slot_names=dataset.slot_names,
        trace=MaxEntTrace(loglik=tuple(loglik), iterations=iterations),
    )
