"""Trainable base chunkers sharing one prediction contract.

Five learner kinds are provided:

* ``baseline``: the most frequent chunk tag per pos tag, trained as an
  ``igtree`` over the focus pos tag alone;
* ``knn``: nearest neighbour classification over the stored training
  items, slots weighted by gain ratio, where k counts distance values
  rather than items;
* ``igtree``: an oblivious decision tree whose levels test the slots in
  order of decreasing gain ratio, with the modal class stored at every
  node as the fallback answer;
* ``maxent``: a conditional maximum entropy model trained by iterative
  scaling over (slot value, class) indicator features;
* ``rules``: per focus value default rules refined with context premises
  until they reach an accuracy threshold.

All models predict a chunk tag for one feature vector at a time and tag a
sentence left to right, feeding their own previous decisions back in as
the left chunk tag context.  Ties anywhere are broken in favour of the
candidate seen more often in training, then alphabetically, so training
and prediction are fully deterministic.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from collections.abc import Callable, Iterable, Mapping, Sequence
from functools import cached_property
from operator import itemgetter

from .corpus import Corpus, Record, Sentence, TagScheme, check_system_name, pick_best, with_tags
from .errors import ConfigError, ValidationError
from .features import (
    Dataset,
    FeatureVector,
    WindowConfig,
    corpus_to_dataset,
    slot_gains,
    window_vectors,
)

WEIGHTINGS = ("gain_ratio", "information_gain")
_set = object.__setattr__  # records are frozen; their constructors fill them


def _check_options(**options: object) -> None:
    """Raise ConfigError for the first learner option, in the order given, out of range."""
    for name, value in options.items():
        if name in ("k", "iterations", "cutoff") and value < 1:
            raise ConfigError(f"{name} must be >= 1, got {value}")
        # The Gaussian penalty divides by sigma^2, which must not underflow
        # to 0 nor leave an inverse that overflows.
        if name == "sigma" and value is not None and not (
                0 < value < math.inf and value * value > 0 and math.isfinite(1.0 / (value * value))):
            raise ConfigError(f"sigma must be a finite number > 0 with a finite 1 / sigma^2, got {value}")
        if name == "threshold" and not 0.0 < value <= 1.0:
            raise ConfigError(f"threshold must be in (0, 1], got {value}")
        if name == "weighting" and value not in WEIGHTINGS:
            raise ConfigError(f"unknown weighting {value!r}, expected one of {WEIGHTINGS}")


#---------------------------------------------------------------------------
# io encoding

def io_corpus(corpus: Corpus) -> Corpus:
    """Rewrite every B tag as an I tag, keeping only an inside/outside split.

    The result is a legal IOB1 corpus; adjacent chunks of the same type
    become indistinguishable, which is the price of the two-tag encoding.
    """
    sentences = (with_tags(s, [t and t.replace("B-", "I-", 1) for t in s.chunk_tags])
                 for s in corpus.sentences)
    return Corpus(tuple(sentences), TagScheme.IOB1)


#---------------------------------------------------------------------------
# nearest neighbour

class KnnIndex(Record):
    """Item sets over a k-NN memory, as bitsets whose bit i stands for
    ``memory[i]``.

    ``order`` holds the slots of positive weight, heaviest first (ties by
    slot index), and ``postings[j]`` maps each value of slot ``order[j]``
    to the items holding it: their bitset, or for a value held by fewer
    than ``RARE_POSTINGS`` items their sorted positions, whose bitset a
    query builds when it needs it.  A bitset is as wide as the highest
    position it holds, so positions keep the many rare word values small.
    Zero-weight slots are left out: a mismatch on them adds 0.0, which
    leaves every distance unchanged.  ``distances`` caches the distance of
    each mismatch slot mask met so far.
    """

    _fields = ("order", "postings", "labels", "everything", "distances")

    def __init__(self, order: tuple[int, ...], postings: tuple[dict[str, int | array], ...],
                 labels: dict[str, int], everything: int, distances: dict[int, float]):
        self._init(order, postings, labels, everything, distances)


RARE_POSTINGS = 64


def _bitset(positions: Sequence[int]) -> int:
    """Int with the given ascending bit positions set."""
    buffer = bytearray(positions[-1] // 8 + 1)
    for i in positions:
        buffer[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(buffer, "little")


def _group_positions(values, rare: int = 0) -> dict[str, int | array]:
    """Each distinct value with the positions holding it: a sorted
    ``array('I')`` when fewer than ``rare``, else their bitset."""
    groups: dict[str, array] = {}
    for i, value in enumerate(values):
        positions = groups.get(value)
        if positions is None:
            positions = groups[value] = array("I")
        positions.append(i)
    return {
        value: positions if len(positions) < rare else _bitset(positions)
        for value, positions in groups.items()
    }


def _mask_distance(weights: tuple[float, ...], mask: int) -> float:
    # Summed in slot order, exactly as a slot by slot comparison would.
    d = 0.0
    for slot, w in enumerate(weights):
        if mask >> slot & 1:
            d += w
    return d


def predict_knn(model: KnnModel, vector: FeatureVector) -> str:
    """Majority class over the k nearest distance values.

    The distance between two vectors is the sum of the weights of the
    slots on which they disagree; all items sharing one of the k smallest
    distinct distances vote.

    The search is exact.  It walks the slots heaviest first, splitting the
    current item bitset into the items that match the query on the slot
    and those that do not, matches first.  A branch is cut once its
    mismatch weight exceeds the k-th smallest distance found so far, with
    a relative slack of 1e-9 so that no tie is cut.  Each surviving leaf's
    distance is summed from its mismatch mask in slot order, so equal
    distances compare equal exactly as in a brute-force scan.
    """
    if len(vector) != len(model.slot_names):
        raise ValidationError(f"vector arity {len(vector)}, model expects {len(model.slot_names)}")
    index = model.index
    weights = model.weights
    order = index.order
    depth_end = len(order)
    matching = [postings.get(vector[s], 0) for s, postings in zip(order, index.postings)]
    matching = [items if type(items) is int else _bitset(items) for items in matching]
    costs = [weights[s] for s in order]
    bits = [1 << s for s in order]
    distances = index.distances
    k = model.k
    nearest: dict[float, int] = {}  # the k smallest distances so far -> their items
    bound = math.inf

    def leaf(items: int, mask: int) -> None:
        nonlocal bound
        d = distances.get(mask)
        if d is None:
            d = distances[mask] = _mask_distance(weights, mask)
        if d in nearest:
            nearest[d] |= items
            return
        if len(nearest) == k:
            worst = max(nearest)
            if d > worst:
                return
            del nearest[worst]
        nearest[d] = items
        if len(nearest) == k:
            bound = max(nearest) * (1.0 + 1e-9)

    def search(depth: int, items: int, mask: int, spent: float) -> None:
        if depth == depth_end:
            leaf(items, mask)
            return
        match = items & matching[depth]
        if match:
            search(depth + 1, match, mask, spent)
        rest = items ^ match
        if rest:
            spent += costs[depth]
            if spent <= bound:
                search(depth + 1, rest, mask | bits[depth], spent)

    search(0, index.everything, 0, 0.0)
    near = 0
    for items in nearest.values():
        near |= items
    votes = {}
    for label, items in index.labels.items():
        n = (near & items).bit_count()
        if n:
            votes[label] = n
    return pick_best(votes, model.class_counts)


class KnnModel(Record):
    kind = "knn"
    _fields = ("memory", "weights", "k", "class_counts", "slot_names", "window")
    predict = predict_knn

    def __init__(self, memory: tuple[tuple[FeatureVector, str], ...], weights: tuple[float, ...],
                 k: int, class_counts: Mapping[str, int], slot_names: tuple[str, ...],
                 window: WindowConfig | None = None):
        self._init(memory, weights, k, class_counts, slot_names, window)

    @cached_property
    def index(self) -> KnnIndex:
        """The search index, built on first use; not a field, so never
        compared, printed or saved."""
        weights = self.weights
        order = tuple(sorted((s for s, w in enumerate(weights) if w > 0),
                             key=lambda s: (-weights[s], s)))
        return KnnIndex(
            order=order,
            postings=tuple(
                _group_positions((v[s] for v, _ in self.memory), RARE_POSTINGS) for s in order
            ),
            labels=_group_positions(label for _, label in self.memory),
            everything=(1 << len(self.memory)) - 1,
            distances={},
        )


def valid_knn_weights(weights: Sequence[float]) -> bool:
    """Whether every weight is finite and non-negative, as the exact search
    in ``predict_knn`` needs."""
    return all(math.isfinite(w) and w >= 0.0 for w in weights)


def train_knn(
    dataset: Dataset,
    k: int,
    weighting: str = "gain_ratio",
    window: WindowConfig | None = None,
) -> KnnModel:
    """Store the dataset verbatim together with per slot relevance weights."""
    _check_options(k=k, weighting=weighting)
    return KnnModel(
        memory=dataset.items,
        weights=tuple(slot_gains(dataset, ratio=weighting == "gain_ratio")),
        k=k,
        class_counts=dict(dataset.class_counts()),
        slot_names=dataset.slot_names,
        window=window,
    )


#---------------------------------------------------------------------------
# oblivious decision tree ordered by slot relevance

class IGTreeNode(Record):
    __slots__ = _fields = ("default", "children")

    def __init__(self, default: str, children: Mapping[str, IGTreeNode]):
        _set(self, "default", default)
        _set(self, "children", children)


def predict_igtree(model: IGTreeModel, vector: FeatureVector) -> str:
    """Walk the tree in slot order; a missing branch answers with the default."""
    if len(vector) != len(model.slot_names):
        raise ValidationError(f"vector arity {len(vector)}, model expects {len(model.slot_names)}")
    node = model.root
    for slot in model.feature_order:
        if not node.children:
            break
        child = node.children.get(vector[slot])
        if child is None:
            break
        node = child
    return node.default


class IGTreeModel(Record):
    kind = "igtree"
    _fields = ("feature_order", "root", "class_counts", "slot_names", "window")
    predict = predict_igtree

    def __init__(self, feature_order: tuple[int, ...], root: IGTreeNode, class_counts: Mapping[str, int],
                 slot_names: tuple[str, ...], window: WindowConfig | None = None):
        self._init(feature_order, root, class_counts, slot_names, window)


def train_igtree(
    dataset: Dataset,
    weighting: str = "gain_ratio",
    window: WindowConfig | None = None,
) -> IGTreeModel:
    """Partition the data slot by slot, most relevant slot first.

    Branching stops as soon as a node is class-pure or no slots remain;
    every node keeps the modal class of its items as the default answer
    for unseen branch values.
    """
    _check_options(weighting=weighting)
    weights = slot_gains(dataset, ratio=weighting == "gain_ratio")
    order = tuple(sorted(range(dataset.arity), key=lambda s: (-weights[s], s)))
    global_counts = dataset.class_counts()

    # Nodes still to branch, with their items and depth; an explicit stack,
    # so that no tree is too deep to train.
    pending: list[tuple[IGTreeNode, Sequence[tuple[FeatureVector, str]], int]] = []

    def node(items: Sequence[tuple[FeatureVector, str]], depth: int) -> IGTreeNode:
        counts = Counter(label for _, label in items)
        made = IGTreeNode(pick_best(counts, global_counts), {})
        if len(counts) > 1 and depth < len(order):
            pending.append((made, items, depth))
        return made

    root = node(dataset.items, 0)
    while pending:
        parent, items, depth = pending.pop()
        slot = order[depth]
        groups: dict[str, list] = {}
        for item in items:
            groups.setdefault(item[0][slot], []).append(item)
        for value, group in groups.items():
            parent.children[value] = node(group, depth + 1)  # type: ignore[index]
    return IGTreeModel(
        feature_order=order,
        root=root,
        class_counts=dict(global_counts),
        slot_names=dataset.slot_names,
        window=window,
    )


#---------------------------------------------------------------------------
# maximum entropy

class MaxEntTrace(Record):
    """Training diagnostics: log likelihood per iteration and under the final weights.

    Given ``last``, ``loglik`` lacks its final entry until first read, when
    ``last()`` computes it and is dropped with the training data it holds;
    so ``train_maxent``'s final pass runs only for a trace that is read.
    """

    _fields = ("loglik", "iterations")

    def __init__(self, loglik: tuple[float, ...], iterations: int,
                 last: Callable[[], float] | None = None):
        if last is None:
            self._init(loglik, iterations)
        else:
            _set(self, "iterations", iterations)
            _set(self, "_pending", (loglik, last))

    @cached_property
    def loglik(self) -> tuple[float, ...]:
        head, last = vars(self)["_pending"]
        loglik = (*head, last())
        del vars(self)["_pending"]
        return loglik


def predict_maxent(model: MaxEntModel, vector: FeatureVector) -> str:
    return pick_best(model.scores(vector), model.class_counts)


class MaxEntModel(Record):
    kind = "maxent"
    _fields = ("weights", "classes", "constant", "correction", "class_counts", "slot_names", "window")
    predict = predict_maxent

    def __init__(self, weights: Mapping[tuple[int, str, str], float], classes: tuple[str, ...],
                 constant: int, correction: float, class_counts: Mapping[str, int],
                 slot_names: tuple[str, ...], window: WindowConfig | None = None,
                 trace: MaxEntTrace | None = None):
        self._init(weights, classes, constant, correction, class_counts, slot_names, window)
        _set(self, "trace", trace)  # not a field, so never compared or printed

    @cached_property
    def index(self) -> list[dict[str, list[tuple[int, float]]]]:
        """Per slot, each value with the (class index, weight) pairs of its
        features, built on first use; not a field, so never compared,
        printed or saved."""
        return _by_slot_value(self.weights.items(), self.classes, len(self.slot_names))

    def scores(self, vector: FeatureVector) -> dict[str, float]:
        if len(vector) != len(self.slot_names):
            raise ValidationError(f"vector arity {len(vector)}, model expects {len(self.slot_names)}")
        totals = [0.0] * len(self.classes)
        active = [0] * len(self.classes)
        # Each class's weights are added in slot order.
        for pairs in filter(None, map(dict.get, self.index, vector)):
            for ci, lam in pairs:
                totals[ci] += lam
                active[ci] += 1
        return {c: score + self.correction * (self.constant - n)
                for c, score, n in zip(self.classes, totals, active)}


def _by_slot_value(features: Iterable[tuple[tuple[int, str, str], object]], classes: Sequence[str],
                   arity: int) -> list[dict]:
    """Per slot, each value with the (class index, payload) pairs of its
    ((slot, value, class), payload) ``features``; raises ValidationError
    for a feature whose slot is not one of the ``arity`` slots or whose
    class is not in ``classes``."""
    class_ids = {c: ci for ci, c in enumerate(classes)}
    index: list[dict[str, list]] = [{} for _ in range(arity)]
    for (slot, value, c), payload in features:
        try:
            ci = class_ids[c]
        except KeyError:
            raise ValidationError(
                f"feature {(slot, value, c)} has class {c!r}, not one of the model's classes"
            ) from None
        if not 0 <= slot < arity:
            raise ValidationError(f"feature {(slot, value, c)} has slot {slot}, outside the {arity} slots")
        index[slot].setdefault(value, []).append((ci, payload))
    return index


def _sum_in_order(values) -> float:
    """Left-to-right float sum; ``sum`` compensates from Python 3.12 on,
    which would make maxent model files depend on the interpreter."""
    total = 0.0
    for value in values:
        total += value
    return total


def _gis_delta(emp: float, exp_: float, lam: float, constant: int, sigma: float | None) -> float:
    if sigma is None:
        return math.log(emp / exp_) / constant
    # Gaussian penalty: solve emp = exp * e^(C d) + (lam + d) / sigma^2 for d.
    inv = 1.0 / (sigma * sigma)
    delta = 0.0
    for _ in range(50):
        e = exp_ * math.exp(constant * delta)
        g = e + (lam + delta) * inv - emp
        step = g / (constant * e + inv)
        delta -= step
        if abs(step) < 1e-14:
            break
    return delta


def train_maxent(
    dataset: Dataset,
    iterations: int,
    sigma: float | None = None,
    cutoff: int = 2,
    window: WindowConfig | None = None,
) -> MaxEntModel:
    """Iterative scaling over (slot value, class) indicator features.

    Features seen fewer than ``cutoff`` times are dropped.  Every item is
    padded to a constant number of active features by one shared
    correction feature, and each iteration moves every weight by
    log(empirical / expected) divided by that constant.  With ``sigma``
    set, weights shrink towards 0 under a Gaussian penalty.
    """
    _check_options(iterations=iterations, cutoff=cutoff, sigma=sigma)
    class_counts = dataset.class_counts()
    classes = tuple(sorted(class_counts))

    # The label counts of each unique vector; chunking data repeats contexts heavily.
    label_counts: dict[FeatureVector, dict[str, int]] = {}
    for vector, label in dataset.items:
        counts = label_counts.get(vector)
        if counts is None:
            label_counts[vector] = {label: 1}
        else:
            counts[label] = counts.get(label, 0) + 1

    # Each slot's (value, label) pairs are counted in C, as slot_gains
    # counts them, so features are numbered slot by slot.
    item_vectors = list(map(itemgetter(0), dataset.items))
    item_labels = list(map(itemgetter(1), dataset.items))
    features: list[tuple[int, str, str]] = []
    empirical: list[float] = []
    for slot in range(dataset.arity):
        for (value, label), n in Counter(zip(map(itemgetter(slot), item_vectors), item_labels)).items():
            if n >= cutoff:
                features.append((slot, value, label))
                empirical.append(float(n))
    del item_vectors, item_labels
    n_features = len(features)
    class_ids = {c: ci for ci, c in enumerate(classes)}
    # Each unique vector's (class index, count) pairs, in class order; one
    # tuple per distinct pattern, since few patterns cover most vectors.
    patterns: dict[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]] = {}
    gold = [patterns.setdefault(pairs, pairs)
            for pairs in (tuple(sorted((class_ids[label], n) for label, n in counts.items()))
                          for counts in label_counts.values())]
    totals = [sum(counts.values()) for counts in label_counts.values()]
    vectors = list(label_counts)
    del label_counts

    # Per unique vector, the (class index, feature id) pairs of each of its
    # (slot, value)s, in slot order, as one tuple per (slot, value) that all
    # vectors share.
    slot_dicts = [{value: tuple(pairs) for value, pairs in by_value.items()}
                  for by_value in _by_slot_value(zip(features, range(n_features)), classes, dataset.arity)]
    active = [tuple(filter(None, map(dict.get, slot_dicts, vector))) for vector in vectors]
    del vectors

    # The first pass runs at all-zero weights: every score is 0.0, so each
    # class gets total * (1 / |classes|) and log Z is log |classes|, the
    # very floats a scored pass computes.  Every id of a (slot, value) gets
    # the same additions in the same vector order, so they are summed at the
    # key's first id and copied to the rest.  Each vector's features are
    # counted per class, which the correction feature pads up to the
    # constant; with at most one feature per slot and class, under 256 slots
    # the counts fit in bytes, a third of a tuple's size at 11 classes.
    share = 1.0 / len(classes)
    log_z = math.log(len(classes))
    expected = [0.0] * n_features
    pack = bytes if dataset.arity < 256 else tuple
    active_counts = []
    for keys, total in zip(active, totals):
        w = total * share
        n = [0] * len(classes)
        for pairs in keys:
            expected[pairs[0][1]] += w
            for ci, _ in pairs:
                n[ci] += 1
        active_counts.append(pack(n))
    for by_value in slot_dicts:
        for pairs in by_value.values():
            w = expected[pairs[0][1]]
            for _, fid in pairs:
                expected[fid] = w
    del slot_dicts
    constant = max(1, max(map(max, active_counts)))
    emp_corr = exp_corr = ll = 0.0
    for n, total, pairs in zip(active_counts, totals, gold):
        w = total * share
        for k in n:
            exp_corr += w * (constant - k)
        for ci, k in pairs:
            emp_corr += k * (constant - n[ci])
            ll -= k * log_z

    lambdas = [0.0] * n_features
    corr_lambda = 0.0
    loglik: list[float] = []

    def pass_over_data(expected: list[float] | None) -> tuple[float, float]:
        """The correction's expected count and the log likelihood; adds each
        feature's expected count to ``expected`` unless it is None.  Each
        class's score starts at its correction term and adds its lambdas
        slot by slot."""
        exp_c = 0.0
        ll = 0.0
        for keys, n, total, pairs in zip(active, active_counts, totals, gold):
            scores = [corr_lambda * (constant - k) for k in n]
            for key_pairs in keys:
                for ci, fid in key_pairs:
                    scores[ci] += lambdas[fid]
            top = max(scores)
            exps = [math.exp(s - top) for s in scores]
            z = _sum_in_order(exps)
            log_z = top + math.log(z)
            if expected is not None:
                ws = [total * (e / z) for e in exps]
                for key_pairs in keys:
                    for ci, fid in key_pairs:
                        expected[fid] += ws[ci]
                for k, w in zip(n, ws):
                    exp_c += w * (constant - k)
            for ci, k in pairs:
                ll += k * (scores[ci] - log_z)
        return exp_c, ll

    for iteration in range(iterations):
        if iteration:
            expected = [0.0] * n_features
            exp_corr, ll = pass_over_data(expected)
        loglik.append(ll)
        for fid in range(n_features):
            lambdas[fid] += _gis_delta(empirical[fid], expected[fid], lambdas[fid], constant, sigma)
        if emp_corr > 0.0:
            corr_lambda += _gis_delta(emp_corr, exp_corr, corr_lambda, constant, sigma)
        del expected  # before the next pass makes its own

    # The trace holds the layout until its last entry is read.
    return MaxEntModel(
        weights=dict(zip(features, lambdas)),
        classes=classes,
        constant=constant,
        correction=corr_lambda,
        class_counts=dict(class_counts),
        slot_names=dataset.slot_names,
        window=window,
        trace=MaxEntTrace(tuple(loglik), iterations, last=lambda: pass_over_data(None)[1]),
    )


#---------------------------------------------------------------------------
# refined rules

class Rule(Record):
    _fields = ("premises", "conclusion", "accuracy", "support")

    def __init__(self, premises: tuple[tuple[int, str], ...], conclusion: str, accuracy: float,
                 support: int):
        self._init(premises, conclusion, accuracy, support)

    def matches(self, vector: FeatureVector) -> bool:
        return all(vector[slot] == value for slot, value in self.premises)


def _first_match(rules: tuple[Rule, ...], positions: Sequence[int], vector: FeatureVector,
                 below: int) -> int:
    """Lowest of the ascending ``positions`` below ``below`` whose rule
    matches, else ``below``."""
    for position in positions:
        if position >= below:
            break
        if rules[position].matches(vector):
            return position
    return below


def predict_rules(model: RuleSetModel, vector: FeatureVector) -> str:
    """Answer of the first (most specific) matching rule in stored order,
    else the default.  Only the premise-less rules and those whose first
    premise the vector meets are tried."""
    if len(vector) != len(model.slot_names):
        raise ValidationError(f"vector arity {len(vector)}, model expects {len(model.slot_names)}")
    rules = model.rules
    bare, by_slot = model.index
    best = _first_match(rules, bare, vector, len(rules))
    for slot, by_value in by_slot:
        best = _first_match(rules, by_value.get(vector[slot], ()), vector, best)
    return rules[best].conclusion if best < len(rules) else model.default_class


class RuleSetModel(Record):
    kind = "rules"
    _fields = ("rules", "default_class", "class_counts", "slot_names", "window")
    predict = predict_rules

    def __init__(self, rules: tuple[Rule, ...], default_class: str, class_counts: Mapping[str, int],
                 slot_names: tuple[str, ...], window: WindowConfig | None = None):
        self._init(rules, default_class, class_counts, slot_names, window)

    @cached_property
    def index(self) -> tuple[list[int], tuple[tuple[int, dict[str, list[int]]], ...]]:
        """Rule positions by first premise, built on first use; not a field,
        so never compared, printed or saved: the ascending positions of the
        premise-less rules, and per first-premise slot each value with the
        ascending positions of the rules that open with (slot, value)."""
        bare: list[int] = []
        by_slot: dict[int, dict[str, list[int]]] = {}
        for position, rule in enumerate(self.rules):
            if rule.premises:
                slot, value = rule.premises[0]
                by_slot.setdefault(slot, {}).setdefault(value, []).append(position)
            else:
                bare.append(position)
        return bare, tuple(by_slot.items())


def _slot_rank(name: str) -> int:
    # Chunk tag context disambiguates best, then pos context, then words.
    if name.startswith("t["):
        return 0
    if name.startswith("p["):
        return 1
    if name.startswith("w["):
        return 2
    return 3


def train_rules(
    dataset: Dataset,
    threshold: float = 0.95,
    window: WindowConfig | None = None,
) -> RuleSetModel:
    """General-to-specific rule refinement around one focus slot: the
    focus pos tag ``p[+0]``, or the first slot of a window without it.

    Every focus value starts as a default rule predicting its modal class.
    While a rule's training accuracy is below ``threshold``, the context
    premise (slot, value) that raises the accuracy most is added; ties
    prefer chunk tag slots over pos slots over word slots, then lower slot
    indices, then smaller values.  Refinement also stops when no premise
    improves the accuracy.  The result keeps one rule per focus value,
    ordered most specific first, plus a global default class.
    """
    _check_options(threshold=threshold)
    focus_slot = dataset.slot_names.index("p[+0]") if "p[+0]" in dataset.slot_names else 0
    if not 0 <= focus_slot < dataset.arity:
        raise ValidationError(f"focus slot {focus_slot} outside arity {dataset.arity}")
    global_counts = dataset.class_counts()
    ranks = tuple(_slot_rank(name) for name in dataset.slot_names)

    by_focus: dict[str, list[tuple[FeatureVector, str]]] = {}
    for item in dataset.items:
        by_focus.setdefault(item[0][focus_slot], []).append(item)

    def accuracy(items: Sequence[tuple[FeatureVector, str]], conclusion: str) -> float:
        return sum(1 for _, label in items if label == conclusion) / len(items)

    rules: list[Rule] = []
    for value, subset in by_focus.items():
        conclusion = pick_best(Counter(label for _, label in subset), global_counts)
        acc = accuracy(subset, conclusion)
        premises: list[tuple[int, str]] = [(focus_slot, value)]
        used = {focus_slot}
        while acc < threshold and len(used) < dataset.arity:
            best: tuple[float, int, int, str] | None = None
            best_items: list[tuple[FeatureVector, str]] = []
            for slot in range(dataset.arity):
                if slot in used:
                    continue
                groups: dict[str, list[tuple[FeatureVector, str]]] = {}
                for item in subset:
                    groups.setdefault(item[0][slot], []).append(item)
                for slot_value, group in groups.items():
                    key = (-accuracy(group, conclusion), ranks[slot], slot, slot_value)
                    if best is None or key < best:
                        best = key
                        best_items = group
            if best is None or -best[0] <= acc:
                break
            subset = best_items
            premises.append((best[2], best[3]))
            used.add(best[2])
            acc = -best[0]
        rules.append(Rule(tuple(premises), conclusion, acc, len(subset)))

    rules.sort(key=lambda r: (-len(r.premises), r.premises))
    return RuleSetModel(
        rules=tuple(rules),
        default_class=pick_best(global_counts, global_counts),
        class_counts=dict(global_counts),
        slot_names=dataset.slot_names,
        window=window,
    )


#---------------------------------------------------------------------------
# sentence tagging and learner specs

TrainedModel = KnnModel | IGTreeModel | MaxEntModel | RuleSetModel


def tag_sentence(model: TrainedModel, sentence: Sentence) -> list[str]:
    """Tag one sentence left to right.

    Windowed models see their own previous decisions as the left chunk tag
    context, so the output is deterministic for a deterministic model.
    """
    window = model.window
    if window is None:
        raise ConfigError("model carries no window configuration")
    tags: list[str] = []
    for vector in window_vectors(sentence, window, tags):
        tags.append(model.predict(vector))
    return tags


# The per pos tag baseline is an igtree over the focus pos tag alone.
BASELINE_WINDOW = WindowConfig(
    left_words=0, right_words=0, left_pos=0, right_pos=0, left_chunk_tags=0, use_focus_word=False,
)
# Maxent's wider window, with conjunction features: 3 tokens left, 2 right.
MAXENT_WINDOW = WindowConfig(
    left_words=3, right_words=2, left_pos=3, right_pos=2, left_chunk_tags=3, complex_pairs=True,
)

# Per learner kind: its trainer, the LearnerSpec options it reads, in the
# order the trainer checks them, and its default window.  LearnerSpec.train
# passes the trainer each option read, by name, but io_encoding, which it
# applies itself, and the resolved window.
_LEARNERS: dict[str, tuple[Callable[..., TrainedModel], tuple[str, ...], WindowConfig]] = {
    "baseline": (train_igtree, ("io_encoding",), BASELINE_WINDOW),
    "knn": (train_knn, ("window", "k", "weighting"), WindowConfig()),
    "igtree": (train_igtree, ("window", "weighting"), WindowConfig()),
    "maxent": (train_maxent, ("window", "iterations", "cutoff", "sigma"), MAXENT_WINDOW),
    "rules": (train_rules, ("window", "threshold", "io_encoding"), WindowConfig()),
}
LEARNER_KINDS = tuple(_LEARNERS)


class LearnerSpec(Record):
    """A named, reproducible recipe for training one base chunker.

    Options are given by keyword.  ``OPTIONS`` holds each with its
    default; a spec rejects the options its kind does not read
    (``_LEARNERS``) unless they keep their defaults.
    """

    OPTIONS = {"window": None, "k": 3, "iterations": 10, "sigma": None, "cutoff": 2,
               "threshold": 0.95, "weighting": "gain_ratio", "io_encoding": False}
    _fields = ("name", "learner", *OPTIONS)

    def __init__(self, name: str, learner: str, **options: object):
        unknown = [option for option in options if option not in self.OPTIONS]
        if unknown:
            raise TypeError(f"LearnerSpec() got an unexpected keyword argument {unknown[0]!r}")
        check_system_name(name)
        if learner not in LEARNER_KINDS:
            raise ConfigError(f"unknown learner {learner!r}, expected one of {LEARNER_KINDS}")
        options = self.OPTIONS | options
        read = _LEARNERS[learner][1]
        for option, default in self.OPTIONS.items():
            if option not in read and options[option] != default:
                raise ConfigError(f"the {learner} learner does not use {option}")
        self._init(name, learner, *options.values())

    def resolved_window(self) -> WindowConfig:
        """The spec's window, else its kind's default."""
        return self.window if self.window is not None else _LEARNERS[self.learner][2]

    def check_options(self) -> None:
        """Raise ConfigError as ``fit`` would for an option out of range."""
        _check_options(**{name: getattr(self, name) for name in _LEARNERS[self.learner][1]})

    def featurize(self, corpus: Corpus) -> Dataset:
        """The training items: io-encoded if asked, windowed by ``resolved_window``.

        Depends on the spec only through that window and ``io_encoding``.
        """
        if self.io_encoding:
            corpus = io_corpus(corpus)
        return corpus_to_dataset(corpus, self.resolved_window())

    def fit(self, dataset: Dataset) -> TrainedModel:
        """Train on items made by ``featurize``."""
        trainer, read, _ = _LEARNERS[self.learner]
        options = {name: getattr(self, name) for name in read if name != "io_encoding"}
        return trainer(dataset, **options | {"window": self.resolved_window()})

    def train(self, corpus: Corpus) -> TrainedModel:
        """``fit(featurize(corpus))`` after ``check_options``, letting go of
        ``corpus`` before fitting, so that a corpus no caller holds is freed once featurized."""
        self.check_options()
        dataset = self.featurize(corpus)
        del corpus
        return self.fit(dataset)


def train_baseline(corpus: Corpus, io_encoding: bool = False) -> IGTreeModel:
    """Most frequent chunk tag per pos tag, corpus-wide modal tag as fallback."""
    return LearnerSpec("baseline", "baseline", io_encoding=io_encoding).train(corpus)
