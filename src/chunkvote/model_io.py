"""Flat text serialization for trained models.

A model file is line based and self describing: a format header, the model
kind, the training class counts, the window configuration, the slot names,
and then one kind specific table.  Numbers are written with full precision
(``repr``), so saving and loading reproduces a model exactly.  Every chunk
tag the table names must be one of the class lines' tags.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator

from .corpus import check_chunk_tag, text_lines
from .errors import ParseError, ValidationError
from .features import WindowConfig
from .learners import (
    BASELINE_WINDOW,
    IGTreeModel,
    IGTreeNode,
    KnnModel,
    MaxEntModel,
    Rule,
    RuleSetModel,
    TrainedModel,
    valid_knn_weights,
)

FORMAT_NAME = "chunker-model"
FORMAT_VERSION = 1

_WINDOW_FIELDS = WindowConfig._fields


def _window_line(window: WindowConfig | None) -> str:
    if window is None:
        return "window -"
    return "window " + " ".join(f"{name}={int(getattr(window, name))}" for name in _WINDOW_FIELDS)


def _parse_window(fields: list[str]) -> WindowConfig | None:
    if fields == ["-"]:
        return None
    values = {}
    for part in fields:
        name, _, raw = part.partition("=")
        flag = name.startswith(("use_", "complex_"))
        if name not in _WINDOW_FIELDS or not raw or flag and raw not in ("0", "1"):
            raise ParseError(f"bad window field {part!r}")
        if name in values:
            raise ParseError(f"repeated window field {name!r}")
        values[name] = raw == "1" if flag else int(raw)
    missing = [name for name in _WINDOW_FIELDS if name not in values]
    if missing:
        raise ParseError(f"window line misses fields: {', '.join(missing)}")
    return WindowConfig(**values)


def dumps_model(model: TrainedModel) -> str:
    """The model's file text; an igtree over ``BASELINE_WINDOW`` is written
    as a ``baseline`` model, whose table lists each leaf by its pos tag.
    Raises ValidationError for a class that is not a chunk tag, which
    ``loads_model`` would reject."""
    baseline = isinstance(model, IGTreeModel) and model.window == BASELINE_WINDOW
    lines = [f"{FORMAT_NAME} {FORMAT_VERSION}", f"kind {'baseline' if baseline else model.kind}"]
    for tag in sorted(model.class_counts):
        check_chunk_tag(tag)
        lines.append(f"class {tag} {model.class_counts[tag]}")
    lines.append(_window_line(None if baseline else model.window))
    if baseline:
        lines.append(f"fallback {model.root.default}")
        for pos in sorted(model.root.children):
            lines.append(f"pos {pos} {model.root.children[pos].default}")
        return "\n".join(lines) + "\n"
    lines.append("slots " + " ".join(model.slot_names))

    if isinstance(model, KnnModel):
        lines.append(f"k {model.k}")
        lines.append("weights " + " ".join(repr(w) for w in model.weights))
        for vector, label in model.memory:
            lines.append("item " + label + " " + " ".join(vector))
    elif isinstance(model, IGTreeModel):
        lines.append("order " + " ".join(str(s) for s in model.feature_order))
        # The pre-order that _read_tree reads, with an explicit stack of the
        # subtrees still to write, each under its edge value (None at the root).
        stack: list[tuple[str | None, IGTreeNode]] = [(None, model.root)]
        while stack:
            value, node = stack.pop()
            if value is not None:
                lines.append(f"edge {value}")
            lines.append(f"node {node.default} {len(node.children)}")
            stack.extend(sorted(node.children.items(), reverse=True))
    elif isinstance(model, MaxEntModel):
        lines.append("classes " + " ".join(model.classes))
        lines.append(f"constant {model.constant}")
        lines.append(f"correction {model.correction!r}")
        for slot, value, cls in sorted(model.weights):
            lines.append(f"feature {slot} {value} {cls} {model.weights[(slot, value, cls)]!r}")
    elif isinstance(model, RuleSetModel):
        lines.append(f"default {model.default_class}")
        for rule in model.rules:
            head = f"rule {rule.conclusion} {rule.accuracy!r} {rule.support} {len(rule.premises)}"
            lines.append(" ".join([head, *(f"{slot} {value}" for slot, value in rule.premises)]))
    else:
        raise ParseError(f"cannot serialize model kind {type(model).__name__}")
    lines.append("")  # the final newline, without copying the joined text to add it
    return "\n".join(lines)


def loads_model(text: str) -> TrainedModel:
    try:
        return _loads_model(text)
    except ValueError as exc:
        raise ParseError(f"bad number in model file: {exc}") from None


def _loads_model(text: str) -> TrainedModel:
    # The fields of each non-blank line, split as they are read: a knn file
    # holds a line per training item.
    lines = filter(None, map(str.split, text_lines(text)))
    header = next(lines, [])
    if header[:1] != [FORMAT_NAME] or len(header) != 2:
        raise ParseError(f"not a {FORMAT_NAME} file" if header else "unexpected end of model file")
    if int(header[1]) != FORMAT_VERSION:
        raise ParseError(f"unsupported model format version {header[1]}")
    kind = _line(lines, "kind", 2)[1]

    class_counts: dict[str, int] = {}
    fields = next(lines, None)
    while fields and fields[0] == "class":
        if len(fields) != 3 or int(fields[2]) < 0:
            raise ParseError(f"bad class line {' '.join(fields)!r}")
        try:
            check_chunk_tag(fields[1])
        except ValidationError as exc:
            raise ParseError(f"{exc}, in line {' '.join(fields)!r}") from None
        class_counts[_new_key(class_counts, fields[1], fields)] = int(fields[2])
        fields = next(lines, None)
    # The first line that is not a class count goes back, to be read as the window.
    lines = itertools.chain([fields] if fields else [], lines)
    window_fields = _line(lines, "window")[1:]
    if kind == "baseline":
        # A baseline file has no slots line: its window is always the same.
        if window_fields != ["-"]:
            raise ParseError(f"a baseline window line must be 'window -': {' '.join(window_fields)!r}")
        window, slot_names = BASELINE_WINDOW, BASELINE_WINDOW.slot_names()
    else:
        window = _parse_window(window_fields)
        slot_names = tuple(_line(lines, "slots")[1:])
        # A window has at least one slot per plain slot (every field but
        # complex_pairs counts them), so an outsized one is rejected before
        # slot_names() builds its layout.
        if window is not None and (
            sum(int(getattr(window, name)) for name in _WINDOW_FIELDS[:-1]) > len(slot_names)
            or window.slot_names() != slot_names
        ):
            raise ParseError("slots line does not match the window")
    common = {"class_counts": class_counts, "slot_names": slot_names, "window": window}

    if kind == "baseline":
        fallback = _declared(_line(lines, "fallback", 2), 1, class_counts)
        leaves: dict[str, IGTreeNode] = {}
        for fields in _records(lines, "pos", 3):
            leaves[_new_key(leaves, fields[1], fields)] = IGTreeNode(_declared(fields, 2, class_counts), {})
        return IGTreeModel(feature_order=(0,), root=IGTreeNode(fallback, leaves), **common)
    if kind == "knn":
        k = int(_line(lines, "k", 2)[1])
        if k < 1:
            raise ParseError(f"k must be >= 1, got {k}")
        raw_weights = _line(lines, "weights", len(slot_names) + 1)[1:]
        weights = tuple(float(w) for w in raw_weights)
        if not valid_knn_weights(weights):
            raise ParseError(f"k-NN weights must be finite and non-negative: {' '.join(raw_weights)}")
        # Equal values share one string object; a memory repeats them heavily.
        pool: dict[str, str] = {}
        share = pool.setdefault
        memory = tuple(
            (tuple([share(v, v) for v in fields[2:]]), share(fields[1], _declared(fields, 1, class_counts)))
            for fields in _records(lines, "item", len(slot_names) + 2)
        )
        return KnnModel(memory=memory, weights=weights, k=k, **common)
    if kind == "igtree":
        order = tuple(int(s) for s in _line(lines, "order")[1:])
        if sorted(order) != list(range(len(slot_names))):
            raise ParseError("order line must list every slot index once")
        root = _read_tree(lines, len(order), class_counts)
        if next(lines, None) is not None:
            raise ParseError("igtree model has lines after its tree")
        return IGTreeModel(feature_order=order, root=root, **common)
    if kind == "maxent":
        # A maxent model scores exactly the classes it was trained on, sorted.
        classes = tuple(_line(lines, "classes")[1:])
        if classes != tuple(sorted(class_counts)):
            raise ParseError(f"classes line {' '.join(classes)!r} is not the sorted tags of the class lines")
        constant = int(_line(lines, "constant", 2)[1])
        # Training pads to the most active features of one class, at least
        # 1; every slot contributes at most one.
        if not 1 <= constant <= len(slot_names):
            raise ParseError(f"maxent constant must be in [1, {len(slot_names)}], got {constant}")
        correction = _finite(_line(lines, "correction", 2)[1])
        weights: dict[tuple[int, str, str], float] = {}
        for fields in _records(lines, "feature", 5):
            key = (_slot(fields[1], slot_names), fields[2], _declared(fields, 3, class_counts))
            weights[_new_key(weights, key, fields)] = _finite(fields[4])
        return MaxEntModel(weights=weights, classes=classes, constant=constant,
                           correction=correction, **common)
    if kind == "rules":
        default = _declared(_line(lines, "default", 2), 1, class_counts)
        rules = []
        for fields in _records(lines, "rule"):
            if len(fields) < 5 or len(fields) != 5 + 2 * int(fields[4]):
                raise ParseError(f"rule line premise count mismatch: {' '.join(fields)!r}")
            premises = tuple((_slot(s, slot_names), v) for s, v in zip(fields[5::2], fields[6::2]))
            accuracy, support = _finite(fields[2]), int(fields[3])
            if not 0.0 <= accuracy <= 1.0 or support < 1:
                raise ParseError(f"rule accuracy must be in [0, 1] and support >= 1: {' '.join(fields)!r}")
            rules.append(Rule(premises, _declared(fields, 1, class_counts), accuracy, support))
        return RuleSetModel(rules=tuple(rules), default_class=default, **common)
    raise ParseError(f"unknown model kind {kind!r}")


def _line(lines: Iterator[list[str]], keyword: str, size: int | None = None) -> list[str]:
    """The next line, checked to start with ``keyword`` and, if ``size`` is
    given, to hold that many fields."""
    # Not built on _records: a generator per call slows igtree loading by ~10%.
    for fields in lines:
        if fields[0] != keyword or size is not None and len(fields) != size:
            raise ParseError(f"bad {keyword} line {' '.join(fields)!r}")
        return fields
    raise ParseError(f"unexpected end of model file while reading {keyword}")


def _records(lines: Iterator[list[str]], keyword: str, size: int | None = None) -> Iterator[list[str]]:
    """Yield the remaining lines, each checked as ``_line`` checks one."""
    for fields in lines:
        if fields[0] != keyword or size is not None and len(fields) != size:
            raise ParseError(f"bad {keyword} line {' '.join(fields)!r}")
        yield fields


def _read_tree(lines: Iterator[list[str]], depth_limit: int, classes: dict[str, int]) -> IGTreeNode:
    """An igtree in pre-order: a node line with its default class and child
    count, then per child an edge line and the child's subtree."""
    # The open nodes from the root down, each as its children and the count
    # of them still to read: a loop, not recursion, so that no nesting depth
    # exhausts Python's stack.  The first entry holds the root.
    top: dict[str, IGTreeNode] = {}
    path = [[top, 1]]
    while path:
        open_node = path[-1]
        if not open_node[1]:
            path.pop()
            continue
        open_node[1] -= 1
        value = _line(lines, "edge", 2)[1] if len(path) > 1 else ""
        fields = _line(lines, "node", 3)
        default, count = _declared(fields, 1, classes), int(fields[2])
        # A node past the last slot has no slot left to branch on.
        if count < 0 or count and len(path) > depth_limit:
            raise ParseError(f"igtree node at depth {len(path) - 1} has {count} children")
        node = IGTreeNode(default, {})
        if value in open_node[0]:
            raise ParseError(f"repeated edge line {'edge ' + value!r}")
        open_node[0][value] = node
        if count:
            path.append([node.children, count])
    return top[""]


def _new_key(table: dict, key, fields: list[str]):
    """``key``, unless ``table`` already holds it from an earlier line."""
    if key in table:
        raise ParseError(f"repeated {fields[0]} line {' '.join(fields)!r}")
    return key


def _declared(fields: list[str], at: int, classes: dict[str, int]) -> str:
    """The chunk tag ``fields[at]``, if it is one of ``classes``, the tags of
    the class lines."""
    if fields[at] not in classes:
        raise ParseError(f"{fields[0]} line names a tag no class line declares: {' '.join(fields)!r}")
    return fields[at]


def _slot(raw: str, slot_names: tuple[str, ...]) -> int:
    slot = int(raw)
    if not 0 <= slot < len(slot_names):
        raise ParseError(f"slot {slot} outside the {len(slot_names)} slots")
    return slot


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ParseError(f"number must be finite, got {raw}")
    return value

