"""Flat text serialization for trained models.

A model file is line based and self describing: a format header, the model
kind, the training class counts, the window configuration, the slot names,
and then one kind specific table.  Numbers are written with full precision
(``repr``), so saving and loading reproduces a model exactly.
"""

from __future__ import annotations

import math
from typing import IO, Iterator

from .errors import ParseError
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

_WINDOW_FIELDS = (
    "left_words", "right_words", "left_pos", "right_pos",
    "left_chunk_tags", "use_focus_word", "use_focus_pos", "complex_pairs",
)


def _window_line(window: WindowConfig | None) -> str:
    if window is None:
        return "window -"
    parts = []
    for name in _WINDOW_FIELDS:
        value = getattr(window, name)
        parts.append(f"{name}={int(value)}")
    return "window " + " ".join(parts)


def _parse_window(fields: list[str]) -> WindowConfig | None:
    if fields == ["-"]:
        return None
    values = {}
    for part in fields:
        name, _, raw = part.partition("=")
        if name not in _WINDOW_FIELDS or not raw:
            raise ParseError(f"bad window field {part!r}")
        values[name] = bool(int(raw)) if name.startswith(("use_", "complex_")) else int(raw)
    missing = [name for name in _WINDOW_FIELDS if name not in values]
    if missing:
        raise ParseError(f"window line misses fields: {', '.join(missing)}")
    return WindowConfig(**values)


def dumps_model(model: TrainedModel) -> str:
    """The model's file text; an igtree over ``BASELINE_WINDOW`` is written
    as a ``baseline`` model, whose table lists each leaf by its pos tag."""
    baseline = isinstance(model, IGTreeModel) and model.window == BASELINE_WINDOW
    lines = [f"{FORMAT_NAME} {FORMAT_VERSION}", f"kind {'baseline' if baseline else model.kind}"]
    for tag in sorted(model.class_counts):
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
        _dump_node(model.root, lines)
    elif isinstance(model, MaxEntModel):
        lines.append("classes " + " ".join(model.classes))
        lines.append(f"constant {model.constant}")
        lines.append(f"correction {model.correction!r}")
        for slot, value, cls in sorted(model.weights):
            lines.append(f"feature {slot} {value} {cls} {model.weights[(slot, value, cls)]!r}")
    elif isinstance(model, RuleSetModel):
        lines.append(f"default {model.default_class}")
        for rule in model.rules:
            parts = [
                "rule", rule.conclusion, repr(rule.accuracy),
                str(rule.support), str(len(rule.premises)),
            ]
            for slot, value in rule.premises:
                parts.append(str(slot))
                parts.append(value)
            lines.append(" ".join(parts))
    else:
        raise ParseError(f"cannot serialize model kind {type(model).__name__}")
    return "\n".join(lines) + "\n"


def _dump_node(node: IGTreeNode, lines: list[str]) -> None:
    lines.append(f"node {node.default} {len(node.children)}")
    for value in sorted(node.children):
        lines.append(f"edge {value}")
        _dump_node(node.children[value], lines)


def loads_model(text: str) -> TrainedModel:
    try:
        return _loads_model(text)
    except ValueError as exc:
        raise ParseError(f"bad number in model file: {exc}") from None


def _loads_model(text: str) -> TrainedModel:
    lines = iter(text.splitlines())
    header = _fields(lines, "header")
    if header[:1] != [FORMAT_NAME] or len(header) != 2:
        raise ParseError(f"not a {FORMAT_NAME} file")
    if int(header[1]) != FORMAT_VERSION:
        raise ParseError(f"unsupported model format version {header[1]}")
    kind_line = _fields(lines, "kind")
    if kind_line[0] != "kind" or len(kind_line) != 2:
        raise ParseError("expected a kind line after the header")
    kind = kind_line[1]

    class_counts: dict[str, int] = {}
    line = _fields(lines, "class counts")
    while line and line[0] == "class":
        if len(line) != 3:
            raise ParseError(f"bad class line {' '.join(line)!r}")
        class_counts[line[1]] = int(line[2])
        line = _fields(lines, "window")
    if line[0] != "window":
        raise ParseError("expected a window line after the class counts")
    window = _parse_window(line[1:])
    if kind == "baseline":
        return _load_baseline(lines, class_counts)

    line = _fields(lines, "slots")
    if line[0] != "slots":
        raise ParseError("expected a slots line")
    slot_names = tuple(line[1:])
    # A window has at least one slot per plain slot (every field but
    # complex_pairs counts them), so an outsized one is rejected before
    # slot_names() builds its layout.
    if window is not None and (
        sum(int(getattr(window, name)) for name in _WINDOW_FIELDS[:-1]) > len(slot_names)
        or window.slot_names() != slot_names
    ):
        raise ParseError("slots line does not match the window")

    if kind == "knn":
        return _load_knn(lines, class_counts, slot_names, window)
    if kind == "igtree":
        return _load_igtree(lines, class_counts, slot_names, window)
    if kind == "maxent":
        return _load_maxent(lines, class_counts, slot_names, window)
    if kind == "rules":
        return _load_rules(lines, class_counts, slot_names, window)
    raise ParseError(f"unknown model kind {kind!r}")


def _fields(lines: Iterator[str], what: str) -> list[str]:
    for line in lines:
        if line.strip():
            return line.split()
    raise ParseError(f"unexpected end of model file while reading {what}")


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


def _load_baseline(lines, class_counts) -> IGTreeModel:
    fallback = _fields(lines, "fallback")
    if fallback[0] != "fallback" or len(fallback) != 2:
        raise ParseError("expected a fallback line")
    leaves = {}
    for line in lines:
        if not line.strip():
            continue
        fields = line.split()
        if fields[0] != "pos" or len(fields) != 3:
            raise ParseError(f"bad pos line {line!r}")
        leaves[fields[1]] = IGTreeNode(fields[2], {})
    return IGTreeModel(
        feature_order=(0,),
        root=IGTreeNode(fallback[1], leaves),
        class_counts=class_counts,
        slot_names=BASELINE_WINDOW.slot_names(),
        window=BASELINE_WINDOW,
    )


def _load_knn(lines, class_counts, slot_names, window) -> KnnModel:
    k_line = _fields(lines, "k")
    if k_line[0] != "k" or len(k_line) != 2:
        raise ParseError("expected a k line")
    k = int(k_line[1])
    if k < 1:
        raise ParseError(f"k must be >= 1, got {k}")
    weights_line = _fields(lines, "weights")
    if weights_line[0] != "weights" or len(weights_line) != len(slot_names) + 1:
        raise ParseError("expected one weight per slot")
    weights = tuple(float(w) for w in weights_line[1:])
    if not valid_knn_weights(weights):
        raise ParseError(f"k-NN weights must be finite and non-negative: {' '.join(weights_line[1:])}")
    # Equal values share one string object; a memory repeats them heavily.
    pool: dict[str, str] = {}
    share = pool.setdefault
    memory = []
    for line in lines:
        if not line.strip():
            continue
        fields = [share(f, f) for f in line.split()]
        if fields[0] != "item" or len(fields) != len(slot_names) + 2:
            raise ParseError(f"bad item line {line!r}")
        memory.append((tuple(fields[2:]), fields[1]))
    return KnnModel(
        memory=tuple(memory),
        weights=weights,
        k=k,
        class_counts=class_counts,
        slot_names=slot_names,
        window=window,
    )


def _load_igtree(lines, class_counts, slot_names, window) -> IGTreeModel:
    order_line = _fields(lines, "order")
    if order_line[0] != "order":
        raise ParseError("expected an order line")
    order = tuple(int(s) for s in order_line[1:])
    if sorted(order) != list(range(len(slot_names))):
        raise ParseError("order line must list every slot index once")

    def read_node() -> IGTreeNode:
        fields = _fields(lines, "node")
        if fields[0] != "node" or len(fields) != 3:
            raise ParseError(f"bad node line {' '.join(fields)!r}")
        default, n_children = fields[1], int(fields[2])
        children = {}
        for _ in range(n_children):
            edge = _fields(lines, "edge")
            if edge[0] != "edge" or len(edge) != 2:
                raise ParseError(f"bad edge line {' '.join(edge)!r}")
            children[edge[1]] = read_node()
        return IGTreeNode(default, children)

    return IGTreeModel(
        feature_order=order,
        root=read_node(),
        class_counts=class_counts,
        slot_names=slot_names,
        window=window,
    )


def _load_maxent(lines, class_counts, slot_names, window) -> MaxEntModel:
    classes_line = _fields(lines, "classes")
    if classes_line[0] != "classes":
        raise ParseError("expected a classes line")
    constant_line = _fields(lines, "constant")
    if constant_line[0] != "constant" or len(constant_line) != 2:
        raise ParseError("expected a constant line")
    correction_line = _fields(lines, "correction")
    if correction_line[0] != "correction" or len(correction_line) != 2:
        raise ParseError("expected a correction line")
    weights = {}
    for line in lines:
        if not line.strip():
            continue
        fields = line.split()
        if fields[0] != "feature" or len(fields) != 5:
            raise ParseError(f"bad feature line {line!r}")
        weights[(_slot(fields[1], slot_names), fields[2], fields[3])] = _finite(fields[4])
    return MaxEntModel(
        weights=weights,
        classes=tuple(classes_line[1:]),
        constant=int(constant_line[1]),
        correction=_finite(correction_line[1]),
        class_counts=class_counts,
        slot_names=slot_names,
        window=window,
    )


def _load_rules(lines, class_counts, slot_names, window) -> RuleSetModel:
    default_line = _fields(lines, "default")
    if default_line[0] != "default" or len(default_line) != 2:
        raise ParseError("expected a default line")
    rules = []
    for line in lines:
        if not line.strip():
            continue
        fields = line.split()
        if fields[0] != "rule" or len(fields) < 5:
            raise ParseError(f"bad rule line {line!r}")
        n_premises = int(fields[4])
        if len(fields) != 5 + 2 * n_premises:
            raise ParseError(f"rule line premise count mismatch: {line!r}")
        premises = tuple(
            (_slot(fields[5 + 2 * i], slot_names), fields[6 + 2 * i]) for i in range(n_premises)
        )
        rules.append(Rule(premises, fields[1], _finite(fields[2]), int(fields[3])))
    return RuleSetModel(
        rules=tuple(rules),
        default_class=default_line[1],
        class_counts=class_counts,
        slot_names=slot_names,
        window=window,
    )


def save_model(model: TrainedModel, target) -> None:
    """Write a model to a path or text file object."""
    text = dumps_model(model)
    if hasattr(target, "write"):
        target.write(text)
    else:
        with open(target, "w", encoding="utf-8") as handle:
            handle.write(text)


def load_model(source) -> TrainedModel:
    """Read a model from a path or text file object."""
    if hasattr(source, "read"):
        return loads_model(source.read())
    with open(source, "r", encoding="utf-8") as handle:
        return loads_model(handle.read())
