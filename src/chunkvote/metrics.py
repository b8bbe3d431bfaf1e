"""Chunk level evaluation: precision, recall and the F rate.

All scoring is by exact span matching: a predicted chunk is correct when a
gold chunk with the same begin, end and label exists in the same sentence,
and each gold chunk can be matched at most once.  Counts are kept per label
and overall; rates are derived from the counts on demand.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable, Mapping, Sequence

from .corpus import PLACEHOLDER_WORD, Corpus, NestedSentence, Record, extract_chunks
from .errors import AlignmentError, ConfigError, ValidationError


def _check_beta(beta: float) -> None:
    # F weighs precision by beta^2, which must not overflow.
    if not (beta >= 0 and math.isfinite(beta * beta)):
        raise ConfigError(f"beta must be a finite number >= 0 with a finite beta^2, got {beta}")


def f_beta(precision: float, recall: float, beta: float = 1.0) -> float:
    """Weighted harmonic mean of precision and recall, 0 when both are 0.

    ``beta`` > 1 favours recall, ``beta`` < 1 favours precision.
    """
    _check_beta(beta)
    if precision + recall == 0:
        return 0.0
    b2 = beta * beta
    return (b2 + 1) * precision * recall / (b2 * precision + recall)


class Counts(Record):
    """Found, gold and correct chunk counts for one label or overall."""

    _fields = ("found", "gold", "correct")

    def __init__(self, found: int = 0, gold: int = 0, correct: int = 0):
        self._init(found, gold, correct)

    @property
    def precision(self) -> float:
        return self.correct / self.found if self.found else 0.0

    @property
    def recall(self) -> float:
        return self.correct / self.gold if self.gold else 0.0

    def f(self, beta: float = 1.0) -> float:
        return f_beta(self.precision, self.recall, beta)


class EvalReport(Record):
    _fields = ("overall", "per_label", "beta")

    def __init__(self, overall: Counts, per_label: Mapping[str, Counts] | None = None,
                 beta: float = 1.0):
        self._init(overall, {} if per_label is None else per_label, beta)

    @property
    def f_rate(self) -> float:
        return self.overall.f(self.beta)


def score_chunks(
    gold: Sequence[Iterable[tuple[int, int, str]]],
    pred: Sequence[Iterable[tuple[int, int, str]]],
    beta: float = 1.0,
) -> EvalReport:
    """Score predicted (begin, end, label) spans against gold spans,
    sentence by sentence."""
    _check_beta(beta)
    if len(gold) != len(pred):
        raise AlignmentError(f"gold has {len(gold)} sentences, predictions have {len(pred)}")
    tallies: dict[str, list[int]] = {}

    def tally(label: str) -> list[int]:
        return tallies.setdefault(label, [0, 0, 0])

    for gold_spans, pred_spans in zip(gold, pred):
        gold_counts = Counter(gold_spans)
        pred_counts = Counter(pred_spans)
        for (_, _, label), n in pred_counts.items():
            tally(label)[0] += n
        for (_, _, label), n in gold_counts.items():
            tally(label)[1] += n
        for span, n in pred_counts.items():
            tally(span[2])[2] += min(n, gold_counts.get(span, 0))
    per_label = {label: Counts(*t) for label, t in sorted(tallies.items())}
    overall = Counts(
        sum(c.found for c in per_label.values()),
        sum(c.gold for c in per_label.values()),
        sum(c.correct for c in per_label.values()),
    )
    return EvalReport(overall, per_label, beta)


def _aligned(gold: Sequence, pred: Sequence):
    """Yield numbered gold and predicted sentence pairs, checking as it goes
    that the two sides have the same sentences, lengths and words."""
    if len(gold) != len(pred):
        raise AlignmentError(f"gold has {len(gold)} sentences, predictions have {len(pred)}")
    for si, (gs, ps) in enumerate(zip(gold, pred), start=1):
        if len(gs) != len(ps):
            raise AlignmentError(f"sentence {si}: {len(gs)} gold tokens vs {len(ps)} predicted")
        if gs.words != ps.words:
            for ti, (gw, pw) in enumerate(zip(gs.words, ps.words), start=1):
                if gw != pw and PLACEHOLDER_WORD not in (gw, pw):
                    raise AlignmentError(f"sentence {si}, token {ti}: word {gw!r} vs {pw!r}")
        yield si, gs, ps


def score_tagged(gold: Corpus, pred: Corpus, beta: float = 1.0) -> EvalReport:
    """Score two tagged corpora over the same token sequence.

    Illegal tag sequences on either side are repaired during chunk
    extraction, so raw system output never crashes the scorer.
    """
    gold_spans: list[list[tuple[int, int, str]]] = []
    pred_spans: list[list[tuple[int, int, str]]] = []
    for si, gs, ps in _aligned(gold.sentences, pred.sentences):
        for name, sentence in (("gold", gs), ("predicted", ps)):
            if any(tag is None for tag in sentence.chunk_tags):
                raise ValidationError(f"sentence {si}: {name} side has untagged tokens")
        gold_spans.append(extract_chunks(gs.chunk_tags))  # type: ignore[arg-type]
        pred_spans.append(extract_chunks(ps.chunk_tags))  # type: ignore[arg-type]
    return score_chunks(gold_spans, pred_spans, beta)


def score_nested(
    gold: Sequence[NestedSentence],
    pred: Sequence[NestedSentence],
    beta: float = 1.0,
) -> EvalReport:
    """Score nested bracketings by multiset span matching."""
    pairs = list(_aligned(gold, pred))
    return score_chunks([gs.spans for _, gs, _ in pairs], [ps.spans for _, _, ps in pairs], beta)


def format_report(report: EvalReport) -> str:
    """Human readable report: one line per label plus an overall line."""
    lines = []
    for label, counts in sorted(report.per_label.items()):
        lines.append(
            f"{label}: precision {100 * counts.precision:.2f}% "
            f"recall {100 * counts.recall:.2f}% F {100 * counts.f(report.beta):.2f}"
        )
    o = report.overall
    lines.append(
        f"overall: precision {100 * o.precision:.2f}% "
        f"recall {100 * o.recall:.2f}% F {100 * o.f(report.beta):.2f}"
    )
    return "\n".join(lines) + "\n"


def format_report_kv(report: EvalReport) -> str:
    """Machine readable key=value dump with exact counts and full rates."""
    lines = [f"beta={report.beta!r}"]

    def emit(prefix: str, counts: Counts) -> None:
        lines.append(f"{prefix}.found={counts.found}")
        lines.append(f"{prefix}.gold={counts.gold}")
        lines.append(f"{prefix}.correct={counts.correct}")
        lines.append(f"{prefix}.precision={counts.precision!r}")
        lines.append(f"{prefix}.recall={counts.recall!r}")
        lines.append(f"{prefix}.f={counts.f(report.beta)!r}")

    emit("overall", report.overall)
    for label, counts in sorted(report.per_label.items()):
        emit(f"label.{label}", counts)
    return "\n".join(lines) + "\n"
