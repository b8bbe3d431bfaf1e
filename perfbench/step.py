"""One pipeline step run in-process through the package's public functions.

    python perfbench/step.py '<step json>' [SPANS_PATH]

Each operation does what the command line subcommand of the same name
does and writes the same bytes, but records a span around every call into
a layer (``corpus``, ``features``, ``learners``, ``model_io``,
``ensemble``, ``cascade``, ``metrics``).  Whatever the spans leave
uncovered is the ``cli`` layer: start-up, argument handling and file I/O.
The tagging loop and the cross-validation loop are rebuilt from public
calls so that featurization and prediction are timed apart.  The ``table``
operation has no subcommand; the benchmark runs it untraced too.

With SPANS_PATH the spans are written there as JSON lines on exit.
"""

from __future__ import annotations

import json
import sys
from math import comb
from pathlib import Path

from spans import Tracer, now

from chunkvote import (
    Corpus,
    LearnerSpec,
    PredictionRow,
    PredictionTable,
    TagScheme,
    best_n_select,
    cascade_bracket,
    cascade_training_corpus,
    combine_corpus,
    corpus_to_dataset,
    dumps_model,
    estimate_weights,
    format_report_kv,
    from_corpora,
    loads_model,
    make_features,
    parse_conll,
    parse_nested,
    predict_igtree,
    predict_knn,
    predict_maxent,
    predict_rules,
    read_table,
    read_weights,
    score_nested,
    score_tagged,
    stacked_corpus,
    stacked_train,
    strip_tags,
    train_baseline,
    train_igtree,
    train_knn,
    train_maxent,
    train_rules,
    with_tags,
    write_conll,
    write_nested,
    write_table,
    write_weights,
)
from chunkvote.ensemble import evaluate_subset

PREDICT = {
    "knn": predict_knn,
    "igtree": predict_igtree,
    "maxent": predict_maxent,
    "rules": predict_rules,
}


def read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def write(path: str, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


class InProcess:
    """The pipeline operations, each a method named after a workload step's op."""

    def __init__(self, tracer: Tracer) -> None:
        self.t = tracer

    # -- layer calls ------------------------------------------------------

    def parse(self, path: str, scheme: str, columns: int, strict: bool) -> Corpus:
        text = read(path)
        with self.t.span("corpus.parse") as c:
            corpus = parse_conll(text, TagScheme(scheme), columns=columns, strict=strict)
            c["tokens"] = sum(len(s) for s in corpus.sentences)
        return corpus

    def parse_nested(self, path: str):
        text = read(path)
        with self.t.span("corpus.parse_nested") as c:
            sentences = parse_nested(text)
            c["tokens"] = sum(len(s) for s in sentences)
        return sentences

    def write_conll(self, path: str, corpus: Corpus) -> None:
        with self.t.span("corpus.write"):
            text = write_conll(corpus)
        write(path, text)

    def load_model(self, path: str):
        text = read(path)
        with self.t.span("model_io.load", bytes=len(text.encode())):
            return loads_model(text)

    def read_table(self, path: str) -> PredictionTable:
        text = read(path)
        with self.t.span("ensemble.read_table"):
            return read_table(text)

    def train_spec(self, spec: LearnerSpec, corpus: Corpus):
        """LearnerSpec.train with featurization and training timed apart."""
        if spec.io_encoding:
            raise ValueError("io_encoding is not part of the benchmark")
        kind = spec.learner
        if kind == "baseline":
            with self.t.span("learners.baseline.train"):
                return train_baseline(corpus)
        window = spec.resolved_window()
        with self.t.span("features.featurize") as c:
            dataset = corpus_to_dataset(corpus, window)
            c["vectors"] = len(dataset.items)
        with self.t.span(f"learners.{kind}.train") as c:
            if kind == "knn":
                model = train_knn(dataset, k=spec.k, weighting=spec.weighting, window=window)
            elif kind == "igtree":
                model = train_igtree(dataset, weighting=spec.weighting, window=window)
            elif kind == "maxent":
                model = train_maxent(
                    dataset, iterations=spec.iterations, sigma=spec.sigma,
                    cutoff=spec.cutoff, window=window,
                )
            else:
                model = train_rules(dataset, threshold=spec.threshold, window=window)
        if kind == "maxent":
            c["iterations"] = model.trace.iterations
            c["features"] = len(model.weights)
            c["loglik"] = list(model.trace.loglik)
        return model

    def tagger(self, model):
        """tag_sentence with make_features and the prediction timed per token."""
        t, add = self.t, self.t.add
        name = f"learners.{model.kind}.predict"
        if model.kind == "baseline":

            def tag(sentence):
                tags = []
                for token in sentence.tokens:
                    t0 = now()
                    tags.append(model.predict_pos(token.pos))
                    add(name, t0, now())
                return tags

        else:
            predict = PREDICT[model.kind]
            window = model.window

            def tag(sentence):
                tags: list[str] = []
                for i in range(len(sentence)):
                    t0 = now()
                    vector = make_features(sentence, i, window, tags)
                    t1 = now()
                    tags.append(predict(model, vector))
                    t2 = now()
                    add("features.make_features", t0, t1)
                    add(name, t1, t2)
                return tags

        def traced(sentence):
            with t.span(f"learners.{model.kind}.tag"):
                return tag(sentence)

        return traced

    # -- subcommands ------------------------------------------------------

    def cv_tune(self, train, systems, folds, out):
        corpus = self.parse(train, "iob2", 3, True)
        specs = [LearnerSpec(name=name, learner=learner, **options)
                 for name, learner, options in systems]
        names = [spec.name for spec in specs]
        predicted = {name: [None] * len(corpus.sentences) for name in names}
        for fold in range(folds):
            train_corpus = Corpus(
                tuple(s for i, s in enumerate(corpus.sentences) if i % folds != fold),
                corpus.scheme,
            )
            for spec in specs:
                tag = self.tagger(self.train_spec(spec, train_corpus))
                for i, sentence in enumerate(corpus.sentences):
                    if i % folds == fold:
                        predicted[spec.name][i] = tag(sentence)
        with self.t.span("ensemble.cv_table"):
            sentences = []
            for i, sentence in enumerate(corpus.sentences):
                gold = sentence.chunk_tags
                sentences.append(tuple(
                    PredictionRow(
                        sentence.tokens[k].pos,
                        tuple(predicted[name][i][k] for name in names),
                        gold[k],
                    )
                    for k in range(len(sentence))
                ))
            table = PredictionTable(tuple(names), tuple(sentences))
        with self.t.span("ensemble.write_table"):
            text = write_table(table)
        write(out, text)

    def train(self, train, learner, options, out):
        corpus = self.parse(train, "iob2", 3, True)
        model = self.train_spec(LearnerSpec(name="model", learner=learner, **options), corpus)
        with self.t.span("model_io.dump") as c:
            text = dumps_model(model)
            c["bytes"] = len(text.encode())
        write(out, text)

    def tag(self, model, input, out):
        tag = self.tagger(self.load_model(model))
        corpus = self.parse(input, "iob2", 3, False)
        sentences = tuple(with_tags(s, tag(strip_tags(s))) for s in corpus.sentences)
        self.write_conll(out, Corpus(sentences, TagScheme.IOB2))

    def table(self, gold, preds, out):
        gold_corpus = self.parse(gold, "iob2", 3, True)
        corpora = {name: self.parse(path, "iob2", 3, False) for name, path in preds}
        with self.t.span("ensemble.from_corpora"):
            table = from_corpora(corpora, gold=gold_corpus)
        with self.t.span("ensemble.write_table"):
            text = write_table(table)
        write(out, text)

    def weights(self, table, out):
        table = self.read_table(table)
        with self.t.span("ensemble.weights"):
            weights = estimate_weights(table)
        with self.t.span("ensemble.write_weights"):
            text = write_weights(weights)
        write(out, text)

    def combine(self, table, method, out, weights=None, tuning=None, bracket_level=False,
                words=None):
        table = self.read_table(table)
        weight_table = None
        if weights is not None:
            text = read(weights)
            with self.t.span("ensemble.read_weights"):
                weight_table = read_weights(text)
        elif tuning is not None:  # the subcommand estimates these even for stacking
            with self.t.span("ensemble.weights"):
                weight_table = estimate_weights(self.read_table(tuning))
        word_corpus = None if words is None else self.parse(words, "iob1", 3, False)
        if method.startswith("stacked-"):
            tuning_table = self.read_table(tuning)
            base = method.removeprefix("stacked-")
            with self.t.span("ensemble.stacked_train"):
                model = stacked_train(tuning_table, learner=base.removesuffix("-pos"),
                                      add_pos=base.endswith("-pos"))
            with self.t.span("ensemble.stacked_tag"):
                corpus = stacked_corpus(_TimedModel(model, self.t), table, words=word_corpus)
        else:
            name = "ensemble.bracket" if bracket_level else f"ensemble.vote.{method}"
            with self.t.span(name, rows=sum(len(r) for r in table.sentences)):
                corpus = combine_corpus(table, method=method, weights=weight_table,
                                        bracket_level=bracket_level, words=word_corpus)
        self.write_conll(out, corpus)

    def best_n(self, table, n, out):
        table = self.read_table(table)
        with self.t.span("ensemble.best_n", subsets=comb(len(table.systems), n)):
            names = best_n_select(table, n)
            report = evaluate_subset(table, names)
        write(out, " ".join(names) + "\n" + f"F {100 * report.f_rate:.2f}\n")

    def report(self, gold, preds, out, tsv):
        gold_corpus = self.parse(gold, "iob1", 3, False)
        rows = []
        for name, path in preds:
            pred = self.parse(path, "iob1", 3, False)
            with self.t.span("metrics.score") as c:
                report = score_tagged(gold_corpus, pred)
                c["chunks"] = report.overall.gold + report.overall.found
            rows.append((name, report))
        # the report subcommand's own table layout
        width = max(len("system"), max(len(name) for name, _ in rows))
        lines = [f"{'system':<{width}}  {'precision':>9}  {'recall':>9}  {'F':>9}"]
        for name, report in rows:
            o = report.overall
            lines.append(
                f"{name:<{width}}  {100 * o.precision:>9.2f}"
                f"  {100 * o.recall:>9.2f}  {100 * report.f_rate:>9.2f}"
            )
        write(out, "\n".join(lines) + "\n")
        lines = ["system\tfound\tgold\tcorrect\tprecision\trecall\tf"]
        for name, report in rows:
            o = report.overall
            lines.append(f"{name}\t{o.found}\t{o.gold}\t{o.correct}"
                         f"\t{o.precision!r}\t{o.recall!r}\t{report.f_rate!r}")
        write(tsv, "\n".join(lines) + "\n")

    def eval(self, gold, pred, out, nested=False):
        if nested:
            gold_s, pred_s = self.parse_nested(gold), self.parse_nested(pred)
            score = score_nested
        else:
            gold_s = self.parse(gold, "iob1", 3, False)
            pred_s = self.parse(pred, "iob1", 3, False)
            score = score_tagged
        with self.t.span("metrics.score") as c:
            report = score(gold_s, pred_s)
            c["chunks"] = report.overall.gold + report.overall.found
        with self.t.span("metrics.format"):
            text = format_report_kv(report)
        write(out, text)

    def convert_levels(self, input, out):
        nested = self.parse_nested(input)
        with self.t.span("cascade.levels") as c:
            corpus = cascade_training_corpus(nested, head="last")
            c["sentences"] = len(corpus.sentences)
        self.write_conll(out, corpus)

    def cascade(self, model, input, out, max_depth=5):
        tag = self.tagger(self.load_model(model))
        corpus = self.parse(input, "iob1", 2, False)
        rounds = [0, 0]

        def counted(sentence):
            rounds[0] += 1
            rounds[1] += len(sentence)
            return tag(sentence)

        nested = []
        with self.t.span("cascade.bracket") as c:
            for s in corpus.sentences:
                nested.append(cascade_bracket(strip_tags(s), counted, max_depth=max_depth,
                                              head="last"))
            c["rounds"], c["tokens_tagged"] = rounds
            c["input_tokens"] = sum(len(s) for s in corpus.sentences)
        with self.t.span("corpus.write_nested"):
            text = write_nested(nested)
        write(out, text)


class _TimedModel:
    """A stacked model whose predictions are spans; stacked_tags reads
    only ``slot_names`` and ``predict``."""

    def __init__(self, model, tracer: Tracer) -> None:
        self.slot_names = model.slot_names
        self._model = model
        self._predict = PREDICT[model.kind]
        self._name = f"learners.{model.kind}.predict"
        self._tracer = tracer

    def predict(self, vector):
        t0 = now()
        tag = self._predict(self._model, vector)
        self._tracer.add(self._name, t0, now())
        return tag


def main(argv: list[str]) -> int:
    spec = json.loads(argv[0])
    tracer = Tracer()
    getattr(InProcess(tracer), spec["op"])(**spec["args"])
    if len(argv) > 1:
        tracer.write(argv[1])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
