"""Correctness checks and metrics, all computed after the timed passes.

The checks read the program's output files and recompute what they can
with the reference implementations in ``tests/oracles.py`` and with this
file's own readers for the column formats, never with the package's
parsers or scorers.
"""

from __future__ import annotations

import importlib.util
import itertools
import random
import statistics
import traceback
from collections import defaultdict
from pathlib import Path

from spans import (
    COUNTERS,
    END,
    NAME,
    PARENT,
    START,
    layer_self_seconds,
    name_totals,
    read_child_spans,
    self_times,
)

from chunkvote import (
    LearnerSpec,
    Sentence,
    TagScheme,
    Token,
    loads_model,
    make_features,
    parse_conll,
    read_table,
    stacked_train,
)

ROOT = Path(__file__).resolve().parent.parent
KINDS = ("baseline", "igtree", "rules", "maxent", "knn")
VOTING = ("majority", "tot-precision", "tag-precision", "precision-recall", "tag-pair")
LAYERS = ("cli", "corpus", "features", "learners", "model_io", "ensemble", "cascade", "metrics")
GATED = ("setup_s", "pipeline_s", "train_s", "tag_tok_per_s", "peak_rss_mb", "f1")
KNN_WINDOW_SAMPLE = 40
KNN_STACKED_SENTENCES = 4

PER_LAYER = [
    ("features.featurize_s", "s"), ("features.vectors", "count"),
    ("features.make_features_s", "s"), ("features.make_features_calls", "count"),
    *[(f"learners.{kind}.{what}", unit) for kind in KINDS
      for what, unit in (("train_s", "s"), ("predict_s", "s"), ("predictions", "count"))],
    ("learners.knn.memory_items", "count"), ("learners.knn.unique_vectors", "count"),
    ("learners.maxent.iterations", "count"), ("learners.maxent.iter_s", "s"),
    ("learners.maxent.features", "count"), ("learners.maxent.loglik_last", "nats"),
    ("learners.igtree.nodes", "count"), ("learners.igtree.depth", "count"),
    ("learners.rules.fallthrough_ratio", "ratio"),
    ("model_io.dump_s", "s"), ("model_io.load_s", "s"), ("model_io.bytes", "bytes"),
    ("corpus.parse_s", "s"), ("corpus.parse_tokens", "count"), ("corpus.write_s", "s"),
    ("ensemble.read_table_s", "s"), ("ensemble.write_table_s", "s"), ("ensemble.weights_s", "s"),
    *[(f"ensemble.vote_s.{method}", "s") for method in VOTING],
    ("ensemble.bracket_s", "s"), ("ensemble.stacked_train_s", "s"),
    ("ensemble.stacked_tag_s", "s"), ("ensemble.best_n_s", "s"),
    ("ensemble.best_n_subsets", "count"), ("ensemble.rows_voted", "count"),
    ("ensemble.unanimous_ratio", "ratio"),
    *[(f"ensemble.changed_vs_majority.{method}", "count") for method in VOTING[1:]],
    ("cascade.levels_s", "s"), ("cascade.level_sentences", "count"),
    ("cascade.bracket_self_s", "s"), ("cascade.rounds", "count"), ("cascade.retag_ratio", "ratio"),
    ("metrics.score_s", "s"), ("metrics.chunks_scored", "count"),
    ("cli.self_s", "s"), ("trace.overhead_s", "s"),
]


def _load_oracles():
    spec = importlib.util.spec_from_file_location("oracles", ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracles = _load_oracles()


#---------------------------------------------------------------------------
# independent readers

def read_blocks(path: Path) -> list[list[list[str]]]:
    """Sentences of whitespace-split lines; blank lines end sentences."""
    sentences, current = [], []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip():
            current.append(line.split())
        elif current:
            sentences.append(current)
            current = []
    if current:
        sentences.append(current)
    return sentences


def nested_spans(path: Path) -> list[list]:
    """Span lists of a nested bracket file such as ``(NP(NP*`` / ``*))``."""
    result = []
    for sentence in read_blocks(path):
        spans, stack = [], []
        for i, (_, _, bracket) in enumerate(sentence):
            opening, _, closing = bracket.partition("*")
            stack.extend((label, i) for label in opening.split("(")[1:])
            for _ in closing:
                label, begin = stack.pop()
                spans.append(oracles.ChunkSpan(begin, i + 1, label))
        result.append(spans)
    return result


def flat_spans(path: Path) -> list[list]:
    return [oracles.oracle_chunks([fields[2] for fields in s]) for s in read_blocks(path)]


def oracle_counts(gold_spans, pred_spans) -> tuple[int, int, int]:
    overall, _ = oracles.oracle_score(gold_spans, pred_spans)
    return overall["found"], overall["gold"], overall["correct"]


def oracle_f(found: int, gold: int, correct: int) -> float:
    precision = correct / found if found else 0.0
    recall = correct / gold if gold else 0.0
    return oracles.oracle_f(precision, recall)


def read_kv(path: Path) -> dict[str, str]:
    return dict(line.split("=", 1) for line in path.read_text().splitlines())


#---------------------------------------------------------------------------
# checks

class Checker:
    def __init__(self, workload: str, directory: Path, seed: int, check) -> None:
        self.workload = workload
        self.dir = directory
        self.rng = random.Random(f"checks/{workload}/{seed}")
        self.check = check
        self.internals: dict[str, float] = {}

    def path(self, relative: str) -> Path:
        return self.dir / relative

    def run(self, steps, logliks: list[list[float]]) -> None:
        """Check every step's output; ``logliks`` are the maxent training
        curves the traced passes recorded, if any.  A check that cannot run,
        say because a step left no output, counts as failed."""
        checks = [(step.label, getattr(self, f"_check_{step.op}"), (step,))
                  for step in steps if hasattr(self, f"_check_{step.op}")]
        if self.workload == "knn-tag":
            checks.append(("k-NN", self._check_knn, (steps,)))
        if self.workload == "cv-combine":
            checks.append(("maxent", self._check_maxent, (steps, logliks)))
        for label, check, args in checks:
            try:
                check(*args)
            except Exception:
                self.check(False, f"check of {label} could not run: {traceback.format_exc()}")

    def _check_eval(self, step) -> None:
        a = step.args
        if a.get("nested"):
            gold, pred = nested_spans(self.path(a["gold"])), nested_spans(self.path(a["pred"]))
        else:
            gold, pred = flat_spans(self.path(a["gold"])), flat_spans(self.path(a["pred"]))
        kv = read_kv(self.path(a["out"]))
        got = tuple(int(kv[f"overall.{key}"]) for key in ("found", "gold", "correct"))
        self.check(got == oracle_counts(gold, pred),
                   f"{step.label}: counts {got} differ from the reference scorer")

    def _check_report(self, step) -> None:
        a = step.args
        gold = flat_spans(self.path(a["gold"]))
        paths = dict(a["preds"])
        rows = [line.split("\t") for line in self.path(a["tsv"]).read_text().splitlines()[1:]]
        self.check(len(rows) == len(paths), f"{step.label}: {len(rows)} rows for {len(paths)}")
        for name, found, gold_n, correct, *_ in rows:
            expected = oracle_counts(gold, flat_spans(self.path(paths[name])))
            got = (int(found), int(gold_n), int(correct))
            self.check(got == expected, f"{step.label} {name}: counts {got} != {expected}")

    def _check_best_n(self, step) -> None:
        blocks = read_blocks(self.path(step.args["table"]))
        header, blocks[0] = blocks[0][0], blocks[0][1:]
        systems = header[2:]
        gold = [oracles.oracle_chunks([row[0] for row in s]) for s in blocks]

        def f_of(subset):
            voted = []
            for s in blocks:
                tags = [oracles.oracle_vote([(systems[i], row[2 + i]) for i in subset], "majority")
                        for row in s]
                voted.append(oracles.oracle_chunks(tags))
            return oracle_f(*oracle_counts(gold, voted))

        names_line, f_line = self.path(step.args["out"]).read_text().splitlines()
        chosen = tuple(systems.index(name) for name in names_line.split())
        f = f_of(chosen)
        best = max(f_of(s) for s in itertools.combinations(range(len(systems)), step.args["n"]))
        self.check(f_line == f"F {100 * f:.2f}" and f >= best - 1e-12,
                   f"{step.label}: {names_line} / {f_line}, reference F {100 * f:.4f}"
                   f" best {100 * best:.4f}")

    def _check_knn(self, steps) -> None:
        """Re-derive sampled k-NN predictions by brute force."""
        by_label = {step.label: step.args for step in steps}
        tag = by_label["tag knn"]
        model = loads_model(self.path(tag["model"]).read_text())
        test = read_blocks(self.path(tag["input"]))
        out = read_blocks(self.path(tag["out"]))
        for _ in range(KNN_WINDOW_SAMPLE):
            si = self.rng.randrange(len(test))
            i = self.rng.randrange(len(test[si]))
            sentence = Sentence(tuple(Token(w, p) for w, p, *_ in test[si]))
            left = [fields[2] for fields in out[si]]
            vector = make_features(sentence, i, model.window, left[:i])
            expected = oracles.oracle_knn(model.memory, model.weights, model.k, vector,
                                          model.class_counts)
            self.check(expected == left[i], f"knn window prediction, sentence {si + 1} token"
                                            f" {i + 1}: {left[i]} != reference {expected}")
        self.internals["learners.knn.memory_items"] = len(model.memory)
        self.internals["learners.knn.unique_vectors"] = len({v for v, _ in model.memory})

        stacked = by_label["combine stacked-knn-pos"]
        tuning = read_table(self.path(stacked["tuning"]).read_text())
        stacked_model = stacked_train(tuning, learner="knn", add_pos=True)
        test_rows = read_blocks(self.path(stacked["table"]))
        test_rows[0] = test_rows[0][1:]  # header line
        combined = read_blocks(self.path(stacked["out"]))
        for _ in range(KNN_STACKED_SENTENCES):
            si = self.rng.randrange(len(test_rows))
            tags = [
                oracles.oracle_knn(stacked_model.memory, stacked_model.weights, stacked_model.k,
                                   tuple(row[2:]) + (row[1],), stacked_model.class_counts)
                for row in test_rows[si]
            ]
            got = oracles.oracle_chunks([fields[2] for fields in combined[si]])
            self.check(oracles.oracle_chunks(tags) == got,
                       f"stacked knn sentence {si + 1} differs from the reference")

    def _check_maxent(self, steps, logliks) -> None:
        """GIS never lowers the training log-likelihood."""
        if not logliks:  # untraced run: train the full-size model again
            args = next(s.args for s in steps if s.label == "train ent")
            text = self.path(args["train"]).read_text(encoding="utf-8")
            spec = LearnerSpec(name="model", learner="maxent", **args["options"])
            logliks = [spec.train(parse_conll(text, TagScheme.IOB2)).trace.loglik]
        for loglik in logliks:
            self.check(all(b >= a for a, b in zip(loglik, loglik[1:])),
                       f"maxent log-likelihood decreased: {loglik}")

    #-----------------------------------------------------------------------
    # learner and vote internals, for the traced run

    def compute_internals(self, out: str) -> None:
        if self.workload == "cv-combine":
            tree = loads_model(self.path(f"{out}/tree.model").read_text())
            self.internals.update(zip(("learners.igtree.nodes", "learners.igtree.depth"),
                                      tree_size(tree.root)))
            self.internals["learners.rules.fallthrough_ratio"] = self._fallthrough(out)
            self._vote_stats(out)
        elif self.workload == "cascade-np":
            tree = loads_model(self.path(f"{out}/np.model").read_text())
            self.internals.update(zip(("learners.igtree.nodes", "learners.igtree.depth"),
                                      tree_size(tree.root)))

    def _fallthrough(self, out: str) -> float:
        """Share of the rules tagger's test predictions that no rule matched,
        over the vectors rebuilt from its own left tags."""
        model = loads_model(self.path(f"{out}/rules.model").read_text())
        test = read_blocks(self.path("in/test.conll"))
        tagged = read_blocks(self.path(f"{out}/rules.out"))
        total = unmatched = 0
        for words, fields in zip(test, tagged):
            sentence = Sentence(tuple(Token(w, p) for w, p, *_ in words))
            left = [f[2] for f in fields]
            for i in range(len(sentence)):
                vector = make_features(sentence, i, model.window, left[:i])
                total += 1
                unmatched += not any(rule.matches(vector) for rule in model.rules)
        return unmatched / total

    def _vote_stats(self, out: str) -> None:
        flat = [row for s in read_blocks(self.path(f"{out}/test.tbl")) for row in s][1:]
        self.internals["ensemble.unanimous_ratio"] = (
            sum(len(set(row[2:])) == 1 for row in flat) / len(flat))

        def tags(method):
            return [f[2] for s in read_blocks(self.path(f"{out}/comb.{method}.conll")) for f in s]

        majority = tags("majority")
        for method in VOTING[1:]:
            self.internals[f"ensemble.changed_vs_majority.{method}"] = sum(
                a != b for a, b in zip(tags(method), majority))


def tree_size(root) -> tuple[int, int]:
    """Node count and depth (edges on the longest path) of an igtree."""
    nodes, depth = 0, 0
    stack = [(root, 0)]
    while stack:
        node, d = stack.pop()
        nodes += 1
        depth = max(depth, d)
        stack.extend((child, d + 1) for child in node.children.values())
    return nodes, depth


#---------------------------------------------------------------------------
# spans and metrics

def collect_spans(record: dict, spans_dir: Path, run: str) -> list[tuple]:
    """Root span per step, timed by the parent around the child process,
    with the spans the child recorded hung under it."""
    spans: list[tuple] = []
    for i, step in enumerate(record["steps"]):
        root = len(spans)
        spans.append((root, f"cli.{step['label']}", step["start"], step["end"], None, run, {}))
        path = spans_dir / f"{i}.jsonl"
        if path.is_file():
            spans.extend(read_child_spans(str(path), run, root, len(spans)))
    return spans


def _stats(values: list[float]) -> dict:
    """Median, quartiles and count, as the benchmark reports every timing."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def end_to_end(workload: str, passes, setup_seconds, setup_speed: float, sizes,
               directory: Path, reference_seconds: float) -> tuple[dict, float]:
    """Every end-to-end metric the workload has, as name -> (unit, stats of
    the values scaled to the reference speed, stats of the raw values),
    and the run's speed: its median reference time over the nominal one.
    Set-up times are scaled by ``setup_speed``, measured beside them."""
    def speed(record):
        return statistics.median(record["reference"]) / reference_seconds

    def seconds(record, category=None):
        return sum(s["seconds"] for s in record["steps"]
                   if category is None or s["category"] == category)

    def timing(category=None):
        raw = [seconds(p, category) for p in passes]
        return _stats([t / speed(p) for t, p in zip(raw, passes)]), _stats(raw)

    def rate(tokens, category):
        return (_stats([tokens * speed(p) / seconds(p, category) for p in passes]),
                _stats([tokens / seconds(p, category) for p in passes]))

    run_speed = statistics.median(r for p in passes for r in p["reference"]) / reference_seconds
    metrics = {"setup_s": ("s", _stats([t / setup_speed for t in setup_seconds]),
                           _stats(setup_seconds)),
               "pipeline_s": ("s", *timing())}
    if workload == "cv-combine":
        metrics["cv_tune_s"] = ("s", *timing("cv_tune"))
    metrics["train_s"] = ("s", *timing("train"))
    test_tokens = sizes["test.words" if workload == "cascade-np" else "test.conll"]["tokens"]
    tag_category = "cascade" if workload == "cascade-np" else "tag"
    tag_steps = sum(s["category"] == tag_category for s in passes[0]["steps"])
    metrics["tag_tok_per_s"] = ("tok/s", *rate(test_tokens * tag_steps, tag_category))
    if workload == "cascade-np":
        metrics["cascade_tok_per_s"] = metrics["tag_tok_per_s"]
    else:
        metrics["combine_s"] = ("s", *timing("combine"))
    rss = _stats([max(s["rss_kib"] for s in p["steps"]) / 1024 for p in passes])
    metrics["peak_rss_mb"] = ("MB", rss, rss)
    try:
        if workload == "cv-combine":
            rows = [line.split("\t") for line in
                    (directory / "pass" / "report.tsv").read_text().splitlines()]
            f = float(next(row[6] for row in rows if row[0] == "tag-pair"))
        else:
            f = float(read_kv(directory / "pass" / "eval.txt")["overall.f"])
    except (OSError, KeyError, StopIteration, ValueError):
        f = 0.0
    f1 = _stats([100 * f] * len(passes))
    metrics["f1"] = ("%", f1, f1)
    return metrics, run_speed


def pass_metrics(spans: list[tuple], check) -> dict:
    """Per-layer metrics of one traced pass, before the untraced pipeline
    time is known; keys starting with ``_`` are working values."""
    seconds, calls = name_totals(spans)
    counters: dict[tuple[str, str], float] = defaultdict(float)
    last: dict[str, dict] = {}
    for span in spans:
        for key, value in span[COUNTERS].items():
            if isinstance(value, (int, float)):
                counters[(span[NAME], key)] += value
        last[span[NAME]] = span[COUNTERS]
    selfs = self_times(spans)
    layers = layer_self_seconds(spans, selfs)
    total = sum((s[END] - s[START]) / 1e9 for s in spans if s[PARENT] is None)
    check(abs(sum(layers.values()) - total) < 1e-6,
          f"layer self times {sum(layers.values())} do not add up to {total}")

    m = {"_layers": layers, "_total": total,
         "_logliks": [s[COUNTERS]["loglik"] for s in spans if s[NAME] == "learners.maxent.train"]}
    m["features.featurize_s"] = seconds["features.featurize"]
    m["features.vectors"] = counters[("features.featurize", "vectors")]
    m["features.make_features_s"] = seconds["features.make_features"]
    m["features.make_features_calls"] = calls["features.make_features"]
    for kind in KINDS:
        m[f"learners.{kind}.train_s"] = seconds[f"learners.{kind}.train"]
        m[f"learners.{kind}.predict_s"] = seconds[f"learners.{kind}.predict"]
        m[f"learners.{kind}.predictions"] = calls[f"learners.{kind}.predict"]
    iterations = counters[("learners.maxent.train", "iterations")]
    trainings = calls["learners.maxent.train"]
    m["learners.maxent.iterations"] = iterations
    # every training also makes one final pass over the data
    m["learners.maxent.iter_s"] = (seconds["learners.maxent.train"] / (iterations + trainings)
                                   if trainings else 0.0)
    maxent = last.get("learners.maxent.train", {})  # the full-size model
    m["learners.maxent.features"] = maxent.get("features", 0)
    m["learners.maxent.loglik_last"] = maxent["loglik"][-1] if maxent else 0.0
    m["model_io.dump_s"] = seconds["model_io.dump"]
    m["model_io.load_s"] = seconds["model_io.load"]
    m["model_io.bytes"] = counters[("model_io.dump", "bytes")]
    m["corpus.parse_s"] = seconds["corpus.parse"] + seconds["corpus.parse_nested"]
    m["corpus.parse_tokens"] = (counters[("corpus.parse", "tokens")]
                                + counters[("corpus.parse_nested", "tokens")])
    m["corpus.write_s"] = seconds["corpus.write"] + seconds["corpus.write_nested"]
    m["ensemble.read_table_s"] = seconds["ensemble.read_table"]
    m["ensemble.write_table_s"] = seconds["ensemble.write_table"]
    m["ensemble.weights_s"] = seconds["ensemble.weights"]
    for method in VOTING:
        m[f"ensemble.vote_s.{method}"] = seconds[f"ensemble.vote.{method}"]
    m["ensemble.bracket_s"] = seconds["ensemble.bracket"]
    m["ensemble.stacked_train_s"] = seconds["ensemble.stacked_train"]
    m["ensemble.stacked_tag_s"] = seconds["ensemble.stacked_tag"]
    m["ensemble.best_n_s"] = seconds["ensemble.best_n"]
    m["ensemble.best_n_subsets"] = counters[("ensemble.best_n", "subsets")]
    m["ensemble.rows_voted"] = sum(v for (_, key), v in counters.items() if key == "rows")
    m["cascade.levels_s"] = seconds["cascade.levels"]
    m["cascade.level_sentences"] = counters[("cascade.levels", "sentences")]
    m["cascade.bracket_self_s"] = sum(ns for s, ns in zip(spans, selfs)
                                      if s[NAME] == "cascade.bracket") / 1e9
    m["cascade.rounds"] = counters[("cascade.bracket", "rounds")]
    inputs = counters[("cascade.bracket", "input_tokens")]
    m["cascade.retag_ratio"] = (counters[("cascade.bracket", "tokens_tagged")] / inputs
                                if inputs else 0.0)
    m["metrics.score_s"] = seconds["metrics.score"]
    m["metrics.chunks_scored"] = counters[("metrics.score", "chunks")]
    return m


def per_layer(per_pass: list[dict], passes, internals: dict):
    """Per-layer metrics, each the median over traced passes, and report lines."""
    pipeline = statistics.median(sum(s["seconds"] for s in p["steps"]) for p in passes)
    for m in per_pass:
        m["cli.self_s"] = pipeline - sum(v for k, v in m["_layers"].items() if k != "cli")
        m["trace.overhead_s"] = m["_total"] - pipeline
    values = {}
    for name, unit in PER_LAYER:
        if name in internals:
            values[name] = (unit, internals[name])
        else:
            values[name] = (unit, statistics.median(m.get(name, 0.0) for m in per_pass))

    total = statistics.median(m["_total"] for m in per_pass)
    layers = {layer: statistics.median(m["_layers"].get(layer, 0.0) for m in per_pass)
              for layer in LAYERS}
    lines = [f"traced total {total:.4f} s, median of {len(per_pass)} traced pass(es);"
             f" untraced pipeline_s {pipeline:.4f} s",
             f"{'layer':<10} {'self s':>10} {'share':>7}"]
    for layer, seconds in sorted(layers.items(), key=lambda kv: -kv[1]):
        lines.append(f"{layer:<10} {seconds:>10.4f} {seconds / total:>7.1%}")
    lines.append(f"{'sum':<10} {sum(layers.values()):>10.4f}")
    share = values["learners.knn.predict_s"][1] / total
    lines.append(f"learners.knn.predict_s is {share:.1%} of traced time")
    for name, (unit, value) in values.items():
        lines.append(f"{name:<44} {value:>14.6g} {unit}")
    return values, lines
