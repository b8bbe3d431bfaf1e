"""The three workloads: their inputs, their steps and what each measures.

Paths are relative to a workload's work directory: inputs under ``in/``,
outputs under the directory a pass writes to.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

import gen

WORKLOADS = ("cv-combine", "knn-tag", "cascade-np")

# Input sizes in tokens at --scale 1, so that a pass takes a few seconds
# on a 2-core host and a 25 s run holds three or more passes to take the
# median of.  knn-tag's memory is small because brute-force search costs
# memory x test tokens.
SIZES = {
    "cv-combine": {"train": 4000, "test": 3000},
    "knn-tag": {"train": 5000, "test": 500, "tuning": 3000, "test_table": 300},
    "cascade-np": {"train": 6000, "test": 30000},
}

MAXENT_ITERATIONS = 3
FOLDS = 3
SYSTEMS = (  # cv-combine's systems, in table column order
    ("base", "baseline", {}),
    ("tree", "igtree", {}),
    ("rules", "rules", {}),
    ("ent", "maxent", {"iterations": MAXENT_ITERATIONS}),
)
VOTING = ("majority", "tot-precision", "tag-precision", "precision-recall", "tag-pair")
# error rates of the pretend systems in knn-tag's tables
TABLE_ERROR_RATES = (0.05, 0.08, 0.12, 0.18)


def setup(workload: str, seed: int, scale: float, directory: Path) -> dict[str, dict]:
    """Write the workload's inputs; returns tokens and sentences per file."""
    r = random.Random(f"{workload}/{seed}")
    size = {key: max(50, int(n * scale)) for key, n in SIZES[workload].items()}
    files: dict[str, list[list[str]]] = {}
    texts: dict[str, str] = {}
    if workload == "cascade-np":
        files["train.nested"] = gen.nested_treebank(r, size["train"])
        files["test.nested"] = gen.nested_treebank(r, size["test"])
        files["test.words"] = gen.words_of_nested(files["test.nested"])
    else:
        files["train.conll"] = gen.flat_corpus(r, size["train"])
        files["test.conll"] = gen.flat_corpus(r, size["test"])
    if workload == "knn-tag":
        for name, key in (("tuning.tbl", "tuning"), ("test.tbl", "test_table")):
            files[name] = gen.flat_corpus(r, size[key])
            texts[name] = gen.prediction_table(r, files[name], TABLE_ERROR_RATES)
    inputs = directory / "in"
    inputs.mkdir(parents=True, exist_ok=True)
    for name, sentences in files.items():
        (inputs / name).write_text(texts.get(name) or gen.render(sentences), encoding="utf-8")
    return {
        name: {"tokens": sum(map(len, sentences)), "sentences": len(sentences)}
        for name, sentences in files.items()
    }


@dataclass(frozen=True)
class Step:
    """One pipeline step.  ``op`` and ``args`` name a ``step.InProcess`` method;
    ``category`` says which end-to-end timing it counts toward."""

    label: str
    category: str
    op: str
    args: dict = field(hash=False)

    @property
    def outputs(self) -> list[str]:
        return [self.args[key] for key in ("out", "tsv") if key in self.args]

    def cli_argv(self) -> list[str] | None:
        """The subcommand that does this step, or None when there is none."""
        a = self.args
        op = self.op
        if op == "cv_tune":
            argv = ["cv-tune", a["train"]]
            for name, learner, options in a["systems"]:
                argv += ["--system", ",".join([f"{name}={learner}"] +
                                              [f"{k}={v}" for k, v in options.items()])]
            return argv + ["--folds", str(a["folds"]), "-o", a["out"]]
        if op == "train":
            argv = ["train", a["train"], "--learner", a["learner"]]
            for key, value in a["options"].items():
                argv += [f"--{key}", str(value)]
            return argv + ["-o", a["out"]]
        if op == "tag":
            return ["tag", a["model"], a["input"], "-o", a["out"]]
        if op == "weights":
            return ["weights", a["table"], "-o", a["out"]]
        if op == "combine":
            argv = ["combine", a["table"], "--method", a["method"]]
            for key in ("weights", "tuning", "words"):
                if a.get(key):
                    argv += [f"--{key}", a[key]]
            if a.get("bracket_level"):
                argv.append("--bracket-level")
            return argv + ["-o", a["out"]]
        if op == "best_n":
            return ["best-n", a["table"], "-n", str(a["n"]), "-o", a["out"]]
        if op == "report":
            argv = ["report", a["gold"]]
            for name, path in a["preds"]:
                argv += ["--pred", f"{name}={path}"]
            return argv + ["-o", a["out"], "--tsv", a["tsv"]]
        if op == "eval":
            argv = ["eval", a["gold"], a["pred"], "--kv", "-o", a["out"]]
            return argv + (["--nested"] if a.get("nested") else [])
        if op == "convert_levels":
            return ["convert", a["input"], "--nested-to-levels", "-o", a["out"]]
        if op == "cascade":
            return ["cascade", a["model"], a["input"], "--columns", "2", "-o", a["out"]]
        return None


def steps(workload: str, out: str) -> list[Step]:
    """The workload's steps, in order, writing under ``out``."""
    if workload == "cv-combine":
        return _cv_combine(out)
    if workload == "knn-tag":
        return _knn_tag(out)
    return _cascade_np(out)


def _cv_combine(out: str) -> list[Step]:
    tuning, table, weights = f"{out}/tuning.tbl", f"{out}/test.tbl", f"{out}/tuning.weights"
    steps = [Step("cv-tune", "cv_tune", "cv_tune", {
        "train": "in/train.conll", "systems": [list(s) for s in SYSTEMS],
        "folds": FOLDS, "out": tuning})]
    for name, learner, options in SYSTEMS:
        steps.append(Step(f"train {name}", "train", "train", {
            "train": "in/train.conll", "learner": learner, "options": options,
            "out": f"{out}/{name}.model"}))
    for name, _, _ in SYSTEMS:
        steps.append(Step(f"tag {name}", "tag", "tag", {
            "model": f"{out}/{name}.model", "input": "in/test.conll",
            "out": f"{out}/{name}.out"}))
    steps.append(Step("table", "table", "table", {
        "gold": "in/test.conll", "preds": [[name, f"{out}/{name}.out"] for name, _, _ in SYSTEMS],
        "out": table}))
    steps.append(Step("weights", "combine", "weights", {"table": tuning, "out": weights}))
    for method in VOTING:
        steps.append(Step(f"combine {method}", "combine", "combine", {
            "table": table, "method": method, "weights": weights,
            "words": "in/test.conll", "out": f"{out}/comb.{method}.conll"}))
    steps.append(Step("combine bracket", "combine", "combine", {
        "table": table, "method": "majority", "bracket_level": True,
        "words": "in/test.conll", "out": f"{out}/comb.bracket.conll"}))
    steps.append(Step("combine stacked-igtree-pos", "combine", "combine", {
        "table": table, "method": "stacked-igtree-pos", "tuning": tuning,
        "words": "in/test.conll", "out": f"{out}/comb.stacked.conll"}))
    for n in (2, 3):
        steps.append(Step(f"best-n {n}", "combine", "best_n", {
            "table": tuning, "n": n, "out": f"{out}/best{n}.txt"}))
    preds = [[name, f"{out}/{name}.out"] for name, _, _ in SYSTEMS]
    preds += [[method, f"{out}/comb.{method}.conll"] for method in VOTING]
    preds += [["bracket", f"{out}/comb.bracket.conll"], ["stacked", f"{out}/comb.stacked.conll"]]
    steps.append(Step("report", "report", "report", {
        "gold": "in/test.conll", "preds": preds,
        "out": f"{out}/report.txt", "tsv": f"{out}/report.tsv"}))
    return steps


def _knn_tag(out: str) -> list[Step]:
    return [
        Step("train knn", "train", "train", {
            "train": "in/train.conll", "learner": "knn", "options": {"k": 3},
            "out": f"{out}/knn.model"}),
        Step("tag knn", "tag", "tag", {
            "model": f"{out}/knn.model", "input": "in/test.conll", "out": f"{out}/knn.out"}),
        Step("eval", "eval", "eval", {
            "gold": "in/test.conll", "pred": f"{out}/knn.out", "out": f"{out}/eval.txt"}),
        Step("combine stacked-knn-pos", "combine", "combine", {
            "table": "in/test.tbl", "method": "stacked-knn-pos", "tuning": "in/tuning.tbl",
            "out": f"{out}/stacked.conll"}),
    ]


def _cascade_np(out: str) -> list[Step]:
    return [
        Step("convert", "convert", "convert_levels", {
            "input": "in/train.nested", "out": f"{out}/levels.conll"}),
        Step("train igtree", "train", "train", {
            "train": f"{out}/levels.conll", "learner": "igtree", "options": {},
            "out": f"{out}/np.model"}),
        Step("cascade", "cascade", "cascade", {
            "model": f"{out}/np.model", "input": "in/test.words", "out": f"{out}/test.nested"}),
        Step("eval nested", "eval", "eval", {
            "gold": "in/test.nested", "pred": f"{out}/test.nested", "nested": True,
            "out": f"{out}/eval.txt"}),
    ]
