"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench/tests``."""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import gen
import spans
import workloads
from chunkvote import TagScheme, parse_conll, parse_nested

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


#---------------------------------------------------------------------------
# generators

def _all_inputs(workload, seed, tmp_path):
    directory = tmp_path / f"{workload}-{seed}"
    workloads.setup(workload, seed, 0.1, directory)
    return {p.name: p.read_bytes() for p in sorted((directory / "in").iterdir())}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_bytes_other_seed_other_bytes(workload, tmp_path):
    first = _all_inputs(workload, 5, tmp_path / "a")
    assert first == _all_inputs(workload, 5, tmp_path / "b")
    other = _all_inputs(workload, 6, tmp_path / "c")
    assert first.keys() == other.keys()
    assert all(first[name] != other[name] for name in first)


def test_flat_corpus_is_legal_iob2_without_reserved_values():
    text = gen.render(gen.flat_corpus(random.Random(3), 3000))
    corpus = parse_conll(text, TagScheme.IOB2, strict=True)
    words = {t.word for s in corpus.sentences for t in s.tokens}
    types = {t.chunk_tag[2:] for s in corpus.sentences for t in s.tokens if t.chunk_tag != "O"}
    assert not words & {"__PAD__", "_"}
    assert types == set(gen.CHUNK_TYPES)


def test_flat_corpus_vocabulary_is_zipfian():
    corpus = gen.flat_corpus(random.Random(4), 20000)
    counts = {}
    for line in (line for s in corpus for line in s):
        word, pos, _ = line.split()
        if pos == "NN":
            counts[word] = counts.get(word, 0) + 1
    ranked = sorted(counts.values(), reverse=True)
    assert ranked[0] > 5 * ranked[9] and len(ranked) > 300


def test_nested_treebank_nests_three_deep():
    sentences = parse_nested(gen.render(gen.nested_treebank(random.Random(5), 2000)))
    for sentence in sentences:
        def depth(span):
            return 1 + max((depth(o) for o in sentence.spans
                            if span.begin <= o.begin and o.end <= span.end and o != span),
                           default=0)
        assert max(depth(s) for s in sentence.spans) >= 3
        assert {s.label for s in sentence.spans} == {"NP"}


def test_prediction_table_rows_follow_gold():
    sentences = gen.flat_corpus(random.Random(6), 500)
    lines = gen.prediction_table(random.Random(7), sentences, (0.0, 1.0)).splitlines()
    assert lines[0] == "gold pos s1 s2"
    rows = [line.split() for line in lines[1:] if line]
    assert all(row[2] == row[0] for row in rows)
    assert all(row[3] != row[0] for row in rows)


#---------------------------------------------------------------------------
# spans

def _span(i, name, start, end, parent):
    return (i, name, start, end, parent, "r", {})


def test_self_time_of_a_hand_built_tree():
    tree = [
        _span(0, "cli.step", 0, 100, None),
        _span(1, "learners.train", 10, 40, 0),
        _span(2, "features.featurize", 20, 30, 1),
        _span(3, "learners.predict", 35, 60, 0),   # overlaps its sibling
        _span(4, "corpus.write", 90, 120, 0),      # runs past its parent
    ]
    # root: 100 minus the union [10, 60) and [90, 100) of its children
    assert spans.self_times(tree) == [40, 20, 10, 25, 30]
    layers = spans.layer_self_seconds(tree, spans.self_times(tree))
    assert layers == {"cli": 40e-9, "learners": 45e-9, "features": 10e-9, "corpus": 30e-9}


def test_layer_self_times_add_up_to_the_roots():
    tree = [
        _span(0, "cli.a", 0, 50, None),
        _span(1, "corpus.parse", 5, 15, 0),
        _span(2, "learners.tag", 20, 45, 0),
        _span(3, "features.make_features", 21, 30, 2),
        _span(4, "learners.knn.predict", 30, 44, 2),
        _span(5, "cli.b", 60, 80, None),
    ]
    layers = spans.layer_self_seconds(tree, spans.self_times(tree))
    assert sum(layers.values()) == pytest.approx(70e-9)


def test_tracer_nests_spans_and_leaves(tmp_path):
    tracer = spans.Tracer()
    with tracer.span("a.outer", n=1):
        with tracer.span("b.inner"):
            tracer.add("c.leaf", 5, 6)
    tracer.add("d.top", 7, 8)
    path = tmp_path / "spans.jsonl"
    tracer.write(str(path))
    collected = spans.read_child_spans(str(path), "run", root=0, first_id=1)
    assert [(s[1], s[4]) for s in collected] == [
        ("a.outer", 0), ("b.inner", 1), ("c.leaf", 2), ("d.top", 0)]
    assert collected[0][6] == {"n": 1}


#---------------------------------------------------------------------------
# whole runs

def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


PRINTED = {
    "cv-combine": ("setup_s", "pipeline_s", "cv_tune_s", "train_s", "tag_tok_per_s",
                   "combine_s", "peak_rss_mb", "f1", "ops_failed"),
    "knn-tag": ("setup_s", "pipeline_s", "train_s", "tag_tok_per_s", "combine_s",
                "peak_rss_mb", "f1", "ops_failed"),
    "cascade-np": ("setup_s", "pipeline_s", "train_s", "tag_tok_per_s", "cascade_tok_per_s",
                   "peak_rss_mb", "f1", "ops_failed"),
}


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_prints_every_metric(workload, trace):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _run("--workload", workload, "--seed", "2", "--seconds", "0.1",
                "--trace", str(trace), "--scale", "0.05")
    assert proc.returncode == 0, proc.stderr
    *lines, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = bench["per_layer"] if trace else bench["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    printed = {line.split()[0] for line in lines if line.strip()}
    assert set(PRINTED[workload]) <= printed
    if trace:
        assert set(name for name, _ in checks.PER_LAYER) <= printed
        knn = result["metrics"]["learners.knn.predict_s"]["value"]
        assert (knn > 0) == (workload == "knn-tag")


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "knn-tag", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
