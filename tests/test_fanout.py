"""``fan_out`` and its two callers give the serial results, bytes and errors
whatever the number of usable CPUs."""

import os
import threading
import time

import pytest

import chunkvote.learners
from chunkvote import (
    ChunkvoteError,
    LearnerSpec,
    ValidationError,
    cv_tuning_table,
    write_nested,
    write_table,
)
from chunkvote.cli import main
from chunkvote.fanout import fan_out

import datagen

CPUS = [1, 2, 3]


def failing_at(bad, parent_only=False):
    """Work returning the item and its process id, raising for the items in ``bad``."""
    parent = os.getpid()

    def work(item):
        if item in bad and (not parent_only or os.getpid() == parent):
            raise bad[item]
        return item, os.getpid()

    return work


class TestFanOut:
    @pytest.mark.parametrize("cpus", CPUS)
    @pytest.mark.parametrize("n", [0, 1, 2, 5])
    def test_gives_the_plain_loop_in_item_order(self, usable_cpus, cpus, n):
        usable_cpus(cpus)
        items = [f"item {i}" for i in range(n)]
        assert fan_out(str.upper, items) == [item.upper() for item in items]

    @pytest.mark.parametrize("cpus, n, processes", [(1, 5, 1), (2, 5, 2), (3, 5, 3), (3, 2, 2)])
    def test_deals_the_items_round_robin(self, usable_cpus, cpus, n, processes):
        usable_cpus(cpus)
        pids = [pid for _, pid in fan_out(failing_at({}), range(n))]
        assert pids[0] == os.getpid()
        assert len(set(pids)) == processes
        assert pids == [pids[i % processes] for i in range(n)]

    def test_a_live_thread_keeps_it_serial(self, usable_cpus):
        usable_cpus(2)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            pids = [pid for _, pid in fan_out(failing_at({}), range(4))]
        finally:
            release.set()
            thread.join()
        assert pids == [os.getpid()] * 4

    @pytest.mark.parametrize("cpus", CPUS)
    def test_an_error_in_a_child_is_the_serial_error(self, usable_cpus, cpus):
        usable_cpus(cpus)
        work = failing_at({1: ChunkvoteError("item 1 is bad")})
        with pytest.raises(ChunkvoteError, match="^item 1 is bad$"):
            fan_out(work, range(4))

    @pytest.mark.parametrize("cpus", CPUS)
    @pytest.mark.parametrize("bad", [(1, 2), (1, 4), (0, 1), (2, 3), (3, 5)])
    def test_the_lowest_failing_item_wins(self, usable_cpus, cpus, bad):
        # With 2 CPUs this process works through items 0, 2 and 4.
        usable_cpus(cpus)
        work = failing_at({i: ValueError(f"item {i}") for i in bad})
        with pytest.raises(ValueError, match=f"^item {min(bad)}$"):
            fan_out(work, range(6))

    class Unpicklable(Exception):
        def __init__(self, a, b):
            super().__init__(f"{a} {b}")

    @pytest.mark.parametrize("error", [
        Unpicklable("needs", "two arguments"), ValueError(lambda: None),
    ], ids=["loads fails", "dumps fails"])
    def test_an_error_that_cannot_be_carried_is_raised_again(self, usable_cpus, error):
        usable_cpus(2)
        with pytest.raises(type(error)) as raised:
            fan_out(failing_at({3: error}), range(4))
        assert raised.value is error

    def test_an_error_that_does_not_recur_is_an_internal_error(self, usable_cpus):
        usable_cpus(2)
        parent = os.getpid()

        def work(item):
            if os.getpid() != parent:
                raise ValueError(lambda: None)  # cannot be carried
            return item

        with pytest.raises(RuntimeError, match="failed in a worker process but not when run again"):
            fan_out(work, range(4))

    def test_a_child_that_dies_is_an_internal_error(self, usable_cpus):
        usable_cpus(2)
        parent = os.getpid()

        def work(item):
            if os.getpid() != parent:
                os._exit(7)
            return item

        with pytest.raises(RuntimeError, match="ended without sending its results"):
            fan_out(work, range(4))

    def test_an_error_in_the_parent_waits_for_the_children(self, usable_cpus):
        usable_cpus(3)
        work = failing_at({0: ValueError("item 0")}, parent_only=True)
        with pytest.raises(ValueError, match="^item 0$"):
            fan_out(work, range(6))
        # the autouse fixture checks that every child was reaped

    def test_an_interrupt_in_the_parent_stops_the_children(self, usable_cpus):
        usable_cpus(2)
        parent = os.getpid()

        def work(item):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)

        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            fan_out(work, range(4))
        assert time.monotonic() - start < 30


class TestCvTuningTable:
    SPECS = [
        LearnerSpec("base", "baseline"),
        LearnerSpec("tree", "igtree"),
        LearnerSpec("ent", "maxent", iterations=2),
        LearnerSpec("knn", "knn", k=1),
        LearnerSpec("io", "rules", io_encoding=True),
    ]

    @pytest.mark.parametrize("folds", [2, 3, 5])
    def test_bytes_do_not_depend_on_the_cpus(self, usable_cpus, folds):
        corpus = datagen.grammar_corpus(datagen.rng(37_000), 12)
        texts = []
        for cpus in CPUS:
            usable_cpus(cpus)
            texts.append(write_table(cv_tuning_table(corpus, self.SPECS, folds=folds)))
        assert texts[1] == texts[0] and texts[2] == texts[0]

    def test_a_fold_error_is_the_serial_error(self, usable_cpus, monkeypatch):
        # Only the fits of the last of the four window groups fail, each
        # naming its training set's size; with 2 CPUs its first fold (item 9)
        # is the child's.
        corpus = datagen.grammar_corpus(datagen.rng(37_000), 12)
        fit = LearnerSpec.fit

        def failing_fit(spec, dataset):
            if spec.io_encoding:
                raise ChunkvoteError(f"{spec.name} on {len(dataset.items)} items")
            return fit(spec, dataset)

        monkeypatch.setattr(LearnerSpec, "fit", failing_fit)
        errors = []
        for cpus in CPUS:
            usable_cpus(cpus)
            with pytest.raises(ChunkvoteError) as raised:
                cv_tuning_table(corpus, self.SPECS, folds=3)
            errors.append(str(raised.value))
        assert errors[0].startswith("io on ") and errors[1:] == errors[:1] * 2


def cascade_files(tmp_path, sentences):
    """A nested NP model trained on a random treebank, and ``sentences``
    untagged sentences of another to parse."""
    r = datagen.rng(37_100)
    treebank = [datagen.random_nested_sentence(r, r.randint(1, 10)) for _ in range(30)]
    (tmp_path / "train.nested").write_text(write_nested(treebank))
    test = [datagen.random_nested_sentence(r, r.randint(1, 10)) for _ in range(sentences)]
    (tmp_path / "test.words").write_text("".join(
        "".join(f"{w} {p}\n" for w, p in zip(s.words, s.pos_tags)) + "\n" for s in test))
    levels, model = str(tmp_path / "levels.conll"), str(tmp_path / "model.txt")
    assert main(["convert", str(tmp_path / "train.nested"), "--nested-to-levels", "-o", levels]) == 0
    assert main(["train", levels, "--learner", "igtree", "-o", model]) == 0
    return model, str(tmp_path / "test.words")


class TestCascadeCommand:
    @pytest.mark.parametrize("sentences", [0, 1, 2, 25])
    def test_bytes_do_not_depend_on_the_cpus(self, tmp_path, capsys, usable_cpus, sentences):
        model, words = cascade_files(tmp_path, sentences)
        capsys.readouterr()
        outputs = []
        for cpus in CPUS:
            usable_cpus(cpus)
            assert main(["cascade", model, words, "--columns", "2"]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
        assert outputs[0].out.count("\n\n") == sentences
        assert outputs[0].err == ""

    # The first sentence is bracketed before the fork; with 2 CPUs this
    # process then takes sentences 1, 3, 5 and the child 2, 4, 6.
    @pytest.mark.parametrize("bad", [
        (2,),  # the child's sentence fails
        (2, 3),  # the child's sentence fails before this process's
        (1, 2),  # this process's sentence fails before the child's
        (0, 2),  # the first sentence fails
        (4, 6),
    ])
    def test_an_error_is_the_serial_error(self, tmp_path, capsys, monkeypatch, usable_cpus, bad):
        model, _ = cascade_files(tmp_path, 0)
        words = tmp_path / "words.txt"  # sentence i has the words si.0, si.1, ...
        words.write_text("".join(
            "".join(f"s{i}.{k} {pos}\n" for k, pos in enumerate(["DT", "JJ", "NN", "VB"][:i % 4 + 1]))
            + "\n" for i in range(7)))
        words = str(words)
        tag_sentence = chunkvote.learners.tag_sentence

        def tagger(model, sentence):
            i = int(sentence.words[0][1:].partition(".")[0])
            if i in bad:
                raise ValidationError(f"sentence {i} cannot be tagged")
            return tag_sentence(model, sentence)

        monkeypatch.setattr(chunkvote.learners, "tag_sentence", tagger)
        capsys.readouterr()
        results = []
        for cpus in CPUS:
            usable_cpus(cpus)
            results.append((main(["cascade", model, words, "--columns", "2"]), capsys.readouterr()))
        assert results[0] == (2, ("", f"error: sentence {bad[0]} cannot be tagged\n"))
        assert results[1] == results[0] and results[2] == results[0]

