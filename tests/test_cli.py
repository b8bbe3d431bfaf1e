"""End to end checks of the command line front end.

Most tests drive ``main(argv)`` directly on files under tmp_path and
compare against the library calls the commands wrap; a few run
``python -m chunkvote`` as a child process.
"""

import hashlib
import os
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import chunkvote
from chunkvote import (
    LEARNER_KINDS,
    Corpus,
    LearnerSpec,
    TagScheme,
    cascade_training_corpus,
    convert_scheme,
    cv_tuning_table,
    dumps_model,
    estimate_weights,
    format_report,
    format_report_kv,
    loads_model,
    parse_conll,
    parse_nested,
    read_table,
    read_weights,
    score_tagged,
    strip_tags,
    tag_sentence,
    train_baseline,
    with_tags,
    write_conll,
    write_nested,
    write_table,
    write_weights,
)
from chunkvote import cascade, cli, ensemble
from chunkvote.cli import main

import datagen
from conftest import TINY_TRAIN


TINY_CORPUS = parse_conll(TINY_TRAIN, TagScheme.IOB2)
TWO_COL = write_conll(
    Corpus(tuple(strip_tags(s) for s in TINY_CORPUS.sentences), TagScheme.IOB2)
)


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    write.dir = tmp_path
    return write


def out_path(files, name="out.txt"):
    return str(files.dir / name)


def run_module(args, hash_seed="0", memory_limit=None):
    """``python -m chunkvote`` in a child process, importing this checkout,
    with its address space capped at ``memory_limit`` bytes if given."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    src = str(Path(chunkvote.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (memory_limit, memory_limit))

    return subprocess.run([sys.executable, "-m", "chunkvote", *args], env=env,
                          capture_output=True, text=True, timeout=120,
                          preexec_fn=cap if memory_limit else None)


class TestParsing:
    def test_version_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "chunkvote" in capsys.readouterr().out

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "combine" in capsys.readouterr().out

    def test_missing_command_is_a_usage_error(self, capsys):
        assert main([]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_flag_is_a_usage_error(self, capsys):
        assert main(["eval", "a", "b", "--frobnicate"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_missing_file_is_a_data_error(self, files, capsys):
        gold = files("gold.conll", TINY_TRAIN)
        assert main(["eval", gold, str(files.dir / "nope.conll")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_corpus_is_a_data_error(self, files, capsys):
        bad = files("bad.conll", "the DT\n\n")
        assert main(["baseline", bad, bad]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("row", ["__PAD__ NN B-NP", "dog __PAD__ B-NP", "dog NN B-O"])
    def test_reserved_values_are_a_data_error(self, files, capsys, row):
        train = files("train.conll", TINY_TRAIN + row + "\n\n")
        assert main(["train", train, "--learner", "igtree", "-o", out_path(files)]) == 2
        assert "reserved" in capsys.readouterr().err

    def test_a_nested_file_with_chunk_type_o_is_a_data_error(self, files, capsys):
        nested = files("nested.txt", "a DT (O*)\nb NN *\n")
        for argv in (["eval", nested, nested, "--nested"], ["convert", nested, "--nested-to-levels"]):
            assert main(argv) == 2
            assert "line 1: bad bracket field '(O*)'" in capsys.readouterr().err

    def test_internal_errors_exit_three(self, files, capsys, monkeypatch):
        import chunkvote.learners as learners

        monkeypatch.setattr(learners, "train_baseline", lambda *a, **k: 1 / 0)
        train = files("train.conll", TINY_TRAIN)
        assert main(["baseline", train, train]) == 3
        assert "internal error" in capsys.readouterr().err

    def test_entry_point_exits_with_the_return_code(self, files, monkeypatch):
        from chunkvote.cli import cli_entry

        gold = files("gold.conll", TINY_TRAIN)
        monkeypatch.setattr(sys, "argv", ["chunkvote", "eval", gold, gold])
        with pytest.raises(SystemExit) as exc:
            cli_entry()
        assert exc.value.code == 0

    def test_module_entry_point(self):
        done = run_module(["--help"])
        assert done.returncode == 0
        assert "combine" in done.stdout


class TestConvert:
    def test_scheme_conversion(self, files):
        source = parse_conll(TINY_TRAIN, TagScheme.IOB2)
        expected = write_conll(
            Corpus(
                tuple(
                    with_tags(s, convert_scheme(s.chunk_tags, TagScheme.IOB2, TagScheme.IOB1))
                    for s in source.sentences
                ),
                TagScheme.IOB1,
            )
        )
        inp = files("in.conll", TINY_TRAIN)
        out = out_path(files)
        assert main(["convert", inp, "--from", "iob2", "--to", "iob1", "-o", out]) == 0
        assert (files.dir / "out.txt").read_text() == expected

    def test_conversion_needs_both_schemes(self, files, capsys):
        inp = files("in.conll", TINY_TRAIN)
        assert main(["convert", inp, "--from", "iob2"]) == 1
        assert "--from and --to" in capsys.readouterr().err

    def test_nested_to_levels(self, files, money_example):
        nested_text = write_nested([money_example])
        expected = write_conll(cascade_training_corpus(parse_nested(nested_text)))
        inp = files("nested.txt", nested_text)
        out = out_path(files)
        assert main(["convert", inp, "--nested-to-levels", "-o", out]) == 0
        assert (files.dir / "out.txt").read_text() == expected

    def test_stdout_is_the_default_target(self, files, capsys):
        inp = files("in.conll", TINY_TRAIN)
        assert main(["convert", inp, "--from", "iob2", "--to", "iob2"]) == 0
        assert capsys.readouterr().out == write_conll(TINY_CORPUS)


class TestBaselineCommand:
    def test_matches_the_library(self, files):
        model = train_baseline(TINY_CORPUS)
        expected = write_conll(
            Corpus(
                tuple(with_tags(s, tag_sentence(model, s)) for s in TINY_CORPUS.sentences),
                TagScheme.IOB2,
            )
        )
        train = files("train.conll", TINY_TRAIN)
        out = out_path(files)
        assert main(["baseline", train, train, "-o", out]) == 0
        assert (files.dir / "out.txt").read_text() == expected

    def test_two_column_test_file(self, files):
        train = files("train.conll", TINY_TRAIN)
        test = files("test.conll", TWO_COL)
        out = out_path(files)
        assert main(["baseline", train, test, "--columns", "2", "-o", out]) == 0
        tagged = parse_conll(
            (files.dir / "out.txt").read_text(), TagScheme.IOB2, strict=False
        )
        assert [s.words for s in tagged.sentences] == [s.words for s in TINY_CORPUS.sentences]
        assert all(None not in s.chunk_tags for s in tagged.sentences)

    def test_io_encoding_drops_the_b_marker(self, files):
        train = files("train.conll", TINY_TRAIN)
        out = out_path(files)
        assert main(["baseline", train, train, "--io-encoding", "-o", out]) == 0
        tagged = parse_conll(
            (files.dir / "out.txt").read_text(), TagScheme.IOB2, strict=False
        )
        seen = {t for s in tagged.sentences for t in s.chunk_tags}
        assert not any(t.startswith("B-") for t in seen)

    @pytest.mark.parametrize("io", [[], ["--io-encoding"]])
    def test_equals_train_and_tag(self, files, io):
        train = files("train.conll", TINY_TRAIN)
        test = files("test.conll", TWO_COL + "a FW\nbig JJ\n\n")
        model = out_path(files, "base.model")
        assert main(["baseline", train, test, "--columns", "2", *io,
                     "-o", out_path(files, "baseline.conll")]) == 0
        assert main(["train", train, "--learner", "baseline", *io, "-o", model]) == 0
        assert main(["tag", model, test, "--columns", "2",
                     "-o", out_path(files, "tag.conll")]) == 0
        assert (files.dir / "baseline.conll").read_bytes() == (files.dir / "tag.conll").read_bytes()


class TestTrainTagEval:
    def test_pipeline_matches_the_library(self, files):
        train = files("train.conll", TINY_TRAIN)
        model_path = out_path(files, "model.txt")
        tagged_path = out_path(files, "tagged.conll")
        report_path = out_path(files, "report.txt")

        assert main(["train", train, "--learner", "igtree", "-o", model_path]) == 0
        spec = LearnerSpec("model", "igtree")
        expected_model = spec.train(TINY_CORPUS)

        assert (files.dir / "model.txt").read_text() == dumps_model(expected_model)

        assert main(["tag", model_path, train, "-o", tagged_path]) == 0
        expected_tags = write_conll(
            Corpus(
                tuple(
                    with_tags(s, tag_sentence(expected_model, strip_tags(s)))
                    for s in TINY_CORPUS.sentences
                ),
                TagScheme.IOB2,
            )
        )
        assert (files.dir / "tagged.conll").read_text() == expected_tags

        assert main(["eval", train, tagged_path, "-o", report_path]) == 0
        gold = parse_conll(TINY_TRAIN, TagScheme.IOB1, strict=False)
        pred = parse_conll(expected_tags, TagScheme.IOB1, strict=False)
        assert (files.dir / "report.txt").read_text() == format_report(
            score_tagged(gold, pred)
        )

    def test_training_is_deterministic(self, files):
        train = files("train.conll", TINY_TRAIN)
        first = out_path(files, "m1.txt")
        second = out_path(files, "m2.txt")
        for target in (first, second):
            assert main(["train", train, "--learner", "maxent", "--iterations", "20",
                         "-o", target]) == 0
        assert (files.dir / "m1.txt").read_bytes() == (files.dir / "m2.txt").read_bytes()

    def test_a_maxent_cutoff_above_every_count_tags_the_majority_class(self, files):
        train = files("train.conll", TINY_TRAIN)
        model_path, tagged_path = out_path(files, "ent.model"), out_path(files, "ent.conll")
        assert main(["train", train, "--learner", "maxent", "--iterations", "3", "--cutoff", "100",
                     "-o", model_path]) == 0
        model = loads_model(Path(model_path).read_text())
        assert not model.weights and model.constant == 1 and model.trace is None
        assert main(["tag", model_path, train, "-o", tagged_path]) == 0
        tagged = parse_conll(Path(tagged_path).read_text(), TagScheme.IOB2)
        assert {tag for s in tagged.sentences for tag in s.chunk_tags} == {"B-NP"}
        gold = [tag for s in TINY_CORPUS.sentences for tag in s.chunk_tags]
        assert max(set(gold), key=gold.count) == "B-NP"

    def test_knn_output_does_not_depend_on_the_hash_seed(self, files):
        train = files("train.conll", TINY_TRAIN)
        outputs = []
        for seed in ("1", "2"):
            model_path = out_path(files, f"knn{seed}.model")
            tagged_path = out_path(files, f"knn{seed}.conll")
            assert run_module(["train", train, "--learner", "knn", "-o", model_path],
                              seed).returncode == 0
            assert run_module(["tag", model_path, train, "-o", tagged_path],
                              seed).returncode == 0
            outputs.append((Path(model_path).read_bytes(), Path(tagged_path).read_bytes()))
        assert outputs[0] == outputs[1]

    def test_knn_model_with_a_nan_weight_is_a_data_error(self, files, capsys):
        train = files("train.conll", TINY_TRAIN)
        model_path = out_path(files, "knn.model")
        assert main(["train", train, "--learner", "knn", "-o", model_path]) == 0
        text = Path(model_path).read_text()
        lines = ["weights nan " + line.split(None, 2)[2] if line.startswith("weights ")
                 else line for line in text.splitlines()]
        Path(model_path).write_text("\n".join(lines) + "\n")
        assert main(["tag", model_path, train, "-o", out_path(files)]) == 2
        assert "finite and non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize("learner, prefix, field, value", [
        ("maxent", "correction ", 1, "nan"),
        ("maxent", "feature ", 4, "inf"),
        ("maxent", "feature ", 1, "50"),
        ("igtree", "order ", 1, "50"),
        ("igtree", "slots ", 1, "w[-9]"),
        ("rules", "rule ", 2, "nan"),
        ("rules", "rule ", 5, "50"),
    ])
    def test_malformed_model_is_a_data_error(self, files, capsys, learner, prefix, field, value):
        train = files("train.conll", TINY_TRAIN)
        model_path = out_path(files, "model.txt")
        options = ["--iterations", "5"] if learner == "maxent" else []
        assert main(["train", train, "--learner", learner, *options, "-o", model_path]) == 0
        lines = Path(model_path).read_text().splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith(prefix))
        fields = lines[at].split()
        fields[field] = value
        lines[at] = " ".join(fields)
        Path(model_path).write_text("\n".join(lines) + "\n")
        assert main(["tag", model_path, train, "-o", out_path(files)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("damage", ["trailing line", "negative count", "deep chain"])
    def test_malformed_igtree_is_a_data_error(self, files, capsys, damage):
        train = files("train.conll", TINY_TRAIN)
        model_path = out_path(files, "model.txt")
        assert main(["train", train, "--learner", "igtree", "-o", model_path]) == 0
        lines = Path(model_path).read_text().splitlines()
        root = next(i for i, line in enumerate(lines) if line.startswith("node "))
        if damage == "trailing line":
            lines.append("node O 0")
        elif damage == "negative count":
            lines[root] = lines[root].rsplit(" ", 1)[0] + " -1"
        else:
            lines[root:] = ["node O 1", "edge x"] * 3000 + ["node O 0"]
        Path(model_path).write_text("\n".join(lines) + "\n")
        assert main(["tag", model_path, train, "-o", out_path(files)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_a_repeated_class_line_is_a_data_error(self, files, capsys):
        train = files("train.conll", TINY_TRAIN)
        model_path = out_path(files, "model.txt")
        assert main(["train", train, "--learner", "igtree", "-o", model_path]) == 0
        text = Path(model_path).read_text()
        Path(model_path).write_text(text.replace("class B-NP 9\n", "class B-NP 9\nclass B-NP 999\n"))
        assert main(["tag", model_path, train, "-o", out_path(files)]) == 2
        assert "repeated class line 'class B-NP 999'" in capsys.readouterr().err

    # 1e-162 squares to 0 and 1e-155 to a number whose inverse overflows.
    @pytest.mark.parametrize("sigma", ["0", "-1", "nan", "inf", "1e-155", "1e-162"])
    def test_a_meaningless_sigma_is_a_data_error(self, files, capsys, sigma):
        train = files("train.conll", TINY_TRAIN)
        assert main(["train", train, "--learner", "maxent", "--iterations", "2",
                     "--sigma", sigma, "-o", out_path(files)]) == 2
        assert "sigma must be a finite number > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("sigma", ["1e-155", "1e-162"])
    def test_cv_tune_rejects_a_sigma_whose_square_underflows(self, files, capsys, sigma):
        train = files("train.conll", TINY_TRAIN)
        assert main(["cv-tune", train, "--system", f"ent=maxent,iterations=2,sigma={sigma}",
                     "--folds", "2", "-o", out_path(files)]) == 2
        assert "with a finite 1 / sigma^2" in capsys.readouterr().err

    def test_cv_tune_rejects_a_bad_option_before_any_system_trains(self, files, capsys, monkeypatch):
        def fail(*args):
            raise AssertionError("featurized or fitted")

        monkeypatch.setattr(LearnerSpec, "featurize", fail)
        monkeypatch.setattr(LearnerSpec, "fit", fail)
        train = files("train.conll", TINY_TRAIN)
        assert main(["cv-tune", train, "--system", "e=maxent,iterations=5", "--system", "b=knn,k=0",
                     "--folds", "2", "-o", out_path(files)]) == 2
        assert capsys.readouterr().err == "error: k must be >= 1, got 0\n"

    @pytest.mark.parametrize("command", ["eval", "report"])
    @pytest.mark.parametrize("beta", ["nan", "inf", "-1", "1e160", "1e200"])
    def test_a_meaningless_beta_is_a_data_error(self, files, capsys, command, beta):
        train = files("train.conll", TINY_TRAIN)
        pred = [train] if command == "eval" else ["--pred", "gold=" + train]
        assert main([command, train, *pred, "--beta", beta]) == 2
        assert "beta must be a finite number >= 0" in capsys.readouterr().err

    def test_outsized_window_is_rejected_before_it_is_built(self, files):
        train = files("train.conll", TINY_TRAIN)
        model_path = out_path(files, "model.txt")
        assert main(["train", train, "--learner", "igtree", "-o", model_path]) == 0
        text = Path(model_path).read_text().replace("left_words=2", "left_words=100000000", 1)
        Path(model_path).write_text(text)
        # A layout of 10^8 slots takes tens of GB to build; the cap turns
        # building it into a MemoryError (exit 3) instead.
        start = time.perf_counter()
        done = run_module(["tag", model_path, train], memory_limit=1 << 30)
        elapsed = time.perf_counter() - start
        assert done.returncode == 2
        assert "slots line" in done.stderr
        assert elapsed < 5

    def test_pos_tags_a_pair_would_join_are_a_data_error(self, files, capsys):
        train = files("pipe.conll", TINY_TRAIN + "x A|B B-NP\ny C I-NP\n\n")
        assert main(["train", train, "--learner", "maxent", "--iterations", "1",
                     "-o", out_path(files)]) == 2
        assert "complex_pairs cannot join 'A|B'" in capsys.readouterr().err
        # windows without pairs take such pos tags
        assert main(["train", train, "--learner", "igtree", "-o", out_path(files)]) == 0

    def test_learner_is_required(self, files, capsys):
        train = files("train.conll", TINY_TRAIN)
        assert main(["train", train]) == 1
        assert "--learner is required" in capsys.readouterr().err

    def test_unknown_learner_is_a_usage_error(self, files, capsys):
        train = files("train.conll", TINY_TRAIN)
        assert main(["train", train, "--learner", "forest"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_eval_kv_output(self, files, capsys):
        train = files("train.conll", TINY_TRAIN)
        assert main(["eval", train, train, "--kv"]) == 0
        gold = parse_conll(TINY_TRAIN, TagScheme.IOB1, strict=False)
        assert capsys.readouterr().out == format_report_kv(score_tagged(gold, gold))

    def test_eval_nested_files(self, files, capsys, money_example):
        nested = files("nested.txt", write_nested([money_example]))
        assert main(["eval", nested, nested, "--nested"]) == 0
        out = capsys.readouterr().out
        assert "overall: precision 100.00% recall 100.00% F 100.00" in out


def build_table(files, folds=3):
    train = files("train.conll", TINY_TRAIN)
    table_path = out_path(files, "table.txt")
    code = main([
        "cv-tune", train, "--system", "base=baseline", "--system", "tree=igtree",
        "--folds", str(folds), "-o", table_path,
    ])
    assert code == 0
    return table_path


class TestTableCommands:
    def test_cv_tune_matches_the_library(self, files):
        table_path = build_table(files)
        specs = [LearnerSpec("base", "baseline"), LearnerSpec("tree", "igtree")]
        expected = write_table(cv_tuning_table(TINY_CORPUS, specs, folds=3))
        assert (files.dir / "table.txt").read_text() == expected

    @pytest.mark.parametrize("name", ["gold", "pos"])
    def test_a_reserved_system_name_is_a_data_error_before_training(self, files, capsys,
                                                                    monkeypatch, name):
        fits = []
        monkeypatch.setattr(LearnerSpec, "fit", lambda spec, dataset: fits.append(spec))
        train = files("train.conll", TINY_TRAIN)
        table_path = out_path(files, "table.txt")
        args = ["cv-tune", train, "--system", f"{name}=igtree", "--folds", "2", "-o", table_path]
        assert main(args) == 2
        assert capsys.readouterr().err == f"error: system name '{name}' is reserved\n"
        assert fits == [] and not Path(table_path).exists()

    def test_cv_tune_requires_a_system(self, files, capsys):
        train = files("train.conll", TINY_TRAIN)
        assert main(["cv-tune", train]) == 1
        assert "--system" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["base", "base=", "base=knn,k=two", "base=knn,depth=3"])
    def test_bad_system_text_is_a_usage_error(self, files, capsys, bad):
        train = files("train.conll", TINY_TRAIN)
        assert main(["cv-tune", train, "--system", bad]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_system_options_reach_the_spec(self, files):
        train = files("train.conll", TINY_TRAIN)
        table_path = out_path(files, "table.txt")
        assert main([
            "cv-tune", train, "--system", "near=knn,k=1",
            "--system", "base=baseline,io=true", "--folds", "2",
            "-o", table_path,
        ]) == 0
        specs = [
            LearnerSpec("near", "knn", k=1),
            LearnerSpec("base", "baseline", io_encoding=True),
        ]
        assert (files.dir / "table.txt").read_text() == write_table(
            cv_tuning_table(TINY_CORPUS, specs, folds=2)
        )

    def test_cv_tune_output_does_not_depend_on_the_hash_seed(self, files):
        train = files("train.conll", TINY_TRAIN)
        outputs = []
        for seed in ("1", "2"):
            table_path = out_path(files, f"table{seed}.txt")
            result = run_module([
                "cv-tune", train, "--system", "near=knn,k=3", "--system", "tree=igtree",
                "--system", "me=maxent,iterations=5", "--system", "rul=rules",
                "--folds", "3", "-o", table_path,
            ], seed)
            assert result.returncode == 0, result.stderr
            outputs.append(Path(table_path).read_bytes())
        assert outputs[0] == outputs[1]

    def test_weights_round_trip(self, files):
        table_path = build_table(files)
        weights_path = out_path(files, "weights.txt")
        assert main(["weights", table_path, "-o", weights_path]) == 0
        table = read_table((files.dir / "table.txt").read_text())
        got = read_weights((files.dir / "weights.txt").read_text())
        assert got == estimate_weights(table)

    def test_weights_need_gold_tags(self, files, capsys):
        table = read_table((build_table(files), files.dir / "table.txt")[1].read_text())
        bare_rows = tuple(
            tuple(type(row)(row.pos, row.preds, None) for row in sentence)
            for sentence in table.sentences
        )
        bare = type(table)(table.systems, bare_rows)
        path = files("bare.txt", write_table(bare))
        assert main(["weights", path]) == 2
        assert "error:" in capsys.readouterr().err


class TestCombineCommand:
    def test_majority_matches_the_library(self, files):
        from chunkvote import combine_corpus

        table_path = build_table(files)
        out = out_path(files)
        assert main(["combine", table_path, "-o", out]) == 0
        table = read_table((files.dir / "table.txt").read_text())
        assert (files.dir / "out.txt").read_text() == write_conll(combine_corpus(table))

    def test_weighted_method_via_weights_file(self, files):
        from chunkvote import combine_corpus

        table_path = build_table(files)
        weights_path = out_path(files, "weights.txt")
        assert main(["weights", table_path, "-o", weights_path]) == 0
        out = out_path(files)
        assert main([
            "combine", table_path, "--method", "tag-pair", "--weights", weights_path,
            "-o", out,
        ]) == 0
        table = read_table((files.dir / "table.txt").read_text())
        weights = read_weights((files.dir / "weights.txt").read_text())
        expected = write_conll(combine_corpus(table, method="tag-pair", weights=weights))
        assert (files.dir / "out.txt").read_text() == expected

    def test_weighted_method_via_tuning_table(self, files):
        table_path = build_table(files)
        out = out_path(files)
        assert main([
            "combine", table_path, "--method", "tot-precision", "--tuning", table_path,
            "-o", out,
        ]) == 0

    def test_weights_must_cover_the_table_systems(self, files, capsys):
        table_path = build_table(files)
        table = read_table((files.dir / "table.txt").read_text())
        renamed = type(table)(("a", "b"), table.sentences)
        other = files("other.weights", write_weights(estimate_weights(renamed)))
        assert main(["combine", table_path, "--method", "tot-precision",
                     "--weights", other]) == 2
        assert "no estimates for systems: base tree" in capsys.readouterr().err
        # weights for a superset of the table's systems stay usable
        base_only = type(table)(("base",), tuple(
            tuple(type(row)(row.pos, row.preds[:1], row.gold) for row in rows)
            for rows in table.sentences
        ))
        subset = files("subset.txt", write_table(base_only))
        full = files("full.weights", write_weights(estimate_weights(table)))
        assert main(["combine", subset, "--method", "tot-precision", "--weights", full,
                     "-o", out_path(files)]) == 0

    def test_weights_with_a_nan_rate_are_a_data_error(self, files, capsys):
        table_path = build_table(files)
        text = write_weights(estimate_weights(read_table(Path(table_path).read_text())))
        lines = ["accuracy base nan" if line.startswith("accuracy base ") else line
                 for line in text.splitlines()]
        weights = files("nan.weights", "\n".join(lines) + "\n")
        assert main(["combine", table_path, "--method", "tot-precision",
                     "--weights", weights, "-o", out_path(files)]) == 2
        assert "rate outside [0, 1]" in capsys.readouterr().err

    def test_weights_with_a_bad_tag_are_a_data_error(self, files):
        table_path = build_table(files)
        text = write_weights(estimate_weights(read_table(Path(table_path).read_text())))
        weights = files("q.weights", text + "tagcount Q 7\n")
        results = [run_module(["combine", table_path, "--method", "precision-recall",
                               "--weights", weights], hash_seed=seed) for seed in ("0", "1", "2")]
        assert [result.returncode for result in results] == [2, 2, 2]
        assert "in weights line 'tagcount Q 7'" in results[0].stderr
        assert results[1].stderr == results[2].stderr == results[0].stderr

    def test_a_repeated_weights_key_is_a_data_error(self, files, capsys):
        table_path = build_table(files)
        text = write_weights(estimate_weights(read_table(Path(table_path).read_text())))
        accuracy = next(line for line in text.splitlines() if line.startswith("accuracy "))
        weights = files("twice.weights", text + accuracy.rsplit(" ", 1)[0] + " 1.0\n")
        assert main(["combine", table_path, "--method", "tot-precision",
                     "--weights", weights, "-o", out_path(files)]) == 2
        assert "repeated key in weights line" in capsys.readouterr().err

    def test_weights_for_undeclared_systems_are_a_data_error(self, files, capsys):
        table_path = build_table(files)
        weights = files("stray.weights", "combiner-weights 1\nsystem a\nsystem b\naccuracy zzz 0.5\n")
        assert main(["combine", table_path, "--method", "tot-precision",
                     "--weights", weights, "-o", out_path(files)]) == 2
        assert "systems without a system line: zzz" in capsys.readouterr().err

    def test_weights_and_tuning_conflict(self, files, capsys):
        table_path = build_table(files)
        assert main([
            "combine", table_path, "--weights", table_path, "--tuning", table_path,
        ]) == 1
        assert "not both" in capsys.readouterr().err

    def test_weighted_method_without_weights(self, files, capsys):
        table_path = build_table(files)
        assert main(["combine", table_path, "--method", "tag-precision"]) == 1
        assert "needs --weights or --tuning" in capsys.readouterr().err

    @pytest.mark.parametrize("bracket_level", [[], ["--bracket-level"]])
    def test_reserved_chunk_type_in_a_table_is_a_data_error(self, files, capsys, bracket_level):
        table = files("table.txt", "pos a b c\nDT B-O B-O B-NP\nNN I-O I-O I-NP\n\n")
        assert main(["combine", table, *bracket_level, "-o", out_path(files)]) == 2
        assert "chunk type O is reserved" in capsys.readouterr().err

    def test_bracket_level_majority_only(self, files, capsys):
        table_path = build_table(files)
        out = out_path(files)
        assert main(["combine", table_path, "--bracket-level", "-o", out]) == 0
        assert main([
            "combine", table_path, "--bracket-level", "--method", "tag-pair",
            "--tuning", table_path,
        ]) == 1
        assert "majority method only" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["stacked-knn", "stacked-igtree-pos"])
    def test_stacked_methods(self, files, method):
        table_path = build_table(files)
        out = out_path(files)
        assert main([
            "combine", table_path, "--method", method, "--tuning", table_path,
            "-o", out,
        ]) == 0
        combined = parse_conll(
            (files.dir / "out.txt").read_text(), TagScheme.IOB2, strict=True
        )
        assert len(combined.sentences) == len(TINY_CORPUS.sentences)

    def test_stacking_reads_the_tuning_table_once(self, files, monkeypatch):
        table_path = build_table(files)
        reads = []

        def counted_read_table(text):
            reads.append(text)
            return read_table(text)

        def no_weights(table):
            raise AssertionError("stacking estimated combiner weights")

        monkeypatch.setattr(ensemble, "read_table", counted_read_table)
        monkeypatch.setattr(ensemble, "estimate_weights", no_weights)
        assert main(["combine", table_path, "--method", "stacked-knn", "--tuning", table_path,
                     "-o", out_path(files)]) == 0
        assert len(reads) == 2  # the table to combine and the tuning table

    def test_stacking_matches_systems_by_name(self, files, capsys):
        table_path = build_table(files)
        table = read_table(Path(table_path).read_text())
        renamed = files("renamed.txt", write_table(type(table)(("x", "y"), table.sentences)))
        swapped = files("swapped.txt", write_table(type(table)(("tree", "base"), tuple(
            tuple(type(row)(row.pos, row.preds[::-1], row.gold) for row in rows)
            for rows in table.sentences
        ))))
        for test_table, names in ((renamed, "x y"), (swapped, "tree base")):
            for method in ("stacked-igtree", "stacked-knn-pos"):
                assert main(["combine", test_table, "--method", method, "--tuning", table_path,
                             "-o", out_path(files)]) == 2
                assert f"columns base tree differ from table systems {names}" in (
                    capsys.readouterr().err
                )

    def test_stacked_methods_need_tuning(self, files, capsys):
        table_path = build_table(files)
        assert main(["combine", table_path, "--method", "stacked-knn"]) == 1
        assert "needs --tuning" in capsys.readouterr().err

    def test_stacking_rejects_bracket_level(self, files, capsys):
        table_path = build_table(files)
        assert main([
            "combine", table_path, "--method", "stacked-knn", "--tuning", table_path,
            "--bracket-level",
        ]) == 1
        assert "voting methods only" in capsys.readouterr().err

    def test_words_are_spliced_in(self, files):
        table_path = build_table(files)
        words = files("words.conll", TINY_TRAIN)
        out = out_path(files)
        assert main(["combine", table_path, "--words", words, "-o", out]) == 0
        combined = parse_conll((files.dir / "out.txt").read_text(), TagScheme.IOB2)
        assert [s.words for s in combined.sentences] == [
            s.words for s in TINY_CORPUS.sentences
        ]

    def test_mismatched_words_are_a_data_error(self, files, capsys):
        table_path = build_table(files)
        words = files("words.conll", "just NN B-NP\n\n")
        assert main(["combine", table_path, "--words", words]) == 2
        assert "error:" in capsys.readouterr().err

    def test_combining_is_deterministic(self, files):
        table_path = build_table(files)
        first = out_path(files, "c1.conll")
        second = out_path(files, "c2.conll")
        for target in (first, second):
            assert main([
                "combine", table_path, "--method", "precision-recall",
                "--tuning", table_path, "-o", target,
            ]) == 0
        assert (files.dir / "c1.conll").read_bytes() == (files.dir / "c2.conll").read_bytes()


class TestBestNCommand:
    def test_selects_and_scores(self, files):
        table_path = build_table(files)
        out = out_path(files)
        assert main(["best-n", table_path, "-n", "1", "-o", out]) == 0
        lines = (files.dir / "out.txt").read_text().splitlines()
        assert lines[0] in ("base", "tree")
        assert lines[1].startswith("F ")

    def test_n_is_required(self, files, capsys):
        table_path = build_table(files)
        assert main(["best-n", table_path]) == 1
        assert "-n is required" in capsys.readouterr().err

    def test_out_of_range_n_is_a_data_error(self, files, capsys):
        table_path = build_table(files)
        assert main(["best-n", table_path, "-n", "9"]) == 2
        assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["weights"], ["combine"], ["best-n", "-n", "1"]],
                         ids=["weights", "combine", "best-n"])
def test_a_table_with_a_header_and_no_rows_is_a_data_error(files, capsys, argv):
    # Its gold column could not be written back: has_gold reads the first row.
    table = files("table.txt", "gold pos a\n\n")
    out = out_path(files)
    assert main([argv[0], table, *argv[1:], "-o", out]) == 2
    assert capsys.readouterr().err == "error: a prediction table needs at least one sentence\n"
    assert not Path(out).exists()


class TestCascadeCommand:
    def test_recovers_the_nested_example(self, files, money_example):
        nested_text = write_nested([money_example])
        nested_in = files("nested.txt", nested_text)
        levels_path = out_path(files, "levels.conll")
        assert main(["convert", nested_in, "--nested-to-levels", "-o", levels_path]) == 0

        model_path = out_path(files, "model.txt")
        assert main(["train", levels_path, "--learner", "igtree", "-o", model_path]) == 0

        flat = write_conll(
            Corpus((money_example.sentence,), TagScheme.IOB2)
        )
        input_path = files("input.conll", flat)
        out = out_path(files, "parsed.txt")
        assert main([
            "cascade", model_path, input_path, "--columns", "2", "-o", out,
        ]) == 0
        assert (files.dir / "parsed.txt").read_text() == nested_text

    def test_a_model_that_tags_a_reserved_chunk_type_is_a_data_error(self, files, capsys):
        # Chunk type O and the type X_Y have no bracket field a nested file can hold.
        model = files("model.txt", "chunker-model 1\nkind baseline\nclass B-O 3\n"
                                   "class I-X_Y 2\nwindow -\nfallback B-O\npos NN I-X_Y\n")
        words = files("input.conll", "a DT\nb NN\nc VB\n\n")
        out = out_path(files, "parsed.txt")
        assert main(["tag", model, words, "--columns", "2", "-o", out]) == 2
        tag_error = capsys.readouterr().err
        assert tag_error.startswith("error: bad chunk tag 'B-O'")
        assert main(["cascade", model, words, "--columns", "2", "-o", out]) == 2
        assert capsys.readouterr().err == tag_error
        assert not Path(out).exists()

    def test_max_depth_is_checked_before_any_file_is_read(self, files, capsys):
        model = out_path(files, "model.txt")
        assert main(["train", files("train.conll", TINY_TRAIN), "--learner", "igtree", "-o", model]) == 0
        empty = files("empty.conll", "")
        out = out_path(files, "parsed.txt")
        for model_path in (model, out_path(files, "missing.txt")):
            assert main(["cascade", model_path, empty, "--max-depth", "0", "-o", out]) == 2
            assert capsys.readouterr().err == "error: max_depth must be >= 1, got 0\n"
        assert not Path(out).exists()

    def test_each_sentence_is_stripped_once(self, files, monkeypatch, usable_cpus):
        usable_cpus(1)  # the spy sees the sentences of this process only
        train = files("train.conll", TINY_TRAIN)
        model_path = out_path(files, "model.txt")
        assert main(["train", train, "--learner", "igtree", "-o", model_path]) == 0
        stripped = []

        def counted_strip_tags(sentence):
            stripped.append(sentence)
            return strip_tags(sentence)

        monkeypatch.setattr(cascade, "strip_tags", counted_strip_tags)
        assert main(["cascade", model_path, train, "-o", out_path(files)]) == 0
        assert len(stripped) == len(TINY_CORPUS.sentences)

    def test_bytes_do_not_depend_on_the_hash_seed(self, files):
        r = datagen.rng(33_000)
        treebank = [datagen.random_nested_sentence(r, r.randint(1, 12), types=("NP", "PP"))
                    for _ in range(60)]
        nested = files("train.nested", write_nested(treebank[:40]))
        levels = out_path(files, "levels.conll")
        model_path = out_path(files, "model.txt")
        assert main(["convert", nested, "--nested-to-levels", "-o", levels]) == 0
        assert main(["train", levels, "--learner", "igtree", "-o", model_path]) == 0
        words = files("test.conll", "".join(
            "".join(f"{w} {p}\n" for w, p in zip(s.words, s.pos_tags)) + "\n" for s in treebank[40:]
        ))
        outputs = []
        for seed in ("1", "2"):
            done = run_module(["cascade", model_path, words, "--columns", "2"], hash_seed=seed)
            assert done.returncode == 0, done.stderr
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1]
        assert "(" in outputs[0]


class TestReportCommand:
    def test_table_and_tsv(self, files):
        train = files("train.conll", TINY_TRAIN)
        model_path = out_path(files, "model.txt")
        tagged_path = out_path(files, "tagged.conll")
        assert main(["train", train, "--learner", "baseline", "-o", model_path]) == 0
        assert main(["tag", model_path, train, "-o", tagged_path]) == 0

        out = out_path(files, "report.txt")
        tsv = out_path(files, "report.tsv")
        assert main([
            "report", train, "--pred", "gold=" + train, "--pred", "base=" + tagged_path,
            "-o", out, "--tsv", tsv,
        ]) == 0

        lines = (files.dir / "report.txt").read_text().splitlines()
        assert lines[0].split() == ["system", "precision", "recall", "F"]
        assert len(lines) == 3
        assert lines[1].split()[0] == "gold"
        assert lines[1].split()[1:] == ["100.00", "100.00", "100.00"]

        tsv_lines = (files.dir / "report.tsv").read_text().splitlines()
        assert tsv_lines[0].split("\t") == [
            "system", "found", "gold", "correct", "precision", "recall", "f",
        ]
        assert len(tsv_lines) == 3
        assert tsv_lines[1].split("\t")[4] == "1.0"

    def test_report_needs_predictions(self, files, capsys):
        train = files("train.conll", TINY_TRAIN)
        assert main(["report", train]) == 1
        assert "--pred" in capsys.readouterr().err

    def test_repeated_names_are_rejected(self, files, capsys):
        train = files("train.conll", TINY_TRAIN)
        out = out_path(files)
        assert main(["report", train, "--pred", "a=" + train, "--pred", "a=" + train, "-o", out]) == 2
        assert "system names must be unique" in capsys.readouterr().err
        assert not Path(out).exists()

    @pytest.mark.parametrize("name", ["a\tb", "a b", "a\x00b"])
    def test_names_follow_the_system_rule(self, files, capsys, name):
        # A tab in a name would add a field to its TSV row.
        train = files("train.conll", TINY_TRAIN)
        tsv = out_path(files, "report.tsv")
        assert main(["report", train, "--pred", f"{name}={train}", "--tsv", tsv]) == 2
        assert "bad system name" in capsys.readouterr().err
        assert not Path(tsv).exists()
        with pytest.raises(cli.UsageError, match="bad system name"):
            cli._parse_system(f"{name}=igtree")

    @pytest.mark.parametrize("bad", ["nameonly", "=path", "name="])
    def test_bad_pred_text_is_a_usage_error(self, files, capsys, bad):
        train = files("train.conll", TINY_TRAIN)
        assert main(["report", train, "--pred", bad]) == 1
        assert "usage error" in capsys.readouterr().err


def help_text(capsys, command):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    return capsys.readouterr().out


class TestSettings:
    @pytest.mark.parametrize("argv, flag, value", [
        (["train", "TRAIN", "--learner", "knn"], "--k", "x"),
        (["eval", "TRAIN", "TRAIN"], "--beta", "high"),
        (["train", "TRAIN", "--learner", "maxent"], "--sigma", "wide"),
        (["train", "TRAIN"], "--scheme", "iob3"),
        (["tag", "TRAIN", "TRAIN"], "--columns", "5"),
        (["eval", "TRAIN", "TRAIN"], "--kv", "maybe"),
    ], ids=["int", "float", "optional float", "choice", "int choice", "bool"])
    def test_bad_values_are_usage_errors_as_flags_and_data_errors_in_configs(
        self, files, capsys, argv, flag, value
    ):
        train = files("train.conll", TINY_TRAIN)
        argv = [train if arg == "TRAIN" else arg for arg in argv]
        assert main([*argv, f"{flag}={value}"]) == 1
        assert "usage error" in capsys.readouterr().err
        cfg = files("bad.cfg", f"{flag.lstrip('-')} = {value}\n")
        assert main([*argv, "--config", cfg]) == 2
        assert "error: expected" in capsys.readouterr().err

    @pytest.mark.parametrize("learner", LEARNER_KINDS)
    def test_train_writes_the_library_model(self, files, learner):
        train = files("train.conll", TINY_TRAIN)
        options = {"iterations": 3} if learner == "maxent" else {}
        flags = [f"--{key}={value}" for key, value in options.items()]
        assert main(["train", train, "--learner", learner, *flags, "-o", out_path(files)]) == 0
        expected = dumps_model(LearnerSpec("model", learner, **options).train(TINY_CORPUS))
        assert (files.dir / "out.txt").read_text() == expected

    def test_system_keys_are_the_train_learner_flags(self, files, capsys):
        train = files("train.conll", TINY_TRAIN)
        assert main(["cv-tune", train, "--system", "a=knn,depth=3"]) == 1
        keys = capsys.readouterr().err.split("known keys: ")[1].strip().split(", ")
        assert keys == ["k", "iterations", "sigma", "cutoff", "threshold", "weighting", "io"]
        flags = set(re.findall(r"--[a-z-]+", help_text(capsys, "train")))
        flags -= {"--help", "--config", "--output", "--scheme", "--learner", "--no-io-encoding"}
        assert flags == {"--io-encoding" if key == "io" else f"--{key}" for key in keys}

    def test_help_names_the_allowed_values(self, capsys):
        train = help_text(capsys, "train")
        assert "--scheme {iob1,iob2}" in train
        assert "--learner {baseline,knn,igtree,maxent,rules}" in train
        assert "--weighting {gain_ratio,information_gain}" in train
        assert "--columns {2,3}" in help_text(capsys, "tag")
        assert "--head {last,first}" in help_text(capsys, "cascade")

    def test_sigma_none_is_accepted_as_a_flag(self, files):
        train = files("train.conll", TINY_TRAIN)
        cfg = files("sigma.cfg", "sigma = 2.0\n")
        base = ["train", train, "--learner", "maxent", "--iterations", "3", "-o"]
        assert main([*base, out_path(files, "plain.model")]) == 0
        assert main([*base, out_path(files, "cfg.model"), "--config", cfg]) == 0
        assert main([*base, out_path(files, "none.model"), "--config", cfg,
                     "--sigma", "none"]) == 0
        plain = (files.dir / "plain.model").read_text()
        assert (files.dir / "none.model").read_text() == plain
        assert (files.dir / "cfg.model").read_text() != plain

    @pytest.mark.parametrize("argv, message", [
        (["train", "TRAIN", "--learner", "igtree", "--threshold", "0.5"],
         "the igtree learner does not use threshold"),
        (["cv-tune", "TRAIN", "--system", "ent=maxent,k=5"], "the maxent learner does not use k"),
        (["train", "TRAIN", "--learner", "baseline", "--weighting", "information_gain"],
         "the baseline learner does not use weighting"),
    ])
    def test_options_the_learner_ignores_are_usage_errors(self, files, capsys, argv, message):
        train = files("train.conll", TINY_TRAIN)
        assert main([train if arg == "TRAIN" else arg for arg in argv]) == 1
        assert message in capsys.readouterr().err


class TestConfigFiles:
    def test_flags_override_config_values(self, files, capsys):
        train = files("train.conll", TINY_TRAIN)
        cfg = files("eval.cfg", "beta = 0.5\nkv = true\n")
        gold = parse_conll(TINY_TRAIN, TagScheme.IOB1, strict=False)

        assert main(["eval", train, train, "--config", cfg]) == 0
        assert capsys.readouterr().out == format_report_kv(
            score_tagged(gold, gold, beta=0.5)
        )

        assert main(["eval", train, train, "--config", cfg, "--beta", "2.0", "--no-kv"]) == 0
        assert capsys.readouterr().out == format_report(
            score_tagged(gold, gold, beta=2.0)
        )

    def test_hyphenated_keys_and_comments(self, files):
        table_path = build_table(files)
        cfg = files("combine.cfg", "# bracket voting\n\nbracket-level = true\n")
        via_cfg = out_path(files, "cfg.conll")
        via_flag = out_path(files, "flag.conll")
        assert main(["combine", table_path, "--config", cfg, "-o", via_cfg]) == 0
        assert main(["combine", table_path, "--bracket-level", "-o", via_flag]) == 0
        assert (files.dir / "cfg.conll").read_text() == (files.dir / "flag.conll").read_text()

    def test_tag_has_no_scheme_setting(self, files, capsys):
        train = files("train.conll", TINY_TRAIN)
        model = out_path(files, "model.txt")
        assert main(["train", train, "--learner", "igtree", "-o", model]) == 0
        assert main(["tag", model, train, "--scheme", "iob1"]) == 1
        assert "usage error" in capsys.readouterr().err
        cfg = files("tag.cfg", "scheme = iob1\n")
        assert main(["tag", model, train, "--config", cfg]) == 2
        assert "unknown config key 'scheme'" in capsys.readouterr().err

    def test_unknown_config_key(self, files, capsys):
        train = files("train.conll", TINY_TRAIN)
        cfg = files("bad.cfg", "bogus = 1\n")
        assert main(["eval", train, train, "--config", cfg]) == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_config_line_without_equals(self, files, capsys):
        train = files("train.conll", TINY_TRAIN)
        cfg = files("bad.cfg", "beta 0.5\n")
        assert main(["eval", train, train, "--config", cfg]) == 2
        assert "expected key = value" in capsys.readouterr().err

    def test_bad_config_value(self, files, capsys):
        train = files("train.conll", TINY_TRAIN)
        cfg = files("bad.cfg", "beta = high\n")
        assert main(["eval", train, train, "--config", cfg]) == 2
        assert "expected a number" in capsys.readouterr().err

    def test_keys_are_flag_names_not_destinations(self, files, capsys):
        inp = files("in.conll", TINY_TRAIN)
        cfg = files("convert.cfg", "from = iob2\nto = iob1\n")
        flags = ["--from", "iob2", "--to", "iob1"]
        assert main(["convert", inp, *flags, "-o", out_path(files, "flag.conll")]) == 0
        assert main(["convert", inp, "--config", cfg, "-o", out_path(files, "cfg.conll")]) == 0
        assert (files.dir / "cfg.conll").read_text() == (files.dir / "flag.conll").read_text()
        cfg = files("dest.cfg", "from_scheme = iob2\nto_scheme = iob1\n")
        assert main(["convert", inp, "--config", cfg]) == 2
        assert "unknown config key 'from_scheme'" in capsys.readouterr().err

    @pytest.mark.parametrize("lines", [
        "beta = 2\nbeta = 0.5\n",
        "beta = 2\nbeta = 2\n",
        "kv = true\n\nbeta = 2\n# beta again\nbeta = 0.5\n",
    ], ids=["other value", "same value", "lines apart"])
    def test_a_repeated_key_is_an_error(self, files, capsys, lines):
        # the error names the repeating line, the last of each file
        train = files("train.conll", TINY_TRAIN)
        cfg = files("twice.cfg", lines)
        assert main(["eval", train, train, "--kv", "--config", cfg]) == 2
        assert f"error: {cfg}:{len(lines.splitlines())}: repeated config key 'beta'" in capsys.readouterr().err

    def test_spellings_of_one_key_are_one_key(self, files, capsys):
        train = files("train.conll", TINY_TRAIN)
        cfg = files("twice.cfg", "io-encoding = true\nio_encoding = false\n")
        assert main(["train", train, "--learner", "rules", "--config", cfg]) == 2
        assert f"{cfg}:2: repeated config key 'io_encoding'" in capsys.readouterr().err


class TestTablePosTags:
    # weights and best-n read no Token, so only the table's own check sees the pos column
    TABLE = (
        "gold pos a b c\n"
        "B-NP __PAD__ B-NP B-NP B-NP\n"
        "I-NP NN I-NP I-NP O\n"
        "O VBZ O O O\n\n"
    )

    def test_every_table_reader_rejects_a_reserved_pos_tag(self, files, capsys):
        table = files("table.txt", self.TABLE)
        errors = []
        for argv in (["weights", table], ["best-n", table, "-n", "2"],
                     ["combine", table, "--method", "majority"]):
            assert main([*argv, "-o", out_path(files)]) == 2
            errors.append(capsys.readouterr().err)
        assert errors == ["error: line 2: __PAD__ is reserved for padding and cannot be a word or pos tag\n"] * 3


class TestTableChunkTags:
    # six bad tags; read in file order (gold before predictions), Q comes first
    TABLE = (
        "gold pos a b c\n"
        "B-NP NN Q R B-NP\n"
        "I-O NN S I-NP B-O\n"
        "O VBZ T O O\n"
        "B-VP VB B-VP B-VP I-O\n\n"
    )

    def test_the_first_bad_tag_is_named_whatever_the_hash_seed(self, files):
        table = files("table.txt", self.TABLE)
        errors = set()
        for seed in "12345":
            done = run_module(["weights", table], hash_seed=seed)
            assert done.returncode == 2
            errors.add(done.stderr)
        assert errors == {
            "error: line 2: bad chunk tag 'Q': expected O, B-TYPE or I-TYPE; chunk type O is reserved\n"
        }


NESTED_TEXT = "about IN (NP(NP*\n25 CD *)\n$ $ (NP*\nmillion CD *))\n\n"
# The chunkvote submodules loaded, and dataclasses, inspect or typing if
# loaded: building records must generate no code at start-up, and
# annotations must import nothing.
PRINT_LOADED = ("print(*sorted(m for m in sys.modules"
                " if m.startswith('chunkvote.') or m in ('dataclasses', 'inspect', 'typing')))")
RUN_MAIN = "import sys; from chunkvote.cli import main; assert main(sys.argv[1:]) == 0; "


def loaded_modules(code, *args):
    """The modules ``PRINT_LOADED`` names, ``chunkvote.`` left out, that a
    fresh interpreter running ``code`` has loaded; started with ``-S``, so
    that no site hook has loaded any of them first."""
    env = dict(os.environ)
    src = str(Path(chunkvote.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-S", "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return {name.removeprefix("chunkvote.") for name in done.stdout.split()}


@pytest.fixture(scope="module")
def startup_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("startup")
    table = cv_tuning_table(
        TINY_CORPUS, [LearnerSpec("base", "baseline"), LearnerSpec("tree", "igtree")], folds=3
    )
    texts = {
        "train.conll": TINY_TRAIN,
        "model.txt": dumps_model(LearnerSpec("model", "igtree").train(TINY_CORPUS)),
        "table.txt": write_table(table),
        "weights.txt": write_weights(estimate_weights(table)),
        "nested.txt": NESTED_TEXT,
    }
    for name, text in texts.items():
        (directory / name).write_text(text, encoding="utf-8")
    return directory


class TestStartUp:
    """A subcommand loads only the modules it runs, and none of
    ``dataclasses``, ``inspect`` and ``typing``."""

    BASE = {"cli", "corpus", "errors"}
    LEARN = {"features", "learners"}

    @pytest.mark.parametrize("argv, loads", [
        ("eval {d}/train.conll {d}/train.conll", {"metrics"}),
        ("eval {d}/nested.txt {d}/nested.txt --nested", {"metrics"}),
        ("report {d}/train.conll --pred a={d}/train.conll", {"metrics"}),
        ("convert {d}/train.conll --from iob2 --to iob1", set()),
        ("convert {d}/nested.txt --nested-to-levels", {"cascade"}),
        ("train {d}/train.conll --learner knn", LEARN | {"model_io"}),
        ("tag {d}/model.txt {d}/train.conll", LEARN | {"model_io"}),
        ("baseline {d}/train.conll {d}/train.conll", LEARN),
        ("cv-tune {d}/train.conll --system a=igtree --folds 2", LEARN | {"ensemble", "fanout"}),
        ("weights {d}/table.txt", {"ensemble"}),
        ("best-n {d}/table.txt -n 1", {"ensemble", "metrics"}),
        ("combine {d}/table.txt", {"ensemble"}),
        ("combine {d}/table.txt --method tag-pair --weights {d}/weights.txt", {"ensemble"}),
        ("combine {d}/table.txt --method tot-precision --tuning {d}/table.txt", {"ensemble"}),
        ("combine {d}/table.txt --bracket-level", {"ensemble"}),
        ("combine {d}/table.txt --method stacked-knn-pos --tuning {d}/table.txt",
         LEARN | {"ensemble"}),
        ("cascade {d}/model.txt {d}/train.conll", LEARN | {"model_io", "cascade", "fanout"}),
    ], ids=lambda value: value.replace("{d}/", "") if isinstance(value, str) else "")
    def test_subcommand_loads_only_what_it_runs(self, startup_dir, argv, loads):
        args = argv.format(d=startup_dir).split() + ["-o", str(startup_dir / "out")]
        assert loaded_modules(RUN_MAIN + PRINT_LOADED, *args) == self.BASE | loads

    def test_importing_the_package_loads_no_submodule(self):
        assert loaded_modules("import sys, chunkvote; " + PRINT_LOADED) == set()

    def test_importing_the_command_line_loads_its_data_model_only(self):
        assert loaded_modules("import sys, chunkvote.cli; " + PRINT_LOADED) == self.BASE


BOM = b"\xef\xbb\xbf"


class TestFileEncoding:
    """Every input file is read as UTF-8, without a leading byte-order mark;
    a file that is not UTF-8 is a data error naming it and the bad byte."""

    # Per input role, a command reading a file of that role as BAD.
    ROLES = {
        "corpus": "train BAD --learner baseline",
        "nested": "convert BAD --nested-to-levels",
        "table": "weights BAD",
        "weights": "combine {d}/table.txt --method tag-pair --weights BAD",
        "model": "tag BAD {d}/train.conll",
        "config": "eval {d}/train.conll {d}/train.conll --config BAD",
    }

    @pytest.mark.parametrize("bom", [b"", BOM], ids=["plain", "bom"])
    @pytest.mark.parametrize("role", ROLES)
    def test_a_file_that_is_not_utf8_is_a_data_error(self, startup_dir, files, capsys, role, bom):
        bad = files.dir / "bad.txt"
        bad.write_bytes(bom + b"The DT B-NP\ncat\xff NN I-NP\n\n")
        argv = self.ROLES[role].format(d=startup_dir).replace("BAD", str(bad)).split()
        assert main(argv + ["-o", out_path(files)]) == 2
        offset = len(bom) + len(b"The DT B-NP\ncat")  # a byte-order mark counts
        assert capsys.readouterr().err == f"error: {bad}: byte {offset} is not UTF-8 (invalid start byte)\n"

    def test_a_corpus_trains_the_same_model_with_a_byte_order_mark(self, startup_dir, files, capsys):
        plain = startup_dir / "train.conll"
        marked = files.dir / "marked.conll"
        marked.write_bytes(BOM + plain.read_bytes())
        models = []
        for name, train in (("plain.txt", plain), ("marked.txt", marked)):
            assert main(["train", str(train), "--learner", "igtree", "-o", out_path(files, name)]) == 0
            models.append((files.dir / name).read_bytes())
        assert models[0] == models[1]
        assert main(["eval", str(marked), str(plain), "--kv"]) == 0
        assert "overall.f=1.0\n" in capsys.readouterr().out

    def test_a_model_file_with_a_byte_order_mark_tags_the_same_bytes(self, startup_dir, files):
        model = startup_dir / "model.txt"
        marked = files.dir / "marked.txt"
        marked.write_bytes(BOM + model.read_bytes())
        tagged = []
        for name, path in (("plain.out", model), ("marked.out", marked)):
            argv = ["tag", str(path), str(startup_dir / "train.conll"), "-o", out_path(files, name)]
            assert main(argv) == 0
            tagged.append((files.dir / name).read_bytes())
        assert tagged[0] == tagged[1]


# sha256 of ``chunkvote [COMMAND] --help`` at 80 columns, as the parser
# printed it when it declared every subcommand up front
HELP_SHA256 = {
    None: "545aa5d2d67d88e8d5d1f771631192160a53ebb7208f163c4f414aedc63c1e43",
    "convert": "8604e603d823318eb4fb8d1531c3530f0d42f6faa2a8a5b678a31460f81601ad",
    "baseline": "fa6df1b93e8553970da156207ebacb8b641f2d090cc1e3bbf9e80ece9a671b71",
    "train": "ad3584533c2a4aafeea8640faa6e9e78a17d741e8d0976fa4c682cb52475e543",
    "tag": "6cb51c8e5edf4863266ece8d1705548c1c9d0739cd81421431b956c4c09ddb73",
    "eval": "417659b587763fb672342336ccd535df2036f6eaff816ac1d1c05bd4669d2717",
    "cv-tune": "cdbf9a385b0a2b87372dce218280e323eb4f9d2145c72e191440239b8c8f0f6a",
    "weights": "aa741ea5369790f00b3f25512ca3c7348ef96375a085f365e9d68cb30dc6880a",
    "combine": "22a92334fbf01be5653fc6e55de2407be314b78dc659b32b489f41a8fec07af5",
    "best-n": "1eb2d2645ef1dbc269ec0a3f19528ba0cda4162d10004318cd40c703183d6c81",
    "cascade": "a0e46f6b1431ace7b190109908100c58ae19c8fe4771cdb6c13c5bc89bdcaf8b",
    "report": "2271036c36e64f01c72f31c56178c5c36f0b79e6cbfd97c9235cbe85da9d0166",
}


class TestParserPinned:
    @pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                        reason="the pinned help was printed by Python 3.11's argparse")
    @pytest.mark.parametrize("command", HELP_SHA256)
    def test_help_is_unchanged(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"] if command else ["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == HELP_SHA256[command]

    @pytest.mark.parametrize("argv, message", [
        (["train", "TRAIN", "--learner", "bad"],
         "argument --learner: expected one of ('baseline', 'knn', 'igtree', 'maxent', 'rules'),"
         " got 'bad'"),
        (["cascade", "TRAIN", "TRAIN", "--head", "middle"],
         "argument --head: expected one of ('last', 'first'), got 'middle'"),
        (["convert", "TRAIN", "--head", "middle"],
         "argument --head: expected one of ('last', 'first'), got 'middle'"),
        (["combine", "TRAIN", "--method", "bad"],
         "argument --method: expected one of ('majority', 'tot-precision', 'tag-precision',"
         " 'precision-recall', 'tag-pair', 'stacked-knn', 'stacked-knn-pos', 'stacked-igtree',"
         " 'stacked-igtree-pos'), got 'bad'"),
        (["cv-tune", "TRAIN", "--system", "x=igtree,weighting=bad"],
         "--system option 'weighting=bad': expected one of ('gain_ratio', 'information_gain'),"
         " got 'bad'"),
    ], ids=["learner", "cascade head", "convert head", "method", "system weighting"])
    def test_bad_choices_are_usage_errors(self, files, capsys, argv, message):
        train = files("train.conll", TINY_TRAIN)
        argv = [train if arg == "TRAIN" else arg for arg in argv]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"usage error: {message}\n"
        done = run_module(argv)
        assert (done.returncode, done.stderr) == (1, f"usage error: {message}\n")
