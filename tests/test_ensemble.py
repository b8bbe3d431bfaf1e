import itertools
import re
import weakref

import pytest

import chunkvote.learners
from chunkvote import (
    AlignmentError,
    ChunkSpan,
    ChunkvoteError,
    CombinerWeights,
    ConfigError,
    Corpus,
    Counts,
    LearnerSpec,
    ParseError,
    PredictionRow,
    PredictionTable,
    Sentence,
    TagScheme,
    Token,
    TrainingError,
    ValidationError,
    VOTING_METHODS,
    WindowConfig,
    best_n_select,
    combine_bracket_sentence,
    combine_corpus,
    cv_tuning_table,
    estimate_weights,
    extract_chunks,
    from_corpora,
    read_table,
    read_weights,
    scheme_violation,
    score_tagged,
    stacked_corpus,
    stacked_train,
    tag_sentence,
    tags_from_chunks,
    vote,
    write_table,
    write_weights,
)
from chunkvote.ensemble import evaluate_subset

import datagen
from conftest import make_sentence
from oracles import (
    oracle_bracket_vote, oracle_chunks, oracle_score, oracle_vote, reference_estimate_weights,
    reference_read_table,
)

TAGS = ("B-NP", "I-NP", "O")


def spans(*triples):
    return [ChunkSpan(b, e, label) for b, e, label in triples]


def column(table, system):
    """One system's predictions, per sentence."""
    index = table.systems.index(system)
    return [[row.preds[index] for row in rows] for rows in table.sentences]


def corpus_spans(corpus):
    return [extract_chunks(sentence.chunk_tags) for sentence in corpus.sentences]


def table_from_rows(systems, sentences, gold=None):
    """sentences: list of list of (pos, (pred, ...)); gold: parallel tag rows."""
    built = []
    for si, rows in enumerate(sentences):
        built.append(tuple(
            PredictionRow(pos, tuple(preds), gold[si][ti] if gold else None)
            for ti, (pos, preds) in enumerate(rows)
        ))
    return PredictionTable(tuple(systems), tuple(built))


def make_weights(systems=("s1", "s2"), **kw):
    return CombinerWeights(
        systems=tuple(systems),
        accuracy=kw.get("accuracy", {}),
        tag_precision=kw.get("tag_precision", {}),
        tag_recall=kw.get("tag_recall", {}),
        pair_prob=kw.get("pair_prob", {}),
        tag_counts=kw.get("tag_counts", {}),
    )


random_weights = datagen.random_weights


class TestPredictionTable:
    def test_validation(self):
        with pytest.raises(ValidationError, match="at least one system"):
            PredictionTable((), ())
        with pytest.raises(ValidationError, match="unique"):
            PredictionTable(("a", "a"), ())
        with pytest.raises(ValidationError, match="reserved"):
            PredictionTable(("gold",), ())
        with pytest.raises(ValidationError, match="reserved"):
            PredictionTable(("pos",), ())
        with pytest.raises(ValidationError, match="^a prediction table needs at least one sentence$"):
            PredictionTable(("a",), ())
        with pytest.raises(ValidationError, match="empty sentence"):
            PredictionTable(("a",), ((),))
        with pytest.raises(ValidationError, match="predictions for"):
            PredictionTable(("a",), ((PredictionRow("NN", ("O", "O")),),))
        mixed = (
            (PredictionRow("NN", ("O",), "O"),),
            (PredictionRow("NN", ("O",)),),
        )
        with pytest.raises(ValidationError, match="every row or on none"):
            PredictionTable(("a",), mixed)

    def test_pos_tags_get_token_checks_and_the_first_bad_one_is_named(self):
        rows = [PredictionRow(pos, ("O",)) for pos in ("NN", "two words", "__PAD__", "")]
        with pytest.raises(ValidationError, match="bad pos tag 'two words'"):
            PredictionTable(("a",), (tuple(rows),))
        with pytest.raises(ValidationError, match="reserved for padding"):
            read_table("pos a\nNN O\n\n__PAD__ O\n")

    def test_columns(self):
        table = table_from_rows(
            ["m1", "m2"],
            [[("DT", ("B-NP", "O")), ("NN", ("I-NP", "I-NP"))]],
            gold=[["B-NP", "I-NP"]],
        )
        assert table.has_gold
        assert column(table, "m1") == [["B-NP", "I-NP"]]
        assert column(table, "m2") == [["O", "I-NP"]]
        assert table.gold_column() == [["B-NP", "I-NP"]]
        assert [row.pos for row in table.rows()] == ["DT", "NN"]

    def test_gold_column_requires_gold(self):
        table = table_from_rows(["m1"], [[("DT", ("O",))]])
        assert not table.has_gold
        with pytest.raises(ValidationError):
            table.gold_column()


class TestTableIO:
    def table(self, gold=True):
        sentences = [
            [("DT", ("B-NP", "B-NP")), ("NN", ("I-NP", "O"))],
            [("VB", ("O", "O"))],
        ]
        gold_rows = [["B-NP", "I-NP"], ["O"]] if gold else None
        return table_from_rows(["m1", "m2"], sentences, gold_rows)

    def test_write_with_gold(self):
        assert write_table(self.table()) == (
            "gold pos m1 m2\n"
            "B-NP DT B-NP B-NP\n"
            "I-NP NN I-NP O\n"
            "\n"
            "O VB O O\n"
            "\n"
        )

    def test_write_without_gold(self):
        assert write_table(self.table(gold=False)).startswith("pos m1 m2\n")

    @pytest.mark.parametrize("gold", [True, False])
    def test_roundtrip(self, gold):
        table = self.table(gold)
        text = write_table(table)
        assert read_table(text) == table
        assert write_table(read_table(text)) == text

    def test_blank_lines_after_the_header_are_skipped(self):
        header, body = write_table(self.table()).split("\n", 1)
        assert read_table(header + "\n\n \n" + body) == self.table()

    def test_read_errors(self):
        with pytest.raises(ParseError, match="empty"):
            read_table("")
        with pytest.raises(ParseError, match="header"):
            read_table("word pos m1\n")
        with pytest.raises(ParseError, match="header"):
            read_table("gold m1\n")
        for header in ("pos\n", "gold pos\n"):
            with pytest.raises(ParseError, match="^table header names no systems$"):
                read_table(header)
        with pytest.raises(ParseError, match="line 3"):
            read_table("gold pos m1\nB-NP DT B-NP\nB-NP DT\n")
        for text in ("gold pos m1\n", "pos m1\n\n \n"):
            with pytest.raises(ValidationError, match="at least one sentence"):
                read_table(text)


class TestFromCorpora:
    def test_assembles_pos_preds_and_gold(self, tiny_corpus):
        baseline = LearnerSpec("base", "baseline").train(tiny_corpus)
        tagged = Corpus(
            tuple(
                make_sentence([
                    (t.word, t.pos, tag)
                    for t, tag in zip(s.tokens, tag_sentence(baseline, s))
                ])
                for s in tiny_corpus.sentences
            ),
            TagScheme.IOB2,
        )
        table = from_corpora({"base": tagged}, gold=tiny_corpus)
        assert table.systems == ("base",)
        assert table.gold_column() == [list(s.chunk_tags) for s in tiny_corpus.sentences]
        assert column(table, "base") == [
            tag_sentence(baseline, s) for s in tiny_corpus.sentences
        ]

    def test_alignment_and_tag_errors(self, tiny_corpus):
        short = Corpus(tiny_corpus.sentences[:-1], TagScheme.IOB2)
        with pytest.raises(AlignmentError, match="sentence count"):
            from_corpora({"a": short}, gold=tiny_corpus)
        with pytest.raises(ValidationError, match="at least one system"):
            from_corpora({})
        bare = Corpus(
            tuple(
                make_sentence([(t.word, t.pos, None) for t in s.tokens])
                for s in tiny_corpus.sentences
            ),
            TagScheme.IOB2,
        )
        with pytest.raises(ValidationError, match="untagged"):
            from_corpora({"a": bare})
        empty = Corpus((), TagScheme.IOB2)
        with pytest.raises(ValidationError, match="at least one sentence"):
            from_corpora({"a": empty}, gold=empty)

    def test_single_fault_messages(self, tiny_corpus):
        def replaced(index, tokens):
            sentences = list(tiny_corpus.sentences)
            sentences[index] = make_sentence(tokens)
            return Corpus(tuple(sentences), TagScheme.IOB2)

        second, third = tiny_corpus.sentences[1].tokens, tiny_corpus.sentences[2].tokens
        shorter = replaced(1, [(t.word, t.pos, t.chunk_tag) for t in second[:-1]])
        untagged = replaced(2, [(t.word, t.pos, None) for t in third])
        fewer = Corpus(tiny_corpus.sentences[:-1], TagScheme.IOB2)
        cases = [
            ({"a": fewer}, AlignmentError, "system a: sentence count differs from reference"),
            ({"a": tiny_corpus, "b": shorter}, AlignmentError, "system b: sentence 2 length differs"),
            ({"a": tiny_corpus, "b": untagged}, ValidationError,
             "system b: sentence 3 has untagged tokens"),
        ]
        for predictions, error, message in cases:
            with pytest.raises(error, match=f"^{message}$"):
                from_corpora(predictions, gold=tiny_corpus)
        with pytest.raises(ValidationError, match="^gold sentence 3 has untagged tokens$"):
            from_corpora({"a": tiny_corpus}, gold=untagged)


class TestCvTuningTable:
    def test_structure_and_gold(self, tiny_corpus):
        specs = [LearnerSpec("base", "baseline"), LearnerSpec("tree", "igtree")]
        table = cv_tuning_table(tiny_corpus, specs, folds=3)
        assert table.systems == ("base", "tree")
        assert len(table.sentences) == len(tiny_corpus.sentences)
        for rows, sentence in zip(table.sentences, tiny_corpus.sentences):
            assert len(rows) == len(sentence)
            assert [r.pos for r in rows] == list(sentence.pos_tags)
            assert [r.gold for r in rows] == list(sentence.chunk_tags)

    def test_each_sentence_is_predicted_by_an_unexposed_model(self, tiny_corpus):
        folds = 3
        spec = LearnerSpec("base", "baseline")
        table = cv_tuning_table(tiny_corpus, [spec], folds=folds)
        for i, sentence in enumerate(tiny_corpus.sentences):
            held_out = Corpus(
                tuple(s for j, s in enumerate(tiny_corpus.sentences) if j % folds != i % folds),
                TagScheme.IOB2,
            )
            model = spec.train(held_out)
            assert [r.preds[0] for r in table.sentences[i]] == tag_sentence(model, sentence)

    def test_is_deterministic(self, tiny_corpus):
        specs = [LearnerSpec("knn", "knn", k=1)]
        first = cv_tuning_table(tiny_corpus, specs, folds=2)
        second = cv_tuning_table(tiny_corpus, specs, folds=2)
        assert first == second

    @pytest.mark.parametrize("index", [2, 1], ids=["fold 0", "fold 1"])
    def test_an_untagged_sentence_is_numbered_in_the_corpus(self, tiny_corpus, index):
        sentences = list(tiny_corpus.sentences)
        sentences[index] = make_sentence([(t.word, t.pos, None) for t in sentences[index].tokens])
        corpus = Corpus(tuple(sentences), TagScheme.IOB2)
        with pytest.raises(TrainingError, match=f"^sentence {index + 1} has untagged tokens$"):
            cv_tuning_table(corpus, [LearnerSpec("base", "baseline")], folds=2)

    def test_a_bad_option_of_a_later_group_stops_it_before_any_training(self, tiny_corpus,
                                                                        monkeypatch):
        def fail(*args):
            raise AssertionError("featurized or fitted")

        monkeypatch.setattr(LearnerSpec, "featurize", fail)
        monkeypatch.setattr(LearnerSpec, "fit", fail)
        specs = [LearnerSpec("ent", "maxent", iterations=5), LearnerSpec("nn", "knn", k=0)]
        with pytest.raises(ConfigError, match=r"^k must be >= 1, got 0$"):
            cv_tuning_table(tiny_corpus, specs, folds=2)

    def test_featurizes_once_per_window_and_matches_training_per_fold(self, monkeypatch):
        corpus = datagen.grammar_corpus(datagen.rng(42_000), 30)
        specs = [
            LearnerSpec("base", "baseline"),
            LearnerSpec("tree", "igtree"),
            LearnerSpec("nn", "knn", k=1),
            LearnerSpec("rio", "rules", io_encoding=True),
            LearnerSpec("wide", "igtree", window=WindowConfig(left_words=1, complex_pairs=True)),
        ]
        folds = 4
        sentences = corpus.sentences
        predicted = {spec.name: [None] * len(sentences) for spec in specs}
        for fold in range(folds):
            held_out = Corpus(
                tuple(s for i, s in enumerate(sentences) if i % folds != fold), corpus.scheme,
            )
            for spec in specs:
                model = spec.train(held_out)
                for i in range(fold, len(sentences), folds):
                    predicted[spec.name][i] = tag_sentence(model, sentences[i])
        expected = table_from_rows(
            [spec.name for spec in specs],
            [[(token.pos, tuple(predicted[spec.name][i][k] for spec in specs))
              for k, token in enumerate(sentence.tokens)]
             for i, sentence in enumerate(sentences)],
            gold=[sentence.chunk_tags for sentence in sentences],
        )

        windows = []
        featurize = chunkvote.learners.corpus_to_dataset
        monkeypatch.setattr(chunkvote.learners, "corpus_to_dataset",
                            lambda c, window: windows.append(window) or featurize(c, window))
        table = cv_tuning_table(corpus, specs, folds=folds)
        assert write_table(table) == write_table(expected)
        # tree and nn share the default window; rio reads it io-encoded
        assert len(windows) == 4

    def test_each_model_is_freed_before_the_next_fit(self, tiny_corpus, monkeypatch):
        # A maxent model holds its weights, trace and scoring index.
        models, alive = [], []
        fit = LearnerSpec.fit

        def spy(spec, dataset):
            alive.append(sum(ref() is not None for ref in models))
            model = fit(spec, dataset)
            models.append(weakref.ref(model))
            return model

        monkeypatch.setattr(LearnerSpec, "fit", spy)
        specs = [LearnerSpec("ent", "maxent", iterations=2), LearnerSpec("tree", "igtree")]
        cv_tuning_table(tiny_corpus, specs, folds=3)
        assert alive == [0] * 6

    @pytest.mark.parametrize("name", ["gold", "pos"])
    def test_reserved_names_are_rejected_before_any_training(self, tiny_corpus, monkeypatch, name):
        calls = []
        monkeypatch.setattr(LearnerSpec, "featurize", lambda spec, corpus: calls.append("featurize"))
        monkeypatch.setattr(LearnerSpec, "fit", lambda spec, dataset: calls.append("fit"))
        specs = [LearnerSpec("base", "baseline"), LearnerSpec(name, "igtree")]
        with pytest.raises(ValidationError, match=f"^system name '{name}' is reserved$"):
            cv_tuning_table(tiny_corpus, specs, folds=2)
        assert calls == []

    def test_config_errors(self, tiny_corpus):
        spec = LearnerSpec("base", "baseline")
        with pytest.raises(ConfigError, match="folds"):
            cv_tuning_table(tiny_corpus, [spec], folds=1)
        with pytest.raises(ConfigError, match="cannot fill"):
            cv_tuning_table(tiny_corpus, [spec], folds=100)
        with pytest.raises(ConfigError, match="unique"):
            cv_tuning_table(tiny_corpus, [spec, spec], folds=2)
        with pytest.raises(ConfigError, match="at least one"):
            cv_tuning_table(tiny_corpus, [], folds=2)


class TestEstimateWeights:
    def table(self):
        return table_from_rows(
            ["m1", "m2"],
            [[
                ("DT", ("B-NP", "O")),
                ("NN", ("O", "O")),
                ("VB", ("B-NP", "B-NP")),
            ]],
            gold=[["B-NP", "O", "O"]],
        )

    def test_hand_tally(self):
        w = estimate_weights(self.table())
        assert w.systems == ("m1", "m2")
        assert w.accuracy == {"m1": 2 / 3, "m2": 1 / 3}
        assert w.tag_precision == {
            ("m1", "B-NP"): 0.5, ("m1", "O"): 1.0,
            ("m2", "O"): 0.5, ("m2", "B-NP"): 0.0,
        }
        assert w.tag_recall == {
            ("m1", "B-NP"): 1.0, ("m1", "O"): 0.5,
            ("m2", "B-NP"): 0.0, ("m2", "O"): 0.5,
        }
        assert w.pair_prob == {
            ("m1", "m2", "B-NP", "O"): {"B-NP": 1.0},
            ("m1", "m2", "O", "O"): {"O": 1.0},
            ("m1", "m2", "B-NP", "B-NP"): {"O": 1.0},
        }
        assert w.tag_counts == {"B-NP": 1, "O": 2}

    def test_accessors_default_to_zero(self):
        w = estimate_weights(self.table())
        assert w.accuracy_of("nope") == 0.0
        assert w.tag_precision_of("m1", "I-NP") == 0.0
        assert w.tag_recall_of("m9", "O") == 0.0

    def test_requires_gold(self):
        bare = table_from_rows(["m1"], [[("DT", ("O",))]])
        with pytest.raises(ValidationError):
            estimate_weights(bare)

    @pytest.mark.parametrize("seed", range(10))
    def test_rates_are_rates(self, seed):
        r = datagen.rng(16_000 + seed)
        gold, preds = datagen.random_table_data(r, 12, ["a", "b", "c"], TAGS)
        corpora = {}
        for name, rows_by_sentence in preds.items():
            corpora[name] = Corpus(
                tuple(
                    make_sentence([
                        (f"w{t}", pos, tag)
                        for t, ((pos, _), tag) in enumerate(zip(rows, tags))
                    ])
                    for rows, tags in zip(gold, rows_by_sentence)
                ),
                TagScheme.IOB2,
            )
        gold_corpus = Corpus(
            tuple(
                make_sentence([(f"w{t}", pos, tag) for t, (pos, tag) in enumerate(rows)])
                for rows in gold
            ),
            TagScheme.IOB2,
        )
        w = estimate_weights(from_corpora(corpora, gold=gold_corpus))
        assert all(0.0 <= v <= 1.0 for v in w.accuracy.values())
        assert all(0.0 <= v <= 1.0 for v in w.tag_precision.values())
        assert all(0.0 <= v <= 1.0 for v in w.tag_recall.values())
        for dist in w.pair_prob.values():
            assert sum(dist.values()) == pytest.approx(1.0)
            assert all(p >= 0.0 for p in dist.values())


class TestWeightsIO:
    def test_roundtrip(self):
        table = TestEstimateWeights().table()
        w = estimate_weights(table)
        text = write_weights(w)
        assert read_weights(text) == w
        assert write_weights(read_weights(text)) == text

    def test_read_errors(self):
        with pytest.raises(ParseError, match="not a combiner-weights"):
            read_weights("something 2\n")
        with pytest.raises(ParseError, match="bad weights line"):
            read_weights("combiner-weights 1\nwibble x y\n")
        with pytest.raises(ParseError, match="bad number"):
            read_weights("combiner-weights 1\naccuracy m1 high\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-0.1", "1.5"])
    @pytest.mark.parametrize("kind", ["accuracy", "tagprec", "tagrec", "pair"])
    def test_rates_outside_the_unit_interval_are_rejected(self, kind, value):
        lines = write_weights(estimate_weights(TestEstimateWeights().table())).splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith(kind + " "))
        lines[at] = lines[at].rsplit(" ", 1)[0] + " " + value
        with pytest.raises(ParseError, match=r"rate outside \[0, 1\]"):
            read_weights("\n".join(lines) + "\n")

    @pytest.mark.parametrize("keyword", ["system", "tagcount", "accuracy", "tagprec", "tagrec", "pair"])
    def test_a_repeated_key_is_rejected(self, keyword):
        lines = write_weights(estimate_weights(TestEstimateWeights().table())).splitlines()
        line = next(line for line in lines if line.startswith(keyword + " "))
        again = line if keyword == "system" else line.rsplit(" ", 1)[0] + " 0"
        with pytest.raises(ParseError, match="repeated key in weights line"):
            read_weights("\n".join(lines + [again]) + "\n")

    @pytest.mark.parametrize("line", [
        "accuracy zzz 0.5", "tagprec zzz B-NP 0.5", "tagrec zzz B-NP 0.5",
        "pair a zzz O O O 0.5", "pair zzz a O O O 0.5",
    ])
    def test_a_line_for_an_undeclared_system_is_rejected(self, line):
        text = "combiner-weights 1\nsystem a\naccuracy a 0.5\n" + line + "\n"
        with pytest.raises(ParseError, match="systems without a system line: zzz"):
            read_weights(text)

    def test_a_system_without_accuracy_is_rejected(self):
        with pytest.raises(ParseError, match="no accuracy line for: b"):
            read_weights("combiner-weights 1\nsystem a\nsystem b\naccuracy a 0.5\n")

    @pytest.mark.parametrize("line", [
        "tagcount Q 7", "tagprec a B-O 0.5", "tagrec a I- 0.5",
        "pair a b Q O O 0.5", "pair a b O Q O 0.5", "pair a b O O Q 0.5",
    ])
    def test_bad_chunk_tags_are_rejected(self, line):
        # An unproposed tag such as Q would win every disputed
        # precision-recall row, and dropping it leaves O behind.
        text = "combiner-weights 1\nsystem a\nsystem b\naccuracy a 0.5\naccuracy b 0.5\n"
        with pytest.raises(ParseError, match=re.escape(f"in weights line {line!r}")):
            read_weights(text + line + "\n")

    def test_the_first_bad_tag_in_file_order_is_named(self):
        text = "combiner-weights 1\ntagrec a Z 0.5\ntagcount Q 7\nsystem a\naccuracy a 0.5\n"
        with pytest.raises(ParseError, match=r"bad chunk tag 'Z'.*'tagrec a Z 0.5'"):
            read_weights(text)

    def test_negative_tag_counts_are_rejected(self):
        with pytest.raises(ParseError, match="negative tag count"):
            read_weights("combiner-weights 1\ntagcount B-NP -1\n")
        assert read_weights("combiner-weights 1\ntagcount B-NP 0\n").tag_counts == {"B-NP": 0}


# field values that table and weights readers often mishandle
READER_VALUES = (
    "nan", "inf", "-inf", "1e308", "-1", "0", "1", "x", "gold", "pos", "system",
    "B-NP", "I-O", "B-O", "O-NP", "__PAD__", "a", "b",
)


def fuzz_table():
    """Eight random sentences with gold tags and three noisy systems."""
    gold, preds = datagen.random_table_data(datagen.rng(41_000), 8, ["a", "b", "c"], TAGS)
    sentences = [
        [(pos, tuple(preds[n][si][ti] for n in "abc")) for ti, (pos, _) in enumerate(rows)]
        for si, rows in enumerate(gold)
    ]
    return table_from_rows(["a", "b", "c"], sentences, [[tag for _, tag in rows] for rows in gold])


def assert_token_values(corpus):
    """Every value of ``corpus`` passes Token's checks: combining builds its
    sentences unchecked, from values checked as read."""
    for sentence in corpus.sentences:
        assert Sentence(map(Token, sentence.words, sentence.pos_tags, sentence.chunk_tags)) == sentence


def combine_every_way(table, weights):
    """Every combination a reader's output feeds; only ChunkvoteError may escape."""
    assert_token_values(combine_corpus(table, bracket_level=True, weights=weights))
    for method in VOTING_METHODS:
        if weights is not None or method == "majority":
            assert_token_values(combine_corpus(table, method=method, weights=weights))


def reader_outcome(read, text):
    """What a reader gives: its records, or its error's class and message."""
    try:
        return read(text)
    except ChunkvoteError as exc:
        return type(exc), str(exc)


class TestMutatedReaders:
    def test_only_chunkvote_errors_escape_read_table(self):
        r = datagen.rng(42_000)
        text = write_table(fuzz_table())
        read = 0
        for _ in range(1000):
            mutated = datagen.mutate(r, text, READER_VALUES)
            for _ in range(r.randrange(2)):
                mutated = datagen.mutate(r, mutated, READER_VALUES)
            try:
                table = read_table(mutated)
                read += 1
                weights = estimate_weights(table) if table.has_gold else None
                combine_every_way(table, weights)
                if table.has_gold:
                    best_n_select(table, 2)
            except ChunkvoteError:
                pass
        assert read > 0

    def test_read_table_names_the_first_fault_as_the_reference_does(self):
        # Header edits give repeated and reserved system names; the reader
        # checks them after the rows, as the checking constructor did.
        r = datagen.rng(42_500)
        header, body = write_table(fuzz_table()).split("\n", 1)
        for _ in range(400):
            fields = header.split()
            if r.random() < 0.5:
                fields[r.randrange(2, len(fields))] = r.choice(("a", "b", "c", "d", "gold", "pos"))
            mutated = " ".join(fields) + "\n" + (body if r.random() < 0.95 else "")
            for _ in range(r.randrange(3)):
                mutated = datagen.mutate(r, mutated, READER_VALUES)
            assert reader_outcome(read_table, mutated) == reader_outcome(reference_read_table, mutated)

    def test_only_chunkvote_errors_escape_read_weights(self):
        r = datagen.rng(43_000)
        table = fuzz_table()
        text = write_weights(estimate_weights(table))
        read = 0
        for _ in range(1000):
            mutated = datagen.mutate(r, text, READER_VALUES)
            for _ in range(r.randrange(2)):
                mutated = datagen.mutate(r, mutated, READER_VALUES)
            try:
                weights = read_weights(mutated)
                read += 1
                combine_every_way(table, weights)
            except ChunkvoteError:
                pass
        assert read > 0


class TestVote:
    def test_majority(self):
        votes = [("a", "B-NP"), ("b", "O"), ("c", "B-NP")]
        assert vote(votes, "majority") == "B-NP"

    def test_majority_tie_prefers_frequent_then_alphabetical(self):
        votes = [("a", "B-NP"), ("b", "O")]
        assert vote(votes, "majority") == "B-NP"
        w = make_weights(tag_counts={"O": 9, "B-NP": 1})
        assert vote(votes, "majority", w) == "O"

    def test_unanimous_rows_pass_through_every_method(self):
        r = datagen.rng(99)
        systems = ("s1", "s2", "s3")
        w = random_weights(r, systems, TAGS)
        votes = [(s, "I-NP") for s in systems]
        for method in VOTING_METHODS:
            assert vote(votes, method, w) == "I-NP"

    def test_tot_precision_lets_a_strong_minority_win(self):
        votes = [("s1", "B-NP"), ("s2", "O"), ("s3", "O")]
        w = make_weights(
            systems=("s1", "s2", "s3"),
            accuracy={"s1": 0.9, "s2": 0.4, "s3": 0.4},
        )
        assert vote(votes, "tot-precision", w) == "B-NP"
        stronger = make_weights(
            systems=("s1", "s2", "s3"),
            accuracy={"s1": 0.9, "s2": 0.55, "s3": 0.6},
        )
        assert vote(votes, "tot-precision", stronger) == "O"

    def test_tag_precision_weighs_each_proposal(self):
        votes = [("s1", "B-NP"), ("s2", "O"), ("s3", "O")]
        w = make_weights(
            systems=("s1", "s2", "s3"),
            tag_precision={
                ("s1", "B-NP"): 0.95, ("s2", "O"): 0.4, ("s3", "O"): 0.4,
            },
        )
        assert vote(votes, "tag-precision", w) == "B-NP"

    def test_precision_recall_can_pick_an_unproposed_tag(self):
        votes = [("s1", "B-NP"), ("s2", "O")]
        w = make_weights(
            tag_precision={("s1", "B-NP"): 0.1, ("s2", "O"): 0.1},
            tag_recall={
                ("s1", "I-NP"): 0.0, ("s2", "I-NP"): 0.0,
                ("s1", "O"): 0.9, ("s2", "B-NP"): 0.9,
            },
            tag_counts={"B-NP": 1, "I-NP": 1, "O": 1},
        )
        assert vote(votes, "precision-recall", w) == "I-NP"

    def test_tag_pair_uses_the_conditional_distribution(self):
        votes = [("s1", "B-NP"), ("s2", "O")]
        w = make_weights(
            pair_prob={("s1", "s2", "B-NP", "O"): {"I-NP": 0.8, "B-NP": 0.2}},
        )
        assert vote(votes, "tag-pair", w) == "I-NP"

    def test_tag_pair_backs_off_to_halved_tag_precision(self):
        votes = [("s1", "B-NP"), ("s2", "O")]
        w = make_weights(
            tag_precision={("s1", "B-NP"): 0.6, ("s2", "O"): 0.5},
        )
        assert vote(votes, "tag-pair", w) == "B-NP"
        flipped = make_weights(
            tag_precision={("s1", "B-NP"): 0.3, ("s2", "O"): 0.5},
        )
        assert vote(votes, "tag-pair", flipped) == "O"

    @pytest.mark.parametrize("method", VOTING_METHODS[1:])
    def test_a_weighted_method_needs_weights_on_unanimous_rows_too(self, method):
        with pytest.raises(ConfigError, match="needs combiner weights"):
            vote([("a", "O"), ("b", "O")], method)
        table = read_table("pos a b\nDT B-NP B-NP\nNN I-NP I-NP\n\n")
        with pytest.raises(ConfigError, match="needs combiner weights"):
            combine_corpus(table, method=method)

    def test_errors(self):
        with pytest.raises(ValidationError):
            vote([], "majority")
        with pytest.raises(ConfigError, match="unknown voting method"):
            vote([("a", "O")], "plurality")
        with pytest.raises(ConfigError, match="needs combiner weights"):
            vote([("a", "O"), ("b", "B-NP")], "tot-precision")

    @pytest.mark.parametrize("method", VOTING_METHODS)
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_the_exhaustive_oracle(self, method, seed):
        r = datagen.rng(17_000 + seed)
        for _ in range(60):
            n = r.randint(2, 6)
            systems = tuple(f"s{i}" for i in range(n))
            w = random_weights(r, systems, TAGS)
            votes = [(s, r.choice(TAGS)) for s in systems]
            assert vote(votes, method, w) == oracle_vote(votes, method, w)

    @pytest.mark.parametrize("seed", range(5))
    def test_tag_pair_does_not_depend_on_column_order(self, seed):
        r = datagen.rng(43_000 + seed)

        def table(data, systems):
            gold, preds = data
            sentences = [
                [(pos, tuple(preds[n][si][ti] for n in systems)) for ti, (pos, _) in enumerate(rows)]
                for si, rows in enumerate(gold)
            ]
            return table_from_rows(systems, sentences, [[tag for _, tag in rows] for rows in gold])

        weights = estimate_weights(table(datagen.random_table_data(r, 40, "abc", TAGS, 0.4), "abc"))
        test = datagen.random_table_data(r, 40, "abc", TAGS, 0.4)
        forward = combine_corpus(table(test, "abc"), method="tag-pair", weights=weights)
        backward = combine_corpus(table(test, "cba"), method="tag-pair", weights=weights)
        assert forward == backward

    @pytest.mark.parametrize("seed", range(8))
    def test_equal_accuracies_reduce_to_majority(self, seed):
        r = datagen.rng(18_000 + seed)
        systems = tuple(f"s{i}" for i in range(5))
        counts = {t: r.randint(0, 9) for t in TAGS}
        w = make_weights(
            systems=systems,
            accuracy={s: 0.7 for s in systems},
            tag_counts=counts,
        )
        majority_w = make_weights(systems=systems, tag_counts=counts)
        for _ in range(40):
            votes = [(s, r.choice(TAGS)) for s in systems]
            assert vote(votes, "tot-precision", w) == vote(votes, "majority", majority_w)

    @pytest.mark.parametrize("method", ["majority", "tot-precision", "tag-precision"])
    @pytest.mark.parametrize("seed", range(5))
    def test_tag_local_methods_pick_a_proposed_tag(self, method, seed):
        r = datagen.rng(19_000 + seed)
        systems = tuple(f"s{i}" for i in range(4))
        w = random_weights(r, systems, TAGS)
        for _ in range(40):
            votes = [(s, r.choice(TAGS)) for s in systems]
            assert vote(votes, method, w) in {t for _, t in votes}


class TestStacking:
    def table(self):
        # gold equals m2 whenever m1 says B-NP, else it equals m1
        sentences = []
        gold = []
        rows = [
            ("B-NP", "O", "O"), ("B-NP", "I-NP", "I-NP"),
            ("O", "B-NP", "O"), ("I-NP", "O", "I-NP"),
            ("B-NP", "B-NP", "B-NP"), ("O", "I-NP", "O"),
        ]
        for m1, m2, g in rows:
            sentences.append([("NN", (m1, m2))])
            gold.append([g])
        return table_from_rows(["m1", "m2"], sentences, gold)

    def test_slot_names_are_the_system_names(self):
        model = stacked_train(self.table(), learner="knn")
        assert model.slot_names == ("m1", "m2")
        with_pos = stacked_train(self.table(), learner="igtree", add_pos=True)
        assert with_pos.slot_names == ("m1", "m2", "pos")

    @pytest.mark.parametrize("learner", ["knn", "igtree"])
    @pytest.mark.parametrize("add_pos", [False, True])
    def test_learns_a_correction_pattern(self, learner, add_pos):
        table = self.table()
        model = stacked_train(table, learner=learner, add_pos=add_pos)
        gold_spans = [extract_chunks(tags) for tags in table.gold_column()]
        assert corpus_spans(stacked_corpus(model, table)) == gold_spans

    def test_add_pos_is_inferred_from_the_model(self):
        table = self.table()
        model = stacked_train(table, add_pos=True)
        gold_spans = [extract_chunks(tags) for tags in table.gold_column()]
        assert corpus_spans(stacked_corpus(model, table)) == gold_spans
        one_system = table_from_rows(["m1"], [[("NN", ("O",))]])
        with pytest.raises(ValidationError, match="columns"):
            stacked_corpus(model, one_system)

    @pytest.mark.parametrize("add_pos", [False, True])
    def test_table_systems_must_be_the_model_systems_in_order(self, add_pos):
        table = self.table()
        model = stacked_train(table, learner="igtree", add_pos=add_pos)
        renamed = PredictionTable(("x", "y"), table.sentences)
        with pytest.raises(ValidationError, match="columns m1 m2 differ from table systems x y"):
            stacked_corpus(model, renamed)
        swapped = PredictionTable(("m2", "m1"), tuple(
            tuple(PredictionRow(row.pos, row.preds[::-1]) for row in rows)
            for rows in table.sentences
        ))
        with pytest.raises(ValidationError, match="table systems m2 m1"):
            stacked_corpus(model, swapped)

    def test_a_model_needs_only_slot_names_and_predict(self):
        # A wrapper that times each prediction passes an object with only these.
        class Bare:
            def __init__(self, model):
                self.slot_names, self.predict = model.slot_names, model.predict

        table = self.table()
        for add_pos in (False, True):
            model = stacked_train(table, learner="igtree", add_pos=add_pos)
            assert stacked_corpus(Bare(model), table) == stacked_corpus(model, table)

    def test_errors(self):
        with pytest.raises(ConfigError, match="stacked learner"):
            stacked_train(self.table(), learner="maxent")
        bare = table_from_rows(["m1", "m2"], [[("NN", ("O", "O"))]])
        with pytest.raises(ValidationError, match="gold"):
            stacked_train(bare)


class TestBestN:
    def table(self, seed=0):
        r = datagen.rng(seed)
        sentences = []
        gold = []
        for _ in range(30):
            tags = datagen.random_tags(r, r.randint(1, 6), types=("NP",))
            row_gold = []
            rows = []
            for tag in tags:
                good = tag
                slightly_off = tag if r.random() < 0.9 else r.choice(TAGS)
                noisy = r.choice(TAGS)
                rows.append(("NN", (good, slightly_off, noisy)))
                row_gold.append(tag)
            sentences.append(rows)
            gold.append(row_gold)
        return table_from_rows(["exact", "close", "noisy"], sentences, gold)

    def test_full_subset_is_every_system(self):
        table = self.table()
        assert best_n_select(table, 3) == ("exact", "close", "noisy")

    def test_noisy_system_is_left_out(self):
        assert best_n_select(self.table(), 2) == ("exact", "close")
        assert best_n_select(self.table(), 1) == ("exact",)

    def test_ties_keep_the_first_subset(self):
        clones = table_from_rows(
            ["a", "b", "c"],
            [[("NN", ("B-NP", "B-NP", "B-NP"))]],
            gold=[["B-NP"]],
        )
        assert best_n_select(clones, 1) == ("a",)
        assert best_n_select(clones, 2) == ("a", "b")

    def test_evaluate_subset_of_one_system_scores_that_system(self):
        table = self.table()
        report = evaluate_subset(table, ["exact"])
        gold_spans = [extract_chunks(tags) for tags in table.gold_column()]
        pred_spans = [extract_chunks(tags) for tags in column(table, "exact")]
        assert report.overall.correct == sum(
            len([s for s in p if s in g]) for g, p in zip(gold_spans, pred_spans)
        )
        assert report.f_rate == pytest.approx(1.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_subset_scores_match_the_oracle_on_tag_soup(self, seed):
        r = datagen.rng(44_000 + seed)
        systems = ("a", "b", "c", "d")
        sentences, gold = [], []
        for _ in range(12):
            length = r.randint(1, 8)
            gold.append(datagen.random_raw_tags(r, length))
            votes = zip(*(datagen.random_raw_tags(r, length) for _ in systems))
            sentences.append([("NN", row) for row in votes])
        table = table_from_rows(systems, sentences, gold)
        gold_spans = [oracle_chunks(tags) for tags in gold]
        for n in range(1, len(systems) + 1):
            reports = {}
            for subset in itertools.combinations(range(len(systems)), n):
                voted = [[oracle_vote([(systems[i], row[i]) for i in subset], "majority") for _, row in rows]
                         for rows in sentences]
                overall, per_label = oracle_score(gold_spans, [oracle_chunks(tags) for tags in voted])
                report = reports[subset] = evaluate_subset(table, [systems[i] for i in subset])
                assert report.overall == Counts(**overall)
                assert {k: (v.found, v.gold, v.correct) for k, v in report.per_label.items()} == {
                    k: (v["found"], v["gold"], v["correct"]) for k, v in per_label.items()
                }
            best = max(reports, key=lambda subset: reports[subset].f_rate)
            assert best_n_select(table, n) == tuple(systems[i] for i in best)

    def test_errors(self):
        table = self.table()
        with pytest.raises(ConfigError):
            best_n_select(table, 0)
        with pytest.raises(ConfigError):
            best_n_select(table, 4)
        bare = table_from_rows(["a"], [[("NN", ("O",))]])
        with pytest.raises(ValidationError):
            best_n_select(bare, 1)


def bracket_table(outputs, lengths):
    """A table of each system's spans, as IOB2 tags, over sentences of ``lengths``."""
    names = list(outputs)
    return table_from_rows(names, [
        list(zip(["NN"] * length, zip(*(tags_from_chunks(length, outputs[n][si], TagScheme.IOB2)
                                          for n in names))))
        for si, length in enumerate(lengths)
    ])


class TestBracketCombination:
    def test_unanimous_flat_spans_are_a_fixed_point(self):
        chunked = spans((0, 2, "NP"), (2, 4, "NP"), (5, 6, "VP"))
        got = combine_bracket_sentence([chunked, chunked, chunked], 7)
        assert got == chunked

    def test_majority_on_each_bracket_stream(self):
        per_system = [
            spans((0, 2, "NP")),
            spans((0, 2, "NP")),
            spans((0, 3, "NP")),
        ]
        got = combine_bracket_sentence(per_system, 4)
        assert got == spans((0, 2, "NP"))

    def test_start_without_a_matching_end_is_dropped(self):
        per_system = [
            spans((0, 2, "NP")),
            spans((0, 1, "NP")),
            [],
        ]
        got = combine_bracket_sentence(per_system, 3)
        assert got == []

    def test_end_search_stops_at_the_next_same_type_start(self):
        # both systems agree on starts at 0 and 2 but disagree on the
        # first chunk's end, so the end at 3 must not leak backwards
        per_system = [
            spans((0, 2, "NP"), (2, 4, "NP")),
            spans((0, 1, "NP"), (2, 4, "NP")),
            spans((0, 2, "NP"), (2, 4, "NP")),
        ]
        got = combine_bracket_sentence(per_system, 5)
        assert got == spans((0, 2, "NP"), (2, 4, "NP"))

    def test_nested_input_is_flattened_by_the_overlap_sweep(self):
        nested = spans((0, 4, "NP"), (1, 3, "VP"))
        got = combine_bracket_sentence([nested], 5)
        assert got == spans((0, 4, "NP"))

    def test_combine_brackets_over_a_corpus(self):
        # sentence 2 splits one against one; the tie rule prefers the
        # label name over the no-bracket marker, so the span survives
        outputs = {
            "a": [spans((0, 2, "NP")), []],
            "b": [spans((0, 2, "NP")), spans((0, 1, "NP"))],
        }
        assert corpus_spans(combine_corpus(bracket_table(outputs, [3, 2]), bracket_level=True)) == [
            spans((0, 2, "NP")), spans((0, 1, "NP")),
        ]
        third = {**outputs, "c": [spans((0, 2, "NP")), []]}
        assert corpus_spans(combine_corpus(bracket_table(third, [3, 2]), bracket_level=True)) == [
            spans((0, 2, "NP")), [],
        ]

    def test_combine_brackets_errors(self):
        table = bracket_table({"a": [[]]}, [1])
        with pytest.raises(ValidationError, match="no estimates"):
            combine_corpus(table, bracket_level=True, weights=make_weights(systems=("b",)))
        words = Corpus((make_sentence([("a", "DT", None)]),) * 2, TagScheme.IOB2)
        with pytest.raises(AlignmentError):
            combine_corpus(table, bracket_level=True, words=words)

    def test_weights_do_not_break_ties(self):
        # tuning counts are of tags: O would win every tie with "no bracket"
        outputs = {"a": [spans((0, 2, "NP"))], "b": [[]]}
        table = bracket_table(outputs, [2])
        tuning = table_from_rows(["a", "b"], [[("DT", ("O", "O"))]], gold=[["O"]])
        weighted = combine_corpus(table, bracket_level=True, weights=estimate_weights(tuning))
        assert weighted.sentences[0].chunk_tags == ("B-NP", "I-NP")
        assert weighted == combine_corpus(table, bracket_level=True)

    def test_methods_other_than_majority_are_rejected(self):
        # Weights are keyed by whole tags such as B-VP, never by a bracket
        # value such as VP, so no weighted method has anything to weigh.
        outputs = {"a": [spans((0, 2, "VP"))], "b": [spans((0, 2, "VP"))], "c": [[]]}
        table = bracket_table(outputs, [2])
        tuning = table_from_rows(["a", "b", "c"], [[("VB", ("B-VP",) * 3), ("NN", ("O",) * 3)]],
                                 gold=[["B-VP", "O"]])
        weights = estimate_weights(tuning)
        voted = combine_corpus(table, "majority", weights, bracket_level=True)
        assert voted.sentences[0].chunk_tags == ("B-VP", "I-VP")
        for method in VOTING_METHODS[1:]:
            with pytest.raises(ConfigError, match=f"majority only, got '{method}'"):
                combine_corpus(table, method, weights, bracket_level=True)

    @pytest.mark.parametrize("seed", range(10))
    def test_majority_is_the_same_with_and_without_weights(self, seed):
        r = datagen.rng(20_500 + seed)
        names = ["a", "b", "c", "d"][:r.randint(2, 4)]
        gold, preds = datagen.random_table_data(r, 8, names, TAGS)
        table = table_from_rows(names, [
            [(pos, tuple(preds[n][si][ti] for n in names)) for ti, (pos, _) in enumerate(rows)]
            for si, rows in enumerate(gold)
        ])
        weights = random_weights(r, names, TAGS)
        assert combine_corpus(table, bracket_level=True, weights=weights) == combine_corpus(
            table, bracket_level=True
        )

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_the_oracle(self, seed):
        r = datagen.rng(20_800 + seed)
        for _ in range(50):
            length = r.randint(1, 12)
            per_system = []
            for _ in range(r.randint(1, 5)):
                system = datagen.random_spans(r, length, ("NP", "PP", "VP", "ADJP"))
                if r.random() < 0.3:  # nested and crossing spans
                    extra = datagen.random_spans(r, length)
                    system = sorted(system + extra, key=lambda s: s.begin)
                per_system.append(system)
            assert combine_bracket_sentence(per_system, length) == oracle_bracket_vote(
                per_system, length
            )

    @pytest.mark.parametrize("seed", range(10))
    def test_output_never_overlaps(self, seed):
        r = datagen.rng(20_000 + seed)
        for _ in range(20):
            length = r.randint(1, 12)
            names = ["a", "b", "c"]
            per_system = [datagen.random_spans(r, length) for _ in names]
            got = combine_bracket_sentence(per_system, length)
            for first, second in zip(got, got[1:]):
                assert first.end <= second.begin


class TestCombineCorpus:
    def test_single_system_passes_through(self):
        table = table_from_rows(
            ["only"],
            [[("DT", ("B-NP",)), ("NN", ("I-NP",)), ("VB", ("O",))]],
        )
        corpus = combine_corpus(table)
        sentence = corpus.sentences[0]
        assert corpus.scheme is TagScheme.IOB2
        assert sentence.chunk_tags == ("B-NP", "I-NP", "O")
        assert sentence.words == ("_", "_", "_")
        assert sentence.pos_tags == ("DT", "NN", "VB")

    def test_broken_tags_are_normalised_to_iob2(self):
        table = table_from_rows(["only"], [[("DT", ("I-NP",)), ("NN", ("I-NP",))]])
        corpus = combine_corpus(table)
        assert corpus.sentences[0].chunk_tags == ("B-NP", "I-NP")

    def test_majority_vote_per_token(self):
        table = table_from_rows(
            ["a", "b", "c"],
            [[("DT", ("B-NP", "B-NP", "O")), ("NN", ("O", "I-NP", "I-NP"))]],
        )
        corpus = combine_corpus(table)
        assert corpus.sentences[0].chunk_tags == ("B-NP", "I-NP")

    def test_words_corpus_is_spliced_in(self, tiny_corpus):
        table = table_from_rows(
            ["only"],
            [[("DT", ("B-NP",)), ("NN", ("I-NP",))] for _ in range(2)],
        )
        words = Corpus(
            (
                make_sentence([("the", "DT", None), ("dog", "NN", None)]),
                make_sentence([("a", "DT", None), ("cat", "NN", None)]),
            ),
            TagScheme.IOB2,
        )
        corpus = combine_corpus(table, words=words)
        assert corpus.sentences[0].words == ("the", "dog")
        assert corpus.sentences[1].words == ("a", "cat")

    def test_word_count_mismatches(self):
        table = table_from_rows(["only"], [[("DT", ("O",))]])
        too_many = Corpus(
            (make_sentence([("a", "DT", None)]), make_sentence([("b", "NN", None)])),
            TagScheme.IOB2,
        )
        with pytest.raises(AlignmentError, match="sentences"):
            combine_corpus(table, words=too_many)
        wrong_length = Corpus(
            (make_sentence([("a", "DT", None), ("b", "NN", None)]),),
            TagScheme.IOB2,
        )
        with pytest.raises(AlignmentError, match="word count"):
            combine_corpus(table, words=wrong_length)

    def test_bracket_level_agrees_on_unanimous_tables(self):
        rows = [
            ("DT", ("B-NP", "B-NP")), ("NN", ("I-NP", "I-NP")),
            ("VB", ("O", "O")), ("NN", ("B-NP", "B-NP")),
        ]
        table = table_from_rows(["a", "b"], [rows])
        token_level = combine_corpus(table)
        bracket_level = combine_corpus(table, bracket_level=True)
        assert token_level.sentences[0].chunk_tags == bracket_level.sentences[0].chunk_tags

    def test_weighted_methods_require_weights(self):
        table = table_from_rows(["a", "b"], [[("DT", ("B-NP", "O"))]])
        with pytest.raises(ConfigError, match="weights"):
            combine_corpus(table, method="tot-precision")

    @pytest.mark.parametrize("seed", range(10))
    def test_output_tags_are_always_valid_iob2(self, seed):
        r = datagen.rng(21_000 + seed)
        systems = ["a", "b", "c"]
        sentences = []
        for _ in range(10):
            length = r.randint(1, 8)
            sentences.append([
                ("NN", tuple(r.choice(("B-NP", "I-NP", "I-VP", "O")) for _ in systems))
                for _ in range(length)
            ])
        table = table_from_rows(systems, sentences)
        corpus = combine_corpus(table)
        for sentence in corpus.sentences:
            assert scheme_violation(sentence.chunk_tags, TagScheme.IOB2) is None

    @pytest.mark.parametrize("seed", range(5))
    def test_every_output_value_passes_the_token_checks(self, seed):
        r = datagen.rng(23_000 + seed)
        tags = ("B-NP", "I-NP", "B-VP", "I-VP", "I-PP", "O")
        tables = []
        for with_gold in (True, False):
            gold, preds = datagen.random_table_data(r, 10, "abc", tags, 0.4)
            sentences = [[(pos, tuple(preds[n][si][ti] for n in "abc")) for ti, (pos, _) in enumerate(rows)]
                         for si, rows in enumerate(gold)]
            golds = [[tag for _, tag in rows] for rows in gold] if with_gold else None
            tables.append(read_table(write_table(table_from_rows("abc", sentences, golds))))
        tuning, test = tables
        weights = estimate_weights(tuning)
        words = Corpus([datagen.random_sentence(r, len(rows)) for rows in test.sentences], TagScheme.IOB2)
        outputs = []
        for given in (None, words):
            outputs.append(combine_corpus(test, bracket_level=True, words=given))
            outputs += [combine_corpus(test, method, weights, words=given) for method in VOTING_METHODS]
            outputs += [stacked_corpus(stacked_train(tuning, learner, add_pos), test, words=given)
                        for learner in ("knn", "igtree") for add_pos in (False, True)]
        for corpus in outputs:
            assert_token_values(corpus)

    def test_stacked_corpus_applies_and_normalises(self):
        table = TestStacking().table()
        model = stacked_train(table, learner="igtree")
        corpus = stacked_corpus(model, table)
        assert len(corpus.sentences) == len(table.sentences)
        gold_corpus = Corpus(
            tuple(
                make_sentence([("_", row.pos, row.gold) for row in rows])
                for rows in table.sentences
            ),
            TagScheme.IOB2,
        )
        assert score_tagged(gold_corpus, corpus).f_rate == pytest.approx(1.0)


DISTINCT_SYSTEMS = ("a", "b", "c", "d", "e")


def repeating_table(r):
    """Forty sentences whose rows take one of four prediction tuples, so
    every tuple repeats many times, with the gold tag varying among them."""
    pool = [tuple(r.choice(TAGS) for _ in DISTINCT_SYSTEMS) for _ in range(4)]
    sentences, gold = [], []
    for _ in range(40):
        length = r.randint(1, 8)
        sentences.append([(r.choice(("NN", "DT")), r.choice(pool)) for _ in range(length)])
        gold.append([r.choice(TAGS) for _ in range(length)])
    return table_from_rows(DISTINCT_SYSTEMS, sentences, gold)


def distinct_table(r):
    """Sentences over 60 rows whose prediction tuples are all different."""
    rows = r.sample(list(itertools.product(TAGS, repeat=len(DISTINCT_SYSTEMS))), 60)
    sentences, gold = [], []
    while rows:
        length = min(r.randint(1, 8), len(rows))
        sentences.append([(r.choice(("NN", "DT")), rows.pop()) for _ in range(length)])
        gold.append([r.choice(TAGS) for _ in range(length)])
    return table_from_rows(DISTINCT_SYSTEMS, sentences, gold)


class TestDistinctRowDecisions:
    """Rows with equal predictions are decided once; every output equals
    per-row decisions, on tables whose rows repeat heavily and on tables
    whose rows are all distinct."""

    def tables(self, seed):
        r = datagen.rng(61_000 + seed)
        return r, (repeating_table(r), distinct_table(r))

    @pytest.mark.parametrize("seed", range(4))
    def test_combined_corpora_match_per_row_votes(self, seed):
        r, tables = self.tables(seed)
        for table in tables:
            weights = random_weights(r, DISTINCT_SYSTEMS, TAGS)
            for method in VOTING_METHODS:
                voted = [[oracle_vote(list(zip(table.systems, row.preds)), method, weights) for row in rows]
                         for rows in table.sentences]
                assert corpus_spans(combine_corpus(table, method, weights)) == [
                    oracle_chunks(tags) for tags in voted
                ]

    @pytest.mark.parametrize("seed", range(4))
    def test_subset_scores_match_per_row_votes(self, seed):
        _, tables = self.tables(seed)
        for table in tables:
            gold_spans = [oracle_chunks(tags) for tags in table.gold_column()]
            reports = {}
            for subset in itertools.combinations(range(len(DISTINCT_SYSTEMS)), 2):
                names = [DISTINCT_SYSTEMS[i] for i in subset]
                voted = [[oracle_vote([(names[k], row.preds[i]) for k, i in enumerate(subset)], "majority")
                          for row in rows] for rows in table.sentences]
                overall, _ = oracle_score(gold_spans, [oracle_chunks(tags) for tags in voted])
                report = reports[subset] = evaluate_subset(table, names)
                assert report.overall == Counts(**overall)
            best = max(reports, key=lambda subset: reports[subset].f_rate)
            assert best_n_select(table, 2) == tuple(DISTINCT_SYSTEMS[i] for i in best)

    @pytest.mark.parametrize("learner", ["knn", "igtree"])
    @pytest.mark.parametrize("add_pos", [False, True])
    def test_stacked_corpora_match_per_row_predictions(self, learner, add_pos):
        _, (repeating, distinct) = self.tables(0)
        model = stacked_train(repeating, learner=learner, add_pos=add_pos)

        class Counting:
            def __init__(self):
                self.slot_names, self.calls = model.slot_names, []

            def predict(self, vector):
                self.calls.append(vector)
                return model.predict(vector)

        for table in (repeating, distinct):
            vectors = [[row.preds + (row.pos,) if add_pos else row.preds for row in rows]
                       for rows in table.sentences]
            counting = Counting()
            assert corpus_spans(stacked_corpus(counting, table)) == [
                oracle_chunks([model.predict(vector) for vector in row_vectors]) for row_vectors in vectors
            ]
            assert counting.calls == list(dict.fromkeys(itertools.chain.from_iterable(vectors)))

    @pytest.mark.parametrize("seed", range(4))
    def test_weights_match_the_per_row_tally(self, seed):
        _, tables = self.tables(seed)
        for table in tables:
            weights = estimate_weights(table)
            assert weights == reference_estimate_weights(table)
            assert write_weights(weights) == write_weights(reference_estimate_weights(table))

    def test_errors_are_raised_as_per_row(self):
        _, (table, _) = self.tables(0)
        with pytest.raises(ConfigError, match="unknown voting method 'plurality'"):
            combine_corpus(table, method="plurality")
        with pytest.raises(ConfigError, match="voting method 'tag-pair' needs combiner weights"):
            combine_corpus(table, method="tag-pair")
        partial = random_weights(datagen.rng(0), DISTINCT_SYSTEMS[:3], TAGS)
        with pytest.raises(ValidationError, match="weights have no estimates for systems: d e"):
            combine_corpus(table, method="tot-precision", weights=partial)
        with pytest.raises(ValidationError, match="empty vote row"):
            evaluate_subset(table, [])
