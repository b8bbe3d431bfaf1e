import re

import pytest

import chunkvote.corpus
from chunkvote import (
    ChunkvoteError,
    Corpus,
    Dataset,
    LearnerSpec,
    ParseError,
    TagScheme,
    ValidationError,
    WindowConfig,
    dumps_model,
    loads_model,
    strip_tags,
    tag_sentence,
    train_baseline,
    train_knn,
)

from chunkvote.cli import main
from chunkvote.learners import BASELINE_WINDOW

import datagen
from conftest import TINY_TRAIN, make_sentence, make_untagged
from test_learners import dataset


def spec(kind):
    extra = {"maxent": {"iterations": 5}, "knn": {"k": 2}}.get(kind, {})
    return LearnerSpec("sys", kind, **extra)


def trained(kind, corpus):
    return spec(kind).train(corpus)


ALL_KINDS = ["baseline", "knn", "igtree", "maxent", "rules"]


class TestRoundTrip:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_loads_what_it_dumps(self, kind, tiny_corpus):
        model = trained(kind, tiny_corpus)
        text = dumps_model(model)
        assert loads_model(text) == model

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_dump_is_deterministic(self, kind, tiny_corpus):
        model = trained(kind, tiny_corpus)
        assert dumps_model(model) == dumps_model(trained(kind, tiny_corpus))

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_loads_the_same_in_small_line_pieces(self, kind, tiny_corpus, monkeypatch):
        model = trained(kind, tiny_corpus)
        text = dumps_model(model)
        monkeypatch.setattr(chunkvote.corpus, "LINE_PIECE", 7)
        assert loads_model(text) == model
        assert loads_model(text.replace("\n", "\r\n")) == model

    def test_second_roundtrip_is_byte_exact(self, tiny_corpus):
        for kind in ALL_KINDS:
            text = dumps_model(trained(kind, tiny_corpus))
            assert dumps_model(loads_model(text)) == text

    def test_the_maxent_trace_is_not_serialized(self, tiny_corpus):
        model = trained("maxent", tiny_corpus)
        assert model.trace is not None
        loaded = loads_model(dumps_model(model))
        assert loaded.trace is None
        assert loaded == model

    def test_io_encoded_baseline_roundtrip(self, tiny_corpus):
        model = LearnerSpec("sys", "baseline", io_encoding=True).train(tiny_corpus)
        assert loads_model(dumps_model(model)) == model

    def test_missing_window_roundtrips_to_none(self):
        model = train_knn(dataset([(["a"], "B-NP")]), k=1)
        assert model.window is None
        assert "window -" in dumps_model(model)
        assert loads_model(dumps_model(model)).window is None

    def test_custom_window_survives(self, tiny_corpus):
        window = WindowConfig(left_words=1, right_words=0, complex_pairs=True)
        model = LearnerSpec("sys", "igtree", window=window).train(tiny_corpus)
        assert loads_model(dumps_model(model)).window == window

    @pytest.mark.parametrize("seed", range(5))
    def test_random_knn_models_roundtrip(self, seed):
        r = datagen.rng(15_000 + seed)
        rows = [
            ([r.choice("abcd") for _ in range(3)], r.choice(("B-NP", "O")))
            for _ in range(r.randint(1, 30))
        ]
        model = train_knn(dataset(rows), k=r.randint(1, 3))
        assert loads_model(dumps_model(model)) == model

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_grammar_corpus_models_roundtrip_byte_exact(self, kind):
        text = dumps_model(trained(kind, datagen.grammar_corpus(datagen.rng(16_000), 40)))
        assert dumps_model(loads_model(text)) == text

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_a_class_that_is_not_a_chunk_tag_is_not_written(self, kind, tiny_corpus):
        # loads_model would reject the file's class line.
        featurized = spec(kind).featurize(tiny_corpus)
        relabelled = Dataset(
            [(vector, "X" if label == "B-NP" else label) for vector, label in featurized.items],
            featurized.slot_names,
        )
        with pytest.raises(ValidationError, match="bad chunk tag 'X'"):
            dumps_model(spec(kind).fit(relabelled))

    def test_loaded_knn_values_share_one_string(self, tiny_corpus):
        model = loads_model(dumps_model(trained("knn", tiny_corpus)))
        by_value = {}
        for vector, label in model.memory:
            for value in vector + (label,):
                assert by_value.setdefault(value, value) is value


class TestFileTargets:
    """``train`` writes the model file that ``tag`` reads."""

    def test_path_roundtrip(self, tmp_path, tiny_corpus):
        train, path = tmp_path / "train.conll", tmp_path / "model.txt"
        train.write_text(TINY_TRAIN, encoding="utf-8")
        assert main(["train", str(train), "--learner", "igtree", "-o", str(path)]) == 0
        assert loads_model(path.read_text(encoding="utf-8")) == trained("igtree", tiny_corpus)

    def test_file_object_roundtrip(self, tmp_path, tiny_corpus, capsys):
        train = tmp_path / "train.conll"
        train.write_text(TINY_TRAIN, encoding="utf-8")
        assert main(["train", str(train), "--learner", "rules"]) == 0
        assert loads_model(capsys.readouterr().out) == trained("rules", tiny_corpus)


class TestMalformedInput:
    def good(self, tiny_corpus, kind="knn"):
        return dumps_model(trained(kind, tiny_corpus))

    def test_wrong_header(self):
        with pytest.raises(ParseError, match="not a"):
            loads_model("something-else 1\n")

    def test_unsupported_version(self, tiny_corpus):
        text = self.good(tiny_corpus).replace("chunker-model 1", "chunker-model 99", 1)
        with pytest.raises(ParseError, match="version"):
            loads_model(text)

    def test_unknown_kind(self, tiny_corpus):
        text = self.good(tiny_corpus).replace("kind knn", "kind forest", 1)
        with pytest.raises(ParseError, match="unknown model kind"):
            loads_model(text)

    def test_truncated_file(self, tiny_corpus):
        text = self.good(tiny_corpus)
        head = "\n".join(text.splitlines()[:2])
        with pytest.raises(ParseError, match="unexpected end"):
            loads_model(head)

    def test_bad_number(self, tiny_corpus):
        text = self.good(tiny_corpus).replace("k 2", "k two", 1)
        with pytest.raises(ParseError, match="bad number"):
            loads_model(text)

    def test_bad_window_field(self, tiny_corpus):
        text = self.good(tiny_corpus)
        text = text.replace("left_words=2", "side_words=2", 1)
        with pytest.raises(ParseError, match="bad window field"):
            loads_model(text)

    def test_a_repeated_window_field_is_rejected(self, tiny_corpus):
        # the same value twice, so the slot names would not tell
        text = self.good(tiny_corpus).replace("left_words=2 ", "left_words=2 left_words=2 ", 1)
        with pytest.raises(ParseError, match="^repeated window field 'left_words'$"):
            loads_model(text)

    @pytest.mark.parametrize("raw", ["5", "2", "-1", "01", "+1", "true"])
    def test_a_window_flag_must_be_0_or_1(self, tiny_corpus, raw):
        text = self.good(tiny_corpus).replace("use_focus_word=1", f"use_focus_word={raw}", 1)
        with pytest.raises(ParseError, match=f"^bad window field 'use_focus_word={re.escape(raw)}'$"):
            loads_model(text)

    def test_missing_window_field(self, tiny_corpus):
        text = self.good(tiny_corpus)
        text = text.replace("left_words=2 ", "", 1)
        with pytest.raises(ParseError, match="misses fields"):
            loads_model(text)

    def test_item_arity_mismatch(self, tiny_corpus):
        lines = self.good(tiny_corpus).splitlines()
        lines = [line + " extra" if line.startswith("item ") else line for line in lines]
        with pytest.raises(ParseError, match="bad item line"):
            loads_model("\n".join(lines) + "\n")

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "-0.5"])
    def test_knn_weights_must_be_finite_and_non_negative(self, tiny_corpus, bad):
        # replace the first slot's weight
        lines = [f"weights {bad} " + line.split(None, 2)[2] if line.startswith("weights ")
                 else line for line in self.good(tiny_corpus).splitlines()]
        with pytest.raises(ParseError, match="finite and non-negative"):
            loads_model("\n".join(lines) + "\n")

    def test_knn_k_must_be_positive(self, tiny_corpus):
        text = self.good(tiny_corpus).replace("k 2", "k 0", 1)
        with pytest.raises(ParseError, match="k must be >= 1"):
            loads_model(text)

    def test_rule_premise_count_mismatch(self, tiny_corpus):
        text = self.good(tiny_corpus, "rules")
        lines = text.splitlines()
        lines = [line + " 9 oops" if line.startswith("rule ") else line for line in lines]
        with pytest.raises(ParseError, match="premise count"):
            loads_model("\n".join(lines) + "\n")

    def test_empty_input(self):
        with pytest.raises(ParseError, match="unexpected end"):
            loads_model("")

    def replace_line(self, text, prefix, line):
        lines = text.splitlines()
        at = next(i for i, old in enumerate(lines) if old.startswith(prefix))
        return "\n".join(lines[:at] + [line] + lines[at + 1:]) + "\n"

    @pytest.mark.parametrize("order", [
        "order 50 5 2 9 1 7 3 4 0 8", "order 6 5 2", "order 6 6 2 9 1 7 3 4 0 8", "order",
    ])
    def test_igtree_order_must_permute_the_slots(self, tiny_corpus, order):
        text = self.replace_line(self.good(tiny_corpus, "igtree"), "order ", order)
        with pytest.raises(ParseError, match="order line"):
            loads_model(text)

    @pytest.mark.parametrize("slot", ["10", "-1"])
    def test_rule_premise_slot_must_be_a_slot(self, tiny_corpus, slot):
        text = self.good(tiny_corpus, "rules")
        text = self.replace_line(text, "rule ", f"rule O 1.0 6 1 {slot} NN")
        with pytest.raises(ParseError, match="outside the 10 slots"):
            loads_model(text)

    def test_maxent_feature_slot_must_be_a_slot(self, tiny_corpus):
        text = self.replace_line(self.good(tiny_corpus, "maxent"), "feature ",
                                 "feature 21 __PAD__ B-NP 0.5")
        with pytest.raises(ParseError, match="outside the 21 slots"):
            loads_model(text)

    # The tiny corpus trains on B-NP B-PP B-VP I-NP O.
    @pytest.mark.parametrize("classes", ["B-ADJP B-VP I-ADJP I-VP O", "B-VP I-VP O",
                                         "O I-NP B-VP B-PP B-NP",
                                         "B-NP B-PP B-VP I-NP", "B-NP B-PP B-VP I-NP I-VP O"])
    def test_maxent_classes_must_be_the_sorted_class_tags(self, tiny_corpus, classes):
        text = self.good(tiny_corpus, "maxent")
        assert "classes B-NP B-PP B-VP I-NP O\n" in text
        with pytest.raises(ParseError, match="classes line"):
            loads_model(self.replace_line(text, "classes ", "classes " + classes))

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("kind, prefix, line", [
        ("maxent", "correction ", "correction {}"),
        ("maxent", "feature ", "feature 0 __PAD__ B-NP {}"),
        ("rules", "rule ", "rule O {} 6 1 6 ."),
    ])
    def test_numbers_must_be_finite(self, tiny_corpus, kind, prefix, line, bad):
        text = self.replace_line(self.good(tiny_corpus, kind), prefix, line.format(bad))
        with pytest.raises(ParseError, match="finite"):
            loads_model(text)

    @pytest.mark.parametrize("window", ["window left_words=2", "window x", "igtree"])
    def test_a_baseline_window_line_must_be_a_dash(self, tiny_corpus, tmp_path, capsys, window):
        if window == "igtree":
            igtree = self.good(tiny_corpus, "igtree").splitlines()
            window = next(line for line in igtree if line.startswith("window "))
        self.rejected(tmp_path, capsys, self.replace_line(self.good(tiny_corpus, "baseline"),
                                                          "window ", window), "must be 'window -'")

    # The maxent window has 21 slots, each giving at most one active feature.
    @pytest.mark.parametrize("constant", ["-7", "0", "22"])
    def test_maxent_constant_must_count_at_most_the_slots(self, tiny_corpus, tmp_path, capsys,
                                                           constant):
        text = self.replace_line(self.good(tiny_corpus, "maxent"), "constant ", f"constant {constant}")
        self.rejected(tmp_path, capsys, text, r"constant must be in \[1, 21\]")

    @pytest.mark.parametrize("accuracy, support", [("7.5", "6"), ("-0.5", "6"), ("1.0", "0"),
                                                   ("0.5", "-3")])
    def test_rule_accuracy_and_support_must_be_possible(self, tiny_corpus, tmp_path, capsys,
                                                        accuracy, support):
        text = self.replace_line(self.good(tiny_corpus, "rules"), "rule ",
                                 f"rule B-NP {accuracy} {support} 1 6 DT")
        self.rejected(tmp_path, capsys, text, "accuracy must be in")

    # The tiny corpus trains on B-NP B-PP B-VP I-NP O; I-ZZ is none of them.
    @pytest.mark.parametrize("kind, old, new", [
        ("maxent", "feature 0 __PAD__ B-NP ", "feature 0 __PAD__ I-ZZ "),
        ("igtree", "node B-NP 6", "node I-ZZ 6"),
        ("igtree", "node B-VP 0", "node I-ZZ 0"),
        ("baseline", "fallback B-NP", "fallback I-ZZ"),
        ("baseline", "pos VBD B-VP", "pos VBD I-ZZ"),
        ("rules", "default B-NP", "default I-ZZ"),
        ("rules", "rule B-VP ", "rule I-ZZ "),
        ("knn", "item B-VP ", "item I-ZZ "),
    ])
    def test_every_tag_must_have_a_class_line(self, tiny_corpus, tmp_path, capsys, kind, old, new):
        text = self.good(tiny_corpus, kind)
        assert old in text
        self.rejected(tmp_path, capsys, text.replace(old, new, 1), "no class line declares")

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("tag", ["B-O", "I-O", "X", "B-X_Y"])
    def test_class_lines_hold_chunk_tags(self, tiny_corpus, tmp_path, capsys, kind, tag):
        text = self.good(tiny_corpus, kind).replace("class O 6", f"class {tag} 6", 1)
        self.rejected(tmp_path, capsys, text, f"bad chunk tag '{tag}'.*, in line 'class {tag} 6'")

    def rejected(self, tmp_path, capsys, text, match):
        """``text`` fails to load, and ``tag`` exits 2 on it."""
        with pytest.raises(ParseError, match=match):
            loads_model(text)
        model, test = tmp_path / "model.txt", tmp_path / "test.conll"
        model.write_text(text, encoding="utf-8")
        test.write_text("the DT\n", encoding="utf-8")
        assert main(["tag", str(model), str(test)]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("kind", ["knn", "igtree", "maxent", "rules"])
    def test_slots_must_match_the_window(self, tiny_corpus, kind):
        text = self.good(tiny_corpus, kind)
        slots = next(line for line in text.splitlines() if line.startswith("slots "))
        for changed in (slots.replace("w[-2]", "w[-9]"), slots + " p[+5]"):
            with pytest.raises(ParseError, match="slots line"):
                loads_model(self.replace_line(text, "slots ", changed))


# The lines of fixed shape in each kind's file, by keyword.
FIXED_LINES = {
    "baseline": ["chunker-model", "kind", "class", "window", "fallback", "pos"],
    "knn": ["chunker-model", "kind", "class", "window", "slots", "k", "weights", "item"],
    "igtree": ["chunker-model", "kind", "class", "window", "slots", "order", "node", "edge"],
    "maxent": ["chunker-model", "kind", "class", "window", "slots", "classes", "constant",
               "correction", "feature"],
    "rules": ["chunker-model", "kind", "class", "window", "slots", "default", "rule"],
}


class TestLineShapes:
    @pytest.mark.parametrize("change", ["keyword", "extra field"])
    @pytest.mark.parametrize("kind, keyword", [
        (kind, keyword) for kind, keywords in FIXED_LINES.items() for keyword in keywords
    ])
    def test_each_fixed_line_is_checked(self, tiny_corpus, kind, keyword, change):
        lines = dumps_model(trained(kind, tiny_corpus)).splitlines()
        at = next(i for i, line in enumerate(lines) if line.split()[0] == keyword)
        if change == "keyword":
            lines[at] = "bogus " + lines[at].split(None, 1)[1]
        else:
            lines[at] += " x"
        with pytest.raises(ParseError):
            loads_model("\n".join(lines) + "\n")

    def test_a_negative_class_count_is_rejected(self, tiny_corpus):
        text = dumps_model(trained("knn", tiny_corpus)).replace("class B-NP 9", "class B-NP -1", 1)
        with pytest.raises(ParseError, match="bad class line"):
            loads_model(text)


# Per keyword whose lines are keys, a value that a repeated line may carry.
KEY_VALUES = {"class": "7", "pos": "B-NP", "feature": "0.5"}


class TestRepeatedKeys:
    @pytest.mark.parametrize("kind, keyword", [(kind, "class") for kind in ALL_KINDS]
                             + [("baseline", "pos"), ("maxent", "feature")])
    def test_a_repeated_key_is_rejected(self, tiny_corpus, kind, keyword):
        lines = dumps_model(trained(kind, tiny_corpus)).splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith(keyword + " "))
        lines.insert(at + 1, lines[at].rsplit(" ", 1)[0] + " " + KEY_VALUES[keyword])
        with pytest.raises(ParseError, match=f"repeated {keyword} line"):
            loads_model("\n".join(lines) + "\n")

    def test_feature_slots_are_compared_as_numbers(self, tiny_corpus):
        lines = dumps_model(trained("maxent", tiny_corpus)).splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith("feature "))
        fields = lines[at].split()
        fields[1] = "0" + fields[1]
        lines.insert(at + 1, " ".join(fields))
        with pytest.raises(ParseError, match="repeated feature line"):
            loads_model("\n".join(lines) + "\n")


def igtree_file(tiny_corpus, *tree_lines):
    """The tiny corpus igtree file (10 slots) with its tree replaced."""
    lines = dumps_model(trained("igtree", tiny_corpus)).splitlines()
    head = lines[:next(i for i, line in enumerate(lines) if line.startswith("node "))]
    return "\n".join(head + list(tree_lines)) + "\n"


def chain(depth):
    """Tree lines of a chain with ``depth`` inner nodes, each with one child."""
    return ["node O 1", "edge x"] * depth + ["node B-NP 0"]


def deep_chain_file(slots):
    """An igtree file without a window whose tree is a chain through all ``slots``."""
    return "\n".join([
        "chunker-model 1", "kind igtree", "class B-NP 1", "class O 1", "window -",
        "slots " + " ".join(f"s{i}" for i in range(slots)),
        "order " + " ".join(str(i) for i in range(slots)),
        *chain(slots),
    ]) + "\n"


class TestIGTreeFile:
    def test_a_chain_as_deep_as_the_order_line_loads(self, tiny_corpus):
        model = loads_model(igtree_file(tiny_corpus, *chain(10)))
        assert model.predict(("x",) * 10) == "B-NP"
        assert model.predict(("y",) * 10) == "O"

    @pytest.mark.parametrize("depth", [11, 3000])
    def test_a_chain_deeper_than_the_order_line_is_rejected(self, tiny_corpus, depth):
        with pytest.raises(ParseError, match="at depth 10 has 1 children"):
            loads_model(igtree_file(tiny_corpus, *chain(depth)))

    def test_a_deep_tree_loads_without_recursion(self):
        slots = 3000
        model = loads_model(deep_chain_file(slots))
        assert model.predict(("x",) * slots) == "B-NP"
        assert model.predict(("x",) * (slots - 1) + ("y",)) == "O"

    def test_a_deep_tree_dumps_without_recursion(self):
        text = deep_chain_file(3000)
        assert dumps_model(loads_model(text)) == text

    def test_a_repeated_edge_is_rejected(self, tiny_corpus):
        tree = ["node O 2", "edge x", "node B-NP 0", "edge x", "node I-NP 0"]
        with pytest.raises(ParseError, match="repeated edge line 'edge x'"):
            loads_model(igtree_file(tiny_corpus, *tree))

    @pytest.mark.parametrize("which", [0, -1], ids=["root", "last leaf"])
    def test_a_negative_child_count_is_rejected(self, tiny_corpus, which):
        lines = dumps_model(trained("igtree", tiny_corpus)).splitlines()
        at = [i for i, line in enumerate(lines) if line.startswith("node ")][which]
        lines[at] = lines[at].rsplit(" ", 1)[0] + " -1"
        with pytest.raises(ParseError, match="-1 children"):
            loads_model("\n".join(lines) + "\n")

    @pytest.mark.parametrize("extra", ["node O 0", "edge x", "item O a"])
    def test_lines_after_the_tree_are_rejected(self, tiny_corpus, extra):
        text = dumps_model(trained("igtree", tiny_corpus)) + extra + "\n"
        with pytest.raises(ParseError, match="after its tree"):
            loads_model(text)


# The baseline files that the tiny corpus trains, plain and with
# io_encoding: the `kind baseline` format, kept byte for byte.
TINY_BASELINE = """\
chunker-model 1
kind baseline
class B-NP 9
class B-PP 3
class B-VP 6
class I-NP 8
class O 6
window -
fallback B-NP
pos . O
pos DT B-NP
pos IN B-PP
pos JJ I-NP
pos NN I-NP
pos VBD B-VP
"""
TINY_BASELINE_IO = """\
chunker-model 1
kind baseline
class I-NP 17
class I-PP 3
class I-VP 6
class O 6
window -
fallback I-NP
pos . O
pos DT I-NP
pos IN I-PP
pos JJ I-NP
pos NN I-NP
pos VBD I-VP
"""


class TestBaselineFile:
    @pytest.mark.parametrize("io_encoding, text, tags", [
        (False, TINY_BASELINE, ["B-NP", "I-NP", "B-VP", "B-NP", "O"]),
        (True, TINY_BASELINE_IO, ["I-NP", "I-NP", "I-VP", "I-NP", "O"]),
    ], ids=["plain", "io"])
    def test_the_file_format_is_kept(self, tiny_corpus, io_encoding, text, tags):
        model = train_baseline(tiny_corpus, io_encoding=io_encoding)
        assert dumps_model(model) == text
        loaded = loads_model(text)
        assert loaded == model
        assert dumps_model(loaded) == text
        # UH is unseen and gets the fallback
        sentence = make_untagged([("a", "DT"), ("cat", "NN"), ("sat", "VBD"),
                                  ("hey", "UH"), (".", ".")])
        assert tag_sentence(loaded, sentence) == tag_sentence(model, sentence) == tags
        for s in tiny_corpus.sentences:
            assert tag_sentence(loaded, strip_tags(s)) == tag_sentence(model, strip_tags(s))

    def test_an_igtree_over_the_baseline_window_is_a_baseline_file(self, tiny_corpus):
        model = LearnerSpec("sys", "igtree", window=BASELINE_WINDOW).train(tiny_corpus)
        assert dumps_model(model) == TINY_BASELINE
        assert loads_model(TINY_BASELINE) == model

    def test_a_single_chunk_tag_gives_a_file_without_pos_lines(self):
        corpus = Corpus((make_sentence([("the", "DT", "O"), ("dog", "NN", "O")]),),
                        TagScheme.IOB2)
        head = "chunker-model 1\nkind baseline\nclass O 2\nwindow -\nfallback O\n"
        assert dumps_model(train_baseline(corpus)) == head
        # A file with one pos line per pos tag, as earlier versions wrote
        # for such a corpus, tags the same.
        older = loads_model(head + "pos DT O\npos NN O\n")
        sentence = make_untagged([("the", "DT"), ("cat", "NN"), ("sat", "VBD")])
        assert tag_sentence(older, sentence) == tag_sentence(loads_model(head), sentence)
        assert tag_sentence(older, sentence) == ["O", "O", "O"]


# field values that model readers often mishandle
MODEL_VALUES = (
    "nan", "inf", "-inf", "1e308", "-1", "0", "1", "10", "21", "50", "x",
    "__PAD__", "B-NP", "left_words=-1", "left_words=9", "complex_pairs=1",
)


class TestMutatedModels:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_only_chunkvote_errors_escape(self, kind, tiny_corpus):
        r = datagen.rng(31_000 + ALL_KINDS.index(kind))
        text = dumps_model(trained(kind, tiny_corpus))
        sentences = [strip_tags(s) for s in tiny_corpus.sentences]
        loaded = 0
        for _ in range(1000):
            mutated = datagen.mutate(r, text, MODEL_VALUES)
            for _ in range(r.randrange(2)):
                mutated = datagen.mutate(r, mutated, MODEL_VALUES)
            try:
                model = loads_model(mutated)
                loaded += 1
                for sentence in sentences:
                    tag_sentence(model, sentence)
            except ChunkvoteError:
                pass
        assert loaded > 0
