import io

import pytest

from chunkvote import (
    ChunkvoteError,
    LearnerSpec,
    ParseError,
    WindowConfig,
    dumps_model,
    load_model,
    loads_model,
    save_model,
    strip_tags,
    tag_sentence,
    train_knn,
)

import datagen
from test_learners import dataset


def trained(kind, corpus):
    extra = {"maxent": {"iterations": 5}, "knn": {"k": 2}}.get(kind, {})
    return LearnerSpec("sys", kind, **extra).train(corpus)


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
        model = train_knn(dataset([(["a"], "X")]), k=1)
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
            ([r.choice("abcd") for _ in range(3)], r.choice("XY"))
            for _ in range(r.randint(1, 30))
        ]
        model = train_knn(dataset(rows), k=r.randint(1, 3))
        assert loads_model(dumps_model(model)) == model

    def test_loaded_knn_values_share_one_string(self, tiny_corpus):
        model = loads_model(dumps_model(trained("knn", tiny_corpus)))
        by_value = {}
        for vector, label in model.memory:
            for value in vector + (label,):
                assert by_value.setdefault(value, value) is value


class TestFileTargets:
    def test_path_roundtrip(self, tmp_path, tiny_corpus):
        model = trained("igtree", tiny_corpus)
        path = tmp_path / "model.txt"
        save_model(model, path)
        assert load_model(path) == model

    def test_file_object_roundtrip(self, tiny_corpus):
        model = trained("rules", tiny_corpus)
        buffer = io.StringIO()
        save_model(model, buffer)
        assert load_model(io.StringIO(buffer.getvalue())) == model


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

    @pytest.mark.parametrize("kind", ["knn", "igtree", "maxent", "rules"])
    def test_slots_must_match_the_window(self, tiny_corpus, kind):
        text = self.good(tiny_corpus, kind)
        slots = next(line for line in text.splitlines() if line.startswith("slots "))
        for changed in (slots.replace("w[-2]", "w[-9]"), slots + " p[+5]"):
            with pytest.raises(ParseError, match="slots line"):
                loads_model(self.replace_line(text, "slots ", changed))


def mutate(r, text):
    """One random edit of a model file.  Half the edits replace one field
    by a value that readers often mishandle; the rest delete, double or
    swap a line, or delete a field or copy one from elsewhere."""
    lines = [line.split() for line in text.splitlines()]
    at = r.randrange(len(lines))
    line = lines[at]
    edit = r.randrange(10)
    if edit == 0:
        del lines[at]
    elif edit == 1:
        lines.insert(at, list(line))
    elif edit == 2:
        other = r.randrange(len(lines))
        lines[at], lines[other] = lines[other], line
    elif line and edit == 3:
        del line[r.randrange(len(line))]
    elif line and edit == 4:
        donor = r.choice([fields for fields in lines if fields])
        line[r.randrange(len(line))] = r.choice(donor)
    elif line:
        line[r.randrange(len(line))] = r.choice([
            "nan", "inf", "-inf", "1e308", "-1", "0", "1", "10", "21", "50", "x",
            "__PAD__", "B-NP", "left_words=-1", "left_words=9", "complex_pairs=1",
        ])
    return "\n".join(" ".join(fields) for fields in lines) + "\n"


class TestMutatedModels:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_only_chunkvote_errors_escape(self, kind, tiny_corpus):
        r = datagen.rng(31_000 + ALL_KINDS.index(kind))
        text = dumps_model(trained(kind, tiny_corpus))
        sentences = [strip_tags(s) for s in tiny_corpus.sentences]
        loaded = 0
        for _ in range(1000):
            mutated = mutate(r, text)
            for _ in range(r.randrange(2)):
                mutated = mutate(r, mutated)
            try:
                model = loads_model(mutated)
                loaded += 1
                for sentence in sentences:
                    tag_sentence(model, sentence)
            except ChunkvoteError:
                pass
        assert loaded > 0
