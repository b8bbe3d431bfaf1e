import io

import pytest

from chunkvote import (
    LearnerSpec,
    ParseError,
    WindowConfig,
    dumps_model,
    load_model,
    loads_model,
    save_model,
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
