import pytest

from chunkvote import (
    PAD,
    ConfigError,
    Corpus,
    Dataset,
    TagScheme,
    TrainingError,
    ValidationError,
    WindowConfig,
    corpus_to_dataset,
    make_features,
)
from chunkvote.features import slot_gains
from chunkvote.learners import MAXENT_WINDOW, WEIGHTINGS, tag_sentence, train_knn

import datagen
from conftest import make_sentence
from oracles import (
    oracle_entropy,
    oracle_features,
    oracle_gain_ratio,
    oracle_information_gain,
    reference_gain_ratio,
    reference_information_gain,
)


def dataset(rows):
    items = tuple((tuple(vector), label) for vector, label in rows)
    names = tuple(f"s{i}" for i in range(len(items[0][0]))) if items else ()
    return Dataset(items, names)


def random_dataset(r, size, arity, values=("a", "b", "c"), labels=("X", "Y")):
    rows = [
        ([r.choice(values) for _ in range(arity)], r.choice(labels))
        for _ in range(size)
    ]
    return dataset(rows)


WINDOW_GRID = {
    "default": WindowConfig(),
    "maxent": MAXENT_WINDOW,
    "pairs-without-focus-pos": WindowConfig(use_focus_pos=False, complex_pairs=True),
    "pairs-without-left-tags": WindowConfig(left_chunk_tags=0, complex_pairs=True),
    "no-left-tags": WindowConfig(left_chunk_tags=0),
    "no-focus-word": WindowConfig(use_focus_word=False, right_words=2),
    "tags-only": WindowConfig(
        left_words=0, right_words=0, use_focus_word=False,
        left_pos=0, right_pos=0, use_focus_pos=False, left_chunk_tags=3,
    ),
    "wide-pos-pairs": WindowConfig(
        left_words=0, right_words=0, left_pos=4, right_pos=3, left_chunk_tags=1,
        complex_pairs=True,
    ),
}


class TestWindowConfig:
    def test_default_slot_names(self):
        assert WindowConfig().slot_names() == (
            "w[-2]", "w[-1]", "w[+0]", "w[+1]",
            "p[-2]", "p[-1]", "p[+0]", "p[+1]",
            "t[-2]", "t[-1]",
        )

    def test_wide_window_slot_names(self):
        assert MAXENT_WINDOW.slot_names() == (
            "w[-3]", "w[-2]", "w[-1]", "w[+0]", "w[+1]", "w[+2]",
            "p[-3]", "p[-2]", "p[-1]", "p[+0]", "p[+1]", "p[+2]",
            "t[-3]", "t[-2]", "t[-1]",
            "p[-3]&p[-2]", "p[-2]&p[-1]", "p[-1]&p[+0]",
            "p[+0]&p[+1]", "p[+1]&p[+2]",
            "t[-1]&p[+0]",
        )

    def test_focus_slots_can_be_disabled(self):
        config = WindowConfig(use_focus_word=False, use_focus_pos=False)
        names = config.slot_names()
        assert "w[+0]" not in names
        assert "p[+0]" not in names

    def test_pairs_join_only_adjacent_pos_slots(self):
        config = WindowConfig(
            left_words=0, right_words=0, use_focus_word=False,
            use_focus_pos=False, left_chunk_tags=1, complex_pairs=True,
        )
        assert config.slot_names() == (
            "p[-2]", "p[-1]", "p[+1]", "t[-1]", "p[-2]&p[-1]",
        )

    def test_rejects_negative_and_empty_windows(self):
        with pytest.raises(ConfigError):
            WindowConfig(left_words=-1)
        with pytest.raises(ConfigError):
            WindowConfig(
                left_words=0, right_words=0, left_pos=0, right_pos=0,
                left_chunk_tags=0, use_focus_word=False, use_focus_pos=False,
            )

    def test_pad_value(self):
        from chunkvote.features import PAD as features_pad

        assert PAD == features_pad == "__PAD__"


class TestMakeFeatures:
    SENT = make_sentence([
        ("the", "DT", "B-NP"), ("dog", "NN", "I-NP"), ("sat", "VBD", "B-VP"),
    ])

    def test_left_edge_is_padded(self):
        got = make_features(self.SENT, 0, WindowConfig(), ())
        assert got == (PAD, PAD, "the", "dog", PAD, PAD, "DT", "NN", PAD, PAD)

    def test_middle_uses_left_tags(self):
        got = make_features(self.SENT, 1, WindowConfig(), ("B-NP",))
        assert got == (PAD, "the", "dog", "sat", PAD, "DT", "NN", "VBD", PAD, "B-NP")

    def test_right_edge_is_padded(self):
        got = make_features(self.SENT, 2, WindowConfig(), ("B-NP", "I-NP"))
        assert got == ("the", "dog", "sat", PAD, "DT", "NN", "VBD", PAD, "B-NP", "I-NP")

    @pytest.mark.parametrize("config", WINDOW_GRID.values(), ids=WINDOW_GRID.keys())
    def test_vector_matches_slot_names_in_length(self, config):
        sentence = make_sentence([
            ("the", "DT", "B-NP"), ("old", "JJ", "I-NP"), ("dog", "NN", "I-NP"),
            ("sat", "VBD", "B-VP"), ("down", "RP", "O"),
        ])
        names = config.slot_names()
        for i in range(len(sentence)):
            tags = sentence.chunk_tags[:i]
            got = make_features(sentence, i, config, tags)
            assert len(got) == len(names)
            assert got == oracle_features(sentence, i, names, tags)

    def test_pair_slots_join_their_parts(self):
        config = WindowConfig(
            left_words=0, right_words=0, use_focus_word=False,
            left_pos=1, right_pos=1, left_chunk_tags=1, complex_pairs=True,
        )
        assert config.slot_names() == (
            "p[-1]", "p[+0]", "p[+1]", "t[-1]",
            "p[-1]&p[+0]", "p[+0]&p[+1]", "t[-1]&p[+0]",
        )
        got = make_features(self.SENT, 1, config, ("B-NP",))
        assert got == ("DT", "NN", "VBD", "B-NP", "DT|NN", "NN|VBD", "B-NP|NN")

    def test_pairs_reject_values_holding_the_separator(self):
        # Unchecked, both sentences would give p[-1]&p[+0] = "A|B|C".
        config = WindowConfig(
            left_words=0, right_words=0, use_focus_word=False,
            left_pos=1, right_pos=0, left_chunk_tags=0, complex_pairs=True,
        )
        for pos in (("A|B", "C"), ("A", "B|C")):
            sentence = make_sentence([("x", pos[0], "O"), ("y", pos[1], "O")])
            with pytest.raises(ValidationError, match="contains '|'"):
                make_features(sentence, 1, config, ("O",))
            plain = WindowConfig(left_pos=1, right_pos=0)
            assert make_features(sentence, 1, plain, ("O",))[plain.slot_names().index("p[-1]")] == pos[0]

    def test_index_and_tag_count_validation(self):
        with pytest.raises(ValidationError):
            make_features(self.SENT, 3, WindowConfig(), ())
        with pytest.raises(ValidationError):
            make_features(self.SENT, -1, WindowConfig(), ())
        with pytest.raises(ValidationError):
            make_features(self.SENT, 1, WindowConfig(), ())
        with pytest.raises(ValidationError):
            make_features(self.SENT, 0, WindowConfig(), ("O",))


def random_window(r):
    """A seeded window of any shape the config accepts."""
    while True:
        try:
            return WindowConfig(
                *(r.randint(0, 4) for _ in range(5)),
                use_focus_word=r.random() < 0.7, use_focus_pos=r.random() < 0.7,
                complex_pairs=r.random() < 0.5,
            )
        except ConfigError:
            pass


class RecordingModel:
    """Stands in for a trained model: keeps every vector it is given and
    answers with seeded tags."""

    def __init__(self, window, r):
        self.window = window
        self.r = r
        self.vectors = []

    def predict(self, vector):
        self.vectors.append(vector)
        return self.r.choice(("O", "B-NP", "I-NP", "B-VP"))


def raised(call):
    """The message of the ValidationError ``call`` raises, else None."""
    try:
        call()
    except ValidationError as exc:
        return str(exc)
    return None


class TestOneDefinitionOfAVector:
    """Training items, the vectors a tagger sees and make_features all equal
    the oracle that reads each slot off its name."""

    CASES = [(name, config, 0) for name, config in WINDOW_GRID.items()] + [
        (f"random-{seed}", random_window(datagen.rng(12_000 + seed)), seed) for seed in range(30)
    ]

    @pytest.mark.parametrize("name,config,seed", CASES, ids=[case[0] for case in CASES])
    def test_every_path_matches_the_oracle(self, name, config, seed):
        r = datagen.rng(13_000 + seed)
        corpus = Corpus(
            tuple(datagen.random_sentence(r, r.randint(1, 12)) for _ in range(8)), TagScheme.IOB2,
        )
        names = config.slot_names()
        items = corpus_to_dataset(corpus, config).items
        expected = [
            (oracle_features(s, i, names, s.chunk_tags[:i]), s.chunk_tags[i])
            for s in corpus.sentences for i in range(len(s))
        ]
        assert list(items) == expected
        for sentence in corpus.sentences:
            model = RecordingModel(config, r)
            tags = tag_sentence(model, sentence)
            assert model.vectors == [
                oracle_features(sentence, i, names, tags[:i]) for i in range(len(sentence))
            ]
            for i in range(len(sentence)):
                for left in (tags[:i], tuple(tags[:i]), sentence.chunk_tags[:i]):
                    assert make_features(sentence, i, config, left) == oracle_features(
                        sentence, i, names, left
                    )

    PAIRS = WindowConfig(
        left_words=0, right_words=0, left_pos=1, right_pos=1, left_chunk_tags=1, complex_pairs=True,
    )

    @pytest.mark.parametrize("pos,bad_at,value", [
        (("DT", "NN", "A|B", "VB"), 1, "A|B"),
        (("A|B", "NN", "C|D", "VB"), 0, "A|B"),
        (("DT", "NN", "VB", "C|D"), 2, "C|D"),
    ])
    def test_every_path_rejects_the_same_token(self, pos, bad_at, value):
        sentence = make_sentence([(f"w{i}", p, "O") for i, p in enumerate(pos)])
        message = f"complex_pairs cannot join {value!r}: it contains '|'"
        tags = sentence.chunk_tags
        assert [raised(lambda: make_features(sentence, i, self.PAIRS, tags[:i]))
                for i in range(len(pos))][:bad_at + 1] == [None] * bad_at + [message]
        corpus = Corpus((sentence,), TagScheme.IOB2)
        assert raised(lambda: corpus_to_dataset(corpus, self.PAIRS)) == message
        model = RecordingModel(self.PAIRS, datagen.rng(0))
        assert raised(lambda: tag_sentence(model, sentence)) == message
        assert len(model.vectors) == bad_at

    def test_left_tags_holding_the_separator_are_rejected(self):
        sentence = make_sentence([("x", "DT", "O"), ("y", "NN", "O")])
        message = "complex_pairs cannot join 'a|b': it contains '|'"
        assert raised(lambda: make_features(sentence, 1, self.PAIRS, ("a|b",))) == message

    @pytest.mark.parametrize("config", [
        # no slot reads the last pos tag
        WindowConfig(left_pos=2, right_pos=0, use_focus_pos=False, complex_pairs=True),
        # p[-1] and p[+1] read it, but only adjacent offsets are joined
        WindowConfig(left_pos=1, right_pos=1, use_focus_pos=False, complex_pairs=True),
    ])
    def test_a_value_no_pair_joins_may_hold_the_separator(self, config):
        names = config.slot_names()
        sentence = make_sentence([("x", "DT", "B-NP"), ("y", "NN", "I-NP"), ("z", "A|B", "O")])
        items = corpus_to_dataset(Corpus((sentence,), TagScheme.IOB2), config).items
        tags = sentence.chunk_tags
        assert [vector for vector, _ in items] == [
            make_features(sentence, i, config, tags[:i]) for i in range(3)
        ] == [oracle_features(sentence, i, names, tags[:i]) for i in range(3)]
        model = RecordingModel(config, datagen.rng(1))
        predicted = tag_sentence(model, sentence)
        assert model.vectors == [oracle_features(sentence, i, names, predicted[:i]) for i in range(3)]


class TestDataset:
    def test_arity_must_be_uniform(self):
        with pytest.raises(ValidationError):
            Dataset(((("a",), "X"), (("a", "b"), "X")), ("s0",))

    def test_class_counts(self):
        data = dataset([(["a"], "X"), (["b"], "X"), (["a"], "Y")])
        assert data.class_counts() == {"X": 2, "Y": 1}
        assert data.arity == 1

    def test_corpus_to_dataset_windows_every_token(self, tiny_corpus):
        config = WindowConfig()
        data = corpus_to_dataset(tiny_corpus, config)
        assert data.slot_names == config.slot_names()
        assert len(data.items) == sum(len(s) for s in tiny_corpus.sentences)
        sentence = tiny_corpus.sentences[0]
        tags = sentence.chunk_tags
        assert data.items[1] == (
            make_features(sentence, 1, config, tags[:1]), tags[1],
        )

    def test_corpus_to_dataset_rejects_untagged(self):
        corpus = Corpus(
            (make_sentence([("the", "DT", None)]),), TagScheme.IOB2,
        )
        with pytest.raises(TrainingError, match="sentence 1"):
            corpus_to_dataset(corpus, WindowConfig())


class TestRelevanceMeasures:
    """``slot_gains``: each slot's information gain, and with ``ratio`` its
    gain ratio."""

    def test_perfect_slot_gains_the_full_class_entropy(self):
        data = dataset([
            (["a", "x"], "X"), (["a", "y"], "X"),
            (["b", "x"], "Y"), (["b", "y"], "Y"),
        ])
        assert slot_gains(data, ratio=False)[0] == pytest.approx(1.0)
        assert slot_gains(data, ratio=True)[0] == pytest.approx(1.0)

    def test_constant_slot_carries_nothing(self):
        data = dataset([(["a", "x"], "X"), (["a", "y"], "Y")])
        assert slot_gains(data, ratio=False)[0] == 0.0
        assert slot_gains(data, ratio=True)[0] == 0.0

    def test_useless_but_varied_slot(self):
        data = dataset([
            (["a"], "X"), (["b"], "X"), (["a"], "Y"), (["b"], "Y"),
        ])
        assert slot_gains(data, ratio=False)[0] == pytest.approx(0.0)
        assert slot_gains(data, ratio=True)[0] == pytest.approx(0.0)

    def test_errors(self):
        with pytest.raises(TrainingError):
            slot_gains(Dataset((), ("s0",)), ratio=False)
        with pytest.raises(TrainingError):
            slot_gains(Dataset((), ("s0",)), ratio=True)

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_direct_formulas(self, seed):
        r = datagen.rng(7000 + seed)
        data = random_dataset(r, r.randint(1, 40), 3)
        gains = slot_gains(data, ratio=False)
        ratios = slot_gains(data, ratio=True)
        for slot in range(3):
            expected = max(0.0, oracle_information_gain(data.items, slot))
            assert gains[slot] == pytest.approx(expected, abs=1e-12)
            assert ratios[slot] == pytest.approx(oracle_gain_ratio(data.items, slot), abs=1e-12)

    @pytest.mark.parametrize("seed", range(15))
    def test_bounds(self, seed):
        r = datagen.rng(8000 + seed)
        data = random_dataset(r, r.randint(1, 30), 2, labels=("X", "Y", "Z"))
        labels = [label for _, label in data.items]
        for ig in slot_gains(data, ratio=False):
            assert 0.0 <= ig <= oracle_entropy(labels) + 1e-12
        for ratio in slot_gains(data, ratio=True):
            assert 0.0 <= ratio <= 1.0

    @pytest.mark.parametrize("seed", range(15))
    def test_renaming_values_changes_nothing(self, seed):
        r = datagen.rng(9000 + seed)
        data = random_dataset(r, r.randint(1, 30), 2)
        renamed = Dataset(
            tuple(
                (tuple(f"{v}@renamed" for v in vector), label)
                for vector, label in data.items
            ),
            data.slot_names,
        )
        for ratio in (False, True):
            assert slot_gains(renamed, ratio) == pytest.approx(slot_gains(data, ratio), abs=1e-12)


def varied_dataset(r, size):
    """Slots of every shape the gain measures meet: constant, mostly rare
    values, few noisy values, one value per class, and partly informative;
    with one to four classes, so that some datasets hold a single class."""
    classes = ("B-NP", "I-NP", "O", "B-VP")[:r.randint(1, 4)]
    rows = []
    for _ in range(size):
        label = r.choice(classes)
        rows.append(([
            "const",
            f"w{r.randrange(4 * size)}",
            f"v{r.randrange(3)}",
            f"is-{label}",
            label if r.random() < 0.5 else f"v{r.randrange(2)}",
        ], label))
    return dataset(rows)


class TestGainsAreBitExact:
    """The counted gain measures against the per-item tally, compared with ``==``."""

    @pytest.mark.parametrize("seed", range(20))
    def test_match_the_per_item_tally(self, seed):
        r = datagen.rng(10_000 + seed)
        data = varied_dataset(r, r.randint(1, 300))
        # the same items in other orders, so values and classes first occur
        # in other orders too
        reordered = [data] + [
            Dataset(tuple(r.sample(data.items, len(data.items))), data.slot_names)
            for _ in range(3)
        ]
        for d in reordered:
            gains = [reference_information_gain(d.items, s) for s in range(d.arity)]
            ratios = [reference_gain_ratio(d.items, s) for s in range(d.arity)]
            assert slot_gains(d, ratio=False) == gains
            assert slot_gains(d, ratio=True) == ratios
            assert train_knn(d, k=1, weighting="information_gain").weights == tuple(gains)
            assert train_knn(d, k=1, weighting="gain_ratio").weights == tuple(ratios)

    @pytest.mark.parametrize("weighting", WEIGHTINGS)
    @pytest.mark.parametrize("name", sorted(WINDOW_GRID))
    def test_match_the_per_item_tally_on_windows(self, name, weighting):
        corpus = Corpus(
            tuple(datagen.random_sentence(datagen.rng(11_000 + i), 2 + i % 9) for i in range(60)),
            TagScheme.IOB2,
        )
        data = corpus_to_dataset(corpus, WINDOW_GRID[name])
        reference = (reference_gain_ratio if weighting == "gain_ratio"
                     else reference_information_gain)
        assert train_knn(data, k=1, weighting=weighting).weights == tuple(
            reference(data.items, s) for s in range(data.arity)
        )
