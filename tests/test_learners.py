import gc
import hashlib
import inspect
import math
import tracemalloc
import weakref
from array import array
from collections import Counter
from operator import itemgetter

import pytest

import chunkvote.learners
from chunkvote import (
    PAD,
    ConfigError,
    Corpus,
    Dataset,
    IGTreeModel,
    KnnModel,
    LEARNER_KINDS,
    LearnerSpec,
    MaxEntModel,
    RuleSetModel,
    TagScheme,
    TrainingError,
    ValidationError,
    WindowConfig,
    corpus_to_dataset,
    cv_tuning_table,
    dumps_model,
    extract_chunks,
    loads_model,
    predict_igtree,
    predict_knn,
    predict_maxent,
    predict_rules,
    tag_sentence,
    train_baseline,
    train_igtree,
    train_knn,
    train_maxent,
    train_rules,
)
from chunkvote.learners import (
    BASELINE_WINDOW, MAXENT_WINDOW, Rule, _sum_in_order, io_corpus, pick_best,
)

import datagen
from conftest import make_sentence, make_untagged
from oracles import (
    oracle_igtree_path, oracle_knn, oracle_maxent_loglik, oracle_maxent_scores, oracle_rules,
    reference_train_maxent,
)


def dataset(rows, slot_names=None):
    items = tuple((tuple(vector), label) for vector, label in rows)
    if slot_names is None:
        slot_names = tuple(f"s{i}" for i in range(len(items[0][0])))
    return Dataset(items, tuple(slot_names))


def replace(record, **changes):
    """A copy of ``record`` with the ``changes`` made to its fields."""
    return type(record)(**{name: getattr(record, name) for name in record._fields} | changes)


def knn_model(data, k, weights, window=None):
    """A k-NN model over ``data`` with hand-set slot weights."""
    return replace(train_knn(data, k=k, window=window), weights=weights)


def random_dataset(r, size, arity, values=("a", "b", "c", "d"), labels=("X", "Y", "Z")):
    rows = [
        ([r.choice(values) for _ in range(arity)], r.choice(labels))
        for _ in range(size)
    ]
    return dataset(rows)


class TestPickBest:
    def test_highest_score_wins(self):
        assert pick_best({"A": 1.0, "B": 2.0}) == "B"

    def test_frequency_breaks_score_ties(self):
        assert pick_best({"A": 1.0, "B": 1.0}, {"A": 2, "B": 5}) == "B"

    def test_alphabet_breaks_remaining_ties(self):
        assert pick_best({"C": 1.0, "B": 1.0}, {"B": 3, "C": 3}) == "B"
        assert pick_best({"C": 1.0, "B": 1.0}) == "B"

    def test_empty_candidates_are_rejected(self):
        with pytest.raises(ValidationError):
            pick_best({})


class TestBaseline:
    def corpus(self):
        return Corpus(
            (
                make_sentence([("the", "DT", "B-NP"), ("dog", "NN", "I-NP"),
                               ("runs", "VBZ", "O")]),
                make_sentence([("dog", "NN", "B-NP")]),
            ),
            TagScheme.IOB2,
        )

    def test_modal_tag_per_pos(self):
        model = train_baseline(self.corpus())
        assert model.predict(("DT",)) == "B-NP"
        assert model.predict(("VBZ",)) == "O"
        # NN is split 1/1; the corpus-wide more frequent tag wins
        assert model.predict(("NN",)) == "B-NP"

    def test_unseen_pos_gets_the_corpus_modal_tag(self):
        model = train_baseline(self.corpus())
        assert model.root.default == "B-NP"
        assert model.predict(("XYZ",)) == "B-NP"

    def test_io_encoding_folds_b_into_i(self):
        model = train_baseline(self.corpus(), io_encoding=True)
        assert {leaf.default for leaf in model.root.children.values()} <= {"I-NP", "O"}
        assert model.predict(("DT",)) == "I-NP"

    def test_training_errors(self):
        with pytest.raises(TrainingError):
            train_baseline(Corpus((), TagScheme.IOB2))
        bare = Corpus((make_untagged([("the", "DT")]),), TagScheme.IOB2)
        with pytest.raises(TrainingError, match="sentence 1"):
            train_baseline(bare)


class TestIoCorpus:
    def test_rewrites_b_tags_and_switches_scheme(self):
        corpus = Corpus(
            (make_sentence([("a", "DT", "B-NP"), ("b", "NN", "I-NP"),
                            ("c", "NN", "B-NP"), ("d", "VB", "O")]),),
            TagScheme.IOB2,
        )
        got = io_corpus(corpus)
        assert got.scheme is TagScheme.IOB1
        assert got.sentences[0].chunk_tags == ("I-NP", "I-NP", "I-NP", "O")

    def test_adjacent_same_type_chunks_merge(self):
        corpus = Corpus(
            (make_sentence([("a", "DT", "B-NP"), ("b", "NN", "B-NP")]),),
            TagScheme.IOB2,
        )
        before = extract_chunks(corpus.sentences[0].chunk_tags)
        after = extract_chunks(io_corpus(corpus).sentences[0].chunk_tags)
        assert len(before) == 2
        assert len(after) == 1

    def test_untagged_tokens_stay_untagged(self):
        corpus = Corpus((make_untagged([("a", "DT")]),), TagScheme.IOB2)
        assert io_corpus(corpus).sentences[0].chunk_tags == (None,)


class TestKnn:
    def model(self, k):
        data = dataset([
            (["a", "b"], "X"),
            (["a", "c"], "Y"),
            (["d", "b"], "Y"),
            (["d", "c"], "Z"),
        ])
        return knn_model(data, k=k, weights=(1.0, 0.5))

    def test_exact_match_wins_at_k1(self):
        assert predict_knn(self.model(1), ("a", "b")) == "X"
        assert predict_knn(self.model(1), ("d", "c")) == "Z"

    def test_k_counts_distinct_distances(self):
        # distances from ("a", "b"): 0.0 X, 0.5 Y, 1.0 Y, 1.5 Z
        assert predict_knn(self.model(2), ("a", "b")) == "Y"
        assert predict_knn(self.model(3), ("a", "b")) == "Y"

    def test_equidistant_items_vote_together(self):
        data = dataset([
            (["a", "b"], "X"),
            (["a", "c"], "Y"),
            (["d", "b"], "Y"),
        ])
        model = knn_model(data, k=1, weights=(1.0, 1.0))
        # both one-slot-away neighbours share distance 1.0, X is unseen
        assert predict_knn(model, ("e", "b")) == "Y"

    def test_weight_zero_slots_are_ignored(self):
        data = dataset([(["a", "b"], "X"), (["c", "b"], "Y")])
        model = knn_model(data, k=1, weights=(0.0, 1.0))
        # slot 0 cannot separate the two items, so both vote; the tie
        # falls back to class frequency, then the alphabet
        assert predict_knn(model, ("a", "b")) == "X"

    def test_training_validation(self):
        data = dataset([(["a"], "X")])
        with pytest.raises(ConfigError):
            train_knn(data, k=0)
        with pytest.raises(TrainingError):
            train_knn(Dataset((), ("s0",)), k=1)
        with pytest.raises(ConfigError):
            train_knn(data, k=1, weighting="nonsense")
        with pytest.raises(ValidationError):
            predict_knn(train_knn(data, k=1), ("a", "b"))

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_brute_force(self, seed):
        r = datagen.rng(10_000 + seed)
        data = random_dataset(r, r.randint(1, 50), 3)
        k = r.randint(1, 4)
        weighting = r.choice(("gain_ratio", "information_gain"))
        model = train_knn(data, k=k, weighting=weighting)
        for _ in range(50):
            query = tuple(r.choice(("a", "b", "c", "d", "unseen")) for _ in range(3))
            expected = oracle_knn(
                model.memory, model.weights, model.k, query, model.class_counts
            )
            assert predict_knn(model, query) == expected


def assert_knn_exact(model, queries):
    for query in queries:
        expected = oracle_knn(model.memory, model.weights, model.k, query, model.class_counts)
        assert predict_knn(model, query) == expected, query


def skewed_choice(r, values):
    """Earlier values far more often, like a word frequency list."""
    return values[min(int(r.expovariate(4.0 / len(values))), len(values) - 1)]


def window_shaped_data(r, size):
    """Ten slots shaped like the default window: four word slots over a
    skewed vocabulary, four pos slots, two chunk tag slots, with every
    fifth row a copy of an earlier one."""
    words = [f"w{i}" for i in range(40)]
    tags = ["NN", "DT", "JJ", "VB", "IN", "CD", "RB", "."]
    chunks = ["B-NP", "I-NP", "B-VP", "B-PP", "O"]
    rows = []
    for _ in range(size):
        if rows and r.random() < 0.2:
            rows.append(r.choice(rows))
            continue
        vector = (
            [skewed_choice(r, words) for _ in range(4)]
            + [skewed_choice(r, tags) for _ in range(4)]
            + [r.choice(chunks) for _ in range(2)]
        )
        rows.append((vector, r.choice(chunks)))
    return dataset(rows), words + tags + chunks


def nearby_queries(r, model, n, pool):
    """Memory vectors with up to four slots changed, unseen values included."""
    queries = []
    for _ in range(n):
        query = list(r.choice(model.memory)[0])
        for _ in range(r.randint(0, 4)):
            query[r.randrange(len(query))] = r.choice(pool + ["unseen"])
        queries.append(tuple(query))
    return queries


class TestKnnExactness:
    """The branch-and-bound search against the brute-force oracle."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_window_shaped_data(self, k):
        r = datagen.rng(40_000 + k)
        data, values = window_shaped_data(r, 400)
        model = train_knn(data, k=k)
        assert_knn_exact(model, nearby_queries(r, model, 150, values))

    @pytest.mark.parametrize("k", [1, 3])
    def test_stacked_shaped_data(self, k):
        # four system tags plus the pos tag, mostly agreeing with the gold tag
        r = datagen.rng(41_000 + k)
        chunks = ["B-NP", "I-NP", "B-VP", "O"]
        rows = []
        for _ in range(500):
            gold = r.choice(chunks)
            systems = [gold if r.random() < 0.85 else r.choice(chunks) for _ in range(4)]
            rows.append((systems + [r.choice(("NN", "DT", "VB"))], gold))
        model = train_knn(dataset(rows), k=k)
        assert len({v for v, _ in model.memory}) < len(model.memory) // 2
        assert_knn_exact(model, nearby_queries(r, model, 200, chunks + ["NN", "JJ"]))

    def test_distances_are_summed_in_slot_order(self):
        # (0.1 + 0.2) + 0.3 is 0.6000000000000001, not 0.6: the X item is
        # strictly nearer than the Y item, so at k=1 it votes alone, even
        # though heaviest-first order sums the Y item's weights to 0.6.
        weights = (0.1, 0.2, 0.3, 0.6)
        assert (0.1 + 0.2) + 0.3 != 0.6 == (0.3 + 0.2) + 0.1
        model = knn_model(dataset([
            (["a", "b", "c", "z"], "X"),
            (["z", "z", "z", "d"], "Y"),
            (["z", "z", "z", "z"], "Y"),
        ]), k=1, weights=weights)
        assert predict_knn(model, ("a", "b", "c", "d")) == "X"
        r = datagen.rng(42_000)
        rows = [([r.choice("ab") for _ in range(4)], r.choice("XYZ")) for _ in range(60)]
        for k in (1, 2, 3, 4):
            model = knn_model(dataset(rows), k=k, weights=weights)
            assert_knn_exact(model, [tuple(r.choice("abc") for _ in range(4)) for _ in range(80)])

    def test_a_tie_is_not_cut_by_rounding(self):
        # Both items lie at 0.7 in slot order, but heaviest-first order sums
        # the Y item's weights to 0.7000000000000001; the search meets the
        # X item first and must still reach the Y item, whose class then
        # wins the tie on frequency.
        weights = (0.1, 0.4, 0.2, 0.35, 0.35)
        assert (0.1 + 0.4) + 0.2 == 0.35 + 0.35 < (0.4 + 0.2) + 0.1
        model = knn_model(dataset([
            (["a", "b", "c", "z", "z"], "X"),
            (["z", "z", "z", "d", "e"], "Y"),
            (["z", "z", "z", "z", "z"], "Y"),
        ]), k=1, weights=weights)
        assert predict_knn(model, ("a", "b", "c", "d", "e")) == "Y"

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_equal_weights_make_many_ties(self, k):
        r = datagen.rng(43_000 + k)
        data = random_dataset(r, 200, 6, values=("a", "b", "c"))
        model = knn_model(data, k=k, weights=(1.0,) * 6)
        queries = [tuple(r.choice("abcd") for _ in range(6)) for _ in range(100)]
        assert_knn_exact(model, queries)

    @pytest.mark.parametrize("weights", [(0.0, 1.0, 0.0, 0.5, 0.0), (0.0,) * 5])
    def test_zero_weight_slots(self, weights):
        r = datagen.rng(44_000)
        data = random_dataset(r, 120, 5)
        for k in (1, 2):
            model = knn_model(data, k=k, weights=weights)
            queries = [tuple(r.choice("abcde") for _ in range(5)) for _ in range(60)]
            assert_knn_exact(model, queries)

    def test_reused_model_still_round_trips(self):
        r = datagen.rng(45_000)
        data, values = window_shaped_data(r, 300)
        model = train_knn(data, k=2)
        text = dumps_model(model)
        assert_knn_exact(model, nearby_queries(r, model, 300, values))
        assert "index" in vars(model)
        assert dumps_model(model) == text
        assert loads_model(text) == model
        assert "index" not in repr(model)


class TestKnnPostings:
    """Values held by fewer than ``RARE_POSTINGS`` items keep positions."""

    RARE = chunkvote.learners.RARE_POSTINGS

    def model(self, k):
        # slot 0: "r" on RARE - 1 items, "f" on RARE items, the rest unique;
        # equal weights, so many items share a distance
        r = datagen.rng(46_000)
        column = ["r"] * (self.RARE - 1) + ["f"] * self.RARE + [f"u{i}" for i in range(80)]
        r.shuffle(column)
        rows = [([value, r.choice("ab"), r.choice("cde")], r.choice("XYZ")) for value in column]
        return knn_model(dataset(rows), k=k, weights=(1.0, 1.0, 1.0))

    def test_a_rare_value_keeps_sorted_positions(self):
        model = self.model(1)
        postings = model.index.postings[model.index.order.index(0)]
        rare = [i for i, (vector, _) in enumerate(model.memory) if vector[0] == "r"]
        assert isinstance(postings["r"], array) and list(postings["r"]) == rare
        assert isinstance(postings["f"], int) and postings["f"].bit_count() == self.RARE
        assert all(isinstance(postings[value], int) for value in "abcde" if value in postings)
        assert all(isinstance(items, int) for items in model.index.labels.values())

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_predictions_match_the_brute_force_oracle(self, k):
        model = self.model(k)
        queries = [(v0, v1, v2) for v0 in ("r", "f", "u3", "unseen") for v1 in "abz" for v2 in "cez"]
        assert_knn_exact(model, queries)
        # ("unseen", "a", "c") lies one slot away from every item ending in
        # ("a", "c"): a tie group of rare and frequent values and several labels
        group = [(vector[0], label) for vector, label in model.memory if vector[1:] == ("a", "c")]
        assert {"r", "f"} <= {value for value, _ in group} and len({label for _, label in group}) > 1

    def test_positions_build_a_fraction_of_all_bitset_postings(self, monkeypatch):
        # ~20k items with mostly distinct words: a bitset is as wide as its
        # highest position, so rare values cost far more as bitsets
        r = datagen.rng(49_000)
        rows = [((f"w{r.randrange(200_000)}", f"w{r.randrange(200_000)}", r.choice(("NN", "DT", "VB"))),
                 r.choice("XYZ")) for _ in range(20_000)]
        data = dataset(rows)

        def index_peak():
            model = knn_model(data, k=1, weights=(1.0, 0.9, 0.5))
            tracemalloc.start()
            try:
                model.index
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        positions = index_peak()
        monkeypatch.setattr(chunkvote.learners, "RARE_POSTINGS", 0)
        bitsets = index_peak()
        assert positions < bitsets / 2


class TestIGTree:
    def test_more_relevant_slots_are_tested_first(self):
        data = dataset([
            (["n", "a"], "X"), (["n", "a"], "X"),
            (["n", "b"], "Y"), (["m", "b"], "Y"),
        ])
        model = train_igtree(data)
        assert model.feature_order[0] == 1

    def test_tied_relevance_prefers_lower_slot_index(self):
        data = dataset([(["a", "a"], "X"), (["b", "b"], "Y")])
        model = train_igtree(data)
        assert model.feature_order == (0, 1)

    def test_missing_branch_answers_with_the_node_default(self):
        data = dataset([
            (["a", "x"], "X"), (["a", "y"], "Y"),
            (["b", "x"], "Y"), (["b", "x"], "Y"),
        ])
        model = train_igtree(data)
        # feature order puts slot 1 last; an unseen slot value at the
        # root falls back to the modal class of the whole data
        unseen = ("c", "x")
        first = model.feature_order[0]
        assert unseen[first] not in ("a", "b") or True
        assert predict_igtree(model, unseen) == "Y"

    def test_pure_dataset_collapses_to_a_leaf(self):
        data = dataset([(["a"], "X"), (["b"], "X")])
        model = train_igtree(data)
        assert model.root.children == {}
        assert predict_igtree(model, ("anything",)) == "X"

    def test_arity_check_and_empty_data(self):
        with pytest.raises(TrainingError):
            train_igtree(Dataset((), ("s0",)))
        model = train_igtree(dataset([(["a"], "X")]))
        with pytest.raises(ValidationError):
            predict_igtree(model, ("a", "b"))

    def test_a_deep_chain_trains_without_recursion(self):
        slots = 1500
        model = train_igtree(dataset([(["x"] * slots, "B-NP"), (["x"] * slots, "O")]))
        depth, node = 0, model.root
        while node.children:
            depth, node = depth + 1, node.children["x"]
        assert depth == slots
        text = dumps_model(model)
        assert dumps_model(loads_model(text)) == text

    @pytest.mark.parametrize("seed", range(5))
    def test_children_keep_the_order_their_values_first_occur(self, seed):
        data = random_dataset(datagen.rng(11_500 + seed), 60, 3)
        model = train_igtree(data)
        pending = [(model.root, data.items, 0)]
        while pending:
            node, items, depth = pending.pop()
            if node.children:
                slot = model.feature_order[depth]
                assert list(node.children) == list(dict.fromkeys(v[slot] for v, _ in items))
                pending.extend((child, [it for it in items if it[0][slot] == value], depth + 1)
                               for value, child in node.children.items())

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_the_path_filter_oracle(self, seed):
        r = datagen.rng(11_000 + seed)
        data = random_dataset(r, r.randint(1, 60), 3)
        model = train_igtree(data)
        counts = data.class_counts()
        for vector, _ in data.items:
            expected = oracle_igtree_path(data.items, model.feature_order, vector, counts)
            assert predict_igtree(model, vector) == expected
        for _ in range(30):
            query = tuple(r.choice(("a", "b", "c", "d", "unseen")) for _ in range(3))
            expected = oracle_igtree_path(data.items, model.feature_order, query, counts)
            assert predict_igtree(model, query) == expected


# sha256 of the model file and of the training trace (log likelihoods and
# iteration count), per (sigma, iterations),
# for the corpus of ``pinned_maxent_data``.
PINNED_MAXENT = {
    (None, 3): ("75718e4d87a95a8b8c2632f6475c11b9e6607334c30abd861c769e633f8ed04c",
                "de93a6cbb4b94bf4c8460125ce566fab7c954bde438fe320606801b1f675adf1"),
    (None, 10): ("de465f055200af6354ad7b3039009eba81d9ab7992c65f743b3b31119837efc7",
                 "f6e51b7fc79449c98fea9b474b057a53681860cf5d045d1e0a4ba9800ffdfec4"),
    (1.0, 3): ("d575646b926a53f3909061d1fb089193056d15fa4652daea7de1d6d596b02e66",
               "4d65c2cb4376d332672894863da948b0dc42c035a5e83045d3308769580aee67"),
    (1.0, 10): ("ce6216132c0c1158921eb5405cde55d568f50c0edb4837332f85a12b27124d4c",
                "c06e2723a153ff57fa2d8735207273062dee7217f8e80ce17c7b7aac289ca189"),
}


def pinned_corpus():
    """Grammar sentences plus random ones, so that equal windows carry different tags."""
    r = datagen.rng(13_000)
    corpus = datagen.grammar_corpus(r, 120)
    noisy = tuple(datagen.random_sentence(r, r.randint(3, 9)) for _ in range(60))
    return Corpus(corpus.sentences + noisy, TagScheme.IOB2)


def pinned_maxent_data():
    return corpus_to_dataset(pinned_corpus(), MAXENT_WINDOW)


# float.hex of each slot weight of ``pinned_corpus`` in the default window.
PINNED_SLOT_WEIGHTS = {
    "gain_ratio": [
        '0x1.0a75b245b0999p-2', '0x1.50c9bb4028c79p-2', '0x1.9f411d5bdbf5ap-2',
        '0x1.45cc42c7092b4p-2', '0x1.b6a5054a8fa06p-3', '0x1.5f50269e9d7dep-2',
        '0x1.6c32dfb86b38cp-2', '0x1.05ed896fba790p-2', '0x1.ac94e6a41556fp-3',
        '0x1.8e6f45864163fp-2',
    ],
    "information_gain": [
        '0x1.dc86b61d40b1cp-1', '0x1.5a5cedcdae432p+0', '0x1.bb7718ae4f2f4p+0',
        '0x1.4b940e0507189p+0', '0x1.174d213776298p-1', '0x1.d6ec977e33792p-1',
        '0x1.e95238bb32e60p-1', '0x1.7b26ecdde5576p-1', '0x1.1078a8fcc335cp-1',
        '0x1.0ddeb8e2cc203p+0',
    ],
}


@pytest.mark.parametrize("weighting", sorted(PINNED_SLOT_WEIGHTS))
def test_slot_weights_are_pinned(weighting):
    data = corpus_to_dataset(pinned_corpus(), WindowConfig())
    weights = train_knn(data, k=1, weighting=weighting).weights
    assert [w.hex() for w in weights] == PINNED_SLOT_WEIGHTS[weighting]


class TestMaxEnt:
    def skewed(self):
        return dataset([(["x"], "A"), (["x"], "A"), (["x"], "A"), (["x"], "B")])

    @pytest.mark.parametrize("cutoff", [1, 2])
    def test_learns_the_three_to_one_split(self, cutoff):
        model = train_maxent(self.skewed(), iterations=100, cutoff=cutoff)
        scores = model.scores(("x",))
        assert 1.0 / (1.0 + math.exp(scores["B"] - scores["A"])) == pytest.approx(0.75, abs=1e-3)
        assert predict_maxent(model, ("x",)) == "A"

    def test_cutoff_drops_rare_features(self):
        with_rare = train_maxent(self.skewed(), iterations=100, cutoff=1)
        without = train_maxent(self.skewed(), iterations=100, cutoff=2)
        assert (0, "x", "B") in with_rare.weights
        assert (0, "x", "B") not in without.weights

    def test_log_likelihood_never_decreases(self):
        data = dataset([
            (["a", "p"], "X"), (["a", "q"], "X"), (["b", "p"], "Y"),
            (["b", "q"], "Z"), (["a", "p"], "X"), (["b", "p"], "Y"),
        ])
        model = train_maxent(data, iterations=40, cutoff=1)
        curve = model.trace.loglik
        assert len(curve) >= 2
        assert all(b >= a - 1e-9 for a, b in zip(curve, curve[1:]))

    @pytest.mark.parametrize("sigma", [None, 1.0])
    def test_final_loglik_matches_an_independent_recomputation(self, sigma):
        data = dataset([
            (["a", "p"], "X"), (["a", "q"], "Y"), (["b", "p"], "Y"),
            (["b", "q"], "X"), (["a", "p"], "X"), (["c", "r"], "Z"),
        ])
        model = train_maxent(data, iterations=25, cutoff=1, sigma=sigma)
        assert model.trace.iterations == 25 and len(model.trace.loglik) == 26
        assert model.trace.loglik[-1] == pytest.approx(oracle_maxent_loglik(model, data.items), abs=1e-9)

    def test_gaussian_prior_shrinks_the_weights(self):
        plain = train_maxent(self.skewed(), iterations=100, cutoff=1)
        damped = train_maxent(self.skewed(), iterations=100, cutoff=1, sigma=1.0)
        plain_norm = sum(abs(w) for w in plain.weights.values())
        damped_norm = sum(abs(w) for w in damped.weights.values())
        assert damped_norm < plain_norm
        assert predict_maxent(damped, ("x",)) == "A"
        scores = damped.scores(("x",))
        assert scores["A"] > scores["B"]

    @pytest.mark.parametrize("seed", range(10))
    def test_distribution_sums_to_one(self, seed):
        r = datagen.rng(12_000 + seed)
        data = random_dataset(r, r.randint(2, 30), 2)
        model = train_maxent(data, iterations=10, cutoff=1)
        for _ in range(10):
            query = tuple(r.choice(("a", "b", "unseen")) for _ in range(2))
            # a finite score per class, so exp(score) / Z is a distribution
            scores = model.scores(query)
            assert list(scores) == list(model.classes)
            assert all(math.isfinite(score) for score in scores.values())

    def test_normalizing_sums_do_not_depend_on_the_interpreter(self, monkeypatch):
        # From Python 3.12 the builtin sum of floats is compensated, as fsum is.
        # GIS normalizes each item's class distribution by _sum_in_order.
        monkeypatch.setattr(chunkvote.learners, "sum", math.fsum, raising=False)
        exps = [1.0, 1e-16, 1e-16]
        z = 0.0
        for e in exps:
            z += e
        assert z != math.fsum(exps)
        assert _sum_in_order(exps) == z

    @pytest.mark.parametrize("seed", range(5))
    def test_training_does_not_depend_on_the_interpreter(self, monkeypatch, seed):
        r = datagen.rng(12_500 + seed)
        data = random_dataset(r, r.randint(5, 30), 3)
        plain = train_maxent(data, iterations=10, cutoff=1, sigma=1.0)
        monkeypatch.setattr(chunkvote.learners, "sum", math.fsum, raising=False)
        assert train_maxent(data, iterations=10, cutoff=1, sigma=1.0) == plain

    @pytest.mark.parametrize("sigma, iterations", PINNED_MAXENT)
    def test_model_file_and_trace_are_pinned(self, sigma, iterations):
        model = train_maxent(pinned_maxent_data(), iterations=iterations, sigma=sigma)
        t = model.trace
        trace = repr((t.loglik, t.iterations))
        assert (hashlib.sha256(dumps_model(model).encode()).hexdigest(),
                hashlib.sha256(trace.encode()).hexdigest()) == PINNED_MAXENT[sigma, iterations]

    @pytest.mark.parametrize("seed", range(5))
    def test_scores_match_a_slot_by_slot_reference(self, seed):
        r = datagen.rng(12_800 + seed)
        data = random_dataset(r, r.randint(10, 40), 3)
        # W occurs once, so the cutoff leaves it without features.
        data = Dataset(data.items + ((("a", "b", "c"), "W"),), data.slot_names)
        model = train_maxent(data, iterations=5, cutoff=2)
        assert "W" in model.classes and all(c != "W" for _, _, c in model.weights)
        for _ in range(30):
            query = tuple(r.choice(("a", "b", "c", "d", "unseen")) for _ in range(3))
            assert model.scores(query) == oracle_maxent_scores(model, query)
        # A feature of a class the model does not declare is an error, as
        # in a model file, not a weight that is never scored.
        foreign = replace(model, weights={**model.weights, (0, "a", "V"): 1.5})
        with pytest.raises(ValidationError, match=r"feature \(0, 'a', 'V'\) has class 'V'"):
            foreign.scores(query)
        for slot in (3, -1):
            outside = replace(model, weights={**model.weights, (slot, "a", model.classes[0]): 1.5})
            with pytest.raises(ValidationError, match=rf"has slot {slot}, outside the 3 slots"):
                outside.scores(query)

    def test_peak_memory_per_distinct_vector_is_bounded(self):
        # Each distinct vector needs its id tuples, one per class (~230 bytes
        # here), and a slot in the gold list.  Its (class, count) pairs repeat
        # one pattern, which a tuple per vector would cost ~230 bytes more.
        # The slope between two sizes cancels the costs per feature.
        r = datagen.rng(47_000)
        vectors = r.sample([(f"a{i}", f"b{j}") for i in range(200) for j in range(200)], 6_000)

        def peak(n):
            data = dataset([(vector, label) for vector in vectors[:n] for label in "XYZ"])
            tracemalloc.start()
            try:
                train_maxent(data, iterations=1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert (peak(6_000) - peak(3_000)) / 3_000 < 384

    def test_peak_memory_per_distinct_vector_does_not_grow_with_classes(self):
        # Every vector holds one value of each of two slots, and every value
        # occurs with every class, so all vectors have equal feature counts
        # per class.  What a vector costs is then its tuple of shared
        # (slot, value) entries, whatever the class count; one id tuple per
        # class and vector cost ~70 bytes more per class.
        def slope(n_classes):
            labels = [f"C{k}" for k in range(n_classes)]

            def peak(rows):
                data = dataset([((f"a{i}", f"b{j}"), labels[(i + j) % n_classes])
                                for i in range(rows) for j in range(200)])
                tracemalloc.start()
                try:
                    train_maxent(data, iterations=1, cutoff=1)
                    return tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()

            return (peak(30) - peak(15)) / 3_000

        assert slope(12) < slope(3) + 48

    def test_training_is_deterministic(self):
        data = dataset([(["a", "p"], "X"), (["b", "p"], "Y"), (["a", "q"], "Y")])
        first = train_maxent(data, iterations=15, cutoff=1)
        second = train_maxent(data, iterations=15, cutoff=1)
        assert first.weights == second.weights
        assert first.correction == second.correction

    def test_validation(self):
        with pytest.raises(TrainingError):
            train_maxent(Dataset((), ("s0",)), iterations=100)
        with pytest.raises(ConfigError):
            train_maxent(self.skewed(), iterations=0)
        with pytest.raises(ConfigError):
            train_maxent(self.skewed(), iterations=100, cutoff=0)
        # 1e-162 squares to 0 and 1e-155 to a number whose inverse overflows
        for bad in (0.0, -1.0, math.nan, math.inf, 1e-155, 1e-162):
            with pytest.raises(ConfigError, match="sigma"):
                train_maxent(self.skewed(), iterations=100, sigma=bad)
        assert math.isfinite(train_maxent(self.skewed(), iterations=100, sigma=1e-150).correction)
        model = train_maxent(self.skewed(), iterations=100)
        with pytest.raises(ValidationError):
            predict_maxent(model, ("x", "y"))


def maxent_data(r, n_classes, size=120, arity=4):
    """Seeded items over small alphabets with Zipf-like labels from
    ``n_classes`` classes.  Some vectors repeat with another label, and the
    last class labels one item only, so a cutoff above 1 leaves it without
    features."""
    labels = [f"B-C{k:02d}" for k in range(n_classes)]
    rows = []
    for i in range(size):
        vector = [r.choice("abcdefg"[:2 + slot]) for slot in range(arity)]
        label = labels[i] if i < n_classes - 1 else labels[min(int(r.expovariate(0.4)), n_classes - 2)]
        rows.append((vector, label))
        if r.random() < 0.25:
            rows.append((vector, r.choice(labels[:-1])))
    rows.append((rows[0][0], labels[-1]))
    return dataset(rows)


FIVE_CHUNK_TYPES = ("NP", "VP", "PP", "ADJP", "ADVP")


def maxent_output(model):
    t = model.trace
    return dumps_model(model), repr((t.loglik, t.iterations))


class TestMaxEntReference:
    """GIS over shared (slot, value) entries gives the bytes of the layout
    with one id tuple per vector and class."""

    @pytest.mark.parametrize("iterations", [1, 3, 10])
    @pytest.mark.parametrize("sigma", [None, 1.0])
    @pytest.mark.parametrize("cutoff", [1, 3])
    def test_model_file_and_trace_match_the_reference(self, iterations, sigma, cutoff):
        r = datagen.rng(58_000 + 10 * iterations + 2 * cutoff + (sigma is None))
        for n_classes in (2, 3, 5, 11, 21):
            data = maxent_data(r, n_classes)
            model = train_maxent(data, iterations=iterations, sigma=sigma, cutoff=cutoff)
            assert len(model.classes) == n_classes
            if cutoff > 1:
                assert all(c != model.classes[-1] for _, _, c in model.weights)
            expected = reference_train_maxent(data, iterations=iterations, sigma=sigma, cutoff=cutoff)
            assert maxent_output(model) == maxent_output(expected)

    @staticmethod
    def edge_data(kind, r):
        """Datasets the seeded mixes never make: one class only; vectors
        whose every value the cutoff of 2 drops; no feature kept at all."""
        if kind == "one class":
            return dataset([([r.choice("abc") for _ in range(3)], "B-NP") for _ in range(40)])
        labels = ("B-NP", "I-NP", "O")
        if kind == "no features":
            return dataset([([f"u{i}", f"v{i}"], r.choice(labels)) for i in range(30)])
        rows = [([r.choice("ab"), r.choice("ab")], r.choice(labels)) for _ in range(40)]
        rows += [([f"u{i}", f"v{i}"], r.choice(labels)) for i in range(10)]
        r.shuffle(rows)
        return dataset(rows)

    @pytest.mark.parametrize("kind", ["one class", "featureless vectors", "no features"])
    @pytest.mark.parametrize("iterations", [1, 3])
    @pytest.mark.parametrize("sigma", [None, 1.0])
    def test_edge_datasets_match_the_reference(self, kind, iterations, sigma):
        data = self.edge_data(kind, datagen.rng(58_700 + len(kind)))
        model = train_maxent(data, iterations=iterations, sigma=sigma, cutoff=2)
        expected = reference_train_maxent(data, iterations=iterations, sigma=sigma, cutoff=2)
        assert maxent_output(model) == maxent_output(expected)
        if kind == "one class":
            assert model.classes == ("B-NP",) and model.trace.loglik[0] == 0.0
        elif kind == "no features":
            assert not model.weights and model.constant == 1
        else:
            assert model.weights and any(
                all((slot, value, c) not in model.weights for slot, value in enumerate(vector) for c in model.classes)
                for vector, _ in data.items
            )

    def test_split_chunk_types_match_the_reference(self):
        r = datagen.rng(58_500)
        corpus = datagen.split_chunk_types(datagen.grammar_corpus(r, 150))
        data = corpus_to_dataset(corpus, MAXENT_WINDOW)
        assert len(data.class_counts()) > 2 * len(datagen.CHUNK_TYPES) + 1
        for cutoff in (1, 2):
            model = train_maxent(data, iterations=3, cutoff=cutoff)
            assert maxent_output(model) == maxent_output(reference_train_maxent(data, 3, cutoff=cutoff))

    @staticmethod
    def five_type_dataset(split):
        """Grammar sentences and random sentences over five chunk types: 11
        classes, or 21 with each type split in two.  The focus pos tag DT
        carries features of most classes."""
        r = datagen.rng(58_900)
        sentences = [datagen.grammar_sentence(r) for _ in range(30)]
        sentences += [datagen.random_sentence(r, r.randint(3, 9), FIVE_CHUNK_TYPES) for _ in range(30)]
        corpus = Corpus(tuple(sentences), TagScheme.IOB2)
        return corpus_to_dataset(datagen.split_chunk_types(corpus) if split else corpus, MAXENT_WINDOW)

    @pytest.mark.parametrize("iterations", [1, 2, 25])
    @pytest.mark.parametrize("sigma", [None, 0.5])
    @pytest.mark.parametrize("cutoff", [1, 2])
    @pytest.mark.parametrize("split", [False, True])
    def test_every_loglik_entry_matches_the_reference_to_the_bit(self, iterations, sigma, cutoff, split):
        data = self.five_type_dataset(split)
        assert len(data.class_counts()) == (21 if split else 11)
        model = train_maxent(data, iterations=iterations, sigma=sigma, cutoff=cutoff)
        expected = reference_train_maxent(data, iterations=iterations, sigma=sigma, cutoff=cutoff)
        assert dumps_model(model) == dumps_model(expected)
        assert ([x.hex() for x in model.trace.loglik], model.trace.iterations) == (
            [x.hex() for x in expected.trace.loglik], expected.trace.iterations)
        assert len(model.trace.loglik) == iterations + 1
        # one (slot, value) holds the features of many classes, whose
        # expected counts the first pass sums once and copies
        assert max(Counter((slot, value) for slot, value, _ in model.weights).values()) >= 8

    @pytest.mark.parametrize("arity", [255, 256, 300])
    def test_wide_vectors_match_the_reference(self, arity):
        # a vector counts up to one feature per slot and class, so the
        # constant reaches the arity, past what a byte holds
        r = datagen.rng(59_000 + arity)
        data = dataset([([r.choice("ab") for _ in range(arity)], r.choice(("B-NP", "I-NP", "O")))
                        for _ in range(12)])
        model = train_maxent(data, iterations=3, cutoff=1)
        assert model.constant == arity
        assert maxent_output(model) == maxent_output(reference_train_maxent(data, 3, cutoff=1))

    @pytest.mark.parametrize("iterations", [1, 2, 25])
    @pytest.mark.parametrize("sigma", [None, 0.5])
    def test_a_cutoff_that_drops_every_feature_leaves_the_correction_alone(self, iterations, sigma):
        data = self.five_type_dataset(False)
        model = train_maxent(data, iterations=iterations, sigma=sigma, cutoff=len(data.items) + 1)
        expected = reference_train_maxent(data, iterations=iterations, sigma=sigma,
                                          cutoff=len(data.items) + 1)
        assert maxent_output(model) == maxent_output(expected)
        assert not model.weights and model.constant == 1
        majority = pick_best(dict.fromkeys(model.classes, 0.0), model.class_counts)
        assert majority == max(data.class_counts().items(), key=itemgetter(1))[0]
        assert {predict_maxent(model, vector) for vector, _ in data.items} == {majority}


class TestMaxEntDeferredTrace:
    """The trace's last entry, one scores-only pass over the training
    layout, is computed when ``loglik`` is first read."""

    @staticmethod
    def passes(monkeypatch):
        """A list that grows by one for each vector a scored pass visits."""
        calls = []
        sum_in_order = chunkvote.learners._sum_in_order
        monkeypatch.setattr(chunkvote.learners, "_sum_in_order",
                            lambda values: calls.append(1) or sum_in_order(values))
        return calls

    @pytest.mark.parametrize("iterations", [1, 3])
    def test_the_last_entry_is_computed_once_on_first_read(self, monkeypatch, iterations):
        data = TestMaxEntReference.five_type_dataset(False)
        distinct = len(set(vector for vector, _ in data.items))
        calls = self.passes(monkeypatch)
        model = train_maxent(data, iterations=iterations, cutoff=1)
        trace = model.trace
        # a scored pass per iteration after the first, none for the trace
        assert len(calls) == (iterations - 1) * distinct
        assert "loglik" not in vars(trace) and trace.iterations == iterations
        text = dumps_model(model)
        for vector, _ in data.items:
            predict_maxent(model, vector)
        assert repr(model) and "loglik" not in vars(trace)
        del calls[:]
        loglik = trace.loglik
        assert len(calls) == distinct
        assert trace.loglik is loglik and len(calls) == distinct
        assert loglik == reference_train_maxent(data, iterations=iterations, cutoff=1).trace.loglik
        assert dumps_model(model) == text

    def test_a_read_trace_holds_no_training_data(self):
        data = TestMaxEntReference.five_type_dataset(True)
        trace = train_maxent(data, iterations=2, cutoff=1).trace
        assert trace.loglik
        assert set(vars(trace)) == {"loglik", "iterations"}
        # everything the trace still reaches: itself, its dict, the tuple and numbers
        seen, todo = {id(trace)}, [trace]
        while todo:
            for obj in gc.get_referents(todo.pop()):
                if id(obj) not in seen and not isinstance(obj, type):
                    seen.add(id(obj))
                    todo.append(obj)
                    assert isinstance(obj, (dict, tuple, float, int, str)), type(obj)
        assert len(seen) < 2 * len(trace.loglik) + 8

    def test_cv_tuning_table_never_runs_the_pass(self, monkeypatch, tiny_corpus):
        traces = []
        fit = LearnerSpec.fit

        def spy(spec, data):
            model = fit(spec, data)
            traces.append(model.trace)
            return model

        monkeypatch.setattr(LearnerSpec, "fit", spy)
        calls = self.passes(monkeypatch)
        cv_tuning_table(tiny_corpus, [LearnerSpec("ent", "maxent", iterations=1)], folds=2)
        assert len(traces) == 2 and not calls
        assert all("loglik" not in vars(trace) for trace in traces)


class TestRules:
    def test_refinement_adds_the_best_premise(self):
        data = dataset([
            (["a", "x"], "X"), (["a", "x"], "X"), (["a", "y"], "Y"),
            (["b", "x"], "Y"),
        ])
        model = train_rules(data, threshold=0.95)
        by_focus_value = {rule.premises[0][1]: rule for rule in model.rules}
        refined = by_focus_value["a"]
        assert refined.premises == ((0, "a"), (1, "x"))
        assert refined.conclusion == "X"
        assert refined.accuracy == pytest.approx(1.0)
        assert refined.support == 2
        plain = by_focus_value["b"]
        assert plain.premises == ((0, "b"),)
        assert plain.conclusion == "Y"
        assert plain.support == 1

    def test_most_specific_rules_match_first(self):
        data = dataset([
            (["a", "x"], "X"), (["a", "x"], "X"), (["a", "y"], "Y"),
            (["b", "x"], "Y"),
        ])
        model = train_rules(data, threshold=0.95)
        assert [len(r.premises) for r in model.rules] == sorted(
            (len(r.premises) for r in model.rules), reverse=True
        )
        assert predict_rules(model, ("a", "x")) == "X"
        assert predict_rules(model, ("b", "q")) == "Y"

    def test_unmatched_vectors_fall_through_to_the_default(self):
        data = dataset([
            (["a", "x"], "X"), (["a", "x"], "X"), (["a", "y"], "Y"),
            (["b", "x"], "Y"),
        ])
        model = train_rules(data, threshold=0.95)
        # ("a", "y") matches no rule: the refined rule for focus "a"
        # requires context "x" and the other rule requires focus "b"
        assert model.default_class == "X"
        assert predict_rules(model, ("a", "y")) == "X"

    def test_chunk_tag_premises_beat_pos_and_word_premises(self):
        data = dataset(
            [
                (["u", "P", "B"], "X"), (["u", "P", "B"], "X"),
                (["v", "P", "C"], "Y"),
            ],
            slot_names=("w[+0]", "p[+0]", "t[-1]"),
        )
        model = train_rules(data, threshold=0.95)
        rule = model.rules[0]
        assert rule.premises[0] == (1, "P")
        assert rule.premises[1][0] == 2

    def test_focus_defaults_to_the_focus_pos_slot(self):
        data = dataset(
            [(["u", "P", "B"], "X"), (["v", "Q", "C"], "Y")],
            slot_names=("w[+0]", "p[+0]", "t[-1]"),
        )
        model = train_rules(data)
        assert all(rule.premises[0][0] == 1 for rule in model.rules)

    @pytest.mark.parametrize("seed", range(15))
    def test_stored_accuracy_and_support_describe_the_training_data(self, seed):
        r = datagen.rng(13_000 + seed)
        data = random_dataset(r, r.randint(2, 40), 3)
        threshold = r.choice((0.6, 0.8, 0.95, 1.0))
        model = train_rules(data, threshold=threshold)
        for rule in model.rules:
            covered = [
                (vector, label)
                for vector, label in data.items
                if rule.matches(vector)
            ]
            assert len(covered) == rule.support
            hits = sum(1 for _, label in covered if label == rule.conclusion)
            assert hits / len(covered) == pytest.approx(rule.accuracy)

    @pytest.mark.parametrize("seed", range(15))
    def test_one_rule_per_focus_value(self, seed):
        r = datagen.rng(14_000 + seed)
        data = random_dataset(r, r.randint(2, 40), 3)
        model = train_rules(data, threshold=0.9)
        focus_values = {vector[0] for vector, _ in data.items}
        assert {rule.premises[0][1] for rule in model.rules} == focus_values
        assert len(model.rules) == len(focus_values)

    def test_validation(self):
        data = dataset([(["a"], "X")])
        with pytest.raises(ConfigError):
            train_rules(data, threshold=0.0)
        with pytest.raises(ConfigError):
            train_rules(data, threshold=1.5)
        with pytest.raises(ValidationError, match="focus slot"):
            train_rules(Dataset((((), "X"),), ()))
        with pytest.raises(TrainingError):
            train_rules(Dataset((), ("s0",)))
        model = train_rules(data)
        with pytest.raises(ValidationError):
            predict_rules(model, ("a", "b"))


RULE_VALUES = ("a", "b", "c")
RULE_TAGS = ("B-NP", "I-NP", "O")


def random_rule_set(r, arity):
    """Rules with premise-less ones, first premises on several slots,
    duplicates, and rules no vector reaches (contradictory premises, or
    shadowed by an earlier rule)."""
    rules = []
    for _ in range(r.randint(0, 25)):
        roll = r.random()
        if rules and roll < 0.1:
            rules.append(r.choice(rules))
            continue
        slots = [] if roll < 0.2 else r.sample(range(arity), r.randint(1, min(3, arity)))
        premises = [(slot, r.choice(RULE_VALUES)) for slot in slots]
        if premises and roll > 0.9:
            slot, value = premises[0]
            premises.append((slot, "b" if value == "a" else "a"))
        rules.append(Rule(tuple(premises), r.choice(RULE_TAGS), r.random(), r.randint(1, 9)))
    return RuleSetModel(tuple(rules), r.choice(RULE_TAGS), dict.fromkeys(RULE_TAGS, 1),
                        tuple(f"s{i}" for i in range(arity)))


def rule_queries(r, arity, values, count=60):
    """Vectors over ``values`` and the value ``zz`` that no rule names."""
    return [tuple(r.choice((*values, "zz")) for _ in range(arity)) for _ in range(count)] + [
        ("zz",) * arity]


class TestRuleIndex:
    """``predict_rules`` tries only the rules its first-premise index selects."""

    @pytest.mark.parametrize("seed", range(40))
    def test_random_rule_sets_answer_as_the_linear_scan(self, seed):
        r = datagen.rng(62_000 + seed)
        arity = r.randint(1, 5)
        model = random_rule_set(r, arity)
        loaded = loads_model(dumps_model(model))
        assert loaded == model
        for vector in rule_queries(r, arity, RULE_VALUES):
            expected = oracle_rules(model, vector)
            assert predict_rules(model, vector) == expected
            assert predict_rules(loaded, vector) == expected

    @pytest.mark.parametrize("seed", range(15))
    def test_trained_rules_answer_as_the_linear_scan(self, seed):
        r = datagen.rng(63_000 + seed)
        arity = r.randint(1, 4)
        model = train_rules(random_dataset(r, r.randint(2, 60), arity),
                            threshold=r.choice((0.6, 0.8, 0.95, 1.0)))
        queries = rule_queries(r, arity, ("a", "b", "c", "d"))
        for vector in queries:
            assert predict_rules(model, vector) == oracle_rules(model, vector)
        # every rule opens with focus slot 0, so a "zz" there reaches the default
        assert predict_rules(model, queries[-1]) == model.default_class

    def test_the_index_is_not_part_of_the_record(self):
        r = datagen.rng(64_000)
        model = train_rules(random_dataset(r, 40, 3, labels=RULE_TAGS))
        text = dumps_model(model)
        copy, before = loads_model(text), repr(model)
        with pytest.raises(ValidationError, match="arity"):
            predict_rules(model, ("a", "b", "c", "d"))
        assert "index" not in vars(model)  # the arity check comes before any lookup
        predict_rules(model, ("a", "b", "c"))
        assert "index" in vars(model) and "index" not in vars(copy)
        assert model == copy and copy == model
        assert repr(model) == before and dumps_model(model) == text
        # Its class counts are a dict, so a model has no hash, index or not;
        # its rules do, and the index leaves them alone.
        with pytest.raises(TypeError):
            hash(model)
        assert hash(model.rules) == hash(copy.rules)
        with pytest.raises(ValidationError, match="arity"):
            predict_rules(model, ("a",))

    def test_a_prediction_tries_only_the_rules_it_selects(self, monkeypatch):
        tags = ("B-NP", "I-NP", "O")
        rules = [Rule(((0, f"P{i}"), (1, f"P{i % 7}")), tags[i % 3], 1.0, 1) for i in range(200)]
        rules.insert(150, Rule((), "O", 0.5, 3))
        model = loads_model(dumps_model(RuleSetModel(
            tuple(rules), "O", dict.fromkeys(tags, 1), ("p[+0]", "p[-1]", "t[-1]"))))
        calls = []
        matches = Rule.matches
        monkeypatch.setattr(Rule, "matches", lambda rule, vector: calls.append(rule) or matches(rule, vector))
        r = datagen.rng(64_500)
        for _ in range(300):
            vector = (f"P{r.randrange(210)}", f"P{r.randrange(9)}", r.choice(tags))
            calls.clear()
            assert predict_rules(model, vector) == oracle_rules(model, vector)
            candidates = [rule for rule in model.rules
                          if not rule.premises or vector[rule.premises[0][0]] == rule.premises[0][1]]
            assert len(calls) <= len(candidates) <= 2


class TestTagSentence:
    @pytest.mark.parametrize("model_class, predict", [
        (KnnModel, predict_knn), (IGTreeModel, predict_igtree),
        (MaxEntModel, predict_maxent), (RuleSetModel, predict_rules),
    ])
    def test_predict_is_the_kinds_function(self, model_class, predict):
        # tag_sentence calls model.predict: one call per token, no forwarding method
        assert model_class.predict is predict

    def test_baseline_ignores_the_window(self, tiny_corpus):
        model = train_baseline(tiny_corpus)
        sentence = make_untagged([("the", "DT"), ("dog", "NN")])
        assert tag_sentence(model, sentence) == ["B-NP", "I-NP"]

    def test_previous_decisions_feed_the_next_one(self):
        window = WindowConfig(
            left_words=0, right_words=0, use_focus_word=False,
            left_pos=0, right_pos=0, left_chunk_tags=1,
        )
        assert window.slot_names() == ("p[+0]", "t[-1]")
        data = Dataset(
            ((("A", PAD), "B-NP"), (("A", "B-NP"), "I-NP")),
            ("p[+0]", "t[-1]"),
        )
        model = knn_model(data, k=1, weights=(1.0, 1.0), window=window)
        sentence = make_untagged([("x", "A"), ("y", "A"), ("z", "A")])
        assert tag_sentence(model, sentence) == ["B-NP", "I-NP", "B-NP"]

    def test_model_without_a_window_cannot_tag(self, tiny_corpus):
        bare = train_knn(corpus_to_dataset(tiny_corpus, WindowConfig()), k=1)
        assert bare.window is None
        sentence = tiny_corpus.sentences[0]
        with pytest.raises(ConfigError):
            tag_sentence(bare, make_untagged([(t.word, t.pos) for t in sentence.tokens]))

    @pytest.mark.parametrize("learner", ["knn", "igtree"])
    def test_memorising_learners_reproduce_unambiguous_training_data(
        self, learner, tiny_corpus
    ):
        window = WindowConfig()
        data = corpus_to_dataset(tiny_corpus, window)
        by_vector = {}
        for vector, label in data.items:
            assert by_vector.setdefault(vector, label) == label
        if learner == "knn":
            model = train_knn(data, k=1, window=window)
        else:
            model = train_igtree(data, window=window)
        for sentence in tiny_corpus.sentences:
            bare = make_untagged([(t.word, t.pos) for t in sentence.tokens])
            assert tag_sentence(model, bare) == list(sentence.chunk_tags)


class TestLearnerSpec:
    def test_learner_kinds(self):
        assert LEARNER_KINDS == ("baseline", "knn", "igtree", "maxent", "rules")

    def test_validation(self):
        with pytest.raises(ConfigError):
            LearnerSpec("bad name", "knn")
        with pytest.raises(ConfigError):
            LearnerSpec("", "knn")
        with pytest.raises(ConfigError):
            LearnerSpec("sys", "svm")
        with pytest.raises(ConfigError):
            LearnerSpec("sys", "knn", io_encoding=True)
        LearnerSpec("sys", "rules", io_encoding=True)
        with pytest.raises(TypeError, match="unexpected keyword argument 'depth'"):
            LearnerSpec("sys", "igtree", depth=3)
        with pytest.raises(TypeError):
            LearnerSpec("sys", "knn", None, 1)  # options are keywords

    def test_option_defaults(self):
        # maxent's 10 iterations: the fewest within 0.05 F of the best of
        # 5, 10, 20 and 40 on two 211k-token generated corpora.
        assert LearnerSpec.OPTIONS == {
            "window": None, "k": 3, "iterations": 10, "sigma": None, "cutoff": 2,
            "threshold": 0.95, "weighting": "gain_ratio", "io_encoding": False,
        }
        spec = LearnerSpec("sys", "maxent")
        assert (spec.name, spec.learner, spec.iterations, spec.window) == ("sys", "maxent", 10, None)

    # a non-default value for each option
    OPTION_VALUES = {"window": WindowConfig(left_words=1), "k": 1, "iterations": 5, "sigma": 1.0, "cutoff": 1, "threshold": 0.5,
                     "weighting": "information_gain", "io_encoding": True}
    OPTIONS_READ = {
        "baseline": {"io_encoding"},
        "knn": {"window", "k", "weighting"},
        "igtree": {"window", "weighting"},
        "maxent": {"window", "iterations", "sigma", "cutoff"},
        "rules": {"window", "threshold", "io_encoding"},
    }

    @pytest.mark.parametrize("learner", LEARNER_KINDS)
    def test_options_the_learner_ignores_are_rejected(self, learner):
        for option, value in self.OPTION_VALUES.items():
            if option in self.OPTIONS_READ[learner]:
                assert getattr(LearnerSpec("sys", learner, **{option: value}), option) == value
            else:
                with pytest.raises(ConfigError, match=f"{learner} learner does not use {option}"):
                    LearnerSpec("sys", learner, **{option: value})

    def test_a_trainer_defaults_an_option_as_the_spec_does(self):
        """Training through a spec and calling the trainer agree on every
        option the call leaves out, or the trainer requires it."""
        defaults = LearnerSpec.OPTIONS
        for trainer, _, _ in chunkvote.learners._LEARNERS.values():
            for name, parameter in inspect.signature(trainer).parameters.items():
                if name in defaults and parameter.default is not parameter.empty:
                    assert parameter.default == defaults[name], f"{trainer.__name__} {name}"

    # Options out of range, some two at once, so that the first is named.
    @pytest.mark.parametrize("learner, options", [
        ("knn", {"k": 0}),
        ("knn", {"k": 0, "weighting": "nonsense"}),
        ("igtree", {"weighting": "nonsense"}),
        ("maxent", {"iterations": 0, "cutoff": 0}),
        ("maxent", {"sigma": -1.0, "cutoff": 0}),
        ("maxent", {"sigma": 1e-162}),
        ("rules", {"threshold": 0.0}),
    ])
    def test_train_rejects_a_bad_option_before_featurizing(self, tiny_corpus, monkeypatch,
                                                           learner, options):
        spec = LearnerSpec("sys", learner, **options)
        with pytest.raises(ConfigError) as want:  # the trainer's own check
            spec.fit(corpus_to_dataset(tiny_corpus, spec.resolved_window()))

        def fail(*args):
            raise AssertionError("featurized or fitted")

        monkeypatch.setattr(LearnerSpec, "featurize", fail)
        monkeypatch.setattr(LearnerSpec, "fit", fail)
        with pytest.raises(ConfigError) as got:
            spec.train(tiny_corpus)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("learner", LEARNER_KINDS)
    def test_options_at_their_defaults_are_accepted(self, learner):
        options = {option: LearnerSpec.OPTIONS[option] for option in self.OPTION_VALUES}
        assert LearnerSpec("sys", learner, **options) == LearnerSpec("sys", learner)

    def test_window_resolution(self):
        assert LearnerSpec("a", "knn").resolved_window() == WindowConfig()
        assert LearnerSpec("a", "maxent").resolved_window() == MAXENT_WINDOW
        custom = WindowConfig(left_words=1)
        assert LearnerSpec("a", "maxent", window=custom).resolved_window() == custom
        assert LearnerSpec("a", "baseline").resolved_window() == BASELINE_WINDOW
        with pytest.raises(ConfigError, match="baseline learner does not use window"):
            LearnerSpec("a", "baseline", window=custom)

    def test_train_dispatch(self, tiny_corpus):
        cases = {
            "baseline": IGTreeModel,
            "knn": KnnModel,
            "igtree": IGTreeModel,
            "rules": RuleSetModel,
        }
        for learner, cls in cases.items():
            model = LearnerSpec(learner, learner).train(tiny_corpus)
            assert isinstance(model, cls)
        maxent = LearnerSpec("me", "maxent", iterations=3).train(tiny_corpus)
        assert isinstance(maxent, MaxEntModel)
        assert maxent.window == MAXENT_WINDOW

    @pytest.mark.parametrize("learner, options", [("igtree", {}), ("rules", {"io_encoding": True})])
    def test_train_frees_a_temporary_corpus_before_fit(self, tiny_corpus, monkeypatch, learner, options):
        class Spied(Corpus):
            """A corpus that can be weakly referenced, which a slotted one cannot."""

        refs, alive = [], []
        featurize, fit = LearnerSpec.featurize, LearnerSpec.fit
        monkeypatch.setattr(LearnerSpec, "featurize",
                            lambda spec, corpus: refs.append(weakref.ref(corpus)) or featurize(spec, corpus))
        monkeypatch.setattr(LearnerSpec, "fit",
                            lambda spec, data: alive.append(refs[0]() is not None) or fit(spec, data))
        LearnerSpec("sys", learner, **options).train(Spied(tiny_corpus.sentences, tiny_corpus.scheme))
        assert alive == [False]

    def test_trained_models_carry_their_window(self, tiny_corpus):
        model = LearnerSpec("sys", "knn", k=1).train(tiny_corpus)
        assert model.window == WindowConfig()
        assert model.k == 1

    # sha256 of the model file of each spec trained on ``pinned_corpus``.
    PINNED_SPECS = [
        ("baseline", {}, "652be9a7553f3649a5306dba67a996cb868769a962d14b6615fe63b1b14cf97b"),
        ("baseline", {"io_encoding": True},
         "288cf1c54dc269491845ad65a300f60e6dd19b15d9e5c62f548b4adf41620555"),
        ("knn", {}, "b660fa8125f8e329fd8a1f8caa49f21ab6e087758f2a238c9b159c6b2c0898d1"),
        ("knn", {"k": 1, "weighting": "information_gain"},
         "21759f922bd72fccd114f8b0f64e1479c715a532f713680b928c9a9eab178903"),
        ("knn", {"window": WindowConfig(left_words=1, right_words=0, complex_pairs=True)},
         "fc2655591082e07dcada95b424f6ba08783da236ef20c9ad9e663255841f6fc8"),
        ("igtree", {}, "ff1ee5d2f1e08be007b0edb791f018e12dd13812da7a07b75c077e26875f9545"),
        ("igtree", {"weighting": "information_gain"},
         "d21c292406b757c7b85e97b9ba3159491a37073e678b5e2fd89dd2ce93a844e8"),
        ("maxent", {"iterations": 3, "sigma": 1.0, "cutoff": 1},
         "3041bc6983d8b73725b75d360bc1d49002fba8040afbccb0b41bdac2ecda630b"),
        ("rules", {}, "d90bc360bb8e45ee35b06179153bae70d38b6a6c384c821a6e73c3d570f64b62"),
        ("rules", {"threshold": 0.8, "io_encoding": True},
         "a239eb59e71f826db3017b4cbd07a0be146a519f87defeba6483808aa3bf776a"),
    ]

    @pytest.mark.parametrize("learner, options, digest", PINNED_SPECS)
    def test_model_files_are_pinned(self, learner, options, digest):
        model = LearnerSpec("sys", learner, **options).train(pinned_corpus())
        assert hashlib.sha256(dumps_model(model).encode()).hexdigest() == digest

    def test_default_k(self):
        assert LearnerSpec("sys", "knn").k == 3

    def test_io_encoding_spec_trains_on_io_tags(self, tiny_corpus):
        model = LearnerSpec("sys", "rules", io_encoding=True).train(tiny_corpus)
        conclusions = {rule.conclusion for rule in model.rules}
        assert all(not c.startswith("B-") for c in conclusions)
