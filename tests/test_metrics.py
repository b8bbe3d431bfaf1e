import math

import pytest

from chunkvote import (
    AlignmentError,
    ChunkSpan,
    ConfigError,
    Corpus,
    Counts,
    EvalReport,
    NestedSentence,
    Sentence,
    TagScheme,
    Token,
    ValidationError,
    extract_chunks,
    f_beta,
    format_report,
    format_report_kv,
    score_chunks,
    score_nested,
    score_tagged,
)

import datagen
from conftest import make_sentence
from oracles import oracle_chunks, oracle_f, oracle_score


def spans(*triples):
    return [ChunkSpan(b, e, label) for b, e, label in triples]


class TestFBeta:
    def test_zero_when_nothing_found_or_wanted(self):
        assert f_beta(0.0, 0.0) == 0.0
        assert f_beta(0.0, 0.0, beta=2.0) == 0.0

    def test_equal_rates_are_a_fixed_point(self):
        assert f_beta(0.8, 0.8) == pytest.approx(0.8)
        assert f_beta(0.8, 0.8, beta=3.0) == pytest.approx(0.8)

    def test_hand_values(self):
        assert f_beta(0.25, 0.75) == pytest.approx(0.375)
        assert f_beta(0.5, 1.0) == pytest.approx(2.0 / 3.0)
        assert f_beta(0.5, 1.0, beta=2.0) == pytest.approx(2.5 / 3.0)
        assert f_beta(0.5, 1.0, beta=0.5) == pytest.approx(0.625 / 1.125)

    @pytest.mark.parametrize("seed", range(10))
    def test_scale_and_swap_properties(self, seed):
        r = datagen.rng(seed)
        for _ in range(50):
            p, rec = r.random(), r.random()
            beta = r.uniform(0.1, 4.0)
            assert f_beta(100 * p, 100 * rec, beta) == pytest.approx(
                100 * f_beta(p, rec, beta)
            )
            assert f_beta(p, rec, beta) == pytest.approx(
                f_beta(rec, p, 1.0 / beta)
            )
            assert f_beta(p, rec, beta) == pytest.approx(oracle_f(p, rec, beta))

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf, -1.0, 1e160, 1e200])
    def test_beta_is_checked_as_score_chunks_checks_it(self, beta):
        with pytest.raises(ConfigError, match="beta must be a finite number >= 0"):
            f_beta(0.5, 0.5, beta)
        with pytest.raises(ConfigError, match="beta must be a finite number >= 0"):
            f_beta(0.0, 0.0, beta)
        with pytest.raises(ConfigError, match="beta must be a finite number >= 0"):
            Counts(found=4, gold=5, correct=3).f(beta)
        with pytest.raises(ConfigError, match="beta must be a finite number >= 0"):
            EvalReport(Counts(found=4, gold=5, correct=3), beta=beta).f_rate

    def test_beta_one_is_the_harmonic_mean(self):
        p, rec = 0.9404, 0.9100
        assert f_beta(p, rec) == pytest.approx(2 * p * rec / (p + rec))


class TestCounts:
    def test_rates_guard_division_by_zero(self):
        c = Counts()
        assert c.precision == 0.0
        assert c.recall == 0.0
        assert c.f() == 0.0

    def test_rates(self):
        c = Counts(found=4, gold=5, correct=3)
        assert c.precision == pytest.approx(0.75)
        assert c.recall == pytest.approx(0.6)
        assert c.f() == pytest.approx(f_beta(0.75, 0.6))


class TestScoreChunks:
    def test_exact_matching_only(self):
        gold = [spans((0, 2, "NP"), (2, 3, "VP"))]
        pred = [spans((0, 2, "NP"), (2, 4, "VP"))]
        report = score_chunks(gold, pred)
        assert report.overall == Counts(found=2, gold=2, correct=1)
        assert report.per_label["NP"] == Counts(1, 1, 1)
        assert report.per_label["VP"] == Counts(1, 1, 0)

    def test_each_gold_span_matches_at_most_once(self):
        gold = [spans((0, 2, "NP"), (0, 2, "NP"))]
        assert score_chunks(gold, [spans((0, 2, "NP"))]).overall.correct == 1
        triple = [spans((0, 2, "NP"), (0, 2, "NP"), (0, 2, "NP"))]
        report = score_chunks(gold, triple)
        assert report.overall == Counts(found=3, gold=2, correct=2)

    def test_matching_is_per_sentence(self):
        gold = [spans((0, 2, "NP")), []]
        pred = [[], spans((0, 2, "NP"))]
        assert score_chunks(gold, pred).overall.correct == 0

    def test_per_label_is_sorted_and_sums_to_overall(self):
        gold = [spans((0, 1, "VP"), (1, 2, "NP"), (2, 3, "PP"))]
        pred = [spans((0, 1, "VP"), (1, 2, "PP"))]
        report = score_chunks(gold, pred)
        assert list(report.per_label) == ["NP", "PP", "VP"]
        assert report.overall.found == sum(c.found for c in report.per_label.values())
        assert report.overall.gold == sum(c.gold for c in report.per_label.values())
        assert report.overall.correct == sum(c.correct for c in report.per_label.values())

    def test_sentence_count_mismatch(self):
        with pytest.raises(AlignmentError):
            score_chunks([[]], [[], []])

    def test_beta_is_carried_into_the_report(self):
        report = score_chunks([spans((0, 1, "NP"))], [[]], beta=2.0)
        assert report.beta == 2.0
        assert report.f_rate == 0.0

    # 1e160 and 1e200 are finite, but their squares are not.
    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf, -1.0, 1e160, 1e200])
    def test_beta_must_be_finite_and_non_negative(self, beta):
        with pytest.raises(ConfigError, match="beta"):
            score_chunks([spans((0, 1, "NP"))], [[]], beta=beta)

    def test_beta_zero_scores_precision_only(self):
        report = score_chunks([spans((0, 1, "NP"), (2, 3, "NP"))], [spans((0, 1, "NP"))], beta=0.0)
        assert report.f_rate == report.overall.precision == 1.0

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_oracle_on_random_pairs(self, seed):
        r = datagen.rng(5000 + seed)
        gold = []
        pred = []
        for _ in range(15):
            length = r.randint(0, 12)
            gold.append(datagen.random_spans(r, length))
            pred.append(datagen.random_spans(r, length))
        report = score_chunks(gold, pred)
        overall, per_label = oracle_score(gold, pred)
        assert report.overall == Counts(**overall)
        assert {k: (v.found, v.gold, v.correct) for k, v in report.per_label.items()} == {
            k: (v["found"], v["gold"], v["correct"]) for k, v in per_label.items()
        }

    @pytest.mark.parametrize("seed", range(10))
    def test_swapping_sides_swaps_precision_and_recall(self, seed):
        r = datagen.rng(6000 + seed)
        gold = [datagen.random_spans(r, r.randint(0, 10)) for _ in range(10)]
        pred = [datagen.random_spans(r, r.randint(0, 10)) for _ in range(10)]
        forward = score_chunks(gold, pred)
        backward = score_chunks(pred, gold)
        assert forward.overall.precision == backward.overall.recall
        assert forward.overall.recall == backward.overall.precision
        assert forward.overall.correct == backward.overall.correct


class TestScoreTagged:
    def corpus(self, *tag_rows):
        sentences = []
        for tags in tag_rows:
            sentences.append(
                make_sentence([(f"w{i}", "NN", t) for i, t in enumerate(tags)])
            )
        return Corpus(tuple(sentences), TagScheme.IOB2)

    def test_agrees_with_span_scoring(self):
        gold = self.corpus(["B-NP", "I-NP", "O", "B-VP"])
        pred = self.corpus(["B-NP", "O", "O", "B-VP"])
        report = score_tagged(gold, pred)
        direct = score_chunks(
            [extract_chunks(s.chunk_tags) for s in gold.sentences],
            [extract_chunks(s.chunk_tags) for s in pred.sentences],
        )
        assert report == direct
        assert report.overall == Counts(found=2, gold=2, correct=1)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_the_oracle_on_tag_soup(self, seed):
        r = datagen.rng(5_500 + seed)
        lengths = [r.randint(1, 12) for _ in range(15)]
        gold = self.corpus(*(datagen.random_raw_tags(r, n) for n in lengths))
        pred = self.corpus(*(datagen.random_raw_tags(r, n) for n in lengths))
        report = score_tagged(gold, pred)
        overall, per_label = oracle_score([oracle_chunks(s.chunk_tags) for s in gold.sentences],
                                          [oracle_chunks(s.chunk_tags) for s in pred.sentences])
        assert report.overall == Counts(**overall)
        assert {k: (v.found, v.gold, v.correct) for k, v in report.per_label.items()} == {
            k: (v["found"], v["gold"], v["correct"]) for k, v in per_label.items()
        }

    def test_broken_prediction_tags_are_repaired(self):
        gold = self.corpus(["B-NP", "I-NP"])
        pred = self.corpus(["I-NP", "I-NP"])
        assert score_tagged(gold, pred).overall.correct == 1

    def test_word_mismatch_is_reported_with_position(self):
        gold = Corpus((make_sentence([("the", "DT", "O"), ("dog", "NN", "O")]),), TagScheme.IOB2)
        pred = Corpus((make_sentence([("the", "DT", "O"), ("cat", "NN", "O")]),), TagScheme.IOB2)
        with pytest.raises(AlignmentError, match="sentence 1, token 2"):
            score_tagged(gold, pred)

    def test_placeholder_word_matches_anything(self):
        gold = Corpus((make_sentence([("dog", "NN", "B-NP")]),), TagScheme.IOB2)
        pred = Corpus((make_sentence([("_", "NN", "B-NP")]),), TagScheme.IOB2)
        assert score_tagged(gold, pred).overall.correct == 1
        assert score_tagged(pred, gold).overall.correct == 1

    def test_length_and_count_mismatches(self):
        one = self.corpus(["O"])
        two = self.corpus(["O", "O"])
        with pytest.raises(AlignmentError, match="sentence 1"):
            score_tagged(one, two)
        with pytest.raises(AlignmentError):
            score_tagged(one, self.corpus(["O"], ["O"]))

    def test_untagged_tokens_are_rejected(self):
        gold = self.corpus(["B-NP"])
        bare = Corpus((make_sentence([("w0", "NN", None)]),), TagScheme.IOB2)
        with pytest.raises(ValidationError, match="predicted side"):
            score_tagged(gold, bare)
        with pytest.raises(ValidationError, match="gold side"):
            score_tagged(bare, gold)


class TestScoreNested:
    def test_multiset_matching(self, money_example):
        missing_wrap = NestedSentence(
            money_example.sentence,
            spans((0, 2, "NP"), (2, 4, "NP")),
        )
        report = score_nested([money_example], [missing_wrap])
        assert report.overall == Counts(found=2, gold=3, correct=2)
        assert report.overall.precision == pytest.approx(1.0)
        assert report.overall.recall == pytest.approx(2.0 / 3.0)

    def test_duplicate_spans_need_duplicate_matches(self):
        tokens = (Token("a", "DT"), Token("b", "NN"))
        twice = NestedSentence(tokens, spans((0, 2, "NP"), (0, 2, "NP")))
        once = NestedSentence(tokens, spans((0, 2, "NP")))
        assert score_nested([twice], [once]).overall == Counts(1, 2, 1)
        assert score_nested([twice], [twice]).overall == Counts(2, 2, 2)

    def test_token_checks(self, money_example):
        other = NestedSentence((Token("x", "NN"),), ())
        with pytest.raises(AlignmentError, match="tokens"):
            score_nested([money_example], [other])
        with pytest.raises(AlignmentError):
            score_nested([money_example], [])
        renamed = NestedSentence(
            (Token("different", "IN"),) + money_example.sentence.tokens[1:],
            money_example.spans,
        )
        with pytest.raises(AlignmentError, match="token 1"):
            score_nested([money_example], [renamed])


def flat_corpus(*sentences):
    return Corpus(
        tuple(make_sentence([(w, "NN", "O") for w in words]) for words in sentences),
        TagScheme.IOB2,
    )


def nested_sentences(*sentences):
    return [NestedSentence(tuple(Token(w, "NN") for w in words), ()) for words in sentences]


class TestAlignment:
    @pytest.mark.parametrize("gold, pred, message", [
        ([["a"]], [["a"], ["b"]], "gold has 1 sentences, predictions have 2"),
        ([["a"], ["a", "b"]], [["a"], ["a"]], "sentence 2: 2 gold tokens vs 1 predicted"),
        ([["a"], ["a", "dog"]], [["a"], ["a", "cat"]], "sentence 2, token 2: word 'dog' vs 'cat'"),
    ])
    @pytest.mark.parametrize("score, build", [
        (score_tagged, flat_corpus), (score_nested, nested_sentences),
    ], ids=["tagged", "nested"])
    def test_both_scorers_give_the_same_messages(self, score, build, gold, pred, message):
        with pytest.raises(AlignmentError) as exc:
            score(build(*gold), build(*pred))
        assert str(exc.value) == message

    def test_sentences_are_checked_in_order(self):
        untagged = Corpus((make_sentence([("a", "NN", None)]), make_sentence([("b", "NN", "O")])),
                          TagScheme.IOB2)
        with pytest.raises(ValidationError, match="sentence 1: predicted side"):
            score_tagged(flat_corpus(["a"], ["c"]), untagged)


class TestReportFormatting:
    def report(self):
        gold = [spans((0, 2, "NP"), (2, 3, "VP"))]
        pred = [spans((0, 2, "NP"), (3, 4, "VP"))]
        return score_chunks(gold, pred)

    def test_format_report(self):
        assert format_report(self.report()) == (
            "NP: precision 100.00% recall 100.00% F 100.00\n"
            "VP: precision 0.00% recall 0.00% F 0.00\n"
            "overall: precision 50.00% recall 50.00% F 50.00\n"
        )

    def test_format_report_kv(self):
        text = format_report_kv(self.report())
        assert text == (
            "beta=1.0\n"
            "overall.found=2\n"
            "overall.gold=2\n"
            "overall.correct=1\n"
            "overall.precision=0.5\n"
            "overall.recall=0.5\n"
            "overall.f=0.5\n"
            "label.NP.found=1\n"
            "label.NP.gold=1\n"
            "label.NP.correct=1\n"
            "label.NP.precision=1.0\n"
            "label.NP.recall=1.0\n"
            "label.NP.f=1.0\n"
            "label.VP.found=1\n"
            "label.VP.gold=1\n"
            "label.VP.correct=0\n"
            "label.VP.precision=0.0\n"
            "label.VP.recall=0.0\n"
            "label.VP.f=0.0\n"
        )

    def test_report_properties(self):
        report = EvalReport(Counts(4, 5, 3), {}, beta=0.5)
        assert report.overall.precision == pytest.approx(0.75)
        assert report.overall.recall == pytest.approx(0.6)
        assert report.f_rate == pytest.approx(f_beta(0.75, 0.6, 0.5))
