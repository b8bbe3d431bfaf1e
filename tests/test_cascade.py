import functools
import hashlib
import os
import subprocess
import sys

import pytest

from chunkvote import (
    ChunkSpan,
    ConfigError,
    LearnerSpec,
    NestedSentence,
    TagScheme,
    Token,
    ValidationError,
    cascade_bracket,
    cascade_training_corpus,
    extract_chunks,
    parse_conll,
    parse_nested,
    properly_nested,
    scheme_violation,
    strip_tags,
    tag_sentence,
    with_tags,
    write_nested,
)
from chunkvote.cascade import HEAD_CHOICES, _collapse, _innermost_level
from chunkvote.cli import main
from chunkvote.corpus import _span_sort_key

import datagen
from conftest import make_sentence, make_untagged
from oracles import oracle_innermost_level, reference_cascade_bracket, reference_cascade_training_corpus


def span(begin, end, label="NP"):
    return ChunkSpan(begin, end, label)


def collapse(original, spans, head="last", ranges=None):
    """``_collapse`` from each position's (begin, end) range of original
    tokens, one token each by default; returns the collapsed sentence and
    its positions' ranges."""
    if ranges is None:
        ranges = [(i, i + 1) for i in range(len(original))]
    firsts = [begin for begin, _ in ranges]
    lasts = [end - 1 for _, end in ranges]
    level = [(s.begin, s.end, s.label) for s in spans]
    firsts, lasts, collapsed = _collapse(original, firsts, lasts, level, head)
    return collapsed, tuple((first, last + 1) for first, last in zip(firsts, lasts))


def plain(*word_pos):
    return make_untagged(list(word_pos))


FIVE = plain(("the", "DT"), ("big", "JJ"), ("dog", "NN"), ("sat", "VBD"), (".", "."))


def assert_partition(mapping, length):
    assert mapping[0][0] == 0
    assert mapping[-1][1] == length
    for (_, left_end), (right_begin, _) in zip(mapping, mapping[1:]):
        assert left_end == right_begin
    for begin, end in mapping:
        assert begin < end


class TestCollapse:
    def test_head_last_keeps_the_final_token(self):
        collapsed, mapping = collapse(FIVE, [span(0, 3)])
        assert collapsed.words == ("dog", "sat", ".")
        assert collapsed.pos_tags == ("NN", "VBD", ".")
        assert all(t.chunk_tag is None for t in collapsed.tokens)
        assert mapping == ((0, 3), (3, 4), (4, 5))

    def test_head_first_keeps_the_opening_token(self):
        collapsed, mapping = collapse(FIVE, [span(0, 3)], head="first")
        assert collapsed.words == ("the", "sat", ".")
        assert mapping == ((0, 3), (3, 4), (4, 5))

    def test_interior_span(self):
        collapsed, mapping = collapse(FIVE, [span(1, 3)])
        assert collapsed.words == ("the", "dog", "sat", ".")
        assert mapping == ((0, 1), (1, 3), (3, 4), (4, 5))

    def test_several_spans_and_a_tail(self):
        collapsed, mapping = collapse(FIVE, [span(0, 2), span(3, 4, "VP")])
        assert collapsed.words == ("big", "dog", "sat", ".")
        assert mapping == ((0, 2), (2, 3), (3, 4), (4, 5))

    def test_no_spans_is_the_identity(self):
        collapsed, mapping = collapse(FIVE, [])
        assert collapsed.words == FIVE.words
        assert mapping == tuple((i, i + 1) for i in range(len(FIVE)))

    def test_errors(self):
        # Spans come from the tagger's tags, so tags that do not fit the
        # sentence are rejected before they could fall outside it.
        for tags in (["B-NP"] * 6, ["B-NP", "I-NP"]):
            with pytest.raises(ValidationError, match=f"{len(tags)} tags for 5 tokens"):
                cascade_bracket(FIVE, lambda sentence: tags)

    @pytest.mark.parametrize("seed", range(15))
    def test_mapping_partitions_the_sentence(self, seed):
        r = datagen.rng(22_000 + seed)
        length = r.randint(1, 12)
        sentence = plain(*[(f"w{i}", "NN") for i in range(length)])
        spans = datagen.random_spans(r, length)
        collapsed, mapping = collapse(sentence, spans)
        assert len(mapping) == len(collapsed)
        assert_partition(mapping, length)


class TestMaps:
    def test_identity(self):
        # Before any collapse each position stands for its own token.
        tags = ["B-NP", "I-NP", "O", "I-VP", "B-PP"]
        got = cascade_bracket(FIVE, lambda sentence: tags, max_depth=1)
        assert got.spans == tuple(extract_chunks(tags))

    def test_compose(self):
        outer = ((0, 2), (2, 3), (3, 5))
        assert collapse(FIVE, [span(0, 2), span(3, 5)])[1] == outer
        assert collapse(FIVE, [span(0, 2)], ranges=outer)[1] == ((0, 3), (3, 5))

    def test_compose_with_identity(self):
        outer = ((0, 2), (2, 3), (3, 5))
        assert collapse(FIVE, [], ranges=outer)[1] == outer
        assert collapse(FIVE, [span(1, 2)], ranges=outer)[1] == outer

    def test_compose_bounds(self):
        # A later round's tags must fit the collapsed sentence, not the original.
        tagger = scripted([["B-NP", "I-NP", "O", "O", "O"], ["O"] * 5])
        with pytest.raises(ValidationError, match="5 tags for 4 tokens"):
            cascade_bracket(FIVE, tagger)

    def test_translate_span(self):
        # After round one the positions cover (0, 3), (3, 4) and (4, 5).
        tagger = scripted([["B-NP", "I-NP", "I-NP", "O", "O"], ["B-VP", "I-VP", "B-PP"]])
        got = cascade_bracket(FIVE, tagger)
        assert got.spans == (span(0, 4, "VP"), span(0, 3), span(4, 5, "PP"))
        assert tagger.calls == [5, 3, 2]

    def test_local_spans(self):
        # Each level is tagged in the positions of the sentence collapsed so far.
        tokens = plain(*[(f"w{i}", "NN") for i in range(6)]).tokens
        nested = NestedSentence(tokens, (span(0, 3), span(4, 6), span(3, 6, "VP"), span(0, 6, "PP")))
        corpus = cascade_training_corpus([nested])
        assert [s.chunk_tags for s in corpus.sentences] == [
            ("B-NP", "I-NP", "I-NP", "O", "B-NP", "I-NP"),
            ("O", "B-VP", "I-VP"),
            ("B-PP", "I-PP"),
            ("O",),
        ]
        assert [s.words for s in corpus.sentences[1:]] == [("w2", "w3", "w5"), ("w2", "w5"), ("w5",)]

    def test_local_spans_inverts_translate_span(self):
        # Every level's chunks, translated back through the collapsed
        # ranges, are the innermost of the spans not yet taken.
        r = datagen.rng(5)
        for _ in range(50):
            nested = datagen.random_nested_sentence(r, r.randint(1, 10), types=("NP", "PP"))
            nested = with_chains(r, nested)
            remaining = list(nested.spans)
            firsts = lasts = list(range(len(nested)))
            for level in cascade_training_corpus([nested]).sentences:
                local = extract_chunks(level.chunk_tags)
                want = oracle_innermost_level(remaining)
                assert [ChunkSpan(firsts[s.begin], lasts[s.end - 1] + 1, s.label) for s in local] == want
                for s in want:
                    remaining.remove(s)
                level = [(s.begin, s.end, s.label) for s in local]
                firsts, lasts, _ = _collapse(nested.sentence, firsts, lasts, level, "last")
            assert remaining == []

    @pytest.mark.parametrize("seed", range(10))
    def test_composed_maps_still_partition(self, seed):
        r = datagen.rng(23_000 + seed)
        length = r.randint(2, 14)
        sentence = plain(*[(f"w{i}", "NN") for i in range(length)])
        mapping = None
        for _ in range(3):
            inner_spans = datagen.random_spans(r, length if mapping is None else len(mapping))
            _, mapping = collapse(sentence, inner_spans, ranges=mapping)
            assert_partition(mapping, length)


def with_chains(r, nested):
    """``nested`` with a second span over some of its ranges, so that
    chains of spans sharing a range surface over several levels."""
    chains = [span(s.begin, s.end, r.choice(("NP", "PP", s.label)))
              for s in nested.spans if r.random() < 0.4]
    return NestedSentence(nested.sentence, nested.spans + tuple(chains))


class TestTrainingCorpus:
    def test_money_levels(self, money_example):
        corpus = cascade_training_corpus([money_example])
        assert corpus.scheme is TagScheme.IOB2
        assert len(corpus.sentences) == 3
        first, second, stop = corpus.sentences
        assert first.words == ("about", "25", "$", "million")
        assert first.chunk_tags == ("B-NP", "I-NP", "B-NP", "I-NP")
        assert second.words == ("25", "million")
        assert second.pos_tags == ("CD", "CD")
        assert second.chunk_tags == ("B-NP", "I-NP")
        assert stop.words == ("million",)
        assert stop.chunk_tags == ("O",)

    def test_head_first_changes_the_kept_words(self, money_example):
        corpus = cascade_training_corpus([money_example], head="first")
        assert corpus.sentences[1].words == ("about", "$")
        assert corpus.sentences[2].words == ("about",)

    def test_sentence_without_spans_only_teaches_stopping(self):
        nested = NestedSentence(plain(("hi", "UH")).tokens, ())
        corpus = cascade_training_corpus([nested])
        assert len(corpus.sentences) == 1
        assert corpus.sentences[0].chunk_tags == ("O",)

    def test_duplicate_ranges_come_back_on_later_levels(self):
        tokens = plain(("a", "DT"), ("b", "NN")).tokens
        nested = NestedSentence(tokens, (span(0, 2), span(0, 2)))
        corpus = cascade_training_corpus([nested])
        assert [s.chunk_tags for s in corpus.sentences] == [
            ("B-NP", "I-NP"), ("B-NP",), ("O",),
        ]

    def test_same_range_chain_surfaces_largest_label_first(self):
        tokens = plain(("a", "DT"), ("b", "NN")).tokens
        nested = NestedSentence(tokens, (span(0, 2, "NP"), span(0, 2, "VP")))
        corpus = cascade_training_corpus([nested])
        assert [s.chunk_tags for s in corpus.sentences] == [
            ("B-VP", "I-VP"), ("B-NP",), ("O",),
        ]

    def test_a_bad_head_is_rejected(self):
        with pytest.raises(ConfigError, match="head must be one of"):
            cascade_training_corpus(parse_nested("a DT *\nb NN *\n"), head="middle")

    def test_sentences_stay_in_input_order(self, money_example):
        other = NestedSentence(plain(("x", "NN")).tokens, ())
        corpus = cascade_training_corpus([other, money_example])
        assert corpus.sentences[0].words == ("x",)
        assert corpus.sentences[1].words == ("about", "25", "$", "million")

    @pytest.mark.parametrize("seed", range(15))
    def test_levels_conserve_span_count_and_stay_valid(self, seed):
        r = datagen.rng(24_000 + seed)
        nested = datagen.random_nested_sentence(r, r.randint(1, 10))
        corpus = cascade_training_corpus([nested])
        total = 0
        for sentence in corpus.sentences:
            assert scheme_violation(sentence.chunk_tags, TagScheme.IOB2) is None
            total += len(extract_chunks(sentence.chunk_tags))
        assert total == len(nested.spans)
        assert corpus.sentences[-1].chunk_tags == ("O",) * len(corpus.sentences[-1])


def scripted(levels):
    """A tagger that replays fixed tag rows, then falls back to all O."""
    queue = list(levels)
    calls = []

    def tag(sentence):
        calls.append(len(sentence))
        if queue:
            return queue.pop(0)
        return ["O"] * len(sentence)

    tag.calls = calls
    return tag


class TestCascadeBracket:
    def test_money_recovery_with_a_scripted_tagger(self, money_example):
        tagger = scripted([
            ["B-NP", "I-NP", "B-NP", "I-NP"],
            ["B-NP", "I-NP"],
        ])
        got = cascade_bracket(money_example.sentence, tagger)
        assert got == money_example

    def test_no_chunks_at_all(self):
        tagger = scripted([])
        got = cascade_bracket(FIVE, tagger)
        assert got.spans == ()
        assert tagger.calls == [5]

    def test_stuck_tagger_stops_after_one_wasted_round(self):
        def tag(sentence):
            return ["B-NP"] + ["O"] * (len(sentence) - 1)

        calls = []

        def counting(sentence):
            calls.append(len(sentence))
            return tag(sentence)

        got = cascade_bracket(FIVE, counting, max_depth=50)
        assert got.spans == (span(0, 1),)
        assert len(calls) == 2

    def test_single_token_collapse_stops_the_loop(self):
        tagger = scripted([["B-NP", "I-NP"]])
        got = cascade_bracket(plain(("a", "DT"), ("b", "NN")), tagger, max_depth=50)
        assert got.spans == (span(0, 2),)
        assert tagger.calls == [2]

    @pytest.mark.parametrize("depth,expected", [(1, 1), (2, 2), (4, 4)])
    def test_max_depth_bounds_the_rounds(self, depth, expected):
        def grabby(sentence):
            tags = ["O"] * len(sentence)
            tags[0] = "B-NP"
            if len(sentence) > 1:
                tags[1] = "I-NP"
            return tags

        sentence = plain(*[(f"w{i}", "NN") for i in range(6)])
        got = cascade_bracket(sentence, grabby, max_depth=depth)
        assert len(got.spans) == expected

    @pytest.mark.parametrize("tags", [
        ["B-NP", "I-NP", "B-O", "I-O", "O"],
        ["O", "I-X_Y", "B-O", "Q", "B-NP"],
        ["B-NP", "I-NP", "B-NP", "I-NP", "Q"],
    ])
    def test_each_round_checks_its_tags_as_with_tags_does(self, tags):
        # Every distinct tag in token order, so the first bad token is named.
        with pytest.raises(ValidationError) as want:
            with_tags(FIVE, tags)
        with pytest.raises(ValidationError) as got:
            cascade_bracket(FIVE, lambda sentence: tags)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("tags, token", [([None] * 5, 1), (["B-NP", "I-NP", None, "O", None], 3)])
    def test_a_row_without_a_tag_names_its_token(self, tags, token):
        with pytest.raises(ValidationError, match=f"^token {token}: None is not a chunk tag$"):
            cascade_bracket(FIVE, lambda sentence: tags)

    def test_the_first_bad_token_is_named_whatever_the_hash_seed(self):
        # Each distinct tag is checked once, in token order, not set order.
        code = (
            "from chunkvote import cascade_bracket, parse_conll, TagScheme\n"
            "s = parse_conll('a DT\\nb NN\\nc NN\\nd VB\\n', TagScheme.IOB2, columns=2).sentences[0]\n"
            "try:\n"
            "    cascade_bracket(s, lambda s: ['B-NP', 'B-O', 'I-X_Y', 'B-O'])\n"
            "except Exception as exc:\n"
            "    print(type(exc).__name__, exc)\n"
        )
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(sys.path))
            got = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
            assert got.stdout.startswith("ValidationError bad chunk tag 'B-O'"), got.stderr

    def test_a_later_round_is_checked_too(self):
        tagger = scripted([["B-NP", "I-NP", "O", "O", "O"], ["O", "B-O", "O", "O"]])
        with pytest.raises(ValidationError, match="bad chunk tag 'B-O'"):
            cascade_bracket(FIVE, tagger)

    def test_max_depth_must_be_positive(self):
        with pytest.raises(ConfigError, match="max_depth"):
            cascade_bracket(FIVE, scripted([]), max_depth=0)

    def test_a_bad_head_is_rejected_before_any_tagging(self):
        tagger = scripted([])
        with pytest.raises(ConfigError, match="head must be one of"):
            cascade_bracket(FIVE, tagger, head="middle")
        assert tagger.calls == []

    def test_head_is_forwarded_to_collapse(self):
        seen = []

        def spy(sentence):
            seen.append(sentence.words)
            if len(sentence) == 3:
                return ["B-NP", "I-NP", "O"]
            return ["O"] * len(sentence)

        cascade_bracket(plain(("a", "DT"), ("b", "NN"), ("c", "VB")), spy, head="first")
        assert seen == [("a", "b", "c"), ("a", "c")]

    @pytest.mark.parametrize("seed", range(10))
    def test_output_is_always_properly_nested(self, seed):
        r = datagen.rng(25_000 + seed)

        def chaotic(sentence):
            return datagen.random_raw_tags(r, len(sentence), types=("NP", "VP"))

        for _ in range(10):
            length = r.randint(1, 10)
            sentence = plain(*[(f"w{i}", "NN") for i in range(length)])
            got = cascade_bracket(sentence, chaotic, max_depth=4)
            assert properly_nested(got.spans)
            for si in got.spans:
                assert 0 <= si.begin < si.end <= length

    @pytest.mark.parametrize("seed", range(10))
    def test_replaying_the_training_levels_recovers_the_spans(self, seed):
        r = datagen.rng(26_000 + seed)
        nested = datagen.random_nested_sentence(r, r.randint(2, 9))
        corpus = cascade_training_corpus([nested])
        tagger = scripted([list(s.chunk_tags) for s in corpus.sentences])
        got = cascade_bracket(nested.sentence, tagger, max_depth=20)
        assert got == nested

    def test_trained_model_end_to_end(self, money_example):
        corpus = cascade_training_corpus([money_example])
        model = LearnerSpec("tree", "igtree").train(corpus)
        got = cascade_bracket(money_example.sentence, functools.partial(tag_sentence, model))
        assert got == money_example


class TestTokenReuse:
    @pytest.mark.parametrize("seed", range(10))
    def test_tagged_tokens_come_back_untagged(self, seed):
        r = datagen.rng(31_000 + seed)
        sentence = datagen.random_sentence(r, r.randint(1, 12))
        assert None not in sentence.chunk_tags
        stripped = strip_tags(sentence)
        assert stripped.chunk_tags == (None,) * len(sentence)
        assert [(t.word, t.pos) for t in stripped.tokens] == [(t.word, t.pos) for t in sentence.tokens]
        for head in HEAD_CHOICES:
            collapsed, _ = collapse(sentence, datagen.random_spans(r, len(sentence)), head)
            assert set(collapsed.chunk_tags) == {None}

    def test_strip_and_collapse_build_no_tokens(self, monkeypatch):
        tagged = make_sentence([("the", "DT", "B-NP"), ("dog", "NN", "I-NP"), ("sat", "VBD", "O")])

        def built(token, *fields):
            raise AssertionError(f"built a token of {fields}")

        monkeypatch.setattr(Token, "__init__", built)
        stripped = strip_tags(tagged)
        collapsed, _ = collapse(tagged, [span(0, 2)])
        assert (stripped.words, stripped.chunk_tags) == (tagged.words, (None,) * 3)
        assert (collapsed.words, collapsed.pos_tags) == (("dog", "sat"), ("NN", "VBD"))
        got = cascade_bracket(tagged, scripted([["B-NP", "I-NP", "O"], ["B-VP", "I-VP"]]))
        assert got.spans == (span(0, 3, "VP"), span(0, 2))


def taggers(seed):
    """Taggers whose tags depend on the sentence alone, so that two
    cascades over the same sentences see the same tags."""

    def soup(sentence):  # illegal I- openings included
        r = datagen.rng(f"{seed}:{' '.join(sentence.words)}")
        return datagen.random_raw_tags(r, len(sentence), types=("NP", "VP"))

    def pairs(sentence):  # halves the sentence each round
        return ["B-NP" if i % 2 == 0 else "I-NP" for i in range(len(sentence))]

    def stuck(sentence):
        return ["B-NP"] + ["O"] * (len(sentence) - 1)

    def one_chunk(sentence):  # collapses the sentence to one token
        return ["I-PP"] * len(sentence)

    return soup, pairs, stuck, one_chunk


class TestAgainstTheCollapseMapReference:
    @pytest.mark.parametrize("head", HEAD_CHOICES)
    @pytest.mark.parametrize("seed", range(8))
    def test_bracketing_matches_with_chaotic_taggers(self, seed, head):
        r = datagen.rng(34_000 + seed)
        sentences = [datagen.random_sentence(r, r.randint(1, 12)) for _ in range(15)]
        for tagger in taggers(seed):
            for depth in range(1, 7):
                for sentence in sentences:
                    assert (cascade_bracket(sentence, tagger, depth, head)
                            == reference_cascade_bracket(sentence, tagger, depth, head))

    @pytest.mark.parametrize("head", HEAD_CHOICES)
    @pytest.mark.parametrize("seed", range(5))
    def test_levels_and_a_trained_cascade_match_on_treebanks(self, seed, head):
        r = datagen.rng(35_000 + seed)
        treebank = [
            with_chains(r, datagen.random_nested_sentence(r, r.randint(1, 14), types=("NP", "PP")))
            for _ in range(40)
        ]
        levels = cascade_training_corpus(treebank, head)
        assert levels == reference_cascade_training_corpus(treebank, head)
        tagger = functools.partial(tag_sentence, LearnerSpec("tree", "igtree").train(levels))
        for nested in treebank:
            for depth in range(1, 7):
                assert (cascade_bracket(nested.sentence, tagger, depth, head)
                        == reference_cascade_bracket(nested.sentence, tagger, depth, head))


class TestSpansNeedNoCheck:
    """``cascade_bracket`` builds its result without the nesting and bounds
    checks: the checking constructor accepts its spans and keeps their order."""

    @pytest.mark.parametrize("head", HEAD_CHOICES)
    @pytest.mark.parametrize("seed", range(8))
    def test_the_checking_constructor_agrees(self, seed, head):
        r = datagen.rng(36_000 + seed)

        def chains(sentence):  # one-position chunks find earlier ranges again, under other labels
            return [r.choice(("O", "B-NP", "B-PP", "B-VP", "I-NP")) for _ in sentence.words]

        def mixed(sentence):
            if r.random() < 0.5:
                return chains(sentence)
            return datagen.random_raw_tags(r, len(sentence), types=("NP", "PP"))

        chained = stopped = 0
        for tagger in (*taggers(seed), chains, mixed):
            for _ in range(12):
                sentence = datagen.random_sentence(r, r.randint(1, 14))
                depth, calls = r.randint(1, 8), []
                got = cascade_bracket(sentence, lambda s: calls.append(s) or tagger(s), depth, head)
                checked = NestedSentence(strip_tags(sentence), r.sample(got.spans, len(got.spans)))
                assert got.spans == checked.spans and got == checked
                chained += len(got.spans) - len({(s.begin, s.end) for s in got.spans})
                stopped += len(calls) == depth
        assert chained > 0 and stopped > 0


class TestInnermostLevel:
    @pytest.mark.parametrize("seed", range(30))
    def test_matches_the_pairwise_rule_level_by_level(self, seed):
        r = datagen.rng(33_000 + seed)
        spans = datagen.random_nested_spans(r, r.randint(1, 14), types=("NP", "PP"))
        # repeated-range chains, some with repeated labels
        spans += [span(s.begin, s.end, r.choice(("NP", "PP", s.label))) for s in spans if r.random() < 0.4]
        old = list(spans)
        new = sorted(spans, key=_span_sort_key)
        while old:
            want = oracle_innermost_level(old)
            taken = _innermost_level(new)
            assert [new[i] for i in taken] == want
            for s in want:
                old.remove(s)
            new = [s for i, s in enumerate(new) if i not in set(taken)]
        assert new == []


def pinned_treebank(seed, size):
    r = datagen.rng(seed)
    return [
        datagen.random_nested_sentence(r, r.randint(1, 14), types=("NP", "PP"))
        for _ in range(size)
    ]


# sha256 of ``convert --nested-to-levels`` on a seeded treebank, and of the
# nested output of ``cascade_bracket`` with a tree trained on those levels,
# per head.
PINNED_BYTES = {
    "last": (
        "708adacbc6254d40b2b1d6133c7c0aabbc3aab4584a511910097a44617a339e5",
        "13515af72adfb198ca85bbf4e58ea5aa1ff9f5ad77f76bbe37d1cdcbc3eae1d5",
    ),
    "first": (
        "cdca21db8af6676817629c16446a329190bd4db4f2ceda2cb3e7a90d2775b944",
        "0aa8c4c069f0292c192ae99bdf6579dd44767b93586b245d8a45a747f9dc36df",
    ),
}


class TestPinnedBytes:
    @pytest.mark.parametrize("head", HEAD_CHOICES)
    def test_levels_and_brackets(self, tmp_path, head):
        nested = tmp_path / "train.nested"
        nested.write_text(write_nested(pinned_treebank(32_000, 80)), encoding="utf-8")
        levels = tmp_path / "levels.conll"
        assert main(["convert", str(nested), "--nested-to-levels", "--head", head,
                     "-o", str(levels)]) == 0
        model = LearnerSpec("tree", "igtree").train(parse_conll(levels.read_text(), TagScheme.IOB2))
        tagger = functools.partial(tag_sentence, model)
        bracketed = write_nested([
            cascade_bracket(s.sentence, tagger, head=head)
            for s in pinned_treebank(32_001, 40)
        ])
        assert (
            hashlib.sha256(levels.read_bytes()).hexdigest(),
            hashlib.sha256(bracketed.encode()).hexdigest(),
        ) == PINNED_BYTES[head]
