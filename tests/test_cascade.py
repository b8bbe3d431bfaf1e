import functools
import hashlib

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
    collapse,
    extract_chunks,
    identity_map,
    parse_conll,
    properly_nested,
    scheme_violation,
    strip_tags,
    tag_sentence,
    with_tags,
    write_nested,
)
from chunkvote.cascade import HEAD_CHOICES, _innermost_level, local_spans, original_range
from chunkvote.cli import main
from chunkvote.corpus import _span_sort_key

import datagen
from conftest import make_sentence, make_untagged
from oracles import oracle_innermost_level


def span(begin, end, label="NP"):
    return ChunkSpan(begin, end, label)


def compose(outer, inner):
    """``inner``'s ranges through ``outer``, as the cascade composes maps."""
    return tuple([original_range(outer, b, e) for b, e in inner])


def translate(found, mapping):
    """A span found on a collapsed sentence, in original offsets."""
    return ChunkSpan(*original_range(mapping, found.begin, found.end), found.label)


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
        collapsed, mapping = collapse(FIVE, [span(3, 4, "VP"), span(0, 2)])
        assert collapsed.words == ("big", "dog", "sat", ".")
        assert mapping == ((0, 2), (2, 3), (3, 4), (4, 5))

    def test_no_spans_is_the_identity(self):
        collapsed, mapping = collapse(FIVE, [])
        assert collapsed.words == FIVE.words
        assert mapping == identity_map(len(FIVE))

    def test_errors(self):
        with pytest.raises(ValidationError, match="overlapping"):
            collapse(FIVE, [span(0, 3), span(2, 4)])
        with pytest.raises(ValidationError, match="outside sentence"):
            collapse(FIVE, [span(3, 9)])
        with pytest.raises(ConfigError, match="head"):
            collapse(FIVE, [span(0, 2)], head="middle")

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
        assert identity_map(3) == ((0, 1), (1, 2), (2, 3))
        assert identity_map(0) == ()

    def test_compose(self):
        outer = ((0, 2), (2, 3), (3, 5))
        inner = ((0, 2), (2, 3))
        assert compose(outer, inner) == ((0, 3), (3, 5))

    def test_compose_with_identity(self):
        outer = ((0, 2), (2, 3), (3, 5))
        assert compose(outer, identity_map(3)) == outer
        assert compose(identity_map(5), outer) == outer

    def test_compose_bounds(self):
        with pytest.raises(ValidationError, match="outside collapse map"):
            compose(((0, 1),), ((0, 2),))

    def test_translate_span(self):
        mapping = ((0, 3), (3, 4), (4, 6))
        assert translate(span(1, 2), mapping) == span(3, 4)
        assert translate(span(0, 3, "VP"), mapping) == span(0, 6, "VP")
        with pytest.raises(ValidationError, match="outside collapse map"):
            translate(span(0, 4), mapping)

    def test_local_spans(self):
        mapping = ((0, 3), (3, 4), (4, 6))
        assert local_spans([span(0, 3), span(3, 6, "VP")], mapping) == [span(0, 1), span(1, 3, "VP")]
        with pytest.raises(ValidationError, match="does not align"):
            local_spans([span(1, 4)], mapping)

    def test_local_spans_inverts_translate_span(self):
        r = datagen.rng(5)
        for _ in range(50):
            length = r.randint(1, 10)
            sentence = plain(*[(f"w{i}", "NN") for i in range(length)])
            _, mapping = collapse(sentence, datagen.random_spans(r, length))
            local = datagen.random_spans(r, len(mapping))
            assert local_spans([translate(s, mapping) for s in local], mapping) == local

    @pytest.mark.parametrize("seed", range(10))
    def test_composed_maps_still_partition(self, seed):
        r = datagen.rng(23_000 + seed)
        length = r.randint(2, 14)
        mapping = identity_map(length)
        for _ in range(3):
            if len(mapping) == 0:
                break
            inner_spans = datagen.random_spans(r, len(mapping))
            sentence = plain(*[(f"w{i}", "NN") for i in range(len(mapping))])
            _, level_map = collapse(sentence, inner_spans)
            mapping = compose(mapping, level_map)
            assert_partition(mapping, length)


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

    def test_a_later_round_is_checked_too(self):
        tagger = scripted([["B-NP", "I-NP", "O", "O", "O"], ["O", "B-O", "O", "O"]])
        with pytest.raises(ValidationError, match="bad chunk tag 'B-O'"):
            cascade_bracket(FIVE, tagger)

    def test_max_depth_must_be_positive(self):
        with pytest.raises(ConfigError, match="max_depth"):
            cascade_bracket(FIVE, scripted([]), max_depth=0)

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

        def built(token):
            raise AssertionError(f"built {token}")

        monkeypatch.setattr(Token, "__post_init__", built)
        stripped = strip_tags(tagged)
        collapsed, _ = collapse(tagged, [span(0, 2)])
        assert (stripped.words, stripped.chunk_tags) == (tagged.words, (None,) * 3)
        assert (collapsed.words, collapsed.pos_tags) == (("dog", "sat"), ("NN", "VBD"))


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
