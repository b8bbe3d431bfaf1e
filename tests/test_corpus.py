import itertools
import os
import re
import subprocess
import sys
from collections import Counter

import pytest

from chunkvote import (
    PLACEHOLDER_WORD,
    ChunkSpan,
    ChunkvoteError,
    CombinerWeights,
    Corpus,
    Counts,
    Dataset,
    EvalReport,
    LearnerSpec,
    MaxEntModel,
    NestedSentence,
    ParseError,
    PredictionRow,
    PredictionTable,
    Sentence,
    TagScheme,
    Token,
    ValidationError,
    WindowConfig,
    cascade_bracket,
    convert_scheme,
    extract_chunks,
    parse_conll,
    parse_nested,
    properly_nested,
    read_table,
    scheme_violation,
    strip_tags,
    tag_parts,
    tags_from_chunks,
    train_igtree,
    train_knn,
    train_maxent,
    train_rules,
    validate_corpus,
    with_tags,
    write_conll,
    write_nested,
    write_table,
)
import chunkvote.corpus
from chunkvote.corpus import _chunk_ranges, column_blocks, columns_pass, text_lines
from chunkvote.learners import IGTreeNode, KnnIndex, MaxEntTrace, Rule

import datagen
from oracles import (
    oracle_chunks,
    oracle_parse_conll,
    oracle_parse_nested,
    oracle_properly_nested,
    oracle_write_conll,
    oracle_write_nested,
    reference_parse_conll,
    reference_parse_nested,
    reference_read_table,
    reference_validate_corpus,
)


def spans(*triples):
    return [ChunkSpan(b, e, label) for b, e, label in triples]


class TestDataModel:
    def test_tag_parts(self):
        assert tag_parts("O") == ("O", None)
        assert tag_parts("B-NP") == ("B", "NP")
        assert tag_parts("I-SBAR") == ("I", "SBAR")

    def test_token_rejects_bad_fields(self):
        with pytest.raises(ValidationError):
            Token("", "NN")
        with pytest.raises(ValidationError):
            Token("two words", "NN")
        with pytest.raises(ValidationError):
            Token("dog", "N N")
        with pytest.raises(ValidationError):
            Token("dog", "NN", "X-NP")
        with pytest.raises(ValidationError):
            Token("dog", "NN", "B-")
        with pytest.raises(ValidationError):
            Token("dog", "NN", "NP")
        Token("dog", "NN", "B-NP")
        Token("dog", "NN", "O")
        Token("dog", "NN")

    @pytest.mark.parametrize("word, pos, tag", [
        ("__PAD__", "NN", "B-NP"),
        ("dog", "__PAD__", "B-NP"),
        ("dog", "NN", "B-O"),
        ("dog", "NN", "I-O"),
    ])
    def test_token_rejects_reserved_values(self, word, pos, tag):
        with pytest.raises(ValidationError, match="reserved"):
            Token(word, pos, tag)
        with pytest.raises(ValidationError, match="line 2"):
            parse_conll(f"the DT B-NP\n{word} {pos} {tag}\n\n", TagScheme.IOB1)

    def test_reserved_values_only_match_whole_fields(self):
        Token("__PAD__x", "_PAD_", "B-OBJ")
        Token("dog", "NN", "I-NPO")

    def test_sentence_properties(self):
        s = Sentence((Token("the", "DT", "B-NP"), Token("dog", "NN", "I-NP")))
        assert len(s) == 2
        assert s.words == ("the", "dog")
        assert s.pos_tags == ("DT", "NN")
        assert s.chunk_tags == ("B-NP", "I-NP")
        with pytest.raises(ValidationError):
            Sentence(())

    def test_strip_and_with_tags(self):
        s = Sentence((Token("the", "DT", "B-NP"), Token("dog", "NN", "I-NP")))
        bare = strip_tags(s)
        assert bare.chunk_tags == (None, None)
        assert bare.words == s.words
        again = with_tags(bare, ["O", "B-NP"])
        assert again.chunk_tags == ("O", "B-NP")
        with pytest.raises(ValidationError):
            with_tags(bare, ["O"])

    def test_chunk_span_validation(self):
        with pytest.raises(ValidationError):
            ChunkSpan(2, 2, "NP")
        with pytest.raises(ValidationError):
            ChunkSpan(-1, 2, "NP")
        with pytest.raises(ValidationError):
            ChunkSpan(0, 1, "")
        assert ChunkSpan(0, 1, "NP").label == "NP"

    def test_placeholder_word_is_a_single_underscore(self):
        assert PLACEHOLDER_WORD == "_"
        Token(PLACEHOLDER_WORD, "NN")


class TestProperNesting:
    def test_disjoint_and_nested_pairs_are_fine(self):
        assert properly_nested(spans((0, 2, "NP"), (2, 4, "NP")))
        assert properly_nested(spans((0, 4, "NP"), (1, 3, "NP")))
        assert properly_nested(spans((0, 4, "NP"), (0, 2, "NP")))
        assert properly_nested(spans((0, 4, "NP"), (2, 4, "NP")))

    def test_equal_ranges_count_as_contained(self):
        assert properly_nested(spans((1, 3, "NP"), (1, 3, "NP")))
        assert properly_nested(spans((1, 3, "NP"), (1, 3, "VP")))

    def test_crossing_pairs_are_rejected(self):
        assert not properly_nested(spans((0, 3, "NP"), (1, 4, "NP")))
        assert not properly_nested(spans((1, 4, "NP"), (0, 3, "NP")))
        assert not properly_nested(
            spans((0, 2, "NP"), (4, 6, "NP"), (1, 5, "NP"))
        )

    def test_empty_and_singleton(self):
        assert properly_nested([])
        assert properly_nested(spans((3, 9, "NP")))

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_the_pairwise_oracle(self, seed):
        r = datagen.rng(44_000 + seed)
        outcomes = set()
        for _ in range(100):
            length = r.randint(1, 9)
            family = datagen.random_nested_spans(r, length, types=("NP", "VP"))
            # short sentences make shared boundaries common; copies make
            # duplicate ranges
            for _ in range(r.randint(0, 2)):
                begin = r.randrange(length)
                family.append(ChunkSpan(begin, r.randint(begin + 1, length), "NP"))
            if family and r.random() < 0.3:
                family.append(r.choice(family))
            r.shuffle(family)
            expected = oracle_properly_nested(family)
            assert properly_nested(family) == expected
            outcomes.add(expected)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("seed", range(10))
    def test_a_nested_sentence_takes_what_properly_nested_accepts(self, seed):
        """NestedSentence sorts its spans once and checks them in that
        order; it accepts a shuffled family exactly when properly_nested does."""
        r = datagen.rng(44_500 + seed)
        outcomes = set()
        for _ in range(100):
            length = r.randint(1, 9)
            family = datagen.random_nested_spans(r, length, types=("NP", "VP"))
            for _ in range(r.randint(0, 2)):
                begin = r.randrange(length)
                family.append(ChunkSpan(begin, r.randint(begin + 1, length), "NP"))
            r.shuffle(family)
            tokens = [Token(f"w{i}", "NN") for i in range(length)]
            accepted = properly_nested(family)
            if accepted:
                ordered = NestedSentence(tokens, family).spans
                assert ordered == tuple(sorted(family, key=lambda s: (s.begin, -s.end, s.label)))
                assert properly_nested(ordered, ordered=True)
            else:
                with pytest.raises(ValidationError, match="spans cross"):
                    NestedSentence(tokens, family)
            outcomes.add(accepted)
        assert outcomes == {True, False}


class TestExtractChunks:
    def test_iob2_sequence(self):
        tags = ["B-NP", "I-NP", "O", "B-VP", "B-NP", "I-NP"]
        assert extract_chunks(tags) == spans((0, 2, "NP"), (3, 4, "VP"), (4, 6, "NP"))

    def test_iob1_sequence(self):
        tags = ["I-NP", "I-NP", "B-NP", "O", "I-VP"]
        assert extract_chunks(tags) == spans((0, 2, "NP"), (2, 3, "NP"), (4, 5, "VP"))

    def test_type_change_without_marker_change(self):
        assert extract_chunks(["B-NP", "I-VP"]) == spans((0, 1, "NP"), (1, 2, "VP"))

    def test_chunk_initial_i_is_repaired(self):
        assert extract_chunks(["O", "I-NP", "I-NP"]) == spans((1, 3, "NP"))
        assert extract_chunks(["I-NP"]) == spans((0, 1, "NP"))

    def test_adjacent_b_tags(self):
        assert extract_chunks(["B-NP", "B-NP"]) == spans((0, 1, "NP"), (1, 2, "NP"))

    def test_empty_and_all_outside(self):
        assert extract_chunks([]) == []
        assert extract_chunks(["O", "O"]) == []

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_oracle_on_valid_tags(self, seed):
        r = datagen.rng(seed)
        for _ in range(25):
            length = r.randint(0, 15)
            scheme = r.choice((TagScheme.IOB1, TagScheme.IOB2))
            tags = datagen.random_tags(r, length, scheme=scheme)
            assert extract_chunks(tags) == oracle_chunks(tags)
            assert _chunk_ranges(tags) == [(s.begin, s.end, s.label) for s in oracle_chunks(tags)]

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_oracle_on_tag_soup(self, seed):
        r = datagen.rng(1000 + seed)
        for _ in range(25):
            tags = datagen.random_raw_tags(r, r.randint(0, 15))  # illegal I- openings included
            assert extract_chunks(tags) == oracle_chunks(tags)
            assert _chunk_ranges(tags) == [(s.begin, s.end, s.label) for s in oracle_chunks(tags)]


class TestTagsFromChunks:
    def test_iob2_always_opens_with_b(self):
        got = tags_from_chunks(5, spans((0, 2, "NP"), (2, 4, "NP")), TagScheme.IOB2)
        assert got == ["B-NP", "I-NP", "B-NP", "I-NP", "O"]

    def test_iob1_uses_b_only_between_same_type(self):
        got = tags_from_chunks(5, spans((0, 2, "NP"), (2, 4, "NP")), TagScheme.IOB1)
        assert got == ["I-NP", "I-NP", "B-NP", "I-NP", "O"]
        got = tags_from_chunks(5, spans((0, 2, "NP"), (2, 4, "VP")), TagScheme.IOB1)
        assert got == ["I-NP", "I-NP", "I-VP", "I-VP", "O"]
        got = tags_from_chunks(5, spans((0, 2, "NP"), (3, 5, "NP")), TagScheme.IOB1)
        assert got == ["I-NP", "I-NP", "O", "I-NP", "I-NP"]

    def test_input_order_does_not_matter(self):
        shuffled = spans((2, 4, "NP"), (0, 2, "NP"))
        assert tags_from_chunks(4, shuffled, TagScheme.IOB1) == [
            "I-NP", "I-NP", "B-NP", "I-NP",
        ]

    def test_rejects_overlap_and_out_of_range(self):
        with pytest.raises(ValidationError):
            tags_from_chunks(4, spans((0, 2, "NP"), (1, 3, "VP")), TagScheme.IOB2)
        with pytest.raises(ValidationError):
            tags_from_chunks(3, spans((1, 4, "NP")), TagScheme.IOB2)

    @pytest.mark.parametrize("scheme", [TagScheme.IOB1, TagScheme.IOB2])
    @pytest.mark.parametrize("seed", range(20))
    def test_roundtrip_through_tags(self, scheme, seed):
        r = datagen.rng(2000 + seed)
        for _ in range(25):
            length = r.randint(0, 12)
            chunk_spans = datagen.random_spans(r, length)
            tags = tags_from_chunks(length, chunk_spans, scheme)
            assert scheme_violation(tags, scheme) is None
            assert extract_chunks(tags) == chunk_spans


class TestSchemes:
    def test_scheme_violation_positions(self):
        assert scheme_violation(["B-NP", "I-NP", "O"], TagScheme.IOB2) is None
        assert scheme_violation(["O", "I-NP"], TagScheme.IOB2) == 1
        assert scheme_violation(["B-NP", "I-VP"], TagScheme.IOB2) == 1
        assert scheme_violation(["I-NP", "B-NP"], TagScheme.IOB1) is None
        assert scheme_violation(["B-NP"], TagScheme.IOB1) == 0
        assert scheme_violation(["I-NP", "I-VP", "B-VP"], TagScheme.IOB1) is None
        assert scheme_violation(["I-NP", "O", "B-NP"], TagScheme.IOB1) == 2
        assert scheme_violation([], TagScheme.IOB1) is None

    def test_convert_scheme_hand_case(self):
        iob1 = ["I-NP", "I-NP", "B-NP", "O", "I-VP"]
        iob2 = ["B-NP", "I-NP", "B-NP", "O", "B-VP"]
        assert convert_scheme(iob1, TagScheme.IOB1, TagScheme.IOB2) == iob2
        assert convert_scheme(iob2, TagScheme.IOB2, TagScheme.IOB1) == iob1

    def test_convert_scheme_same_scheme_is_identity(self):
        tags = ["B-NP", "I-NP"]
        assert convert_scheme(tags, TagScheme.IOB2, TagScheme.IOB2) == tags

    def test_convert_scheme_rejects_invalid_input(self):
        with pytest.raises(ValidationError):
            convert_scheme(["O", "I-NP"], TagScheme.IOB2, TagScheme.IOB1)

    @pytest.mark.parametrize("seed", range(20))
    def test_convert_scheme_roundtrip(self, seed):
        r = datagen.rng(3000 + seed)
        for _ in range(20):
            tags = datagen.random_tags(r, r.randint(0, 12), scheme=TagScheme.IOB2)
            there = convert_scheme(tags, TagScheme.IOB2, TagScheme.IOB1)
            assert scheme_violation(there, TagScheme.IOB1) is None
            assert convert_scheme(there, TagScheme.IOB1, TagScheme.IOB2) == tags

    def test_validate_corpus_reports_position(self):
        good = Sentence((Token("the", "DT", "B-NP"),))
        bad = Sentence((Token("the", "DT", "O"), Token("dog", "NN", "I-NP")))
        corpus = Corpus((good, bad), TagScheme.IOB2)
        with pytest.raises(ValidationError, match="sentence 2, token 2"):
            validate_corpus(corpus)

    def test_validate_corpus_skips_untagged_sentences(self):
        corpus = Corpus((Sentence((Token("the", "DT"),)),), TagScheme.IOB2)
        validate_corpus(corpus)

    @pytest.mark.parametrize("scheme", TagScheme)
    def test_validate_corpus_faults_what_scheme_violation_faults(self, scheme):
        for length in range(1, 5):
            for tags in itertools.product(("O", "B-NP", "I-NP", "B-VP", "I-VP"), repeat=length):
                corpus = Corpus([Sentence.from_checked(("w",) * length, ("NN",) * length, tags)], scheme)
                ti = scheme_violation(tags, scheme)
                if ti is None:
                    validate_corpus(corpus)
                    continue
                with pytest.raises(ValidationError) as exc:
                    validate_corpus(corpus)
                message = f"sentence 1, token {ti + 1}: tag {tags[ti]!r} is illegal under {scheme.value}"
                assert str(exc.value) == message

    def test_a_pair_first_met_after_legal_sentences_is_checked(self):
        def sentence(*tags):
            return Sentence.from_checked(("w",) * len(tags), ("NN",) * len(tags), tags)

        known = sentence("B-NP", "I-NP", "O", "B-VP", "I-VP", "O", "B-NP")
        # every pair of the third sentence is known legal but (O, I-VP)
        corpus = Corpus([known, sentence("O", "B-VP"), sentence("B-NP", "I-NP", "O", "I-VP")], TagScheme.IOB2)
        with pytest.raises(ValidationError, match=r"^sentence 3, token 4: tag 'I-VP' is illegal under iob2$"):
            validate_corpus(corpus)


class TestConllFiles:
    TEXT = "the DT B-NP\ndog NN I-NP\nsat VBD B-VP\n\n. . O\n\n"

    def test_parse_three_columns(self):
        corpus = parse_conll(self.TEXT, TagScheme.IOB2)
        assert len(corpus) == 2
        assert corpus.scheme is TagScheme.IOB2
        first = corpus.sentences[0]
        assert first.words == ("the", "dog", "sat")
        assert first.chunk_tags == ("B-NP", "I-NP", "B-VP")

    def test_parse_two_columns(self):
        corpus = parse_conll("the DT\ndog NN\n\n", TagScheme.IOB2, columns=2)
        assert corpus.sentences[0].chunk_tags == (None, None)

    def test_missing_trailing_blank_line(self):
        corpus = parse_conll("the DT B-NP", TagScheme.IOB2)
        assert len(corpus) == 1

    def test_column_count_errors(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_conll("the DT B-NP\ndog NN\n", TagScheme.IOB2)
        with pytest.raises(ValidationError):
            parse_conll(self.TEXT, TagScheme.IOB2, columns=4)

    def test_strict_parse_enforces_scheme(self):
        with pytest.raises(ValidationError, match="sentence 1, token 1"):
            parse_conll("the DT I-NP\n\n", TagScheme.IOB2)
        lenient = parse_conll("the DT I-NP\n\n", TagScheme.IOB2, strict=False)
        assert lenient.sentences[0].chunk_tags == ("I-NP",)

    def test_bad_tag_names_line(self):
        with pytest.raises(ValidationError, match="line 1"):
            parse_conll("the DT Q-NP\n\n", TagScheme.IOB2)

    def test_write_roundtrip_is_byte_exact(self):
        corpus = parse_conll(self.TEXT, TagScheme.IOB2)
        assert write_conll(corpus) == self.TEXT

    def test_write_two_column_rows_for_untagged_tokens(self):
        corpus = Corpus((Sentence((Token("the", "DT"),)),), TagScheme.IOB2)
        assert write_conll(corpus) == "the DT\n\n"


class TestNestedFiles:
    TEXT = (
        "about IN *\n"
        "25 CD (NP*\n"
        "$ $ *)\n"
        "million CD (NP*)\n"
        "\n"
    )

    def test_parse_simple_brackets(self):
        sentences = parse_nested(self.TEXT)
        assert len(sentences) == 1
        got = sentences[0]
        assert got.words == ("about", "25", "$", "million")
        assert list(got.spans) == spans((1, 3, "NP"), (3, 4, "NP"))

    def test_parse_nested_brackets(self, money_example):
        text = (
            "about IN (NP(NP*\n"
            "25 CD *)\n"
            "$ $ (NP*\n"
            "million CD *))\n"
            "\n"
        )
        assert parse_nested(text) == [money_example]

    def test_spans_are_sorted_outermost_first(self):
        tokens = (Token("a", "DT"), Token("b", "NN"))
        sentence = NestedSentence(tokens, spans((0, 1, "NP"), (0, 2, "NP")))
        assert list(sentence.spans) == spans((0, 2, "NP"), (0, 1, "NP"))

    def test_duplicate_spans_survive_a_roundtrip(self):
        text = "a DT (NP(NP*\nb NN *))\n\n"
        sentences = parse_nested(text)
        assert list(sentences[0].spans) == spans((0, 2, "NP"), (0, 2, "NP"))
        assert write_nested(sentences) == text

    def test_roundtrip_is_byte_exact(self, money_example):
        text = write_nested([money_example])
        assert parse_nested(text) == [money_example]
        assert write_nested(parse_nested(text)) == text

    @pytest.mark.parametrize("seed", range(20))
    def test_roundtrip_on_random_nested_sentences(self, seed):
        r = datagen.rng(4000 + seed)
        batch = [
            datagen.random_nested_sentence(r, r.randint(1, 10), types=("NP", "VP"))
            for _ in range(10)
        ]
        text = write_nested(batch)
        assert parse_nested(text) == batch
        assert write_nested(parse_nested(text)) == text

    def test_unclosed_bracket(self):
        with pytest.raises(ParseError, match="unclosed"):
            parse_nested("a DT (NP*\nb NN *\n\n")

    def test_unmatched_closer(self):
        with pytest.raises(ParseError, match="unmatched closer"):
            parse_nested("a DT *)\n\n")

    def test_bad_bracket_field(self):
        with pytest.raises(ParseError, match="bad bracket field"):
            parse_nested("a DT (NP\n\n")
        with pytest.raises(ParseError, match="expected 3 columns"):
            parse_nested("a DT\n\n")

    def test_crossing_spans_cannot_be_built(self):
        tokens = tuple(Token(f"w{i}", "NN") for i in range(4))
        with pytest.raises(ValidationError, match="cross"):
            NestedSentence(tokens, spans((0, 3, "NP"), (1, 4, "NP")))

    def test_span_past_sentence_end_is_rejected(self):
        with pytest.raises(ValidationError, match="exceeds"):
            NestedSentence((Token("a", "DT"),), spans((0, 2, "NP")))

    def test_tagged_tokens_are_rejected(self):
        with pytest.raises(ValidationError, match="spans, not chunk tags"):
            NestedSentence((Token("a", "DT", "O"),), ())


class TestNestedSpansInReadingOrder:
    """``parse_nested`` collects a sentence's spans as their brackets close,
    sorts them once by ``_span_sort_key`` and builds the sentence with
    ``NestedSentence.from_checked``: the checking constructor agrees."""

    @pytest.mark.parametrize("seed", range(20))
    def test_a_read_equals_the_checking_constructor(self, seed):
        r = datagen.rng(49_000 + seed)
        batch = []
        for _ in range(6):
            nested = datagen.random_nested_sentence(r, r.randint(1, 10), types=("NP", "PP", "VP"))
            # repeated spans, and spans of one range with other labels
            twins = [ChunkSpan(s.begin, s.end, r.choice(("NP", "PP", "VP", s.label)))
                     for s in nested.spans for _ in range(r.choice((0, 0, 1, 2)))]
            spans = [*nested.spans, *twins]
            batch.append(NestedSentence(nested.sentence, r.sample(spans, len(spans))))
        text = write_nested(batch)
        read = parse_nested(text)
        assert read == batch
        for got, built in zip(read, batch):
            assert got.spans == built.spans and hash(got) == hash(built)
        # the openers of each token in any order, so equal ranges come in any label order
        lines = [line.split() for line in text.splitlines()]
        for fields in filter(None, lines):
            openers, star, closers = fields[2].partition("*")
            labels = openers.split("(")[1:]
            fields[2] = "".join("(" + label for label in r.sample(labels, len(labels))) + star + closers
        seen: dict = {}
        for got in parse_nested("\n".join(map(" ".join, lines)) + "\n"):
            rebuilt = NestedSentence(got.sentence, r.sample(got.spans, len(got.spans)))
            assert got.spans == rebuilt.spans and got == rebuilt and hash(got) == hash(rebuilt)
            assert all(seen.setdefault(span, span) is span for span in got.spans)  # one object per equal span


class TestColumnRecords:
    TEXT = "the DT B-NP\ndog NN I-NP\n\nsat VBD O\n"

    def test_a_sentence_rebuilt_from_its_tokens_is_equal(self, tiny_corpus):
        for sentence in tiny_corpus.sentences:
            assert sentence.tokens is sentence.tokens
            assert Sentence(sentence.tokens) == sentence
            assert hash(Sentence(sentence.tokens)) == hash(sentence)

    def test_built_and_parsed_records_compare_and_hash_equal(self):
        built = Sentence((Token("the", "DT", "B-NP"), Token("dog", "NN", "I-NP")))
        parsed = parse_conll(self.TEXT, TagScheme.IOB2).sentences[0]
        assert parsed == built and hash(parsed) == hash(built)
        assert parsed.tokens == built.tokens
        assert parsed != strip_tags(built)
        tokens = (Token("big", "JJ"), Token("dogs", "NNS"))
        built = NestedSentence(tokens, spans((0, 2, "NP"), (1, 2, "NP")))
        (parsed,) = parse_nested("big JJ (NP*\ndogs NNS (NP*))\n")
        assert parsed == built and hash(parsed) == hash(built)
        assert parsed.sentence.tokens == built.sentence.tokens == tokens
        assert parsed.sentence.tokens is parsed.sentence.tokens
        assert parsed.sentence == Sentence(tokens)


def _outcome(read, *args):
    """What a reader gives: its records, or its error's class and message."""
    try:
        return read(*args)
    except ChunkvoteError as exc:
        return type(exc), str(exc)


def _damaged(r, text, values):
    """``text`` after up to three random edits, or a line of blanks put in."""
    for _ in range(r.randint(0, 3)):
        text = datagen.mutate(r, text, values)
    if r.random() < 0.2:
        lines = text.splitlines()
        lines.insert(r.randrange(len(lines) + 1), r.choice((" ", "\t", " \t ")))
        text = "\n".join(lines) + "\n"
    return text


class TestReadersMatchTheTokenReaders:
    """The column readers against the token-by-token ones of ``oracles``,
    on seeded files, valid and damaged."""

    CHUNK_VALUES = ("X-NP", "B-", "B-O", "I-O", "O", "B-NP", "I-VP", "__PAD__", "NN", "_", "a|b")
    BRACKET_VALUES = ("(NP*", "*)", "*))", "(NP(PP*", "(O*)", "*", "(NP", ")*", "__PAD__", "B-NP")

    @pytest.mark.parametrize("seed", range(40))
    def test_chunk_files(self, seed):
        r = datagen.rng(35_000 + seed)
        corpus = Corpus(
            [datagen.random_sentence(r, r.randint(1, 8), scheme=TagScheme.IOB1) for _ in range(4)],
            TagScheme.IOB1,
        )
        text = write_conll(corpus)
        for _ in range(6):
            damaged = _damaged(r, text, self.CHUNK_VALUES)
            for args in ((TagScheme.IOB1,), (TagScheme.IOB2, 3, False), (TagScheme.IOB1, 2)):
                got = _outcome(parse_conll, damaged, *args)
                assert got == _outcome(oracle_parse_conll, damaged, *args)
                if isinstance(got, Corpus):
                    want = oracle_parse_conll(damaged, *args)
                    assert [s.tokens for s in got.sentences] == [s.tokens for s in want.sentences]

    @pytest.mark.parametrize("seed", range(40))
    def test_bracket_files(self, seed):
        r = datagen.rng(36_000 + seed)
        batch = [datagen.random_nested_sentence(r, r.randint(1, 8), types=("NP", "PP")) for _ in range(4)]
        text = write_nested(batch)
        for _ in range(6):
            damaged = _damaged(r, text, self.BRACKET_VALUES)
            got = _outcome(parse_nested, damaged)
            assert got == _outcome(oracle_parse_nested, damaged)
            if isinstance(got, list):
                want = oracle_parse_nested(damaged)
                assert [s.sentence.tokens for s in got] == [s.sentence.tokens for s in want]

    @pytest.mark.parametrize("seed", range(20))
    def test_writers(self, seed):
        r = datagen.rng(37_000 + seed)
        sentences = [datagen.random_sentence(r, r.randint(1, 8)) for _ in range(5)]
        # untagged and partly tagged sentences take two column rows
        sentences += [Sentence(Token(t.word, t.pos, r.choice((None, t.chunk_tag))) for t in s.tokens)
                      for s in sentences]
        corpus = Corpus(sentences, TagScheme.IOB2)
        assert write_conll(corpus) == oracle_write_conll(corpus)
        nested = [datagen.random_nested_sentence(r, r.randint(1, 8), types=("NP", "PP")) for _ in range(5)]
        nested = [NestedSentence(s.sentence, [*s.spans, *(ChunkSpan(x.begin, x.end, r.choice(("NP", "PP")))
                                                       for x in s.spans if r.random() < 0.4)])
                  for s in nested]
        assert write_nested(nested) == oracle_write_nested(nested)

    @pytest.mark.parametrize("text, error", [
        ("a DT B-NP\nb NN Q-NP\nc NN X\n", "bad chunk tag 'Q-NP'"),
        ("a DT B-NP\nb NN B-O\n", "chunk type O is reserved"),
        ("a DT O\n__PAD__ NN O\n", "reserved for padding"),
        ("a DT O\nb __PAD__ O\n", "reserved for padding"),
        ("a DT O\nb NN Q-NP\nc NN\n", "bad chunk tag 'Q-NP'"),
        ("a DT O\nb NN\nc NN Q-NP\n", "expected 3 columns"),
        ("a DT O\n  \nb NN I-NP\n", None),
    ])
    def test_chunk_file_faults(self, text, error):
        got = _outcome(parse_conll, text, TagScheme.IOB1)
        assert got == _outcome(oracle_parse_conll, text, TagScheme.IOB1)
        assert (error is None) == isinstance(got, Corpus)
        assert error is None or error in got[1]
        two = (TagScheme.IOB1, 2)
        assert _outcome(parse_conll, text, *two) == _outcome(oracle_parse_conll, text, *two)

    @pytest.mark.parametrize("text, error", [
        ("a DT (NP*\nb NN *\n", "1 unclosed bracket"),
        ("a DT (NP*)\nb NN *))\n", "unmatched closer"),
        ("a DT (NP*\nb NN (PP*\nc NN *)\nd NN *)\n", None),
        ("a DT (NP*\nb NN (PP*)\nc NN *)\nd NN *)\n", "unmatched closer"),
        ("a DT (NP*\n__PAD__ NN *)\n", "reserved for padding"),
        ("a DT (NP*\nb NN *) x\n", "expected 3 columns"),
        ("a DT (NP*\nb NN )*\n", "bad bracket field"),
        ("a DT (NP*\n \t \nb NN *)\n", "1 unclosed bracket"),
        ("a DT (O*)\nb NN *\n", "line 1: bad bracket field '(O*)'"),
        ("a DT (NP(O*))\nb NN *\n", "bad bracket field"),
        ("a DT (NP*\nb NN (O(PP*))\n", "line 2: bad bracket field"),
        ("a DT (OP*)\nb NN (NP(ON*))\n", None),
    ])
    def test_bracket_file_faults(self, text, error):
        got = _outcome(parse_nested, text)
        assert got == _outcome(oracle_parse_nested, text)
        assert (error is None) == isinstance(got, list)
        assert error is None or error in got[1]


# Values that readers often mishandle, put in fields by ``datagen.mutate``.
HOSTILE_VALUES = ("B-O", "(O*)", "*))", "((NP*", "__PAD__", "I-NP", "O", "B-NP", "(NP*", "*)", "*",
                  "pos", "gold")
LINE_BREAKS = ("\n", "\n", "\r\n", "\r", "\x0b", "\x0c")


def _hostile(r, text):
    """``text`` after up to three ``datagen.mutate`` edits, with mixed line
    breaks, separator lines of blanks and perhaps no final line break."""
    for _ in range(r.randint(0, 3)):
        text = datagen.mutate(r, text, HOSTILE_VALUES)
    lines = [line if line else r.choice(("", "", " ", "\t", " \t ")) for line in text.splitlines()]
    text = "".join(line + r.choice(LINE_BREAKS) for line in lines)
    return text.rstrip("\n\r\x0b\x0c") if r.random() < 0.25 else text


# Values that ``str.split`` keeps whole (a zero width space, a title case
# letter) or cuts (a no-break space, the unit and line separators).
FIELD_VALUES = (*HOSTILE_VALUES, "a\u200bb", "\u2028x", "\x1f", "x\xa0y", "B-", "I-NP_X", "\u01c5")


class TestColumnCheck:
    """``columns_pass`` tests a word or pos tag only for ``PAD``: no other
    value ``str.split`` makes fails Token's checks."""

    def test_str_isspace_is_the_field_regex_whitespace(self):
        text = "".join(map(chr, range(sys.maxunicode + 1)))
        assert re.findall(r"\s", text) == [c for c in text if c.isspace()]

    @pytest.mark.parametrize("seed", range(10))
    def test_passes_a_split_line_exactly_when_token_does(self, seed):
        r = datagen.rng(54_000 + seed)
        sentences = [datagen.random_sentence(r, r.randint(1, 8)) for _ in range(4)]
        text = write_conll(Corpus(sentences, TagScheme.IOB2))
        outcomes = Counter()
        for _ in range(60):
            damaged = text
            for _ in range(r.randint(1, 3)):
                damaged = datagen.mutate(r, damaged, FIELD_VALUES)
            for _, rows in column_blocks(damaged):
                for fields in filter(lambda fields: len(fields) in (2, 3), rows):
                    passed = not isinstance(_outcome(Token, *fields), tuple)
                    assert columns_pass(*([field] for field in fields)) == passed, fields
                    outcomes[passed] += 1
        assert outcomes[True] > 500 and outcomes[False] > 0, outcomes


# Strings that ``_TAG_RE`` passes or fails, some only just.
TAG_VALUES = ("O", "B-NP", "I-X_Y", "B-O", "I-O", "B-", "b-NP", "O-NP", "B-NP\n", "B-N P", "I-\u0660",
              "", "Q", "BB-NP", "I-Np2")


class TestValidTagMemo:
    """One memo of the chunk tags that passed ``_TAG_RE`` serves every reader,
    ``check_tag_row`` and the cascade."""

    @pytest.mark.parametrize("seed", range(5))
    def test_the_memo_holds_only_tags_that_pass(self, seed):
        r = datagen.rng(56_000 + seed)
        sentences = [datagen.random_sentence(r, r.randint(1, 8)) for _ in range(4)]
        text = write_conll(Corpus(sentences, TagScheme.IOB2))
        rows = [[PredictionRow(pos, (tag, r.choice(("O", "B-NP", "I-VP"))), tag)
                 for pos, tag in zip(s.pos_tags, s.chunk_tags)] for s in sentences]
        table = write_table(PredictionTable(("a", "b"), rows))
        failed, values = 0, (*FIELD_VALUES, *TAG_VALUES)
        for _ in range(50):
            failed += isinstance(_outcome(parse_conll, datagen.mutate(r, text, values), TagScheme.IOB2, 3,
                                          False), tuple)
            failed += isinstance(_outcome(read_table, datagen.mutate(r, table, values)), tuple)
            sentence = r.choice(sentences)
            tags = r.choices(TAG_VALUES, k=len(sentence))
            failed += isinstance(_outcome(with_tags, sentence, tags), tuple)
            failed += isinstance(_outcome(cascade_bracket, sentence, lambda s: tags[:len(s)]), tuple)
        assert failed > 50
        assert all(tag is None or chunkvote.corpus._TAG_RE.fullmatch(tag)
                   for tag in chunkvote.corpus._VALID_TAGS)

    def test_the_first_bad_token_is_named_whatever_the_hash_seed(self):
        code = (
            "from chunkvote import TagScheme, cascade_bracket, parse_conll, with_tags\n"
            "s = parse_conll('a DT\\nb NN\\nc NN\\nd VB\\ne NN\\n', TagScheme.IOB2, columns=2).sentences[0]\n"
            "tags = ['B-NP', 'I-O', 'Q', 'b-NP', 'I-O']\n"
            "for run in (lambda: with_tags(s, ['O'] * 5), lambda: with_tags(s, tags),\n"
            "            lambda: cascade_bracket(s, lambda s: tags)):\n"
            "    try:\n"
            "        run()\n"
            "    except Exception as exc:\n"
            "        print(type(exc).__name__, exc)\n"
        )
        outputs = set()
        for seed in "01234":
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(sys.path))
            done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
            assert done.returncode == 0, done.stderr
            outputs.add(done.stdout)
        error = "ValidationError bad chunk tag 'I-O': expected O, B-TYPE or I-TYPE; chunk type O is reserved\n"
        assert outputs == {error * 2}


class TestReadersMatchTheReferenceReaders:
    """The sentence-at-a-time readers against the line-at-a-time ones of
    ``oracles``, on 1,000 mutated files of each kind."""

    @pytest.mark.parametrize("seed", range(25))
    def test_chunk_files(self, seed):
        r = datagen.rng(50_000 + seed)
        scheme = r.choice(list(TagScheme))
        sentences = [datagen.random_sentence(r, r.randint(1, 8), scheme=scheme) for _ in range(4)]
        corpus = Corpus(sentences, scheme)
        texts = {3: write_conll(corpus), 2: write_conll(Corpus(map(strip_tags, corpus.sentences), scheme))}
        for _ in range(20):
            for columns, text in texts.items():
                damaged = _hostile(r, text)
                for args in itertools.product(TagScheme, (columns,), (True, False)):
                    got = _outcome(parse_conll, damaged, *args)
                    assert got == _outcome(reference_parse_conll, damaged, *args)

    @pytest.mark.parametrize("seed", range(25))
    def test_bracket_files(self, seed):
        r = datagen.rng(51_000 + seed)
        batch = []
        for _ in range(4):
            nested = datagen.random_nested_sentence(r, r.randint(1, 8), types=("NP", "PP"))
            twins = [ChunkSpan(s.begin, s.end, r.choice(("NP", "PP")))
                     for s in nested.spans if r.random() < 0.3]
            batch.append(NestedSentence(nested.sentence, [*nested.spans, *twins]))
        text = write_nested(batch)
        for _ in range(40):
            damaged = _hostile(r, text)
            got = _outcome(parse_nested, damaged)
            assert got == _outcome(reference_parse_nested, damaged)
            if isinstance(got, list):
                assert [s.spans for s in got] == [s.spans for s in reference_parse_nested(damaged)]

    @pytest.mark.parametrize("seed", range(25))
    def test_table_files(self, seed):
        r = datagen.rng(52_000 + seed)
        gold, predictions = datagen.random_table_data(r, 4, ("m1", "m2"), ("O", "B-NP", "I-NP", "B-VP"))
        with_gold = r.random() < 0.5
        golds = [[tag if with_gold else None for _, tag in rows] for rows in gold]
        rows = [tuple(map(PredictionRow, [pos for pos, _ in g], zip(*preds), tags))
                for g, tags, *preds in zip(gold, golds, *predictions.values())]
        text = write_table(PredictionTable(tuple(predictions), rows))
        for _ in range(40):
            damaged = _hostile(r, text)
            assert _outcome(read_table, damaged) == _outcome(reference_read_table, damaged)

    def test_validate_corpus(self):
        r = datagen.rng(53_000)
        for _ in range(200):
            rows = [datagen.random_raw_tags(r, r.randint(1, 5)) for _ in range(r.randint(1, 6))]
            sentences = [Sentence.from_checked(("w",) * len(tags), ("NN",) * len(tags), tuple(tags))
                         for tags in rows]
            for scheme in TagScheme:
                corpus = Corpus(sentences, scheme)
                assert _outcome(validate_corpus, corpus) == _outcome(reference_validate_corpus, corpus)


# The three column file readers, each with a two-sentence text that has a
# wrong column count on line 4 (the table's header is line 1).
READERS = {
    "conll": (lambda text: parse_conll(text, TagScheme.IOB2),
              "a DT B-NP\nb NN I-NP\n\nc NN B-NP d\n"),
    "nested": (parse_nested, "a DT (NP*\nb NN *)\n\nc NN * d\n"),
    "table": (read_table, "gold pos m1\nB-NP DT B-NP\n\nO NN O O\n"),
}


class TestColumnBlocks:
    def test_yields_numbered_fields_per_sentence(self):
        text = "\n\na DT\nb NN\n\n\nc VB\n"
        assert list(column_blocks(text)) == [(3, [["a", "DT"], ["b", "NN"]]), (7, [["c", "VB"]])]
        assert list(column_blocks("")) == []

    @pytest.mark.parametrize("blank", [" ", "\t", " \t  "])
    def test_a_line_of_spaces_or_tabs_ends_a_sentence(self, blank):
        corpus = parse_conll(f"a DT B-NP\n{blank}\nb NN B-NP\n", TagScheme.IOB2)
        assert [s.words for s in corpus.sentences] == [("a",), ("b",)]
        nested = parse_nested(f"a DT (NP*)\n{blank}\nb NN *\n")
        assert [len(s) for s in nested] == [1, 1]
        table = read_table(f"pos m1\nDT B-NP\n{blank}\nNN O\n")
        assert [len(rows) for rows in table.sentences] == [1, 1]

    def test_crlf_line_ends(self):
        text = "a DT B-NP\r\nb NN I-NP\r\n\r\nc VB O\r\n"
        corpus = parse_conll(text, TagScheme.IOB2)
        assert [s.chunk_tags for s in corpus.sentences] == [("B-NP", "I-NP"), ("O",)]
        nested = parse_nested("a DT (NP*\r\nb NN *)\r\n\r\n")
        assert [(s.begin, s.end, s.label) for s in nested[0].spans] == [(0, 2, "NP")]
        table = read_table("gold pos m1\r\nO DT O\r\n\r\n")
        assert table.systems == ("m1",)
        assert table.gold_column() == [["O"]]

    @pytest.mark.parametrize("reader", READERS)
    def test_column_count_errors_name_the_line(self, reader):
        read, text = READERS[reader]
        read(text.rsplit("\n\n", 1)[0])  # the first sentence alone reads
        with pytest.raises(ParseError, match=r"^line 4: expected \d columns, got 4$"):
            read(text)

    @pytest.mark.parametrize("gap", ["\n", "\n\n \n"])
    def test_an_unclosed_bracket_names_the_last_line_of_its_sentence(self, gap):
        text = f"x NN *\n\na DT (NP*\nb NN *\n{gap}c NN *\n"
        with pytest.raises(ParseError, match=r"^sentence 2 \(line 4\): 1 unclosed bracket"):
            parse_nested(text)

    def test_equal_fields_are_one_string_within_a_read(self):
        corpus = parse_conll("the DT B-NP\ndog NN I-NP\n\nthe DT B-NP\nNN NN I-NP\n", TagScheme.IOB2)
        (the, dog), (the2, nn) = (s.tokens for s in corpus.sentences)
        assert the.word is the2.word and the.chunk_tag is the2.chunk_tag
        assert dog.pos is nn.pos is nn.word and dog.chunk_tag is nn.chunk_tag
        first, second = parse_nested("big JJ (NP*\ndogs NNS *)\n\nbig JJ (NP*\nNNS NNS *)\n")
        assert first.words[0] is second.words[0]
        assert first.pos_tags[1] is second.pos_tags[1] is second.words[1]
        (row,), (row2,) = read_table("gold pos m1 m2\nB-NP DT B-NP I-NP\n\nI-NP DT B-NP I-NP\n").sentences
        assert row.gold is row.preds[0] is row2.preds[0] and row.pos is row2.pos
        assert row.preds[1] is row2.gold is row2.preds[1]


# Every line boundary of str.splitlines, "\r\n" included.
LINE_ENDS = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]

# Per reader: a header and a two-line sentence of three columns.
LONG_READS = {
    "conll": (lambda text: parse_conll(text, TagScheme.IOB2), "", "the DT B-NP\ndog NN I-NP\n\n"),
    "nested": (parse_nested, "", "the DT (NP*\ndog NN *)\n\n"),
    "table": (read_table, "gold pos m1\n", "B-NP DT B-NP\nI-NP NN I-NP\n\n"),
}


class TestTextLines:
    def test_the_boundaries_are_all_that_splitlines_knows(self):
        single = {end for end in LINE_ENDS if len(end) == 1}
        assert {chr(c) for c in range(0x110000) if len(f"a{chr(c)}b".splitlines()) == 2} == single

    def test_every_cut_gives_the_lines_of_splitlines(self, monkeypatch):
        text = "a\r\n\r\nb\n\n\rc\r\n\x85\u2028d\v\n\x1c\n\ne \t\r\n\r\nlast"
        for piece in range(len(text) + 2):
            monkeypatch.setattr(chunkvote.corpus, "LINE_PIECE", piece)
            assert list(text_lines(text)) == text.splitlines(), piece
            assert list(text_lines(text + "\r\n")) == (text + "\r\n").splitlines(), piece

    @pytest.mark.parametrize("piece", [0, 1, 2, 3, 5, 8, 13])
    def test_random_texts_give_the_lines_of_splitlines(self, piece, monkeypatch):
        monkeypatch.setattr(chunkvote.corpus, "LINE_PIECE", piece)
        r = datagen.rng(47_000 + piece)
        for _ in range(300):
            lines = [r.choice(["", "", "a", "bc", "d e"]) + r.choice(LINE_ENDS) for _ in range(r.randint(0, 12))]
            text = "".join(lines) + r.choice(["", "", "tail", " "])
            assert list(text_lines(text)) == text.splitlines(), text

    @pytest.mark.parametrize("piece", [3, 1 << 16])
    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    @pytest.mark.parametrize("reader", LONG_READS)
    def test_a_fault_past_the_first_piece_names_its_line(self, reader, newline, piece, monkeypatch):
        read, header, sentence = LONG_READS[reader]
        lines = (header + sentence * 6_000).split("\n")
        text = newline.join(lines)
        assert len(text) > 2 * chunkvote.corpus.LINE_PIECE
        whole = read(text)
        monkeypatch.setattr(chunkvote.corpus, "LINE_PIECE", piece)
        assert read(text) == whole
        lines[15_001] += " extra"  # line 15,002, far past the first piece
        with pytest.raises(ParseError, match=r"^line 15002: expected \d columns, got 4$"):
            read(newline.join(lines))


DATA = Dataset(((("a", "NN"), "B-NP"), (("b", "VB"), "O"), (("a", "NN"), "B-NP")), ("w[+0]", "p[+0]"))
ROW = PredictionRow("NN", ("O",), "O")

# A builder of one instance of each record, and one of its fields.
RECORDS = {
    "Token": (lambda: Token("dog", "NN", "B-NP"), "word"),
    "Sentence": (lambda: Sentence((Token("dog", "NN"),)), "words"),
    "Corpus": (lambda: Corpus((), TagScheme.IOB2), "scheme"),
    "ChunkSpan": (lambda: ChunkSpan(0, 1, "NP"), "label"),
    "NestedSentence": (lambda: NestedSentence((Token("dog", "NN"),), spans((0, 1, "NP"))), "spans"),
    "WindowConfig": (lambda: WindowConfig(left_words=1), "left_words"),
    "Dataset": (lambda: Dataset(DATA.items, DATA.slot_names), "items"),
    "KnnIndex": (lambda: KnnIndex((0,), ({"a": 1},), {"O": 1}, 1, {}), "order"),
    "KnnModel": (lambda: train_knn(DATA, k=1), "k"),
    "IGTreeNode": (lambda: IGTreeNode("O", {}), "default"),
    "IGTreeModel": (lambda: train_igtree(DATA), "root"),
    "MaxEntTrace": (lambda: MaxEntTrace((-1.5, -1.0), 1), "loglik"),
    "MaxEntModel": (lambda: train_maxent(DATA, iterations=1, cutoff=1), "weights"),
    "Rule": (lambda: Rule(((1, "NN"),), "B-NP", 1.0, 2), "conclusion"),
    "RuleSetModel": (lambda: train_rules(DATA), "rules"),
    "LearnerSpec": (lambda: LearnerSpec("sys", "knn", k=1), "k"),
    "PredictionRow": (lambda: PredictionRow("NN", ("O",), "O"), "gold"),
    "PredictionTable": (lambda: PredictionTable(("a",), ((ROW,),)), "systems"),
    "CombinerWeights": (lambda: CombinerWeights(("a",), {"a": 1.0}, {}, {}, {}, {"O": 1}), "accuracy"),
    "Counts": (lambda: Counts(2, 3, 1), "found"),
    "EvalReport": (lambda: EvalReport(Counts(2, 3, 1), {"NP": Counts(2, 3, 1)}), "beta"),
}
# Per-token, per-row and per-node records keep no instance dict.
SLOTTED = {"Token", "Sentence", "Corpus", "ChunkSpan", "NestedSentence", "PredictionRow", "IGTreeNode"}
# Records holding a dict or a model, so unhashable as with a dict field.
UNHASHABLE = {"KnnIndex", "KnnModel", "IGTreeNode", "IGTreeModel", "MaxEntModel", "RuleSetModel",
              "CombinerWeights", "EvalReport"}


@pytest.mark.parametrize("name", RECORDS)
def test_records_have_slots_and_stay_frozen(name):
    build, field = RECORDS[name]
    record, twin = build(), build()
    assert type(record).__name__ == name
    if name in SLOTTED:
        assert "__slots__" in type(record).__dict__
        assert not hasattr(record, "__dict__")
    value = getattr(record, field)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(record, field, None)
    with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.no_such_field = 1
    assert getattr(record, field) is value
    assert record is not twin and record == twin and not record != twin
    assert repr(record) == repr(twin) and repr(record).startswith(f"{name}({record._fields[0]}=")
    if name in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
    else:
        assert hash(record) == hash(twin)
        assert {record: 1}[twin] == 1


def test_records_of_other_classes_or_values_differ():
    assert ChunkSpan(0, 1, "NP") != ChunkSpan(0, 2, "NP")
    assert ChunkSpan(0, 1, "NP") != (0, 1, "NP")
    assert Token("dog", "NN") != Token("dog", "NN", "O")
    assert PredictionRow("NN", ("O",)) != ROW
    assert Counts(1, 2, 3) != Counts(1, 2, 4)
    assert WindowConfig() != WindowConfig(complex_pairs=True)


def test_a_window_config_is_a_dict_key():
    windows = {WindowConfig(): "default", WindowConfig(left_words=1): "narrow"}
    assert windows[WindowConfig()] == "default"
    assert windows[WindowConfig(left_words=1)] == "narrow"
    assert WindowConfig(left_words=2, complex_pairs=False) in windows


def test_models_leave_what_they_build_or_trace_out_of_eq_and_repr():
    knn, maxent = train_knn(DATA, k=1), train_maxent(DATA, iterations=1, cutoff=1)
    knn.index, maxent.index  # built on first use
    assert "index" in vars(knn) and "index" in vars(maxent)
    for model in (knn, maxent):
        assert "index" not in repr(model)
    assert maxent.trace is not None and "trace" not in repr(maxent)
    assert maxent == MaxEntModel(maxent.weights, maxent.classes, maxent.constant, maxent.correction,
                                 maxent.class_counts, maxent.slot_names, maxent.window)
    assert knn == train_knn(DATA, k=1)
    sentence = Sentence((Token("dog", "NN"),))
    sentence.tokens  # built on first use
    assert sentence == Sentence.from_checked(("dog",), ("NN",)) and "_tokens" not in repr(sentence)


def test_a_read_maxent_trace_is_the_record_of_its_tuple():
    trace = MaxEntTrace((-1.5, -1.0), 1)
    assert repr(trace) == "MaxEntTrace(loglik=(-1.5, -1.0), iterations=1)"
    assert hash(trace) == hash(((-1.5, -1.0), 1)) and set(vars(trace)) == {"loglik", "iterations"}
    trained = train_maxent(DATA, iterations=2, cutoff=1).trace
    assert "loglik" not in vars(trained)  # computed when first read
    assert len(trained.loglik) == 3
    twin = MaxEntTrace(trained.loglik, 2)
    assert trained == twin and hash(trained) == hash(twin) and repr(trained) == repr(twin)
    assert vars(trained) == vars(twin)
