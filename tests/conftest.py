import pytest

from chunkvote import NestedSentence, Sentence, TagScheme, Token, parse_conll


TINY_TRAIN = """\
the DT B-NP
dog NN I-NP
sat VBD B-VP
on IN B-PP
the DT B-NP
mat NN I-NP
. . O

a DT B-NP
big JJ I-NP
cat NN I-NP
slept VBD B-VP
. . O

the DT B-NP
cat NN I-NP
sat VBD B-VP
. . O

rice NN B-NP
slept VBD B-VP
on IN B-PP
snow NN B-NP
. . O

a DT B-NP
old JJ I-NP
dog NN I-NP
sat VBD B-VP
on IN B-PP
a DT B-NP
mat NN I-NP
. . O

snow NN B-NP
sat VBD B-VP
. . O
"""


@pytest.fixture
def tiny_corpus():
    return parse_conll(TINY_TRAIN, TagScheme.IOB2)


@pytest.fixture
def money_example():
    """Doubled noun phrase around a currency amount: NP over [0, 2) and
    [2, 4), wrapped by an NP over [0, 4)."""
    tokens = (
        Token("about", "IN"),
        Token("25", "CD"),
        Token("$", "$"),
        Token("million", "CD"),
    )
    spans = ((0, 2, "NP"), (0, 4, "NP"), (2, 4, "NP"))
    return NestedSentence(tokens, spans)


def make_sentence(word_pos_tags):
    return Sentence(tuple(Token(w, p, t) for w, p, t in word_pos_tags))


def make_untagged(word_pos):
    return Sentence(tuple(Token(w, p) for w, p in word_pos))
