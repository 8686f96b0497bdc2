import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from quiltops.trees import _invert
from quiltops.words import (Word, WordInvalid, _check_interlacing,
                            enumerate_words, first_occurrence_words, parse_word,
                            word_statistics)


def _closed_set_oracle(letters):
    """The interlacing check with an explicit closed set: a return to x
    closes every vertex strictly between it and the previous x."""
    closed = set()
    last_pos = {}
    for i, x in enumerate(letters):
        if x in closed:
            raise WordInvalid("interlacing at position %d in %r" % (i, letters))
        if x in last_pos:
            for y in set(letters[last_pos[x] + 1:i]):
                closed.add(y)
        last_pos[x] = i


def _outcome(check, letters):
    """None if check accepts the letters, else the exception type and text."""
    try:
        check(letters)
    except ValueError as e:
        return type(e), str(e)
    return None


def _word_oracle(letters):
    n = max(letters) if letters else 0
    if set(letters) != set(range(1, n + 1)):
        raise WordInvalid("not surjective")
    if any(a == b for a, b in zip(letters, letters[1:])):
        raise WordInvalid("consecutive repetition")
    _closed_set_oracle(letters)


def _assert_interlacing_agrees(letters):
    assert _outcome(_check_interlacing, letters) == \
        _outcome(_closed_set_oracle, letters), letters
    word = _outcome(Word, letters)
    oracle = _outcome(_word_oracle, letters)
    assert (word is None) == (oracle is None), letters
    assert word is None or word[0] is oracle[0], letters


def test_validation():
    parse_word("1232")
    parse_word("1,2,3,2")
    with pytest.raises(WordInvalid):
        Word((1, 1, 2))            # consecutive repeat
    with pytest.raises(WordInvalid):
        Word((1, 2, 1, 2))         # interlacing
    with pytest.raises(WordInvalid):
        Word((1, 3), 3)            # not surjective
    with pytest.raises(WordInvalid):
        Word((1, 2, 3, 1, 2), 3)   # interlaced across a gap
    for text in ("", "  "):        # the parser refuses the empty word; Word(()) stays
        with pytest.raises(WordInvalid):
            parse_word(text)
    assert Word(()).n == 0 and Word(()).letters == ()


def test_degree_and_interposed():
    w = parse_word("123242151")
    assert w.degree == 4
    stats = word_statistics(w)
    assert len(stats["caesurae"]) == 4
    assert stats["interposed"] == [2, 3, 4, 5]
    # every interposed vertex directly follows its caesura
    for pos, v in stats["caesura_pairs"]:
        assert w.letters[pos + 1] == v

    w0 = parse_word("12")
    s0 = word_statistics(w0)
    assert s0["degree"] == 0 and s0["caesurae"] == [] and s0["lastFirstPairs"] == 1


def test_interposed_vs_between():
    # interposed pairs with caesurae; between is the looser axiom pattern
    w = parse_word("152435")
    assert w.interposed() == [2]
    assert w.between(5) == {2, 4, 3}


def test_word_length_formula_exhaustive():
    for n in range(1, 5):
        for w in enumerate_words(n):
            s = len(w.last_first_pairs())
            assert len(w) == 2 * n - s - 1
            assert len(w.caesura_positions()) == w.degree
            assert len(w.interposed()) == w.degree


def test_interlacing_matches_oracle():
    # every sequence over 1..4 of length <= 7; the accepted ones that are
    # onto 1..n are exactly the words of arity n, which have length <= 2n-1
    accepted = {n: set() for n in range(1, 5)}
    for length in range(0, 8):
        for letters in itertools.product(range(1, 5), repeat=length):
            _assert_interlacing_agrees(letters)
            if letters and _outcome(Word, letters) is None:
                accepted[max(letters)].add(letters)
    for n in range(1, 5):
        assert accepted[n] == {w.letters for w in enumerate_words(n)}


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, 6), max_size=11))
def test_interlacing_matches_oracle_sampled(letters):
    _assert_interlacing_agrees(tuple(letters))


def test_enumeration():
    assert [str(w) for w in enumerate_words(1)] == ["1"]
    ws2 = enumerate_words(2)
    assert sorted(str(w) for w in ws2) == ["12", "121", "21", "212"]
    # enumeration is duplicate free and complete against a posteriori check
    ws3 = enumerate_words(3)
    assert len(set(ws3)) == len(ws3) == 36
    for w in ws3:
        Word(w.letters, 3)


def test_first_occurrence_words_match_filter():
    for n in range(1, 6):
        for d in [None] + list(range(-1, n)):
            firsts = [w for w in enumerate_words(n, d)
                      if w.down_order() == list(range(1, n + 1))]
            assert first_occurrence_words(n, d) == firsts, (n, d)


def test_permutation_action():
    random.seed(1)
    words = enumerate_words(3)
    for _ in range(100):
        w = random.choice(words)
        perm = random.sample(range(1, 4), 3)
        sigma = {i + 1: perm[i] for i in range(3)}
        inv = {v: k for k, v in sigma.items()}
        assert w.relabel(_invert(sigma, 3)).relabel(_invert(inv, 3)) == w
        assert w.relabel(_invert(sigma, 3)).degree == w.degree


def test_down_order():
    assert parse_word("3121").down_order() == [3, 1, 2]



@st.composite
def _words(draw, min_n, max_n):
    """A word of arity min_n..max_n, grown with the open vertices on a stack
    as first_occurrence_words grows them, then relabelled at random."""
    n = draw(st.integers(min_n, max_n))
    letters, stack, seen = [], [], 0
    while seen < n or (len(stack) > 1 and draw(st.booleans())):
        # return to one of the open vertices below the top, or open the
        # next label
        returns = max(len(stack) - 1, 0)
        i = draw(st.integers(0, returns if seen < n else returns - 1))
        if i < returns:
            stack = stack[:i + 1]
        else:
            seen += 1
            stack.append(seen)
        letters.append(stack[-1])
    perm = draw(st.permutations(range(1, n + 1)))
    return Word(tuple(perm[x - 1] for x in letters), n)


@settings(max_examples=150, deadline=None)
@given(st.one_of(_words(1, 9), _words(10, 14)))
def test_parse_print_round_trip(w):
    text = str(w)
    assert ("," in text) == (w.n >= 10)
    assert parse_word(text) == w
