import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from quiltops import quilts
from quiltops.quilts import (Quilt, QuiltAxiomViolated, validate_quilt,
                             parse_quilt, enumerate_quilts, compatible_trees,
                             check_axioms, identity_quilt)
from quiltops.words import Word, WordInvalid, enumerate_words, first_occurrence_words
from quiltops.trees import Tree, TreeInvalid, enumerate_trees


def _enumerate_quilts_by_words(n, degree=None):
    """Oracle: the tree search run on every word, not only on the
    first-occurrence ones."""
    out = []
    for word in enumerate_words(n, degree):
        for tree in compatible_trees(word):
            out.append(Quilt(word, tree))
    out.sort(key=Quilt.sort_key)
    return out


def _check_axioms_pair_oracle(word, tree):
    """Both axioms by the definition: axiom (2) over the set of vertices
    between the first and last u (ascending for labels this small), axiom
    (1) over all ordered pairs."""
    letters = word.letters
    pre, end = tree._pre, tree._end
    first, last = {}, {}
    for i, x in enumerate(letters):
        first.setdefault(x, i)
        last[x] = i
    for u in range(1, word.n + 1):
        if first[u] != last[u]:
            for v in set(letters[first[u] + 1:last[u]]):
                if v != u and not end[v] < pre[u]:
                    raise QuiltAxiomViolated(2, u, v)
    for u in range(1, word.n + 1):
        for v in range(1, word.n + 1):
            if first[u] < last[v] and pre[v] < pre[u] <= end[v]:
                raise QuiltAxiomViolated(1, u, v)


def _verdict(check, word, tree):
    try:
        check(word, tree)
    except QuiltAxiomViolated as e:
        return e.axiom, e.witness
    return None


def test_validate_examples():
    q = validate_quilt("12", "1(2)")
    assert q.degree == 0

    with pytest.raises(QuiltAxiomViolated) as e:
        validate_quilt("121", "1(2)")
    assert e.value.axiom == 2
    assert set(e.value.witness) == {1, 2}

    q = validate_quilt("1232", "1(3,2)")
    assert q.degree == 1


def test_axiom1_witness():
    # descendant occurring before its ancestor
    with pytest.raises(QuiltAxiomViolated) as e:
        validate_quilt("21", "1(2)")
    assert e.value.axiom == 1


def test_parse_roundtrip():
    q = parse_quilt("1232;1(3,2)")
    assert str(q) == "1232;1(3,2)"
    assert parse_quilt(str(q)) == q


_SMALL_QUILTS = [q for n in range(1, 5) for q in enumerate_quilts(n)]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_SMALL_QUILTS).flatmap(
    lambda q: st.permutations(range(1, q.n + 1)).map(q.permute)))
def test_parse_print_round_trip(q):
    assert parse_quilt(str(q)) == q


def test_enumeration_small():
    assert len(enumerate_quilts(1)) == 1
    qs2 = enumerate_quilts(2)
    assert len(qs2) == 2
    assert all(q.degree == 0 for q in qs2)
    assert len(enumerate_quilts(4)) == 792


def test_degree_zero_are_linear_extensions():
    # a degree-0 quilt is exactly a word listing a linear extension of the tree
    for n in (2, 3):
        for q in enumerate_quilts(n, 0):
            pos = {v: i for i, v in enumerate(q.word.letters)}
            for (u, v) in q.tree.edges():
                assert pos[u] < pos[v]
        count = 0
        for t in enumerate_trees(n):
            for perm in itertools.permutations(range(1, n + 1)):
                pos = {v: i for i, v in enumerate(perm)}
                if all(pos[u] < pos[v] for (u, v) in t.edges()):
                    count += 1
        assert count == len(enumerate_quilts(n, 0))


def test_constructive_matches_filter():
    # the exhaustive filter stays as the oracle for the grown trees, with
    # or without a table of built trees shared by the words of one arity
    for n in (1, 2, 3, 4):
        trees, built = enumerate_trees(n), {}
        for w in enumerate_words(n):
            cons = compatible_trees(w)
            assert compatible_trees(w, built) == cons, str(w)
            filt = []
            for t in trees:
                try:
                    check_axioms(w, t)
                    filt.append(t)
                except QuiltAxiomViolated:
                    pass
            assert cons == sorted(filt, key=lambda t: t.sort_key()), str(w)


def test_enumeration_matches_word_oracle():
    # same quilts in the same order, for every degree
    for n in range(1, 6):
        every = _enumerate_quilts_by_words(n)
        assert enumerate_quilts(n) == every
        for d in range(-1, n):
            assert enumerate_quilts(n, d) == [q for q in every if q.degree == d], (n, d)


def test_enumeration_peak_memory_near_its_result():
    # built in order, with no sort keys and no key tuple per quilt, the
    # call peaks near what its result holds (1.87 times with the old sort);
    # the trees it holds are built in the call, from its per-call orbits
    tracemalloc.start()
    try:
        out = enumerate_quilts(5)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(out) == 53040
    assert peak <= 1.25 * held, (peak, held)


def test_quilt_key_eq_and_hash_match_their_tuple_definitions():
    qs = _SMALL_QUILTS
    for q in qs:
        assert q.key() == (q.word.key(), q.tree.key())
        assert hash(q) == hash((q.word._key, q.tree._hash))
        copy = Quilt(Word(q.word.letters, q.n), Tree(q.tree.parent, q.tree.children))
        assert copy == q and hash(copy) == hash(q)
    for q, r in itertools.product(qs, repeat=2):
        assert (q == r) == (q.key() == r.key())
    assert q != q.word and q != q.key()


def test_quilt_keeps_no_key_slot():
    assert Quilt.__slots__ == ("word", "tree")
    assert not hasattr(identity_quilt(), "_key")


def _assert_trees_relabel(word, p):
    new = (0,) + p
    relabelled = sorted((Tree(*t.relabelled(new)) for t in compatible_trees(word)),
                        key=Tree.sort_key)
    assert compatible_trees(word.relabel(new)) == relabelled, (word, p)


def test_compatible_trees_commute_with_relabelling():
    for n in range(1, 5):
        perms = list(itertools.permutations(range(1, n + 1)))
        for w in enumerate_words(n):
            for p in perms:
                _assert_trees_relabel(w, p)
    rng = random.Random(5)
    words5 = enumerate_words(5)
    for _ in range(300):
        _assert_trees_relabel(rng.choice(words5), tuple(rng.sample(range(1, 6), 5)))


def test_check_axioms_matches_pair_oracle():
    # same verdict on every (word, tree) pair, and the same axiom and witness
    failures = {1: 0, 2: 0}
    for n in (1, 2, 3, 4):
        trees = enumerate_trees(n)
        for w in enumerate_words(n):
            for t in trees:
                got = _verdict(check_axioms, w, t)
                assert got == _verdict(_check_axioms_pair_oracle, w, t), (w, t)
                if got:
                    failures[got[0]] += 1
    assert failures[1] and failures[2]


def test_axiom2_implies_no_interlacing():
    # re-validating the word of any quilt never fails interlacing
    from quiltops.words import Word
    for q in enumerate_quilts(4):
        Word(q.word.letters, 4)


def test_permutation_group_action():
    random.seed(2)
    qs = enumerate_quilts(4)
    for _ in range(100):
        q = random.choice(qs)
        perm = random.sample(range(1, 5), 4)
        sigma = {i + 1: perm[i] for i in range(4)}
        inv = {v: k for k, v in sigma.items()}
        assert q.permute(sigma).permute(inv) == q
        assert q.permute(sigma).degree == q.degree


def test_identity_quilt():
    q = identity_quilt()
    assert q.n == 1 and q.degree == 0


def _relabel_validated(q, new):
    """Oracle for Quilt.relabel (and Word.relabel): the renamed word, tree
    and quilt built through their validating constructors."""
    word = Word(tuple(new[x] for x in q.word.letters), q.n)
    return Quilt(word, Tree(*q.tree.relabelled(new)))


def _enumerate_quilts_validated(n, degree=None):
    """Oracle for enumerate_quilts: its body before the relabelling and
    orbit lemmas, every relabelled word, tree and quilt built through the
    validating constructors, equal trees shared through a table of its
    own call."""
    trees_of = {w: ts for w in first_occurrence_words(n, degree) if (ts := compatible_trees(w))}
    trees = dict.fromkeys(t for ts in trees_of.values() for t in ts)
    table = {}

    def validated(t, new):
        key = t.relabelled(new)
        if key not in table:
            table[key] = Tree(*key)
        return table[key]

    groups = []
    for p in itertools.permutations(range(1, n + 1)):
        new = (0,) + p
        tree_of = {t: validated(t, new) for t in trees}
        groups.extend((Word(tuple(new[x] for x in word.letters), n),
                       sorted(map(tree_of.get, ts), key=Tree.sort_key))
                      for word, ts in trees_of.items())
    groups.sort(key=lambda g: g[0].sort_key())
    return [Quilt(word, tree) for word, ts in groups for tree in ts]


def _tree_slots(t):
    return tuple(getattr(t, s) for s in Tree.__slots__)


def _assert_built_as_validated(got, want):
    assert type(got) is Quilt and got == want, (got, want)
    assert hash(got) == hash(want) and str(got) == str(want), (got, want)
    assert got.sort_key() == want.sort_key(), (got, want)
    assert (got.word.n, got.word._key) == (want.word.n, want.word._key), (got, want)
    assert _tree_slots(got.tree) == _tree_slots(want.tree), (got, want)


def test_enumeration_builds_as_validated():
    # the relabelling and orbit lemmas: term by term, in order, as the
    # validating build, every Tree slot included
    for n in range(1, 6):
        for degree in [None] + list(range(-1, n)):
            got, want = enumerate_quilts(n, degree), _enumerate_quilts_validated(n, degree)
            assert len(got) == len(want), (n, degree)
            for g, w in zip(got, want):
                _assert_built_as_validated(g, w)


def test_relabel_builds_as_validated():
    # every quilt of arity <= 4 under every permutation, and all 53,040 of
    # arity 5 under seeded permutations
    for n in range(1, 5):
        news = [(0,) + p for p in itertools.permutations(range(1, n + 1))]
        for q in enumerate_quilts(n):
            for new in news:
                _assert_built_as_validated(q.relabel(new), _relabel_validated(q, new))
    rng = random.Random(22)
    for q in enumerate_quilts(5):
        new = (0,) + tuple(rng.sample(range(1, 6), 5))
        _assert_built_as_validated(q.relabel(new), _relabel_validated(q, new))


def test_enumeration_validates_only_first_occurrence_quilts(monkeypatch):
    # the relabelling lemma carries the 442 checks to all 53,040 quilts
    words = []

    def counted(word, tree):
        words.append(word)
        return check_axioms(word, tree)

    monkeypatch.setattr(quilts, "check_axioms", counted)
    assert len(enumerate_quilts(5)) == 53040
    assert len(words) == 442
    assert all(w.down_order() == [1, 2, 3, 4, 5] for w in words)


def test_enumeration_refuses_an_incompatible_tree(monkeypatch):
    # relabelling carries validity over, not invalidity away: a bad tree
    # among the first-occurrence quilts is refused before it is relabelled
    def with_a_bad_tree(word, *table):
        ts = compatible_trees(word, *table)
        return ts + [next(t for t in enumerate_trees(word.n) if t not in ts)]

    monkeypatch.setattr(quilts, "compatible_trees", with_a_bad_tree)
    with pytest.raises(QuiltAxiomViolated):
        enumerate_quilts(3)


@pytest.mark.parametrize("new", [(0, 1, 1, 3), (0, 1, 2), (0, 0, 2, 3)],
                         ids=["repeated-image", "short", "maps-to-zero"])
def test_relabel_refuses_a_non_permutation(new):
    # the one hypothesis of the relabelling lemma, checked by all three
    for q in enumerate_quilts(3):
        with pytest.raises(WordInvalid):
            q.word.relabel(new)
        with pytest.raises(TreeInvalid):
            q.tree.relabel(new)
        with pytest.raises(WordInvalid):
            q.relabel(new)
