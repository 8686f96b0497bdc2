import itertools
import math
import random

import pytest

from quiltops.trees import Tree, TreeInvalid, enumerate_trees, parity_sign, parse_tree


def catalan(n):
    return math.comb(2 * n, n) // (n + 1)


def test_parse_and_str_roundtrip():
    for text in ["1", "1(2)", "2(1)", "1(3,2)", "1(2(4),3)", "3(2,1)"]:
        t = parse_tree(text)
        assert str(t) == text
        assert parse_tree(str(t)) == t


def test_invalid_trees():
    with pytest.raises(TreeInvalid):
        Tree((0, 0, 0), ((), (), ()))       # two roots
    with pytest.raises(TreeInvalid):
        Tree((0, 2, 1), ((), (2,), (1,)))   # cycle
    with pytest.raises(TreeInvalid):
        Tree((0, 0, 1), ((), (2, 2), ()))   # duplicated child
    with pytest.raises(TreeInvalid):
        parse_tree("1(3)")                  # labels not 1..n


def test_orders():
    t = parse_tree("1(2(4),3)")
    assert t.root == 1
    assert t.le(1, 4) and t.lt(2, 4) and not t.le(3, 4)
    assert t.left_of(4, 3) and not t.left_of(3, 4)
    assert not t.left_of(2, 4)  # comparable pair
    assert t.leaves() == [4, 3]
    # five-way trichotomy: exactly one of =, <, >, left, right
    for u in range(1, 5):
        for v in range(1, 5):
            rels = [u == v, t.lt(u, v), t.lt(v, u),
                    t.left_of(u, v), t.left_of(v, u)]
            assert sum(rels) == 1


def _ancestors_oracle(t, v):
    """Oracle: v and its ancestors, walked up the parent links."""
    out = [v]
    while t.parent[out[-1]]:
        out.append(t.parent[out[-1]])
    return out


def _left_of_oracle(t, u, v):
    """Oracle: compare the children of the lowest common ancestor through
    which the root paths of u and v leave it."""
    au = _ancestors_oracle(t, u)[::-1]
    av = _ancestors_oracle(t, v)[::-1]
    if u in av or v in au:
        return False
    i = 0
    while au[i] == av[i]:
        i += 1
    cs = t.children[au[i - 1]]
    return cs.index(au[i]) < cs.index(av[i])


def test_interval_relations_match_ancestor_walk():
    for n in range(1, 6):
        for t in enumerate_trees(n):
            for u in range(1, n + 1):
                for v in range(1, n + 1):
                    le = u in _ancestors_oracle(t, v)
                    assert t.le(u, v) == le, (t, u, v)
                    assert t.lt(u, v) == (le and u != v), (t, u, v)
                    assert t.left_of(u, v) == _left_of_oracle(t, u, v), (t, u, v)


def test_enumerated_quilts_share_equal_trees():
    from quiltops.quilts import enumerate_quilts
    shared = {}
    for q in enumerate_quilts(4):
        key = q.tree.key()
        assert key == (q.tree.n, q.tree.parent, q.tree.children)
        assert shared.setdefault(key, q.tree) is q.tree
    assert len(shared) == len(enumerate_trees(4))


def test_corner_word_examples():
    assert parse_tree("1").corner_word() == (1,)
    assert parse_tree("1(2)").corner_word() == (1, 2, 1)
    assert parse_tree("1(2,3)").corner_word() == (1, 2, 1, 3, 1)
    t = parse_tree("1(3,2)")
    assert len(t.corner_word()) == 2 * t.n - 1


def test_corner_word_properties():
    # nesting, containment and order properties of the corner reading
    for t in enumerate_trees(4):
        cw = t.corner_word()
        assert len(cw) == t.n + len(t.edges())
        for (u, v) in t.edges():
            pos_u = [i for i, x in enumerate(cw) if x == u]
            pos_v = [i for i, x in enumerate(cw) if x == v]
            assert pos_u[0] < pos_v[0] and pos_v[-1] < pos_u[-1]
        for u in range(1, t.n + 1):
            for v in range(1, t.n + 1):
                if u == v:
                    continue
                pos_u = [i for i, x in enumerate(cw) if x == u]
                pos_v = [i for i, x in enumerate(cw) if x == v]
                nested = pos_u[0] < pos_v[0] and pos_v[-1] < pos_u[-1]
                assert nested == t.lt(u, v)


def test_corner_words_are_words():
    from quiltops.words import Word
    for n in (1, 2, 3, 4):
        for t in enumerate_trees(n):
            w = Word(t.corner_word(), n)
            assert w.degree == n - 1


def test_enumeration_counts():
    for n in range(1, 6):
        trees = enumerate_trees(n)
        assert len(trees) == math.factorial(n) * catalan(n - 1)
        assert len(set(trees)) == len(trees)


def test_sort_key_is_the_stored_key():
    # sorting by tree allocates nothing: the sort key is the key tuple itself
    for n in range(1, 6):
        for t in enumerate_trees(n):
            assert t.sort_key() == (t.n, t.parent, t.children)
            assert t.sort_key() is t.key()


def test_permutation_action():
    random.seed(0)
    trees = enumerate_trees(4)
    for _ in range(100):
        t = random.choice(trees)
        perm = random.sample(range(1, 5), 4)
        sigma = {i + 1: perm[i] for i in range(4)}
        inv = {v: k for k, v in sigma.items()}
        assert t.permute(sigma).permute(inv) == t
    # right action: (t^s)^r == t^(s r)
    for _ in range(50):
        t = random.choice(trees)
        s = dict(zip(range(1, 5), random.sample(range(1, 5), 4)))
        r = dict(zip(range(1, 5), random.sample(range(1, 5), 4)))
        sr = {i: s[r[i]] for i in range(1, 5)}
        assert t.permute(s).permute(r) == t.permute(sr)


def cycle_count_sign(perm):
    """Oracle: the sign of a permutation of 0..n-1 from its cycle type,
    (-1) to the number of cycles of even length."""
    sgn = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        ln = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            ln += 1
        if ln % 2 == 0:
            sgn = -sgn
    return sgn


def test_parity_sign_matches_cycle_count():
    for n in range(7):
        for perm in itertools.permutations(range(n)):
            assert parity_sign(perm) == cycle_count_sign(perm), perm
            # only the relative order of the entries matters
            assert parity_sign([3 * v + 1 for v in perm]) == cycle_count_sign(perm)
