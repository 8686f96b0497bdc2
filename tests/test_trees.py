import itertools
import math
import random

import pytest

from quiltops.trees import (Tree, TreeInvalid, _invert, enumerate_trees, parity_sign,
                            parse_tree, planar_shapes, shape_of)


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


@pytest.mark.parametrize("text", ["1(1)", "2(1,2)", "5(3(5(3),4,4(3,1,1)),1(4,2),5)"])
def test_parse_tree_refuses_repeated_labels(text):
    # each once parsed as a tree, a later occurrence of a label overwriting
    # an earlier one: 1(1) as 1, 2(1,2) as 2(1)
    with pytest.raises(TreeInvalid, match="labels must be 1..n"):
        parse_tree(text)


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


def _counting_validations(monkeypatch):
    """A list that grows by one tree for every validating Tree.__init__."""
    built, init = [], Tree.__init__

    def counted(self, parent, children):
        init(self, parent, children)
        built.append(self)

    monkeypatch.setattr(Tree, "__init__", counted)
    return built


def test_enumerated_quilts_share_equal_trees(monkeypatch):
    # one object per labelled tree within a call, from its shape's orbit;
    # only compatible_trees validates, once per distinct first-occurrence
    # tree (33 and 442 quilts sit on 15 and 105 trees)
    from quiltops.quilts import enumerate_quilts, first_occurrence_quilts
    for n, validated in ((4, 15), (5, 105)):
        firsts = {q.tree.key() for q in first_occurrence_quilts(n)}
        built = _counting_validations(monkeypatch)
        shared = {}
        for q in enumerate_quilts(n):
            key = q.tree.key()
            assert key == (q.tree.n, q.tree.parent, q.tree.children)
            assert shared.setdefault(key, q.tree) is q.tree
        assert len(built) == validated
        assert {t.key() for t in built} == firsts and len(firsts) == validated
        assert len(shared) == len(enumerate_trees(n))


def test_enumerate_trees_validates_only_the_shapes(monkeypatch):
    built = _counting_validations(monkeypatch)
    out = enumerate_trees(5)
    assert len(out) == 1680 and len(built) == 14
    assert [t.key() for t in built] == [s.key() for s in planar_shapes(5)]
    assert len({id(t) for t in out}) == len(out)


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


def _enumerate_trees_by_forests(n):
    """Oracle for enumerate_trees: the ordered forests on every subset of
    the labels, grown recursively (the first tree takes any nonempty
    subset), each tree built through the validating constructor."""
    forests_on, trees_on = {}, {}

    def forests(vertices):
        if vertices not in forests_on:
            out = [()] if not vertices else []
            vs = sorted(vertices)
            for k in range(1, len(vs) + 1):
                for sub in itertools.combinations(vs, k):
                    first = frozenset(sub)
                    out += [(t,) + f for t in rooted(first) for f in forests(vertices - first)]
            forests_on[vertices] = out
        return forests_on[vertices]

    def rooted(vertices):
        if vertices not in trees_on:
            trees_on[vertices] = [(r, f) for r in sorted(vertices)
                                  for f in forests(vertices - {r})]
        return trees_on[vertices]

    def build(node, parent, children, up):
        root, kids = node
        parent[root], children[root] = up, tuple(k[0] for k in kids)
        for k in kids:
            build(k, parent, children, root)

    out = []
    for node in rooted(frozenset(range(1, n + 1))):
        parent, children = [0] * (n + 1), [()] * (n + 1)
        build(node, parent, children, 0)
        out.append(Tree(parent, children))
    out.sort(key=Tree.sort_key)
    return out


def test_enumerate_trees_matches_forest_oracle():
    # in order, and equal on every slot: the walk arrays of each renamed
    # shape are those a validating walk of the tree finds
    for n in range(1, 7):
        got, want = enumerate_trees(n), _enumerate_trees_by_forests(n)
        assert len(got) == len(want) == math.factorial(n) * catalan(n - 1)
        assert [_slots(t) for t in got] == [_slots(t) for t in want], n


def test_planar_shapes_are_the_preorder_labelled_trees():
    for n in range(1, 7):
        shapes = planar_shapes(n)
        assert len(shapes) == catalan(n - 1)
        assert shapes == [t for t in enumerate_trees(n) if t._pre[1:] == tuple(range(n))]
        for s in shapes:
            assert all(list(cs) == sorted(cs) for cs in s.children)
    with pytest.raises(ValueError):
        planar_shapes(0)


def test_shape_of_names_the_one_shape_and_renaming():
    # the orbit lemma: t = s^tau for exactly one shape s and renaming tau,
    # and the n! renamings of a shape are distinct
    for n in range(1, 6):
        shapes = planar_shapes(n)
        news = [(0,) + p for p in itertools.permutations(range(1, n + 1))]
        renaming = {s.relabel(new): (s, new[1:]) for s in shapes for new in news}
        assert len(renaming) == len(shapes) * len(news)
        for t in enumerate_trees(n):
            s, tau = shape_of(t)
            assert renaming[t] == (s, tau)
            assert tau == tuple(sorted(range(1, n + 1), key=t._pre.__getitem__))
            assert _slots(s) == _slots(renaming[t][0])
            assert _slots(s.relabel((0,) + tau)) == _slots(t)
        for s in shapes:
            assert shape_of(s) == (s, tuple(range(1, n + 1)))


def test_sort_key_is_the_stored_key():
    # sorting by tree allocates nothing: the sort key is the key tuple itself
    for n in range(1, 6):
        for t in enumerate_trees(n):
            assert t.sort_key() == (t.n, t.parent, t.children)
            assert t.sort_key() is t.key()


def _permute(t, sigma):
    """t with every vertex u replaced by sigma^{-1}(u), a right action."""
    return Tree(*t.relabelled(_invert(sigma, t.n)))


def test_permutation_action():
    random.seed(0)
    trees = enumerate_trees(4)
    for _ in range(100):
        t = random.choice(trees)
        perm = random.sample(range(1, 5), 4)
        sigma = {i + 1: perm[i] for i in range(4)}
        inv = {v: k for k, v in sigma.items()}
        assert _permute(_permute(t, sigma), inv) == t
    # right action: (t^s)^r == t^(s r)
    for _ in range(50):
        t = random.choice(trees)
        s = dict(zip(range(1, 5), random.sample(range(1, 5), 4)))
        r = dict(zip(range(1, 5), random.sample(range(1, 5), 4)))
        sr = {i: s[r[i]] for i in range(1, 5)}
        assert _permute(_permute(t, s), r) == _permute(t, sr)


def _relabel_validated(t, new):
    """Oracle for Tree.relabel: the renamed tree through the validating
    constructor, which walks it again."""
    return Tree(*t.relabelled(new))


def _slots(t):
    return tuple(getattr(t, s) for s in Tree.__slots__)


def test_relabel_matches_validated_build():
    # the relabelling lemma on trees: every tree of arity <= 5 under every
    # permutation (201,600 pairs at arity 5), equal on every slot, the walk
    # arrays (_pre, _end, _depth), _root, _key and _hash among them
    assert set(Tree.__slots__) >= {"_pre", "_end", "_depth", "_root", "_key", "_hash"}
    for n in range(1, 6):
        news = [(0,) + p for p in itertools.permutations(range(1, n + 1))]
        for t in enumerate_trees(n):
            for new in news:
                got = t.relabel(new)
                assert _slots(got) == _slots(_relabel_validated(t, new)), (t, new)


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
