import ast
import math
import os
import random
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import quiltops
from quiltops.extensions import (face, face_signs, boundary, boundary_sum,
                                 tree_extensions, word_extensions, quilt_extensions,
                                 extension_sign, compose, compose_sums, _built,
                                 _deleted, _faces)
from quiltops.formal import FormalSum, parse_formal
from quiltops.linfty import L0, P0
from quiltops.rings import ZZ, QQ, GF2
from quiltops.trees import Tree, enumerate_trees, parse_tree
from quiltops.words import Word, WordInvalid, enumerate_words, parse_word
from quiltops.quilts import Quilt, enumerate_quilts, parse_quilt, identity_quilt
from quiltops import mquilt
from quiltops.mquilt import MQuilt, mq_boundary

from conftest import assert_as_validated

SRC = Path(__file__).resolve().parent.parent / "src" / "quiltops"


# ------------------------------------------------------------- oracles

def _face_sign_oracle(word, i):
    """Sign of the face at occurrence i, counting caesurae from scratch:
    the k'th caesura has sign (-1)^k, and a last occurrence whose previous
    occurrence is the k'th caesura has sign (-1)^(k+1)."""
    letters = word.letters
    caesurae = [j for j in range(len(letters)) if letters[j] in letters[j + 1:]]
    if i in caesurae:
        k = caesurae.index(i) + 1
    else:
        prev = max(j for j in range(i) if letters[j] == letters[i])
        k = caesurae.index(prev) + 2
    return -1 if k % 2 else 1


def oracle_tree_extensions(outer, inner, a):
    """Exhaustive filter over all candidate trees, straight from the
    definition of an extension (subtree via the injection, quotient via
    the collapse)."""
    m, n = outer.n, inner.n
    alpha = lambda j: j + a - 1

    def beta(k):
        if k < a:
            return k
        if k < a + n:
            return a
        return k + 1 - n

    out = []
    for U in enumerate_trees(n + m - 1):
        ok = True
        for r in range(1, n + 1):
            for s in range(1, n + 1):
                if r == s:
                    continue
                if ((inner.parent[s] == r) !=
                        (U.parent[alpha(s)] == alpha(r))):
                    ok = False
                if inner.left_of(r, s) != U.left_of(alpha(r), alpha(s)):
                    ok = False
        if ok:
            for (u, w) in U.edges():
                bu, bw = beta(u), beta(w)
                if bu == bw == a:
                    continue
                if outer.parent.__getitem__(bw) != bu:
                    ok = False
        if ok:
            for u in range(1, n + m):
                for w in range(1, n + m):
                    if u == w:
                        continue
                    if outer.left_of(beta(u), beta(w)) and not U.left_of(u, w):
                        ok = False
        if ok:
            out.append(U)
    return out


def oracle_word_extensions(outer, inner, a):
    """Exhaustive filter over all candidate words per the definition."""
    m, n = outer.n, inner.n
    alpha = lambda j: j + a - 1

    def beta(k):
        if k < a:
            return k
        if k < a + n:
            return a
        return k + 1 - n

    inner_relab = [alpha(x) for x in inner.letters]
    image = set(range(a, a + n))
    out = []
    for X in enumerate_words(n + m - 1):
        # delete letters outside the image, noting where deletions happen
        kept = []
        deleted_before = False
        collapse_ok = True
        for x in X.letters:
            if x in image:
                kept.append((x, deleted_before))
                deleted_before = False
            else:
                deleted_before = True
        dedup = []
        for (x, gap) in kept:
            if dedup and dedup[-1] == x:
                if not gap:
                    collapse_ok = False  # repetition without a deletion
                continue
            if dedup and gap and dedup[-1] != x:
                pass
            dedup.append(x)
        # repetitions must occur wherever letters have been deleted
        prev = None
        for (x, gap) in kept:
            if gap and prev is not None and prev != x:
                collapse_ok = False
            prev = x
        if not collapse_ok or dedup != inner_relab:
            continue
        relab = [beta(x) for x in X.letters]
        dd = []
        for x in relab:
            if not dd or dd[-1] != x:
                dd.append(x)
        if dd == list(outer.letters):
            out.append(X)
    return out


def perm_sign_by_cycles(perm):
    """Independent parity via cycle decomposition."""
    n = len(perm)
    seen = [False] * n
    sgn = 1
    for i in range(n):
        if seen[i]:
            continue
        j, ln = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            ln += 1
        if ln % 2 == 0:
            sgn = -sgn
    return sgn


def oracle_extension_sign(outer, inner, a, x):
    m, n = outer.n, inner.n
    beta_inv = lambda u: u if u < a else u + n - 1
    source = []
    for v in outer.interposed():
        source.append((v + a - 1) if v == a else beta_inv(v))
    # careful: a maps through the first letter of the inner word
    source = []
    for v in outer.interposed():
        if v == a:
            source.append(inner.letters[0] + a - 1)
        else:
            source.append(beta_inv(v))
    for w in inner.interposed():
        source.append(w + a - 1)
    target = x.interposed()
    pos = {v: i for i, v in enumerate(source)}
    perm = [pos[v] for v in target]
    return perm_sign_by_cycles(perm)


# --------------------------------------------------------------- faces

def test_face_examples():
    w = parse_word("123242151")
    assert str(face(w, 1)) == "13242151"
    assert face(parse_word("12"), 0) is None
    q = parse_quilt("1232;1(3,2)")
    fq = face(q, 3)
    assert str(fq) == "123;1(3,2)"


def test_boundary_golden():
    d1 = boundary(parse_word("123242151"))
    assert d1 == parse_formal(
        "-23242151 + 13242151 - 12342151 + 12324151 + 12324251 - 12324215",
        parse_word)
    # the paper's display for this word ends +12343215; the face-sign rule
    # and d^2 = 0 force the minus (see the decisions notes)
    d2 = boundary(parse_word("123432151"))
    assert d2 == parse_formal(
        "-23432151 + 13432151 - 12432151 + 12342151 - 12343151 + 12343251"
        " - 12343215", parse_word)


def test_face_signs_along_words():
    w = parse_word("123242151")
    assert [s for _, s in face_signs(w.letters)] == [-1, 1, -1, 1, 1, -1]
    w = parse_word("123432151")
    assert [s for _, s in face_signs(w.letters)] == [-1, 1, -1, 1, -1, 1, -1]


def test_face_signs_match_oracle():
    # same positions, same order, same signs as counting caesurae per face
    counts = {}
    for n in range(1, 6):
        for w in enumerate_words(n):
            expect = [(i, _face_sign_oracle(w, i)) for i in range(len(w.letters))
                      if face(w, i) is not None]
            assert face_signs(w.letters) == expect, str(w)
            counts[n] = counts.get(n, 0) + 1
    assert counts[4] == 528 and counts[5] == 10800


def test_quilt_boundary_golden():
    q = parse_quilt("143234;1(2,3,4)")
    d = boundary(q)
    expect = FormalSum(ZZ, [
        (parse_quilt("13234;1(2,3,4)"), -1),
        (parse_quilt("14234;1(2,3,4)"), 1),
        (parse_quilt("14324;1(2,3,4)"), -1),
        (parse_quilt("14323;1(2,3,4)"), 1),
    ])
    assert d == expect


def test_boundary_squared_exhaustive():
    for n in (2, 3, 4):
        for w in enumerate_words(n):
            assert boundary_sum(boundary(w)).is_zero()
    for n in (2, 3):
        for q in enumerate_quilts(n):
            assert boundary_sum(boundary(q)).is_zero()


def test_degree_zero_boundary():
    assert boundary(parse_quilt("12;1(2)")).is_zero()


# Faces are built by the face lemma, without the validating constructors,
# and boundary_sum builds only the faces that survive: the lemmas they rest
# on are tested here directly, against the build they replaced.

def _built_validated(letters, tree):
    """The face built through the validating constructors: the oracle for
    _built, which skips them by the face lemma."""
    return Word(letters) if tree is None else Quilt(Word(letters, tree.n), tree)


def _assert_built_as_validated(letters, tree):
    got, want = _built(letters, tree), _built_validated(letters, tree)
    assert type(got) is type(want) and got == want, (letters, tree)
    assert hash(got) == hash(want) and str(got) == str(want), (letters, tree)
    assert got.sort_key() == want.sort_key(), (letters, tree)


def test_every_face_of_a_quilt_is_a_quilt():
    built = 0
    for n in range(1, 6):
        for q in enumerate_quilts(n):
            for f, _ in _faces(q.word.letters):
                _assert_built_as_validated(f, q.tree)
                built += 1
    assert built == 111276


def test_every_face_of_a_word_is_a_word():
    built = 0
    for n in range(1, 6):
        for w in enumerate_words(n):
            for f, _ in _faces(w.letters):
                _assert_built_as_validated(f, None)
                built += 1
    assert built == 49954


def test_face_builds_as_validated():
    for q in enumerate_quilts(3) + enumerate_quilts(4):
        for x in (q, q.word):
            tree = q.tree if x is q else None
            for i, x_i in enumerate(q.word.letters):
                got = face(x, i)
                if q.word.count(x_i) > 1:
                    want = _built_validated(q.word.letters[:i] + q.word.letters[i + 1:], tree)
                    assert got == want and str(got) == str(want), (x, i)
                else:
                    assert got is None, (x, i)


def test_mq_boundary_faces_build_as_validated(monkeypatch):
    # every quilt of arity <= 4 with its top k labels marked, k = 0..n
    keys = [MQuilt(q, k) for n in range(1, 5) for q in enumerate_quilts(n)
            for k in range(n + 1)]
    faces = sum(len(_faces(x.quilt.word.letters)) for x in keys)
    sums = [FormalSum(ZZ, [(x, 1)]) for x in keys]
    got = [mq_boundary(xs) for xs in sums]
    monkeypatch.setattr(mquilt, "_built", _built_validated)
    want = [mq_boundary(xs) for xs in sums]
    for xs, g, w in zip(sums, got, want):
        assert list(g.terms.items()) == list(w.terms.items()), xs
    assert (len(keys), faces, sum(not g.is_zero() for g in got)) == (4064, 4968, 612)


def test_deleted_refuses_a_new_repeat():
    # x u x with u not repeated: the one condition a face does not inherit
    with pytest.raises(WordInvalid):
        _deleted((1, 2, 1), 1)
    assert _deleted((1, 2, 1, 3), 2) == (1, 2, 3)


class _UncheckedUses(ast.NodeVisitor):
    """(enclosing class and function, line, owner) of every use of an
    unchecked constructor: an attribute (owner the name it is read from) or
    name _unchecked, or the string "_unchecked"."""

    def __init__(self):
        self.scope, self.sites = [], []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

    def _check(self, node, name, owner=None):
        if name == "_unchecked":
            self.sites.append((".".join(self.scope), node.lineno, owner))
        self.generic_visit(node)

    def visit_Attribute(self, node):
        self._check(node, node.attr, getattr(node.value, "id", None))

    def visit_Name(self, node):
        self._check(node, node.id)

    def visit_Constant(self, node):
        self._check(node, node.value)


def _unchecked_sites(source):
    uses = _UncheckedUses()
    uses.visit(ast.parse(source))
    return uses.sites


def test_unchecked_constructors_are_used_only_for_faces_and_relabellings():
    # faces by the face lemma and extensions by the extension lemma
    # (extensions), relabellings by the relabelling lemma (quilts), the two
    # boundaries' sums, canonical by construction (extensions), the marked
    # normal form's class words and their relabelled winner by the class-word
    # lemma, and modifications and R1 families by the insertion, modification
    # and redistribution lemmas (mquilt); a new caller needs its own lemma and
    # exhaustive test
    assert _unchecked_sites("def f(w):\n    return getattr(Word, '_unchecked')"
                            ) == [("f", 2, None)]
    assert _unchecked_sites("class C:\n    def g(self):\n        return self._unchecked"
                            ) == [("C.g", 3, "self")]
    assert all(callable(cls._unchecked) for cls in (Word, Tree, Quilt, FormalSum))
    sites = [(path.name, scope, owner) for path in sorted(SRC.glob("*.py"))
             for scope, _, owner in _unchecked_sites(path.read_text())]
    assert sites == [
        ("extensions.py", "_built", "Word"), ("extensions.py", "_built", "Quilt"),
        ("extensions.py", "_built", "Word"), ("extensions.py", "boundary", "FormalSum"),
        ("extensions.py", "tree_extensions", "Tree"),
        ("extensions.py", "word_extensions", "Word"),
        ("extensions.py", "quilt_extensions", "Quilt"),
        ("extensions.py", "boundary_sum", "FormalSum"),
        ("mquilt.py", "_class_words.place", "Word"), ("mquilt.py", "_prenormal", "Quilt"),
        ("mquilt.py", "_prenormal", "Quilt"), ("mquilt.py", "_families", "Tree"),
        ("mquilt.py", "_families", "Quilt"), ("mquilt.py", "_inserted", "Word"),
        ("mquilt.py", "modification", "Tree"), ("mquilt.py", "modification", "Quilt"),
        ("quilts.py", "Quilt.relabel", "Quilt"),
        ("quilts.py", "enumerate_quilts", "Quilt"), ("trees.py", "Tree.relabel", "Tree"),
        ("words.py", "Word.relabel", "Word")]


def test_faces_of_one_word_are_distinct():
    for n in range(1, 6):
        for w in enumerate_words(n):
            faces = [f for f, _ in _faces(w.letters)]
            assert len(set(faces)) == len(faces), str(w)


def _faces_oracle(x):
    """(face, sign) for every face of x, built through the validating
    constructors, with its sign counted from scratch."""
    word, tree = (x.word, x.tree) if isinstance(x, Quilt) else (x, None)
    ls = word.letters
    return [(_built_validated(ls[:i] + ls[i + 1:], tree), _face_sign_oracle(word, i))
            for i in range(len(ls)) if word.count(ls[i]) > 1]


def _boundary_sum_oracle(xs):
    """Build every face as a word or quilt, then let the checking
    constructor cancel them."""
    return FormalSum(xs.ring, ((f, c * s) for x, c in xs.terms.items()
                               for f, s in _faces_oracle(x)))


def _assert_same_sum(got, expect):
    assert got.ring == expect.ring
    assert list(got.terms.items()) == list(expect.terms.items())
    assert [hash(k) for k in got.terms] == [hash(k) for k in expect.terms]


def test_boundary_builds_as_validated():
    # FormalSum._unchecked takes boundary's face dict as it is
    counts = []
    for n in range(1, 6):
        for basis in (enumerate_words(n), _quilts(n)):
            for x in basis:
                _assert_same_sum(boundary(x), FormalSum(ZZ, _faces_oracle(x)))
            counts.append(len(basis))
    assert counts[-2:] == [10800, 53040]


@lru_cache(maxsize=None)
def _quilts(n):
    return enumerate_quilts(n)


def test_boundary_sum_matches_oracle_on_constants():
    for ring in (ZZ, QQ, GF2):
        for n in (3, 4, 5):
            x = L0(n, ring)
            dx = boundary_sum(x)
            _assert_same_sum(dx, _boundary_sum_oracle(x))
            if n < 5 or ring is not QQ:  # one ring per characteristic at arity 5
                _assert_same_sum(boundary_sum(dx), _boundary_sum_oracle(dx))
        for n in (2, 3, 4):
            x = P0(n, ring)
            _assert_same_sum(boundary_sum(x), _boundary_sum_oracle(x))


def test_boundary_sum_matches_oracle_on_seeded_sums():
    rng = random.Random(14)
    cancelled = 0
    for ring in (ZZ, QQ, GF2):
        for n in (2, 3, 4):
            for basis in (enumerate_words(n), _quilts(n)):
                for _ in range(10):
                    xs = FormalSum(ring, [(rng.choice(basis), rng.randint(-2, 2))
                                          for _ in range(rng.randint(1, 40))])
                    expect = _boundary_sum_oracle(xs)
                    _assert_same_sum(boundary_sum(xs), expect)
                    faces = sum(len(_faces((x.word if isinstance(x, Quilt) else x).letters))
                                for x in xs.terms)
                    cancelled += faces > len(expect)
    assert cancelled > 20


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from([ZZ, QQ, GF2]))
def test_boundary_sum_matches_oracle_on_repeated_keys(data, ring):
    # quilts of arity 4 on one tree or with one word, repeated, so that
    # faces meet on the same tree and on the same letters
    quilts = _quilts(4)
    tree = data.draw(st.sampled_from(quilts)).tree
    word = data.draw(st.sampled_from(quilts)).word
    pool = [q for q in quilts if q.tree == tree or q.word == word]
    pairs = data.draw(st.lists(st.tuples(st.sampled_from(pool), st.integers(-2, 2)),
                               min_size=1, max_size=12))
    xs = FormalSum(ring, pairs)
    for ys in (xs, boundary_sum(xs)):
        _assert_same_sum(boundary_sum(ys), _boundary_sum_oracle(ys))


def _rebuilt(xs):
    """xs with every tree rebuilt as its own object, equal to the original."""
    return FormalSum(xs.ring, [(Quilt(x.word, Tree(x.tree.parent, x.tree.children)), c)
                               for x, c in xs.terms.items()])


def test_boundary_sum_merges_faces_on_equal_trees_that_are_distinct_objects():
    # the per-call tree index keys trees by equality, not identity
    merged = cancelled = 0
    for ring in (ZZ, QQ, GF2):
        for xs in (L0(4, ring), P0(4, ring)):
            ys = _rebuilt(xs)
            assert len({id(y.tree) for y in ys.terms}) == len(ys) == len(xs)
            _assert_same_sum(boundary_sum(ys), _boundary_sum_oracle(ys))
            merged += len(boundary_sum(ys)) < sum(len(_faces(y.word.letters)) for y in ys.terms)
        for q in _quilts(4)[::97]:
            dq = _rebuilt(FormalSum(ring, boundary(q).terms))
            assert boundary_sum(dq).is_zero() and _boundary_sum_oracle(dq).is_zero()
            cancelled += len(dq) > 1
    assert merged == 6 and cancelled > 10


def test_boundary_sum_hashes_each_input_tree_once(monkeypatch):
    rng = random.Random(23)
    xs = FormalSum(ZZ, rng.sample(sorted(L0(5).terms.items(), key=lambda kv: kv[0].sort_key()),
                                  200))
    sums = [xs, boundary_sum(xs)]
    calls = []

    def counted(tree):
        calls.append(tree)
        return tree._hash

    monkeypatch.setattr(Tree, "__hash__", counted)
    for ys in sums:
        calls.clear()
        boundary_sum(ys)
        assert 0 < len(calls) <= len(ys)


# ----------------------------------------------------------- extensions

def test_tree_extension_counts_and_oracle():
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            if n + m - 1 > 4:
                continue
            for outer in enumerate_trees(m):
                for inner in enumerate_trees(n):
                    for a in range(1, m + 1):
                        got = tree_extensions(outer, inner, a)
                        r = len(outer.children[a])
                        assert len(got) == math.comb(2 * n + r - 2, r)
                        expect = oracle_tree_extensions(outer, inner, a)
                        assert sorted(got, key=Tree.sort_key) == \
                            sorted(expect, key=Tree.sort_key), \
                            (outer, inner, a)


def test_fifteen_extension_case():
    t = parse_tree("1(3,2)")
    assert len(tree_extensions(t, t, 1)) == 15


def test_single_vertex_grafts():
    t = parse_tree("1(3,2)")
    one = parse_tree("1")
    assert len(tree_extensions(t, one, 1)) == 1
    assert len(tree_extensions(t, t, 2)) == 1  # leaf slot


def test_word_extension_counts_and_oracle():
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            if n + m - 1 > 4:
                continue
            for outer in enumerate_words(m):
                for inner in enumerate_words(n):
                    for a in range(1, m + 1):
                        got = word_extensions(outer, inner, a)
                        r = outer.count(a) - 1
                        assert len(got) == math.comb(len(inner) + r - 1, r)
                        expect = oracle_word_extensions(outer, inner, a)
                        assert sorted(got, key=Word.sort_key) == \
                            sorted(expect, key=Word.sort_key), \
                            (outer, inner, a)


def test_extensions_build_as_validated():
    # the extension lemma, on every pair of words, of trees and of quilts of
    # total arity at most 5, at every slot; an arity-5 factor needs a unit
    # as the other, which gives it back (test_units).  A quilt's word and
    # tree are extensions of its factors' words and trees, checked first,
    # so Quilt() checks only the axioms
    built = []
    for basis, extensions, check in (
            (enumerate_words, word_extensions, assert_as_validated),
            (enumerate_trees, tree_extensions, assert_as_validated),
            (_quilts, quilt_extensions, lambda pair: Quilt(pair[0].word, pair[0].tree))):
        count = 0
        for m in range(1, 5):
            for n in range(1, min(4, 6 - m) + 1):
                for outer in basis(m):
                    for inner in basis(n):
                        for a in range(1, m + 1):
                            for x in extensions(outer, inner, a):
                                check(x)
                                count += 1
        built.append(count)
    assert built == [37713, 7619, 46835]


def test_extension_signs_golden():
    v = parse_word("1232")
    got = {str(x): extension_sign(v, v, 2, x) for x in word_extensions(v, v, 2)}
    assert got == {"1252343": 1, "1235343": 1, "1234543": -1, "1234353": -1}


def test_extension_sign_trivial_cases():
    # degree 0 on either side forces +1
    for outer in enumerate_words(2):
        for inner in enumerate_words(2):
            if outer.degree and inner.degree:
                continue
            for a in (1, 2):
                for x in word_extensions(outer, inner, a):
                    assert extension_sign(outer, inner, a, x) == 1


def test_extension_sign_cycle_oracle():
    for m in (2, 3):
        for n in (2, 3):
            for outer in enumerate_words(m):
                for inner in enumerate_words(n):
                    for a in range(1, m + 1):
                        for x in word_extensions(outer, inner, a):
                            assert extension_sign(outer, inner, a, x) == \
                                oracle_extension_sign(outer, inner, a, x)


def test_corner_word_functoriality():
    from quiltops.trees import enumerate_trees
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            if n + m - 1 > 4:
                continue
            for S in enumerate_trees(m):
                for T in enumerate_trees(n):
                    cs = Word(S.corner_word(), m)
                    ct = Word(T.corner_word(), n)
                    for a in range(1, m + 1):
                        lhs = sorted(str(w) for w in word_extensions(cs, ct, a))
                        rhs = sorted("".join(str(x) for x in Word(U.corner_word(), n + m - 1).letters)
                                     for U in tree_extensions(S, T, a))
                        assert lhs == rhs, (S, T, a)


# ---------------------------------------------------------- composition

def test_compose_golden():
    v = parse_word("1232")
    assert str(compose(v, 2, v)) == \
        "-1234353 - 1234543 + 1235343 + 1252343"
    q = parse_quilt("1232;1(3,2)")
    got = compose(q, 2, q)
    tree = "1(5,2(4,3))"
    expect = FormalSum(ZZ, [
        (parse_quilt("1252343;" + tree), 1),
        (parse_quilt("1235343;" + tree), 1),
        (parse_quilt("1234543;" + tree), -1),
        (parse_quilt("1234353;" + tree), -1),
    ])
    assert got == expect


def test_units():
    q = parse_quilt("1232;1(3,2)")
    i = identity_quilt()
    for a in (1, 2, 3):
        assert compose(q, a, i).keys() == [q]
    assert compose(i, 1, q).keys() == [q]


def test_leibniz_random():
    random.seed(11)
    qs = enumerate_quilts(3)
    for _ in range(80):
        p = random.choice(qs)
        q = random.choice(qs)
        a = random.randrange(1, p.n + 1)
        lhs = boundary_sum(compose(p, a, q))
        rhs = compose_sums(boundary(p), a, FormalSum.single(q))
        sgn = -1 if p.degree % 2 else 1
        rhs = rhs + compose_sums(FormalSum.single(p), a, boundary(q)).scale(sgn)
        assert lhs == rhs, (p, a, q)


def test_operad_axioms_exhaustive_small():
    qs2 = enumerate_quilts(2)
    for x in qs2:
        for y in qs2:
            for z in qs2:
                for a in (1, 2):
                    for b in (1, 2):
                        lhs = compose_sums(compose(x, a, y), a + b - 1,
                                           FormalSum.single(z))
                        rhs = compose_sums(FormalSum.single(x), a,
                                           compose(y, b, z))
                        assert lhs == rhs
                lhs = compose_sums(compose(x, 1, y), 2 + y.n - 1,
                                   FormalSum.single(z))
                rhs = compose_sums(compose(x, 2, z), 1, FormalSum.single(y))
                sg = -1 if (y.degree * z.degree) % 2 else 1
                assert lhs == rhs.scale(sg)


def test_operad_axioms_random_arity3():
    random.seed(12)
    qs = enumerate_quilts(3)
    for _ in range(60):
        x, y, z = (random.choice(qs) for _ in range(3))
        a = random.randrange(1, 4)
        b = random.randrange(1, 4)
        lhs = compose_sums(compose(x, a, y), a + b - 1, FormalSum.single(z))
        rhs = compose_sums(FormalSum.single(x), a, compose(y, b, z))
        assert lhs == rhs
    for _ in range(60):
        x, y, z = (random.choice(qs) for _ in range(3))
        a, b = sorted(random.sample(range(1, 4), 2))
        lhs = compose_sums(compose(x, a, y), b + y.n - 1, FormalSum.single(z))
        rhs = compose_sums(compose(x, b, z), a, FormalSum.single(y))
        sg = -1 if (y.degree * z.degree) % 2 else 1
        assert lhs == rhs.scale(sg)


def test_equivariance():
    random.seed(13)
    qs = enumerate_quilts(3)
    for _ in range(40):
        x = random.choice(qs)
        y = random.choice(qs)
        a = random.randrange(1, 4)
        sig = random.sample(range(1, 4), 3)
        sigma = {i + 1: sig[i] for i in range(3)}
        inv = {v: k for k, v in sigma.items()}
        lhs = compose(x.permute(sigma), inv[a], y)
        m_, n_ = x.n, y.n
        ap = inv[a]

        def blockperm(u):
            if a <= u < a + n_:
                return u - a + ap
            v = u if u < a else u - n_ + 1
            w = inv[v]
            return w if w < ap else w + n_ - 1

        sig2 = {u: blockperm(u) for u in range(1, m_ + n_)}
        inv2 = {v: k for k, v in sig2.items()}
        rhs = compose(x, a, y).map_keys(lambda q: q.permute(inv2))
        assert lhs == rhs, (x, y, a, sigma)


def test_slot_out_of_range_raises_under_optimize():
    # the slot check must survive `python -O`, which strips asserts
    code = (
        "from quiltops.extensions import compose\n"
        "from quiltops.formal import FormalSum\n"
        "from quiltops.mquilt import MQuilt, mark, mq_compose_basis\n"
        "from quiltops.quilts import parse_quilt\n"
        "q = parse_quilt('1232;1(3,2)')\n"
        "x = FormalSum.single(MQuilt(q, 1))\n"
        "for call in (lambda: compose(q, 9, q), lambda: compose(q.tree, 0, q.tree),\n"
        "             lambda: mq_compose_basis(MQuilt(q, 1), 3, MQuilt(q, 1)),\n"
        "             lambda: mark(x, 0), lambda: mark(x, 3)):\n"
        "    try:\n"
        "        call()\n"
        "    except ValueError as e:\n"
        "        print(e)\n")
    src = os.path.dirname(os.path.dirname(quiltops.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "slot 9 is outside 1..3, the arity of 1232",
        "slot 0 is outside 1..3, the arity of 1(3,2)",
        "slot 3 is outside 1..2, the arity of 1232;1(3,2)[m3]",
        "slot 0 is outside 1..2, the arity of 1232;1(3,2)[m3]",
        "slot 3 is outside 1..2, the arity of 1232;1(3,2)[m3]",
    ]
