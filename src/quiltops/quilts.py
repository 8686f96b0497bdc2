"""Quilts: compatible (word, planar tree) pairs on the same vertex set.

The two axioms:
  (1) if u occurs before v anywhere in the word, u is not a strict
      descendant of v;
  (2) any vertex occurring between two occurrences of u is strictly to
      the left of u in the tree.

The degree of a quilt is the degree of its word.

Quilt() validates after its Word and Tree have, by check_axioms: linear
for axiom (1), at most n times the length for axiom (2).  Quilts a lemma
proves valid skip it through _unchecked, as Word's docstring lists.

Relabelling lemma: renaming each vertex u to new[u], for a permutation new
of 1..n, keeps every word condition and both axioms.  They are stated
through positions, equal letters (new is injective) and the ancestor and
left-of relations, and the renamed tree's walk meets new[v] where the old
one met v, so pre, end and depth move with the labels.  relabel checks
only new, in O(n).  Each quilt is the relabelling, by its word's
down-order, of exactly one quilt whose word first visits 1, ..., n:
enumerate_quilts validates and searches trees only for those.  Relabelling
is a bijection on words, so the 22 first-occurrence words with a quilt at
arity 5 give 2,640 distinct words.  The canonical order compares the words
(degree, then letters) before the trees, so sorting those words and each
word's trees already orders the quilts: no sort runs over all of them.
The trees come from shape orbits (the orbit lemma in trees): the 442
first-occurrence quilts of arity 5 sit on 105 trees of the 14 planar
shapes, and each renamed tree is an entry of its shape's orbit, so one
call builds each of the 1,680 labelled trees once, in a table that lives
for the call, and its quilts share them.  The 105 first-occurrence trees
are likewise grown for several words but validated once per call
(compatible_trees' table).
"""

from itertools import permutations
from operator import itemgetter

from .trees import Tree, _invert, parse_tree, shape_of
from .words import Word, first_occurrence_words, parse_word


class QuiltAxiomViolated(ValueError):
    def __init__(self, axiom, u, v, message=None):
        self.axiom = axiom
        self.witness = (u, v)
        super().__init__(message or
                         "quilt axiom (%d) fails on vertices (%d, %d)" % (axiom, u, v))


class Quilt:
    __slots__ = ("word", "tree")

    def __init__(self, word, tree):
        if word.n != tree.n:
            raise QuiltAxiomViolated(0, word.n, tree.n, "arity mismatch")
        check_axioms(word, tree)
        self.word = word
        self.tree = tree

    @classmethod
    def _unchecked(cls, word, tree):
        """A quilt already known to be valid: a face or a relabelling."""
        self = object.__new__(cls)
        self.word, self.tree = word, tree
        return self

    @property
    def n(self):
        return self.word.n

    @property
    def degree(self):
        return self.word.degree

    def key(self):
        return (self.word._key, self.tree._key)

    def sort_key(self):
        return (self.n, self.degree, self.word.letters, self.tree.sort_key())

    def __eq__(self, other):
        return (isinstance(other, Quilt) and self.word._key == other.word._key
                and self.tree._key == other.tree._key)

    def __hash__(self):
        return hash((self.word._key, self.tree._hash))

    def permute(self, sigma):
        return self.relabel(_invert(sigma, self.n))

    def relabel(self, new):
        """The quilt renamed by new (see Word.relabel): the relabelling lemma."""
        return Quilt._unchecked(self.word.relabel(new), self.tree.relabel(new))

    def __str__(self):
        return "%s;%s" % (self.word, self.tree)

    __repr__ = __str__


def check_axioms(word, tree):
    """Raise QuiltAxiomViolated with a witness if (word, tree) is no quilt.

    Axiom (2) walks the letters between the first and last u, for each u,
    and names the smallest v there not left of u.  Axiom (1) holds iff
    every vertex first occurs after the last occurrence of its parent:
    along a chain v > ... > u the occurrences then come in that order.
    Only when an edge fails does the pair loop run, to name the witness.
    """
    letters, n = word.letters, word.n
    pre, end, parent = tree._pre, tree._end, tree.parent
    first, last = [-1] * (n + 1), [0] * (n + 1)
    for i, x in enumerate(letters):
        if first[x] < 0:
            first[x] = i
        last[x] = i
    for u in range(1, n + 1):
        for i in range(first[u] + 1, last[u]):
            v = letters[i]
            if v != u and not end[v] < pre[u]:
                v = min(x for x in letters[i:last[u]]
                        if x != u and not end[x] < pre[u])
                raise QuiltAxiomViolated(
                    2, u, v, "quilt axiom (2) fails: %d is not left of %d"
                    % (v, u))
    for c in range(1, n + 1):
        if parent[c] and last[parent[c]] > first[c]:
            for u in range(1, n + 1):
                for v in range(1, n + 1):
                    # some u before some v means u is not strictly below v
                    if first[u] < last[v] and pre[v] < pre[u] <= end[v]:
                        raise QuiltAxiomViolated(1, u, v)


def validate_quilt(word, tree):
    """Build a quilt from raw data: a letter sequence and tree data.

    word may be a Word, a string ("1232"), or an iterable of ints;
    tree may be a Tree, a string ("1(3,2)"), or a (parent, children) pair.
    """
    if isinstance(word, str):
        word = parse_word(word)
    elif not isinstance(word, Word):
        word = Word(tuple(word))
    if isinstance(tree, str):
        tree = parse_tree(tree)
    elif not isinstance(tree, Tree):
        parent, children = tree
        tree = Tree(parent, children)
    return Quilt(word, tree)


def parse_quilt(text):
    """Parse the "word;tree" text form, e.g. "1232;1(3,2)"."""
    if text.count(";") != 1:
        raise ValueError("expected WORD;TREE such as 1232;1(3,2)")
    ws, ts = text.split(";")
    return Quilt(parse_word(ws), parse_tree(ts))


def compatible_trees(word, built=None):
    """All trees making the word into a quilt, built constructively.

    Vertices are inserted as leaves in down-order (ancestors always occur
    wholly before descendants, so this reaches every compatible tree).
    At each insertion the two quilt axioms are checked against the
    vertices already placed; relations between placed vertices never
    change later, so the pruning is exact.  built, a dict (parent,
    children) -> Tree that the calls of one enumeration share, makes each
    distinct tree once, through the validating constructor.
    """
    if built is None:
        built = {}
    n = word.n
    letters = word.letters
    first, last = {}, {}
    for i, x in enumerate(letters):
        first.setdefault(x, i)
        last[x] = i
    order = word.down_order()
    # axiom (2) obligations: w must end up strictly left of u
    left_pairs = [(w, u) for u in order for w in word.between(u)]

    parent = {order[0]: 0}
    children = {order[0]: []}
    out = []

    def ancestors(v):
        chain = []
        while v:
            chain.append(v)
            v = parent[v]
        return chain

    def left_of(u, v):
        au = ancestors(u)[::-1]
        av = ancestors(v)[::-1]
        i = 0
        while i < len(au) and i < len(av) and au[i] == av[i]:
            i += 1
        if i >= len(au) or i >= len(av):
            return False  # comparable
        cs = children[au[i - 1]]
        return cs.index(au[i]) < cs.index(av[i])

    def ok(u):
        return all(left_of(w, v) for w, v in left_pairs
                   if u in (w, v) and w in parent and v in parent)

    def place(k):
        if k == n:
            par = [0] * (n + 1)
            kid = [()] * (n + 1)
            for v, p in parent.items():
                par[v] = p
                kid[v] = tuple(children[v])
            key = tuple(par), tuple(kid)
            tree = built.get(key)
            if tree is None:
                tree = built[key] = Tree(*key)
            out.append(tree)
            return
        u = order[k]
        for p in order[:k]:
            if last[p] >= first[u]:
                continue
            for slot in range(len(children[p]) + 1):
                children[p].insert(slot, u)
                parent[u] = p
                children[u] = []
                if ok(u):
                    place(k + 1)
                children[p].pop(slot)
                del parent[u]
                del children[u]

    if order[0] == letters[0]:
        place(1)
    out.sort(key=Tree.sort_key)
    return out


def first_occurrence_quilts(n, degree=None):
    """The quilts of arity n (optionally one degree) whose word first
    visits 1, 2, ..., n, canonically ordered."""
    built = {}
    return [Quilt(word, tree) for word in first_occurrence_words(n, degree)
            for tree in compatible_trees(word, built)]


def enumerate_quilts(n, degree=None):
    """All quilts of arity n (optionally one degree), canonically ordered:
    the first-occurrence quilts, validated, relabelled by every permutation
    of 1..n and built unchecked in that order (the relabelling lemma).

    Each labelled tree is built once, as an entry of its shape's orbit:
    the first-occurrence tree t = s^tau renamed by pi is the entry
    pi o tau of the orbit of s (the orbit lemma in trees).  The orbits
    rank their trees once by Tree.sort_key, so each word's trees sort by
    an integer."""
    built = {}
    trees_of = {w: ts for w in first_occurrence_words(n, degree)
                if (ts := compatible_trees(w, built))}
    firsts = dict.fromkeys(Quilt(w, t).tree for w, ts in trees_of.items() for t in ts)  # validated
    news = [(0,) + p for p in permutations(range(1, n + 1))]
    orbits, renamed = {}, []
    for t in firsts:
        s, tau = shape_of(t)
        if s not in orbits:
            orbits[s] = {new: s.relabel(new) for new in news}
        renamed.append((orbits[s], itemgetter(0, *tau)))
    built = sorted((u for orbit in orbits.values() for u in orbit.values()), key=Tree.sort_key)
    rank = {u: i for i, u in enumerate(built)}
    for orbit in orbits.values():
        for new, u in orbit.items():
            orbit[new] = rank[u], u
    index = {t: i for i, t in enumerate(firsts)}
    words = [(w, [index[t] for t in ts]) for w, ts in trees_of.items()]
    groups = []
    for new in news:
        images = [orbit[pi_tau(new)] for orbit, pi_tau in renamed]
        groups.extend((w.relabel(new), sorted(map(images.__getitem__, ts))) for w, ts in words)
    groups.sort(key=lambda g: g[0].sort_key())
    return [Quilt._unchecked(word, tree) for word, ts in groups for _, tree in ts]


def identity_quilt():
    return Quilt(Word((1,), 1), Tree((0, 0), ((), ())))


def column_quilt():
    """12;1(2), the arity-2 quilt that builds Delta and delta_H."""
    return Quilt(Word((1, 2), 2), Tree((0, 0, 1), ((), (2,), ())))
