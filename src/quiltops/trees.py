"""Planar rooted trees on the vertex set {1..n}.

A tree stores the parent of each vertex (0 for the root) and the ordered
list of children of each vertex; the left-to-right order of children is
the planar structure.  The derived relations are

    u <= v  : u is an ancestor of v (root on top),
    u <| v  : u is strictly left of v (defined iff u, v are <=-incomparable).

Both are O(1) from Euler-tour intervals: a depth-first walk visiting
children left to right gives each vertex v its preorder number pre[v]
and end[v], the largest one in its subtree.  Two subtree intervals are
nested or disjoint in planar order, so u <= v iff
pre[u] <= pre[v] <= end[u], and u <| v iff end[u] < pre[v].

Vertices are 1-based throughout; relabel renames them (lemma in quilts).
Tree() checks the parent and child lists, then walks the tree (_walk);
trees a lemma proves valid skip the checks, not the walk (_unchecked).

Orbit lemma.  Write t^tau for t renamed by u -> tau[u].  Renaming
composes: (t^tau)^pi = t^(pi o tau), since each vertex u of t is named
tau[u] and then pi[tau[u]].  A planar tree has no automorphism besides
the identity: a renaming that gives back the same tree fixes the root
and, child list by child list from the root down, every vertex.  So the
permutations of 1..n act freely on the labelled trees: the n! renamings
of one shape are distinct, and each labelled tree t is exactly one pair
(shape, renaming), namely s^tau with s its planar shape labelled in
preorder and tau its vertices in preorder (shape_of).  The Euler-tour
arrays move with the labels, as the relabelling lemma in quilts states,
so a renamed shape needs no second walk.  enumerate_trees builds every
tree of arity n as one relabel of one of the Catalan(n-1) shapes, which
are the only trees it validates (14 at arity 5); enumerate_quilts finds
t^pi as the entry pi o tau of the orbit of t's shape.
"""

from itertools import permutations
from operator import itemgetter


class TreeInvalid(ValueError):
    pass


class Tree:
    __slots__ = ("n", "parent", "children", "_root", "_key", "_depth", "_pre", "_end",
                 "_hash")

    def __init__(self, parent, children):
        """parent: tuple of length n+1 (index 0 unused, root has parent 0);
        children: tuple of n+1 tuples, ordered left to right."""
        parent = tuple(parent)
        children = tuple(tuple(c) for c in children)
        n = len(parent) - 1
        if len(children) != n + 1:
            raise TreeInvalid("parent/children length mismatch")
        roots = [v for v in range(1, n + 1) if parent[v] == 0]
        if len(roots) != 1:
            raise TreeInvalid("tree must have exactly one root, got %r" % roots)
        seen = set()
        for u in range(n + 1):
            for v in children[u]:
                if not (1 <= v <= n) or v in seen:
                    raise TreeInvalid("child lists must partition the non-root vertices")
                seen.add(v)
                if parent[v] != u:
                    raise TreeInvalid("children inconsistent with parent")
        if len(seen) != n - 1 or children[0]:
            raise TreeInvalid("child lists must partition the non-root vertices")
        order, _, *walk = _walk(children, roots[0])
        if len(order) != n:
            raise TreeInvalid("parent links contain a cycle or unreachable vertex")
        self._set(parent, children, roots[0], *walk)

    @classmethod
    def _unchecked(cls, children, root, *slots):
        """A tree already known to be valid, from its tuple of child tuples
        and its root: a relabelling passes its parent tuple and walk too (see
        relabel), any other build gets them from _walk."""
        parent, *walk = slots or _walk(children, root)[1:]
        return object.__new__(cls)._set(parent, children, root, *walk)

    def _set(self, parent, children, root, depth, pre, end):
        self.n, self.parent, self.children, self._root = len(parent) - 1, parent, children, root
        self._depth, self._pre, self._end = depth, pre, end
        self._key = (self.n, parent, children)
        self._hash = hash(self._key)
        return self

    @property
    def root(self):
        return self._root

    def key(self):
        return self._key

    def sort_key(self):
        return self._key

    def __eq__(self, other):
        return isinstance(other, Tree) and self._key == other._key

    def __hash__(self):
        return self._hash

    def edges(self):
        return [(self.parent[v], v) for v in range(1, self.n + 1) if self.parent[v]]

    def leaves(self):
        """Leaves in left-to-right planar order."""
        out = []

        def walk(u):
            if not self.children[u]:
                out.append(u)
            for c in self.children[u]:
                walk(c)

        walk(self._root)
        return out

    def depth(self, v):
        return self._depth[v]

    def le(self, u, v):
        """u <= v: u is an ancestor of v or u == v."""
        return self._pre[u] <= self._pre[v] <= self._end[u]

    def lt(self, u, v):
        return u != v and self.le(u, v)

    def left_of(self, u, v):
        """u <| v: strictly left; False on every <=-comparable pair."""
        return self._end[u] < self._pre[v]

    def corner_word(self):
        """Counterclockwise boundary reading; length = #vertices + #edges."""
        out = []

        def walk(u):
            out.append(u)
            for c in self.children[u]:
                walk(c)
                out.append(u)

        walk(self._root)
        return tuple(out)

    def relabelled(self, new):
        """(parent, children) with every vertex u renamed new[u], new[0] unused."""
        n = self.n
        parent = [0] * (n + 1)
        kids = [()] * (n + 1)
        for v in range(1, n + 1):
            pv = self.parent[v]
            parent[new[v]] = new[pv] if pv else 0
            kids[new[v]] = tuple([new[c] for c in self.children[v]])
        return tuple(parent), tuple(kids)

    def relabel(self, new):
        """The tree renamed by new, a checked permutation (lemma in quilts)."""
        if set(new[1:self.n + 1]) != set(range(1, self.n + 1)):
            raise TreeInvalid("relabelling %r is not a permutation of 1..%d" % (new, self.n))
        old = itemgetter(*_invert(new[1:self.n + 1], self.n))
        parent, children = self.relabelled(new)
        return Tree._unchecked(children, new[self._root], parent,
                               old(self._depth), old(self._pre), old(self._end))

    def __str__(self):
        def fmt(u):
            if not self.children[u]:
                return str(u)
            return "%d(%s)" % (u, ",".join(fmt(c) for c in self.children[u]))

        return fmt(self._root)

    __repr__ = __str__


def _walk(children, root):
    """(order, parent, depth, pre, end) of the depth-first walk from root,
    children left to right: the vertices reached in preorder, the parent
    each is reached from, and the Euler-tour arrays of the module docstring,
    indexed by vertex."""
    parent, depth, pre = [0] * len(children), [0] * len(children), [0] * len(children)
    order, stack = [], [root]
    while stack:
        u = stack.pop()
        pre[u] = len(order)
        order.append(u)
        for c in reversed(children[u]):
            parent[c], depth[c] = u, depth[u] + 1
            stack.append(c)
    end = pre[:]
    for u in reversed(order):
        if children[u]:
            end[u] = end[children[u][-1]]
    return order, tuple(parent), tuple(depth), tuple(pre), tuple(end)


def _invert(sigma, n):
    """Inverse of a permutation of {1..n}, a dict or in one-line form."""
    inv = [0] * (n + 1)
    for u, su in (sigma.items() if isinstance(sigma, dict) else enumerate(sigma, 1)):
        inv[su] = u
    return inv


def parity_sign(seq):
    """(-1)^(number of inversions) of a list or tuple of distinct items;
    for a permutation in one-line form this is its sign."""
    inversions = 0
    for i, x in enumerate(seq):
        for y in seq[i + 1:]:
            if x > y:
                inversions += 1
    return -1 if inversions % 2 else 1


def parse_tree(text):
    """Parse the nested form "1(3,2)" meaning root 1 with children 3, 2."""
    text = text.strip()
    pos = [0]
    labels = []

    def parse_node():
        start = pos[0]
        while pos[0] < len(text) and text[pos[0]].isdigit():
            pos[0] += 1
        if pos[0] == start:
            raise TreeInvalid("expected vertex label at %d in %r" % (start, text))
        label = int(text[start:pos[0]])
        labels.append(label)
        kids = []
        if pos[0] < len(text) and text[pos[0]] == "(":
            pos[0] += 1
            while True:
                kids.append(parse_node())
                if pos[0] >= len(text):
                    raise TreeInvalid("unbalanced parentheses in %r" % text)
                if text[pos[0]] == ",":
                    pos[0] += 1
                    continue
                if text[pos[0]] == ")":
                    pos[0] += 1
                    break
                raise TreeInvalid("unexpected %r in %r" % (text[pos[0]], text))
        return (label, kids)

    top = parse_node()
    if pos[0] != len(text):
        raise TreeInvalid("trailing input in %r" % text)
    n = len(labels)
    if sorted(labels) != list(range(1, n + 1)):
        raise TreeInvalid("vertex labels must be 1..n in %r" % text)
    return _from_nested(top, n)


def _from_nested(node, n):
    """The tree of a nested (root, (subtree, ...)) node on the labels 1..n."""
    parent, children = [0] * (n + 1), [()] * (n + 1)

    def walk(node, up):
        root, kids = node
        parent[root], children[root] = up, tuple(k[0] for k in kids)
        for k in kids:
            walk(k, root)

    walk(node, 0)
    return Tree(parent, children)


def planar_shapes(n):
    """The Catalan(n-1) planar shapes of n vertices, canonically ordered,
    each labelled 1..n in preorder (children left to right), so that
    every child list is increasing.  Grown vertex by vertex: the next
    vertex hangs, as the rightmost child so far, from a vertex on the path
    from the root to the previous one."""
    if n < 1:
        raise ValueError("arity must be at least 1, got %d" % n)
    shapes = []

    def grow(parent, path):
        v = len(parent)
        if v > n:
            children = [[] for _ in parent]
            for u in range(2, v):
                children[parent[u]].append(u)
            shapes.append(Tree(parent, children))
            return
        for i, p in enumerate(path):
            grow(parent + (p,), path[:i + 1] + (v,))

    grow((0, 0), (1,))
    shapes.sort(key=Tree.sort_key)
    return shapes


def shape_of(tree):
    """(s, tau): the planar shape s of tree, labelled in preorder as in
    planar_shapes, and tau, the vertices of tree in preorder, so that
    tree == s.relabel((0,) + tau) (the orbit lemma)."""
    new = (0,) + tuple(p + 1 for p in tree._pre[1:])
    return tree.relabel(new), tuple(_invert(new[1:], tree.n)[1:])


def enumerate_trees(n):
    """All planar rooted trees with vertex set {1..n}, canonically ordered:
    every planar shape renamed by every permutation of 1..n (the orbit
    lemma), n! * Catalan(n-1) trees."""
    news = [(0,) + p for p in permutations(range(1, n + 1))]
    trees = [s.relabel(new) for s in planar_shapes(n) for new in news]
    trees.sort(key=Tree.sort_key)
    return trees
