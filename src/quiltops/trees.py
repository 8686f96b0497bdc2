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

Vertices are 1-based throughout.
"""

import itertools
from functools import lru_cache


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
        # acyclicity / reachability of the root; preorder, children left to right
        depth = [0] * (n + 1)
        pre = [0] * (n + 1)
        order = []
        stack = [roots[0]]
        while stack:
            u = stack.pop()
            pre[u] = len(order)
            order.append(u)
            for c in reversed(children[u]):
                depth[c] = depth[u] + 1
                stack.append(c)
        if len(order) != n:
            raise TreeInvalid("parent links contain a cycle or unreachable vertex")
        end = pre[:]
        for u in reversed(order):
            if children[u]:
                end[u] = end[children[u][-1]]
        self.n = n
        self.parent = parent
        self.children = children
        self._root = roots[0]
        self._depth = tuple(depth)
        self._pre = tuple(pre)
        self._end = tuple(end)
        self._key = (n, parent, children)
        self._hash = hash(self._key)

    @classmethod
    def from_parent(cls, parent_map, child_order=None, n=None):
        """Build from {vertex: parent} (root maps to 0 or is absent) and an
        optional {vertex: ordered children}; missing orders sort by label."""
        if n is None:
            n = max(parent_map) if parent_map else 1
        parent = [0] * (n + 1)
        for v in range(1, n + 1):
            parent[v] = parent_map.get(v, 0)
        kids = [[] for _ in range(n + 1)]
        if child_order:
            for u, cs in child_order.items():
                kids[u] = list(cs)
        for v in range(1, n + 1):
            p = parent[v]
            if p and v not in kids[p]:
                kids[p].append(v)
        for u in range(n + 1):
            if not child_order or u not in child_order:
                kids[u].sort()
        return cls(tuple(parent), tuple(tuple(c) for c in kids))

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

    def permute(self, sigma):
        """Replace every vertex u by sigma^{-1}(u); sigma is a dict or tuple
        on {1..n} and this is a right group action."""
        return Tree(*self.relabelled(_invert(sigma, self.n)))

    def relabelled(self, new):
        """The (parent, children) tuples of this tree with every vertex u
        renamed new[u]; new is indexed by label, new[0] unused."""
        n = self.n
        parent = [0] * (n + 1)
        kids = [()] * (n + 1)
        for v in range(1, n + 1):
            pv = self.parent[v]
            parent[new[v]] = new[pv] if pv else 0
            kids[new[v]] = tuple(new[c] for c in self.children[v])
        return tuple(parent), tuple(kids)

    def __str__(self):
        def fmt(u):
            if not self.children[u]:
                return str(u)
            return "%d(%s)" % (u, ",".join(fmt(c) for c in self.children[u]))

        return fmt(self._root)

    __repr__ = __str__


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

    def parse_node():
        start = pos[0]
        while pos[0] < len(text) and text[pos[0]].isdigit():
            pos[0] += 1
        if pos[0] == start:
            raise TreeInvalid("expected vertex label at %d in %r" % (start, text))
        label = int(text[start:pos[0]])
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
    parent = {}
    order = {}

    def collect(node):
        label, kids = node
        order[label] = [k[0] for k in kids]
        for k in kids:
            parent[k[0]] = label
            collect(k)

    collect(top)
    parent[top[0]] = 0
    n = len(parent)
    if sorted(parent) != list(range(1, n + 1)):
        raise TreeInvalid("vertex labels must be 1..n in %r" % text)
    return Tree.from_parent(parent, order, n=n)


@lru_cache(maxsize=None)
def _forests(vertices):
    """All ordered forests on a frozenset of labels, as tuples of nested
    (root, (subtree, ...)) trees; the first tree takes any nonempty subset."""
    vertices = frozenset(vertices)
    if not vertices:
        return ((),)
    out = []
    vs = sorted(vertices)
    for k in range(1, len(vs) + 1):
        for sub in itertools.combinations(vs, k):
            first = frozenset(sub)
            for t in _trees_on(first):
                for f in _forests(vertices - first):
                    out.append((t,) + f)
    return tuple(out)


@lru_cache(maxsize=None)
def _trees_on(vertices):
    """All planar rooted trees on a frozenset of labels, as nested tuples
    (root, (subtree, ...))."""
    out = []
    vertices = frozenset(vertices)
    for r in sorted(vertices):
        for f in _forests(vertices - {r}):
            out.append((r, f))
    return tuple(out)


def _materialize(node, parent, order, par_label):
    root, kids = node
    parent[root] = par_label
    order[root] = [k[0] for k in kids]
    for k in kids:
        _materialize(k, parent, order, root)


def enumerate_trees(n):
    """All planar rooted trees with vertex set {1..n}, canonically ordered.
    There are n! * Catalan(n-1) of them."""
    if n < 1:
        raise ValueError("arity must be at least 1, got %d" % n)
    trees = []
    for shape in _trees_on(frozenset(range(1, n + 1))):
        parent, order = {}, {}
        _materialize(shape, parent, order, 0)
        trees.append(Tree.from_parent(parent, order, n=n))
    trees.sort(key=Tree.sort_key)
    return trees
