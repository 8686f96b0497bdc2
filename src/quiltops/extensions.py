"""Faces, boundaries, extensions and partial composition.

An extension realizes the splice of an inner structure of arity n into
an outer one at a vertex a.  The labels are identified by the canonical
relabellings, written inline where they are used:

    alpha(j)    = j + a - 1                  (inject the inner labels)
    beta^-1(u)  = u if u < a, else u + n - 1 (outer labels other than a)

Word extensions are generated constructively from weakly increasing maps
kappa sending the non-final occurrences of a in the outer word to cut
positions in the inner word; tree extensions from weakly increasing maps
sending the children of a to corners of the inner tree.  The exponential
filter over all candidates survives only in the test oracles.

Extension lemma: for words W and V every word extension E is a word, for
trees T and S every tree extension X is a tree, and for quilts (W, T) and
(V, S) every such (E, X) is a quilt, so all three are built unchecked.
Inner letters are alpha's image.
  - E: surjective.  Outer and inner letters differ, and two pieces never
    meet (W has no repeat a a), so a repeat would lie in a piece, inside
    V.  The inner letters read V with cut letters doubled in place, so
    interlacing among them is interlacing in V; among outer letters it is
    in W; and u v u v with one of them inner is, with a for that one,
    u a u a or a u a u in W.
  - X: S's root takes a's place and a's children hang at corners of S, so
    every vertex but the root has one parent and reaches the root.  Two
    inner vertices relate as in S, an inner vertex and an outer one not
    below a as a does in T, and two outer vertices as in T: under
    children c before d of a they hang at corners in corner-word order,
    which is preorder, so c's subtree stays left of d's.
  - Axiom (1), edge by edge (check_axioms): edges of S, and of T away
    from a, keep their order, pieces reading V in order; an edge from a's
    parent to S's root, or from an inner vertex to a child of a, is
    ordered as a's edge was, every inner letter sitting at an a.
  - Axiom (2): between two occurrences of an outer u lie outer letters,
    left of u in T, and pieces at an a between them, so a and every inner
    vertex are left of u.  Between two of an inner u lie inner letters,
    between two u's of V, and outer letters between two a's of W, left of
    a and so of every inner vertex.

A face deletes one occurrence, at position i, of a vertex u that occurs
more than once.  Face lemma: a face of a valid word is a valid word, and
with the same tree a face of a quilt is a quilt.
  - Surjective: u still occurs, and no other letter is deleted.
  - No interlacing: the face is a subsequence of the word, so any
    u...v...u...v in the face is one in the word.
  - Quilt axioms: a pair with u before v, or with v between two u's, in
    the face is one in the word, so a witness in the face is one there.
  - No consecutive repeat: the one new adjacency is that of the letters
    around i.  Were both x, the word would hold x u x with u again
    outside, so u x u x or x u x u: interlacing.
The last is the one condition a subsequence does not inherit.  _faces
numbers the caesurae, checks that condition in O(1) and slices out the
face letters, all in one pass over the word; every face is then made with
the unchecked constructors (boundary, or _built for the other callers).
No letter repeats consecutively, so the faces of a word are distinct.

Both boundaries hand FormalSum._unchecked a dict that is already canonical.
boundary: the faces of one word are distinct and their signs are +-1.
boundary_sum: one constructor pass adds the pairs ((face letters, i),
c * sign), i the position of the term's tree in a per-call index keyed by
equality (one tree hash per term), each word's faces from a per-call table.
(letters, i) keys are equal exactly when (letters, tree) keys are, so the
pairs cancel and keep their order as by tree, leaving nonzero canonical
coefficients; (letters, i) -> _built(letters, trees[i]) is injective.
"""

from itertools import combinations_with_replacement

from .formal import FormalSum, linear_combination
from .rings import ZZ
from .trees import Tree, parity_sign
from .words import Word, WordInvalid
from .quilts import Quilt


# ---------------------------------------------------------------- faces

def face(x, i):
    """Delete occurrence i if its vertex is repeated, else None (zero)."""
    word, tree = (x.word, x.tree) if isinstance(x, Quilt) else (x, None)
    if not (0 <= i < len(word)):
        raise IndexError("occurrence %d out of range" % i)
    return next((_built(f, tree) for j, f, _ in _faces(word.letters) if j == i), None)


def _faces(letters):
    """(i, face letters, sign) for every occurrence i of a repeated vertex,
    left to right, in one pass.

    Caesurae (non-final occurrences) are numbered 1, 2, ... left to right;
    the k'th caesura has sign (-1)^k.  A last occurrence whose previous
    occurrence is the k'th caesura is numbered k+1.  A deletion whose
    neighbours are equal raises WordInvalid (the face lemma's condition).
    """
    last = {x: i for i, x in enumerate(letters)}
    latest = {}     # vertex -> sign of its latest caesura
    s, end = 1, len(letters) - 1
    out = []
    for i, x in enumerate(letters):
        if last[x] != i:
            t = s = latest[x] = -s
        elif x in latest:
            t = -latest[x]
        else:
            continue
        if 0 < i < end and letters[i - 1] == letters[i + 1]:
            raise WordInvalid("deleting position %d of %r repeats a letter" % (i, letters))
        out.append((i, letters[:i] + letters[i + 1:], t))
    return out


def face_signs(letters):
    """(i, sign) for every face of letters, left to right (see _faces)."""
    return [(i, s) for i, _, s in _faces(letters)]


def _built(letters, tree):
    """A face from _faces, a word or with a tree a quilt, by the face lemma."""
    if tree is None:
        return Word._unchecked(letters, max(letters))
    return Quilt._unchecked(Word._unchecked(letters, tree.n), tree)


def boundary(x):
    """Signed sum of faces; lowers degree by one."""
    word = Word._unchecked
    if isinstance(x, Quilt):
        quilt, tree, n = Quilt._unchecked, x.tree, x.word.n
        faces = {quilt(word(f, n), tree): s for _, f, s in _faces(x.word.letters)}
    else:
        n = x.n
        faces = {word(f, n): s for _, f, s in _faces(x.letters)}
    return FormalSum._unchecked(ZZ, faces)


# ----------------------------------------------------------- extensions

def check_slot(a, arity, outer):
    """Raise ValueError naming the slot unless 1 <= a <= arity."""
    if not 1 <= a <= arity:
        raise ValueError("slot %d is outside 1..%d, the arity of %s"
                         % (a, arity, outer))


def tree_extensions(outer, inner, a):
    """All extensions of the tree `outer` by `inner` at vertex a.

    The children of a reattach at corners of the inner tree; a corner is
    an occurrence in the corner word.  Count: C(2*#inner + r - 2, r) for
    r children of a.
    """
    m, n = outer.n, inner.n
    check_slot(a, m, outer)
    N = n + m - 1
    beta_inv = lambda u: u if u < a else u + n - 1
    inner_root = inner.root + a - 1
    root = inner_root if outer.root == a else beta_inv(outer.root)
    corners = inner.corner_word()
    kids_a = outer.children[a]
    r = len(kids_a)
    # which corner of its vertex each corner-word position is
    occ_index = [corners[:k].count(u) for k, u in enumerate(corners)]

    out = []
    for kappa in combinations_with_replacement(range(len(corners)), r):
        children = [[] for _ in range(N + 1)]
        # inner tree relabelled by alpha
        for v in range(1, n + 1):
            children[v + a - 1] = [c + a - 1 for c in inner.children[v]]
        # outer tree away from a; the inner root takes a's place
        for v in range(1, m + 1):
            if v == a:
                continue
            children[beta_inv(v)] = [
                inner_root if c == a else beta_inv(c)
                for c in outer.children[v]
            ]
        # a's children reattach at the chosen corners of the inner tree
        inserted = {}
        for child, k in zip(kids_a, kappa):
            key = (corners[k] + a - 1, occ_index[k])
            inserted.setdefault(key, []).append(beta_inv(child))
        for u, j in sorted(inserted, reverse=True):  # right to left, so j stays put
            children[u][j:j] = inserted[u, j]
        out.append(Tree._unchecked(tuple(map(tuple, children)), root))
    return out


def word_extensions(outer, inner, a):
    """All extensions of the word `outer` by `inner` at vertex a.

    kappa assigns to each non-final occurrence of a a cut position in the
    inner word; the inner word is sliced into overlapping pieces (the cut
    letter is duplicated) which replace the occurrences of a in order.
    Count: C(len(inner) + r - 1, r) for r+1 occurrences of a.
    """
    m, n = outer.n, inner.n
    check_slot(a, m, outer)
    beta_inv = lambda u: u if u < a else u + n - 1
    occ = outer.occurrences(a)
    r = len(occ) - 1
    L = len(inner.letters)
    out = []
    for kappa in combinations_with_replacement(range(L), r):
        cuts = (0,) + kappa + (L - 1,)
        pieces = iter([x + a - 1 for x in inner.letters[cuts[i]:cuts[i + 1] + 1]]
                      for i in range(r + 1))
        letters = [y for x in outer.letters
                   for y in (next(pieces) if x == a else (beta_inv(x),))]
        out.append(Word._unchecked(tuple(letters), n + m - 1))
    return out


def extension_sign(outer, inner, a, ext_word):
    """Sign of a word extension: the shuffle relating the interposed
    vertices of the factors (identified with vertices of the extension)
    to the interposed vertices of the extension in down-order."""
    m, n = outer.n, inner.n
    beta_inv = lambda u: u if u < a else u + n - 1
    alpha = lambda j: j + a - 1
    source = []
    for v in outer.interposed():
        if v == a:
            source.append(alpha(inner.letters[0]))
        else:
            source.append(beta_inv(v))
    for w in inner.interposed():
        source.append(alpha(w))
    target = ext_word.interposed()
    assert sorted(source) == sorted(target), (outer, inner, a, ext_word)
    pos = {v: i for i, v in enumerate(target)}
    return parity_sign([pos[v] for v in source])


def quilt_extensions(outer, inner, a):
    """Pairs of word and tree extensions, each a quilt by the extension
    lemma, with the word's sign."""
    words = word_extensions(outer.word, inner.word, a)
    trees = tree_extensions(outer.tree, inner.tree, a)
    out = []
    for w in words:
        s = extension_sign(outer.word, inner.word, a, w)
        out.extend((Quilt._unchecked(w, t), s) for t in trees)
    return out


def compose(x, a, y):
    """Partial composition x o_a y as a FormalSum over Z.

    Trees compose as the unsigned sum of tree extensions (the Brace
    operad); words as the signed sum of word extensions; quilts as the
    product set with the word-side signs.
    """
    if isinstance(x, Tree):
        return FormalSum(ZZ, [(t, 1) for t in tree_extensions(x, y, a)])
    if isinstance(x, Word):
        return FormalSum(ZZ, [(w, extension_sign(x, y, a, w))
                              for w in word_extensions(x, y, a)])
    if isinstance(x, Quilt):
        return FormalSum(ZZ, quilt_extensions(x, y, a))
    raise TypeError("cannot compose %r" % (x,))


def boundary_sum(xs):
    """Linear extension of boundary; each pair is dropped as its face is built."""
    index = {}

    def pairs():
        table = {}
        for x, c in xs.terms.items():
            word, tree = (x.word, x.tree) if isinstance(x, Quilt) else (x, None)
            i, ls = index.setdefault(tree, len(index)), word.letters
            faces = table.get(ls)
            if faces is None:
                faces = table[ls] = _faces(ls)
            for _, f, s in faces:
                yield (f, i), c * s

    terms = FormalSum(xs.ring, pairs()).terms
    trees = list(index)
    return FormalSum._unchecked(xs.ring, {_built(f, trees[i]): terms.pop((f, i))
                                          for f, i in list(terms)})


def compose_sums(xs, a, ys):
    """Bilinear extension of compose to formal sums."""
    ring = xs.ring
    return linear_combination(ring, ((ring.mul(cx, cy), compose(kx, a, ky))
                                     for kx, cx in xs.terms.items()
                                     for ky, cy in ys.terms.items()))
