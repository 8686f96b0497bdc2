"""The mQuilt operad: quilts with odd arity-0 marks subject to relations.

A basis element is a quilt of arity n+k whose top k labels are marked;
it stands for the composition of the quilt with k copies of the odd
arity-0 generator, one at each marked slot (in ascending label order).
The stored representative is a normal form modulo the relations:

  R2  a marked vertex with more than two children is zero;
  R3  a marked vertex repeated in the word is zero;
  R4  a marked letter wedged between two equal letters is zero;
  R5  moving the (unique) letter of a marked vertex anywhere else that
      still yields a quilt does not change the element;
  R1  for a marked edge (u, v) that can be made word-adjacent, the sum
      over all redistributions of the combined children of u and v
      (u keeping v plus a prefix and suffix, v a middle block) is zero.

R4, R5 and R1 are properties of the whole reposition class, so they are
checked against every placement of the marked letters.  Relabelling the
marks costs the sign of the permutation, the generator being odd.
_prenormal ranks the class words by the tuple (mark positions, relabelled
letters, parent, children) and builds only the smallest; its docstring
says why the tree is ranked and when the input quilt comes back.

Relabelling the unmarked labels costs no sign and commutes with the
normal form, so the memo tables hold one first-occurrence key per orbit
and mq_permute only relabels keys (see _prenormal and _canonical).

_normal_sum is the one place raw sums are formed: it takes
(coefficient, quilt, marks) triples, prenormalizes each quilt with its
marks (R2-R5), accumulates the signed keys in one FormalSum and reduces
that sum once against R1.  normalize, mq_compose_basis, mq_boundary,
ad_delta and mark all hand it their triples.  Every sum the module
returns is in normal form, and a linear combination of sums in normal
form stays in normal form, so nothing else reduces.

Composing with m is marking a slot.  The quilt of m is the identity
quilt of arity 1 with its label marked, so by the unit law x o_a m is
the quilt of x with label a added to its marks; the sign
(-1)^{marks of x * degree of the identity quilt} of mq_compose_basis is
+1 because that quilt has degree 0.  mark(xs, a) builds those triples
directly, without composing anything.

R1 is reduced on components: the closure of a key under membership in
its redistribution families.  A family is built from its signature
(_signatures), the contracted marked quilt: the first adjacent class word
without v, the tree with v merged into u, and u, with the marks renamed in
first-occurrence order.  _prenormal sees the names of the marks only
through its sign, so members with one signature give one relation up to
sign, and _families, keyed by signature, builds each relation once.  Each
component keeps one fully reduced echelon over QQ, led by the largest key
(by sort_key) of each row, with every leader cleared from every other row.
A leader's normal form is then minus the rest of its row, and any other
key is its own normal form.  That is the normal form modulo the row space:
the leaders of a row space under a total order do not depend on the order
the rows were added in, and a vector modulo the row space has exactly one
representative free of leaders.  Every member of a component has the whole
component as its closure, so the order in which keys are visited cannot
change which echelon a key gets.  Each family is a relation, so a zero
residual is zero.  A nonzero one could still be zero in the operad if a
family from a later adjacent class word left the row space; that is tested
only on the keys the identities and the relations through arity 5 reach.

Three lemmas let ad_delta and _families build unchecked (_inserted,
modification, _families).  Relations below are in the tree; axiom (1) is
taken edge by edge, as in check_axioms.
  Insertion lemma: a letter new to a word, inserted anywhere, keeps it a
  word: it is surjective, and the new letter, occurring once, neither
  repeats nor interlaces.
  Modification lemma: modification(q, ...) is a quilt.  The new vertex
  n+1 goes onto the edge above u, adopting u and u's first or last child
  v (kinds 3, 4), or under u, adopting two consecutive children (kind 5):
  a tree, in which two old vertices relate as in q, except v's subtree,
  below u before and beside it now.  In the word n+1 sits right before
  u's first occurrence (3, 4), after its parent's last and before v's
  first, or right after u's last (5), before its new children's first, so
  the new edges keep axiom (1).  Axiom (2): n+1 occurs once; the pairs
  axiom (2) relates are incomparable, so unchanged; and n+1 between two
  occurrences of x puts u, next to it, between them too, so u is left of
  x, and so is n+1, in u's place (3, 4) or below u (5).
  Redistribution lemma: every member of a family is a quilt.  Its word
  is the key's first adjacent class word (_signatures) renamed, v named N,
  and with the key's tree T, renamed alike, a quilt (class-word and
  relabelling lemmas).  Each member's tree is the contracted tree with N added under u
  over a block of u's combined children, T among them: a tree, in which
  vertices other than N relate as in T.  The new edges (u, N), (u, c) and
  (N, c) keep axiom (1): u, then N, then every child c of u or v in T.
  Axiom (2): u and N are marked, so occur once; other pairs relate as in
  T; and N between two occurrences of x puts u, just before N, between
  them, so u is left of x, and so is N below it.
"""

from functools import lru_cache
from itertools import permutations

from .formal import FormalSum, combine, linear_combination
from .rings import QQ, ZZ
from .trees import Tree, parity_sign
from .words import Word
from .quilts import Quilt, column_quilt, identity_quilt
from .extensions import _built, _faces, check_slot, compose


class MQuilt:
    """Normal-form representative: quilt of arity n+k with marks n+1..n+k."""

    __slots__ = ("quilt", "marks", "_key")

    def __init__(self, quilt, marks):
        self.quilt = quilt
        self.marks = marks
        self._key = (quilt.key(), marks)

    @property
    def arity(self):
        return self.quilt.n - self.marks

    @property
    def degree(self):
        return self.quilt.degree - self.marks

    def marked(self):
        return set(range(self.quilt.n - self.marks + 1, self.quilt.n + 1))

    def key(self):
        return self._key

    def relabel(self, new):
        """The key with every label u renamed new[u], by the relabelling
        lemma (quilts); new must fix the marks."""
        return MQuilt(self.quilt.relabel(new), self.marks)

    def sort_key(self):
        return (self.arity, self.marks, self.quilt.sort_key())

    def __eq__(self, other):
        return isinstance(other, MQuilt) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __str__(self):
        if not self.marks:
            return str(self.quilt)
        ms = ",".join("m%d" % v for v in sorted(self.marked()))
        return "%s[%s]" % (self.quilt, ms)

    __repr__ = __str__


M_ELEMENT_KEY = MQuilt(identity_quilt(), 1)


def from_quilt(q):
    return MQuilt(q, 0)


def _legal_gaps(tree, letters, x):
    """The gaps 0..len(letters) where inserting a single x breaks no quilt
    axiom involving x, so no later insertion can mend a gap left out: x
    follows every strict ancestor, precedes every strict descendant, and
    lies between two occurrences of u only when x is left of u."""
    pre, end = tree._pre, tree._end
    lo, hi = 0, len(letters)
    banned = set()
    seen = {}
    for i, u in enumerate(letters):
        if pre[u] < pre[x] <= end[u]:
            lo = i + 1
        elif pre[x] < pre[u] <= end[x]:
            hi = min(hi, i)
        if u in seen and not end[x] < pre[u]:
            banned.update(range(seen[u] + 1, i + 1))
        seen[u] = i
    return [i for i in range(lo, hi + 1) if i not in banned]


def _class_words(tree, word, mset):
    """All valid words in the reposition class of the marked letters, in
    the order of inserting the marks ascending, each at every gap left to
    right (_signatures takes the first adjacent word).

    Class-word lemma: drop the marks from a quilt's word and insert each
    once, in turn, at a gap _legal_gaps allows.  The word stays surjective
    and free of interlacing, and both axioms hold: on unmarked letters, whose
    occurrences keep their order, and on a pair with a mark, by the gap
    chosen for the later one.  Only a repeat can fail, two equal unmarked
    letters left adjacent by the marks, and only that is tested.
    """
    out = []

    def place(letters, marks):
        if not marks:
            if all(a != b for a, b in zip(letters, letters[1:])):
                out.append(Word._unchecked(letters, tree.n))
            return
        x = marks[0]
        for i in _legal_gaps(tree, letters, x):
            place(letters[:i] + (x,) + letters[i:], marks[1:])

    place(tuple(x for x in word.letters if x not in mset), sorted(mset))
    return out


def _prenormal(quilt, mset):
    """Kills plus the orbit-canonical representative.

    Returns None when the element is zero by R2, R3 or R4, otherwise
    (key, sign): the class member whose marked letters sit at the earliest
    positions (relabelled so the unmarked labels keep their order and the
    marks are the top labels in first-occurrence order), and its sign.

    Only the smallest class word by (mark positions, relabelled letters,
    parent, children) is built, with the unmarked labels named in order of
    first occurrence (the same in every class word) so that the winner
    commutes with relabelling them.  The tree, relabelled only on a tie,
    breaks ties on the letters (1,464 of the 11,263 quilts of arity <= 4 with
    1-3 marks; 684 change winner).  The winner is its class quilt, a quilt by
    the class-word lemma, renamed by the relabelling lemma (quilts).  A planar
    tree has no automorphism, so that is the input quilt exactly when the
    renaming is the identity and the word is the input's.
    """
    word, tree = quilt.word, quilt.tree
    for v in mset:
        if word.count(v) > 1:
            return None          # R3
        if len(tree.children[v]) > 2:
            return None          # R2
    words = _class_words(tree, word, mset)
    for w in words:
        ls = w.letters
        for i in range(1, len(ls) - 1):
            if ls[i] in mset and ls[i - 1] == ls[i + 1]:
                return None      # R4
    N, top = quilt.n, quilt.n - len(mset)
    unmarked = [x for x in word.down_order() if x not in mset]
    new = [0] * (N + 1)
    for i, v in enumerate(unmarked):
        new[v] = i + 1
    best = None
    for w in words:
        down = [x for x in w.letters if x in mset]
        for i, v in enumerate(down):
            new[v] = top + 1 + i
        rank = (tuple(i for i, x in enumerate(w.letters) if x in mset),
                tuple(new[x] for x in w.letters))
        if (best is None or rank < best[0] or rank == best[0]    # a tie: the trees decide
                and tree.relabelled(new) < tree.relabelled(best[3])):
            best = (rank, down, w, new[:])
    down, w = best[1:3]
    for i, v in enumerate(sorted(unmarked) + down):    # unmarked labels kept in order
        new[v] = i + 1
    if new != list(range(N + 1)):
        quilt = Quilt._unchecked(w, tree).relabel(new)
    elif w.letters != word.letters:
        quilt = Quilt._unchecked(w, tree)
    return MQuilt(quilt, len(mset)), parity_sign([down.index(v) for v in sorted(mset)])


def _signatures(key):
    """The signature of the R1 family of each marked edge (u, v) of key that
    a class word makes adjacent, with v named N (see the module docstring)."""
    quilt, top = key.quilt, key.arity
    tree, N = quilt.tree, quilt.n
    edges = [(u, v) for u in range(top + 1, N + 1) for v in tree.children[u] if v > top]
    words = _class_words(tree, quilt.word, key.marked()) if edges else ()
    for u, v in edges:
        ls = next((w.letters for w in words if (u, v) in zip(w.letters, w.letters[1:])), None)
        if ls is None:
            continue
        letters = tuple(x for x in ls if x != v)
        new = list(range(N + 1))
        for i, x in enumerate(x for x in letters if x > top):
            new[x] = top + 1 + i
        new[v] = N
        parent, children = map(list, tree.relabelled(new))
        u = new[u]
        i = children[u].index(N)
        children[u] = children[u][:i] + children[N] + children[u][i + 1:]
        for c in children[N]:
            parent[c] = u
        yield top, tuple(new[x] for x in letters), tuple(parent[:N]), tuple(children[:N]), u


@lru_cache(maxsize=None)
def _families(signature):
    """The R1 family of a signature as the prenormal (member, sign) pairs
    of a zero sum: u keeps a prefix and suffix of its children around its
    new child N, placed right after u in the word, and N the middle block.
    Each member is a quilt by the redistribution lemma (module docstring)."""
    top, letters, parent, children, u = signature
    N, combined, root = len(parent), children[u], parent.index(0, 1)
    mset = frozenset(range(top + 1, N + 1))
    word = _inserted(letters, letters.index(u) + 1, N)
    members = []
    for i in range(len(combined) + 1):
        for j in range(i, len(combined) + 1):
            kids = list(children) + [combined[i:j]]
            kids[u] = combined[:i] + (N,) + combined[j:]
            tree = Tree._unchecked(tuple(kids), root)
            pre = _prenormal(Quilt._unchecked(word, tree), mset)
            if pre is not None:
                members.append(pre)
    return tuple(members)


_ECHELONS = {}
_NORMAL_FORMS = {}


def _component_echelon(start):
    """The fully reduced echelon of the redistribution relations on the
    component of a first-occurrence key, shared by its members, which are all
    first-occurrence (R1 changes only the tree, R5 moves only marked letters):
    leader -> row over QQ with leader coefficient one and no other leader."""
    if start in _ECHELONS:
        return _ECHELONS[start]
    seen = {start}
    frontier = [start]
    echelon = {}
    while frontier:
        for signature in _signatures(frontier.pop()):
            rel = FormalSum(QQ, _families(signature))
            for m in rel.terms:
                if m not in seen:
                    seen.add(m)
                    frontier.append(m)
            rel = linear_combination(QQ, [(1, rel)] + [
                (-c, echelon[m]) for m, c in rel.terms.items() if m in echelon])
            if rel.is_zero():
                continue
            lead = max(rel.terms, key=MQuilt.sort_key)
            row = rel.scale(QQ.inv(rel.terms[lead]))
            for m, r in echelon.items():
                if lead in r.terms:
                    echelon[m] = combine(r, row, 1, -r.terms[lead])
            echelon[lead] = row
    for m in seen:
        _ECHELONS[m] = echelon
    return echelon


def _first_occurrence_renaming(x):
    """(to, back) for a quilt or a marked key x of arity a: to[label] renames
    the unmarked labels 1, 2, ..., a in order of first occurrence and keeps
    the marks, and back is its inverse, of the same sign.  Both are None if
    the unmarked labels already first occur in that order."""
    q, a = (x.quilt, x.arity) if isinstance(x, MQuilt) else (x, x.n)
    down = [u for u in dict.fromkeys(q.word.letters) if u <= a]
    if down == list(range(1, a + 1)):
        return None, None
    back = [0] + down + list(range(a + 1, q.n + 1))
    return sorted(range(len(back)), key=back.__getitem__), back


def _canonical(key):
    """(canon, to, back): canon is key() of key renamed by to, and (to, back)
    is its _first_occurrence_renaming (both None if key is first-occurrence)."""
    to, back = _first_occurrence_renaming(key)
    if to is None:
        return key.key(), None, None
    q = key.quilt
    return (((q.n, tuple(to[x] for x in q.word.letters)), (q.n,) + q.tree.relabelled(to)),
            key.marks), to, back


def _normal_form_of_key(key):
    """The normal form of one basis key, as {basis key: coefficient}.  Only
    first-occurrence keys are stored, by key(); any other key gets the normal
    form of its canonical tuple relabelled back, or {key: 1} if it is its own."""
    canon, to, back = _canonical(key)
    nf = _NORMAL_FORMS.get(canon)
    if nf is None:
        ckey = key if to is None else key.relabel(to)
        row = _component_echelon(ckey).get(ckey)
        nf = _NORMAL_FORMS[canon] = {ckey: 1} if row is None else {
            m: -c for m, c in row.terms.items() if m != ckey}
    if back is None:
        return nf
    if len(nf) == 1 and next(iter(nf)).key() == canon:
        return {key: 1}
    return {m.relabel(back): c for m, c in nf.items()}


def _reduce(sum_):
    """Reduce every key of a sum to its relation normal form."""
    ring = sum_.ring
    coerce, mul = ring.coerce, ring.mul
    return FormalSum(ring, ((m, mul(c, coerce(f)))
                            for key, c in sum_.terms.items()
                            for m, f in _normal_form_of_key(key).items()))


def _normal_sum(ring, triples):
    """The normal form of the sum of c * (quilt with the labels in marks
    marked) over the (c, quilt, marks) triples."""
    def terms():
        for c, quilt, marks in triples:
            pre = _prenormal(quilt, frozenset(marks))
            if pre is not None:
                key, sgn = pre
                yield key, c * sgn

    return _reduce(FormalSum(ring, terms()))


def normalize(quilt, mset, ring=ZZ):
    """Full normal form of a raw marked quilt as a FormalSum."""
    return _normal_sum(ring, [(1, quilt, mset)])


def mq_compose_basis(x, a, y, ring=ZZ):
    """Partial composition of basis elements, normalized.

    The sign (-1)^{kx * deg(word of y)} accounts for the outer odd marks
    passing the inserted element and for restoring ascending slot order
    of the marks.
    """
    check_slot(a, x.arity, x)
    kx = x.marks
    nx, ny = x.arity, y.arity
    Ny = y.quilt.n
    sign = -1 if (kx * y.quilt.degree) % 2 else 1
    marks = ([v + a - 1 for v in range(ny + 1, Ny + 1)] +
             [u + Ny - 1 for u in range(nx + 1, nx + kx + 1)])
    return _normal_sum(ring, ((sign * c, q, marks)
                              for q, c in compose(x.quilt, a, y.quilt).terms.items()))


def mq_compose(xs, a, ys):
    """Bilinear extension of mq_compose_basis to formal sums."""
    ring = xs.ring
    return linear_combination(ring, (
        (ring.mul(cx, cy), mq_compose_basis(kx, a, ky, ring))
        for kx, cx in xs.terms.items() for ky, cy in ys.terms.items()))


@lru_cache(maxsize=None)
def m_element(ring=ZZ):
    """The odd generator m.

    Built once per ring: every caller gets the same FormalSum, which must
    not be mutated in place.
    """
    return FormalSum(ring, [(M_ELEMENT_KEY, 1)])


def mark(xs, a):
    """xs o_a m: each term with label a added to its marks, sign +1."""
    def triples():
        for x, c in xs.terms.items():
            check_slot(a, x.arity, x)
            yield c, x.quilt, x.marked() | {a}

    return _normal_sum(xs.ring, triples())


@lru_cache(maxsize=None)
def delta_element(ring=ZZ):
    """The arity-1 element whose adjoint action extends the boundary.

    Built once per ring: every caller gets the same FormalSum, which must
    not be mutated in place.
    """
    one = FormalSum(ring, [(from_quilt(column_quilt()), 1)])
    return combine(mark(one, 1), mark(one, 2), 1, -1)


def mq_boundary(xs):
    """The word boundary, extended by zero on the marks; the faces are
    built by the face lemma (extensions), not revalidated."""
    return _normal_sum(xs.ring, ((c * s, _built(f, x.quilt.tree), x.marked())
                                 for x, c in xs.terms.items()
                                 for f, s in _faces(x.quilt.word.letters)))


def mq_permute(xs, sigma):
    """Right action of a permutation of the unmarked slots (label u becomes
    sigma^{-1}(u)) on a sum of quilts or of marked quilts in normal form: a
    relabelling of its keys, which keeps the marks."""
    pairs = sigma.items() if isinstance(sigma, dict) else enumerate(sigma, 1)
    inv = {su: u for u, su in pairs}
    top = max(((x.quilt if isinstance(x, MQuilt) else x).n for x in xs.terms), default=0)
    new = [inv.get(v, v) for v in range(top + 1)]
    return xs.map_keys(lambda x: x.relabel(new))


def antisymmetrize(xs, n):
    """The sum of sgn(sigma) mq_permute(xs, sigma) over sigma in S_n, for a
    sum of quilts or of marked quilts."""
    return linear_combination(xs.ring, ((parity_sign(p), mq_permute(xs, p))
                                        for p in permutations(range(1, n + 1))))


def _inserted(letters, i, new):
    """The word of letters, on the labels below new, with the letter new
    inserted at position i: a word by the insertion lemma."""
    return Word._unchecked(letters[:i] + (new,) + letters[i:], new)


def modification(q, kind, u, pair=None):
    """Insert vertex n+1 into a quilt by one of the modifications that
    make up ad_Delta.

    kind 3: n+1 takes u's place, over u's first child v and u, in order (v, u);
    kind 4: like 3 with the last child w, but n+1 has children (u, w);
    kind 5: n+1 replaces the consecutive children pair (v, w) of u.

    A quilt by the modification lemma (module docstring), built unchecked.
    """
    new = q.n + 1
    tree, word = q.tree, q.word
    children = [list(c) for c in tree.children] + [[]]
    root = tree.root
    if kind in (3, 4):
        v = tree.children[u][0] if kind == 3 else tree.children[u][-1]
        p = tree.parent[u]
        if p:
            children[p][children[p].index(u)] = new
        else:
            root = new
        children[u].remove(v)
        children[new] = [v, u] if kind == 3 else [u, v]
        i = word.letters.index(u)
    elif kind == 5:
        v, w = pair
        if tuple(pair) not in zip(tree.children[u], tree.children[u][1:]):
            raise ValueError("(%r, %r) is not a consecutive pair of children of %r" % (v, w, u))
        i = tree.children[u].index(v)
        children[u][i:i + 2] = [new]
        children[new] = [v, w]
        i = max(word.occurrences(u)) + 1
    else:
        raise ValueError("unknown modification kind %r" % kind)
    t2 = Tree._unchecked(tuple(map(tuple, children)), root)
    return Quilt._unchecked(_inserted(word.letters, i, new), t2)


def ad_delta(xs):
    """ad_Delta x = Delta o_1 x - (-1)^{deg x} sum_a x o_a Delta, by the
    modification formula, without composing anything with Delta.

    For a plain quilt q with N labels, ad_Delta q is -(-1)^{deg q}
    (Q3_u + Q4_u) over the vertices u with children, plus (-1)^{deg q}
    Q5_{u,v,w} over the consecutive children v, w of u, each with the new
    vertex N+1 marked.  A marked basis element x is its quilt q composed
    with m at the marked slots.  ad_Delta = [Delta, -] is a derivation and
    Delta o_1 m = 0, so ad_Delta(q o m) = ad_Delta(q) o m, and composing
    with m at a slot only marks that label, with sign +1 (see mark).  So
    x contributes the modifications of its quilt, signed by the degree of
    that quilt, with the marks of x and N+1.

    This is the d of the integer L-infinity route (linfty): for its F(n),
    of degree n - 2, ad_Delta F(n) is the relation's Delta o_1 F(n) and
    F(n) o_j Delta pieces, which the test oracle _ad_delta_by_composition
    builds by composing with Delta: 0.69 against 2.25 s at n = 6, this
    first on cold tables (2-core x86, Python 3.11).
    """
    def triples():
        for x, c in xs.terms.items():
            q = x.quilt
            sgn = -1 if q.degree % 2 else 1
            kids = q.tree.children
            marks = x.marked() | {q.n + 1}
            mods = [(-sgn, modification(q, kind, u))
                    for u in range(1, q.n + 1) if kids[u] for kind in (3, 4)]
            mods += [(sgn, modification(q, 5, u, pair))
                     for u in range(1, q.n + 1) for pair in zip(kids[u], kids[u][1:])]
            for s, mod in mods:
                yield c * s, mod, marks

    return _normal_sum(xs.ring, triples())


def boundary_prime(xs):
    return combine(mq_boundary(xs), ad_delta(xs))


def to_quilt_sum(xs):
    """The dg-operad map sending the mark generator to zero."""
    return FormalSum(xs.ring, [(x.quilt, c) for x, c in xs.terms.items()
                               if x.marks == 0])


# ----------------------------------------------- Gerstenhaber homotopies

@lru_cache(maxsize=None)
def gerstenhaber_element(name, ring=ZZ):
    """The named homotopy elements: the shifted product and bracket with
    the explicit homotopies for their relations.

    The combined derivation identity needs C3 - D3^(123): the permuted
    second-argument lemma is subtracted from the first-argument one.

    Built once per (name, ring): every caller gets the same FormalSum,
    which must not be mutated in place.
    """
    from .quilts import parse_quilt

    def one(text, marks, coeff=1):
        return FormalSum(ring, [(MQuilt(parse_quilt(text), marks), coeff)])

    if name == "M2":
        return one("312;3(1,2)", 1)
    if name == "P2":
        return combine(one("12;1(2)", 0), one("3121;3(2,1)", 1))
    if name == "L2":
        return antisymmetrize(gerstenhaber_element("P2", ring), 2)
    if name in ("P3'", "P3prime"):
        return combine(one("1232;1(3,2)", 0), one("421232;4(1(3),2)", 1))
    if name == "L3":
        return antisymmetrize(gerstenhaber_element("P3'", ring), 3)
    if name == "C3":
        return one("41232;4(1(3),2)", 1)
    if name == "D3":
        return combine(combine(one("123;1(2,3)", 0), one("41213;4(2,1(3))", 1)),
                       one("4512131;4(5(2,3),1)", 2, -1))
    raise ValueError("unknown element %r" % name)


IDENTITY_NAMES = ("associative", "commutative", "jacobi",
                  "derivation1", "derivation2", "gerstenhaber")


def verify_identity(name, ring=ZZ):
    """Residual (expected zero) of the named homotopy identity."""
    g = lambda nm: gerstenhaber_element(nm, ring)
    t12 = {1: 2, 2: 1}
    t23 = {1: 1, 2: 3, 3: 2}
    c123 = {1: 2, 2: 3, 3: 1}
    c321 = {1: 3, 3: 2, 2: 1}
    if name == "associative":
        M2 = g("M2")
        return combine(mq_compose(M2, 1, M2), mq_compose(M2, 2, M2))
    if name == "commutative":
        M2 = g("M2")
        return combine(combine(M2, mq_permute(M2, t12)),
                       boundary_prime(g("P2")))
    if name == "jacobi":
        L2 = g("L2")
        LL = mq_compose(L2, 1, L2)
        jac = combine(combine(LL, mq_permute(LL, c123)), mq_permute(LL, c321))
        return combine(jac, boundary_prime(g("L3")), 1, -1)
    if name == "derivation1":
        M2, P2 = g("M2"), g("P2")
        lhs = combine(combine(mq_compose(P2, 1, M2),
                              mq_permute(mq_compose(M2, 1, P2), t23), 1, -1),
                      mq_compose(M2, 2, P2), 1, -1)
        return combine(lhs, boundary_prime(g("C3")), 1, -1)
    if name == "derivation2":
        M2, P2 = g("M2"), g("P2")
        lhs = combine(combine(mq_compose(P2, 2, M2),
                              mq_compose(M2, 1, P2), 1, -1),
                      mq_permute(mq_compose(M2, 2, P2), t12), 1, -1)
        return combine(lhs, boundary_prime(g("D3")), 1, -1)
    if name == "gerstenhaber":
        M2, L2 = g("M2"), g("L2")
        lhs = combine(combine(mq_compose(L2, 1, M2),
                              mq_permute(mq_compose(M2, 1, L2), t23), 1, -1),
                      mq_compose(M2, 2, L2), 1, -1)
        homotopy = combine(g("C3"), mq_permute(g("D3"), c123), 1, -1)
        return combine(lhs, boundary_prime(homotopy), 1, -1)
    raise ValueError("unknown identity %r" % name)
