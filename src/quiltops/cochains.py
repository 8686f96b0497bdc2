"""Cochains on the Hochschild bicomplex of a diagram and the quilt action.

A cochain of bidegree (p, q) assigns to every p-tuple of composable
morphisms a q-multilinear map between the end algebras, stored as a
sparse exact tensor.  A quilt acts by a signed sum over colorings: a
semisimplicial map per vertex (sliced out of the word by an omega
weighting) and an input position per tree edge.  The sign of a coloring
is the parity of the shuffle between the block word of the inputs and
the word assembled from the coloring, extrapolated mod 2 through the
stated substitutions when a vertical degree is 0 on an interposed
vertex or a horizontal degree is 0.

Storage: `Cochain.data` is {(p, q): {nerve tuple: {(out, in_1..in_q):
coefficient}}} with only nonzero coefficients, so no bidegree holds an
empty tuple and no tuple an empty tensor.  A tuple (f_1..f_p) with
objects x_0..x_p (the p = 0 tuple is (x,)) carries a q-linear map
from A(x_p) to A(x_0): out is a basis index of A(x_0) and in_1..in_q
are basis indices of A(x_p).  The matrix {(r, c): v} of a morphism is
such a map with one input, so composing with it is the substitution
`_tensor_splice` that also composes two cochain values.  The constructor
accumulates entries through the FormalSum constructor and `Cochain._add`
adds one entry in place; `+` copies the operand with more entries and
folds the other in by `_add`, and `scale` multiplies the tensors without
re-accumulating, as a nonzero scalar of ZZ, QQ or GF(p) keeps entries
nonzero.  Cochains over different rings are never equal or added.
"""

from functools import lru_cache
from itertools import chain, combinations, product

from .formal import FormalSum
from .rings import RingError
from .quilts import Quilt, column_quilt
from .mquilt import MQuilt, gerstenhaber_element
from .linfty import P_full
from .trees import parity_sign


class NerveDepthExceeded(RuntimeError):
    def __init__(self, p, max_p):
        super().__init__("nerve depth %d exceeds configured maximum %d" % (p, max_p))
        self.p = p
        self.max_p = max_p


DEFAULT_MAX_P = 4


class Cochain:
    """Element of the total complex: components indexed by bidegree."""

    def __init__(self, diagram, entries=()):
        """The sum of the (pq, tup, idx, value) entries: equal keys add up
        and cancelled ones are dropped."""
        self.diagram = diagram
        self.ring = diagram.ring
        self.data = {}
        sums = FormalSum(self.ring, (((pq, tup, idx), v)
                                     for pq, tup, idx, v in entries))
        for (pq, tup, idx), v in sums.terms.items():
            self.data.setdefault(pq, {}).setdefault(tup, {})[idx] = v

    def _add(self, pq, tup, idx, v):
        ring = self.ring
        v = ring.coerce(v)
        comp = self.data.setdefault(pq, {})
        tensor = comp.setdefault(tup, {})
        w = ring.add(tensor.get(idx, ring.zero), v)
        if ring.is_zero(w):
            tensor.pop(idx, None)
            if not tensor:
                comp.pop(tup, None)
                if not comp:
                    self.data.pop(pq, None)
        else:
            tensor[idx] = w

    def bidegrees(self):
        return sorted(self.data)

    def is_zero(self):
        return not self.data

    def _copy(self, pqs):
        """The components at pqs, in new dicts."""
        out = Cochain(self.diagram)
        out.data = {pq: {t: dict(T) for t, T in self.data[pq].items()} for pq in pqs}
        return out

    def component(self, p, q):
        return self._copy([(p, q)] if (p, q) in self.data else [])

    def components(self):
        return [((p, q), self.component(p, q)) for (p, q) in self.bidegrees()]

    def tensor(self, pq, tup):
        return self.data.get(pq, {}).get(tup, {})

    def entries(self):
        return ((pq, tup, idx, v) for pq, comp in self.data.items()
                for tup, T in comp.items() for idx, v in T.items())

    def __add__(self, other):
        """One pass over the operand with fewer entries: both operands are
        canonical (nonzero entries, distinct keys), so folding it by `_add`
        into a copy of the other, with new inner dicts, gives the sum the
        constructor would, dropping cancelled entries and empty tuples."""
        if self.ring != other.ring:
            raise RingError("ring mismatch: %s vs %s" % (self.ring, other.ring))
        big, small = (self, other) if self._size() >= other._size() else (other, self)
        out = big._copy(big.data)
        for entry in small.entries():
            out._add(*entry)
        return out

    def __sub__(self, other):
        return self + other.scale(-1)

    def _size(self):
        return sum(len(T) for comp in self.data.values() for T in comp.values())

    def scale(self, c):
        """c times self, tensor by tensor in new dicts: ZZ, QQ and GF(p) have
        no zero divisors, so no entry vanishes unless c = 0."""
        mul, c = self.ring.mul, self.ring.coerce(c)
        out = Cochain(self.diagram)
        if not self.ring.is_zero(c):
            out.data = {pq: {tup: {idx: mul(c, v) for idx, v in T.items()}
                             for tup, T in comp.items()}
                        for pq, comp in self.data.items()}
        return out

    def __eq__(self, other):
        return (isinstance(other, Cochain) and self.ring == other.ring
                and self.data == other.data)

    def __str__(self):
        if self.is_zero():
            return "0"
        bits = []
        for pq in self.bidegrees():
            terms = sum(len(T) for T in self.data[pq].values())
            bits.append("C^%s with %d entries" % (pq, terms))
        return "; ".join(bits)

    __repr__ = __str__


def m_hat(diagram):
    """Multiplication as a (0, 2) cochain."""
    return Cochain(diagram, [((0, 2), (x,), (k, i, j), v)
                             for x in diagram.category.objects
                             for (i, j, k), v in diagram.mult[x].items()])


def shifted_total(pq):
    return pq[0] + pq[1] - 1


# ------------------------------------------------------------ colorings

def _omega_assignments(word, pvec):
    """All omega weightings: nonnegative letter weights summing per vertex
    to p_a + 1 - (number of occurrences), with a positive letter strictly
    between consecutive occurrences of the same vertex."""
    occ = [word.occurrences(a) for a in range(1, word.n + 1)]
    budgets = [p + 1 - len(os) for p, os in zip(pvec, occ)]
    if min(budgets) < 0:
        return
    # per vertex the weights of its occurrences, in lexicographic order
    choices = [[c for c in product(range(s + 1), repeat=len(os)) if sum(c) == s]
               for s, os in zip(budgets, occ)]
    gaps = [range(os[i] + 1, os[i + 1]) for os in occ for i in range(len(os) - 1)]
    for combo in product(*choices):
        omega = [0] * len(word.letters)
        for os, comp in zip(occ, combo):
            for t, w in zip(os, comp):
                omega[t] = w
        # separation: between consecutive occurrences some positive weight
        if all(any(omega[t] for t in gap) for gap in gaps):
            yield omega


def _zeta_from_omega(word, omega, pvec):
    """Image lists of the semisimplicial maps determined by omega."""
    prefix = [0]
    for w in omega:
        prefix.append(prefix[-1] + w)
    zetas = []
    for a in range(1, word.n + 1):
        img = set()
        for t in word.occurrences(a):
            img.update(range(prefix[t], prefix[t] + omega[t] + 1))
        img = sorted(img)
        if len(img) != pvec[a - 1] + 1:
            return None  # overlapping intervals: no coloring
        zetas.append(img)
    return zetas


def tree_colorings(tree, qvec):
    """Edge labellings: strictly increasing in 1..q_u over the children."""
    vertices = range(1, tree.n + 1)
    if any(len(tree.children[u]) > qvec[u - 1] for u in vertices):
        return []
    edges = [(u, c) for u in vertices for c in tree.children[u]]
    picks = [combinations(range(1, qvec[u - 1] + 1), len(tree.children[u]))
             for u in vertices]
    return [dict(zip(edges, chain.from_iterable(pick))) for pick in product(*picks)]


def _expand_first(word, omega, a):
    """The expansion move: add one to omega at the first occurrence of a."""
    out = list(omega)
    out[word.occurrences(a)[0]] += 1
    return out


def coloring_sign(quilt, zetas, I, pvec, qvec, word_omega=None):
    """Sign of a coloring by the shuffle between block word and assembled
    word, with the mod-2 extrapolation rules."""
    word, tree = quilt.word, quilt.tree
    n = quilt.n
    inter = set(word.interposed())
    pvec2 = list(pvec)
    omega = word_omega
    if any(pvec[a - 1] == 0 and a in inter for a in range(1, n + 1)):
        assert omega is not None
        for a in range(1, n + 1):
            if pvec2[a - 1] == 0 and a in inter:
                omega = _expand_first(word, omega, a)
                omega = _expand_first(word, omega, a)
                pvec2[a - 1] += 2
        zetas = _zeta_from_omega(word, omega, pvec2)
    qvec2 = [2 if q == 0 else q for q in qvec]

    # initial word: per vertex the vertical then horizontal letters
    initial = []
    for a in range(1, n + 1):
        initial.extend(("v", a, i) for i in range(pvec2[a - 1]))
        initial.extend(("h", a, i) for i in range(1, qvec2[a - 1]))
    pos_in_initial = {letter: i for i, letter in enumerate(initial)}

    shuffled = [("v", a, 0) for a in reversed(word.interposed())]
    by_position = {}
    for a in range(1, n + 1):
        lo = 1 if a in inter else 0
        for i in range(lo, pvec2[a - 1]):
            p = zetas[a - 1][i]
            assert p not in by_position, (quilt, pvec, qvec)
            by_position[p] = ("v", a, i)
    shuffled.extend(by_position[p] for p in sorted(by_position))

    corner = tree.corner_word()
    nxt = {a: 1 for a in range(1, n + 1)}
    last_at = {}
    for t, u in enumerate(corner):
        last_at[u] = t
    for t, u in enumerate(corner):
        if t == last_at[u]:
            shuffled.extend(("h", u, i) for i in range(nxt[u], qvec2[u - 1]))
        else:
            c = corner[t + 1]
            upto = I[(u, c)]
            shuffled.extend(("h", u, i) for i in range(nxt[u], upto))
            nxt[u] = upto

    assert len(shuffled) == len(initial), (quilt, pvec, qvec, shuffled, initial)
    return parity_sign([pos_in_initial[letter] for letter in shuffled])


def enumerate_colorings(quilt, pvec, qvec):
    """All colorings (zetas, I) of a quilt with the given bidegrees,
    together with their signs."""
    word, tree = quilt.word, quilt.tree
    Is = tree_colorings(tree, qvec)
    if not Is:
        return []
    out = []
    for omega in _omega_assignments(word, pvec):
        zetas = _zeta_from_omega(word, omega, pvec)
        if zetas is None:
            continue
        for I in Is:
            sign = coloring_sign(quilt, zetas, I, pvec, qvec, word_omega=omega)
            out.append((zetas, I, sign))
    return out


# ------------------------------------------------------------ evaluation

def _tensor_splice(ring, T, j, S):
    """Substitute the multilinear map S into input slot j of T; S is grouped
    by its output index, keeping its order, so the pairs come in T x S order."""
    mul = ring.mul
    by_out = {}
    for sidx, w in S.items():
        by_out.setdefault(sidx[0], []).append((sidx[1:], w))
    return FormalSum(ring, ((idx[:j] + rest + idx[j + 1:], mul(v, w))
                            for idx, v in T.items()
                            for rest, w in by_out.get(idx[j], ()))).terms


def _along(diagram, T, j, f):
    """Precompose input slot j of T with the matrix of f, or postcompose
    the output with it when j is 0."""
    if diagram.category.is_identity(f):
        return T
    if j:
        return _tensor_splice(diagram.ring, T, j, diagram.matrix(f))
    return _tensor_splice(diagram.ring, diagram.matrix(f), 1, T)


def evaluate_coloring(diagram, quilt, zetas, I, args_tensors, tup, pvec, qvec):
    """The composed multilinear map of one coloring on one nerve tuple.

    args_tensors[a-1] is a function: morphism-tuple key -> tensor or None.
    Returns the tensor or None if some factor vanishes.
    """
    cat = diagram.category
    ring = diagram.ring
    p_total = len(tup) if (len(tup) == 0 or tup[0] not in cat.objects) else 0
    xs = cat.tuple_objects(tup) if p_total else [tup[0]]

    def subkey(a):
        z = zetas[a - 1]
        if len(z) == 1:
            return (xs[z[0]],)
        return tuple(cat.path(tup, z[i], z[i + 1]) for i in range(len(z) - 1))

    def path(k, l):
        if k == l:
            return cat.identity[xs[k]]
        return cat.path(tup, k, l)

    # assemble bottom-up
    values = {}
    order = sorted(range(1, quilt.n + 1),
                   key=lambda u: -quilt.tree.depth(u))
    for u in order:
        g = args_tensors[u - 1](subkey(u))
        if g is None or not g:
            return None
        qu = qvec[u - 1]
        edge_at = {}
        for c in quilt.tree.children[u]:
            edge_at[I[(u, c)]] = c
        # splice children from the rightmost slot to keep indices stable
        zu = zetas[u - 1]
        for j in range(qu, 0, -1):
            if j in edge_at:
                c = edge_at[j]
                child = values[c]
                if child is None:
                    return None
                zc = zetas[c - 1]
                child = _along(diagram, child, 0, path(zu[-1], zc[0]))
                g = _tensor_splice(ring, g, j, child)
            else:
                g = _along(diagram, g, j, path(zu[-1], len(xs) - 1))
            if not g:
                return None
        values[u] = g
    root = quilt.tree.root
    return _along(diagram, values[root], 0, path(0, zetas[root - 1][0]))


def act(element, args, diagram, max_p=DEFAULT_MAX_P):
    """Action of a formal sum of quilts or marked quilts on cochains.

    Marked slots receive the multiplication cochain.  Non-homogeneous
    arguments are expanded multilinearly over their components.  Raises
    ValueError when the arguments and the marks of a key do not fill its
    inputs.
    """
    if isinstance(element, (Quilt, MQuilt)):
        element = FormalSum.single(element, 1, diagram.ring)
    return Cochain(diagram, _act_entries(element, args, diagram, max_p))


def _act_entries(element, args, diagram, max_p):
    ring = diagram.ring
    keys = [(key, coeff, key.quilt, key.marks) if isinstance(key, MQuilt)
            else (key, coeff, key, 0) for key, coeff in element.items()]
    # each argument's components, and m_hat's for the marks, once per call
    expanded = [sorted(f.data.items()) for f in args]
    marks = sorted(m_hat(diagram).data.items()) if any(m for *_, m in keys) else []
    for key, coeff, quilt, k in keys:
        if len(args) + k != quilt.n:
            raise ValueError("%s has %d inputs and %d marks: it takes %d "
                             "arguments, got %d" % (key, quilt.n, k, quilt.n - k,
                                                    len(args)))
        # expand components multilinearly
        for combo in product(*expanded, *[marks] * k):
            pvec = [pq[0] for pq, _ in combo]
            qvec = [pq[1] for pq, _ in combo]
            p_out = sum(pvec) - quilt.degree
            q_out = 1 + sum(q - 1 for q in qvec)
            if p_out < 0 or q_out < 0:
                continue
            if p_out > max_p:
                raise NerveDepthExceeded(p_out, max_p)
            colorings = enumerate_colorings(quilt, pvec, qvec)
            if not colorings:
                continue
            # the key stands for the quilt composed with k odd generators at
            # the final slots in descending order; evaluating moves each one
            # past the arguments and past the generators already placed
            args_degree = sum(shifted_total(pq) for pq, _ in combo[:quilt.n - k])
            e = k * args_degree + k * (k - 1) // 2
            mark_sign = -1 if e % 2 else 1
            tensors = [comp.get for _, comp in combo]
            for tup in diagram.category.nerve(p_out):
                for zetas, I, sign in colorings:
                    T = evaluate_coloring(diagram, quilt, zetas, I, tensors,
                                          tup, pvec, qvec)
                    if not T:
                        continue
                    c = ring.mul(ring.coerce(coeff),
                                 ring.coerce(sign * mark_sign))
                    for idx, v in T.items():
                        yield (p_out, q_out), tup, idx, ring.mul(c, v)


# ------------------------------------------------------------ coboundaries

def delta_S(f, max_p=DEFAULT_MAX_P):
    """Simplicial coboundary: alternating sum over the face maps."""
    diagram = f.diagram
    cat = diagram.category
    ring = diagram.ring

    def faces():
        for (p, q), comp in f.data.items():
            if p + 1 > max_p:
                raise NerveDepthExceeded(p + 1, max_p)
            for tup in cat.nerve(p + 1):
                xs = cat.tuple_objects(tup)
                for i in range(p + 2):
                    # epsilon_i: [p] -> [p+1] skipping i
                    img = [j for j in range(p + 2) if j != i]
                    if p == 0:
                        sub = (xs[img[0]],)
                    else:
                        sub = tuple(cat.path(tup, img[t], img[t + 1])
                                    for t in range(p))
                    T = comp.get(sub)
                    if not T:
                        continue
                    T = _along(diagram, T, 0, cat.path(tup, 0, img[0]))
                    for j in range(q, 0, -1):
                        T = _along(diagram, T, j, cat.path(tup, img[-1], p + 1))
                    sign = ring.coerce(-1 if i % 2 else 1)
                    for idx, v in T.items():
                        yield (p + 1, q), tup, idx, ring.mul(sign, v)

    return Cochain(diagram, faces())


def delta_H(f, max_p=DEFAULT_MAX_P):
    """Hochschild coboundary: the action of the column-quilt commutator
    with multiplication in the first slot."""
    diagram = f.diagram
    return act(_delta_H_element(diagram.ring), [m_hat(diagram), f], diagram, max_p)


@lru_cache(maxsize=None)
def _delta_H_element(ring):
    """The commutator 12;1(2) - 21;2(1), built once per ring."""
    up = column_quilt()
    return FormalSum(ring, [(up, 1), (up.permute({1: 2, 2: 1}), -1)])


def delta_total(f, max_p=DEFAULT_MAX_P):
    return delta_S(f, max_p) + delta_H(f, max_p)


# ------------------------------------------------------------ operations

def cup(f, g, max_p=DEFAULT_MAX_P):
    """Cup product: the sign-corrected action of the multiplication
    element (act(M2) is (-1)^{|f|} f cup g)."""
    diagram = f.diagram
    M2 = gerstenhaber_element("M2", diagram.ring)
    out = Cochain(diagram)
    for pq, comp in f.components():
        sgn = -1 if shifted_total(pq) % 2 else 1
        out = out + act(M2, [comp, g], diagram, max_p).scale(sgn)
    return out


def circle_bar(f, g, max_p=DEFAULT_MAX_P):
    """The composition operation: the action of the pre-Lie element."""
    P2 = gerstenhaber_element("P2", f.diagram.ring)
    return act(P2, [f, g], f.diagram, max_p)


def bracket(f, g, max_p=DEFAULT_MAX_P):
    """Generalized Gerstenhaber bracket: the action of L2."""
    L2 = gerstenhaber_element("L2", f.diagram.ring)
    return act(L2, [f, g], f.diagram, max_p)


def is_asimplicial(f):
    return all(q >= 1 for (p, q) in f.data)

def is_normalized(f):
    cat = f.diagram.category
    for (p, q), comp in f.data.items():
        for tup in comp:
            if p >= 1 and any(cat.is_identity(m) for m in tup):
                return False
    return True


def subcomplex_check(f, which):
    if which == "asimplicial":
        return is_asimplicial(f)
    if which == "normalized":
        return is_normalized(f)
    raise ValueError("unknown subcomplex %r" % which)


# ------------------------------------------------------------ Maurer-Cartan

def mc_residual(f, max_p=DEFAULT_MAX_P):
    """delta f + P2(f,f) + P3(f,f,f) + P4(f,f,f,f); the solutions describe
    the deformations of the diagram."""
    diagram = f.diagram
    res = delta_total(f, max_p)
    for n in (2, 3, 4):
        res = res + act(P_full(n, diagram.ring), [f] * n, diagram, max_p)
    return res


def deformed_diagram(f, validate=True):
    """The diagram with multiplication twisted by the (0,2) part and
    morphisms twisted by the (1,1) part of f; raises DiagramError when
    the result fails the axioms."""
    from .diagrams import DiagramOfAlgebras
    diagram = f.diagram
    ring = diagram.ring
    cat = diagram.category
    comp02 = f.data.get((0, 2), {})
    mult = {x: FormalSum(ring, chain(diagram.mult[x].items(),
                                     (((i, j, k), v) for (k, i, j), v
                                      in comp02.get((x,), {}).items()))).terms
            for x in cat.objects}
    comp11 = f.data.get((1, 1), {})
    matrices = {m: FormalSum(ring, chain(diagram.matrix(m).items(),
                                         comp11.get((m,), {}).items())).terms
                for m in cat.morphisms if not cat.is_identity(m)}
    return DiagramOfAlgebras(cat, diagram.dims, mult, matrices, ring,
                             validate=validate)


def _unital_mul(diagram, x, u, v):
    """Multiply in the unitalization of A(x): pairs (scalar, vector)."""
    ring = diagram.ring
    (c1, v1), (c2, v2) = u, v
    out = FormalSum(ring, chain(diagram.multiply(x, v1, v2).items(),
                                ((i, ring.mul(a, c2)) for i, a in v1.items()),
                                ((j, ring.mul(b, c1)) for j, b in v2.items())))
    return (ring.mul(c1, c2), out.terms)


def skew_check(f, max_p=DEFAULT_MAX_P):
    """Componentwise equivalence of the Maurer-Cartan equation with the
    skew-diagram identities for the (1,1) and (2,0) parts of f.

    Returns a dict with the residual components and the two identity
    checks; the (2,1) component vanishes iff the twisted morphisms are a
    functor up to conjugation by 1+h, and the (3,0) component iff 1+h
    satisfies the twisted cocycle identity, all in the unitalization.
    """
    diagram = f.diagram
    ring = diagram.ring
    cat = diagram.category
    res = mc_residual(f, max_p)
    g = f.data.get((1, 1), {})
    h = f.data.get((2, 0), {})
    f02 = f.component(0, 2)
    mult_new = deformed_diagram(f02, validate=False)

    def Aprime(m, vec):
        mat = chain(mult_new.matrix(m).items(), g.get((m,), {}).items())
        return FormalSum(ring, ((r, ring.mul(v, vec[c]))
                                for (r, c), v in mat if c in vec)).terms

    def hval(psi, phi):
        T = h.get((psi, phi), {})
        return {idx[0]: v for idx, v in T.items()}

    ok21 = True
    for (psi, phi) in cat.nerve(2):
        x = cat.src(phi)
        z = cat.tgt(psi)
        hv = (ring.one, hval(psi, phi))
        comp = cat.compose(psi, phi)
        for c in range(diagram.dims[x]):
            a = {c: ring.one}
            lhs = _unital_mul(mult_new, z, (ring.zero, Aprime(psi, Aprime(phi, a))), hv)
            rhs = _unital_mul(mult_new, z, hv, (ring.zero, Aprime(comp, a)))
            if lhs != rhs:
                ok21 = False
    ok30 = True
    for (chi, psi, phi) in cat.nerve(3):
        z = cat.tgt(chi)
        hv_pp = hval(psi, phi)
        ax = Aprime(chi, hv_pp)
        lhs = _unital_mul(mult_new, z, (ring.one, ax),
                          (ring.one, hval(chi, cat.compose(psi, phi))))
        rhs = _unital_mul(mult_new, z, (ring.one, hval(chi, psi)),
                          (ring.one, hval(cat.compose(chi, psi), phi)))
        if lhs != rhs:
            ok30 = False
    return {
        "mc_21_zero": res.component(2, 1).is_zero(),
        "mc_30_zero": res.component(3, 0).is_zero(),
        "conjugated_functor": ok21,
        "cocycle": ok30,
    }


def squaring(f, max_p=DEFAULT_MAX_P):
    """Sq(f) = f circle-bar f; over a field of characteristic 2 this
    preserves cocycles and descends to cohomology."""
    ring = f.diagram.ring
    if getattr(ring, "p", None) != 2:
        raise RingError("squaring requires characteristic 2, not the ring %r" % ring)
    return circle_bar(f, f, max_p)
