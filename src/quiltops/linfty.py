"""Strong homotopy Lie structure: maximal quilts and the L-infinity
relations in the quilt and marked-quilt operads.

A quilt of arity n is maximal when its degree is n-2; the alternating
sum of all maximal quilts (signed by the permutation from labelled order
to first-occurrence order) satisfies the L-infinity relations with the
word boundary.  Composing with the odd generator gives the marked
version, and passing to coinvariants gives the unsymmetrized version.

The marked constants are L_n = sum over sigma in S_n of sgn(sigma)
P_full(n).sigma, which reads 336 maximal quilts of arity 6 at n = 5, not
241,920.  L0 keeps maximal_quilts: antisymmetrizing P0(5) by Quilt.permute
takes 0.13 s, its enumeration 0.05 s (2-core x86, Python 3.11).  L1(1) is
Delta: over S_1 the antisymmetrization is only 21;2(1)[m2].
"""

from functools import lru_cache
from itertools import combinations

from .formal import FormalSum, combine, linear_combination
from .rings import ZZ
from .trees import parity_sign
from .quilts import Quilt, enumerate_quilts, first_occurrence_quilts
from .extensions import boundary_sum, compose_sums
from .mquilt import (MQuilt, _relabel, antisymmetrize, delta_element, from_quilt,
                     mark, mq_compose, boundary_prime)


def maximal_quilts(n):
    """All quilts of arity n and degree n-2 (empty below arity 2).

    Their words all have the shape a b ... b with a the root and b a
    repeated leaf.
    """
    if n < 2:
        return []
    out = enumerate_quilts(n, n - 2)
    for q in out:
        w = q.word.letters
        assert w[0] == q.tree.root and w[-1] == w[1]
        assert not q.tree.children[w[1]]
    return out


def sgn_K(q):
    """(-1)^{1 + n(n-1)/2} times the sign of the permutation from labelled
    order to first-occurrence order."""
    n = q.n
    lead = -1 if (1 + n * (n - 1) // 2) % 2 else 1
    return lead * parity_sign(q.word.down_order())


def L0(n, ring=ZZ):
    """Alternating sum of all maximal quilts of arity n."""
    return FormalSum(ring, [(q, sgn_K(q)) for q in maximal_quilts(n)])


def P0(n, ring=ZZ):
    """(-1)^{1+n(n-1)/2} times the sum of maximal quilts labelled in
    first-occurrence order: the maximal quilts on which sgn_K is that
    leading sign alone."""
    firsts = first_occurrence_quilts(n, n - 2) if n >= 2 else []
    return FormalSum(ring, [(q, sgn_K(q)) for q in firsts])


@lru_cache(maxsize=None)
def P0_m(n, ring=ZZ):
    """P0 as a sum of unmarked basis elements of the marked operad.

    Built once per (n, ring): every caller gets the same FormalSum, which
    must not be mutated in place.
    """
    return P0(n, ring).map_keys(from_quilt)


@lru_cache(maxsize=None)
def P_full(n, ring=ZZ):
    """P_n = P0_n + P0_{n+1} o_1 m, the unsymmetrized L_n.

    Built once per (n, ring): every caller gets the same FormalSum, which
    must not be mutated in place.
    """
    return combine(P0_m(n, ring), mark(P0_m(n + 1, ring), 1))


def L1(n, ring=ZZ):
    """L0 of arity n+1 with slot 1 marked, that is, composed with m there."""
    if n == 1:
        return delta_element(ring)
    return antisymmetrize(mark(P0_m(n + 1, ring), 1), n)


def L_full(n, ring=ZZ):
    """L_n = L0_n + L1_n in the marked operad (L_1 is the Delta element)."""
    if n == 1:
        return delta_element(ring)
    return antisymmetrize(P_full(n, ring), n)


def shuffles(p, q):
    """The (p, q)-shuffles sigma of p+q letters, increasing on 1..p and on
    p+1..p+q, each as the label array (0, sigma(1), ..., sigma(p+q)) that
    Word.relabel takes, with its sign (the parity of its inversions)."""
    n = p + q
    for first_block in combinations(range(1, n + 1), p):
        image = first_block + tuple(x for x in range(1, n + 1) if x not in first_block)
        yield (0,) + image, parity_sign(image)


def _shuffled(base, p, q, relabel):
    """The (c, term) pairs sgn_pq * sign * base relabelled over the
    (p-1, q)-shuffles, each key x by relabel(x, new): label u becomes sigma(u)."""
    sgn_pq = -1 if ((p - 1) * q) % 2 else 1
    for new, sg in shuffles(p - 1, q):
        yield sgn_pq * sg, base.map_keys(lambda x: relabel(x, new))


def _relabel_marked(x, new):
    """x with its unmarked labels renamed by new; its marks keep theirs."""
    return _relabel(x, new + tuple(range(len(new), x.quilt.n + 1)))


def linfty_residual_quilt(n, ring=ZZ):
    """d L0_n + sum over p+q=n+1 and shuffles of the signed compositions,
    relabelled by the shuffle; zero by the structure theorem."""
    def terms():
        if n >= 2:
            yield 1, boundary_sum(L0(n, ring))
        for p in range(2, n):
            q = n + 1 - p
            base = compose_sums(L0(p, ring), p, L0(q, ring))
            yield from _shuffled(base, p, q, Quilt.relabel)
    return linear_combination(ring, terms())


def linfty_residual_mquilt(n, ring=ZZ):
    """Same with L_n and the extended boundary in the marked operad."""
    def terms():
        yield 1, boundary_prime(L_full(n, ring))
        for p in range(2, n):
            q = n + 1 - p
            base = mq_compose(L_full(p, ring), p, L_full(q, ring))
            yield from _shuffled(base, p, q, _relabel_marked)
    return linear_combination(ring, terms())


def _delta_L1(n, ring=ZZ):
    """mq_compose(L1(1), 1, L1(n)) for n >= 2 from L1(n)'s first-occurrence
    part: composing into Delta's one slot commutes with relabelling inside."""
    return antisymmetrize(mq_compose(delta_element(ring), 1, mark(P0_m(n + 1, ring), 1)), n)


def linfty_residual_integer_route(n, ring=ZZ):
    """The characteristic-free cross-check: the marked-marked compositions
    sum to zero on the nose, without dividing by two.  Unlike the main
    relation, arity-one factors (where L1_1 is the Delta element)
    participate here; the p = 1 term is _delta_L1."""
    def terms():
        for p in range(1, n + 1):
            q = n + 1 - p
            if p == 1 and n > 1:
                yield 1, _delta_L1(n, ring)
            else:
                yield from _shuffled(mq_compose(L1(p, ring), p, L1(q, ring)), p, q,
                                     _relabel_marked)
    return linear_combination(ring, terms())


def coinvariant_reduce(s):
    """Image in the coinvariants twisted by sign: each quilt is sent to
    its first-occurrence-labelled representative times the sign of the
    relabelling; orbits with odd stabilizer sign die."""
    def term(x, c):
        q = x.quilt if isinstance(x, MQuilt) else x
        down = q.word.down_order()
        return q.permute({i + 1: v for i, v in enumerate(down)}), c * parity_sign(down)

    return FormalSum(s.ring, (term(x, c) for x, c in s.terms.items()))


def linfty_residual_coinvariant(n, ring=ZZ):
    """d P0_n + sum over p+q=n+1 and slots j of the signed compositions
    P0_p o_j P0_q, reduced into the sign-twisted coinvariants."""
    def terms():
        yield 1, boundary_sum(P0(n, ring))
        for p in range(2, n):
            q = n + 1 - p
            for j in range(1, p + 1):
                e = ((p - 1) * q + (p - j) * (q - 1)) % 2
                yield (-1 if e else 1), compose_sums(P0(p, ring), j, P0(q, ring))
    return coinvariant_reduce(linear_combination(ring, terms()))
