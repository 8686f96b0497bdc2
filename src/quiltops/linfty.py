"""Strong homotopy Lie structure: maximal quilts and the L-infinity
relations in the quilt and marked-quilt operads.

A quilt of arity n is maximal when its degree is n-2; the alternating
sum of all maximal quilts (signed by the permutation from labelled order
to first-occurrence order) satisfies the L-infinity relations with the
word boundary.  Composing with the odd generator gives the marked
version, and passing to coinvariants gives the unsymmetrized version.

The constants are built from first-occurrence parts F(p): L_p = A_p(F(p)),
where x^pi is x with each label u renamed pi(u) (marks kept) and A_n(x) is
the sum of sgn(pi) x^pi over S_n.  L_n reads 336 maximal quilts of arity 6
at n = 5, not 241,920.  L0 keeps maximal_quilts: antisymmetrizing P0(5)
takes 0.06 s, its enumeration 0.014 s (2-core x86, Python 3.11).  L1(1)
and L_full(1) are Delta, so F(1) is Delta: A_1 of P0_m(2) marked at slot
1 is only 21;2(1)[m2].  The relation of arity n, in its shuffle form

  d L_n + sum over p + q = n + 1 of (-1)^{(p-1)q} sum over the
  (p-1, q)-shuffles s of sgn(s) (L_p o_p L_q)^s,

is A_n(r_n) for the first-occurrence residual

  r_n = d F(n) + sum over p + q = n + 1, slots j = 1..p of eps(p, j)
        F(p) o_j F(q),   eps(p, j) = (-1)^{(p-1)q + (p-j)(q-1)}.

Proof.  d commutes with relabelling.  Composition is equivariant with no
sign (the operad axiom; test_operations_commute_with_relabelling):
x^sigma o_{sigma(j)} y^tau = (x o_j y)^{sigma o_j tau}, where sigma o_j tau
moves y's q labels as one block to the place of j, permuted by tau.  So
(F(p)^sigma o_p F(q)^tau)^s = (F(p) o_j F(q))^pi, j = sigma^{-1}(p), pi =
s (sigma o_j tau).  Fix j: sigma o_j tau puts the block on p..n and the
rest on 1..p-1, and s increases on both, so pi determines s (by the
image of p..n), then sigma and tau.  The (p-1)! q! C(n, p-1) = n! triples meet each
pi once, and over all j they cover S_n exactly p times.  The block passes
the p - j labels after j, so sgn(pi) = sgn(s) sgn(sigma) sgn(tau)
(-1)^{(p-j)(q-1)}; with (-1)^{(p-1)q} that is eps(p, j).

eps(p, j), j = 1..p, is (-1)^{p-1} when q is odd, (-1)^{p-j} when q is even:
n = 3: (2, 2) -+;  n = 4: (2, 3) --, (3, 2) +-+;  n = 5: (2, 4) -+,
(3, 3) +++, (4, 2) -+-+;  q = 1 (integer route): (-1)^{p-1} in every slot.

The integer route has no boundary: its d F(n) is its p = 1 and p = n
pieces.  There F(1) = Delta and deg F(n) = n - 2 (P0_m(n+1) has degree
n - 1 and the mark takes one off), so eps(1, 1) = +1 and eps(n, j) =
(-1)^{n-1} = -(-1)^{deg F(n)}, and the two pieces sum to
Delta o_1 F(n) - (-1)^{deg F(n)} sum_j F(n) o_j Delta = ad_Delta F(n),
which ad_delta builds by the modification formula (mquilt).  At n = 1
the two are one piece, Delta o_1 Delta = 0, and ad_Delta(Delta) =
2 Delta o_1 Delta = 0 (deg Delta = -1).  So every route is d F(n) plus
the slot compositions for p = 2..n-1:

  route    F(p), and Delta at p = 1  composition   d
  quilt    P0(p), 0 at p = 1         compose_sums  boundary_sum
  mquilt   P_full(p) (_P)            mq_compose    boundary_prime
  integer  P0_m(p+1) o_1 m (_P1)     mq_compose    ad_delta

A_n only relabels keys, as the marked normal form commutes with
relabelling unmarked labels (mquilt).  The verdict is taken in the
sign-twisted coinvariants: coinvariant_reduce sends a key x of arity a
to x^to times sgn(to), where to renames its unmarked labels 1..a in
order of first occurrence and keeps the marks.  Lemma: A_n(r) = 0
exactly when coinv(r) = 0, for r a sum of keys of arity n over ZZ, QQ or
any GF(p).
  (i) Relabelling acts freely.  If x^tau = x, tau maps the word of x onto
      itself letter by letter, so it fixes every label in the word, and
      every unmarked label occurs in the word.
  (ii) A_n(x^tau) = sum over pi of sgn(pi) x^{pi tau} = sgn(tau) A_n(x).
  (iii) An orbit O has one first-occurrence key x_O, and each x in O is
      x_O^b with b the inverse of its to, of the same sign.  By (ii)
      A_n(x) = sgn(b) A_n(x_O), and coinv(x) = sgn(b) x_O.  So A_n(r) =
      sum over O of C_O A_n(x_O) and coinv(r) = sum over O of C_O x_O,
      with C_O = sum over x in O of c_x sgn(b).  By (i) the n! keys
      x_O^pi are distinct, so x_O^pi has coefficient sgn(pi) C_O in
      A_n(r), and orbits are disjoint: A_n(r) = 0 exactly when every C_O
      is zero, that is when coinv(r) = 0.  Nothing is divided, so this
      holds in every ring.
So coinv(A_n(x)) = n! coinv(x), and A_n is injective on the coinvariants.
The residuals are A_n(r_n), built only when coinv(r_n) is nonzero, to
report it, and zero otherwise.  The coinvariant residual is coinv(r_n)
of the quilt route.  r_1 is 0 for quilts, boundary_prime(Delta) = 0
marked, and ad_Delta(Delta) = 0 on the integer route.  The shuffle form
is the test oracle _residual_by_shuffles, and the integer route's p = 1
and p = n composition pieces the test oracle _ad_delta_by_composition.
"""

from functools import lru_cache

from .formal import FormalSum, combine, linear_combination
from .rings import ZZ
from .trees import parity_sign
from .quilts import enumerate_quilts, first_occurrence_quilts
from .extensions import boundary_sum, compose_sums
from .mquilt import (_first_occurrence_renaming, ad_delta, antisymmetrize, boundary_prime,
                     delta_element, from_quilt, mark, mq_compose)


def maximal_quilts(n):
    """All quilts of arity n and degree n-2 (empty below arity 2).  Their
    words all have the shape a b ... b with a the root and b a leaf
    (test_maximal_census)."""
    return enumerate_quilts(n, n - 2) if n >= 2 else []


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
    return FormalSum(ring, [(q, sgn_K(q)) for q in first_occurrence_quilts(n, n - 2)])


@lru_cache(maxsize=None)
def P0_m(n, ring=ZZ):
    """P0 as a sum of unmarked basis elements of the marked operad; built
    once per (n, ring), so every caller shares it and must not mutate it."""
    return P0(n, ring).map_keys(from_quilt)


@lru_cache(maxsize=None)
def P_full(n, ring=ZZ):
    """P_n = P0_n + P0_{n+1} o_1 m, the unsymmetrized L_n; built once per
    (n, ring), so every caller shares it and must not mutate it."""
    return combine(P0_m(n, ring), mark(P0_m(n + 1, ring), 1))


def _P1(n, ring=ZZ):
    """L1(n)'s first-occurrence part: Delta at n = 1, else P0_m(n+1) o_1 m."""
    return delta_element(ring) if n == 1 else mark(P0_m(n + 1, ring), 1)


def _P(n, ring=ZZ):
    """L_full(n)'s first-occurrence part: Delta at n = 1, else P_full(n)."""
    return delta_element(ring) if n == 1 else P_full(n, ring)


def L1(n, ring=ZZ):
    """L0 of arity n+1 with slot 1 marked, that is, composed with m there."""
    return antisymmetrize(_P1(n, ring), n)


def L_full(n, ring=ZZ):
    """L_n = L0_n + L1_n in the marked operad (L_1 is the Delta element)."""
    return antisymmetrize(_P(n, ring), n)


def _slot_pieces(n, route, ring=ZZ):
    """The pieces of r_n for a route ("quilt", "mquilt" or "integer"): d F(n),
    then for each p = 2..n-1 the sum over the slots j of eps(p, j)
    F(p) o_j F(q).  The module docstring gives the table."""
    F, compose, d = {"quilt": (P0, compose_sums, boundary_sum),
                     "mquilt": (_P, mq_compose, boundary_prime),
                     "integer": (_P1, mq_compose, ad_delta)}[route]
    yield d(F(n, ring))
    for p in range(2, n):
        q = n + 1 - p
        x, y = F(p, ring), F(q, ring)
        yield linear_combination(ring, (
            (-1 if ((p - 1) * q + (p - j) * (q - 1)) % 2 else 1, compose(x, j, y))
            for j in range(1, p + 1)))


def _slot_sum(n, route, ring=ZZ):
    """The first-occurrence residual r_n of a route: its pieces summed."""
    return linear_combination(ring, ((1, piece) for piece in _slot_pieces(n, route, ring)))


def _residual(n, route, ring):
    """A_n(r_n) of a route, built only when coinv(r_n) is nonzero, and zero
    otherwise (the lemma in the module docstring)."""
    r = _slot_sum(n, route, ring)
    return FormalSum(ring) if coinvariant_reduce(r).is_zero() else antisymmetrize(r, n)


def linfty_residual_quilt(n, ring=ZZ):
    """d L0_n + the signed shuffled compositions L0_p o_p L0_q, as
    A_n(r_n); zero by the structure theorem."""
    return _residual(n, "quilt", ring)


def linfty_residual_mquilt(n, ring=ZZ):
    """Same with L_n and the extended boundary in the marked operad."""
    return _residual(n, "mquilt", ring)


def linfty_residual_integer_route(n, ring=ZZ):
    """The characteristic-free cross-check: the marked-marked compositions
    sum to zero on the nose, without dividing by two.  Unlike the main
    relation, the arity-one factor L1_1 = Delta takes part, as d = ad_Delta."""
    return _residual(n, "integer", ring)


def coinvariant_reduce(s):
    """Image of a sum of quilts or of marked quilts in the coinvariants
    twisted by sign: each key relabelled so its unmarked labels first occur
    as 1..a, times the sign of that relabelling; the marks keep their labels."""
    def term(x, c):
        to, back = _first_occurrence_renaming(x)
        return (x, c) if to is None else (x.relabel(to), c * parity_sign(back))

    return FormalSum(s.ring, (term(x, c) for x, c in s.terms.items()))


def linfty_residual_coinvariant(n, ring=ZZ):
    """The quilt route's r_n = d P0_n + the signed compositions P0_p o_j
    P0_q, reduced into the sign-twisted coinvariants."""
    return coinvariant_reduce(_slot_sum(n, "quilt", ring))
