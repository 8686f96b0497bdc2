import itertools
import math

import pytest

from quiltops import linfty, quilts
from quiltops.extensions import boundary_sum, compose_sums
from quiltops.formal import FormalSum, combine, linear_combination
from quiltops.rings import ZZ, QQ, GF2
from quiltops.linfty import (maximal_quilts, sgn_K, L0, L1, L_full, P0,
                             P0_m, P_full, linfty_residual_quilt,
                             linfty_residual_mquilt, linfty_residual_coinvariant,
                             linfty_residual_integer_route, coinvariant_reduce)
from quiltops.quilts import Quilt, enumerate_quilts, first_occurrence_quilts, parse_quilt
from quiltops.mquilt import (MQuilt, from_quilt, m_element, mark, mq_compose, delta_element,
                             gerstenhaber_element, mq_permute, boundary_prime, antisymmetrize,
                             ad_delta)


def sgn_of(p):
    inv = sum(1 for i in range(len(p)) for j in range(i + 1, len(p))
              if p[i] > p[j])
    return -1 if inv % 2 else 1


def test_maximal_census():
    assert maximal_quilts(1) == []
    for n in (2, 3, 4, 5):
        ms = maximal_quilts(n)
        assert ms == enumerate_quilts(n, n - 2)
        for q in ms:
            w = q.word.letters
            assert w[0] == q.tree.root
            assert w[-1] == w[1] and not q.tree.children[w[1]]
    assert len(maximal_quilts(2)) == 2
    assert len(maximal_quilts(3)) == 6
    assert len(maximal_quilts(4)) == 96
    assert len(maximal_quilts(5)) == 3600


def test_maximal_word_shape_n3():
    # every arity-3 maximal word has length 2n-2 = 4 and one last-first pair
    for q in maximal_quilts(3):
        assert len(q.word) == 4
        assert len(q.word.last_first_pairs()) == 1


def test_sgn_K():
    # labelled in first-occurrence order gives the leading sign
    q = parse_quilt("1232;1(3,2)")
    assert sgn_K(q) == (-1) ** (1 + 3)
    # reverse order gives -1
    rev = parse_quilt("3212;3(1,2)")
    assert rev.word.down_order() == [3, 2, 1]
    assert sgn_K(rev) == -1


def test_sgn_K_equivariance():
    # relabelling by sigma composes the defining permutation with sigma
    for n in (3, 4):
        for q in maximal_quilts(n):
            for p in itertools.permutations(range(1, n + 1)):
                sigma = {i + 1: p[i] for i in range(n)}
                assert sgn_K(q.permute(sigma)) == sgn_of(p) * sgn_K(q), (q, p)


def test_L0_antisymmetry():
    for n in (2, 3):
        L = L0(n)
        for p in itertools.permutations(range(1, n + 1)):
            sigma = {i + 1: p[i] for i in range(n)}
            assert L.map_keys(lambda q: q.permute(sigma)) == L.scale(sgn_of(p))


def test_L1_of_1_is_delta():
    assert L1(1) == delta_element()


def _L1_by_composition(n, ring):
    """Oracle for L1: L0 of arity n+1 composed with m at slot 1."""
    return mq_compose(L0(n + 1, ring).map_keys(from_quilt), 1, m_element(ring))


def _L_full_by_marking(n, ring):
    """Oracle for L_full: every maximal quilt of arity n, plus every one of
    arity n+1 with slot 1 marked."""
    return combine(L0(n, ring).map_keys(from_quilt),
                   mark(L0(n + 1, ring).map_keys(from_quilt), 1))


def _P_full_by_composition(n, ring):
    """Oracle for P_full: P0_n + P0_{n+1} composed with m at slot 1."""
    return combine(P0_m(n, ring), mq_compose(P0_m(n + 1, ring), 1, m_element(ring)))


def test_constants_by_marking_match_composition():
    # L1 is antisymmetrized, so it equals composing with m only as a sum;
    # P_full has the same terms in the same insertion order
    for ring in (ZZ, QQ, GF2):
        for n in range(1, 5):
            assert L1(n, ring) == _L1_by_composition(n, ring), (n, ring)
        for n in range(2, 5):
            assert (list(P_full(n, ring).terms.items())
                    == list(_P_full_by_composition(n, ring).terms.items())), (n, ring)


def test_L2_vanishes():
    for n in (0, 1, 2):
        x = mq_compose(mq_compose(L0(n + 2).map_keys(from_quilt), 1, m_element()),
                       1, m_element())
        assert x.is_zero(), n


def test_vanishing_lemma():
    # maximal quilts eat the mark only at the root
    for n in (3, 4):
        for q in maximal_quilts(n):
            for a in range(1, n + 1):
                if a == q.tree.root:
                    continue
                x = mq_compose(FormalSum(ZZ, [(from_quilt(q), 1)]), a, m_element())
                assert x.is_zero(), (q, a)


def test_P0_displays():
    assert [str(k) for k in P0(2).keys()] == ["12;1(2)"]
    assert [str(k) for k in P0(3).keys()] == ["1232;1(3,2)"]
    p4 = P0(4)
    assert len(p4) == 4
    assert all(c == -1 for _, c in p4.items())
    keys = {str(k) for k in p4.keys()}
    assert keys == {"123242;1(3(4),2)", "123242;1(3,4,2)",
                    "123242;1(4,3,2)", "123432;1(4,3,2)"}


def _P0_by_filter(n, ring=ZZ):
    """Oracle: every maximal quilt enumerated, those labelled in
    first-occurrence order kept."""
    return FormalSum(ring, [(q, sgn_K(q)) for q in maximal_quilts(n)
                            if q.word.down_order() == list(range(1, n + 1))])


def test_P0_matches_filter_oracle():
    for n in range(1, 6):
        assert list(P0(n).items()) == list(_P0_by_filter(n).items()), n


def test_L0_symmetrizes_P0():
    # L0(n) = sum over sigma of sgn(sigma) P0(n) relabelled by sigma
    for n in range(2, 6):
        p0 = P0(n)
        rhs = linear_combination(ZZ, [
            (sgn_of(p), p0.map_keys(lambda q, p=p: q.permute(p)))
            for p in itertools.permutations(range(1, n + 1))])
        assert L0(n) == rhs == antisymmetrize(p0, n), n


def test_P_full_matches_gerstenhaber_P2():
    assert P_full(2) == gerstenhaber_element("P2")


def test_P3_display():
    # P_3 = (1232,1(3,2)) - (412131, 4(2(3),1)) o m
    p3 = P_full(3)
    assert len(p3) == 2
    d = {str(k): (c, k.marks) for k, c in p3.items()}
    assert d["1232;1(3,2)"] == (1, 0)
    assert d["412131;4(2(3),1)[m4]"] == (-1, 1)


def test_L_full_matches_marking_oracle():
    # L_n = sum of sgn(sigma) P_n.sigma is the sum of all maximal quilts
    # of arity n plus all of arity n+1 with slot 1 marked
    for ring in (ZZ, QQ, GF2):
        for n in range(1, 5):
            assert L_full(n, ring) == _L_full_by_marking(n, ring), (n, ring)


@pytest.mark.deep
def test_L_full_5_matches_marking_oracle():
    assert L_full(5) == _L_full_by_marking(5, ZZ)


def test_constants_enumerate_first_occurrence_quilts_only(monkeypatch):
    # L_full(4) and L1(4) read the first-occurrence maximal quilts of
    # arity 5, never all 3,600 of them
    calls = []

    def spy(fn):
        def wrapped(n, degree=None):
            calls.append((fn.__name__, n, degree))
            return fn(n, degree)
        return wrapped

    enumerate_spy = spy(quilts.enumerate_quilts)
    monkeypatch.setattr(quilts, "enumerate_quilts", enumerate_spy)
    monkeypatch.setattr(linfty, "enumerate_quilts", enumerate_spy)
    monkeypatch.setattr(linfty, "first_occurrence_quilts",
                        spy(quilts.first_occurrence_quilts))
    linfty.P0_m.cache_clear()
    linfty.P_full.cache_clear()
    got = L_full(4), L1(4)
    assert calls == [("first_occurrence_quilts", 4, 2),
                     ("first_occurrence_quilts", 5, 3)]
    assert got == (_L_full_by_marking(4, ZZ), _L1_by_composition(4, ZZ))


def shuffles(p, q):
    """The (p, q)-shuffles sigma of p+q letters, increasing on 1..p and on
    p+1..p+q, each as the label array (0, sigma(1), ..., sigma(p+q)) that
    Word.relabel takes, with its sign (the parity of its inversions)."""
    n = p + q
    for first_block in itertools.combinations(range(1, n + 1), p):
        image = first_block + tuple(x for x in range(1, n + 1) if x not in first_block)
        yield (0,) + image, sgn_of(image)


def _shuffled(base, p, q, relabel):
    """The (c, term) pairs sgn_pq * sign * base relabelled over the
    (p-1, q)-shuffles, each key x by relabel(x, new): label u becomes sigma(u)."""
    sgn_pq = -1 if ((p - 1) * q) % 2 else 1
    for new, sg in shuffles(p - 1, q):
        yield sgn_pq * sg, base.map_keys(lambda x: relabel(x, new))


def _relabel_marked(x, new):
    """x with its unmarked labels renamed by new; its marks keep theirs."""
    return x.relabel(new + tuple(range(len(new), x.quilt.n + 1)))


def _residual_by_shuffles(n, route, ring=ZZ):
    """Oracle for linfty._slot_pieces: the pieces of the relation in its
    shuffle form, d L_n and, for each p, the (p-1, q)-shuffles of the signed
    L_p o_p L_q, built from the full antisymmetrized constants (L1(1) and
    L_full(1) are Delta)."""
    L, compose, d, least = {"quilt": (L0, compose_sums, boundary_sum, 2),
                            "mquilt": (L_full, mq_compose, boundary_prime, 2),
                            "integer": (L1, mq_compose, None, 1)}[route]
    relabel = Quilt.relabel if route == "quilt" else _relabel_marked
    pieces = [] if d is None else [d(L(n, ring))]
    for p in range(least, n + 2 - least):
        q = n + 1 - p
        base = compose(L(p, ring), p, L(q, ring))
        pieces.append(linear_combination(ring, _shuffled(base, p, q, relabel)))
    return pieces


def test_shuffles():
    assert [new for new, _ in shuffles(1, 2)] == [(0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 1, 2)]
    assert sorted(s for _, s in shuffles(2, 2)) == [-1, -1, 1, 1, 1, 1]


def _shuffled_by_inverse(base, p, q, permute):
    """Oracle for _shuffled: each shuffle as a dict, inverted, and handed to
    a right action that inverts it back."""
    sgn_pq = -1 if ((p - 1) * q) % 2 else 1
    n = p - 1 + q
    for first in itertools.combinations(range(1, n + 1), p - 1):
        image = first + tuple(x for x in range(1, n + 1) if x not in first)
        inverse = {v: k for k, v in enumerate(image, 1)}
        yield sgn_pq * sgn_of(image), permute(base, inverse)


def test_shuffled_matches_inverse_permutation_oracle():
    # the same terms in the same insertion order as relabelling through
    # the inverse shuffle, for every route's compositions up to arity 4
    for n in range(2, 5):
        for p in range(2, n):
            q = n + 1 - p
            for base, relabel in ((compose_sums(L0(p), p, L0(q)), Quilt.relabel),
                                  (mq_compose(L_full(p), p, L_full(q)), _relabel_marked),
                                  (mq_compose(L1(p), p, L1(q)), _relabel_marked)):
                got = [(c, list(t.terms.items())) for c, t in _shuffled(base, p, q, relabel)]
                want = [(c, list(t.terms.items()))
                        for c, t in _shuffled_by_inverse(base, p, q, mq_permute)]
                assert got == want, (n, p)


RESIDUALS = {"quilt": linfty_residual_quilt, "mquilt": linfty_residual_mquilt,
             "integer": linfty_residual_integer_route}


def _assert_slot_pieces_match_shuffle_oracle(n, ring):
    nonzero = 0
    for route, residual in RESIDUALS.items():
        got = [antisymmetrize(x, n) for x in linfty._slot_pieces(n, route, ring)]
        want = _residual_by_shuffles(n, route, ring)
        nonzero += sum(not w.is_zero() for w in want)
        if route == "integer":
            # its d piece, ad_Delta F(n), is the shuffle form's p = 1 and p = n
            # pieces together (one piece at n = 1, Delta o_1 Delta = 0)
            want = [combine(want[0], want[-1])] + want[1:-1]
        assert got == want, (n, route, ring)
        assert residual(n, ring) == linear_combination(ring, ((1, w) for w in want))
    return nonzero


def test_slot_pieces_match_shuffle_oracle():
    # A_n of each piece of r_n (the d piece and one piece per p) is the same
    # sum as the piece of the shuffle form; at arity 1 both are d of Delta
    # or nothing, and only Delta o_1 Delta composes
    for ring in (ZZ, QQ, GF2):
        counts = [_assert_slot_pieces_match_shuffle_oracle(n, ring) for n in range(1, 5)]
        assert counts == [0, 2, 7, 10], ring


@pytest.mark.deep
@pytest.mark.parametrize("ring", [ZZ, QQ, GF2], ids=["ZZ", "QQ", "GF2"])
def test_slot_pieces_5_match_shuffle_oracle(ring):
    assert _assert_slot_pieces_match_shuffle_oracle(5, ring) == 13


def _ad_delta_by_composition(n, ring):
    """Oracle for the integer route's d piece ad_delta(F(n)), built by
    composing with Delta: Delta o_1 F(n) + (-1)^{n-1} sum_j F(n) o_j Delta,
    the shuffle form's p = 1 and p = n pieces at first occurrence."""
    F, delta = linfty._P1(n, ring), delta_element(ring)
    sign = -1 if (n - 1) % 2 else 1
    return linear_combination(ring, [(1, mq_compose(delta, 1, F))] +
                              [(sign, mq_compose(F, j, delta)) for j in range(1, n + 1)])


def test_ad_delta_matches_composition_oracle():
    for ring in (ZZ, QQ, GF2):
        for n in range(1, 6):
            want = _ad_delta_by_composition(n, ring)
            assert ad_delta(linfty._P1(n, ring)) == want, (n, ring)
            assert want.is_zero() == (n <= 2), (n, ring)


def _fixers(x, a):
    """The relabellings of the unmarked labels 1..a of a quilt or marked key
    x that fix it, each as the tuple of images of 1..a."""
    top = (x.quilt if isinstance(x, MQuilt) else x).n
    return [p for p in itertools.permutations(range(1, a + 1))
            if x.relabel((0,) + p + tuple(range(a + 1, top + 1))) == x]


def test_relabelling_acts_freely():
    # lemma (i): only the identity fixes a quilt or a marked key.  Whether
    # a key has a fixer does not change under relabelling its unmarked
    # labels or renaming its marks, and up to those a key of arity a with k
    # marks is a first-occurrence quilt of a + k labels with k of them moved
    # to the top and marked: so this is every key of arity <= 4 with at most
    # two marks on at most five labels
    checked = 0
    for size in range(1, 6):
        for q in first_occurrence_quilts(size):
            for k in range(3):
                a = size - k
                if not 1 <= a <= 4:
                    continue
                for marks in itertools.combinations(range(1, size + 1), k):
                    order = [u for u in range(1, size + 1) if u not in marks] + list(marks)
                    new = [0] * (size + 1)
                    for i, u in enumerate(order, 1):
                        new[u] = i
                    x = MQuilt(q.relabel(new), k) if k else q.relabel(new)
                    assert _fixers(x, a) == [tuple(range(1, a + 1))], (x, a)
                    checked += 1
    assert checked == 7025
    # arity 4 with two marks has six labels: the keys the relations reach
    keys = {x for route in ("mquilt", "integer") for piece in linfty._slot_pieces(4, route)
            for x in piece.keys() if x.marks == 2}
    assert len(keys) == 17
    for x in keys:
        assert _fixers(x, 4) == [(1, 2, 3, 4)], x


def test_coinvariants_of_antisymmetrized_sums():
    # coinv(A_n(x)) = n! coinv(x), on quilt sums and on marked sums, with
    # first-occurrence keys and without
    for ring in (ZZ, QQ):
        for n in (2, 3, 4):
            sums = [P0(n, ring), P_full(n, ring), linfty._P1(n, ring),
                    mq_permute(P_full(n, ring), list(range(n, 0, -1)))]
            sums += [x for route in RESIDUALS for x in linfty._slot_pieces(n, route, ring)]
            for x in sums:
                if x.is_zero():
                    continue
                want = coinvariant_reduce(x).scale(math.factorial(n))
                assert coinvariant_reduce(antisymmetrize(x, n)) == want, (n, x)


def _flip_piece(i, pieces=linfty._slot_pieces):
    """A _slot_pieces that negates piece i of r_n."""
    def flipped(n, route, ring=ZZ):
        for k, piece in enumerate(pieces(n, route, ring)):
            yield -piece if k == i else piece
    return flipped


def test_verdicts_see_a_sign_flip(monkeypatch):
    # with one piece of r_n negated (i = -1 negates none), r_n is no longer
    # a relation: the coinvariant image is nonzero exactly when A_n(r_n) is,
    # and every residual is A_n(r_n).  GF(2) cannot see a sign flip
    for ring in (ZZ, QQ):
        nonzero = []
        for n in (3, 4):
            for route, residual in RESIDUALS.items():
                for i in range(-1, n - 1):
                    monkeypatch.setattr(linfty, "_slot_pieces", _flip_piece(i))
                    r = linfty._slot_sum(n, route, ring)
                    full, image = antisymmetrize(r, n), coinvariant_reduce(r)
                    assert image.is_zero() == full.is_zero(), (n, route, i, ring)
                    assert residual(n, ring) == full, (n, route, i, ring)
                    if route == "quilt":
                        assert linfty_residual_coinvariant(n, ring) == image
                    nonzero.append(not full.is_zero())
        assert nonzero == ([False] + [True] * 2) * 3 + ([False] + [True] * 3) * 3, ring


def test_residuals_vanish_at_arity_1():
    for ring in (ZZ, QQ, GF2):
        for residual in (linfty_residual_quilt, linfty_residual_mquilt,
                         linfty_residual_integer_route, linfty_residual_coinvariant):
            assert residual(1, ring).is_zero(), (residual.__name__, ring)


def test_residual_quilt():
    for n in (2, 3, 4):
        assert linfty_residual_quilt(n).is_zero(), n


def test_residual_mquilt():
    for n in (2, 3):
        assert linfty_residual_mquilt(n).is_zero(), n


def test_residual_coinvariant():
    for n in (2, 3, 4):
        assert linfty_residual_coinvariant(n).is_zero(), n


def test_residual_integer_route():
    for n in (2, 3):
        assert linfty_residual_integer_route(n).is_zero(), n


def test_jacobi_is_the_n3_case():
    # the arity-3 marked relation is the Jacobi lemma's content
    assert linfty_residual_mquilt(3).is_zero()
    assert gerstenhaber_element("L3") == L_full(3)
    # so the homotopy section's L3 (the antisymmetrized P3') is L_3, and the
    # Jacobi homotopy below is the arity-3 L-infinity relation
    from quiltops.mquilt import mq_compose as mc
    L2 = gerstenhaber_element("L2")
    LL = mc(L2, 1, L2)
    jac = LL + mq_permute(LL, {1: 2, 2: 3, 3: 1}) + mq_permute(LL, {1: 3, 3: 2, 2: 1})
    assert (jac - boundary_prime(gerstenhaber_element("L3"))).is_zero()


def test_coinvariant_reduce():
    s = FormalSum(ZZ, [(parse_quilt("1232;1(3,2)"), 1),
                       (parse_quilt("2131;2(3,1)"), -1)])
    # the second is the (12)-relabel of the first; sgn((12)) = -1, so the
    # two terms add in the twisted coinvariants
    r = coinvariant_reduce(s)
    assert [str(k) for k in r.keys()] == ["1232;1(3,2)"]
    assert list(r.terms.values()) == [2]


def test_coinvariant_reduce_of_marked_keys():
    # a marked key keeps its marks and renames only its unmarked labels: with
    # 4 marked, 1, 2, 3 already first occur in order; unmarked, 4 1 2 3 is
    # renamed 1 2 3 4, a 4-cycle, so the term changes sign
    q = parse_quilt("412131;4(2(3),1)")
    s = FormalSum(ZZ, [(MQuilt(q, 1), 1), (MQuilt(q, 0), 1)])
    r = coinvariant_reduce(s)
    assert {str(k): c for k, c in r.items()} == {"412131;4(2(3),1)[m4]": 1,
                                                 "123242;1(3(4),2)": -1}


def test_residual_mquilt_arity4():
    assert linfty_residual_mquilt(4).is_zero()
    assert linfty_residual_integer_route(4).is_zero()
