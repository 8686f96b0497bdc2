import itertools

import pytest

from quiltops import linfty, quilts
from quiltops.extensions import compose_sums
from quiltops.formal import FormalSum, combine, linear_combination
from quiltops.rings import ZZ, QQ, GF2
from quiltops.linfty import (maximal_quilts, sgn_K, L0, L1, L_full, P0,
                             P0_m, P_full, shuffles, linfty_residual_quilt,
                             linfty_residual_mquilt, linfty_residual_coinvariant,
                             linfty_residual_integer_route, coinvariant_reduce)
from quiltops.quilts import Quilt, enumerate_quilts, parse_quilt
from quiltops.mquilt import (from_quilt, m_element, mark, mq_compose, delta_element,
                             gerstenhaber_element, mq_permute, boundary_prime)


def sgn_of(p):
    inv = sum(1 for i in range(len(p)) for j in range(i + 1, len(p))
              if p[i] > p[j])
    return -1 if inv % 2 else 1


def test_maximal_census():
    assert maximal_quilts(1) == []
    for n in (2, 3, 4):
        ms = maximal_quilts(n)
        assert ms == enumerate_quilts(n, n - 2)
        for q in ms:
            w = q.word.letters
            assert w[0] == q.tree.root
            assert w[-1] == w[1] and not q.tree.children[w[1]]
    assert len(maximal_quilts(2)) == 2
    assert len(maximal_quilts(3)) == 6
    assert len(maximal_quilts(4)) == 96


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
        assert L0(n) == rhs, n


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


def test_shuffles():
    assert [new for new, _ in shuffles(1, 2)] == [(0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 1, 2)]
    assert sorted(s for _, s in shuffles(2, 2)) == [-1, -1, 1, 1, 1, 1]


def _shuffled_by_inverse(base, p, q, permute):
    """Oracle for linfty._shuffled: each shuffle as a dict, inverted, and
    handed to a right action that inverts it back."""
    sgn_pq = -1 if ((p - 1) * q) % 2 else 1
    n = p - 1 + q
    for first in itertools.combinations(range(1, n + 1), p - 1):
        image = first + tuple(x for x in range(1, n + 1) if x not in first)
        inverse = {v: k for k, v in enumerate(image, 1)}
        yield sgn_pq * sgn_of(image), permute(base, inverse)


def test_shuffled_matches_inverse_permutation_oracle():
    # the same terms in the same insertion order as relabelling through
    # the inverse shuffle, for both residuals' compositions up to arity 4
    def quilt_permute(s, inv):
        return s.map_keys(lambda x: x.permute(inv))

    for n in range(2, 5):
        for p in range(2, n):
            q = n + 1 - p
            for base, relabel, permute in (
                    (compose_sums(L0(p), p, L0(q)), Quilt.relabel, quilt_permute),
                    (mq_compose(L_full(p), p, L_full(q)), linfty._relabel_marked, mq_permute),
                    (mq_compose(L1(p), p, L1(q)), linfty._relabel_marked, mq_permute)):
                got = [(c, list(t.terms.items()))
                       for c, t in linfty._shuffled(base, p, q, relabel)]
                want = [(c, list(t.terms.items()))
                        for c, t in _shuffled_by_inverse(base, p, q, permute)]
                assert got == want, (n, p)


def _delta_L1_by_composition(n, ring=ZZ):
    """Oracle for _delta_L1: Delta composed with every term of L1(n)."""
    return mq_compose(L1(1, ring), 1, L1(n, ring))


def test_delta_L1_matches_direct_composition():
    for n in range(2, 5):
        assert linfty._delta_L1(n) == _delta_L1_by_composition(n), n


@pytest.mark.deep
def test_delta_L1_5_matches_direct_composition():
    assert linfty._delta_L1(5) == _delta_L1_by_composition(5)


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


def test_residual_mquilt_arity4():
    assert linfty_residual_mquilt(4).is_zero()
    assert linfty_residual_integer_route(4).is_zero()
