import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quiltops.formal import FormalSum, combine, ring_map, parse_formal
from quiltops.rings import ZZ, QQ, GF2, GF, RingError, parse_ring
from quiltops.words import parse_word

from conftest import coefficients


def test_combine_basics():
    x = FormalSum.single("x")
    assert combine(x, x, 1, -1).is_zero()
    y = FormalSum(GF2, [("x", 1)])
    assert combine(y, y, 1, 1).is_zero()


def test_boundary_prefix_example():
    # the first three terms of the boundary of 123242151 arise as a combine
    a = parse_formal("-23242151 + 13242151", parse_word)
    b = parse_formal("12342151", parse_word)
    c = combine(a, b, 1, -1)
    from quiltops.extensions import boundary
    full = boundary(parse_word("123242151"))
    for k, v in c.terms.items():
        assert full[k] == v


def test_ring_map():
    x = FormalSum(ZZ, [("x", 2)])
    assert ring_map(x, GF2).is_zero()
    y = FormalSum(ZZ, [("x", -1)])
    assert ring_map(y, QQ)["x"] == Fraction(-1)


def test_ring_map_commutes_with_combine():
    random.seed(3)
    keys = list("abcdef")
    for _ in range(50):
        t1 = FormalSum(ZZ, [(k, random.randrange(-4, 5)) for k in keys])
        t2 = FormalSum(ZZ, [(k, random.randrange(-4, 5)) for k in keys])
        ca, cb = random.randrange(-3, 4), random.randrange(-3, 4)
        for target in (QQ, GF2, GF(5)):
            lhs = ring_map(combine(t1, t2, ca, cb), target)
            rhs = combine(ring_map(t1, target), ring_map(t2, target), ca, cb)
            assert lhs == rhs


def test_module_axioms():
    random.seed(4)
    keys = list("pqrstu")
    for _ in range(30):
        a = FormalSum(QQ, [(k, Fraction(random.randrange(-4, 5), random.randrange(1, 4)))
                           for k in keys])
        b = FormalSum(QQ, [(k, random.randrange(-4, 5)) for k in keys])
        c = FormalSum(QQ, [(k, random.randrange(-4, 5)) for k in keys])
        s, t = Fraction(3, 2), Fraction(-2, 5)
        assert (a + b) + c == a + (b + c)
        assert a.scale(s + t) == combine(a.scale(s), a.scale(t))
        assert combine(a, b).scale(s) == combine(a.scale(s), b.scale(s))
        assert a.scale(s).scale(t) == a.scale(s * t)


def test_mismatched_rings():
    with pytest.raises(RingError):
        combine(FormalSum(ZZ, [("x", 1)]), FormalSum(QQ, [("x", 1)]))


def test_render_parse_roundtrip():
    s = FormalSum(ZZ, [(parse_word("12"), 3), (parse_word("121"), -1)])
    assert parse_formal(str(s), parse_word) == s
    assert parse_formal("0", parse_word).is_zero()


def test_parse_coefficients_go_through_the_ring():
    x, y = parse_word("12"), parse_word("121")
    with pytest.raises(RingError):
        parse_formal("3/2*12 - 121", parse_word, ZZ)
    assert parse_formal("4/2*12 - 121", parse_word, ZZ) == FormalSum(ZZ, [(x, 2), (y, -1)])
    q = parse_formal("3/2*12 - 121", parse_word, QQ)
    assert q.terms == {x: Fraction(3, 2), y: -1}
    assert parse_formal(str(q), parse_word, QQ) == q
    # 3/2 is 3 * 2^-1 = 3 * 3 = 4 in GF(5), and -7 is 3
    assert parse_formal("3/2*12 - 7*121", parse_word, GF(5)).terms == {x: 4, y: 3}
    with pytest.raises(RingError):
        parse_formal("3/5*12", parse_word, GF(5))


def test_parse_ring():
    assert parse_ring("Q") == QQ
    assert parse_ring("F2") == GF2
    assert parse_ring("Fp:7") == GF(7)
    with pytest.raises(RingError):
        parse_ring("F4")


@pytest.mark.parametrize("text", ["Fp:x", "Fx", "F", "Fp:", "F-3", "X"])
def test_parse_ring_names_accepted_tags(text):
    with pytest.raises(RingError) as e:
        parse_ring(text)
    assert str(e.value) == "unknown ring %r: expected one of Z, Q, F<p>, Fp:<p>" % text


def test_deterministic_order():
    s = FormalSum(ZZ, [(parse_word(w), 1) for w in ("212", "12", "21", "121")])
    assert [str(k) for k in s.keys()] == ["12", "21", "121", "212"]


def combine_oracle(a, b, ca=1, cb=1):
    """Oracle: the two-sum combine that used to be the only accumulator,
    copying both operands into a fresh dict."""
    ring = a.ring
    ca, cb = ring.coerce(ca), ring.coerce(cb)
    data = {}
    for src, c in ((a, ca), (b, cb)):
        if ring.is_zero(c):
            continue
        for k, v in src.terms.items():
            w = ring.add(data.get(k, ring.zero), ring.mul(c, v))
            if ring.is_zero(w):
                data.pop(k, None)
            else:
                data[k] = w
    out = FormalSum(ring)
    out.terms = data
    return out


def bind_fold(s, fn):
    """Oracle: bind as the fold out = combine(out, coeff * fn(key))."""
    out = FormalSum(s.ring)
    for k, c in s.terms.items():
        out = combine_oracle(out, ring_map(fn(k), s.ring), 1, c)
    return out


def test_bind_matches_combine_fold():
    rng = random.Random(7)
    keys = list("abcdefgh")
    for ring in (ZZ, QQ, GF(3)):
        for _ in range(200):
            # images over ZZ on a few shared keys, so terms cancel and
            # cancelled keys come back later in the fold
            images = {k: FormalSum(ZZ, [(rng.choice(keys), rng.randrange(-3, 4))
                                        for _ in range(rng.randrange(4))])
                      for k in keys}
            images["b"] = images["a"].scale(-1)
            s = FormalSum(ring, [(k, rng.randrange(1, 3)) for k in rng.sample(keys, 5)])
            got, want = s.bind(images.__getitem__), bind_fold(s, images.__getitem__)
            assert got == want
            assert list(got.terms) == list(want.terms)
            t = FormalSum(ring, [(rng.choice(keys), rng.randrange(-3, 4)) for _ in range(6)])
            ca, cb = rng.randrange(-2, 3), rng.randrange(-2, 3)
            got, want = combine(s, t, ca, cb), combine_oracle(s, t, ca, cb)
            assert got == want
            assert list(got.terms) == list(want.terms)


def test_map_keys_sums_collisions_in_order():
    # keys collide on their first letter: colliding coefficients add, and a
    # key whose sum cancels is dropped and comes back last when a later
    # term gives it a nonzero coefficient again
    keys = ["b1", "a1", "c1", "a2", "b2", "a3", "c2"]
    for ring, coeffs, want in ((ZZ, [1, -1, 1, 1, 2, 4, -1], [("b", 3), ("a", 4)]),
                               (GF2, [1] * 7, [("a", 1)])):
        s = FormalSum(ring, zip(keys, coeffs))
        assert list(s.map_keys(lambda k: k[0]).terms.items()) == want, ring


def _accumulate_by_is_zero(ring, pairs):
    """Oracle for the FormalSum constructor: its loop before it tested
    zero by truthiness (the canonical-zero lemma), with two dict probes and
    ring.is_zero on every pair."""
    data = {}
    for key, coeff in pairs:
        c = ring.coerce(coeff)
        if key in data:
            c = ring.add(data[key], c)
        if ring.is_zero(c):
            data.pop(key, None)
        else:
            data[key] = c
    return data


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from([ZZ, QQ, GF(2), GF(5)]))
def test_constructor_matches_is_zero_oracle(data, ring):
    # a stream on four keys, then the negation of all it has left, so that
    # every key cancels, then more pairs, so that keys come back
    pairs = st.lists(st.tuples(st.sampled_from("abcd"), coefficients(ring, 3)), max_size=25)
    head, tail = data.draw(pairs), data.draw(pairs)
    stream = head + [(k, -v) for k, v in _accumulate_by_is_zero(ring, head).items()] + tail
    got, want = FormalSum(ring, stream).terms, _accumulate_by_is_zero(ring, stream)
    assert list(got.items()) == list(want.items())
    assert [type(v) for v in got.values()] == [type(v) for v in want.values()]
    assert FormalSum(ring, dict(stream)).terms == _accumulate_by_is_zero(ring, dict(stream).items())


def test_constructor_puts_a_key_that_comes_back_last():
    for ring, stream in ((ZZ, [("a", 1), ("b", 1), ("a", -1), ("c", 1), ("a", 2)]),
                         (QQ, [("a", Fraction(1, 2)), ("b", 1), ("a", Fraction(-1, 2)),
                               ("c", 1), ("a", 2)]),
                         (GF2, [("a", 1), ("b", 1), ("a", 1), ("c", 1), ("a", 2), ("a", 3)])):
        s = FormalSum(ring, stream)
        assert list(s.terms) == ["b", "c", "a"], ring
        assert list(s.terms.items()) == list(_accumulate_by_is_zero(ring, stream).items())
