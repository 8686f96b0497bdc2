"""QQ holds an integral rational as an int and any other as a Fraction,
and the engine never divides with / or calls float, so no coefficient
can become inexact."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from quiltops.formal import FormalSum
from quiltops.rings import GF, QQ, ZZ, RingError

from conftest import coefficients

SRC = Path(__file__).resolve().parent.parent / "src" / "quiltops"

# bools are ints to Python, and QQ must hand them back as plain ints
rationals = st.one_of(st.integers(), st.fractions(), st.booleans())


def _held_exactly(v):
    """An int exactly when the denominator is 1, else a Fraction."""
    if type(v) is int:
        return True
    return type(v) is Fraction and v.denominator != 1


@settings(max_examples=300, deadline=None)
@given(rationals, rationals, rationals)
def test_qq_field_laws(x, y, z):
    a, b, c = QQ.coerce(x), QQ.coerce(y), QQ.coerce(z)
    add, mul = QQ.add, QQ.mul
    assert add(a, b) == add(b, a) and mul(a, b) == mul(b, a)
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    fx, fy = Fraction(x), Fraction(y)
    assert (a, b) == (fx, fy)
    assert (add(a, b), mul(a, b), QQ.neg(a)) == (fx + fy, fx * fy, -fx)
    results = [a, b, c, add(a, b), mul(a, b), mul(a, c), QQ.neg(a),
               add(a, QQ.neg(a))]
    if fx:
        assert QQ.inv(a) == 1 / fx
        assert mul(a, QQ.inv(a)) == 1
        results += [QQ.inv(a), mul(a, QQ.inv(a))]
    assert all(_held_exactly(v) for v in results), results


@pytest.mark.parametrize("bad", [0.5, 1.0, "1/2", None])
def test_qq_coerce_refuses_non_rationals(bad):
    with pytest.raises(RingError):
        QQ.coerce(bad)


@pytest.mark.parametrize("bad", [0.5, 2.5, 1.0, "1/2", "3", None])
def test_prime_field_coerce_refuses_non_integers(bad):
    # GF(5).coerce(0.5) was 0: int() truncated it
    with pytest.raises(RingError):
        GF(5).coerce(bad)


def test_prime_field_takes_ints_and_fractions():
    F5 = GF(5)
    assert (F5.coerce(7), F5.coerce(-1), F5.coerce(Fraction(3, 2))) == (2, 4, 4)
    with pytest.raises(RingError):
        FormalSum(F5, [("x", 2.5)])
    assert FormalSum(F5, [("x", Fraction(5, 2))]).terms == {}


@settings(max_examples=400, deadline=None)
@given(st.data(), st.sampled_from([ZZ, QQ, GF(2), GF(5)]))
def test_canonical_zero_lemma(data, ring):
    # every result of coerce, and of add, mul and neg on such results, is
    # falsy exactly when is_zero holds, and is an int unless it is a proper
    # fraction of QQ: the FormalSum constructor drops a coefficient by this
    x, y, z = (ring.coerce(data.draw(coefficients(ring))) for _ in range(3))
    add, mul, neg = ring.add, ring.mul, ring.neg
    results = [x, y, z, add(x, y), mul(x, y), neg(x), add(x, neg(x)), mul(x, ring.zero),
               add(mul(x, y), mul(neg(x), y)), add(add(x, y), neg(y)), mul(add(x, y), z)]
    for v in results:
        assert bool(v) == (not ring.is_zero(v)), (ring, results)
        assert type(v) is int or ring == QQ and type(v) is Fraction and v.denominator != 1, (
            ring, results)


@pytest.mark.parametrize("bad", [True, False, 0.0, 1.0, 2.5, Fraction(1, 2), "1", None])
def test_zz_coerce_refuses_bools_floats_and_proper_fractions(bad):
    with pytest.raises(RingError):
        ZZ.coerce(bad)


def test_zz_coerce_hands_back_plain_ints():
    class Big(int):
        pass

    for x, want in ((7, 7), (Fraction(-6, 3), -2), (Big(0), 0), (Big(5), 5)):
        assert type(ZZ.coerce(x)) is int and ZZ.coerce(x) == want


@pytest.mark.parametrize("zero", [0, Fraction(0), False])
def test_qq_inverse_of_zero_raises(zero):
    with pytest.raises(RingError):
        QQ.inv(zero)


def _inexact_sites(path):
    sites = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            sites.append("%s:%d: true division" % (path.name, node.lineno))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            sites.append("%s:%d: float()" % (path.name, node.lineno))
    return sites


def test_engine_has_no_true_division_or_float():
    # Over QQ an integral value is an int, so a / would give a float
    paths = sorted(SRC.glob("*.py"))
    assert paths
    sites = [s for p in paths for s in _inexact_sites(p)]
    assert sites == []
