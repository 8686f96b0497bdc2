import itertools
import random
from fractions import Fraction

import pytest

from quiltops.rings import GF2, QQ, Ring
from quiltops.diagrams import DiagramError, category_two_diagram
from quiltops.cochains import (Cochain, act, delta_total, mc_residual,
                               deformed_diagram, skew_check, squaring,
                               circle_bar, cup)
from quiltops.formal import FormalSum
from quiltops.linfty import P0_m, P_full
from quiltops.quilts import parse_quilt

from conftest import random_cochain, upper_triangular_to_diagonal


def test_zero_solves_mc(cat2_F2):
    assert mc_residual(Cochain(cat2_F2)).is_zero()


def test_mc_iff_deformation(cat2_F2):
    dia = cat2_F2
    random.seed(71)
    solutions = 0
    trials = 0
    for t in range(60):
        if t % 3 == 0:
            # morphism twists alone have a decent solution rate here
            f = random_cochain(dia, 1, 1, seed=2500 + t, density=0.4,
                               only_nonid=True)
        else:
            f = (random_cochain(dia, 0, 2, seed=2000 + t, density=0.35) +
                 random_cochain(dia, 1, 1, seed=3000 + t, density=0.35,
                                only_nonid=True))
        ok_mc = mc_residual(f).is_zero()
        try:
            deformed_diagram(f)
            ok_def = True
        except DiagramError:
            ok_def = False
        assert ok_mc == ok_def, t
        trials += 1
        solutions += ok_mc
    assert trials == 60 and solutions >= 1


def test_mc_iff_deformation_rationals(cat2_Q):
    dia = cat2_Q
    solutions = 0
    for t in range(20):
        if t % 2 == 0:
            f = random_cochain(dia, 1, 1, seed=4200 + t, density=0.4,
                               only_nonid=True)
        else:
            f = (random_cochain(dia, 0, 2, seed=4000 + t, density=0.3) +
                 random_cochain(dia, 1, 1, seed=4100 + t, density=0.3,
                                only_nonid=True))
        ok_mc = mc_residual(f).is_zero()
        try:
            deformed_diagram(f)
            ok_def = True
        except DiagramError:
            ok_def = False
        assert ok_mc == ok_def, t
        solutions += ok_mc
    assert solutions >= 0


def test_mc_solutions_exist(cat2_F2):
    # morphism twists alone solve the equation for this diagram shape
    dia = cat2_F2
    found = 0
    for t in range(12):
        g = random_cochain(dia, 1, 1, seed=500 + t, density=0.5,
                           only_nonid=True)
        res = mc_residual(g)
        try:
            deformed_diagram(g)
            ok = True
        except DiagramError:
            ok = False
        assert res.is_zero() == ok
        found += res.is_zero()
    assert found >= 1


def test_cached_constants_are_shared_and_unchanged(cat2_Q, cat2_F2):
    # P_n is built once per (n, ring) and handed to every caller, so acting
    # with it must leave it as it was built
    assert P_full(4, QQ) is P_full(4, QQ)
    assert P_full(4, QQ) is not P_full(4, GF2)
    held = {(n, ring): P_full(n, ring) for ring in (QQ, GF2) for n in (2, 3, 4)}
    assert all(s.ring == ring for (n, ring), s in held.items())
    cochains = [random_cochain(dia, 0, 2, seed=900 + t, density=0.5) +
                random_cochain(dia, 1, 1, seed=910 + t, density=0.5) +
                random_cochain(dia, 2, 0, seed=920 + t, density=0.5)
                for dia in (cat2_Q, cat2_F2) for t in range(3)]
    residuals = [mc_residual(f) for f in cochains]
    assert all(P_full(n, ring) is s for (n, ring), s in held.items())
    P_full.cache_clear()
    P0_m.cache_clear()
    for (n, ring), s in held.items():
        rebuilt = P_full(n, ring)
        assert rebuilt is not s
        assert list(rebuilt.terms.items()) == list(s.terms.items())
    assert [mc_residual(f) for f in cochains] == residuals


class _FractionQQ(Ring):
    """Oracle for QQ: the rationals with every value a Fraction, as QQ held
    them before integral values became ints.  Its own name keeps the
    constants that are cached per ring, such as P_full, apart from QQ's."""

    name = "Q-fraction"
    zero, one = Fraction(0), Fraction(1)

    def coerce(self, x):
        return x if type(x) is Fraction else Fraction(x)

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def is_zero(self, a):
        return a == 0


def _basis_change(d, rng):
    """A seeded rational change of basis P and its inverse Q."""
    p = [[Fraction(int(r == c)) for c in range(d)] for r in range(d)]
    q = [row[:] for row in p]
    for _ in range(3):
        i, j = rng.sample(range(d), 2)
        c = Fraction(rng.choice((-2, -1, 1, 3)), rng.choice((1, 2)))
        for r in range(d):          # P <- P (1 + c E_ij)
            p[r][j] += c * p[r][i]
        for t in range(d):          # Q <- (1 - c E_ij) Q
            q[i][t] -= c * q[j][t]
    s, c = rng.randrange(d), Fraction(rng.choice((-3, 2)))
    for r in range(d):              # P <- P D, Q <- D^-1 Q, D scales e_s by c
        p[r][s] *= c
        q[s][r] /= c
    return p, q


def _transported_entries(dia, rng):
    """Entries of (the structure moved along a rational change of basis)
    minus (the structure); such a cochain solves the Maurer-Cartan equation."""
    basis = {x: _basis_change(dia.dims[x], rng) for x in dia.category.objects}
    entries = []
    for x, (p, q) in basis.items():
        old, d = dia.mult[x], dia.dims[x]
        for i, j, k in itertools.product(range(d), repeat=3):
            new = sum(p[r][i] * p[s][j] * q[k][t] * v for (r, s, t), v in old.items())
            if new != old.get((i, j, k), 0):
                entries.append(((0, 2), (x,), (k, i, j), new - old.get((i, j, k), 0)))
    (px, _), (_, qy) = basis["x"], basis["y"]
    g = dia.matrix("gamma")
    for r, c in itertools.product(range(dia.dims["y"]), range(dia.dims["x"])):
        v = sum(qy[r][s] * w * px[t][c] for (s, t), w in g.items())
        if v != g.get((r, c), 0):
            entries.append(((1, 1), ("gamma",), (r, c), v - g.get((r, c), 0)))
    return entries


def _deformation(f):
    """The twisted structure constants, and whether they form a diagram."""
    twisted = deformed_diagram(f, validate=False)
    try:
        deformed_diagram(f)
        valid = True
    except DiagramError:
        valid = False
    return ([list(twisted.mult[x].items()) for x in sorted(twisted.mult)],
            [list(twisted.matrices[m].items()) for m in sorted(twisted.matrices)],
            valid)


def test_mc_matches_fraction_oracle():
    # QQ holds integral values as ints; the old all-Fraction ring must give
    # the same residual and deformation, entry by entry in insertion order
    oracle = _FractionQQ()
    dias = upper_triangular_to_diagonal(QQ), upper_triangular_to_diagonal(oracle)
    rng = random.Random(18)
    solutions = 0
    for t in range(8):
        if t % 2 == 0:
            entries = _transported_entries(dias[0], rng)
            fs = [Cochain(dia, entries) for dia in dias]
        else:
            fs = [random_cochain(dia, 0, 2, seed=5000 + t, density=0.3) +
                  random_cochain(dia, 1, 1, seed=5100 + t, density=0.3,
                                 only_nonid=True).scale(Fraction(-1, 2))
                  for dia in dias]
        res, res_oracle = (mc_residual(f) for f in fs)
        dfm, dfm_oracle = (_deformation(f) for f in fs)
        assert list(res.entries()) == list(res_oracle.entries()), t
        assert dfm == dfm_oracle and dfm[2] == res.is_zero(), t
        values = [v for *_, v in res.entries()] + [
            v for part in dfm[:2] for items in part for _, v in items]
        assert all(type(v) is int or (type(v) is Fraction and v.denominator != 1)
                   for v in values), t
        assert all(type(v) is Fraction for *_, v in res_oracle.entries()), t
        solutions += res.is_zero()
    assert solutions >= 4
    assert P_full(4, QQ) is not P_full(4, oracle)
    assert list(P_full(4, QQ).terms.items()) == list(P_full(4, oracle).terms.items())


def _quartic_term_direct(f):
    """Oracle for P4(f,f,f,f): the single surviving maximal quilt, the
    degree-reasoned truncation of the general formula."""
    q = parse_quilt("123242;1(3(4),2)")
    return act(FormalSum(f.diagram.ring, [(q, -1)]), [f, f, f, f], f.diagram)


def test_quartic_vanishes_asimplicially(cat2_F2):
    dia = cat2_F2
    for t in range(5):
        f = (random_cochain(dia, 0, 2, seed=40 + t, density=0.5) +
             random_cochain(dia, 1, 1, seed=60 + t, density=0.5,
                            only_nonid=True))
        full = act(P_full(4, dia.ring), [f, f, f, f], dia)
        direct = _quartic_term_direct(f)
        assert (full - direct).is_zero()
        assert full.is_zero()


def test_quartic_nonzero_with_20_component(cat2_F2):
    # all three bidegrees must meet: the surviving quilt wants a (0,2)
    # root, a (2,0) spine and a (1,1) link
    dia = cat2_F2
    hit = False
    for t in range(5):
        f = (random_cochain(dia, 0, 2, seed=70 + t, density=0.7) +
             random_cochain(dia, 1, 1, seed=80 + t, density=0.7) +
             random_cochain(dia, 2, 0, seed=90 + t, density=0.7))
        full = act(P_full(4, dia.ring), [f, f, f, f], dia)
        assert (full - _quartic_term_direct(f)).is_zero()
        hit = hit or not full.is_zero()
    assert hit


def test_skew_identities():
    dia = category_two_diagram(GF2, 2)
    random.seed(72)
    holds = 0
    for t in range(25):
        f = (random_cochain(dia, 1, 1, seed=101 + t, density=0.3) +
             random_cochain(dia, 2, 0, seed=500 + t, density=0.3))
        rep = skew_check(f)
        assert rep["mc_21_zero"] == rep["conjugated_functor"], t
        assert rep["mc_30_zero"] == rep["cocycle"], t
        holds += rep["mc_21_zero"] and rep["mc_30_zero"]
    assert 0 < holds < 25  # both directions of the equivalence exercised


def test_skew_reduces_to_plain_mc_without_h(cat2_F2):
    dia = cat2_F2
    for t in range(6):
        g = random_cochain(dia, 1, 1, seed=700 + t, density=0.4)
        rep = skew_check(g)
        assert rep["mc_21_zero"] == rep["conjugated_functor"]
        assert rep["mc_30_zero"] and rep["cocycle"]


def test_one_object_higher_brackets_vanish():
    # on the normalized complex of a one-object diagram everything above
    # the binary bracket acts by zero
    from conftest import one_object_diagram
    dia = one_object_diagram(GF2, 2)
    for t in range(4):
        f = random_cochain(dia, 0, 2, seed=800 + t, density=0.7)
        for n in (3, 4):
            assert act(P_full(n, dia.ring), [f] * n, dia).is_zero()


def test_squaring_requires_char2(cat2_Q):
    f = random_cochain(cat2_Q, 0, 1, seed=1)
    with pytest.raises(ValueError):
        squaring(f)


def test_squaring_zero():
    dia = category_two_diagram(GF2, 2)
    assert squaring(Cochain(dia)).is_zero()


def test_squaring_preserves_cocycles(cat2_F2):
    dia = cat2_F2
    checked = 0
    for t in range(20):
        g = (random_cochain(dia, 0, 1, seed=900 + t, density=0.6) +
             random_cochain(dia, 1, 0, seed=950 + t, density=0.6))
        f = delta_total(g)
        assert delta_total(f).is_zero()
        assert delta_total(squaring(f)).is_zero(), t
        checked += 1
    assert checked == 20


def test_squaring_coboundary_witness(cat2_F2):
    dia = cat2_F2
    for t in range(8):
        g = (random_cochain(dia, 0, 1, seed=1200 + t, density=0.5) +
             random_cochain(dia, 1, 0, seed=1250 + t, density=0.5))
        f = delta_total(random_cochain(dia, 0, 1, seed=1400 + t, density=0.6))
        dg = delta_total(g)
        lhs = squaring(f + dg) - squaring(f)
        rhs = delta_total(circle_bar(f, g) + circle_bar(g, f) +
                          circle_bar(g, dg) + cup(g, g))
        assert (lhs - rhs).is_zero(), t
