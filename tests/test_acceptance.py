"""Acceptance suite: one check per criterion, timed against its budget.

Run with `pytest -s tests/test_acceptance.py` to see one PASS line per
criterion, the arity-5 and arity-6 marked L-infinity relations included.
"""

import math
import os
import random
import subprocess
import sys
import time

import pytest

import quiltops
from quiltops.rings import QQ, GF2, ZZ
from quiltops.formal import FormalSum, parse_formal
from quiltops.words import parse_word, enumerate_words
from quiltops.trees import parse_tree, enumerate_trees
from quiltops.quilts import parse_quilt, enumerate_quilts
from quiltops.extensions import (boundary, boundary_sum, compose, compose_sums,
                                 tree_extensions, word_extensions)
from quiltops.homology import build_complex, homology_ranks
from quiltops.mquilt import antisymmetrize, verify_identity, IDENTITY_NAMES
from quiltops.linfty import (_slot_sum, linfty_residual_quilt, linfty_residual_mquilt,
                             linfty_residual_coinvariant,
                             linfty_residual_integer_route)
from quiltops.cochains import (act, delta_S, delta_total, mc_residual,
                               deformed_diagram, skew_check, squaring,
                               circle_bar, cup, is_asimplicial, is_normalized)
from quiltops.diagrams import DiagramError, category_two_diagram

from conftest import random_cochain, upper_triangular_to_diagonal


def report(name, t0, budget):
    dt = time.time() - t0
    print("PASS  %-44s %7.2fs (budget %ds)" % (name, dt, budget))
    assert dt < budget


def test_criterion_1_golden_boundaries():
    t0 = time.time()
    d1 = boundary(parse_word("123242151"))
    assert d1 == parse_formal(
        "-23242151 + 13242151 - 12342151 + 12324151 + 12324251 - 12324215",
        parse_word)
    # final sign corrected relative to the published display: the stated
    # face-sign rule and exactness of the boundary force -12343215
    d2 = boundary(parse_word("123432151"))
    assert d2 == parse_formal(
        "-23432151 + 13432151 - 12432151 + 12342151 - 12343151 + 12343251"
        " - 12343215", parse_word)
    assert boundary_sum(d2).is_zero()
    report("1 golden boundaries", t0, 1)


def test_criterion_2_golden_compositions():
    t0 = time.time()
    v = parse_word("1232")
    got = compose(v, 2, v)
    assert got == parse_formal("1252343 + 1235343 - 1234543 - 1234353",
                               parse_word)
    q = parse_quilt("1232;1(3,2)")
    tree = "1(5,2(4,3))"
    assert compose(q, 2, q) == FormalSum(ZZ, [
        (parse_quilt("1252343;" + tree), 1),
        (parse_quilt("1235343;" + tree), 1),
        (parse_quilt("1234543;" + tree), -1),
        (parse_quilt("1234353;" + tree), -1)])
    assert len(tree_extensions(parse_tree("1(3,2)"), parse_tree("1(3,2)"), 1)) == 15
    report("2 golden compositions", t0, 1)


def test_criterion_3_counting_laws():
    t0 = time.time()
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            for outer_t in enumerate_trees(m):
                for inner_t in enumerate_trees(n):
                    for a in range(1, m + 1):
                        r = len(outer_t.children[a])
                        assert len(tree_extensions(outer_t, inner_t, a)) == \
                            math.comb(2 * n + r - 2, r)
            for outer_w in enumerate_words(m):
                for inner_w in enumerate_words(n):
                    for a in range(1, m + 1):
                        r = outer_w.count(a) - 1
                        assert len(word_extensions(outer_w, inner_w, a)) == \
                            math.comb(len(inner_w) + r - 1, r)
    for n in range(1, 5):
        for w in enumerate_words(n):
            assert len(w) == 2 * n - len(w.last_first_pairs()) - 1
    report("3 counting laws", t0, 10)


def test_criterion_4_dg_operad_axioms():
    t0 = time.time()
    for n in (1, 2, 3, 4):
        for q in enumerate_quilts(n):
            assert boundary_sum(boundary(q)).is_zero()
    random.seed(97)
    qs5 = enumerate_quilts(5)
    for q in random.sample(qs5, 300):
        assert boundary_sum(boundary(q)).is_zero()
    qs3 = enumerate_quilts(3)
    cases = 0
    while cases < 1000:
        x, y, z = (random.choice(qs3) for _ in range(3))
        op = cases % 3
        if op == 0:  # Leibniz
            a = random.randrange(1, 4)
            lhs = boundary_sum(compose(x, a, y))
            sgn = -1 if x.degree % 2 else 1
            rhs = compose_sums(boundary(x), a, FormalSum.single(y)) + \
                compose_sums(FormalSum.single(x), a, boundary(y)).scale(sgn)
            assert lhs == rhs
        elif op == 1:  # sequential
            a = random.randrange(1, 4)
            b = random.randrange(1, 4)
            lhs = compose_sums(compose(x, a, y), a + b - 1, FormalSum.single(z))
            rhs = compose_sums(FormalSum.single(x), a, compose(y, b, z))
            assert lhs == rhs
        else:  # parallel with the Koszul sign
            a, b = sorted(random.sample(range(1, 4), 2))
            lhs = compose_sums(compose(x, a, y), b + y.n - 1, FormalSum.single(z))
            rhs = compose_sums(compose(x, b, z), a, FormalSum.single(y))
            sg = -1 if (y.degree * z.degree) % 2 else 1
            assert lhs == rhs.scale(sg)
        cases += 1
    report("4 dg-operad axioms (1000 cases)", t0, 60)


def test_criterion_5_acyclicity():
    t0 = time.time()
    for n in (1, 2, 3, 4):
        c = build_complex(n)
        for k, dim, h in homology_ranks(c, QQ):
            if k == 0:
                assert h == math.factorial(n) * (math.comb(2 * (n - 1), n - 1)
                                                 // max(n, 1))
            else:
                assert h == 0
    report("5 acyclicity n<=4 and H0 ranks", t0, 10)


def test_criterion_5_deep_acyclicity_arity5():
    t0 = time.time()
    c = build_complex(5)
    rows = homology_ranks(c, QQ)
    assert [(k, h) for k, _, h in rows] == [(0, 1680), (1, 0), (2, 0), (3, 0)]
    report("5d acyclicity n=5", t0, 20)


def test_criterion_6_gerstenhaber_homotopies():
    t0 = time.time()
    for name in IDENTITY_NAMES:
        residual = verify_identity(name)
        assert residual.is_zero(), name
    report("6 Gerstenhaber homotopies (6 identities)", t0, 30)


def test_criterion_7_linfty():
    t0 = time.time()
    for n in (2, 3, 4, 5):
        assert linfty_residual_quilt(n).is_zero(), n
    for n in (2, 3, 4):
        assert linfty_residual_mquilt(n).is_zero(), n
        assert linfty_residual_integer_route(n).is_zero(), n
        assert linfty_residual_coinvariant(n).is_zero(), n
    report("7 L-infinity relations", t0, 30)


def test_criterion_7_deep_mquilt_arity5():
    t0 = time.time()
    assert linfty_residual_mquilt(5).is_zero()
    # the verdict above is taken in the coinvariants; A_5 itself is built too
    assert antisymmetrize(_slot_sum(5, "mquilt"), 5).is_zero()
    report("7d mquilt L-infinity n=5", t0, 10)


def test_criterion_7_mquilt_arity6_command():
    # the marked relation and its integer route through arity 6, without
    # --deep, in a fresh process with empty memo tables, as a user runs them
    t0 = time.time()
    argv = ["verify", "linfty", "--target", "mquilt", "--max-arity", "6"]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(quiltops.__file__)))
    out = subprocess.run([sys.executable, "-c", "import sys; from quiltops.cli import main; "
                          "sys.exit(main(%r))" % argv], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0 and out.stderr == ""
    assert out.stdout.splitlines()[-1] == "linfty: 10/10 checks passed"
    report("7 mquilt L-infinity command n<=6", t0, 10)


def test_criterion_8_representation_laws():
    t0 = time.time()
    random.seed(171)
    for ring in (QQ, GF2):
        dia = upper_triangular_to_diagonal(ring)
        # delta^2 = 0
        for (p, q) in ((0, 1), (0, 2), (1, 1), (2, 0)):
            f = random_cochain(dia, p, q, seed=p * 5 + q)
            assert delta_total(delta_total(f)).is_zero()
        # boundary vs simplicial coboundary exchange
        qs = enumerate_quilts(2) + enumerate_quilts(3)
        done = 0
        while done < 6:
            Q = random.choice(qs)
            fs, degs = [], []
            for a in range(Q.n):
                p = random.randrange(0, 2)
                q = random.randrange(1, 3)
                fs.append(random_cochain(dia, p, q, seed=done * 17 + a))
                degs.append(p + q - 1)
            pv = sum(f.bidegrees()[0][0] for f in fs)
            if not (0 <= pv - Q.degree and pv - Q.degree + 1 <= 4):
                continue
            lhs = act(boundary(Q), fs, dia)
            rhs = delta_S(act(FormalSum.single(Q, 1, ring), fs, dia))
            for a in range(Q.n):
                sgn = -1 if (Q.degree + sum(degs[:a])) % 2 else 1
                fs2 = fs[:a] + [delta_S(fs[a])] + fs[a + 1:]
                rhs = rhs - act(FormalSum.single(Q, 1, ring), fs2, dia).scale(sgn)
            assert (lhs - rhs).is_zero(), Q
            done += 1
        # Koszul composition law
        qs2 = enumerate_quilts(2)
        done = 0
        while done < 6:
            P, Q = random.choice(qs2), random.choice(qs2)
            a = random.randrange(1, P.n + 1)
            fs, degs = [], []
            for idx in range(P.n + Q.n - 1):
                p = random.randrange(0, 2)
                q = random.randrange(1, 3)
                fs.append(random_cochain(dia, p, q, seed=900 + done * 11 + idx))
                degs.append(p + q - 1)
            pv = sum(f.bidegrees()[0][0] for f in fs)
            if not (0 <= pv - P.degree - Q.degree <= 4):
                continue
            lhs = act(compose(P, a, Q), fs, dia)
            inner = act(FormalSum.single(Q, 1, ring), fs[a - 1:a - 1 + Q.n], dia)
            sgn = -1 if (sum(degs[:a - 1]) * Q.degree) % 2 else 1
            rhs = act(FormalSum.single(P, 1, ring),
                      fs[:a - 1] + [inner] + fs[a - 1 + Q.n:], dia).scale(sgn)
            assert (lhs - rhs).is_zero(), (P, a, Q)
            done += 1
        # closure of the asimplicial and normalized subcomplexes
        done = 0
        while done < 25:
            Q = random.choice(qs)
            fs = []
            for a in range(Q.n):
                p = random.randrange(0, 2)
                q = random.randrange(1, 3)
                fs.append(random_cochain(dia, p, q, seed=600 + done * 13 + a,
                                         only_nonid=True, density=0.5))
            if any(f.is_zero() for f in fs):
                continue
            pv = sum(f.bidegrees()[0][0] for f in fs)
            if not (0 <= pv - Q.degree <= 4):
                continue
            out = act(FormalSum.single(Q, 1, ring), fs, dia)
            assert is_asimplicial(out) and is_normalized(out)
            done += 1
    report("8 representation laws (Q and F2)", t0, 10)


def test_criterion_9_maurer_cartan():
    t0 = time.time()
    dia = upper_triangular_to_diagonal(GF2)
    random.seed(191)
    solutions = 0
    for t in range(200):
        if t % 3 == 0:
            f = random_cochain(dia, 1, 1, seed=2500 + t, density=0.4,
                               only_nonid=True)
        else:
            f = (random_cochain(dia, 0, 2, seed=2000 + t, density=0.3) +
                 random_cochain(dia, 1, 1, seed=3000 + t, density=0.3,
                                only_nonid=True))
        ok_mc = mc_residual(f).is_zero()
        try:
            deformed_diagram(f)
            ok_def = True
        except DiagramError:
            ok_def = False
        assert ok_mc == ok_def, t
        solutions += ok_mc
    assert solutions >= 1
    # skew-diagram identities with (2,0) components
    dia2 = category_two_diagram(GF2, 2)
    holds = 0
    for t in range(25):
        f = (random_cochain(dia2, 1, 1, seed=101 + t, density=0.3) +
             random_cochain(dia2, 2, 0, seed=500 + t, density=0.3))
        rep = skew_check(f)
        assert rep["mc_21_zero"] == rep["conjugated_functor"], t
        assert rep["mc_30_zero"] == rep["cocycle"], t
        holds += rep["mc_21_zero"] and rep["mc_30_zero"]
    assert 0 < holds < 25
    report("9 Maurer-Cartan equivalence (200 + 25 samples)", t0, 30)


def test_criterion_10_char2_squaring():
    t0 = time.time()
    dia = upper_triangular_to_diagonal(GF2)
    for t in range(20):
        g = (random_cochain(dia, 0, 1, seed=900 + t, density=0.6) +
             random_cochain(dia, 1, 0, seed=950 + t, density=0.6))
        f = delta_total(g)
        assert delta_total(squaring(f)).is_zero(), t
    for t in range(6):
        g = (random_cochain(dia, 0, 1, seed=1200 + t, density=0.5) +
             random_cochain(dia, 1, 0, seed=1250 + t, density=0.5))
        f = delta_total(random_cochain(dia, 0, 1, seed=1400 + t, density=0.6))
        dg = delta_total(g)
        lhs = squaring(f + dg) - squaring(f)
        rhs = delta_total(circle_bar(f, g) + circle_bar(g, f) +
                          circle_bar(g, dg) + cup(g, g))
        assert (lhs - rhs).is_zero(), t
    report("10 characteristic-2 squaring", t0, 30)
