"""The three workloads: seeded inputs, the timed library calls, and the
checks that decide whether each verdict was right.

Each workload has make_inputs(seed), which runs before the clock starts and
is part of set-up time, and run(inputs, clock), which makes its library
calls through clock.call (timed, counted in wall_s) and clock.verdict
(timed, and also one verdict latency).  Oracles run outside both.

Library functions are looked up as module attributes at call time, so the
tracer's wrappers see the calls.
"""

import itertools
import random

from quiltops import cochains, extensions, homology, linfty, mquilt, quilts
from quiltops.diagrams import DiagramError, DiagramOfAlgebras, FiniteCategory
from quiltops.formal import FormalSum
from quiltops.homology import ChainComplex
from quiltops.rings import QQ, ZZ
from quiltops.trees import enumerate_trees

# homology-a5: disjoint summands, each of the same number of seeded trees of
# every planar shape (14 shapes of five vertices, 120 trees each).  Their
# ranks take longer than enumerating the arity-5 quilts, so the rank kernel
# is the larger share of a round; four of them make the median verdict the
# mean of two.
HOMOLOGY_SUMMANDS = 4
HOMOLOGY_TREES_PER_SHAPE = 6

# relations: seeded sub-sums of L0(5), each checked by d(d(S)) = 0
RELATIONS_D2_SUMS = 3
RELATIONS_D2_TERMS = 500          # of the 3600 terms of L0(5)

# maurer-cartan: verdicts per round, half known solutions
MC_STREAM = 6
MC_BLOCK = 3              # upper-triangular 3x3 (dim 6) onto diagonal (dim 3)
# The rational Maurer-Cartan test (test_mc_iff_deformation_rationals) draws
# each (0,2) and (1,1) entry with probability 0.3 and a value in -2..2, so
# about 0.24 of the entries are nonzero.  Perturbations are drawn the same way.
MC_TEST_DENSITY = 0.3
# Elementary moves in each object's change of basis: for each object the
# count whose transported (0,2) component is nonzero in the share nearest
# 0.24, averaged over 200 seeds (x: 0.24 with 7 moves; y: 0.21 with 2).
MC_TRANSPORT_MOVES = {"x": 7, "y": 2}


# ---------------------------------------------------------- homology-a5

def _shape(tree, v=None):
    v = tree.root if v is None else v
    return tuple(_shape(tree, c) for c in tree.children[v])


def homology_inputs(seed):
    """The number of arity-4 trees, and HOMOLOGY_SUMMANDS disjoint sets of
    arity-5 trees, each with the same number of trees of every planar shape.  Relabelling maps a tree's quilts
    bijectively onto the relabelled tree's, so every seed gives summands of
    the same dimensions."""
    rng = random.Random(seed)
    by_shape = {}
    for t in enumerate_trees(5):
        by_shape.setdefault(_shape(t), []).append(t)
    k = HOMOLOGY_TREES_PER_SHAPE
    drawn = [rng.sample(by_shape[shape], k * HOMOLOGY_SUMMANDS) for shape in sorted(by_shape)]
    summands = [[t for trees in drawn for t in trees[i * k:(i + 1) * k]]
                for i in range(HOMOLOGY_SUMMANDS)]
    return len(enumerate_trees(4)), summands


def tree_summand(quilts_, trees):
    """The direct summand of the arity-5 quilt complex spanned by the quilts
    on the given trees, assembled as build_complex assembles the whole
    complex.  The word boundary never changes the tree, so the quilts of
    each tree span a subcomplex, and its H_0 is one-dimensional."""
    keep = set(trees)
    bases = {}
    for q in quilts_:                       # already in canonical order
        if q.tree in keep:
            bases.setdefault(q.degree, []).append(q)
    matrices = {}
    for k in sorted(bases):
        if k == 0:
            continue
        lower = {q: i for i, q in enumerate(bases.get(k - 1, ()))}
        cols = {}
        for j, q in enumerate(bases[k]):
            col = {lower[face]: c for face, c in extensions.boundary(q).terms.items()}
            if col:
                cols[j] = col
        matrices[k] = cols
    return ChainComplex(5, bases, matrices)


def _acyclic(complex_, h0):
    h = {k: rank for k, _, rank in homology.homology_ranks(complex_, QQ)}
    return h.get(0) == h0 and all(v == 0 for k, v in h.items() if k > 0)


def homology_run(inputs, clock):
    """The whole arity-4 complex, then the arity-5 summands; every one must
    have H_0 equal to its number of trees and nothing above.  Only the
    summands are verdicts: the arity-4 complex takes a tenth of the time
    of one, and as a verdict it would move the median."""
    trees4, summands = inputs
    ok = clock.call("arity 4", lambda: _acyclic(homology.build_complex(4), trees4))
    clock.check(ok is not False, "arity-4 complex not acyclic with H_0 = %d" % trees4)
    quilts_ = clock.call("enumerate", quilts.enumerate_quilts, 5)
    if quilts_ is None:
        return
    for i, trees in enumerate(summands):
        ok = clock.verdict("summand %d" % i,
                           lambda: _acyclic(tree_summand(quilts_, trees), len(trees)))
        clock.check(ok is not False, "summand %d not acyclic with H_0 = %d" % (i, len(trees)))


# ------------------------------------------------------------ relations

def relations_inputs(seed):
    """`verify gerstenhaber`, `verify linfty` with each target at the
    arities that take under a second, and d(d(S)) = 0 on seeded sub-sums S
    of L0(5).  Their order is fixed, because the marked-operad memo tables
    carry over from one verdict to the next."""
    rng = random.Random(seed)
    terms = sorted(linfty.L0(5).terms.items(), key=lambda kv: kv[0].sort_key())
    return [
        ("gerstenhaber", [(mquilt, "verify_identity", name) for name in mquilt.IDENTITY_NAMES]),
        ("linfty quilt", [(linfty, "linfty_residual_quilt", n) for n in range(2, 5)]),
        ("linfty mquilt", [(linfty, "linfty_residual_mquilt", n) for n in range(2, 4)]),
        ("linfty coinvariant", [(linfty, "linfty_residual_coinvariant", n) for n in range(2, 5)]),
    ] + [("d2 sum %d" % i, FormalSum(ZZ, rng.sample(terms, RELATIONS_D2_TERMS)))
         for i in range(RELATIONS_D2_SUMS)]


def _nonzero_residuals(checks):
    return [arg for module, fn, arg in checks if not getattr(module, fn)(arg).is_zero()]


def _d2(s):
    return extensions.boundary_sum(extensions.boundary_sum(s))


def relations_run(verdicts, clock):
    for name, work in verdicts:
        if isinstance(work, FormalSum):
            dd = clock.verdict(name, _d2, work)
            clock.check(dd is None or dd.is_zero(), "%s: d(d(S)) is not zero" % name)
        else:
            nonzero = clock.verdict(name, _nonzero_residuals, work)
            clock.check(not nonzero, "%s: nonzero residual at %s" % (name, nonzero))


# -------------------------------------------------------- maurer-cartan

def upper_triangular_to_diagonal(k, ring=QQ):
    """Upper-triangular k x k matrices onto the diagonal ones, killing the
    strictly upper part; the arrow of the category with two objects."""
    cells = [(i, j) for i in range(k) for j in range(i, k)]
    at = {c: a for a, c in enumerate(cells)}
    mult_x = {(at[(i, j)], at[(j, l)], at[(i, l)]): 1
              for (i, j) in cells for l in range(j, k)}
    mult_y = {(i, i, i): 1 for i in range(k)}
    gamma = {(i, at[(i, i)]): 1 for i in range(k)}
    cat = FiniteCategory(["x", "y"], {"gamma": ("x", "y")}, {})
    return DiagramOfAlgebras(cat, {"x": len(cells), "y": k},
                             {"x": mult_x, "y": mult_y}, {"gamma": gamma}, ring)


def _unimodular(d, moves, rng):
    """A seeded integer change of basis P with determinant one, and P^-1."""
    p = [[int(r == c) for c in range(d)] for r in range(d)]
    q = [row[:] for row in p]
    for _ in range(moves):
        i, j = rng.sample(range(d), 2)
        c = rng.choice((-1, 1))
        for r in range(d):          # P <- P (1 + c E_ij)
            p[r][j] += c * p[r][i]
        for s in range(d):          # P^-1 <- (1 - c E_ij) P^-1
            q[i][s] -= c * q[j][s]
    return p, q


def transported(diagram, rng):
    """f = (the structure moved along a change of basis) - (the structure).
    The deformed diagram is the transported one, so f always solves the
    Maurer-Cartan equation."""
    f = cochains.Cochain(diagram)
    basis = {x: _unimodular(diagram.dims[x], MC_TRANSPORT_MOVES[x], rng)
             for x in ("x", "y")}
    for x, (p, q) in basis.items():
        # the structure constants are integers; the nonzero entries of the
        # rows of P and the columns of P^-1
        old = {key: int(v) for key, v in diagram.mult[x].items()}
        rows = [[(i, a) for i, a in enumerate(row) if a] for row in p]
        cols = [[(k, row[t]) for k, row in enumerate(q) if row[t]] for t in range(len(q))]
        new = {}
        for (r, s, t), v in old.items():
            for (i, a), (j, b), (k, c) in itertools.product(rows[r], rows[s], cols[t]):
                new[(i, j, k)] = new.get((i, j, k), 0) + a * b * c * v
        for (i, j, k) in set(new) | set(old):
            delta = new.get((i, j, k), 0) - old.get((i, j, k), 0)
            if delta:
                f._add((0, 2), (x,), (k, i, j), delta)
    px, qy = basis["x"][0], basis["y"][1]
    g = {key: int(v) for key, v in diagram.matrix("gamma").items()}
    dx, dy = diagram.dims["x"], diagram.dims["y"]
    for r, c in itertools.product(range(dy), range(dx)):
        v = sum(qy[r][s] * w * px[t][c] for (s, t), w in g.items())
        if v != g.get((r, c), 0):
            f._add((1, 1), ("gamma",), (r, c), v - g.get((r, c), 0))
    return f


def perturbation(diagram, rng):
    """(0,2) and (1,1) entries drawn as the rational tests draw them; almost
    never a solution."""
    f = cochains.Cochain(diagram)

    def draw(pq, tup, indices):
        for idx in indices:
            if rng.random() < MC_TEST_DENSITY:
                v = rng.randrange(-2, 3)
                if v:
                    f._add(pq, tup, idx, v)

    for x in ("x", "y"):
        draw((0, 2), (x,), itertools.product(range(diagram.dims[x]), repeat=3))
    draw((1, 1), ("gamma",), itertools.product(range(diagram.dims["y"]),
                                               range(diagram.dims["x"])))
    return f


def mc_inputs(seed):
    """Alternating known solutions and perturbations, with the flag saying
    which is which."""
    rng = random.Random(seed)
    diagram = upper_triangular_to_diagonal(MC_BLOCK)
    return [(transported(diagram, rng), True) if i % 2 == 0 else
            (perturbation(diagram, rng), False) for i in range(MC_STREAM)]


def _deforms(f):
    try:
        cochains.deformed_diagram(f)
    except DiagramError:
        return False
    return True


def mc_run(stream, clock):
    for i, (f, known_solution) in enumerate(stream):
        res = clock.verdict("cochain %d" % i, cochains.mc_residual, f,
                            label="transported" if known_solution else "perturbed")
        if res is None:
            continue
        verdict = res.is_zero()
        expected = _deforms(f)
        clock.check(verdict == expected and (expected or not known_solution),
                    "cochain %d: mc verdict %s, deformed diagram valid %s, "
                    "transported %s" % (i, verdict, expected, known_solution))


WORKLOADS = {
    "homology-a5": (homology_inputs, homology_run),
    "relations": (relations_inputs, relations_run),
    "maurer-cartan": (mc_inputs, mc_run),
}
