import math
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from quiltops.homology import (build_complex, homology_ranks, sparse_rank,
                               project_to_brace, torsion_report,
                               smith_normal_form)
from quiltops.rings import QQ, GF2, GF, PrimeField
from quiltops.formal import FormalSum
from quiltops.quilts import Quilt, enumerate_quilts, parse_quilt
from quiltops.extensions import compose


def catalan(n):
    return math.comb(2 * n, n) // (n + 1)


def test_build_small():
    c1 = build_complex(1)
    assert c1.dim(0) == 1 and c1.degrees() == [0]
    c2 = build_complex(2)
    assert c2.dim(0) == 2 and c2.dim(1) == 0


def test_bases_in_sort_key_order():
    for n in range(1, 5):
        c = build_complex(n)
        for k in c.degrees():
            assert c.bases[k] == sorted(c.bases[k], key=Quilt.sort_key), (n, k)
        assert [q for k in c.degrees() for q in c.bases[k]] == enumerate_quilts(n)


def test_boundary_squared_as_matrices():
    c = build_complex(4)
    for k in c.degrees():
        if k < 2:
            continue
        m_hi = c.matrix(k)
        m_lo = c.matrix(k - 1)
        # compose columns: d_{k-1} ( d_k e_j ) = 0
        for j, col in m_hi.items():
            acc = {}
            for i, v in col.items():
                for i2, w in m_lo.get(i, {}).items():
                    acc[i2] = acc.get(i2, 0) + v * w
            assert all(v == 0 for v in acc.values()), (k, j)


def test_sparse_rank_simple():
    cols = {0: {0: 1, 1: 2}, 1: {0: 2, 1: 4}, 2: {2: 5}}
    assert sparse_rank(cols, QQ) == 2
    assert sparse_rank({}, QQ) == 0
    assert sparse_rank(cols, GF2) == 2  # 2x mod 2 kills the dependency shape
    cols2 = {0: {0: 2}, 1: {1: 2}}
    assert sparse_rank(cols2, GF2) == 0


def _scan_rank_oracle(cols, ring=QQ):
    """The rank kernel as it was before the heap pivot: every step scans
    every entry of every remaining row for the cheapest pivot (a unit
    first, then the least (row length - 1) * (column length - 1))."""
    if isinstance(ring, PrimeField):
        coerce = ring.coerce
        div = lambda a, b: ring.mul(a, ring.inv(b))
        is_zero = ring.is_zero
    else:
        coerce = lambda v: v
        is_zero = lambda v: v == 0

        def div(a, b):
            if isinstance(a, int) and isinstance(b, int):
                q, r = divmod(a, b)
                return q if r == 0 else Fraction(a, b)
            return Fraction(a) / Fraction(b)

    rows = {}
    for j, col in cols.items():
        for i, v in col.items():
            rows.setdefault(i, {})[j] = coerce(v)
    rows = {i: {j: v for j, v in r.items() if not is_zero(v)} for i, r in rows.items()}
    rows = {i: r for i, r in rows.items() if r}
    col_rows = {}
    for i, r in rows.items():
        for j in r:
            col_rows.setdefault(j, set()).add(i)

    rank = 0
    while rows:
        best = None
        for i, r in rows.items():
            li = len(r)
            for j, v in r.items():
                unit = (v == 1 or v == -1) if not isinstance(ring, PrimeField) else (v == 1 or v == ring.p - 1)
                cost = (li - 1) * (len(col_rows[j]) - 1)
                key = (not unit, cost)
                if best is None or key < best[0]:
                    best = (key, i, j)
                    if key == (False, 0):
                        break
            if best and best[0] == (False, 0):
                break
        _, pi, pj = best
        pivot_row = rows.pop(pi)
        pv = pivot_row[pj]
        for j in pivot_row:
            col_rows[j].discard(pi)
        for i in list(col_rows.get(pj, set())):
            r = rows[i]
            factor = div(r[pj], pv)
            for j, v in pivot_row.items():
                if isinstance(ring, PrimeField):
                    w = ring.add(r.get(j, 0), ring.neg(ring.mul(factor, v)))
                    dead = ring.is_zero(w)
                else:
                    w = r.get(j, 0) - factor * v
                    if isinstance(w, Fraction) and w.denominator == 1:
                        w = int(w)
                    dead = (w == 0)
                if dead:
                    if j in r:
                        del r[j]
                        col_rows[j].discard(i)
                else:
                    if j not in r:
                        col_rows.setdefault(j, set()).add(i)
                    r[j] = w
            if not r:
                del rows[i]
        rank += 1
    return rank


# sparse integer matrices, at most 12 x 12, entries in -4..4 so that non-unit
# pivots (and over Q the Fraction arithmetic after them) occur
_sparse_matrices = st.dictionaries(
    st.integers(0, 11),
    st.dictionaries(st.integers(0, 11), st.integers(-4, 4), max_size=6),
    max_size=12)


@settings(max_examples=300, deadline=None)
@given(_sparse_matrices)
def test_sparse_rank_matches_oracle(cols):
    for ring in (QQ, GF2, GF(3)):
        assert sparse_rank(cols, ring) == _scan_rank_oracle(cols, ring), ring


def test_sparse_rank_non_unit_pivots():
    # no entry is a unit, so every pivot is a non-unit one and over Q the
    # elimination runs in fractions; mod 5 the second column is 4 times the first
    cols = {0: {0: 2, 1: 3, 2: 4}, 1: {0: 3, 1: 2, 2: 6}, 2: {0: 4, 1: 6, 2: 8}}
    assert sparse_rank(cols, QQ) == _scan_rank_oracle(cols, QQ) == 2
    assert sparse_rank(cols, GF(5)) == _scan_rank_oracle(cols, GF(5)) == 1
    cols = {0: {0: Fraction(1, 2), 1: Fraction(2, 3)}, 1: {0: 3, 1: 4}}
    assert sparse_rank(cols, QQ) == 1


def test_homology_ranks_match_oracle():
    for n in (1, 2, 3, 4):
        c = build_complex(n)
        for ring in (QQ, GF2):
            for k in c.degrees():
                if k > 0:
                    assert sparse_rank(c.matrix(k), ring) == \
                        _scan_rank_oracle(c.matrix(k), ring), (n, ring, k)


def test_acyclicity_up_to_4():
    for n in (1, 2, 3, 4):
        c = build_complex(n)
        rows = homology_ranks(c, QQ)
        for k, dim, h in rows:
            if k == 0:
                assert h == math.factorial(n) * catalan(n - 1)
            else:
                assert h == 0, (n, k, h)
        assert c.euler_characteristic() == sum((-1) ** k * h
                                               for k, _, h in rows)


def test_no_torsion_small():
    for n in (3, 4):
        c = build_complex(n)
        for k in c.degrees()[:-1]:
            assert torsion_report(c, k) == []


def test_smith_normal_form():
    assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]
    assert smith_normal_form([[1, 0], [0, 0]]) == [1]
    assert smith_normal_form([[2, 4], [4, 8]]) == [2]


def test_f2_ranks_match_small():
    c = build_complex(3)
    assert homology_ranks(c, GF2) == homology_ranks(c, QQ)


def test_projection_examples():
    assert project_to_brace(FormalSum.single(parse_quilt("1232;1(3,2)"))).is_zero()
    s = project_to_brace(FormalSum.single(parse_quilt("12;1(2)")))
    assert [str(k) for k in s.keys()] == ["1(2)"]


def test_projection_surjective():
    # word = first-occurrence reading of the corner word makes every tree hit
    from quiltops.trees import enumerate_trees
    from quiltops.words import Word
    from quiltops.quilts import Quilt
    for n in (2, 3):
        hit = set()
        for q in enumerate_quilts(n, 0):
            s = project_to_brace(FormalSum.single(q))
            hit.update(s.terms)
        assert hit == set(enumerate_trees(n))
        for t in enumerate_trees(n):
            seen, word = set(), []
            for u in t.corner_word():
                if u not in seen:
                    seen.add(u)
                    word.append(u)
            q = Quilt(Word(tuple(word), n), t)
            assert project_to_brace(FormalSum.single(q)).keys() == [t]


def test_projection_homomorphism():
    # H(P o_a Q) = H(P) o_a H(Q) on degree-0 quilts, all signs +1
    for n in (2, 3):
        z0 = enumerate_quilts(2, 0)
        qs = enumerate_quilts(n, 0)
        for p in z0:
            for q in qs:
                for a in (1, 2):
                    lhs = project_to_brace(compose(p, a, q))
                    hp = project_to_brace(FormalSum.single(p)).keys()[0]
                    hq = project_to_brace(FormalSum.single(q)).keys()[0]
                    rhs = compose(hp, a, hq)
                    assert lhs == rhs, (p, q, a)
