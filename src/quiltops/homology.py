"""Chain complexes of the quilt operad by arity, and exact homology ranks.

The arity-n complex has the degree-k quilts as basis in degree k and the
word boundary as differential.  Ranks are computed by exact sparse
Gaussian elimination (integer entries, rational arithmetic only when an
unavoidable non-unit pivot appears); torsion can be reported through an
integer Smith normal form on the small complexes.
"""

from fractions import Fraction

from .formal import FormalSum
from .quilts import Quilt, enumerate_quilts
from .rings import QQ, ZZ, PrimeField, Ring
from .extensions import boundary


class ChainComplex:
    """Bases by homological degree and boundary matrices between them."""

    def __init__(self, n, bases, matrices):
        self.n = n
        self.bases = bases          # degree -> list of quilts
        self.matrices = matrices    # degree k -> sparse columns C_k -> C_{k-1}

    def dim(self, k):
        return len(self.bases.get(k, []))

    def degrees(self):
        return sorted(self.bases)

    def matrix(self, k):
        """Columns of the boundary C_k -> C_{k-1} as {col: {row: int}}."""
        return self.matrices.get(k, {})

    def euler_characteristic(self):
        return sum((-1) ** k * self.dim(k) for k in self.degrees())


def build_complex(n, progress=None):
    """Assemble the arity-n quilt complex with exact integer matrices."""
    assert n >= 1
    bases = {}
    for q in enumerate_quilts(n):
        bases.setdefault(q.degree, []).append(q)
    for k in bases:
        bases[k].sort(key=Quilt.sort_key)
    index = {k: {q: i for i, q in enumerate(bs)} for k, bs in bases.items()}
    matrices = {}
    for k in sorted(bases):
        if k == 0:
            continue
        cols = {}
        lower = index.get(k - 1, {})
        for j, q in enumerate(bases[k]):
            col = {}
            for face_q, c in boundary(q).terms.items():
                col[lower[face_q]] = c
            if col:
                cols[j] = col
            if progress and j % 2000 == 0:
                progress("assemble deg %d: %d/%d" % (k, j, len(bases[k])))
        matrices[k] = cols
    return ChainComplex(n, bases, matrices)


def _rows_from_columns(cols, coerce):
    rows = {}
    for j, col in cols.items():
        for i, v in col.items():
            rows.setdefault(i, {})[j] = coerce(v)
    return rows


def sparse_rank(cols, ring=QQ, progress=None):
    """Exact rank of a sparse matrix given as columns {col: {row: value}}.

    Markowitz-style pivoting, preferring unit pivots so that elimination
    stays in the integers as long as possible.
    """
    if isinstance(ring, PrimeField):
        coerce = ring.coerce
        div = lambda a, b: ring.mul(a, ring.inv(b))
        is_zero = ring.is_zero
    else:
        coerce = lambda v: v
        is_zero = lambda v: v == 0

        def div(a, b):
            # exact division, staying integral whenever possible
            if isinstance(a, int) and isinstance(b, int):
                q, r = divmod(a, b)
                return q if r == 0 else Fraction(a, b)
            return Fraction(a) / Fraction(b)

    rows = _rows_from_columns(cols, coerce)
    rows = {i: {j: v for j, v in r.items() if not is_zero(v)} for i, r in rows.items()}
    rows = {i: r for i, r in rows.items() if r}
    col_rows = {}
    for i, r in rows.items():
        for j in r:
            col_rows.setdefault(j, set()).add(i)

    rank = 0
    while rows:
        # pick a pivot: unit entries first, then lowest fill estimate
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
        targets = [i for i in col_rows.get(pj, set())]
        for i in targets:
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
        if progress and rank % 500 == 0:
            progress("rank %d, %d rows left" % (rank, len(rows)))
    return rank


def homology_ranks(complex_, ring=QQ, progress=None):
    """[(degree, basis size, rank H_k)] by exact elimination.

    rank H_k = dim C_k - rank d_k - rank d_{k+1}.
    """
    if not isinstance(ring, Ring) or ring == ZZ:
        ring = QQ
    ranks = {}
    for k in complex_.degrees():
        if k == 0:
            continue
        ranks[k] = sparse_rank(complex_.matrix(k), ring, progress)
    out = []
    for k in complex_.degrees():
        h = complex_.dim(k) - ranks.get(k, 0) - ranks.get(k + 1, 0)
        out.append((k, complex_.dim(k), h))
    return out


def project_to_brace(s):
    """The operad map to Brace: a degree-0 quilt goes to its tree, higher
    degrees to zero; all composition signs are +1 in degree 0."""
    if isinstance(s, Quilt):
        s = FormalSum.single(s)
    return FormalSum(s.ring, [(q.tree, c) for q, c in s.terms.items() if q.degree == 0])


def smith_normal_form(dense):
    """Diagonal invariant factors of an integer matrix (destructive on a
    copy); used to report torsion on the small complexes."""
    a = [row[:] for row in dense]
    m = len(a)
    n = len(a[0]) if m else 0
    divisors = []
    si = 0
    sj = 0
    while si < m and sj < n:
        # find smallest nonzero entry
        best = None
        for i in range(si, m):
            for j in range(sj, n):
                v = a[i][j]
                if v and (best is None or abs(v) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        a[si], a[bi] = a[bi], a[si]
        for row in a:
            row[sj], row[bj] = row[bj], row[sj]
        changed = True
        while changed:
            changed = False
            p = a[si][sj]
            for i in range(si + 1, m):
                if a[i][sj]:
                    qt = a[i][sj] // p
                    for j in range(sj, n):
                        a[i][j] -= qt * a[si][j]
                    if a[i][sj]:
                        a[si], a[i] = a[i], a[si]
                        changed = True
                        p = a[si][sj]
            for j in range(sj + 1, n):
                if a[si][j]:
                    qt = a[si][j] // p
                    for i in range(si, m):
                        a[i][j] -= qt * a[i][sj]
                    if a[si][j]:
                        for i in range(si, m):
                            a[i][sj], a[i][j] = a[i][j], a[i][sj]
                        changed = True
                        p = a[si][sj]
        # ensure divisibility of the remaining block
        p = a[si][sj]
        fix = False
        for i in range(si + 1, m):
            for j in range(sj + 1, n):
                if a[i][j] % p:
                    for jj in range(sj, n):
                        a[si][jj] += a[i][jj]
                    fix = True
                    break
            if fix:
                break
        if fix:
            continue
        divisors.append(abs(p))
        si += 1
        sj += 1
    return divisors


def torsion_report(complex_, k):
    """Invariant factors > 1 of the boundary into degree k (torsion of
    H_k comes from the matrix of d_{k+1})."""
    cols = complex_.matrix(k + 1)
    m = complex_.dim(k)
    n = complex_.dim(k + 1)
    dense = [[0] * n for _ in range(m)]
    for j, col in cols.items():
        for i, v in col.items():
            dense[i][j] = v
    return [d for d in smith_normal_form(dense) if d > 1]
