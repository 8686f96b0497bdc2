"""Chain complexes of the quilt operad by arity, and exact homology ranks.

The arity-n complex has the degree-k quilts as basis in degree k and the
word boundary as differential.  Ranks come from one exact sparse Gaussian
elimination for Q and for prime fields, pivoting on the shortest remaining
row (a lazy min-heap keyed by row length) and in it on a unit (+-1) in the
column with the fewest rows.  Over Q the entries stay ints until a row
without a unit forces a non-unit pivot, which the quilt complexes through
arity 5 never do.  Torsion comes from an integer Smith normal form on the
small complexes.
"""

from heapq import heapify, heappop, heappush

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
    if n < 1:
        raise ValueError("arity must be at least 1, got %d" % n)
    bases = {}
    for q in enumerate_quilts(n):
        bases.setdefault(q.degree, []).append(q)
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


def sparse_rank(cols, ring=QQ, progress=None):
    """Exact rank of a sparse matrix given as columns {col: {row: value}},
    over a prime field or else over Q.  A row whose length changes is
    pushed on the heap again; entries whose length is out of date are
    skipped when popped."""
    p = ring.p if isinstance(ring, PrimeField) else 0
    coerce = ring.coerce if p else (lambda v: v)
    minus_one = p - 1 if p else -1
    rows = {}
    col_rows = {}
    for j, col in cols.items():
        for i, v in col.items():
            v = coerce(v)
            if v:
                rows.setdefault(i, {})[j] = v
                col_rows.setdefault(j, set()).add(i)
    heap = [(len(r), i) for i, r in rows.items()]
    heapify(heap)

    rank = 0
    while heap:
        length, pi = heappop(heap)
        pivot_row = rows.get(pi)
        if pivot_row is None or len(pivot_row) != length:
            continue                        # stale entry
        del rows[pi]
        for j in pivot_row:
            col_rows[j].discard(pi)
        units = [j for j, v in pivot_row.items() if v == 1 or v == minus_one]
        pj = min(units or pivot_row, key=lambda j: len(col_rows[j]))
        pv = pivot_row.pop(pj)
        if units:
            inv = pv                        # a unit is its own inverse
        else:
            inv = pow(pv, -1, p) if p else QQ.inv(pv)
        for i in col_rows.pop(pj):
            r = rows[i]
            before = len(r)
            factor = r.pop(pj) * inv
            for j, v in pivot_row.items():
                w = r.get(j, 0) - factor * v
                if p:
                    w %= p
                if w:
                    if j not in r:
                        col_rows[j].add(i)
                    r[j] = w
                elif j in r:
                    del r[j]
                    col_rows[j].discard(i)
            if not r:
                del rows[i]
            elif len(r) != before:
                heappush(heap, (len(r), i))
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
