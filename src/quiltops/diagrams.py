"""Finite categories and diagrams of algebras with exact entries.

A diagram assigns to each object a finite-dimensional associative
algebra (structure constants over the chosen ring) and to each morphism
a matrix that must be an algebra homomorphism, functorially in the
category.  The text format mirrors this: a ring line, objects with
dimensions, morphisms with source and target, a total composition table
for the non-identity composable pairs, structure constants as
(i, j, k, value) quadruples, and row-major matrices, each declared
once.  parse_diagram reads it and format_diagram writes it.
"""

from fractions import Fraction

from .formal import FormalSum
from .rings import QQ, RingError, parse_ring


class DiagramError(ValueError):
    pass


class NonAssociative(DiagramError):
    pass


class NotFunctorial(DiagramError):
    pass


class NotHomomorphism(DiagramError):
    pass


class BadShape(DiagramError):
    pass


class DiagramSyntaxError(DiagramError):
    """A line of a diagram file that does not parse."""


class FiniteCategory:
    def __init__(self, objects, morphisms, compose_table):
        """objects: list of names; morphisms: {name: (src, tgt)} without
        identities; compose_table: {(g, f): h} for non-identity pairs."""
        self.objects = list(objects)
        self.identity = {x: "id_%s" % x for x in objects}
        self.morphisms = {f: (x, x) for x, f in self.identity.items()}
        self._identities = frozenset(self.morphisms)
        for f in morphisms:
            if f in self._identities:
                raise DiagramError("morphism %s takes the name of an identity" % f)
        self.morphisms.update(morphisms)
        self._table = dict(compose_table)
        self._validate()

    def src(self, f):
        return self.morphisms[f][0]

    def tgt(self, f):
        return self.morphisms[f][1]

    def is_identity(self, f):
        return f in self._identities

    def compose(self, g, f):
        """g after f; f: x -> y, g: y -> z."""
        if self.tgt(f) != self.src(g):
            raise DiagramError("not composable: %s after %s" % (g, f))
        if self.is_identity(f):
            return g
        if self.is_identity(g):
            return f
        try:
            return self._table[(g, f)]
        except KeyError:
            raise DiagramError("composition table missing (%s, %s)" % (g, f))

    def _validate(self):
        for f, (x, y) in self.morphisms.items():
            for g, (y2, z) in self.morphisms.items():
                if y != y2:
                    continue
                h = self.compose(g, f)
                if self.morphisms[h] != (x, z):
                    raise DiagramError("compose table ill-typed at (%s, %s)" % (g, f))
        for f in self.morphisms:
            for g in self.morphisms:
                if self.tgt(f) != self.src(g):
                    continue
                for h in self.morphisms:
                    if self.tgt(g) != self.src(h):
                        continue
                    if self.compose(self.compose(h, g), f) != \
                            self.compose(h, self.compose(g, f)):
                        raise DiagramError("composition not associative at "
                                           "(%s, %s, %s)" % (h, g, f))

    def nerve(self, p):
        """Tuples (f_1, ..., f_p) with f_k: x_k -> x_{k-1}."""
        if p == 0:
            return [(x,) for x in self.objects]
        out = [()]
        for _ in range(p):
            new = []
            for tup in out:
                for f in self.morphisms:
                    if not tup or self.src(tup[-1]) == self.tgt(f):
                        new.append(tup + (f,))
            out = new
        return out

    def in_nerve(self, tup, p):
        """Whether tup is one of the tuples of nerve(p)."""
        if p == 0:
            return len(tup) == 1 and tup[0] in self.objects
        return (len(tup) == p and all(f in self.morphisms for f in tup)
                and all(self.src(f) == self.tgt(g) for f, g in zip(tup, tup[1:])))

    def path(self, tup, k, l):
        """The composition f_{k+1} o ... o f_l (identity when k == l)."""
        if k == l:
            x = self.tgt(tup[k]) if k < len(tup) else self.src(tup[-1])
            return self.identity[x]
        f = tup[l - 1]
        for i in range(l - 1, k, -1):
            f = self.compose(tup[i - 1], f)
        return f

    def tuple_objects(self, tup):
        """x_0, ..., x_p for a nerve tuple."""
        if len(tup) == 1 and tup[0] in self.objects:
            return [tup[0]]
        xs = [self.tgt(tup[0])]
        for f in tup:
            xs.append(self.src(f))
        return xs


class DiagramOfAlgebras:
    def __init__(self, category, dims, mult, matrices, ring=QQ, validate=True):
        """dims: {object: dimension}; mult: {object: {(i, j, k): value}} with
        0-based indices; matrices: {morphism: {(r, c): value}}."""
        self.category = category
        self.dims = dict(dims)
        self.ring = ring
        self.mult = {x: FormalSum(ring, m).terms for x, m in mult.items()}
        for x in category.objects:
            self.mult.setdefault(x, {})
        self.matrices = {f: FormalSum(ring, m).terms for f, m in matrices.items()}
        for x in category.objects:
            ident = {}
            for i in range(self.dims[x]):
                ident[(i, i)] = ring.one
            self.matrices[category.identity[x]] = ident
        if validate:
            self.validate()

    def matrix(self, f):
        try:
            return self.matrices[f]
        except KeyError:
            raise DiagramError("missing matrix for %s" % f)

    def multiply(self, x, u, v):
        """The product u v in A(x) of vectors {index: coeff}."""
        mul = self.ring.mul
        return FormalSum(self.ring, ((k, mul(mul(u[i], v[j]), w))
                                     for (i, j, k), w in self.mult[x].items()
                                     if i in u and j in v)).terms

    def apply_matrix(self, f, vec):
        mul = self.ring.mul
        return FormalSum(self.ring, ((r, mul(v, vec[c]))
                                     for (r, c), v in self.matrices[f].items()
                                     if c in vec)).terms

    def validate(self):
        ring = self.ring
        cat = self.category
        for x in cat.objects:
            if self.dims[x] < 0:
                raise BadShape("object %s has negative dimension" % x)
            for (i, j, k) in self.mult[x]:
                d = self.dims[x]
                if not (0 <= i < d and 0 <= j < d and 0 <= k < d):
                    raise BadShape("structure constant out of range on %s" % x)
        for f, m in self.matrices.items():
            x, y = cat.src(f), cat.tgt(f)
            for (r, c) in m:
                if not (0 <= r < self.dims[y] and 0 <= c < self.dims[x]):
                    raise BadShape("matrix entry out of range on %s" % f)
        # associativity on basis triples
        for x in cat.objects:
            e = [{i: ring.one} for i in range(self.dims[x])]
            for i, ei in enumerate(e):
                for j, ej in enumerate(e):
                    ij = self.multiply(x, ei, ej)
                    for k, ek in enumerate(e):
                        if self.multiply(x, ij, ek) != \
                                self.multiply(x, ei, self.multiply(x, ej, ek)):
                            raise NonAssociative("algebra at %s: (e%d e%d)e%d != e%d(e%d e%d)"
                                                 % (x, i, j, k, i, j, k))
        # functoriality
        for f in cat.morphisms:
            for g in cat.morphisms:
                if cat.tgt(f) != cat.src(g):
                    continue
                h = cat.compose(g, f)
                d = self.dims[cat.src(f)]
                for c in range(d):
                    vec = {c: ring.one}
                    lhs = self.apply_matrix(g, self.apply_matrix(f, vec))
                    rhs = self.apply_matrix(h, vec)
                    if lhs != rhs:
                        raise NotFunctorial("A[%s]A[%s] != A[%s]" % (g, f, h))
        # homomorphism property
        for f in cat.morphisms:
            x, y = cat.src(f), cat.tgt(f)
            e = [{i: ring.one} for i in range(self.dims[x])]
            for ei in e:
                for ej in e:
                    lhs = self.apply_matrix(f, self.multiply(x, ei, ej))
                    rhs = self.multiply(y, self.apply_matrix(f, ei),
                                        self.apply_matrix(f, ej))
                    if lhs != rhs:
                        raise NotHomomorphism("A[%s] does not respect products"
                                              % f)
        return self


_USAGE = {"ring": "ring R", "object": "object NAME DIM",
          "morphism": "morphism NAME SRC TGT", "compose": "compose G F H",
          "mult": "mult OBJ I J K VALUE", "matrix": "matrix NAME ENTRIES..."}


def parse_diagram(text, validate=True):
    """Parse the diagram file format; see the module docstring."""
    ring = QQ
    objects = []
    dims = {}
    morphisms = {}
    table = {}
    mult = {}
    matrix_rows = {}
    where = {}    # (keyword, name) -> line, for repeats and the reference checks
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kw = parts[0]
        if kw not in _USAGE:
            raise DiagramSyntaxError("line %d: unknown keyword %r" % (lineno, kw))
        try:
            if kw != "matrix" and len(parts) != len(_USAGE[kw].split()):
                raise ValueError
            key = parts[1] if kw in ("object", "morphism", "matrix") else None
            if kw == "ring":
                ring = parse_ring(parts[1])
            elif kw == "object":
                objects.append(key)
                dims[key] = int(parts[2])
                mult[key] = {}
            elif kw == "morphism":
                morphisms[key] = (parts[2], parts[3])
            elif kw == "compose":
                key = (parts[1], parts[2])
                table[key] = parts[3]
            elif kw == "mult":
                key = x, i, j, k = parts[1], int(parts[2]), int(parts[3]), int(parts[4])
                mult[x][(i - 1, j - 1, k - 1)] = Fraction(parts[5])
            else:
                matrix_rows[key] = [Fraction(v) for v in parts[2:]]
        except RingError as e:
            raise DiagramSyntaxError("line %d: %s" % (lineno, e)) from None
        except (ValueError, IndexError, KeyError, ZeroDivisionError):
            raise DiagramSyntaxError("line %d: expected '%s'"
                                     % (lineno, _USAGE[kw])) from None
        if (kw, key) in where:
            raise DiagramSyntaxError("line %d: %r repeats the %s of line %d"
                                     % (lineno, line, kw, where[kw, key]))
        where[kw, key] = lineno

    def check(kw, key, kind, names, declared):
        for name in names:
            if name not in declared:
                raise DiagramSyntaxError("line %d: undeclared %s %r"
                                         % (where[kw, key], kind, name))
    identities = {"id_%s" % x for x in objects}
    for f, ends in morphisms.items():
        if f in identities:
            raise DiagramSyntaxError("line %d: morphism %r takes the name of an identity"
                                     % (where["morphism", f], f))
        check("morphism", f, "object", ends, dims)
    arrows = set(morphisms) | identities
    for gf, h in table.items():
        check("compose", gf, "morphism", gf + (h,), arrows)
    for f in matrix_rows:
        check("matrix", f, "morphism", (f,), arrows)
    cat = FiniteCategory(objects, morphisms, table)
    matrices = {}
    for f, vals in matrix_rows.items():
        x, y = cat.src(f), cat.tgt(f)
        dr, dc = dims[y], dims[x]
        if len(vals) != dr * dc:
            raise BadShape("matrix %s needs %d entries, got %d"
                           % (f, dr * dc, len(vals)))
        matrices[f] = {(r, c): vals[r * dc + c]
                       for r in range(dr) for c in range(dc)}
    return DiagramOfAlgebras(cat, dims, mult, matrices, ring, validate=validate)


def format_diagram(dia):
    """The text of dia in the format parse_diagram reads: its ring, objects
    and non-identity morphisms in order, the composition table, the nonzero
    structure constants in index order and each non-identity matrix in
    full, so parse_diagram(format_diagram(dia)) is dia again."""
    cat = dia.category
    arrows = [f for f in cat.morphisms if not cat.is_identity(f)]
    lines = ["ring %s" % dia.ring]
    lines += ["object %s %d" % (x, dia.dims[x]) for x in cat.objects]
    lines += ["morphism %s %s %s" % (f, cat.src(f), cat.tgt(f)) for f in arrows]
    lines += ["compose %s %s %s" % (g, f, h) for (g, f), h in cat._table.items()]
    lines += ["mult %s %d %d %d %s" % (x, i + 1, j + 1, k + 1, c)
              for x in cat.objects for (i, j, k), c in sorted(dia.mult[x].items())]
    for f in (f for f in arrows if f in dia.matrices):
        m, rows, cols = dia.matrices[f], dia.dims[cat.tgt(f)], dia.dims[cat.src(f)]
        lines.append(" ".join(["matrix", f] + [str(m.get((r, c), dia.ring.zero))
                                               for r in range(rows) for c in range(cols)]))
    return "\n".join(lines) + "\n"


def load_diagram(path, validate=True):
    with open(path) as fh:
        return parse_diagram(fh.read(), validate=validate)


def category_two_diagram(ring=QQ, dim=2):
    """Objects 1, 2 with one arrow; both algebras are dim x dim matrices
    worth of upper-triangular... by default the 2x2 diagonal algebra with
    the identity map, a small exact workhorse for the test suite."""
    objects = ["x", "y"]
    dims = {"x": dim, "y": dim}
    mult = {}
    for obj in objects:
        m = {}
        for i in range(dim):
            m[(i, i, i)] = 1  # diagonal algebra: e_i e_j = delta_ij e_i
        mult[obj] = m
    matrices = {"gamma": {(i, i): 1 for i in range(dim)}}
    cat = FiniteCategory(objects, {"gamma": ("x", "y")}, {})
    return DiagramOfAlgebras(cat, dims, mult, matrices, ring)
