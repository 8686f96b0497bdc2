"""Finitely supported linear combinations over canonical basis keys.

A FormalSum stores only nonzero coefficients, keyed by hashable basis
elements (trees, words, quilts, m-quilts, cochain keys).  Keys must
expose a total order through sort_key() or be plain sortable values;
iteration and rendering always use that order, so reports are
deterministic.

There is one accumulation loop: the FormalSum constructor.  It adds a
sequence of (key, coefficient) pairs into a single dict, inserting a key
at its first nonzero coefficient and dropping it when it cancels, so the
insertion order of `terms` depends only on the pair sequence (a key that
comes back after cancelling goes last).  It coerces every coefficient,
probes the dict once per pair, and tests a coefficient for zero by its
truthiness, not by ring.is_zero: by the canonical-zero lemma (rings) every
result of coerce and add is zero exactly when it is the int 0.
linear_combination, bind, combine, scale and map_keys all hand a pair
sequence to it.  The one trusted constructor, FormalSum._unchecked, takes
a dict that is already canonical; its two callers, extensions.boundary and
boundary_sum, prove theirs.  The marked normal form fills its memo tables
in the order keys are visited, so a change to how a sum is built must
keep the order in which it visits the terms.

A FormalSum returned by any function is never mutated in place: callers
may hold and share it, so derive a new sum instead.
"""

from .rings import ZZ, Ring, RingError


def _sort_key(k):
    sk = getattr(k, "sort_key", None)
    return sk() if callable(sk) else k


class FormalSum:
    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms=None):
        assert isinstance(ring, Ring)
        self.ring = ring
        data = {}
        if terms:
            coerce, add, get = ring.coerce, ring.add, data.get
            for key, coeff in (terms.items() if isinstance(terms, dict) else terms):
                c = coerce(coeff)
                old = get(key)
                if old is None:
                    if c:
                        data[key] = c
                elif c := add(old, c):
                    data[key] = c
                else:
                    del data[key]
        self.terms = data

    @classmethod
    def _unchecked(cls, ring, terms):
        """A sum from a dict already canonical (the two boundaries, see extensions)."""
        self = object.__new__(cls)
        self.ring, self.terms = ring, terms
        return self

    @classmethod
    def single(cls, key, coeff=1, ring=ZZ):
        return cls(ring, [(key, coeff)])

    def is_zero(self):
        return not self.terms

    def items(self):
        return sorted(self.terms.items(), key=lambda kv: _sort_key(kv[0]))

    def keys(self):
        return [k for k, _ in self.items()]

    def __len__(self):
        return len(self.terms)

    def __getitem__(self, key):
        return self.terms.get(key, self.ring.zero)

    def __eq__(self, other):
        return (isinstance(other, FormalSum) and self.ring == other.ring
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.ring, tuple(self.items())))

    def __add__(self, other):
        return combine(self, other, 1, 1)

    def __sub__(self, other):
        return combine(self, other, 1, -1)

    def __neg__(self):
        return self.scale(-1)

    def __rmul__(self, c):
        return self.scale(c)

    def scale(self, c):
        ring = self.ring
        c = ring.coerce(c)
        if ring.is_zero(c):
            return FormalSum(ring)
        return FormalSum(ring, [(k, ring.mul(c, v)) for k, v in self.terms.items()])

    def map_keys(self, fn):
        """Apply fn to every key; collisions are summed."""
        return FormalSum(self.ring, ((fn(k), v) for k, v in self.terms.items()))

    def bind(self, fn):
        """Substitute each key by a FormalSum: sum of coeff * fn(key).

        fn may return sums over another ring (usually ZZ); their
        coefficients are coerced into self.ring."""
        return linear_combination(self.ring, ((c, fn(k)) for k, c in self.terms.items()))

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for k, v in self.items():
            ks = str(k)
            if v == 1:
                s = ks
            elif v == -1:
                s = "-" + ks
            else:
                s = "%s*%s" % (v, ks)
            if bits and not s.startswith("-"):
                bits.append("+ " + s)
            elif bits:
                bits.append("- " + s[1:])
            else:
                bits.append(s)
        return " ".join(bits)

    __repr__ = __str__


def linear_combination(ring, scaled_sums):
    """The sum of c * s over the (c, s) pairs, in one constructor pass.

    The coefficients c and those of each s (which may lie in another ring,
    usually ZZ) are coerced into ring.  Terms are visited pair by pair in
    the order given; with c = 1 the terms of an s over ring pass through
    unmultiplied.
    """
    coerce, mul = ring.coerce, ring.mul

    def terms():
        for c, s in scaled_sums:
            c = coerce(c)
            if c == 1 and s.ring == ring:
                yield from s.terms.items()
            else:
                for k, v in s.terms.items():
                    yield k, mul(c, coerce(v))

    return FormalSum(ring, terms())


def combine(a, b, ca=1, cb=1):
    """Exact linear combination ca*a + cb*b of two sums over one ring."""
    if a.ring != b.ring:
        raise RingError("ring mismatch: %s vs %s" % (a.ring, b.ring))
    return linear_combination(a.ring, ((ca, a), (cb, b)))


def ring_map(s, target):
    """Coefficientwise image of a sum in another ring, zero pruned."""
    return FormalSum(target, [(k, v) for k, v in s.terms.items()])


def parse_formal(text, key_parser, ring=ZZ):
    """Inverse of str() for sums whose keys are parsed by key_parser.

    Accepts strings like "-n1 + 2*n2 - n3"; whitespace is flexible.
    """
    from fractions import Fraction
    s = text.strip()
    if s == "0":
        return FormalSum(ring)
    s = s.replace("-", "+-")
    terms = []
    for chunk in s.split("+"):
        chunk = chunk.strip()
        if not chunk:
            continue
        sign = 1
        if chunk.startswith("-"):
            sign = -1
            chunk = chunk[1:].strip()
        if "*" in chunk:
            cs, ks = chunk.split("*", 1)
            coeff = ring.coerce(Fraction(cs.strip()))
        else:
            ks = chunk
            coeff = 1
        terms.append((key_parser(ks.strip()), sign * coeff))
    return FormalSum(ring, terms)
