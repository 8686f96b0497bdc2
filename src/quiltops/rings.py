"""Exact coefficient rings: the integers, the rationals, and prime fields.

Every computation in this package is exact; there is no floating point
anywhere.  Integer coefficients use Python's arbitrary-precision ints,
and prime-field elements are ints reduced mod p.  A rational is held as
an int when it is integral and as a fractions.Fraction only when its
denominator is a proper one; QQ.coerce refuses floats, and QQ.inv is the
one division.  A ring object carries the arithmetic so that elements
themselves can stay plain.
"""

from fractions import Fraction


class RingError(ValueError):
    pass


class Ring:
    """Base class; subclasses implement exact arithmetic on coefficients
    and set the constants zero and one."""

    name = "?"

    def coerce(self, x):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def is_zero(self, a):
        raise NotImplementedError

    def __eq__(self, other):
        return isinstance(other, Ring) and self.name == other.name

    def __hash__(self):
        return hash(self.name)

    def __repr__(self):
        return self.name


class IntegerRing(Ring):
    name = "Z"
    zero, one = 0, 1

    def coerce(self, x):
        if isinstance(x, bool) or not isinstance(x, int):
            if isinstance(x, Fraction) and x.denominator == 1:
                return int(x)
            raise RingError("not an integer: %r" % (x,))
        return x

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def is_zero(self, a):
        return a == 0


class RationalRing(Ring):
    name = "Q"
    zero, one = 0, 1

    def coerce(self, x):
        if type(x) is int:
            return x
        if not isinstance(x, (int, Fraction)):
            raise RingError("not a rational: %r" % (x,))
        return x.numerator if x.denominator == 1 else x

    def add(self, a, b):
        c = a + b
        return c.numerator if c.denominator == 1 else c

    def mul(self, a, b):
        c = a * b
        return c.numerator if c.denominator == 1 else c

    def neg(self, a):
        return -a

    def inv(self, a):
        a = self.coerce(a)
        if a == 0:
            raise RingError("inverting 0 in Q")
        return self.coerce(Fraction(1, a))

    def is_zero(self, a):
        return a == 0


def _is_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class PrimeField(Ring):
    zero, one = 0, 1

    def __init__(self, p):
        if not _is_prime(p):
            raise RingError("%r is not prime" % (p,))
        self.p = p
        self.name = "F%d" % p

    def coerce(self, x):
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise RingError("denominator divisible by %d" % self.p)
            return (x.numerator * pow(x.denominator, -1, self.p)) % self.p
        if not isinstance(x, int):
            raise RingError("not an element of F%d: %r" % (self.p, x))
        return x % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise RingError("inverting 0 in F%d" % self.p)
        return pow(a, -1, self.p)

    def is_zero(self, a):
        return a % self.p == 0


ZZ = IntegerRing()
QQ = RationalRing()
GF2 = PrimeField(2)

_FP_CACHE = {2: GF2}


def GF(p):
    if p not in _FP_CACHE:
        _FP_CACHE[p] = PrimeField(p)
    return _FP_CACHE[p]


def parse_ring(text):
    """Parse a ring tag as used by the CLI and diagram files: Z, Q, F<p>, Fp:<p>."""
    t = text.strip()
    if t in ("Z", "ZZ"):
        return ZZ
    if t in ("Q", "QQ"):
        return QQ
    p = t[3:] if t.startswith("Fp:") else t[1:] if t.startswith("F") else ""
    if p.isdecimal():
        return GF(int(p))
    raise RingError("unknown ring %r: expected one of Z, Q, F<p>, Fp:<p>" % text)
