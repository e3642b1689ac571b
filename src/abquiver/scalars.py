"""Exact coefficient rings: the rationals, prime fields and the integers.

Scalars are plain Python values (Fraction for Q, int for F_p and Z); a ring
object supplies the arithmetic so matrices can stay ring-agnostic.  No
floating point appears anywhere.
"""

from fractions import Fraction

from .errors import EngineError, MismatchError


def _is_prime(n):
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class ScalarRing:
    """One of Q, F_p, Z.  Instances are immutable, hashable and comparable."""

    is_field = False
    name = "?"

    def zero(self):
        return self.from_int(0)

    def one(self):
        return self.from_int(1)

    def from_int(self, n):
        raise NotImplementedError

    def coerce(self, value):
        """Accept ints (any ring), Fractions (Q only) and ring scalars."""
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def is_zero(self, a):
        return a == 0

    def invert(self, a):
        raise EngineError("%s is not a field" % self.name)

    def parse(self, text):
        raise NotImplementedError

    def __eq__(self, other):
        return type(self) is type(other) and self.name == other.name

    def __hash__(self):
        return hash(self.name)

    def __repr__(self):
        return self.name


class RationalField(ScalarRing):
    is_field = True
    name = "Q"

    def from_int(self, n):
        return Fraction(n)

    def coerce(self, value):
        if isinstance(value, (int, Fraction)):
            return Fraction(value)
        raise MismatchError("cannot coerce %r into Q" % (value,))

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def invert(self, a):
        if a == 0:
            raise EngineError("division by zero in Q")
        return 1 / Fraction(a)

    def parse(self, text):
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            raise MismatchError("bad rational literal %r" % text)


class PrimeField(ScalarRing):
    is_field = True

    def __init__(self, p):
        if not _is_prime(p):
            raise EngineError("%r is not prime" % (p,))
        self.p = p
        self.name = "Fp(%d)" % p

    def from_int(self, n):
        return n % self.p

    def coerce(self, value):
        if isinstance(value, int):
            return value % self.p
        if isinstance(value, Fraction) and value.denominator == 1:
            return value.numerator % self.p
        raise MismatchError("cannot coerce %r into %s" % (value, self.name))

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def invert(self, a):
        a %= self.p
        if a == 0:
            raise EngineError("division by zero in %s" % self.name)
        return pow(a, self.p - 2, self.p)

    def parse(self, text):
        try:
            return int(text) % self.p
        except ValueError:
            raise MismatchError("bad %s literal %r" % (self.name, text))


class IntegerRing(ScalarRing):
    is_field = False
    name = "Z"

    def from_int(self, n):
        return int(n)

    def coerce(self, value):
        if isinstance(value, int):
            return value
        if isinstance(value, Fraction) and value.denominator == 1:
            return value.numerator
        raise MismatchError("cannot coerce %r into Z" % (value,))

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def parse(self, text):
        try:
            return int(text)
        except ValueError:
            raise MismatchError("bad integer literal %r" % text)


QQ = RationalField()
ZZ = IntegerRing()


def GF(p):
    return PrimeField(p)


def ring_from_tag(tag):
    """Parse a ring tag: ``Q``, ``Z``, ``Fp(5)`` or the flag form ``Fp:5``."""
    tag = tag.strip()
    if tag == "Q":
        return QQ
    if tag == "Z":
        return ZZ
    for prefix, suffix in (("Fp(", ")"), ("Fp:", "")):
        if tag.startswith(prefix) and tag.endswith(suffix):
            body = tag[len(prefix):len(tag) - len(suffix) or None]
            try:
                return PrimeField(int(body))
            except ValueError:
                break
    raise MismatchError("unknown ring tag %r" % tag)


def check_same_ring(*rings):
    first = rings[0]
    for r in rings[1:]:
        if r != first:
            raise MismatchError("ring mismatch: %s vs %s" % (first, r))
    return first
