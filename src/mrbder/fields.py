"""Exact scalar arithmetic over Q and prime fields F_p.

Scalars are plain values: ``fractions.Fraction`` over Q, canonical residues
(ints in ``range(p)``) over F_p.  A :class:`Field` instance carries the
operations; containers store raw scalars plus the field.  No floats anywhere.
"""

from __future__ import annotations

import sys
from fractions import Fraction


class ParseError(ValueError):
    """Malformed field name, scalar literal, or inexact (float) input."""


# Miller-Rabin with these bases decides primality exactly below MAX_PRIME
# (Sorenson & Webster, "Strong pseudoprimes to twelve prime bases", 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_PRIME = 3_317_044_064_679_887_385_961_981

# The most objects over a finite field that are listed one by one: the H^2
# classes of ``extension.classify``, and the p^4 candidate operators that
# ``fuzzing`` enumerates for a 2-dimensional algebra; also the most instances
# one ``fuzz`` call draws, all of which it builds before it writes any.
CLASS_ENUMERATION_CAP = 4096

# Over Q every ``zero`` is this one (immutable) object, so a scan for nonzero
# entries can pass over most zeros with an identity test; see linalg.
_Q_ZERO = Fraction(0)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < MAX_PRIME."""
    if n >= MAX_PRIME:
        raise ValueError("primality of %d is not decided (limit %d)" % (n, MAX_PRIME))
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Value:
    """Base of the package's immutable values, written once instead of the
    methods a frozen dataclass compiles anew in every process.

    A subclass names its slots in ``__slots__``; those without a leading
    ``_`` are its fields, in constructor order, and the others are kept
    outside its value.  A class whose field is a view (a property over
    other slots) names its fields in ``_fields`` instead.  Its ``__init__``
    stores every slot with :meth:`_init` and then runs its checks.  As for a
    frozen dataclass: instances of one class are equal when their fields are
    (other classes get ``NotImplemented``), the hash is that of the tuple of
    fields, ``repr`` is ``Name(field=value, ...)`` and attributes can be
    neither assigned nor deleted.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        if "_fields" not in cls.__dict__:
            cls._fields = tuple(n for n in cls.__slots__ if not n.startswith("_"))

    def _init(self, *values):
        """Store ``values`` in the slots, in the order of ``__slots__``."""
        for name, v in zip(self.__slots__, values):
            object.__setattr__(self, name, v)

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return "%s(%s)" % (self.__class__.__qualname__,
                           ", ".join("%s=%r" % (f, getattr(self, f)) for f in self._fields))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % (name,))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % (name,))

    def __reduce__(self):
        # copy and pickle rebuild the value through __init__
        return self.__class__, self._values()


class Field(Value):
    """Ground field: Q when ``p`` is None, otherwise F_p with p prime."""

    __slots__ = ("p",)

    def __init__(self, p: int | None = None):
        self._init(p)
        if p is not None and p >= MAX_PRIME:
            raise ParseError("prime too large: %d (the limit is %d)" % (p, MAX_PRIME))
        if p is not None and not is_prime(p):
            raise ParseError("not a prime: %r" % (p,))

    @staticmethod
    def prime(p: int) -> "Field":
        return Field(p)

    @staticmethod
    def from_name(name: str) -> "Field":
        """Parse "Q" or "Fp:<p>" (case-insensitive)."""
        s = name.strip()
        if s.upper() == "Q":
            return Field(None)
        low = s.lower()
        if low.startswith("fp:"):
            try:
                p = int(s[3:])
            except ValueError:
                raise ParseError("bad field name: %r" % (name,)) from None
            return Field(p)
        raise ParseError("bad field name: %r" % (name,))

    @property
    def name(self) -> str:
        return "Q" if self.p is None else "Fp:%d" % self.p

    @property
    def zero(self):
        return _Q_ZERO if self.p is None else 0

    @property
    def one(self):
        return Fraction(1) if self.p is None else 1

    def from_int(self, n: int):
        return Fraction(n) if self.p is None else n % self.p

    def parse(self, text):
        """Exact scalar from an int or a string "a" / "a/b".  Floats rejected."""
        if isinstance(text, int) and not isinstance(text, bool):
            return self.from_int(text)
        if not isinstance(text, str):
            raise ParseError("inexact-scalar: %r" % (text,))
        s = text.strip()
        try:
            if "/" in s:
                num_s, den_s = s.split("/")
                num, den = int(num_s), int(den_s)
            else:
                num, den = int(s), 1
        except ValueError:
            raise ParseError("bad scalar literal: %r" % (text,)) from None
        if den == 0:
            raise ParseError("zero denominator: %r" % (text,))
        if self.p is None:
            return Fraction(num, den)
        if den % self.p == 0:
            raise ParseError("denominator not invertible mod %d: %r" % (self.p, text))
        return (num * pow(den, -1, self.p)) % self.p

    def to_str(self, x) -> str:
        try:
            return str(x) if self.p is None else str(x % self.p)
        except ValueError:      # Python writes no int of more digits than its limit
            limit = sys.get_int_max_str_digits()
            raise ValueError("number of more than %d digits" % limit) from None

    def add(self, a, b):
        return a + b if self.p is None else (a + b) % self.p

    def sub(self, a, b):
        return a - b if self.p is None else (a - b) % self.p

    def mul(self, a, b):
        return a * b if self.p is None else (a * b) % self.p

    def neg(self, a):
        return -a if self.p is None else (-a) % self.p

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroDivisionError("field inverse of zero")
        return Fraction(1) / a if self.p is None else pow(a, -1, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, n: int):
        if n < 0:
            return self.inv(self.pow(a, -n))
        out = self.one
        for _ in range(n):
            out = self.mul(out, a)
        return out

    def is_zero(self, a) -> bool:
        return a == 0 if self.p is None else a % self.p == 0

    def elements(self):
        """All field elements; finite fields only."""
        if self.p is None:
            raise ValueError("Q is not enumerable")
        return [i for i in range(self.p)]

    def random(self, rng):
        """Uniform residue over F_p; small random fraction over Q."""
        if self.p is not None:
            return rng.randrange(self.p)
        return Fraction(rng.randint(-9, 9), rng.randint(1, 4))


QQ = Field(None)
