"""Exact scalar arithmetic over Q and prime fields F_p.

Scalars are plain values: ``fractions.Fraction`` over Q, canonical residues
(ints in ``range(p)``) over F_p.  A :class:`Field` instance carries the
operations; containers store raw scalars plus the field.  No floats anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


class ParseError(ValueError):
    """Malformed field name, scalar literal, or inexact (float) input."""


# Miller-Rabin with these bases decides primality exactly below MAX_PRIME
# (Sorenson & Webster, "Strong pseudoprimes to twelve prime bases", 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_PRIME = 3_317_044_064_679_887_385_961_981


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


@dataclass(frozen=True)
class Field:
    """Ground field: Q when ``p`` is None, otherwise F_p with p prime."""

    p: int | None = None

    def __post_init__(self):
        if self.p is not None and self.p >= MAX_PRIME:
            raise ParseError("prime too large: %d (the limit is %d)" % (self.p, MAX_PRIME))
        if self.p is not None and not is_prime(self.p):
            raise ParseError("not a prime: %r" % (self.p,))

    @staticmethod
    def rationals() -> "Field":
        return Field(None)

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
    def is_rational(self) -> bool:
        return self.p is None

    @property
    def zero(self):
        return Fraction(0) if self.p is None else 0

    @property
    def one(self):
        return Fraction(1) if self.p is None else 1

    def from_int(self, n: int):
        return Fraction(n) if self.p is None else n % self.p

    def parse(self, text):
        """Exact scalar from an int or a string "a" / "a/b".  Floats rejected."""
        if isinstance(text, bool):
            raise ParseError("inexact-scalar: %r" % (text,))
        if isinstance(text, int):
            return self.from_int(text)
        if isinstance(text, float):
            raise ParseError("inexact-scalar: %r" % (text,))
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
        if self.p is None:
            return str(x)
        return str(x % self.p)

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

    def random(self, rng, bound: int = 9):
        """Uniform residue over F_p; small random fraction over Q."""
        if self.p is not None:
            return rng.randrange(self.p)
        return Fraction(rng.randint(-bound, bound), rng.randint(1, 4))


QQ = Field(None)
