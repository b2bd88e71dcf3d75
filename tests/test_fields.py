from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from mrbder.fields import Field, ParseError, QQ, is_prime

rationals = st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 4)
residues5 = st.integers(min_value=0, max_value=4)


def test_field_names():
    assert Field.from_name("Q").p is None
    assert Field.from_name("q").p is None
    assert Field.from_name("Fp:7").p == 7
    assert Field.from_name("fp:13").p == 13
    assert Field.prime(5).name == "Fp:5"
    assert QQ.name == "Q"


@pytest.mark.parametrize("bad", ["F:5", "Fp:", "Fp:abc", "R", "", "Fp:4", "Fp:1"])
def test_bad_field_names(bad):
    with pytest.raises(ParseError):
        Field.from_name(bad)


def test_is_prime_small():
    primes = [p for p in range(50) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def test_is_prime_agrees_with_trial_division():
    def trial(n):
        return n >= 2 and all(n % f for f in range(2, int(n ** 0.5) + 1))
    assert [n for n in range(20000) if is_prime(n)] == [n for n in range(20000) if trial(n)]


@pytest.mark.parametrize("n", [3215031751, 3825123056546413051])
def test_strong_pseudoprimes_rejected(n):
    # strong pseudoprimes to the bases 2, 3, 5, 7 and to 2..23 respectively
    assert not is_prime(n)
    with pytest.raises(ParseError):
        Field.prime(n)


def test_large_primes():
    assert is_prime(2 ** 61 - 1) and not is_prime(2 ** 61 + 1)
    assert Field.from_name("Fp:%d" % (2 ** 61 - 1)).p == 2 ** 61 - 1
    # beyond the range where the Miller-Rabin bases are exact
    with pytest.raises(ParseError, match="too large"):
        Field.from_name("Fp:%d" % (2 ** 127 - 1))
    with pytest.raises(ValueError):
        is_prime(2 ** 127 - 1)


@given(a=rationals, b=rationals, c=rationals)
def test_rational_ring_axioms(a, b, c):
    F = QQ
    assert F.add(a, F.add(b, c)) == F.add(F.add(a, b), c)
    assert F.mul(a, F.mul(b, c)) == F.mul(F.mul(a, b), c)
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    assert F.add(a, F.neg(a)) == F.zero
    assert F.sub(a, b) == F.add(a, F.neg(b))


@given(a=rationals)
def test_rational_inverse(a):
    if a != 0:
        assert QQ.mul(a, QQ.inv(a)) == QQ.one


@given(a=residues5, b=residues5, c=residues5)
def test_prime_field_axioms(a, b, c):
    F = Field.prime(5)
    assert F.add(a, F.add(b, c)) == F.add(F.add(a, b), c)
    assert F.mul(a, F.mul(b, c)) == F.mul(F.mul(a, b), c)
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    assert F.add(a, F.neg(a)) == 0
    if a:
        assert F.mul(a, F.inv(a)) == 1


def test_zero_inverse_raises():
    with pytest.raises(ZeroDivisionError):
        QQ.inv(QQ.zero)
    with pytest.raises(ZeroDivisionError):
        Field.prime(5).inv(0)


@given(a=rationals)
def test_parse_round_trip_q(a):
    assert QQ.parse(QQ.to_str(a)) == a


@given(a=residues5)
def test_parse_round_trip_f5(a):
    F = Field.prime(5)
    assert F.parse(F.to_str(a)) == a


def test_parse_literals():
    assert QQ.parse("3/4") == Fraction(3, 4)
    assert QQ.parse("-7") == Fraction(-7)
    assert QQ.parse(5) == Fraction(5)
    F7 = Field.prime(7)
    assert F7.parse("3/4") == (3 * pow(4, -1, 7)) % 7
    assert F7.parse(-1) == 6
    assert F7.parse("10") == 3


@pytest.mark.parametrize("bad", [0.5, True, False, None, [1], "a/b/c", "x", "1/0"])
def test_parse_rejects(bad):
    with pytest.raises(ParseError):
        QQ.parse(bad)


def test_parse_rejects_bad_denominator_mod_p():
    with pytest.raises(ParseError):
        Field.prime(5).parse("1/5")


def test_inexact_scalar_message():
    with pytest.raises(ParseError, match="inexact-scalar"):
        QQ.parse(0.25)


def test_pow():
    F = Field.prime(5)
    assert F.pow(2, 0) == 1
    assert F.pow(2, 4) == 1
    assert QQ.pow(Fraction(2, 3), 3) == Fraction(8, 27)


def test_elements_and_random():
    import random
    F = Field.prime(3)
    assert F.elements() == [0, 1, 2]
    with pytest.raises(ValueError):
        QQ.elements()
    rng = random.Random(0)
    vals = {F.random(rng) for _ in range(50)}
    assert vals == {0, 1, 2}
    q = QQ.random(rng)
    assert isinstance(q, Fraction)
