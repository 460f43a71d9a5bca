import random
from fractions import Fraction

import pytest

from shiftprod.numeric import (
    DomainMismatchError,
    ParseError,
    PrimeField,
    PrimeFieldElement,
    compare_power,
    format_scalar,
    is_prime,
    multiplicative_order,
    nth_root_floor,
    parse_scalar,
    power_ratio_decimal,
    scalar_add,
    scalar_mul,
    scalar_pow,
)


def test_is_prime_small():
    primes = [n for n in range(60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert is_prime(101)
    assert not is_prime(1)
    assert not is_prime(91)
    sieve = [False, False] + [True] * 9998
    for n in range(2, 100):
        if sieve[n]:
            sieve[n * n::n] = [False] * len(range(n * n, 10000, n))
    assert [is_prime(n) for n in range(10000)] == sieve


def test_field_element_basics():
    F = PrimeField(7)
    assert F(3) + F(5) == F(1)
    assert F(3) - F(5) == F(5)
    assert F(3) * F(5) == F(1)
    assert F(3) / F(5) == F(2)
    assert -F(3) == F(4)
    assert F(3) ** 2 == F(2)
    assert F(3) ** -1 == F(5)
    assert F(0) ** 3 == F(0)
    assert F(2).inverse() == F(4)


def test_field_int_coercion():
    F = PrimeField(7)
    assert F(3) + 1 == F(4)
    assert 1 + F(3) == F(4)
    assert 2 * F(5) == F(3)
    assert F(10) == F(3)


def test_field_mixing_errors():
    F = PrimeField(7)
    G = PrimeField(11)
    with pytest.raises(DomainMismatchError):
        F(3) + G(3)
    with pytest.raises(DomainMismatchError):
        F(3) * Fraction(1, 2)
    with pytest.raises(DomainMismatchError):
        Fraction(1, 2) + F(3)
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(ZeroDivisionError):
        F(1) / F(0)
    with pytest.raises(ZeroDivisionError):
        F(0) ** -2


def test_field_axioms_sampled():
    rng = random.Random(5)
    for q in (5, 13, 101):
        F = PrimeField(q)
        for _ in range(50):
            a, b, c = (F(rng.randrange(q)) for _ in range(3))
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + F(0) == a
            assert a * F(1) == a
            if a.residue != 0:
                assert a * a.inverse() == F(1)


def test_scalar_ops():
    assert scalar_add(1, Fraction(1, 2)) == Fraction(3, 2)
    assert scalar_mul(Fraction(2, 3), Fraction(3, 2)) == 1
    assert isinstance(scalar_mul(Fraction(2, 3), Fraction(3, 2)), int)
    F = PrimeField(5)
    assert scalar_add(F(4), F(3)) == F(2)
    with pytest.raises(DomainMismatchError):
        scalar_add(F(4), Fraction(1, 3))


def test_scalar_pow():
    assert scalar_pow(2, 10) == 1024
    assert scalar_pow(2, -2) == Fraction(1, 4)
    assert scalar_pow(Fraction(2, 3), -2) == Fraction(9, 4)
    assert scalar_pow(Fraction(3, 2), 0) == 1
    F = PrimeField(7)
    assert scalar_pow(F(3), -1) == F(5)
    with pytest.raises(ZeroDivisionError):
        scalar_pow(0, -1)


def test_multiplicative_order_known():
    F7 = PrimeField(7)
    assert multiplicative_order(F7(3)) == 6
    assert multiplicative_order(F7(2)) == 3
    assert multiplicative_order(F7(1)) == 1
    assert multiplicative_order(PrimeFieldElement(6, 7)) == 2
    with pytest.raises(ValueError):
        multiplicative_order(F7(0))


def test_multiplicative_order_against_enumeration():
    for q in (5, 7, 13, 31):
        F = PrimeField(q)
        for v in range(1, q):
            g = F(v)
            acc = g
            steps = 1
            while acc != F(1):
                acc = acc * g
                steps += 1
            assert multiplicative_order(g) == steps
            assert (q - 1) % steps == 0


def test_scalar_text_roundtrip():
    cases = [0, 5, -17, Fraction(4, 3), Fraction(-7, 2), PrimeFieldElement(3, 7)]
    for x in cases:
        assert parse_scalar(format_scalar(x)) == x
    assert format_scalar(Fraction(4, 2)) == "2"
    assert parse_scalar(" -3 mod 7 ") == PrimeFieldElement(4, 7)
    assert parse_scalar("4", PrimeField(5)) == PrimeFieldElement(4, 5)


def test_parse_scalar_errors():
    with pytest.raises(ParseError):
        parse_scalar("")
    with pytest.raises(ParseError):
        parse_scalar("x/y")
    with pytest.raises(ParseError):
        parse_scalar("3 mod abc")
    with pytest.raises(ParseError):
        parse_scalar("1/2", PrimeField(5))


def test_nth_root_floor():
    assert nth_root_floor(0, 3) == 0
    assert nth_root_floor(1, 5) == 1
    assert nth_root_floor(26, 3) == 2
    assert nth_root_floor(27, 3) == 3
    assert nth_root_floor(28, 3) == 3
    rng = random.Random(9)
    for _ in range(200):
        r = rng.randint(0, 10 ** 6)
        k = rng.randint(1, 7)
        x = rng.randint(0, 10 ** 12)
        f = nth_root_floor(x, k)
        assert f ** k <= x < (f + 1) ** k
        assert nth_root_floor(r ** k, k) == r


def test_compare_power():
    assert compare_power(2500, 101, Fraction(3, 2)) > 0
    assert compare_power(50, 101, Fraction(9, 10)) < 0
    assert compare_power(8, 2, Fraction(3)) == 0
    assert compare_power(3, 9, Fraction(1, 2)) == 0


def test_power_ratio_decimal():
    assert power_ratio_decimal(2, 2, Fraction(1, 2)) == "1.41421356237309504880"
    assert power_ratio_decimal(1, 2, Fraction(0)) == "1.00000000000000000000"
    assert power_ratio_decimal(0, 7, Fraction(1, 3)) == "0.00000000000000000000"
    assert power_ratio_decimal(10, 10, Fraction(1)) == "1.00000000000000000000"
    assert power_ratio_decimal(7, 2, Fraction(3)) == "0.87500000000000000000"
    # floor rounding at the stated digit count, longer readouts only refine
    d5 = power_ratio_decimal(2, 3, Fraction(1, 2), digits=5)
    d20 = power_ratio_decimal(2, 3, Fraction(1, 2), digits=20)
    assert d20.startswith(d5[:-1])
