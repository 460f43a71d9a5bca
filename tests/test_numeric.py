import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from reference import compare_power, ref_nth_root_floor, ref_power_ratio_decimal
from shiftprod import numeric
from shiftprod.harness import READOUT_DEGREE_CAP
from shiftprod.numeric import (
    MR_EXACT_BELOW,
    DomainMismatchError,
    ParseError,
    PreconditionError,
    PrimeField,
    PrimeFieldElement,
    _require_prime,
    factor,
    format_scalar,
    is_prime,
    multiplicative_order,
    nth_root_floor,
    parse_scalar,
    power_ratio_decimal,
)


def _trial_division_is_prime(n):
    return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))


def test_is_prime_small():
    primes = [n for n in range(60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert not is_prime(1)
    assert not is_prime(91)


def test_is_prime_matches_sieve_below_a_million():
    N = 10 ** 6
    sieve = bytearray([0, 0]) + bytearray([1]) * (N - 2)
    for n in range(2, math.isqrt(N) + 1):
        if sieve[n]:
            sieve[n * n::n] = bytes(len(range(n * n, N, n)))
    assert [is_prime(n) for n in range(N)] == [bool(b) for b in sieve]
    assert all(is_prime(n) == _trial_division_is_prime(n) for n in range(2000))


def test_is_prime_on_pseudoprimes():
    carmichael = [561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841,
                  29341, 41041, 46657, 52633, 62745, 63973, 75361]
    # the smallest strong pseudoprime to the bases 2, 3, 5 and 7
    for n in carmichael + [3215031751]:
        assert not _trial_division_is_prime(n)
        assert not is_prime(n)
    for p in (2 ** 31 - 1, 2 ** 61 - 1, 10 ** 18 + 3, 4294967291):
        assert is_prime(p)
    assert not is_prime((2 ** 31 - 1) * 4294967291)


def test_is_prime_refuses_above_its_bound():
    n = MR_EXACT_BELOW | 1
    while any(n % p == 0 for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)):
        n += 2
    with pytest.raises(PreconditionError, match="primality bound"):
        is_prime(n)
    # the bound itself has no factor among the bases, and is refused too
    with pytest.raises(PreconditionError,
                       match=f"^{MR_EXACT_BELOW} is at or above the deterministic "
                             f"primality bound {MR_EXACT_BELOW}$"):
        is_prime(MR_EXACT_BELOW)
    assert not is_prime(MR_EXACT_BELOW * 2)


def test_factor_multiplies_back():
    rng = random.Random(11)
    cases = [1, 2, 1024, 1025, 2 ** 64 - 1, 10 ** 18 + 2, 4294967290,
             1000003 ** 2, 1000003 * 1000033, (2 ** 31 - 1) ** 2 * 6,
             (2 ** 31 - 1) * 4294967291]
    cases += [rng.randrange(1, 10 ** 24) for _ in range(40)]
    for n in cases:
        f = factor(n)
        assert math.prod(p ** e for p, e in f.items()) == n
        assert list(f) == sorted(f)
        assert all(is_prime(p) and e >= 1 for p, e in f.items())
    assert dict(factor(360)) == {2: 3, 3: 2, 5: 1}
    with pytest.raises(TypeError):
        factor(360)[7] = 1


def test_factor_refuses_without_a_split(monkeypatch):
    monkeypatch.setattr(numeric, "RHO_STEP_CAP", 4)
    with pytest.raises(PreconditionError, match="rho steps"):
        factor(1000037 * 1000039)


def test_factor_cache_is_bounded():
    maxsize = factor.cache_info().maxsize
    assert maxsize is not None
    for n in range(10 ** 6, 10 ** 6 + maxsize + 10):
        factor(n)
    assert factor.cache_info().currsize <= maxsize


def test_field_element_basics():
    F = PrimeField(7)
    assert F(3) + F(5) == F(1)
    assert F(3) * F(5) == F(1)
    # inverses are taken on residues
    assert F(pow(3, -1, 7)) == F(5)
    assert F(pow(2, -1, 7)) == F(4)
    assert F(3) * F(pow(5, -1, 7)) == F(2)


def test_field_element_is_a_value_type():
    # residue, modulus, ==, hash, str and repr; * and + stay for the
    # benchmark's checks, and nothing compares or divides elements
    methods = {n for n, v in vars(PrimeFieldElement).items() if callable(v)}
    assert methods == {"__init__", "__setattr__", "_coerce", "__add__", "__mul__",
                       "__eq__", "__hash__", "__repr__", "__str__"}
    F = PrimeField(7)
    assert (F(3).residue, F(3).modulus, repr(F(3)), str(F(3))) == (3, 7, "F7(3)", "3 mod 7")
    assert hash(F(10)) == hash(F(3)) and F(3) != PrimeField(11)(3)
    with pytest.raises(AttributeError):
        F(3).residue = 4
    with pytest.raises(TypeError):
        F(3) < F(5)
    with pytest.raises(TypeError):
        F(3) - F(5)


def test_field_int_coercion():
    F = PrimeField(7)
    assert F(3) + 1 == F(4)
    assert F(5) * 2 == F(3)
    assert F(10) == F(3)


def test_field_mixing_errors():
    F = PrimeField(7)
    G = PrimeField(11)
    with pytest.raises(DomainMismatchError):
        F(3) + G(3)
    with pytest.raises(DomainMismatchError):
        F(3) * Fraction(1, 2)
    with pytest.raises(DomainMismatchError):
        F(3) + Fraction(1, 2)
    with pytest.raises(ValueError):
        PrimeField(6)


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
                assert a * F(pow(a.residue, -1, q)) == F(1)


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


def test_prime_cache_is_bounded():
    maxsize = _require_prime.cache_info().maxsize
    assert maxsize is not None
    primes = (p for p in itertools.count(2) if is_prime(p))
    for p in itertools.islice(primes, maxsize + 10):
        PrimeFieldElement(1, p)
    assert _require_prime.cache_info().currsize <= maxsize


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
    with pytest.raises(ParseError, match="non-integer text for a field scalar"):
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
    for x, k, d in ((5, 2, 0), (5, 2, -3), (-1, 2, 1), (5, 0, 1)):
        with pytest.raises(ValueError):
            nth_root_floor(x, k, d)


# nth_root_floor steps roots below about 2**40 by +-1 from a start read
# off logs and takes Newton steps, with the divisor folded in, above; every
# d*r**k - 1, d*r**k, d*r**k + 1 is a floor boundary
@st.composite
def _root_cases(draw):
    k = draw(st.integers(1, 200))
    bits = draw(st.integers(0, 10000 // k))
    r = draw(st.integers(0, 2 ** bits))
    d = draw(st.one_of(st.just(1), st.integers(1, 2 ** 64),
                       st.integers(1, 2 ** (k * bits + 1))))
    x = draw(st.one_of(st.integers(-1, 1).map(lambda c: max(0, d * r ** k + c)),
                       st.integers(0, d * 2 ** (k * bits + 1))))
    return x, k, d


def _is_floor_root(r, x, k, d):
    return d * r ** k <= x < d * (r + 1) ** k


@settings(max_examples=400)
@given(_root_cases())
def test_nth_root_floor_matches_reference(case):
    x, k, d = case
    r = nth_root_floor(x, k, d)
    assert _is_floor_root(r, x, k, d)
    assert r == ref_nth_root_floor(x // d, k)
    if d == 1:
        assert nth_root_floor(x, k) == r


_BOUNDARY_ROOTS = (1, 2, 3, 21, 2 ** 40 - 1, 2 ** 40, 2 ** 40 + 1, 2 ** 52,
                   2 ** 53 + 1, 2 ** 1100 + 7)


@pytest.mark.parametrize("k", [3, 9, 10, 11, 100, 200])
def test_nth_root_floor_at_route_boundaries(k):
    # the +-1 route ends at 2**40, the float start's mantissa at 2**53
    for r in _BOUNDARY_ROOTS:
        for d in (1, 3, 2 ** 61 - 1):
            for x in (d * r ** k - 1, d * r ** k, d * r ** k + 1):
                assert nth_root_floor(x, k, d) == (r if x >= d * r ** k else r - 1)


@pytest.mark.parametrize("k", [1000, 4096, 9999, 10000])
def test_nth_root_floor_certified_up_to_the_degree_cap(k):
    assert k <= READOUT_DEGREE_CAP
    rng = random.Random(k)
    for r in (1, 2, 3, 21, rng.randint(4, 1000)):
        for d in (1, 3, 2 ** 61 - 1, rng.randint(1, 2 ** 200)):
            lo = d * r ** k
            for x in (lo - 1, lo, lo + 1, rng.randint(lo, d * (r + 1) ** k - 1)):
                assert _is_floor_root(nth_root_floor(x, k, d), x, k, d)


# roots on both sides of the +-1 route, kept small below it, where a start
# of 1 walks up one at a time
@settings(max_examples=150)
@given(st.integers(1, 6),
       st.one_of(st.integers(0, 2 ** 12), st.integers(2 ** 40 + 1, 2 ** 300)),
       st.sampled_from([1, 3, 2 ** 61 - 1]), st.integers(-1, 1))
def test_nth_root_floor_does_not_depend_on_its_start(k, r, d, c):
    x = max(0, d * r ** k + c)
    want = nth_root_floor(x, k, d)
    assert _is_floor_root(want, x, k, d)
    bits = (x.bit_length() - d.bit_length()) // k + 1  # 2**bits > the root
    for start in (1, want, 2 ** bits):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(numeric, "_root_start", lambda *_: start)
            assert nth_root_floor(x, k, d) == want


# the readout exponents of the field and rational pipelines at the bench's
# epsilon and delta, with |A||AA| up to q**2
@settings(max_examples=150)
@given(st.sampled_from([Fraction(99, 100), Fraction(151, 100), Fraction(9, 10),
                        Fraction(1, 10), Fraction(29, 30), Fraction(8, 9),
                        Fraction(2, 3)]),
       st.integers(1, 1000003), st.integers(0, 1000003 ** 2))
def test_power_ratio_decimal_matches_reference(exp, base, num):
    assert power_ratio_decimal(num, base, exp) == ref_power_ratio_decimal(num, base, exp)


def test_compare_power():
    assert compare_power(2500, 101, Fraction(3, 2)) > 0
    assert compare_power(50, 101, Fraction(9, 10)) < 0
    assert compare_power(8, 2, Fraction(3)) == 0
    assert compare_power(3, 9, Fraction(1, 2)) == 0


FLAG_PRIMES = [p for p in range(2, 200) if is_prime(p)] + [100003, 1000003]


@st.composite
def _readout_case(draw):
    """(num, prime q, exp) with num near q**exp, where the flags turn, or
    anywhere up to q**3."""
    q = draw(st.sampled_from(FLAG_PRIMES))
    exp = draw(st.fractions(min_value=0, max_value=3, max_denominator=60))
    near = ref_nth_root_floor(q ** exp.numerator, exp.denominator)
    num = draw(st.one_of(st.integers(max(0, near - 2), near + 2), st.integers(0, q ** 3)))
    return num, q, exp


# The field pipeline reads cond1_ok and q_delta_bound (v >= 1) and cond2_ok
# (v <= 1, exponent 1 - delta in (0, 1)) off the readout of v = num / q**exp
@settings(max_examples=300)
@given(_readout_case())
def test_flags_read_off_readouts_match_the_oracle(case):
    num, q, exp = case
    v = Fraction(power_ratio_decimal(num, q, exp))
    assert (v >= 1) == (compare_power(num, q, exp) >= 0)
    if 0 < exp < 1:
        assert (v < 1) == (compare_power(num, q, exp) <= 0)


def test_strict_read_needs_a_prime_base():
    # num = base**exp exactly reads 1 and so fails v < 1 though v <= 1 holds;
    # a prime q and an exponent in (0, 1) leave no such num
    for num, base, exp in ((8, 4, Fraction(3, 2)), (2, 4, Fraction(1, 2))):
        assert compare_power(num, base, exp) == 0
        assert power_ratio_decimal(num, base, exp) == "1.00000000000000000000"
        assert not Fraction(power_ratio_decimal(num, base, exp)) < 1


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


def test_power_ratio_decimal_near_the_degree_cap():
    # 2**35 over (2**50)**(9999/10000), its value read before base**a was
    # folded into the root's Newton steps
    assert (power_ratio_decimal(2 ** 35, 2 ** 50, Fraction(9999, 10000))
            == "0.00003062352748136910")
    # the reference root crawls at this degree, so check the floor itself
    for exp in (Fraction(1, 10000), Fraction(9999, 10000), Fraction(20001, 10000)):
        a, b = exp.numerator, exp.denominator
        for num, base in ((1, 2), (7, 3), (2500, 101)):
            r = int(power_ratio_decimal(num, base, exp).replace(".", ""))
            assert _is_floor_root(r, num ** b * 10 ** (20 * b), b, base ** a)
