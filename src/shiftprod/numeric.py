"""Exact scalar arithmetic over the two ground domains.

A scalar is either a rational number (a plain ``int`` or a
``fractions.Fraction`` in canonical form) or an element of a prime field
``Z/qZ`` wrapped in :class:`PrimeFieldElement`.  Everything here is exact:
no floats enter any computation, and decimal readouts of irrational power
ratios are produced by integer root extraction at a stated digit count.

All values are immutable and all functions are pure.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Optional, Union

__all__ = [
    "DomainMismatchError",
    "ParseError",
    "PrimeField",
    "PrimeFieldElement",
    "RATIONAL_DOMAIN",
    "Scalar",
    "compare_power",
    "domain_of",
    "format_scalar",
    "is_prime",
    "join_domains",
    "multiplicative_order",
    "nth_root_floor",
    "parse_scalar",
    "power_ratio_decimal",
    "scalar_add",
    "scalar_is_zero",
    "scalar_mul",
    "scalar_pow",
    "smallest_prime_factor",
    "sort_key",
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


def smallest_prime_factor(n: int) -> int:
    """Least prime factor of n >= 2, by trial division up to the square
    root; the only factoring loop in the package."""
    if n % 2 == 0:
        return 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return f
        f += 2
    return n


def is_prime(n: int) -> bool:
    """Deterministic trial division up to the square root."""
    return n >= 2 and smallest_prime_factor(n) == n


@lru_cache(maxsize=None)
def _require_prime(q: int) -> None:
    if not is_prime(q):
        raise ValueError(f"modulus {q} is not prime")


class PrimeFieldElement:
    """One residue of Z/qZ with exact modular arithmetic.

    Plain ints mix freely (they are reduced mod q); rationals do not.
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
        if o is NotImplemented:
            return NotImplemented
        return PrimeFieldElement(self.residue + o.residue, self.modulus)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return PrimeFieldElement(self.residue - o.residue, self.modulus)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return PrimeFieldElement(o.residue - self.residue, self.modulus)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return PrimeFieldElement(self.residue * o.residue, self.modulus)

    __rmul__ = __mul__

    def __neg__(self):
        return PrimeFieldElement(-self.residue, self.modulus)

    def inverse(self) -> "PrimeFieldElement":
        if self.residue == 0:
            raise ZeroDivisionError("0 has no inverse")
        return PrimeFieldElement(pow(self.residue, -1, self.modulus), self.modulus)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if self.residue == 0 and k < 0:
            raise ZeroDivisionError("0 to a negative power")
        return PrimeFieldElement(pow(self.residue, k, self.modulus), self.modulus)

    def __eq__(self, other):
        return (isinstance(other, PrimeFieldElement)
                and self.residue == other.residue
                and self.modulus == other.modulus)

    def __hash__(self):
        return hash((self.residue, self.modulus))

    def __lt__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.residue < o.residue

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

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.q == self.q

    def __hash__(self):
        return hash(("PrimeField", self.q))

    def __repr__(self):
        return f"PrimeField({self.q})"


Scalar = Union[int, Fraction, PrimeFieldElement]

# Domain tags: RATIONAL_DOMAIN for int/Fraction values, the modulus q for
# field values, None for "empty, not yet pinned".
RATIONAL_DOMAIN = "Q"


def domain_of(x: Scalar):
    if isinstance(x, PrimeFieldElement):
        return x.modulus
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return RATIONAL_DOMAIN
    raise TypeError(f"not a scalar: {x!r}")


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


def scalar_add(a: Scalar, b: Scalar) -> Scalar:
    join_domains(domain_of(a), domain_of(b))
    return _canonical(a + b)


def scalar_mul(a: Scalar, b: Scalar) -> Scalar:
    join_domains(domain_of(a), domain_of(b))
    return _canonical(a * b)


def scalar_pow(g: Scalar, k: int) -> Scalar:
    """g**k for integer k of either sign, exactly."""
    if isinstance(g, PrimeFieldElement):
        return g ** k
    if g == 0 and k < 0:
        raise ZeroDivisionError("0 to a negative power")
    if isinstance(g, int):
        return g ** k if k >= 0 else Fraction(1, g ** (-k))
    return _canonical(g ** k)


def _canonical(x):
    # Integer-valued Fractions collapse to int: same value, hash and
    # equality, but much faster downstream arithmetic.
    if isinstance(x, Fraction) and x.denominator == 1:
        return x.numerator
    return x


def as_rational(x) -> Union[int, Fraction]:
    y = _canonical(Fraction(x) if not isinstance(x, int) else x)
    return y


def sort_key(x: Scalar):
    """Total order inside one domain; used for all deterministic output."""
    if isinstance(x, PrimeFieldElement):
        return x.residue
    return x


def multiplicative_order(g: PrimeFieldElement) -> int:
    """Order of g in the unit group of its field.

    Computed by stripping prime factors of q-1; the test suite checks it
    against direct power enumeration.
    """
    if g.residue == 0:
        raise ValueError("0 has no multiplicative order")
    q = g.modulus
    n = q - 1
    t = n
    for p in _prime_factors(n):
        while t % p == 0 and pow(g.residue, t // p, q) == 1:
            t //= p
    return t


def _prime_factors(n: int):
    out = []
    while n > 1:
        p = smallest_prime_factor(n)
        out.append(p)
        while n % p == 0:
            n //= p
    return out


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
        value = _canonical(Fraction(s))
    except (ValueError, ZeroDivisionError):
        raise ParseError("malformed rational", text, 0) from None
    if field is not None:
        if isinstance(value, int):
            return field(value)
        raise ParseError("non-integer text for a field scalar", text, 0)
    return value


# ---------------------------------------------------------------------------
# exact integer helpers for power comparisons and decimal readouts

def nth_root_floor(x: int, k: int) -> int:
    """floor(x ** (1/k)) for x >= 0, k >= 1, by integer Newton iteration."""
    if x < 0 or k < 1:
        raise ValueError("need x >= 0 and k >= 1")
    if x < 2 or k == 1:
        return x
    r = 1 << -(-x.bit_length() // k)
    while True:
        nr = ((k - 1) * r + x // r ** (k - 1)) // k
        if nr >= r:
            break
        r = nr
    while r ** k > x:
        r -= 1
    return r


def compare_power(x: int, base: int, exp: Fraction) -> int:
    """Exact sign of x - base**exp via cross powers; exp >= 0 rational."""
    if x < 0 or base < 1:
        raise ValueError("need x >= 0 and base >= 1")
    exp = Fraction(exp)
    if exp < 0:
        raise ValueError("need exp >= 0")
    lhs = x ** exp.denominator
    rhs = base ** exp.numerator
    return (lhs > rhs) - (lhs < rhs)


def power_ratio_decimal(num: int, base: int, exp: Fraction, digits: int = 20) -> str:
    """num / base**exp as a decimal string with `digits` fractional digits.

    Exact integer arithmetic throughout: the value is floor-rounded at the
    last digit, so repeated runs are byte identical.
    """
    if num < 0 or base < 1 or digits < 1:
        raise ValueError("need num >= 0, base >= 1, digits >= 1")
    exp = Fraction(exp)
    if exp < 0:
        raise ValueError("need exp >= 0")
    d = exp.denominator
    scaled = (num ** d) * 10 ** (digits * d) // (base ** exp.numerator)
    r = nth_root_floor(scaled, d)
    return f"{r // 10 ** digits}.{r % 10 ** digits:0{digits}d}"
