"""Generalized arithmetic and geometric progressions.

A GAP is the integer set  {r0 + sum_j x_j * r_j : 0 <= x_j < l_j}  with
dimension d >= 1 and every length l_j >= 3.  A GGP is its image under
k -> g0**k for a base g0, either a positive rational != 1 or a nonzero
prime-field element.  The formal length prod(l_j) counts exponent vectors;
the realized size counts distinct values.  A spec is proper when the two
agree.

Each spec object computes its exponents once, as the cached attributes
``GapSpec.values``, ``GgpSpec.order`` and ``GgpSpec.residues``.

Powers and membership run on the int lattice items of ``setalg`` sets.
Membership has two routes: symbolic (exponent recovery from one item n
over d, this module) and literal enumeration; the acceptance suite holds
them equal.  Over Q the exponent of n/d is read off a prime valuation;
the prime and the base's own valuation are cached per base.  Over F_q, a
residue x is in <g0> exactly when x**ord(g0) == 1, and its exponent mod
ord(g0) is a bounded discrete log: Pohlig-Hellman with Shanks' baby-step
giant-step in each prime-order subgroup.  Its constants are cached per
base as a plan, one row per prime power p**e of ord(g0) (the cofactor c,
the inverse of g0**c, the generator of the subgroup of order p and the CRT
weight), so a probe makes one power x**c and its digit steps per row.
Its cost is about sqrt(p) steps for the largest prime p dividing ord(g0);
a spec whose baby-step table would exceed ``BSGS_TABLE_CAP`` entries is
refused with PreconditionError (:func:`require_bounded_log`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from fractions import Fraction
from math import isqrt, prod
from typing import Optional, Tuple

from .numeric import (
    ParseError,
    PreconditionError,
    PrimeField,
    PrimeFieldElement,
    Scalar,
    as_rational,
    factor,
    format_scalar,
    lift,
    multiplicative_order,
    parse_scalar,
)
from .setalg import PAIR_CAP, ScalarSet, productset, sumset

__all__ = [
    "BSGS_TABLE_CAP",
    "ExponentVector",
    "GapSpec",
    "GgpSpec",
    "GrowthCheck",
    "degeneracy_ratio",
    "enumerate_gap",
    "enumerate_ggp",
    "format_gap_spec",
    "format_ggp_spec",
    "ggp_membership",
    "ggp_powers",
    "growth_check",
    "is_proper",
    "parse_gap_spec",
    "parse_ggp_spec",
    "realized_size",
    "require_bounded_log",
]

ExponentVector = Tuple[int, ...]


@dataclass(frozen=True)
class GapSpec:
    """Spec of a generalized arithmetic progression of integers."""

    r0: int
    generators: Tuple[int, ...]
    lengths: Tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(int(g) for g in self.generators))
        object.__setattr__(self, "lengths", tuple(int(l) for l in self.lengths))
        if len(self.generators) < 1:
            raise ValueError("dimension must be at least 1")
        if len(self.generators) != len(self.lengths):
            raise ValueError("generators and lengths must align")
        if any(l < 3 for l in self.lengths):
            raise ValueError("every length must be at least 3")

    @property
    def dimension(self) -> int:
        return len(self.generators)

    @property
    def formal_length(self) -> int:
        return prod(self.lengths)

    def vectors(self):
        return itertools.product(*(range(l) for l in self.lengths))

    def value_at(self, vec: ExponentVector) -> int:
        return self.r0 + sum(x * r for x, r in zip(vec, self.generators))

    @cached_property
    def values(self) -> frozenset:
        """The distinct integers of the progression; more than PAIR_CAP
        exponent vectors are refused before any is enumerated."""
        if self.formal_length > PAIR_CAP:
            raise ValueError(f"progression has {self.formal_length} exponent "
                             f"vectors, above the cap {PAIR_CAP}")
        return frozenset(self.value_at(v) for v in self.vectors())


@dataclass(frozen=True)
class GgpSpec:
    """Spec of a generalized geometric progression: base g0 raised to the
    exponents of a GAP."""

    g0: Scalar
    exponents: GapSpec

    def __post_init__(self):
        if isinstance(self.g0, PrimeFieldElement):
            if self.g0.residue in (0, 1 % self.g0.modulus):
                raise ValueError("field base must be nonzero and != 1")
        else:
            g = as_rational(self.g0)
            if g <= 0 or g == 1:
                raise ValueError("rational base must be positive and != 1")
            object.__setattr__(self, "g0", g)

    @cached_property
    def domain(self):
        return lift([self.g0])[1]

    @property
    def formal_length(self) -> int:
        return self.exponents.formal_length

    @cached_property
    def order(self) -> Optional[int]:
        """ord(g0) over F_q; None over Q, where g0**k never repeats."""
        if isinstance(self.g0, PrimeFieldElement):
            return multiplicative_order(self.g0)
        return None

    @cached_property
    def residues(self) -> frozenset:
        """The exponent values, reduced mod ``order`` over F_q."""
        if self.order is None:
            return self.exponents.values
        return frozenset(k % self.order for k in self.exponents.values)


def enumerate_gap(R: GapSpec) -> ScalarSet:
    return ScalarSet(R.values)


def ggp_powers(G: GgpSpec, ks) -> ScalarSet:
    """{g0**k : k in ks}, built on the int lattice: the residues
    pow(g0, k, q) over F_q; over Q, for g0 = p/r, the items
    p**(k - lo) * r**(hi - k) over p**-lo * r**hi, with lo and hi the least
    and greatest of 0 and ks, and no Fraction built."""
    if G.order is None:
        ks = list(ks)
        p, r = G.g0.numerator, G.g0.denominator
        lo, hi = min([0, *ks]), max([0, *ks])
        return ScalarSet.from_lattice([p ** (k - lo) * r ** (hi - k) for k in ks],
                                      p ** -lo * r ** hi)
    q = G.domain
    return ScalarSet.from_lattice([pow(G.g0.residue, k, q) for k in ks], q, q)


def enumerate_ggp(G: GgpSpec) -> ScalarSet:
    return ggp_powers(G, G.residues)


def _valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


@lru_cache(maxsize=256)
def _rational_base(g0) -> Tuple[int, int]:
    """The least prime pi dividing the numerator of g0 (or, for g0 = 1/r,
    its denominator) and the valuation v_pi(g0), which is nonzero."""
    p, q = g0.numerator, g0.denominator
    pi = min(factor(p if p > 1 else q))
    return pi, _valuation(p, pi) - _valuation(q, pi)


def _rational_log(g0, n: int, d: int) -> Optional[int]:
    """The integer k with g0**k == n/d, if one exists (g0 > 0, g0 != 1,
    d > 0, n/d not necessarily reduced)."""
    if n <= 0:
        return None
    p, q = g0.numerator, g0.denominator
    pi, vg = _rational_base(g0)
    vx = _valuation(n, pi) - _valuation(d, pi)
    if vx % vg != 0:
        return None
    k = vx // vg
    num, den = (p ** k, q ** k) if k >= 0 else (q ** -k, p ** -k)
    return k if num * d == den * n else None


# The largest prime factor of ord(g0) may reach 2**36.  A table at the cap
# took 0.1 s and 26 MB to build (2 vCPU, Python 3.11).
BSGS_TABLE_CAP = 2 ** 18


def _table_size(p: int) -> int:
    """Baby steps m of Shanks' method in a group of prime order p: m*m >= p."""
    return isqrt(p - 1) + 1


def require_bounded_log(G: GgpSpec) -> None:
    """Refuse a field progression whose discrete log would build a
    baby-step table above BSGS_TABLE_CAP entries.  The largest table
    belongs to the largest prime factor of ord(g0); a safe prime
    q = 2p + 1 with a full-order base is the worst case."""
    if G.order is None:
        return
    m = _table_size(max(factor(G.order)))
    if m > BSGS_TABLE_CAP:
        raise PreconditionError(
            f"membership in powers of {format_scalar(G.g0)} needs a baby-step "
            f"table of {m} entries, above the cap {BSGS_TABLE_CAP}")


# 32 tables hold one per prime factor of any one order (at most 18 distinct
# primes below the primality bound), so the probes of one base never evict
# their own tables.  Only prime factors above 2**24, at most three per
# order, give tables over 4096 entries.
@lru_cache(maxsize=32)
def _baby_steps(gamma: int, p: int, q: int):
    """{gamma**j: j for j < m} mod q for gamma of prime order p, and the
    giant step gamma**-m."""
    table, acc = {}, 1
    for j in range(_table_size(p)):
        table[acc] = j
        acc = acc * gamma % q
    return table, pow(acc, -1, q)


def _subgroup_log(gamma: int, h: int, p: int, q: int) -> int:
    """The d in [0, p) with gamma**d == h mod q, gamma of prime order p and
    h a power of gamma: baby-step giant-step."""
    table, giant = _baby_steps(gamma, p, q)
    m = len(table)
    for i in range(m):
        j = table.get(h)
        if j is not None:
            return i * m + j
        h = h * giant % q
    raise ValueError(f"no discrete log to base {gamma} mod {q}")


# A plan is a few ints per prime factor of n, so many bases fit; the bound
# only keeps a long run over fresh bases from growing without end.
@lru_cache(maxsize=256)
def _log_plan(g: int, n: int, q: int) -> tuple:
    """The constants of a Pohlig-Hellman log to base g of order n mod q,
    one row per prime power p**e dividing n: p, e, c = n // p**e, the
    inverse of g**c (which has order p**e), gamma = g**(n // p) of order p,
    and the CRT weight c * (c**-1 mod p**e), which is 1 mod p**e and 0 mod
    every other prime power of n."""
    plan = []
    for p, e in factor(n).items():
        pe = p ** e
        c = n // pe
        plan.append((p, e, c, pow(pow(g, c, q), -1, q), pow(g, n // p, q),
                     c * pow(c, -1, pe)))
    return tuple(plan)


def _discrete_log(g: int, x: int, n: int, q: int) -> int:
    """The k in [0, n) with g**k == x mod q, for g of order n and x a power
    of g.  Pohlig-Hellman: x**c lies in the subgroup of order p**e for each
    prime power p**e dividing n, c = n // p**e, where k mod p**e is found
    one base-p digit at a time in the subgroup of order p; the residues are
    joined by the CRT weights of the cached :func:`_log_plan`."""
    k = 0
    for p, e, c, gc_inv, gamma, weight in _log_plan(g, n, q):
        xc = pow(x, c, q)
        kp, pi = 0, 1
        for i in range(e - 1, -1, -1):
            h = pow(xc * pow(gc_inv, kp, q) % q, p ** i, q)
            kp += _subgroup_log(gamma, h, p, q) * pi
            pi *= p
        k += kp * weight
    return k % n


def ggp_membership(G: GgpSpec, n: int, d: int) -> bool:
    """Symbolic membership of one lattice item of a set over G's domain,
    n/d over Q (d > 0, maybe unreduced) or n mod q over F_q (d = q): recover
    the exponent, then look it up.  Never enumerates the progression."""
    if G.order is None:
        k = _rational_log(G.g0, n, d)
        return k is not None and k in G.residues
    require_bounded_log(G)
    q, order = G.domain, G.order
    # both reduce n mod q, and pow(0, order, q) == 0: zero is no member
    return (pow(n, order, q) == 1
            and _discrete_log(G.g0.residue, n, order, q) in G.residues)


def is_proper(spec) -> bool:
    """Realized size equals formal length."""
    if not isinstance(spec, (GapSpec, GgpSpec)):
        raise TypeError(f"not a progression spec: {spec!r}")
    return realized_size(spec) == spec.formal_length


def realized_size(spec) -> int:
    if isinstance(spec, GapSpec):
        return len(spec.values)
    return len(spec.residues)


def degeneracy_ratio(spec) -> Fraction:
    """dimension / floor(log2(formal_length)), exactly.

    The denominator uses the bit-length-minus-one integer log, so the
    ratio is a clean rational and never touches floats.
    """
    R = spec.exponents if isinstance(spec, GgpSpec) else spec
    n = R.formal_length
    if n < 2:
        raise ValueError("formal length below 2 has no degeneracy ratio")
    return Fraction(R.dimension, n.bit_length() - 1)


@dataclass(frozen=True)
class GrowthCheck:
    size: int
    expanded_size: int
    bound: int
    passed: bool


def growth_check(spec) -> GrowthCheck:
    """Self sum (GAP) or self product (GGP) against the 2**d * length bound.

    Each coordinate range at most doubles under addition of exponents, so
    the expansion stays within 2**d of the formal length.
    """
    if isinstance(spec, GapSpec):
        S = enumerate_gap(spec)
        expanded = sumset(S, S)
        d, n = spec.dimension, spec.formal_length
    else:
        S = enumerate_ggp(spec)
        expanded = productset(S, S)
        d, n = spec.exponents.dimension, spec.formal_length
    bound = 2 ** d * n
    return GrowthCheck(len(S), len(expanded), bound, len(expanded) <= bound)


# ---------------------------------------------------------------------------
# text format, round-trip exact:
#   gap r0;r1,...,rd;l1,...,ld
#   ggp g0; gap r0;r1,...,rd;l1,...,ld

def format_gap_spec(R: GapSpec) -> str:
    gens = ",".join(str(r) for r in R.generators)
    lens = ",".join(str(l) for l in R.lengths)
    return f"gap {R.r0};{gens};{lens}"


def parse_gap_spec(text: str) -> GapSpec:
    s = text.strip()
    if not s.startswith("gap"):
        raise ParseError("progression text must start with 'gap'", text, 0)
    body = s[3:].strip()
    parts = body.split(";")
    if len(parts) != 3:
        raise ParseError("expected 'gap r0;generators;lengths'", text, len("gap "))
    try:
        r0 = int(parts[0].strip())
        gens = tuple(int(t) for t in parts[1].split(",") if t.strip())
        lens = tuple(int(t) for t in parts[2].split(",") if t.strip())
    except ValueError:
        raise ParseError("non-integer field in progression text", text,
                         text.find(";")) from None
    try:
        return GapSpec(r0, gens, lens)
    except ValueError as e:
        raise ParseError(str(e), text, len("gap ")) from None


def format_ggp_spec(G: GgpSpec) -> str:
    return f"ggp {format_scalar(G.g0)}; {format_gap_spec(G.exponents)}"


def parse_ggp_spec(text: str, field: Optional[PrimeField] = None) -> GgpSpec:
    s = text.strip()
    if not s.startswith("ggp"):
        raise ParseError("progression text must start with 'ggp'", text, 0)
    body = s[3:].strip()
    cut = body.find(";")
    if cut < 0:
        raise ParseError("missing ';' after the base", text, len("ggp "))
    g0 = parse_scalar(body[:cut], field)
    gap = parse_gap_spec(body[cut + 1:])
    try:
        return GgpSpec(g0, gap)
    except ValueError as e:
        raise ParseError(str(e), text, len("ggp ")) from None
