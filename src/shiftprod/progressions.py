"""Generalized arithmetic and geometric progressions.

A GAP is the integer set  {r0 + sum_j x_j * r_j : 0 <= x_j < l_j}  with
dimension d >= 1 and every length l_j >= 3.  A GGP is its image under
k -> g0**k for a base g0, either a positive rational != 1 or a nonzero
prime-field element.  The formal length prod(l_j) counts exponent vectors;
the realized size counts distinct values.  A spec is proper when the two
agree.

Membership has two routes: symbolic (exponent recovery, this module) and
literal enumeration; the acceptance suite holds them equal.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Optional, Tuple

from .numeric import (
    ParseError,
    PrimeField,
    PrimeFieldElement,
    Scalar,
    domain_of,
    RATIONAL_DOMAIN,
    format_scalar,
    multiplicative_order,
    parse_scalar,
    scalar_pow,
    smallest_prime_factor,
)
from .setalg import ScalarSet, productset, sumset

__all__ = [
    "ExponentVector",
    "GapSpec",
    "GgpSpec",
    "GrowthCheck",
    "degeneracy_ratio",
    "enumerate_gap",
    "enumerate_ggp",
    "format_gap_spec",
    "format_ggp_spec",
    "gap_membership",
    "ggp_membership",
    "growth_check",
    "is_degenerate",
    "is_proper",
    "parse_gap_spec",
    "parse_ggp_spec",
    "realized_size",
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
            g = Fraction(self.g0)
            if g <= 0 or g == 1:
                raise ValueError("rational base must be positive and != 1")
            object.__setattr__(self, "g0", g.numerator if g.denominator == 1 else g)

    @property
    def domain(self):
        return domain_of(self.g0)

    @property
    def formal_length(self) -> int:
        return self.exponents.formal_length


def enumerate_gap(R: GapSpec) -> ScalarSet:
    return ScalarSet(_gap_values(R))


def _gap_values(R: GapSpec) -> set:
    return {R.value_at(v) for v in R.vectors()}


def enumerate_ggp(G: GgpSpec) -> ScalarSet:
    return ScalarSet(scalar_pow(G.g0, k) for k in _gap_values(G.exponents))


def gap_membership(R: GapSpec, k: int) -> Optional[ExponentVector]:
    """Lexicographically smallest exponent vector realizing k, or None."""
    for vec in R.vectors():
        if R.value_at(vec) == k:
            return vec
    return None


def _valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _rational_log(g0, x) -> Optional[int]:
    """The integer k with g0**k == x, if one exists (g0 > 0, g0 != 1)."""
    g = Fraction(g0)
    xf = Fraction(x)
    if xf <= 0:
        return None
    p, q = g.numerator, g.denominator
    pi = smallest_prime_factor(p if p > 1 else q)
    vg = _valuation(p, pi) - _valuation(q, pi)
    vx = _valuation(xf.numerator, pi) - _valuation(xf.denominator, pi)
    if vx % vg != 0:
        return None
    k = vx // vg
    return k if g ** k == xf else None


def ggp_membership(G: GgpSpec, x: Scalar) -> bool:
    """Symbolic membership: recover the exponent, then test it against the
    exponent GAP.  Never enumerates the progression."""
    if G.domain == RATIONAL_DOMAIN:
        if isinstance(x, PrimeFieldElement):
            return False
        k = _rational_log(G.g0, x)
        return k is not None and gap_membership(G.exponents, k) is not None
    q = G.domain
    if not isinstance(x, PrimeFieldElement) or x.modulus != q or x.residue == 0:
        return False
    g = G.g0
    ord_g = multiplicative_order(g)
    acc = 1
    e = None
    for t in range(ord_g):
        if acc == x.residue:
            e = t
            break
        acc = acc * g.residue % q
    if e is None:
        return False
    return any(k % ord_g == e for k in _gap_values(G.exponents))


def is_proper(spec) -> bool:
    """Realized size equals formal length."""
    if not isinstance(spec, (GapSpec, GgpSpec)):
        raise TypeError(f"not a progression spec: {spec!r}")
    return realized_size(spec) == spec.formal_length


def realized_size(spec) -> int:
    if isinstance(spec, GapSpec):
        return len(_gap_values(spec))
    exps = _gap_values(spec.exponents)
    if spec.domain == RATIONAL_DOMAIN:
        return len(exps)
    ord_g = multiplicative_order(spec.g0)
    return len({k % ord_g for k in exps})


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


def is_degenerate(spec, threshold: Fraction = Fraction(1)) -> bool:
    """Dimension too large for the length: ratio strictly above threshold."""
    return degeneracy_ratio(spec) > threshold


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
