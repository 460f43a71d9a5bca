"""Generalized arithmetic and geometric progressions.

A GAP is the integer set  {r0 + sum_j x_j * r_j : 0 <= x_j < l_j}  with
dimension d >= 1 and every length l_j >= 3.  A GGP is its image under
k -> g0**k for a base g0, either a positive rational != 1 or a nonzero
prime-field element.  The formal length prod(l_j) counts exponent vectors;
the realized size counts distinct values.  A spec is proper when the two
agree.

Both spec types give ``exponents`` (a GAP is its own), ``order`` (ord(g0)
over F_q, else None) and the cached exponent set ``residues``; a GGP also
caches its ``powers``.  Every count comes from one fold, ``gap_values``,
reduced mod n = ord(g0) over F_q as it goes: one generator r of length l
at a time, each adding only its distinct multiples x*r, l of them over Z
(1 when r == 0) and min(l, n // gcd(r, n)) mod n.  ``gap_size`` reads
that count for one generator with no exponent built, so such a progression
over the cap is refused before any is built; ``sum_size`` reads |S+S| and
|G*G| off the fold of R + R, with no value built.

Powers and membership run on the int lattice items of ``setalg`` sets.
Membership has one route: a lookup of one item in the items of the cached
powers, n mod q over F_q, and n*m/d over Q for powers held over m.  The
powers of a rational base are refused before any is built when their
numerators would take more than LATTICE_BIT_CAP bits in all.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import gcd, prod
from typing import Optional, Tuple

from .numeric import (
    ParseError,
    PrimeField,
    PrimeFieldElement,
    Scalar,
    as_rational,
    format_scalar,
    lift,
    multiplicative_order,
    parse_scalar,
)
from .setalg import (
    LATTICE_BIT_CAP,
    PAIR_CAP,
    ScalarSet,
    _check_pair_budget,
    productset,  # unused here; bench/spans.py wraps progressions.productset
)

__all__ = [
    "GapSpec",
    "GgpSpec",
    "GrowthCheck",
    "degeneracy_ratio",
    "enumerate_ggp",
    "format_gap_spec",
    "format_ggp_spec",
    "gap_size",
    "gap_values",
    "ggp_membership",
    "ggp_powers",
    "growth_check",
    "is_proper",
    "parse_gap_spec",
    "parse_ggp_spec",
    "realized_size",
    "sum_size",
]


def gap_values(r0: int, generators, lengths, n: Optional[int] = None) -> frozenset:
    """{r0 + sum_j x_j * r_j : 0 <= x_j < l_j}, reduced mod n unless n is
    None, folding in one generator at a time.  Each generator adds only
    its gap_size distinct multiples, and partial sums that coincide are
    carried once, so the work, the sum of the partial formal lengths,
    stays below 1.5 times prod(l_j) when every l_j >= 3."""
    S = {r0 % n if n else r0}
    for r, l in zip(generators, lengths):
        steps = [x * r for x in range(gap_size(0, (r,), (l,), n))]
        S = ({(s + t) % n for s in S for t in steps} if n
             else {s + t for s in S for t in steps})
    return frozenset(S)


def gap_size(r0: int, generators, lengths, n: Optional[int] = None) -> int:
    """len(gap_values(r0, generators, lengths, n)).  One generator r of
    length l is read with no value built: l, or 1 when r == 0, over the
    integers, and mod n min(l, n // gcd(r, n)), as x*r has that period."""
    if len(generators) > 1:
        return len(gap_values(r0, generators, lengths, n))
    (r,), (l,) = generators, lengths
    return (l if r else 1) if n is None else min(l, n // gcd(r, n))


@dataclass(frozen=True)
class GapSpec:
    """Spec of a generalized arithmetic progression of integers."""

    r0: int
    generators: Tuple[int, ...]
    lengths: Tuple[int, ...]
    order = None  # a GAP's values are its exponents, never folded

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        object.__setattr__(self, "lengths", tuple(self.lengths))
        # a float would be truncated and a bool read as 0 or 1, so both are refused
        bad = [x for x in (self.r0, *self.generators, *self.lengths) if type(x) is not int]
        if bad:
            raise ValueError(f"r0, generators and lengths must be ints, got {bad[0]!r}")
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

    def _check_formal_length(self):
        if self.formal_length > PAIR_CAP:
            raise ValueError(f"progression has {self.formal_length} exponent "
                             f"vectors, above the cap {PAIR_CAP}")

    @property
    def exponents(self) -> "GapSpec":
        return self

    @cached_property
    def residues(self) -> frozenset:
        """The distinct exponents from ``gap_values``, folded mod ``order``
        over F_q: a GAP's values, a GGP's exponents.  A formal length above
        PAIR_CAP is refused before any is built."""
        R = self.exponents
        R._check_formal_length()
        return gap_values(R.r0, R.generators, R.lengths, self.order)


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
            if type(self.g0) not in (int, Fraction):  # no float's binary value, no bool
                raise ValueError(f"rational base must be an int or a Fraction, got {self.g0!r}")
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

    residues = GapSpec.residues  # one fold for both spec types

    @cached_property
    def powers(self) -> ScalarSet:
        """The progression's distinct values, built once per spec."""
        return ggp_powers(self, self.residues)


def ggp_powers(G: GgpSpec, ks) -> ScalarSet:
    """{g0**k : k in ks}, built on the int lattice: the residues
    pow(g0, k, q) over F_q; over Q, for g0 = p/r, the items
    p**(k - lo) * r**(hi - k) over p**-lo * r**hi, with lo and hi the least
    and greatest of 0 and ks, and no Fraction built.  Over Q each item has
    about (hi - lo) * max(bits of p, r) bits, and powers taking more than
    LATTICE_BIT_CAP in all are refused with ValueError before any is built.
    The items are canonical as made: lo and hi are 0 or exponents, whose
    items r**(hi - lo) and p**(hi - lo) are prime to p**-lo and r**hi."""
    if G.order is None:
        ks = list(ks)
        p, r = G.g0.numerator, G.g0.denominator
        lo, hi = min([0, *ks]), max([0, *ks])
        bits = len(ks) * (hi - lo) * max(p.bit_length(), r.bit_length())
        if bits > LATTICE_BIT_CAP:
            raise ValueError(f"powers of {format_scalar(G.g0)} need about {bits} "
                             f"numerator bits, above the cap {LATTICE_BIT_CAP}")
        return ScalarSet._canonical([p ** (k - lo) * r ** (hi - k) for k in ks],
                                    p ** -lo * r ** hi, G.domain)
    q = G.domain
    return ScalarSet._canonical([pow(G.g0.residue, k, q) for k in ks], q, q)


def enumerate_ggp(G: GgpSpec) -> ScalarSet:
    return G.powers


def ggp_membership(G: GgpSpec, n: int, d: int) -> bool:
    """Membership of one lattice item of a set over G's domain, n/d over Q
    (d > 0, maybe unreduced) or n mod q over F_q (d = q), looked up in the
    items of the cached ``G.powers``."""
    items, m = G.powers.lat
    if G.order is None:
        x = n * m
        return x % d == 0 and x // d in items
    return n % m in items


def is_proper(spec) -> bool:
    """Realized size equals formal length."""
    return realized_size(spec) == spec.formal_length


def realized_size(spec) -> int:
    """The number of distinct values, ``gap_size`` of the exponents, read
    off the cached exponents for two or more generators; a formal length
    above PAIR_CAP is refused first."""
    R = spec.exponents
    R._check_formal_length()
    if R.dimension > 1:
        return len(spec.residues)
    return gap_size(R.r0, R.generators, R.lengths, spec.order)


def sum_size(spec) -> int:
    """|R + R| for the exponents R, folded mod ``order`` over F_q: the sums
    2*r0 + sum_j y_j * r_j, 0 <= y_j < 2*l_j - 1, through ``gap_size``.
    That is |S+S| for a GAP and |G*G| for a GGP, as g0**a * g0**b =
    g0**(a+b)."""
    R = spec.exponents
    return gap_size(2 * R.r0, R.generators, [2 * l - 1 for l in R.lengths], spec.order)


def degeneracy_ratio(spec) -> Fraction:
    """dimension / floor(log2(formal_length)), exactly.

    The denominator uses the bit-length-minus-one integer log, so the
    ratio is a clean rational and never touches floats.
    """
    R = spec.exponents
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
    """Self sum (GAP) or self product (GGP) against the 2**d * length bound,
    its size read off ``sum_size`` with no value built.

    Each coordinate range at most doubles under addition of exponents, so
    the expansion stays within 2**d of the formal length.  The pair cap
    refuses on the realized size, which bounds the fold, |R+R| <= |G|**2."""
    size = realized_size(spec)
    _check_pair_budget(size, size, "sumset" if isinstance(spec, GapSpec) else "productset")
    expanded, R = sum_size(spec), spec.exponents
    bound = 2 ** R.dimension * R.formal_length
    return GrowthCheck(size, expanded, bound, expanded <= bound)


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
