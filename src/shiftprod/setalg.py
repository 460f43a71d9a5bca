"""Finite set arithmetic: sum sets, product sets, shifts, scalings and
dot-product sets of planar point sets, all exact.

Pairwise operations enumerate O(|A||B|) combinations under PAIR_CAP, and
rational ones, the dot-product set included, under LATTICE_BIT_CAP
numerator bits.  A scalar set lives on ints and a point set on int pairs:
the residues of a field set, or the numerators of a rational set's
coordinates over their least common denominator d (gcd(d, *nums) == 1).
Every operation runs on them; Fractions, field elements and Point2s are
built only when a caller iterates, sorts or reads ``elems``.  The field
dot-product set takes blockwise numpy outer products over int64 while every
sum of two residue products fits in 63 bits, over exact Python ints above
that.  An int64 input of at least q pairs is scattered into a table of q
booleans in blocks of max(4q, 2**16) pairs until every residue is seen; a
smaller one builds no table.

Both set types take their elements through :func:`numeric.lift`, the only
place the domain rule lives, and so do the scalars of ``shift`` and
``scale``, which join the domain of their set.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import Iterable, NamedTuple, Optional

import numpy as np

from .numeric import (
    ParseError,
    PrimeField,
    PrimeFieldElement,
    RATIONAL_DOMAIN,
    Scalar,
    format_scalar,
    join_domains,
    lift,
    parse_scalar,
    scalar_is_zero,
)

__all__ = [
    "LATTICE_BIT_CAP",
    "PAIR_CAP",
    "Point2",
    "PointSet2",
    "ScalarSet",
    "collinear",
    "dot_product_set",
    "format_scalar_set",
    "parse_scalar_set",
    "productset",
    "scale",
    "set_intersect",
    "set_minus",
    "set_union",
    "shift",
    "sumset",
]

# pairwise enumeration budget; beyond this the operation refuses to run
PAIR_CAP = 10 ** 7
# pairs times the bit length of da*db that a rational pairwise kernel may take
LATTICE_BIT_CAP = 2 ** 30


class _DomainSet:
    """Immutable finite set over one domain, held as ``lat = (items, m)`` so
    that equal sets have equal ``lat``: the items are ints for a ScalarSet
    and int pairs for a PointSet2, over Q the numerators of the coordinates
    over ``m``, their least common denominator (``gcd(m, *coordinates) ==
    1``), over F_q their residues and ``m = q``, and ``(frozenset(), 1)``
    when empty.  ``domain`` is the tag from :func:`numeric.lift`, and
    ``elems``, the frozenset of ints and reduced Fractions or of
    PrimeFieldElements (in Point2s for a PointSet2), is built on first
    read."""

    __slots__ = ("lat", "domain", "elems")

    def __new__(cls, values: Iterable = ()):
        pts = cls is PointSet2
        if pts:
            # each point unpacks to exactly two coordinates; zip(it, it) re-pairs them
            values = (c for px, py in values for c in (px, py))
        vals, domain = lift(values)
        if domain in (None, RATIONAL_DOMAIN):
            d = lcm(*{x.denominator for x in vals})
            nums = [x.numerator * (d // x.denominator) for x in vals]
        else:
            d, nums = domain, [x.residue for x in vals]
        it = iter(nums)
        return cls.from_lattice(list(zip(it, it)) if pts else nums, d, domain)

    @classmethod
    def from_lattice(cls, items, d: int, domain=None):
        """The set of ``items`` over ``d`` in canonical form, or over F_q
        (domain q) their residues mod q, whatever d."""
        S, pts = object.__new__(cls), cls is PointSet2
        if domain in (None, RATIONAL_DOMAIN):
            g = gcd(d, *(chain.from_iterable(items) if pts else items))
            domain = RATIONAL_DOMAIN
            if g > 1:
                d //= g
                items = ([(x // g, y // g) for x, y in items] if pts
                         else [n // g for n in items])
        else:
            q = d = domain
            items = ({(x % q, y % q) for x, y in items} if pts
                     else {n % q for n in items})
        items = frozenset(items)
        object.__setattr__(S, "lat", (items, d) if items else (items, 1))
        object.__setattr__(S, "domain", domain if items else None)
        return S

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __getattr__(self, name):
        # reached only for the unset elems
        if name != "elems":
            raise AttributeError(name)
        items, m = self.lat
        if self.domain in (None, RATIONAL_DOMAIN):
            def el(n):
                return n // m if n % m == 0 else Fraction(n, m)
        else:
            def el(n):
                return PrimeFieldElement(n, m)
        elems = frozenset((Point2(el(x), el(y)) for x, y in items)
                          if type(self) is PointSet2 else map(el, items))
        object.__setattr__(self, "elems", elems)
        return elems

    def sorted(self) -> list:
        return sorted(self.elems)

    def __len__(self):
        return len(self.lat[0])

    def __iter__(self):
        return iter(self.elems)

    def __contains__(self, x):
        return x in self.elems

    def __eq__(self, other):
        return (type(other) is type(self) and self.lat == other.lat
                and self.domain == other.domain)

    def __hash__(self):
        return hash(self.lat)

    def __repr__(self):
        return f"{type(self).__name__}({self.sorted()!r})"


class ScalarSet(_DomainSet):
    """Immutable finite set of scalars from one domain."""

    __slots__ = ()


class Point2(NamedTuple):
    x: Scalar
    y: Scalar


class PointSet2(_DomainSet):
    """Immutable finite set of exact points in the plane over one domain."""

    __slots__ = ()


def _check_pair_budget(a: int, b: int, what: str):
    if a * b > PAIR_CAP:
        raise ValueError(
            f"{what} needs {a * b} pair evaluations, above the cap {PAIR_CAP}")


def _check_lattice_bits(A: _DomainSet, B: _DomainSet, what: str):
    bits = len(A) * len(B) * (A.lat[1] * B.lat[1]).bit_length()
    if A.domain == B.domain == RATIONAL_DOMAIN and bits > LATTICE_BIT_CAP:
        raise ValueError(f"{what} needs about {bits} numerator bits, above "
                         f"the cap {LATTICE_BIT_CAP}")


def _set_op(A: ScalarSet, B: ScalarSet, op) -> ScalarSet:
    """op on the ints of A and B over lcm(da, db), which is q over F_q."""
    domain = join_domains(A.domain, B.domain)
    (na, da), (nb, db) = A.lat, B.lat
    d = lcm(da, db)
    return ScalarSet.from_lattice(
        op({n * (d // da) for n in na}, {n * (d // db) for n in nb}), d, domain)


def sumset(A: ScalarSet, B: ScalarSet) -> ScalarSet:
    _check_pair_budget(len(A), len(B), "sumset")
    _check_lattice_bits(A, B, "sumset")
    return _set_op(A, B, lambda X, Y: {x + y for x in X for y in Y})


def productset(A: ScalarSet, B: ScalarSet) -> ScalarSet:
    domain = join_domains(A.domain, B.domain)
    _check_pair_budget(len(A), len(B), "productset")
    _check_lattice_bits(A, B, "productset")
    (na, da), (nb, db) = A.lat, B.lat
    return ScalarSet.from_lattice({a * b for a in na for b in nb}, da * db, domain)


def shift(A: ScalarSet, c: Scalar) -> ScalarSet:
    return sumset(A, ScalarSet(lift([c], A.domain)[0])) if len(A) else A


def scale(A: ScalarSet, s: Scalar) -> ScalarSet:
    if len(A):
        (s,), _ = lift([s], A.domain)
    if scalar_is_zero(s):
        raise ValueError("scaling by zero collapses the set")
    return productset(A, ScalarSet([s])) if len(A) else A


def set_minus(A: ScalarSet, B: ScalarSet) -> ScalarSet:
    return _set_op(A, B, operator.sub)


def set_intersect(A: ScalarSet, B: ScalarSet) -> ScalarSet:
    return _set_op(A, B, operator.and_)


def set_union(A: ScalarSet, B: ScalarSet) -> ScalarSet:
    return _set_op(A, B, operator.or_)


def dot_product_set(E: PointSet2, F: PointSet2) -> ScalarSet:
    """{e . f : e in E, f in F} where . is the planar dot product."""
    join_domains(E.domain, F.domain)
    _check_pair_budget(len(E), len(F), "dot_product_set")
    _check_lattice_bits(E, F, "dot_product_set")
    if len(E) == 0 or len(F) == 0:
        return ScalarSet()
    (ea, de), (fa, df) = E.lat, F.lat
    q = E.domain
    if q == RATIONAL_DOMAIN:
        return ScalarSet.from_lattice(
            {ex * fx + ey * fy for ex, ey in ea for fx, fy in fa}, de * df)
    # int64 while every sum of two residue products fits, else exact ints
    dtype = np.int64 if 2 * (q - 1) ** 2 < 2 ** 63 else object
    ea, fa = np.array(list(ea), dtype=dtype), np.array(list(fa), dtype=dtype)
    # a table of q booleans pays only when the pairs outnumber it; blocks of
    # 4q pairs or more keep its all() check a small share of each scatter
    table = dtype is np.int64 and q <= len(ea) * len(fa)
    seen = np.zeros(q, dtype=bool) if table else set()
    step = max(1, (max(4 * q, 2 ** 16) if table else PAIR_CAP // 8) // len(fa))
    for i in range(0, len(ea), step):
        blk = ea[i:i + step]
        dots = (np.outer(blk[:, 0], fa[:, 0]) + np.outer(blk[:, 1], fa[:, 1])) % q
        if table:
            seen[dots.ravel()] = True
            if seen.all():
                break
        else:
            seen.update(dots.ravel().tolist())
    return ScalarSet.from_lattice(
        np.flatnonzero(seen).tolist() if table else seen, q, q)


def collinear(P: PointSet2) -> bool:
    """True when every point of P lies on one affine line (exact test, on
    the int pairs of P, mod q over F_q); any two of its points fix the line."""
    pts = list(P.lat[0])
    if len(pts) <= 2:
        return True
    (x0, y0), (x1, y1) = pts[0], pts[1]
    dx, dy = x1 - x0, y1 - y0
    dets = (dx * (y - y0) - dy * (x - x0) for x, y in pts[2:])
    q = P.domain
    return not any(dets if q == RATIONAL_DOMAIN else (v % q for v in dets))


# ---------------------------------------------------------------------------
# text format: "{1, 2, 4/3}" for scalar sets

def format_scalar_set(A: ScalarSet) -> str:
    if A.domain in (None, RATIONAL_DOMAIN):
        return "{" + ", ".join(map(format_scalar, A.sorted())) + "}"
    return "{" + ", ".join(map(str, sorted(A.lat[0]))) + "}"


def _split_brace_list(text: str, what: str):
    s = text.strip()
    if not s.startswith("{") or not s.endswith("}"):
        raise ParseError(f"{what} must be wrapped in braces", text, 0)
    inner = s[1:-1].strip()
    if not inner:
        return []
    return [tok.strip() for tok in inner.split(",")]


def parse_scalar_set(text: str, field: Optional[PrimeField] = None) -> ScalarSet:
    toks = _split_brace_list(text, "scalar set")
    return ScalarSet(parse_scalar(tok, field) for tok in toks)

