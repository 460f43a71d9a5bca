"""Finite set arithmetic: sum sets, product sets, shifts, scalings and
dot-product sets of planar point sets, all exact.

Pairwise operations enumerate O(|A||B|) combinations with a hard desk-scale
cap; the field-mode dot-product set has a vectorized int64 path since it
is the one hot spot, taken only while every sum of two residue products
fits in a signed 64-bit word.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple, Optional

import numpy as np

from .numeric import (
    DomainMismatchError,
    ParseError,
    PrimeField,
    PrimeFieldElement,
    RATIONAL_DOMAIN,
    Scalar,
    domain_of,
    format_scalar,
    join_domains,
    parse_scalar,
    scalar_is_zero,
    sort_key,
)

__all__ = [
    "PAIR_CAP",
    "Point2",
    "PointSet2",
    "ScalarSet",
    "collinear",
    "dot_product_set",
    "expansion_ratios",
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


def _normalize_elems(elements):
    """Coerce plain ints into a field when field elements are present and
    collapse integer-valued Fractions; returns (frozenset, domain tag)."""
    elems = list(elements)
    domain = None
    for x in elems:
        if isinstance(x, PrimeFieldElement):
            domain = join_domains(domain, x.modulus)
        elif isinstance(x, Fraction) or (isinstance(x, int) and not isinstance(x, bool)):
            pass
        else:
            raise TypeError(f"not a scalar: {x!r}")
    if domain is None:
        out = set()
        for x in elems:
            if isinstance(x, Fraction):
                domain = RATIONAL_DOMAIN
                out.add(x.numerator if x.denominator == 1 else x)
            else:
                domain = RATIONAL_DOMAIN
                out.add(x)
        return frozenset(out), (RATIONAL_DOMAIN if out else None)
    q = domain
    out = set()
    for x in elems:
        if isinstance(x, PrimeFieldElement):
            out.add(x)
        elif isinstance(x, int):
            out.add(PrimeFieldElement(x, q))
        else:
            raise DomainMismatchError("cannot mix rational and field scalars")
    return frozenset(out), q


class ScalarSet:
    """Immutable finite set of scalars from one domain."""

    __slots__ = ("elems", "domain")

    def __init__(self, elements: Iterable[Scalar] = ()):
        elems, domain = _normalize_elems(elements)
        object.__setattr__(self, "elems", elems)
        object.__setattr__(self, "domain", domain)

    def __setattr__(self, name, value):
        raise AttributeError("ScalarSet is immutable")

    def __len__(self):
        return len(self.elems)

    def __iter__(self):
        return iter(self.elems)

    def __contains__(self, x):
        return x in self.elems

    def __eq__(self, other):
        return isinstance(other, ScalarSet) and self.elems == other.elems

    def __hash__(self):
        return hash(self.elems)

    def sorted(self):
        return sorted(self.elems, key=sort_key)

    def __repr__(self):
        return f"ScalarSet({self.sorted()!r})"


class Point2(NamedTuple):
    x: Scalar
    y: Scalar


class PointSet2:
    """Immutable finite set of exact points in the plane over one domain."""

    __slots__ = ("elems", "domain")

    def __init__(self, points: Iterable = ()):
        pts = []
        field_mod = None
        for p in points:
            px, py = p
            for v in (px, py):
                if isinstance(v, PrimeFieldElement):
                    field_mod = join_domains(field_mod, v.modulus)
                else:
                    domain_of(v)
            pts.append((px, py))
        if field_mod is None:
            domain = RATIONAL_DOMAIN if pts else None
        else:
            # plain ints ride along into the field; Fractions do not
            q = field_mod
            coerced = []
            for px, py in pts:
                if isinstance(px, int) and not isinstance(px, bool):
                    px = PrimeFieldElement(px, q)
                if isinstance(py, int) and not isinstance(py, bool):
                    py = PrimeFieldElement(py, q)
                if not (isinstance(px, PrimeFieldElement)
                        and isinstance(py, PrimeFieldElement)):
                    raise DomainMismatchError(
                        "cannot mix rational and field coordinates")
                coerced.append((px, py))
            pts = coerced
            domain = q
        object.__setattr__(self, "elems", frozenset(Point2(*p) for p in pts))
        object.__setattr__(self, "domain", domain)

    def __setattr__(self, name, value):
        raise AttributeError("PointSet2 is immutable")

    def __len__(self):
        return len(self.elems)

    def __iter__(self):
        return iter(self.elems)

    def __contains__(self, p):
        return p in self.elems

    def __eq__(self, other):
        return isinstance(other, PointSet2) and self.elems == other.elems

    def __hash__(self):
        return hash(self.elems)

    def sorted(self):
        return sorted(self.elems, key=lambda p: (sort_key(p.x), sort_key(p.y)))

    def __repr__(self):
        return f"PointSet2({self.sorted()!r})"


def _check_pair_budget(a: int, b: int, what: str):
    if a * b > PAIR_CAP:
        raise ValueError(
            f"{what} needs {a * b} pair evaluations, above the cap {PAIR_CAP}")


def sumset(A: ScalarSet, B: ScalarSet) -> ScalarSet:
    join_domains(A.domain, B.domain)
    _check_pair_budget(len(A), len(B), "sumset")
    return ScalarSet(a + b for a in A for b in B)


def productset(A: ScalarSet, B: ScalarSet) -> ScalarSet:
    join_domains(A.domain, B.domain)
    _check_pair_budget(len(A), len(B), "productset")
    return ScalarSet(a * b for a in A for b in B)


def _coerce_into(c, domain):
    """Plain ints follow a field set's domain, everything else must match."""
    if (domain not in (None, RATIONAL_DOMAIN)
            and isinstance(c, int) and not isinstance(c, bool)):
        return PrimeFieldElement(c, domain)
    join_domains(domain, domain_of(c))
    return c


def shift(A: ScalarSet, c: Scalar) -> ScalarSet:
    if len(A) == 0:
        return A
    c = _coerce_into(c, A.domain)
    return ScalarSet(a + c for a in A)


def scale(A: ScalarSet, s: Scalar) -> ScalarSet:
    if len(A) == 0:
        if scalar_is_zero(s):
            raise ValueError("scaling by zero collapses the set")
        return A
    s = _coerce_into(s, A.domain)
    if scalar_is_zero(s):
        raise ValueError("scaling by zero collapses the set")
    return ScalarSet(a * s for a in A)


def set_minus(A: ScalarSet, B: ScalarSet) -> ScalarSet:
    join_domains(A.domain, B.domain)
    return ScalarSet(A.elems - B.elems)


def set_intersect(A: ScalarSet, B: ScalarSet) -> ScalarSet:
    join_domains(A.domain, B.domain)
    return ScalarSet(A.elems & B.elems)


def set_union(A: ScalarSet, B: ScalarSet) -> ScalarSet:
    join_domains(A.domain, B.domain)
    return ScalarSet(A.elems | B.elems)


def dot_product_set(E: PointSet2, F: PointSet2) -> ScalarSet:
    """{e . f : e in E, f in F} where . is the planar dot product."""
    join_domains(E.domain, F.domain)
    _check_pair_budget(len(E), len(F), "dot_product_set")
    if len(E) == 0 or len(F) == 0:
        return ScalarSet()
    q = E.domain
    if q not in (None, RATIONAL_DOMAIN) and 2 * (q - 1) ** 2 < 2 ** 63:
        return _dot_product_set_field(E, F, q)
    # exact loop: rationals, and fields whose dot products overflow int64
    out = set()
    for ex, ey in E:
        for fx, fy in F:
            out.add(ex * fx + ey * fy)
    return ScalarSet(out)


def _dot_product_set_field(E: PointSet2, F: PointSet2, q: int) -> ScalarSet:
    ea = np.array([(p.x.residue, p.y.residue) for p in E.elems], dtype=np.int64)
    fa = np.array([(p.x.residue, p.y.residue) for p in F.elems], dtype=np.int64)
    seen = np.zeros(q, dtype=bool)
    # blockwise outer products keep peak memory modest
    step = max(1, PAIR_CAP // (8 * max(1, len(fa))))
    for i in range(0, len(ea), step):
        blk = ea[i:i + step]
        dots = (np.outer(blk[:, 0], fa[:, 0]) + np.outer(blk[:, 1], fa[:, 1])) % q
        seen[np.unique(dots)] = True
    return ScalarSet(PrimeFieldElement(int(v), q) for v in np.nonzero(seen)[0])


def collinear(P: PointSet2) -> bool:
    """True when every point of P lies on one affine line (exact test)."""
    pts = P.sorted()
    if len(pts) <= 2:
        return True
    (x0, y0), (x1, y1) = pts[0], pts[1]
    dx, dy = x1 - x0, y1 - y0
    for (x, y) in pts[2:]:
        if not scalar_is_zero(dx * (y - y0) - dy * (x - x0)):
            return False
    return True


def expansion_ratios(A: ScalarSet) -> tuple:
    """(|A+A|/|A|, |AA|/|A|) as exact Fractions."""
    if len(A) == 0:
        raise ValueError("expansion ratios of the empty set")
    return (Fraction(len(sumset(A, A)), len(A)),
            Fraction(len(productset(A, A)), len(A)))


# ---------------------------------------------------------------------------
# text format: "{1, 2, 4/3}" for scalar sets

def format_scalar_set(A: ScalarSet) -> str:
    if isinstance(A, ScalarSet) and A.domain not in (None, RATIONAL_DOMAIN):
        body = ", ".join(str(x.residue) for x in A.sorted())
    else:
        body = ", ".join(format_scalar(x) for x in A.sorted())
    return "{" + body + "}"


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

