"""Finite set arithmetic: sum sets, product sets, shifts, scalings and
dot-product sets of planar point sets, all exact.

Pairwise operations enumerate O(|A||B|) combinations with a hard desk-scale
cap.  The field-mode dot-product set, the one hot spot, is one residue
kernel for every prime: blockwise numpy outer products over int64 while
every sum of two residue products fits in 63 bits, over exact Python ints
(object arrays) above that, each block's distinct values gathered in one
Python set.  Its cost follows the pair count; there is no table of size q.

Both set types take their elements through :func:`numeric.lift`, the only
place the domain rule lives, and so do the scalars of ``shift`` and
``scale``, which join the domain of their set.
"""

from __future__ import annotations

from fractions import Fraction
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


class _DomainSet:
    """Immutable finite set over one domain; ``elems`` is a frozenset and
    ``domain`` its tag from :func:`numeric.lift`."""

    __slots__ = ("elems", "domain")

    def __init__(self, elems: frozenset, domain):
        object.__setattr__(self, "elems", elems)
        object.__setattr__(self, "domain", domain)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __len__(self):
        return len(self.elems)

    def __iter__(self):
        return iter(self.elems)

    def __contains__(self, x):
        return x in self.elems

    def __eq__(self, other):
        return type(other) is type(self) and self.elems == other.elems

    def __hash__(self):
        return hash(self.elems)

    def __repr__(self):
        return f"{type(self).__name__}({self.sorted()!r})"


class ScalarSet(_DomainSet):
    """Immutable finite set of scalars from one domain."""

    __slots__ = ()

    def __init__(self, elements: Iterable[Scalar] = ()):
        elems, domain = lift(elements)
        super().__init__(frozenset(elems), domain)

    def sorted(self):
        return sorted(self.elems, key=sort_key)


class Point2(NamedTuple):
    x: Scalar
    y: Scalar


class PointSet2(_DomainSet):
    """Immutable finite set of exact points in the plane over one domain."""

    __slots__ = ()

    def __init__(self, points: Iterable = ()):
        # each point unpacks to exactly two coordinates; map(Point2, it, it) re-pairs them
        coords, domain = lift(c for px, py in points for c in (px, py))
        it = iter(coords)
        super().__init__(frozenset(map(Point2, it, it)), domain)

    def sorted(self):
        return sorted(self.elems, key=lambda p: (sort_key(p.x), sort_key(p.y)))


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


def shift(A: ScalarSet, c: Scalar) -> ScalarSet:
    if len(A):
        (c,), _ = lift([c], A.domain)
    return ScalarSet(a + c for a in A)


def scale(A: ScalarSet, s: Scalar) -> ScalarSet:
    if len(A):
        (s,), _ = lift([s], A.domain)
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
    if q == RATIONAL_DOMAIN:
        return ScalarSet({ex * fx + ey * fy for ex, ey in E for fx, fy in F})
    # int64 while every sum of two residue products fits, else exact ints
    dtype = np.int64 if 2 * (q - 1) ** 2 < 2 ** 63 else object
    ea, fa = (np.array([(x.residue, y.residue) for x, y in P.elems], dtype=dtype)
              for P in (E, F))
    seen = set()
    # blockwise outer products keep peak memory modest
    step = max(1, PAIR_CAP // (8 * len(fa)))
    for i in range(0, len(ea), step):
        blk = ea[i:i + step]
        dots = (np.outer(blk[:, 0], fa[:, 0]) + np.outer(blk[:, 1], fa[:, 1])) % q
        seen.update(np.unique(dots).tolist())
    return ScalarSet(PrimeFieldElement(v, q) for v in seen)


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

