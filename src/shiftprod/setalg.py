"""Finite set arithmetic: sum sets, product sets, shifts and dot-product
sets of planar point sets, all exact.

Pairwise operations enumerate O(|A||B|) combinations under PAIR_CAP, and
rational ones, the dot-product set included, under LATTICE_BIT_CAP
numerator bits.  A scalar set lives on ints and a point set on int pairs:
the residues of a field set, or the numerators of a rational set's
coordinates over their least common denominator d (gcd(d, *nums) == 1).
Every operation runs on them; Fractions, field elements and Point2s are
built only when a caller iterates, sorts or reads ``elems``.  Kernels hand
their items to ``_canonical`` as they are made: field items reduced there
once, rational products of factors with their common gcds cancelled
first.  ``from_lattice`` reduces raw ones, as the set operations make them.

The dot-product set writes each point as a scalar times a canonical
direction: over Q, on the lattice ints, g*(u, v) with (u, v) primitive and
its first nonzero coordinate positive; over F_q, x*(1, y/x) or y*(0, 1);
the zero point is 1*(0, 0).  Directions with one scalar set (over Q, one up
to its positive gcd, which then scales them) share it, and for each pair of
scalar sets L and M the result takes the dot products of their directions
times L*M, each product set once.  The pipelines' E and F have one scalar
set a side, and this is their identity E.F = g1*BB*(AA+1); when g1 = 1, E
is F, and a set whose items are equal on both sides is split only once.
Over Q the grouped kernel always runs.  Over F_q it runs while its counted
work is at most a quarter of the pairs.  Otherwise, as when every point
has its own direction, an input of fewer pairs than q takes the plain pair
loop.  An input of at least q pairs is marked in a table of q booleans by
blockwise int64 numpy outer products: its first rows, about 4q pairs, are
tried before grouping, and blocks of max(4q, 2**16) pairs go on from the
rows after them until every residue is seen.

Both set types take their elements through :func:`numeric.lift`, the only
place the domain rule lives, and so does the scalar of ``shift``, which
joins the domain of its set.
"""

from __future__ import annotations

import operator
from collections import defaultdict
from fractions import Fraction
from itertools import chain, product, starmap
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
        """The set of raw ``items`` over ``d`` in canonical form, or over F_q
        (domain q) their residues mod q, whatever d."""
        pts = cls is PointSet2
        if domain in (None, RATIONAL_DOMAIN):
            g = gcd(d, *(chain.from_iterable(items) if pts else items))
            if g > 1:
                d //= g
                items = ([(x // g, y // g) for x, y in items] if pts
                         else [n // g for n in items])
            return cls._canonical(items, d, RATIONAL_DOMAIN)
        q = domain
        return cls._canonical(((x % q, y % q) for x, y in items) if pts
                              else (n % q for n in items), q, q)

    @classmethod
    def _canonical(cls, items, d: int, domain):
        """The set of ``items`` taken as they are: over Q canonical over
        ``d`` (``gcd(d, *coordinates) == 1``), over F_q residues and
        ``d = q``.  Every set is built here."""
        S, items = object.__new__(cls), frozenset(items)
        object.__setattr__(S, "lat", (items, d) if items else (items, 1))
        object.__setattr__(S, "domain", domain if items else None)
        return S

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __getattr__(self, name):
        # reached only for the unset elems
        if name != "elems":
            raise AttributeError(name)
        elems = frozenset(self._elements(self.lat[0]))
        object.__setattr__(self, "elems", elems)
        return elems

    def _elements(self, items):
        """The elements of lattice ``items``, in Point2s for a PointSet2."""
        m = self.lat[1]
        if self.domain in (None, RATIONAL_DOMAIN):
            def el(n):
                return n // m if n % m == 0 else Fraction(n, m)
        else:
            def el(n):
                return PrimeFieldElement(n, m)
        return ((Point2(el(x), el(y)) for x, y in items)
                if type(self) is PointSet2 else map(el, items))

    def sorted(self) -> list:
        """The elements ordered by their items: by value over Q, where m > 0,
        by residue over F_q, and lexicographically for points."""
        return list(self._elements(sorted(self.lat[0])))

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
    if domain not in (None, RATIONAL_DOMAIN):
        return ScalarSet._canonical({a * b % domain for a in na for b in nb},
                                    domain, domain)
    # gcd(da * db, every a * b) = gcd(db, *na) * gcd(da, *nb) for canonical A
    # and B, so each factor is cancelled first and the products are canonical
    ga, gb = gcd(db, *na), gcd(da, *nb)
    na, nb = [a // ga for a in na], [b // gb for b in nb]
    return ScalarSet._canonical(starmap(operator.mul, product(na, nb)),
                                da // gb * (db // ga), RATIONAL_DOMAIN)


def shift(A: ScalarSet, c: Scalar) -> ScalarSet:
    return sumset(A, ScalarSet(lift([c], A.domain)[0])) if len(A) else A


def set_minus(A: ScalarSet, B: ScalarSet) -> ScalarSet:
    return _set_op(A, B, operator.sub)


def set_intersect(A: ScalarSet, B: ScalarSet) -> ScalarSet:
    return _set_op(A, B, operator.and_)


def set_union(A: ScalarSet, B: ScalarSet) -> ScalarSet:
    return _set_op(A, B, operator.or_)


# Over F_q the grouped dot kernel runs while its work, in set operations,
# is at most the pairs over GROUP_RATIO, about the measured cost of one such
# operation in pairs of numpy's blocks.  Over Q it always runs.
GROUP_RATIO = 4


def _directions(items, q) -> dict:
    """{direction: [scalar, ...]}, every point of ``items`` its scalar times
    its direction: over Q (``q`` the rational tag) ``g * (u, v)`` with
    ``(u, v)`` primitive and its first nonzero coordinate positive, over
    F_q ``x * (1, y/x)`` or ``y * (0, 1)``; the zero point is ``1 * (0, 0)``."""
    groups = {}
    if q == RATIONAL_DOMAIN:
        for x, y in items:
            g = gcd(x, y)
            if x < 0 or x == 0 and y < 0:
                g = -g
            groups.setdefault((x // g, y // g) if g else (0, 0), []).append(g or 1)
    else:
        # the ys of each column x share one inverse of x, and each slope
        # y/x keys its scalars as an int
        cols, slopes = defaultdict(list), defaultdict(list)
        for x, y in items:
            cols[x].append(y)
        for x, ys in cols.items():
            if x:
                inv = pow(x, -1, q)
                for y in ys:
                    slopes[y * inv % q].append(x)
        groups = {(1, k): S for k, S in slopes.items()}
        for y in cols.get(0, ()):
            groups.setdefault((0, 1) if y else (0, 0), []).append(y or 1)
    return groups


def _by_scalar_set(groups, q) -> dict:
    """{scalar set: [direction, ...]}, each distinct scalar set once; over
    Q a set is divided by its positive gcd c, which scales its directions."""
    sets = {}
    for (u, v), S in groups.items():
        c = gcd(*S) if q == RATIONAL_DOMAIN else 1
        L = frozenset(S) if c == 1 else frozenset(s // c for s in S)
        sets.setdefault(L, []).append((c * u, c * v))
    return sets


def _grouped_dots(ea, fa, q) -> Optional[set]:
    """The dot products of the int pairs ``ea`` and ``fa``, grouped by
    :func:`_directions`: for each pair of scalar sets L and M, the dot
    products D of their directions times the product set L*M, each computed
    once.  When ``fa`` is ``ea`` the one split serves both sides.  Over F_q
    every product is reduced mod q, the union stops once all q residues are
    seen, and None is returned as soon as the work exceeds the pairs over
    GROUP_RATIO: the direction and scalar pairs that build every D and L*M,
    counted before they are built, and each |D|*|L*M|, counted before its
    products are taken."""
    es = _by_scalar_set(_directions(ea, q), q)
    fs = es if fa is ea else _by_scalar_set(_directions(fa, q), q)
    field = q != RATIONAL_DOMAIN
    budget = len(ea) * len(fa) // GROUP_RATIO
    work = (sum(map(len, es.values())) * sum(map(len, fs.values()))
            + sum(map(len, es)) * sum(map(len, fs)))
    if field and work > budget:
        return None
    out = set()
    for L, us in es.items():
        for M, ws in fs.items():
            if not field:
                D = {u * x + v * y for u, v in us for x, y in ws}
                P = {a * b for a in L for b in M}
                out |= {d * p for d in D for p in P}
                continue
            D = {(u * x + v * y) % q for u, v in us for x, y in ws}
            P = {a * b % q for a in L for b in M}
            work += len(D) * len(P)
            if work > budget:
                return None
            out |= {d * p % q for d in D for p in P}
            if len(out) == q:
                return out
    return out


def _table_dots(ea: list, fa: list, q: int, table) -> list:
    """The residues marked in ``table``, q booleans, after marking the dots
    of the int pairs ``ea`` and ``fa`` mod q by blockwise numpy outer products
    until it is full.  Callers hold q <= pairs <= PAIR_CAP, so int64 is exact:
    a sum of two residue products is below 2 * PAIR_CAP**2 < 2**63."""
    ea, fa = (np.fromiter(chain.from_iterable(X), np.int64, 2 * len(X)).reshape(-1, 2)
              for X in (ea, fa))
    # blocks of 4q pairs or more keep all() a small share of each scatter
    step = max(1, max(4 * q, 2 ** 16) // len(fa))
    for i in range(0, len(ea), step):
        blk = ea[i:i + step]
        table[(np.outer(blk[:, 0], fa[:, 0]) + np.outer(blk[:, 1], fa[:, 1])) % q] = True
        if table.all():
            break
    return np.flatnonzero(table).tolist()


def dot_product_set(E: PointSet2, F: PointSet2) -> ScalarSet:
    """{e . f : e in E, f in F} where . is the planar dot product."""
    join_domains(E.domain, F.domain)
    _check_pair_budget(len(E), len(F), "dot_product_set")
    _check_lattice_bits(E, F, "dot_product_set")
    if len(E) == 0 or len(F) == 0:
        return ScalarSet()
    (ea, de), (fa, df) = E.lat, F.lat
    # equal items on both sides, as when E is F, are split into directions once
    same = ea is fa or ea == fa
    q = E.domain
    fa = ea if same else fa
    if q == RATIONAL_DOMAIN:
        return ScalarSet.from_lattice(_grouped_dots(ea, fa, q), de * df)
    # over F_q a table of q booleans pays only when the pairs outnumber it
    if len(ea) * len(fa) < q:
        dots = _grouped_dots(ea, fa, q)
        if dots is None:
            # the plain pair loop, whose dots from_lattice reduces mod q
            # as they come
            return ScalarSet.from_lattice(
                (a * x + b * y for a, b in ea for x, y in fa), q, q)
        return ScalarSet._canonical(dots, q, q)
    # the first rows of E alone often reach every residue (full planes, dense
    # random sets): try about 4q pairs first, at least 2q, so the table still
    # pays; the blocks after grouping go on from the rows after them
    ea = list(ea)
    fa = ea if same else list(fa)
    head, table = max(1, 4 * q // len(fa)), np.zeros(q, dtype=bool)
    dots = _table_dots(ea[:head], fa, q, table)
    if head < len(ea) and len(dots) < q:
        grouped = _grouped_dots(ea, fa, q)
        dots = _table_dots(ea[head:], fa, q, table) if grouped is None else grouped
    return ScalarSet._canonical(dots, q, q)


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

