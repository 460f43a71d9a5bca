"""Search for products of two sets inside a shifted product set.

Given A, let T = AA+1.  The explorer looks for pairs of sets (B, C), both
of size at least min_factor_size, with B*C inside T, and maximises the hit
|B*C|.  Rows where such a product covers much of T with both factors large
are the interesting ones: the guiding expectation is that AA+1 holds no
large product set, so such rows are flagged as tension findings in scan
tables.  Tables are evidence, never claimed proofs.

One exact search answers the question.  A pair with B*C inside T and a
nonzero c0 in C rescales into (B*c0, C/c0), so the factor C can be taken
inside T.  The best B for a given C is then the largest one, the set of b
with b*s in T for every s in C: the intersection of the quotient sets T/s.
B is drawn from the quotients s/t with t nonzero, so T = {0} (A = {a}
with a*a = -1 over F_q) has no pair.

T is built once per query and read on its int lattice (see setalg).  A
quotient s/t of two lattice items is keyed by ints: a reduced (num, den)
pair with den > 0 over Q, s * t^-1 mod q over F_q.  Each pivot s of T
holds its quotient set T/s as an int bitmask; when -1 lies in AA, 0 lies
in T, and the pivot 0 holds every quotient, since 0*b = 0.  The pivot sets
C are walked depth first in the lexicographic order of sorted T, ANDing
the masks on the way down.  Every C of size at least min_factor_size is
scored by the number of distinct elements of T that B*C reaches, and the
first strict maximum is kept.  A prefix is dropped with every set below it
once its AND has fewer than min_factor_size bits, or once |AND| times the
size of the largest pivot set below it cannot beat the best hit; a pivot
dropped below a prefix is not tried again further down.  The walk stops
when the hit is |T|.

search_budget counts walk nodes.  The exhaustive flag marks exact rows: it
is true exactly when the walk finishes within the budget.  Scalars are
built only for the returned factors.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, List, Optional, Tuple

from .numeric import RATIONAL_DOMAIN
from .setalg import ScalarSet, productset, shift

__all__ = [
    "CoverQuery",
    "CoverResult",
    "ScanRow",
    "conjecture_scan",
    "search_bc",
]


@dataclass(frozen=True)
class CoverQuery:
    A: ScalarSet
    min_factor_size: int = 2
    search_budget: int = 200_000

    def __post_init__(self):
        if len(self.A) == 0:
            raise ValueError("empty A")
        if self.min_factor_size < 1:
            raise ValueError("min_factor_size must be at least 1")
        if self.search_budget < 1:
            raise ValueError("search_budget must be at least 1")

    @cached_property
    def T(self) -> ScalarSet:
        """The target AA+1, built once per query."""
        return shift(productset(self.A, self.A), 1)


@dataclass(frozen=True)
class CoverResult:
    best_B: ScalarSet
    best_C: ScalarSet
    hit_count: int
    coverage_fraction: Fraction
    exhaustive: bool


def _quotient_keys(T: ScalarSet) -> Tuple[List[int], List[Optional[List]]]:
    """The lattice items of T in sorted order, and for each one t, in that
    order, the keys of s/t for the items s in that order: a reduced
    (num, den) pair with den > 0 over Q, s * t^-1 mod q over F_q; None for
    t = 0."""
    items, d = T.lat
    ts = sorted(items)
    if T.domain == RATIONAL_DOMAIN:
        def row(t):
            out = []
            for s in ts:
                g = gcd(s, t) if t > 0 else -gcd(s, t)
                out.append((s // g, t // g))
            return out
    else:
        def row(t):
            inv = pow(t, -1, d)
            return [s * inv % d for s in ts]
    return ts, [row(t) if t else None for t in ts]


def _key_set(keys, domain) -> ScalarSet:
    """The ScalarSet of quotient keys over ``domain``."""
    if domain == RATIONAL_DOMAIN:
        d = lcm(*(den for _, den in keys))
        return ScalarSet.from_lattice([n * (d // den) for n, den in keys], d)
    return ScalarSet.from_lattice(keys, domain, domain)


def _bits(M: int) -> List[int]:
    out = []
    while M:
        out.append(M & -M)
        M &= M - 1
    return out


def _search_exhaustive(T: ScalarSet, m: int, budget: int):
    """(B, C, hit, complete): the first pair with the most hits among the
    pivot sets C that the walk reaches within ``budget`` nodes, and
    whether it finished."""
    ts, rows = _quotient_keys(T)
    n = len(ts)
    # B for pivots C is the intersection of their rows, so a quotient in
    # fewer than m rows lies in no B and takes no bit; the pivot 0, if
    # any, holds every quotient
    seen = Counter(k for row in rows if row for k in row)
    zero = 0 in ts
    bit = {k: 1 << i
           for i, k in enumerate(k for k, c in seen.items() if c + zero >= m)}
    # images[j] maps the bit of b to the index in ts of b * ts[j]
    images = [dict.fromkeys(bit.values(), j) if row is None
              else {bit[k]: i for i, k in enumerate(row) if k in bit}
              for j, row in enumerate(rows)]
    # the bits of one row are distinct, so their sum is their OR
    masks = [sum(img) for img in images]
    best_hit, best, nodes = 0, None, 0

    def below(S, M, after):
        # the sets S + (j,) for the pivots j in ``after`` whose AND keeps
        # m bits, each with the pivots that may follow it and the most
        # hits of any set at or below it, in the order the walk pops them;
        # a pivot dropped here keeps fewer than m bits below S as well
        kept = [(j, Mj) for j in after if (Mj := M & masks[j]).bit_count() >= m]
        js = [j for j, _ in kept]
        out = []
        for i, (j, Mj) in enumerate(kept):
            # no set at or below S + (j,) holds more than this many pivots
            bound = Mj.bit_count() * (len(S) + len(kept) - i)
            if bound > best_hit:
                out.append((S + (j,), Mj, js[i + 1:], bound))
        return reversed(out)

    stack = list(below((), (1 << len(bit)) - 1, range(n)))
    while stack:
        S, M, after, bound = stack.pop()
        if bound <= best_hit:
            continue
        nodes += 1
        if nodes > budget:
            break
        if len(S) >= m:
            bits = _bits(M)
            h = len({images[j][b] for j in S for b in bits})
            if h > best_hit:
                best_hit, best = h, (S, M)
                # only a strict gain replaces the best, and no hit exceeds |T|
                if h == n:
                    break
        stack.extend(below(S, M, after))
    complete = nodes <= budget
    if best is None:
        return ScalarSet(), ScalarSet(), 0, complete
    S, M = best
    key = {b: k for k, b in bit.items()}
    B = _key_set([key[b] for b in _bits(M)], T.domain)
    C = ScalarSet.from_lattice([ts[j] for j in S], T.lat[1], T.domain)
    return B, C, best_hit, complete


# bench/spans.py wraps this second name; it stays bound only until the
# benchmark renames its cover-search spans
_search_heuristic = _search_exhaustive


def search_bc(query: CoverQuery) -> CoverResult:
    T = query.T
    B, C, hit, complete = _search_exhaustive(T, query.min_factor_size,
                                             query.search_budget)
    return CoverResult(B, C, hit, Fraction(hit, len(T)), complete)


@dataclass(frozen=True)
class ScanRow:
    instance_id: str
    a_size: int
    aa1_size: int
    b_size: int
    c_size: int
    hit_count: int
    coverage_fraction: Fraction
    exhaustive: bool
    tension_flag: bool


def conjecture_scan(instances: Iterable[Tuple[str, ScalarSet]],
                    coverage_target: Fraction = Fraction(1),
                    **query_knobs) -> List[ScanRow]:
    """One row per instance; query_knobs are CoverQuery's fields other
    than A, with CoverQuery's defaults."""
    coverage_target = Fraction(coverage_target)
    if not (0 < coverage_target <= 1):
        raise ValueError("coverage_target must lie in (0, 1]")
    rows = []
    for instance_id, A in instances:
        query = CoverQuery(A=A, **query_knobs)
        res = search_bc(query)
        tension = (res.hit_count > 0
                   and res.coverage_fraction >= coverage_target
                   and min(len(res.best_B), len(res.best_C))
                   >= query.min_factor_size)
        rows.append(ScanRow(
            instance_id=str(instance_id),
            a_size=len(A),
            aa1_size=len(query.T),
            b_size=len(res.best_B),
            c_size=len(res.best_C),
            hit_count=res.hit_count,
            coverage_fraction=res.coverage_fraction,
            exhaustive=res.exhaustive,
            tension_flag=tension,
        ))
    return rows

