"""Search for two-factor covers of a shifted product set.

Given A, let T = AA+1.  The explorer looks for pairs of sets (B, C), both
of size at least min_factor_size, whose product B*C hits as much of T as
possible.  Instances where high coverage is achievable with both factors
large are the interesting rows: the guiding expectation is that one factor
always stays small, so such rows are flagged as tension findings in scan
tables.  Tables are evidence, never claimed proofs.

T is built once per query and read on its int lattice (see setalg).  A
quotient s/t of two lattice items is keyed by ints: a reduced (num, den)
pair with den > 0 over Q, s * t^-1 mod q over F_q.  Scalars are built only
for the universe and the returned factors.  Two tiers:

  * exhaustive: when the quotient universe U = T union {s/t} has at most
    exhaustive_cutoff elements, its admissible subsets (size at least
    min_factor_size, in ascending bitmask order over U in sort_key order)
    are read with two first-match scans.  hit(B, C) = |B*C & T| only grows
    with C, and every C lies inside U, so hit(B, C) <= hit(B, U) <=
    hit(U, U).  The first B with hit(B, U) == hit(U, U), paired with the
    first C that reaches the same count, is the pair the plain double loop
    over all subset pairs keeps (it replaces its best only on a strict
    improvement).  One |U| x |U| table holds the T bit of each product, and
    a scan ORs rows into a table of 2**|U| T-masks, each mask's from the
    mask without its lowest bit, so hit counts are popcounts.  U contains
    T, so it is built only when |T| is within the cutoff, and that mask
    table caps the cutoff at EXHAUSTIVE_CUTOFF_CAP;
  * heuristic: pivot sets S of size min_factor_size drawn from the nonzero
    elements of T, paired with B = {x : x*s in T for every s in S}, the
    largest set whose products with S all land inside T.  Each pivot holds
    its quotient set T/s as an int bitmask, and the pivot sets are walked
    depth first in the order of itertools.combinations over sorted T,
    ANDing the masks on the way down.  A prefix whose AND has fewer than
    min_factor_size bits is dropped uncounted with every set below it, so
    the walk ANDs at most |T| masks per kept prefix.  search_budget bounds the number of pivot sets with |B| >=
    min_factor_size; the hit is the number of distinct elements of T that
    B*S reaches, and the first strict maximum is kept; the walk stops once
    that maximum is |T|.

The exhaustive flag marks exact rows: it is true exactly when the
exhaustive tier ran.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property, reduce
from fractions import Fraction
from math import gcd, lcm
from operator import or_
from typing import Iterable, List, Tuple

from .numeric import RATIONAL_DOMAIN
from .setalg import ScalarSet, productset, set_union, shift

__all__ = [
    "EXHAUSTIVE_CUTOFF_CAP",
    "CoverQuery",
    "CoverResult",
    "ScanRow",
    "conjecture_scan",
    "search_bc",
]

EXHAUSTIVE_CUTOFF_CAP = 16


@dataclass(frozen=True)
class CoverQuery:
    A: ScalarSet
    min_factor_size: int = 2
    search_budget: int = 200_000
    exhaustive_cutoff: int = 12

    def __post_init__(self):
        if len(self.A) == 0:
            raise ValueError("empty A")
        if self.min_factor_size < 1:
            raise ValueError("min_factor_size must be at least 1")
        if self.search_budget < 1:
            raise ValueError("search_budget must be at least 1")
        if not 1 <= self.exhaustive_cutoff <= EXHAUSTIVE_CUTOFF_CAP:
            raise ValueError(f"exhaustive_cutoff must lie in [1, "
                             f"{EXHAUSTIVE_CUTOFF_CAP}]")

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


def _quotient_keys(T: ScalarSet) -> Tuple[List[int], List[List]]:
    """The lattice items of T in sorted order, and for each nonzero one t,
    in that order, the keys of s/t for the items s in that order: a reduced
    (num, den) pair with den > 0 over Q, s * t^-1 mod q over F_q."""
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
    return ts, [row(t) for t in ts if t]


def _key_set(keys, domain) -> ScalarSet:
    """The ScalarSet of quotient keys over ``domain``."""
    if domain == RATIONAL_DOMAIN:
        d = lcm(*(den for _, den in keys))
        return ScalarSet.from_lattice([n * (d // den) for n, den in keys], d)
    return ScalarSet.from_lattice(keys, domain, domain)


def _universe(T: ScalarSet) -> List:
    """T together with all pairwise quotients, sorted."""
    _, rows = _quotient_keys(T)
    quotients = _key_set({k for row in rows for k in row}, T.domain)
    return set_union(T, quotients).sorted()


def _first_cover(rows: List[int], top: int, m: int) -> int:
    """The least mask with at least m bits whose rows OR to ``top`` bits,
    if any.  acc[mask] is the OR of the rows of mask's bits, built in
    ascending mask order from the mask without its lowest bit."""
    acc = [0]
    for mask in range(1, 1 << len(rows)):
        low = mask & -mask
        hit = acc[mask ^ low] | rows[low.bit_length() - 1]
        acc.append(hit)
        if hit.bit_count() == top and mask.bit_count() >= m:
            return mask


def _search_exhaustive(U: List, Tset, m: int):
    n = len(U)
    if m > n:
        return ScalarSet(), ScalarSet(), 0, True
    tbit = {t: 1 << k for k, t in enumerate(Tset)}
    # table[i][j] is the T bit of U[i]*U[j], 0 when the product is off T
    table = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            table[i][j] = table[j][i] = tbit.get(U[i] * U[j], 0)

    def rows(mask):
        # row j: the T bits of U[i]*U[j] over the i in mask
        return [reduce(or_, (table[i][j] for i in range(n) if mask >> i & 1), 0)
                for j in range(n)]

    # hit(B, C) <= hit(B, U) <= hit(U, U), and the full mask reaches
    # hit(U, U), so both scans stop
    full = (1 << n) - 1
    on_u = rows(full)
    top = reduce(or_, on_u).bit_count()
    b = _first_cover(on_u, top, m)
    c = _first_cover(rows(b), top, m)
    B, C = ([U[i] for i in range(n) if mask >> i & 1] for mask in (b, c))
    return ScalarSet(B), ScalarSet(C), top, True


def _pivot_sets(masks: List[int], m: int):
    """(S, M) for each m-subset S of pivot indices, in the lexicographic
    order of itertools.combinations, whose AND M of masks has at least m
    bits.  A prefix whose AND has fewer than m bits is dropped whole: every
    set below it has fewer too."""
    n = len(masks)
    stack = [((), -1)]
    while stack:
        S, M = stack.pop()
        if len(S) == m:
            yield S, M
            continue
        # pushed in reverse, so the least index is walked first
        for j in range(n - m + len(S), S[-1] if S else -1, -1):
            Mj = M & masks[j]
            if Mj.bit_count() >= m:
                stack.append((S + (j,), Mj))


def _search_heuristic(T: ScalarSet, m: int, budget: int):
    ts, rows = _quotient_keys(T)
    pivots = [t for t in ts if t]
    # B for m pivots is the intersection of their rows, so a quotient in
    # fewer than m rows lies in no B and takes no bit
    seen = Counter(k for row in rows for k in row)
    bit = {k: 1 << i for i, k in enumerate(k for k, c in seen.items() if c >= m)}
    # images[j] maps the bit of b to the index in ts of b * pivots[j]
    images = [{bit[k]: i for i, k in enumerate(row) if k in bit} for row in rows]
    # the bits of one row are distinct, so their sum is their OR
    masks = [sum(img) for img in images]
    best_hit, best, evals = 0, None, 0
    for S, M in _pivot_sets(masks, m):
        evals += 1
        if evals > budget:
            break
        bits = []
        while M:
            bits.append(M & -M)
            M &= M - 1
        h = len({images[j][b] for j in S for b in bits})
        if h > best_hit:
            best_hit, best = h, (S, bits)
            # only a strict gain replaces the best, and no hit exceeds |T|
            if h == len(ts):
                break
    if best is None:
        return ScalarSet(), ScalarSet(), 0
    S, bits = best
    key = {b: k for k, b in bit.items()}
    B = _key_set([key[b] for b in bits], T.domain)
    C = ScalarSet.from_lattice([pivots[j] for j in S], T.lat[1], T.domain)
    return B, C, best_hit


def search_bc(query: CoverQuery) -> CoverResult:
    T, m, budget = query.T, query.min_factor_size, query.search_budget
    # U contains T, so a T above the cutoff already means the heuristic tier
    if len(T) <= query.exhaustive_cutoff:
        U = _universe(T)
        if len(U) <= query.exhaustive_cutoff:
            B, C, hit, complete = _search_exhaustive(U, T.elems, m)
            return CoverResult(B, C, hit, Fraction(hit, len(T)), complete)
    B, C, hit = _search_heuristic(T, m, budget)
    return CoverResult(B, C, hit, Fraction(hit, len(T)), False)


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

