"""Search for two-factor covers of a shifted product set.

Given A, let T = AA+1.  The explorer looks for pairs of sets (B, C), both
of size at least min_factor_size, whose product B*C hits as much of T as
possible.  Instances where high coverage is achievable with both factors
large are the interesting rows: the guiding expectation is that one factor
always stays small, so such rows are flagged as tension findings in scan
tables.  Tables are evidence, never claimed proofs.

Candidates are drawn from the quotient universe U = T union {s/t}.  Two
tiers:

  * exhaustive: when |U| is small, every admissible subset pair of U is
    scanned in deterministic bitmask order (with a prune that only skips
    pairs which provably cannot improve the running best, so the outcome
    equals the plain double loop);
  * heuristic: pivot sets S of size min_factor_size drawn from T, paired
    with B = {x : x*s in T for every s in S}, the largest set whose
    products with S all land inside T.

Both tiers are budgeted; the exhaustive flag reports whether the scan
finished.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Tuple

from .numeric import PrimeFieldElement, as_rational, sort_key
from .setalg import ScalarSet, productset, shift
from .harness import _one_for

__all__ = [
    "CoverQuery",
    "CoverResult",
    "ScanRow",
    "conjecture_scan",
    "scan_csv",
    "search_bc",
]

SCAN_COLUMNS = ["instance_id", "a_size", "aa1_size", "b_size", "c_size",
                "hit_count", "coverage_fraction", "exhaustive", "tension_flag"]


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
        if self.exhaustive_cutoff < 1:
            raise ValueError("exhaustive_cutoff must be at least 1")


@dataclass(frozen=True)
class CoverResult:
    best_B: ScalarSet
    best_C: ScalarSet
    hit_count: int
    coverage_fraction: Fraction
    exhaustive: bool


def _invertible(x) -> bool:
    if isinstance(x, PrimeFieldElement):
        return x.residue != 0
    return x != 0


def _div(s, t):
    if isinstance(s, PrimeFieldElement):
        return s * t.inverse()
    return as_rational(Fraction(s) / Fraction(t))


def _universe(T: ScalarSet) -> List:
    """T together with all pairwise quotients, sorted."""
    U = set(T.elems)
    for t in T:
        if not _invertible(t):
            continue
        for s in T:
            U.add(_div(s, t))
    return sorted(U, key=sort_key)


def _hit(B, C, Tset) -> int:
    return len({b * c for b in B for c in C} & Tset)


def _search_exhaustive(U: List, Tset, m: int, budget: int):
    n = len(U)
    subsets = [tuple(U[i] for i in range(n) if mask >> i & 1)
               for mask in range(1 << n)]
    best_hit = -1
    best = (ScalarSet(), ScalarSet())
    evals = 0
    complete = True
    full = subsets[-1]
    for bmask in range(1, 1 << n):
        B = subsets[bmask]
        if len(B) < m:
            continue
        # an upper bound over every possible C; skipping cannot change
        # which pair first attains each strict improvement
        if _hit(B, full, Tset) <= best_hit:
            continue
        stop = False
        for cmask in range(1, 1 << n):
            C = subsets[cmask]
            if len(C) < m:
                continue
            evals += 1
            if evals > budget:
                complete = False
                stop = True
                break
            h = _hit(B, C, Tset)
            if h > best_hit:
                best_hit = h
                best = (ScalarSet(B), ScalarSet(C))
        if stop:
            break
    if best_hit < 0:
        return ScalarSet(), ScalarSet(), 0, complete
    return best[0], best[1], best_hit, complete


def _search_heuristic(T: ScalarSet, U: List, m: int, budget: int):
    Tset = T.elems
    pivots = [t for t in T.sorted() if _invertible(t)]
    quotients = {t: frozenset(_div(s, t) for s in T) for t in pivots}
    best_hit = -1
    best = (ScalarSet(), ScalarSet())
    evals = 0
    for S in itertools.combinations(pivots, m):
        B = quotients[S[0]]
        for t in S[1:]:
            B = B & quotients[t]
        if len(B) < m:
            continue
        evals += 1
        if evals > budget:
            break
        h = _hit(B, S, Tset)
        if h > best_hit:
            best_hit = h
            best = (ScalarSet(B), ScalarSet(S))
    if best_hit < 0:
        return ScalarSet(), ScalarSet(), 0
    return best[0], best[1], best_hit


def search_bc(query: CoverQuery) -> CoverResult:
    A = query.A
    T = shift(productset(A, A), _one_for(A.domain))
    U = _universe(T)
    m = query.min_factor_size
    if len(U) <= query.exhaustive_cutoff:
        B, C, hit, complete = _search_exhaustive(
            U, T.elems, m, query.search_budget)
        return CoverResult(B, C, hit, Fraction(hit, len(T)), complete)
    B, C, hit = _search_heuristic(T, U, m, query.search_budget)
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
                    min_factor_size: int = 2,
                    coverage_target: Fraction = Fraction(1),
                    search_budget: int = 200_000,
                    exhaustive_cutoff: int = 12) -> List[ScanRow]:
    coverage_target = Fraction(coverage_target)
    if not (0 < coverage_target <= 1):
        raise ValueError("coverage_target must lie in (0, 1]")
    rows = []
    for instance_id, A in instances:
        T = shift(productset(A, A), _one_for(A.domain))
        res = search_bc(CoverQuery(A=A,
                                   min_factor_size=min_factor_size,
                                   search_budget=search_budget,
                                   exhaustive_cutoff=exhaustive_cutoff))
        tension = (res.hit_count > 0
                   and res.coverage_fraction >= coverage_target
                   and min(len(res.best_B), len(res.best_C)) >= min_factor_size)
        rows.append(ScanRow(
            instance_id=str(instance_id),
            a_size=len(A),
            aa1_size=len(T),
            b_size=len(res.best_B),
            c_size=len(res.best_C),
            hit_count=res.hit_count,
            coverage_fraction=res.coverage_fraction,
            exhaustive=res.exhaustive,
            tension_flag=tension,
        ))
    return rows


def scan_csv(rows: List[ScanRow]) -> str:
    out = [",".join(SCAN_COLUMNS)]
    for r in rows:
        out.append(",".join([
            r.instance_id,
            str(r.a_size),
            str(r.aa1_size),
            str(r.b_size),
            str(r.c_size),
            str(r.hit_count),
            str(r.coverage_fraction),
            "true" if r.exhaustive else "false",
            "true" if r.tension_flag else "false",
        ]))
    return "\n".join(out) + "\n"
