"""Search for two-factor covers of a shifted product set.

Given A, let T = AA+1.  The explorer looks for pairs of sets (B, C), both
of size at least min_factor_size, whose product B*C hits as much of T as
possible.  Instances where high coverage is achievable with both factors
large are the interesting rows: the guiding expectation is that one factor
always stays small, so such rows are flagged as tension findings in scan
tables.  Tables are evidence, never claimed proofs.

T is built once per query.  Two tiers:

  * exhaustive: when the quotient universe U = T union {s/t} has at most
    exhaustive_cutoff elements, the admissible subsets of U (size at least
    min_factor_size, in ascending bitmask order) are read with two
    first-match scans.  hit(B, C) = |B*C & T| only grows with C, and every
    C lies inside U, so hit(B, C) <= hit(B, U) <= hit(U, U).  The first B
    with hit(B, U) == hit(U, U), paired with the first C that reaches the
    same count, is the pair the plain double loop over all subset pairs
    keeps (it replaces its best only on a strict improvement).  At most
    2N + 1 hit counts are made for N admissible subsets.  U contains T, so
    it is built only when |T| is within the cutoff; its 2**|U| subsets are
    listed up front, so the cutoff is capped at EXHAUSTIVE_CUTOFF_CAP;
  * heuristic: pivot sets S of size min_factor_size drawn from T, paired
    with B = {x : x*s in T for every s in S}, the largest set whose
    products with S all land inside T.  search_budget bounds the number of
    pivot sets it evaluates.

The exhaustive flag marks exact rows: it is true exactly when the
exhaustive tier ran.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable, List, Tuple

from .numeric import PrimeFieldElement, as_rational, scalar_is_zero, sort_key
from .setalg import ScalarSet, productset, shift

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


def _div(s, t):
    if isinstance(s, PrimeFieldElement):
        return s / t
    return as_rational(Fraction(s) / t)


def _universe(T: ScalarSet) -> List:
    """T together with all pairwise quotients, sorted."""
    U = set(T.elems)
    U.update(_div(s, t) for t in T if not scalar_is_zero(t) for s in T)
    return sorted(U, key=sort_key)


def _hit(B, C, Tset) -> int:
    return len({b * c for b in B for c in C} & Tset)


def _search_exhaustive(U: List, Tset, m: int):
    n = len(U)
    admissible = [S for S in (tuple(U[i] for i in range(n) if mask >> i & 1)
                              for mask in range(1, 1 << n)) if len(S) >= m]
    if not admissible:
        return ScalarSet(), ScalarSet(), 0, True
    # hit(B, C) <= hit(B, U) <= hit(U, U), and U is the last admissible
    # subset, so both scans stop
    top = _hit(U, U, Tset)
    B = next(S for S in admissible if _hit(S, U, Tset) == top)
    C = next(S for S in admissible if _hit(B, S, Tset) == top)
    return ScalarSet(B), ScalarSet(C), top, True


def _search_heuristic(T: ScalarSet, m: int, budget: int):
    Tset = T.elems
    pivots = [t for t in T.sorted() if not scalar_is_zero(t)]
    quotients = {t: frozenset(_div(s, t) for s in T) for t in pivots}
    best_hit, best, evals = -1, (ScalarSet(), ScalarSet()), 0
    for S in itertools.combinations(pivots, m):
        B = frozenset.intersection(*(quotients[t] for t in S))
        if len(B) < m:
            continue
        evals += 1
        if evals > budget:
            break
        h = _hit(B, S, Tset)
        if h > best_hit:
            best_hit, best = h, (ScalarSet(B), ScalarSet(S))
    return best[0], best[1], max(best_hit, 0)


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

