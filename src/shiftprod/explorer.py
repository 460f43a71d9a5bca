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
quotient s/t of two lattice items has one exact int key: over Q the
reduced p/r with r > 0 as p*R + r, where R = max|t| + 1 exceeds every r,
over F_q s * t^-1 mod q.  Row j, column i of the pivots' entries is
ts[i]/ts[j], so each pivot's images are the columns of its kept entries.
Each entry is hashed in int64 as s * t^-1 mod M: over Q M is the prime
P = 3037000493, the largest with P * P <= 2**63 (or the next prime below
it that divides no pivot), and over F_q it is q while q <= P; past that
the hash is the exact key mod P.  The hash sits above the entry's flat
index in one int64 word, and one sort of the words gives the runs of
equal hashes, their sizes and, at the head of each run, its first
occurrence.  Equal quotients share a hash.  Over F_q with q <= P, and
over Q while 2 * (R - 1)**2 < P (R <= 38968), distinct quotients s/t,
s'/t' differ mod M, since 0 < |s*t' - s'*t| < M, so each run is one
quotient.  Elsewhere distinct ones may share a hash too, so each run
long enough to take a bit is split by exact key once it holds two
entries; a single entry is one quotient whatever its hash.  Each kept
quotient is named by the flat index of its first entry, and exact keys
are built only for the bits of the returned B.  A quotient takes a bit
position once it lies in min_factor_size quotient sets, in order of
first occurrence row by row, so that each mask spans only the quotients
of the rows up to its own.  Each pivot s of T holds its quotient set T/s
as an int bitmask; when -1 lies in AA, 0 lies in T, and the pivot 0 holds
every quotient, since 0*b = 0.  The pivot sets C are walked depth
first in the lexicographic order of sorted T, ANDing the masks on the way
down.  Every C of size at least min_factor_size is scored by the number of
distinct elements of T that B*C reaches, and the first strict maximum is
kept.  A prefix is dropped with every set below it once its AND has fewer
than min_factor_size bits, or once |AND| times the size of the largest
pivot set below it cannot beat the best hit; a pivot dropped below a
prefix is not tried again further down.  The walk stops when the hit is
|T|.

A pair has |B| >= min_factor_size = m, and each b of B lies in the rows
of the m pivots or more of C, at least need = m - [0 in T] of them
nonzero, so each b takes a bit.  Fewer than m bits therefore prove there
is no pair, and the search answers so right after the runs are counted,
before any bit is numbered or any image, mask or walk is built.

search_budget counts walk nodes.  The exhaustive flag marks exact rows: it
is true exactly when the walk finishes within the budget.  An early answer
is exact too: with fewer than m bits no pivot keeps m of them, so the walk
would visit no node.  A T whose |T|**2 quotient keys exceed PAIR_CAP is
refused before any key is built.  Scalars are built only for the returned
factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import Iterable, List, Tuple

import numpy as np

from .numeric import RATIONAL_DOMAIN, is_prime
from .setalg import ScalarSet, _check_pair_budget, productset, shift

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


def _key_base(T: ScalarSet) -> Tuple[List[int], int]:
    """The lattice items of T in sorted order and the key base R: over Q,
    R = max|t| + 1, which exceeds the denominator of every reduced
    quotient; over F_q, R = q."""
    items, d = T.lat
    ts = sorted(items)
    if T.domain == RATIONAL_DOMAIN:
        return ts, max(map(abs, ts)) + 1
    return ts, d


# the largest prime P with P * P <= 2**63: the product of two residues
# mod P fits in int64
P = 3037000493


def _key(s: int, t: int, R: int, domain) -> int:
    """The exact key of s/t for a nonzero t: over Q the reduced p/r with
    r > 0 as p*R + r, over F_q s * t^-1 mod q."""
    if domain != RATIONAL_DOMAIN:
        return s * pow(t, -1, R) % R
    g = gcd(s, t) if t > 0 else -gcd(s, t)
    return s // g * R + t // g


def _images(at, positions, n: int):
    """For each pivot, the dict from bit position to column of the kept
    entries at the increasing flat indexes ``at``, row * n + column."""
    ends = at.searchsorted(np.arange(n, n * n + 1, n)).tolist()
    positions, columns = positions.tolist(), (at % n).tolist()
    return [dict(zip(positions[a:b], columns[a:b]))
            for a, b in zip([0] + ends, ends)]


def _split(at: List[int], ts: List[int], R: int, domain, need: int):
    """(at, first, size): the entries at the flat indexes ``at`` grouped
    by exact quotient, for the groups of at least ``need``: their entries
    group after group, each group's first index and its size.  The entries
    of one quotient come in increasing order in ``at``."""
    n, groups = len(ts), {}
    for a in at:
        groups.setdefault(_key(ts[a % n], ts[a // n], R, domain), []).append(a)
    groups = [g for g in groups.values() if len(g) >= need]
    return (np.array(list(chain.from_iterable(groups)), dtype=np.int64),
            np.array([g[0] for g in groups], dtype=np.int64),
            np.array(list(map(len, groups)), dtype=np.int64))


def _quotient_bits(ts: List[int], R: int, domain, need: int):
    """(first, images): for each quotient that lies in at least ``need``
    rows, in bit order, the flat index j * len(ts) + i of its first entry
    ts[i] / ts[j]; and for each pivot ts[j] the dict from the bit position
    of b to the index in ts of b * ts[j], None for the pivot 0.  Bits go in
    order of first occurrence, row by row.  Each entry is hashed
    s * t^-1 mod M in int64 and the words sorted once; a run of equal
    hashes is one quotient where the hash is exact, and elsewhere a run of
    at least ``need`` entries is split by exact key once it holds two.

    ``images`` is None when fewer than m = need + [0 in ts] quotients are
    kept: a pair has |B| >= m, and each b of B lies in the need nonzero
    rows of C at least, so each takes a bit, and there is no pair."""
    n, t = len(ts), [x for x in ts if x]
    if not t:
        # T = {0}: no quotient, so no pair
        return np.empty(0, dtype=np.int64), None
    if domain == RATIONAL_DOMAIN:
        M = P
        # a pivot +-M has no inverse mod M; only a pivot of size at least
        # M can be one
        while R > M and any(x % M == 0 for x in t):
            M = next(p for p in range(M - 2, 2, -2) if is_prime(p))
        # distinct quotients s/t, s'/t' differ mod M: 0 < |s*t' - s'*t| < M
        exact = 2 * (R - 1) ** 2 < M
    else:
        M, exact = min(R, P), R <= P
    if domain == RATIONAL_DOMAIN or exact:
        inv = np.array([pow(x, -1, M) for x in t], dtype=np.int64)
        words = np.multiply.outer(inv, np.array([x % M for x in ts], dtype=np.int64))
        words %= M
    else:
        # over F_q past P, s * t^-1 mod q does not fit int64: hash its
        # exact key mod P
        words = np.empty((len(t), n), dtype=np.int64)
        for row, x in zip(words, t):
            inv = pow(x, -1, R)
            row[:] = [s * inv % R % P for s in ts]
    # the hash above the flat index: M < 2**32 and the index is below
    # |T|**2 <= PAIR_CAP < 2**24, so every word is below 2**56
    w = (n * n - 1).bit_length()
    low = (1 << w) - 1
    words <<= w
    index = np.arange(n * n).reshape(n, n)
    if 0 in ts:
        index = np.delete(index, ts.index(0), axis=0)
    words |= index
    del index
    words = words.reshape(-1)
    words.sort()
    # the runs of equal hashes, each from edges[k] up to edges[k + 1]
    hashes = words >> w
    edges = np.concatenate(
        ([True], hashes[1:] != hashes[:-1], [True])).nonzero()[0]
    del hashes
    size = edges[1:] - edges[:-1]
    # the flat indexes of the kept runs, by hash and then by index, and
    # each run's first word, its first occurrence
    words &= low
    kept = size >= need
    first = words[edges[:-1][kept]]
    words = words[kept.repeat(size)]
    size = size[kept]
    del edges, kept
    if not exact and (split := size >= 2).any():
        # a kept run of two or more entries may hold distinct quotients
        moved = split.repeat(size)
        at, firsts, sizes = _split(words[moved].tolist(), ts, R, domain, need)
        words = np.concatenate((words[~moved], at))
        first = np.concatenate((first[~split], firsts))
        size = np.concatenate((size[~split], sizes))
    if len(first) < need + (0 in ts):
        # fewer than m kept quotients: no B of m quotients, so no pair
        return np.sort(first), None
    # bits in order of first occurrence, and the kept entries as
    # index << w | bit, in flat order
    order = first.argsort()
    bit = np.empty(len(order), dtype=np.int64)
    bit[order] = np.arange(len(order))
    entries = words << w
    entries |= bit.repeat(size)
    entries.sort()
    images = _images(entries >> w, entries & low, n)
    if 0 in ts:
        images[ts.index(0)] = None
    return first[order], images


def _key_set(keys, R: int, domain) -> ScalarSet:
    """The ScalarSet of quotient keys of base ``R`` over ``domain``."""
    if domain == RATIONAL_DOMAIN:
        pairs = [divmod(k, R) for k in keys]
        d = lcm(*(r for _, r in pairs))
        return ScalarSet.from_lattice([p * (d // r) for p, r in pairs], d)
    return ScalarSet.from_lattice(keys, domain, domain)


def _bits(M: int) -> List[int]:
    """The positions of the set bits of M, lowest first."""
    out = []
    while M:
        low = M & -M
        out.append(low.bit_length() - 1)
        M ^= low
    return out


def _mask(positions) -> int:
    """The int with exactly the bits at ``positions`` set."""
    buf = bytearray((max(positions, default=0) >> 3) + 1)
    for i in positions:
        buf[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(buf, "little")


def _search_exhaustive(T: ScalarSet, m: int, budget: int):
    """(B, C, hit, complete): the first pair with the most hits among the
    pivot sets C that the walk reaches within ``budget`` nodes, and
    whether it finished."""
    ts, R = _key_base(T)
    n = len(ts)
    # B for pivots C is the intersection of their rows, so a quotient in
    # fewer than m rows lies in no B and takes no bit; the pivot 0, if
    # any, holds every quotient
    first, images = _quotient_bits(ts, R, T.domain, m - (0 in ts))
    if images is None:
        # the walk would keep no pivot and visit no node
        return ScalarSet(), ScalarSet(), 0, True
    images = [dict.fromkeys(range(len(first)), j) if img is None else img
              for j, img in enumerate(images)]
    masks = [_mask(img) for img in images]
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

    stack = list(below((), (1 << len(first)) - 1, range(n)))
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
    B = _key_set([_key(ts[first[i] % n], ts[first[i] // n], R, T.domain)
                  for i in _bits(M)], R, T.domain)
    C = ScalarSet.from_lattice([ts[j] for j in S], T.lat[1], T.domain)
    return B, C, best_hit, complete


# bench/spans.py wraps this second name; it stays bound only until the
# benchmark renames its cover-search spans
_search_heuristic = _search_exhaustive


def search_bc(query: CoverQuery) -> CoverResult:
    T = query.T
    _check_pair_budget(len(T), len(T), "cover search")
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
    CoverQuery(ScalarSet([1]), **query_knobs)  # checks the knobs before any instance
    rows = []
    for instance_id, A in instances:
        query = CoverQuery(A=A, **query_knobs)
        res = search_bc(query)
        # the walk scores only C of min_factor_size pivots or more whose AND
        # keeps as many bits, so a positive hit has |B|, |C| that large too
        tension = res.hit_count > 0 and res.coverage_fraction >= coverage_target
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

