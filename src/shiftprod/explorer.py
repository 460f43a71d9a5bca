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
quotient s/t of two lattice items is keyed by one int: over Q the reduced
p/r with r > 0 as p*R + r, where R = max|t| + 1 exceeds every r, over F_q
s * t^-1 mod q.  Past R * R <= 2**63 these keys are Python ints counted
by a Counter, the reference the tests hold the int64 route to.  Within
it, row j, column i of the nonzero pivots' entries is ts[i]/ts[j], so
each pivot's images are the columns of its kept entries.  Each entry is
keyed s * t^-1 mod M, with M = q over F_q and over Q the prime
P = 3037000493, the largest with P * P <= 2**63 (or the next prime below
it that divides no pivot).  The key sits above the entry's flat index in
one int64 word, and one sort of the words gives the runs of equal keys,
their sizes and, at the head of each run, its first occurrence.  Over
F_q, and over Q while 2 * (R - 1)**2 < P (R <= 38968), distinct
quotients s/t, s'/t' differ mod M, since 0 < |s*t' - s'*t| < M, so each
run is one quotient.  Past that bound equal quotients still share a key,
but distinct ones may too, so a run long enough to take a bit only names
candidates: their entries are keyed exactly, as on the Python route, and
counted again.  When every entry is kept (min_factor_size 1, or 2 with 0
in T), every entry is keyed exactly at once.  A quotient takes a bit
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

search_budget counts walk nodes.  The exhaustive flag marks exact rows: it
is true exactly when the walk finishes within the budget.  A T whose
|T|**2 quotient keys exceed PAIR_CAP is refused before any key is built.
Scalars are built only for the returned factors.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import chain, compress, count
from math import gcd, lcm
from typing import Iterable, List, Optional, Tuple

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


def _quotient_keys(ts: List[int], R: int, domain) -> List[Optional[List[int]]]:
    """For each item t of ``ts``, in order, the keys of s/t for the items
    s of ``ts`` in order; None for t = 0.  Over Q the reduced p/r with
    r > 0 is keyed p*R + r; over F_q the key is s * t^-1 mod q."""
    if domain == RATIONAL_DOMAIN:
        sR = [s * R for s in ts]
        neg = [-x for x in sR]

        def row(t):
            # (s*R + t) // gcd(s, t), or for t < 0 the key of -s/-t,
            # (-s*R - t) // gcd(s, t)
            a, base = abs(t), sR if t > 0 else neg
            return [(x + a) // gcd(s, t) for s, x in zip(ts, base)]
    else:
        def row(t):
            inv = pow(t, -1, R)
            return [s * inv % R for s in ts]
    return [row(t) if t else None for t in ts]


def _python_bits(ts: List[int], R: int, domain, need: int):
    """(keys, images): the quotient keys that lie in at least ``need``
    rows, in bit order, and for each pivot ts[j] the dict from the bit
    position of b to the index in ts of b * ts[j]; None for the pivot 0.
    Python ints, any R; bits in order of first occurrence."""
    rows = _quotient_keys(ts, R, domain)
    seen = Counter(chain.from_iterable(filter(None, rows)))
    bit = dict(zip(compress(seen, map(need.__le__, seen.values())), count()))
    index = {s: i for i, s in enumerate(ts)}
    images = []
    for t, row in zip(ts, rows):
        if row is None:
            images.append(None)
        elif domain == RATIONAL_DOMAIN:
            # p*t // r for the key p*R + r
            images.append({bit[k]: index[k // R * t // (k % R)]
                           for k in bit.keys() & row})
        else:
            images.append({bit[k]: index[k * t % R] for k in bit.keys() & row})
    return list(bit), images


# the largest prime P with P * P <= 2**63: the product of two residues
# mod P fits in int64
P = 3037000493


def _exact_keys(t, s, R: int, domain):
    """The keys of s/t as on the Python route, elementwise with
    broadcasting: over Q the reduced p/r with r > 0 keyed p*R + r, that
    is (sign(t)*s*R + |t|) // gcd(s, t); over F_q s * t^-1 mod q."""
    if domain != RATIONAL_DOMAIN:
        inv = [pow(x, -1, R) for x in t.ravel().tolist()]
        return np.array(inv, dtype=np.int64).reshape(t.shape) * s % R
    keys = np.sign(t) * (s * R)
    keys += np.abs(t)
    keys //= np.gcd(t, s)
    return keys


def _images(at, positions, n: int, rows: int):
    """For each nonzero pivot, the dict from bit position to column of the
    kept entries at the increasing flat indexes ``at``, row * n + column."""
    ends = at.searchsorted(np.arange(n, n * rows + 1, n)).tolist()
    positions, columns = positions.tolist(), (at % n).tolist()
    return [dict(zip(positions[a:b], columns[a:b]))
            for a, b in zip([0] + ends, ends)]


def _count_keys(keys, at, n: int, rows: int, need: int):
    """(keys, images) from the exact keys of the entries at the increasing
    flat indexes ``at``, or of every entry for None, counted by one
    np.unique; bits in order of first occurrence."""
    _, where, counts = np.unique(keys, return_inverse=True, return_counts=True)
    kept = counts >= need
    # the position in ``keys`` of each entry whose quotient takes a bit
    pos = np.flatnonzero(kept[where])
    where = where[pos]
    first = np.full(len(counts), len(keys))
    np.minimum.at(first, where, pos)
    kept = np.flatnonzero(kept)
    kept = kept[np.argsort(first[kept])]
    bit = np.empty(len(counts), dtype=np.int64)
    bit[kept] = np.arange(len(kept))
    positions = bit[where]
    keys = keys[first[kept]].tolist()
    at = pos if at is None else at[pos]
    del where, counts, pos, first, kept, bit
    return keys, _images(at, positions, n, rows)


def _int64_bits(ts: List[int], R: int, domain, need: int):
    """``_python_bits`` in int64 numpy, for R * R <= 2**63.  The entries
    are the quotients ts[i] / ts[j] of the nonzero pivots ts[j], at flat
    index j * len(ts) + i, so the image of an entry's bit under its pivot
    is its column i.  For need > 1 each entry is keyed s * t^-1 mod M and
    the keys are counted by one sort; where keys mod P can collide, the
    entries of the runs of at least ``need`` are keyed exactly and counted
    again."""
    n, s = len(ts), np.array(ts, dtype=np.int64)
    t = s[s != 0]
    rows = len(t)
    if need <= 1 or not rows:
        # every entry is kept, or there is none: key each one exactly.  The
        # key matrix is passed on unnamed, so that it is freed before the
        # dicts are filled
        keys, images = _count_keys(
            _exact_keys(t[:, None], s, R, domain).reshape(-1),
            None, n, rows, need)
    else:
        M = P if domain == RATIONAL_DOMAIN else R
        # a pivot +-M has no inverse mod M; only a pivot of size at least
        # M can be one
        while R > M and (t % M == 0).any():
            M = next(p for p in range(M - 2, 2, -2) if is_prime(p))
        inv = np.array([pow(x, -1, M) for x in t.tolist()], dtype=np.int64)
        # s * t^-1 mod M above the flat index: M < 2**32 and the index is
        # below |T|**2 <= PAIR_CAP < 2**24, so every word is below 2**56
        w = (rows * n - 1).bit_length()
        low = (1 << w) - 1
        words = np.multiply.outer(inv, s % M)
        words %= M
        words <<= w
        words |= np.arange(rows * n).reshape(rows, n)
        words = words.reshape(-1)
        words.sort()
        # the runs of equal keys, each from edges[k] up to edges[k + 1]
        hashes = words >> w
        edges = np.concatenate(
            ([True], hashes[1:] != hashes[:-1], [True])).nonzero()[0]
        del hashes
        size = edges[1:] - edges[:-1]
        kept = size >= need
        # the first word of each kept run, and the words of all their
        # entries, by key and then by flat index
        first = words[edges[:-1][kept]]
        words = words[kept.repeat(size)]
        size = size[kept]
        del edges, kept
        if domain == RATIONAL_DOMAIN and 2 * (R - 1) ** 2 >= M:
            # distinct quotients may share a key mod M: the runs name
            # candidates, which are keyed exactly and counted again
            at = np.sort(words & low)
            keys = _exact_keys(t[at // n], s[at % n], R, domain)
            keys, images = _count_keys(keys, at, n, rows, need)
        else:
            # the key is exact: over F_q it is the quotient itself, over Q
            # |s*t' - s'*t| <= 2*(R-1)**2 < M.  So each run is one quotient,
            # and its first word is its first occurrence; bits go in that
            # order
            order = (first & low).argsort()
            bit = np.empty(len(order), dtype=np.int64)
            bit[order] = np.arange(len(order))
            # the kept entries as index << w | bit, in flat order
            entries = (words & low) << w
            entries |= bit.repeat(size)
            entries.sort()
            first = first[order]
            if domain == RATIONAL_DOMAIN:
                at = first & low
                keys = _exact_keys(t[at // n], s[at % n], R, domain).tolist()
            else:
                keys = (first >> w).tolist()
            images = _images(entries >> w, entries & low, n, rows)
    if 0 in ts:
        images.insert(ts.index(0), None)
    return keys, images


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
    route = _int64_bits if R * R <= 2 ** 63 else _python_bits
    keys, images = route(ts, R, T.domain, m - (0 in ts))
    images = [dict.fromkeys(range(len(keys)), j) if img is None else img
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

    stack = list(below((), (1 << len(keys)) - 1, range(n)))
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
    B = _key_set([keys[i] for i in _bits(M)], R, T.domain)
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

